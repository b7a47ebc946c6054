//! Layer probes of a traced run, made after the timed window: twin
//! models timed outside the executor (`eml-nn` forwards per precision,
//! batch and width; a layer-by-layer walk through
//! `Network::layer_mut`; `eml-dnn` knob switches), and the `eml-net`
//! probe (pings, interleaved wire and in-process requests, the codec).

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

use eml_dnn::{Precision, WidthLevel};
use eml_net::client::encode_submit_payload;
use eml_net::{frame, NetClient, NetServer};
use eml_serve::Executor;

use crate::fixture::{self, ModelCfg};
use crate::trace::Tracer;

/// The layers of every testbed model, in forward order.
pub const LAYERS: [&str; 10] = [
    "conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "conv3", "relu3", "flatten", "fc",
];
/// Width levels, named by their share of the full width.
pub const WIDTHS: [&str; 4] = ["w25", "w50", "w75", "w100"];
/// Batch sizes the forward probes time.
pub const BATCHES: [usize; 2] = [1, 8];
/// Timed repetitions per forward configuration.
const FWD_REPS: usize = 60;
/// Untimed repetitions before each configuration.
const WARM_REPS: usize = 3;

thread_local! {
    static NAMES: RefCell<HashMap<String, &'static str>> = RefCell::new(HashMap::new());
}

/// A `'static` copy of `name`, made once per distinct name.
pub fn intern(name: &str) -> &'static str {
    NAMES.with(|n| {
        *n.borrow_mut()
            .entry(name.to_string())
            .or_insert_with(|| Box::leak(name.to_string().into_boxed_str()))
    })
}

/// Short precision tag used in names.
pub fn ptag(p: Precision) -> &'static str {
    match p {
        Precision::F32 => "f32",
        Precision::Int8 => "i8",
    }
}

/// Span name of a forward probe.
pub fn fwd_span(p: Precision, batch: usize, width: usize) -> &'static str {
    intern(&format!("nn.fwd_{}_b{batch}.{}", ptag(p), WIDTHS[width]))
}

/// Span name of one layer of a walk at `batch`.
pub fn layer_span(layer: &str, batch: usize) -> &'static str {
    intern(&format!("nn.layer.{layer}.b{batch}"))
}

/// Times twin-model forwards, a layer walk and knob switches of a
/// `cfg` model seeded `seed`, recording `nn.*` and `dnn.switch` spans.
///
/// # Panics
///
/// If the model's layers are not [`LAYERS`] (the metric names would
/// not describe it).
pub fn nn(cfg: ModelCfg, seed: u64, tracer: &mut Tracer) {
    let pool = fixture::samples(seed, 8, cfg.sample_len());
    let rows: Vec<&[f32]> = pool.iter().map(Vec::as_slice).collect();
    let inputs = [fixture::batch(cfg, &rows[..1]), fixture::batch(cfg, &rows)];
    let mut dnn = cfg.build(seed);
    for precision in [Precision::F32, Precision::Int8] {
        if precision == Precision::Int8 {
            fixture::make_int8(cfg, &mut dnn, seed);
        }
        for width in 0..WIDTHS.len() {
            dnn.set_level(WidthLevel(width)).expect("level in range");
            for (x, &b) in inputs.iter().zip(&BATCHES) {
                let name = fwd_span(precision, b, width);
                for rep in 0..WARM_REPS + FWD_REPS {
                    let t0 = Instant::now();
                    let y = dnn.network_mut().forward(x, false).expect("forward");
                    let t1 = Instant::now();
                    std::hint::black_box(y);
                    if rep >= WARM_REPS {
                        tracer.record(name, 0, 0, b as u64, t0, t1);
                    }
                }
            }
        }
    }

    // Layer walk, f32 at full width.
    dnn.set_precision(Precision::F32);
    dnn.set_level(WidthLevel(WIDTHS.len() - 1))
        .expect("level in range");
    let net = dnn.network_mut();
    let names: Vec<String> = (0..net.layer_count())
        .map(|i| net.layer_mut(i).expect("index in range").name().to_string())
        .collect();
    assert_eq!(names, LAYERS, "testbed model layers changed");
    for (x, &b) in inputs.iter().zip(&BATCHES) {
        let walk = intern(&format!("nn.walk.b{b}"));
        let spans: Vec<&'static str> = LAYERS.iter().map(|l| layer_span(l, b)).collect();
        for rep in 0..WARM_REPS + FWD_REPS {
            let start = Instant::now();
            let mut marks = Vec::with_capacity(LAYERS.len() + 1);
            let mut y = x.clone();
            marks.push(Instant::now());
            for i in 0..LAYERS.len() {
                y = net
                    .layer_mut(i)
                    .expect("index in range")
                    .forward(&y, false)
                    .expect("layer forward");
                marks.push(Instant::now());
            }
            std::hint::black_box(&y);
            if rep >= WARM_REPS {
                let root =
                    tracer.record(walk, 0, 0, b as u64, start, *marks.last().expect("marks"));
                for (i, name) in spans.iter().enumerate() {
                    tracer.record(name, root, 0, b as u64, marks[i], marks[i + 1]);
                }
            }
        }
    }

    // Knob switches: width across every level, precision back and forth.
    for rep in 0..4 * FWD_REPS {
        let t0 = Instant::now();
        dnn.set_level(WidthLevel(rep % WIDTHS.len()))
            .expect("level in range");
        let t1 = Instant::now();
        dnn.set_precision(if rep % 2 == 0 {
            Precision::Int8
        } else {
            Precision::F32
        });
        let t2 = Instant::now();
        tracer.record("dnn.switch", 0, 0, 0, t0, t1);
        tracer.record("dnn.switch", 0, 0, 0, t1, t2);
    }
}

/// Repetitions of the `eml-net` probe.
const NET_REPS: usize = 200;

/// The `eml-net` probe on a live tenant `app` of `server`: pings, and
/// wire requests each followed by the same request in process on the
/// server's own executor (`probe.wire` / `probe.request` spans), then
/// the codec on the same payloads (`net.codec`). Returns the number of
/// requests it submitted to `app`.
pub fn net(
    server: &NetServer,
    client: &mut NetClient,
    app: &str,
    pool: &[Vec<f32>],
    tracer: &mut Tracer,
) -> u64 {
    let exec: &Executor = server.executor();
    for i in 0..NET_REPS {
        let x = &pool[i % pool.len()];
        ping(client, tracer);
        let t0 = Instant::now();
        client.submit(app, x).expect("probe wire request");
        let t1 = Instant::now();
        exec.submit(app, x)
            .and_then(|t| t.wait())
            .expect("probe in-process request");
        let t2 = Instant::now();
        tracer.record("probe.wire", 0, 0, 1, t0, t1);
        tracer.record("probe.request", 0, 0, 1, t1, t2);
    }
    codec(app, pool, tracer);
    2 * NET_REPS as u64
}

/// One timed ping (`net.ping`).
pub fn ping(client: &mut NetClient, tracer: &mut Tracer) {
    let t0 = Instant::now();
    client.ping().expect("ping");
    tracer.record("net.ping", 0, 0, 0, t0, Instant::now());
}

/// Times `encode_submit_payload` + `frame::encode` + `frame::decode`
/// on each of the workload's payloads (`net.codec`).
pub fn codec(app: &str, pool: &[Vec<f32>], tracer: &mut Tracer) {
    for i in 0..NET_REPS {
        let x = &pool[i % pool.len()];
        let t0 = Instant::now();
        let payload = encode_submit_payload(app, x).expect("short app name");
        let wire = frame::encode(eml_net::server::TAG_SUBMIT, &payload);
        let decoded = frame::decode(&wire, frame::DEFAULT_MAX_PAYLOAD).expect("own frame decodes");
        let t1 = Instant::now();
        std::hint::black_box(decoded);
        tracer.record("net.codec", 0, 0, 0, t0, t1);
    }
}
