//! `wire_solo`: one `NetClient` on one loopback connection, one request
//! in flight, to one f32 `default_dnn` tenant at full width. Every
//! request crosses the codec, a connection thread, the executor's
//! submit/claim/settle and a batch-1 f32 forward exactly once; batching,
//! the EDF scan and the RTM are off the request path.
//!
//! A round is one pass over the sample pool; every [`EPOCH_ROUNDS`]
//! rounds a control epoch checks the tenant's stats against the
//! standing allocation and re-runs `Rtm::allocate` + `apply_allocation`
//! for the unchanged tenant set (the `realloc_ms` figure here). A traced
//! run interleaves, outside the round timing, an in-process request on
//! the server's own executor after every fourth wire request, a ping
//! every sixteenth and one warm batch-1 forward of the tenant's f32
//! twin per round: the pairs the net overhead is derived from, and the
//! parts the blocking-path reconciliation sums, timed over the same part
//! of the run as the wire requests.

use std::time::Instant;

use eml_core::requirements::Requirements;
use eml_core::rtm::{Allocation, AppSpec, DnnAppSpec};
use eml_dnn::{Precision, WidthLevel};
use eml_net::{NetClient, NetServer};
use eml_serve::testbed;

use crate::check::{self, Checker, Kept};
use crate::fixture::{self, Control, ModelCfg};
use crate::trace::Tracer;
use crate::{probe, Opts, Outcome, Window};

const APP: &str = "solo";
const CFG: ModelCfg = ModelCfg::Default;
/// Distinct inputs; one round sends each once.
const POOL: usize = 32;
/// Requests per throughput sample: a rare slow request moves one short
/// stretch, not the median over stretches, so the rate follows the
/// typical request rather than the host's tail.
const RATE_STRETCH: usize = 8;
/// Rounds per control epoch.
const EPOCH_ROUNDS: usize = 8;
/// Warm-up wire requests made during set-up.
const WARM: usize = 200;
/// Request ids of the interleaved in-process requests start here, apart
/// from the wire requests' ids.
const IN_PROCESS_IDS: u64 = 1 << 40;
/// One in this many window requests is kept for the output checks.
const KEEP_EVERY: u64 = 16;

struct State {
    server: NetServer,
    client: NetClient,
    control: Control,
    specs: Vec<AppSpec>,
    alloc: Allocation,
    pool: Vec<Vec<f32>>,
    model_seed: u64,
    /// Submissions to the tenant (wire and in-process).
    submitted: u64,
}

fn setup(opts: &Opts, tracer: &mut Tracer) -> State {
    let model_seed = fixture::model_seed(opts.seed, APP);
    let dnn = CFG.build(model_seed);
    let specs = vec![AppSpec::Dnn(DnnAppSpec {
        name: APP.into(),
        profile: dnn.profile().clone(),
        requirements: Requirements::new(),
        priority: 1,
        objective: None,
    })];
    let exec = fixture::executor();
    let t0 = Instant::now();
    exec.register_dnn(APP, dnn, &Requirements::new())
        .expect("fresh registry");
    tracer.record("exec.register", 0, 0, 0, t0, Instant::now());
    let control = Control::new(testbed::quad_core_soc());
    let (alloc, _, _) = control.step(&exec, &specs, tracer, 0);
    let top = probe::WIDTHS.len() - 1;
    assert_eq!(
        alloc.dnn(APP).map(|d| d.point.op.level.index()),
        Some(top),
        "the RTM must place the tenant at full width"
    );
    let server = fixture::server(exec);
    let mut client = fixture::client(&server);
    let pool = fixture::samples(opts.seed, POOL, CFG.sample_len());
    for i in 0..WARM {
        client
            .submit(APP, &pool[i % POOL])
            .expect("warm-up request");
    }
    State {
        server,
        client,
        control,
        specs,
        alloc,
        pool,
        model_seed,
        submitted: WARM as u64,
    }
}

/// Runs `wire_solo`.
pub fn run(opts: &Opts) -> Outcome {
    let (mut st, mut tracer, setup_s) = crate::setup_median(opts.trace, |t| setup(opts, t));
    let exec = std::sync::Arc::clone(st.server.executor());
    let mut w = Window::default();
    let mut kept = Vec::new();
    let mut phase_failures = Vec::new();
    let before = exec.stats(APP).expect("registered");
    let full = probe::WIDTHS.len() - 1;
    // The twin a traced run times between rounds: the served model's
    // f32 kernels at full width, outside the executor.
    let mut twin = tracer.on().then(|| {
        let mut dnn = CFG.build(st.model_seed);
        dnn.set_level(WidthLevel(full)).expect("level in range");
        let inputs: Vec<_> = st
            .pool
            .iter()
            .map(|x| fixture::batch(CFG, &[x.as_slice()]))
            .collect();
        (dnn, inputs)
    });
    let twin_span = probe::fwd_span(Precision::F32, 1, full);

    let start = Instant::now();
    let mut round = 0usize;
    let mut req = 0u64;
    while start.elapsed() < opts.window() {
        let mut r0 = Instant::now();
        for (i, x) in st.pool.iter().enumerate() {
            let t0 = Instant::now();
            let res = st.client.submit(APP, x);
            let t1 = Instant::now();
            w.attempted += 1;
            st.submitted += 1;
            match res {
                Ok(done) => {
                    w.latency_ms.push((t1 - t0).as_secs_f64() * 1e3);
                    tracer.record("wire.request", 0, req, 1, t0, t1);
                    if fixture::sampled(opts.seed, req, KEEP_EVERY) && kept.len() < check::MAX_KEPT
                    {
                        kept.push(Kept {
                            app: APP.into(),
                            model_seed: st.model_seed,
                            precision: Precision::F32,
                            level: full,
                            sample: i,
                            logits: done.logits,
                        });
                    }
                }
                Err(e) => w.fail(e),
            }
            req += 1;
            if (i + 1) % RATE_STRETCH == 0 {
                w.round_rps
                    .push(RATE_STRETCH as f64 / r0.elapsed().as_secs_f64());
                r0 = Instant::now();
            }
        }
        round += 1;
        if tracer.on() {
            for (i, x) in st.pool.iter().enumerate().step_by(4) {
                let t0 = Instant::now();
                let ticket = exec.submit(APP, x);
                let t1 = Instant::now();
                st.submitted += 1;
                let done = ticket.and_then(|t| t.wait()).expect("in-process request");
                let t2 = Instant::now();
                crate::record_request(
                    &mut tracer,
                    IN_PROCESS_IDS + req + i as u64,
                    t0,
                    t1,
                    t2,
                    &done,
                );
                if i % 16 == 0 {
                    probe::ping(&mut st.client, &mut tracer);
                }
            }
        }
        if let Some((dnn, inputs)) = twin.as_mut() {
            // Two forwards back to back, the second timed: the served
            // model stays warm on its pool thread, and so does the twin.
            let x = &inputs[round % inputs.len()];
            std::hint::black_box(dnn.network_mut().forward(x, false).expect("twin forward"));
            let t0 = Instant::now();
            let y = dnn.network_mut().forward(x, false).expect("twin forward");
            tracer.record(twin_span, 0, 0, 1, t0, Instant::now());
            std::hint::black_box(y);
        }
        if round.is_multiple_of(EPOCH_ROUNDS) {
            let snaps = crate::poll_stats(&exec, [APP], &mut tracer);
            if let Err(e) = check::phase(&st.alloc, &snaps) {
                phase_failures.push(e);
            }
            let (alloc, da, dp) = st.control.step(&exec, &st.specs, &mut tracer, 0);
            w.realloc_ms.push((da + dp).as_secs_f64() * 1e3);
            st.alloc = alloc;
        }
    }
    let peak_rss = fixture::peak_rss_mib();
    w.add_batches(Some(&before), &exec.stats(APP).expect("registered"));
    crate::describe_window(&w);

    if tracer.on() {
        probe::codec(APP, &st.pool, &mut tracer);
        probe::nn(CFG, st.model_seed, &mut tracer);
    }
    let t0 = Instant::now();
    let last = exec.deregister_dnn(APP).expect("live tenant");
    tracer.record("exec.deregister", 0, 0, 0, t0, Instant::now());
    let counts = crate::LayerCounts {
        frames: st.server.stats().frames,
        wire_pair: ("wire.request", "request"),
    };

    let mut failures = phase_failures;
    if let Err(e) = check::ledger(APP, st.submitted, &last) {
        failures.push(e);
    }
    let mut checker = Checker::new(CFG, &st.pool);
    for k in &kept {
        checker.check(k);
    }
    failures.extend(checker.failures.iter().cloned());
    eprintln!(
        "checks: {} replies checked, {} epochs, {} failures",
        checker.checked,
        w.realloc_ms.seen(),
        failures.len()
    );
    for f in failures.iter().take(10) {
        eprintln!("check failed: {f}");
    }

    crate::finish(
        opts,
        &tracer,
        w,
        setup_s,
        peak_rss,
        counts,
        true,
        failures.is_empty() && checker.checked > 0,
    )
}
