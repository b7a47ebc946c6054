//! A serving benchmark for the workspace: one command runs a named
//! workload from a seed, prints every end-to-end metric, checks the
//! program's outputs, and — with `--trace 1` — derives per-layer
//! metrics from spans recorded around its own calls into each layer.
//! See `README.md` for the workloads, the metrics and how they relate.
//!
//! The benchmark reaches the program only through public APIs:
//! `NetServer`/`NetClient`, `Executor` (with `Completion` and
//! `stats()`), `Rtm::allocate`, `DynamicDnn`, and
//! `Network::forward`/`layer_mut`.

pub mod check;
pub mod churn;
pub mod fixture;
pub mod flood;
pub mod json;
pub mod probe;
pub mod stats;
pub mod trace;
pub mod wire;

use std::collections::HashMap;
use std::time::{Duration, Instant};

use eml_serve::{AppStatsSnapshot, Completion, Executor};

use json::Metric;
use trace::{NameStats, Span, SpanId, Tracer};

/// Span statistics grouped by span name.
pub type Groups = HashMap<&'static str, NameStats>;

/// The workloads this program runs. `BENCHMARK.json` lists the gated
/// ones; `tenant_churn` is a reference workload outside that list
/// (see `README.md`).
pub const WORKLOADS: [&str; 3] = ["wire_solo", "flood_mixed", "tenant_churn"];

/// Times each run sets its workload up; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Largest share by which the independently timed parts of a wire
/// request's blocking path may miss its traced median latency before a
/// traced `wire_solo` run is marked incorrect (see [`reconcile_wire`]).
pub const RECONCILE_TOLERANCE: f64 = 0.20;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

impl Opts {
    /// The timed window as a `Duration`.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Values a [`Window`] keeps of each per-request or per-event series.
pub const KEEP_VALUES: usize = 1 << 16;

/// What a run measured, before it is rendered.
#[derive(Debug)]
pub struct Window {
    /// Caller-observed latency of the measured requests (ms).
    pub latency_ms: stats::Reservoir,
    /// Completed requests per second of each round (of each short
    /// stretch of requests in `wire_solo`).
    pub round_rps: Vec<f64>,
    /// Wall time of each `Rtm::allocate` + `apply_allocation` (ms).
    pub realloc_ms: stats::Reservoir,
    /// Requests attempted in the window.
    pub attempted: u64,
    /// Requests that failed in the window.
    pub failed: u64,
    /// Executor batches run in the window (sum over tenants).
    pub batches: u64,
    /// Samples those batches carried.
    pub batched_samples: u64,
}

impl Default for Window {
    fn default() -> Self {
        Self {
            latency_ms: stats::Reservoir::new(KEEP_VALUES),
            round_rps: Vec::with_capacity(KEEP_VALUES),
            realloc_ms: stats::Reservoir::new(KEEP_VALUES),
            attempted: 0,
            failed: 0,
            batches: 0,
            batched_samples: 0,
        }
    }
}

impl Window {
    /// Counts a failed request, reporting the first few on stderr.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        if self.failed < 5 {
            eprintln!("request failed: {what}");
        }
        self.failed += 1;
    }

    /// Adds a tenant's batch counters between two snapshots.
    pub fn add_batches(&mut self, before: Option<&AppStatsSnapshot>, after: &AppStatsSnapshot) {
        let (b0, s0) = before.map_or((0, 0), |b| (b.batches, b.batched_samples));
        self.batches += after.batches - b0;
        self.batched_samples += after.batched_samples - s0;
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Requests attempted in the timed window.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

/// Sets a workload up [`SETUPS`] times, tearing all but the last down,
/// and returns the last state (with its own tracer) and the median
/// set-up time in seconds.
pub fn setup_median<S>(trace: bool, mut setup: impl FnMut(&mut Tracer) -> S) -> (S, Tracer, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        let mut tracer = Tracer::new(trace);
        let t0 = Instant::now();
        let state = setup(&mut tracer);
        times.push(t0.elapsed().as_secs_f64());
        // Dropping the previous state shuts its server and executor
        // down before the next set-up is timed.
        drop(kept.replace((state, tracer)));
    }
    let (state, tracer) = kept.expect("at least one set-up");
    let shown: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    eprintln!("set-ups s: {}", shown.join(" "));
    (state, tracer, stats::median(&times).unwrap_or(f64::NAN))
}

/// Records the spans of one in-process request (`t0` before `submit`,
/// `t1` after it returned, `t2` after `wait` returned): a `request` root
/// and four children that tile it — `exec.submit` (the submit call),
/// `exec.queue` (completion latency minus service), `exec.service` (the
/// batched forward it rode; argument: batch size) and `exec.handoff`
/// (from the completion to the caller's return from `wait`).
pub fn record_request(
    tracer: &mut Tracer,
    req: u64,
    t0: Instant,
    t1: Instant,
    t2: Instant,
    done: &Completion,
) {
    if !tracer.on() {
        return;
    }
    let (a, b, c) = (tracer.ns(t0), tracer.ns(t1), tracer.ns(t2));
    let id = tracer.push(Span {
        name: "request",
        start: a,
        end: c,
        parent: 0,
        req,
        arg: done.batch_size as u64,
    });
    let lat = done.latency.as_secs() * 1e9;
    let svc = done.service.as_secs() * 1e9;
    let done_at = (b + lat as u64).min(c);
    let served_from = done_at.saturating_sub(svc as u64).max(b);
    let parts: [(&'static str, u64, u64, u64); 4] = [
        ("exec.submit", a, b, 0),
        ("exec.queue", b, served_from, 0),
        ("exec.service", served_from, done_at, done.batch_size as u64),
        ("exec.handoff", done_at, c, 0),
    ];
    for (name, start, end, arg) in parts {
        tracer.push(Span {
            name,
            start,
            end,
            parent: id as SpanId,
            req,
            arg,
        });
    }
}

/// `stats()` on each named app, timed (`exec.stats` spans).
pub fn poll_stats<'n>(
    exec: &Executor,
    names: impl IntoIterator<Item = &'n str>,
    tracer: &mut Tracer,
) -> Vec<(&'n str, AppStatsSnapshot)> {
    names
        .into_iter()
        .map(|name| {
            let t0 = Instant::now();
            let s = exec.stats(name).expect("registered app");
            tracer.record("exec.stats", 0, 0, 0, t0, Instant::now());
            (name, s)
        })
        .collect()
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The end-to-end metrics of a window, as measured.
pub fn e2e_metrics(w: &Window, setup_s: f64, peak_rss_mib: f64) -> Vec<Metric> {
    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    vec![
        metric("latency_p50_ms", med(w.latency_ms.values()), "ms"),
        metric("throughput_rps", med(&w.round_rps), "1/s"),
        metric("realloc_ms", med(w.realloc_ms.values()), "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mib, "MiB"),
    ]
}

/// Prints the e2e figures with their sample counts and tails to stderr.
pub fn describe_window(w: &Window) {
    let show = |what: &str, v: &[f64]| match stats::summarise(v) {
        Some(s) => eprintln!("{what}: {s}"),
        None => eprintln!("{what}: no samples"),
    };
    show("latency ms", w.latency_ms.values());
    show("round throughput 1/s", &w.round_rps);
    show("realloc ms", w.realloc_ms.values());
    eprintln!(
        "latencies seen {}, reallocations seen {}; attempted {} failed {} batches {} mean batch {:.3}",
        w.latency_ms.seen(),
        w.realloc_ms.seen(),
        w.attempted,
        w.failed,
        w.batches,
        w.batched_samples as f64 / w.batches.max(1) as f64
    );
}

/// Span names whose median a per-layer metric reports, with the
/// scale from microseconds to the metric's unit.
const FROM_SPANS: [(&str, &str, &str, f64); 10] = [
    ("net.ping_us", "net.ping", "us", 1.0),
    ("net.codec_us", "net.codec", "us", 1.0),
    ("exec.submit_us", "exec.submit", "us", 1.0),
    ("exec.queue_us", "exec.queue", "us", 1.0),
    ("exec.handoff_us", "exec.handoff", "us", 1.0),
    ("exec.service_us", "exec.service", "us", 1.0),
    ("exec.stats_us", "exec.stats", "us", 1.0),
    ("exec.register_us", "exec.register", "us", 1.0),
    ("exec.deregister_ms", "exec.deregister", "ms", 1e-3),
    ("exec.apply_us", "exec.apply", "us", 1.0),
];

/// Inputs of the per-layer summary that do not come from spans.
#[derive(Debug, Clone, Copy)]
pub struct LayerCounts {
    /// Frames the server decoded over the run.
    pub frames: u64,
    /// Root span names of the wire and in-process requests the net
    /// overhead is the difference of.
    pub wire_pair: (&'static str, &'static str),
}

/// One per-layer metric with its better direction.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    /// Name, value and unit.
    pub metric: Metric,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// Derives every per-layer metric from the recorded spans, in the
/// order they are printed and listed in `BENCHMARK.json`. A metric
/// with no spans behind it reads NaN (printed as 0).
pub fn layer_metrics(groups: &Groups, w: &Window, counts: LayerCounts) -> Vec<LayerMetric> {
    let p50 = |name: &str| trace::p50_us(groups, name).unwrap_or(f64::NAN);
    let per_arg = |name: &str| trace::p50_per_arg_us(groups, name).unwrap_or(f64::NAN);
    let mut out = Vec::new();
    let mut put = |name: String, unit: &'static str, better: &'static str, value: f64| {
        out.push(LayerMetric {
            metric: Metric { name, value, unit },
            better,
        });
    };
    for (name, span, unit, scale) in FROM_SPANS {
        put(name.into(), unit, "lower", p50(span) * scale);
    }
    let (wire, inproc) = counts.wire_pair;
    put(
        "net.overhead_us".into(),
        "us",
        "lower",
        p50(wire) - p50(inproc),
    );
    put("net.frames".into(), "count", "higher", counts.frames as f64);
    put(
        "exec.sample_service_us".into(),
        "us",
        "lower",
        per_arg("exec.service"),
    );
    let mean_batch = w.batched_samples as f64 / w.batches.max(1) as f64;
    put("exec.batch_mean".into(), "samples", "higher", mean_batch);
    put("exec.batches".into(), "count", "higher", w.batches as f64);
    put("rtm.allocate_us".into(), "us", "lower", p50("rtm.allocate"));
    put(
        "rtm.allocate_max_us".into(),
        "us",
        "lower",
        allocate_at_peak(groups),
    );
    put("dnn.switch_us".into(), "us", "lower", p50("dnn.switch"));
    let full = probe::WIDTHS.len() - 1;
    let f32_b1 = p50(probe::fwd_span(eml_dnn::Precision::F32, 1, full));
    put("nn.fwd_f32_b1_us".into(), "us", "lower", f32_b1);
    for p in [eml_dnn::Precision::F32, eml_dnn::Precision::Int8] {
        for b in probe::BATCHES {
            for (wi, wname) in probe::WIDTHS.iter().enumerate() {
                let name = format!("nn.fwd_{}_b{b}_sample_us.{wname}", probe::ptag(p));
                put(name, "us", "lower", per_arg(probe::fwd_span(p, b, wi)));
            }
        }
    }
    for layer in probe::LAYERS {
        for b in probe::BATCHES {
            let name = format!("nn.layer.{layer}_us.b{b}");
            put(name, "us", "lower", p50(probe::layer_span(layer, b)));
        }
    }
    out
}

/// Median `rtm.allocate` duration among the calls made with the most
/// live apps.
fn allocate_at_peak(groups: &Groups) -> f64 {
    let Some(g) = groups.get("rtm.allocate") else {
        return f64::NAN;
    };
    let peak = g.args.iter().copied().max().unwrap_or(0);
    let at: Vec<f64> = g
        .dur_us
        .iter()
        .zip(&g.args)
        .filter(|(_, &a)| a == peak)
        .map(|(d, _)| *d)
        .collect();
    stats::median(&at).unwrap_or(f64::NAN)
}

/// Reconciles the blocking path of a traced wire request. The traced
/// median wire latency (`wire.request`) is set against the sum of the
/// medians of parts timed apart from it: the ping (transport and
/// connection thread), the codec, the interleaved in-process requests'
/// submit, queue and hand-off, and — in place of the executor's service
/// time — the twin's batch-1 f32 forward at full width. All but the
/// codec are interleaved with the wire requests, so they see the same
/// host. No part is derived from the wire requests, so the gap shows
/// what the per-layer figures leave unexplained. Prints the parts to stderr and returns the
/// gap as a share of the latency (NaN if a part has no spans).
pub fn reconcile_wire(groups: &Groups) -> f64 {
    let full = probe::WIDTHS.len() - 1;
    let parts = [
        "net.ping",
        "net.codec",
        "exec.submit",
        "exec.queue",
        probe::fwd_span(eml_dnn::Precision::F32, 1, full),
        "exec.handoff",
    ];
    let p50 = |name: &str| trace::p50_us(groups, name).unwrap_or(f64::NAN);
    let sum: f64 = parts.iter().map(|n| p50(n)).sum();
    let total = p50("wire.request");
    let gap = (sum - total) / total;
    eprintln!("blocking path (us, p50)");
    for name in parts {
        eprintln!("  {name:<22} {:>10.2}", p50(name));
    }
    eprintln!("  {:<22} {sum:>10.2}", "sum of parts");
    eprintln!("  {:<22} {total:>10.2}", "wire.request");
    eprintln!(
        "  {:<22} {:>+9.1}% (tolerance ±{:.0}%)",
        "gap",
        gap * 100.0,
        RECONCILE_TOLERANCE * 100.0
    );
    gap
}

/// Writes the spans under `dir`.
pub fn write_spans(tracer: &Tracer, dir: &std::path::Path, opts: &Opts) {
    let path = dir.join(format!("spans-{}.tsv", opts.workload));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_to(&mut f)?;
        std::io::Write::flush(&mut f)
    });
    match written {
        Ok(()) => eprintln!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

/// Where traced runs write their spans.
pub const SPAN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Assembles a run's outcome: the end-to-end metrics always; for a
/// traced run also the per-layer metrics and the span file, and with
/// `wire` the blocking-path reconciliation of the wire requests, which
/// makes the run incorrect when its gap exceeds [`RECONCILE_TOLERANCE`].
#[allow(clippy::too_many_arguments)]
pub fn finish(
    opts: &Opts,
    tracer: &Tracer,
    w: Window,
    setup_s: f64,
    peak_rss_mib: f64,
    counts: LayerCounts,
    wire: bool,
    mut correct: bool,
) -> Outcome {
    let e2e = e2e_metrics(&w, setup_s, peak_rss_mib);
    let layers = if tracer.on() {
        write_spans(tracer, std::path::Path::new(SPAN_DIR), opts);
        let groups = trace::by_name(tracer.spans());
        let _ = trace::write_table(&groups, &mut std::io::stderr());
        if wire {
            let gap = reconcile_wire(&groups);
            if gap.is_nan() || gap.abs() > RECONCILE_TOLERANCE {
                eprintln!("check failed: blocking-path gap {:+.1}%", gap * 100.0);
                correct = false;
            }
        }
        layer_metrics(&groups, &w, counts)
            .into_iter()
            .map(|m| m.metric)
            .collect()
    } else {
        Vec::new()
    };
    Outcome {
        correct,
        attempted: w.attempted,
        failed: w.failed,
        e2e,
        layers,
    }
}

/// Runs the named workload.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "wire_solo" => Ok(wire::run(opts)),
        "flood_mixed" => Ok(flood::run(opts)),
        "tenant_churn" => Ok(churn::run(opts)),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics_and_known_workloads() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("valid JSON");
        let listed: Vec<(String, String, String)> = doc
            .get("per_layer")
            .expect("per_layer")
            .arr()
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(json::Value::str)
                        .unwrap_or("")
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect();
        let counts = LayerCounts {
            frames: 0,
            wire_pair: ("a", "b"),
        };
        let ours: Vec<(String, String, String)> =
            layer_metrics(&Groups::new(), &Window::default(), counts)
                .into_iter()
                .map(|m| {
                    (
                        m.metric.name,
                        m.metric.unit.to_string(),
                        m.better.to_string(),
                    )
                })
                .collect();
        assert_eq!(listed, ours);
        let e2e: Vec<&str> = doc
            .get("end_to_end")
            .expect("end_to_end")
            .arr()
            .iter()
            .filter_map(|m| m.get("name").and_then(json::Value::str))
            .collect();
        let printed = e2e_metrics(&Window::default(), 1.0, 1.0);
        assert_eq!(
            e2e,
            printed.iter().map(|m| m.name.as_str()).collect::<Vec<_>>()
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .expect("workloads")
            .arr()
            .iter()
            .filter_map(|w| w.get("name").and_then(json::Value::str))
            .collect();
        assert!(workloads.len() >= 2, "{workloads:?}");
        assert!(
            workloads.iter().all(|w| WORKLOADS.contains(w)),
            "{workloads:?}"
        );
    }

    #[test]
    fn wire_reconciliation_sums_independent_parts() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        let us = |n: u64| t0 + Duration::from_micros(n);
        let full = probe::WIDTHS.len() - 1;
        let twin = probe::fwd_span(eml_dnn::Precision::F32, 1, full);
        let parts = [
            ("net.ping", 60),
            ("net.codec", 2),
            ("exec.submit", 8),
            ("exec.queue", 10),
            (twin, 170),
            ("exec.handoff", 10),
        ];
        for (name, dur) in parts {
            t.record(name, 0, 0, 1, us(0), us(dur));
        }
        t.record("wire.request", 0, 0, 1, us(0), us(250));
        let gap = reconcile_wire(&trace::by_name(t.spans()));
        assert!((gap - 0.04).abs() < 1e-9, "{gap}");
        // A part with no spans leaves the gap undefined.
        let mut t = Tracer::new(true);
        t.record("wire.request", 0, 0, 1, us(0), us(250));
        assert!(reconcile_wire(&trace::by_name(t.spans())).is_nan());
    }

    #[test]
    fn request_children_tile_the_root() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(5);
        let t2 = t0 + Duration::from_micros(100);
        let done = Completion {
            seq: 0,
            logits: vec![0.0],
            pred: 0,
            latency: eml_platform::units::TimeSpan::from_micros(60.0),
            service: eml_platform::units::TimeSpan::from_micros(40.0),
            batch_size: 4,
            deadline_met: None,
        };
        record_request(&mut t, 1, t0, t1, t2, &done);
        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        let durs: Vec<u64> = spans.iter().map(Span::dur).collect();
        assert_eq!(durs, vec![100_000, 5_000, 20_000, 40_000, 35_000]);
        // Tiling: the root has no self time left.
        assert_eq!(trace::self_times(spans)[0], 0);
        let g = trace::by_name(spans);
        assert_eq!(trace::p50_per_arg_us(&g, "exec.service"), Some(10.0));
    }
}
