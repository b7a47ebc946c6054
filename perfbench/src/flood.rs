//! `flood_mixed`: in process, one load thread keeps a fixed window of
//! [`WINDOW`] requests in flight for each of [`TENANTS`] `default_dnn`
//! tenants, so both pool threads stay saturated and micro-batches fill
//! up to `batch_cap`. The tenants cycle the four widths × {f32, int8
//! chained on frozen calibrated scales}. The RTM places them on the
//! flagship SoC: each tenant states the accuracy floor of its width and
//! a minimum-energy objective, so the allocation actuates exactly that
//! width. The window stays below `queue_capacity`, so nothing is
//! refused.
//!
//! A round waits for the oldest request of every tenant and refills
//! it; [`SUB_ROUNDS`] rounds make one throughput sample, and
//! [`EPOCH_SUBS`] samples one epoch. An epoch ends by draining every
//! window, checking every tenant's stats against the standing
//! allocation and re-running `Rtm::allocate` + `apply_allocation` (the
//! `realloc_ms` figure here);
//! the next epoch starts with full windows. The run is whole epochs.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use eml_core::objective::Objective;
use eml_core::requirements::Requirements;
use eml_core::rtm::{Allocation, AppSpec, DnnAppSpec};
use eml_dnn::{Precision, WidthLevel};
use eml_net::{NetClient, NetServer};
use eml_platform::presets;
use eml_serve::{testbed, Executor, Ticket};

use crate::check::{self, Checker, Kept};
use crate::fixture::{self, Control, ModelCfg};
use crate::trace::Tracer;
use crate::{probe, Opts, Outcome, Window};

const CFG: ModelCfg = ModelCfg::Default;
/// Tenants: widths cycle fastest, then precision.
pub const TENANTS: usize = 16;
/// Requests in flight per tenant (at or below `queue_capacity`).
pub const WINDOW: usize = 8;
/// Rounds per throughput sample.
const SUB_ROUNDS: usize = 64;
/// Throughput samples per control epoch.
const EPOCH_SUBS: usize = 4;
/// Distinct inputs each tenant cycles through.
const POOL: usize = 32;
/// Warm-up rounds during set-up.
const WARM_ROUNDS: usize = 32;
/// One in this many requests is kept for the output checks.
const KEEP_EVERY: u64 = 256;
/// One in this many requests is traced.
const TRACE_EVERY: u64 = 4;
/// The tenant the `eml-net` probe of a traced run talks to.
const NET_PROBE_TENANT: usize = 3;

struct Tenant {
    name: String,
    seed: u64,
    level: usize,
    precision: Precision,
    submitted: u64,
    next_sample: usize,
}

fn tenant(run_seed: u64, i: usize) -> Tenant {
    let name = format!("t{i:02}");
    let precision = if (i / probe::WIDTHS.len()) % 2 == 1 {
        Precision::Int8
    } else {
        Precision::F32
    };
    Tenant {
        seed: fixture::model_seed(run_seed, &name),
        name,
        level: i % probe::WIDTHS.len(),
        precision,
        submitted: 0,
        next_sample: i % POOL,
    }
}

struct State {
    server: NetServer,
    client: NetClient,
    control: Control,
    specs: Vec<AppSpec>,
    alloc: Allocation,
    tenants: Vec<Tenant>,
    pool: Vec<Vec<f32>>,
}

/// One request in flight.
struct Flight {
    ticket: Ticket,
    t0: Instant,
    t1: Instant,
    req: u64,
    sample: usize,
}

fn submit(exec: &Executor, t: &mut Tenant, pool: &[Vec<f32>], req: u64) -> Result<Flight, String> {
    let sample = t.next_sample;
    t.next_sample = (t.next_sample + 1) % pool.len();
    let t0 = Instant::now();
    let res = exec.submit(&t.name, &pool[sample]);
    let t1 = Instant::now();
    t.submitted += 1;
    res.map(|ticket| Flight {
        ticket,
        t0,
        t1,
        req,
        sample,
    })
    .map_err(|e| e.to_string())
}

/// Waits for one request and records it; true when it completed.
fn settle(
    f: Flight,
    t: &Tenant,
    seed: u64,
    w: &mut Window,
    tracer: &mut Tracer,
    kept: &mut Vec<Kept>,
) -> bool {
    match f.ticket.wait() {
        Ok(done) => {
            let t2 = Instant::now();
            w.latency_ms.push((t2 - f.t0).as_secs_f64() * 1e3);
            if tracer.on() && fixture::sampled(seed, f.req, TRACE_EVERY) {
                crate::record_request(tracer, f.req, f.t0, f.t1, t2, &done);
            }
            if fixture::sampled(seed, f.req, KEEP_EVERY) && kept.len() < check::MAX_KEPT {
                kept.push(Kept {
                    app: t.name.clone(),
                    model_seed: t.seed,
                    precision: t.precision,
                    level: t.level,
                    sample: f.sample,
                    logits: done.logits,
                });
            }
            true
        }
        Err(e) => {
            w.fail(e);
            false
        }
    }
}

fn setup(opts: &Opts, tracer: &mut Tracer) -> State {
    let exec = fixture::executor();
    let mut tenants: Vec<Tenant> = (0..TENANTS).map(|i| tenant(opts.seed, i)).collect();
    let mut specs = Vec::with_capacity(TENANTS);
    for t in &tenants {
        let mut dnn = fixture::served_model(CFG, t.seed, t.precision);
        dnn.set_level(WidthLevel(t.level)).expect("level in range");
        specs.push(AppSpec::Dnn(DnnAppSpec {
            name: t.name.clone(),
            profile: dnn.profile().clone(),
            requirements: Requirements::new().with_min_top1(testbed::TESTBED_TOP1[t.level] * 100.0),
            priority: 1,
            objective: Some(Objective::MinEnergy),
        }));
        let t0 = Instant::now();
        exec.register_dnn(&t.name, dnn, &Requirements::new())
            .expect("fresh registry");
        tracer.record("exec.register", 0, 0, 0, t0, Instant::now());
    }
    let control = Control::new(presets::flagship());
    let (alloc, _, _) = control.step(&exec, &specs, tracer, 0);
    for t in &tenants {
        assert_eq!(
            alloc.dnn(&t.name).map(|d| d.point.op.level.index()),
            Some(t.level),
            "the RTM must place {} at its width",
            t.name
        );
    }
    let server = fixture::server(exec);
    let client = fixture::client(&server);
    let pool = fixture::samples(opts.seed, POOL, CFG.sample_len());
    let exec = server.executor();
    for _ in 0..WARM_ROUNDS {
        let flights: Vec<Flight> = tenants
            .iter_mut()
            .flat_map(|t| {
                (0..WINDOW)
                    .map(|_| submit(exec, t, &pool, 0))
                    .collect::<Vec<_>>()
            })
            .map(|f| f.expect("warm-up request admitted"))
            .collect();
        for f in flights {
            f.ticket.wait().expect("warm-up request completes");
        }
    }
    State {
        server,
        client,
        control,
        specs,
        alloc,
        tenants,
        pool,
    }
}

/// Runs `flood_mixed`.
pub fn run(opts: &Opts) -> Outcome {
    let (mut st, mut tracer, setup_s) = crate::setup_median(opts.trace, |t| setup(opts, t));
    let exec = Arc::clone(st.server.executor());
    let mut w = Window::default();
    let mut kept = Vec::new();
    let mut failures = Vec::new();
    let names: Vec<String> = st.tenants.iter().map(|t| t.name.clone()).collect();
    let before = crate::poll_stats(
        &exec,
        names.iter().map(String::as_str),
        &mut Tracer::new(false),
    );

    let mut req = 0u64;
    let mut inflight: Vec<VecDeque<Flight>> = (0..TENANTS)
        .map(|_| VecDeque::with_capacity(WINDOW))
        .collect();
    let start = Instant::now();
    while start.elapsed() < opts.window() {
        // Every epoch starts with full windows.
        for (ti, t) in st.tenants.iter_mut().enumerate() {
            while inflight[ti].len() < WINDOW {
                w.attempted += 1;
                match submit(&exec, t, &st.pool, req) {
                    Ok(f) => inflight[ti].push_back(f),
                    Err(e) => w.fail(e),
                }
                req += 1;
            }
        }
        for _ in 0..EPOCH_SUBS {
            let r0 = Instant::now();
            let mut completed = 0u64;
            for _ in 0..SUB_ROUNDS {
                for (ti, t) in st.tenants.iter_mut().enumerate() {
                    if let Some(f) = inflight[ti].pop_front() {
                        completed +=
                            u64::from(settle(f, t, opts.seed, &mut w, &mut tracer, &mut kept));
                    }
                    w.attempted += 1;
                    match submit(&exec, t, &st.pool, req) {
                        Ok(f) => inflight[ti].push_back(f),
                        Err(e) => w.fail(e),
                    }
                    req += 1;
                }
            }
            w.round_rps
                .push(completed as f64 / r0.elapsed().as_secs_f64());
        }
        // The epoch ends: drain, check every tenant against the standing
        // allocation, and re-allocate.
        for (ti, t) in st.tenants.iter_mut().enumerate() {
            for f in inflight[ti].drain(..) {
                settle(f, t, opts.seed, &mut w, &mut tracer, &mut kept);
            }
        }
        let snaps = crate::poll_stats(&exec, names.iter().map(String::as_str), &mut tracer);
        if let Err(e) = check::phase(&st.alloc, &snaps) {
            failures.push(e);
        }
        let (alloc, da, dp) = st.control.step(&exec, &st.specs, &mut tracer, 0);
        w.realloc_ms.push((da + dp).as_secs_f64() * 1e3);
        st.alloc = alloc;
    }
    let peak_rss = fixture::peak_rss_mib();
    let after = crate::poll_stats(
        &exec,
        names.iter().map(String::as_str),
        &mut Tracer::new(false),
    );
    for ((_, b), (_, a)) in before.iter().zip(&after) {
        w.add_batches(Some(b), a);
    }
    crate::describe_window(&w);

    if tracer.on() {
        let t = &mut st.tenants[NET_PROBE_TENANT];
        t.submitted += probe::net(&st.server, &mut st.client, &t.name, &st.pool, &mut tracer);
        probe::nn(CFG, t.seed, &mut tracer);
    }
    for t in &st.tenants {
        let t0 = Instant::now();
        let last = exec.deregister_dnn(&t.name).expect("live tenant");
        tracer.record("exec.deregister", 0, 0, 0, t0, Instant::now());
        if let Err(e) = check::ledger(&t.name, t.submitted, &last) {
            failures.push(e);
        }
    }
    let counts = crate::LayerCounts {
        frames: st.server.stats().frames,
        wire_pair: ("probe.wire", "probe.request"),
    };

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
    let correct = failures.is_empty() && checker.checked > 0;
    crate::finish(opts, &tracer, w, setup_s, peak_rss, counts, false, correct)
}
