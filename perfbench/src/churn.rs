//! `tenant_churn`: in process, [`DNN_APPS`] `tiny_dnn` tenants and
//! [`RIGID_APPS`] rigid co-tenants arrive and depart on the flagship SoC
//! in the order `eml_sim::workload::generate` gives for the run's seed
//! (churn cycles on, no chaos, no flash crowd, no hot app), followed by
//! the departure of everyone still live. One pass over a schedule is a
//! round; the run repeats whole rounds, each on the schedule generated
//! for its own round seed (derived from the run's seed), so a run
//! measures many draws of tenant scales and deadlines rather than one.
//!
//! Each event calls `register_dnn`/`deregister_dnn` (rigid tenants are
//! the RTM's co-tenants only), then `Rtm::allocate` (analytic, no
//! feedback) and `apply_allocation`; then a window of [`PHASE_REQUESTS`]
//! requests is spread round-robin over the *placed* apps, so every
//! placed app gets at least one (unplaced apps are the RTM's decision
//! and get no traffic), and `stats()` is read for every live app. The
//! window's size does not follow the placement, so neither does the
//! work per event. Events fire after that fixed count of completed requests, never
//! at a wall-clock time. Forwards are small, so the control plane —
//! allocation at scale, knob actuation, lifecycle drains, the roster
//! scan over many mostly idle tenants — dominates.
//!
//! Models for every arrival of a round are built before the round
//! starts, outside its timing. Set-up registers, serves and departs
//! every tenant name once, so each round starts from the same
//! tombstoned registry.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use eml_core::requirements::Requirements;
use eml_core::rtm::AppSpec;
use eml_dnn::{DynamicDnn, Precision};
use eml_net::{NetClient, NetServer};
use eml_platform::presets;
use eml_serve::{Executor, Ticket};
use eml_sim::workload::{self, WorkloadConfig};
use eml_sim::Action;

use crate::check::{self, Checker, Kept};
use crate::fixture::{self, Control, ModelCfg};
use crate::trace::{Span, Tracer};
use crate::{probe, Opts, Outcome, Window};

const CFG: ModelCfg = ModelCfg::Tiny;
/// Dynamic-DNN tenants in the generated schedule.
pub const DNN_APPS: usize = 64;
/// Rigid co-tenants in the generated schedule.
pub const RIGID_APPS: usize = 2;
/// Depart → re-arrive cycles in the generated schedule.
pub const CHURN_CYCLES: usize = 8;
/// Requests between two events, spread over the placed apps (at least
/// the most DNN tenants ever live, so each placed app gets one; at most
/// `queue_capacity`, so one placed app alone is never refused).
pub const PHASE_REQUESTS: usize = 64;
/// Requests each tenant name serves during set-up.
const WARM_REQUESTS: usize = 4;
/// Distinct inputs each tenant cycles through.
const POOL: usize = 32;
/// One in this many requests is kept for the output checks.
const KEEP_EVERY: u64 = 256;
/// One in this many requests is traced.
const TRACE_EVERY: u64 = 4;
/// Rounds whose allocation sequence is replayed and compared.
const REPLAY_ROUNDS: usize = 6;
/// The tenant the `eml-net` probe of a traced run registers.
const NET_PROBE_APP: &str = "probe";

/// One lifecycle event of the schedule.
#[derive(Debug, Clone)]
pub enum Step {
    /// A tenant arrives (DNN or rigid).
    Arrive(AppSpec),
    /// A tenant departs.
    Depart(String),
}

/// The schedule of round `round` of a run seeded `seed`: the generated
/// arrivals and departures in time order, then the departure of every
/// tenant still live, in name order.
pub fn schedule(seed: u64, round: u64) -> Vec<Step> {
    let wl = workload::generate(&WorkloadConfig {
        seed: fixture::mix(seed ^ fixture::mix(round)),
        dnn_apps: DNN_APPS,
        rigid_apps: RIGID_APPS,
        duration_secs: 60.0,
        churn_cycles: CHURN_CYCLES,
        flash_crowd_storms: 0,
        storm_size: 0,
        chaos_sprinkles: 0,
        hot_app: false,
    });
    let mut steps = Vec::new();
    let mut live: Vec<String> = Vec::new();
    for ev in wl.events {
        match ev.action {
            Action::Arrive(spec) => {
                live.push(spec.name().to_string());
                steps.push(Step::Arrive(spec));
            }
            Action::Depart(name) => {
                live.retain(|n| *n != name);
                steps.push(Step::Depart(name));
            }
            _ => {}
        }
    }
    live.sort();
    steps.extend(live.into_iter().map(Step::Depart));
    steps
}

/// The allocation sequence of a schedule (as digests), replayed through
/// a separate RTM without any executor: what the actuated sequence
/// must equal.
pub fn replay(steps: &[Step]) -> Vec<u64> {
    let control = Control::new(presets::flagship());
    let mut specs: Vec<AppSpec> = Vec::new();
    steps
        .iter()
        .map(|step| {
            match step {
                Step::Arrive(spec) => specs.push(spec.clone()),
                Step::Depart(name) => specs.retain(|s| s.name() != name),
            }
            let alloc = control
                .rtm
                .allocate(&control.soc, &specs)
                .expect("analytic allocation of valid specs");
            check::digest(&alloc)
        })
        .collect()
}

struct State {
    server: NetServer,
    client: NetClient,
    control: Control,
    pool: Vec<Vec<f32>>,
    /// Submissions per app in its current lifetime.
    submitted: HashMap<String, u64>,
    /// Requests served per app so far (selects the next input).
    served: HashMap<String, usize>,
    failures: Vec<String>,
    /// The run's seed.
    seed: u64,
    /// The next request's id.
    next_req: u64,
}

/// What the rounds leave for the checks.
#[derive(Default)]
struct Log {
    /// Per round, the digest of every actuated allocation.
    actuated: Vec<Vec<u64>>,
    kept: Vec<Kept>,
}

fn models(seed: u64, steps: &[Step]) -> Vec<Option<DynamicDnn>> {
    steps
        .iter()
        .map(|s| match s {
            Step::Arrive(AppSpec::Dnn(d)) => Some(CFG.build(fixture::model_seed(seed, &d.name))),
            _ => None,
        })
        .collect()
}

/// Runs one round of the schedule; returns the completed requests.
fn round(
    st: &mut State,
    exec: &Executor,
    steps: &[Step],
    mut models: Vec<Option<DynamicDnn>>,
    w: &mut Window,
    tracer: &mut Tracer,
    log: &mut Log,
) -> u64 {
    let seed = st.seed;
    let mut digests = Vec::with_capacity(steps.len());
    let mut specs: Vec<AppSpec> = Vec::new();
    let mut live_dnn: Vec<String> = Vec::new();
    let mut completed = 0u64;
    let mut flights: Vec<(Ticket, Instant, Instant, u64, usize, usize)> = Vec::new();
    for (si, step) in steps.iter().enumerate() {
        let ev0 = Instant::now();
        let event = tracer.push(Span {
            name: "churn.event",
            start: tracer.ns(ev0),
            end: tracer.ns(ev0),
            parent: 0,
            req: 0,
            arg: specs.len() as u64,
        });
        match step {
            Step::Arrive(spec) => {
                if let AppSpec::Dnn(d) = spec {
                    let model = models[si].take().expect("model built for this arrival");
                    let t0 = Instant::now();
                    exec.register_dnn(&d.name, model, &Requirements::new())
                        .expect("arrival of a departed or new name");
                    tracer.record("exec.register", event, 0, 0, t0, Instant::now());
                    st.submitted.insert(d.name.clone(), 0);
                    live_dnn.push(d.name.clone());
                }
                specs.push(spec.clone());
            }
            Step::Depart(name) => {
                if let Some(pos) = live_dnn.iter().position(|n| n == name) {
                    live_dnn.remove(pos);
                    let t0 = Instant::now();
                    let last = exec.deregister_dnn(name).expect("live tenant");
                    tracer.record("exec.deregister", event, 0, 0, t0, Instant::now());
                    w.add_batches(None, &last);
                    let submitted = st.submitted.remove(name).unwrap_or(0);
                    if let Err(e) = check::ledger(name, submitted, &last) {
                        st.failures.push(e);
                    }
                }
                specs.retain(|s| s.name() != name);
            }
        }
        let (alloc, da, dp) = st.control.step(exec, &specs, tracer, event);
        w.realloc_ms.push((da + dp).as_secs_f64() * 1e3);

        // The window: PHASE_REQUESTS spread over every placed app.
        let placed = alloc.dnns.len();
        for k in 0..PHASE_REQUESTS * usize::from(placed > 0) {
            let d = &alloc.dnns[k % placed];
            let level = d.point.op.level.index();
            let n = st.served.entry(d.app.clone()).or_insert(0);
            let sample = *n % st.pool.len();
            *n += 1;
            let t0 = Instant::now();
            let res = exec.submit(&d.app, &st.pool[sample]);
            let t1 = Instant::now();
            *st.submitted.entry(d.app.clone()).or_insert(0) += 1;
            w.attempted += 1;
            match res {
                Ok(t) => flights.push((t, t0, t1, st.next_req, sample, level)),
                Err(e) => w.fail(e),
            }
            st.next_req += 1;
        }
        for (ticket, t0, t1, id, sample, level) in flights.drain(..) {
            match ticket.wait() {
                Ok(done) => {
                    let t2 = Instant::now();
                    completed += 1;
                    w.latency_ms.push((t2 - t0).as_secs_f64() * 1e3);
                    if tracer.on() && fixture::sampled(seed, id, TRACE_EVERY) {
                        crate::record_request(tracer, id, t0, t1, t2, &done);
                    }
                    if fixture::sampled(seed, id, KEEP_EVERY) && log.kept.len() < check::MAX_KEPT {
                        log.kept.push(Kept {
                            app: ticket.app().to_string(),
                            model_seed: fixture::model_seed(seed, ticket.app()),
                            precision: Precision::F32,
                            level,
                            sample,
                            logits: done.logits,
                        });
                    }
                }
                Err(e) => w.fail(e),
            }
        }

        let snaps = crate::poll_stats(exec, live_dnn.iter().map(String::as_str), tracer);
        if let Err(e) =
            check::phase(&alloc, &snaps).and_then(|()| check::cores_within(&st.control.soc, &alloc))
        {
            st.failures.push(e);
        }
        digests.push(check::digest(&alloc));
        if event > 0 {
            let end = tracer.ns(Instant::now());
            if let Some(s) = tracer.span_mut(event) {
                s.end = end;
            }
        }
    }
    log.actuated.push(digests);
    completed
}

fn setup(opts: &Opts) -> State {
    let server = fixture::server(fixture::executor());
    let client = fixture::client(&server);
    let pool = fixture::samples(opts.seed, POOL, CFG.sample_len());
    // Warm-up: every tenant name registers, serves one window and
    // departs, leaving the tombstoned registry every round starts from.
    let exec = Arc::clone(server.executor());
    let mut submitted = HashMap::new();
    let names: Vec<String> = (0..DNN_APPS).map(|i| format!("gen-{i:02}")).collect();
    for name in &names {
        exec.register_dnn(
            name,
            CFG.build(fixture::model_seed(opts.seed, name)),
            &Requirements::new(),
        )
        .expect("fresh registry");
        let tickets: Vec<Ticket> = (0..WARM_REQUESTS)
            .map(|i| {
                exec.submit(name, &pool[i % POOL])
                    .expect("warm-up request admitted")
            })
            .collect();
        for t in tickets {
            t.wait().expect("warm-up request completes");
        }
        submitted.insert(name.clone(), WARM_REQUESTS as u64);
    }
    let mut failures = Vec::new();
    for name in &names {
        let last = exec.deregister_dnn(name).expect("live tenant");
        if let Err(e) = check::ledger(name, submitted[name], &last) {
            failures.push(e);
        }
    }
    State {
        server,
        client,
        control: Control::new(presets::flagship()),
        pool,
        submitted: HashMap::new(),
        served: HashMap::new(),
        failures,
        seed: opts.seed,
        next_req: 0,
    }
}

/// Runs `tenant_churn`.
pub fn run(opts: &Opts) -> Outcome {
    let (mut st, mut tracer, setup_s) = crate::setup_median(opts.trace, |_| setup(opts));
    let exec = Arc::clone(st.server.executor());
    let mut w = Window::default();
    let mut log = Log::default();
    let mut timed = std::time::Duration::ZERO;
    let mut events = 0usize;
    while timed < opts.window() {
        let steps = schedule(opts.seed, log.actuated.len() as u64);
        let next = models(opts.seed, &steps);
        events += steps.len();
        let r0 = Instant::now();
        let completed = round(&mut st, &exec, &steps, next, &mut w, &mut tracer, &mut log);
        let took = r0.elapsed();
        timed += took;
        w.round_rps.push(completed as f64 / took.as_secs_f64());
    }
    let peak_rss = fixture::peak_rss_mib();
    crate::describe_window(&w);

    if tracer.on() {
        let seed = fixture::model_seed(opts.seed, NET_PROBE_APP);
        exec.register_dnn(NET_PROBE_APP, CFG.build(seed), &Requirements::new())
            .expect("probe tenant registers");
        let sent = probe::net(
            &st.server,
            &mut st.client,
            NET_PROBE_APP,
            &st.pool,
            &mut tracer,
        );
        let last = exec.deregister_dnn(NET_PROBE_APP).expect("probe tenant");
        if let Err(e) = check::ledger(NET_PROBE_APP, sent, &last) {
            st.failures.push(e);
        }
        probe::nn(CFG, seed, &mut tracer);
    }
    let counts = crate::LayerCounts {
        frames: st.server.stats().frames,
        wire_pair: ("probe.wire", "probe.request"),
    };

    let mut failures = std::mem::take(&mut st.failures);
    // Replaying every round would cost as much as the window; rounds
    // spread evenly over the run (the first included) are replayed.
    let stride = log.actuated.len().div_ceil(REPLAY_ROUNDS).max(1);
    for (r, seq) in log.actuated.iter().enumerate().step_by(stride) {
        let expected = replay(&schedule(opts.seed, r as u64));
        if *seq != expected {
            let at = seq.iter().zip(&expected).position(|(a, b)| a != b);
            failures.push(format!(
                "round {r}: actuated allocation sequence differs from the replay at event {at:?}"
            ));
        }
    }
    let mut checker = Checker::new(CFG, &st.pool);
    for k in &log.kept {
        checker.check(k);
    }
    failures.extend(checker.failures.iter().cloned());
    eprintln!(
        "checks: {} replies checked, {} of {} rounds replayed, {} events, {} failures",
        checker.checked,
        log.actuated.len().div_ceil(stride),
        log.actuated.len(),
        events,
        failures.len()
    );
    for f in failures.iter().take(10) {
        eprintln!("check failed: {f}");
    }
    let correct = failures.is_empty() && checker.checked > 0;
    crate::finish(opts, &tracer, w, setup_s, peak_rss, counts, false, correct)
}
