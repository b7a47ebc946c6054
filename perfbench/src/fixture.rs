//! Inputs and program objects every workload builds: seeded samples,
//! seeded models (and their twins for the output checks), the executor
//! behind a loopback server, and the RTM control step.

use std::time::{Duration, Instant};

use eml_core::rtm::{Allocation, AppSpec, Rtm, RtmConfig};
use eml_dnn::{DynamicDnn, Precision, WidthLevel};
use eml_net::{AdmissionConfig, NetClient, NetConfig, NetServer};
use eml_nn::tensor::Tensor;
use eml_nn::Backend;
use eml_platform::soc::Soc;
use eml_serve::{testbed, Executor, ExecutorConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;

/// Requests each tenant's queue holds before `QueueFull`.
pub const QUEUE_CAPACITY: usize = 64;
/// Largest micro-batch the executor forms.
pub const BATCH_CAP: usize = 8;
/// Threads of the executor's shared serving pool.
pub const POOL_WORKERS: usize = 2;
/// Calibration batches (of [`CALIB_BATCH`] samples) for int8 tenants.
pub const CALIB_BATCHES: usize = 4;
/// Samples per calibration batch.
pub const CALIB_BATCH: usize = 8;

/// Which testbed model a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelCfg {
    /// `testbed::default_dnn`: 3×16×16 input, 4 groups, base width 32.
    Default,
    /// `testbed::tiny_dnn`: 3×8×8 input, 4 groups, base width 8.
    Tiny,
}

impl ModelCfg {
    /// Builds the model for `seed`.
    pub fn build(self, seed: u64) -> DynamicDnn {
        match self {
            ModelCfg::Default => testbed::default_dnn(seed),
            ModelCfg::Tiny => testbed::tiny_dnn(seed),
        }
    }

    /// Flattened per-sample input length.
    pub fn sample_len(self) -> usize {
        match self {
            ModelCfg::Default => 3 * 16 * 16,
            ModelCfg::Tiny => 3 * 8 * 8,
        }
    }

    /// Per-sample input shape `[C, H, W]`.
    pub fn shape(self) -> [usize; 3] {
        match self {
            ModelCfg::Default => [3, 16, 16],
            ModelCfg::Tiny => [3, 8, 8],
        }
    }
}

/// SplitMix64: the benchmark's seed mixer (stateless, so a derived
/// seed depends only on its inputs).
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The model seed of tenant `name` in a run seeded `seed`.
pub fn model_seed(seed: u64, name: &str) -> u64 {
    mix(seed ^ eml_sim::workload::fnv1a64(name))
}

/// Whether request `id` of a run seeded `seed` is in the checked
/// subset (one in `every`).
pub fn sampled(seed: u64, id: u64, every: u64) -> bool {
    mix(seed.rotate_left(29) ^ id).is_multiple_of(every)
}

/// `count` samples of `len` values uniform in `[-1, 1)`.
pub fn samples(seed: u64, count: usize, len: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x5A3B_1E55));
    (0..count)
        .map(|_| (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

/// Stacks samples into one `[N, C, H, W]` batch.
pub fn batch(cfg: ModelCfg, rows: &[&[f32]]) -> Tensor {
    let [c, h, w] = cfg.shape();
    let data: Vec<f32> = rows.iter().flat_map(|r| r.iter().copied()).collect();
    Tensor::from_vec(&[rows.len(), c, h, w], data).expect("rows match the model's sample shape")
}

/// Calibrates `dnn` for frozen-scale int8 on batches derived from
/// `seed`, then switches it to int8. The twin of a served int8 model
/// goes through exactly the same steps.
pub fn make_int8(cfg: ModelCfg, dnn: &mut DynamicDnn, seed: u64) {
    let calib = samples(
        mix(seed ^ 0xCA1B),
        CALIB_BATCHES * CALIB_BATCH,
        cfg.sample_len(),
    );
    let batches: Vec<Tensor> = calib
        .chunks(CALIB_BATCH)
        .map(|c| batch(cfg, &c.iter().map(Vec::as_slice).collect::<Vec<_>>()))
        .collect();
    dnn.calibrate(batches)
        .expect("calibration batches fit the model");
    dnn.set_precision(Precision::Int8);
}

/// A served tenant's model: `cfg` from `seed`, int8 when asked.
pub fn served_model(cfg: ModelCfg, seed: u64, precision: Precision) -> DynamicDnn {
    let mut dnn = cfg.build(seed);
    if precision == Precision::Int8 {
        make_int8(cfg, &mut dnn, seed);
    }
    dnn
}

/// The check twin of a served tenant at `level`: f32 tenants are
/// checked against the nested-loop `Backend::Reference` oracle, int8
/// tenants against the same calibrated chain at batch 1.
pub fn twin(cfg: ModelCfg, seed: u64, precision: Precision, level: usize) -> DynamicDnn {
    let mut dnn = served_model(cfg, seed, precision);
    dnn.set_level(WidthLevel(level)).expect("level in range");
    if precision == Precision::F32 {
        dnn.network_mut().set_backend(Backend::Reference);
    }
    dnn
}

/// The executor configuration every workload serves with.
pub fn executor() -> Executor {
    Executor::new(ExecutorConfig {
        queue_capacity: QUEUE_CAPACITY,
        batch_cap: BATCH_CAP,
        pool_workers: POOL_WORKERS,
        max_apps: 256,
        ..ExecutorConfig::default()
    })
}

/// Binds a loopback server over `exec` whose admission never refuses
/// a well-formed request (the benchmark measures serving, not the
/// token bucket).
pub fn server(exec: Executor) -> NetServer {
    NetServer::bind(
        NetConfig {
            addr: "127.0.0.1:0".into(),
            idle_timeout: Duration::from_secs(600),
            admission: AdmissionConfig {
                bucket_capacity: 1e12,
                refill_per_sec: 1e12,
                ..AdmissionConfig::default()
            },
            ..NetConfig::default()
        },
        exec,
    )
    .expect("bind a loopback port")
}

/// Connects a client to `server` and introduces it.
pub fn client(server: &NetServer) -> NetClient {
    let mut c = NetClient::connect(server.local_addr(), Duration::from_secs(30))
        .expect("connect to the loopback server");
    c.hello("perfbench").expect("hello is admitted");
    c
}

/// The RTM and the platform it allocates.
pub struct Control {
    /// The resource manager (analytic, no feedback).
    pub rtm: Rtm,
    /// The SoC model it allocates.
    pub soc: Soc,
}

impl Control {
    /// An RTM with the default configuration over `soc`.
    pub fn new(soc: Soc) -> Self {
        Self {
            rtm: Rtm::new(RtmConfig::default()),
            soc,
        }
    }

    /// One control step: `Rtm::allocate` over `specs`, then
    /// `Executor::apply_allocation`. Returns the allocation and the two
    /// call durations, recording `rtm.allocate` (argument: live apps)
    /// and `exec.apply` spans under `parent`.
    pub fn step(
        &self,
        exec: &Executor,
        specs: &[AppSpec],
        tracer: &mut Tracer,
        parent: u32,
    ) -> (Allocation, Duration, Duration) {
        let t0 = Instant::now();
        let alloc = self
            .rtm
            .allocate(&self.soc, specs)
            .expect("analytic allocation of valid specs");
        let t1 = Instant::now();
        exec.apply_allocation(&alloc);
        let t2 = Instant::now();
        tracer.record("rtm.allocate", parent, 0, specs.len() as u64, t0, t1);
        tracer.record("exec.apply", parent, 0, 0, t1, t2);
        (alloc, t1 - t0, t2 - t1)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_only_on_the_seed() {
        assert_eq!(samples(7, 3, 5), samples(7, 3, 5));
        assert_ne!(samples(7, 3, 5), samples(8, 3, 5));
        assert_eq!(model_seed(1, "a"), model_seed(1, "a"));
        assert_ne!(model_seed(1, "a"), model_seed(1, "b"));
        let hits = (0..6400).filter(|&i| sampled(3, i, 64)).count();
        assert!((50..=150).contains(&hits), "{hits}");
    }
}
