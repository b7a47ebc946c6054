//! Output checks. They run after the timed window, on a seeded subset
//! of the requests served in it, and compare against results computed
//! separately here — never against stored output of an earlier run.
//!
//! - f32 replies must match a twin built from the same seed on the
//!   nested-loop `Backend::Reference` oracle: every logit within
//!   [`LOGIT_ATOL`] + [`LOGIT_RTOL`]·|reference|, and the same argmax
//!   unless the reference's top two logits lie within that tolerance.
//! - int8 replies must be bit-identical to the twin's batch-1 chained
//!   forward: with frozen scales, chained int8 inference is per-sample
//!   independent, so the micro-batch a request rode cannot matter.
//! - Per tenant lifetime, the executor's ledger must balance
//!   (`submitted == completed + errors + rejected + shed`) with no
//!   out-of-order completion.
//! - Allocations must not claim more cores of a CPU cluster than it has
//!   (accelerator clusters are time-shared: each placement must fit).

use std::collections::HashMap;

use eml_core::rtm::Allocation;
use eml_dnn::{DynamicDnn, Precision, WidthLevel};
use eml_platform::soc::Soc;
use eml_serve::AppStatsSnapshot;

use crate::fixture::{self, ModelCfg};

/// Absolute logit tolerance of the f32 check.
pub const LOGIT_ATOL: f32 = 1e-4;
/// Relative logit tolerance of the f32 check.
pub const LOGIT_RTOL: f32 = 1e-4;

/// Most replies a run keeps for checking (bounded, so keeping them
/// does not grow the process with the run's throughput).
pub const MAX_KEPT: usize = 2048;

/// One reply kept for checking.
#[derive(Debug, Clone)]
pub struct Kept {
    /// Tenant name.
    pub app: String,
    /// The tenant model's seed.
    pub model_seed: u64,
    /// The tenant's precision.
    pub precision: Precision,
    /// Width level the reply was served at.
    pub level: usize,
    /// Index of the input in the workload's sample pool.
    pub sample: usize,
    /// The reply's logits.
    pub logits: Vec<f32>,
}

/// Checks kept replies against twins, memoising twin models and their
/// outputs (inputs repeat, so most checks are look-ups).
pub struct Checker<'a> {
    cfg: ModelCfg,
    pool: &'a [Vec<f32>],
    twins: HashMap<(u64, bool), DynamicDnn>,
    memo: HashMap<(u64, bool, usize, usize), Vec<f32>>,
    /// Replies checked.
    pub checked: usize,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl<'a> Checker<'a> {
    /// A checker for replies of `cfg` models on inputs from `pool`.
    pub fn new(cfg: ModelCfg, pool: &'a [Vec<f32>]) -> Self {
        Self {
            cfg,
            pool,
            twins: HashMap::new(),
            memo: HashMap::new(),
            checked: 0,
            failures: Vec::new(),
        }
    }

    fn expected(&mut self, k: &Kept) -> Vec<f32> {
        let int8 = k.precision == Precision::Int8;
        let key = (k.model_seed, int8, k.level, k.sample);
        if let Some(v) = self.memo.get(&key) {
            return v.clone();
        }
        let cfg = self.cfg;
        let twin = self
            .twins
            .entry((k.model_seed, int8))
            .or_insert_with(|| fixture::twin(cfg, k.model_seed, k.precision, k.level));
        twin.set_level(WidthLevel(k.level)).expect("level in range");
        let x = fixture::batch(cfg, &[&self.pool[k.sample]]);
        let y = twin
            .network_mut()
            .forward(&x, false)
            .expect("twin forward")
            .into_vec();
        self.memo.insert(key, y.clone());
        y
    }

    /// Checks one kept reply; a failure is recorded, not returned.
    pub fn check(&mut self, k: &Kept) {
        let want = self.expected(k);
        self.checked += 1;
        let verdict = if k.precision == Precision::Int8 {
            let same = want.len() == k.logits.len()
                && want
                    .iter()
                    .zip(&k.logits)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if same {
                Ok(())
            } else {
                Err("int8 reply is not bit-identical to the batch-1 chained twin".to_string())
            }
        } else {
            f32_matches(&k.logits, &want)
        };
        if let Err(why) = verdict {
            self.failures.push(format!(
                "{} level {} sample {}: {why}",
                k.app, k.level, k.sample
            ));
        }
    }
}

fn argmax(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .fold((0, f32::NEG_INFINITY), |(bi, bv), (i, &x)| {
            if x > bv {
                (i, x)
            } else {
                (bi, bv)
            }
        })
        .0
}

/// The f32 reply check (see the module docs).
///
/// # Errors
///
/// Why the reply fails.
pub fn f32_matches(got: &[f32], reference: &[f32]) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!(
            "{} logits, reference has {}",
            got.len(),
            reference.len()
        ));
    }
    let tol = |r: f32| LOGIT_ATOL + LOGIT_RTOL * r.abs();
    for (i, (g, r)) in got.iter().zip(reference).enumerate() {
        if (g - r).abs() > tol(*r) || !g.is_finite() {
            return Err(format!("logit {i}: {g} vs reference {r}"));
        }
    }
    let (ga, ra) = (argmax(got), argmax(reference));
    if ga != ra {
        let mut top: Vec<f32> = reference.to_vec();
        top.sort_by(|a, b| b.total_cmp(a));
        let near_tie = top.len() > 1 && top[0] - top[1] <= tol(top[0]);
        if !near_tie {
            return Err(format!("argmax {ga}, reference argmax {ra}"));
        }
    }
    Ok(())
}

/// The ledger check of one tenant lifetime.
///
/// # Errors
///
/// Why the ledger does not balance.
pub fn ledger(app: &str, submitted: u64, s: &AppStatsSnapshot) -> Result<(), String> {
    let settled = s.completed + s.errors + s.rejected + s.shed;
    if submitted + s.storm_injected != settled {
        return Err(format!(
            "{app}: submitted {submitted} != completed {} + errors {} + rejected {} + shed {}",
            s.completed, s.errors, s.rejected, s.shed
        ));
    }
    if s.out_of_order != 0 {
        return Err(format!(
            "{app}: {} out-of-order completions",
            s.out_of_order
        ));
    }
    Ok(())
}

/// The core-count check of one allocation.
///
/// # Errors
///
/// The first cluster whose claims exceed its cores.
pub fn cores_within(soc: &Soc, alloc: &Allocation) -> Result<(), String> {
    for (id, cluster) in soc.clusters() {
        let cores = cluster.cores();
        let placed = alloc.dnns.iter().filter(|d| d.point.op.cluster == id);
        if cluster.kind().is_accelerator() {
            if let Some(d) = placed.clone().find(|d| d.point.op.cores > cores) {
                return Err(format!(
                    "{} claims {} of {cores} cores on {}",
                    d.app,
                    d.point.op.cores,
                    cluster.name()
                ));
            }
        } else {
            let rigid: u32 = alloc
                .rigid
                .iter()
                .filter(|r| r.cluster == id)
                .map(|_| cores)
                .sum();
            let claimed: u32 = placed.map(|d| d.point.op.cores).sum::<u32>() + rigid;
            if claimed > cores {
                return Err(format!(
                    "{} claims {claimed} of {cores} cores",
                    cluster.name()
                ));
            }
        }
    }
    Ok(())
}

/// A digest of an allocation's decisions: who is placed where (cluster,
/// cores, OPP), at which width, and who is left out.
pub fn digest(alloc: &Allocation) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for d in &alloc.dnns {
        eat(d.app.as_bytes());
        for v in [
            d.point.op.cluster.index(),
            d.point.op.cores as usize,
            d.point.op.opp_index,
            d.point.op.level.index(),
        ] {
            eat(&v.to_le_bytes());
        }
    }
    eat(b"|rigid");
    for r in &alloc.rigid {
        eat(r.app.as_bytes());
        eat(&r.cluster.index().to_le_bytes());
        eat(&r.opp_index.to_le_bytes());
    }
    eat(b"|unplaced");
    for u in &alloc.unplaced {
        eat(u.as_bytes());
        eat(b",");
    }
    h
}

/// The phase check: every placed app reports the allocated level and
/// is admitted; every unplaced app is not admitted. `stats` pairs each
/// live DNN app with its snapshot.
pub fn phase(alloc: &Allocation, stats: &[(&str, AppStatsSnapshot)]) -> Result<(), String> {
    for (app, s) in stats {
        match alloc.dnn(app) {
            Some(d) => {
                let want = d.point.op.level.index();
                if s.level != want || !s.admitted {
                    return Err(format!(
                        "{app}: level {} admitted {}, allocated level {want}",
                        s.level, s.admitted
                    ));
                }
            }
            None if s.admitted => {
                return Err(format!("{app}: unplaced but still admitted"));
            }
            None => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_check_tolerates_reassociation_and_near_ties_only() {
        let r = [0.5f32, 0.25, -1.0];
        assert!(f32_matches(&[0.500_01, 0.25, -1.0], &r).is_ok());
        assert!(f32_matches(&[0.6, 0.25, -1.0], &r).is_err());
        assert!(f32_matches(&[0.5, 0.25], &r).is_err());
        // A flipped argmax passes only when the reference's top two
        // are within tolerance of each other.
        let tie = [0.5f32, 0.500_01, 0.0];
        assert!(f32_matches(&[0.500_02, 0.500_01, 0.0], &tie).is_ok());
        assert!(f32_matches(&[f32::NAN, 0.25, -1.0], &r).is_err());
    }
}
