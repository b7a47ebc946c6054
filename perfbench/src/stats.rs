//! Order statistics the benchmark reports: medians, interpolated
//! percentiles, the tail percentile a sample count can support, and
//! quartiles computed exactly as Python's `statistics.quantiles`
//! (default `exclusive` method) computes them, so the steadiness
//! figures printed here match the ones an outside script derives from
//! the same values.

/// Sorts a copy of `values` (total order; NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0.0..=1.0`) of already-sorted values, linearly
/// interpolated between the two closest ranks. `None` when empty.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The `q`-quantile of unsorted values.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    percentile_sorted(&sorted(values), q)
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.75];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten
/// samples beyond it among `n` samples — `None` below forty samples,
/// where even the 75th percentile would be no tail.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|q| (1.0 - q) * n as f64 >= 10.0 - 1e-9)
}

/// A latency summary: the median and, when the sample count supports
/// one, a tail percentile, with the count stated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail quantile and its value (see [`tail_quantile`]).
    pub tail: Option<(f64, f64)>,
}

/// Summarises `values`; `None` when empty.
pub fn summarise(values: &[f64]) -> Option<Summary> {
    let s = sorted(values);
    let p50 = percentile_sorted(&s, 0.5)?;
    let tail = tail_quantile(s.len()).and_then(|q| percentile_sorted(&s, q).map(|v| (q, v)));
    Some(Summary {
        n: s.len(),
        p50,
        tail,
    })
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {:.4}", self.p50)?;
        if let Some((q, v)) = self.tail {
            write!(f, " p{} {:.4}", q * 100.0, v)?;
        }
        write!(f, " (n={})", self.n)
    }
}

/// Quartiles `[q1, q2, q3]` of `values` by Python's
/// `statistics.quantiles(values, n=4)` (method `exclusive`). `None`
/// with fewer than two values, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median (the quartiles'
/// own middle value), the spread figure the bounds are checked on.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// A fixed-capacity uniform sample of a stream (Vitter's algorithm R).
/// Its memory is allocated and written once up front, so keeping it
/// does not grow the process while a run measures — the run's peak
/// resident set is a metric.
#[derive(Debug, Clone)]
pub struct Reservoir {
    buf: Vec<f64>,
    cap: usize,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    /// An empty reservoir of `cap` values.
    pub fn new(cap: usize) -> Self {
        let mut buf = Vec::with_capacity(cap);
        // Touch every page now (a zeroed allocation would stay unmapped).
        buf.resize(cap, 1.0);
        buf.clear();
        Self {
            buf,
            cap,
            seen: 0,
            rng: 0x2545_F491_4F6C_DD1D,
        }
    }

    /// Offers one value.
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.buf.len() < self.cap {
            self.buf.push(v);
            return;
        }
        // xorshift64*: cheap, and the sample's composition does not
        // depend on anything but the stream length.
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        let j = self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % self.seen;
        if let Some(slot) = self.buf.get_mut(j as usize) {
            *slot = v;
        }
    }

    /// The kept values.
    pub fn values(&self) -> &[f64] {
        &self.buf
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert!((percentile(&v, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(39), None);
        assert_eq!(tail_quantile(40), Some(0.75));
        // 99 samples leave only 9.9 beyond the 90th percentile.
        assert_eq!(tail_quantile(99), Some(0.75));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        // The rule itself, over a range of counts: whatever percentile
        // is chosen leaves at least ten samples strictly above its rank.
        for n in 40..3000 {
            let q = tail_quantile(n).unwrap();
            let beyond = n - (q * n as f64 - 1e-9).ceil() as usize;
            assert!(beyond >= 10, "n={n} q={q} beyond={beyond}");
        }
    }

    #[test]
    fn summary_reports_the_median_alone_below_forty_samples() {
        let few: Vec<f64> = (1..=39).map(f64::from).collect();
        let s = summarise(&few).unwrap();
        assert_eq!((s.n, s.p50, s.tail), (39, 20.0, None));
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarise(&many).unwrap();
        let (q, v) = s.tail.unwrap();
        assert_eq!(q, 0.9);
        assert!((v - 90.1).abs() < 1e-9, "{v}");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn reservoir_keeps_everything_below_capacity_and_a_fair_sample_above() {
        let mut r = Reservoir::new(8);
        for i in 0..5 {
            r.push(f64::from(i));
        }
        assert_eq!(r.values(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
        let mut r = Reservoir::new(1000);
        for i in 0..100_000 {
            r.push(f64::from(i));
        }
        assert_eq!((r.values().len(), r.seen()), (1000, 100_000));
        // The sample's median sits near the stream's.
        let m = median(r.values()).unwrap();
        assert!((40_000.0..60_000.0).contains(&m), "{m}");
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0; 10]), Some(0.0));
    }
}
