//! Latency histograms and the slice statistics every timing metric is
//! built from.
//!
//! A run's measured section is cut into equal-count slices and the
//! statistic (throughput, p50, p90) is taken per slice. A timing metric
//! carries two summaries of those slice values: the **fast-decile
//! slice**, which is the value the run reports and the driver bounds
//! ([`FAST_QUANTILE`] says why), and the **median slice**, which the
//! result file keeps beside it and `perf compare` bounds too, so that a
//! regression reaching only some of the slices still shows. A percentile
//! is computed per group of consecutive slices holding enough samples to
//! leave at least ten beyond it.

/// Sub-buckets per power of two: bucket width ≤ 1/128 of its value, so
/// a reported quantile is within 0.8 % of a recorded sample.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values are nanoseconds; 2^42 ns ≈ 73 min is far beyond any sample.
const MAX_EXP: u32 = 42;
const BUCKETS: usize = (MAX_EXP - SUB_BITS + 1) as usize * SUB as usize;

/// Log-bucketed histogram of nanosecond samples.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let v = v.min((1 << MAX_EXP) - 1);
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// Midpoint of bucket `b`.
fn value_of(b: usize) -> f64 {
    let (b, sub) = (b as u64 / SUB, b as u64 % SUB);
    if b == 0 {
        return sub as f64;
    }
    let shift = b - 1;
    let lo = (SUB + sub) << shift;
    lo as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile in nanoseconds (0 for an empty histogram).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return value_of(b);
            }
        }
        unreachable!("rank is within the recorded count")
    }
}

/// Linearly interpolated `q`-quantile of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    v[lo] + (v[(lo + 1).min(v.len() - 1)] - v[lo]) * frac
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// How far in from the fast end the reported slice sits.
///
/// Measured on the seed commit on a shared 2-core VM (README, "Why the
/// fast decile"): undisturbed slices of one run agree within 3 %, and
/// other tenants slow a run down, for seconds to minutes at a time, and
/// never speed it up. Over ten seeds of `trickle` the median slice's
/// `fresh_p90_us` spread by 29 % of itself (runs where more than half
/// the slices were disturbed report the disturbed level, 40 % up), the
/// fast decile's by 6 %. Every slice does the same work, so the fast end
/// is the undisturbed cost; the tenth percentile (about the fifth-best
/// of fifty slices) keeps one lucky slice from setting it.
pub const FAST_QUANTILE: f64 = 0.10;

/// Which slice a summary reports as its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// The median slice (set-up time: few samples, each a whole set-up).
    Median,
    /// The fast-decile slice of a statistic where lower is better.
    FastLow,
    /// The fast-decile slice of a statistic where higher is better.
    FastHigh,
}

/// A statistic summarised over slices: the reported value, the median
/// slice, the distance between the slice quartiles as a share of that
/// median (the run's own noise), and what it rests on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub median: f64,
    pub spread: f64,
    pub groups: usize,
    pub samples: u64,
    /// The statistic of each slice (or group of slices), in run order.
    pub per_slice: Vec<f64>,
}

impl Summary {
    /// A counted or single-shot value: no slices behind it.
    pub fn single(value: f64) -> Self {
        Summary {
            value,
            median: value,
            ..Summary::default()
        }
    }

    /// The same summary in another unit (ns to us).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.value *= factor;
        self.median *= factor;
        self.per_slice.iter_mut().for_each(|v| *v *= factor);
        self
    }
}

pub fn summarise(per_slice: &[f64], samples: u64, pick: Pick) -> Summary {
    let median = median(per_slice);
    let iqr = quantile(per_slice, 0.75) - quantile(per_slice, 0.25);
    Summary {
        value: match pick {
            Pick::Median => median,
            Pick::FastLow => quantile(per_slice, FAST_QUANTILE),
            Pick::FastHigh => quantile(per_slice, 1.0 - FAST_QUANTILE),
        },
        median,
        spread: if median > 0.0 { iqr / median } else { 0.0 },
        groups: per_slice.len(),
        samples,
        per_slice: per_slice.to_vec(),
    }
}

/// The `q`-quantile (in ns) over `slices`: consecutive slices are pooled
/// until each group leaves ten samples beyond the quantile (twenty for
/// the median), the quantile is taken per group, and the fast-decile
/// group is reported with the median group beside it. A run too short
/// for one full group pools all of it; `samples` then tells how thin the
/// estimate is.
pub fn quantile_over_slices(slices: &[Hist], q: f64) -> Summary {
    let need = (10.0 / (1.0 - q) - 1e-6).ceil() as u64;
    let mut per_group = Vec::new();
    let mut acc = Hist::default();
    let mut total = 0;
    for s in slices {
        acc.merge(s);
        total += s.len();
        if acc.len() >= need {
            per_group.push(acc.quantile(q));
            acc = Hist::default();
        }
    }
    if per_group.is_empty() && acc.len() > 0 {
        per_group.push(acc.quantile(q));
    }
    summarise(&per_group, total, Pick::FastLow)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_error_is_under_one_percent() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            1_000,
            65_535,
            1_234_567,
            9_876_543_210,
        ] {
            let mut h = Hist::default();
            h.record(v);
            let got = h.quantile(0.5);
            let err = (got - v as f64).abs() / (v as f64).max(1.0);
            assert!(err <= 0.008, "value {v} read back as {got}");
        }
        let mut h = Hist::default();
        h.record(u64::MAX);
        assert!(h.quantile(1.0) > 4.0e12, "huge samples saturate, not wrap");
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        for (q, want) in [(0.5, 500_000.0), (0.95, 950_000.0), (0.99, 990_000.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn summaries_carry_the_fast_decile_and_the_median_slice() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let slices: Vec<f64> = (0..=10).map(f64::from).collect();
        let s = summarise(&slices, 50, Pick::Median);
        assert_eq!(
            (s.value, s.median, s.spread, s.groups, s.samples),
            (5.0, 5.0, 1.0, 11, 50)
        );
        assert_eq!(s.per_slice, slices);
        let low = summarise(&slices, 50, Pick::FastLow);
        assert_eq!((low.value, low.median), (1.0, 5.0));
        assert_eq!(summarise(&slices, 50, Pick::FastHigh).value, 9.0);
        // Six disturbed slices out of eleven move the median slice and
        // leave the fast decile alone.
        let mut disturbed = slices.clone();
        disturbed[5..].iter_mut().for_each(|v| *v += 40.0);
        let d = summarise(&disturbed, 50, Pick::FastLow);
        assert_eq!((d.value, d.median), (1.0, 45.0));
        assert_eq!(summarise(&[], 0, Pick::FastLow), Summary::default());
        let us = Summary::single(2_000.0).scaled(1e-3);
        assert_eq!((us.value, us.median, us.groups), (2.0, 2.0, 0));
    }

    #[test]
    fn slices_are_grouped_until_the_tail_is_supported() {
        // 10 slices of 100 samples: p50 needs 20 per group (10 groups),
        // p95 needs 200 (5 groups), p99 needs 1000 (1 group).
        let slices: Vec<Hist> = (0..10)
            .map(|s| {
                let mut h = Hist::default();
                for v in 0..100u64 {
                    h.record(1_000 + s * 10 + v);
                }
                h
            })
            .collect();
        assert_eq!(quantile_over_slices(&slices, 0.5).groups, 10);
        assert_eq!(quantile_over_slices(&slices, 0.95).groups, 5);
        let p99 = quantile_over_slices(&slices, 0.99);
        assert_eq!((p99.groups, p99.samples), (1, 1000));
        // Too short for even one group: everything is pooled.
        let thin = quantile_over_slices(&slices[..3], 0.99);
        assert_eq!((thin.groups, thin.samples), (1, 300));
        assert!(thin.value > 1_000.0);
        assert_eq!(quantile_over_slices(&[], 0.5), Summary::default());
    }
}
