//! The benchmark's metric arithmetic: quantiles, rates and the
//! fast-decile rate. Kept free of I/O so `tests/metric_math.rs` can pin it.

/// Linear-interpolated quantile (`q` in `[0, 1]`) of an unsorted sample:
/// the value at fractional rank `q × (n − 1)` of the sorted sample, the
/// same convention as NumPy's default. Returns `NaN` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Reads per second for `pairs` read pairs in `secs` seconds. A pair is two
/// reads everywhere in this benchmark.
pub fn reads_per_s(pairs: u64, secs: f64) -> f64 {
    2.0 * pairs as f64 / secs
}

/// One group of equal samples: every sample maps `pairs` pairs, and
/// `secs` holds the wall time of each repetition.
#[derive(Clone, Debug, Default)]
pub struct SampleGroup {
    /// Pairs mapped by one sample of this group.
    pub pairs: u64,
    /// Wall seconds of each sample.
    pub secs: Vec<f64>,
}

/// The fast-decile rate: reads per second when each group of equal samples
/// runs at its 10th-percentile sample time.
///
/// The host's speed swings ±20–25 % in regimes lasting 10–40 s, so a
/// run's mean rate mostly says which regime it landed in. Every run still
/// contains fast moments; the 10th-percentile sample time measures the
/// program at those moments and repeats across runs far better. Groups
/// keep samples of unequal content apart (one group per distinct input
/// slice), so the statistic never prefers cheap inputs over costly ones.
pub fn fast_decile_reads_per_s(groups: &[SampleGroup]) -> f64 {
    let pairs: u64 = groups.iter().map(|g| g.pairs).sum();
    let secs: f64 = groups.iter().map(|g| quantile(&g.secs, 0.10)).sum();
    reads_per_s(pairs, secs)
}

/// Mean rate over every sample of every group: total reads ÷ total time.
pub fn mean_reads_per_s(groups: &[SampleGroup]) -> f64 {
    let pairs: u64 = groups.iter().map(|g| g.pairs * g.secs.len() as u64).sum();
    let secs: f64 = groups.iter().flat_map(|g| g.secs.iter()).sum();
    reads_per_s(pairs, secs)
}

/// `part ÷ whole` as a percentage, 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// `num ÷ den`, 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
