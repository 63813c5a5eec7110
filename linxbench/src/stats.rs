//! Latency summaries: the median and a tail percentile — the highest
//! nearest-rank percentile that still has at least [`TAIL_BEYOND`] samples
//! beyond it, capped at [`TAIL_MAX_PCT`].

/// Samples a reported tail percentile must have strictly above its rank.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile reported as a tail. With thousands of samples the
/// ten-beyond rule alone reaches p99.9, and even p99 falls among the 1–2%
/// of hits a scheduler hiccup slows: over ten runs each, warm-hit's p99.87
/// spread 54% and its p99 84% (quartile distance over median).
pub const TAIL_MAX_PCT: f64 = 95.0;

/// A latency distribution reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The value at the tail rank.
    pub tail: f64,
    /// The percentile the tail value stands for (`100 * rank / n`).
    pub tail_pct: f64,
}

/// Nearest-rank percentile of ascending `sorted` samples: the value at 1-based
/// rank `ceil(pct / 100 * n)`, clamped to `1..=n`. `None` when empty.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The 1-based rank of the highest nearest-rank percentile with at least
/// `beyond` samples above it, capped at the rank of [`TAIL_MAX_PCT`]; `None`
/// when there are not `beyond + 1` samples.
pub fn tail_rank(n: usize, beyond: usize) -> Option<usize> {
    let cap = (TAIL_MAX_PCT * n as f64 / 100.0).ceil() as usize;
    (n > beyond).then(|| (n - beyond).min(cap))
}

/// Summarize unsorted samples. `None` when there are too few samples for a
/// tail percentile with [`TAIL_BEYOND`] samples beyond it.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = tail_rank(n, TAIL_BEYOND)?;
    Some(Summary {
        n,
        p50: nearest_rank(&sorted, 50.0)?,
        tail: sorted[rank - 1],
        tail_pct: 100.0 * rank as f64 / n as f64,
    })
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median (nearest rank); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0).unwrap_or(0.0)
}
