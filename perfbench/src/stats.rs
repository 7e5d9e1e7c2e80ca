//! Order statistics for wall-clock samples.

/// Median of `xs` (mean of the middle pair for even lengths); `NaN` for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Percentile ladder the tail is chosen from, in hundredths of a
/// percent so ranks come out exact.
const LADDER: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail percentile and the sample it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// The value at that percentile (nearest rank).
    pub value: f64,
    /// Samples in total.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The highest percentile of the ladder with at least [`TAIL_BEYOND`]
/// samples beyond its nearest rank; `None` below 20 samples.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    LADDER.iter().rev().find_map(|&bp| {
        let rank = (bp * n as u64).div_ceil(10_000) as usize;
        let beyond = n - rank;
        (rank >= 1 && beyond >= TAIL_BEYOND).then(|| Tail {
            pct: bp as f64 / 100.0,
            value: v[rank - 1],
            samples: n,
            beyond,
        })
    })
}

/// Nearest-rank percentile of `xs`; `NaN` for an empty slice.
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}
