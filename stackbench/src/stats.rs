//! Order statistics over samples.
//!
//! Timings are reported as medians over `WINDOWS` consecutive windows of a
//! run (each window's own quantile), so a burst of noise on a shared
//! machine moves one window rather than the whole figure.

/// Windows a run's samples are cut into.
pub const WINDOWS: usize = 5;

/// Timed samples of one verb: `(start, duration)` in nanoseconds, the
/// start relative to the phase.
#[derive(Clone, Debug, Default)]
pub struct Samples(pub Vec<(u64, u64)>);

impl Samples {
    pub fn push(&mut self, at_ns: u64, ns: u64) {
        self.0.push((at_ns, ns));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// The `q`-quantile in microseconds: the median over `WINDOWS`
    /// equal-count windows in time order of each window's quantile
    /// (pooled when a window would hold fewer than 100 samples).
    pub fn quantile_us(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_unstable();
        let per = v.len() / WINDOWS;
        if per < 100 {
            let mut d: Vec<u64> = v.iter().map(|s| s.1).collect();
            d.sort_unstable();
            return quantile_sorted(&d, q) / 1e3;
        }
        let qs: Vec<f64> = v
            .chunks(per)
            .take(WINDOWS)
            .map(|w| {
                let mut d: Vec<u64> = w.iter().map(|s| s.1).collect();
                d.sort_unstable();
                quantile_sorted(&d, q) / 1e3
            })
            .collect();
        median(&qs)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        self.0.iter().map(|&(_, x)| x as f64).sum::<f64>() / self.0.len() as f64
    }
}

/// Operations per second: the median over `WINDOWS` equal slices of
/// `secs` of the operations that started in each.
pub fn windowed_rate(starts: &[u64], secs: f64) -> f64 {
    let slice_ns = secs * 1e9 / WINDOWS as f64;
    let mut counts = [0u64; WINDOWS];
    for &at in starts {
        let w = ((at as f64 / slice_ns) as usize).min(WINDOWS - 1);
        counts[w] += 1;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / (slice_ns / 1e9)).collect();
    median(&rates)
}

/// Nearest-rank quantile of ascending `v` (NaN when empty).
pub fn quantile_sorted(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let i = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[i] as f64
}

/// The median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
