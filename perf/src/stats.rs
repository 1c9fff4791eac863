//! Order statistics used by every metric: nearest-rank percentiles, the
//! "at least ten samples beyond" rule, and the quartile spread the
//! steadiness check is defined on.

/// Nearest-rank percentile of an unsorted sample (`p` in `(0, 100]`).
/// Returns `None` on an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly above the nearest-rank percentile position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p).min(n)
}

/// A percentile is reportable only with at least ten samples beyond it
/// (choosing-metrics §1): with fewer, the value is one noisy observation.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// Median (nearest rank, like every other percentile here).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them —
/// the acceptance procedure is stated in those terms.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let ld = samples.len();
    if ld < 2 {
        return None;
    }
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median
/// cut point — the run-to-run spread of one metric over several runs.
/// `0.0` when fewer than two runs exist (spread unknown, not "steady").
pub fn quartile_spread(samples: &[f64]) -> f64 {
    match quartiles(samples) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}
