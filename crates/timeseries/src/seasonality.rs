//! Seasonality detection with a confidence score.
//!
//! This is the computation behind the Figure-1 sentence "the best fitted
//! seasonal period is 6 (confidence 90%)". Candidate periods are the local
//! maxima of the autocorrelation function; each candidate is scored by the
//! variance its decomposition explains relative to alternatives, yielding a
//! normalized **confidence** the soundness layer (P4) can surface and the
//! calibration experiment E10 can validate against ground truth.

use crate::decompose::decompose;
use crate::series::TimeSeries;
use crate::{Result, TsError};

/// The outcome of seasonality detection.
#[derive(Debug, Clone, PartialEq)]
pub struct SeasonalityResult {
    /// The best-fitting period (in observations).
    pub period: usize,
    /// Confidence in `[0, 1]`: the best candidate's share of total candidate
    /// strength, discounted by residual noise.
    pub confidence: f64,
    /// Autocorrelation at the chosen lag.
    pub acf_peak: f64,
    /// All candidate periods with their scores (descending score).
    pub candidates: Vec<(usize, f64)>,
}

/// Sample autocorrelation at lags `1..=max_lag`.
pub fn autocorrelation(values: &[f64], max_lag: usize) -> Vec<f64> {
    let n = values.len();
    if n < 2 {
        return vec![0.0; max_lag];
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    let denom: f64 = values.iter().map(|v| (v - mean) * (v - mean)).sum();
    (1..=max_lag)
        .map(|lag| {
            if lag >= n || denom == 0.0 {
                return 0.0;
            }
            let num: f64 = (0..n - lag)
                .map(|i| (values[i] - mean) * (values[i + lag] - mean))
                .sum();
            num / denom
        })
        .collect()
}

/// Detect the dominant seasonal period of a series.
///
/// Requires at least `min_obs` observations (default callers pass ≥ 3 full
/// candidate periods). Returns [`TsError::InsufficientData`] otherwise — the
/// refusal path P4 requires.
pub fn detect_seasonality(series: &TimeSeries, min_obs: usize) -> Result<SeasonalityResult> {
    series.require(min_obs.max(8))?;
    let values = series.values();
    let n = values.len();
    let max_lag = (n / 2).max(2);
    let acf = autocorrelation(values, max_lag);
    // candidate periods: local ACF maxima with positive correlation
    let mut candidates: Vec<(usize, f64)> = Vec::new();
    for lag in 2..max_lag {
        let idx = lag - 1; // acf[0] is lag 1
        let left = if idx == 0 { f64::NEG_INFINITY } else { acf[idx - 1] };
        let right = if idx + 1 < acf.len() { acf[idx + 1] } else { f64::NEG_INFINITY };
        if acf[idx] > 0.1 && acf[idx] >= left && acf[idx] >= right {
            candidates.push((lag, acf[idx]));
        }
    }
    if candidates.is_empty() {
        return Err(TsError::InvalidParameter("no seasonal structure detected".into()));
    }
    // Score each candidate: ACF evidence + *seasonal* fit, i.e. how much of
    // the detrended variance the seasonal component explains. (Plain R²
    // would be fooled by the moving-average trend absorbing noise.)
    let mut scored: Vec<(usize, f64)> = Vec::new();
    for &(period, acf_val) in &candidates {
        if n >= 2 * period {
            if let Ok(fit) = seasonal_fit(series, period) {
                scored.push((period, 0.5 * acf_val.max(0.0) + 0.5 * fit));
            }
        }
    }
    if scored.is_empty() {
        return Err(TsError::InsufficientData { required: 2 * candidates[0].0, available: n });
    }
    // Merge harmonics into their fundamental (lag 12 of a period-6 series
    // peaks as high as lag 6): ascending by period, a candidate divisible by
    // an already-kept fundamental folds into it with the max score.
    scored.sort_by_key(|&(p, _)| p);
    let mut fundamentals: Vec<(usize, f64)> = Vec::new();
    for (p, s) in scored {
        match fundamentals.iter_mut().find(|(f, _)| p % *f == 0) {
            Some((_, fs)) => *fs = fs.max(s),
            None => fundamentals.push((p, s)),
        }
    }
    fundamentals.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let (period, best_score) = fundamentals[0];
    let second_score = fundamentals.get(1).map_or(0.0, |&(_, s)| s);
    // Confidence = seasonal fit × ACF significance × dominance over the
    // runner-up hypothesis.
    let fit = seasonal_fit(series, period).unwrap_or(0.0);
    let acf_peak = acf.get(period - 1).copied().unwrap_or(0.0);
    let white_noise_band = 4.0 / (n as f64).sqrt();
    let significance = (acf_peak / white_noise_band).clamp(0.0, 1.0);
    let dominance = if best_score > 0.0 { best_score / (best_score + second_score) } else { 0.0 };
    let confidence = (fit * significance * dominance).clamp(0.0, 1.0);
    Ok(SeasonalityResult { period, confidence, acf_peak, candidates: fundamentals })
}

/// Fraction of the *detrended* variance explained by the seasonal component
/// of a decomposition at `period` (clamped to `[0, 1]`).
pub(crate) fn seasonal_fit(series: &TimeSeries, period: usize) -> Result<f64> {
    let d = decompose(series, period)?;
    let values = series.values();
    let detrended: Vec<f64> = values.iter().zip(&d.trend).map(|(&v, &t)| v - t).collect();
    let mean = detrended.iter().sum::<f64>() / detrended.len() as f64;
    let var: f64 = detrended.iter().map(|v| (v - mean) * (v - mean)).sum();
    if var == 0.0 {
        return Ok(0.0);
    }
    let resid: f64 = d.residual.iter().map(|r| r * r).sum();
    Ok((1.0 - resid / var).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acf_of_periodic_signal_peaks_at_period() {
        let ts = TimeSeries::synthetic_seasonal(120, 12, 10.0, 0.0, 0.0, 1);
        let acf = autocorrelation(ts.values(), 30);
        // lag 12 (index 11) should be a strong positive peak
        assert!(acf[11] > 0.9, "acf@12 = {}", acf[11]);
        // lag 6 (half period) strongly negative for a sinusoid
        assert!(acf[5] < -0.5, "acf@6 = {}", acf[5]);
    }

    #[test]
    fn acf_edge_cases() {
        assert_eq!(autocorrelation(&[1.0], 3), vec![0.0, 0.0, 0.0]);
        let flat = autocorrelation(&[2.0; 10], 3);
        assert!(flat.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn detects_period_six_like_figure_one() {
        // the Figure-1 answer: monthly barometer with 6-month seasonality
        let ts = TimeSeries::synthetic_seasonal(120, 6, 5.0, 0.05, 0.5, 42);
        let r = detect_seasonality(&ts, 24).unwrap();
        assert_eq!(r.period, 6);
        assert!(r.confidence > 0.6, "confidence {}", r.confidence);
    }

    #[test]
    fn detects_period_twelve() {
        let ts = TimeSeries::synthetic_seasonal(144, 12, 8.0, 0.0, 1.0, 7);
        let r = detect_seasonality(&ts, 24).unwrap();
        assert_eq!(r.period, 12);
    }

    #[test]
    fn confidence_decreases_with_noise() {
        let clean = TimeSeries::synthetic_seasonal(120, 6, 5.0, 0.0, 0.2, 3);
        let noisy = TimeSeries::synthetic_seasonal(120, 6, 5.0, 0.0, 8.0, 3);
        let rc = detect_seasonality(&clean, 24).unwrap();
        // refusing on very noisy data is also acceptable, hence `if let`
        if let Ok(rn) = detect_seasonality(&noisy, 24) {
            assert!(rc.confidence > rn.confidence,
                "clean {} vs noisy {}", rc.confidence, rn.confidence);
        }
    }

    #[test]
    fn insufficient_data_is_refused() {
        let ts = TimeSeries::synthetic_seasonal(10, 6, 5.0, 0.0, 0.1, 1);
        assert!(matches!(
            detect_seasonality(&ts, 24),
            Err(TsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn pure_noise_yields_error_or_low_confidence() {
        let ts = TimeSeries::synthetic_seasonal(200, 0, 0.0, 0.0, 1.0, 5);
        match detect_seasonality(&ts, 24) {
            Err(_) => {}
            Ok(r) => assert!(r.confidence < 0.5, "noise confidence {}", r.confidence),
        }
    }

    #[test]
    fn candidates_are_reported_sorted() {
        let ts = TimeSeries::synthetic_seasonal(144, 12, 8.0, 0.0, 0.5, 2);
        let r = detect_seasonality(&ts, 24).unwrap();
        for w in r.candidates.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
