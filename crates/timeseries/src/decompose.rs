//! Classical additive decomposition: trend + seasonal + residual.
//!
//! Trend is a centered moving average of window `period` (with the standard
//! 2×m averaging for even periods); the seasonal component is the per-phase
//! mean of the detrended series, re-centered to sum to zero; the residual is
//! what remains. This is the decomposition the Figure-1 answer plots.

use crate::series::TimeSeries;
use crate::{Result, TsError};

/// The three additive components of a series.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// The seasonal period used.
    pub period: usize,
    /// Trend component (NaN-free: edges are extended from the first/last
    /// computable trend values).
    pub trend: Vec<f64>,
    /// Seasonal component, one value per observation (repeats with period).
    pub seasonal: Vec<f64>,
    /// Residual = value − trend − seasonal.
    pub residual: Vec<f64>,
}

impl Decomposition {
    /// Direction of the trend: slope of a least-squares line through the
    /// trend component (per observation).
    pub fn trend_slope(&self) -> f64 {
        least_squares_slope(&self.trend)
    }
}

/// Least-squares slope of `y` against `0..n`.
pub(crate) fn least_squares_slope(y: &[f64]) -> f64 {
    let n = y.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mean_x = (nf - 1.0) / 2.0;
    let mean_y = y.iter().sum::<f64>() / nf;
    let mut cov = 0.0;
    let mut var = 0.0;
    for (i, &v) in y.iter().enumerate() {
        let dx = i as f64 - mean_x;
        cov += dx * (v - mean_y);
        var += dx * dx;
    }
    if var == 0.0 {
        0.0
    } else {
        cov / var
    }
}

/// Centered moving average with the 2×m correction for even windows.
/// Edges are filled by extending the first/last computable value.
pub(crate) fn centered_moving_average(values: &[f64], window: usize) -> Result<Vec<f64>> {
    if window == 0 {
        return Err(TsError::InvalidParameter("window must be ≥ 1".into()));
    }
    let n = values.len();
    if n < window {
        return Err(TsError::InsufficientData { required: window, available: n });
    }
    let mut out = vec![f64::NAN; n];
    if window % 2 == 1 {
        let half = window / 2;
        for i in half..n - half {
            let sum: f64 = values[i - half..=i + half].iter().sum();
            out[i] = sum / window as f64;
        }
    } else {
        // 2×m MA: average of two adjacent m-windows.
        let half = window / 2;
        if n < window + 1 {
            return Err(TsError::InsufficientData { required: window + 1, available: n });
        }
        for i in half..n - half {
            let a: f64 = values[i - half..i + half].iter().sum::<f64>() / window as f64;
            let b: f64 = values[i - half + 1..=i + half].iter().sum::<f64>() / window as f64;
            out[i] = (a + b) / 2.0;
        }
    }
    // extend edges
    let first = out.iter().copied().find(|v| !v.is_nan()).unwrap_or(0.0);
    let last = out.iter().rev().copied().find(|v| !v.is_nan()).unwrap_or(0.0);
    let mut seen_valid = false;
    for v in out.iter_mut() {
        if v.is_nan() {
            *v = if seen_valid { last } else { first };
        } else {
            seen_valid = true;
        }
    }
    Ok(out)
}

/// Additive decomposition with the given seasonal period. Requires at least
/// two full periods of data.
pub fn decompose(series: &TimeSeries, period: usize) -> Result<Decomposition> {
    if period < 2 {
        return Err(TsError::InvalidParameter("period must be ≥ 2".into()));
    }
    series.require(2 * period)?;
    let values = series.values();
    let trend = centered_moving_average(values, period)?;
    // per-phase means of the detrended series
    let mut phase_sum = vec![0.0f64; period];
    let mut phase_count = vec![0usize; period];
    for (i, (&v, &t)) in values.iter().zip(&trend).enumerate() {
        phase_sum[i % period] += v - t;
        phase_count[i % period] += 1;
    }
    let mut phase_mean: Vec<f64> = phase_sum
        .iter()
        .zip(&phase_count)
        .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect();
    // center so seasonal sums to zero over one period
    let grand = phase_mean.iter().sum::<f64>() / period as f64;
    for m in &mut phase_mean {
        *m -= grand;
    }
    let seasonal: Vec<f64> = (0..values.len()).map(|i| phase_mean[i % period]).collect();
    let residual: Vec<f64> =
        values.iter().zip(&trend).zip(&seasonal).map(|((&v, &t), &s)| v - t - s).collect();
    Ok(Decomposition { period, trend, seasonal, residual })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of variance explained by trend + seasonal (R², clamped ≥ 0).
    fn variance_explained(d: &Decomposition, series: &TimeSeries) -> f64 {
        let values = series.values();
        let mean = series.mean();
        let total: f64 = values.iter().map(|v| (v - mean) * (v - mean)).sum();
        if total == 0.0 {
            return 1.0;
        }
        let resid: f64 = d.residual.iter().map(|r| r * r).sum();
        (1.0 - resid / total).max(0.0)
    }

    /// Mean absolute seasonal amplitude.
    fn seasonal_strength(d: &Decomposition) -> f64 {
        d.seasonal.iter().map(|s| s.abs()).sum::<f64>() / d.seasonal.len() as f64
    }

    #[test]
    fn moving_average_odd_window() {
        let ma = centered_moving_average(&[1.0, 2.0, 3.0, 4.0, 5.0], 3).unwrap();
        assert_eq!(ma[1], 2.0);
        assert_eq!(ma[2], 3.0);
        assert_eq!(ma[3], 4.0);
        // edges extended
        assert_eq!(ma[0], 2.0);
        assert_eq!(ma[4], 4.0);
    }

    #[test]
    fn moving_average_even_window_uses_2xm() {
        let ma = centered_moving_average(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 4).unwrap();
        // at i=2: mean(1..5)/... a = mean(1,2,3,4)=2.5, b = mean(2,3,4,5)=3.5 → 3.0
        assert!((ma[2] - 3.0).abs() < 1e-12);
        assert!((ma[3] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn moving_average_validates() {
        assert!(centered_moving_average(&[1.0], 0).is_err());
        assert!(centered_moving_average(&[1.0, 2.0], 5).is_err());
    }

    #[test]
    fn decompose_recovers_noise_free_components() {
        let ts = TimeSeries::synthetic_seasonal(96, 12, 8.0, 0.2, 0.0, 1);
        let d = decompose(&ts, 12).unwrap();
        // residual should be tiny away from edges
        let interior = &d.residual[12..84];
        let max_resid = interior.iter().fold(0.0f64, |m, r| m.max(r.abs()));
        assert!(max_resid < 0.5, "max residual {max_resid}");
        // trend slope ≈ 0.2
        assert!((d.trend_slope() - 0.2).abs() < 0.05, "slope {}", d.trend_slope());
        // seasonal strength ≈ mean |8 sin| = 16/π ≈ 5.09
        assert!((seasonal_strength(&d) - 16.0 / std::f64::consts::PI).abs() < 0.6);
        // explains nearly everything
        assert!(variance_explained(&d, &ts) > 0.98);
    }

    #[test]
    fn seasonal_component_sums_to_zero_per_period() {
        let ts = TimeSeries::synthetic_seasonal(60, 6, 5.0, 0.0, 0.5, 3);
        let d = decompose(&ts, 6).unwrap();
        let sum: f64 = d.seasonal[..6].iter().sum();
        assert!(sum.abs() < 1e-9);
    }

    #[test]
    fn decompose_requires_two_periods() {
        let ts = TimeSeries::from_values(vec![1.0; 10]);
        assert!(decompose(&ts, 6).is_err());
        assert!(decompose(&ts, 1).is_err());
        assert!(decompose(&ts, 5).is_ok());
    }

    #[test]
    fn constant_series_fully_explained() {
        let ts = TimeSeries::from_values(vec![7.0; 30]);
        let d = decompose(&ts, 5).unwrap();
        assert_eq!(variance_explained(&d, &ts), 1.0);
        assert_eq!(seasonal_strength(&d), 0.0);
        assert_eq!(d.trend_slope(), 0.0);
    }

    #[test]
    fn slope_helper() {
        assert_eq!(least_squares_slope(&[]), 0.0);
        assert_eq!(least_squares_slope(&[1.0]), 0.0);
        assert!((least_squares_slope(&[0.0, 1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!((least_squares_slope(&[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
    }
}
