//! Baseline forecasters: seasonal-naive and drift.
//!
//! These are the sanity baselines for the insight-quality experiment (E10):
//! a CDA system that claims a seasonal period should beat the non-seasonal
//! drift baseline when forecasting held-out data — a cheap, quantitative
//! *verification* of the claimed insight (P4 verification-by-execution).

use cda_timeseries::{Result, TimeSeries, TsError};

/// Seasonal-naive forecast: `ŷ[t] = y[t − period]` continued for `horizon`.
pub fn seasonal_naive(series: &TimeSeries, period: usize, horizon: usize) -> Result<Vec<f64>> {
    if period == 0 {
        return Err(TsError::InvalidParameter("period must be ≥ 1".into()));
    }
    series.require(period)?;
    let values = series.values();
    let n = values.len();
    Ok((0..horizon).map(|h| values[n - period + (h % period)]).collect())
}

/// Drift forecast: continue the line through the first and last observation.
pub fn drift(series: &TimeSeries, horizon: usize) -> Result<Vec<f64>> {
    series.require(2)?;
    let values = series.values();
    let n = values.len();
    let slope = (values[n - 1] - values[0]) / (n - 1) as f64;
    Ok((1..=horizon).map(|h| values[n - 1] + slope * h as f64).collect())
}

/// Mean absolute error between forecasts and actuals.
pub fn mae(forecast: &[f64], actual: &[f64]) -> f64 {
    let n = forecast.len().min(actual.len());
    if n == 0 {
        return 0.0;
    }
    forecast.iter().zip(actual).take(n).map(|(f, a)| (f - a).abs()).sum::<f64>() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seasonal_naive_repeats_last_period() {
        let ts = TimeSeries::from_values(vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0]);
        let f = seasonal_naive(&ts, 3, 5).unwrap();
        assert_eq!(f, vec![10.0, 20.0, 30.0, 10.0, 20.0]);
    }

    #[test]
    fn seasonal_naive_validates() {
        let ts = TimeSeries::from_values(vec![1.0, 2.0]);
        assert!(seasonal_naive(&ts, 0, 3).is_err());
        assert!(seasonal_naive(&ts, 5, 3).is_err());
    }

    #[test]
    fn drift_extends_line() {
        let ts = TimeSeries::from_values(vec![0.0, 1.0, 2.0, 3.0]);
        let f = drift(&ts, 3).unwrap();
        assert_eq!(f, vec![4.0, 5.0, 6.0]);
        assert!(drift(&TimeSeries::from_values(vec![1.0]), 2).is_err());
    }

    #[test]
    fn error_metrics() {
        assert_eq!(mae(&[1.0, 2.0], &[2.0, 4.0]), 1.5);
        assert_eq!(mae(&[], &[]), 0.0);
    }

    #[test]
    fn seasonal_naive_beats_drift_on_seasonal_data() {
        let full = TimeSeries::synthetic_seasonal(132, 12, 10.0, 0.0, 0.5, 4);
        let train = full.slice(0, 120);
        let actual = &full.values()[120..];
        let f_seasonal = seasonal_naive(&train, 12, 12).unwrap();
        let f_drift = drift(&train, 12).unwrap();
        assert!(
            mae(&f_seasonal, actual) < mae(&f_drift, actual),
            "seasonal {} vs drift {}",
            mae(&f_seasonal, actual),
            mae(&f_drift, actual)
        );
    }
}
