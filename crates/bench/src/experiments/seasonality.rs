//! **E10** — the Figure-1 turn-4 computation: seasonality-period detection
//! accuracy, confidence validity, and the sufficiency refusal.
//!
//! Expected shape: detection accuracy near 1.0 at low noise and degrades
//! gracefully; reported confidence tracks empirical accuracy (valid
//! probabilistic interpretation, the paper's Evaluation-paragraph demand);
//! series shorter than the sufficiency gate are refused, never guessed; the
//! claimed period beats the drift baseline in held-out forecasting.

use crate::forecast::{drift, mae, seasonal_naive};
use crate::{mean, row, Budget, Experiment, Table};
use cda_timeseries::seasonality::detect_seasonality;
use cda_timeseries::TimeSeries;

const TRIALS: usize = 60;

/// Run E10.
pub fn run(_: &Budget) -> Experiment {
    let mut e = Experiment::new(
        "E10",
        "seasonality insight: detection accuracy, confidence validity, refusal",
    );
    let mut detection = Table::new(
        format!("period detection, {TRIALS} trials per cell"),
        &["period", "noise/amp", "detect acc", "mean conf", "|conf-acc|", "refusals"],
    );
    for period in [4usize, 6, 12] {
        for noise_ratio in [0.1f64, 0.4, 0.8, 1.6] {
            let amplitude = 5.0;
            let noise = amplitude * noise_ratio;
            let mut correct = 0usize;
            let mut refused = 0usize;
            let mut confidences = Vec::new();
            for trial in 0..TRIALS {
                let ts = TimeSeries::synthetic_seasonal(
                    144,
                    period,
                    amplitude,
                    0.02,
                    noise,
                    (period * 1000 + trial) as u64,
                );
                match detect_seasonality(&ts, 24) {
                    Ok(r) => {
                        confidences.push(r.confidence);
                        if r.period == period {
                            correct += 1;
                        }
                    }
                    Err(_) => refused += 1,
                }
            }
            let answered = TRIALS - refused;
            let acc = if answered == 0 { 0.0 } else { correct as f64 / answered as f64 };
            let conf = mean(&confidences);
            row!(detection; period, noise_ratio, acc, conf, (conf - acc).abs(),
                format!("{refused}/{TRIALS}"));
        }
    }

    let mut sufficiency = Table::new(
        "sufficiency gate: series shorter than 24 observations are refused",
        &["length", "outcome"],
    );
    for len in [8usize, 16, 23, 24, 48] {
        let ts = TimeSeries::synthetic_seasonal(len, 6, 5.0, 0.0, 0.3, 99);
        let outcome = match detect_seasonality(&ts, 24) {
            Ok(r) => format!("answered (period {})", r.period),
            Err(e) => format!("refused: {e}"),
        };
        row!(sufficiency; len, outcome);
    }

    let mut forecast = Table::new(
        "verification-by-forecast (held-out 12 observations, 30 trials)",
        &["series", "seasonal-naive MAE", "drift MAE", "winner"],
    );
    for (label, period, amplitude) in [("seasonal p=6", 6usize, 5.0f64), ("trend only", 0, 0.0)] {
        let mut mae_seasonal = Vec::new();
        let mut mae_drift = Vec::new();
        for trial in 0..30u64 {
            let full = TimeSeries::synthetic_seasonal(132, period, amplitude, 0.1, 0.5, trial);
            let train = full.slice(0, 120);
            let actual = &full.values()[120..];
            let detected = detect_seasonality(&train, 24).map(|r| r.period).unwrap_or(12);
            let fs = seasonal_naive(&train, detected, 12).unwrap();
            let fd = drift(&train, 12).unwrap();
            mae_seasonal.push(mae(&fs, actual));
            mae_drift.push(mae(&fd, actual));
        }
        let (ms, md) = (mean(&mae_seasonal), mean(&mae_drift));
        row!(forecast; label, ms, md, if ms < md { "seasonal" } else { "drift" });
    }
    e.tables = vec![detection, sufficiency, forecast];
    e
}
