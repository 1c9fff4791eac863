//! Calibration metrics: ECE, Brier score, reliability bins, AUROC.
//!
//! The paper's Evaluation paragraph asks for "the probabilistic
//! interpretation of any correctness estimation" to be measured; these are
//! the standard instruments. Inputs are parallel vectors of predicted
//! confidences in `[0, 1]` and boolean correctness outcomes.

/// The confidence and correctness vectors differ in length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LengthMismatch;

type Result<T> = std::result::Result<T, LengthMismatch>;

/// One bin of a reliability diagram.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReliabilityBin {
    /// Inclusive lower edge of the confidence bin.
    pub lower: f64,
    /// Exclusive upper edge (inclusive for the last bin).
    pub upper: f64,
    /// Number of predictions in the bin.
    pub count: usize,
    /// Mean predicted confidence in the bin.
    pub mean_confidence: f64,
    /// Empirical accuracy in the bin.
    pub accuracy: f64,
}

/// Build an equal-width reliability diagram with `bins` bins.
pub(crate) fn reliability_diagram(
    confidences: &[f64],
    correct: &[bool],
    bins: usize,
) -> Result<Vec<ReliabilityBin>> {
    if confidences.len() != correct.len() {
        return Err(LengthMismatch);
    }
    let bins = bins.max(1);
    let mut out: Vec<ReliabilityBin> = (0..bins)
        .map(|b| ReliabilityBin {
            lower: b as f64 / bins as f64,
            upper: (b + 1) as f64 / bins as f64,
            count: 0,
            mean_confidence: 0.0,
            accuracy: 0.0,
        })
        .collect();
    for (&c, &ok) in confidences.iter().zip(correct) {
        let b = ((c * bins as f64) as usize).min(bins - 1);
        let bin = &mut out[b];
        bin.count += 1;
        bin.mean_confidence += c;
        bin.accuracy += f64::from(u8::from(ok));
    }
    for bin in &mut out {
        if bin.count > 0 {
            bin.mean_confidence /= bin.count as f64;
            bin.accuracy /= bin.count as f64;
        }
    }
    Ok(out)
}

/// Expected calibration error over `bins` equal-width bins:
/// `Σ (n_b / n) · |accuracy_b − confidence_b|`.
pub fn expected_calibration_error(
    confidences: &[f64],
    correct: &[bool],
    bins: usize,
) -> Result<f64> {
    if confidences.is_empty() {
        return Ok(0.0);
    }
    let diagram = reliability_diagram(confidences, correct, bins)?;
    let n = confidences.len() as f64;
    Ok(diagram
        .iter()
        .filter(|b| b.count > 0)
        .map(|b| (b.count as f64 / n) * (b.accuracy - b.mean_confidence).abs())
        .sum())
}

/// Brier score: mean squared error of confidence against the 0/1 outcome.
pub fn brier_score(confidences: &[f64], correct: &[bool]) -> Result<f64> {
    if confidences.len() != correct.len() {
        return Err(LengthMismatch);
    }
    if confidences.is_empty() {
        return Ok(0.0);
    }
    Ok(confidences
        .iter()
        .zip(correct)
        .map(|(&c, &ok)| {
            let y = f64::from(u8::from(ok));
            (c - y) * (c - y)
        })
        .sum::<f64>()
        / confidences.len() as f64)
}

/// Area under the ROC curve of "confidence predicts correctness"
/// (Mann–Whitney formulation; ties count half). Returns 0.5 when one class
/// is absent.
pub fn auroc(confidences: &[f64], correct: &[bool]) -> Result<f64> {
    if confidences.len() != correct.len() {
        return Err(LengthMismatch);
    }
    let pos: Vec<f64> = confidences
        .iter()
        .zip(correct)
        .filter(|(_, &ok)| ok)
        .map(|(&c, _)| c)
        .collect();
    let neg: Vec<f64> = confidences
        .iter()
        .zip(correct)
        .filter(|(_, &ok)| !ok)
        .map(|(&c, _)| c)
        .collect();
    if pos.is_empty() || neg.is_empty() {
        return Ok(0.5);
    }
    let mut wins = 0.0f64;
    for &p in &pos {
        for &n in &neg {
            if p > n {
                wins += 1.0;
            } else if (p - n).abs() < 1e-12 {
                wins += 0.5;
            }
        }
    }
    Ok(wins / (pos.len() * neg.len()) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_calibrated_has_zero_ece() {
        // 10 predictions at 0.8, 8 correct
        let conf = vec![0.8; 10];
        let correct = vec![true, true, true, true, true, true, true, true, false, false];
        let ece = expected_calibration_error(&conf, &correct, 10).unwrap();
        assert!(ece < 1e-9, "ece {ece}");
    }

    #[test]
    fn overconfident_predictions_have_high_ece() {
        let conf = vec![0.95; 10];
        let correct = vec![true, false, false, false, false, false, false, false, false, false];
        let ece = expected_calibration_error(&conf, &correct, 10).unwrap();
        assert!((ece - 0.85).abs() < 1e-9, "ece {ece}");
    }

    #[test]
    fn brier_extremes() {
        assert_eq!(brier_score(&[1.0, 0.0], &[true, false]).unwrap(), 0.0);
        assert_eq!(brier_score(&[1.0, 0.0], &[false, true]).unwrap(), 1.0);
        assert_eq!(brier_score(&[], &[]).unwrap(), 0.0);
    }

    #[test]
    fn auroc_separable_and_random() {
        // perfectly separable
        let conf = vec![0.9, 0.8, 0.2, 0.1];
        let correct = vec![true, true, false, false];
        assert_eq!(auroc(&conf, &correct).unwrap(), 1.0);
        // anti-separable
        let correct = vec![false, false, true, true];
        assert_eq!(auroc(&conf, &correct).unwrap(), 0.0);
        // one-class degenerate
        assert_eq!(auroc(&[0.5, 0.6], &[true, true]).unwrap(), 0.5);
        // ties
        assert_eq!(auroc(&[0.5, 0.5], &[true, false]).unwrap(), 0.5);
    }

    #[test]
    fn reliability_diagram_bins_correctly() {
        let conf = vec![0.05, 0.15, 0.95, 1.0];
        let correct = vec![false, false, true, true];
        let bins = reliability_diagram(&conf, &correct, 10).unwrap();
        assert_eq!(bins.len(), 10);
        assert_eq!(bins[0].count, 1);
        assert_eq!(bins[1].count, 1);
        assert_eq!(bins[9].count, 2); // 0.95 and the edge value 1.0
        assert_eq!(bins[9].accuracy, 1.0);
    }

    #[test]
    fn length_mismatch_rejected() {
        assert!(expected_calibration_error(&[0.5], &[], 5).is_err());
        assert!(brier_score(&[0.5], &[]).is_err());
        assert!(auroc(&[0.5], &[]).is_err());
        assert!(reliability_diagram(&[0.5], &[], 5).is_err());
    }
}
