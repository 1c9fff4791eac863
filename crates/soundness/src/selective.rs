//! Selective answering (abstention) and risk–coverage analysis.
//!
//! The paper: the system "should be able to refrain from producing answers
//! when unable to produce any answer with sufficient certainty". A policy
//! that answers only above a confidence threshold trades coverage for risk;
//! the risk–coverage curve shows, for every threshold, what fraction of
//! questions is answered (coverage) and how often those answers are wrong
//! (risk). Experiment E6 sweeps this trade-off for both confidence signals.

/// One point on the risk–coverage curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskCoveragePoint {
    /// The threshold generating this point.
    pub threshold: f64,
    /// Fraction of questions answered.
    pub coverage: f64,
    /// Error rate among answered questions (0 when nothing is answered).
    pub risk: f64,
}

/// Sweep thresholds over the observed confidences and compute the curve.
/// Thresholds are the distinct confidence values plus 0 (answer everything).
pub fn risk_coverage_curve(confidences: &[f64], correct: &[bool]) -> Vec<RiskCoveragePoint> {
    assert_eq!(confidences.len(), correct.len());
    let n = confidences.len();
    if n == 0 {
        return Vec::new();
    }
    let mut thresholds: Vec<f64> = confidences.to_vec();
    thresholds.push(0.0);
    thresholds.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    thresholds.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    thresholds
        .into_iter()
        .map(|t| {
            let answered: Vec<bool> = confidences
                .iter()
                .zip(correct)
                .filter(|(&c, _)| c >= t)
                .map(|(_, &ok)| ok)
                .collect();
            let coverage = answered.len() as f64 / n as f64;
            let risk = if answered.is_empty() {
                0.0
            } else {
                answered.iter().filter(|&&ok| !ok).count() as f64 / answered.len() as f64
            };
            RiskCoveragePoint { threshold: t, coverage, risk }
        })
        .collect()
}

/// The highest-coverage threshold whose risk stays at or below
/// `target_risk`, or `None` if even full abstention cannot meet it (only
/// when the curve is empty).
pub fn threshold_for_risk(confidences: &[f64], correct: &[bool], target_risk: f64) -> Option<f64> {
    let curve = risk_coverage_curve(confidences, correct);
    curve
        .into_iter()
        .filter(|p| p.risk <= target_risk)
        .max_by(|a, b| {
            a.coverage
                .partial_cmp(&b.coverage)
                .unwrap_or(std::cmp::Ordering::Equal)
                // prefer the lower threshold at equal coverage
                .then(b.threshold.partial_cmp(&a.threshold).unwrap_or(std::cmp::Ordering::Equal))
        })
        .map(|p| p.threshold)
}

/// Area under the risk–coverage curve (lower is better): answer items in
/// descending-confidence order and average the running risk over all
/// coverage levels `1/n … 1` (the standard sample-wise AURC). Ties in
/// confidence are broken pessimistically (incorrect first), so an
/// uninformative constant signal scores its full base risk.
pub fn aurc(confidences: &[f64], correct: &[bool]) -> f64 {
    assert_eq!(confidences.len(), correct.len());
    let n = confidences.len();
    if n == 0 {
        return 0.0;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        confidences[b]
            .partial_cmp(&confidences[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(correct[a].cmp(&correct[b])) // incorrect (false) first on ties
    });
    let mut errors = 0usize;
    let mut area = 0.0;
    for (i, &idx) in order.iter().enumerate() {
        if !correct[idx] {
            errors += 1;
        }
        area += errors as f64 / (i + 1) as f64;
    }
    area / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_endpoints() {
        let conf = vec![0.9, 0.8, 0.3, 0.2];
        let correct = vec![true, true, false, true];
        let curve = risk_coverage_curve(&conf, &correct);
        // threshold 0 answers everything: coverage 1, risk 1/4
        let full = curve.iter().find(|p| p.threshold == 0.0).unwrap();
        assert_eq!(full.coverage, 1.0);
        assert_eq!(full.risk, 0.25);
        // highest threshold answers only the most confident (correct) one
        let top = curve.iter().find(|p| (p.threshold - 0.9).abs() < 1e-12).unwrap();
        assert_eq!(top.coverage, 0.25);
        assert_eq!(top.risk, 0.0);
    }

    #[test]
    fn informative_confidence_allows_zero_risk_at_partial_coverage() {
        // confidences perfectly separate correct from incorrect
        let conf = vec![0.9, 0.85, 0.2, 0.1];
        let correct = vec![true, true, false, false];
        let t = threshold_for_risk(&conf, &correct, 0.0).unwrap();
        assert!(t > 0.2 && t <= 0.85);
        let curve = risk_coverage_curve(&conf, &correct);
        let pt = curve.iter().find(|p| (p.threshold - t).abs() < 1e-12).unwrap();
        assert_eq!(pt.coverage, 0.5);
        assert_eq!(pt.risk, 0.0);
    }

    #[test]
    fn useless_confidence_cannot_reduce_risk() {
        // constant confidence: any threshold answers all or nothing
        let conf = vec![0.5; 6];
        let correct = vec![true, false, true, false, true, false];
        let t = threshold_for_risk(&conf, &correct, 0.1);
        // only the all-abstain point (threshold above 0.5) would meet 10% risk,
        // but thresholds are drawn from observed confidences ∪ {0}, so the
        // best achievable is... the 0.5 threshold with risk 0.5 → no solution
        // except nothing < … hence None or a point with coverage 0? All
        // observed thresholds answer everything (risk 0.5) → None.
        assert_eq!(t, None);
    }

    #[test]
    fn aurc_prefers_informative_signal() {
        let correct = vec![true, true, false, false];
        let informative = vec![0.9, 0.8, 0.2, 0.1];
        let useless = vec![0.5, 0.5, 0.5, 0.5];
        assert!(aurc(&informative, &correct) < aurc(&useless, &correct));
    }

    #[test]
    fn empty_inputs() {
        assert!(risk_coverage_curve(&[], &[]).is_empty());
        assert_eq!(aurc(&[], &[]), 0.0);
        assert_eq!(threshold_for_risk(&[], &[], 0.5), None);
    }
}
