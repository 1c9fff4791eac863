//! Data rotting (Kersten \[26\]): freshness tracking and demotion of
//! outdated data.
//!
//! The paper (Sec. 3.1, data layer ⓓ): "Central to that is an effective
//! mechanism to cope with *data rotting*, i.e., the ability to identify and
//! discard parts of the data that are outdated or obsolete." This module
//! tracks per-dataset freshness against an expected update cadence, scores
//! staleness in `[0, 1]`, lets discovery demote rotten datasets, and renders
//! the user-facing caveat P4 attaches to answers computed from stale data.

use std::fmt;

/// The expected update cadence of a dataset, in abstract ticks (the demo
/// uses days).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateCadence {
    /// New data expected roughly every `ticks`.
    Every(u64),
    /// Static reference data that does not rot.
    Static,
}

/// Freshness metadata of one dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Freshness {
    /// Tick of the last observed update.
    pub last_updated: u64,
    /// Expected cadence.
    pub cadence: UpdateCadence,
}

impl Freshness {
    /// A static (never-rotting) dataset.
    pub fn static_data() -> Self {
        Self { last_updated: 0, cadence: UpdateCadence::Static }
    }

    /// A dataset last updated at `last_updated`, expected to refresh every
    /// `every` ticks.
    pub fn periodic(last_updated: u64, every: u64) -> Self {
        Self { last_updated, cadence: UpdateCadence::Every(every.max(1)) }
    }

    /// Staleness at time `now` in `[0, 1]`: 0 while within one cadence
    /// period, then saturating linearly so that a dataset `k` periods
    /// overdue scores `1 − 1/k` (→ 1).
    pub(crate) fn staleness(&self, now: u64) -> f64 {
        match self.cadence {
            UpdateCadence::Static => 0.0,
            UpdateCadence::Every(every) => {
                let elapsed = now.saturating_sub(self.last_updated);
                if elapsed <= every {
                    0.0
                } else {
                    let overdue_periods = elapsed as f64 / every as f64;
                    (1.0 - 1.0 / overdue_periods).clamp(0.0, 1.0)
                }
            }
        }
    }

    /// Whether the dataset should be considered rotten at `now` (staleness
    /// above `threshold`).
    pub(crate) fn is_rotten(&self, now: u64, threshold: f64) -> bool {
        self.staleness(now) > threshold
    }

    /// Render the user-facing caveat, or `None` when fresh.
    pub fn caveat(&self, now: u64) -> Option<String> {
        let s = self.staleness(now);
        if s == 0.0 {
            return None;
        }
        let UpdateCadence::Every(every) = self.cadence else { return None };
        let overdue = now.saturating_sub(self.last_updated) / every;
        Some(format!(
            "Caution: this dataset is {overdue} update period(s) overdue \
             (staleness {s:.2}); results may not reflect the current state."
        ))
    }
}

/// Discovery-score demotion: multiply a similarity score by `1 − staleness·w`.
pub(crate) fn demote_score(score: f64, staleness: f64, weight: f64) -> f64 {
    (score * (1.0 - staleness * weight.clamp(0.0, 1.0))).max(0.0)
}

impl fmt::Display for Freshness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cadence {
            UpdateCadence::Static => f.write_str("static"),
            UpdateCadence::Every(e) => write!(f, "updated@{} every {e}", self.last_updated),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_data_never_rots() {
        let fr = Freshness::static_data();
        assert_eq!(fr.staleness(1_000_000), 0.0);
        assert!(!fr.is_rotten(1_000_000, 0.1));
        assert_eq!(fr.caveat(1_000_000), None);
        assert_eq!(fr.to_string(), "static");
    }

    #[test]
    fn staleness_grows_after_cadence() {
        let fr = Freshness::periodic(100, 30);
        assert_eq!(fr.staleness(100), 0.0);
        assert_eq!(fr.staleness(130), 0.0); // exactly one period: still fine
        let s2 = fr.staleness(160); // two periods
        let s4 = fr.staleness(220); // four periods
        assert!(s2 > 0.0 && s2 < s4 && s4 < 1.0);
        assert!((s2 - 0.5).abs() < 1e-12);
        assert!((s4 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn rot_threshold() {
        let fr = Freshness::periodic(0, 10);
        assert!(!fr.is_rotten(10, 0.4));
        assert!(fr.is_rotten(50, 0.4)); // 5 periods → 0.8
    }

    #[test]
    fn caveat_names_overdue_periods() {
        let fr = Freshness::periodic(0, 10);
        let c = fr.caveat(35).unwrap();
        assert!(c.contains("3 update period(s) overdue"), "{c}");
        assert!(fr.caveat(5).is_none());
    }

    #[test]
    fn score_demotion() {
        assert_eq!(demote_score(0.8, 0.0, 0.5), 0.8);
        assert!((demote_score(0.8, 0.5, 0.5) - 0.6).abs() < 1e-12);
        assert_eq!(demote_score(0.8, 1.0, 1.0), 0.0);
        // weight clamped
        assert!(demote_score(0.8, 1.0, 5.0) >= 0.0);
    }

    #[test]
    fn staleness_is_monotone_in_time() {
        let fr = Freshness::periodic(50, 7);
        let mut prev = 0.0;
        for now in 50..300 {
            let s = fr.staleness(now);
            assert!(s >= prev, "staleness decreased at {now}: {prev} -> {s}");
            assert!((0.0..=1.0).contains(&s));
            prev = s;
        }
    }

    #[test]
    fn clock_before_last_update_is_fresh() {
        let fr = Freshness::periodic(100, 10);
        assert_eq!(fr.staleness(50), 0.0);
    }
}
