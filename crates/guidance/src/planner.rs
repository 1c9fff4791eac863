//! Speculative planning over alternative next actions.
//!
//! "Running alternative scenarios behind the scenes": the planner takes the
//! candidate next actions of a conversation state, *simulates* each with a
//! caller-provided scorer (in the full system: execute the candidate query /
//! computation and measure its soundness), optionally looks ahead one level
//! through each action's follow-ups, and returns a ranked recommendation
//! list. Experiment E8 scores these rankings with MRR/NDCG against the
//! action a simulated user actually wanted.

use crate::{GuidanceError, Result};

/// A candidate next action.
#[derive(Debug, Clone, PartialEq)]
pub struct Action {
    /// Stable identifier.
    pub id: String,
    /// Human-readable description offered to the user.
    pub description: String,
    /// Follow-up actions reachable after this one (one-level lookahead).
    pub follow_ups: Vec<Action>,
}

impl Action {
    /// Leaf action.
    pub fn leaf(id: impl Into<String>, description: impl Into<String>) -> Self {
        Self { id: id.into(), description: description.into(), follow_ups: Vec::new() }
    }

    /// Action with follow-ups.
    pub fn with_follow_ups(mut self, follow_ups: Vec<Action>) -> Self {
        self.follow_ups = follow_ups;
        self
    }
}

/// A scored recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The action.
    pub action: Action,
    /// Immediate score from the simulator.
    pub immediate: f64,
    /// Discounted best follow-up score (0 for leaves).
    pub lookahead: f64,
    /// Combined score used for ranking.
    pub total: f64,
}

/// The speculative planner.
#[derive(Debug, Clone, Copy)]
pub struct SpeculativePlanner {
    /// Discount applied to follow-up value.
    pub discount: f64,
}

impl Default for SpeculativePlanner {
    fn default() -> Self {
        Self { discount: 0.5 }
    }
}

impl SpeculativePlanner {
    /// Rank candidate actions by simulated value. `score` is the scenario
    /// simulator: it receives an action id and returns the expected
    /// soundness/utility of taking it (e.g. the consistency confidence of
    /// the query it would run).
    pub fn rank(
        &self,
        candidates: &[Action],
        score: &impl Fn(&Action) -> f64,
    ) -> Result<Vec<Recommendation>> {
        if candidates.is_empty() {
            return Err(GuidanceError::NoCandidates);
        }
        let mut out: Vec<Recommendation> = candidates
            .iter()
            .map(|a| {
                let immediate = score(a);
                let lookahead = a
                    .follow_ups
                    .iter()
                    .map(score)
                    .fold(0.0f64, f64::max)
                    * self.discount;
                Recommendation { action: a.clone(), immediate, lookahead, total: immediate + lookahead }
            })
            .collect();
        out.sort_by(|a, b| b.total.partial_cmp(&a.total).unwrap_or(std::cmp::Ordering::Equal));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates() -> Vec<Action> {
        vec![
            Action::leaf("drill_down", "Break the barometer down by canton"),
            Action::leaf("seasonality", "Analyze seasonality of the barometer")
                .with_follow_ups(vec![Action::leaf("forecast", "Forecast the next 12 months")]),
            Action::leaf("unrelated", "Show a random dataset"),
        ]
    }

    #[test]
    fn ranking_follows_scores() {
        let planner = SpeculativePlanner::default();
        let score = |a: &Action| match a.id.as_str() {
            "seasonality" => 0.9,
            "drill_down" => 0.7,
            "forecast" => 0.8,
            _ => 0.1,
        };
        let ranked = planner.rank(&candidates(), &score).unwrap();
        assert_eq!(ranked[0].action.id, "seasonality");
        assert_eq!(ranked[2].action.id, "unrelated");
        // lookahead contributed
        assert!((ranked[0].lookahead - 0.4).abs() < 1e-12);
        assert!((ranked[0].total - 1.3).abs() < 1e-12);
    }

    #[test]
    fn lookahead_can_flip_the_ranking() {
        let planner = SpeculativePlanner { discount: 1.0 };
        // drill_down scores higher immediately, but seasonality's follow-up
        // makes it the better plan
        let score = |a: &Action| match a.id.as_str() {
            "drill_down" => 0.8,
            "seasonality" => 0.5,
            "forecast" => 0.9,
            _ => 0.0,
        };
        let ranked = planner.rank(&candidates(), &score).unwrap();
        assert_eq!(ranked[0].action.id, "seasonality");
        // without lookahead the order flips
        let myopic = SpeculativePlanner { discount: 0.0 };
        let ranked = myopic.rank(&candidates(), &score).unwrap();
        assert_eq!(ranked[0].action.id, "drill_down");
    }

    #[test]
    fn empty_candidates_error() {
        let planner = SpeculativePlanner::default();
        assert!(planner.rank(&[], &|_| 0.0).is_err());
    }
}
