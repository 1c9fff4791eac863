//! Active clarification by expected information gain.
//!
//! The user's analytical goal is latent. The system maintains a belief (a
//! distribution over candidate goals), and each candidate clarification
//! question partitions the goals by its possible answers. The question with
//! the highest **expected information gain** — prior entropy minus expected
//! posterior entropy — is asked first, which is the formal version of the
//! paper's "actively probe the next question to ask with the goal of
//! improving the answer certainty" (its active-search citation \[29\]).

use crate::{GuidanceError, Result};
use std::collections::HashMap;

/// A belief over candidate user goals.
#[derive(Debug, Clone, PartialEq)]
pub struct GoalBelief {
    /// (goal id, probability), kept normalized.
    probs: Vec<(String, f64)>,
}

impl GoalBelief {
    /// Uniform belief over goals.
    pub fn uniform(goals: &[&str]) -> Result<Self> {
        if goals.is_empty() {
            return Err(GuidanceError::NoCandidates);
        }
        let p = 1.0 / goals.len() as f64;
        Ok(Self { probs: goals.iter().map(|g| ((*g).to_owned(), p)).collect() })
    }

    /// Belief with explicit weights (normalized; non-positive total is an
    /// error).
    pub fn weighted(goals: Vec<(String, f64)>) -> Result<Self> {
        let total: f64 = goals.iter().map(|(_, w)| w.max(0.0)).sum();
        if goals.is_empty() || total <= 0.0 {
            return Err(GuidanceError::NoCandidates);
        }
        Ok(Self {
            probs: goals.into_iter().map(|(g, w)| (g, w.max(0.0) / total)).collect(),
        })
    }

    /// Probability of a goal (0 if unknown).
    pub fn prob(&self, goal: &str) -> f64 {
        self.probs.iter().find(|(g, _)| g == goal).map_or(0.0, |(_, p)| *p)
    }

    /// Shannon entropy (bits).
    pub fn entropy(&self) -> f64 {
        -self
            .probs
            .iter()
            .filter(|(_, p)| *p > 0.0)
            .map(|(_, p)| p * p.log2())
            .sum::<f64>()
    }

    /// The goals (with probabilities), most likely first.
    pub fn ranked(&self) -> Vec<(String, f64)> {
        let mut out = self.probs.clone();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        out
    }

    /// The maximum-probability goal.
    pub(crate) fn map_goal(&self) -> &str {
        self.probs
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or("", |top| top.0.as_str())
    }

    /// Condition on "the answer to `question` was `answer`": goals whose
    /// mapped answer differs are zeroed; the rest renormalized.
    pub fn condition(&self, question: &ClarificationQuestion, answer: &str) -> Result<GoalBelief> {
        let kept: Vec<(String, f64)> = self
            .probs
            .iter()
            .filter(|(g, _)| question.answer_for(g) == Some(answer))
            .cloned()
            .collect();
        GoalBelief::weighted(kept).map_err(|_| GuidanceError::UnknownGoal(answer.to_owned()))
    }
}

/// A clarification question: maps each goal to the answer the user would
/// give if that goal were theirs.
#[derive(Debug, Clone, PartialEq)]
pub struct ClarificationQuestion {
    /// The question text.
    pub text: String,
    /// goal id → answer label.
    answers: HashMap<String, String>,
}

impl ClarificationQuestion {
    /// Build from `(goal, answer)` pairs.
    pub fn new(text: impl Into<String>, answers: Vec<(&str, &str)>) -> Self {
        Self {
            text: text.into(),
            answers: answers
                .into_iter()
                .map(|(g, a)| (g.to_owned(), a.to_owned()))
                .collect(),
        }
    }

    /// The answer a user with `goal` would give.
    pub(crate) fn answer_for(&self, goal: &str) -> Option<&str> {
        self.answers.get(goal).map(String::as_str)
    }

    /// Expected information gain of asking this question under `belief`.
    pub(crate) fn information_gain(&self, belief: &GoalBelief) -> f64 {
        // P(answer) = Σ_goals with that answer P(goal)
        let mut by_answer: HashMap<&str, f64> = HashMap::new();
        for (goal, p) in &belief.probs {
            if let Some(a) = self.answer_for(goal) {
                *by_answer.entry(a).or_insert(0.0) += p;
            }
        }
        let h_prior = belief.entropy();
        let mut expected_posterior = 0.0;
        for (answer, p_answer) in &by_answer {
            if *p_answer <= 0.0 {
                continue;
            }
            if let Ok(post) = belief.condition(self, answer) {
                expected_posterior += p_answer * post.entropy();
            }
        }
        (h_prior - expected_posterior).max(0.0)
    }
}

/// Choose the question with the highest expected information gain.
pub fn best_question<'q>(
    belief: &GoalBelief,
    questions: &'q [ClarificationQuestion],
) -> Result<(&'q ClarificationQuestion, f64)> {
    questions
        .iter()
        .map(|q| (q, q.information_gain(belief)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .ok_or(GuidanceError::NoCandidates)
}

/// Simulate a clarification dialogue: a user with `true_goal` answers EIG-
/// selected questions until the belief concentrates above `confidence` on a
/// single goal or questions run out. Returns (turns used, final MAP goal).
/// With `eig_policy = false`, questions are asked in the given (arbitrary)
/// order — the passive baseline of experiment E8.
pub fn simulate_dialogue(
    belief: &GoalBelief,
    questions: &[ClarificationQuestion],
    true_goal: &str,
    confidence: f64,
    eig_policy: bool,
) -> (usize, String) {
    let mut belief = belief.clone();
    let mut remaining: Vec<&ClarificationQuestion> = questions.iter().collect();
    let mut turns = 0usize;
    while belief.prob(belief.map_goal()) < confidence && !remaining.is_empty() {
        let idx = if eig_policy {
            let mut best = 0usize;
            let mut best_gain = f64::NEG_INFINITY;
            for (i, q) in remaining.iter().enumerate() {
                let g = q.information_gain(&belief);
                if g > best_gain {
                    best_gain = g;
                    best = i;
                }
            }
            best
        } else {
            0
        };
        let q = remaining.remove(idx);
        turns += 1;
        if let Some(answer) = q.answer_for(true_goal) {
            if let Ok(next) = belief.condition(q, answer) {
                belief = next;
            }
        }
    }
    (turns, belief.map_goal().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn goals() -> Vec<&'static str> {
        vec!["employment_stats", "barometer_trend", "wage_analysis", "unemployment_rate"]
    }

    fn questions() -> Vec<ClarificationQuestion> {
        vec![
            // splits 2/2 — one bit
            ClarificationQuestion::new(
                "Are you interested in levels or trends?",
                vec![
                    ("employment_stats", "levels"),
                    ("wage_analysis", "levels"),
                    ("barometer_trend", "trends"),
                    ("unemployment_rate", "trends"),
                ],
            ),
            // splits 1/3 — less informative under uniform prior
            ClarificationQuestion::new(
                "Is this about wages specifically?",
                vec![
                    ("employment_stats", "no"),
                    ("wage_analysis", "yes"),
                    ("barometer_trend", "no"),
                    ("unemployment_rate", "no"),
                ],
            ),
            // second binary split, orthogonal to the first
            ClarificationQuestion::new(
                "Monthly indicator or yearly statistics?",
                vec![
                    ("employment_stats", "yearly"),
                    ("wage_analysis", "yearly"),
                    ("barometer_trend", "monthly"),
                    ("unemployment_rate", "monthly"),
                ],
            ),
            // distinguishes within the trends branch
            ClarificationQuestion::new(
                "Survey-based or registry-based?",
                vec![
                    ("employment_stats", "registry"),
                    ("wage_analysis", "survey"),
                    ("barometer_trend", "survey"),
                    ("unemployment_rate", "registry"),
                ],
            ),
        ]
    }

    #[test]
    fn uniform_entropy() {
        let b = GoalBelief::uniform(&goals()).unwrap();
        assert!((b.entropy() - 2.0).abs() < 1e-12);
        assert!(GoalBelief::uniform(&[]).is_err());
    }

    #[test]
    fn balanced_question_gains_one_bit() {
        let b = GoalBelief::uniform(&goals()).unwrap();
        let qs = questions();
        let gain = qs[0].information_gain(&b);
        assert!((gain - 1.0).abs() < 1e-9, "gain {gain}");
        // the 1/3 split gains less
        assert!(qs[1].information_gain(&b) < gain);
    }

    #[test]
    fn best_question_is_the_balanced_one() {
        let b = GoalBelief::uniform(&goals()).unwrap();
        let qs = questions();
        let (q, gain) = best_question(&b, &qs).unwrap();
        // three of the questions are perfect one-bit splits; any may win
        assert!(!q.text.contains("wages specifically"), "1/3 split must not win: {}", q.text);
        assert!((gain - 1.0).abs() < 1e-9);
        assert!(best_question(&b, &[]).is_err());
    }

    #[test]
    fn conditioning_renormalizes() {
        let b = GoalBelief::uniform(&goals()).unwrap();
        let qs = questions();
        let post = b.condition(&qs[0], "trends").unwrap();
        assert_eq!(post.prob("barometer_trend"), 0.5);
        assert_eq!(post.prob("employment_stats"), 0.0);
        assert!((post.entropy() - 1.0).abs() < 1e-12);
        // impossible answer is an error
        assert!(b.condition(&qs[0], "purple").is_err());
    }

    #[test]
    fn eig_dialogue_identifies_goal_in_two_turns() {
        let b = GoalBelief::uniform(&goals()).unwrap();
        let qs = questions();
        for goal in goals() {
            let (turns, found) = simulate_dialogue(&b, &qs, goal, 0.95, true);
            assert_eq!(found, goal);
            assert!(turns <= 2, "goal {goal} took {turns} turns");
        }
    }

    #[test]
    fn eig_policy_is_no_slower_than_fixed_order() {
        let b = GoalBelief::uniform(&goals()).unwrap();
        let qs = questions();
        let mut eig_total = 0usize;
        let mut fixed_total = 0usize;
        for goal in goals() {
            eig_total += simulate_dialogue(&b, &qs, goal, 0.95, true).0;
            fixed_total += simulate_dialogue(&b, &qs, goal, 0.95, false).0;
        }
        assert!(eig_total <= fixed_total, "eig {eig_total} vs fixed {fixed_total}");
    }

    #[test]
    fn weighted_belief_and_map() {
        let b = GoalBelief::weighted(vec![
            ("a".into(), 3.0),
            ("b".into(), 1.0),
        ])
        .unwrap();
        assert_eq!(b.prob("a"), 0.75);
        assert_eq!(b.map_goal(), "a");
        assert_eq!(b.ranked()[0].0, "a");
        assert!(GoalBelief::weighted(vec![("a".into(), 0.0)]).is_err());
    }
}
