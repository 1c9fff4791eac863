//! Reliability configuration and the composite reliability score.
//!
//! Each of the five properties is an explicit mechanism that can be disabled
//! (experiment F2 reproduces Figure 2 by ablation: turning one property off
//! measurably degrades the property it *enables/ensures/informs/enhances*).

/// Which reliability mechanisms are active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdaConfig {
    /// P1: use the guarantee-carrying vector index for discovery (off =
    /// linear scan) and report retrieval guarantees.
    pub efficiency: bool,
    /// P2: ground terminology through the vocabulary/KG before retrieval.
    pub grounding: bool,
    /// P3: assemble provenance explanations and run losslessness checks.
    pub explainability: bool,
    /// P4: consistency-based UQ, verification, and abstention.
    pub soundness: bool,
    /// P5: clarification questions and next-step suggestions.
    pub guidance: bool,
    /// Abstention threshold used when soundness is on.
    pub answer_threshold: f64,
    /// Samples drawn for consistency UQ.
    pub uq_samples: usize,
    /// Simulated-LM temperature for NL2SQL.
    pub temperature: f64,
    /// Minimum observations required for time-series insights.
    pub min_observations: usize,
    /// Minimum discovery relevance (cosine) below which the system reports
    /// an empty result instead of irrelevant datasets (P1's "return an
    /// empty set" requirement).
    pub discovery_threshold: f64,
    /// Row budget for the static gate's cost pass: candidates whose
    /// estimated result size exceeds it are flagged (A013) and their
    /// confidence demoted in proportion to the overshoot.
    pub row_budget: u64,
    /// Analyzer-guided repair rounds per gate-rejected candidate (P4→P5:
    /// diagnoses feed back into generation). 0 disables repair and restores
    /// pure skip-and-resample gating.
    pub repair_rounds: usize,
    /// P1: reuse executed answers across turns whose canonical plans share
    /// a fingerprint (`cda_analyzer::equiv`) instead of re-executing. Hits
    /// are byte-identical to fresh execution and annotated `[cache]`; off
    /// restores unconditional execution bit-for-bit.
    pub semantic_cache: bool,
    /// Run SQL on the vectorized morsel-parallel engine
    /// (`cda_sql::physical`) instead of the row-at-a-time reference
    /// interpreter. Results are byte-identical either way (differentially
    /// certified, E17); off restores the row path bit-for-bit. This is a
    /// performance switch, not a reliability property, so `none()` keeps it
    /// on: dialogue, UQ sampling, and the semantic cache all ride it.
    pub vectorized_exec: bool,
    /// Sanitizer-style runtime cross-checking of the abstract interpreter
    /// (`cda_analyzer::absint`): an analysis turn's executions — the
    /// consistency-UQ candidates, whose winner is the answer — run under
    /// `cda_sql::exec::execute_plan_checked` with the plan's static
    /// [`DomainTree`](cda_dataframe::DomainTree), so any materialized value
    /// outside its per-node abstract domain aborts the turn with a domain
    /// violation instead of silently answering from an unsound analysis.
    /// Defaults to on in debug builds (and CI) and off in release builds —
    /// it is a cross-check on the analyzer, not a user-facing property, and
    /// a clean release run must stay byte-identical with it off.
    pub absint_check: bool,
    /// Runtime cross-checking of the static effect analysis
    /// (`cda_analyzer::effects`): DML applied through the mutation gate
    /// (`crate::mutation`) executes under a `cda_sql::WriteGuard` built from
    /// the statement's static write set, so a write that escapes it aborts
    /// loudly instead of silently corrupting state the invalidation logic
    /// believes untouched. Like [`absint_check`](Self::absint_check) it is a
    /// cross-check on the analyzer, not a user-facing property: on in debug
    /// builds (and CI), off in release builds, and answer-neutral when the
    /// analyzer is sound.
    pub effect_check: bool,
}

impl Default for CdaConfig {
    fn default() -> Self {
        Self {
            efficiency: true,
            grounding: true,
            explainability: true,
            soundness: true,
            guidance: true,
            answer_threshold: 0.5,
            uq_samples: 7,
            temperature: 0.8,
            min_observations: 24,
            discovery_threshold: 0.25,
            row_budget: 1_000_000,
            repair_rounds: 2,
            semantic_cache: true,
            vectorized_exec: true,
            absint_check: cfg!(debug_assertions),
            effect_check: cfg!(debug_assertions),
        }
    }
}

impl CdaConfig {
    /// All mechanisms disabled — the "current systems" baseline of Sec. 2.1.
    pub fn none() -> Self {
        Self {
            efficiency: false,
            grounding: false,
            explainability: false,
            soundness: false,
            guidance: false,
            semantic_cache: false,
            ..Self::default()
        }
    }

    /// Disable exactly one property (the F2 ablation).
    pub fn without(property: crate::answer::PropertyTag) -> Self {
        let mut c = Self::default();
        match property {
            crate::answer::PropertyTag::Efficiency => c.efficiency = false,
            crate::answer::PropertyTag::Grounding => c.grounding = false,
            crate::answer::PropertyTag::Explainability => c.explainability = false,
            crate::answer::PropertyTag::Soundness => c.soundness = false,
            crate::answer::PropertyTag::Guidance => c.guidance = false,
        }
        c
    }
}

/// Outcome counters of a (simulated) session, from which the composite
/// reliability score is computed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionOutcome {
    /// Answered turns that were correct.
    pub correct_answers: usize,
    /// Answered turns that were wrong.
    pub wrong_answers: usize,
    /// Turns abstained.
    pub abstentions: usize,
    /// Answers that carried a verifiable explanation.
    pub explained: usize,
    /// Answers whose explanation verified (lossless/invertible).
    pub verified: usize,
    /// Expected calibration error of the confidences (0 when unmeasured).
    pub ece: f64,
    /// Mean turns-to-goal across goal-seeking dialogues (0 when unmeasured).
    pub mean_turns_to_goal: f64,
}

impl SessionOutcome {
    /// Accuracy among answered turns (1.0 when nothing was answered).
    pub fn answered_accuracy(&self) -> f64 {
        let answered = self.correct_answers + self.wrong_answers;
        if answered == 0 {
            1.0
        } else {
            self.correct_answers as f64 / answered as f64
        }
    }

    /// Coverage: fraction of turns answered.
    pub fn coverage(&self) -> f64 {
        let total = self.correct_answers + self.wrong_answers + self.abstentions;
        if total == 0 {
            0.0
        } else {
            (self.correct_answers + self.wrong_answers) as f64 / total as f64
        }
    }

    /// Composite reliability score in `[0, 1]`: the weighted combination of
    /// answered-accuracy, calibration (1 − ECE), explanation-verification
    /// rate, and coverage the F2 ablation reports. Weights favour
    /// correctness, matching the paper's emphasis on soundness.
    pub fn reliability_score(&self) -> f64 {
        let verification_rate = if self.explained == 0 {
            0.0
        } else {
            self.verified as f64 / self.explained as f64
        };
        let calibration = (1.0 - self.ece).clamp(0.0, 1.0);
        0.4 * self.answered_accuracy()
            + 0.25 * calibration
            + 0.2 * verification_rate
            + 0.15 * self.coverage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::PropertyTag;

    #[test]
    fn default_enables_everything() {
        let c = CdaConfig::default();
        assert!(c.efficiency && c.grounding && c.explainability && c.soundness && c.guidance);
    }

    #[test]
    fn without_disables_exactly_one() {
        let c = CdaConfig::without(PropertyTag::Soundness);
        assert!(!c.soundness);
        assert!(c.grounding && c.efficiency && c.explainability && c.guidance);
        let c = CdaConfig::without(PropertyTag::Grounding);
        assert!(!c.grounding && c.soundness);
    }

    #[test]
    fn none_disables_all() {
        let c = CdaConfig::none();
        assert!(!(c.efficiency || c.grounding || c.explainability || c.soundness || c.guidance));
    }

    #[test]
    fn outcome_rates() {
        let o = SessionOutcome {
            correct_answers: 8,
            wrong_answers: 2,
            abstentions: 10,
            explained: 10,
            verified: 9,
            ece: 0.1,
            mean_turns_to_goal: 2.0,
        };
        assert_eq!(o.answered_accuracy(), 0.8);
        assert_eq!(o.coverage(), 0.5);
        let s = o.reliability_score();
        assert!((s - (0.4 * 0.8 + 0.25 * 0.9 + 0.2 * 0.9 + 0.15 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn perfect_session_scores_one() {
        let o = SessionOutcome {
            correct_answers: 10,
            wrong_answers: 0,
            abstentions: 0,
            explained: 10,
            verified: 10,
            ece: 0.0,
            mean_turns_to_goal: 1.0,
        };
        assert!((o.reliability_score() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_session_edge_cases() {
        let o = SessionOutcome::default();
        assert_eq!(o.answered_accuracy(), 1.0);
        assert_eq!(o.coverage(), 0.0);
        assert!(o.reliability_score() < 1.0);
    }
}
