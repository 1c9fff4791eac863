//! Annotated answers — the system's output contract (layer ⓔ).
//!
//! Every turn returns an [`AnswerTurn`]: the NL text, the confidence score,
//! the provenance explanation, the property tags that Figure 1 displays next
//! to each system message, per-layer timing (experiment E9), and guidance
//! suggestions for the next step.

use cda_provenance::Explanation;
use std::fmt;
use std::time::Duration;

/// The reliability property a piece of an answer exercised, as annotated in
/// Figure 1 ("(P1) Efficient retrieval", "(P4) Soundness by provenance &
/// confidence", …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PropertyTag {
    /// P1 — efficient retrieval.
    Efficiency,
    /// P2 — grounding of terminology.
    Grounding,
    /// P3 — explainability (provenance, code).
    Explainability,
    /// P4 — soundness (confidence, verification, refusal).
    Soundness,
    /// P5 — guidance (follow-up questions, suggestions).
    Guidance,
}

impl PropertyTag {
    /// The paper's short label.
    pub fn label(self) -> &'static str {
        match self {
            PropertyTag::Efficiency => "P1",
            PropertyTag::Grounding => "P2",
            PropertyTag::Explainability => "P3",
            PropertyTag::Soundness => "P4",
            PropertyTag::Guidance => "P5",
        }
    }
}

impl fmt::Display for PropertyTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-layer wall-clock breakdown of one turn (experiment E9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TurnTimings {
    /// NL model layer: intent + generation + decoding.
    pub nl_model: Duration,
    /// Computational infrastructure: retrieval + execution + analytics.
    pub infrastructure: Duration,
    /// Soundness: UQ sampling + verification.
    pub soundness: Duration,
    /// Explainability: provenance assembly + checks.
    pub explainability: Duration,
    /// Guidance: planning + suggestion ranking.
    pub guidance: Duration,
}

impl TurnTimings {
    /// Total measured time.
    pub fn total(&self) -> Duration {
        self.nl_model + self.infrastructure + self.soundness + self.explainability + self.guidance
    }
}

/// Whether the system answered or abstained, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnswerStatus {
    /// A regular answer.
    Answered,
    /// The system offered options and asked the user to choose (P5).
    AskedClarification,
    /// The system refused: confidence below threshold or data insufficient
    /// (P4). The payload names the reason.
    Abstained(String),
}

/// One system turn.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerTurn {
    /// The rendered NL answer.
    pub text: String,
    /// Overall confidence in `[0, 1]`, when the turn carries a claim.
    pub confidence: Option<f64>,
    /// Property annotations (Figure-1 style).
    pub properties: Vec<PropertyTag>,
    /// The provenance explanation bundle (P3), when a computation ran.
    pub explanation: Option<Explanation>,
    /// Ranked follow-up suggestions (P5).
    pub suggestions: Vec<String>,
    /// Answer/clarify/abstain status.
    pub status: AnswerStatus,
    /// Per-layer timings.
    pub timings: TurnTimings,
    /// The SQL the turn executed, when one ran. This is machine metadata
    /// used by evaluation harnesses; the *user-facing* code lives in
    /// [`AnswerTurn::explanation`] and is subject to the P3 toggle.
    pub executed_sql: Option<String>,
    /// NL-rendered static-analysis findings (`cda-analyzer` codes) attached
    /// to this turn — the pre-execution half of the P4 soundness signal.
    pub analysis: Vec<String>,
}

impl AnswerTurn {
    /// A plain answered turn.
    pub fn answered(text: impl Into<String>) -> Self {
        Self {
            text: text.into(),
            confidence: None,
            properties: Vec::new(),
            explanation: None,
            suggestions: Vec::new(),
            status: AnswerStatus::Answered,
            timings: TurnTimings::default(),
            executed_sql: None,
            analysis: Vec::new(),
        }
    }

    /// Builder: attach confidence and tag P4.
    pub fn with_confidence(mut self, confidence: f64) -> Self {
        self.confidence = Some(confidence.clamp(0.0, 1.0));
        self.tag(PropertyTag::Soundness);
        self
    }

    /// Builder: attach an explanation and tag P3.
    pub(crate) fn with_explanation(mut self, explanation: Explanation) -> Self {
        self.explanation = Some(explanation);
        self.tag(PropertyTag::Explainability);
        self
    }

    /// Builder: attach suggestions and tag P5.
    pub(crate) fn with_suggestions(mut self, suggestions: Vec<String>) -> Self {
        if !suggestions.is_empty() {
            self.tag(PropertyTag::Guidance);
        }
        self.suggestions = suggestions;
        self
    }

    /// Add a property tag (idempotent).
    pub fn tag(&mut self, p: PropertyTag) {
        if !self.properties.contains(&p) {
            self.properties.push(p);
        }
    }

    /// Render with annotations, roughly as Figure 1 displays turns.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.text);
        out.push('\n');
        if let Some(c) = self.confidence {
            out.push_str(&format!("Confidence: {:.0}%\n", c * 100.0));
        }
        if !self.properties.is_empty() {
            let tags: Vec<&str> = self.properties.iter().map(|p| p.label()).collect();
            out.push_str(&format!("[{}]\n", tags.join(", ")));
        }
        if !self.suggestions.is_empty() {
            out.push_str("You could ask next:\n");
            for s in &self.suggestions {
                out.push_str(&format!("  - {s}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate_tags() {
        let t = AnswerTurn::answered("hello")
            .with_confidence(0.9)
            .with_suggestions(vec!["try seasonality".into()]);
        assert_eq!(t.properties, vec![PropertyTag::Soundness, PropertyTag::Guidance]);
        assert_eq!(t.confidence, Some(0.9));
    }

    #[test]
    fn confidence_clamped() {
        let t = AnswerTurn::answered("x").with_confidence(3.0);
        assert_eq!(t.confidence, Some(1.0));
    }

    #[test]
    fn tags_are_idempotent() {
        let mut t = AnswerTurn::answered("x");
        t.tag(PropertyTag::Grounding);
        t.tag(PropertyTag::Grounding);
        assert_eq!(t.properties.len(), 1);
    }

    #[test]
    fn render_includes_annotations() {
        let t = AnswerTurn::answered("The period is 6")
            .with_confidence(0.9)
            .with_suggestions(vec!["forecast next year".into()]);
        let s = t.render();
        assert!(s.contains("Confidence: 90%"));
        assert!(s.contains("[P4, P5]"));
        assert!(s.contains("forecast next year"));
    }

    #[test]
    fn empty_suggestions_do_not_tag_guidance() {
        let t = AnswerTurn::answered("x").with_suggestions(vec![]);
        assert!(t.properties.is_empty());
    }

    #[test]
    fn timings_total() {
        let t = TurnTimings {
            nl_model: Duration::from_millis(2),
            infrastructure: Duration::from_millis(3),
            ..TurnTimings::default()
        };
        assert_eq!(t.total(), Duration::from_millis(5));
    }

    #[test]
    fn property_labels() {
        assert_eq!(PropertyTag::Efficiency.to_string(), "P1");
        assert_eq!(PropertyTag::Guidance.label(), "P5");
    }
}
