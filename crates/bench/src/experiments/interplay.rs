//! **F2** — Figure 2: the interplay of the five properties, by ablation.
//!
//! Each property is disabled in turn; a mixed workload (NL2SQL tasks with
//! known gold + seasonality requests + discovery turns) is replayed, and the
//! downstream metric of the property it *enables/ensures/informs/enhances*
//! is measured alongside the composite reliability score.
//!
//! Expected shape (the figure's arrows):
//! * P4 off → accuracy-among-answered drops (nothing abstains);
//! * P3 off → verification rate hits zero (soundness loses its evidence:
//!   P3 "informs" P4);
//! * P2 off → grounding confidence and discovery quality drop (P2 "ensures"
//!   P3's assumption statements);
//! * P5 off → no clarification/suggestions (guidance enhancement gone);
//! * P1 off → same answers, more work (efficiency "enables" the rest at
//!   interactive speed).

use crate::calibration::expected_calibration_error;
use crate::{row, Budget, Experiment, Table};
use cda_core::answer::{AnswerStatus, PropertyTag};
use cda_core::demo::{demo_catalog, demo_kg, demo_linker, demo_vocabulary, FIGURE1_TURNS};
use cda_core::reliability::SessionOutcome;
use cda_core::{CdaConfig, Session, WorldSnapshot};
use cda_nlmodel::lm::SimLmConfig;
use cda_nlmodel::nl2sql::Workload;
use cda_soundness::verify::execution_accuracy;

fn build(config: CdaConfig) -> Session {
    let world = WorldSnapshot::builder()
        .catalog(demo_catalog(19))
        .kg(demo_kg())
        .vocab(demo_vocabulary())
        .linker(demo_linker())
        .lm(SimLmConfig { hallucination_rate: 0.45, overconfidence: 1.0, seed: 19 })
        .build_shared();
    Session::open(world, config)
}

struct Report {
    label: String,
    reliability: f64,
    accuracy: f64,
    coverage: f64,
    verification: f64,
    ece: f64,
    grounded_turns: usize,
    suggestions: usize,
}

fn evaluate(label: &str, config: CdaConfig) -> Report {
    let mut cda = build(config);
    let workload = Workload::generate(cda.world().workload_tables(), 50, 23);
    let mut outcome = SessionOutcome::default();
    let mut confidences = Vec::new();
    let mut flags = Vec::new();
    let mut grounded_turns = 0usize;
    let mut suggestions = 0usize;
    // a few conversational turns exercise grounding + guidance
    for turn in FIGURE1_TURNS {
        let a = cda.process(turn);
        if a.properties.contains(&PropertyTag::Grounding) {
            grounded_turns += 1;
        }
        suggestions += a.suggestions.len();
    }
    for task in &workload.tasks {
        let a = cda.process(&task.question);
        match a.status {
            AnswerStatus::Answered => {
                let correct = a
                    .executed_sql
                    .as_ref()
                    .map(|sql| execution_accuracy(cda.catalog().sql(), sql, &task.gold_sql))
                    .unwrap_or(false);
                if correct {
                    outcome.correct_answers += 1;
                } else {
                    outcome.wrong_answers += 1;
                }
                if let Some(c) = a.confidence {
                    confidences.push(c);
                    flags.push(correct);
                }
                if let Some(e) = &a.explanation {
                    outcome.explained += 1;
                    if e.verified() {
                        outcome.verified += 1;
                    }
                }
                suggestions += a.suggestions.len();
            }
            _ => outcome.abstentions += 1,
        }
    }
    outcome.ece = expected_calibration_error(&confidences, &flags, 10).unwrap_or(1.0);
    Report {
        label: label.to_owned(),
        reliability: outcome.reliability_score(),
        accuracy: outcome.answered_accuracy(),
        coverage: outcome.coverage(),
        verification: if outcome.explained == 0 {
            0.0
        } else {
            outcome.verified as f64 / outcome.explained as f64
        },
        ece: outcome.ece,
        grounded_turns,
        suggestions,
    }
}

/// Run F2.
pub fn run(_: &Budget) -> Experiment {
    let mut e = Experiment::new(
        "F2",
        "property interplay by ablation (45% hallucination model, 50 tasks + Fig-1 turns)",
    );
    let mut ablation = Table::new(
        "single-property ablation",
        &["configuration", "reliability", "acc@answered", "coverage", "verif rate", "ECE",
          "grounded", "suggestions"],
    );
    let mut reports = vec![evaluate("all properties", CdaConfig::default())];
    for p in [
        PropertyTag::Efficiency,
        PropertyTag::Grounding,
        PropertyTag::Explainability,
        PropertyTag::Soundness,
        PropertyTag::Guidance,
    ] {
        reports.push(evaluate(&format!("without {p}"), CdaConfig::without(p)));
    }
    reports.push(evaluate("none (status quo)", CdaConfig::none()));
    for r in &reports {
        row!(ablation; r.label.as_str(), r.reliability, r.accuracy, r.coverage, r.verification,
            r.ece, r.grounded_turns, r.suggestions);
    }
    let mut arrows = Table::new(
        "Figure-2 arrows, observed: all properties vs the ablated one",
        &["arrow", "metric", "all", "ablated"],
    );
    let all = &reports[0];
    let (no_p3, no_p4, no_p5) = (&reports[3], &reports[4], &reports[5]);
    row!(arrows; "P3 informs P4", "verification rate", all.verification, no_p3.verification);
    row!(arrows; "P4 enhances P5", "acc@answered", all.accuracy, no_p4.accuracy);
    row!(arrows; "P5 guidance", "suggestions", all.suggestions, no_p5.suggestions);
    e.tables = vec![ablation, arrows];
    e
}
