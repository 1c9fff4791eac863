//! Inference-time output control: constrained decoding, rejection sampling
//! and reward-guided reranking.
//!
//! The paper (Sec. 3.2, Soundness): "Structured outputs can also be obtained
//! through a combination of rejection sampling, constrained decoding and
//! parsing" and "reward-augmented decoding". Experiment E7 sweeps these
//! strategies and measures SQL-validity rate and execution accuracy.
//!
//! * [`DecodingStrategy::Free`] — take the first sample as-is.
//! * [`DecodingStrategy::Constrained`] — discard candidates that fail the
//!   SQL grammar (parser as the constraint automaton).
//! * [`DecodingStrategy::Rejection`] — additionally require the candidate to
//!   *execute* against the catalog without binding/semantic errors.
//! * [`DecodingStrategy::Reranked`] — sample k, keep the valid ones, and
//!   pick the candidate with the highest reward-model score.
//!
//! Everything is driven through the builder-style [`Decoder`], mirroring the
//! analyzer's own builder:
//!
//! ```
//! # use cda_nlmodel::constrained::{Decoder, DecodingStrategy};
//! # use cda_nlmodel::lm::{SimLm, SimLmConfig};
//! # use cda_sql::Catalog;
//! # let lm = SimLm::new(SimLmConfig::default());
//! # let catalog = Catalog::new();
//! let decoder = Decoder::new(&lm, &catalog)
//!     .with_strategy(DecodingStrategy::Rejection)
//!     .with_budget(12);
//! ```
//!
//! Under [`DecodingStrategy::Rejection`], candidates that the static gate
//! ([`cda_analyzer::Analyzer`]) proves doomed (unknown tables/columns,
//! GROUP BY violations, type misuse, …) are skipped **before**
//! execution-based verification: the gate only skips the implied execution
//! failure (experiment E13 measures the saving;
//! [`DecodeResult::static_rejects`] counts the skips), and candidates whose
//! *estimated* result size exceeds the analyzer's row budget are skipped too
//! ([`DecodeResult::budget_rejects`], experiment E14). The decoder does not
//! repair: the one hint-apply-regate loop is
//! `cda_analyzer::Analyzer::gate_with_repair`, which consistency UQ runs on
//! every sample the product draws (experiment E15).

use crate::lm::{Generation, Nl2SqlPrompt, SimLm};
use crate::{NlError, Result};
use cda_analyzer::Analyzer;
use cda_sql::{Catalog, execute};

/// Decoding strategies of increasing control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodingStrategy {
    /// First sample, unchecked.
    Free,
    /// Grammar-constrained: first sample that parses.
    Constrained,
    /// Constrained + must execute against the catalog.
    Rejection,
    /// Sample k, filter to executable, rerank by reward.
    Reranked,
}

impl DecodingStrategy {
    /// Label for experiment output.
    pub fn label(self) -> &'static str {
        match self {
            DecodingStrategy::Free => "free",
            DecodingStrategy::Constrained => "constrained",
            DecodingStrategy::Rejection => "rejection",
            DecodingStrategy::Reranked => "reranked",
        }
    }
}

/// The outcome of a controlled decode.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeResult {
    /// The chosen generation.
    pub generation: Generation,
    /// Samples drawn before acceptance.
    pub attempts: usize,
    /// Candidates discarded by the static soundness gate without executing.
    pub static_rejects: usize,
    /// Candidates discarded because their estimated result size exceeded
    /// the analyzer's row budget (requires stats + budget on the bound
    /// [`Analyzer`]).
    pub budget_rejects: usize,
}

/// A transparent reward model for candidate SQL: parses (+1), executes (+2),
/// returns non-empty results (+0.5), mentions every filter column of the
/// question's vocabulary (+0.5 heuristic via length proximity to the prompt's
/// schema terms). Scores are deliberately simple and inspectable.
pub fn reward(catalog: &Catalog, sql: &str) -> f64 {
    let mut r = 0.0;
    if cda_sql::parser::parse(sql).is_err() {
        return r;
    }
    r += 1.0;
    // Statically-doomed candidates would fail execution anyway; skip the
    // execution cost without changing the score.
    if Analyzer::new(catalog).execution_doomed(sql) {
        return r;
    }
    if let Ok(result) = execute(catalog, sql) {
        r += 2.0;
        if result.table.num_rows() > 0 {
            r += 0.5;
        }
    }
    r
}

/// Builder-style decoder binding an LM, an [`Analyzer`] gate and a
/// strategy. Mirrors `Analyzer::new(..).with_*(..)`.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    lm: &'a SimLm,
    analyzer: Analyzer<'a>,
    strategy: DecodingStrategy,
    temperature: f64,
    budget: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `lm` gated by a plain analyzer on `catalog`.
    /// Defaults: [`DecodingStrategy::Rejection`], temperature 1.0, sample
    /// budget 8.
    pub fn new(lm: &'a SimLm, catalog: &'a Catalog) -> Self {
        Self {
            lm,
            analyzer: Analyzer::new(catalog),
            strategy: DecodingStrategy::Rejection,
            temperature: 1.0,
            budget: 8,
        }
    }

    /// Replace the gate with a configured analyzer (stats, row budget,
    /// pass toggles).
    pub fn with_analyzer(mut self, analyzer: Analyzer<'a>) -> Self {
        self.analyzer = analyzer;
        self
    }

    /// Set the decoding strategy.
    pub fn with_strategy(mut self, strategy: DecodingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Set the sampling temperature.
    pub fn with_temperature(mut self, temperature: f64) -> Self {
        self.temperature = temperature;
        self
    }

    /// Bound the number of samples drawn (clamped to ≥ 1 at decode time).
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Run one decode for `prompt` under the configured policy.
    pub fn decode(&self, prompt: &Nl2SqlPrompt) -> Result<DecodeResult> {
        let budget = self.budget.max(1);
        let catalog = self.analyzer.catalog();
        let temperature = self.temperature;
        match self.strategy {
            DecodingStrategy::Free => Ok(DecodeResult {
                generation: self.lm.generate_sql(prompt, temperature, 0),
                attempts: 1,
                static_rejects: 0,
                budget_rejects: 0,
            }),
            DecodingStrategy::Constrained => {
                for s in 0..budget as u64 {
                    let g = self.lm.generate_sql(prompt, temperature, s);
                    if cda_sql::parser::parse(&g.sql).is_ok() {
                        return Ok(DecodeResult {
                            generation: g,
                            attempts: s as usize + 1,
                            static_rejects: 0,
                            budget_rejects: 0,
                        });
                    }
                }
                Err(NlError::BudgetExhausted { attempts: budget })
            }
            DecodingStrategy::Rejection => self.decode_rejection(prompt, budget),
            DecodingStrategy::Reranked => {
                let gens = self.lm.sample_k(prompt, temperature, budget);
                let mut best: Option<(f64, usize)> = None;
                for (i, g) in gens.iter().enumerate() {
                    let score = reward(catalog, &g.sql) + g.mean_logprob.exp() * 0.1;
                    if best.is_none_or(|(b, _)| score > b) {
                        best = Some((score, i));
                    }
                }
                let Some((score, i)) = best else {
                    return Err(NlError::BudgetExhausted { attempts: budget });
                };
                if score <= 0.0 {
                    return Err(NlError::BudgetExhausted { attempts: budget });
                }
                Ok(DecodeResult {
                    generation: gens[i].clone(),
                    attempts: budget,
                    static_rejects: 0,
                    budget_rejects: 0,
                })
            }
        }
    }

    /// Rejection sampling with the pre-execution gate. A statically-doomed
    /// candidate cannot pass the `execute()` check, so skipping it
    /// unexecuted cannot change which candidate is accepted — it only skips
    /// the execution cost.
    fn decode_rejection(&self, prompt: &Nl2SqlPrompt, budget: usize) -> Result<DecodeResult> {
        let catalog = self.analyzer.catalog();
        let mut static_rejects = 0usize;
        let mut budget_rejects = 0usize;
        for s in 0..budget as u64 {
            let g = self.lm.generate_sql(prompt, self.temperature, s);
            let report = self.analyzer.analyze(&g.sql);
            if report.dooms_execution() {
                static_rejects += 1;
            } else if report.exceeds_budget() {
                budget_rejects += 1;
            } else if execute(catalog, &g.sql).is_ok() {
                return Ok(DecodeResult {
                    generation: g,
                    attempts: s as usize + 1,
                    static_rejects,
                    budget_rejects,
                });
            }
        }
        Err(NlError::BudgetExhausted { attempts: budget })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lm::SimLmConfig;
    use crate::nl2sql::AnalyticTask;
    use cda_dataframe::kernels::AggKind;
    use cda_dataframe::{Column, DataType, Field, Schema, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = Table::from_columns(
            Schema::new(vec![
                Field::new("canton", DataType::Str),
                Field::new("jobs", DataType::Int),
            ]),
            vec![Column::from_strs(&["ZH", "GE"]), Column::from_ints(&[10, 20])],
        )
        .unwrap();
        c.register("employment", t).unwrap();
        c
    }

    fn prompt() -> Nl2SqlPrompt {
        Nl2SqlPrompt {
            task: AnalyticTask {
                table: "employment".into(),
                agg: AggKind::Sum,
                metric: Some("jobs".into()),
                group_by: Some("canton".into()),
                filters: vec![],
                order_desc: false,
                limit: None,
            },
            schema: Schema::new(vec![
                Field::new("canton", DataType::Str),
                Field::new("jobs", DataType::Int),
            ]),
            other_tables: vec![],
        }
    }

    fn decoder<'a>(
        lm: &'a SimLm,
        c: &'a Catalog,
        strategy: DecodingStrategy,
        budget: usize,
    ) -> Decoder<'a> {
        Decoder::new(lm, c).with_strategy(strategy).with_budget(budget)
    }

    #[test]
    fn reward_model_ranks_sensibly() {
        let c = catalog();
        let invalid = reward(&c, "SELECT FROM FROM");
        let unbound = reward(&c, "SELECT nope FROM employment");
        let good = reward(&c, "SELECT SUM(jobs) FROM employment");
        assert_eq!(invalid, 0.0);
        assert_eq!(unbound, 1.0);
        assert!(good >= 3.5);
    }

    #[test]
    fn free_decoding_can_emit_garbage() {
        let c = catalog();
        let mut saw_invalid = false;
        for seed in 0..30 {
            let lm =
                SimLm::new(SimLmConfig { hallucination_rate: 1.0, seed, ..Default::default() });
            let r = decoder(&lm, &c, DecodingStrategy::Free, 1).decode(&prompt()).unwrap();
            if cda_sql::parser::parse(&r.generation.sql).is_err() {
                saw_invalid = true;
                break;
            }
        }
        assert!(saw_invalid, "free decoding should eventually emit invalid SQL");
    }

    #[test]
    fn constrained_decoding_always_parses() {
        let c = catalog();
        for seed in 0..20 {
            let lm =
                SimLm::new(SimLmConfig { hallucination_rate: 0.9, seed, ..Default::default() });
            if let Ok(r) = decoder(&lm, &c, DecodingStrategy::Constrained, 16).decode(&prompt()) {
                assert!(cda_sql::parser::parse(&r.generation.sql).is_ok());
            }
        }
    }

    #[test]
    fn rejection_decoding_always_executes() {
        let c = catalog();
        for seed in 0..20 {
            let lm =
                SimLm::new(SimLmConfig { hallucination_rate: 0.9, seed, ..Default::default() });
            if let Ok(r) = decoder(&lm, &c, DecodingStrategy::Rejection, 16).decode(&prompt()) {
                assert!(execute(&c, &r.generation.sql).is_ok());
            }
        }
    }

    #[test]
    fn reranked_prefers_executable_candidates() {
        let c = catalog();
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.8, seed: 11, ..Default::default() });
        let r = decoder(&lm, &c, DecodingStrategy::Reranked, 12).decode(&prompt()).unwrap();
        assert!(execute(&c, &r.generation.sql).is_ok());
        assert_eq!(r.attempts, 12);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // a prompt whose table is absent from the catalog can never execute
        let mut p = prompt();
        p.task.table = "missing".into();
        let c = catalog();
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.0, ..Default::default() });
        let e = decoder(&lm, &c, DecodingStrategy::Rejection, 4)
            .with_temperature(0.0)
            .decode(&p);
        assert!(matches!(e, Err(NlError::BudgetExhausted { attempts: 4 })));
    }

    #[test]
    fn static_gate_preserves_rejection_outcomes() {
        // With and without the gate, rejection decoding must accept the same
        // candidate: the gate only skips executions that would have failed.
        let c = catalog();
        for seed in 0..20 {
            let lm =
                SimLm::new(SimLmConfig { hallucination_rate: 0.9, seed, ..Default::default() });
            let gated = decoder(&lm, &c, DecodingStrategy::Rejection, 16).decode(&prompt());
            // Reference: replay the same sample stream with execute() alone.
            let mut reference = None;
            for s in 0..16u64 {
                let g = lm.generate_sql(&prompt(), 1.0, s);
                if execute(&c, &g.sql).is_ok() {
                    reference = Some((g.sql, s as usize + 1));
                    break;
                }
            }
            match (gated, reference) {
                (Ok(r), Some((sql, attempts))) => {
                    assert_eq!(r.generation.sql, sql, "seed {seed}");
                    assert_eq!(r.attempts, attempts, "seed {seed}");
                }
                (Err(_), None) => {}
                (g, r) => panic!("gate changed the outcome at seed {seed}: {g:?} vs {r:?}"),
            }
        }
    }

    #[test]
    fn static_gate_counts_skipped_candidates() {
        // A prompt over a missing table is statically doomed every time.
        let mut p = prompt();
        p.task.table = "missing".into();
        let c = catalog();
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.0, ..Default::default() });
        let e = decoder(&lm, &c, DecodingStrategy::Rejection, 4)
            .with_temperature(0.0)
            .decode(&p);
        assert!(matches!(e, Err(NlError::BudgetExhausted { attempts: 4 })));
        let ok = decoder(&lm, &c, DecodingStrategy::Rejection, 4)
            .with_temperature(0.0)
            .decode(&prompt())
            .unwrap();
        assert_eq!(ok.static_rejects, 0);
    }

    #[test]
    fn row_budget_skips_oversized_candidates() {
        let c = catalog();
        let stats = cda_analyzer::Statistics::from_catalog(&c);
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.0, ..Default::default() });
        // A zero row budget flags every candidate as over-budget: the
        // sampler must skip them all and exhaust its budget.
        let strict = Analyzer::new(&c).with_stats(&stats).with_row_budget(0);
        let e = Decoder::new(&lm, &c)
            .with_analyzer(strict)
            .with_temperature(0.0)
            .with_budget(4)
            .decode(&prompt());
        assert!(matches!(e, Err(NlError::BudgetExhausted { attempts: 4 })));
        // A generous budget changes nothing relative to the plain gate.
        let lax = Analyzer::new(&c).with_stats(&stats).with_row_budget(1_000_000);
        let r = Decoder::new(&lm, &c)
            .with_analyzer(lax)
            .with_temperature(0.0)
            .with_budget(4)
            .decode(&prompt())
            .unwrap();
        assert_eq!(r.budget_rejects, 0);
        assert!(execute(&c, &r.generation.sql).is_ok());
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(DecodingStrategy::Free.label(), "free");
        assert_eq!(DecodingStrategy::Reranked.label(), "reranked");
    }
}
