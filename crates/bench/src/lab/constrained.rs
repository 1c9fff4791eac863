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
//! # use cda_bench::constrained::{Decoder, DecodingStrategy};
//! # use cda_nlmodel::lm::{SimLm, SimLmConfig};
//! # use cda_sql::Catalog;
//! # let lm = SimLm::new(SimLmConfig::default());
//! # let catalog = Catalog::new();
//! let decoder = Decoder::new(&lm, &catalog)
//!     .with_strategy(DecodingStrategy::Rejection)
//!     .with_budget(12);
//! ```
//!
//! This is ablation apparatus: only E7 builds a [`Decoder`]. The product
//! draws its candidates through consistency UQ, which gates every sample
//! with `cda_analyzer::Analyzer::gate_with_repair` (experiments E13–E15).
//! The decoder neither gates nor repairs: a candidate is checked by parsing
//! and executing it.

use cda_nlmodel::lm::{Generation, Nl2SqlPrompt, SimLm};
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
}

/// A decode exhausted its sampling budget without an accepted output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// Samples drawn.
    pub attempts: usize,
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
    if let Ok(result) = execute(catalog, sql) {
        r += 2.0;
        if result.table.num_rows() > 0 {
            r += 0.5;
        }
    }
    r
}

/// Builder-style decoder binding an LM, a catalog and a strategy.
/// Mirrors `Analyzer::new(..).with_*(..)`.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    lm: &'a SimLm,
    catalog: &'a Catalog,
    strategy: DecodingStrategy,
    temperature: f64,
    budget: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `lm` that checks candidates against `catalog`.
    /// Defaults: [`DecodingStrategy::Rejection`], temperature 1.0, sample
    /// budget 8.
    pub fn new(lm: &'a SimLm, catalog: &'a Catalog) -> Self {
        Self { lm, catalog, strategy: DecodingStrategy::Rejection, temperature: 1.0, budget: 8 }
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
    pub fn decode(&self, prompt: &Nl2SqlPrompt) -> Result<DecodeResult, BudgetExhausted> {
        let budget = self.budget.max(1);
        let temperature = self.temperature;
        match self.strategy {
            DecodingStrategy::Free => Ok(DecodeResult {
                generation: self.lm.generate_sql(prompt, temperature, 0),
                attempts: 1,
            }),
            DecodingStrategy::Constrained => {
                self.first_accepted(prompt, budget, |sql| cda_sql::parser::parse(sql).is_ok())
            }
            DecodingStrategy::Rejection => {
                self.first_accepted(prompt, budget, |sql| execute(self.catalog, sql).is_ok())
            }
            DecodingStrategy::Reranked => {
                let gens = self.lm.sample_k(prompt, temperature, budget);
                let mut best: Option<(f64, usize)> = None;
                for (i, g) in gens.iter().enumerate() {
                    let score = reward(self.catalog, &g.sql) + g.mean_logprob.exp() * 0.1;
                    if best.is_none_or(|(b, _)| score > b) {
                        best = Some((score, i));
                    }
                }
                match best {
                    Some((score, i)) if score > 0.0 => {
                        Ok(DecodeResult { generation: gens[i].clone(), attempts: budget })
                    }
                    _ => Err(BudgetExhausted { attempts: budget }),
                }
            }
        }
    }

    /// The first of `budget` samples whose SQL `accept` admits.
    fn first_accepted(
        &self,
        prompt: &Nl2SqlPrompt,
        budget: usize,
        accept: impl Fn(&str) -> bool,
    ) -> Result<DecodeResult, BudgetExhausted> {
        for s in 0..budget as u64 {
            let generation = self.lm.generate_sql(prompt, self.temperature, s);
            if accept(&generation.sql) {
                return Ok(DecodeResult { generation, attempts: s as usize + 1 });
            }
        }
        Err(BudgetExhausted { attempts: budget })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_nlmodel::lm::SimLmConfig;
    use cda_nlmodel::nl2sql::AnalyticTask;
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
        assert!(matches!(e, Err(BudgetExhausted { attempts: 4 })));
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(DecodingStrategy::Free.label(), "free");
        assert_eq!(DecodingStrategy::Reranked.label(), "reranked");
    }
}
