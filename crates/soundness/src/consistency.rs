//! Consistency-based black-box uncertainty quantification for text-to-SQL.
//!
//! Implements the method of the paper's reference \[7\] (Bhattacharjya et al.,
//! "Consistency-based Black-box Uncertainty Quantification for Text-to-SQL",
//! NeurIPS 2024): draw k samples from the model at non-zero temperature,
//! execute each candidate, group candidates whose executions agree
//! (execution equivalence), and report the **mass of the cluster containing
//! the returned answer** as its confidence. Unlike token log-probabilities,
//! this signal needs no access to model internals and — because hallucinated
//! variants rarely agree with each other — tracks true correctness far
//! better (experiment E5 quantifies the gap).
//!
//! One round ([`ConsistencyUq::run_with`]) does each piece of work once per
//! candidate and hands all of it to the caller:
//!
//! * **Gate and repair.** Every sample goes through the analyzer's gate,
//!   which also compiles it. With [`ConsistencyUq::with_repair`],
//!   statically-doomed samples are run through
//!   `cda_analyzer::Analyzer::gate_with_repair`, the one hint-apply-regate
//!   loop; a sample still doomed, or repaired but still over the row budget,
//!   fails without executing. A salvaged sample clusters under its
//!   **post-repair** SQL, so the UQ signal sees the candidates the answer
//!   would actually be drawn from, and the report records how many samples
//!   repair rescued.
//! * **Fingerprint.** With
//!   [`with_equivalence`](ConsistencyUq::with_equivalence), post-repair
//!   candidate plans are fingerprinted by `cda_analyzer::equiv`, and samples
//!   whose canonical plans certify equivalent share one outcome — agreement
//!   is decided over *meaning*, so syntactic variants of the same query
//!   merge into one cluster without paying k executions
//!   (`executions_saved`, E16).
//! * **Known results and outcomes.** Before executing a fingerprint group
//!   the round asks the caller's lookup what it already knows about that
//!   fingerprint ([`Known`]; the dialogue layer answers from the session's
//!   semantic cache). A **held** result costs no execution; a known
//!   **outcome** — the exact result signature of an earlier execution, or
//!   that it failed — clusters (or fails) by that record without executing,
//!   and executes only if it ends up as the majority's representative, once.
//!   Either way the group counts in `known_results`. Equal fingerprints
//!   guarantee identical results on the deterministic executor, so clusters
//!   and confidence are provably the same whichever way an outcome was
//!   obtained. The round hands back the outcome of every group it did
//!   execute ([`UqRound::outcomes`]), for the caller to record.
//! * **Execute — if still unknown** — under the abstract-interpretation
//!   sanitizer when [`with_sanitizer`](ConsistencyUq::with_sanitizer) is set.
//! * **Winner.** The majority cluster's representative comes back as one
//!   [`Winner`] record: post-repair SQL, the gate's report and compiled
//!   statement, the fingerprint, and the result itself (executed or held).
//!   The caller answers from that record — it does not gate, fingerprint or
//!   execute the chosen SQL again.

use crate::verify::result_signature;
use crate::{Result, SoundnessError};
use cda_analyzer::equiv::EquivEngine;
use cda_analyzer::repair::Gated;
use cda_analyzer::{Analyzer, ColumnSet, Report, Statistics};
use cda_nlmodel::lm::{Nl2SqlPrompt, SimLm};
use cda_sql::plan::Plan;
use cda_sql::{Compiled, QueryResult};
use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// The outcome of one consistency-UQ round.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsistencyReport {
    /// The SQL chosen (representative of the largest executing cluster), or
    /// `None` when no sample executed.
    pub chosen_sql: Option<String>,
    /// Confidence = |majority cluster| / k.
    pub confidence: f64,
    /// Number of samples drawn.
    pub samples: usize,
    /// Number of distinct execution-equivalence clusters among executing
    /// samples.
    pub clusters: usize,
    /// Number of samples that failed to execute (including statically
    /// rejected ones).
    pub failed: usize,
    /// Of the failed samples, how many the static soundness gate
    /// (`cda_analyzer::sqlcheck`) rejected without paying execution cost.
    pub static_rejects: usize,
    /// The naive mean LM confidence over the samples (the miscalibrated
    /// baseline E5 compares against).
    pub naive_confidence: f64,
    /// Samples the analyzer-guided repair loop salvaged: statically doomed
    /// as sampled, clustered after applying repair hints (always 0 with
    /// repair disabled).
    pub repaired: usize,
    /// Rendered repair hints of the winning cluster's first repaired member
    /// — the repair that contributed to the majority vote — empty when the
    /// cluster contains no repaired sample.
    pub repair_hints: Vec<String>,
    /// Number of distinct plan-fingerprint groups among the samples that
    /// reached execution (0 with equivalence-aware clustering disabled).
    pub equiv_groups: usize,
    /// Executions skipped because a sample's canonical plan certified
    /// equivalent to an already-executed one (0 with equivalence disabled).
    pub executions_saved: usize,
    /// Of the `equiv_groups`, how many the caller's lookup already knew —
    /// a held result or a recorded outcome — so that they clustered without
    /// executing (0 with equivalence disabled or an empty lookup). The
    /// engine runs are [`UqRound::outcomes`].
    pub known_results: usize,
}

/// Where a candidate's result came from.
#[derive(Debug, Clone)]
pub enum Execution<K> {
    /// The candidate's plan was executed this round.
    Ran(QueryResult),
    /// The caller's lookup already held the result under the candidate's
    /// fingerprint ([`Known::Held`]); nothing was executed.
    Held(K),
}

impl<K: Borrow<QueryResult>> Execution<K> {
    /// The candidate's result, however it was obtained.
    pub fn result(&self) -> &QueryResult {
        match self {
            Self::Ran(result) => result,
            Self::Held(held) => held.borrow(),
        }
    }
}

/// What the caller's lookup knows about a fingerprint group before the
/// round would execute it.
#[derive(Debug, Clone)]
pub enum Known<K> {
    /// Nothing: the group executes.
    Unknown,
    /// The result itself: the group does not execute, and if it wins, the
    /// [`Winner`] hands this record back.
    Held(K),
    /// Only how an earlier execution came out — the exact
    /// [`result_signature`] of its result, or `None` when it failed. The
    /// group clusters (or fails) by it without executing; if it ends up as
    /// the majority's representative it executes then, once.
    Outcome(Option<Arc<str>>),
}

/// How the execution of one fingerprint group came out — what a caller
/// records to answer [`Known::Outcome`] later.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupOutcome {
    /// The group's canonical-plan fingerprint.
    pub fingerprint: u64,
    /// The exact signature of its result, or `None` when it failed.
    pub signature: Option<Arc<str>>,
    /// The `(table, column)` pairs its executed plan reads
    /// (`cda_analyzer::plan_reads`): a write that misses them leaves the
    /// outcome true.
    pub reads: ColumnSet,
}

/// The representative of the majority cluster, with everything the round
/// already worked out about it.
#[derive(Debug, Clone)]
pub struct Winner<K> {
    /// The SQL it clusters under — post-repair, so it may differ from what
    /// the model sampled.
    pub sql: String,
    /// The gate's report on `sql` (never dooming: a doomed candidate does
    /// not reach execution).
    pub report: Report,
    /// `sql` as the gate compiled it.
    pub compiled: Compiled,
    /// Canonical-plan fingerprint of `compiled` (`None` with
    /// equivalence-aware clustering disabled).
    pub fingerprint: Option<u64>,
    /// Its result: executed this round, or held by the caller's lookup.
    pub execution: Execution<K>,
}

/// What [`ConsistencyUq::run_with`] returns: the report and, when some
/// sample executed, the winner it describes.
#[derive(Debug, Clone)]
pub struct UqRound<K> {
    /// Confidence and the round's counters.
    pub report: ConsistencyReport,
    /// The candidate `report.chosen_sql` names.
    pub winner: Option<Winner<K>>,
    /// One entry per engine execution the round ran, in order: each
    /// fingerprint group it executed, and a representative whose outcome
    /// alone was known (empty with equivalence-aware clustering disabled,
    /// where nothing is fingerprinted).
    pub outcomes: Vec<GroupOutcome>,
}

/// Builder-style consistency UQ.
///
/// ```
/// # use cda_soundness::consistency::ConsistencyUq;
/// # use cda_analyzer::Analyzer;
/// # use cda_nlmodel::lm::{SimLm, SimLmConfig};
/// # let catalog = cda_sql::Catalog::new();
/// # let lm = SimLm::new(SimLmConfig::default());
/// let analyzer = Analyzer::new(&catalog);
/// let uq = ConsistencyUq::new(&lm, &analyzer)
///     .with_samples(8)
///     .with_temperature(1.0)
///     .with_repair(2)
///     .with_equivalence(true);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ConsistencyUq<'a> {
    lm: &'a SimLm,
    analyzer: &'a Analyzer<'a>,
    samples: usize,
    temperature: f64,
    repair_rounds: usize,
    equivalence: bool,
    exec_options: cda_sql::ExecOptions,
    sanitizer: Option<&'a Statistics>,
}

/// Candidates whose results agree, in sample order.
struct Cluster<K> {
    signature: Arc<str>,
    members: Vec<usize>,
    /// The member that opened the cluster — its representative.
    first: Candidate,
    /// The representative's result, `None` when only its outcome was known.
    execution: Option<Execution<K>>,
}

/// A gated, compiled candidate: a [`Winner`] but for its result.
struct Candidate {
    sql: String,
    report: Report,
    compiled: Compiled,
    fingerprint: Option<u64>,
}

impl<'a> ConsistencyUq<'a> {
    /// UQ over this model, gated by this analyzer; defaults: 8 samples,
    /// temperature 1.0, repair off, equivalence-aware clustering off,
    /// row engine, no sanitizer.
    pub fn new(lm: &'a SimLm, analyzer: &'a Analyzer<'a>) -> Self {
        Self {
            lm,
            analyzer,
            samples: 8,
            temperature: 1.0,
            repair_rounds: 0,
            equivalence: false,
            exec_options: cda_sql::ExecOptions::default(),
            sanitizer: None,
        }
    }

    /// Number of candidates to sample (k).
    pub fn with_samples(mut self, k: usize) -> Self {
        self.samples = k;
        self
    }

    /// Sampling temperature.
    pub fn with_temperature(mut self, t: f64) -> Self {
        self.temperature = t;
        self
    }

    /// Rounds of `Analyzer::gate_with_repair` per statically-doomed sample
    /// (0 = off).
    pub fn with_repair(mut self, rounds: usize) -> Self {
        self.repair_rounds = rounds;
        self
    }

    /// Execution options for signature runs — `ExecOptions::vectorized()`
    /// puts every UQ sample on the morsel-parallel engine. Signatures (and
    /// therefore clusters and confidence) are engine-independent because the
    /// two paths are differentially certified byte-identical.
    pub fn with_exec_options(mut self, options: cda_sql::ExecOptions) -> Self {
        self.exec_options = options;
        self
    }

    /// Run every execution under the abstract-interpretation sanitizer
    /// (`cda_sql::execute_plan_checked` with the plan's static
    /// `cda_analyzer::domain_tree` over `stats`): the winner's execution is
    /// the answer, so the cross-check has to cover it here. A violation (an
    /// analyzer soundness bug, by construction) fails that candidate like any
    /// other execution error.
    pub fn with_sanitizer(mut self, stats: Option<&'a Statistics>) -> Self {
        self.sanitizer = stats;
        self
    }

    /// Enable equivalence-aware clustering: fingerprint each post-repair
    /// candidate plan and obtain one result per certified-equivalent group,
    /// shared by its members. Equal fingerprints guarantee identical
    /// execution on the deterministic engine, so the resulting clusters —
    /// and the confidence — are provably identical to the exhaustive path;
    /// only `executions_saved` changes. Fingerprints are also what the
    /// known-result lookup of [`run_with`](Self::run_with) is keyed by.
    pub fn with_equivalence(mut self, on: bool) -> Self {
        self.equivalence = on;
        self
    }

    /// Run the UQ round with nothing known beforehand: the report of
    /// [`run_with`](Self::run_with) over an empty lookup.
    pub fn run(&self, prompt: &Nl2SqlPrompt) -> Result<ConsistencyReport> {
        self.run_with(prompt, |_| Known::<QueryResult>::Unknown).map(|round| round.report)
    }

    /// Run the UQ round. `known` says what the caller already knows about a
    /// canonical-plan fingerprint (consulted once per fingerprint group, and
    /// only with equivalence-aware clustering on): a held result is not
    /// executed, and if it wins, the [`Winner`] hands the caller's own
    /// record back; a known outcome is not executed unless it represents
    /// the majority.
    pub fn run_with<K: Borrow<QueryResult>>(
        &self,
        prompt: &Nl2SqlPrompt,
        known: impl Fn(u64) -> Known<K>,
    ) -> Result<UqRound<K>> {
        let k = self.samples;
        if k == 0 {
            return Err(SoundnessError::NoSamples);
        }
        let analyzer = self.analyzer;
        let engine = EquivEngine::new();
        let gens = self.lm.sample_k(prompt, self.temperature, k);
        let naive_confidence =
            gens.iter().map(cda_nlmodel::lm::Generation::naive_confidence).sum::<f64>() / k as f64;
        let mut clusters: Vec<Cluster<K>> = Vec::new();
        let mut cluster_of_signature: HashMap<Arc<str>, usize> = HashMap::new();
        // Fingerprint group → the cluster its result fell into (`None`: the
        // group's execution failed, and so does every later member).
        let mut cluster_of_fingerprint: HashMap<u64, Option<usize>> = HashMap::new();
        let mut outcomes: Vec<GroupOutcome> = Vec::new();
        let mut failed = 0usize;
        let mut static_rejects = 0usize;
        let mut repaired = 0usize;
        let mut executions_saved = 0usize;
        let mut known_results = 0usize;
        let mut sample_hints: Vec<Vec<String>> = vec![Vec::new(); k];
        for (i, g) in gens.iter().enumerate() {
            // Pre-execution gate, which also compiles the candidate — once,
            // for the gate, the fingerprint, the execution and the caller —
            // and repairs it if the gate dooms it. A sample still doomed, or
            // repaired but still over budget, cannot produce an execution
            // signature: it counts failed without executing.
            let Gated { sql, report, compiled, hints } =
                analyzer.gate_with_repair(&g.sql, self.repair_rounds);
            if report.dooms_execution() || (!hints.is_empty() && report.exceeds_budget()) {
                failed += 1;
                static_rejects += 1;
                continue;
            }
            sample_hints[i] = hints.iter().map(ToString::to_string).collect();
            // Only a query has a result to sign (the LM emits nothing else).
            let Some(compiled) = compiled else {
                failed += 1;
                continue;
            };
            let Some((logical, optimized)) = compiled.query() else {
                failed += 1;
                continue;
            };
            let fingerprint = self.equivalence.then(|| engine.fingerprint(logical).as_u64());
            let cluster = match fingerprint.and_then(|fp| cluster_of_fingerprint.get(&fp)) {
                Some(&shared) => {
                    // A prior sample's canonical plan was identical: its
                    // outcome is this sample's outcome.
                    executions_saved += 1;
                    shared
                }
                None => {
                    let lookup = fingerprint.map_or(Known::Unknown, &known);
                    if !matches!(lookup, Known::Unknown) {
                        known_results += 1;
                    }
                    // The group's signature, and its result when there is one.
                    let outcome = match lookup {
                        Known::Held(held) => {
                            let execution = Execution::Held(held);
                            let signature = result_signature(&execution.result().table);
                            Some((signature.into(), Some(execution)))
                        }
                        Known::Outcome(signature) => signature.map(|signature| (signature, None)),
                        Known::Unknown => {
                            let ran = self.execute(optimized);
                            let signature: Option<Arc<str>> =
                                ran.as_ref().map(|result| result_signature(&result.table).into());
                            if let Some(fingerprint) = fingerprint {
                                outcomes.push(GroupOutcome {
                                    fingerprint,
                                    signature: signature.clone(),
                                    reads: cda_analyzer::plan_reads(optimized),
                                });
                            }
                            signature.zip(ran).map(|(signature, result)| {
                                (signature, Some(Execution::Ran(result)))
                            })
                        }
                    };
                    let cluster = outcome.map(|(signature, execution)| {
                        match cluster_of_signature.entry(signature) {
                            Entry::Occupied(agreeing) => *agreeing.get(),
                            Entry::Vacant(new) => {
                                clusters.push(Cluster {
                                    signature: Arc::clone(new.key()),
                                    members: Vec::new(),
                                    first: Candidate { sql, report, compiled, fingerprint },
                                    execution,
                                });
                                *new.insert(clusters.len() - 1)
                            }
                        }
                    });
                    if let Some(fp) = fingerprint {
                        cluster_of_fingerprint.insert(fp, cluster);
                    }
                    cluster
                }
            };
            match cluster {
                Some(cluster) => {
                    clusters[cluster].members.push(i);
                    if !sample_hints[i].is_empty() {
                        repaired += 1;
                    }
                }
                None => failed += 1,
            }
        }
        let distinct_clusters = clusters.len();
        // Majority cluster; ties broken deterministically by signature order.
        let majority = clusters.into_iter().min_by(|a, b| {
            b.members.len().cmp(&a.members.len()).then_with(|| a.signature.cmp(&b.signature))
        });
        // The winning cluster's mass may rest partly on repaired members: the
        // hints of its first repaired member (if any) annotate the answer,
        // even when the representative itself was sampled clean — the vote
        // was.
        let repair_hints = majority
            .iter()
            .flat_map(|c| &c.members)
            .find(|&&i| !sample_hints[i].is_empty())
            .map(|&i| sample_hints[i].clone())
            .unwrap_or_default();
        let report = ConsistencyReport {
            chosen_sql: majority.as_ref().map(|c| c.first.sql.clone()),
            confidence: majority.as_ref().map_or(0.0, |c| c.members.len() as f64 / k as f64),
            samples: k,
            clusters: distinct_clusters,
            failed,
            static_rejects,
            naive_confidence,
            repaired,
            repair_hints,
            equiv_groups: cluster_of_fingerprint.len(),
            executions_saved,
            known_results,
        };
        let winner = majority.and_then(|Cluster { first, execution, signature, .. }| {
            let Candidate { sql, report, compiled, fingerprint } = first;
            let execution = match execution {
                Some(execution) => execution,
                None => {
                    // Only the outcome was known: the representative executes
                    // now, once. Its recorded signature came from the same
                    // deterministic execution, so the result agrees with it.
                    let (_, optimized) = compiled.query()?;
                    let ran = self.execute(optimized);
                    if let Some(fingerprint) = fingerprint {
                        outcomes.push(GroupOutcome {
                            fingerprint,
                            signature: ran.as_ref().map(|_| signature),
                            reads: cda_analyzer::plan_reads(optimized),
                        });
                    }
                    Execution::Ran(ran?)
                }
            };
            Some(Winner { sql, report, compiled, fingerprint, execution })
        });
        Ok(UqRound { report, winner, outcomes })
    }

    /// Execute one candidate plan; an execution error is the candidate's
    /// failure, not the round's.
    fn execute(&self, optimized: &Plan) -> Option<QueryResult> {
        // The monitor must describe the exact plan that executes, so it is
        // built from the optimized plan.
        let monitor =
            self.sanitizer.map(|stats| cda_analyzer::domain_tree(optimized, Some(stats)));
        cda_sql::execute_plan_checked(
            self.analyzer.catalog(),
            optimized,
            self.exec_options,
            monitor.as_ref(),
        )
        .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_dataframe::kernels::AggKind;
    use cda_dataframe::{Column, DataType, Field, Schema, Table};
    use cda_nlmodel::lm::SimLmConfig;
    use cda_nlmodel::nl2sql::AnalyticTask;
    use cda_sql::Catalog;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = Table::from_columns(
            Schema::new(vec![
                Field::new("canton", DataType::Str),
                Field::new("sector", DataType::Str),
                Field::new("jobs", DataType::Int),
            ]),
            vec![
                Column::from_strs(&["ZH", "ZH", "GE", "VD"]),
                Column::from_strs(&["it", "fin", "it", "it"]),
                Column::from_ints(&[100, 200, 50, 30]),
            ],
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
                Field::new("sector", DataType::Str),
                Field::new("jobs", DataType::Int),
            ]),
            other_tables: vec![],
        }
    }

    #[test]
    fn clean_model_yields_full_confidence() {
        let c = catalog();
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.0, ..Default::default() });
        let r = ConsistencyUq::new(&lm, &Analyzer::new(&c)).with_samples(8).run(&prompt()).unwrap();
        assert_eq!(r.confidence, 1.0);
        assert_eq!(r.clusters, 1);
        assert_eq!(r.failed, 0);
        assert_eq!(r.chosen_sql.as_deref(), Some(prompt().task.to_sql().as_str()));
    }

    #[test]
    fn noisy_model_reduces_consistency_confidence() {
        let c = catalog();
        let a = Analyzer::new(&c);
        let clean = SimLm::new(SimLmConfig { hallucination_rate: 0.0, seed: 1, ..Default::default() });
        let noisy = SimLm::new(SimLmConfig { hallucination_rate: 0.7, seed: 1, ..Default::default() });
        let rc = ConsistencyUq::new(&clean, &a).with_samples(10).run(&prompt()).unwrap();
        let rn = ConsistencyUq::new(&noisy, &a).with_samples(10).run(&prompt()).unwrap();
        assert!(rn.confidence < rc.confidence, "{} vs {}", rn.confidence, rc.confidence);
        assert!(rn.clusters > 1);
    }

    #[test]
    fn naive_confidence_stays_high_while_consistency_drops() {
        // the paper's core soundness observation, in miniature
        let noisy = SimLm::new(SimLmConfig {
            hallucination_rate: 0.8,
            overconfidence: 1.0,
            seed: 2,
        });
        let c = catalog();
        let a = Analyzer::new(&c);
        let r = ConsistencyUq::new(&noisy, &a).with_samples(12).run(&prompt()).unwrap();
        assert!(r.naive_confidence > 0.7, "naive {}", r.naive_confidence);
        assert!(r.confidence < r.naive_confidence, "consistency should be lower");
    }

    #[test]
    fn zero_samples_is_an_error() {
        let c = catalog();
        let lm = SimLm::new(SimLmConfig::default());
        assert!(matches!(
            ConsistencyUq::new(&lm, &Analyzer::new(&c)).with_samples(0).run(&prompt()),
            Err(SoundnessError::NoSamples)
        ));
    }

    #[test]
    fn all_failing_samples_yield_zero_confidence() {
        // a prompt against a missing table never executes
        let mut p = prompt();
        p.task.table = "missing".into();
        let c = catalog();
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.0, ..Default::default() });
        let r = ConsistencyUq::new(&lm, &Analyzer::new(&c)).with_samples(5).run(&p).unwrap();
        assert_eq!(r.chosen_sql, None);
        assert_eq!(r.confidence, 0.0);
        assert_eq!(r.failed, 5);
    }

    #[test]
    fn static_gate_skips_doomed_samples_without_changing_confidence() {
        // Samples against a missing table are all statically rejected; the
        // report must look exactly like the all-failing case, with the gate
        // accounting for every skip.
        let mut p = prompt();
        p.task.table = "missing".into();
        let c = catalog();
        let a = Analyzer::new(&c);
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.0, ..Default::default() });
        let r = ConsistencyUq::new(&lm, &a).with_samples(5).run(&p).unwrap();
        assert_eq!(r.failed, 5);
        assert_eq!(r.static_rejects, 5);
        assert_eq!(r.confidence, 0.0);
        // A clean prompt never trips the gate (zero false rejects).
        let clean = ConsistencyUq::new(&lm, &a).with_samples(8).run(&prompt()).unwrap();
        assert_eq!(clean.static_rejects, 0);
        assert_eq!(clean.confidence, 1.0);
    }

    #[test]
    fn repair_zero_rounds_matches_plain_entry_point() {
        let c = catalog();
        let a = Analyzer::new(&c);
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.6, seed: 5, ..Default::default() });
        let plain = ConsistencyUq::new(&lm, &a).with_samples(9).run(&prompt()).unwrap();
        let with =
            ConsistencyUq::new(&lm, &a).with_samples(9).with_repair(0).run(&prompt()).unwrap();
        assert_eq!(plain, with);
        assert_eq!(with.repaired, 0);
        assert!(with.repair_hints.is_empty());
    }

    #[test]
    fn repair_salvages_doomed_samples_and_reports_hints() {
        // Every sample reads a misspelled table: all statically doomed, so
        // plain UQ yields zero confidence; repair maps them back to the real
        // table and the salvaged samples agree.
        let mut p = prompt();
        p.task.table = "employmet".into();
        let c = catalog();
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.0, ..Default::default() });
        let plain = ConsistencyUq::new(&lm, &Analyzer::new(&c)).with_samples(6).run(&p).unwrap();
        assert_eq!(plain.confidence, 0.0);
        assert_eq!(plain.static_rejects, 6);
        let repaired = ConsistencyUq::new(&lm, &Analyzer::new(&c))
            .with_samples(6)
            .with_repair(2)
            .run(&p)
            .unwrap();
        assert_eq!(repaired.confidence, 1.0, "{repaired:?}");
        assert_eq!(repaired.repaired, 6);
        assert_eq!(repaired.static_rejects, 0);
        assert!(repaired.chosen_sql.as_deref().unwrap().contains("employment"));
        assert!(
            repaired.repair_hints.iter().any(|h| h.contains("employmet")),
            "{:?}",
            repaired.repair_hints
        );
        // The post-repair representative must itself pass the gate.
        assert!(!Analyzer::new(&c).execution_doomed(repaired.chosen_sql.as_deref().unwrap()));
    }

    #[test]
    fn equivalence_clustering_preserves_the_verdict_and_saves_executions() {
        // A clean model emits the same SQL k times: one fingerprint group,
        // one execution, k-1 saved — and a report otherwise identical to
        // the exhaustive path.
        let c = catalog();
        let analyzer = Analyzer::new(&c);
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.0, ..Default::default() });
        let off = ConsistencyUq::new(&lm, &analyzer).with_samples(8).run(&prompt()).unwrap();
        let on = ConsistencyUq::new(&lm, &analyzer)
            .with_samples(8)
            .with_equivalence(true)
            .run(&prompt())
            .unwrap();
        assert_eq!(off.equiv_groups, 0);
        assert_eq!(off.executions_saved, 0);
        assert_eq!(on.equiv_groups, 1);
        assert_eq!(on.executions_saved, 7);
        assert_eq!(on.confidence, off.confidence);
        assert_eq!(on.chosen_sql, off.chosen_sql);
        assert_eq!(on.clusters, off.clusters);
        assert_eq!(on.failed, off.failed);
    }

    #[test]
    fn equivalence_clustering_never_changes_confidence_under_noise() {
        // Across seeds and hallucination levels the clusters must be
        // byte-identical with equivalence on and off — only the execution
        // count may differ.
        let c = catalog();
        let analyzer = Analyzer::new(&c);
        for seed in 0..5u64 {
            let lm = SimLm::new(SimLmConfig {
                hallucination_rate: 0.6,
                seed,
                ..Default::default()
            });
            let off = ConsistencyUq::new(&lm, &analyzer)
                .with_samples(9)
                .with_repair(2)
                .run(&prompt())
                .unwrap();
            let on = ConsistencyUq::new(&lm, &analyzer)
                .with_samples(9)
                .with_repair(2)
                .with_equivalence(true)
                .run(&prompt())
                .unwrap();
            assert_eq!(on.confidence, off.confidence, "seed {seed}");
            assert_eq!(on.chosen_sql, off.chosen_sql, "seed {seed}");
            assert_eq!(on.clusters, off.clusters, "seed {seed}");
            assert_eq!(on.failed, off.failed, "seed {seed}");
            assert_eq!(on.repaired, off.repaired, "seed {seed}");
            assert!(on.equiv_groups >= on.clusters, "seed {seed}: {on:?}");
            // every gated sample either opened a group or reused one
            assert!(on.executions_saved + on.equiv_groups >= on.samples - on.failed, "seed {seed}");
        }
    }

    #[test]
    fn the_winner_record_is_what_the_caller_would_recompute() {
        // Every sample reads a misspelled table, so the winner is a repaired
        // candidate: the record must describe the post-repair statement.
        let mut p = prompt();
        p.task.table = "employmet".into();
        let c = catalog();
        let analyzer = Analyzer::new(&c);
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.3, seed: 3, ..Default::default() });
        let round = ConsistencyUq::new(&lm, &analyzer)
            .with_samples(7)
            .with_repair(2)
            .with_equivalence(true)
            .run_with(&p, |_| Known::<QueryResult>::Unknown)
            .unwrap();
        let winner = round.winner.expect("repair salvages the samples");
        assert_eq!(Some(&winner.sql), round.report.chosen_sql.as_ref());
        let gated = analyzer.gate_with_repair(&winner.sql, 2);
        assert!(gated.hints.is_empty() && !gated.report.dooms_execution());
        assert_eq!(winner.report, gated.report);
        let (logical, optimized) = winner.compiled.query().unwrap();
        assert_eq!(gated.compiled.unwrap().query().unwrap(), (logical, optimized));
        assert_eq!(winner.fingerprint, Some(EquivEngine::new().fingerprint(logical).as_u64()));
        let fresh = cda_sql::execute_plan(&c, optimized, Default::default()).unwrap();
        assert!(matches!(winner.execution, Execution::Ran(_)));
        assert_eq!(winner.execution.result().table, fresh.table);
        assert_eq!(winner.execution.result().plan, fresh.plan);
    }

    #[test]
    fn a_known_result_costs_no_execution_and_changes_nothing_else() {
        let c = catalog();
        let analyzer = Analyzer::new(&c);
        for seed in 0..5u64 {
            let lm =
                SimLm::new(SimLmConfig { hallucination_rate: 0.5, seed, ..Default::default() });
            let uq = ConsistencyUq::new(&lm, &analyzer)
                .with_samples(9)
                .with_repair(2)
                .with_equivalence(true);
            let cold = uq.run_with(&prompt(), |_| Known::<QueryResult>::Unknown).unwrap();
            assert_eq!(cold.report.known_results, 0);
            assert_eq!(cold.report, uq.run(&prompt()).unwrap());
            assert_eq!(cold.outcomes.len(), cold.report.equiv_groups);
            let Some(winner) = cold.winner else { continue };
            let (fp, result) = (winner.fingerprint.unwrap(), winner.execution.result().clone());
            // The caller holds the winner's result: one group fewer executes,
            // the caller's own record comes back, the verdict is unchanged.
            let warm = uq
                .run_with(&prompt(), |f| if f == fp { Known::Held(&result) } else { Known::Unknown })
                .unwrap();
            assert_eq!(warm.report.known_results, 1, "seed {seed}");
            assert_eq!(warm.outcomes.len(), cold.outcomes.len() - 1, "seed {seed}");
            assert_eq!(ConsistencyReport { known_results: 0, ..warm.report }, cold.report);
            let served = warm.winner.unwrap();
            assert_eq!((served.sql, served.fingerprint), (winner.sql, Some(fp)));
            assert!(matches!(served.execution, Execution::Held(r) if std::ptr::eq(r, &result)));
        }
    }

    #[test]
    fn known_outcomes_execute_only_a_winning_representative_and_change_nothing_else() {
        let c = catalog();
        let analyzer = Analyzer::new(&c);
        let mut late = 0;
        for seed in 0..8u64 {
            let lm =
                SimLm::new(SimLmConfig { hallucination_rate: 0.5, seed, ..Default::default() });
            let uq = ConsistencyUq::new(&lm, &analyzer)
                .with_samples(9)
                .with_repair(2)
                .with_equivalence(true);
            let cold = uq.run_with(&prompt(), |_| Known::<QueryResult>::Unknown).unwrap();
            let recorded: HashMap<u64, GroupOutcome> =
                cold.outcomes.iter().map(|o| (o.fingerprint, o.clone())).collect();
            // Every group's outcome is known, none of its results: the round
            // clusters without executing, then runs the representative once.
            let warm = uq
                .run_with(&prompt(), |f| {
                    Known::<QueryResult>::Outcome(recorded[&f].signature.clone())
                })
                .unwrap();
            let groups = cold.report.equiv_groups;
            assert_eq!(warm.report.known_results, groups, "seed {seed}");
            assert_eq!(ConsistencyReport { known_results: 0, ..warm.report }, cold.report);
            let Some(winner) = cold.winner else {
                assert!(warm.winner.is_none() && warm.outcomes.is_empty(), "seed {seed}");
                continue;
            };
            late += 1;
            let served = warm.winner.unwrap();
            assert_eq!((&served.sql, served.fingerprint), (&winner.sql, winner.fingerprint));
            assert!(matches!(served.execution, Execution::Ran(_)));
            assert_eq!(served.execution.result().table, winner.execution.result().table);
            assert_eq!(warm.outcomes, vec![recorded[&winner.fingerprint.unwrap()].clone()]);
        }
        assert!(late > 0);
    }

    #[test]
    fn the_lookup_is_keyed_by_fingerprint_so_it_needs_equivalence() {
        let c = catalog();
        let analyzer = Analyzer::new(&c);
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.0, ..Default::default() });
        let round = ConsistencyUq::new(&lm, &analyzer)
            .with_samples(4)
            .run_with(&prompt(), |_| -> Known<QueryResult> { panic!("never consulted") })
            .unwrap();
        assert_eq!(round.report.known_results, 0);
        assert_eq!(round.winner.unwrap().fingerprint, None);
    }

    #[test]
    fn the_sanitizer_is_verdict_neutral() {
        let c = catalog();
        let analyzer = Analyzer::new(&c);
        let stats = Statistics::from_catalog(&c);
        for seed in 0..5u64 {
            let lm =
                SimLm::new(SimLmConfig { hallucination_rate: 0.5, seed, ..Default::default() });
            let uq = ConsistencyUq::new(&lm, &analyzer).with_samples(9).with_equivalence(true);
            assert_eq!(
                uq.with_sanitizer(Some(&stats)).run(&prompt()).unwrap(),
                uq.run(&prompt()).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn report_is_deterministic() {
        let c = catalog();
        let a = Analyzer::new(&c);
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.5, seed: 7, ..Default::default() });
        let first = ConsistencyUq::new(&lm, &a).with_samples(9).run(&prompt()).unwrap();
        let second = ConsistencyUq::new(&lm, &a).with_samples(9).run(&prompt()).unwrap();
        assert_eq!(first, second);
    }
}
