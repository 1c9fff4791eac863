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

//! When the dialogue layer enables analyzer-guided repair
//! ([`ConsistencyUq::with_repair`]), statically-doomed samples are first
//! run through the hint-apply-regate loop of `cda_analyzer::repair`; a
//! salvaged sample clusters under its **post-repair** SQL, so the UQ signal
//! sees the candidates the decoder would actually return, and the report
//! records how many samples repair rescued.
//!
//! The [`ConsistencyUq`] builder additionally supports **equivalence-aware**
//! clustering ([`with_equivalence`](ConsistencyUq::with_equivalence)):
//! post-repair candidate plans are fingerprinted by `cda_analyzer::equiv`,
//! and samples whose canonical plans certify equivalent share one execution
//! — agreement is decided over *meaning*, so syntactic variants of the same
//! query merge into one cluster without paying k executions. Because equal
//! fingerprints guarantee identical results on the deterministic executor,
//! the clusters (and therefore the confidence) are provably unchanged; the
//! report's `executions_saved` counts the wall-clock win (E16 measures it).

use crate::verify::result_signature;
use crate::{Result, SoundnessError};
use cda_analyzer::equiv::EquivEngine;
use cda_analyzer::{apply_hints, Analyzer, Report};
use cda_nlmodel::lm::{Nl2SqlPrompt, SimLm};
use cda_sql::{Catalog, Compiled};
use std::collections::HashMap;

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
}

/// Run consistency-based UQ: sample `k` candidates at `temperature`, cluster
/// by execution signature, return the majority representative + confidence.
/// Statically-doomed samples count as failed without executing; repair and
/// equivalence-aware clustering are off (see [`ConsistencyUq`]).
pub fn consistency_confidence(
    lm: &SimLm,
    prompt: &Nl2SqlPrompt,
    catalog: &Catalog,
    k: usize,
    temperature: f64,
) -> Result<ConsistencyReport> {
    ConsistencyUq::new(lm, &Analyzer::new(catalog))
        .with_samples(k)
        .with_temperature(temperature)
        .run(prompt)
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
}

impl<'a> ConsistencyUq<'a> {
    /// UQ over this model, gated by this analyzer; defaults: 8 samples,
    /// temperature 1.0, repair off, equivalence-aware clustering off.
    pub fn new(lm: &'a SimLm, analyzer: &'a Analyzer<'a>) -> Self {
        Self {
            lm,
            analyzer,
            samples: 8,
            temperature: 1.0,
            repair_rounds: 0,
            equivalence: false,
            exec_options: cda_sql::ExecOptions::default(),
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

    /// Hint-apply-regate rounds per statically-doomed sample (0 = off).
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

    /// Enable equivalence-aware clustering: fingerprint each post-repair
    /// candidate plan and execute only one representative per certified-
    /// equivalent group, sharing its execution signature. Equal fingerprints
    /// guarantee identical execution on the deterministic engine, so the
    /// resulting clusters — and the confidence — are provably identical to
    /// the exhaustive path; only `executions_saved` changes.
    pub fn with_equivalence(mut self, on: bool) -> Self {
        self.equivalence = on;
        self
    }

    /// Run the UQ round.
    pub fn run(&self, prompt: &Nl2SqlPrompt) -> Result<ConsistencyReport> {
        let k = self.samples;
        if k == 0 {
            return Err(SoundnessError::NoSamples);
        }
        let analyzer = self.analyzer;
        let catalog = analyzer.catalog();
        let engine = EquivEngine::new();
        let gens = self.lm.sample_k(prompt, self.temperature, k);
        let naive_confidence =
            gens.iter().map(cda_nlmodel::lm::Generation::naive_confidence).sum::<f64>() / k as f64;
        let mut clusters: HashMap<String, Vec<usize>> = HashMap::new();
        let mut failed = 0usize;
        let mut static_rejects = 0usize;
        let mut repaired = 0usize;
        // Equivalence bookkeeping: fingerprint → shared execution signature.
        let mut sig_by_fp: HashMap<u64, Option<String>> = HashMap::new();
        let mut executions_saved = 0usize;
        // Per sample: the SQL it clusters under and the hints that produced it.
        let mut effective: Vec<String> = Vec::with_capacity(k);
        let mut sample_hints: Vec<Vec<String>> = vec![Vec::new(); k];
        for (i, g) in gens.iter().enumerate() {
            effective.push(g.sql.clone());
            // Pre-execution gate, which also compiles the candidate — once,
            // for the gate, the fingerprint and the execution alike.
            // Statically-doomed candidates cannot produce an execution
            // signature. Try to repair them first; still-doomed ones count
            // failed without executing, exactly as with repair disabled.
            let (report, mut compiled) = analyzer.gate(&g.sql);
            if report.dooms_execution() {
                match repair_sample(analyzer, &g.sql, report, self.repair_rounds) {
                    Some((sql, hints, fixed)) => {
                        effective[i] = sql;
                        sample_hints[i] = hints;
                        compiled = Some(fixed);
                    }
                    None => {
                        failed += 1;
                        static_rejects += 1;
                        continue;
                    }
                }
            }
            // Only a query has a result to sign (the LM emits nothing else).
            let sig = compiled.as_ref().and_then(Compiled::query).and_then(|(logical, optimized)| {
                let execute = || {
                    cda_sql::execute_plan(catalog, optimized, self.exec_options)
                        .ok()
                        .map(|r| result_signature(&r.table))
                };
                if !self.equivalence {
                    return execute();
                }
                let fp = engine.fingerprint(logical).as_u64();
                match sig_by_fp.get(&fp) {
                    Some(shared) => {
                        // A prior sample's canonical plan was identical:
                        // its outcome is this sample's outcome.
                        executions_saved += 1;
                        shared.clone()
                    }
                    None => {
                        let sig = execute();
                        sig_by_fp.insert(fp, sig.clone());
                        sig
                    }
                }
            });
            match sig {
                Some(sig) => {
                    clusters.entry(sig).or_default().push(i);
                    if !sample_hints[i].is_empty() {
                        repaired += 1;
                    }
                }
                None => failed += 1,
            }
        }
        let equiv_groups = sig_by_fp.len();
        if clusters.is_empty() {
            return Ok(ConsistencyReport {
                chosen_sql: None,
                confidence: 0.0,
                samples: k,
                clusters: 0,
                failed,
                static_rejects,
                naive_confidence,
                repaired,
                repair_hints: Vec::new(),
                equiv_groups,
                executions_saved,
            });
        }
        // Majority cluster; ties broken deterministically by signature order.
        let mut entries: Vec<(&String, &Vec<usize>)> = clusters.iter().collect();
        entries.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(b.0)));
        let (_, members) = entries[0];
        let representative = effective[members[0]].clone();
        // The winning cluster's mass may rest partly on repaired members: the
        // hints of its first repaired member (if any) annotate the answer,
        // even when the representative itself was sampled clean — the vote
        // was.
        let repair_hints = members
            .iter()
            .find(|&&i| !sample_hints[i].is_empty())
            .map(|&i| sample_hints[i].clone())
            .unwrap_or_default();
        Ok(ConsistencyReport {
            chosen_sql: Some(representative),
            confidence: members.len() as f64 / k as f64,
            samples: k,
            clusters: clusters.len(),
            failed,
            static_rejects,
            naive_confidence,
            repaired,
            repair_hints,
            equiv_groups,
            executions_saved,
        })
    }
}

/// Hint-apply-regate loop for one doomed sample, starting from its gate
/// `report`. Returns the repaired SQL, the rendered hints and the compiled
/// statement when some round clears the gate (not doomed and within
/// budget), `None` otherwise.
fn repair_sample(
    analyzer: &Analyzer<'_>,
    sql: &str,
    mut report: Report,
    rounds: usize,
) -> Option<(String, Vec<String>, Compiled)> {
    let mut sql = sql.to_owned();
    let mut rendered: Vec<String> = Vec::new();
    for _ in 0..rounds {
        let hints = analyzer.repair_hints(&sql, &report);
        if hints.is_empty() {
            return None;
        }
        sql = apply_hints(&sql, &hints)?;
        rendered.extend(hints.iter().map(ToString::to_string));
        let (next, compiled) = analyzer.gate(&sql);
        match compiled {
            Some(compiled) if !next.dooms_execution() && !next.exceeds_budget() => {
                return Some((sql, rendered, compiled))
            }
            _ => report = next,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_dataframe::kernels::AggKind;
    use cda_dataframe::{Column, DataType, Field, Schema, Table};
    use cda_nlmodel::lm::SimLmConfig;
    use cda_nlmodel::nl2sql::AnalyticTask;

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
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.0, ..Default::default() });
        let r = consistency_confidence(&lm, &prompt(), &catalog(), 8, 1.0).unwrap();
        assert_eq!(r.confidence, 1.0);
        assert_eq!(r.clusters, 1);
        assert_eq!(r.failed, 0);
        assert_eq!(r.chosen_sql.as_deref(), Some(prompt().task.to_sql().as_str()));
    }

    #[test]
    fn noisy_model_reduces_consistency_confidence() {
        let clean = SimLm::new(SimLmConfig { hallucination_rate: 0.0, seed: 1, ..Default::default() });
        let noisy = SimLm::new(SimLmConfig { hallucination_rate: 0.7, seed: 1, ..Default::default() });
        let rc = consistency_confidence(&clean, &prompt(), &catalog(), 10, 1.0).unwrap();
        let rn = consistency_confidence(&noisy, &prompt(), &catalog(), 10, 1.0).unwrap();
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
        let r = consistency_confidence(&noisy, &prompt(), &catalog(), 12, 1.0).unwrap();
        assert!(r.naive_confidence > 0.7, "naive {}", r.naive_confidence);
        assert!(r.confidence < r.naive_confidence, "consistency should be lower");
    }

    #[test]
    fn zero_samples_is_an_error() {
        let lm = SimLm::new(SimLmConfig::default());
        assert!(matches!(
            consistency_confidence(&lm, &prompt(), &catalog(), 0, 1.0),
            Err(SoundnessError::NoSamples)
        ));
    }

    #[test]
    fn all_failing_samples_yield_zero_confidence() {
        // a prompt against a missing table never executes
        let mut p = prompt();
        p.task.table = "missing".into();
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.0, ..Default::default() });
        let r = consistency_confidence(&lm, &p, &catalog(), 5, 1.0).unwrap();
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
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.0, ..Default::default() });
        let r = consistency_confidence(&lm, &p, &catalog(), 5, 1.0).unwrap();
        assert_eq!(r.failed, 5);
        assert_eq!(r.static_rejects, 5);
        assert_eq!(r.confidence, 0.0);
        // A clean prompt never trips the gate (zero false rejects).
        let clean = consistency_confidence(&lm, &prompt(), &catalog(), 8, 1.0).unwrap();
        assert_eq!(clean.static_rejects, 0);
        assert_eq!(clean.confidence, 1.0);
    }

    #[test]
    fn repair_zero_rounds_matches_plain_entry_point() {
        let c = catalog();
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.6, seed: 5, ..Default::default() });
        let plain = consistency_confidence(&lm, &prompt(), &c, 9, 1.0).unwrap();
        let with = ConsistencyUq::new(&lm, &Analyzer::new(&c))
            .with_samples(9)
            .with_repair(0)
            .run(&prompt())
            .unwrap();
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
        let plain = consistency_confidence(&lm, &p, &c, 6, 1.0).unwrap();
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
    fn report_is_deterministic() {
        let lm = SimLm::new(SimLmConfig { hallucination_rate: 0.5, seed: 7, ..Default::default() });
        let a = consistency_confidence(&lm, &prompt(), &catalog(), 9, 1.0).unwrap();
        let b = consistency_confidence(&lm, &prompt(), &catalog(), 9, 1.0).unwrap();
        assert_eq!(a, b);
    }
}
