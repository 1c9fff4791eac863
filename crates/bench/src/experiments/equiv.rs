//! **E16** — the plan-equivalence engine at work: certified optimizer
//! rewrites, the semantic answer cache, and equivalence-aware consistency
//! UQ.
//!
//! Three measurements, one per consumer of `cda_analyzer::equiv`:
//!
//! 1. **Certification** — every optimizer rule is differentially certified
//!    against the canonicalizer over a 20-query corpus; reported per rule:
//!    `equivalent` / `refuted` / `unknown` counts and certification time.
//!    A gate requires 100% `Equivalent`; a refutation is listed with its
//!    verdict and fails the gate.
//! 2. **Semantic cache** — a scripted demo-system conversation with
//!    repeated and re-phrased analysis turns is replayed with the cache on
//!    and off; reported: hit rate, infrastructure wall-clock both ways, and
//!    whether every turn's answer is byte-identical to fresh execution
//!    (after stripping the `[cache]` transcript note).
//! 3. **Equivalence-aware UQ** — consistency UQ with equivalence-aware
//!    clustering on vs off across seeds and hallucination rates; reported:
//!    executions saved and the maximum confidence delta, which must be
//!    exactly 0 (the clustering is provably behavior-neutral).
//!
//! A fast budget shrinks the UQ sweep to 3 seeds.

use cda_analyzer::{certify_optimizer, Analyzer, EquivEngine};
use crate::{clock, row, Budget, Experiment};
use cda_core::demo::demo_session;
use cda_core::reliability::CdaConfig;
use cda_dataframe::kernels::AggKind;
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_nlmodel::lm::{Nl2SqlPrompt, SimLm, SimLmConfig};
use cda_nlmodel::nl2sql::AnalyticTask;
use cda_soundness::consistency::ConsistencyUq;
use cda_sql::Catalog;
use std::time::Duration;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let emp = Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("sector", DataType::Str),
            Field::new("jobs", DataType::Int),
            Field::new("rate", DataType::Float),
        ]),
        vec![
            Column::from_strs(&["ZH", "ZH", "GE", "VD", "TI", "BE"]),
            Column::from_strs(&["it", "fin", "it", "gov", "edu", "it"]),
            Column::from_ints(&[120, 80, 45, 60, 30, 75]),
            Column::from_floats(&[0.6, 0.4, 0.7, 0.5, 0.3, 0.8]),
        ],
    )
    .unwrap();
    let regions = Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("population", DataType::Int),
        ]),
        vec![
            Column::from_strs(&["ZH", "GE", "VD", "BE"]),
            Column::from_ints(&[1500, 500, 800, 1000]),
        ],
    )
    .unwrap();
    c.register("emp", emp).unwrap();
    c.register("regions", regions).unwrap();
    c
}

fn corpus() -> Vec<String> {
    [
        "SELECT canton, jobs FROM emp WHERE 1 + 1 = 2 AND jobs > 50",
        "SELECT canton FROM emp WHERE jobs > 10 + 20",
        "SELECT e.canton, r.population FROM emp e JOIN regions r ON e.canton = r.canton \
         WHERE e.jobs > 40",
        "SELECT e.canton, r.population FROM emp e LEFT JOIN regions r ON e.canton = r.canton \
         WHERE e.sector = 'it'",
        "SELECT e.canton FROM emp e JOIN regions r ON e.canton = r.canton \
         WHERE e.jobs > 40 AND r.population > 600",
        "SELECT canton, SUM(jobs) FROM emp GROUP BY canton",
        "SELECT sector, AVG(rate) FROM emp WHERE jobs > 30 GROUP BY sector ORDER BY sector",
        "SELECT DISTINCT sector FROM emp WHERE rate > 0.35",
        "SELECT canton FROM emp ORDER BY jobs DESC LIMIT 3",
        "SELECT canton, jobs FROM emp ORDER BY canton LIMIT 2 OFFSET 1",
        "SELECT canton FROM emp WHERE sector IN ('it', 'fin') AND jobs BETWEEN 40 AND 130",
        "SELECT canton FROM emp WHERE canton LIKE 'Z%' OR rate < 0.45",
        "SELECT canton, CASE WHEN jobs > 70 THEN 'big' ELSE 'small' END FROM emp",
        "SELECT COUNT(*) FROM emp WHERE NOT (sector = 'gov')",
        "SELECT canton FROM emp WHERE jobs > 50 AND sector = 'it' AND rate > 0.5",
        "SELECT canton, 100 / jobs FROM emp WHERE jobs > 0",
        "SELECT MIN(jobs), MAX(jobs) FROM emp",
        "SELECT canton FROM emp WHERE jobs * 2 > 100 ORDER BY jobs",
        "SELECT e.sector, SUM(r.population) FROM emp e JOIN regions r ON e.canton = r.canton \
         GROUP BY e.sector",
        "SELECT canton FROM emp WHERE rate >= 0.4 AND rate <= 0.7 AND canton <> 'TI'",
    ]
    .into_iter()
    .map(str::to_owned)
    .collect()
}

/// The answer text with the cache annotations removed, for byte-identity
/// comparison against a fresh-execution run.
fn strip_cache_note(text: &str) -> String {
    text.lines()
        .filter(|l| !l.contains("reused") && !l.is_empty())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Run E16.
pub fn run(budget: &Budget) -> Experiment {
    let mut e = Experiment::new(
        "E16",
        "plan equivalence: certified rewrites, semantic cache, UQ clustering",
    );

    // ---- 1. differential certification of every optimizer rule ----------
    let c = catalog();
    let engine = EquivEngine::new().with_trials(8).with_seed(0xE16);
    let (report, t_cert) = clock(1, || certify_optimizer(&engine, &c, &corpus()));
    let mut certification = crate::Table::new(
        format!("optimizer rule certification ({} queries)", corpus().len()),
        &["rule", "checks", "equivalent", "refuted", "unknown"],
    );
    let mut rules: Vec<&str> = Vec::new();
    for ch in &report.checks {
        if !rules.contains(&ch.rule) {
            rules.push(ch.rule);
        }
    }
    for rule in rules {
        let checks: Vec<_> = report.checks.iter().filter(|ch| ch.rule == rule).collect();
        let eq = checks.iter().filter(|ch| ch.result.is_equivalent()).count();
        let refuted =
            checks.iter().filter(|ch| ch.result.label() == "not-equivalent").count();
        let unknown = checks.len() - eq - refuted;
        row!(certification; rule, checks.len(), eq, refuted, unknown);
    }
    e.tables.push(certification);
    let mut uncertified =
        crate::Table::new("uncertified rewrites", &["rule", "query", "verdict"]);
    for ch in report.uncertified() {
        row!(uncertified; ch.rule, ch.sql.as_str(), format!("{:?}", ch.result));
    }
    if !uncertified.rows.is_empty() {
        e.tables.push(uncertified);
    }
    let all_certified = report.all_certified();
    let mut t = crate::Table::new("certification time", &["corpus", "time"]);
    row!(t; "all rules", t_cert);
    e.tables.push(t);

    // ---- 2. semantic answer cache over a scripted conversation ----------
    let script = [
        "What is the total employees in employment_by_type per canton?",
        "and per type instead?",
        "and per canton instead?",
        "What is the total employees in employment_by_type per canton?",
        "and per type instead?",
    ];
    let run = |cache: bool| {
        let config = CdaConfig { semantic_cache: cache, ..CdaConfig::default() };
        let mut s = demo_session(1).with_config(config);
        let mut texts = Vec::new();
        let mut infra = Duration::ZERO;
        for utterance in script {
            let a = s.process(utterance);
            infra += a.timings.infrastructure;
            texts.push(strip_cache_note(&a.text));
        }
        let cache = s.stats().cache;
        (texts, infra, cache.hits, cache.misses, cache.hit_rate)
    };
    let (texts_on, infra_on, hits, misses, hit_rate) = run(true);
    let (texts_off, infra_off, ..) = run(false);
    let byte_identical = texts_on == texts_off;
    let mut cache = crate::Table::new(
        "semantic answer cache (demo-system replay, cache on vs off)",
        &["turns", "hits", "misses", "hit-rate", "identical", "infra-on", "infra-off"],
    );
    row!(cache; script.len(), hits, misses, hit_rate, byte_identical, infra_on, infra_off);
    e.tables.push(cache);

    // ---- 3. equivalence-aware consistency UQ ----------------------------
    let analyzer = Analyzer::new(&c);
    let prompt = Nl2SqlPrompt {
        task: AnalyticTask {
            table: "emp".into(),
            agg: AggKind::Sum,
            metric: Some("jobs".into()),
            group_by: Some("canton".into()),
            filters: vec![],
            order_desc: false,
            limit: None,
        },
        schema: c.get("emp").unwrap().table.schema().clone(),
        other_tables: vec!["regions".into()],
    };
    let seeds: u64 = if budget.fast { 3 } else { 10 };
    let mut total_saved = 0usize;
    let mut max_delta = 0.0f64;
    let mut uq = crate::Table::new(
        "equivalence-aware consistency UQ (9 samples, repair 2): clustering on vs off",
        &["halluc", "seeds", "saved", "max-dconf"],
    );
    for pct in [0u32, 30, 60] {
        let h = f64::from(pct) / 100.0;
        let mut saved = 0usize;
        let mut delta = 0.0f64;
        for seed in 0..seeds {
            let lm = SimLm::new(SimLmConfig { hallucination_rate: h, seed, ..Default::default() });
            let base = ConsistencyUq::new(&lm, &analyzer).with_samples(9).with_repair(2);
            let off = base.run(&prompt).unwrap();
            let on = base.with_equivalence(true).run(&prompt).unwrap();
            saved += on.executions_saved;
            delta = delta.max((on.confidence - off.confidence).abs());
        }
        total_saved += saved;
        max_delta = max_delta.max(delta);
        row!(uq; format!("{pct}%"), seeds, saved, delta);
    }
    e.tables.push(uq);

    e.gate("all rewrites certified", all_certified, all_certified);
    e.gate("cache hit rate > 0", format!("{hit_rate:.3}"), hit_rate > 0.0);
    e.gate("cached answers byte-identical", byte_identical, byte_identical);
    e.gate("UQ executions saved > 0", total_saved, total_saved > 0);
    e.gate("max UQ confidence delta == 0", format!("{max_delta:.3}"), max_delta == 0.0);
    e
}
