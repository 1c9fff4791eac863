//! Self-tests of the benchmark harness: the statistics it reports, the span
//! arithmetic, the input generators' guarantees, the results format, and a
//! `--smoke` run of all five workloads.

use cda_perf::inputs::{self, Deck, MixSpec};
use cda_perf::report::{self, Row, Verdict};
use cda_perf::stats;
use cda_perf::trace::{self, Span, Tracer};
use cda_perf::workloads::{self, RunArgs, Sizes, END_TO_END, PER_LAYER, WORKLOADS};
use cda_testkit::rng::StdRng;
use std::collections::BTreeSet;

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::percentile(&v, 50.0), Some(50.0));
    assert_eq!(stats::percentile(&v, 95.0), Some(95.0));
    assert_eq!(stats::percentile(&v, 100.0), Some(100.0));
    assert_eq!(stats::percentile(&[7.0], 99.0), Some(7.0));
    assert_eq!(stats::percentile(&[], 50.0), None);
    // order of the input does not matter
    assert_eq!(stats::percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(stats::samples_beyond(200, 95.0), 10);
    assert!(stats::supports_percentile(200, 95.0));
    assert!(!stats::supports_percentile(199, 95.0));
    assert!(stats::supports_percentile(1000, 99.0));
    assert!(!stats::supports_percentile(999, 99.0));
    assert!(stats::supports_percentile(20, 50.0));
    assert!(!stats::supports_percentile(19, 50.0));
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles(&v), Some([2.75, 5.5, 8.25]));
    assert!((stats::quartile_spread(&v) - 1.0).abs() < 1e-12);
    // statistics.quantiles([10, 11, 13, 20], n=4) == [10.25, 12.0, 18.25]
    assert_eq!(
        stats::quartiles(&[13.0, 10.0, 20.0, 11.0]),
        Some([10.25, 12.0, 18.25])
    );
    assert_eq!(stats::quartile_spread(&[5.0]), 0.0);
}

fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        op_id: 1,
        name: "x",
        layer: "l",
        start_ns,
        end_ns,
        overlapping: false,
    }
}

#[test]
fn self_time_subtracts_nested_and_overlapping_children_once() {
    let spans = vec![
        span(0, None, 0, 100),     // parent
        span(1, Some(0), 10, 40),  // child
        span(2, Some(0), 30, 60),  // overlaps child 1 by 10
        span(3, Some(2), 35, 50),  // grandchild: subtracts from 2 only
        span(4, Some(0), 90, 130), // sticks out of the parent: clipped to 10
        span(5, Some(0), 20, 25),  // fully inside child 1's interval
    ];
    let own = trace::self_times_ns(&spans);
    // children cover [10,60) and [90,100) of the parent: 60 of 100
    assert_eq!(own[0], 40);
    assert_eq!(own[1], 30);
    assert_eq!(own[2], 15);
    assert_eq!(own[3], 15);
    assert_eq!(own[4], 40);
    let by_layer = trace::layer_self_ns(&spans, |_| true);
    assert_eq!(by_layer["l"], own.iter().sum::<u64>());
}

#[test]
fn tracer_nests_spans_and_marks_overlapping_ones() {
    let mut tr = Tracer::new();
    tr.set_op(7);
    let outer = tr.begin("outer", "perf");
    tr.time("inner", "cda-sql", || std::hint::black_box(1 + 1));
    tr.time_overlapping("whole", "cda-soundness", || ());
    tr.end(outer);
    let spans = tr.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert!(spans.iter().all(|s| s.op_id == 7 && s.end_ns >= s.start_ns));
    assert!(spans[2].overlapping && !spans[1].overlapping);
    assert!(trace::is_replayed_layer_work(&spans[1]));
    assert!(!trace::is_replayed_layer_work(&spans[0]) && !trace::is_replayed_layer_work(&spans[2]));
    assert_eq!(trace::per_op_ns(spans, "inner")[&7], spans[1].duration_ns());
    let json = trace::spans_to_json(spans).to_string();
    let back = cda_testkit::json::parse(&json).unwrap();
    assert_eq!(back.as_arr().unwrap().len(), 3);
    assert_eq!(
        back.as_arr().unwrap()[1].get("name").unwrap().as_str(),
        Some("inner")
    );
}

#[test]
fn generators_are_deterministic_in_the_seed() {
    assert_eq!(inputs::scaled_table(512, 9), inputs::scaled_table(512, 9));
    assert_ne!(inputs::scaled_table(512, 9), inputs::scaled_table(512, 10));
    let args = |seed| RunArgs {
        seed,
        seconds: 1.0,
        trace: false,
        sizes: Sizes::new(true),
    };
    let a = workloads::chat::setup_fig1(&args(5));
    assert_eq!(
        a.inputs_fnv(),
        workloads::chat::setup_fig1(&args(5)).inputs_fnv()
    );
    assert_ne!(
        a.inputs_fnv(),
        workloads::chat::setup_fig1(&args(6)).inputs_fnv()
    );
    let s = workloads::server::setup(&args(5), true);
    assert_eq!(
        s.inputs_fnv(),
        workloads::server::setup(&args(5), true).inputs_fnv()
    );
    assert_ne!(
        s.inputs_fnv(),
        workloads::server::setup(&args(5), false).inputs_fnv()
    );
    let mut r1 = StdRng::seed_from_u64(3);
    let mut r2 = StdRng::seed_from_u64(3);
    let order = inputs::interleave(&[3, 0, 2], &mut r1);
    assert_eq!(order, inputs::interleave(&[3, 0, 2], &mut r2));
    // every session's own turns stay in order
    for s in 0..3 {
        let turns: Vec<usize> = order
            .iter()
            .filter(|(x, _)| *x == s)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(turns, (0..[3, 0, 2][s]).collect::<Vec<_>>());
    }
}

#[test]
fn fig1_sessions_never_repeat_a_plan_and_scan_sessions_repeat_half() {
    let world = cda_core::demo::demo_world(4);
    let pool = inputs::question_pool(&world, 96, 4, |_| true);
    let plans: BTreeSet<u64> = pool
        .iter()
        .map(|t| inputs::fingerprint(&world, &t.gold_sql).unwrap())
        .collect();
    assert_eq!(
        plans.len(),
        pool.len(),
        "pool questions must have distinct plans"
    );

    let mut rng = StdRng::seed_from_u64(4);
    let spec = MixSpec {
        turns: 40,
        conversational_pct: 30,
        refine_pct: 25,
        no_repeat: true,
    };
    for _ in 0..50 {
        let script = inputs::mixed_script(&pool, spec, &mut rng);
        assert_eq!(script.len(), 40);
        let asked: Vec<&String> = script
            .iter()
            .filter(|u| pool.iter().any(|t| &t.question == *u))
            .collect();
        let distinct: BTreeSet<&String> = asked.iter().copied().collect();
        assert_eq!(
            asked.len(),
            distinct.len(),
            "a question repeated inside a session"
        );
        assert!(asked.len() >= 10, "too few nl2sql turns: {}", asked.len());
    }

    // chat_scan: a repeat is a turn whose task was already asked in the session.
    let fact = inputs::template_pool(&world, inputs::FACT_TABLE, 4);
    let small = inputs::template_pool(&world, inputs::SMALL_TABLE, 4);
    let mut fact_deck = Deck::new(fact.len(), &mut rng);
    let mut small_deck = Deck::new(small.len(), &mut rng);
    let tables = world.workload_tables();
    let (mut repeats, mut turns, mut on_small) = (0usize, 0usize, 0usize);
    for _ in 0..200 {
        let script = inputs::scan_script(
            &world,
            (&fact, &mut fact_deck),
            (&small, &mut small_deck),
            20,
            0.5,
            &mut rng,
        );
        let mut seen = Vec::new();
        for utterance in &script {
            let task = cda_nlmodel::nl2sql::parse_question(utterance, tables).expect("parses");
            turns += 1;
            if seen.contains(&task) {
                repeats += 1;
            } else {
                on_small += usize::from(task.table == inputs::SMALL_TABLE);
                seen.push(task);
            }
        }
    }
    let share = repeats as f64 / turns as f64;
    assert!((0.42..=0.52).contains(&share), "repeat share {share}");
    let small_share = on_small as f64 / (turns - repeats) as f64;
    assert!(
        (0.15..=0.25).contains(&small_share),
        "small-table share {small_share}"
    );
}

#[test]
fn template_pools_hold_the_same_query_shapes_for_every_seed() {
    let world = cda_core::demo::demo_world(4);
    let shapes = |seed| -> Vec<_> {
        inputs::template_pool(&world, inputs::FACT_TABLE, seed)
            .into_iter()
            .map(|t| {
                let filtered: Vec<String> =
                    t.task.filters.iter().map(|f| f.column.clone()).collect();
                (t.task.agg, t.task.metric, t.task.group_by, filtered)
            })
            .collect()
    };
    let a = shapes(4);
    assert!(a.len() >= 60, "only {} shapes", a.len());
    assert_eq!(
        a,
        shapes(5),
        "the seed may pick literals and phrasings, not shapes"
    );
    let questions = |seed| -> Vec<String> {
        inputs::template_pool(&world, inputs::FACT_TABLE, seed)
            .into_iter()
            .map(|t| t.question)
            .collect()
    };
    assert_eq!(questions(4), questions(4));
    assert_ne!(questions(4), questions(5));
    let plans: BTreeSet<u64> = inputs::template_pool(&world, inputs::SMALL_TABLE, 4)
        .iter()
        .map(|t| inputs::fingerprint(&world, &t.gold_sql).unwrap())
        .collect();
    assert!(plans.len() >= 30);
    let mut rng = StdRng::seed_from_u64(1);
    let mut deck = Deck::new(5, &mut rng);
    let dealt: BTreeSet<usize> = (0..5).map(|_| deck.draw(&mut rng)).collect();
    assert_eq!(
        dealt.len(),
        5,
        "a deck deals every index once before reshuffling"
    );
}

#[test]
fn writer_turns_rotate_cantons_and_doom_one_in_ten() {
    let turns: Vec<String> = (0..20).map(inputs::write_turn).collect();
    assert!(turns.iter().all(|t| inputs::is_write(t)));
    assert_eq!(
        turns.iter().filter(|t| inputs::is_doomed_write(t)).count(),
        2
    );
    assert_ne!(turns[0], turns[1]);
    assert!(!inputs::is_write(
        "What is the total employees in employment_by_type?"
    ));
}

#[test]
fn results_round_trip_through_testkit_json() {
    let rows = vec![
        Row {
            workload: "chat_fig1".into(),
            metric: "turn_p50_us".into(),
            unit: "us".into(),
            value: 253.4781,
            n: 83000,
            seed: 11,
        },
        Row {
            workload: "server_rw".into(),
            metric: "turns_per_s".into(),
            unit: "turns/s".into(),
            value: 3164.0,
            n: 8,
            seed: 12,
        },
    ];
    let text = report::rows_to_json(&rows).to_string();
    assert_eq!(report::rows_from_json(&text).unwrap(), rows);
    assert!(report::rows_from_json("{}").is_err());
}

#[test]
fn compare_gives_a_verdict_per_metric_and_flags_noisy_inputs() {
    let bounds = report::parse_bounds(
        r#"{"end_to_end": [
            {"name": "turn_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
            {"name": "turns_per_s", "unit": "turns/s", "better": "higher", "bound": 0.1}]}"#,
    )
    .unwrap();
    let row = |metric: &str, value: f64| Row {
        workload: "w".into(),
        metric: metric.into(),
        unit: "u".into(),
        value,
        n: 1,
        seed: 0,
    };
    let parent = vec![
        row("turn_p50_us", 100.0),
        row("turns_per_s", 100.0),
        row("other", 1.0),
    ];
    let change = vec![
        row("turn_p50_us", 120.0),
        row("turns_per_s", 125.0),
        row("other", 9.0),
    ];
    let rows = report::compare(&parent, &change, &bounds);
    assert_eq!(rows.len(), 2, "metrics without a bound are not compared");
    let verdict = |m: &str| rows.iter().find(|c| c.metric == m).unwrap().verdict;
    assert_eq!(verdict("turn_p50_us"), Verdict::Worse);
    assert_eq!(verdict("turns_per_s"), Verdict::Better);
    assert_eq!(
        report::compare(&parent, &parent, &bounds)[0].verdict,
        Verdict::Same
    );
    // a side whose own runs spread wider than the bound resolves nothing
    let noisy: Vec<Row> = [60.0, 80.0, 100.0, 120.0, 140.0]
        .iter()
        .map(|v| row("turn_p50_us", *v))
        .collect();
    assert_eq!(
        report::compare(&noisy, &change, &bounds)[0].verdict,
        Verdict::Unresolved
    );
}

#[test]
fn every_workload_reports_exactly_the_contract_metrics() {
    for trace in [false, true] {
        let args = RunArgs {
            seed: 21,
            seconds: 1.0,
            trace,
            sizes: Sizes::new(true),
        };
        let out = workloads::run("chat_fig1", &args).unwrap();
        let names: BTreeSet<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: BTreeSet<&str> = if trace {
            PER_LAYER.iter().map(|(n, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|(n, _)| *n).collect()
        };
        assert_eq!(names, expected);
        assert_eq!(
            out.metrics.len(),
            expected.len(),
            "a metric was reported twice"
        );
        let line = report::result_line(&out);
        let doc = cda_testkit::json::parse(&line).unwrap();
        assert_eq!(
            doc.get("correct"),
            Some(&cda_testkit::json::Json::Bool(true))
        );
        assert_eq!(doc.get("failed").and_then(|f| f.as_f64()), Some(0.0));
    }
    assert!(workloads::run(
        "no_such_workload",
        &RunArgs {
            seed: 1,
            seconds: 1.0,
            trace: false,
            sizes: Sizes::new(true)
        }
    )
    .is_err());
}

#[test]
fn smoke_run_of_all_five_workloads_has_no_failures() {
    // A seed no manual run uses, so the results file it writes clobbers nothing.
    let seed = "424242";
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_cda-perf"))
        .args(["--smoke", "--trace", "1", "--seed", seed])
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "smoke run failed: {status}");
    let path = report::out_dir().join(format!("results_{seed}.json"));
    let rows = report::read_rows(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    for workload in WORKLOADS {
        let value = |metric: &str| {
            rows.iter()
                .find(|r| r.workload == workload && r.metric == metric)
                .unwrap_or_else(|| panic!("{workload} lacks {metric}"))
                .value
        };
        assert_eq!(value("fail_share"), 0.0, "{workload} had failed operations");
        assert!(value("ops") >= 1.0);
        for (metric, _) in END_TO_END {
            assert!(value(metric) > 0.0, "{workload} {metric} must not be 0");
        }
    }
}
