//! **E8** — P5 guidance: turns-to-goal with active clarification, and
//! ranking quality (MRR/NDCG) of next-step suggestions.
//!
//! Expected shape: the EIG policy needs ⌈log2(goals)⌉ questions on average,
//! fixed-order needs more, and random more still; planner rankings with
//! lookahead reach higher MRR than myopic rankings.

use crate::eval::{mrr, ndcg_at_k};
use crate::{mean, row, Budget, Experiment, Table};
use cda_guidance::clarify::{simulate_dialogue, ClarificationQuestion, GoalBelief};
use cda_guidance::planner::{Action, SpeculativePlanner};
use cda_testkit::rng::StdRng;

/// Build a goal universe of size 2^bits with one binary question per bit
/// plus some redundant, unbalanced questions.
fn build_domain(bits: usize) -> (Vec<String>, Vec<ClarificationQuestion>) {
    let n = 1usize << bits;
    let goals: Vec<String> = (0..n).map(|i| format!("goal_{i:02}")).collect();
    let mut questions = Vec::new();
    for b in 0..bits {
        let answers: Vec<(&str, &str)> = goals
            .iter()
            .enumerate()
            .map(|(i, g)| (g.as_str(), if (i >> b) & 1 == 0 { "no" } else { "yes" }))
            .collect();
        questions.push(ClarificationQuestion::new(format!("bit {b}?"), answers));
    }
    // an unbalanced 1-vs-rest question (low information)
    let answers: Vec<(&str, &str)> = goals
        .iter()
        .enumerate()
        .map(|(i, g)| (g.as_str(), if i == 0 { "yes" } else { "no" }))
        .collect();
    questions.push(ClarificationQuestion::new("is it exactly goal_00?", answers));
    (goals, questions)
}

/// Run E8.
pub fn run(_: &Budget) -> Experiment {
    let mut e =
        Experiment::new("E8", "guidance: clarification turns-to-goal + suggestion ranking quality");
    for bits in [2usize, 3, 4] {
        let (goals, questions) = build_domain(bits);
        let belief = GoalBelief::uniform(&goals.iter().map(String::as_str).collect::<Vec<_>>())
            .expect("non-empty");
        let mut rng = StdRng::seed_from_u64(7);
        let mut eig_turns = Vec::new();
        let mut fixed_turns = Vec::new();
        let mut random_turns = Vec::new();
        let mut eig_found = 0usize;
        for goal in &goals {
            let (t_eig, found) = simulate_dialogue(&belief, &questions, goal, 0.95, true);
            eig_turns.push(t_eig as f64);
            if &found == goal {
                eig_found += 1;
            }
            let (t_fixed, _) = simulate_dialogue(&belief, &questions, goal, 0.95, false);
            fixed_turns.push(t_fixed as f64);
            // random order baseline: shuffle questions then fixed policy
            let mut shuffled = questions.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            let (t_rand, _) = simulate_dialogue(&belief, &shuffled, goal, 0.95, false);
            random_turns.push(t_rand as f64);
        }
        let mut t = Table::new(
            format!("clarification, {} goals ({} questions)", goals.len(), questions.len()),
            &["policy", "mean turns", "goal found"],
        );
        row!(t; "eig", mean(&eig_turns), eig_found as f64 / goals.len() as f64);
        row!(t; "fixed order", mean(&fixed_turns), 1.0);
        row!(t; "random order", mean(&random_turns), 1.0);
        e.tables.push(t);
    }

    let mut ranking = Table::new(
        "suggestion ranking (60 simulated sessions, half with two-step goals)",
        &["planner", "mrr", "ndcg@4"],
    );
    // The action space: "forecast" is only reachable through "seasonality".
    // When the user's latent goal is the forecast, the *progress-making*
    // recommendation is seasonality — which only the lookahead planner can
    // rank first, because seasonality's immediate utility is mediocre.
    let actions = || -> Vec<Action> {
        vec![
            Action::leaf("drill_down", "drill down by canton"),
            Action::leaf("seasonality", "seasonality analysis")
                .with_follow_ups(vec![Action::leaf("forecast", "forecast next year")]),
            Action::leaf("export", "export raw data"),
            Action::leaf("describe", "describe the dataset"),
        ]
    };
    let mut rng = StdRng::seed_from_u64(3);
    // goal → the action that makes progress toward it
    let sessions: Vec<(&str, &str)> = (0..60)
        .map(|_| {
            if rng.gen_bool(0.5) {
                ("forecast", "seasonality") // two-step goal
            } else {
                let direct = ["drill_down", "export", "describe"];
                let g = direct[rng.gen_range(0..direct.len())];
                (g, g)
            }
        })
        .collect();
    for (label, discount) in [("myopic", 0.0f64), ("lookahead", 0.5)] {
        let planner = SpeculativePlanner { discount };
        let mut rankings = Vec::new();
        let mut progress_ids = Vec::new();
        let mut ndcgs = Vec::new();
        for (goal, progress) in &sessions {
            let goal = (*goal).to_owned();
            let score = move |a: &Action| -> f64 {
                let base = match a.id.as_str() {
                    "drill_down" => 0.55,
                    "seasonality" => 0.5,
                    "describe" => 0.45,
                    _ => 0.4,
                };
                base + if a.id == goal { 0.4 } else { 0.0 }
            };
            let ranked = planner.rank(&actions(), &score).expect("non-empty");
            let gains: Vec<f64> = ranked
                .iter()
                .map(|r| if r.action.id == *progress { 1.0 } else { 0.0 })
                .collect();
            ndcgs.push(ndcg_at_k(&gains, 4));
            rankings.push(ranked.into_iter().map(|r| r.action.id).collect::<Vec<_>>());
            progress_ids.push(*progress);
        }
        row!(ranking; label, mrr(&progress_ids, &rankings), mean(&ndcgs));
    }
    e.tables.push(ranking);
    e
}
