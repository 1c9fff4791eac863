//! Deterministic load generator: synthetic Figure-1-style turn mixes for
//! driving a `cda_server::Server` at scale (experiments E19 and E20, and the
//! `once` and `server` integration suites).
//!
//! Scripts are generated from the world's own workload tables (the same
//! generator the NL2SQL workload uses), mixed with discovery/seasonality
//! turns and iterative refinements, all seeded through the in-tree testkit
//! PRNG — so a load run is replayable bit-for-bit.

use cda_core::WorldSnapshot;
use cda_nlmodel::nl2sql::Workload;
use cda_testkit::rng::SplitMix64;

/// Shape of a synthetic load: how many sessions, how long each
/// conversation runs, and the PRNG seed.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Number of concurrent conversations.
    pub sessions: usize,
    /// Turns per conversation.
    pub turns_per_session: usize,
    /// Seed for script generation and interleaving.
    pub seed: u64,
}

/// The conversational turns that open the paper's Figure-1 session, used
/// to leaven the analysis-heavy mix with discovery/selection traffic.
const CONVERSATIONAL_TURNS: [&str; 3] = [
    "Which datasets cover employment by canton?",
    "Tell me more about the first one",
    "Is there seasonality in the labour barometer?",
];

/// Refinement follow-ups that only make sense after an analysis turn.
const REFINEMENTS: [&str; 2] = ["and per type instead?", "only the top 3"];

/// Generate one turn script per session: a Figure-1-style mix of
/// discovery/selection turns, NL2SQL analysis questions over the world's
/// workload tables, and iterative refinements. Deterministic in `spec.seed`.
pub fn session_scripts(world: &WorldSnapshot, spec: LoadSpec) -> Vec<Vec<String>> {
    // A bounded question pool, reused across sessions: generating one task
    // per turn would dominate setup time at 100k-turn scale.
    let pool_size = 64.min(spec.sessions.max(1) * spec.turns_per_session.max(1)).max(8);
    let workload = Workload::generate(world.workload_tables(), pool_size, spec.seed);
    let questions: Vec<&str> = workload.tasks.iter().map(|t| t.question.as_str()).collect();
    let mut rng = SplitMix64::new(spec.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut scripts = Vec::with_capacity(spec.sessions);
    for _ in 0..spec.sessions {
        let mut script = Vec::with_capacity(spec.turns_per_session);
        let mut last_was_analysis = false;
        for _ in 0..spec.turns_per_session {
            let roll = rng.next_u64() % 100;
            let turn = if last_was_analysis && roll < 25 {
                // refine the previous analysis
                REFINEMENTS[(rng.next_u64() as usize) % REFINEMENTS.len()].to_owned()
            } else if roll < 45 {
                last_was_analysis = false;
                CONVERSATIONAL_TURNS[(rng.next_u64() as usize) % CONVERSATIONAL_TURNS.len()]
                    .to_owned()
            } else {
                last_was_analysis = true;
                questions[(rng.next_u64() as usize) % questions.len().max(1)].to_owned()
            };
            script.push(turn);
        }
        scripts.push(script);
    }
    scripts
}

/// Flatten per-session scripts into one global submission order that
/// interleaves sessions pseudo-randomly while preserving each session's
/// own turn order. Returns `(session_index, utterance)` pairs.
/// Deterministic in `seed`.
pub fn interleave(scripts: &[Vec<String>], seed: u64) -> Vec<(usize, String)> {
    let mut cursors: Vec<usize> = vec![0; scripts.len()];
    let mut live: Vec<usize> = (0..scripts.len()).filter(|&i| !scripts[i].is_empty()).collect();
    let total: usize = scripts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut rng = SplitMix64::new(seed);
    while !live.is_empty() {
        let pick = (rng.next_u64() as usize) % live.len();
        let s = live[pick];
        out.push((s, scripts[s][cursors[s]].clone()));
        cursors[s] += 1;
        if cursors[s] == scripts[s].len() {
            live.swap_remove(pick);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_core::demo::demo_world;

    #[test]
    fn scripts_are_deterministic_and_sized() {
        let world = demo_world(42);
        let spec = LoadSpec { sessions: 5, turns_per_session: 7, seed: 9 };
        let a = session_scripts(&world, spec);
        let b = session_scripts(&world, spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|s| s.len() == 7));
    }

    #[test]
    fn different_seeds_differ() {
        let world = demo_world(42);
        let a = session_scripts(&world, LoadSpec { sessions: 3, turns_per_session: 6, seed: 1 });
        let b = session_scripts(&world, LoadSpec { sessions: 3, turns_per_session: 6, seed: 2 });
        assert_ne!(a, b);
    }

    #[test]
    fn interleave_preserves_per_session_order() {
        let world = demo_world(42);
        let scripts =
            session_scripts(&world, LoadSpec { sessions: 4, turns_per_session: 5, seed: 3 });
        let flat = interleave(&scripts, 11);
        assert_eq!(flat.len(), 20);
        // project the interleaving back per session: must equal the script
        for (i, script) in scripts.iter().enumerate() {
            let projected: Vec<&String> =
                flat.iter().filter(|(s, _)| *s == i).map(|(_, t)| t).collect();
            assert_eq!(projected, script.iter().collect::<Vec<_>>());
        }
        // and it is deterministic
        assert_eq!(flat, interleave(&scripts, 11));
    }

    #[test]
    fn scripts_mix_conversation_and_analysis() {
        let world = demo_world(42);
        let scripts =
            session_scripts(&world, LoadSpec { sessions: 8, turns_per_session: 12, seed: 4 });
        let all: Vec<&String> = scripts.iter().flatten().collect();
        let conversational =
            all.iter().filter(|t| CONVERSATIONAL_TURNS.contains(&t.as_str())).count();
        let refinements = all.iter().filter(|t| REFINEMENTS.contains(&t.as_str())).count();
        let analysis = all.len() - conversational - refinements;
        assert!(conversational > 0, "mix lost its conversational turns");
        assert!(analysis > 0, "mix lost its analysis turns");
        assert!(refinements > 0, "mix lost its refinement turns");
    }
}
