//! # cda-guidance
//!
//! Property **P5 Guidance**: "support users in pursuing their analytical
//! goals by actively guiding them towards correct answers and desired
//! insights more efficiently".
//!
//! * [`graph`] — the paper's proposed "new graph-based data model that
//!   captures the intricacies of relying on a mix of structured queries,
//!   LLMs, and human interactions": conversation nodes are humans, LLM
//!   agents, or tools; edges carry utterances, actions, and *alternative*
//!   branches with confidence metadata;
//! * [`planner`] — speculative planning: score alternative next actions by
//!   simulating them ("running alternative scenarios behind the scenes")
//!   and rank recommendations (E8 scores the rankings with the lab's
//!   MRR/NDCG in `cda-bench`);
//! * [`clarify`] — active clarification: choose the question with maximal
//!   expected information gain over the latent user goal (the paper's
//!   "active learning or active search component \[29\] … actively probe the
//!   next question to ask with the goal of improving the answer certainty");
//! * [`profile`] — user-expertise profiling ("through profiling, determine
//!   the level of expertise of the user and interact differently").

// DESIGN.md §6: no panic and no stdio on product paths; `#[cfg(test)]` code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod clarify;
pub mod graph;
pub mod planner;
pub mod profile;

pub use clarify::{ClarificationQuestion, GoalBelief};
pub use graph::{ConversationGraph, EdgeKind, NodeRole};
pub use planner::{Action, SpeculativePlanner};
pub use profile::UserProfile;

use std::fmt;

/// Errors from guidance operations.
#[derive(Debug, Clone, PartialEq)]
pub enum GuidanceError {
    /// A node id was out of range.
    UnknownNode(usize),
    /// A belief update referenced an unknown goal.
    UnknownGoal(String),
    /// An empty candidate set was supplied where one is required.
    NoCandidates,
}

impl fmt::Display for GuidanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownNode(id) => write!(f, "unknown conversation node {id}"),
            Self::UnknownGoal(g) => write!(f, "unknown goal {g:?}"),
            Self::NoCandidates => f.write_str("no candidates supplied"),
        }
    }
}

impl std::error::Error for GuidanceError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GuidanceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(GuidanceError::UnknownNode(2).to_string().contains('2'));
        assert!(GuidanceError::NoCandidates.to_string().contains("candidates"));
    }
}
