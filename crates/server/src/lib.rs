//! # cda-server — the multiplexed session runtime
//!
//! Runs **thousands of concurrent conversations** over one shared, immutable
//! [`WorldSnapshot`](cda_core::WorldSnapshot) on a plain `std::thread` worker
//! pool (no external runtime — the same scoped-thread idiom as
//! `cda_sql::morsel`).
//!
//! The design splits responsibility three ways:
//!
//! * **World** — catalog + statistics + KG + vocabulary + linker + LM
//!   config, frozen into an epoch-numbered `Arc<WorldSnapshot>`. Every
//!   session shares the same allocation; catalog mutation means building a
//!   successor snapshot and [`Server::install_world`]-ing it (epoch must
//!   grow). Sessions opened before the swap keep their old snapshot until
//!   their next drained turn, which runs over the installed one.
//! * **Session** — per-conversation mutable state
//!   ([`cda_core::Session`]): lineage, conversation graph, dialogue state,
//!   query log, semantic cache, and a per-session PRNG seed so a session
//!   replays **bit-identically** no matter how turns from other sessions
//!   interleave with it.
//! * **Server** — the admission-controlled front end. Turns are submitted
//!   per session, then [`Server::drain`]ed across the worker pool. Two
//!   gates reject work *before* it touches a session:
//!
//!   1. the **quota gate** at submit time — per-tenant turn budgets;
//!   2. the **governor gate** at drain time — the utterance's oracle SQL is
//!      run through the static analyzer with the tenant's row budget, and
//!      an A013 (`RowBudgetExceeded`) cardinality estimate rejects the turn
//!      pre-execution. The resource governor reuses the same estimator the
//!      optimizer trusts, so a rejection is a *certificate*, not a timeout.
//!
//! Determinism: per-session turn order is preserved, sessions never share
//! mutable state, and each session owns a seed derived from its id — so the
//! transcript of every session is byte-identical across worker counts,
//! submission interleavings, and replays. The integration suite pins this.
//!
//! ```
//! use cda_core::demo::demo_world;
//! use cda_server::{Server, ServerConfig};
//!
//! let mut server = Server::new(demo_world(42), ServerConfig::default());
//! let a = server.open_session("tenant-a");
//! let b = server.open_session("tenant-b");
//! server.submit(a, "Which datasets cover employment by canton?").unwrap();
//! server.submit(b, "What is the total employees in employment_by_type per canton?").unwrap();
//! let report = server.drain();
//! assert_eq!(report.completed(), 2);
//! assert_eq!(server.stats().turns_completed, 2);
//! ```

// DESIGN.md §6: no panic and no stdio on product paths; `#[cfg(test)]` code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod server;
pub mod stats;

pub use server::{DrainReport, Server, ServerConfig, SessionId, TenantQuota, TurnOutcome};
pub use stats::ServerStats;
