//! Aggregate server statistics: admission counters and queue depth. This is
//! the *only* way the server reports on itself — the library never writes to
//! stdio.

/// A point-in-time snapshot of a [`Server`](crate::Server)'s counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerStats {
    /// Epoch of the currently installed world snapshot.
    pub epoch: u64,
    /// Sessions in the registry.
    pub sessions: usize,
    /// Turns that passed the submit-time quota gate.
    pub turns_submitted: u64,
    /// Turns that executed to completion.
    pub turns_completed: u64,
    /// Submissions refused by the quota gate.
    pub rejected_quota: u64,
    /// Queued turns refused by the drain-time row-budget governor.
    pub rejected_budget: u64,
    /// Turns queued and not yet drained.
    pub queue_depth: usize,
}
