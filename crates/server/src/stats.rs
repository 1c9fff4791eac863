//! Aggregate server statistics: admission counters, queue depth, and turn
//! latency percentiles. This is the *only* way the server reports on
//! itself — the library never writes to stdio.

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
    /// Median turn latency in microseconds (0 until a turn completes).
    pub p50_us: u64,
    /// 99th-percentile turn latency in microseconds.
    pub p99_us: u64,
}

impl ServerStats {
    /// Total admission rejections across both gates.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_quota + self.rejected_budget
    }
}

/// Nearest-rank percentile over an unsorted sample (0 when empty).
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn rejected_total_sums_both_gates() {
        let s = ServerStats {
            epoch: 0,
            sessions: 1,
            turns_submitted: 10,
            turns_completed: 7,
            rejected_quota: 2,
            rejected_budget: 1,
            queue_depth: 0,
            p50_us: 6,
            p99_us: 7,
        };
        assert_eq!(s.rejected_total(), 3);
    }
}
