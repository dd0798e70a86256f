//! Common report types produced by the high-level protocol runners.

use anet_sim::metrics::RunMetrics;
use anet_sim::Outcome;

/// The distilled outcome of one broadcast run (tree, DAG or general protocol).
///
/// The two booleans correspond exactly to the two halves of the paper's
/// correctness statements: the protocol *terminates* iff every vertex is connected
/// to the terminal, and *on termination* every vertex has received the payload.
#[derive(Debug, Clone)]
pub struct BroadcastReport {
    /// Whether the terminal declared termination.
    pub terminated: bool,
    /// Whether the run ended because no messages remained (the correct behaviour on
    /// networks with vertices not connected to the terminal).
    pub quiescent: bool,
    /// Whether every internal vertex (and the terminal) received the payload by the
    /// end of the run.
    pub all_received: bool,
    /// Number of vertices that received the payload.
    pub received_count: usize,
    /// Deliveries performed when the terminal first accepted, if it did.
    pub deliveries_at_termination: Option<u64>,
    /// Communication metrics of the run.
    pub metrics: RunMetrics,
}

impl BroadcastReport {
    /// Assembles a report from the raw engine outcome plus per-vertex receipt flags.
    pub fn from_run(
        outcome: Outcome,
        deliveries_at_termination: Option<u64>,
        metrics: RunMetrics,
        received_flags: &[bool],
    ) -> Self {
        BroadcastReport {
            terminated: outcome == Outcome::Terminated,
            quiescent: outcome == Outcome::Quiescent,
            all_received: received_flags.iter().all(|&b| b),
            received_count: received_flags.iter().filter(|&&b| b).count(),
            deliveries_at_termination,
            metrics,
        }
    }

    /// The paper's *total communication complexity* for this run, in bits.
    pub fn total_bits(&self) -> u64 {
        self.metrics.total_bits
    }

    /// The paper's *required bandwidth*: the largest number of bits carried by a
    /// single edge during this run.
    pub fn bandwidth_bits(&self) -> u64 {
        self.metrics.max_edge_bits()
    }

    /// The largest single message, in bits.
    pub fn max_message_bits(&self) -> u64 {
        self.metrics.max_message_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::{EdgeId, NodeId};

    #[test]
    fn report_distils_flags() {
        let mut metrics = RunMetrics::new(2);
        metrics.record_send(0, EdgeId(0), NodeId(0), NodeId(1), 10);
        metrics.record_send(1, EdgeId(1), NodeId(1), NodeId(2), 20);
        let r = BroadcastReport::from_run(
            Outcome::Terminated,
            Some(5),
            metrics.clone(),
            &[true, true, true],
        );
        assert!(r.terminated);
        assert!(!r.quiescent);
        assert!(r.all_received);
        assert_eq!(r.received_count, 3);
        assert_eq!(r.total_bits(), 30);
        assert_eq!(r.bandwidth_bits(), 20);
        assert_eq!(r.max_message_bits(), 20);

        let q = BroadcastReport::from_run(Outcome::Quiescent, None, metrics, &[true, false]);
        assert!(!q.terminated);
        assert!(q.quiescent);
        assert!(!q.all_received);
        assert_eq!(q.received_count, 1);
    }
}
