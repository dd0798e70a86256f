//! Communication-complexity accounting.

use anet_graph::{EdgeId, NodeId};

use crate::trace::{fold_send, Fnv1a};

/// Per-run communication metrics, the raw material of every experiment table.
///
/// A message is charged at *send* time (when it is placed on an edge); the paper's
/// quantities map onto this struct as follows:
///
/// * **total communication complexity** — [`RunMetrics::total_bits`];
/// * **required bandwidth** (maximum bits over a single edge) —
///   [`RunMetrics::max_edge_bits`];
/// * **maximum message length** — [`RunMetrics::max_message_bits`];
/// * number of messages — [`RunMetrics::messages_sent`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunMetrics {
    /// Total number of messages placed on edges (including the root's `σ₀`).
    pub messages_sent: u64,
    /// Total number of messages delivered to their destination.
    pub messages_delivered: u64,
    /// Messages discarded by a faulty scheduler ([`SchedulerAction::Drop`]).
    ///
    /// Always 0 under reliable schedulers, so fault-free runs stay
    /// bit-identical to their historical metrics.
    ///
    /// [`SchedulerAction::Drop`]: crate::scheduler::SchedulerAction::Drop
    pub messages_dropped: u64,
    /// Adversary-injected duplicates
    /// ([`SchedulerAction::Duplicate`](crate::scheduler::SchedulerAction::Duplicate)).
    /// Duplicates are not protocol sends: they are excluded from
    /// [`RunMetrics::messages_sent`], [`RunMetrics::total_bits`] and the
    /// per-edge accounting — only bits actually sent are charged.
    pub messages_duplicated: u64,
    /// Messages consumed while their destination was crashed
    /// ([`SchedulerAction::NodeDown`](crate::scheduler::SchedulerAction::NodeDown)).
    pub crashed_deliveries: u64,
    /// Sum of the wire sizes of all sent messages, in bits.
    pub total_bits: u64,
    /// Largest single message, in bits.
    pub max_message_bits: u64,
    /// Number of messages sent per edge, indexed by edge id.
    pub per_edge_messages: Vec<u64>,
    /// Bits sent per edge, indexed by edge id.
    pub per_edge_bits: Vec<u64>,
    /// The trace digest, folded in send by send (see
    /// [`RunMetrics::trace_digest`]).
    trace_digest: Fnv1a,
}

impl RunMetrics {
    /// Creates zeroed metrics for a graph with `edge_count` edges.
    pub fn new(edge_count: usize) -> Self {
        RunMetrics {
            per_edge_messages: vec![0; edge_count],
            per_edge_bits: vec![0; edge_count],
            ..RunMetrics::default()
        }
    }

    /// Records the send numbered `seq` of one `bits`-bit message on `edge`,
    /// from `src` to `dst`, and folds it into [`RunMetrics::trace_digest`].
    pub fn record_send(&mut self, seq: u64, edge: EdgeId, src: NodeId, dst: NodeId, bits: u64) {
        self.messages_sent += 1;
        self.total_bits += bits;
        self.max_message_bits = self.max_message_bits.max(bits);
        self.per_edge_messages[edge.index()] += 1;
        self.per_edge_bits[edge.index()] += bits;
        fold_send(&mut self.trace_digest, seq, edge, src, dst, bits);
    }

    /// The digest of the run's sends so far: equal to
    /// [`Trace::digest`](crate::trace::Trace::digest) of the trace the run
    /// would record, without recording it. Runs that only need the
    /// fingerprint (the sweep's records) can leave
    /// [`ExecutionConfig::record_trace`](crate::engine::ExecutionConfig::record_trace)
    /// off.
    pub fn trace_digest(&self) -> u64 {
        self.trace_digest.finish()
    }

    /// Records one delivery.
    pub fn record_delivery(&mut self) {
        self.messages_delivered += 1;
    }

    /// Records one adversary-dropped message.
    pub fn record_drop(&mut self) {
        self.messages_dropped += 1;
    }

    /// Records one adversary-injected duplicate.
    pub fn record_duplicate(&mut self) {
        self.messages_duplicated += 1;
    }

    /// Records one message lost to a crashed destination.
    pub fn record_crashed_delivery(&mut self) {
        self.crashed_deliveries += 1;
    }

    /// Total messages the adversary destroyed (drops plus crash losses) —
    /// the gap between sends + duplicates and deliveries in a quiescent run.
    pub fn messages_lost(&self) -> u64 {
        self.messages_dropped + self.crashed_deliveries
    }

    /// The paper's *required bandwidth*: the largest number of bits transmitted over
    /// any single edge during the whole run.
    pub fn max_edge_bits(&self) -> u64 {
        self.per_edge_bits.iter().copied().max().unwrap_or(0)
    }

    /// The largest number of messages transmitted over any single edge.
    pub fn max_edge_messages(&self) -> u64 {
        self.per_edge_messages.iter().copied().max().unwrap_or(0)
    }

    /// Mean message size in bits (0 when nothing was sent).
    pub fn mean_message_bits(&self) -> f64 {
        if self.messages_sent == 0 {
            0.0
        } else {
            self.total_bits as f64 / self.messages_sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SendEvent, Trace};

    fn send(m: &mut RunMetrics, seq: u64, edge: usize, bits: u64) {
        m.record_send(seq, EdgeId(edge), NodeId(edge), NodeId(edge + 1), bits);
    }

    #[test]
    fn zeroed_construction() {
        let m = RunMetrics::new(3);
        assert_eq!(m.messages_sent, 0);
        assert_eq!(m.total_bits, 0);
        assert_eq!(m.per_edge_bits.len(), 3);
        assert_eq!(m.max_edge_bits(), 0);
        assert_eq!(m.mean_message_bits(), 0.0);
    }

    #[test]
    fn send_accounting() {
        let mut m = RunMetrics::new(2);
        send(&mut m, 0, 0, 10);
        send(&mut m, 1, 1, 30);
        send(&mut m, 2, 1, 5);
        m.record_delivery();
        assert_eq!(m.messages_sent, 3);
        assert_eq!(m.messages_delivered, 1);
        assert_eq!(m.messages_lost(), 0);
        assert_eq!(m.total_bits, 45);
        assert_eq!(m.max_message_bits, 30);
        assert_eq!(m.per_edge_bits, vec![10, 35]);
        assert_eq!(m.per_edge_messages, vec![1, 2]);
        assert_eq!(m.max_edge_bits(), 35);
        assert_eq!(m.max_edge_messages(), 2);
        assert!((m.mean_message_bits() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn fault_counters_do_not_touch_wire_accounting() {
        let mut m = RunMetrics::new(1);
        send(&mut m, 0, 0, 10);
        m.record_drop();
        m.record_duplicate();
        m.record_crashed_delivery();
        m.record_crashed_delivery();
        assert_eq!(m.messages_dropped, 1);
        assert_eq!(m.messages_duplicated, 1);
        assert_eq!(m.crashed_deliveries, 2);
        assert_eq!(m.messages_lost(), 3);
        // Only the real send is charged.
        assert_eq!(m.messages_sent, 1);
        assert_eq!(m.total_bits, 10);
        assert_eq!(m.per_edge_messages, vec![1]);
    }

    #[test]
    fn streamed_digest_equals_the_trace_digest() {
        let mut m = RunMetrics::new(3);
        let mut trace = Trace::new();
        assert_eq!(m.trace_digest(), trace.digest());
        for (seq, edge, bits) in [(0u64, 0usize, 7u64), (1, 2, 40), (3, 1, 7), (4, 2, 1)] {
            send(&mut m, seq, edge, bits);
            trace.push(SendEvent {
                seq,
                edge: EdgeId(edge),
                src: NodeId(edge),
                dst: NodeId(edge + 1),
                bits,
                message: (),
            });
            assert_eq!(m.trace_digest(), trace.digest());
        }
        // Fault counters are not sends and leave the digest alone.
        let before = m.trace_digest();
        m.record_drop();
        m.record_duplicate();
        assert_eq!(m.trace_digest(), before);
    }
}
