//! Synchronous (round-based) execution.
//!
//! Section 2 of the paper notes that the results "can be easily extended … to the
//! case that the communication throughout the network is synchronous". This module
//! provides that mode: execution proceeds in rounds, and in each round **every**
//! message that was in flight at the start of the round is delivered (in edge
//! order) before any message generated during the round is considered. Besides
//! serving as a sanity check that the protocols do not depend on asynchrony, the
//! round count is the natural "time" measure of the synchronous model.

use std::collections::VecDeque;

use anet_graph::Network;

use crate::engine::{ExecutionConfig, Outcome, RunResult};
use crate::metrics::RunMetrics;
use crate::trace::{SendEvent, Trace};
use crate::{AnonymousProtocol, NodeContext, Wire};

/// The result of a synchronous run: the usual [`RunResult`] plus the number of
/// rounds that elapsed before the terminal accepted (or the run quiesced).
#[derive(Debug, Clone)]
pub struct SynchronousRun<S, M> {
    /// The per-vertex states, metrics and trace, exactly as in the asynchronous
    /// engine.
    pub result: RunResult<S, M>,
    /// Number of completed rounds.
    pub rounds: u64,
}

/// Runs `protocol` on `network` in synchronous rounds.
///
/// Round 0 delivers the root's initial messages; round `r + 1` delivers everything
/// emitted during round `r`. The run stops at the end of the round in which the
/// terminal's stopping predicate first holds, when no messages remain, or when the
/// delivery budget is exhausted.
///
/// # Panics
///
/// Panics if the protocol emits on a non-existent out-port (a protocol bug).
pub fn run_synchronous<P>(
    network: &Network,
    protocol: &P,
    config: ExecutionConfig,
) -> SynchronousRun<P::State, P::Message>
where
    P: AnonymousProtocol,
{
    let graph = network.graph();
    let contexts: Vec<NodeContext> = graph
        .nodes()
        .map(|n| NodeContext::new(graph.in_degree(n), graph.out_degree(n)))
        .collect();
    let mut states: Vec<P::State> = contexts
        .iter()
        .map(|ctx| protocol.initial_state(ctx))
        .collect();
    let mut metrics = RunMetrics::new(graph.edge_count());
    let mut trace = if config.record_trace {
        Some(Trace::new())
    } else {
        None
    };
    let mut next_seq = 0u64;
    let terminal = network.terminal();

    // (edge, message) pairs to be delivered in the current round.
    let mut current: VecDeque<(anet_graph::EdgeId, P::Message)> = VecDeque::new();

    let send = |src: anet_graph::NodeId,
                port: usize,
                message: P::Message,
                queue: &mut VecDeque<(anet_graph::EdgeId, P::Message)>,
                metrics: &mut RunMetrics,
                trace: &mut Option<Trace<P::Message>>,
                next_seq: &mut u64| {
        let out = graph.out_edges(src);
        assert!(
            port < out.len(),
            "protocol {} emitted on out-port {port} of a vertex with out-degree {}",
            protocol.name(),
            out.len()
        );
        let edge = out[port];
        let bits = message.wire_bits();
        metrics.record_send(*next_seq, edge, src, graph.edge_dst(edge), bits);
        if let Some(t) = trace.as_mut() {
            t.push(SendEvent {
                seq: *next_seq,
                edge,
                src,
                dst: graph.edge_dst(edge),
                bits,
                message: message.clone(),
            });
        }
        queue.push_back((edge, message));
        *next_seq += 1;
    };

    for (port, message) in protocol.root_messages(graph.out_degree(network.root())) {
        send(
            network.root(),
            port,
            message,
            &mut current,
            &mut metrics,
            &mut trace,
            &mut next_seq,
        );
    }

    let mut rounds = 0u64;
    let mut outcome = Outcome::Quiescent;
    let mut deliveries_at_termination = None;

    if protocol.should_terminate(&states[terminal.index()]) {
        return SynchronousRun {
            result: RunResult {
                outcome: Outcome::Terminated,
                states,
                metrics,
                deliveries_at_termination: Some(0),
                trace,
                delivery_order: None,
                step_log: None,
            },
            rounds,
        };
    }

    // The queue for the *next* round lives outside the loop: at the end of a
    // round the drained `current` and the filled `next` are swapped, so both
    // buffers (and their capacity) are reused for the whole run instead of
    // allocating a fresh queue per round.
    let mut next: VecDeque<(anet_graph::EdgeId, P::Message)> = VecDeque::new();

    'rounds: while !current.is_empty() {
        rounds += 1;
        while let Some((edge, message)) = current.pop_front() {
            if metrics.messages_delivered >= config.max_deliveries {
                outcome = Outcome::BudgetExhausted;
                break 'rounds;
            }
            let dst = graph.edge_dst(edge);
            metrics.record_delivery();
            let emitted = protocol.on_receive(
                &contexts[dst.index()],
                &mut states[dst.index()],
                graph.in_port(edge),
                &message,
            );
            for (port, out_message) in emitted {
                send(
                    dst,
                    port,
                    out_message,
                    &mut next,
                    &mut metrics,
                    &mut trace,
                    &mut next_seq,
                );
            }
            if dst == terminal && protocol.should_terminate(&states[terminal.index()]) {
                outcome = Outcome::Terminated;
                deliveries_at_termination = Some(metrics.messages_delivered);
                break 'rounds;
            }
        }
        std::mem::swap(&mut current, &mut next);
    }

    SynchronousRun {
        result: RunResult {
            outcome,
            states,
            metrics,
            deliveries_at_termination,
            trace,
            delivery_order: None,
            step_log: None,
        },
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators::{chain_gn, path_network};

    /// Same toy flood protocol as the asynchronous engine tests.
    #[derive(Debug)]
    struct Flood {
        needed: u64,
    }

    #[derive(Debug, Clone)]
    struct FloodState {
        received: u64,
        forwarded: bool,
    }

    impl AnonymousProtocol for Flood {
        type State = FloodState;
        type Message = ();

        fn name(&self) -> &'static str {
            "flood"
        }
        fn initial_state(&self, _ctx: &NodeContext) -> FloodState {
            FloodState {
                received: 0,
                forwarded: false,
            }
        }
        fn root_messages(&self, root_out_degree: usize) -> Vec<(usize, ())> {
            (0..root_out_degree).map(|p| (p, ())).collect()
        }
        fn on_receive(
            &self,
            ctx: &NodeContext,
            state: &mut FloodState,
            _in_port: usize,
            _message: &(),
        ) -> Vec<(usize, ())> {
            state.received += 1;
            if state.forwarded {
                return Vec::new();
            }
            state.forwarded = true;
            (0..ctx.out_degree).map(|p| (p, ())).collect()
        }
        fn should_terminate(&self, terminal_state: &FloodState) -> bool {
            terminal_state.received >= self.needed
        }
    }

    #[test]
    fn rounds_equal_graph_depth_on_a_path() {
        // On a path of k internal vertices the terminal hears the flood after
        // exactly k + 1 rounds (one hop per round).
        let net = path_network(5).unwrap();
        let run = run_synchronous(&net, &Flood { needed: 1 }, ExecutionConfig::default());
        assert_eq!(run.result.outcome, Outcome::Terminated);
        assert_eq!(run.rounds, 6);
        assert_eq!(run.result.metrics.messages_sent, 6);
    }

    #[test]
    fn chain_terminates_when_all_tokens_arrive() {
        let net = chain_gn(6).unwrap();
        let run = run_synchronous(&net, &Flood { needed: 6 }, ExecutionConfig::default());
        assert_eq!(run.result.outcome, Outcome::Terminated);
        // The last token reaches t one round after the deepest vertex is reached.
        assert_eq!(run.rounds, 7);
        assert!(run.result.metrics.per_edge_messages.iter().all(|&c| c == 1));
    }

    #[test]
    fn quiesces_when_the_terminal_is_never_satisfied() {
        let net = path_network(3).unwrap();
        let run = run_synchronous(&net, &Flood { needed: 2 }, ExecutionConfig::default());
        assert_eq!(run.result.outcome, Outcome::Quiescent);
        assert!(run.rounds >= 4);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let net = chain_gn(10).unwrap();
        let config = ExecutionConfig {
            max_deliveries: 3,
            record_trace: false,
        };
        let run = run_synchronous(&net, &Flood { needed: 10 }, config);
        assert_eq!(run.result.outcome, Outcome::BudgetExhausted);
    }

    #[test]
    fn trace_is_recorded_when_requested() {
        let net = chain_gn(3).unwrap();
        let run = run_synchronous(&net, &Flood { needed: 3 }, ExecutionConfig::with_trace());
        let trace = run.result.trace.expect("requested");
        assert_eq!(trace.len(), net.edge_count());
    }
}
