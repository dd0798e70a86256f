//! The streamed trace digest against the recorded trace.
//!
//! Every engine folds each send into
//! [`RunMetrics::trace_digest`](anet_sim::metrics::RunMetrics::trace_digest)
//! as it happens, and the sweep's records carry that value without recording
//! a trace. This suite checks it equals [`Trace::digest`] of the trace the
//! same run records, for every engine (flat, full-scan, queue-forest,
//! synchronous), every standard-battery scheduler, a reliable, a
//! drop/duplicate/reorder and a crash-window fault plan, the re-flood and
//! corrupted-start runners, and the three sweep protocols. It also checks
//! that switching the trace off changes no metric, digest included.
//!
//! [`Trace::digest`]: anet_sim::trace::Trace::digest

use anet_core::general_broadcast::{corrupt_general_states, GeneralBroadcast};
use anet_core::labeling::{corrupt_labeling_states, Labeling};
use anet_core::mapping::{corrupt_mapping_states, Mapping};
use anet_core::{Payload, StateCorruption};
use anet_graph::generators::{chain_gn, cycle_with_tail, random_cyclic};
use anet_graph::{Network, NodeId};
use anet_sim::engine::{
    run_corrupted, run_recovering, run_with_config, ExecutionConfig, RunConfig, RunResult,
};
use anet_sim::reference::{
    run_full_scan, run_queue_forest, run_queue_forest_corrupted, run_queue_forest_recovering,
};
use anet_sim::runner::battery_size;
use anet_sim::scheduler::{standard_battery, Scheduler};
use anet_sim::{run_synchronous, FaultPlan, FaultyScheduler, RefloodProtocol};
use rand::rngs::StdRng;
use rand::SeedableRng;

const RANDOM_SCHEDULERS: usize = 2;
const RETRY_BUDGET: u32 = 4;

fn topologies() -> Vec<Network> {
    let mut rng = StdRng::seed_from_u64(0xD1_6E57);
    vec![
        chain_gn(5).expect("valid"),
        cycle_with_tail(6).expect("valid"),
        random_cyclic(&mut rng, 10, 0.2, 0.2).expect("valid"),
    ]
}

fn plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::reliable(),
        FaultPlan::reliable()
            .with_drops(15)
            .with_duplicates(10)
            .with_reorder(2)
            .with_seed(7),
        FaultPlan::reliable()
            .with_crash(NodeId(1), 0, 6)
            .with_seed(3),
    ]
}

fn corruptions() -> [StateCorruption; 3] {
    [
        StateCorruption::ScrambledLabels { seed: 11 },
        StateCorruption::LostPartition,
        StateCorruption::StaleTerminal,
    ]
}

fn execution(record_trace: bool) -> ExecutionConfig {
    ExecutionConfig {
        max_deliveries: 1_000_000,
        record_trace,
    }
}

/// Scheduler `k` of the standard battery under `plan`, fresh for one run.
fn scheduler(k: usize, plan: &FaultPlan) -> FaultyScheduler<Box<dyn Scheduler>> {
    let inner = standard_battery(29, RANDOM_SCHEDULERS).remove(k);
    FaultyScheduler::new(inner, plan.clone())
}

fn assert_digest<S, M>(result: &RunResult<S, M>, what: &str) {
    let trace = result.trace.as_ref().expect("the run records its trace");
    assert_eq!(result.metrics.trace_digest(), trace.digest(), "{what}");
    assert_eq!(result.metrics.messages_sent, trace.len() as u64, "{what}");
}

fn check_protocol<P, C>(name: &str, protocol: &P, corrupt: C)
where
    P: RefloodProtocol,
    C: Fn(&StateCorruption, &Network, &mut [P::State]),
{
    let traced = RunConfig::from(execution(true));
    let untraced = RunConfig::from(execution(false));
    let mut digests = Vec::new();
    for (t, net) in topologies().iter().enumerate() {
        let sync = run_synchronous(net, protocol, execution(true));
        assert_digest(&sync.result, &format!("{name} topology {t} synchronous"));
        for (p, plan) in plans().iter().enumerate() {
            for k in 0..battery_size(RANDOM_SCHEDULERS) {
                let at =
                    |engine: &str| format!("{name} topology {t} plan {p} battery {k} {engine}");
                let flat = run_with_config(net, protocol, &mut scheduler(k, plan), traced);
                assert_digest(&flat, &at("flat"));
                let bare = run_with_config(net, protocol, &mut scheduler(k, plan), untraced);
                assert!(bare.trace.is_none());
                assert_eq!(bare.metrics, flat.metrics, "{}", at("flat, trace off"));
                digests.push(flat.metrics.trace_digest());

                let full = run_full_scan(net, protocol, &mut scheduler(k, plan), execution(true));
                assert_digest(&full, &at("full-scan"));
                let forest = run_queue_forest(net, protocol, &mut scheduler(k, plan), traced);
                assert_digest(&forest, &at("queue-forest"));

                let sched = &mut scheduler(k, plan);
                let retry = run_recovering(net, protocol, sched, traced, RETRY_BUDGET);
                assert_digest(&retry.result, &at("flat recovering"));
                let sched = &mut scheduler(k, plan);
                let retry = run_queue_forest_recovering(net, protocol, sched, traced, RETRY_BUDGET);
                assert_digest(&retry.result, &at("queue-forest recovering"));

                for corruption in corruptions() {
                    let hook = |states: &mut [P::State]| corrupt(&corruption, net, states);
                    let sched = &mut scheduler(k, plan);
                    let run = run_corrupted(net, protocol, sched, traced, hook);
                    assert_digest(&run, &at(&format!("flat corrupted {corruption:?}")));
                    let hook = |states: &mut [P::State]| corrupt(&corruption, net, states);
                    let sched = &mut scheduler(k, plan);
                    let run = run_queue_forest_corrupted(net, protocol, sched, traced, hook);
                    assert_digest(&run, &at(&format!("queue-forest corrupted {corruption:?}")));
                }
            }
        }
    }
    // The digest tells the runs apart: a constant would pass every check above.
    digests.sort_unstable();
    digests.dedup();
    assert!(digests.len() > 1, "{name}: every run has the same digest");
}

#[test]
fn labeling_digest_streams_on_every_engine() {
    check_protocol("labeling", &Labeling::new(), corrupt_labeling_states);
}

#[test]
fn mapping_digest_streams_on_every_engine() {
    check_protocol("mapping", &Mapping::new(), corrupt_mapping_states);
}

#[test]
fn general_broadcast_digest_streams_on_every_engine() {
    let protocol = GeneralBroadcast::new(Payload::synthetic(16));
    check_protocol("general-broadcast", &protocol, corrupt_general_states);
}
