//! Deterministic execution of single sweep units.
//!
//! [`execute_unit`] is the only public way a sweep touches the simulator: it
//! rebuilds the unit's network from its [`TopologySpec`](crate::TopologySpec)
//! (self-seeded, so the
//! construction is identical in every process), **canonicalizes** it
//! ([`anet_graph::canon`]), and hands the canonical network to the
//! crate-private `execute_on`. That runs exactly one cell of the standard
//! battery via [`anet_sim::runner::run_battery_cell`], applies the protocol's
//! own success check, and distils the result into a canonical [`RunRecord`].
//! Two executions of the same unit — same process, different process,
//! different host — produce byte-identical records, which is the invariant
//! the whole shard/merge machinery rests on.
//!
//! A record keeps the run's counters and one 64-bit trace digest, never the
//! trace itself, so units run with trace recording **off**: every engine
//! folds each send into [`RunMetrics::trace_digest`] as it happens, and that
//! value equals [`Trace::digest`] of the trace the run would have recorded.
//! The dedup shard path already holds each distinct topology's canonical
//! form from clustering, so it builds each canonical network once per shard
//! and calls `execute_on` for every representative on it; the honest
//! `--no-dedup` path calls [`execute_unit`] per unit.
//!
//! [`RunMetrics::trace_digest`]: anet_sim::metrics::RunMetrics::trace_digest
//! [`Trace::digest`]: anet_sim::trace::Trace::digest
//!
//! Running on the canonical relabeling (rather than the generator's raw
//! labeling) is deliberate and unconditional — the honest `--no-dedup` path
//! uses it too. It makes every record a pure function of the unit's
//! *equivalence class* (protocol, canonical topology form, seed, battery
//! position, budget): isomorphic topologies drive bit-for-bit identical
//! simulations, so the dedup layer's rewritten member records equal honest
//! execution by construction, and `dedup` vs `--no-dedup` byte-identity is a
//! theorem the differential tests merely re-check. The protocols themselves
//! are anonymous — they observe degrees and port indices, never vertex ids —
//! so which isomorphic representative runs is pure bookkeeping.

use anet_core::general_broadcast::{corrupt_general_states, general_recovered, GeneralBroadcast};
use anet_core::labeling::{corrupt_labeling_states, labeling_recovered, Labeling};
use anet_core::mapping::{corrupt_mapping_states, mapping_recovered, Mapping};
use anet_core::{Payload, StateCorruption};
use anet_graph::canon::canonical_form;
use anet_graph::Network;
use anet_sim::engine::{
    run_corrupted, run_recovering, run_with_config, ExecutionConfig, RunConfig,
};
use anet_sim::runner::{run_battery_cell, NamedRun};
use anet_sim::scheduler::standard_battery;
use anet_sim::{FaultyScheduler, Outcome, RefloodProtocol};

use crate::manifest::SweepUnit;
use crate::record::RunRecord;
use crate::spec::{ProtocolSpec, ScenarioSpec, SweepSpec};
use crate::SweepError;

/// Runs one unit and produces its canonical record.
///
/// The unit's [`ScenarioSpec`] selects the execution mode: pristine units run
/// exactly as before scenarios existed ([`run_battery_cell`]); faulty units
/// wrap the battery scheduler in a [`FaultyScheduler`] whose plan seed is a
/// pure function of the dedup cluster key ([`ScenarioSpec::fault_plan`]);
/// corrupted-start units run through [`run_corrupted`] with the protocol's
/// state perturbation, and their `ok` column is the protocol's *recovery*
/// predicate. In every mode the record is a pure function of the unit's
/// equivalence class, so dedup and sharding stay byte-exact.
///
/// # Errors
///
/// Returns [`SweepError::Topology`] if the unit's topology parameters are
/// rejected by the generator (a spec bug, not a runtime condition).
pub fn execute_unit(spec: &SweepSpec, unit: &SweepUnit) -> Result<RunRecord, SweepError> {
    let built = unit.topology.build().map_err(SweepError::Topology)?;
    let network = canonical_form(&built)
        .form
        .to_network()
        .map_err(SweepError::Topology)?;
    Ok(execute_on(spec, unit, &network))
}

/// Runs `unit` on `network` and produces its canonical record.
///
/// `network` must be the canonical network of the unit's topology or of a
/// topology isomorphic to it — `form.to_network()` of its
/// [`canonical_form`], which is the same network for every member of an
/// isomorphism class. Then the record is byte-identical to
/// [`execute_unit`]'s. Any other network yields a well-formed record of a
/// different experiment, so callers outside this crate go through
/// [`execute_unit`].
pub(crate) fn execute_on(spec: &SweepSpec, unit: &SweepUnit, network: &Network) -> RunRecord {
    // The record keeps only the streamed digest of the sends, so no trace.
    let config = RunConfig::from(ExecutionConfig {
        max_deliveries: spec.max_deliveries,
        record_trace: false,
    });
    match &unit.protocol {
        ProtocolSpec::Mapping => {
            let protocol = Mapping::new();
            let named = run_scenario_cell(
                network,
                &protocol,
                config,
                spec,
                unit,
                corrupt_mapping_states,
            );
            let ok = named.result.outcome.terminated()
                && mapping_recovered(network, &named.result.states);
            distil(unit, &named, ok)
        }
        ProtocolSpec::Labeling => {
            let protocol = Labeling::new();
            let named = run_scenario_cell(
                network,
                &protocol,
                config,
                spec,
                unit,
                corrupt_labeling_states,
            );
            let ok = named.result.outcome.terminated()
                && labeling_recovered(network, &named.result.states);
            distil(unit, &named, ok)
        }
        ProtocolSpec::GeneralBroadcast { payload_bits } => {
            let protocol = GeneralBroadcast::new(Payload::synthetic(*payload_bits));
            let named = run_scenario_cell(
                network,
                &protocol,
                config,
                spec,
                unit,
                corrupt_general_states,
            );
            let ok = named.result.outcome.terminated()
                && general_recovered(network, &named.result.states);
            distil(unit, &named, ok)
        }
    }
}

/// Runs one battery cell under the unit's scenario.
///
/// The pristine arm is exactly [`run_battery_cell`] — same battery
/// construction, same scheduler state — so pristine records are byte-identical
/// to every sweep that predates scenarios. Faulty units with a nonzero retry
/// budget run through [`run_recovering`] (which is itself bit-identical to the
/// single-shot engine whenever the fault plan destroys nothing); the re-flood
/// traffic lands in the ordinary `sent`/`total_bits` columns, so a retry
/// record's overhead is directly comparable against its retry-free twin.
fn run_scenario_cell<P: RefloodProtocol>(
    network: &Network,
    protocol: &P,
    config: RunConfig,
    spec: &SweepSpec,
    unit: &SweepUnit,
    corrupt: impl FnOnce(&StateCorruption, &Network, &mut [P::State]),
) -> NamedRun<P::State, P::Message> {
    match &unit.scenario {
        ScenarioSpec::Pristine => run_battery_cell(
            network,
            protocol,
            config,
            unit.seed,
            spec.random_schedulers,
            unit.battery_index,
        ),
        ScenarioSpec::Faulty { .. } => {
            let plan = unit
                .scenario
                .fault_plan(unit.seed, unit.battery_index)
                .expect("scenario is faulty");
            let mut battery = standard_battery(unit.seed, spec.random_schedulers);
            assert!(
                unit.battery_index < battery.len(),
                "battery index {} out of range for battery of {}",
                unit.battery_index,
                battery.len()
            );
            let inner = battery.remove(unit.battery_index);
            let scheduler = inner.name();
            let mut faulty = FaultyScheduler::new(inner, plan);
            let retry = unit.scenario.retry_budget();
            let result = if retry > 0 {
                run_recovering(network, protocol, &mut faulty, config, retry).result
            } else {
                run_with_config(network, protocol, &mut faulty, config)
            };
            NamedRun { scheduler, result }
        }
        ScenarioSpec::Corrupt(corruption) => {
            let mut battery = standard_battery(unit.seed, spec.random_schedulers);
            assert!(
                unit.battery_index < battery.len(),
                "battery index {} out of range for battery of {}",
                unit.battery_index,
                battery.len()
            );
            let scheduler = &mut battery[unit.battery_index];
            NamedRun {
                scheduler: scheduler.name(),
                result: run_corrupted(network, protocol, scheduler.as_mut(), config, |states| {
                    corrupt(corruption, network, states)
                }),
            }
        }
    }
}

fn distil<S, M>(unit: &SweepUnit, named: &NamedRun<S, M>, ok: bool) -> RunRecord {
    let result = &named.result;
    // A quiescent run that lost messages to the adversary did not merely run
    // out of work — it was starved: the faults destroyed traffic the protocol
    // needed. First-class outcome so fault sweeps can count starvation apart
    // from genuine quiescence (pristine runs lose nothing and are unaffected).
    let outcome = match result.outcome {
        Outcome::Terminated => "terminated",
        Outcome::Quiescent if result.metrics.messages_lost() > 0 => "starved",
        Outcome::Quiescent => "quiescent",
        Outcome::BudgetExhausted => "budget-exhausted",
    };
    RunRecord {
        index: unit.index,
        protocol: unit.protocol.name(),
        topology: unit.topology.name(),
        scheduler: unit.scheduler.clone(),
        battery_index: unit.battery_index,
        seed: unit.seed,
        scenario: unit.scenario.name(),
        outcome: outcome.to_owned(),
        ok,
        sent: result.metrics.messages_sent,
        delivered: result.metrics.messages_delivered,
        accepted_at: result.deliveries_at_termination,
        total_bits: result.metrics.total_bits,
        max_msg_bits: result.metrics.max_message_bits,
        max_edge_bits: result.metrics.max_edge_bits(),
        dropped: result.metrics.messages_dropped,
        duplicated: result.metrics.messages_duplicated,
        crashed: result.metrics.crashed_deliveries,
        trace_digest: result.metrics.trace_digest(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;
    use crate::spec::TopologySpec;

    fn spec() -> SweepSpec {
        SweepSpec {
            protocols: vec![
                ProtocolSpec::Mapping,
                ProtocolSpec::Labeling,
                ProtocolSpec::GeneralBroadcast { payload_bits: 16 },
            ],
            topologies: vec![
                TopologySpec::ChainGn { n: 4 },
                TopologySpec::CycleWithTail { k: 5 },
            ],
            seeds: vec![0],
            random_schedulers: 1,
            max_deliveries: 1_000_000,
            scenarios: vec![ScenarioSpec::Pristine],
        }
    }

    #[test]
    fn every_unit_terminates_ok_and_is_repeatable() {
        let spec = spec();
        let manifest = Manifest::from_spec(&spec);
        for unit in &manifest.units {
            let a = execute_unit(&spec, unit).expect("unit runs");
            let b = execute_unit(&spec, unit).expect("unit runs");
            assert_eq!(a, b, "unit {} is not deterministic", unit.key());
            assert_eq!(a.outcome, "terminated", "unit {}", unit.key());
            assert!(a.ok, "unit {} failed its protocol check", unit.key());
            assert!(a.sent > 0 && a.delivered > 0 && a.total_bits > 0);
            assert_eq!(a.index, unit.index);
        }
    }

    #[test]
    fn adversarial_units_are_deterministic_and_labelled() {
        let mut spec = spec();
        spec.scenarios = vec![
            ScenarioSpec::Pristine,
            ScenarioSpec::Faulty {
                drop_pct: 20,
                dup_pct: 10,
                reorder: 2,
                seed: 6,
                retry: 0,
                crashes: vec![],
            },
            ScenarioSpec::Corrupt(StateCorruption::ScrambledLabels { seed: 7 }),
            ScenarioSpec::Corrupt(StateCorruption::LostPartition),
            ScenarioSpec::Corrupt(StateCorruption::StaleTerminal),
        ];
        let manifest = Manifest::from_spec(&spec);
        let mut saw_fault_counters = false;
        for unit in &manifest.units {
            let a = execute_unit(&spec, unit).expect("unit runs");
            let b = execute_unit(&spec, unit).expect("unit runs");
            assert_eq!(a, b, "unit {} is not deterministic", unit.key());
            assert_eq!(a.scenario, unit.scenario.name());
            if unit.scenario.is_pristine() {
                assert!(a.ok, "pristine unit {} failed", unit.key());
                assert_eq!((a.dropped, a.duplicated, a.crashed), (0, 0, 0));
            }
            saw_fault_counters |= a.dropped > 0 || a.duplicated > 0;
        }
        assert!(
            saw_fault_counters,
            "a 20%-drop 10%-dup scenario must record fault counters somewhere"
        );
    }

    #[test]
    fn total_drop_scenarios_starve_every_run() {
        let mut spec = spec();
        spec.scenarios = vec![
            ScenarioSpec::Pristine,
            ScenarioSpec::Faulty {
                drop_pct: 100,
                dup_pct: 0,
                reorder: 0,
                seed: 0,
                retry: 0,
                crashes: vec![],
            },
            // Even a retry variant cannot outlast a total-drop adversary: the
            // budget bounds the re-flood rounds, so starvation stays a
            // detectable first-class outcome rather than a hang.
            ScenarioSpec::Faulty {
                drop_pct: 100,
                dup_pct: 0,
                reorder: 0,
                seed: 0,
                retry: 2,
                crashes: vec![],
            },
        ];
        let manifest = Manifest::from_spec(&spec);
        for unit in manifest.units.iter().filter(|u| !u.scenario.is_pristine()) {
            let record = execute_unit(&spec, unit).expect("unit runs");
            assert_eq!(record.outcome, "starved", "unit {}", unit.key());
            assert!(!record.ok);
            assert_eq!(record.delivered, 0);
            assert_eq!(record.dropped, record.sent);
            assert!(record.dropped > 0);
        }
    }

    #[test]
    fn crash_window_retry_units_recover_where_their_retry_free_twins_starve() {
        // A crash outage at canonical node 1 destroys the early deliveries
        // addressed to it. The retry-free scenario starves on a single-path
        // topology; the retry twin (same plan — `retry` does not perturb the
        // fault stream) keeps re-flooding, each round advancing the step
        // clock, until the window closes and the protocol completes.
        let mut spec = spec();
        spec.topologies = vec![TopologySpec::CycleWithTail { k: 5 }];
        let crash = vec![(1usize, 0u64, 6u64)];
        spec.scenarios = vec![
            ScenarioSpec::Pristine,
            ScenarioSpec::Faulty {
                drop_pct: 0,
                dup_pct: 0,
                reorder: 0,
                seed: 0,
                retry: 0,
                crashes: crash.clone(),
            },
            ScenarioSpec::Faulty {
                drop_pct: 0,
                dup_pct: 0,
                reorder: 0,
                seed: 0,
                retry: 8,
                crashes: crash,
            },
        ];
        let manifest = Manifest::from_spec(&spec);
        let mut starved = 0;
        let mut recovered = 0;
        for unit in &manifest.units {
            let record = execute_unit(&spec, unit).expect("unit runs");
            match &unit.scenario {
                ScenarioSpec::Pristine => assert!(record.ok, "unit {}", unit.key()),
                ScenarioSpec::Faulty { retry: 0, .. } => {
                    assert_eq!(record.outcome, "starved", "unit {}", unit.key());
                    assert!(record.crashed > 0, "unit {}", unit.key());
                    starved += 1;
                }
                ScenarioSpec::Faulty { .. } => {
                    assert_eq!(record.outcome, "terminated", "unit {}", unit.key());
                    assert!(record.ok, "unit {}", unit.key());
                    assert!(record.crashed > 0, "unit {}", unit.key());
                    recovered += 1;
                }
                ScenarioSpec::Corrupt(_) => unreachable!(),
            }
        }
        assert!(starved > 0 && recovered > 0);
        assert_eq!(starved, recovered);
    }

    #[test]
    fn bad_topology_parameters_surface_as_spec_errors() {
        let spec = spec();
        let mut unit = Manifest::from_spec(&spec).units[0].clone();
        unit.topology = TopologySpec::ChainGn { n: 0 };
        let err = execute_unit(&spec, &unit).expect_err("degenerate chain");
        assert!(err.to_string().contains("chain"), "{err}");
    }

    #[test]
    fn budget_exhaustion_is_recorded_not_fatal() {
        let mut spec = spec();
        spec.max_deliveries = 2;
        let manifest = Manifest::from_spec(&spec);
        let record = execute_unit(&spec, &manifest.units[0]).expect("unit runs");
        assert_eq!(record.outcome, "budget-exhausted");
        assert!(!record.ok);
        assert_eq!(record.accepted_at, None);
    }
}
