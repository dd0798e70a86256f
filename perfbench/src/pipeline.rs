//! The sweep's dedup shard path rebuilt from the library's public calls, with
//! a span around each call.
//!
//! [`run_pipeline`] follows `run_shard_to_file_with_opts` with dedup and a
//! cache, and [`execute_traced`] follows `execute_unit`: build, canonicalize,
//! run one battery cell under the unit's scenario, digest the trace, check
//! success, distil the record. `main.rs` checks that the records, clusters,
//! dedup counters and merged output equal the library's own, so the span
//! times measure the same program the end-to-end metrics do.

use std::collections::BTreeMap;
use std::path::Path;

use anet_core::general_broadcast::{corrupt_general_states, general_recovered, GeneralBroadcast};
use anet_core::labeling::{corrupt_labeling_states, labeling_recovered, Labeling};
use anet_core::mapping::{corrupt_mapping_states, mapping_recovered, Mapping};
use anet_core::{Payload, StateCorruption};
use anet_graph::canon::{canonical_form, CanonicalForm};
use anet_graph::Network;
use anet_sim::engine::{
    run_corrupted, run_recovering, run_with_config, ExecutionConfig, RunConfig, RunResult,
};
use anet_sim::runner::run_battery_cell;
use anet_sim::scheduler::standard_battery;
use anet_sim::{FaultyScheduler, Outcome, RefloodProtocol};
use anet_sweep::{
    merge_lines, unit_fingerprint, CachePayload, DedupStats, Manifest, ProtocolSpec, ResultCache,
    RunRecord, ScenarioSpec, SweepError, SweepSpec, SweepUnit, UnitCluster,
};

use crate::tracer::Tracer;

/// Deterministic work counts, summed over every network built and every
/// cell run by one pipeline pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkCounts {
    pub nodes: u64,
    pub edges: u64,
    pub deliveries: u64,
    pub sends: u64,
    pub wire_bits: u64,
    pub trace_events: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub crashed: u64,
    pub reflood_rounds: u64,
}

impl WorkCounts {
    fn add_network(&mut self, network: &Network) {
        self.nodes += network.node_count() as u64;
        self.edges += network.edge_count() as u64;
    }

    pub fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("nodes", self.nodes),
            ("edges", self.edges),
            ("deliveries", self.deliveries),
            ("sends", self.sends),
            ("wire_bits", self.wire_bits),
            ("trace_events", self.trace_events),
            ("dropped", self.dropped),
            ("duplicated", self.duplicated),
            ("crashed", self.crashed),
            ("reflood_rounds", self.reflood_rounds),
        ]
    }
}

/// What one pipeline pass produced.
pub struct PipelineRun {
    /// The merged JSONL, as `merge_shard_files` would write it.
    pub merged: String,
    pub stats: DedupStats,
    pub clusters: Vec<UnitCluster>,
    /// Records of the representatives that ran (cache misses), in run order.
    pub executed: Vec<RunRecord>,
    pub counts: WorkCounts,
}

/// One dedup shard run over the whole manifest, with the cache at
/// `cache_dir` if there is one.
pub fn run_pipeline(
    spec: &SweepSpec,
    cache_dir: Option<&Path>,
    tr: &mut Tracer,
) -> Result<PipelineRun, SweepError> {
    let root = tr.open("sweep.pipeline", None);
    let out = pipeline_body(spec, cache_dir, tr);
    tr.close(root, "");
    out
}

fn pipeline_body(
    spec: &SweepSpec,
    cache_dir: Option<&Path>,
    tr: &mut Tracer,
) -> Result<PipelineRun, SweepError> {
    let mut counts = WorkCounts::default();
    let manifest = tr.leaf("sweep.manifest", None, || Manifest::from_spec(spec));
    let units: Vec<&SweepUnit> = manifest.units.iter().collect();
    let span = tr.open("sweep.cluster", None);
    let clusters = cluster_traced(spec, &units, tr, &mut counts);
    tr.close(span, "");
    let clusters = clusters?;

    let cache = match cache_dir {
        Some(dir) => Some(ResultCache::new(dir).map_err(SweepError::Io)?),
        None => None,
    };
    let mut stats = DedupStats {
        units: units.len(),
        clusters: clusters.len(),
        ..DedupStats::default()
    };
    let mut records: Vec<Option<RunRecord>> = vec![None; clusters.len()];
    let mut to_run = Vec::new();
    for (position, cluster) in clusters.iter().enumerate() {
        let representative = units[cluster.representative];
        if let Some(cache) = &cache {
            let hit = tr.leaf("sweep.cache_load", Some(representative.index), || {
                cache.load(&cluster.fingerprint)
            });
            if let Some(payload) = hit {
                stats.cache_hits += 1;
                records[position] = Some(payload.record_for(representative));
                continue;
            }
            stats.cache_misses += 1;
        }
        to_run.push(position);
    }
    stats.representatives_run = to_run.len();
    stats.members_by_reference = units.len() - to_run.len();

    let mut executed = Vec::with_capacity(to_run.len());
    for &position in &to_run {
        let representative = units[clusters[position].representative];
        let span = tr.open("sweep.unit", Some(representative.index));
        let record = execute_traced(spec, representative, tr, &mut counts);
        tr.close(span, "");
        executed.push(record?);
    }
    for (&position, record) in to_run.iter().zip(&executed) {
        let cluster = &clusters[position];
        if let Some(cache) = &cache {
            tr.leaf(
                "sweep.cache_store",
                Some(units[cluster.representative].index),
                || cache.store(&cluster.fingerprint, &CachePayload::from_record(record)),
            )
            .map_err(SweepError::Io)?;
        }
        records[position] = Some(record.clone());
    }

    let mut lines = Vec::with_capacity(units.len());
    for (cluster, record) in clusters.iter().zip(&records) {
        let record = record.as_ref().expect("every cluster resolved to a record");
        for &member in &cluster.members {
            let unit = units[member];
            let line = tr.leaf("sweep.record", Some(unit.index), || {
                record.rebind(unit).to_jsonl_line()
            });
            lines.push((unit.index, line));
        }
    }
    let merged = tr.leaf("sweep.merge", None, || merge_lines(units.len(), [lines]))?;
    Ok(PipelineRun {
        merged,
        stats,
        clusters,
        executed,
        counts,
    })
}

/// `cluster_units`: one build and canonical form per distinct topology name,
/// then exact grouping by (protocol, seed, battery position, scenario, form).
fn cluster_traced(
    spec: &SweepSpec,
    units: &[&SweepUnit],
    tr: &mut Tracer,
    counts: &mut WorkCounts,
) -> Result<Vec<UnitCluster>, SweepError> {
    let mut forms: BTreeMap<String, CanonicalForm> = BTreeMap::new();
    for unit in units {
        let name = unit.topology.name();
        if forms.contains_key(&name) {
            continue;
        }
        let network = tr
            .leaf("graph.build", None, || unit.topology.build())
            .map_err(SweepError::Topology)?;
        counts.add_network(&network);
        let form = tr.leaf("graph.canon", None, || canonical_form(&network).form);
        forms.insert(name, form);
    }
    type ClusterKey = (String, u64, usize, String, CanonicalForm);
    let mut classes: BTreeMap<ClusterKey, Vec<usize>> = BTreeMap::new();
    for (position, unit) in units.iter().enumerate() {
        let form = forms[&unit.topology.name()].clone();
        classes
            .entry((
                unit.protocol.name(),
                unit.seed,
                unit.battery_index,
                unit.scenario.name(),
                form,
            ))
            .or_default()
            .push(position);
    }
    let mut clusters: Vec<UnitCluster> = classes
        .into_iter()
        .map(|((_, _, _, _, form), members)| UnitCluster {
            fingerprint: unit_fingerprint(spec, units[members[0]], &form),
            representative: members[0],
            members,
        })
        .collect();
    clusters.sort_unstable_by_key(|c| c.representative);
    Ok(clusters)
}

/// `execute_unit`, one span per public call.
fn execute_traced(
    spec: &SweepSpec,
    unit: &SweepUnit,
    tr: &mut Tracer,
    counts: &mut WorkCounts,
) -> Result<RunRecord, SweepError> {
    let id = Some(unit.index);
    let built = tr
        .leaf("graph.build", id, || unit.topology.build())
        .map_err(SweepError::Topology)?;
    counts.add_network(&built);
    let network = tr
        .leaf("graph.canon", id, || {
            canonical_form(&built).form.to_network()
        })
        .map_err(SweepError::Topology)?;
    let config = RunConfig::from(ExecutionConfig {
        max_deliveries: spec.max_deliveries,
        record_trace: true,
    });
    let cell = Cell {
        spec,
        unit,
        network: &network,
        config,
    };
    Ok(match &unit.protocol {
        ProtocolSpec::Mapping => cell.run(
            tr,
            counts,
            &Mapping::new(),
            corrupt_mapping_states,
            mapping_recovered,
            "mapping",
        ),
        ProtocolSpec::Labeling => cell.run(
            tr,
            counts,
            &Labeling::new(),
            corrupt_labeling_states,
            labeling_recovered,
            "labeling",
        ),
        ProtocolSpec::GeneralBroadcast { payload_bits } => cell.run(
            tr,
            counts,
            &GeneralBroadcast::new(Payload::synthetic(*payload_bits)),
            corrupt_general_states,
            general_recovered,
            "general-broadcast",
        ),
    })
}

struct Cell<'a> {
    spec: &'a SweepSpec,
    unit: &'a SweepUnit,
    network: &'a Network,
    config: RunConfig,
}

impl Cell<'_> {
    fn run<P: RefloodProtocol>(
        &self,
        tr: &mut Tracer,
        counts: &mut WorkCounts,
        protocol: &P,
        corrupt: impl FnOnce(&StateCorruption, &Network, &mut [P::State]),
        recovered: impl Fn(&Network, &[P::State]) -> bool,
        check: &'static str,
    ) -> RunRecord {
        let id = Some(self.unit.index);
        let span = tr.open("sim.run", id);
        let (scheduler, result, reflood_rounds) = self.simulate(protocol, corrupt);
        tr.close(span, scheduler);
        let trace = result
            .trace
            .as_ref()
            .expect("sweep runs always record traces");
        let trace_digest = tr.leaf("sim.trace_digest", id, || trace.digest());
        let ok = result.outcome.terminated() && {
            let span = tr.open("core.check", id);
            let ok = recovered(self.network, &result.states);
            tr.close(span, check);
            ok
        };

        let m = &result.metrics;
        counts.deliveries += m.messages_delivered;
        counts.sends += m.messages_sent;
        counts.wire_bits += m.total_bits;
        counts.trace_events += trace.len() as u64;
        counts.dropped += m.messages_dropped;
        counts.duplicated += m.messages_duplicated;
        counts.crashed += m.crashed_deliveries;
        counts.reflood_rounds += u64::from(reflood_rounds);

        let outcome = match result.outcome {
            Outcome::Terminated => "terminated",
            Outcome::Quiescent if m.messages_lost() > 0 => "starved",
            Outcome::Quiescent => "quiescent",
            Outcome::BudgetExhausted => "budget-exhausted",
        };
        let unit = self.unit;
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
            sent: m.messages_sent,
            delivered: m.messages_delivered,
            accepted_at: result.deliveries_at_termination,
            total_bits: m.total_bits,
            max_msg_bits: m.max_message_bits,
            max_edge_bits: m.max_edge_bits(),
            dropped: m.messages_dropped,
            duplicated: m.messages_duplicated,
            crashed: m.crashed_deliveries,
            trace_digest,
        }
    }

    /// The battery cell under the unit's scenario: the scheduler's name, the
    /// run, and the re-flood rounds that fired.
    fn simulate<P: RefloodProtocol>(
        &self,
        protocol: &P,
        corrupt: impl FnOnce(&StateCorruption, &Network, &mut [P::State]),
    ) -> (&'static str, RunResult<P::State, P::Message>, u32) {
        let (spec, unit, network, config) = (self.spec, self.unit, self.network, self.config);
        match &unit.scenario {
            ScenarioSpec::Pristine => {
                let named = run_battery_cell(
                    network,
                    protocol,
                    config,
                    unit.seed,
                    spec.random_schedulers,
                    unit.battery_index,
                );
                (named.scheduler, named.result, 0)
            }
            ScenarioSpec::Faulty { .. } => {
                let plan = unit
                    .scenario
                    .fault_plan(unit.seed, unit.battery_index)
                    .expect("scenario is faulty");
                let inner =
                    standard_battery(unit.seed, spec.random_schedulers).remove(unit.battery_index);
                let scheduler = inner.name();
                let mut faulty = FaultyScheduler::new(inner, plan);
                let retry = unit.scenario.retry_budget();
                if retry > 0 {
                    let run = run_recovering(network, protocol, &mut faulty, config, retry);
                    (scheduler, run.result, run.reflood_rounds)
                } else {
                    let result = run_with_config(network, protocol, &mut faulty, config);
                    (scheduler, result, 0)
                }
            }
            ScenarioSpec::Corrupt(corruption) => {
                let mut battery = standard_battery(unit.seed, spec.random_schedulers);
                let scheduler = &mut battery[unit.battery_index];
                let name = scheduler.name();
                let result = run_corrupted(network, protocol, scheduler.as_mut(), config, |s| {
                    corrupt(corruption, network, s)
                });
                (name, result, 0)
            }
        }
    }
}
