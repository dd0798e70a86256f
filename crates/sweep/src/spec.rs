//! The declarative sweep specification: protocols × topologies × seeds ×
//! scheduler battery.
//!
//! A [`SweepSpec`] names *families* of executions, exactly the universally
//! quantified statements of the paper: every protocol in the list runs on every
//! topology instance, under every scheduler of the standard battery, for every
//! battery seed. The spec has a canonical line-oriented text form
//! ([`SweepSpec::to_spec_string`] / [`SweepSpec::parse`]) so a sweep can be
//! shipped to worker processes as a file and reproduced exactly.
//!
//! Every random topology carries its **own** generator seed in the spec, so any
//! unit of the sweep can rebuild its network in any process without observing
//! the RNG draws of other topologies. Probabilities are stored as integer
//! percentages to keep the text form free of float formatting questions.

use anet_core::StateCorruption;
use anet_graph::{generators, Network, NetworkError, NodeId};
use anet_sim::FaultPlan;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::SweepError;

/// A protocol family to sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// Full topology extraction (`anet_core::mapping`, interned records).
    Mapping,
    /// Unique label assignment (`anet_core::labeling`).
    Labeling,
    /// General-graph broadcast with a synthetic payload of the given size in
    /// bits (`anet_core::general_broadcast`).
    GeneralBroadcast {
        /// `|m|` in bits for the synthetic payload.
        payload_bits: u64,
    },
}

impl ProtocolSpec {
    /// Canonical name, used in manifests and JSONL records.
    pub fn name(&self) -> String {
        match self {
            ProtocolSpec::Mapping => "mapping".to_owned(),
            ProtocolSpec::Labeling => "labeling".to_owned(),
            ProtocolSpec::GeneralBroadcast { payload_bits } => {
                format!("general-broadcast/{payload_bits}")
            }
        }
    }

    /// Canonical spec line (without the `protocol ` keyword).
    fn spec_args(&self) -> String {
        match self {
            ProtocolSpec::Mapping => "mapping".to_owned(),
            ProtocolSpec::Labeling => "labeling".to_owned(),
            ProtocolSpec::GeneralBroadcast { payload_bits } => {
                format!("general-broadcast {payload_bits}")
            }
        }
    }

    fn parse_args(args: &[&str], line: usize) -> Result<Self, SweepError> {
        match args {
            ["mapping"] => Ok(ProtocolSpec::Mapping),
            ["labeling"] => Ok(ProtocolSpec::Labeling),
            ["general-broadcast", bits] => Ok(ProtocolSpec::GeneralBroadcast {
                payload_bits: parse_int(bits, line)?,
            }),
            _ => Err(SweepError::Spec(format!(
                "line {line}: unknown protocol {args:?} (expected `mapping`, `labeling` or `general-broadcast <bits>`)"
            ))),
        }
    }
}

/// A topology instance to sweep: a generator family plus its full parameter
/// set, including the generator seed for random families.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// The lower-bound chain family `G_n`.
    ChainGn {
        /// Number of internal vertices.
        n: usize,
    },
    /// A degenerate grounded tree: a simple path.
    Path {
        /// Number of internal vertices.
        n: usize,
    },
    /// A star: the root feeds a hub which feeds `leaves` leaves.
    Star {
        /// Number of leaves.
        leaves: usize,
    },
    /// The complete DAG on `internal` internal vertices.
    CompleteDag {
        /// Number of internal vertices.
        internal: usize,
    },
    /// `k` stacked diamonds.
    DiamondStack {
        /// Number of diamonds.
        k: usize,
    },
    /// A directed cycle of length `k` with a tail to the terminal.
    CycleWithTail {
        /// Cycle length.
        k: usize,
    },
    /// `count` nested cycles of length `len`.
    NestedCycles {
        /// Number of cycles.
        count: usize,
        /// Length of each cycle.
        len: usize,
    },
    /// A random DAG; `edge_pct` is the extra-edge probability in percent.
    RandomDag {
        /// Number of internal vertices.
        internal: usize,
        /// Extra-edge probability, percent (0–100).
        edge_pct: u8,
        /// Generator seed.
        seed: u64,
    },
    /// A random cyclic digraph; probabilities in percent.
    RandomCyclic {
        /// Number of internal vertices.
        internal: usize,
        /// Extra forward-edge probability, percent (0–100).
        forward_pct: u8,
        /// Back-edge probability, percent (0–100).
        back_pct: u8,
        /// Generator seed.
        seed: u64,
    },
    /// A layered random DAG.
    LayeredDag {
        /// Number of layers.
        layers: usize,
        /// Vertices per layer.
        width: usize,
        /// Out-fan per vertex.
        fan: usize,
        /// Generator seed.
        seed: u64,
    },
    /// A random grounded tree; `extra_pct` is the extra-terminal-edge
    /// probability in percent.
    RandomGroundedTree {
        /// Number of internal vertices.
        internal: usize,
        /// Maximum out-degree (≥ 2).
        max_out: usize,
        /// Extra terminal-edge probability, percent (0–100).
        extra_pct: u8,
        /// Generator seed.
        seed: u64,
    },
}

impl TopologySpec {
    /// Canonical instance name, used in manifests and JSONL records. Names
    /// contain no spaces, quotes or commas (the JSONL reader relies on this).
    pub fn name(&self) -> String {
        match *self {
            TopologySpec::ChainGn { n } => format!("chain-gn/{n}"),
            TopologySpec::Path { n } => format!("path/{n}"),
            TopologySpec::Star { leaves } => format!("star/{leaves}"),
            TopologySpec::CompleteDag { internal } => format!("complete-dag/{internal}"),
            TopologySpec::DiamondStack { k } => format!("diamond-stack/{k}"),
            TopologySpec::CycleWithTail { k } => format!("cycle-with-tail/{k}"),
            TopologySpec::NestedCycles { count, len } => format!("nested-cycles/{count}x{len}"),
            TopologySpec::RandomDag {
                internal,
                edge_pct,
                seed,
            } => format!("random-dag/{internal}p{edge_pct}s{seed}"),
            TopologySpec::RandomCyclic {
                internal,
                forward_pct,
                back_pct,
                seed,
            } => format!("random-cyclic/{internal}f{forward_pct}b{back_pct}s{seed}"),
            TopologySpec::LayeredDag {
                layers,
                width,
                fan,
                seed,
            } => format!("layered-dag/{layers}x{width}f{fan}s{seed}"),
            TopologySpec::RandomGroundedTree {
                internal,
                max_out,
                extra_pct,
                seed,
            } => format!("grounded-tree/{internal}o{max_out}p{extra_pct}s{seed}"),
        }
    }

    /// Builds the network. Random families seed their own fresh [`StdRng`], so
    /// construction is independent of every other unit in the sweep — the
    /// property that lets any shard rebuild any unit's network bit-identically.
    pub fn build(&self) -> Result<Network, NetworkError> {
        match *self {
            TopologySpec::ChainGn { n } => generators::chain_gn(n),
            TopologySpec::Path { n } => generators::path_network(n),
            TopologySpec::Star { leaves } => generators::star_network(leaves),
            TopologySpec::CompleteDag { internal } => generators::complete_dag(internal),
            TopologySpec::DiamondStack { k } => generators::diamond_stack(k),
            TopologySpec::CycleWithTail { k } => generators::cycle_with_tail(k),
            TopologySpec::NestedCycles { count, len } => generators::nested_cycles(count, len),
            TopologySpec::RandomDag {
                internal,
                edge_pct,
                seed,
            } => {
                let mut rng = StdRng::seed_from_u64(seed);
                generators::random_dag(&mut rng, internal, pct(edge_pct))
            }
            TopologySpec::RandomCyclic {
                internal,
                forward_pct,
                back_pct,
                seed,
            } => {
                let mut rng = StdRng::seed_from_u64(seed);
                generators::random_cyclic(&mut rng, internal, pct(forward_pct), pct(back_pct))
            }
            TopologySpec::LayeredDag {
                layers,
                width,
                fan,
                seed,
            } => {
                let mut rng = StdRng::seed_from_u64(seed);
                generators::layered_dag(&mut rng, layers, width, fan)
            }
            TopologySpec::RandomGroundedTree {
                internal,
                max_out,
                extra_pct,
                seed,
            } => {
                let mut rng = StdRng::seed_from_u64(seed);
                generators::random_grounded_tree(&mut rng, internal, max_out, pct(extra_pct))
            }
        }
    }

    /// Checks the generator parameters without building anything and returns
    /// the vertex count (root and terminal included) of the network
    /// [`TopologySpec::build`] would return. Each generator's
    /// `*_node_count` companion holds its rules, so this accepts exactly what
    /// `build` accepts: a spec that parses never fails to build its networks
    /// halfway through a sweep.
    ///
    /// # Errors
    ///
    /// Returns the error [`TopologySpec::build`] would return.
    pub fn validate(&self) -> Result<usize, NetworkError> {
        match *self {
            TopologySpec::ChainGn { n } => generators::chain_gn_node_count(n),
            TopologySpec::Path { n } => generators::path_network_node_count(n),
            TopologySpec::Star { leaves } => generators::star_network_node_count(leaves),
            TopologySpec::CompleteDag { internal } => generators::complete_dag_node_count(internal),
            TopologySpec::DiamondStack { k } => generators::diamond_stack_node_count(k),
            TopologySpec::CycleWithTail { k } => generators::cycle_with_tail_node_count(k),
            TopologySpec::NestedCycles { count, len } => {
                generators::nested_cycles_node_count(count, len)
            }
            TopologySpec::RandomDag {
                internal, edge_pct, ..
            } => generators::random_dag_node_count(internal, pct(edge_pct)),
            TopologySpec::RandomCyclic {
                internal,
                forward_pct,
                back_pct,
                ..
            } => generators::random_cyclic_node_count(internal, pct(forward_pct), pct(back_pct)),
            TopologySpec::LayeredDag {
                layers, width, fan, ..
            } => generators::layered_dag_node_count(layers, width, fan),
            TopologySpec::RandomGroundedTree {
                internal, max_out, ..
            } => generators::random_grounded_tree_node_count(internal, max_out),
        }
    }

    /// Canonical spec line (without the `topology ` keyword).
    fn spec_args(&self) -> String {
        match *self {
            TopologySpec::ChainGn { n } => format!("chain-gn {n}"),
            TopologySpec::Path { n } => format!("path {n}"),
            TopologySpec::Star { leaves } => format!("star {leaves}"),
            TopologySpec::CompleteDag { internal } => format!("complete-dag {internal}"),
            TopologySpec::DiamondStack { k } => format!("diamond-stack {k}"),
            TopologySpec::CycleWithTail { k } => format!("cycle-with-tail {k}"),
            TopologySpec::NestedCycles { count, len } => format!("nested-cycles {count} {len}"),
            TopologySpec::RandomDag {
                internal,
                edge_pct,
                seed,
            } => format!("random-dag {internal} {edge_pct} {seed}"),
            TopologySpec::RandomCyclic {
                internal,
                forward_pct,
                back_pct,
                seed,
            } => format!("random-cyclic {internal} {forward_pct} {back_pct} {seed}"),
            TopologySpec::LayeredDag {
                layers,
                width,
                fan,
                seed,
            } => format!("layered-dag {layers} {width} {fan} {seed}"),
            TopologySpec::RandomGroundedTree {
                internal,
                max_out,
                extra_pct,
                seed,
            } => format!("grounded-tree {internal} {max_out} {extra_pct} {seed}"),
        }
    }

    fn parse_args(args: &[&str], line: usize) -> Result<Self, SweepError> {
        let spec = match args {
            ["chain-gn", n] => TopologySpec::ChainGn {
                n: parse_int(n, line)?,
            },
            ["path", n] => TopologySpec::Path {
                n: parse_int(n, line)?,
            },
            ["star", leaves] => TopologySpec::Star {
                leaves: parse_int(leaves, line)?,
            },
            ["complete-dag", internal] => TopologySpec::CompleteDag {
                internal: parse_int(internal, line)?,
            },
            ["diamond-stack", k] => TopologySpec::DiamondStack {
                k: parse_int(k, line)?,
            },
            ["cycle-with-tail", k] => TopologySpec::CycleWithTail {
                k: parse_int(k, line)?,
            },
            ["nested-cycles", count, len] => TopologySpec::NestedCycles {
                count: parse_int(count, line)?,
                len: parse_int(len, line)?,
            },
            ["random-dag", internal, pct, seed] => TopologySpec::RandomDag {
                internal: parse_int(internal, line)?,
                edge_pct: parse_pct(pct, line)?,
                seed: parse_int(seed, line)?,
            },
            ["random-cyclic", internal, fwd, back, seed] => TopologySpec::RandomCyclic {
                internal: parse_int(internal, line)?,
                forward_pct: parse_pct(fwd, line)?,
                back_pct: parse_pct(back, line)?,
                seed: parse_int(seed, line)?,
            },
            ["layered-dag", layers, width, fan, seed] => TopologySpec::LayeredDag {
                layers: parse_int(layers, line)?,
                width: parse_int(width, line)?,
                fan: parse_int(fan, line)?,
                seed: parse_int(seed, line)?,
            },
            ["grounded-tree", internal, max_out, pct, seed] => TopologySpec::RandomGroundedTree {
                internal: parse_int(internal, line)?,
                max_out: parse_int(max_out, line)?,
                extra_pct: parse_pct(pct, line)?,
                seed: parse_int(seed, line)?,
            },
            _ => {
                return Err(SweepError::Spec(format!(
                    "line {line}: unknown topology {args:?}"
                )))
            }
        };
        Ok(spec)
    }
}

/// An execution scenario: the adversary (if any) each run of the sweep is
/// subjected to. Every spec always sweeps the [`ScenarioSpec::Pristine`]
/// scenario; `faults` and `corrupt` directives *add* adversarial scenarios,
/// and every unit of the protocol × topology × seed × battery grid runs once
/// per scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioSpec {
    /// Reliable delivery, clean initial state — the classical sweep.
    Pristine,
    /// Deliveries pass through a [`FaultyScheduler`](anet_sim::FaultyScheduler)
    /// driven by this plan: percentages of drops and duplicates, bounded
    /// reordering depth, a fault-stream seed, optional crash windows, and an
    /// optional retry budget that switches the unit to the re-flood runner
    /// ([`anet_sim::run_recovering`]).
    Faulty {
        /// Per-delivery drop probability in percent (0–100).
        drop_pct: u8,
        /// Per-delivery duplication probability in percent (0–100).
        dup_pct: u8,
        /// Maximum reordering depth (0 disables reordering).
        reorder: usize,
        /// Fault-stream seed, mixed per-unit so each battery cell draws its
        /// own deterministic stream.
        seed: u64,
        /// Re-flood retry budget. `0` runs the pristine single-shot engine;
        /// any larger value runs the unit through
        /// [`anet_sim::run_recovering`] with this round budget.
        retry: u32,
        /// Crash windows `(node, from, until)`: vertex `node` (an index into
        /// the unit's *canonical* relabeling) destroys every delivery
        /// addressed to it during engine steps `[from, until)`.
        /// [`SweepSpec::parse`] rejects an index that is out of range for
        /// any of the spec's topologies.
        crashes: Vec<(usize, u64, u64)>,
    },
    /// The run starts from corrupted protocol state and success is the
    /// protocol's recovery predicate.
    Corrupt(StateCorruption),
}

impl ScenarioSpec {
    /// Canonical name, JSONL-safe, used in manifests, records and cache keys.
    ///
    /// Faulty scenarios keep their historical `faults/d…u…r…s…` form and
    /// append `+t{retry}` / `+c{node}:{from}..{until}` segments only when the
    /// corresponding field is set, so every pre-existing scenario name — and
    /// every unit key, `unit-v2` fingerprint and cache entry derived from it —
    /// is byte-identical to what earlier sweeps produced.
    pub fn name(&self) -> String {
        match self {
            ScenarioSpec::Pristine => "pristine".to_owned(),
            ScenarioSpec::Faulty {
                drop_pct,
                dup_pct,
                reorder,
                seed,
                retry,
                crashes,
            } => {
                let mut name = format!("faults/d{drop_pct}u{dup_pct}r{reorder}s{seed}");
                if *retry > 0 {
                    name.push_str(&format!("+t{retry}"));
                }
                for (node, from, until) in crashes {
                    name.push_str(&format!("+c{node}:{from}..{until}"));
                }
                name
            }
            ScenarioSpec::Corrupt(c) => format!("corrupt/{}", c.name()),
        }
    }

    /// Whether this is the pristine scenario.
    pub fn is_pristine(&self) -> bool {
        matches!(self, ScenarioSpec::Pristine)
    }

    /// The fault plan for one unit of a [`ScenarioSpec::Faulty`] sweep, `None`
    /// otherwise. The plan seed mixes the scenario's fault seed with the
    /// unit's battery seed and battery index — all fields of the dedup
    /// cluster key — so equivalent units draw identical fault streams no
    /// matter which shard, job or dedup representative executes them.
    pub fn fault_plan(&self, battery_seed: u64, battery_index: usize) -> Option<FaultPlan> {
        match self {
            ScenarioSpec::Faulty {
                drop_pct,
                dup_pct,
                reorder,
                seed,
                crashes,
                ..
            } => {
                let mixed = mix64(mix64(seed ^ 0xFA17_0000).wrapping_add(battery_seed))
                    .wrapping_add(battery_index as u64);
                let mut plan = FaultPlan::reliable()
                    .with_drops(*drop_pct)
                    .with_duplicates(*dup_pct)
                    .with_reorder(*reorder)
                    .with_seed(mix64(mixed));
                for &(node, from, until) in crashes {
                    plan = plan.with_crash(NodeId(node), from, until);
                }
                Some(plan)
            }
            _ => None,
        }
    }

    /// The re-flood retry budget of a [`ScenarioSpec::Faulty`] scenario
    /// (0 for every other scenario and for retry-free fault scenarios).
    pub fn retry_budget(&self) -> u32 {
        match self {
            ScenarioSpec::Faulty { retry, .. } => *retry,
            _ => 0,
        }
    }

    /// Canonical spec line (with the directive keyword), or `None` for the
    /// implicit pristine scenario.
    fn spec_line(&self) -> Option<String> {
        match self {
            ScenarioSpec::Pristine => None,
            ScenarioSpec::Faulty {
                drop_pct,
                dup_pct,
                reorder,
                seed,
                retry,
                crashes,
            } => {
                let mut line =
                    format!("faults drop={drop_pct} dup={dup_pct} reorder={reorder} seed={seed}");
                if *retry > 0 {
                    line.push_str(&format!(" retry={retry}"));
                }
                for (node, from, until) in crashes {
                    line.push_str(&format!(" crash={node}:{from}..{until}"));
                }
                Some(line)
            }
            ScenarioSpec::Corrupt(StateCorruption::ScrambledLabels { seed }) => {
                Some(format!("corrupt labels {seed}"))
            }
            ScenarioSpec::Corrupt(StateCorruption::LostPartition) => {
                Some("corrupt partition".to_owned())
            }
            ScenarioSpec::Corrupt(StateCorruption::StaleTerminal) => {
                Some("corrupt stale-terminal".to_owned())
            }
        }
    }

    fn parse_faults(args: &[&str], line: usize) -> Result<Self, SweepError> {
        let (mut drop_pct, mut dup_pct, mut reorder, mut seed) = (0u8, 0u8, 0usize, 0u64);
        let mut retry = 0u32;
        let mut crashes: Vec<(usize, u64, u64)> = Vec::new();
        for token in args {
            let Some((key, value)) = token.split_once('=') else {
                return Err(SweepError::Spec(format!(
                    "line {line}: faults expects key=value tokens, got `{token}`"
                )));
            };
            match key {
                "drop" => drop_pct = parse_pct(value, line)?,
                "dup" => dup_pct = parse_pct(value, line)?,
                "reorder" => reorder = parse_int(value, line)?,
                "seed" => seed = parse_int(value, line)?,
                "retry" => retry = parse_int(value, line)?,
                "crash" => crashes.push(parse_crash(value, line)?),
                _ => {
                    return Err(SweepError::Spec(format!(
                        "line {line}: unknown faults key `{key}` (expected drop/dup/reorder/seed/retry/crash)"
                    )))
                }
            }
        }
        if drop_pct == 0 && dup_pct == 0 && reorder == 0 && crashes.is_empty() && retry == 0 {
            return Err(SweepError::Spec(format!(
                "line {line}: faults scenario injects nothing (set drop, dup, reorder or crash; retry alone is the recovery-overhead baseline)"
            )));
        }
        Ok(ScenarioSpec::Faulty {
            drop_pct,
            dup_pct,
            reorder,
            seed,
            retry,
            crashes,
        })
    }

    /// Expands a `faults ramp drop=A..B step=S …` directive into one ordinary
    /// [`ScenarioSpec::Faulty`] scenario per drop intensity `A, A+S, …` up to
    /// and including `B` (when the stride lands on it). Every other key
    /// (`dup`/`reorder`/`seed`/`retry`/`crash`) is shared by all points. The
    /// expansion is pure parse-time sugar: the canonical text form re-emits
    /// the expanded `faults` lines, so fingerprints, unit keys and caches see
    /// only ordinary fault scenarios.
    fn parse_ramp(args: &[&str], line: usize) -> Result<Vec<Self>, SweepError> {
        let mut drop_range: Option<(u8, u8)> = None;
        let mut step = 0u8;
        let (mut dup_pct, mut reorder, mut seed) = (0u8, 0usize, 0u64);
        let mut retry = 0u32;
        let mut crashes: Vec<(usize, u64, u64)> = Vec::new();
        for token in args {
            let Some((key, value)) = token.split_once('=') else {
                return Err(SweepError::Spec(format!(
                    "line {line}: faults ramp expects key=value tokens, got `{token}`"
                )));
            };
            match key {
                "drop" => {
                    let Some((a, b)) = value.split_once("..") else {
                        return Err(SweepError::Spec(format!(
                            "line {line}: ramp drop expects a range `a..b`, got `{value}`"
                        )));
                    };
                    let a = parse_pct(a, line)?;
                    let b = parse_pct(b, line)?;
                    if a > b {
                        return Err(SweepError::Spec(format!(
                            "line {line}: empty ramp range `{value}`"
                        )));
                    }
                    drop_range = Some((a, b));
                }
                "step" => step = parse_int(value, line)?,
                "dup" => dup_pct = parse_pct(value, line)?,
                "reorder" => reorder = parse_int(value, line)?,
                "seed" => seed = parse_int(value, line)?,
                "retry" => retry = parse_int(value, line)?,
                "crash" => crashes.push(parse_crash(value, line)?),
                _ => {
                    return Err(SweepError::Spec(format!(
                        "line {line}: unknown faults ramp key `{key}` (expected drop/step/dup/reorder/seed/retry/crash)"
                    )))
                }
            }
        }
        let Some((from, until)) = drop_range else {
            return Err(SweepError::Spec(format!(
                "line {line}: faults ramp requires `drop=a..b`"
            )));
        };
        if step == 0 {
            return Err(SweepError::Spec(format!(
                "line {line}: faults ramp requires a nonzero `step`"
            )));
        }
        let mut points = Vec::new();
        let mut drop_pct = from;
        loop {
            if drop_pct == 0 && dup_pct == 0 && reorder == 0 && crashes.is_empty() && retry == 0 {
                return Err(SweepError::Spec(format!(
                    "line {line}: ramp baseline point injects nothing (set retry, dup, reorder or crash)"
                )));
            }
            points.push(ScenarioSpec::Faulty {
                drop_pct,
                dup_pct,
                reorder,
                seed,
                retry,
                crashes: crashes.clone(),
            });
            match drop_pct.checked_add(step) {
                Some(next) if next <= until => drop_pct = next,
                _ => break,
            }
        }
        Ok(points)
    }

    fn parse_corrupt(args: &[&str], line: usize) -> Result<Self, SweepError> {
        let corruption = match args {
            ["labels", seed] => StateCorruption::ScrambledLabels {
                seed: parse_int(seed, line)?,
            },
            ["partition"] => StateCorruption::LostPartition,
            ["stale-terminal"] => StateCorruption::StaleTerminal,
            _ => {
                return Err(SweepError::Spec(format!(
                    "line {line}: unknown corruption {args:?} (expected `labels <seed>`, `partition` or `stale-terminal`)"
                )))
            }
        };
        Ok(ScenarioSpec::Corrupt(corruption))
    }
}

/// SplitMix64 finalizer, used to mix fault-stream seeds per unit.
fn mix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pct(p: u8) -> f64 {
    f64::from(p) / 100.0
}

fn parse_int<T: std::str::FromStr>(token: &str, line: usize) -> Result<T, SweepError> {
    token
        .parse()
        .map_err(|_| SweepError::Spec(format!("line {line}: `{token}` is not a valid integer")))
}

fn parse_pct(token: &str, line: usize) -> Result<u8, SweepError> {
    let p: u8 = parse_int(token, line)?;
    if p > 100 {
        return Err(SweepError::Spec(format!(
            "line {line}: percentage {p} out of range (0-100)"
        )));
    }
    Ok(p)
}

/// A crash-window value: `<node>:<from>..<until>` with `[from, until)` in
/// engine steps. The empty window `from == until` is accepted (and covers
/// nothing) so boundary sweeps can be written directly.
fn parse_crash(value: &str, line: usize) -> Result<(usize, u64, u64), SweepError> {
    let malformed = || {
        SweepError::Spec(format!(
            "line {line}: crash expects `<node>:<from>..<until>`, got `{value}`"
        ))
    };
    let (node, window) = value.split_once(':').ok_or_else(malformed)?;
    let (from, until) = window.split_once("..").ok_or_else(malformed)?;
    let node = parse_int(node, line)?;
    let from: u64 = parse_int(from, line)?;
    let until: u64 = parse_int(until, line)?;
    if from > until {
        return Err(SweepError::Spec(format!(
            "line {line}: crash window `{value}` ends before it starts"
        )));
    }
    Ok((node, from, until))
}

/// A full sweep specification.
///
/// The canonical unit order (the order a single-process execution emits
/// records, and the order shard outputs are merged back into) is the nested
/// loop **protocol → topology → seed → battery position**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Protocol families to run.
    pub protocols: Vec<ProtocolSpec>,
    /// Topology instances to run on.
    pub topologies: Vec<TopologySpec>,
    /// Battery seeds: each seeds the random schedulers of one battery sweep.
    pub seeds: Vec<u64>,
    /// Number of seeded random schedulers per battery (battery size is
    /// `4 + random_schedulers`).
    pub random_schedulers: usize,
    /// Delivery budget per run.
    pub max_deliveries: u64,
    /// Execution scenarios. `scenarios[0]` is always
    /// [`ScenarioSpec::Pristine`]; `faults`/`corrupt` directives append
    /// adversarial scenarios after it. A spec with only the pristine scenario
    /// serialises exactly as it did before scenarios existed, so historical
    /// spec files, fingerprints and checkpoints stay valid.
    pub scenarios: Vec<ScenarioSpec>,
}

/// The spec entry a [`SweepSpec::validate`] rule failed on, so that
/// [`SweepSpec::parse`] can name its line.
enum Culprit {
    /// The whole spec (an empty list): no line to name.
    Spec,
    /// `topologies[i]`.
    Topology(usize),
    /// `scenarios[i]`.
    Scenario(usize),
}

impl SweepSpec {
    /// Checks the rules a spec must satisfy beyond its syntax: at least one
    /// protocol, topology and seed; generator parameters every topology can
    /// be built from ([`TopologySpec::validate`]); and crash targets that
    /// name a vertex of every topology — a crash window applies to every
    /// topology, and anywhere else it would silently crash nothing.
    ///
    /// [`SweepSpec::parse`] applies the same rules, with line numbers, and
    /// the shard entry points ([`shard_lines`](crate::shard_lines),
    /// [`dedup_shard_lines`](crate::dedup_shard_lines),
    /// [`run_shard_to_file_with_opts`](crate::run_shard_to_file_with_opts))
    /// call this first, so a spec built in code is held to them too.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Spec`] naming the first rule broken.
    pub fn validate(&self) -> Result<(), SweepError> {
        self.check().map_err(|(_, msg)| SweepError::Spec(msg))
    }

    fn check(&self) -> Result<(), (Culprit, String)> {
        for (empty, what) in [
            (self.protocols.is_empty(), "protocols"),
            (self.topologies.is_empty(), "topologies"),
            (self.seeds.is_empty(), "seeds"),
        ] {
            if empty {
                return Err((Culprit::Spec, format!("spec declares no {what}")));
            }
        }
        let mut nodes = Vec::with_capacity(self.topologies.len());
        for (i, topology) in self.topologies.iter().enumerate() {
            let count = topology.validate().map_err(|err| {
                let msg = format!("topology {}: {err}", topology.name());
                (Culprit::Topology(i), msg)
            })?;
            nodes.push(count);
        }
        for (i, scenario) in self.scenarios.iter().enumerate() {
            let ScenarioSpec::Faulty { crashes, .. } = scenario else {
                continue;
            };
            for &(node, _, _) in crashes {
                let out_of_range = self
                    .topologies
                    .iter()
                    .zip(&nodes)
                    .find(|&(_, &n)| node >= n);
                if let Some((topology, n)) = out_of_range {
                    let msg = format!(
                        "crash target {node} is out of range for topology {} ({n} vertices)",
                        topology.name()
                    );
                    return Err((Culprit::Scenario(i), msg));
                }
            }
        }
        Ok(())
    }

    /// Parses the canonical line-oriented text form. Empty lines and `#`
    /// comments are ignored; later `seeds`/`random-schedulers`/
    /// `max-deliveries` lines override earlier ones; `protocol`/`topology`
    /// lines accumulate in order. The parsed spec must pass
    /// [`SweepSpec::validate`]; a rule broken by one line is reported with
    /// that line's number.
    pub fn parse(text: &str) -> Result<SweepSpec, SweepError> {
        let mut spec = SweepSpec {
            protocols: Vec::new(),
            topologies: Vec::new(),
            seeds: vec![0],
            random_schedulers: 2,
            max_deliveries: 10_000_000,
            scenarios: vec![ScenarioSpec::Pristine],
        };
        // The line of each topology and of each scenario after the pristine
        // one, for the messages of `check`.
        let mut topology_lines: Vec<usize> = Vec::new();
        let mut scenario_lines: Vec<usize> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            match tokens.as_slice() {
                ["protocol", rest @ ..] => {
                    spec.protocols
                        .push(ProtocolSpec::parse_args(rest, line_no)?);
                }
                ["topology", rest @ ..] => {
                    spec.topologies
                        .push(TopologySpec::parse_args(rest, line_no)?);
                    topology_lines.push(line_no);
                }
                ["seeds", rest @ ..] if !rest.is_empty() => {
                    spec.seeds = parse_seeds(rest, line_no)?;
                }
                ["random-schedulers", n] => {
                    spec.random_schedulers = parse_int(n, line_no)?;
                }
                ["max-deliveries", n] => {
                    spec.max_deliveries = parse_int(n, line_no)?;
                }
                ["faults", "ramp", rest @ ..] => {
                    let ramp = ScenarioSpec::parse_ramp(rest, line_no)?;
                    scenario_lines.extend(ramp.iter().map(|_| line_no));
                    spec.scenarios.extend(ramp);
                }
                ["faults", rest @ ..] => {
                    spec.scenarios
                        .push(ScenarioSpec::parse_faults(rest, line_no)?);
                    scenario_lines.push(line_no);
                }
                ["corrupt", rest @ ..] => {
                    spec.scenarios
                        .push(ScenarioSpec::parse_corrupt(rest, line_no)?);
                    scenario_lines.push(line_no);
                }
                _ => {
                    return Err(SweepError::Spec(format!(
                        "line {line_no}: unrecognised directive `{line}`"
                    )))
                }
            }
        }
        spec.check().map_err(|(culprit, msg)| {
            SweepError::Spec(match culprit {
                Culprit::Spec => msg,
                Culprit::Topology(i) => format!("line {}: {msg}", topology_lines[i]),
                // `scenarios[0]` is the implicit pristine scenario.
                Culprit::Scenario(i) => format!("line {}: {msg}", scenario_lines[i - 1]),
            })
        })?;
        Ok(spec)
    }

    /// The canonical text form: parsing it reproduces `self` exactly.
    pub fn to_spec_string(&self) -> String {
        let mut out = String::from("# anet-sweep specification (canonical form)\n");
        for p in &self.protocols {
            out.push_str(&format!("protocol {}\n", p.spec_args()));
        }
        for t in &self.topologies {
            out.push_str(&format!("topology {}\n", t.spec_args()));
        }
        out.push_str("seeds");
        for s in &self.seeds {
            out.push_str(&format!(" {s}"));
        }
        out.push('\n');
        out.push_str(&format!("random-schedulers {}\n", self.random_schedulers));
        out.push_str(&format!("max-deliveries {}\n", self.max_deliveries));
        // The implicit pristine scenario is never emitted: a scenario-free
        // spec keeps its historical byte-exact text form.
        for scenario in &self.scenarios {
            if let Some(line) = scenario.spec_line() {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

/// Seed tokens: either plain integers or half-open `a..b` ranges.
fn parse_seeds(tokens: &[&str], line: usize) -> Result<Vec<u64>, SweepError> {
    let mut seeds = Vec::new();
    for token in tokens {
        if let Some((a, b)) = token.split_once("..") {
            let a: u64 = parse_int(a, line)?;
            let b: u64 = parse_int(b, line)?;
            if a >= b {
                return Err(SweepError::Spec(format!(
                    "line {line}: empty seed range `{token}`"
                )));
            }
            seeds.extend(a..b);
        } else {
            seeds.push(parse_int(token, line)?);
        }
    }
    Ok(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> SweepSpec {
        SweepSpec {
            protocols: vec![
                ProtocolSpec::Mapping,
                ProtocolSpec::GeneralBroadcast { payload_bits: 16 },
            ],
            topologies: vec![
                TopologySpec::ChainGn { n: 4 },
                TopologySpec::NestedCycles { count: 2, len: 3 },
                TopologySpec::RandomCyclic {
                    internal: 6,
                    forward_pct: 15,
                    back_pct: 20,
                    seed: 7,
                },
            ],
            seeds: vec![0, 1, 9],
            random_schedulers: 2,
            max_deliveries: 500_000,
            scenarios: vec![
                ScenarioSpec::Pristine,
                ScenarioSpec::Faulty {
                    drop_pct: 10,
                    dup_pct: 5,
                    reorder: 3,
                    seed: 2,
                    retry: 0,
                    crashes: vec![],
                },
                ScenarioSpec::Faulty {
                    drop_pct: 15,
                    dup_pct: 0,
                    reorder: 0,
                    seed: 4,
                    retry: 3,
                    crashes: vec![(2, 1, 5), (4, 0, 0)],
                },
                ScenarioSpec::Corrupt(StateCorruption::ScrambledLabels { seed: 7 }),
                ScenarioSpec::Corrupt(StateCorruption::LostPartition),
                ScenarioSpec::Corrupt(StateCorruption::StaleTerminal),
            ],
        }
    }

    #[test]
    fn spec_round_trips_through_text() {
        let spec = sample_spec();
        let text = spec.to_spec_string();
        let parsed = SweepSpec::parse(&text).expect("canonical form parses");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn seed_ranges_expand() {
        let spec =
            SweepSpec::parse("protocol mapping\ntopology path 3\nseeds 0..3 9 11..13\n").unwrap();
        assert_eq!(spec.seeds, vec![0, 1, 2, 9, 11, 12]);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let spec =
            SweepSpec::parse("# header\n\nprotocol labeling  # inline comment\ntopology star 4\n")
                .unwrap();
        assert_eq!(spec.protocols, vec![ProtocolSpec::Labeling]);
        assert_eq!(spec.topologies, vec![TopologySpec::Star { leaves: 4 }]);
    }

    #[test]
    fn bad_directives_are_rejected_with_line_numbers() {
        for (text, needle) in [
            ("protocol mapping\n", "no topologies"),
            ("topology path 3\n", "no protocols"),
            ("protocol mapping\ntopology path 3\nseeds 5..5\n", "line 3"),
            ("frobnicate 3\n", "line 1"),
            ("protocol warp-drive\n", "line 1"),
            ("topology moebius 3\n", "line 1"),
            ("protocol mapping\ntopology random-dag 5 150 1\n", "line 2"),
        ] {
            let err = SweepSpec::parse(text).expect_err(text);
            assert!(err.to_string().contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn scenario_free_specs_keep_their_historical_text_form() {
        let mut spec = sample_spec();
        spec.scenarios = vec![ScenarioSpec::Pristine];
        let text = spec.to_spec_string();
        assert!(!text.contains("faults") && !text.contains("corrupt"));
        assert_eq!(SweepSpec::parse(&text).unwrap(), spec);
    }

    #[test]
    fn faults_grammar_accepts_any_key_order_and_subset() {
        let spec = SweepSpec::parse(
            "protocol mapping\ntopology path 3\nfaults seed=9 drop=20\nfaults reorder=2\n",
        )
        .unwrap();
        assert_eq!(
            spec.scenarios,
            vec![
                ScenarioSpec::Pristine,
                ScenarioSpec::Faulty {
                    drop_pct: 20,
                    dup_pct: 0,
                    reorder: 0,
                    seed: 9,
                    retry: 0,
                    crashes: vec![],
                },
                ScenarioSpec::Faulty {
                    drop_pct: 0,
                    dup_pct: 0,
                    reorder: 2,
                    seed: 0,
                    retry: 0,
                    crashes: vec![],
                },
            ]
        );
    }

    #[test]
    fn retry_and_crash_keys_parse_and_round_trip() {
        let text = "protocol mapping\ntopology path 3\nfaults drop=10 seed=3 retry=2 crash=1:4..9 crash=2:0..0\n";
        let spec = SweepSpec::parse(text).unwrap();
        assert_eq!(
            spec.scenarios[1],
            ScenarioSpec::Faulty {
                drop_pct: 10,
                dup_pct: 0,
                reorder: 0,
                seed: 3,
                retry: 2,
                crashes: vec![(1, 4, 9), (2, 0, 0)],
            }
        );
        assert_eq!(
            spec.scenarios[1].name(),
            "faults/d10u0r0s3+t2+c1:4..9+c2:0..0"
        );
        let canonical = spec.to_spec_string();
        assert!(canonical
            .contains("faults drop=10 dup=0 reorder=0 seed=3 retry=2 crash=1:4..9 crash=2:0..0"));
        assert_eq!(SweepSpec::parse(&canonical).unwrap(), spec);
        // A crash window alone injects something; retry alone is likewise a
        // meaningful (recovery-baseline) scenario.
        SweepSpec::parse("protocol mapping\ntopology path 3\nfaults crash=0:1..2\n").unwrap();
        SweepSpec::parse("protocol mapping\ntopology path 3\nfaults retry=1\n").unwrap();
    }

    #[test]
    fn retry_free_scenarios_keep_their_historical_names() {
        // The name (and therefore every unit key, fingerprint and cache key
        // derived from it) must be byte-identical to pre-retry sweeps.
        let spec = SweepSpec::parse(
            "protocol mapping\ntopology path 3\nfaults drop=20 dup=10 reorder=2 seed=6\n",
        )
        .unwrap();
        assert_eq!(spec.scenarios[1].name(), "faults/d20u10r2s6");
        assert_eq!(spec.scenarios[1].retry_budget(), 0);
    }

    #[test]
    fn ramps_expand_to_ordinary_fault_scenarios() {
        let spec = SweepSpec::parse(
            "protocol mapping\ntopology path 3\nfaults ramp drop=0..30 step=5 seed=7 retry=2\n",
        )
        .unwrap();
        let drops: Vec<u8> = spec
            .scenarios
            .iter()
            .filter_map(|s| match s {
                ScenarioSpec::Faulty { drop_pct, .. } => Some(*drop_pct),
                _ => None,
            })
            .collect();
        assert_eq!(drops, vec![0, 5, 10, 15, 20, 25, 30]);
        for s in spec.scenarios.iter().skip(1) {
            assert_eq!(s.retry_budget(), 2);
        }
        // The canonical form re-emits expanded points and round-trips exactly.
        let canonical = spec.to_spec_string();
        assert!(!canonical.contains("ramp"));
        assert!(canonical.contains("faults drop=0 dup=0 reorder=0 seed=7 retry=2"));
        assert!(canonical.contains("faults drop=30 dup=0 reorder=0 seed=7 retry=2"));
        assert_eq!(SweepSpec::parse(&canonical).unwrap(), spec);
        // A stride that overshoots the end stops below it.
        let spec =
            SweepSpec::parse("protocol mapping\ntopology path 3\nfaults ramp drop=5..14 step=4\n")
                .unwrap();
        let drops: Vec<u8> = spec
            .scenarios
            .iter()
            .filter_map(|s| match s {
                ScenarioSpec::Faulty { drop_pct, .. } => Some(*drop_pct),
                _ => None,
            })
            .collect();
        assert_eq!(drops, vec![5, 9, 13]);
    }

    #[test]
    fn bad_ramp_and_crash_directives_are_rejected() {
        for (text, needle) in [
            (
                "protocol mapping\ntopology path 3\nfaults ramp step=5\n",
                "requires `drop=a..b`",
            ),
            (
                "protocol mapping\ntopology path 3\nfaults ramp drop=0..30\n",
                "nonzero `step`",
            ),
            (
                "protocol mapping\ntopology path 3\nfaults ramp drop=30..0 step=5\n",
                "empty ramp range",
            ),
            (
                "protocol mapping\ntopology path 3\nfaults ramp drop=10 step=5\n",
                "range `a..b`",
            ),
            (
                "protocol mapping\ntopology path 3\nfaults ramp drop=0..30 step=5\n",
                "baseline point injects nothing",
            ),
            (
                "protocol mapping\ntopology path 3\nfaults crash=oops\n",
                "crash expects",
            ),
            (
                "protocol mapping\ntopology path 3\nfaults crash=1:9..4\n",
                "ends before it starts",
            ),
            (
                "protocol mapping\ntopology path 3\nfaults ramp drop=0..200 step=5\n",
                "out of range",
            ),
        ] {
            let err = SweepSpec::parse(text).expect_err(text);
            assert!(err.to_string().contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn bad_scenario_directives_are_rejected() {
        for (text, needle) in [
            (
                "protocol mapping\ntopology path 3\nfaults seed=1\n",
                "injects nothing",
            ),
            (
                "protocol mapping\ntopology path 3\nfaults drop\n",
                "key=value",
            ),
            (
                "protocol mapping\ntopology path 3\nfaults warp=1\n",
                "unknown faults key",
            ),
            (
                "protocol mapping\ntopology path 3\nfaults drop=200\n",
                "out of range",
            ),
            (
                "protocol mapping\ntopology path 3\ncorrupt everything\n",
                "unknown corruption",
            ),
            (
                "protocol mapping\ntopology path 3\ncorrupt labels\n",
                "unknown corruption",
            ),
        ] {
            let err = SweepSpec::parse(text).expect_err(text);
            assert!(err.to_string().contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn scenario_names_are_jsonl_safe_and_distinct() {
        let mut names: Vec<String> = sample_spec()
            .scenarios
            .iter()
            .map(ScenarioSpec::name)
            .collect();
        for name in &names {
            assert!(!name.contains([' ', '"', ',', '\\']), "{name} unsafe");
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), sample_spec().scenarios.len());
    }

    #[test]
    fn fault_plans_are_deterministic_and_distinct_per_cell() {
        let faulty = ScenarioSpec::Faulty {
            drop_pct: 10,
            dup_pct: 5,
            reorder: 3,
            seed: 2,
            retry: 0,
            crashes: vec![],
        };
        let a = faulty.fault_plan(4, 1).unwrap();
        assert_eq!(a, faulty.fault_plan(4, 1).unwrap());
        assert_ne!(a.seed, faulty.fault_plan(4, 2).unwrap().seed);
        assert_ne!(a.seed, faulty.fault_plan(5, 1).unwrap().seed);
        assert_eq!(a.drop_pct, 10);
        assert_eq!(a.dup_pct, 5);
        assert_eq!(a.reorder, 3);
        // Crash windows flow into the plan; the mixed stream seed is
        // unaffected by them (it is a function of the scenario seed and the
        // unit's battery cell only).
        let crashing = ScenarioSpec::Faulty {
            drop_pct: 10,
            dup_pct: 5,
            reorder: 3,
            seed: 2,
            retry: 1,
            crashes: vec![(3, 2, 8)],
        };
        let c = crashing.fault_plan(4, 1).unwrap();
        assert_eq!(c.seed, a.seed);
        assert_eq!(c.crashes.len(), 1);
        assert!(c.crashes[0].covers(anet_graph::NodeId(3), 2));
        assert!(!c.crashes[0].covers(anet_graph::NodeId(3), 8));
        assert!(ScenarioSpec::Pristine.fault_plan(0, 0).is_none());
        assert!(ScenarioSpec::Corrupt(StateCorruption::LostPartition)
            .fault_plan(0, 0)
            .is_none());
    }

    #[test]
    fn topology_names_are_jsonl_safe_and_builds_are_deterministic() {
        for t in sample_spec().topologies {
            let name = t.name();
            assert!(
                !name.contains([' ', '"', ',', '\\']),
                "{name} unsafe for JSONL"
            );
            let a = t.build().expect("sample topologies build");
            let b = t.build().expect("sample topologies build");
            assert_eq!(a.edge_count(), b.edge_count());
        }
    }

    #[test]
    fn degenerate_generator_parameters_are_rejected_with_line_numbers() {
        for (topology, needle) in [
            (
                "random-cyclic 0 20 10 1",
                "topology random-cyclic/0f20b10s1: invalid generator parameter: \
                 random_cyclic needs at least one internal vertex",
            ),
            (
                "complete-dag 0",
                "topology complete-dag/0: invalid generator parameter: \
                 complete_dag needs at least one internal vertex",
            ),
            ("chain-gn 0", "chain_gn needs"),
            ("path 0", "path_network needs"),
            ("star 0", "star_network needs"),
            ("diamond-stack 0", "diamond_stack needs"),
            ("cycle-with-tail 1", "cycle_with_tail needs"),
            ("nested-cycles 0 3", "nested_cycles needs"),
            ("nested-cycles 2 1", "nested_cycles needs"),
            ("random-dag 0 30 1", "random_dag needs"),
            ("layered-dag 2 0 1 1", "layered_dag needs"),
            (
                "grounded-tree 5 1 30 1",
                "random_grounded_tree needs max_out >= 2",
            ),
        ] {
            let text = format!("protocol labeling\n# comment\ntopology {topology}\n");
            let err = SweepSpec::parse(&text).expect_err(&text).to_string();
            assert!(
                err.contains("line 3") && err.contains(needle),
                "{text} -> {err}"
            );
        }
    }

    #[test]
    fn validate_agrees_with_build() {
        for a in 0..4usize {
            for b in 0..4usize {
                for topology in [
                    TopologySpec::ChainGn { n: a },
                    TopologySpec::Path { n: a },
                    TopologySpec::Star { leaves: a },
                    TopologySpec::CompleteDag { internal: a },
                    TopologySpec::DiamondStack { k: a },
                    TopologySpec::CycleWithTail { k: a },
                    TopologySpec::NestedCycles { count: a, len: b },
                    TopologySpec::RandomDag {
                        internal: a,
                        edge_pct: 30,
                        seed: b as u64,
                    },
                    TopologySpec::RandomCyclic {
                        internal: a,
                        forward_pct: 20,
                        back_pct: 10,
                        seed: b as u64,
                    },
                    TopologySpec::LayeredDag {
                        layers: a,
                        width: b,
                        fan: a.min(b),
                        seed: 1,
                    },
                    TopologySpec::RandomGroundedTree {
                        internal: a,
                        max_out: b,
                        extra_pct: 30,
                        seed: 1,
                    },
                ] {
                    let built = topology.build().map(|network| network.node_count());
                    assert_eq!(topology.validate(), built, "{topology:?}");
                }
            }
        }
    }

    #[test]
    fn out_of_range_crash_targets_are_rejected_with_line_numbers() {
        // path 3 has 5 vertices: canonical ids 0..=4.
        let ok = "protocol mapping\ntopology path 3\nfaults crash=4:0..5\n";
        assert!(SweepSpec::parse(ok).is_ok());
        for (text, needle) in [
            (
                "protocol mapping\ntopology path 3\nfaults crash=99:0..5\n",
                "line 3: crash target 99 is out of range for topology path/3 (5 vertices)",
            ),
            (
                "protocol mapping\ntopology path 3\nfaults crash=5:0..5 retry=2\n",
                "line 3: crash target 5",
            ),
            // In range for the larger topology, not for the smaller one.
            (
                "protocol mapping\ntopology chain-gn 30\ntopology star 2\n\nfaults drop=5 seed=1\nfaults crash=10:0..5\n",
                "line 6: crash target 10 is out of range for topology star/2",
            ),
            (
                "protocol mapping\ntopology path 3\nfaults ramp drop=0..20 step=10 crash=7:1..2\n",
                "line 3: crash target 7",
            ),
        ] {
            let err = SweepSpec::parse(text).expect_err(text).to_string();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }
}
