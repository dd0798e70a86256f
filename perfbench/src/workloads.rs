//! The workloads, each a sweep spec generated from the benchmark seed.
//!
//! The seed picks battery seeds (the random schedules), fault-stream seeds and
//! the generator seeds of `grid-small`'s tiny topologies. The larger graphs are
//! fixed, so that the cost of a workload does not hang on a few random shapes.
//! The library only ever sees the generated spec text.

/// One workload's inputs: the timed sweep, plus an optional overlapping
/// sweep that pre-fills the result cache during set-up.
pub struct Workload {
    pub spec: String,
    pub prefill: Option<String>,
}

/// SplitMix64 finaliser: derives independent sub-seeds from the benchmark seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x100_0000_01B3)
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % 1_000_000
}

const PROTOCOLS: &str = "protocol mapping\nprotocol labeling\nprotocol general-broadcast 16\n";

/// The full scheduler battery: four deterministic policies plus two random.
const BATTERY: &str = "random-schedulers 2\nmax-deliveries 50000000\n";

/// Builds the named workload for `seed`; `smoke` shrinks every size to a few
/// units so the whole pipeline can be exercised in seconds.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
    let mut topologies = String::new();
    let mut scenarios = String::new();
    let mut seeds = format!("seeds {seed}\n");
    let mut prefill = None;
    match name {
        // Large sparse trees: simulation is cheap, canonicalization and the
        // success checks dominate. The trees are fixed, so that the cost of
        // the workload does not hang on the shapes of six random draws; the
        // seed draws the battery's random schedules.
        "tree-large" => {
            let sizes: &[usize] = if smoke {
                &[40, 60]
            } else {
                &[200, 250, 300, 350, 400, 450]
            };
            for n in sizes {
                topologies.push_str(&format!("topology grounded-tree {n} 4 10 2007\n"));
            }
        }
        // Mid-size topologies under drops, duplicates, reordering and a
        // crash window, with re-flood retries: the engine's fault paths. A
        // unit's fault stream depends only on its scenario seed and battery
        // cell, so each scenario draws its own seed and two battery seeds
        // double the cells: 60 independent streams instead of 6, which keeps
        // the cost of the whole workload from hanging on a few draws. The
        // random DAG is a fixed graph for the same reason.
        "faults-retry" => {
            if smoke {
                topologies.push_str("topology chain-gn 4\ntopology cycle-with-tail 5\n");
            } else {
                topologies.push_str("topology chain-gn 30\n");
                topologies.push_str("topology cycle-with-tail 40\n");
                topologies.push_str("topology diamond-stack 16\n");
                topologies.push_str("topology random-dag 50 5 2007\n");
                seeds = format!("seeds {seed} {}\n", seed + 1_000_000);
            }
            // The drop ramp 10..30 % with retry, one line per point.
            for (k, drop) in [10, 20, 30].into_iter().enumerate() {
                let f = mix(seed, 7 + k as u64);
                scenarios.push_str(&format!("faults drop={drop} seed={f} retry=4\n"));
            }
            let f = mix(seed, 10);
            scenarios.push_str(&format!("faults drop=15 dup=10 reorder=2 seed={f}\n"));
            let f = mix(seed, 11);
            scenarios.push_str(&format!("faults crash=1:0..6 seed={f} retry=8\n"));
        }
        // Tens of thousands of tiny units folding into about a hundred dedup
        // classes: the sweep layer dominates. Set-up pre-fills the cache
        // with the same topologies under two of the three protocols, so the
        // timed sweep loads two thirds of the classes and stores the rest,
        // the same share for every seed. The families have few isomorphism
        // classes, which keeps the cache to about a hundred files: on a shared
        // disk, creating thousands of files per run made file-system latency,
        // not the sweep, the measured quantity.
        "grid-small" => {
            let count = if smoke { 24 } else { 1200 };
            for i in 0..count {
                let s = mix(seed, 100 + i);
                let line = match i % 4 {
                    0 => format!("topology grounded-tree 3 2 0 {s}\n"),
                    1 => format!("topology grounded-tree 3 3 20 {s}\n"),
                    2 => format!("topology random-dag 3 30 {s}\n"),
                    _ => format!("topology random-dag 3 50 {s}\n"),
                };
                topologies.push_str(&line);
            }
            prefill = Some(format!(
                "protocol mapping\nprotocol labeling\n{topologies}{seeds}{BATTERY}"
            ));
        }
        _ => return None,
    }
    Some(Workload {
        spec: format!("{PROTOCOLS}{topologies}{seeds}{BATTERY}{scenarios}"),
        prefill,
    })
}
