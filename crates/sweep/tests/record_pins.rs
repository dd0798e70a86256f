//! Byte-level pins of the committed sweep specs' merged output.
//!
//! Each value is the FNV-1a digest of the merged JSONL that a one-shard
//! sweep of `crates/sweep/specs/<name>.spec` produces, through the honest
//! path ([`shard_lines`], what `--no-dedup` runs) and through the dedup path
//! ([`dedup_shard_lines`]). Any change to what a record says — outcome,
//! metrics, wire bits, fault counters, trace digest — or to the merge moves
//! a pin, so engine and executor rewrites that must keep records
//! byte-identical are checked against these values rather than against a
//! second implementation.

use anet_sweep::manifest::fnv1a;
use anet_sweep::{dedup_shard_lines, merge_lines, shard_lines, Manifest, Partition, SweepSpec};

const PINS: [(&str, &str, u64); 3] = [
    (
        "example",
        include_str!("../specs/example.spec"),
        0xe7eb_ee75_16cd_58a8,
    ),
    (
        "faults",
        include_str!("../specs/faults.spec"),
        0x4270_f7fa_625d_202b,
    ),
    (
        "recovery",
        include_str!("../specs/recovery.spec"),
        0x868b_1aa8_4d8c_8d7d,
    ),
];

fn merged_digests(text: &str) -> (u64, u64) {
    let spec = SweepSpec::parse(text).expect("committed spec parses");
    let manifest = Manifest::from_spec(&spec);
    let honest = shard_lines(&spec, &manifest, 1, Partition::Hash, 0).expect("honest shard runs");
    let (dedup, _) =
        dedup_shard_lines(&spec, &manifest, 1, Partition::Hash, 0, None).expect("dedup shard runs");
    let digest = |lines| {
        let merged = merge_lines(manifest.len(), [lines]).expect("one shard covers the manifest");
        fnv1a(merged.as_bytes())
    };
    (digest(honest), digest(dedup))
}

#[test]
fn committed_specs_merge_to_their_pinned_bytes() {
    for (name, text, pin) in PINS {
        let (honest, dedup) = merged_digests(text);
        assert_eq!(honest, pin, "{name}.spec: honest merged output moved");
        assert_eq!(dedup, pin, "{name}.spec: dedup merged output moved");
    }
}
