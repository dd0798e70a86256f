//! Clock-free scaling guard for a sweep unit's bookkeeping: canonicalization
//! and the labelling success check at ~10⁵ vertices and label parts.
//!
//! Both steps were once quadratic. At this size the quadratic versions run
//! for minutes, while the near-linear ones finish in seconds even in a debug
//! build. A regression therefore shows up as a test that does not finish,
//! without any wall-clock assertion.

use anet::graph::canon::canonical_form;
use anet::graph::generators::{full_grounded_tree, path_network};
use anet::num::partition::canonical_partition;
use anet::num::{Interval, IntervalUnion};
use anet::protocols::labeling::labels_unique;

#[test]
fn canonical_form_is_idempotent_on_a_tree_of_a_hundred_thousand_vertices() {
    // 1 + 10 + … + 10⁵ internal vertices, plus the root and the terminal.
    let network = full_grounded_tree(5, 10).unwrap();
    assert_eq!(network.node_count(), 111_113);
    let labeling = canonical_form(&network);
    let rebuilt = labeling.form.to_network().unwrap();
    let again = canonical_form(&rebuilt);
    assert_eq!(again.form, labeling.form);
    let identity: Vec<usize> = (0..rebuilt.node_count()).collect();
    assert_eq!(again.permutation, identity);
}

#[test]
fn labels_unique_checks_a_hundred_thousand_part_partition() {
    let parts = 100_000;
    // A path with exactly `parts` vertices, so every piece has an owner.
    let network = path_network(parts - 2).unwrap();
    let root = network.root().index();
    // `canonical_partition` of the single interval [0, 1) yields `parts - 1`
    // consecutive pieces and an empty remainder. The root, whose label is
    // ignored, takes the remainder; the other vertices take the pieces in
    // node order.
    let mut pieces = canonical_partition(&IntervalUnion::unit(), parts).unwrap();
    let remainder = pieces.pop().unwrap();
    assert!(remainder.is_empty());
    let mut pieces = pieces.into_iter();
    let mut labels: Vec<IntervalUnion> = (0..parts)
        .map(|v| {
            if v == root {
                remainder.clone()
            } else {
                pieces.next().unwrap()
            }
        })
        .collect();
    assert!(labels_unique(&network, &labels));

    // Widen one mid-path label by half a piece: it now overlaps the next one.
    let victim = if parts / 2 == root {
        parts / 2 + 1
    } else {
        parts / 2
    };
    let hi = labels[victim].endpoints()[1].clone();
    let into_next = &hi + &labels[victim].total_length().div_pow2(1);
    let widened = IntervalUnion::from(Interval::new(hi, into_next).unwrap());
    labels[victim] = labels[victim].union(&widened);
    assert!(!labels_unique(&network, &labels));
}
