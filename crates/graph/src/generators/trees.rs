//! Grounded-tree generators (Section 3.1 and Figure 6a).

use anet_num::RankSet;
use rand::Rng;

use super::counted;
use crate::{DiGraph, Network, NetworkError};

/// Builds a star: `s → hub`, `hub → leaf_i`, `leaf_i → t` for `i = 1..=leaves`.
///
/// The hub's out-degree equals `leaves`, exercising the power-of-two split rule at
/// a single vertex of large degree.
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] when `leaves == 0`.
pub fn star_network(leaves: usize) -> Result<Network, NetworkError> {
    let mut g = DiGraph::with_capacity(star_network_node_count(leaves)?);
    let s = g.add_node();
    let hub = g.add_node();
    let leaf_nodes = g.add_nodes(leaves);
    let t = g.add_node();
    g.add_edge(s, hub);
    for &leaf in &leaf_nodes {
        g.add_edge(hub, leaf);
        g.add_edge(leaf, t);
    }
    Network::new(g, s, t)
}

/// The vertex count of [`star_network`]`(leaves)`, computed without building
/// it.
///
/// # Errors
///
/// Returns the error [`star_network`] returns for these parameters.
pub fn star_network_node_count(leaves: usize) -> Result<usize, NetworkError> {
    if leaves == 0 {
        return Err(NetworkError::InvalidParameter(
            "star_network needs at least one leaf".to_owned(),
        ));
    }
    counted(leaves.checked_add(3))
}

/// Builds the full `arity`-ary grounded tree of the stated `height` (Figure 6a):
/// a complete tree whose root is the child of `s`, edges directed away from the
/// root, and every leaf connected to `t`.
///
/// `height` counts edge levels below the tree root, so `height = 0` is a single
/// vertex attached to both `s` and `t`. The number of internal vertices is
/// `(arity^(height+1) - 1) / (arity - 1)` for `arity >= 2`.
///
/// Children are attached in a deterministic order: the edge to the first child is
/// always out-port 0, which the pruning construction ([`super::pruned_tree`])
/// relies on to replay the leftmost root-to-leaf path.
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] when `arity < 2`.
pub fn full_grounded_tree(height: usize, arity: usize) -> Result<Network, NetworkError> {
    if arity < 2 {
        return Err(NetworkError::InvalidParameter(
            "full_grounded_tree needs arity >= 2".to_owned(),
        ));
    }
    let mut g = DiGraph::new();
    let s = g.add_node();
    let root = g.add_node();
    g.add_edge(s, root);
    let mut frontier = vec![root];
    let mut leaves = Vec::new();
    for level in 0..height {
        let mut next = Vec::with_capacity(frontier.len() * arity);
        for &parent in &frontier {
            for _ in 0..arity {
                let child = g.add_node();
                g.add_edge(parent, child);
                next.push(child);
            }
        }
        frontier = next;
        if level + 1 == height {
            leaves = frontier.clone();
        }
    }
    if height == 0 {
        leaves = frontier.clone();
    }
    let t = g.add_node();
    for &leaf in &leaves {
        g.add_edge(leaf, t);
    }
    Network::new(g, s, t)
}

/// Builds a random grounded tree with `internal` internal vertices.
///
/// Vertex `v_1` is the child of `s`; each later vertex picks a uniformly random
/// parent among the earlier vertices that still have fewer than `max_out - 1`
/// children (one slot is reserved for a possible edge to `t`). Every vertex that
/// would otherwise be a sink gets an edge to `t`, and every other vertex gets an
/// additional edge to `t` with probability `extra_terminal_prob`, which controls
/// how "Figure-5-like" (many terminal edges) the tree is.
///
/// The result always satisfies the grounded-tree hypothesis of Theorem 3.1 and has
/// every vertex reachable from `s` and connected to `t`. The eligible parents
/// are kept in a [`RankSet`], so the build takes O(`internal` · log `internal`)
/// time.
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] when `internal == 0` or `max_out < 2`.
pub fn random_grounded_tree<R: Rng + ?Sized>(
    rng: &mut R,
    internal: usize,
    max_out: usize,
    extra_terminal_prob: f64,
) -> Result<Network, NetworkError> {
    let mut g = DiGraph::with_capacity(random_grounded_tree_node_count(internal, max_out)?);
    let s = g.add_node();
    let vs = g.add_nodes(internal);
    g.add_edge(s, vs[0]);
    // children[i] counts tree children of vs[i] (edges to other internal vertices).
    let mut children = vec![0usize; internal];
    // The earlier vertices with fewer than `max_out - 1` children, in index
    // order: the k-th of them is the parent a draw of k selects.
    let mut eligible = RankSet::new(internal);
    for i in 1..internal {
        // A new vertex has no children yet, and `max_out - 1 >= 1`, so the
        // set is never empty here.
        eligible.insert(i - 1);
        let parent = eligible.select(rng.gen_range(0..eligible.len()));
        g.add_edge(vs[parent], vs[i]);
        children[parent] += 1;
        if children[parent] == max_out - 1 {
            eligible.remove(parent);
        }
    }
    let t = g.add_node();
    for i in 0..internal {
        if children[i] == 0 || rng.gen_bool(extra_terminal_prob.clamp(0.0, 1.0)) {
            g.add_edge(vs[i], t);
        }
    }
    Network::new(g, s, t)
}

/// The vertex count of [`random_grounded_tree`]`(rng, internal, max_out, _)`,
/// computed without building it (the terminal-edge probability is clamped,
/// never rejected).
///
/// # Errors
///
/// Returns the error [`random_grounded_tree`] returns for these parameters.
pub fn random_grounded_tree_node_count(
    internal: usize,
    max_out: usize,
) -> Result<usize, NetworkError> {
    if internal == 0 {
        return Err(NetworkError::InvalidParameter(
            "random_grounded_tree needs at least one internal vertex".to_owned(),
        ));
    }
    if max_out < 2 {
        return Err(NetworkError::InvalidParameter(
            "random_grounded_tree needs max_out >= 2".to_owned(),
        ));
    }
    counted(internal.checked_add(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn star_shape() {
        let net = star_network(7).unwrap();
        assert_eq!(net.node_count(), 10);
        assert_eq!(net.edge_count(), 1 + 7 + 7);
        assert_eq!(net.max_out_degree(), 7);
        assert!(classify::is_grounded_tree(&net));
        assert!(classify::all_connected_to_terminal(&net));
        assert!(star_network(0).is_err());
    }

    #[test]
    fn full_tree_counts() {
        let net = full_grounded_tree(3, 2).unwrap();
        // 1 + 2 + 4 + 8 = 15 tree vertices, plus s and t.
        assert_eq!(net.node_count(), 17);
        // 1 (s edge) + 14 (tree edges) + 8 (leaf -> t) = 23.
        assert_eq!(net.edge_count(), 23);
        assert!(classify::is_grounded_tree(&net));
        assert!(classify::all_connected_to_terminal(&net));
        assert_eq!(net.max_out_degree(), 2);
    }

    #[test]
    fn full_tree_height_zero_and_higher_arity() {
        let tiny = full_grounded_tree(0, 3).unwrap();
        assert_eq!(tiny.node_count(), 3);
        assert_eq!(tiny.edge_count(), 2);
        let wide = full_grounded_tree(2, 4).unwrap();
        assert_eq!(wide.node_count(), 1 + 4 + 16 + 2 + 1 - 1); // 1+4+16 tree + s + t
        assert_eq!(wide.max_out_degree(), 4);
        assert!(full_grounded_tree(2, 1).is_err());
    }

    #[test]
    fn full_tree_first_out_port_follows_leftmost_path() {
        let net = full_grounded_tree(3, 3).unwrap();
        let g = net.graph();
        // Walk from the tree root along out-port 0; after `height` steps we must be
        // at a leaf whose single out-edge goes to t.
        let mut cur = g.edge_dst(g.out_edges(net.root())[0]);
        for _ in 0..3 {
            cur = g.edge_dst(g.out_edges(cur)[0]);
        }
        assert_eq!(g.out_degree(cur), 1);
        assert_eq!(g.edge_dst(g.out_edges(cur)[0]), net.terminal());
    }

    #[test]
    fn random_trees_satisfy_hypotheses() {
        let mut rng = StdRng::seed_from_u64(7);
        for internal in [1usize, 2, 5, 20, 100] {
            for max_out in [2usize, 3, 6] {
                let net = random_grounded_tree(&mut rng, internal, max_out, 0.3).unwrap();
                assert!(classify::is_grounded_tree(&net), "internal={internal}");
                assert!(classify::all_reachable_from_root(&net));
                assert!(classify::all_connected_to_terminal(&net));
                assert_eq!(net.internal_count(), internal);
                assert!(net.max_out_degree() <= max_out.max(2) + 1);
            }
        }
    }

    #[test]
    fn random_tree_rejects_degenerate_parameters() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(random_grounded_tree(&mut rng, 0, 3, 0.5).is_err());
        assert!(random_grounded_tree(&mut rng, 5, 1, 0.5).is_err());
    }

    /// The generator's original loop, which rebuilds the eligible-parent list
    /// for every vertex (O(internal²)): the oracle of the `RankSet` version.
    fn quadratic_random_grounded_tree<R: Rng + ?Sized>(
        rng: &mut R,
        internal: usize,
        max_out: usize,
        extra_terminal_prob: f64,
    ) -> Network {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let vs = g.add_nodes(internal);
        g.add_edge(s, vs[0]);
        let mut children = vec![0usize; internal];
        for i in 1..internal {
            let candidates: Vec<usize> = (0..i).filter(|&j| children[j] < max_out - 1).collect();
            let parent = if candidates.is_empty() {
                rng.gen_range(0..i)
            } else {
                candidates[rng.gen_range(0..candidates.len())]
            };
            g.add_edge(vs[parent], vs[i]);
            children[parent] += 1;
        }
        let t = g.add_node();
        for i in 0..internal {
            if children[i] == 0 || rng.gen_bool(extra_terminal_prob.clamp(0.0, 1.0)) {
                g.add_edge(vs[i], t);
            }
        }
        Network::new(g, s, t).unwrap()
    }

    #[test]
    fn random_tree_matches_the_quadratic_oracle() {
        for internal in [1usize, 2, 3, 7, 64, 65, 300] {
            for max_out in [2usize, 3, 4, 10] {
                for p in [0.0, 0.3, 1.0] {
                    for seed in 0..4u64 {
                        let fast = random_grounded_tree(
                            &mut StdRng::seed_from_u64(seed),
                            internal,
                            max_out,
                            p,
                        )
                        .unwrap();
                        let oracle = quadratic_random_grounded_tree(
                            &mut StdRng::seed_from_u64(seed),
                            internal,
                            max_out,
                            p,
                        );
                        let edges = |n: &Network| -> Vec<_> {
                            n.graph()
                                .edges()
                                .map(|e| n.graph().edge_endpoints(e))
                                .collect()
                        };
                        assert_eq!(
                            (fast.node_count(), edges(&fast)),
                            (oracle.node_count(), edges(&oracle)),
                            "internal={internal} max_out={max_out} p={p} seed={seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn random_tree_is_deterministic_per_seed() {
        let a = random_grounded_tree(&mut StdRng::seed_from_u64(42), 30, 4, 0.2).unwrap();
        let b = random_grounded_tree(&mut StdRng::seed_from_u64(42), 30, 4, 0.2).unwrap();
        assert_eq!(a.edge_count(), b.edge_count());
        for e in a.graph().edges() {
            assert_eq!(a.graph().edge_endpoints(e), b.graph().edge_endpoints(e));
        }
    }
}
