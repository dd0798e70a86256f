//! General (cyclic) network generators (Section 4).

use rand::Rng;

use super::{counted, probability};
use crate::{DiGraph, Network, NetworkError, NodeId};

/// Builds a directed cycle with a tail to the terminal:
/// `s → c_1 → c_2 → … → c_k → c_1` and `c_k → t`.
///
/// The commodity entering the cycle loops forever unless the β-carrying mechanism
/// of Section 4 detects the cycle, so this is the smallest topology on which the
/// general-graph broadcast differs from the DAG protocols.
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] when `k < 2`.
pub fn cycle_with_tail(k: usize) -> Result<Network, NetworkError> {
    let mut g = DiGraph::with_capacity(cycle_with_tail_node_count(k)?);
    let s = g.add_node();
    let cs = g.add_nodes(k);
    let t = g.add_node();
    g.add_edge(s, cs[0]);
    for i in 0..k {
        g.add_edge(cs[i], cs[(i + 1) % k]);
    }
    g.add_edge(cs[k - 1], t);
    Network::new(g, s, t)
}

/// The vertex count of [`cycle_with_tail`]`(k)`, computed without building it.
///
/// # Errors
///
/// Returns the error [`cycle_with_tail`] returns for these parameters.
pub fn cycle_with_tail_node_count(k: usize) -> Result<usize, NetworkError> {
    if k < 2 {
        return Err(NetworkError::InvalidParameter(
            "cycle_with_tail needs a cycle of length >= 2".to_owned(),
        ));
    }
    counted(k.checked_add(2))
}

/// Builds `count` cycles of length `len` chained one after another, each cycle
/// feeding the next and the last one feeding `t`. Exercises repeated cycle
/// detection along a single broadcast.
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] when `count == 0` or `len < 2`.
pub fn nested_cycles(count: usize, len: usize) -> Result<Network, NetworkError> {
    nested_cycles_node_count(count, len)?;
    let mut g = DiGraph::new();
    let s = g.add_node();
    let mut entry = None;
    let mut prev_exit: Option<NodeId> = None;
    for _ in 0..count {
        let cycle = g.add_nodes(len);
        for i in 0..len {
            g.add_edge(cycle[i], cycle[(i + 1) % len]);
        }
        match prev_exit {
            None => entry = Some(cycle[0]),
            Some(exit) => {
                g.add_edge(exit, cycle[0]);
            }
        }
        prev_exit = Some(cycle[len - 1]);
    }
    let t = g.add_node();
    g.add_edge(s, entry.expect("at least one cycle"));
    g.add_edge(prev_exit.expect("at least one cycle"), t);
    Network::new(g, s, t)
}

/// The vertex count of [`nested_cycles`]`(count, len)`, computed without
/// building it.
///
/// # Errors
///
/// Returns the error [`nested_cycles`] returns for these parameters.
pub fn nested_cycles_node_count(count: usize, len: usize) -> Result<usize, NetworkError> {
    if count == 0 || len < 2 {
        return Err(NetworkError::InvalidParameter(
            "nested_cycles needs count >= 1 and len >= 2".to_owned(),
        ));
    }
    counted(count.checked_mul(len).and_then(|n| n.checked_add(2)))
}

/// Builds a random general directed network: a random DAG backbone (guaranteeing
/// reachability from `s` and a path to `t` from every vertex) plus back edges added
/// with probability `back_prob`, which create cycles.
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] when `internal == 0` or a probability
/// is out of range.
pub fn random_cyclic<R: Rng + ?Sized>(
    rng: &mut R,
    internal: usize,
    forward_prob: f64,
    back_prob: f64,
) -> Result<Network, NetworkError> {
    let mut g =
        DiGraph::with_capacity(random_cyclic_node_count(internal, forward_prob, back_prob)?);
    let s = g.add_node();
    let vs = g.add_nodes(internal);
    g.add_edge(s, vs[0]);
    for j in 1..internal {
        let parent = rng.gen_range(0..j);
        g.add_edge(vs[parent], vs[j]);
        for i in 0..j {
            if i != parent && rng.gen_bool(forward_prob) {
                g.add_edge(vs[i], vs[j]);
            }
        }
    }
    // Back edges create cycles; they never break reachability or co-reachability.
    for i in 0..internal {
        for j in 0..i {
            if rng.gen_bool(back_prob) {
                g.add_edge(vs[i], vs[j]);
            }
        }
    }
    let t = g.add_node();
    for &v in &vs {
        // Sinks of the DAG backbone keep their edge to t even if back edges were
        // added, so every vertex still has a forward path to t.
        let only_back_edges = g
            .out_edges(v)
            .iter()
            .all(|&e| g.edge_dst(e).index() <= v.index() && g.edge_dst(e) != t);
        if only_back_edges {
            g.add_edge(v, t);
        }
    }
    Network::new(g, s, t)
}

/// The vertex count of [`random_cyclic`]`(rng, internal, forward_prob,
/// back_prob)`, computed without building it (the count does not depend on
/// the random draws).
///
/// # Errors
///
/// Returns the error [`random_cyclic`] returns for these parameters.
pub fn random_cyclic_node_count(
    internal: usize,
    forward_prob: f64,
    back_prob: f64,
) -> Result<usize, NetworkError> {
    if internal == 0 {
        return Err(NetworkError::InvalidParameter(
            "random_cyclic needs at least one internal vertex".to_owned(),
        ));
    }
    probability("forward_prob", forward_prob)?;
    probability("back_prob", back_prob)?;
    counted(internal.checked_add(2))
}

/// Attaches a fresh vertex to the first internal vertex of `network`; the new
/// vertex has no outgoing edges, so it is reachable from `s` but **not** connected
/// to `t`. Theorems 3.1, 4.2 and 5.1 all require protocols to *refuse to terminate*
/// on the result.
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] when the network has no internal
/// vertices, and propagates validation errors from rebuilding the network.
pub fn with_stranded_vertex(network: &Network) -> Result<Network, NetworkError> {
    let host = network.internal_nodes().next().ok_or_else(|| {
        NetworkError::InvalidParameter("network has no internal vertices".to_owned())
    })?;
    let mut g = network.graph().clone();
    let stranded = g.add_node();
    g.add_edge(host, stranded);
    Network::new(g, network.root(), network.terminal())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify;
    use crate::generators::chain_gn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cycle_with_tail_shape() {
        let net = cycle_with_tail(5).unwrap();
        assert_eq!(net.node_count(), 7);
        assert_eq!(net.edge_count(), 7);
        assert!(!classify::is_dag(net.graph()));
        assert!(classify::all_reachable_from_root(&net));
        assert!(classify::all_connected_to_terminal(&net));
        assert!(cycle_with_tail(1).is_err());
    }

    #[test]
    fn nested_cycles_shape() {
        let net = nested_cycles(3, 4).unwrap();
        assert_eq!(net.node_count(), 3 * 4 + 2);
        assert!(!classify::is_dag(net.graph()));
        assert!(classify::all_reachable_from_root(&net));
        assert!(classify::all_connected_to_terminal(&net));
        let (_, scc_count) = classify::strongly_connected_components(net.graph());
        // Three non-trivial components plus s and t.
        assert_eq!(scc_count, 3 + 2);
        assert!(nested_cycles(0, 3).is_err());
        assert!(nested_cycles(2, 1).is_err());
    }

    #[test]
    fn random_cyclic_satisfies_model_invariants() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut saw_cycle = false;
        for internal in [1usize, 5, 20, 60] {
            let net = random_cyclic(&mut rng, internal, 0.15, 0.2).unwrap();
            assert!(classify::all_reachable_from_root(&net), "n={internal}");
            assert!(classify::all_connected_to_terminal(&net), "n={internal}");
            saw_cycle |= !classify::is_dag(net.graph());
        }
        assert!(
            saw_cycle,
            "expected at least one generated network to contain a cycle"
        );
        assert!(random_cyclic(&mut rng, 0, 0.1, 0.1).is_err());
        assert!(random_cyclic(&mut rng, 5, 1.4, 0.1).is_err());
    }

    #[test]
    fn stranded_vertex_breaks_coreachability_only() {
        let base = chain_gn(4).unwrap();
        let net = with_stranded_vertex(&base).unwrap();
        assert_eq!(net.node_count(), base.node_count() + 1);
        assert!(classify::all_reachable_from_root(&net));
        assert!(!classify::all_connected_to_terminal(&net));
        assert_eq!(classify::stranded_vertices(&net).len(), 1);
    }
}
