//! The chain family `G_n` of Figure 5 and plain paths.

use super::counted;
use crate::{DiGraph, Network, NetworkError};

/// Builds the paper's lower-bound family `G_n` (Figure 5): internal vertices
/// `v_1 … v_n` with edges `s → v_1`, `v_i → v_{i+1}` and `v_i → t` for every `i`.
///
/// `G_n` has `n + 2` vertices and `2n` edges; every vertex except `v_n` has
/// out-degree two, and any correct broadcasting protocol must use at least `n + 1`
/// distinct symbols on it (Lemma 3.7), which is what drives the
/// `Ω(|E| log |E|)` communication lower bound.
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] when `n == 0`.
pub fn chain_gn(n: usize) -> Result<Network, NetworkError> {
    let mut g = DiGraph::with_capacity(chain_gn_node_count(n)?);
    let s = g.add_node();
    let vs = g.add_nodes(n);
    let t = g.add_node();
    g.add_edge(s, vs[0]);
    for i in 0..n {
        if i + 1 < n {
            g.add_edge(vs[i], vs[i + 1]);
        }
        g.add_edge(vs[i], t);
    }
    Network::new(g, s, t)
}

/// The vertex count of [`chain_gn`]`(n)`, computed without building it.
///
/// # Errors
///
/// Returns the error [`chain_gn`] returns for these parameters.
pub fn chain_gn_node_count(n: usize) -> Result<usize, NetworkError> {
    if n == 0 {
        return Err(NetworkError::InvalidParameter(
            "chain_gn needs at least one internal vertex".to_owned(),
        ));
    }
    counted(n.checked_add(2))
}

/// Builds a simple path `s → v_1 → … → v_n → t`: the smallest grounded tree with
/// `n` internal vertices, where every commodity is forwarded unchanged.
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] when `n == 0`.
pub fn path_network(n: usize) -> Result<Network, NetworkError> {
    let mut g = DiGraph::with_capacity(path_network_node_count(n)?);
    let s = g.add_node();
    let vs = g.add_nodes(n);
    let t = g.add_node();
    g.add_edge(s, vs[0]);
    for i in 0..n - 1 {
        g.add_edge(vs[i], vs[i + 1]);
    }
    g.add_edge(vs[n - 1], t);
    Network::new(g, s, t)
}

/// The vertex count of [`path_network`]`(n)`, computed without building it.
///
/// # Errors
///
/// Returns the error [`path_network`] returns for these parameters.
pub fn path_network_node_count(n: usize) -> Result<usize, NetworkError> {
    if n == 0 {
        return Err(NetworkError::InvalidParameter(
            "path_network needs at least one internal vertex".to_owned(),
        ));
    }
    counted(n.checked_add(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify;

    #[test]
    fn chain_gn_matches_figure_5() {
        for n in 1..=10 {
            let net = chain_gn(n).unwrap();
            assert_eq!(net.node_count(), n + 2, "n = {n}");
            assert_eq!(net.edge_count(), 2 * n, "n = {n}");
            assert!(classify::is_grounded_tree(&net));
            assert!(classify::all_reachable_from_root(&net));
            assert!(classify::all_connected_to_terminal(&net));
            assert_eq!(net.max_out_degree(), if n == 1 { 1 } else { 2 });
            // The terminal has in-degree n.
            assert_eq!(net.graph().in_degree(net.terminal()), n);
        }
    }

    #[test]
    fn chain_gn_zero_is_rejected() {
        assert!(chain_gn(0).is_err());
    }

    #[test]
    fn path_is_a_grounded_tree_with_unit_degrees() {
        let net = path_network(5).unwrap();
        assert_eq!(net.edge_count(), 6);
        assert!(classify::is_grounded_tree(&net));
        assert!(classify::all_connected_to_terminal(&net));
        assert_eq!(net.max_out_degree(), 1);
        assert!(path_network(0).is_err());
    }
}
