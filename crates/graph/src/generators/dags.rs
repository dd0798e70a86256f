//! Directed-acyclic-graph generators (Section 3.3).

use rand::Rng;

use super::{counted, probability};
use crate::{DiGraph, Network, NetworkError};

/// Builds a stack of `k` diamonds:
/// `s → a_0`, `a_i → {b_i, c_i}`, `{b_i, c_i} → a_{i+1}`, `a_k → t`.
///
/// Every internal vertex other than the `a_i` has in-degree 1, but each `a_{i+1}`
/// has in-degree 2, so the network is a DAG that is *not* a grounded tree — the
/// smallest family separating Section 3.1 from Section 3.3.
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] when `k == 0`.
pub fn diamond_stack(k: usize) -> Result<Network, NetworkError> {
    let mut g = DiGraph::with_capacity(diamond_stack_node_count(k)?);
    let s = g.add_node();
    let mut a = g.add_node();
    g.add_edge(s, a);
    for _ in 0..k {
        let b = g.add_node();
        let c = g.add_node();
        let next = g.add_node();
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, next);
        g.add_edge(c, next);
        a = next;
    }
    let t = g.add_node();
    g.add_edge(a, t);
    Network::new(g, s, t)
}

/// The vertex count of [`diamond_stack`]`(k)`, computed without building it.
///
/// # Errors
///
/// Returns the error [`diamond_stack`] returns for these parameters.
pub fn diamond_stack_node_count(k: usize) -> Result<usize, NetworkError> {
    if k == 0 {
        return Err(NetworkError::InvalidParameter(
            "diamond_stack needs at least one diamond".to_owned(),
        ));
    }
    counted(k.checked_mul(3).and_then(|n| n.checked_add(3)))
}

/// Builds a layered random DAG: `s → gateway`, the gateway feeds every vertex of
/// the first layer, each vertex of layer `i` sends `fan` edges to random vertices
/// of layer `i + 1` (plus a repair edge wherever needed so that no vertex is left
/// unreachable), and the last layer feeds `t`.
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] when `layers == 0`, `width == 0` or
/// `fan == 0`.
pub fn layered_dag<R: Rng + ?Sized>(
    rng: &mut R,
    layers: usize,
    width: usize,
    fan: usize,
) -> Result<Network, NetworkError> {
    layered_dag_node_count(layers, width, fan)?;
    let mut g = DiGraph::new();
    let s = g.add_node();
    let gateway = g.add_node();
    g.add_edge(s, gateway);
    let mut layer_nodes: Vec<Vec<crate::NodeId>> = Vec::with_capacity(layers);
    for _ in 0..layers {
        layer_nodes.push(g.add_nodes(width));
    }
    for &v in &layer_nodes[0] {
        g.add_edge(gateway, v);
    }
    for l in 0..layers - 1 {
        let mut has_incoming = vec![false; width];
        for &src in &layer_nodes[l] {
            for _ in 0..fan {
                let pick = rng.gen_range(0..width);
                g.add_edge(src, layer_nodes[l + 1][pick]);
                has_incoming[pick] = true;
            }
        }
        // Repair: every vertex of the next layer must be reachable.
        for (i, got) in has_incoming.iter().enumerate() {
            if !got {
                let src = layer_nodes[l][rng.gen_range(0..width)];
                g.add_edge(src, layer_nodes[l + 1][i]);
            }
        }
    }
    let t = g.add_node();
    for &v in &layer_nodes[layers - 1] {
        g.add_edge(v, t);
    }
    Network::new(g, s, t)
}

/// The vertex count of [`layered_dag`]`(rng, layers, width, fan)`, computed
/// without building it.
///
/// # Errors
///
/// Returns the error [`layered_dag`] returns for these parameters.
pub fn layered_dag_node_count(
    layers: usize,
    width: usize,
    fan: usize,
) -> Result<usize, NetworkError> {
    if layers == 0 || width == 0 || fan == 0 {
        return Err(NetworkError::InvalidParameter(
            "layered_dag needs layers, width and fan all >= 1".to_owned(),
        ));
    }
    // s, the gateway and t around the layers.
    counted(layers.checked_mul(width).and_then(|n| n.checked_add(3)))
}

/// Builds a random DAG on `internal` vertices ordered `v_1 < … < v_n`: `s → v_1`,
/// each vertex `v_i` (`i >= 2`) receives an edge from a random earlier vertex, and
/// each ordered pair `(v_i, v_j)` with `i < j` is additionally connected with
/// probability `edge_prob`. Every sink is connected to `t`.
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] when `internal == 0` or `edge_prob`
/// is not a probability.
pub fn random_dag<R: Rng + ?Sized>(
    rng: &mut R,
    internal: usize,
    edge_prob: f64,
) -> Result<Network, NetworkError> {
    let mut g = DiGraph::with_capacity(random_dag_node_count(internal, edge_prob)?);
    let s = g.add_node();
    let vs = g.add_nodes(internal);
    g.add_edge(s, vs[0]);
    for j in 1..internal {
        let parent = rng.gen_range(0..j);
        g.add_edge(vs[parent], vs[j]);
        for i in 0..j {
            if i != parent && rng.gen_bool(edge_prob) {
                g.add_edge(vs[i], vs[j]);
            }
        }
    }
    let t = g.add_node();
    for &v in &vs {
        if g.out_degree(v) == 0 {
            g.add_edge(v, t);
        }
    }
    Network::new(g, s, t)
}

/// The vertex count of [`random_dag`]`(rng, internal, edge_prob)`, computed
/// without building it.
///
/// # Errors
///
/// Returns the error [`random_dag`] returns for these parameters.
pub fn random_dag_node_count(internal: usize, edge_prob: f64) -> Result<usize, NetworkError> {
    if internal == 0 {
        return Err(NetworkError::InvalidParameter(
            "random_dag needs at least one internal vertex".to_owned(),
        ));
    }
    probability("edge_prob", edge_prob)?;
    counted(internal.checked_add(2))
}

/// Builds the complete DAG on `internal` vertices: every pair `(v_i, v_j)` with
/// `i < j` is an edge, `s → v_1` and `v_n → t`. The densest acyclic topology —
/// `|E| = Θ(|V|²)` — used to stress the general bounds.
///
/// # Errors
///
/// Returns [`NetworkError::InvalidParameter`] when `internal == 0`.
pub fn complete_dag(internal: usize) -> Result<Network, NetworkError> {
    let mut g = DiGraph::with_capacity(complete_dag_node_count(internal)?);
    let s = g.add_node();
    let vs = g.add_nodes(internal);
    let t = g.add_node();
    g.add_edge(s, vs[0]);
    for i in 0..internal {
        for j in i + 1..internal {
            g.add_edge(vs[i], vs[j]);
        }
    }
    g.add_edge(vs[internal - 1], t);
    Network::new(g, s, t)
}

/// The vertex count of [`complete_dag`]`(internal)`, computed without
/// building it.
///
/// # Errors
///
/// Returns the error [`complete_dag`] returns for these parameters.
pub fn complete_dag_node_count(internal: usize) -> Result<usize, NetworkError> {
    if internal == 0 {
        return Err(NetworkError::InvalidParameter(
            "complete_dag needs at least one internal vertex".to_owned(),
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
    fn diamond_stack_is_a_dag_but_not_a_grounded_tree() {
        for k in 1..=5 {
            let net = diamond_stack(k).unwrap();
            assert!(classify::is_dag(net.graph()));
            assert!(!classify::is_grounded_tree(&net));
            assert!(classify::all_reachable_from_root(&net));
            assert!(classify::all_connected_to_terminal(&net));
            assert_eq!(net.node_count(), 3 * k + 3);
            assert_eq!(net.edge_count(), 4 * k + 2);
        }
        assert!(diamond_stack(0).is_err());
    }

    #[test]
    fn layered_dag_satisfies_model() {
        let mut rng = StdRng::seed_from_u64(11);
        for (layers, width, fan) in [(1usize, 1usize, 1usize), (3, 4, 2), (5, 8, 3)] {
            let net = layered_dag(&mut rng, layers, width, fan).unwrap();
            assert!(classify::is_dag(net.graph()), "{layers}x{width}");
            assert!(classify::all_reachable_from_root(&net));
            assert!(classify::all_connected_to_terminal(&net));
        }
        assert!(layered_dag(&mut rng, 0, 3, 1).is_err());
        assert!(layered_dag(&mut rng, 3, 0, 1).is_err());
        assert!(layered_dag(&mut rng, 3, 3, 0).is_err());
    }

    #[test]
    fn random_dag_satisfies_model() {
        let mut rng = StdRng::seed_from_u64(5);
        for internal in [1usize, 2, 10, 50] {
            for prob in [0.0, 0.1, 0.5] {
                let net = random_dag(&mut rng, internal, prob).unwrap();
                assert!(classify::is_dag(net.graph()), "n={internal} p={prob}");
                assert!(classify::all_reachable_from_root(&net));
                assert!(classify::all_connected_to_terminal(&net));
            }
        }
        assert!(random_dag(&mut rng, 0, 0.5).is_err());
        assert!(random_dag(&mut rng, 5, 1.5).is_err());
    }

    #[test]
    fn complete_dag_is_dense() {
        let net = complete_dag(6).unwrap();
        assert_eq!(net.edge_count(), 6 * 5 / 2 + 2);
        assert!(classify::is_dag(net.graph()));
        assert!(classify::all_reachable_from_root(&net));
        assert!(classify::all_connected_to_terminal(&net));
        assert_eq!(net.max_out_degree(), 5);
        assert!(complete_dag(0).is_err());
    }
}
