//! Topology generators for every graph family used by the paper.
//!
//! | Generator | Paper artefact |
//! |-----------|----------------|
//! | [`chain_gn`] | the lower-bound chain family `G_n` (Figure 5, Theorem 3.2) |
//! | [`path_network`] | a degenerate grounded tree (out-degree 1 everywhere) |
//! | [`star_network`], [`random_grounded_tree`], [`full_grounded_tree`] | grounded trees (Section 3.1, Figure 6a) |
//! | [`pruned_tree`] | the pruned tree of the label-length lower bound (Figure 6b, Theorem 5.2) |
//! | [`diamond_stack`], [`layered_dag`], [`random_dag`], [`complete_dag`] | DAGs (Section 3.3) |
//! | [`cycle_with_tail`], [`nested_cycles`], [`random_cyclic`] | general graphs with cycles (Section 4) |
//! | [`skeleton`] | the commodity-preserving lower-bound skeleton (Figure 4, Theorem 3.8) |
//! | [`with_stranded_vertex`] | adds a vertex reachable from `s` but not connected to `t` (non-termination cases) |
//!
//! Every generator a sweep spec can name has a `*_node_count` companion that
//! checks the same parameters and returns the vertex count of the network it
//! would build, or the error it would return, without building anything. The
//! generator calls its companion first, so each parameter rule is written once.

mod chain;
mod cyclic;
mod dags;
mod pruned;
mod skeleton;
mod trees;

pub use chain::{chain_gn, chain_gn_node_count, path_network, path_network_node_count};
pub use cyclic::{
    cycle_with_tail, cycle_with_tail_node_count, nested_cycles, nested_cycles_node_count,
    random_cyclic, random_cyclic_node_count, with_stranded_vertex,
};
pub use dags::{
    complete_dag, complete_dag_node_count, diamond_stack, diamond_stack_node_count, layered_dag,
    layered_dag_node_count, random_dag, random_dag_node_count,
};
pub use pruned::pruned_tree;
pub use skeleton::{skeleton, SkeletonNetwork};
pub use trees::{
    full_grounded_tree, random_grounded_tree, random_grounded_tree_node_count, star_network,
    star_network_node_count,
};

use crate::NetworkError;

/// A vertex count computed with checked arithmetic, or the error for
/// parameters whose network could not even be counted.
fn counted(count: Option<usize>) -> Result<usize, NetworkError> {
    count.ok_or_else(|| {
        NetworkError::InvalidParameter("the vertex count overflows usize".to_owned())
    })
}

/// Rejects a probability outside `[0, 1]`.
fn probability(name: &str, p: f64) -> Result<(), NetworkError> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(NetworkError::InvalidParameter(format!(
            "{name} must be in [0, 1], got {p}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Network;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Each `*_node_count` companion against its generator: the same error,
    /// or the built network's vertex count.
    #[test]
    fn node_counts_match_the_built_networks() {
        fn agree(built: Result<Network, NetworkError>, counted: Result<usize, NetworkError>) {
            match (built, counted) {
                (Ok(net), Ok(n)) => assert_eq!(net.node_count(), n),
                (Err(a), Err(b)) => assert_eq!(a, b),
                (built, counted) => panic!("built {built:?}, counted {counted:?}"),
            }
        }
        let rng = || StdRng::seed_from_u64(3);
        for a in 0..5usize {
            agree(chain_gn(a), chain_gn_node_count(a));
            agree(path_network(a), path_network_node_count(a));
            agree(star_network(a), star_network_node_count(a));
            agree(complete_dag(a), complete_dag_node_count(a));
            agree(diamond_stack(a), diamond_stack_node_count(a));
            agree(cycle_with_tail(a), cycle_with_tail_node_count(a));
            for p in [0.0, 0.4, 1.0, 1.5] {
                agree(random_dag(&mut rng(), a, p), random_dag_node_count(a, p));
                agree(
                    random_cyclic(&mut rng(), a, p, 0.2),
                    random_cyclic_node_count(a, p, 0.2),
                );
                agree(
                    random_cyclic(&mut rng(), a, 0.2, p),
                    random_cyclic_node_count(a, 0.2, p),
                );
            }
            for b in 0..5usize {
                agree(nested_cycles(a, b), nested_cycles_node_count(a, b));
                agree(
                    random_grounded_tree(&mut rng(), a, b, 0.3),
                    random_grounded_tree_node_count(a, b),
                );
                for fan in 0..3usize {
                    agree(
                        layered_dag(&mut rng(), a, b, fan),
                        layered_dag_node_count(a, b, fan),
                    );
                }
            }
        }
        assert!(diamond_stack_node_count(usize::MAX / 2).is_err());
        assert!(nested_cycles_node_count(usize::MAX, 2).is_err());
    }
}
