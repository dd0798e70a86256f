//! Compressed sparse row (CSR) adjacency: the flat, cache-dense view of a
//! [`DiGraph`] used by the hot layers (the simulation engine and the
//! canonicalization refiner).
//!
//! [`DiGraph`] is the *construction* representation: per-node edge `Vec`s that
//! grow as generators add edges. Each adjacency access hops through two heap
//! allocations (`nodes[v].out_edges[j]`, then `edges[e]`), which is fine for
//! building topologies and fatal in a delivery loop that touches adjacency on
//! every message. [`Csr`] is the *execution* representation: built once per
//! run, it packs the same information into seven contiguous `u32` arrays —
//! per-node offset slices over one shared edge array (the classic CSR layout)
//! plus dense per-edge endpoint/port columns.
//!
//! # Invariants
//!
//! * Node ids, edge ids and ports are the **same dense indices** as in the
//!   source graph — `Csr::from_graph(g).edge_dst(e) == g.edge_dst(EdgeId(e))`
//!   for every edge. Nothing is renumbered, so ids can round-trip freely
//!   between the two representations.
//! * `out_edges(v)` and `in_edges(v)` preserve **port order**: element `j` of
//!   the slice is the edge on out-port (in-port) `j`, exactly like
//!   [`DiGraph::out_edges`].
//! * All counts fit `u32` (the simulator's scaling regime is n ≤ ~10⁷;
//!   construction asserts the bound rather than silently truncating).

use crate::graph::DiGraph;

/// A [`DiGraph`] flattened into contiguous offset/edge/endpoint arrays.
///
/// See the module-level docs for layout and invariants.
///
/// # Example
///
/// ```
/// use anet_graph::{Csr, DiGraph};
///
/// let mut g = DiGraph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let e = g.add_edge(a, b);
/// let csr = Csr::from_graph(&g);
/// assert_eq!(csr.out_edges(0), &[e.index() as u32]);
/// assert_eq!(csr.edge_dst(e.index() as u32), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `out_offsets[v]..out_offsets[v + 1]` indexes `out_edges`.
    out_offsets: Vec<u32>,
    /// Edge ids grouped by source node, in out-port order.
    out_edges: Vec<u32>,
    /// `in_offsets[v]..in_offsets[v + 1]` indexes `in_edges`.
    in_offsets: Vec<u32>,
    /// Edge ids grouped by destination node, in in-port order.
    in_edges: Vec<u32>,
    /// Per-edge source node.
    edge_src: Vec<u32>,
    /// Per-edge destination node.
    edge_dst: Vec<u32>,
    /// Per-edge in-port at the destination.
    edge_in_port: Vec<u32>,
}

impl Csr {
    /// Flattens `g` into CSR form. O(V + E); ids and port order are preserved
    /// exactly (see the module-level docs).
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` nodes or edges.
    pub fn from_graph(g: &DiGraph) -> Csr {
        let n = g.node_count();
        let m = g.edge_count();
        assert!(
            u32::try_from(n).is_ok() && u32::try_from(m).is_ok(),
            "graph too large for the u32 CSR layout"
        );
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_edges = Vec::with_capacity(m);
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_edges = Vec::with_capacity(m);
        out_offsets.push(0);
        in_offsets.push(0);
        for v in g.nodes() {
            out_edges.extend(g.out_edges(v).iter().map(|e| e.index() as u32));
            out_offsets.push(out_edges.len() as u32);
            in_edges.extend(g.in_edges(v).iter().map(|e| e.index() as u32));
            in_offsets.push(in_edges.len() as u32);
        }
        let mut edge_src = Vec::with_capacity(m);
        let mut edge_dst = Vec::with_capacity(m);
        let mut edge_in_port = Vec::with_capacity(m);
        for e in g.edges() {
            edge_src.push(g.edge_src(e).index() as u32);
            edge_dst.push(g.edge_dst(e).index() as u32);
            edge_in_port.push(g.in_port(e) as u32);
        }
        Csr {
            out_offsets,
            out_edges,
            in_offsets,
            in_edges,
            edge_src,
            edge_dst,
            edge_in_port,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_src.len()
    }

    /// Out-degree of node `v`.
    pub fn out_degree(&self, v: u32) -> usize {
        (self.out_offsets[v as usize + 1] - self.out_offsets[v as usize]) as usize
    }

    /// In-degree of node `v`.
    pub fn in_degree(&self, v: u32) -> usize {
        (self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]) as usize
    }

    /// The ordered out-edges (by out-port) of node `v`, as a contiguous slice.
    pub fn out_edges(&self, v: u32) -> &[u32] {
        &self.out_edges
            [self.out_offsets[v as usize] as usize..self.out_offsets[v as usize + 1] as usize]
    }

    /// The ordered in-edges (by in-port) of node `v`, as a contiguous slice.
    pub fn in_edges(&self, v: u32) -> &[u32] {
        &self.in_edges
            [self.in_offsets[v as usize] as usize..self.in_offsets[v as usize + 1] as usize]
    }

    /// Position range of `v`'s out-edges in the flat edge order: a slot array
    /// of length `edge_count()` indexed by this range holds one value per
    /// out-port of `v`.
    pub(crate) fn out_range(&self, v: u32) -> std::ops::Range<usize> {
        self.out_offsets[v as usize] as usize..self.out_offsets[v as usize + 1] as usize
    }

    /// Position range of `v`'s in-edges in the flat edge order (see
    /// [`Csr::out_range`]).
    pub(crate) fn in_range(&self, v: u32) -> std::ops::Range<usize> {
        self.in_offsets[v as usize] as usize..self.in_offsets[v as usize + 1] as usize
    }

    /// Source node of edge `e`.
    pub fn edge_src(&self, e: u32) -> u32 {
        self.edge_src[e as usize]
    }

    /// Destination node of edge `e`.
    pub fn edge_dst(&self, e: u32) -> u32 {
        self.edge_dst[e as usize]
    }

    /// In-port of edge `e` at its destination.
    pub fn in_port(&self, e: u32) -> usize {
        self.edge_in_port[e as usize] as usize
    }

    /// Successor nodes of `v` (with multiplicity, in out-port order).
    pub fn successors(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        self.out_edges(v)
            .iter()
            .map(move |&e| self.edge_dst[e as usize])
    }

    /// Predecessor nodes of `v` (with multiplicity, in in-port order).
    pub fn predecessors(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        self.in_edges(v)
            .iter()
            .map(move |&e| self.edge_src[e as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DiGraph, EdgeId, NodeId};

    fn sample() -> DiGraph {
        // Parallel edges and a self-loop, to pin port ordering.
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b);
        g.add_edge(a, b); // parallel
        g.add_edge(b, c);
        g.add_edge(c, c); // self-loop
        g.add_edge(b, a);
        g
    }

    #[test]
    fn csr_mirrors_digraph_exactly() {
        let g = sample();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        for v in g.nodes() {
            let vid = v.index() as u32;
            assert_eq!(csr.out_degree(vid), g.out_degree(v));
            assert_eq!(csr.in_degree(vid), g.in_degree(v));
            let outs: Vec<u32> = g.out_edges(v).iter().map(|e| e.index() as u32).collect();
            assert_eq!(csr.out_edges(vid), &outs[..]);
            let ins: Vec<u32> = g.in_edges(v).iter().map(|e| e.index() as u32).collect();
            assert_eq!(csr.in_edges(vid), &ins[..]);
            let succ: Vec<u32> = g.successors(v).map(|n| n.index() as u32).collect();
            assert_eq!(csr.successors(vid).collect::<Vec<_>>(), succ);
            let pred: Vec<u32> = g.predecessors(v).map(|n| n.index() as u32).collect();
            assert_eq!(csr.predecessors(vid).collect::<Vec<_>>(), pred);
        }
        for e in g.edges() {
            let eid = e.index() as u32;
            assert_eq!(csr.edge_src(eid), g.edge_src(e).index() as u32);
            assert_eq!(csr.edge_dst(eid), g.edge_dst(e).index() as u32);
            assert_eq!(csr.in_port(eid), g.in_port(e));
        }
    }

    #[test]
    fn csr_round_trips_ids() {
        let g = sample();
        let csr = Csr::from_graph(&g);
        // Ids are preserved, never renumbered: slice position j is out-port j.
        for v in g.nodes() {
            for (port, &e) in csr.out_edges(v.index() as u32).iter().enumerate() {
                assert_eq!(g.out_port(EdgeId(e as usize)), port);
                assert_eq!(g.edge_src(EdgeId(e as usize)), NodeId(v.index()));
            }
        }
    }

    #[test]
    fn empty_graph_flattens() {
        let csr = Csr::from_graph(&DiGraph::new());
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
    }
}
