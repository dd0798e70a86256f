//! Canonical labelings of networks: isomorphic instances, one form.
//!
//! A sweep unit's outcome is a pure function of the network *shape* — the
//! anonymous protocols never observe vertex ids, only degrees and port
//! indices — so two isomorphic topologies bought at different generator
//! parameters are the same experiment twice. This module computes a
//! deterministic canonical relabeling so that equivalence can be detected by
//! plain equality:
//!
//! 1. **Degree refinement** ([Weisfeiler–Leman] style): vertices start
//!    colored by `(in-degree, out-degree, is-root, is-terminal)` and colors
//!    are repeatedly split by the multiset of neighbor colors until the
//!    partition stabilizes. Colors are densely re-ranked from sorted
//!    signatures, so they are invariant under vertex relabeling.
//! 2. **Tie-broken greedy relabeling**: starting from the root (canonical id
//!    0), the next canonical id goes to the frontier vertex with the least
//!    `(color, sorted connections-to-already-assigned)` key. Remaining ties
//!    fall back to the input index — by then the tied vertices are
//!    interchangeable for every family our generators produce, which is the
//!    regime this pass is built for (it is a refinement-guided greedy search,
//!    not a full graph-canonization algorithm with backtracking).
//!
//! # Complexity and the `canon-v1` contract
//!
//! A refinement round sorts neighbor colors in place and ranks the vertices
//! with one index sort: O(E log d + n log n) per round (d the largest
//! degree), no per-vertex allocation. Rounds repeat until the color count
//! stops growing, R rounds in all, and R reaches about n/2: on a path or a
//! [`chain_gn`](crate::generators::chain_gn) chain each round splits one
//! more vertex off each end. Refinement thus costs O(R·(E log d + n log n)):
//! near-linear on bushy trees (R is their depth) but O(n² log n) on chains.
//! The greedy keeps the
//! *same key* the definition above states — `(color, sorted (direction,
//! assigned id) pattern, input index)` — but maintains it incrementally:
//! when a vertex takes id `k`, only its neighbors' patterns grow (by `(0, k)`
//! at a successor, `(1, k)` at a predecessor, once per edge), and an indexed
//! binary heap over the frontier re-sifts just those vertices. That is
//! O((n + E) log n) key comparisons, each short unless two frontier vertices
//! share a long pattern prefix. [`canonical_form`] costs the sum of the two.
//! The chosen vertex in every round is the one the full rescan would choose, so
//! permutations, forms, encodings and fingerprints are unchanged: `canon-v1`
//! cache entries written by the quadratic rescan stay valid. The test module
//! keeps that rescan as the differential oracle, plus pinned fingerprints.
//!
//! The result is a [`CanonicalForm`] — an edge list under canonical ids,
//! comparable with `==` — plus the permutation that produced it, and a stable
//! [`Fnv1a`]-based fingerprint for content-addressing. Consumers that need
//! *correctness* (the sweep's dedup clusters) compare whole forms; the
//! fingerprint only names cache entries, where a collision is detectable.
//!
//! [Weisfeiler–Leman]: https://en.wikipedia.org/wiki/Weisfeiler_Leman_graph_isomorphism_test
//!
//! # Example
//!
//! ```
//! use anet_graph::canon::{canonical_fingerprint, canonical_form};
//! use anet_graph::{DiGraph, Network};
//!
//! # fn main() -> Result<(), anet_graph::NetworkError> {
//! // The same path s -> v -> t built with two different vertex numberings.
//! let mut g1 = DiGraph::new();
//! let (s1, v1, t1) = (g1.add_node(), g1.add_node(), g1.add_node());
//! g1.add_edge(s1, v1);
//! g1.add_edge(v1, t1);
//! let mut g2 = DiGraph::new();
//! let (t2, v2, s2) = (g2.add_node(), g2.add_node(), g2.add_node());
//! g2.add_edge(v2, t2);
//! g2.add_edge(s2, v2);
//! let a = Network::new(g1, s1, t1)?;
//! let b = Network::new(g2, s2, t2)?;
//! assert_eq!(canonical_form(&a).form, canonical_form(&b).form);
//! assert_eq!(canonical_fingerprint(&a), canonical_fingerprint(&b));
//! # Ok(())
//! # }
//! ```

use std::cmp::Ordering;

use anet_num::Fnv1a;

use crate::{Csr, DiGraph, Network, NetworkError, NodeId};

/// A network under canonical vertex ids: node count, root, terminal, and the
/// sorted directed edge list (with multiplicity — parallel edges stay
/// parallel).
///
/// Two networks have equal canonical forms exactly when this module's
/// labeling maps them to the same object; for the generator families in this
/// workspace that coincides with graph isomorphism (respecting root and
/// terminal). Equality of forms is exact — no hashing involved — so it is
/// safe to key deduplication on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalForm {
    /// `|V|` of the network (including root and terminal).
    pub node_count: usize,
    /// Canonical id of the root (always 0: the root seeds the relabeling).
    pub root: usize,
    /// Canonical id of the terminal.
    pub terminal: usize,
    /// Directed edges `(src, dst)` under canonical ids, sorted.
    pub edges: Vec<(usize, usize)>,
}

impl CanonicalForm {
    /// A stable one-line text encoding, the byte string behind
    /// [`CanonicalForm::fingerprint`] and the sweep's cache keys.
    ///
    /// The format is versioned (`canon-v1`) so a future labeling change
    /// invalidates old cache entries instead of silently aliasing them.
    pub fn encode(&self) -> String {
        let mut s = format!(
            "canon-v1 n={} s={} t={} m={}",
            self.node_count,
            self.root,
            self.terminal,
            self.edges.len()
        );
        for &(a, b) in &self.edges {
            s.push_str(&format!(" {a}>{b}"));
        }
        s
    }

    /// Stable 64-bit FNV-1a digest of [`CanonicalForm::encode`].
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.encode().as_bytes());
        h.finish()
    }

    /// Rebuilds a concrete [`Network`] carrying exactly this form.
    ///
    /// Edges are inserted in sorted order, so each vertex's out-ports are
    /// ordered by destination id — a deterministic function of the form
    /// alone. Canonicalizing the rebuilt network yields this same form back
    /// (the labeling is idempotent).
    ///
    /// # Errors
    ///
    /// Returns a [`NetworkError`] if the form does not describe a valid
    /// network; forms produced by [`canonical_form`] always rebuild.
    pub fn to_network(&self) -> Result<Network, NetworkError> {
        let mut g = DiGraph::with_capacity(self.node_count);
        g.add_nodes(self.node_count);
        for &(a, b) in &self.edges {
            if a >= self.node_count {
                return Err(NetworkError::UnknownNode(NodeId(a)));
            }
            if b >= self.node_count {
                return Err(NetworkError::UnknownNode(NodeId(b)));
            }
            g.add_edge(NodeId(a), NodeId(b));
        }
        Network::new(g, NodeId(self.root), NodeId(self.terminal))
    }
}

/// The output of [`canonical_form`]: the canonical form plus the relabeling
/// that produced it, so per-vertex results on the canonical network can be
/// mapped back to the original ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalLabeling {
    /// `permutation[old_index] = canonical_index`.
    pub permutation: Vec<usize>,
    /// The network under canonical ids.
    pub form: CanonicalForm,
}

/// Densely ranks vertices by `cmp`: sorts `order` in place, then writes each
/// vertex's rank into `ranks`. Equal keys share a rank, ranks start at 0 and
/// follow `cmp`; the return value is the number of distinct ranks. The
/// ranking is a pure function of the keys — not of the incoming order, which
/// callers keep between rounds so each sort starts nearly sorted — and that
/// is what makes refinement colors label-invariant.
fn dense_rank(order: &mut [u32], ranks: &mut [u32], cmp: impl Fn(u32, u32) -> Ordering) -> usize {
    order.sort_unstable_by(|&a, &b| cmp(a, b));
    let mut distinct = 0;
    for i in 0..order.len() {
        if i == 0 || cmp(order[i - 1], order[i]) != Ordering::Equal {
            distinct += 1;
        }
        ranks[order[i] as usize] = distinct as u32 - 1;
    }
    distinct
}

/// Color refinement to a fixed point. Initial colors are
/// `(in-degree, out-degree, is-root, is-terminal)`; each round splits colors
/// by the sorted multisets of out- and in-neighbor colors. Stops when a round
/// no longer increases the number of distinct colors (the partition is
/// equitable from then on).
///
/// A round is one pass filling and sorting the neighbor colors in place (one
/// slot per edge end, laid out like the CSR edge ranges) plus one index sort,
/// O(E log d + n log n) with no per-vertex allocation. The number of rounds
/// is the depth at which the partition stabilizes: a tree's depth, but about
/// n/2 on a path or chain, where each round splits one more vertex off each
/// end.
fn refined_colors(network: &Network, csr: &Csr) -> Vec<u32> {
    let n = csr.node_count();
    let (root, terminal) = (network.root().index(), network.terminal().index());
    let init = |v: u32| {
        (
            csr.in_degree(v),
            csr.out_degree(v),
            v as usize == root,
            v as usize == terminal,
        )
    };
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut colors = vec![0u32; n];
    let mut distinct = dense_rank(&mut order, &mut colors, |a, b| init(a).cmp(&init(b)));
    let mut succ = vec![0u32; csr.edge_count()];
    let mut pred = vec![0u32; csr.edge_count()];
    let mut next = vec![0u32; n];
    while distinct < n {
        for v in 0..n as u32 {
            let out = &mut succ[csr.out_range(v)];
            for (slot, u) in out.iter_mut().zip(csr.successors(v)) {
                *slot = colors[u as usize];
            }
            out.sort_unstable();
            let inc = &mut pred[csr.in_range(v)];
            for (slot, u) in inc.iter_mut().zip(csr.predecessors(v)) {
                *slot = colors[u as usize];
            }
            inc.sort_unstable();
        }
        let signature = |v: u32| {
            (
                colors[v as usize],
                &succ[csr.out_range(v)],
                &pred[csr.in_range(v)],
            )
        };
        let next_distinct = dense_rank(&mut order, &mut next, |a, b| {
            signature(a).cmp(&signature(b))
        });
        if next_distinct == distinct {
            break;
        }
        std::mem::swap(&mut colors, &mut next);
        distinct = next_distinct;
    }
    colors
}

/// Marks a vertex without a canonical id (in [`Greedy::id`]) or outside the
/// frontier heap (in [`Greedy::slot`]).
const NONE: u32 = u32::MAX;

/// State of the greedy relabel: the ids handed out so far and the frontier —
/// every unassigned vertex with an assigned neighbor — in an indexed binary
/// min-heap on the exact key `(color, pattern, input index)`.
///
/// A vertex's pattern is the sorted list of `(0, id)` for each assigned
/// predecessor and `(1, id)` for each assigned successor, with multiplicity.
/// Ids are handed out in increasing order, so both halves only ever grow at
/// their ends: they are stored as two append-only runs in slot arrays laid
/// out like the CSR in- and out-edge ranges, and compared in place, never
/// copied. An append can move the key either way — `(0, k)` lands before any
/// `(1, _)` entry, `(1, k)` extends the list — so the heap sifts both ways.
struct Greedy<'a> {
    csr: &'a Csr,
    colors: &'a [u32],
    /// `id[v]`: canonical id of `v`, or [`NONE`].
    id: Vec<u32>,
    /// Ids of `v`'s assigned predecessors, ascending, from
    /// `csr.in_range(v).start`; `pred_len[v]` of them are filled.
    pred_ids: Vec<u32>,
    pred_len: Vec<u32>,
    /// Ids of `v`'s assigned successors, ascending, from
    /// `csr.out_range(v).start`; `succ_len[v]` of them are filled.
    succ_ids: Vec<u32>,
    succ_len: Vec<u32>,
    /// The frontier as a binary min-heap of vertices.
    heap: Vec<u32>,
    /// `slot[v]`: position of `v` in `heap`, or [`NONE`].
    slot: Vec<u32>,
}

impl<'a> Greedy<'a> {
    fn new(csr: &'a Csr, colors: &'a [u32]) -> Self {
        let (n, m) = (csr.node_count(), csr.edge_count());
        Greedy {
            csr,
            colors,
            id: vec![NONE; n],
            pred_ids: vec![0; m],
            pred_len: vec![0; n],
            succ_ids: vec![0; m],
            succ_len: vec![0; n],
            heap: Vec::new(),
            slot: vec![NONE; n],
        }
    }

    /// The pattern of `v` in key order: predecessor entries, then successor
    /// entries, each ascending.
    fn pattern(&self, v: u32) -> impl Iterator<Item = (u8, u32)> + '_ {
        let p = self.csr.in_range(v).start;
        let s = self.csr.out_range(v).start;
        let preds = &self.pred_ids[p..p + self.pred_len[v as usize] as usize];
        let succs = &self.succ_ids[s..s + self.succ_len[v as usize] as usize];
        preds
            .iter()
            .map(|&id| (0, id))
            .chain(succs.iter().map(|&id| (1, id)))
    }

    /// Compares two frontier vertices by `(color, pattern, input index)`.
    fn cmp(&self, a: u32, b: u32) -> Ordering {
        self.colors[a as usize]
            .cmp(&self.colors[b as usize])
            .then_with(|| self.pattern(a).cmp(self.pattern(b)))
            .then(a.cmp(&b))
    }

    /// Gives `w` the canonical id `k` and appends `k` to the pattern of each
    /// of `w`'s unassigned neighbors, once per connecting edge.
    fn assign(&mut self, w: u32, k: u32) {
        self.id[w as usize] = k;
        let csr = self.csr;
        for x in csr.successors(w) {
            if self.id[x as usize] == NONE {
                let len = &mut self.pred_len[x as usize];
                self.pred_ids[csr.in_range(x).start + *len as usize] = k;
                *len += 1;
                self.reposition(x);
            }
        }
        for y in csr.predecessors(w) {
            if self.id[y as usize] == NONE {
                let len = &mut self.succ_len[y as usize];
                self.succ_ids[csr.out_range(y).start + *len as usize] = k;
                *len += 1;
                self.reposition(y);
            }
        }
    }

    /// Restores the heap order after `v`'s key changed, inserting `v` if it
    /// just joined the frontier.
    fn reposition(&mut self, v: u32) {
        let mut i = self.slot[v as usize];
        if i == NONE {
            i = self.heap.len() as u32;
            self.heap.push(v);
            self.slot[v as usize] = i;
        }
        let i = self.sift_up(i as usize);
        self.sift_down(i);
    }

    /// Removes and returns the least frontier vertex.
    fn pop(&mut self) -> Option<u32> {
        let last = self.heap.pop()?;
        let top = match self.heap.first_mut() {
            Some(first) => std::mem::replace(first, last),
            None => last,
        };
        self.slot[top as usize] = NONE;
        if !self.heap.is_empty() {
            self.slot[last as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.slot[self.heap[i] as usize] = i as u32;
        self.slot[self.heap[j] as usize] = j as u32;
    }

    fn sift_up(&mut self, mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.cmp(self.heap[i], self.heap[parent]) != Ordering::Less {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
        i
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut least = i;
            if l < self.heap.len() && self.cmp(self.heap[l], self.heap[least]) == Ordering::Less {
                least = l;
            }
            if r < self.heap.len() && self.cmp(self.heap[r], self.heap[least]) == Ordering::Less {
                least = r;
            }
            if least == i {
                return;
            }
            self.swap(i, least);
            i = least;
        }
    }
}

/// Computes the canonical labeling of a network: refinement colors, then a
/// greedy root-first relabeling with `(color, connections-to-assigned)`
/// tie-breaking. See the module docs for the algorithm and its contract.
pub fn canonical_form(network: &Network) -> CanonicalLabeling {
    // All adjacency below goes through the flat CSR view; ids are shared with
    // the source graph, so the resulting form is byte-identical to one
    // computed over `DiGraph` walks (the `canon-v1` encoding is pinned by the
    // sweep cache).
    let csr = Csr::from_graph(network.graph());
    let n = csr.node_count();
    let colors = refined_colors(network, &csr);

    // One vertex per round: the least frontier vertex by (color, pattern,
    // input index) takes the next id, then only its neighbors' keys change.
    let mut greedy = Greedy::new(&csr, &colors);
    let mut next = 0u32;
    let mut pick = Some(network.root().index() as u32);
    while let Some(v) = pick {
        greedy.assign(v, next);
        next += 1;
        pick = greedy.pop();
    }

    // Vertices in components not touching the root's (generators never
    // produce these, but the form must still be total): by (color, index).
    let mut id = greedy.id;
    let mut rest: Vec<u32> = (0..n as u32).filter(|&v| id[v as usize] == NONE).collect();
    rest.sort_unstable_by_key(|&v| (colors[v as usize], v));
    for v in rest {
        id[v as usize] = next;
        next += 1;
    }

    let permutation: Vec<usize> = id.into_iter().map(|k| k as usize).collect();
    let mut edges: Vec<(usize, usize)> = (0..csr.edge_count() as u32)
        .map(|e| {
            (
                permutation[csr.edge_src(e) as usize],
                permutation[csr.edge_dst(e) as usize],
            )
        })
        .collect();
    edges.sort_unstable();
    CanonicalLabeling {
        form: CanonicalForm {
            node_count: n,
            root: permutation[network.root().index()],
            terminal: permutation[network.terminal().index()],
            edges,
        },
        permutation,
    }
}

/// The stable 64-bit fingerprint of a network's canonical form: equal for
/// isomorphic networks (root- and terminal-respecting), stable across
/// platforms and runs.
pub fn canonical_fingerprint(network: &Network) -> u64 {
    canonical_form(network).form.fingerprint()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rand::{rngs::StdRng, Rng, SeedableRng};

    use super::*;
    use crate::generators::{
        chain_gn, complete_dag, cycle_with_tail, diamond_stack, full_grounded_tree, layered_dag,
        nested_cycles, path_network, pruned_tree, random_cyclic, random_dag, random_grounded_tree,
        skeleton, star_network, with_stranded_vertex,
    };

    /// The quadratic reference labeling: refinement colors ranked through a
    /// `BTreeMap`, and a greedy that rescans every vertex and rebuilds every
    /// frontier pattern each round. [`canonical_form`] must reproduce its
    /// permutation exactly.
    fn oracle_permutation(network: &Network) -> Vec<usize> {
        fn dense_rank<T: Ord>(values: Vec<T>) -> (Vec<usize>, usize) {
            let mut ranks: BTreeMap<&T, usize> = values.iter().map(|v| (v, 0)).collect();
            let distinct = ranks.len();
            for (i, (_, rank)) in ranks.iter_mut().enumerate() {
                *rank = i;
            }
            let out = values.iter().map(|v| ranks[v]).collect();
            (out, distinct)
        }

        let csr = Csr::from_graph(network.graph());
        let n = csr.node_count();
        let init: Vec<(usize, usize, bool, bool)> = (0..n)
            .map(|v| {
                (
                    csr.in_degree(v as u32),
                    csr.out_degree(v as u32),
                    NodeId(v) == network.root(),
                    NodeId(v) == network.terminal(),
                )
            })
            .collect();
        let (mut colors, mut distinct) = dense_rank(init);
        while distinct < n {
            let sigs: Vec<(usize, Vec<usize>, Vec<usize>)> = (0..n)
                .map(|v| {
                    let mut out: Vec<usize> = csr
                        .successors(v as u32)
                        .map(|u| colors[u as usize])
                        .collect();
                    out.sort_unstable();
                    let mut inc: Vec<usize> = csr
                        .predecessors(v as u32)
                        .map(|u| colors[u as usize])
                        .collect();
                    inc.sort_unstable();
                    (colors[v], out, inc)
                })
                .collect();
            let (next, next_distinct) = dense_rank(sigs);
            if next_distinct == distinct {
                break;
            }
            colors = next;
            distinct = next_distinct;
        }

        let mut assigned: Vec<Option<usize>> = vec![None; n];
        let mut next_id = 1;
        assigned[network.root().index()] = Some(0);
        type RoundKey = (usize, Vec<(u8, usize)>, usize);
        loop {
            let mut best: Option<RoundKey> = None;
            for v in 0..n {
                if assigned[v].is_some() {
                    continue;
                }
                let mut pattern: Vec<(u8, usize)> = Vec::new();
                for u in csr.predecessors(v as u32) {
                    if let Some(id) = assigned[u as usize] {
                        pattern.push((0, id));
                    }
                }
                for u in csr.successors(v as u32) {
                    if let Some(id) = assigned[u as usize] {
                        pattern.push((1, id));
                    }
                }
                if pattern.is_empty() {
                    continue;
                }
                pattern.sort_unstable();
                let key = (colors[v], pattern, v);
                if best.as_ref().is_none_or(|b| key < *b) {
                    best = Some(key);
                }
            }
            match best {
                Some((_, _, v)) => {
                    assigned[v] = Some(next_id);
                    next_id += 1;
                }
                None => break,
            }
        }
        let mut rest: Vec<usize> = (0..n).filter(|&v| assigned[v].is_none()).collect();
        rest.sort_unstable_by_key(|&v| (colors[v], v));
        for v in rest {
            assigned[v] = Some(next_id);
            next_id += 1;
        }
        assigned.into_iter().map(|id| id.expect("total")).collect()
    }

    /// The form `network` takes under `permutation`.
    fn form_under(network: &Network, permutation: &[usize]) -> CanonicalForm {
        let g = network.graph();
        let mut edges: Vec<(usize, usize)> = g
            .edges()
            .map(|e| {
                let (a, b) = g.edge_endpoints(e);
                (permutation[a.index()], permutation[b.index()])
            })
            .collect();
        edges.sort_unstable();
        CanonicalForm {
            node_count: g.node_count(),
            root: permutation[network.root().index()],
            terminal: permutation[network.terminal().index()],
            edges,
        }
    }

    /// Asserts that [`canonical_form`] and the oracle agree on `network`.
    fn assert_matches_oracle(network: &Network, what: &str) {
        let got = canonical_form(network);
        let want = oracle_permutation(network);
        assert_eq!(got.permutation, want, "{what}: permutation");
        assert_eq!(got.form, form_under(network, &want), "{what}: form");
    }

    /// One network of every generator family at a few sizes.
    fn corpus() -> Vec<(String, Network)> {
        let mut nets: Vec<(String, Network)> = Vec::new();
        for size in [1usize, 2, 3, 5, 8] {
            let mut rng = StdRng::seed_from_u64(size as u64);
            let mut push = |name: &str, net: Network| nets.push((format!("{name}/{size}"), net));
            push("chain-gn", chain_gn(size).unwrap());
            push("path", path_network(size).unwrap());
            push("star", star_network(size).unwrap());
            push("complete-dag", complete_dag(size).unwrap());
            push("diamond-stack", diamond_stack(size).unwrap());
            push("cycle-with-tail", cycle_with_tail(size + 1).unwrap());
            push(
                "nested-cycles",
                nested_cycles(1 + size % 3, 2 + size).unwrap(),
            );
            push("random-dag", random_dag(&mut rng, 3 * size, 0.3).unwrap());
            push(
                "random-cyclic",
                random_cyclic(&mut rng, 3 * size, 0.25, 0.15).unwrap(),
            );
            push(
                "layered-dag",
                layered_dag(&mut rng, 1 + size % 4, size, 2).unwrap(),
            );
            push(
                "grounded-tree",
                random_grounded_tree(&mut rng, 10 * size, 2 + size % 3, 0.3).unwrap(),
            );
            push(
                "full-tree",
                full_grounded_tree(1 + size % 4, 2 + size % 3).unwrap(),
            );
            push("pruned-tree", pruned_tree(1 + size % 4, 3).unwrap().0);
            let subset: Vec<bool> = (0..size).map(|i| i % 2 == 0).collect();
            push("skeleton", skeleton(size, &subset).unwrap().network);
            push(
                "stranded",
                with_stranded_vertex(&chain_gn(size).unwrap()).unwrap(),
            );
        }
        nets
    }

    /// Rebuilds `network` with vertex `v` renamed to `perm[v]` and edges
    /// inserted in a rotated order, exercising id- and port-independence.
    fn relabel(network: &Network, perm: &[usize], rotate: usize) -> Network {
        let g = network.graph();
        let mut h = DiGraph::with_capacity(g.node_count());
        h.add_nodes(g.node_count());
        let edges: Vec<_> = g.edges().collect();
        for i in 0..edges.len() {
            let e = edges[(i + rotate) % edges.len()];
            let (src, dst) = g.edge_endpoints(e);
            h.add_edge(NodeId(perm[src.index()]), NodeId(perm[dst.index()]));
        }
        Network::new(
            h,
            NodeId(perm[network.root().index()]),
            NodeId(perm[network.terminal().index()]),
        )
        .expect("relabeling preserves network validity")
    }

    #[test]
    fn permutation_is_a_bijection_rooted_at_zero() {
        let network = chain_gn(5).unwrap();
        let labeling = canonical_form(&network);
        let mut seen = vec![false; labeling.permutation.len()];
        for &p in &labeling.permutation {
            assert!(!seen[p]);
            seen[p] = true;
        }
        assert_eq!(labeling.form.root, 0);
        assert_eq!(labeling.permutation[network.root().index()], 0);
        assert_eq!(labeling.form.node_count, network.node_count());
        assert_eq!(labeling.form.edges.len(), network.edge_count());
    }

    #[test]
    fn relabeled_networks_share_form_and_fingerprint() {
        for network in [
            chain_gn(6).unwrap(),
            star_network(4).unwrap(),
            nested_cycles(2, 4).unwrap(),
        ] {
            let base = canonical_form(&network);
            let n = network.node_count();
            // A reversal and a rotation of the id space, plus edge-order shifts.
            let reversal: Vec<usize> = (0..n).rev().collect();
            let rotation: Vec<usize> = (0..n).map(|v| (v + 3) % n).collect();
            for perm in [reversal, rotation] {
                for rotate in [0, 1, 2] {
                    let other = relabel(&network, &perm, rotate);
                    let got = canonical_form(&other);
                    assert_eq!(got.form, base.form);
                    assert_eq!(got.form.fingerprint(), base.form.fingerprint());
                }
            }
        }
    }

    #[test]
    fn to_network_round_trips_and_labeling_is_idempotent() {
        let network = nested_cycles(3, 5).unwrap();
        let labeling = canonical_form(&network);
        let rebuilt = labeling.form.to_network().unwrap();
        assert_eq!(rebuilt.node_count(), network.node_count());
        assert_eq!(rebuilt.edge_count(), network.edge_count());
        let again = canonical_form(&rebuilt);
        assert_eq!(again.form, labeling.form);
        // The rebuilt network is already canonically labeled.
        let identity: Vec<usize> = (0..rebuilt.node_count()).collect();
        assert_eq!(again.permutation, identity);
    }

    #[test]
    fn distinct_shapes_get_distinct_forms() {
        let chain = chain_gn(4).unwrap();
        let longer = chain_gn(5).unwrap();
        assert_ne!(canonical_form(&chain).form, canonical_form(&longer).form);
        assert_ne!(
            canonical_fingerprint(&chain),
            canonical_fingerprint(&longer)
        );
    }

    #[test]
    fn parallel_edges_keep_multiplicity() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let v = g.add_node();
        let t = g.add_node();
        g.add_edge(s, v);
        g.add_edge(v, t);
        g.add_edge(v, t);
        let network = Network::new(g, s, t).unwrap();
        let form = canonical_form(&network).form;
        assert_eq!(form.edges.len(), 3);
        let rebuilt = form.to_network().unwrap();
        assert_eq!(rebuilt.edge_count(), 3);
        assert_eq!(canonical_form(&rebuilt).form, form);
    }

    #[test]
    fn encode_is_stable_and_versioned() {
        let network = chain_gn(2).unwrap();
        let form = canonical_form(&network).form;
        let text = form.encode();
        assert!(text.starts_with("canon-v1 "));
        assert_eq!(text, canonical_form(&network).form.encode());
    }

    #[test]
    fn greedy_matches_the_quadratic_oracle_on_every_family() {
        for (name, network) in corpus() {
            assert_matches_oracle(&network, &name);
        }
    }

    #[test]
    fn greedy_matches_the_oracle_under_relabelings_and_edge_rotations() {
        let mut rng = StdRng::seed_from_u64(7);
        for (name, network) in corpus() {
            let n = network.node_count();
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, rng.gen_range(0..i + 1));
            }
            for rotate in [1, 3] {
                let other = relabel(&network, &perm, rotate);
                assert_matches_oracle(&other, &format!("{name} relabeled, rotate {rotate}"));
            }
        }
    }

    #[test]
    fn greedy_matches_the_oracle_with_parallel_edges_and_foreign_components() {
        // s -> a, a => b twice, a -> t, b => t twice, plus a component the
        // root cannot reach in either direction: c -> d, d -> c, c -> d again.
        let mut g = DiGraph::new();
        let s = g.add_node();
        let c = g.add_node();
        let a = g.add_node();
        let t = g.add_node();
        let d = g.add_node();
        let b = g.add_node();
        let e = g.add_node();
        g.add_edge(s, a);
        g.add_edge(a, b);
        g.add_edge(a, b);
        g.add_edge(a, t);
        g.add_edge(b, t);
        g.add_edge(b, t);
        g.add_edge(c, d);
        g.add_edge(d, c);
        g.add_edge(c, d);
        let network = Network::new(g, s, t).unwrap();
        assert_matches_oracle(&network, "parallel + foreign");
        // The foreign vertices take the last ids, isolated `e` included.
        let labeling = canonical_form(&network);
        for v in [c, d, e] {
            assert!(labeling.permutation[v.index()] >= 4);
        }
        assert_eq!(labeling.form.to_network().unwrap().edge_count(), 9);
    }

    /// `canon-v1` fingerprints of fixed topologies, recorded before the
    /// incremental relabel replaced the quadratic one: cache entries written
    /// under either stay addressable.
    #[test]
    fn canon_v1_fingerprints_are_pinned() {
        let rng = StdRng::seed_from_u64;
        let pins: [(&str, Network, u64); 12] = [
            ("chain-gn/5", chain_gn(5).unwrap(), 0x2ce4_6911_ef38_d3f8),
            ("path/4", path_network(4).unwrap(), 0xe8df_4b73_0849_8bf1),
            ("star/4", star_network(4).unwrap(), 0x8eba_989f_4a35_a9bf),
            (
                "complete-dag/5",
                complete_dag(5).unwrap(),
                0x1c8a_c2c9_f178_0726,
            ),
            (
                "diamond-stack/3",
                diamond_stack(3).unwrap(),
                0x63b7_4200_ec97_8dea,
            ),
            (
                "cycle-with-tail/5",
                cycle_with_tail(5).unwrap(),
                0xae85_3c9c_f9cc_2150,
            ),
            (
                "nested-cycles/2x4",
                nested_cycles(2, 4).unwrap(),
                0x7f7b_8278_3dc1_0051,
            ),
            (
                "random-dag/12 seed 1",
                random_dag(&mut rng(1), 12, 0.3).unwrap(),
                0xacfa_b95d_ccb0_69cf,
            ),
            (
                "random-cyclic/12 seed 2",
                random_cyclic(&mut rng(2), 12, 0.25, 0.15).unwrap(),
                0x54c1_52d9_aa03_08e5,
            ),
            (
                "layered-dag/3x4 seed 3",
                layered_dag(&mut rng(3), 3, 4, 2).unwrap(),
                0x0a5e_4329_4385_b93c,
            ),
            (
                "grounded-tree/200 seed 2007",
                random_grounded_tree(&mut rng(2007), 200, 4, 0.3).unwrap(),
                0x29dd_d9b1_539a_4385,
            ),
            (
                "full-grounded-tree 4x3",
                full_grounded_tree(4, 3).unwrap(),
                0x92f0_3c26_e7d6_d87c,
            ),
        ];
        for (name, network, fingerprint) in pins {
            assert_eq!(
                canonical_fingerprint(&network),
                fingerprint,
                "{name}: canon-v1 fingerprint moved"
            );
        }
    }
}
