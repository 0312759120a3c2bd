//! The generalized stochastic finite automaton.
//!
//! The model follows §2.2 and §3.1 of the paper: a DAG with one start and
//! one final node whose edges carry *emission lists* — pairs of a non-empty
//! label in `Σ⁺` and a probability. OCRopus-style SFAs emit single
//! characters on every edge; the generalized form (labels of length > 1)
//! arises when Staccato's `Collapse` replaces a sub-SFA with one edge.
//!
//! The structure supports cheap in-place edge/node removal (tombstones) so
//! the greedy approximation in `staccato-core` can apply hundreds of merges
//! without reallocating the graph, and a [`Sfa::into_compact`] operation
//! that renumbers everything densely.

use crate::error::SfaError;

/// Index of a node within an [`Sfa`]. Dense, `u32` to keep hot structures
/// small (see the type-size guidance in the Rust perf book).
pub type NodeId = u32;

/// Index of an edge within an [`Sfa`].
pub type EdgeId = u32;

/// One entry of the transition function δ: a label in `Σ⁺` with its
/// conditional probability.
#[derive(Debug, Clone, PartialEq)]
pub struct Emission {
    /// The emitted string; never empty.
    pub label: String,
    /// Conditional probability of taking this edge *and* emitting `label`,
    /// given the source node. In `[0, 1]`.
    pub prob: f64,
}

impl Emission {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, prob: f64) -> Self {
        Emission {
            label: label.into(),
            prob,
        }
    }
}

/// A directed edge with its emission list, kept sorted by decreasing
/// probability (ties keep insertion order).
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Emissions, sorted by decreasing probability.
    pub emissions: Vec<Emission>,
}

impl Edge {
    /// Total probability mass carried by this edge (sum over emissions).
    pub fn mass(&self) -> f64 {
        self.emissions.iter().map(|e| e.prob).sum()
    }
}

fn sort_emissions(emissions: &mut [Emission]) {
    emissions.sort_by(|a, b| {
        b.prob
            .partial_cmp(&a.prob)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

/// A generalized stochastic finite automaton.
///
/// Invariants maintained by the construction API ([`SfaBuilder`]) and
/// checked by [`crate::validate`]:
///
/// * the graph is a DAG;
/// * `start` has no in-edges, `finish` has no out-edges;
/// * every live node lies on some `start → finish` path;
/// * every emission has a non-empty label and a probability in `[0, 1]`.
///
/// Mutation methods ([`Sfa::remove_edge`], [`Sfa::add_edge`], …) are
/// tombstone-based and do **not** re-validate; they exist for the
/// approximation algorithms, which restore the invariants before handing
/// graphs back out. [`Sfa::into_compact`] drops tombstones and renumbers.
#[derive(Debug, Clone)]
pub struct Sfa {
    start: NodeId,
    finish: NodeId,
    node_alive: Vec<bool>,
    edges: Vec<Option<Edge>>,
    out: Vec<Vec<EdgeId>>,
    inn: Vec<Vec<EdgeId>>,
    live_edges: usize,
}

impl Sfa {
    /// The distinguished start node `s`.
    pub fn start(&self) -> NodeId {
        self.start
    }

    /// The distinguished final node `f`.
    pub fn finish(&self) -> NodeId {
        self.finish
    }

    /// Number of node slots ever allocated (including tombstoned ones).
    /// Valid `NodeId`s are `0..num_node_slots()`.
    pub fn num_node_slots(&self) -> u32 {
        self.node_alive.len() as u32
    }

    /// Number of edge slots ever allocated (including tombstoned ones).
    pub fn num_edge_slots(&self) -> u32 {
        self.edges.len() as u32
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.node_alive.iter().filter(|&&a| a).count()
    }

    /// Number of live edges. This is the `|E|` that Algorithm 2's stopping
    /// condition (`|E| ≤ m`) refers to.
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Whether `n` is a live node.
    pub fn is_node_alive(&self, n: NodeId) -> bool {
        self.node_alive.get(n as usize).copied().unwrap_or(false)
    }

    /// The edge stored at `id`, if live.
    pub fn edge(&self, id: EdgeId) -> Option<&Edge> {
        self.edges.get(id as usize).and_then(|e| e.as_ref())
    }

    /// Mutable access to a live edge.
    ///
    /// The caller must leave `emissions` sorted by decreasing probability
    /// (dropping or filtering entries does): k-best's dominance cut and
    /// Staccato's chain scoring rely on it, and debug builds assert it.
    pub fn edge_mut(&mut self, id: EdgeId) -> Option<&mut Edge> {
        self.edges.get_mut(id as usize).and_then(|e| e.as_mut())
    }

    /// Iterate over `(id, edge)` for all live edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (i as EdgeId, e)))
    }

    /// Ids of live out-edges of `n`.
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.out[n as usize]
    }

    /// Ids of live in-edges of `n`.
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.inn[n as usize]
    }

    /// Live nodes in an arbitrary order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_alive
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| a.then_some(i as NodeId))
    }

    /// Total number of emissions across live edges. Dominates both the
    /// serialized size and query-evaluation cost (Table 1's `l·|Σ|` term).
    pub fn total_emissions(&self) -> usize {
        self.edges().map(|(_, e)| e.emissions.len()).sum()
    }

    /// Live nodes in a topological order (start first, finish last).
    ///
    /// # Panics
    ///
    /// Panics if the live subgraph contains a cycle, which indicates a bug
    /// in a caller that mutated the graph; validated SFAs are acyclic.
    pub fn topo_order(&self) -> Vec<NodeId> {
        self.try_topo_order()
            .expect("SFA invariant violated: graph has a cycle")
    }

    /// Fallible variant of [`Sfa::topo_order`].
    pub fn try_topo_order(&self) -> Result<Vec<NodeId>, SfaError> {
        let mut indeg = vec![0u32; self.node_alive.len()];
        let mut sources = Vec::new();
        for (i, &alive) in self.node_alive.iter().enumerate() {
            if alive {
                indeg[i] = self.inn[i].len() as u32;
                if indeg[i] == 0 {
                    sources.push(i as NodeId);
                }
            }
        }
        let order = self.kahn(sources, indeg, |_| true);
        if order.len() != self.node_count() {
            return Err(SfaError::CyclicGraph);
        }
        Ok(order)
    }

    /// The sub-SFA that the sorted node set `nodes` induces, in the order
    /// [`Sfa::topo_order`] gives on its extracted copy (nodes renumbered
    /// in `nodes` order, induced edges added in id order): `entry` first,
    /// then Kahn's algorithm over induced out-edges in ascending id
    /// order — which is the live adjacency order, since edges are
    /// appended with rising ids and removal keeps the rest in place.
    /// `entry` must be the region's only node without an induced in-edge.
    pub fn region_topo_order(&self, nodes: &[NodeId], entry: NodeId) -> Vec<NodeId> {
        let inside = |n: NodeId| nodes.binary_search(&n).is_ok();
        let tail = |&e: &EdgeId| {
            self.edges[e as usize]
                .as_ref()
                .expect("live adjacency")
                .from
        };
        let mut indeg = vec![0u32; self.node_alive.len()];
        for &v in nodes {
            indeg[v as usize] = self.inn[v as usize]
                .iter()
                .map(tail)
                .filter(|&u| inside(u))
                .count() as u32;
        }
        self.kahn(vec![entry], indeg, inside)
    }

    /// Kahn's algorithm from `sources` (ascending), over out-edges whose
    /// head satisfies `inside`. The queue is the order.
    fn kahn(
        &self,
        mut queue: Vec<NodeId>,
        mut indeg: Vec<u32>,
        inside: impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for &eid in &self.out[v as usize] {
                let to = self.edges[eid as usize]
                    .as_ref()
                    .expect("live adjacency")
                    .to;
                if inside(to) {
                    indeg[to as usize] -= 1;
                    if indeg[to as usize] == 0 {
                        queue.push(to);
                    }
                }
            }
        }
        queue
    }

    /// Add a fresh node (initially disconnected). Used by graph-rewriting
    /// algorithms; remember to connect it before validating.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.node_alive.len() as NodeId;
        self.node_alive.push(true);
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        id
    }

    /// Add an edge between two live nodes. Emissions are sorted by
    /// decreasing probability. The caller must keep the graph acyclic
    /// (i.e. `from` must topologically precede `to`).
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        mut emissions: Vec<Emission>,
    ) -> Result<EdgeId, SfaError> {
        if !self.is_node_alive(from) {
            return Err(SfaError::InvalidNode(from));
        }
        if !self.is_node_alive(to) {
            return Err(SfaError::InvalidNode(to));
        }
        sort_emissions(&mut emissions);
        let id = self.edges.len() as EdgeId;
        for (i, em) in emissions.iter().enumerate() {
            if em.label.is_empty() {
                return Err(SfaError::EmptyLabel { edge: id });
            }
            if !em.prob.is_finite() || em.prob < 0.0 || em.prob > 1.0 + 1e-9 {
                return Err(SfaError::BadProbability {
                    edge: id,
                    prob: emissions[i].prob,
                });
            }
        }
        self.edges.push(Some(Edge {
            from,
            to,
            emissions,
        }));
        self.out[from as usize].push(id);
        self.inn[to as usize].push(id);
        self.live_edges += 1;
        Ok(id)
    }

    /// Remove a live edge. Returns the removed edge.
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<Edge, SfaError> {
        let slot = self
            .edges
            .get_mut(id as usize)
            .ok_or(SfaError::InvalidEdge(id))?;
        let edge = slot.take().ok_or(SfaError::InvalidEdge(id))?;
        self.out[edge.from as usize].retain(|&e| e != id);
        self.inn[edge.to as usize].retain(|&e| e != id);
        self.live_edges -= 1;
        Ok(edge)
    }

    /// Tombstone a node. The node must have no live incident edges.
    pub fn remove_node(&mut self, n: NodeId) -> Result<(), SfaError> {
        if !self.is_node_alive(n) {
            return Err(SfaError::InvalidNode(n));
        }
        if !self.out[n as usize].is_empty() || !self.inn[n as usize].is_empty() {
            return Err(SfaError::Disconnected { node: n });
        }
        self.node_alive[n as usize] = false;
        Ok(())
    }

    /// A copy that keeps only each live edge's first `k` emissions — its
    /// `k` most likely — with every id unchanged. Equal to cloning and
    /// then truncating, without cloning the dropped labels.
    pub fn truncated(&self, k: usize) -> Sfa {
        let edges = self
            .edges
            .iter()
            .map(|e| {
                e.as_ref().map(|e| Edge {
                    from: e.from,
                    to: e.to,
                    emissions: e.emissions[..k.min(e.emissions.len())].to_vec(),
                })
            })
            .collect();
        Sfa {
            edges,
            node_alive: self.node_alive.clone(),
            out: self.out.clone(),
            inn: self.inn.clone(),
            ..*self
        }
    }

    /// A densely renumbered copy without tombstones that moves each
    /// edge's emissions: nodes in [`Sfa::topo_order`] (so `start` becomes
    /// 0), live edges in id order. [`crate::codec::encode`] writes this
    /// numbering without making the copy.
    pub fn into_compact(mut self) -> Sfa {
        let (remap, mut out) = self.compact_frame();
        for e in std::mem::take(&mut self.edges).into_iter().flatten() {
            out.add_edge(remap[e.from as usize], remap[e.to as usize], e.emissions)
                .expect("compacting a live edge cannot fail");
        }
        out
    }

    /// The topological renumbering of the live nodes, and the compacted
    /// SFA's nodes without its edges.
    fn compact_frame(&self) -> (Vec<NodeId>, Sfa) {
        let remap = self.topo_remap();
        let n = self.node_count();
        let out = Sfa {
            start: remap[self.start as usize],
            finish: remap[self.finish as usize],
            node_alive: vec![true; n],
            edges: Vec::with_capacity(self.live_edges),
            out: vec![Vec::new(); n],
            inn: vec![Vec::new(); n],
            live_edges: 0,
        };
        (remap, out)
    }

    /// Each live node's position in [`Sfa::topo_order`], indexed by node
    /// slot (tombstoned slots map to `u32::MAX`).
    pub(crate) fn topo_remap(&self) -> Vec<NodeId> {
        let mut remap = vec![u32::MAX; self.node_alive.len()];
        for (new, old) in self.topo_order().into_iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        remap
    }

    /// Build a deterministic chain SFA that emits exactly `text` with
    /// probability 1. Handy for tests and for representing clean ground
    /// truth in the same model.
    pub fn from_string(text: &str) -> Sfa {
        let mut b = SfaBuilder::new();
        let chars: Vec<char> = text.chars().collect();
        let mut prev = b.add_node();
        let start = prev;
        if chars.is_empty() {
            // An SFA must emit something; represent the empty line as a
            // single space emission, mirroring how the OCR channel treats
            // blank lines.
            let end = b.add_node();
            b.add_edge(prev, end, vec![Emission::new(" ", 1.0)]);
            return b.build(start, end).expect("two-node chain is valid");
        }
        let mut end = prev;
        for c in chars {
            end = b.add_node();
            b.add_edge(prev, end, vec![Emission::new(c.to_string(), 1.0)]);
            prev = end;
        }
        b.build(start, end).expect("chain SFA is valid")
    }

    /// Enumerate up to `limit` emitted `(string, probability)` pairs by
    /// depth-first traversal. Exponential in general — intended for tests
    /// and for the direct-indexing blow-up experiment (Fig. 5), never for
    /// query processing.
    pub fn enumerate_strings(&self, limit: usize) -> Vec<(String, f64)> {
        let mut acc = Vec::new();
        let mut buf = String::new();
        self.enumerate_rec(self.start, 1.0, &mut buf, limit, &mut acc);
        acc
    }

    fn enumerate_rec(
        &self,
        node: NodeId,
        prob: f64,
        buf: &mut String,
        limit: usize,
        acc: &mut Vec<(String, f64)>,
    ) {
        if acc.len() >= limit {
            return;
        }
        if node == self.finish {
            acc.push((buf.clone(), prob));
            return;
        }
        for &eid in &self.out[node as usize] {
            let edge = self.edges[eid as usize].as_ref().expect("live adjacency");
            for em in &edge.emissions {
                if acc.len() >= limit {
                    return;
                }
                let len_before = buf.len();
                buf.push_str(&em.label);
                self.enumerate_rec(edge.to, prob * em.prob, buf, limit, acc);
                buf.truncate(len_before);
            }
        }
    }
}

/// Incremental constructor for [`Sfa`] that validates structure on
/// [`SfaBuilder::build`].
#[derive(Debug, Default)]
pub struct SfaBuilder {
    sfa: Option<Sfa>,
}

impl SfaBuilder {
    /// Start building an empty SFA.
    pub fn new() -> Self {
        SfaBuilder {
            sfa: Some(Sfa {
                start: 0,
                finish: 0,
                node_alive: Vec::new(),
                edges: Vec::new(),
                out: Vec::new(),
                inn: Vec::new(),
                live_edges: 0,
            }),
        }
    }

    fn inner(&mut self) -> &mut Sfa {
        self.sfa.as_mut().expect("builder already consumed")
    }

    /// Add a node and return its id.
    pub fn add_node(&mut self) -> NodeId {
        self.inner().add_node()
    }

    /// Add an edge. Emission constraints are checked immediately; graph
    /// structure is checked by [`SfaBuilder::build`].
    ///
    /// # Panics
    ///
    /// Panics if an emission is malformed (empty label / bad probability) or
    /// an endpoint does not exist — builder misuse is a programming error.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, emissions: Vec<Emission>) -> EdgeId {
        self.inner()
            .add_edge(from, to, emissions)
            .expect("malformed edge passed to SfaBuilder")
    }

    /// Finish building, declaring the start and final nodes, and validate
    /// the structural invariants.
    pub fn build(mut self, start: NodeId, finish: NodeId) -> Result<Sfa, SfaError> {
        let mut sfa = self.sfa.take().expect("builder already consumed");
        if !sfa.is_node_alive(start) {
            return Err(SfaError::InvalidNode(start));
        }
        if !sfa.is_node_alive(finish) {
            return Err(SfaError::InvalidNode(finish));
        }
        sfa.start = start;
        sfa.finish = finish;
        crate::validate::check_structure(&sfa)?;
        Ok(sfa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 1 SFA from the paper: emits 'F0 rd' (0.21), 'Ford' (0.12),
    /// and friends.
    pub(crate) fn figure1() -> Sfa {
        let mut b = SfaBuilder::new();
        let n: Vec<NodeId> = (0..6).map(|_| b.add_node()).collect();
        b.add_edge(
            n[0],
            n[1],
            vec![Emission::new("F", 0.8), Emission::new("T", 0.2)],
        );
        b.add_edge(
            n[1],
            n[2],
            vec![Emission::new("0", 0.6), Emission::new("o", 0.4)],
        );
        b.add_edge(n[2], n[3], vec![Emission::new(" ", 0.6)]);
        b.add_edge(n[2], n[4], vec![Emission::new("r", 0.4)]);
        b.add_edge(
            n[3],
            n[4],
            vec![Emission::new("r", 0.8), Emission::new("m", 0.2)],
        );
        b.add_edge(
            n[4],
            n[5],
            vec![Emission::new("d", 0.9), Emission::new("3", 0.1)],
        );
        b.build(n[0], n[5]).unwrap()
    }

    #[test]
    fn figure1_builds_and_counts() {
        let s = figure1();
        assert_eq!(s.node_count(), 6);
        assert_eq!(s.edge_count(), 6);
        assert_eq!(s.total_emissions(), 10);
        assert_eq!(s.start(), 0);
        assert_eq!(s.finish(), 5);
    }

    #[test]
    fn topo_order_starts_at_start_ends_at_finish() {
        let s = figure1();
        let order = s.topo_order();
        assert_eq!(order.first(), Some(&s.start()));
        assert_eq!(order.last(), Some(&s.finish()));
        assert_eq!(order.len(), 6);
    }

    #[test]
    fn emissions_sorted_descending() {
        let mut b = SfaBuilder::new();
        let a = b.add_node();
        let z = b.add_node();
        b.add_edge(a, z, vec![Emission::new("x", 0.1), Emission::new("y", 0.9)]);
        let s = b.build(a, z).unwrap();
        let e = s.edge(0).unwrap();
        assert_eq!(e.emissions[0].label, "y");
        assert_eq!(e.emissions[1].label, "x");
    }

    #[test]
    fn from_string_emits_exactly_that_string() {
        let s = Sfa::from_string("Ford");
        let strings = s.enumerate_strings(10);
        assert_eq!(strings, vec![("Ford".to_string(), 1.0)]);
    }

    #[test]
    fn from_string_empty_line_is_single_space() {
        let s = Sfa::from_string("");
        assert_eq!(s.enumerate_strings(10), vec![(" ".to_string(), 1.0)]);
    }

    #[test]
    fn enumerate_respects_limit() {
        let s = figure1();
        assert_eq!(s.enumerate_strings(3).len(), 3);
    }

    #[test]
    fn figure1_string_probabilities() {
        let s = figure1();
        let strings = s.enumerate_strings(100);
        let get = |t: &str| {
            strings
                .iter()
                .find(|(x, _)| x == t)
                .map(|(_, p)| *p)
                .unwrap_or(0.0)
        };
        // Paper: 'F0 rd' has probability 0.8*0.6*0.6*0.8*0.9 ≈ 0.207
        assert!((get("F0 rd") - 0.8 * 0.6 * 0.6 * 0.8 * 0.9).abs() < 1e-12);
        // Paper: 'Ford' has probability 0.8*0.4*0.4*0.9 ≈ 0.115
        assert!((get("Ford") - 0.8 * 0.4 * 0.4 * 0.9).abs() < 1e-12);
    }

    #[test]
    fn remove_and_add_edges_keeps_counts() {
        let mut s = figure1();
        let before = s.edge_count();
        let removed = s.remove_edge(0).unwrap();
        assert_eq!(s.edge_count(), before - 1);
        assert!(s.edge(0).is_none());
        let id = s
            .add_edge(removed.from, removed.to, removed.emissions)
            .unwrap();
        assert_eq!(s.edge_count(), before);
        assert!(s.edge(id).is_some());
    }

    #[test]
    fn remove_node_requires_no_incident_edges() {
        let mut s = figure1();
        assert!(matches!(
            s.remove_node(3),
            Err(SfaError::Disconnected { node: 3 })
        ));
        // Detach node 3 first.
        let incident: Vec<EdgeId> = s
            .edges()
            .filter(|(_, e)| e.from == 3 || e.to == 3)
            .map(|(id, _)| id)
            .collect();
        for id in incident {
            s.remove_edge(id).unwrap();
        }
        s.remove_node(3).unwrap();
        assert!(!s.is_node_alive(3));
    }

    #[test]
    fn compact_preserves_distribution() {
        let mut s = figure1();
        // Knock out the ' ' branch (edges via node 3), then compact.
        let incident: Vec<EdgeId> = s
            .edges()
            .filter(|(_, e)| e.from == 3 || e.to == 3)
            .map(|(id, _)| id)
            .collect();
        for id in incident {
            s.remove_edge(id).unwrap();
        }
        s.remove_node(3).unwrap();
        let c = s.clone().into_compact();
        assert_eq!(c.node_count(), 5);
        assert_eq!(c.num_node_slots(), 5);
        let mut a = s.enumerate_strings(100);
        let mut b = c.enumerate_strings(100);
        a.sort_by(|x, y| x.0.cmp(&y.0));
        b.sort_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(a, b);
    }

    #[test]
    fn add_edge_rejects_bad_probability() {
        let mut s = figure1();
        let err = s.add_edge(0, 5, vec![Emission::new("q", 1.5)]);
        assert!(matches!(err, Err(SfaError::BadProbability { .. })));
        let err = s.add_edge(0, 5, vec![Emission::new("q", f64::NAN)]);
        assert!(matches!(err, Err(SfaError::BadProbability { .. })));
    }

    #[test]
    fn add_edge_rejects_empty_label() {
        let mut s = figure1();
        let err = s.add_edge(0, 5, vec![Emission::new("", 0.5)]);
        assert!(matches!(err, Err(SfaError::EmptyLabel { .. })));
    }

    #[test]
    fn add_edge_rejects_dead_node() {
        let mut s = Sfa::from_string("ab");
        assert!(matches!(
            s.add_edge(99, 0, vec![Emission::new("x", 0.5)]),
            Err(SfaError::InvalidNode(99))
        ));
    }

    #[test]
    fn cycle_detected_by_try_topo_order() {
        let mut s = Sfa::from_string("ab");
        // Force a back edge; this violates the documented precondition, and
        // try_topo_order must report it rather than loop.
        s.add_edge(2, 0, vec![Emission::new("z", 0.1)]).unwrap();
        assert_eq!(s.try_topo_order(), Err(SfaError::CyclicGraph));
    }

    #[test]
    fn edge_mass_sums_emissions() {
        let s = figure1();
        let e = s.edge(0).unwrap();
        assert!((e.mass() - 1.0).abs() < 1e-12);
    }
}
