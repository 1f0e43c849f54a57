//! The computational DAG and its set analyses.

use iolb_ir::{ArrayId, StmtId};
use iolb_memsim::ChunkedTrace;
use std::collections::{BTreeSet, VecDeque};

/// Node identifier inside a [`Cdag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Kind of a CDAG node — a borrowed view into the graph's flat node
/// metadata (iteration vectors live in one shared arena, not one allocation
/// per node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind<'a> {
    /// A program input datum (`array[flat]` before any write).
    Input {
        /// Array holding the datum.
        array: ArrayId,
        /// Flat element index.
        flat: usize,
    },
    /// A statement instance.
    Compute {
        /// The statement.
        stmt: StmtId,
        /// Its iteration vector.
        iv: &'a [i32],
    },
}

/// Owning node description used to *construct* a [`Cdag`] (the graph
/// immediately flattens these into its arena storage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeSpec {
    /// A program input datum.
    Input {
        /// Array holding the datum.
        array: ArrayId,
        /// Flat element index.
        flat: usize,
    },
    /// A statement instance.
    Compute {
        /// The statement.
        stmt: StmtId,
        /// Its iteration vector.
        iv: Box<[i32]>,
    },
}

/// A computational DAG in CSR form.
///
/// Compute nodes appear in *schedule order* (the order the instance walk
/// enumerated them), so `0..n` restricted to compute nodes is always a valid
/// sequential schedule.
///
/// Storage is fully flat: adjacency in two CSR pairs, node metadata in
/// parallel arrays, and all iteration vectors concatenated in one arena —
/// building a graph performs O(1) allocations, not O(nodes).
#[derive(Debug)]
pub struct Cdag {
    /// Per node: `(array, flat)` for inputs, `(stmt, compute index)` for
    /// computes, discriminated by `is_input`.
    meta: Vec<(u32, u32)>,
    is_input: Vec<bool>,
    num_inputs: usize,
    /// Iteration-vector arena: compute `c` owns
    /// `iv_data[iv_off[c] .. iv_off[c + 1]]`.
    iv_off: Vec<u32>,
    iv_data: Vec<i32>,
    pred_off: Vec<u32>,
    preds: Vec<u32>,
    succ_off: Vec<u32>,
    succs: Vec<u32>,
}

impl Cdag {
    /// Builds from node specs and a (possibly duplicated) edge list
    /// `from → to`.
    pub fn from_edges(kinds: Vec<NodeSpec>, edges: Vec<(u32, u32)>) -> Cdag {
        let mut meta = Vec::with_capacity(kinds.len());
        let mut is_input = Vec::with_capacity(kinds.len());
        let mut iv_off = vec![0u32];
        let mut iv_data = Vec::new();
        let mut num_inputs = 0usize;
        for kind in kinds {
            match kind {
                NodeSpec::Input { array, flat } => {
                    meta.push((array.0, flat as u32));
                    is_input.push(true);
                    num_inputs += 1;
                }
                NodeSpec::Compute { stmt, iv } => {
                    let c = iv_off.len() - 1;
                    iv_data.extend_from_slice(&iv);
                    iv_off.push(iv_data.len() as u32);
                    meta.push((stmt.0, c as u32));
                    is_input.push(false);
                }
            }
        }
        Cdag::from_parts(meta, is_input, num_inputs, iv_off, iv_data, edges)
    }

    /// Arena-level constructor for arbitrary edge lists: sorts and
    /// deduplicates, then defers to the linear CSR build.
    pub(crate) fn from_parts(
        meta: Vec<(u32, u32)>,
        is_input: Vec<bool>,
        num_inputs: usize,
        iv_off: Vec<u32>,
        iv_data: Vec<i32>,
        mut edges: Vec<(u32, u32)>,
    ) -> Cdag {
        edges.sort_unstable_by_key(|&(a, b)| (b, a));
        edges.dedup();
        Cdag::from_grouped_edges(meta, is_input, num_inputs, iv_off, iv_data, edges)
    }

    /// Arena-level constructor for the builders' native edge order:
    /// duplicate-free edges grouped by nondecreasing `to` (the natural
    /// output of schedule-order recording). The CSR pairs are assembled
    /// with counting passes only — no comparison sort:
    ///
    /// * successor rows fill in stream order, so each row's targets come
    ///   out ascending (the stream is `to`-ordered);
    /// * predecessor rows then fill by walking successors in source order,
    ///   so each row's sources come out ascending too.
    pub(crate) fn from_grouped_edges(
        meta: Vec<(u32, u32)>,
        is_input: Vec<bool>,
        num_inputs: usize,
        iv_off: Vec<u32>,
        iv_data: Vec<i32>,
        edges: Vec<(u32, u32)>,
    ) -> Cdag {
        let n = meta.len();
        let mut last_to = 0u32;
        for &(a, b) in &edges {
            assert!(
                a < b,
                "edges must go forward in schedule order ({a} -> {b})"
            );
            assert!((b as usize) < n, "edge endpoint out of range");
            debug_assert!(b >= last_to, "edges must be grouped by target");
            last_to = b;
        }
        // Degree counts accumulate directly into the offset arrays (shifted
        // by one), then a prefix sum turns them into row starts.
        let mut pred_off = vec![0u32; n + 1];
        let mut succ_off = vec![0u32; n + 1];
        for &(a, b) in &edges {
            succ_off[a as usize + 1] += 1;
            pred_off[b as usize + 1] += 1;
        }
        for i in 0..n {
            pred_off[i + 1] += pred_off[i];
            succ_off[i + 1] += succ_off[i];
        }
        let mut succs = vec![0u32; edges.len()];
        // The offset array doubles as the fill cursor; each row's cursor
        // ends at the next row's start, so one backward shift restores it.
        for &(a, b) in &edges {
            succs[succ_off[a as usize] as usize] = b;
            succ_off[a as usize] += 1;
        }
        for i in (1..=n).rev() {
            succ_off[i] = succ_off[i - 1];
        }
        succ_off[0] = 0;
        let mut preds = vec![0u32; edges.len()];
        for a in 0..n {
            for &b in &succs[succ_off[a] as usize..succ_off[a + 1] as usize] {
                preds[pred_off[b as usize] as usize] = a as u32;
                pred_off[b as usize] += 1;
            }
        }
        for i in (1..=n).rev() {
            pred_off[i] = pred_off[i - 1];
        }
        pred_off[0] = 0;
        Cdag {
            meta,
            is_input,
            num_inputs,
            iv_off,
            iv_data,
            pred_off,
            preds,
            succ_off,
            succs,
        }
    }

    /// Number of nodes (inputs + computes).
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True when the graph has no node.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Node kind (a borrowed view; iteration vectors point into the graph's
    /// shared arena).
    pub fn kind(&self, v: NodeId) -> NodeKind<'_> {
        let i = v.0 as usize;
        let (a, b) = self.meta[i];
        if self.is_input[i] {
            NodeKind::Input {
                array: ArrayId(a),
                flat: b as usize,
            }
        } else {
            let c = b as usize;
            NodeKind::Compute {
                stmt: StmtId(a),
                iv: &self.iv_data[self.iv_off[c] as usize..self.iv_off[c + 1] as usize],
            }
        }
    }

    /// Predecessors of `v`.
    pub fn preds(&self, v: NodeId) -> &[u32] {
        &self.preds[self.pred_off[v.0 as usize] as usize..self.pred_off[v.0 as usize + 1] as usize]
    }

    /// Successors of `v`.
    pub fn succs(&self, v: NodeId) -> &[u32] {
        &self.succs[self.succ_off[v.0 as usize] as usize..self.succ_off[v.0 as usize + 1] as usize]
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.preds.len()
    }

    /// Iterator over compute nodes in schedule order.
    pub fn compute_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.is_input
            .iter()
            .enumerate()
            .filter(|(_, &inp)| !inp)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Iterator over input nodes.
    pub fn input_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.is_input
            .iter()
            .enumerate()
            .filter(|(_, &inp)| inp)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Number of compute nodes.
    pub fn num_computes(&self) -> usize {
        self.meta.len() - self.num_inputs
    }

    /// Appends the packed value-access trace of the program-order schedule
    /// to `out` (`(node << 1) | is_produce` per event, the `iolb-memsim`
    /// encoding with node ids as cells): each compute step reads its
    /// predecessors in CSR order, then produces its own value (a write —
    /// no load, the red-white Compute rule).
    ///
    /// This is exactly the access sequence a pebble play services, at
    /// value granularity (every node is written once, before any read, so
    /// cache simulations of this trace need no overwrite handling). A MIN
    /// cache simulation of the trace lower-bounds the loads of *every*
    /// legal play: any play's pebble moves are a valid replacement
    /// schedule for the trace, while the simulators may additionally drop
    /// an operand mid-step (staging through registers), which no play's
    /// pinned compute groups can.
    pub fn packed_program_order_trace(&self, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(self.num_edges() + self.num_computes());
        for v in self.compute_nodes() {
            for &p in self.preds(v) {
                out.push((p as u64) << 1);
            }
            out.push(((v.0 as u64) << 1) | 1);
        }
    }

    /// Streaming view of the same packed program-order trace: a
    /// [`ChunkedTrace`] pull source the sharded curve engines read window
    /// by window, so the trace is never materialized as one `Vec<u64>`.
    /// Costs one `u64` offset per compute node; event windows regenerate
    /// from the CSR on every [`ChunkedTrace::fill`].
    pub fn program_order_trace(&self) -> ProgramOrderTrace<'_> {
        let mut computes = Vec::with_capacity(self.num_computes());
        let mut event_off = Vec::with_capacity(self.num_computes() + 1);
        event_off.push(0u64);
        let mut total = 0u64;
        for v in self.compute_nodes() {
            computes.push(v.0);
            total += self.preds(v).len() as u64 + 1;
            event_off.push(total);
        }
        ProgramOrderTrace {
            cdag: self,
            computes,
            event_off,
        }
    }

    /// Number of input nodes.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Structural comparison of two CDAGs: `None` when node kinds and
    /// adjacency are identical, `Some(diff)` naming the first difference.
    /// The differential fuzz oracle uses this to pin the fast declared-
    /// access construction path against the executed ground-truth path.
    pub fn diff(&self, other: &Cdag) -> Option<String> {
        if self.len() != other.len() {
            return Some(format!("node count: {} vs {}", self.len(), other.len()));
        }
        if self.num_inputs() != other.num_inputs() {
            return Some(format!(
                "input count: {} vs {}",
                self.num_inputs(),
                other.num_inputs()
            ));
        }
        if self.num_edges() != other.num_edges() {
            return Some(format!(
                "edge count: {} vs {}",
                self.num_edges(),
                other.num_edges()
            ));
        }
        for i in 0..self.len() as u32 {
            let v = NodeId(i);
            if self.kind(v) != other.kind(v) {
                return Some(format!(
                    "node {i}: {:?} vs {:?}",
                    self.kind(v),
                    other.kind(v)
                ));
            }
            if self.preds(v) != other.preds(v) {
                return Some(format!(
                    "preds of node {i}: {:?} vs {:?}",
                    self.preds(v),
                    other.preds(v)
                ));
            }
        }
        None
    }

    /// Finds the compute node of `stmt` at iteration vector `iv` (linear
    /// scan: meant for tests/validation on small graphs).
    pub fn node_of(&self, stmt: StmtId, iv: &[i32]) -> Option<NodeId> {
        (0..self.meta.len() as u32).map(NodeId).find(|v| {
            matches!(self.kind(*v),
                NodeKind::Compute { stmt: s, iv: x } if s == stmt && x == iv)
        })
    }

    /// Maximum in-degree over compute nodes (a play needs `S ≥ indeg + 1`).
    pub fn max_in_degree(&self) -> usize {
        self.compute_nodes()
            .map(|v| self.preds(v).len())
            .max()
            .unwrap_or(0)
    }

    /// BFS path existence `a ⇝ b`.
    pub fn has_path(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        // Edges only go forward, so prune by node id.
        let mut seen = vec![false; self.len()];
        let mut q = VecDeque::new();
        q.push_back(a.0);
        seen[a.0 as usize] = true;
        while let Some(v) = q.pop_front() {
            for &w in self.succs(NodeId(v)) {
                if w == b.0 {
                    return true;
                }
                if w < b.0 && !seen[w as usize] {
                    seen[w as usize] = true;
                    q.push_back(w);
                }
            }
        }
        false
    }

    /// `InSet(E)`: data used by `E` but not produced inside `E` — the set of
    /// predecessors (including input nodes) lying outside `E`.
    pub fn inset(&self, e: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        let mut inset = BTreeSet::new();
        for &v in e {
            for &p in self.preds(v) {
                if !e.contains(&NodeId(p)) {
                    inset.insert(NodeId(p));
                }
            }
        }
        inset
    }

    /// Convexity check: `E` is convex iff no dependency chain leaves `E` and
    /// re-enters it.
    pub fn is_convex(&self, e: &BTreeSet<NodeId>) -> bool {
        // BFS from the outside-successors of E; reaching E again disproves
        // convexity.
        let mut seen = vec![false; self.len()];
        let mut q = VecDeque::new();
        for &v in e {
            for &w in self.succs(v) {
                if !e.contains(&NodeId(w)) && !seen[w as usize] {
                    seen[w as usize] = true;
                    q.push_back(w);
                }
            }
        }
        while let Some(v) = q.pop_front() {
            for &w in self.succs(NodeId(v)) {
                if e.contains(&NodeId(w)) {
                    return false;
                }
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    q.push_back(w);
                }
            }
        }
        true
    }

    /// Convex closure: repeatedly adds nodes lying on chains between members.
    ///
    /// Cubic-ish; for test-sized graphs only.
    pub fn convex_closure(&self, e: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        let mut cur = e.clone();
        loop {
            // reachable-from-cur (forward), and can-reach-cur (backward).
            let mut fwd = vec![false; self.len()];
            let mut bwd = vec![false; self.len()];
            let mut q: VecDeque<u32> = cur.iter().map(|v| v.0).collect();
            for &v in &cur {
                fwd[v.0 as usize] = true;
            }
            while let Some(v) = q.pop_front() {
                for &w in self.succs(NodeId(v)) {
                    if !fwd[w as usize] {
                        fwd[w as usize] = true;
                        q.push_back(w);
                    }
                }
            }
            let mut q: VecDeque<u32> = cur.iter().map(|v| v.0).collect();
            for &v in &cur {
                bwd[v.0 as usize] = true;
            }
            while let Some(v) = q.pop_front() {
                for &w in self.preds(NodeId(v)) {
                    if !bwd[w as usize] {
                        bwd[w as usize] = true;
                        q.push_back(w);
                    }
                }
            }
            let mut grown = cur.clone();
            for v in 0..self.len() as u32 {
                if fwd[v as usize] && bwd[v as usize] {
                    grown.insert(NodeId(v));
                }
            }
            if grown.len() == cur.len() {
                return cur;
            }
            cur = grown;
        }
    }
}

/// Chunked pull source over a [`Cdag`]'s program-order value-access trace
/// (see [`Cdag::packed_program_order_trace`] for the event semantics).
///
/// Built by [`Cdag::program_order_trace`]. Holds cumulative event offsets
/// per compute node; `fill` binary-searches the compute containing the
/// window start and regenerates events straight from the CSR, so shards
/// can read disjoint windows concurrently without any shared cursor.
#[derive(Debug)]
pub struct ProgramOrderTrace<'a> {
    cdag: &'a Cdag,
    /// Compute nodes in schedule order.
    computes: Vec<u32>,
    /// `event_off[c]` = global position of compute `c`'s first event;
    /// final entry is the trace length.
    event_off: Vec<u64>,
}

impl ChunkedTrace for ProgramOrderTrace<'_> {
    fn len(&self) -> u64 {
        *self.event_off.last().expect("offsets are never empty")
    }

    fn fill(&self, start: u64, buf: &mut [u64]) {
        assert!(
            start + buf.len() as u64 <= self.len(),
            "fill window {start}..{} exceeds trace length {}",
            start + buf.len() as u64,
            self.len()
        );
        // Greatest compute whose first event is at or before `start`.
        let mut c = self.event_off.partition_point(|&off| off <= start) - 1;
        let mut pos = start;
        let mut i = 0usize;
        while i < buf.len() {
            let v = NodeId(self.computes[c]);
            let preds = self.cdag.preds(v);
            // Events of compute `c`: its predecessors' reads in CSR order,
            // then its own produce.
            let mut k = (pos - self.event_off[c]) as usize;
            while k < preds.len() && i < buf.len() {
                buf[i] = (preds[k] as u64) << 1;
                i += 1;
                k += 1;
                pos += 1;
            }
            if k == preds.len() && i < buf.len() {
                buf[i] = ((v.0 as u64) << 1) | 1;
                i += 1;
                pos += 1;
            }
            if pos == self.event_off[c + 1] {
                c += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diamond: 0 → {1, 2} → 3, with an input node 4 feeding 0 is invalid
    /// (edges must go forward), so inputs come first: i0=0 feeds c1, c2…
    fn diamond() -> Cdag {
        // 0: input; 1: a; 2: b; 3: c; 4: d  with edges 0→1, 1→2, 1→3, 2→4, 3→4
        let kinds = vec![
            NodeSpec::Input {
                array: ArrayId(0),
                flat: 0,
            },
            NodeSpec::Compute {
                stmt: StmtId(0),
                iv: vec![0].into(),
            },
            NodeSpec::Compute {
                stmt: StmtId(0),
                iv: vec![1].into(),
            },
            NodeSpec::Compute {
                stmt: StmtId(1),
                iv: vec![0].into(),
            },
            NodeSpec::Compute {
                stmt: StmtId(1),
                iv: vec![1].into(),
            },
        ];
        Cdag::from_edges(kinds, vec![(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    }

    #[test]
    fn csr_adjacency() {
        let g = diamond();
        assert_eq!(g.len(), 5);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.preds(NodeId(4)), &[2, 3]);
        assert_eq!(g.succs(NodeId(1)), &[2, 3]);
        assert_eq!(g.num_computes(), 4);
        assert_eq!(g.input_nodes().count(), 1);
        assert_eq!(g.max_in_degree(), 2);
    }

    #[test]
    fn node_lookup() {
        let g = diamond();
        assert_eq!(g.node_of(StmtId(0), &[1]), Some(NodeId(2)));
        assert_eq!(g.node_of(StmtId(1), &[7]), None);
    }

    #[test]
    fn paths() {
        let g = diamond();
        assert!(g.has_path(NodeId(0), NodeId(4)));
        assert!(g.has_path(NodeId(2), NodeId(4)));
        assert!(!g.has_path(NodeId(2), NodeId(3)));
        assert!(g.has_path(NodeId(3), NodeId(3)));
    }

    #[test]
    fn inset_counts_external_preds() {
        let g = diamond();
        let e: BTreeSet<NodeId> = [NodeId(2), NodeId(4)].into_iter().collect();
        let inset = g.inset(&e);
        // preds outside E: node 1 (pred of 2) and node 3 (pred of 4).
        assert_eq!(inset, [NodeId(1), NodeId(3)].into_iter().collect());
    }

    #[test]
    fn convexity() {
        let g = diamond();
        // {1, 4} skips the middle layer: chain 1→2→4 leaves and re-enters.
        let e: BTreeSet<NodeId> = [NodeId(1), NodeId(4)].into_iter().collect();
        assert!(!g.is_convex(&e));
        let c: BTreeSet<NodeId> = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
            .into_iter()
            .collect();
        assert!(g.is_convex(&c));
        assert_eq!(g.convex_closure(&e), c);
    }

    #[test]
    fn streaming_trace_matches_materialized_at_every_window() {
        let g = diamond();
        let mut want = Vec::new();
        g.packed_program_order_trace(&mut want);
        let stream = g.program_order_trace();
        assert_eq!(ChunkedTrace::len(&stream), want.len() as u64);
        // Every (start, len) window regenerates exactly the materialized
        // slice — including windows straddling compute-node boundaries.
        for start in 0..want.len() {
            for n in 0..=(want.len() - start) {
                let mut buf = vec![0u64; n];
                stream.fill(start as u64, &mut buf);
                assert_eq!(buf, want[start..start + n], "window {start}+{n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds trace length")]
    fn streaming_trace_rejects_out_of_range_windows() {
        let g = diamond();
        let stream = g.program_order_trace();
        let mut buf = vec![0u64; 2];
        stream.fill(ChunkedTrace::len(&stream) - 1, &mut buf);
    }

    #[test]
    #[should_panic(expected = "forward")]
    fn backward_edge_rejected() {
        let kinds = vec![
            NodeSpec::Compute {
                stmt: StmtId(0),
                iv: vec![0].into(),
            },
            NodeSpec::Compute {
                stmt: StmtId(0),
                iv: vec![1].into(),
            },
        ];
        let _ = Cdag::from_edges(kinds, vec![(1, 0)]);
    }
}
