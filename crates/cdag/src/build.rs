//! Exact CDAG construction.
//!
//! [`try_build_cdag`] walks the loop tree enumerating statement instances
//! and evaluates each statement's *declared* affine accesses through the
//! checked `iolb_ir::DeclaredAccesses`: every read is wired to the *last
//! writer* of its cell (or to an input node when the cell was never
//! written). A statement's declared accesses are its semantics, so this is
//! the precise flow-dependence CDAG of the paper — pure integer work over
//! dense tables — and an out-of-range subscript is a typed refusal. The
//! rule itself is [`Wiring`], which the tightness auto-tuner also runs to
//! read the input count and in-degrees without building a graph.
//!
//! [`CdagBuilder`] records the same graph from a stream of instance,
//! read and write events; tests drive it from independent access
//! evaluations (the fuzz oracle's walker, the kernel files' executed f64
//! closures) to cross-check the fast path.
//!
//! Inputs and computes are allocated in separate id spaces during the run
//! and merged at finish time: all inputs first (they carry the initial
//! white pebbles), then computes in schedule order, so every edge is
//! forward and `inputs.len()..len()` is a valid sequential schedule.

use crate::graph::Cdag;
use iolb_govern::{AnalysisError, Budget, CancelToken, Seam};
use iolb_ir::{try_for_each_instance, ArrayId, DeclaredAccesses, Program, StmtId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Input(u32),
    Compute(u32),
}

const NIL: u32 = u32::MAX;

/// Dense per-array cell table (`tbl[array][flat]`), grown on demand — cell
/// ids are flat array offsets, so this is two array indexations instead of
/// a hash per access.
#[derive(Debug, Default)]
struct CellTable {
    cols: Vec<Vec<u32>>,
}

impl CellTable {
    #[inline]
    fn get(&self, array: u32, flat: usize) -> u32 {
        match self.cols.get(array as usize) {
            Some(col) => col.get(flat).copied().unwrap_or(NIL),
            None => NIL,
        }
    }

    #[inline]
    fn slot(&mut self, array: u32, flat: usize) -> &mut u32 {
        let a = array as usize;
        if a >= self.cols.len() {
            self.cols.resize_with(a + 1, Vec::new);
        }
        let col = &mut self.cols[a];
        if flat >= col.len() {
            col.resize(flat + 1, NIL);
        }
        &mut col[flat]
    }
}

/// Records nodes and flow edges from a stream of instance / read / write
/// events in schedule order.
#[derive(Debug)]
pub struct CdagBuilder {
    /// Per compute node: statement id.
    stmts: Vec<u32>,
    /// Iteration-vector arena (compute `c` owns `iv_off[c]..iv_off[c+1]`).
    iv_off: Vec<u32>,
    iv_data: Vec<i32>,
    inputs: Vec<(ArrayId, usize)>,
    edges: Vec<(End, u32)>,
    /// Index into `edges` where the current instance's edges begin (for
    /// within-instance duplicate-read filtering).
    instance_start: usize,
    /// cell → producing compute (in compute id space)
    last_writer: CellTable,
    /// cell → input node (in input id space)
    input_node: CellTable,
}

impl Default for CdagBuilder {
    fn default() -> CdagBuilder {
        CdagBuilder::new()
    }
}

impl CdagBuilder {
    /// Fresh builder.
    pub fn new() -> CdagBuilder {
        CdagBuilder {
            stmts: Vec::new(),
            iv_off: vec![0],
            iv_data: Vec::new(),
            inputs: Vec::new(),
            edges: Vec::new(),
            instance_start: 0,
            last_writer: CellTable::default(),
            input_node: CellTable::default(),
        }
    }

    #[inline]
    fn current(&self) -> u32 {
        (self.stmts.len() - 1) as u32
    }

    /// A statement instance with iteration vector `iv` starts.
    pub fn stmt(&mut self, stmt: StmtId, iv: &[i64]) {
        self.stmts.push(stmt.0);
        self.iv_data.extend(iv.iter().map(|&x| x as i32));
        self.iv_off.push(self.iv_data.len() as u32);
        self.instance_start = self.edges.len();
    }

    /// The current instance reads `array[flat]`.
    pub fn read(&mut self, array: ArrayId, flat: usize) {
        let cur = self.current();
        let from = match self.last_writer.get(array.0, flat) {
            w if w != NIL => End::Compute(w),
            _ => {
                let slot = self.input_node.slot(array.0, flat);
                if *slot == NIL {
                    self.inputs.push((array, flat));
                    *slot = (self.inputs.len() - 1) as u32;
                }
                End::Input(*slot)
            }
        };
        // Repeated reads of one cell within an instance are one edge; this
        // is the only duplicate source (targets are per-instance), so the
        // recorded stream is globally duplicate-free.
        if !self.edges[self.instance_start..]
            .iter()
            .any(|&(f, _)| f == from)
        {
            self.edges.push((from, cur));
        }
    }

    /// The current instance writes `array[flat]`.
    pub fn write(&mut self, array: ArrayId, flat: usize) {
        let cur = self.current();
        *self.last_writer.slot(array.0, flat) = cur;
    }

    /// Finalizes into a [`Cdag`].
    pub fn finish(self) -> Cdag {
        let n_in = self.inputs.len();
        let n = n_in + self.stmts.len();
        let mut meta = Vec::with_capacity(n);
        let mut is_input = Vec::with_capacity(n);
        for (array, flat) in self.inputs {
            meta.push((array.0, flat as u32));
            is_input.push(true);
        }
        for (c, stmt) in self.stmts.iter().enumerate() {
            meta.push((*stmt, c as u32));
            is_input.push(false);
        }
        let edges = self
            .edges
            .into_iter()
            .map(|(from, to)| {
                let f = match from {
                    End::Input(i) => i,
                    End::Compute(c) => n_in as u32 + c,
                };
                (f, n_in as u32 + to)
            })
            .collect();
        // Recording order is schedule order: targets nondecreasing, and
        // record_read filtered duplicates, so the linear CSR build applies.
        Cdag::from_grouped_edges(meta, is_input, n_in, self.iv_off, self.iv_data, edges)
    }
}

/// The CDAG's wiring rule over dense cell ids: a read depends on the last
/// instance that wrote its cell, or on the cell's input node when none has
/// (the first read of an untouched cell creates that node), and an
/// instance's repeated reads of one producer are a single edge.
/// [`try_build_cdag`] builds its edges with it; callers that need only the
/// input count and the in-degrees use it without building a graph.
#[derive(Debug)]
pub struct Wiring {
    /// Per cell: `NIL` untouched, `input_id << 1 | 1` once first touched
    /// by a read, `compute_id << 1` once written by that compute.
    cells: Vec<u32>,
    /// Each input node's cell, by input id.
    inputs: Vec<usize>,
    /// The last wired instance's distinct producers.
    preds: Vec<u32>,
}

impl Wiring {
    /// No cell touched yet, out of `num_cells`.
    pub fn new(num_cells: usize) -> Wiring {
        Wiring {
            cells: vec![NIL; num_cells],
            inputs: Vec::new(),
            preds: Vec::new(),
        }
    }

    /// Wires compute `cur` (ids count from 0 in schedule order) from its
    /// packed accesses (`cell << 1`, low bit set for a write; its reads
    /// before its writes) and returns its distinct producers in first-read
    /// order, packed `input_id << 1 | 1` or `compute_id << 1`.
    pub fn instance(&mut self, cur: u32, events: &[u64]) -> &[u32] {
        self.preds.clear();
        for &event in events {
            let cell = (event >> 1) as usize;
            if event & 1 == 1 {
                self.cells[cell] = cur << 1;
                continue;
            }
            let slot = &mut self.cells[cell];
            if *slot == NIL {
                *slot = ((self.inputs.len() as u32) << 1) | 1;
                self.inputs.push(cell);
            }
            if !self.preds.contains(slot) {
                self.preds.push(*slot);
            }
        }
        &self.preds
    }

    /// Each input node's cell, by input id.
    pub fn inputs(&self) -> &[usize] {
        &self.inputs
    }
}

/// Runs `program` at `params` and returns its exact CDAG.
///
/// Enumerates instances with `iolb_ir::for_each_instance` and evaluates the
/// *declared* affine accesses of each statement, an instance's reads wired
/// before its writes.
///
/// All state is pre-sized flat storage — per-array cell tables sized from
/// the array extents, one iteration-vector arena, and a packed edge list —
/// so construction is a branch-light integer pass over the instances.
pub fn build_cdag(program: &Program, params: &[i64]) -> Cdag {
    try_build_cdag(
        program,
        params,
        &Budget::unlimited(),
        &CancelToken::unlimited(),
    )
    .unwrap_or_else(|e| panic!("build_cdag: {e}"))
}

/// Governed [`build_cdag`]: polls `token` at [`Seam::CdagFill`] during the
/// instance walk, sizes every per-array cell table with checked
/// arithmetic against `budget.max_arena_bytes` *before* allocating (huge
/// parameters return `BudgetExceeded` instead of wrapping the table size
/// or OOMing), counts instances against `budget.max_instances` during the
/// walk, and checks node/edge totals against the budget after the fill.
/// A declared access outside its array is [`AnalysisError::Refused`].
pub fn try_build_cdag(
    program: &Program,
    params: &[i64],
    budget: &Budget,
    token: &CancelToken,
) -> Result<Cdag, AnalysisError> {
    let mut cell_bytes = 0u64;
    for (i, decl) in program.arrays.iter().enumerate() {
        let len = program
            .try_array_len(ArrayId(i as u32), params)
            .ok_or_else(|| {
                AnalysisError::Refused(format!(
                    "array {} has an unsizable extent at these parameters",
                    decl.name
                ))
            })?
            .max(1);
        cell_bytes = cell_bytes.saturating_add(len.saturating_mul(4));
        if cell_bytes > budget.max_arena_bytes {
            return Err(AnalysisError::BudgetExceeded {
                resource: "arena_bytes",
                needed: cell_bytes,
                limit: budget.max_arena_bytes,
            });
        }
    }
    let accesses = DeclaredAccesses::bind(program, params);
    let mut wiring = Wiring::new(accesses.num_cells());
    let mut events: Vec<u64> = Vec::new();
    let mut stmts: Vec<u32> = Vec::new();
    let mut iv_off: Vec<u32> = vec![0];
    let mut iv_data: Vec<i32> = Vec::new();
    // Packed `from` endpoint: `input_id << 1 | 1` or `compute_id << 1`.
    let mut edges: Vec<(u32, u32)> = Vec::new();

    try_for_each_instance(
        program,
        params,
        token,
        Seam::CdagFill,
        budget.max_instances,
        |stmt_id, dims| {
            let stmt = program.stmt(stmt_id);
            stmts.push(stmt_id.0);
            iv_data.extend(stmt.dims.iter().map(|d| dims[d.0 as usize] as i32));
            iv_off.push(iv_data.len() as u32);
            let cur = (stmts.len() - 1) as u32;
            events.clear();
            for r in 0..stmt.reads.len() {
                events.push((accesses.read(stmt_id, r, dims)? as u64) << 1);
            }
            for w in 0..stmt.writes.len() {
                events.push(((accesses.write(stmt_id, w, dims)? as u64) << 1) | 1);
            }
            edges.extend(
                wiring
                    .instance(cur, &events)
                    .iter()
                    .map(|&from| (from, cur)),
            );
            Ok(())
        },
    )?;
    // Each input node's `(array, flat offset)`: arrays own consecutive
    // cell ranges in id order.
    let bases: Vec<usize> = (0..program.arrays.len() as u32)
        .map(|a| accesses.base(ArrayId(a)))
        .collect();
    let inputs: Vec<(u32, u32)> = wiring
        .inputs()
        .iter()
        .map(|&cell| {
            let a = bases.partition_point(|&b| b <= cell) - 1;
            (a as u32, (cell - bases[a]) as u32)
        })
        .collect();

    // Second-line totals check (admission bounds these ahead of time; the
    // instance ceiling above bounds them during the fill).
    let node_total = (inputs.len() as u64).saturating_add(stmts.len() as u64);
    if node_total > budget.max_cdag_nodes {
        return Err(AnalysisError::BudgetExceeded {
            resource: "cdag_nodes",
            needed: node_total,
            limit: budget.max_cdag_nodes,
        });
    }
    if edges.len() as u64 > budget.max_cdag_edges {
        return Err(AnalysisError::BudgetExceeded {
            resource: "cdag_edges",
            needed: edges.len() as u64,
            limit: budget.max_cdag_edges,
        });
    }

    // Merge id spaces: inputs first, then computes in schedule order.
    let n_in = inputs.len();
    let n = n_in + stmts.len();
    let mut meta = Vec::with_capacity(n);
    let mut is_input = Vec::with_capacity(n);
    for (array, flat) in inputs {
        meta.push((array, flat));
        is_input.push(true);
    }
    for (c, stmt) in stmts.iter().enumerate() {
        meta.push((*stmt, c as u32));
        is_input.push(false);
    }
    for (from, to) in &mut edges {
        *from = if *from & 1 == 1 {
            *from >> 1
        } else {
            n_in as u32 + (*from >> 1)
        };
        *to += n_in as u32;
    }
    // Enumeration order is schedule order: targets nondecreasing and
    // duplicates filtered above, so the linear CSR build applies.
    Ok(Cdag::from_grouped_edges(
        meta, is_input, n_in, iv_off, iv_data, edges,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;
    use iolb_ir::{Access, ProgramBuilder};

    /// prefix-sum: `for i in 1..N { x[i] = x[i] + x[i-1] }`
    fn prefix() -> iolb_ir::Program {
        let mut b = ProgramBuilder::new("prefix_cdag", &["N"]);
        let x = b.array("x", &[b.p("N")]);
        let i = b.open("i", b.c(1), b.p("N"));
        let xi = Access::new(x, vec![b.d(i)]);
        let xm = Access::new(x, vec![b.d(i) - 1]);
        b.stmt("S", vec![xi.clone(), xm], vec![xi]);
        b.close();
        b.finish()
    }

    #[test]
    fn chain_structure() {
        let p = prefix();
        let g = build_cdag(&p, &[5]);
        // S[i] reads x[i] (input: first touch) and x[i-1] (S[i-1]'s output
        // for i ≥ 2, input x[0] for i = 1): 4 computes + 5 inputs.
        assert_eq!(g.num_computes(), 4);
        assert_eq!(g.input_nodes().count(), 5);
        let s = p.stmt_id("S").unwrap();
        let n1 = g.node_of(s, &[1]).unwrap();
        let n4 = g.node_of(s, &[4]).unwrap();
        assert!(g.has_path(n1, n4));
        assert!(!g.has_path(n4, n1));
    }

    #[test]
    fn inputs_precede_computes() {
        let p = prefix();
        let g = build_cdag(&p, &[6]);
        let first_compute = g.compute_nodes().next().unwrap();
        for i in g.input_nodes() {
            assert!(i < first_compute);
        }
        for v in 0..g.len() as u32 {
            for &w in g.succs(NodeId(v)) {
                assert!(w > v, "forward edge {v}->{w}");
            }
        }
    }

    #[test]
    fn reduction_fan_in() {
        // acc = 0; for i in 0..N { acc += x[i] }: node S[i] depends on
        // S[i-1] (acc) and input x[i].
        let mut b = ProgramBuilder::new("red_cdag", &["N"]);
        let x = b.array("x", &[b.p("N")]);
        let acc = b.scalar("acc");
        let wa = Access::new(acc, vec![]);
        b.stmt("Z", vec![], vec![wa.clone()]);
        let i = b.open("i", b.c(0), b.p("N"));
        let xi = Access::new(x, vec![b.d(i)]);
        b.stmt("S", vec![xi, wa.clone()], vec![wa]);
        b.close();
        let p = b.finish();
        let g = build_cdag(&p, &[4]);
        let s = p.stmt_id("S").unwrap();
        let z = p.stmt_id("Z").unwrap();
        let n0 = g.node_of(s, &[0]).unwrap();
        let n3 = g.node_of(s, &[3]).unwrap();
        let nz = g.node_of(z, &[]).unwrap();
        assert!(g.has_path(nz, n3));
        assert!(g.has_path(n0, n3));
        assert_eq!(g.preds(n3).len(), 2); // x[3] input + S[2]
    }

    #[test]
    fn repeated_reads_dedup_edges() {
        // S reads x[0] twice: one edge only.
        let mut b = ProgramBuilder::new("dup_cdag", &["N"]);
        let x = b.array("x", &[b.p("N")]);
        let y = b.scalar("y");
        let rx = Access::new(x, vec![b.c(0)]);
        let wy = Access::new(y, vec![]);
        b.stmt("S", vec![rx.clone(), rx], vec![wy]);
        let p = b.finish();
        let g = build_cdag(&p, &[3]);
        assert_eq!(g.num_edges(), 1);
    }
}
