//! The Constant-Delay Yannakakis (CDY) algorithm [11, 20].
//!
//! Given an `S`-connex acyclic CQ, [`CdyEngine::build_in`] runs the linear
//! preprocessing phase: it constructs an ext-S-connex tree, loads the atom
//! relations through the shared context view (interned, normalized and
//! cached per `(relation, atom shape)`), projects the extension nodes,
//! takes each atom node's separator index from the context's index cache
//! (hashed once per `(relation, atom shape, separator)` — shared by the
//! members of a union, by later sessions and, merged over deltas, by later
//! epochs), and runs the liveness reducer ([`crate::reducer::live_rows`])
//! over them. The engine then keeps, per node, the shared relation and a
//! view of its index filtered to live rows ([`HashIndex::retain_rows`]: a
//! scan, same key map), so enumeration never meets a dead row. Afterwards:
//!
//! * a [`CdyCursor`] ([`CdyEngine::iter`], or [`OwnedCdyIter::new`] over a
//!   shared engine) enumerates the projection of the query onto `S` with
//!   constant delay and no duplicates (the paper's Theorem 3(1) upper
//!   bound; with `S = free(Q)` this enumerates `Q(I)`), as value tuples,
//!   as id rows ([`CdyCursor::next_row`], [`ucq_enumerate::IdEnumerator`])
//!   or as raw bindings ([`CdyCursor::next_binding_into`]);
//! * [`CdyEngine::contains_ids`] answers membership of a row of interned
//!   ids in constant time, with no dictionary involved (Algorithm 1's
//!   probe); an engine whose output leaves some of `S` out derives those
//!   positions first, through its [`LiftStep`]s;
//! * [`CdyEngine::extend_full_block`] extends a block of bindings to full
//!   homomorphisms — the "extend once" step in the proof of Lemma 8, a
//!   block at a time.
//!
//! The enumeration phase runs entirely on interned [`ValueId`]s: separator
//! probes project the current binding into a reused key buffer and look up
//! the per-node [`HashIndex`] with a **borrowed** `&[ValueId]` key — no
//! heap allocation per answer; values are only decoded when an answer tuple
//! crosses the API boundary.

use crate::noderel::{NodeRel, SharedShapes};
use crate::reducer::live_rows;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;
use ucq_hypergraph::{ext_s_connex_tree, ConnexTree, VSet};
use ucq_query::{Cq, VarId};
use ucq_storage::sync::{AtomicUsize, OnceLock, Ordering};
use ucq_storage::{CtxView, HashIndex, IdRel, IdSet, Instance, Tuple, ValueId};

/// Evaluation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// The query is not `S`-connex, so CDY does not apply.
    NotSConnex {
        /// Query name.
        query: String,
        /// The `S` that failed.
        s: VSet,
    },
    /// Schema problem (arity mismatch between atom and stored relation).
    Schema(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::NotSConnex { query, s } => {
                write!(f, "query {query} is not {s}-connex; CDY does not apply")
            }
            EvalError::Schema(m) => write!(f, "schema error: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A preprocessed CDY evaluation of one CQ.
#[derive(Debug)]
pub struct CdyEngine {
    ct: ConnexTree,
    /// Connex-first traversal order; the first `n_connex` entries are `T'`.
    order: Vec<usize>,
    n_connex: usize,
    /// Node relations (interned, columnar), shared and unreduced: only the
    /// rows listed by `indexes`/`root_rows` are live.
    rels: Vec<NodeRel>,
    /// Per-node lookup index keyed on the separator with the parent
    /// (`None` only for the root), holding live rows only.
    indexes: Vec<Option<HashIndex>>,
    /// Separators with the parent, as sorted variable-id lists (binding
    /// positions) — precomputed so probes and block extension gather keys
    /// without re-iterating bitsets or allocating.
    sep_vars: Vec<Vec<u32>>,
    /// Membership sets for connex nodes, built by
    /// [`CdyEngine::warm_membership`] or, failing that, by the first probe
    /// — enumeration-only engines never pay for them.
    row_sets: Vec<OnceLock<IdSet>>,
    /// Sets a probe had to build because nobody warmed them (a statistic).
    sets_built_on_demand: AtomicUsize,
    /// How a lifted output row maps onto the connex nodes.
    membership: MembershipPlan,
    /// The lookups that derive the rest of `S` from an output row, in
    /// order; empty when the output covers `S`.
    lift: Vec<Lookup>,
    /// Live row ids of the root (iterated in full).
    root_rows: Vec<u32>,
    /// Output spec: one variable per output position.
    output: Vec<VarId>,
    n_vars: u32,
    nonempty: bool,
    /// The session this engine's ids belong to (build or frozen phase).
    ctx: CtxView,
}

impl CdyEngine {
    /// Builds the engine for `Q(I)` itself with a private context:
    /// `S = free(Q)`, output = head. Fails with [`EvalError::NotSConnex`]
    /// unless `Q` is free-connex. Prefer [`CdyEngine::for_query_in`] when
    /// evaluating several queries (or repeatedly) over one instance.
    pub fn for_query(cq: &Cq, instance: &Instance) -> Result<CdyEngine, EvalError> {
        CdyEngine::for_query_in(cq, instance, &CtxView::new())
    }

    /// As [`CdyEngine::for_query`], sharing the caches of `ctx`.
    pub fn for_query_in(
        cq: &Cq,
        instance: &Instance,
        ctx: &CtxView,
    ) -> Result<CdyEngine, EvalError> {
        CdyEngine::build_in(cq, cq.free(), cq.head().to_vec(), instance, ctx)
    }

    /// Builds the engine enumerating `π_S(Q)` with output columns the sorted
    /// variables of `s`, through `ctx`. Fails unless `Q` is `S`-connex.
    pub fn for_projection_in(
        cq: &Cq,
        s: VSet,
        instance: &Instance,
        ctx: &CtxView,
    ) -> Result<CdyEngine, EvalError> {
        CdyEngine::build_in(cq, s, s.iter().collect(), instance, ctx)
    }

    /// The general constructor: enumerates bindings of the connex subtree
    /// covering `s`, outputting the variables in `output` (which must cover
    /// `s` exactly). All relation loading goes through `ctx`, so engines
    /// built over the same instance share interned data and
    /// normalizations.
    pub fn build_in(
        cq: &Cq,
        s: VSet,
        output: Vec<VarId>,
        instance: &Instance,
        ctx: &CtxView,
    ) -> Result<CdyEngine, EvalError> {
        CdyEngine::build_rooted(cq, s, output, &[], &SharedShapes::default(), instance, ctx)
    }

    /// [`CdyEngine::build_in`] for a member of a union whose atoms share
    /// the shapes in `shared`: the join tree is rooted — the root is the
    /// one node that needs no separator index — where no other atom could
    /// have reused the index, so that shared shapes are hashed once for all
    /// members. The output may leave out variables of `s` that `lift`
    /// derives from it: a member of an FD rewrite enumerates a prefix of
    /// its head while staying connex for all of it, and its membership test
    /// lifts a prefix to the whole head. The output and the lift's
    /// variables must cover `s` exactly.
    pub fn build_rooted(
        cq: &Cq,
        s: VSet,
        output: Vec<VarId>,
        lift: &[LiftStep],
        shared: &SharedShapes,
        instance: &Instance,
        ctx: &CtxView,
    ) -> Result<CdyEngine, EvalError> {
        let mut row_vars = output.clone();
        row_vars.extend(lift.iter().map(|step| step.var));
        assert_eq!(
            row_vars.iter().copied().collect::<VSet>(),
            s,
            "the output and its lift must cover S exactly"
        );
        let h = cq.hypergraph();
        let ct = ext_s_connex_tree(&h, s).ok_or_else(|| EvalError::NotSConnex {
            query: cq.name().to_string(),
            s,
        })?;
        let ct = root_at_unshared(ct, cq, shared);

        // Load atom relations through the shared context.
        let n_nodes = ct.tree.len();
        let mut rels: Vec<Option<NodeRel>> = vec![None; n_nodes];
        // Nodes whose relation is the context's cached normalization, so
        // their separator index belongs in the context's cache too.
        let mut cached = vec![false; n_nodes];
        for (i, node) in ct.tree.nodes().iter().enumerate() {
            if let Some(ai) = node.atom {
                let atom = &cq.atoms()[ai];
                let nr = match instance.get_shared(&atom.rel) {
                    Some(stored) => {
                        cached[i] = true;
                        NodeRel::from_atom(atom, &stored, ctx).map_err(EvalError::Schema)?
                    }
                    // Missing relations are empty (as in the paper's
                    // reductions, which "leave relations empty").
                    None => NodeRel::empty(atom),
                };
                rels[i] = Some(nr);
            }
        }
        // Extension nodes: project any atom node that covers them.
        for i in 0..n_nodes {
            if rels[i].is_some() {
                continue;
            }
            let vars = ct.tree.nodes()[i].vars;
            let carrier = (0..n_nodes)
                .find(|&j| rels[j].is_some() && vars.is_subset(ct.tree.nodes()[j].vars))
                .expect("inclusive extension: every node is inside some atom");
            let projected = rels[carrier]
                .as_ref()
                .expect("carrier loaded")
                .project(vars);
            rels[i] = Some(projected);
        }
        let rels: Vec<NodeRel> = rels.into_iter().map(|r| r.expect("all set")).collect();

        // Linear preprocessing: one separator index per non-root node —
        // from the cache where the relation is — and the liveness reducer
        // over them.
        let sep_vars: Vec<Vec<u32>> = (0..n_nodes)
            .map(|i| ct.tree.separator(i).iter().collect())
            .collect();
        let base: Vec<Option<Arc<HashIndex>>> = (0..n_nodes)
            .map(|i| {
                ct.tree.parent(i).map(|_| {
                    let cols = rels[i].cols_of(ct.tree.separator(i));
                    if cached[i] {
                        ctx.index(&rels[i].rel, &cols)
                    } else {
                        Arc::new(HashIndex::build(&rels[i].rel, &cols))
                    }
                })
            })
            .collect();
        let live = live_rows(&ct.tree, &rels, &base);
        let n_live: Vec<usize> = live
            .iter()
            .map(|l| l.iter().filter(|&&alive| alive).count())
            .collect();
        let nonempty = n_live.iter().all(|&n| n > 0);

        // The traversal order must keep every `T'` (connex) node before the
        // rest and every parent before its children, but sibling order is
        // free. Default to the canonical traversal and pull a ready node
        // forward only when its reduced relation is decisively smaller —
        // under half the rows of the canonical next pick — so the skewed
        // cases enumerate cheap nodes at shallow depths while near-uniform
        // trees keep the canonical order exactly.
        let base_order = ct.order_connex_first();
        let n_connex = ct.connex_nodes().len();
        let mut is_connex = vec![false; n_nodes];
        for n in ct.connex_nodes() {
            is_connex[n] = true;
        }
        let mut order: Vec<usize> = Vec::with_capacity(base_order.len());
        let mut placed = vec![false; n_nodes];
        for phase in 0..2 {
            loop {
                let mut default: Option<usize> = None;
                let mut smallest: Option<usize> = None;
                for &n in &base_order {
                    if placed[n] || is_connex[n] != (phase == 0) {
                        continue;
                    }
                    if let Some(p) = ct.tree.parent(n) {
                        if !placed[p] {
                            continue;
                        }
                    }
                    if default.is_none() {
                        default = Some(n);
                    }
                    if smallest.is_none_or(|b| n_live[n] < n_live[b]) {
                        smallest = Some(n);
                    }
                }
                let Some(d) = default else { break };
                let n = match smallest {
                    Some(s) if n_live[s] * 2 < n_live[d] => s,
                    _ => d,
                };
                placed[n] = true;
                order.push(n);
            }
        }
        debug_assert_eq!(order.len(), base_order.len(), "reorder is a permutation");
        // Lookup structures over the live rows: the index views share the
        // cached key maps.
        let indexes: Vec<Option<HashIndex>> = base
            .iter()
            .zip(&live)
            .map(|(idx, live)| idx.as_ref().map(|idx| idx.retain_rows(live)))
            .collect();
        let row_sets: Vec<OnceLock<IdSet>> = vec![OnceLock::new(); n_nodes];
        let membership = MembershipPlan::new(&row_vars, &order[..n_connex], &rels);
        let known = |j: usize| &row_vars[..output.len() + j];
        let lift = lift
            .iter()
            .enumerate()
            .map(|(j, step)| Lookup::resolve(step, known(j), instance, ctx))
            .collect::<Result<_, _>>()?;
        let root_live = &live[ct.tree.root()];
        let root_rows: Vec<u32> = (0..root_live.len() as u32)
            .filter(|&r| root_live[r as usize])
            .collect();

        let engine = CdyEngine {
            ct,
            order,
            n_connex,
            rels,
            indexes,
            sep_vars,
            row_sets,
            sets_built_on_demand: AtomicUsize::new(0),
            membership,
            lift,
            root_rows,
            output,
            n_vars: cq.n_vars(),
            nonempty,
            ctx: ctx.clone(),
        };
        debug_assert!(
            engine.is_fully_reduced(),
            "a reachable group is empty or holds a dangling row"
        );
        Ok(engine)
    }

    /// The rows of `node` enumeration can reach: all of them live.
    fn live_rows_of(&self, node: usize) -> &[u32] {
        match &self.indexes[node] {
            None => &self.root_rows,
            Some(idx) => idx.rows(),
        }
    }

    /// The constant-delay precondition, checked edge by edge: every row
    /// the engine lists at a parent finds a non-empty group at each child,
    /// and every non-empty child group is found by some listed parent row.
    /// Pairwise consistency along a join tree is global consistency, so
    /// this holds iff exactly the rows of the full join are listed.
    fn is_fully_reduced(&self) -> bool {
        let mut key: Vec<ValueId> = Vec::new();
        for n in 0..self.rels.len() {
            let (Some(p), Some(idx)) = (self.ct.tree.parent(n), &self.indexes[n]) else {
                continue;
            };
            let parent = &self.rels[p];
            let cols = parent.cols_of(self.ct.tree.separator(n));
            let mut reached = vec![false; idx.n_keys()];
            for &r in self.live_rows_of(p) {
                key.clear();
                key.extend(cols.iter().map(|&c| parent.rel.at(r as usize, c)));
                match idx.gid_of(&key) {
                    Some(g) if !idx.group(g).is_empty() => reached[g as usize] = true,
                    _ => return false,
                }
            }
            if (0..idx.n_keys()).any(|g| !reached[g] && !idx.group(g as u32).is_empty()) {
                return false;
            }
        }
        true
    }

    /// Whether the query has at least one answer (`Decide⟨Q⟩`).
    pub fn decide(&self) -> bool {
        self.nonempty
    }

    /// The output arity.
    pub fn output_arity(&self) -> usize {
        self.output.len()
    }

    /// The evaluation context this engine shares.
    pub fn context(&self) -> &CtxView {
        &self.ctx
    }

    /// Retargets this engine onto another view of the *same* session —
    /// used by `EvalSession::freeze` to swap prepared engines from the
    /// build-phase context to its frozen snapshot without rebuilding. The
    /// ids baked into the node relations must be valid under `view`.
    pub fn set_view(&mut self, view: CtxView) {
        self.ctx = view;
    }

    /// Starts a constant-delay enumeration of the (deduplicated) output.
    pub fn iter(&self) -> CdyIter<'_> {
        CdyCursor::new(self)
    }

    /// Constant-time membership test for an output row of interned ids —
    /// no dictionary involved, so ids from any engine over the same
    /// dictionary lineage (the other members of a union) probe directly.
    /// The row is lifted to all of `S` first, one lookup per
    /// [`LiftStep`]; a lookup that misses proves the row absent. A value
    /// tuple is probed by looking its values up first
    /// ([`CtxView::lookup`]): a value the session never interned is in no
    /// relation.
    pub fn contains_ids(&self, row: &[ValueId], scratch: &mut ContainsScratch) -> bool {
        assert_eq!(row.len(), self.output.len(), "arity mismatch");
        if !self.nonempty {
            return false;
        }
        let ContainsScratch { lifted, buf } = scratch;
        if self.lift.is_empty() {
            return self.probe(row, buf);
        }
        lifted.clear();
        lifted.extend_from_slice(row);
        for step in &self.lift {
            buf.clear();
            buf.extend(step.key.iter().map(|&p| lifted[p]));
            let Some(&r) = step.index.get(buf).first() else {
                return false;
            };
            lifted.push(step.rel.at(r as usize, step.col));
        }
        self.probe(lifted, buf)
    }

    fn probe(&self, row: &[ValueId], buf: &mut Vec<ValueId>) -> bool {
        let plan = &self.membership;
        if plan.repeats.iter().any(|&(a, b)| row[a] != row[b]) {
            return false;
        }
        plan.node_cols.iter().all(|(n, cols)| {
            buf.clear();
            buf.extend(cols.iter().map(|&c| row[c]));
            let rows = self.row_sets[*n].get_or_init(|| {
                self.sets_built_on_demand.fetch_add(1, Ordering::Relaxed);
                self.live_row_set(*n)
            });
            rows.contains(buf)
        })
    }

    /// Builds the membership sets now, so that no later probe does: a
    /// session that will probe this engine on a reader's path (Algorithm 1
    /// probes every member but the first) calls this on the writer's.
    pub fn warm_membership(&self) {
        for &n in &self.order[..self.n_connex] {
            self.row_sets[n].get_or_init(|| self.live_row_set(n));
        }
    }

    /// Membership sets built by a probe rather than by
    /// [`CdyEngine::warm_membership`].
    pub fn membership_sets_built_on_demand(&self) -> usize {
        self.sets_built_on_demand.load(Ordering::Relaxed)
    }

    /// The set of `node`'s live rows (membership tests must not see the
    /// dangling rows the shared relation still holds).
    fn live_row_set(&self, node: usize) -> IdSet {
        let rows = self.live_rows_of(node);
        let rel = &self.rels[node].rel;
        let mut set = IdSet::with_capacity(rows.len());
        let mut buf: Vec<ValueId> = Vec::with_capacity(rel.arity());
        for &r in rows {
            rel.gather_row(r as usize, &mut buf);
            set.insert(&buf);
        }
        set
    }

    /// Number of query variables (bindings are indexed by variable id).
    pub fn n_vars(&self) -> u32 {
        self.n_vars
    }

    /// Extends a block of connex bindings — `n_vars` ids per binding,
    /// stored contiguously in `block` — to full homomorphisms in bulk: for
    /// each non-connex node (in descend order), the whole block's separator
    /// keys are gathered into one run and resolved through the node index
    /// via [`HashIndex::probe_batch`], taking the first witness row per
    /// binding. This is Lemma 8's "extend once" step, a block at a time:
    /// per node, the index and its CSR arena stay hot for the whole block,
    /// and consecutive bindings sharing a separator skip the hash entirely.
    pub fn extend_full_block(&self, block: &mut [ValueId]) {
        let w = self.n_vars as usize;
        if w == 0 || block.is_empty() {
            return;
        }
        debug_assert_eq!(block.len() % w, 0, "partial binding in block");
        let n = block.len() / w;
        let mut keys: Vec<ValueId> = Vec::new();
        let mut witnesses: Vec<u32> = Vec::new();
        for d in self.n_connex..self.order.len() {
            let node = self.order[d];
            match &self.indexes[node] {
                None => {
                    // Root without a parent separator: one arbitrary witness.
                    let row = self.root_rows[0];
                    for b in 0..n {
                        self.bind_row(node, row, &mut block[b * w..(b + 1) * w]);
                    }
                }
                Some(idx) => {
                    let sep_vars = &self.sep_vars[node];
                    if sep_vars.is_empty() {
                        // Disconnected witness node: same first row for all.
                        let row = idx.get(&[])[0];
                        for b in 0..n {
                            self.bind_row(node, row, &mut block[b * w..(b + 1) * w]);
                        }
                        continue;
                    }
                    keys.clear();
                    keys.reserve(n * sep_vars.len());
                    for b in 0..n {
                        let binding = &block[b * w..(b + 1) * w];
                        keys.extend(sep_vars.iter().map(|&v| binding[v as usize]));
                    }
                    // Witness rows per binding, resolved in bulk. Collected
                    // first: the probe borrows `keys` while `block` must be
                    // rebound afterwards.
                    witnesses.clear();
                    witnesses.extend(idx.probe_batch(&keys, sep_vars.len()).map(|(_, rows)| {
                        debug_assert!(!rows.is_empty(), "reducer guarantees witnesses");
                        rows[0]
                    }));
                    for (b, &row) in witnesses.iter().enumerate() {
                        self.bind_row(node, row, &mut block[b * w..(b + 1) * w]);
                    }
                }
            }
        }
    }

    /// Resolves the match slot (a stable cursor handle) for `node` under the
    /// current binding, projecting the separator into `key_buf` (reused —
    /// probes allocate nothing).
    fn slot(&self, node: usize, binding: &[ValueId], key_buf: &mut Vec<ValueId>) -> Option<Slot> {
        match &self.indexes[node] {
            None => Some(Slot::Root),
            Some(idx) => {
                // Project the binding onto the separator (sorted var order
                // matches the index key columns).
                key_buf.clear();
                key_buf.extend(self.sep_vars[node].iter().map(|&v| binding[v as usize]));
                idx.gid_of(key_buf).map(Slot::Group)
            }
        }
    }

    fn rows(&self, node: usize, slot: Slot) -> &[u32] {
        match slot {
            Slot::Root => &self.root_rows,
            Slot::Group(g) => self.indexes[node]
                .as_ref()
                .expect("grouped slots only exist for indexed nodes")
                .group(g),
        }
    }

    fn bind_row(&self, node: usize, row_id: u32, binding: &mut [ValueId]) {
        let nr = &self.rels[node];
        for (col, &v) in nr.vars.iter().enumerate() {
            binding[v as usize] = nr.rel.at(row_id as usize, col);
        }
    }

    fn project_output(&self, binding: &[ValueId]) -> Tuple {
        self.ctx
            .decode_tuple(self.output.iter().map(|&v| binding[v as usize]))
    }
}

/// Moves the root of `ct` off an atom whose shape the union shares. The
/// root is the one node without a separator index; if other atoms read its
/// relation in its shape, they index it anyway and this member would hash
/// its *own* neighbours instead of reusing theirs. Any node of `T'` can be
/// the root; the first one (in traversal order) that carries an unshared
/// atom takes over. No such node, or an unshared root: `ct` as it came.
fn root_at_unshared(ct: ConnexTree, cq: &Cq, shared: &SharedShapes) -> ConnexTree {
    let atom_shared = |n: usize| {
        let atom = ct.tree.nodes()[n].atom.map(|a| &cq.atoms()[a]);
        atom.map(|atom| shared.contains(atom))
    };
    if atom_shared(ct.tree.root()) != Some(true) {
        return ct;
    }
    let unshared = ct
        .order_connex_first()
        .into_iter()
        .find(|&n| ct.connex[n] && atom_shared(n) == Some(false));
    match unshared {
        Some(n) => ConnexTree {
            tree: ct.tree.rerooted(n),
            ..ct
        },
        None => ct,
    }
}

/// Where each connex node's key sits in a lifted output row, fixed at
/// build time so a probe is gathers and set lookups only.
#[derive(Debug)]
struct MembershipPlan {
    /// `(pos, first)`: row position `pos` repeats the variable first seen
    /// at `first`; a member row holds equal ids at both.
    repeats: Vec<(usize, usize)>,
    /// Per connex node, the row position of each of its columns.
    node_cols: Vec<(usize, Vec<usize>)>,
}

impl MembershipPlan {
    fn new(row_vars: &[VarId], connex: &[usize], rels: &[NodeRel]) -> MembershipPlan {
        let first_pos = |v: VarId| row_vars.iter().position(|&o| o == v);
        let repeats = row_vars
            .iter()
            .enumerate()
            .filter_map(|(pos, &v)| first_pos(v).filter(|&f| f < pos).map(|f| (pos, f)))
            .collect();
        let node_cols = connex
            .iter()
            .map(|&n| {
                let pos = |&v: &VarId| first_pos(v).expect("T' variables are all in S");
                (n, rels[n].vars.iter().map(pos).collect())
            })
            .collect();
        MembershipPlan { repeats, node_cols }
    }
}

/// Reusable buffers for [`CdyEngine::contains_ids`].
#[derive(Debug, Default)]
pub struct ContainsScratch {
    /// The row being lifted (unused by an engine without a lift).
    lifted: Vec<ValueId>,
    buf: Vec<ValueId>,
}

/// One step of a functional lift: variable `var` takes column `col` of the
/// `rel` row whose columns `cols` hold the values of `key`. It is a
/// function wherever `rel` satisfies the dependency `cols → col`, which is
/// what an FD rewrite's head saturation relies on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiftStep {
    /// The relation looked up.
    pub rel: String,
    /// Its determinant columns.
    pub cols: Vec<usize>,
    /// Its determined column.
    pub col: usize,
    /// The variables whose values make the key: output variables or ones
    /// an earlier step derived.
    pub key: Vec<VarId>,
    /// The variable derived.
    pub var: VarId,
}

/// A [`LiftStep`] resolved against an instance: the interned relation and
/// its index on the determinant columns, both from the context's caches.
#[derive(Debug)]
struct Lookup {
    rel: Arc<IdRel>,
    index: Arc<HashIndex>,
    /// Row positions of the key's variables.
    key: Vec<usize>,
    col: usize,
}

impl Lookup {
    /// Resolves `step`, whose key variables must be among `known`: the
    /// output and what earlier steps derived.
    fn resolve(
        step: &LiftStep,
        known: &[VarId],
        instance: &Instance,
        ctx: &CtxView,
    ) -> Result<Lookup, EvalError> {
        let width = 1 + step.cols.iter().fold(step.col, |w, &c| w.max(c));
        let (rel, index) = match instance.get_shared(&step.rel) {
            Some(stored) if stored.arity() >= width => {
                let rel = ctx.interned_rel(&stored);
                (Arc::clone(&rel), ctx.index(&rel, &step.cols))
            }
            Some(_) => {
                let msg = format!("lift over {} reads column {}", step.rel, width - 1);
                return Err(EvalError::Schema(msg));
            }
            // A missing relation is empty: every lookup misses.
            None => {
                let rel = Arc::new(IdRel::new(width));
                let index = Arc::new(HashIndex::build(&rel, &step.cols));
                (rel, index)
            }
        };
        let position = |v: &VarId| known.iter().position(|o| o == v).expect("key is known");
        Ok(Lookup {
            key: step.key.iter().map(position).collect(),
            col: step.col,
            rel,
            index,
        })
    }
}

/// A stable cursor handle into a node's match list: either the whole root
/// relation or one group of a separator index.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Root,
    Group(u32),
}

#[derive(Clone, Copy, Debug)]
struct Frame {
    slot: Slot,
    pos: usize,
}

#[derive(Clone, Copy)]
enum IterPhase {
    Start,
    Running,
    Done,
}

/// The backtracking state of a [`CdyCursor`], apart from its engine
/// handle. Holds every buffer the per-answer step needs; advancing
/// allocates nothing.
struct IterCore {
    frames: Vec<Frame>,
    binding: Vec<ValueId>,
    key_buf: Vec<ValueId>,
    phase: IterPhase,
}

impl IterCore {
    fn new(eng: &CdyEngine) -> IterCore {
        IterCore {
            frames: Vec::with_capacity(eng.n_connex),
            binding: vec![ValueId::BOTTOM; eng.n_vars as usize],
            key_buf: Vec::with_capacity(8),
            phase: IterPhase::Start,
        }
    }

    /// Core backtracking step: leaves `self.binding` holding the next full
    /// assignment of the connex subtree; returns `false` when exhausted.
    fn advance(&mut self, eng: &CdyEngine) -> bool {
        match self.phase {
            IterPhase::Done => return false,
            IterPhase::Start => {
                self.phase = IterPhase::Running;
                if !eng.nonempty || eng.n_connex == 0 {
                    self.phase = IterPhase::Done;
                    return false;
                }
                // Descend all the way down; every lookup is non-empty after
                // reduction.
                for d in 0..eng.n_connex {
                    let node = eng.order[d];
                    let slot = self.descend(eng, node);
                    debug_assert!(slot.is_some(), "reducer guarantees matches");
                    if slot.is_none() {
                        self.phase = IterPhase::Done;
                        return false;
                    }
                }
                return true;
            }
            IterPhase::Running => {}
        }
        // Find the deepest frame that can advance.
        let mut d = eng.n_connex;
        loop {
            if d == 0 {
                self.phase = IterPhase::Done;
                return false;
            }
            d -= 1;
            let node = eng.order[d];
            let frame = self.frames[d];
            let rows = eng.rows(node, frame.slot);
            if frame.pos + 1 < rows.len() {
                self.frames[d].pos += 1;
                let row = rows[frame.pos + 1];
                eng.bind_row(node, row, &mut self.binding);
                break;
            }
            self.frames.pop();
        }
        // Re-descend below `d`.
        for depth in d + 1..eng.n_connex {
            let node = eng.order[depth];
            let slot = self.descend(eng, node);
            debug_assert!(slot.is_some(), "reducer guarantees matches");
            if slot.is_none() {
                self.phase = IterPhase::Done;
                return false;
            }
        }
        true
    }

    /// Pushes a fresh frame for `node` positioned at its first match and
    /// applies the binding. Returns `None` if there are no matches (which
    /// the full reducer rules out on reachable paths).
    fn descend(&mut self, eng: &CdyEngine, node: usize) -> Option<()> {
        let slot = eng.slot(node, &self.binding, &mut self.key_buf)?;
        let rows = eng.rows(node, slot);
        if rows.is_empty() {
            return None;
        }
        eng.bind_row(node, rows[0], &mut self.binding);
        self.frames.push(Frame { slot, pos: 0 });
        Some(())
    }
}

/// A constant-delay cursor over a preprocessed [`CdyEngine`], generic over
/// the handle it holds the engine by: borrowed ([`CdyIter`], from
/// [`CdyEngine::iter`]) or shared ([`OwnedCdyIter`], for enumerations that
/// outlive the building scope — a session starts many off one engine).
pub struct CdyCursor<E> {
    eng: E,
    core: IterCore,
    /// The current answer's output row, for [`CdyCursor::next_row`].
    row: Vec<ValueId>,
}

/// A cursor borrowing its engine.
pub type CdyIter<'a> = CdyCursor<&'a CdyEngine>;

/// A cursor sharing its engine (`Arc`).
pub type OwnedCdyIter = CdyCursor<Arc<CdyEngine>>;

impl<E: Deref<Target = CdyEngine>> CdyCursor<E> {
    /// Starts an enumeration over `eng`.
    pub fn new(eng: E) -> CdyCursor<E> {
        let core = IterCore::new(&eng);
        let row = Vec::with_capacity(eng.output.len());
        CdyCursor { eng, core, row }
    }

    /// Access to the underlying engine (e.g. for membership tests).
    pub fn engine(&self) -> &CdyEngine {
        &self.eng
    }

    /// Advances to the next answer; `None` when exhausted.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Tuple> {
        self.core
            .advance(&self.eng)
            .then(|| self.eng.project_output(&self.core.binding))
    }

    /// Advances to the next answer and returns its output-projected id
    /// row — no decode, no allocation; valid until the next call.
    pub fn next_row(&mut self) -> Option<&[ValueId]> {
        if !self.core.advance(&self.eng) {
            return None;
        }
        self.row.clear();
        let binding = &self.core.binding;
        self.row
            .extend(self.eng.output.iter().map(|&v| binding[v as usize]));
        Some(&self.row)
    }

    /// Advances to the next answer and appends the raw *connex* binding
    /// (`n_vars` ids, indexed by variable id; non-connex variables hold
    /// stale ids) to `out`; returns `false` when exhausted. Blocks of
    /// bindings gathered this way feed [`CdyEngine::extend_full_block`].
    pub fn next_binding_into(&mut self, out: &mut Vec<ValueId>) -> bool {
        if !self.core.advance(&self.eng) {
            return false;
        }
        out.extend_from_slice(&self.core.binding);
        true
    }

    /// Drains the remaining answers into a vector.
    pub fn collect_all(mut self) -> Vec<Tuple> {
        let mut out = Vec::new();
        while let Some(t) = self.next() {
            out.push(t);
        }
        out
    }
}

impl<E: Deref<Target = CdyEngine>> ucq_enumerate::Enumerator for CdyCursor<E> {
    fn next(&mut self) -> Option<Tuple> {
        CdyCursor::next(self)
    }
}

/// The id-level spine adapter: answers are appended to the caller's block
/// as raw output-projected id rows — no decode, no per-answer allocation.
/// This is what Algorithm 1 interleaves, on both tractable strategy arms.
impl<E: Deref<Target = CdyEngine>> ucq_enumerate::IdEnumerator for CdyCursor<E> {
    fn arity(&self) -> usize {
        self.eng.output_arity()
    }

    fn next_block(&mut self, block: &mut ucq_storage::IdBlock) -> usize {
        debug_assert_eq!(block.arity(), self.eng.output_arity());
        let mut n = 0;
        while !block.is_full() && self.core.advance(&self.eng) {
            block.push_row_from(
                self.eng
                    .output
                    .iter()
                    .map(|&v| self.core.binding[v as usize]),
            );
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucq_query::parse_cq;
    use ucq_storage::{Relation, Value};

    fn inst(rels: &[(&str, Vec<(i64, i64)>)]) -> Instance {
        rels.iter()
            .map(|(n, pairs)| (n.to_string(), Relation::from_pairs(pairs.iter().copied())))
            .collect()
    }

    /// Membership of a value tuple: its values looked up in the engine's
    /// context (one the session never interned is in no relation), then
    /// [`CdyEngine::contains_ids`].
    fn member(eng: &CdyEngine, tuple: &Tuple, scratch: &mut ContainsScratch) -> bool {
        let ids: Option<Vec<ValueId>> = tuple
            .values()
            .iter()
            .map(|&v| eng.context().lookup(v))
            .collect();
        ids.is_some_and(|ids| eng.contains_ids(&ids, scratch))
    }

    fn contains(eng: &CdyEngine, tuple: &Tuple) -> bool {
        member(eng, tuple, &mut ContainsScratch::default())
    }

    #[test]
    fn full_projection_path_join() {
        let q = parse_cq("Q(x, z, y) <- R(x, z), S(z, y)").unwrap();
        let i = inst(&[("R", vec![(1, 2), (5, 6)]), ("S", vec![(2, 3), (2, 4)])]);
        let eng = CdyEngine::for_query(&q, &i).unwrap();
        assert!(eng.decide());
        let mut got = eng.iter().collect_all();
        got.sort();
        let expect: Vec<Tuple> = vec![
            Tuple::from(&[1i64, 2, 3][..]),
            Tuple::from(&[1i64, 2, 4][..]),
        ];
        assert_eq!(got, expect);
    }

    #[test]
    fn projection_mode_enumerates_s() {
        // π_{x,z} of R(x,z) ⋈ S(z,y): only z values with S-partners remain.
        let q = parse_cq("Q(x, y) <- R(x, z), S(z, y)").unwrap();
        let s: VSet = [0u32, 2].into_iter().collect(); // {x, z}
        let i = inst(&[("R", vec![(1, 2), (5, 9)]), ("S", vec![(2, 3)])]);
        let eng = CdyEngine::for_projection_in(&q, s, &i, &CtxView::new()).unwrap();
        let got = eng.iter().collect_all();
        assert_eq!(got, vec![Tuple::from(&[1i64, 2][..])]);
    }

    #[test]
    fn non_free_connex_rejected() {
        let q = parse_cq("Q(x, y) <- R(x, z), S(z, y)").unwrap();
        let err = CdyEngine::for_query(&q, &Instance::new()).unwrap_err();
        assert!(matches!(err, EvalError::NotSConnex { .. }));
    }

    #[test]
    fn boolean_query_decides() {
        let q = parse_cq("B() <- R(x, y), S(y, z)").unwrap();
        let yes = inst(&[("R", vec![(1, 2)]), ("S", vec![(2, 3)])]);
        let eng = CdyEngine::for_query(&q, &yes).unwrap();
        assert!(eng.decide());
        assert_eq!(eng.iter().collect_all(), vec![Tuple::empty()]);

        let no = inst(&[("R", vec![(1, 2)]), ("S", vec![(9, 3)])]);
        let eng = CdyEngine::for_query(&q, &no).unwrap();
        assert!(!eng.decide());
        assert!(eng.iter().collect_all().is_empty());
    }

    #[test]
    fn missing_relation_is_empty() {
        let q = parse_cq("Q(x, y) <- R(x, y), S(y, x)").unwrap();
        let i = inst(&[("R", vec![(1, 2)])]);
        let eng = CdyEngine::for_query(&q, &i).unwrap();
        assert!(!eng.decide());
    }

    #[test]
    fn membership_testing() {
        let q = parse_cq("Q(x, z, y) <- R(x, z), S(z, y)").unwrap();
        let i = inst(&[("R", vec![(1, 2)]), ("S", vec![(2, 3)])]);
        let eng = CdyEngine::for_query(&q, &i).unwrap();
        assert!(contains(&eng, &Tuple::from(&[1i64, 2, 3][..])));
        assert!(!contains(&eng, &Tuple::from(&[1i64, 2, 9][..])));
        assert!(!contains(&eng, &Tuple::from(&[9i64, 2, 3][..])));
    }

    #[test]
    fn membership_scratch_reuse() {
        let q = parse_cq("Q(x, z, y) <- R(x, z), S(z, y)").unwrap();
        let i = inst(&[("R", vec![(1, 2)]), ("S", vec![(2, 3)])]);
        let eng = CdyEngine::for_query(&q, &i).unwrap();
        let mut scratch = ContainsScratch::default();
        assert!(member(&eng, &Tuple::from(&[1i64, 2, 3][..]), &mut scratch));
        assert!(!member(&eng, &Tuple::from(&[1i64, 2, 9][..]), &mut scratch));
        assert!(member(&eng, &Tuple::from(&[1i64, 2, 3][..]), &mut scratch));
    }

    #[test]
    fn id_membership_matches_the_answers_and_drops_dead_rows() {
        let q = parse_cq("Q(x, x, z, y) <- R(x, z), S(z, y)").unwrap();
        let ctx = CtxView::new();
        let i = inst(&[
            ("R", vec![(1, 2), (5, 6), (7, 2)]),
            ("S", vec![(2, 3), (2, 4), (6, 8)]),
        ]);
        let eng = CdyEngine::for_query_in(&q, &i, &ctx).unwrap();
        let answers = eng.iter().collect_all();
        assert_eq!(answers.len(), 5);
        for t in &answers {
            assert!(contains(&eng, t));
        }
        // Near misses: a value the session never saw, a known value in the
        // wrong place, and a repeated head variable bound inconsistently.
        // The first never reaches a membership set.
        assert!(!contains(&eng, &Tuple::from(&[1i64, 1, 2, 99][..])));
        assert!(!contains(&eng, &Tuple::from(&[1i64, 1, 6, 3][..])));
        assert!(!contains(&eng, &Tuple::from(&[1i64, 5, 2, 3][..])));
        assert_eq!(eng.membership_sets_built_on_demand(), 2, "R's and S's");

        // A delete leaves S's (6, 8) dangling — still stored, no longer
        // live — and the probe must stop seeing answers through it.
        let r2 = ctx.delete_rows(&i.get_shared("R").unwrap(), &Relation::from_pairs([(5, 6)]));
        let after = CdyEngine::for_query_in(&q, &i.with_relation_shared("R", r2), &ctx).unwrap();
        after.warm_membership();
        let gone = Tuple::from(&[5i64, 5, 6, 8][..]);
        assert!(contains(&eng, &gone), "the old engine keeps its epoch");
        assert!(!contains(&after, &gone));
        for t in &answers {
            assert_eq!(contains(&after, t), *t != gone);
        }
        assert_eq!(after.membership_sets_built_on_demand(), 0, "warmed");
    }

    #[test]
    #[should_panic(expected = "cover S exactly")]
    fn membership_needs_the_output_to_cover_s() {
        // π_x with S = {x, z}: z is enumerated but neither output nor
        // lifted, so no probe could find its node.
        let q = parse_cq("Q(x, y) <- R(x, z), S(z, y)").unwrap();
        let s: VSet = [0u32, 2].into_iter().collect();
        let i = inst(&[("R", vec![(1, 2)]), ("S", vec![(2, 3)])]);
        let _ = CdyEngine::build_in(&q, s, vec![0], &i, &CtxView::new());
    }

    #[test]
    fn a_lift_derives_the_positions_the_output_leaves_out() {
        // Q(x, y, z) <- R(x, z), S(z, y) answered on (x, y): z is R's
        // determined column, so the engine outputs (x, y) and lifts z
        // through R on x.
        let q = parse_cq("Q(x, y, z) <- R(x, z), S(z, y)").unwrap();
        let var = |n| q.var_id(n).unwrap();
        let lift = [LiftStep {
            rel: "R".into(),
            cols: vec![0],
            col: 1,
            key: vec![var("x")],
            var: var("z"),
        }];
        let i = inst(&[
            ("R", vec![(1, 2), (5, 6), (7, 8)]),
            ("S", vec![(2, 3), (2, 4), (6, 9)]),
        ]);
        let ctx = CtxView::new();
        let output = vec![var("x"), var("y")];
        let shared = SharedShapes::default();
        let eng = CdyEngine::build_rooted(&q, q.free(), output, &lift, &shared, &i, &ctx).unwrap();
        let mut answers = eng.iter().collect_all();
        answers.sort();
        let pairs = |v: &[(i64, i64)]| -> Vec<Tuple> {
            v.iter().map(|&(a, b)| Tuple::from(&[a, b][..])).collect()
        };
        assert_eq!(answers, pairs(&[(1, 3), (1, 4), (5, 9)]));
        for t in &answers {
            assert!(contains(&eng, t), "{t:?}");
        }
        // A miss on R (7 has no S partner, 3 is no key) and a lift that
        // lands on the wrong z (R says 1 → 2, S has (6, 9) only).
        for t in pairs(&[(7, 8), (3, 3), (1, 9)]) {
            assert!(!contains(&eng, &t), "{t:?}");
        }
    }

    #[test]
    fn owned_iter_rows_match_its_blocks() {
        let q = parse_cq("Q(y, x, x) <- R(x, y)").unwrap();
        let i = inst(&[("R", vec![(1, 2), (3, 4)])]);
        let eng = Arc::new(CdyEngine::for_query(&q, &i).unwrap());
        let mut by_row: Vec<ValueId> = Vec::new();
        let mut it = OwnedCdyIter::new(Arc::clone(&eng));
        while let Some(row) = it.next_row() {
            by_row.extend_from_slice(row);
        }
        let (by_block, rows) =
            ucq_enumerate::IdEnumerator::collect_ids(&mut OwnedCdyIter::new(eng));
        assert_eq!(rows, 2);
        assert_eq!(by_row, by_block);
    }

    #[test]
    fn repeated_head_variable() {
        let q = parse_cq("Q(x, x, y) <- R(x, y)").unwrap();
        let i = inst(&[("R", vec![(1, 2)])]);
        let eng = CdyEngine::for_query(&q, &i).unwrap();
        let got = eng.iter().collect_all();
        assert_eq!(got, vec![Tuple::from(&[1i64, 1, 2][..])]);
        assert!(contains(&eng, &Tuple::from(&[1i64, 1, 2][..])));
        // Inconsistent repeats are rejected by membership.
        assert!(!contains(&eng, &Tuple::from(&[1i64, 7, 2][..])));
    }

    #[test]
    fn full_binding_extension() {
        // Enumerate π_{x} of R(x,z) ⋈ S(z,y) and extend each answer with a
        // witness for z and y.
        let q = parse_cq("Q(x, y) <- R(x, z), S(z, y)").unwrap();
        let s = VSet::singleton(0); // {x}
        let i = inst(&[("R", vec![(1, 2)]), ("S", vec![(2, 3), (2, 4)])]);
        let eng = CdyEngine::build_in(&q, s, vec![0], &i, &CtxView::new()).unwrap();
        let mut it = eng.iter();
        let mut block = Vec::new();
        assert!(it.next_binding_into(&mut block));
        assert!(!it.next_binding_into(&mut block));
        assert_eq!(block.len(), eng.n_vars() as usize, "one binding");
        eng.extend_full_block(&mut block);
        let binding: Vec<Value> = block.iter().map(|&id| eng.context().decode(id)).collect();
        assert_eq!(binding[0], Value::Int(1));
        // Witness: z = 2, y ∈ {3, 4}.
        assert_eq!(binding[2], Value::Int(2));
        assert!(binding[1] == Value::Int(3) || binding[1] == Value::Int(4));
    }

    #[test]
    fn no_duplicates_from_witness_branches() {
        // π_{x}: many (z,y) witnesses per x must yield one answer.
        let q = parse_cq("Q(x, y) <- R(x, z), S(z, y)").unwrap();
        let s = VSet::singleton(0);
        let i = inst(&[
            ("R", vec![(1, 2), (1, 5)]),
            ("S", vec![(2, 3), (2, 4), (5, 6)]),
        ]);
        let eng = CdyEngine::build_in(&q, s, vec![0], &i, &CtxView::new()).unwrap();
        assert_eq!(eng.iter().collect_all(), vec![Tuple::from(&[1i64][..])]);
    }

    #[test]
    fn star_join_free_connex() {
        // Q(x,y,z) <- E(x,y), F(x,z): free-connex; output is the join.
        let q = parse_cq("Q(x, y, z) <- E(x, y), F(x, z)").unwrap();
        let i = inst(&[("E", vec![(1, 10), (1, 11)]), ("F", vec![(1, 20), (2, 9)])]);
        let eng = CdyEngine::for_query(&q, &i).unwrap();
        let mut got = eng.iter().collect_all();
        got.sort();
        assert_eq!(
            got,
            vec![
                Tuple::from(&[1i64, 10, 20][..]),
                Tuple::from(&[1i64, 11, 20][..]),
            ]
        );
    }

    #[test]
    fn reachable_groups_are_nonempty_and_hold_only_live_rows() {
        // Dangling rows at every node: R's (5, 9) finds no S row and S's
        // (2, 4) no T row; S's (7, 7) and T's (8, 8) have partners on
        // neither side.
        let q = parse_cq("Q(x, a, b, y) <- R(x, a), S(a, b), T(b, y)").unwrap();
        let i = inst(&[
            ("R", vec![(1, 2), (5, 9), (6, 2)]),
            ("S", vec![(2, 3), (2, 4), (7, 7)]),
            ("T", vec![(3, 1), (3, 2), (8, 8)]),
        ]);
        let mut eng = CdyEngine::for_query(&q, &i).unwrap();
        assert!(eng.is_fully_reduced());
        // Exactly the rows of the full join are listed, node by node, while
        // the shared relations still hold every stored row.
        let listed: usize = (0..eng.rels.len()).map(|n| eng.live_rows_of(n).len()).sum();
        assert_eq!(
            listed,
            2 + 1 + 2,
            "R: (1,2),(6,2); S: (2,3); T: (3,1),(3,2)"
        );
        assert!(eng.rels.iter().all(|nr| nr.rel.len() == 3));
        for idx in eng.indexes.iter().flatten() {
            for (key, rows) in idx.iter() {
                assert_eq!(idx.contains_key(key), !rows.is_empty());
            }
        }
        assert_eq!(eng.iter().collect_all().len(), 4);
        // The check has teeth: a dangling row smuggled into the root fails it.
        let root = eng.ct.tree.root();
        let dead = (0..3u32)
            .find(|r| !eng.root_rows.contains(r))
            .expect("the root lost a row");
        eng.root_rows.push(dead);
        assert!(!eng.is_fully_reduced(), "node {root} lists a dangling row");
    }

    #[test]
    fn members_root_off_the_shape_they_share() {
        let q1 = parse_cq("Q1(x, y, z) <- A(x, y), B(y, z)").unwrap();
        let q2 = parse_cq("Q2(x, y, z) <- A(x, y), C(y, z)").unwrap();
        let i = inst(&[
            ("A", vec![(1, 2), (3, 4)]),
            ("B", vec![(2, 5)]),
            ("C", vec![(4, 6)]),
        ]);
        let shared = SharedShapes::of([&q1, &q2]);
        let ctx = CtxView::new();
        let member = |q: &Cq| {
            let head = q.head().to_vec();
            CdyEngine::build_rooted(q, q.free(), head, &[], &shared, &i, &ctx).unwrap()
        };
        let (e1, e2) = (member(&q1), member(&q2));
        for (eng, q) in [(&e1, &q1), (&e2, &q2)] {
            let root_atom = eng.ct.tree.nodes()[eng.ct.tree.root()].atom.unwrap();
            assert_ne!(q.atoms()[root_atom].rel, "A", "the shared atom is indexed");
        }
        let stats = ctx.stats();
        assert_eq!((stats.index_builds, stats.index_hits), (1, 1), "A[y], once");
        assert_eq!(
            e1.iter().collect_all(),
            vec![Tuple::from(&[1i64, 2, 5][..])]
        );
        assert_eq!(
            e2.iter().collect_all(),
            vec![Tuple::from(&[3i64, 4, 6][..])]
        );
        // Alone, a member keeps the default root.
        let solo = CdyEngine::for_query_in(&q1, &i, &CtxView::new()).unwrap();
        assert_eq!(solo.ct.tree.root(), 0);
    }

    #[test]
    fn shared_context_reuses_normalizations() {
        let ctx = CtxView::new();
        let i = inst(&[("R", vec![(1, 2), (2, 3)]), ("S", vec![(2, 4), (3, 5)])]);
        let q1 = parse_cq("Q(x, y, z) <- R(x, y), S(y, z)").unwrap();
        let q2 = parse_cq("P(a, b, c) <- R(a, b), S(b, c)").unwrap();
        let e1 = CdyEngine::for_query_in(&q1, &i, &ctx).unwrap();
        let e2 = CdyEngine::for_query_in(&q2, &i, &ctx).unwrap();
        assert!(
            ctx.stats().derived_hits >= 2,
            "q2 reused q1's normalizations"
        );
        let mut a1 = e1.iter().collect_all();
        let mut a2 = e2.iter().collect_all();
        a1.sort();
        a2.sort();
        assert_eq!(a1, a2, "same bodies, same answers");
    }
}
