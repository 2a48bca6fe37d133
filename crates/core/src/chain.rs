//! Shared machinery for executing maintenance join chains.
//!
//! All three methods move *partial join rows* between nodes step by step;
//! they differ only in how each step locates the matching tuples of the
//! next relation. This module owns the common pieces: per-node staging of
//! partials, filter evaluation for cyclic join graphs, and the final
//! ship and apply of completed join rows at the views' home nodes.
//!
//! Everything here is expressed as [`StepProgram`] stages — one closure
//! per node per stage, sends delivered at the next stage — so the same
//! driver code runs on the sequential cluster (lockstep, one barrier per
//! stage) and on the threaded runtime's watermark-pipelined scheduler
//! with identical counted costs. [`push_chain`] is the one place the
//! planner's steps become probe stages (resolved against the view's
//! [`Probes`]); [`push_ship`] appends the one ship stage, for a lone view,
//! a shared group or an upquery alike, and [`apply_shipped`] is the one
//! apply step. The driver runs the whole program with one
//! [`Backend::run_stages`] call, letting fast nodes run ahead of slow ones
//! across every hop of the chain.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Mutex;

use pvm_engine::{
    Backend, Cluster, MeterReport, NetPayload, NodeState, PartitionSpec, StepProgram, TableId,
};
use pvm_obs::{metric, MethodTag, Phase, TraceEvent, COORD};
use pvm_storage::SeededMix;
use pvm_types::{GlobalRid, NodeId, PvmError, Result, Row, Value};

use crate::aggregate::AggShape;
use crate::auxrel;
use crate::globalindex;
use crate::layout::Layout;
use crate::planner::PlanStep;
use crate::structure::{Probes, StructureKind};
use crate::view::ViewHandle;
use crate::viewdef::ViewColumn;

/// Hole sets a partial view threads into its maintenance programs.
///
/// Borrows the view's live hole sets for one batch (stages carry the
/// program's lifetime, so neither a copy nor an `Arc` is needed): the
/// sets are read-only while the batch runs, and the keys whose shipped
/// view rows were actually dropped are collected behind a mutex with
/// **set** semantics — node completion order differs across backends,
/// but the resulting set does not, keeping partial bookkeeping
/// deterministic. [`PartialGates::into_dropped`] ends the borrow.
pub(crate) struct PartialGates<'a> {
    /// View keys (partition-column values) that are currently holes:
    /// shipped view rows carrying these keys are dropped, not applied.
    pub view_holes: &'a HashSet<Value>,
    /// Per-structure (AR / GI table) join values that are currently
    /// holes: delta writes to these entries are skipped — the entry
    /// stays a hole and is rebuilt from base only on refill.
    pub struct_holes: &'a HashMap<TableId, HashSet<Value>>,
    /// View keys whose rows were dropped this batch; the coordinator
    /// bumps their `dropped_at` epoch at commit.
    dropped: Mutex<BTreeSet<Value>>,
}

impl<'a> PartialGates<'a> {
    pub fn new(
        view_holes: &'a HashSet<Value>,
        struct_holes: &'a HashMap<TableId, HashSet<Value>>,
    ) -> PartialGates<'a> {
        PartialGates {
            view_holes,
            struct_holes,
            dropped: Mutex::new(BTreeSet::new()),
        }
    }

    /// The hole set of one auxiliary structure, if it has any holes.
    pub fn structure_holes(&self, table: TableId) -> Option<&'a HashSet<Value>> {
        self.struct_holes.get(&table).filter(|h| !h.is_empty())
    }

    fn note_dropped(&self, key: &Value) {
        self.dropped
            .lock()
            .expect("partial dropped lock")
            .insert(key.clone());
    }

    /// The keys dropped during the batch (coordinator side); consumes the
    /// gates, so the hole sets are free to change again.
    pub fn into_dropped(self) -> BTreeSet<Value> {
        self.dropped.into_inner().expect("partial dropped lock")
    }
}

/// Ensure `table` has some index usable for probes on `col` (a clustered
/// index on exactly `[col]` counts); otherwise create a non-clustered
/// secondary with a deterministic name, tolerating concurrent creation by
/// another view over the same base table.
pub(crate) fn ensure_join_index(cluster: &mut Cluster, table: TableId, col: usize) -> Result<()> {
    let exists = cluster
        .nodes()
        .first()
        .map(|n| n.storage(table).map(|s| s.has_index_on(&[col])))
        .transpose()?
        .unwrap_or(false);
    if !exists {
        let name = cluster.def(table)?.name.clone();
        cluster.create_secondary_index(table, format!("{name}_jattr{col}"), vec![col])?;
    }
    Ok(())
}

/// Run one driver phase under a meter and return `f`'s result with the
/// phase's cost report. When tracing, a coordinator-scope span brackets
/// the phase on the trace timeline: steps executed inside carry logical
/// clock values `t0+1 ..= now`, so the span covers `[t0 + 1, now + 1)`.
/// A phase that ran no steps emits nothing.
pub(crate) fn metered<B: Backend, T>(
    backend: &mut B,
    phase: Phase,
    method: MethodTag,
    f: impl FnOnce(&mut B) -> Result<T>,
) -> Result<(T, MeterReport)> {
    let guard = backend.start_meter();
    let obs = backend.engine().obs_handle();
    let t0 = obs.now();
    let out = f(backend)?;
    let t1 = obs.now();
    if obs.enabled() && t1 > t0 {
        obs.emit(TraceEvent::span(phase, COORD, t0 + 1, t1 + 1).with_method(method));
    }
    Ok((out, backend.finish_meter(&guard)))
}

/// Partial join rows staged at each node.
pub(crate) type Staged = Vec<Vec<Row>>;

pub(crate) fn empty_staged(l: usize) -> Staged {
    vec![Vec::new(); l]
}

/// Place the delta rows at the base-relation nodes where the base update
/// put (or found) them. No SENDs: the rows are already there.
pub(crate) fn stage_delta(l: usize, placed: &[(Row, GlobalRid)]) -> Result<Staged> {
    let mut staged = empty_staged(l);
    for (row, grid) in placed {
        staged[grid.node.index()].push(row.clone());
    }
    Ok(staged)
}

/// Check a step's extra filter edges against a candidate match.
///
/// `carried` lists the base columns present in `probe_row` (in stored
/// order), as the probed table may be a σπ-reduced auxiliary relation.
pub(crate) fn filters_ok(
    partial: &Row,
    layout: &Layout,
    step: &PlanStep,
    probe_row: &Row,
    carried: &[usize],
) -> Result<bool> {
    for (prefix_col, rel_col) in &step.filters {
        let left = partial.try_get(layout.position(*prefix_col)?)?;
        let pos = carried.iter().position(|c| c == rel_col).ok_or_else(|| {
            pvm_types::PvmError::InvalidReference(format!(
                "filter column {rel_col} not carried by probe rows"
            ))
        })?;
        let right = probe_row.try_get(pos)?;
        if left.is_null() || left != right {
            return Ok(false);
        }
    }
    Ok(true)
}

/// How one chain step locates matching tuples: which table is probed,
/// which base columns its stored rows carry, and how partials reach the
/// nodes holding matches — *routed* through the probed table's
/// partitioning spec (one node for hash/light values, the spread set for
/// heavy values of a skew-aware spec) or *broadcast* to all nodes (the
/// naive method's case 2).
#[derive(Debug, Clone)]
pub(crate) struct ProbeTarget {
    pub table: TableId,
    /// Base columns a stored row of `table` carries, in stored order
    /// (identity for base tables, σπ columns for auxiliary relations).
    pub carried: Vec<usize>,
    /// Index key, in stored-schema positions.
    pub key: Vec<usize>,
    /// `Some(spec)`: route each partial via the spec's
    /// [`probe_nodes`](pvm_engine::PartitionSpec::probe_nodes); `None`:
    /// broadcast.
    pub routing: Option<pvm_engine::PartitionSpec>,
}

impl ProbeTarget {
    /// Probe base relation `table` itself on `col`: routed when the
    /// relation is partitioned on the attribute, broadcast otherwise.
    pub fn base(cluster: &Cluster, table: TableId, col: usize) -> Result<ProbeTarget> {
        let def = cluster.def(table)?;
        Ok(ProbeTarget {
            table,
            carried: (0..def.schema.arity()).collect(),
            key: vec![col],
            routing: def
                .partitioning
                .is_on(col)
                .then(|| def.partitioning.clone()),
        })
    }
}

/// Append the join chain for a delta on relation `rel` to `program`: the
/// planner's steps, each resolved to a probe step against the view's
/// `probes`. `program`'s carry on entry must be `rel`'s full rows; on
/// return it is the completed join partials, laid out as the returned
/// [`Layout`] describes — ready for a ship stage.
#[allow(clippy::too_many_arguments)]
pub(crate) fn push_chain<'p, B: Backend>(
    backend: &B,
    mut program: StepProgram<'p>,
    handle: &ViewHandle,
    probes: &Probes,
    rel: usize,
    policy: JoinPolicy,
    batch: BatchPolicy,
    method: MethodTag,
) -> Result<(StepProgram<'p>, Layout)> {
    let l = backend.node_count();
    let cluster = backend.engine();
    let arity = cluster.def(handle.base[rel])?.schema.arity();
    let mut layout = Layout::single(rel, (0..arity).collect());
    for step in &crate::plan_with_stats(cluster, handle, rel)? {
        let target = match probes.0.get(&(step.rel, step.probe_col)) {
            None => ProbeTarget::base(cluster, handle.base[step.rel], step.probe_col)?,
            Some(s) => match &s.kind {
                StructureKind::Ar { keep_cols, key_pos } => {
                    auxrel::probe_target(cluster, s.table, keep_cols, *key_pos)?
                }
                StructureKind::Gi => {
                    let base_table = handle.base[step.rel];
                    program = globalindex::push_gi_probe_step(
                        backend, program, &layout, step, s.table, base_table, batch,
                    )?;
                    let base_arity = cluster.def(base_table)?.schema.arity();
                    layout.push(step.rel, (0..base_arity).collect());
                    continue;
                }
            },
        };
        let carried = target.carried.clone();
        program = push_probe_step(program, &layout, step, target, policy, batch, method, l)?;
        layout.push(step.rel, carried);
    }
    Ok((program, layout))
}

/// How a node joins its received delta share with the local fragment of
/// the probed relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JoinPolicy {
    /// Always probe the index once per delta tuple — the access path the
    /// paper's figures stipulate, and the right choice for the small
    /// update transactions the methods are designed for. The default, for
    /// figure reproducibility.
    #[default]
    IndexOnly,
    /// Per node, compare the index-nested-loops cost (`P` searches plus
    /// estimated fetches) against scanning the local fragment once
    /// (`|B_i|` page reads) and take the cheaper — the §3.1.2
    /// index-vs-sort-merge choice, executed. Large deltas switch to the
    /// scan exactly where the model predicts.
    CostBased,
}

/// How a maintenance phase moves and probes a delta batch.
///
/// The two policies produce bit-identical view/AR/GI contents — per-row
/// order within every (src, dst) pair is preserved by coalescing, and
/// backends deliver inboxes in (src, send-order) — so [`BatchPolicy::PerRow`]
/// serves as the parity oracle (`tests/batch_equivalence.rs`) while
/// [`BatchPolicy::Coalesced`] is what runs by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BatchPolicy {
    /// Group delta rows by destination before shipping (one multi-row
    /// message per (src, dst, phase) instead of one per row) and probe
    /// receiving indexes once per *distinct* join value (merge-cursor
    /// group probes). Counted bytes are unchanged up to shared frame
    /// headers; SENDs and SEARCHes amortize across the batch.
    #[default]
    Coalesced,
    /// One message per routed row and one index descent per probe — the
    /// paper's literal per-tuple pipeline.
    PerRow,
}

/// Append one probe step (shared by the naive and auxiliary-relation
/// methods) to a phase program: a **route stage** distributing the
/// carried partials (routed or broadcast — per-row, or
/// destination-coalesced under [`BatchPolicy::Coalesced`]), then a
/// send-free **probe stage** joining at the receiving node(s) — by index
/// probes (grouped per distinct value when coalesced), or by one local
/// scan when [`JoinPolicy::CostBased`] finds it cheaper. Filter and
/// concatenate matches either way; the joined partials become the carry
/// for the next step's route stage.
///
/// `layout` and `step` are captured by value: the program snapshots each
/// hop's prefix layout at build time, while the driver's live layout
/// advances past it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn push_probe_step<'p>(
    program: StepProgram<'p>,
    layout: &Layout,
    step: &crate::planner::PlanStep,
    target: ProbeTarget,
    policy: JoinPolicy,
    batch: BatchPolicy,
    method: MethodTag,
    l: usize,
) -> Result<StepProgram<'p>> {
    let anchor_pos = layout.position(step.anchor)?;
    let route_target = target.clone();
    let program = program.stage(move |ctx, partials| {
        let target = &route_target;
        if batch == BatchPolicy::Coalesced && target.routing.is_none() {
            // Broadcast-coalesced: every destination receives the
            // identical full partial list, so encode it once and
            // multicast — byte and SEND charges are exactly the
            // per-destination clones' (self copy stays a local
            // delivery), but the payload is allocated once.
            if partials.is_empty() {
                return Ok(Vec::new());
            }
            if ctx.tracing() {
                for partial in &partials {
                    trace_route(ctx, method, partial.try_get(anchor_pos)?, l as u64);
                }
                let h = ctx.obs().metrics().histogram(metric::BATCH_ROWS_PER_MSG);
                for _ in 0..l {
                    h.observe(partials.len() as u64);
                }
            }
            ctx.broadcast(&NetPayload::DeltaRows {
                table: target.table,
                rows: partials,
            })?;
            return Ok(Vec::new());
        }
        // Destination coalescing: per-row order within each (src, dst)
        // pair follows carry order, so receivers drain the exact row
        // sequence the per-row path would deliver.
        let mut by_dst: Vec<Vec<Row>> = vec![Vec::new(); l];
        for partial in partials {
            let v = partial.try_get(anchor_pos)?;
            let dsts: Vec<NodeId> = match &target.routing {
                // Fan-out K of this partial: one routed destination for
                // hash/light values, the spread set for heavy values of a
                // skew-aware spec.
                Some(spec) => spec.probe_nodes(v, l, pvm_engine::hash_row(&partial))?,
                // Broadcast reaches every node, own included (the self
                // copy is an uncharged local delivery).
                None => (0..l).map(NodeId::from).collect(),
            };
            if ctx.tracing() {
                let k = dsts.len() as u64;
                trace_route(ctx, method, v, k);
                if let Some(spec) = &target.routing {
                    note_heavy_light(ctx, spec, v, k);
                }
            }
            // The stage owns its carry: the row moves into its last
            // destination and is cloned only for the others of a spread
            // or a broadcast.
            let Some((&last, rest)) = dsts.split_last() else {
                continue;
            };
            match batch {
                BatchPolicy::Coalesced => {
                    for dst in rest {
                        by_dst[dst.index()].push(partial.clone());
                    }
                    by_dst[last.index()].push(partial);
                }
                BatchPolicy::PerRow => {
                    let payload = NetPayload::DeltaRows {
                        table: target.table,
                        rows: vec![partial],
                    };
                    for &dst in rest {
                        ctx.send(dst, payload.clone())?;
                    }
                    ctx.send(last, payload)?;
                }
            }
        }
        let messages = by_dst.into_iter().map(|rows| NetPayload::DeltaRows {
            table: target.table,
            rows,
        });
        send_per_destination(ctx, messages.collect())?;
        Ok(Vec::new())
    });
    let layout = layout.clone();
    let step = step.clone();
    Ok(program.local_stage(move |ctx, _| {
        let layout = &layout;
        let step = &step;
        let target = &target;
        let mut partials = Vec::new();
        for env in ctx.drain() {
            let NetPayload::DeltaRows { rows, .. } = env.payload else {
                return Err(PvmError::InvalidOperation(
                    "unexpected payload during probe step".into(),
                ));
            };
            partials.extend(rows);
        }
        if partials.is_empty() {
            return Ok(Vec::new());
        }
        ctx.count_work(partials.len() as u64);
        let use_scan = policy == JoinPolicy::CostBased && {
            // The §3.1.2 comparison prices what the probe path would
            // really pay: one SEARCH per partial per-row, one per
            // *distinct* join value when the batch group-probes.
            let probes = match batch {
                BatchPolicy::PerRow => partials.len(),
                BatchPolicy::Coalesced => {
                    let mut seen = HashSet::new();
                    for p in &partials {
                        seen.insert(p.try_get(anchor_pos)?);
                    }
                    seen.len()
                }
            };
            scan_beats_probes(ctx.node, target, probes)?
        };
        if ctx.tracing() {
            ctx.trace_span(Phase::Probe, method)
                .count(partials.len() as u64)
                .emit();
        }
        let out = if use_scan {
            scan_join_at_node(ctx.node, target, &partials, layout, step, anchor_pos)?
        } else {
            match batch {
                BatchPolicy::Coalesced => {
                    let values: Vec<pvm_types::Value> = partials
                        .iter()
                        .map(|p| Ok(p.try_get(anchor_pos)?.clone()))
                        .collect::<Result<_>>()?;
                    if ctx.tracing() {
                        note_group_probe_fanin(ctx, &values);
                    }
                    let match_lists = pvm_engine::exec::group_probe(
                        ctx.node,
                        target.table,
                        &target.key,
                        &values,
                    )?;
                    let mut out = Vec::new();
                    for (partial, matches) in partials.iter().zip(&match_lists) {
                        for m in matches {
                            if filters_ok(partial, layout, step, m, &target.carried)? {
                                out.push(partial.concat(m));
                            }
                        }
                    }
                    out
                }
                BatchPolicy::PerRow => {
                    let mut out = Vec::new();
                    for partial in &partials {
                        let v = partial.try_get(anchor_pos)?.clone();
                        let matches =
                            ctx.node
                                .index_search(target.table, &target.key, &Row::new(vec![v]))?;
                        for m in matches {
                            if filters_ok(partial, layout, step, &m, &target.carried)? {
                                out.push(partial.concat(&m));
                            }
                        }
                    }
                    out
                }
            }
        };
        if ctx.tracing() && !out.is_empty() {
            ctx.trace_span(Phase::Join, method)
                .count(out.len() as u64)
                .emit();
        }
        Ok(out)
    }))
}

/// Send each destination's coalesced message — `by_dst[i]` is node
/// `i`'s — skipping empty ones, and observe its size when tracing.
pub(crate) fn send_per_destination(
    ctx: &mut pvm_engine::StepCtx<'_>,
    by_dst: Vec<NetPayload>,
) -> Result<()> {
    for (dst, payload) in by_dst.into_iter().enumerate() {
        let rows = payload.row_count();
        if rows == 0 {
            continue;
        }
        if ctx.tracing() {
            ctx.obs()
                .metrics()
                .histogram(metric::BATCH_ROWS_PER_MSG)
                .observe(rows as u64);
        }
        ctx.send(NodeId::from(dst), payload)?;
    }
    Ok(())
}

/// Trace one partial's routing decision: its join value and the number
/// of nodes it goes to. Only called when tracing is enabled.
pub(crate) fn trace_route(
    ctx: &pvm_engine::StepCtx<'_>,
    method: MethodTag,
    v: &Value,
    fanout: u64,
) {
    ctx.trace(Phase::Route, method)
        .key(v.to_string())
        .count(fanout)
        .emit();
    ctx.obs()
        .metrics()
        .histogram(metric::fanout(method))
        .observe(fanout);
}

/// Record how many probes share each group-probe descent (duplicates per
/// distinct join value). Only called when tracing is enabled.
pub(crate) fn note_group_probe_fanin(ctx: &pvm_engine::StepCtx<'_>, values: &[pvm_types::Value]) {
    let mut counts: std::collections::HashMap<&pvm_types::Value, u64> =
        std::collections::HashMap::new();
    for v in values {
        *counts.entry(v).or_insert(0) += 1;
    }
    let hist = ctx.obs().metrics().histogram(metric::GROUP_PROBE_FANIN);
    for (_, c) in counts {
        hist.observe(c);
    }
}

/// Record the sketch hit/miss and spread fan-out metrics for one routed
/// probe value against a (possibly heavy-light) partitioning spec. Only
/// called when tracing is enabled; plain hash specs record nothing.
pub(crate) fn note_heavy_light(
    ctx: &pvm_engine::StepCtx<'_>,
    spec: &pvm_engine::PartitionSpec,
    v: &pvm_types::Value,
    fanout: u64,
) {
    if !matches!(spec, pvm_engine::PartitionSpec::HeavyLight { .. }) {
        return;
    }
    let metrics = ctx.obs().metrics();
    if spec.is_heavy(v) {
        metrics.counter(metric::SKEW_HEAVY_HITS).inc();
        metrics.histogram(metric::SPREAD_FANOUT).observe(fanout);
    } else {
        metrics.counter(metric::SKEW_LIGHT_MISSES).inc();
    }
}

/// §3.1.2 plan choice at one node: index nested loops costs one SEARCH per
/// probe (`probes` = received partials per-row, distinct join values when
/// group-probing) plus (for non-clustered access) the expected fetches; a
/// scan join costs the local fragment's pages, read once.
fn scan_beats_probes(node: &NodeState, target: &ProbeTarget, probes: usize) -> Result<bool> {
    let storage = node.storage(target.table)?;
    let scan_cost = storage.heap_pages().max(1) as f64;
    let fetch_per_probe = if node.is_clustered_on(target.table, &target.key) {
        0.0
    } else {
        storage
            .column_stats(target.key[0])?
            .matches_per_value(target.key[0])
    };
    let inl_cost = probes as f64 * (1.0 + fetch_per_probe);
    Ok(scan_cost < inl_cost)
}

/// Scan the local fragment once (charged as `pages` FETCH I/Os, the
/// model's sort-merge accounting) and hash-join it with the received
/// partials in memory.
fn scan_join_at_node(
    node: &mut NodeState,
    target: &ProbeTarget,
    partials: &[Row],
    layout: &Layout,
    step: &crate::planner::PlanStep,
    anchor_pos: usize,
) -> Result<Vec<Row>> {
    let pages = node.storage(target.table)?.heap_pages().max(1) as u64;
    node.ledger_mut().record(pvm_types::CostKind::Fetch, pages);
    let fragment = node.storage(target.table)?.scan_encoded();
    hash_join_encoded(
        fragment.map(|(_, tuple)| tuple),
        target,
        partials,
        layout,
        step,
        anchor_pos,
    )
}

/// Hash join of `partials` with a fragment streamed as encoded tuples,
/// built on the partials — the small side. Their anchor values are hashed
/// in encoded form (two values are equal exactly when their encodings
/// are), each tuple is matched on the raw bytes of its key column, and
/// only a tuple that hits is decoded. Output is partial-major, the
/// matches of one partial in fragment order.
fn hash_join_encoded<'a>(
    fragment: impl Iterator<Item = &'a [u8]>,
    target: &ProbeTarget,
    partials: &[Row],
    layout: &Layout,
    step: &crate::planner::PlanStep,
    anchor_pos: usize,
) -> Result<Vec<Row>> {
    // Encoded anchor value → its slot in `matches`; NULL joins nothing.
    let mut slot_of: HashMap<Vec<u8>, usize, SeededMix> =
        HashMap::with_capacity_and_hasher(partials.len(), SeededMix);
    let mut slots = Vec::with_capacity(partials.len());
    for partial in partials {
        let v = partial.try_get(anchor_pos)?;
        slots.push(if v.is_null() {
            None
        } else {
            let next = slot_of.len();
            Some(*slot_of.entry(v.encode_key()).or_insert(next))
        });
    }
    let mut matches: Vec<Vec<Row>> = vec![Vec::new(); slot_of.len()];
    let key_pos = target.key[0];
    for tuple in fragment {
        if let Some(&slot) = slot_of.get(Row::column_bytes(tuple, key_pos)?) {
            matches[slot].push(Row::decode(tuple)?);
        }
    }
    let mut out = Vec::new();
    for (partial, slot) in partials.iter().zip(slots) {
        for m in slot.map_or(&[][..], |s| &matches[s]) {
            if filters_ok(partial, layout, step, m, &target.carried)? {
                out.push(partial.concat(m));
            }
        }
    }
    Ok(out)
}

/// One member view of a ship-and-apply: where its rows go and how they
/// land. A lone view ships to one sink, a shared group
/// ([`crate::share`]) to one per member. View tables are hash-partitioned
/// on their partition column ([`crate::MaintainedView::create`]), so a
/// row's home is the hash of the column it is routed by.
pub(crate) struct Sink<'g> {
    handle: &'g ViewHandle,
    /// Position, in the shipped row, of the column the member is routed
    /// by: its partition attribute, or an aggregate's first group column.
    route_pos: usize,
    /// The member's view row, as positions of the shipped row.
    cols: Vec<usize>,
    capture: bool,
    gates: Option<&'g PartialGates<'g>>,
}

/// What an apply step did for one sink: the view rows affected, and the
/// physical view-row changes it captured (`true` = insert).
pub(crate) type Applied = (u64, Vec<(Row, bool)>);

/// The sinks of `members` — each a view handle, its capture flag and its
/// partial gates — and the columns every joined partial ships: the first
/// member's projection unchanged, then each column a later member reads
/// that is not shipped yet. For one member the shipped row is the view
/// row.
pub(crate) fn sinks<'g>(
    members: impl IntoIterator<Item = (&'g ViewHandle, bool, Option<&'g PartialGates<'g>>)>,
) -> (Vec<ViewColumn>, Vec<Sink<'g>>) {
    let mut shipped: Vec<ViewColumn> = Vec::new();
    let mut sinks = Vec::new();
    for (handle, capture, gates) in members {
        if sinks.is_empty() {
            shipped = handle.def.projection.clone();
        }
        let cols: Vec<usize> = handle
            .def
            .projection
            .iter()
            .map(|vc| match shipped.iter().position(|c| c == vc) {
                Some(pos) => pos,
                None => {
                    shipped.push(*vc);
                    shipped.len() - 1
                }
            })
            .collect();
        let route_col = handle
            .agg
            .as_ref()
            .map_or(handle.view_pcol, |a| a.group_by[0]);
        sinks.push(Sink {
            handle,
            route_pos: cols[route_col],
            cols,
            capture,
            gates,
        });
    }
    (shipped, sinks)
}

/// Append the final compute stage: project each completed partial once,
/// at the sender, to the `shipped` columns and send it to the home node
/// of every sink (the model's `K·SEND` toward node k). Rows are batched
/// per destination set in first-appearance order — a lone view's sets
/// are single nodes, sent in node order. A set of one is a plain send; a
/// larger set is a multicast, charged per destination, that the
/// pipelined runtime encodes once. The shipped rows are delivered at the
/// next backend step, where [`apply_shipped`] drains them.
pub(crate) fn push_ship<'p>(
    program: StepProgram<'p>,
    layout: &Layout,
    shipped: &[ViewColumn],
    sinks: &[Sink<'_>],
    l: usize,
    method: MethodTag,
) -> Result<StepProgram<'p>> {
    let positions: Vec<usize> = shipped
        .iter()
        .map(|&vc| layout.position(vc))
        .collect::<Result<_>>()?;
    let routes: Vec<usize> = sinks.iter().map(|s| s.route_pos).collect();
    let table = sinks[0].handle.view_table;
    Ok(program.stage(move |ctx, partials| {
        if partials.is_empty() {
            return Ok(Vec::new());
        }
        if ctx.tracing() {
            ctx.trace_span(Phase::Ship, method)
                .count(partials.len() as u64)
                .emit();
        }
        let mut batches: Vec<(Vec<NodeId>, Vec<Row>)> = Vec::new();
        let mut dsts: Vec<NodeId> = Vec::with_capacity(routes.len());
        for partial in &partials {
            let row = partial.project(&positions)?;
            dsts.clear();
            for &pos in &routes {
                let dst = PartitionSpec::route_value(row.try_get(pos)?, l)?;
                if !dsts.contains(&dst) {
                    dsts.push(dst);
                }
            }
            dsts.sort_unstable();
            match batches.iter_mut().find(|(set, _)| *set == dsts) {
                Some((_, rows)) => rows.push(row),
                None => batches.push((dsts.clone(), vec![row])),
            }
        }
        if routes.len() == 1 {
            // Node order, as every per-destination send of a chain goes.
            batches.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
        for (dsts, rows) in batches {
            if ctx.tracing() {
                let h = ctx.obs().metrics().histogram(metric::BATCH_ROWS_PER_MSG);
                for _ in 0..dsts.len() {
                    h.observe(rows.len() as u64);
                }
            }
            let payload = NetPayload::ResultRows { table, rows };
            match dsts.as_slice() {
                [dst] => ctx.send(*dst, payload)?,
                _ => ctx.multicast(&dsts, &payload)?,
            }
        }
        Ok(Vec::new())
    }))
}

/// Drain the shipped rows at every node and apply each to every sink
/// homed there (the *view* phase). With one sink the sender already
/// routed and projected the row, so it is applied as shipped; with more,
/// each sink re-hashes its route column and projects its own view row.
/// Returns one [`Applied`] per sink, its captures concatenated in node
/// order — deterministic on both backends, as a sink's view row lands on
/// one node and a node applies in drained payload order.
pub(crate) fn apply_shipped<B: Backend>(
    backend: &mut B,
    sinks: &[Sink<'_>],
    insert: bool,
    method: MethodTag,
) -> Result<Vec<Applied>> {
    let l = backend.node_count();
    let per_node = backend.step(|ctx| {
        let mut out: Vec<Applied> = vec![(0, Vec::new()); sinks.len()];
        let mut pending = PendingInserts::default();
        for env in ctx.drain() {
            let NetPayload::ResultRows { rows, .. } = env.payload else {
                return Err(PvmError::InvalidOperation(
                    "unexpected payload at view-apply".into(),
                ));
            };
            for row in rows {
                if let [sink] = sinks {
                    sink.apply(ctx.node, row, insert, &mut out[0], &mut pending)?;
                    continue;
                }
                for (sink, out) in sinks.iter().zip(&mut out) {
                    if PartitionSpec::route_value(row.try_get(sink.route_pos)?, l)? == ctx.id() {
                        let row = row.project(&sink.cols)?;
                        sink.apply(ctx.node, row, insert, out, &mut pending)?;
                    }
                }
            }
        }
        pending.flush(ctx.node)?;
        let affected: u64 = out.iter().map(|(a, _)| a).sum();
        if affected > 0 {
            ctx.count_work(affected);
            if ctx.tracing() {
                ctx.trace_span(Phase::ViewApply, method)
                    .count(affected)
                    .emit();
            }
        }
        Ok(out)
    })?;
    let mut totals: Vec<Applied> = vec![(0, Vec::new()); sinks.len()];
    for node_out in per_node {
        for (total, (affected, mut captured)) in totals.iter_mut().zip(node_out) {
            total.0 += affected;
            total.1.append(&mut captured);
        }
    }
    Ok(totals)
}

/// View or structure rows on their way into one table at one node, so a
/// run of them goes in as one [`NodeState::insert_batch`]. Whatever else
/// touches the node's storage flushes the run first, so pages are touched
/// in the order inserting row by row touches them.
#[derive(Default)]
pub(crate) struct PendingInserts {
    table: Option<TableId>,
    rows: Vec<Row>,
}

impl PendingInserts {
    /// Queue `row` for `table`, flushing a run into another table first.
    pub(crate) fn push(&mut self, node: &mut NodeState, table: TableId, row: Row) -> Result<()> {
        if self.table != Some(table) {
            self.flush(node)?;
            self.table = Some(table);
        }
        self.rows.push(row);
        Ok(())
    }

    /// Insert the queued run.
    pub(crate) fn flush(&mut self, node: &mut NodeState) -> Result<()> {
        if let Some(table) = self.table.take() {
            node.insert_batch(table, std::mem::take(&mut self.rows))?;
        }
        Ok(())
    }
}

impl Sink<'_> {
    /// Apply one view row at `node`: drop it at a partial hole (noting the
    /// key for its `dropped_at` epoch), fold it into its aggregate group,
    /// or insert (through `pending`) / delete it — recording the change
    /// when capturing.
    fn apply(
        &self,
        node: &mut NodeState,
        row: Row,
        insert: bool,
        (affected, captured): &mut Applied,
        pending: &mut PendingInserts,
    ) -> Result<()> {
        let (table, pcol) = (self.handle.view_table, self.handle.view_pcol);
        if let Some(g) = self.gates {
            let key = row.try_get(pcol)?;
            if g.view_holes.contains(key) {
                g.note_dropped(key);
                return Ok(());
            }
        }
        let captured = self.capture.then_some(captured);
        match &self.handle.agg {
            Some(shape) => {
                pending.flush(node)?;
                let sign = if insert { 1 } else { -1 };
                fold_into_group(node, table, shape, &row, sign, captured)?;
            }
            None if insert => {
                if let Some(c) = captured {
                    c.push((row.clone(), true));
                }
                pending.push(node, table, row)?;
            }
            None => {
                pending.flush(node)?;
                if !node.delete_row(table, &row, &[pcol])? {
                    return Ok(());
                }
                if let Some(c) = captured {
                    c.push((row, false));
                }
            }
        }
        *affected += 1;
        Ok(())
    }
}

/// Upsert one shipped join row into its aggregate group at `node`.
/// When `captured` is supplied, the group fold is recorded as physical
/// stored-row changes: delete of the old group row, insert of the
/// updated (or initial) one.
fn fold_into_group(
    node: &mut NodeState,
    view_table: TableId,
    shape: &AggShape,
    projected: &Row,
    sign: i64,
    captured: Option<&mut Vec<(Row, bool)>>,
) -> Result<()> {
    let group_cols = shape.stored_group_positions();
    let key = Row::new(shape.group_key(projected)?);
    let existing = node.index_search(view_table, &group_cols, &key)?;
    match existing.first() {
        Some(stored) => {
            node.delete_row(view_table, stored, &group_cols)?;
            let updated = shape.fold(stored, projected, sign)?;
            if let Some(cap) = captured {
                cap.push((stored.clone(), false));
                if let Some(u) = &updated {
                    cap.push((u.clone(), true));
                }
            }
            if let Some(updated) = updated {
                node.insert(view_table, updated)?;
            }
        }
        None => {
            if sign < 0 {
                return Err(pvm_types::PvmError::Corrupt(
                    "aggregate delete hit a missing group".into(),
                ));
            }
            let init = shape.initial_row(projected)?;
            if let Some(cap) = captured {
                cap.push((init.clone(), true));
            }
            node.insert(view_table, init)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm_types::row;

    #[test]
    fn filters_match_on_carried_columns() {
        // Partial carries rel0 cols [0, 1]; probe rows carry rel1's cols
        // [0, 2] (a σπ projection).
        let layout = Layout::single(0, vec![0, 1]);
        let step = PlanStep {
            rel: 1,
            probe_col: 0,
            anchor: ViewColumn::new(0, 0),
            filters: vec![(ViewColumn::new(0, 1), 2)],
        };
        let partial = row![5, 7];
        let good = row![5, 7]; // carried cols [0, 2] → col 2 value is 7
        let bad = row![5, 8];
        assert!(filters_ok(&partial, &layout, &step, &good, &[0, 2]).unwrap());
        assert!(!filters_ok(&partial, &layout, &step, &bad, &[0, 2]).unwrap());
        // Filter column absent from the carried set is an error.
        assert!(filters_ok(&partial, &layout, &step, &good, &[0, 1]).is_err());
    }

    mod scan_join_equivalence {
        //! The delta-side scan join against the join it replaced: the same
        //! rows in the same order, the same charges, the same page
        //! accesses.

        use super::*;
        use proptest::prelude::*;
        use pvm_engine::TableDef;
        use pvm_types::{Column, DataType, Schema};

        /// The scan join as it was, verbatim: decode the whole fragment,
        /// build the hash table on it, probe with the partials.
        fn scan_join_built_on_fragment(
            node: &mut NodeState,
            target: &ProbeTarget,
            partials: &[Row],
            layout: &Layout,
            step: &crate::planner::PlanStep,
            anchor_pos: usize,
        ) -> Result<Vec<Row>> {
            let pages = node.storage(target.table)?.heap_pages().max(1) as u64;
            node.ledger_mut().record(pvm_types::CostKind::Fetch, pages);
            let rows: Vec<Row> = node
                .storage(target.table)?
                .scan()?
                .into_iter()
                .map(|(_, r)| r)
                .collect();
            let key_pos = target.key[0];
            let mut table: HashMap<&Value, Vec<&Row>> = HashMap::new();
            for r in &rows {
                let k = r.try_get(key_pos)?;
                if !k.is_null() {
                    table.entry(k).or_default().push(r);
                }
            }
            let mut out = Vec::new();
            for partial in partials {
                let v = partial.try_get(anchor_pos)?;
                if v.is_null() {
                    continue;
                }
                if let Some(matches) = table.get(v) {
                    for m in matches {
                        if filters_ok(partial, layout, step, m, &target.carried)? {
                            out.push(partial.concat(m));
                        }
                    }
                }
            }
            Ok(out)
        }

        /// A small domain per key type, NULL first, dense in values whose
        /// equality is easy to get wrong: both zeros, NaNs of both signs,
        /// the empty string, a string and its prefix.
        fn key_domain(dtype: DataType) -> Vec<Value> {
            let mut d = vec![Value::Null];
            d.extend(match dtype {
                DataType::Int => [-1, 0, 1, i64::MAX].map(Value::Int).to_vec(),
                DataType::Float => [0.0, -0.0, f64::NAN, -f64::NAN, 1.5]
                    .map(Value::Float)
                    .to_vec(),
                DataType::Str => ["", "a", "ab", "b"].map(Value::from).to_vec(),
                DataType::Bool => [false, true].map(Value::Bool).to_vec(),
            });
            d
        }

        fn pick(domain: &[Value], i: usize) -> Value {
            domain[i % domain.len()].clone()
        }

        /// A filter value: NULL now and then, else one of three ints.
        fn filter_value(i: u8) -> Value {
            if i == 3 {
                Value::Null
            } else {
                Value::Int(i64::from(i))
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

            #[test]
            fn same_rows_same_order_same_charges(
                dtype in prop_oneof![
                    Just(DataType::Int),
                    Just(DataType::Float),
                    Just(DataType::Str),
                    Just(DataType::Bool),
                ],
                with_filter in any::<bool>(),
                // (key pick, filter pick, payload length); empty at times.
                fragment in proptest::collection::vec((0usize..6, 0u8..4, 0usize..400), 0..80),
                deleted in proptest::collection::vec(any::<usize>(), 0..8),
                partials in proptest::collection::vec((0usize..6, 0u8..4), 0..24),
            ) {
                // The probed table is a σπ-reduced auxiliary relation of
                // relation 1 storing its base columns [4, 2, 7, 9]; the
                // index key is base column 2 — stored position 1, not 0.
                let domain = key_domain(dtype);
                let schema = Schema::new(vec![
                    Column::int("f"),
                    Column::new("k", dtype),
                    Column::int("id"),
                    Column::str("pad"),
                ])
                .into_ref();
                let table = TableId(1);
                let mut node = NodeState::new(NodeId::from(0), 16);
                node.create_table(table, &TableDef::hash_heap("ar", schema, 1)).unwrap();
                let mut rids = Vec::new();
                for (id, &(k, f, pad)) in fragment.iter().enumerate() {
                    let row = Row::new(vec![
                        filter_value(f),
                        pick(&domain, k),
                        Value::Int(id as i64),
                        Value::from("x".repeat(pad)),
                    ]);
                    rids.push(node.insert(table, row).unwrap());
                }
                for d in deleted {
                    if !rids.is_empty() {
                        let rid = rids.swap_remove(d % rids.len());
                        node.delete_rid(table, rid).unwrap();
                    }
                }
                let target = ProbeTarget {
                    table,
                    carried: vec![4, 2, 7, 9],
                    key: vec![1],
                    routing: None,
                };
                // Partials are rows of relation 0 laid out as its base
                // columns [5, 3]: a filter value, then the anchor.
                let layout = Layout::single(0, vec![5, 3]);
                let step = PlanStep {
                    rel: 1,
                    probe_col: 2,
                    anchor: ViewColumn::new(0, 3),
                    filters: if with_filter {
                        vec![(ViewColumn::new(0, 5), 4)]
                    } else {
                        Vec::new()
                    },
                };
                let anchor_pos = layout.position(step.anchor).unwrap();
                prop_assert_eq!(anchor_pos, 1);
                let partials: Vec<Row> = partials
                    .iter()
                    .map(|&(k, f)| Row::new(vec![filter_value(f), pick(&domain, k)]))
                    .collect();

                node.reset_counters();
                let want = scan_join_built_on_fragment(
                    &mut node, &target, &partials, &layout, &step, anchor_pos,
                )
                .unwrap();
                let want_cost = node.combined_snapshot();
                node.reset_counters();
                let got =
                    scan_join_at_node(&mut node, &target, &partials, &layout, &step, anchor_pos)
                        .unwrap();
                prop_assert_eq!(got, want);
                prop_assert_eq!(node.combined_snapshot(), want_cost);
            }
        }

        #[test]
        fn a_tuple_whose_key_misses_is_not_decoded() {
            // Pinned so the trade stays deliberate: damage behind the key
            // column of a tuple that joins nothing no longer fails the
            // scan; damage in a tuple that does join still does.
            let target = ProbeTarget {
                table: TableId(1),
                carried: vec![0, 1],
                key: vec![0],
                routing: None,
            };
            let layout = Layout::single(0, vec![0]);
            let step = PlanStep {
                rel: 1,
                probe_col: 0,
                anchor: ViewColumn::new(0, 0),
                filters: Vec::new(),
            };
            let good = row![1, "one"].encode();
            let mut damaged = good.clone();
            *damaged.last_mut().unwrap() = 0xff; // not UTF-8
            assert!(Row::decode(&damaged).is_err());
            let join = |anchor: i64| {
                let fragment = [good.as_slice(), damaged.as_slice()];
                hash_join_encoded(
                    fragment.into_iter(),
                    &target,
                    &[row![anchor]],
                    &layout,
                    &step,
                    0,
                )
            };
            assert!(join(1).is_err());
            assert_eq!(join(2).unwrap(), Vec::<Row>::new());
        }
    }

    #[test]
    fn null_filter_values_never_match() {
        let layout = Layout::single(0, vec![0]);
        let step = PlanStep {
            rel: 1,
            probe_col: 0,
            anchor: ViewColumn::new(0, 0),
            filters: vec![(ViewColumn::new(0, 0), 0)],
        };
        let partial = Row::new(vec![pvm_types::Value::Null]);
        let probe = Row::new(vec![pvm_types::Value::Null]);
        assert!(!filters_ok(&partial, &layout, &step, &probe, &[0]).unwrap());
    }
}
