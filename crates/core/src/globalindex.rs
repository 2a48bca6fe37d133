//! The global-index maintenance method (§2.1.3).
//!
//! For each base relation `R` and join attribute `c` (unless `R` is
//! partitioned on `c`), the method keeps `GI_R`: a mapping from each value
//! of `c` to the **global row ids** `(node, local rid)` of the tuples of
//! `R` with that value, hash-partitioned on the value with a clustered
//! index. A delta tuple:
//!
//! 1. is routed to the single node `j` owning its attribute value, where
//!    the GI of the updated relation gains/loses an entry (one INSERT) and
//!    the GI of the probed relation is searched (one SEARCH);
//! 2. fans out, with the relevant rid lists, to only the `K ≤ min(N, L)`
//!    nodes that actually hold matching tuples;
//! 3. at each of those nodes the matches are FETCHed by rid (per-tuple if
//!    the relation is heap-organized — "distributed non-clustered" — or
//!    one page per node if it is locally clustered on the attribute —
//!    "distributed clustered") and joined.
//!
//! Space: one `(value, node, page, slot)` entry per base tuple — far less
//! than an auxiliary relation's σπ copy, at the price of the fan-out and
//! the fetches.
//!
//! **Delivery assumptions.** The fan-out step is the most
//! delivery-sensitive of the three methods: the rid lists shipped to the
//! `K` fetch nodes must each arrive **exactly once, next step**, and the
//! rids must still be valid when they arrive — which is why crash
//! recovery replays the WAL physically (reproducing rid assignment) and
//! the reliability layer (`pvm_net::reliable`) suppresses duplicates by
//! per-pair sequence number rather than by payload equality.

use std::collections::HashMap;

use pvm_engine::{Backend, Cluster, NetPayload, TableDef, TableId};
use pvm_obs::{metric, MethodTag, Phase};
use pvm_types::{Column, CostKind, GlobalRid, NodeId, PvmError, Result, Rid, Row, Schema, Value};

use crate::chain::{self, BatchPolicy};
use crate::layout::Layout;
use crate::planner::PlanStep;
use crate::view::ViewHandle;

/// One global index.
#[derive(Debug, Clone)]
pub struct GiInfo {
    pub table: TableId,
}

/// Deterministic GI table name.
pub(crate) fn gi_name(view: &str, base: &str, col: usize) -> String {
    format!("{view}__gi_{base}_{col}")
}

/// Build one GI entry row: `(value, node, page, slot)`.
pub(crate) fn gi_entry(value: Value, grid: GlobalRid) -> Row {
    Row::new(vec![
        value,
        Value::Int(grid.node.0 as i64),
        Value::Int(grid.rid.page.0 as i64),
        Value::Int(grid.rid.slot.0 as i64),
    ])
}

/// Decode a GI entry row back to its global rid.
fn decode_entry(row: &Row) -> Result<GlobalRid> {
    let node = row.try_get(1)?.as_int().ok_or_else(bad_entry)?;
    let page = row.try_get(2)?.as_int().ok_or_else(bad_entry)?;
    let slot = row.try_get(3)?.as_int().ok_or_else(bad_entry)?;
    Ok(GlobalRid::new(
        NodeId(node as u16),
        Rid::new(page as u32, slot as u16),
    ))
}

fn bad_entry() -> PvmError {
    PvmError::Corrupt("malformed global-index entry".into())
}

/// Create one global index named `name` over `base_table`'s column `c`
/// and populate it from every node's current fragment (capturing local
/// rids). Shared by per-view [`install`] and the cross-view
/// [`crate::minimize::GiPool`].
pub(crate) fn create_gi(
    cluster: &mut Cluster,
    name: String,
    base_table: TableId,
    c: usize,
) -> Result<TableId> {
    let def = cluster.def(base_table)?.clone();
    let key_type = def
        .schema
        .column(c)
        .ok_or_else(|| PvmError::InvalidReference(format!("column {c}")))?
        .dtype;
    let gi_schema = Schema::new(vec![
        Column::new("key", key_type),
        Column::int("node"),
        Column::int("page"),
        Column::int("slot"),
    ])
    .into_ref();
    let gi_table = cluster.create_table(TableDef::hash_clustered(name, gi_schema, 0))?;
    let mut entries = Vec::new();
    for n in cluster.nodes() {
        for (rid, row) in n.storage(base_table)?.scan()? {
            entries.push(gi_entry(row[c].clone(), GlobalRid::new(n.id(), rid)));
        }
    }
    cluster.insert(gi_table, entries)?;
    Ok(gi_table)
}

/// Create (and populate) the global indices the view needs, keyed by
/// `(relation index, base join-attribute column)`.
pub(crate) fn install(
    cluster: &mut Cluster,
    handle: &ViewHandle,
) -> Result<HashMap<(usize, usize), GiInfo>> {
    let mut gis = HashMap::new();
    for (rel, &table) in handle.base.iter().enumerate() {
        let def = cluster.def(table)?.clone();
        for c in handle.def.join_attrs_of(rel) {
            if def.partitioning.is_on(c) {
                chain::ensure_join_index(cluster, table, c)?;
                continue;
            }
            let gi_table = create_gi(
                cluster,
                gi_name(&handle.def.name, &def.name, c),
                table,
                c,
            )?;
            gis.insert((rel, c), GiInfo { table: gi_table });
        }
    }
    Ok(gis)
}

/// Append one two-hop GI probe step to a phase program: route partials to
/// the GI's home nodes, search the GI, fan out `(partial, rid list)`
/// messages to the `K` nodes holding matches, fetch and join there. Each
/// hop is one program stage, so the two hops never interleave at a node —
/// a stage's sends are not consumed until the receiver's next stage — but
/// a pipelined backend overlaps different nodes' hops freely.
pub(crate) fn push_gi_probe_step<'p>(
    backend: &impl Backend,
    program: pvm_engine::StepProgram<'p>,
    layout: &Layout,
    step: &PlanStep,
    gi_table: TableId,
    base_table: TableId,
    batch: BatchPolicy,
) -> Result<pvm_engine::StepProgram<'p>> {
    let l = backend.node_count();
    let base_arity = backend.engine().def(base_table)?.schema.arity();
    let anchor_pos = layout.position(step.anchor)?;
    let gi_spec = backend.engine().def(gi_table)?.partitioning.clone();

    // Hop 1: route each partial to the GI node(s) of its probe value —
    // one hash node normally; under a heavy-light spec, hot values are
    // salted to one of their replicated spread nodes (each replica holds
    // the complete entry list) or fanned across the salted spread set.
    // Under [`BatchPolicy::Coalesced`] the routed rows are grouped per
    // destination and shipped as one multi-row message each.
    let program = program.stage(move |ctx, partials| {
        let gi_spec = &gi_spec;
        let mut by_dst: Vec<Vec<Row>> = vec![Vec::new(); l];
        for partial in &partials {
            let v = partial.try_get(anchor_pos)?;
            let dsts = gi_spec.probe_nodes(v, l, pvm_engine::hash_row(partial))?;
            if ctx.tracing() {
                ctx.trace(Phase::Route, MethodTag::GlobalIndex)
                    .key(v.to_string())
                    .count(dsts.len() as u64)
                    .emit();
                chain::note_heavy_light(ctx, gi_spec, v, dsts.len() as u64);
            }
            match batch {
                BatchPolicy::Coalesced => {
                    for dst in dsts {
                        by_dst[dst.index()].push(partial.clone());
                    }
                }
                BatchPolicy::PerRow => {
                    for dst in dsts {
                        ctx.send(
                            dst,
                            NetPayload::DeltaRows {
                                table: gi_table,
                                rows: vec![partial.clone()],
                            },
                        )?;
                    }
                }
            }
        }
        if batch == BatchPolicy::Coalesced {
            for (dst, rows) in by_dst.into_iter().enumerate() {
                if rows.is_empty() {
                    continue;
                }
                if ctx.tracing() {
                    ctx.obs()
                        .metrics()
                        .histogram(metric::BATCH_ROWS_PER_MSG)
                        .observe(rows.len() as u64);
                }
                ctx.send(
                    NodeId::from(dst),
                    NetPayload::DeltaRows {
                        table: gi_table,
                        rows,
                    },
                )?;
            }
        }
        Ok(Vec::new())
    });

    // At the GI nodes: search (grouped per distinct value when
    // coalesced), group rids by holder node, fan out.
    let program = program.stage(move |ctx, _| {
        let mut partials = Vec::new();
        for env in ctx.drain() {
            let NetPayload::DeltaRows { rows, .. } = env.payload else {
                return Err(PvmError::InvalidOperation(
                    "unexpected payload at GI probe".into(),
                ));
            };
            partials.extend(rows);
        }
        if partials.is_empty() {
            return Ok(Vec::new());
        }
        let entry_lists: Vec<Vec<Row>> = match batch {
            BatchPolicy::Coalesced => {
                let values: Vec<Value> = partials
                    .iter()
                    .map(|p| Ok(p.try_get(anchor_pos)?.clone()))
                    .collect::<Result<_>>()?;
                if ctx.tracing() {
                    chain::note_group_probe_fanin(ctx, &values);
                }
                pvm_engine::exec::group_probe(ctx.node, gi_table, &[0], &values)?
            }
            BatchPolicy::PerRow => {
                let mut lists = Vec::with_capacity(partials.len());
                for partial in &partials {
                    let v = partial.try_get(anchor_pos)?.clone();
                    lists.push(ctx.node.index_search(gi_table, &[0], &Row::new(vec![v]))?);
                }
                lists
            }
        };
        let mut probed = 0u64;
        let mut items_by_dst: Vec<Vec<(Row, Vec<GlobalRid>)>> = vec![Vec::new(); l];
        for (partial, entries) in partials.iter().zip(&entry_lists) {
            let mut by_node: HashMap<NodeId, Vec<GlobalRid>> = HashMap::new();
            for e in entries {
                let grid = decode_entry(e)?;
                by_node.entry(grid.node).or_default().push(grid);
            }
            let mut dsts: Vec<NodeId> = by_node.keys().copied().collect();
            dsts.sort();
            // The paper's K: how many holder nodes this delta actually
            // fans out to (K <= min(N, L)).
            if ctx.tracing() {
                ctx.obs()
                    .metrics()
                    .histogram(metric::fanout(MethodTag::GlobalIndex))
                    .observe(dsts.len() as u64);
            }
            probed += 1;
            for dst in dsts {
                let rids = by_node.remove(&dst).expect("key present");
                match batch {
                    BatchPolicy::Coalesced => {
                        items_by_dst[dst.index()].push((partial.clone(), rids));
                    }
                    BatchPolicy::PerRow => {
                        ctx.send(
                            dst,
                            NetPayload::RowWithRids {
                                table: base_table,
                                row: partial.clone(),
                                rids,
                            },
                        )?;
                    }
                }
            }
        }
        if batch == BatchPolicy::Coalesced {
            for (dst, items) in items_by_dst.into_iter().enumerate() {
                if items.is_empty() {
                    continue;
                }
                if ctx.tracing() {
                    ctx.obs()
                        .metrics()
                        .histogram(metric::BATCH_ROWS_PER_MSG)
                        .observe(items.len() as u64);
                }
                ctx.send(
                    NodeId::from(dst),
                    NetPayload::RowsWithRids {
                        table: base_table,
                        items,
                    },
                )?;
            }
        }
        ctx.count_work(probed);
        if ctx.tracing() {
            ctx.trace_span(Phase::Probe, MethodTag::GlobalIndex)
                .count(probed)
                .emit();
        }
        Ok(Vec::new())
    });

    // Hop 2: fetch and join at the holder nodes. Accepts both the
    // per-row and the coalesced rid payloads, so receivers are oblivious
    // to the sender's batch policy. Send-free: the joined partials carry
    // forward to the next step's route stage.
    let carried: Vec<usize> = (0..base_arity).collect();
    let layout = layout.clone();
    let step = step.clone();
    Ok(program.local_stage(move |ctx, _| {
        let carried = &carried;
        let layout = &layout;
        let step = &step;
        let mut out = Vec::new();
        let mut joined = 0u64;
        for env in ctx.drain() {
            let items: Vec<(Row, Vec<GlobalRid>)> = match env.payload {
                NetPayload::RowWithRids { table, row, rids } => {
                    debug_assert_eq!(table, base_table);
                    vec![(row, rids)]
                }
                NetPayload::RowsWithRids { table, items } => {
                    debug_assert_eq!(table, base_table);
                    items
                }
                _ => {
                    return Err(PvmError::InvalidOperation(
                        "unexpected payload at GI fetch".into(),
                    ));
                }
            };
            for (partial, rids) in items {
                let clustered = ctx.node.is_clustered_on(base_table, &[step.probe_col]);
                let matches: Vec<Row> = if clustered {
                    // Distributed clustered: all local matches sit on one
                    // leaf page — the model charges one FETCH per node.
                    let v = partial.try_get(anchor_pos)?.clone();
                    ctx.node.ledger_mut().record(CostKind::Fetch, 1);
                    ctx.node
                        .storage(base_table)?
                        .clustered_search(&Row::new(vec![v]))?
                } else {
                    // Distributed non-clustered: one FETCH per matching
                    // tuple.
                    let mut fetched = Vec::with_capacity(rids.len());
                    for grid in &rids {
                        debug_assert_eq!(grid.node, ctx.id());
                        fetched.push(ctx.node.fetch(base_table, grid.rid)?);
                    }
                    fetched
                };
                joined += 1;
                for m in matches {
                    if chain::filters_ok(&partial, layout, step, &m, carried)? {
                        out.push(partial.concat(&m));
                    }
                }
            }
        }
        if joined > 0 {
            ctx.count_work(joined);
            if ctx.tracing() {
                ctx.trace_span(Phase::Join, MethodTag::GlobalIndex)
                    .count(out.len() as u64)
                    .emit();
            }
        }
        Ok(out)
    }))
}

/// Route each placed delta row's GI entry to its home node(s) and apply
/// it there. `gis` pairs each GI table with the base column it indexes.
/// All GIs ride **one** stage program (route stage + send-free apply
/// stage per GI) so a pipelined backend overlaps one GI's apply with the
/// next one's routing. Shared by per-view maintenance and the cross-view
/// [`crate::minimize::GiPool`].
pub(crate) fn update_gis<B: Backend>(
    backend: &mut B,
    gis: &[(usize, TableId)],
    placed: &[(Row, GlobalRid)],
    insert: bool,
    batch: BatchPolicy,
    gates: Option<&chain::PartialGates<'_>>,
) -> Result<()> {
    if gis.is_empty() {
        return Ok(());
    }
    let l = backend.node_count();
    let mut program = pvm_engine::StepProgram::new();
    for &(c, gi_table) in gis {
        let spec = backend.engine().def(gi_table)?.partitioning.clone();
        program = program.stage(move |ctx, _| {
            let mut by_dst: Vec<Vec<Row>> = vec![Vec::new(); l];
            for (row, grid) in placed {
                if grid.node != ctx.id() {
                    continue;
                }
                let entry = gi_entry(row[c].clone(), *grid);
                // Replicated heavy entries go to every spread-set
                // node; everything else has a single home.
                match batch {
                    BatchPolicy::Coalesced => {
                        for dst in spec.route_all(&entry, l, 0)? {
                            by_dst[dst.index()].push(entry.clone());
                        }
                    }
                    BatchPolicy::PerRow => {
                        for dst in spec.route_all(&entry, l, 0)? {
                            ctx.send(
                                dst,
                                NetPayload::DeltaRows {
                                    table: gi_table,
                                    rows: vec![entry.clone()],
                                },
                            )?;
                        }
                    }
                }
            }
            if batch == BatchPolicy::Coalesced {
                for (dst, rows) in by_dst.into_iter().enumerate() {
                    if rows.is_empty() {
                        continue;
                    }
                    if ctx.tracing() {
                        ctx.obs()
                            .metrics()
                            .histogram(metric::BATCH_ROWS_PER_MSG)
                            .observe(rows.len() as u64);
                    }
                    ctx.send(
                        NodeId::from(dst),
                        NetPayload::DeltaRows {
                            table: gi_table,
                            rows,
                        },
                    )?;
                }
            }
            Ok(Vec::new())
        });
        let holes = gates.and_then(|g| g.structure_holes(gi_table));
        program = program.local_stage(move |ctx, _| {
            let mut applied = 0u64;
            for env in ctx.drain() {
                let NetPayload::DeltaRows { table: t, rows } = env.payload else {
                    return Err(PvmError::InvalidOperation(
                        "unexpected payload during GI update".into(),
                    ));
                };
                for r in rows {
                    if let Some(h) = holes {
                        // Entry column 0 is the join value (gi_entry):
                        // evicted values stay holes until refilled.
                        if h.contains(r.try_get(0)?) {
                            continue;
                        }
                    }
                    if insert {
                        ctx.node.insert(t, r)?;
                    } else {
                        ctx.node.delete_row(t, &r, &[0])?;
                    }
                    applied += 1;
                }
            }
            if applied > 0 {
                ctx.count_work(applied);
                if ctx.tracing() {
                    ctx.trace_span(Phase::IndexUpdate, MethodTag::GlobalIndex)
                        .count(applied)
                        .emit();
                }
            }
            Ok(Vec::new())
        });
    }
    backend.run_stages(vec![Vec::new(); l], &program)?;
    Ok(())
}
