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
//! The GI is built, pooled and updated by the code it shares with the
//! auxiliary relation; this module holds the part that differs, the
//! two-hop probe.
//!
//! **Delivery assumptions.** The fan-out step is the most
//! delivery-sensitive of the three methods: the rid lists shipped to the
//! `K` fetch nodes must each arrive **exactly once, next step**, and the
//! rids must still be valid when they arrive — which is why crash
//! recovery replays the WAL physically (reproducing rid assignment) and
//! the reliability layer (`pvm_net::reliable`) suppresses duplicates by
//! per-pair sequence number rather than by payload equality.

use std::collections::HashMap;

use pvm_engine::{Backend, NetPayload, TableId};
use pvm_obs::{metric, MethodTag, Phase};
use pvm_types::{CostKind, GlobalRid, NodeId, PvmError, Result, Rid, Row, Value};

use crate::chain::{self, BatchPolicy};
use crate::layout::Layout;
use crate::planner::PlanStep;

/// Decode a GI entry row (built by [`crate::structure::Structure::entry`])
/// back to its global rid.
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
        let messages = by_dst.into_iter().map(|rows| NetPayload::DeltaRows {
            table: gi_table,
            rows,
        });
        chain::send_per_destination(ctx, messages.collect())?;
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
        let messages = items_by_dst
            .into_iter()
            .map(|items| NetPayload::RowsWithRids {
                table: base_table,
                items,
            });
        chain::send_per_destination(ctx, messages.collect())?;
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
