//! The auxiliary-relation maintenance method (§2.1.2).
//!
//! For each base relation `R` and each join attribute `c` it joins on, the
//! method keeps `AR_R = σπ(R)` — a projected copy of `R` **hash-partitioned
//! on `c`** with a clustered index on `c` — unless `R` is already
//! partitioned on `c` (then the base relation itself serves). The σπ
//! reduction keeps only the columns a maintenance probe or the view's
//! output can ever need (§2.1.2's storage minimization; see
//! [`crate::minimize`]).
//!
//! A delta tuple is then handled at exactly **one node per join step**:
//! routed by hash to the node holding its matches, probed against the
//! clustered AR (one SEARCH, no FETCHes), and shipped onward. The paper's
//! 2-relation transaction becomes:
//!
//! ```text
//! begin transaction
//!   update base relation A;
//!   update auxiliary relation AR_A;   (cheap)
//!   update join view JV;              (cheap)
//! end transaction
//! ```
//!
//! **Delivery assumptions.** Each hop of the single-node chain assumes
//! its routed delta arrives **exactly once, next step**: a lost message
//! would strand the chain mid-flight, a duplicate would insert the AR /
//! view rows twice. The reliability layer (`pvm_net::reliable`) restores
//! both guarantees under fault injection without the driver noticing.

use std::collections::HashMap;

use pvm_engine::{Backend, Cluster, NetPayload, TableDef, TableId};
use pvm_obs::{MethodTag, Phase};
use pvm_types::{PvmError, Result, Row};

use crate::chain::{self, BatchPolicy, PartialGates, ProbeTarget};
use crate::minimize;
use crate::planner::PlanStep;
use crate::view::ViewHandle;

/// One auxiliary relation: which table stores it, which base columns it
/// keeps (sorted), and where its partitioning attribute sits in the kept
/// set.
#[derive(Debug, Clone)]
pub struct ArInfo {
    pub table: TableId,
    /// Base columns kept, in stored order.
    pub keep_cols: Vec<usize>,
    /// Position of the partitioning join attribute within `keep_cols`.
    pub key_pos: usize,
}

/// Route each placed delta row to the home node of every AR in `ars`
/// (one SEND per row per AR per-row; one SEND per populated destination
/// when coalesced) and apply it there. Shared by per-view maintenance
/// and the cross-view [`crate::minimize::ArPool`]. All ARs ride **one**
/// stage program (route stage + send-free apply stage per AR), so a
/// pipelined backend overlaps one AR's apply with the next AR's routing
/// instead of barriering twice per AR.
///
/// Under partial state (`gates`), delta rows whose AR key value is a
/// hole are routed but **not stored**: the entry stays a hole and is
/// rebuilt from the base relation only when a probe needs it (refill).
/// The coordinator mirrors the same skip when accounting bytes.
pub(crate) fn update_ars<B: Backend>(
    backend: &mut B,
    ars: &[ArInfo],
    placed: &[(Row, pvm_types::GlobalRid)],
    insert: bool,
    batch: BatchPolicy,
    gates: Option<&PartialGates<'_>>,
) -> Result<()> {
    if ars.is_empty() {
        return Ok(());
    }
    let method = MethodTag::AuxRel;
    let l = backend.node_count();
    let mut program = pvm_engine::StepProgram::new();
    for info in ars {
        let spec = backend.engine().def(info.table)?.partitioning.clone();
        let route_info = info.clone();
        program = program.stage(move |ctx, _| {
            let info = &route_info;
            let mut by_dst: Vec<Vec<Row>> = vec![Vec::new(); l];
            for (row, grid) in placed {
                if grid.node != ctx.id() {
                    continue;
                }
                let projected = row.project(&info.keep_cols)?;
                // One destination for hash (and salted-heavy) rows; every
                // spread-set replica for a replicated heavy value.
                let dsts = spec.route_all(&projected, l, 0)?;
                if ctx.tracing() {
                    ctx.trace(Phase::Route, method)
                        .key(projected.try_get(info.key_pos)?.to_string())
                        .count(dsts.len() as u64)
                        .emit();
                    ctx.obs()
                        .metrics()
                        .histogram(pvm_obs::metric::fanout(method))
                        .observe(dsts.len() as u64);
                }
                match batch {
                    BatchPolicy::Coalesced => {
                        for dst in dsts {
                            by_dst[dst.index()].push(projected.clone());
                        }
                    }
                    BatchPolicy::PerRow => {
                        for dst in dsts {
                            ctx.send(
                                dst,
                                NetPayload::DeltaRows {
                                    table: info.table,
                                    rows: vec![projected.clone()],
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
                            .histogram(pvm_obs::metric::BATCH_ROWS_PER_MSG)
                            .observe(rows.len() as u64);
                    }
                    ctx.send(
                        pvm_types::NodeId::from(dst),
                        NetPayload::DeltaRows {
                            table: info.table,
                            rows,
                        },
                    )?;
                }
            }
            Ok(Vec::new())
        });
        // Drain and apply at every node.
        let key_pos = info.key_pos;
        let holes = gates.and_then(|g| g.structure_holes(info.table));
        program = program.local_stage(move |ctx, _| {
            let mut applied = 0u64;
            for env in ctx.drain() {
                let NetPayload::DeltaRows {
                    table: ar_table,
                    rows,
                } = env.payload
                else {
                    return Err(PvmError::InvalidOperation(
                        "unexpected payload during AR update".into(),
                    ));
                };
                for r in rows {
                    if let Some(h) = holes {
                        if h.contains(r.try_get(key_pos)?) {
                            continue; // evicted entry: the hole persists
                        }
                    }
                    if insert {
                        ctx.node.insert(ar_table, r)?;
                    } else {
                        ctx.node.delete_row(ar_table, &r, &[key_pos])?;
                    }
                    applied += 1;
                }
            }
            if applied > 0 {
                ctx.count_work(applied);
                if ctx.tracing() {
                    ctx.trace_span(Phase::IndexUpdate, method)
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

/// Deterministic AR table name.
pub(crate) fn ar_name(view: &str, base: &str, col: usize) -> String {
    format!("{view}__ar_{base}_{col}")
}

/// Create (and populate from current base contents) the auxiliary
/// relations the view needs, keyed by `(relation index, base
/// join-attribute column)`.
pub(crate) fn install(
    cluster: &mut Cluster,
    handle: &ViewHandle,
) -> Result<HashMap<(usize, usize), ArInfo>> {
    let mut ars = HashMap::new();
    for (rel, &table) in handle.base.iter().enumerate() {
        let def = cluster.def(table)?.clone();
        for c in handle.def.join_attrs_of(rel) {
            if def.partitioning.is_on(c) {
                // §2.1.2: "if some base relation is partitioned on the join
                // attribute, the auxiliary relation for that base relation
                // is unnecessary" — just make sure it is probeable.
                chain::ensure_join_index(cluster, table, c)?;
                continue;
            }
            let keep_cols = minimize::keep_columns(&handle.def, rel);
            let key_pos = keep_cols
                .iter()
                .position(|&k| k == c)
                .expect("join attribute is always kept");
            let ar_schema = def.schema.project(&keep_cols)?.into_ref();
            let ar_table = cluster.create_table(TableDef::hash_clustered(
                ar_name(&handle.def.name, &def.name, c),
                ar_schema,
                key_pos,
            ))?;
            // Populate: repartition a projection of the base relation.
            let projected: Vec<Row> = cluster
                .scan_all(table)?
                .iter()
                .map(|r| r.project(&keep_cols))
                .collect::<Result<_>>()?;
            cluster.insert(ar_table, projected)?;
            ars.insert(
                (rel, c),
                ArInfo {
                    table: ar_table,
                    keep_cols,
                    key_pos,
                },
            );
        }
    }
    Ok(ars)
}

/// Probe target for one chain step: the AR if one exists, else the base
/// relation (which install() guaranteed is partitioned on the attribute
/// and probeable).
pub(crate) fn probe_target(
    cluster: &Cluster,
    handle: &ViewHandle,
    ars: &HashMap<(usize, usize), ArInfo>,
    step: &PlanStep,
) -> Result<ProbeTarget> {
    match ars.get(&(step.rel, step.probe_col)) {
        Some(info) => Ok(ProbeTarget {
            table: info.table,
            carried: info.keep_cols.clone(),
            key: vec![info.key_pos],
            routing: Some(cluster.def(info.table)?.partitioning.clone()),
        }),
        None => ProbeTarget::routed_base(cluster, handle, step, "auxiliary relation"),
    }
}
