//! The maintenance structures of the auxiliary-relation (§2.1.2) and
//! global-index (§2.1.3) methods, as one kind of object.
//!
//! An AR and a GI are both hash-partitioned and clustered on a join value
//! and hold one entry per base tuple. They differ only in the entry — a
//! σπ projection of the tuple, or its `(value, node, page, slot)` global
//! rid — and in how a probe reads it ([`crate::auxrel`],
//! [`crate::globalindex`]). Everything else is written once here: the
//! entry format ([`Structure::entry`]), create-and-populate
//! ([`Structure::create`]), the per-view install loop ([`Probes::install`])
//! and the route-and-apply update program ([`update`]). The cross-view
//! pool ([`crate::minimize::StructurePool`]), partial-state accounting and
//! refill, and skew routing all go through the same type.

use std::collections::BTreeMap;

use pvm_engine::{Backend, Cluster, NetPayload, StepProgram, TableDef, TableId};
use pvm_obs::{MethodTag, Phase};
use pvm_types::{Column, GlobalRid, PvmError, Result, Row, Schema, Value};

use crate::chain::{self, BatchPolicy, PartialGates};
use crate::minimize::keep_columns;
use crate::view::{MaintenanceMethod, ViewHandle};

/// What one structure stores per base tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum StructureKind {
    /// Auxiliary relation: the tuple projected onto `keep_cols` (sorted
    /// base columns), keyed at `key_pos` within the kept set.
    Ar {
        keep_cols: Vec<usize>,
        key_pos: usize,
    },
    /// Global index: `(value, node, page, slot)`, keyed at column 0.
    Gi,
}

impl StructureKind {
    /// The entry `method` keeps for join column `col` of a relation whose
    /// σπ keep set is `keep_cols`; `None` for the naive method, which
    /// keeps no structures.
    pub fn of(method: MaintenanceMethod, keep_cols: Vec<usize>, col: usize) -> Option<Self> {
        match method {
            MaintenanceMethod::Naive => None,
            MaintenanceMethod::AuxiliaryRelation => {
                let key_pos = keep_cols
                    .iter()
                    .position(|&k| k == col)
                    .expect("join attribute is always kept");
                Some(StructureKind::Ar { keep_cols, key_pos })
            }
            MaintenanceMethod::GlobalIndex => Some(StructureKind::Gi),
        }
    }

    fn key_pos(&self) -> usize {
        match self {
            StructureKind::Ar { key_pos, .. } => *key_pos,
            StructureKind::Gi => 0,
        }
    }
}

/// One AR or GI: the table storing it, the base join column it is keyed
/// on, and its entry kind.
#[derive(Debug, Clone)]
pub(crate) struct Structure {
    pub table: TableId,
    /// Column of the base relation holding the join value.
    pub col: usize,
    pub kind: StructureKind,
}

impl Structure {
    /// Create table `name` for a structure over `base`'s column `col` and
    /// populate it from every node's current fragment, in node order and
    /// then heap order.
    pub fn create(
        cluster: &mut Cluster,
        name: String,
        base: TableId,
        col: usize,
        kind: StructureKind,
    ) -> Result<Structure> {
        let schema = match &kind {
            StructureKind::Ar { keep_cols, .. } => cluster.def(base)?.schema.project(keep_cols)?,
            StructureKind::Gi => {
                let key_type = cluster
                    .def(base)?
                    .schema
                    .column(col)
                    .ok_or_else(|| PvmError::InvalidReference(format!("column {col}")))?
                    .dtype;
                Schema::new(vec![
                    Column::new("key", key_type),
                    Column::int("node"),
                    Column::int("page"),
                    Column::int("slot"),
                ])
            }
        };
        let table = cluster.create_table(TableDef::hash_clustered(
            name,
            schema.into_ref(),
            kind.key_pos(),
        ))?;
        let s = Structure { table, col, kind };
        // Each base tuple straight into its entry, decoding only the
        // columns the entry keeps.
        let mut entries = Vec::new();
        for n in cluster.nodes() {
            for (rid, tuple) in n.storage(base)?.scan_encoded() {
                entries.push(s.entry_encoded(tuple, GlobalRid::new(n.id(), rid))?);
            }
        }
        cluster.insert(table, entries)?;
        Ok(s)
    }

    /// Stored-entry column holding the join value.
    pub fn key_pos(&self) -> usize {
        self.kind.key_pos()
    }

    /// The entry base row `row`, stored at `grid`, contributes.
    pub fn entry(&self, row: &Row, grid: GlobalRid) -> Result<Row> {
        match &self.kind {
            StructureKind::Ar { keep_cols, .. } => row.project(keep_cols),
            StructureKind::Gi => Ok(Row::new(vec![
                row.try_get(self.col)?.clone(),
                Value::Int(grid.node.0 as i64),
                Value::Int(grid.rid.page.0 as i64),
                Value::Int(grid.rid.slot.0 as i64),
            ])),
        }
    }

    /// [`Structure::entry`] of a base tuple still encoded as
    /// [`Row::encode`] wrote it: only the kept columns are decoded.
    fn entry_encoded(&self, tuple: &[u8], grid: GlobalRid) -> Result<Row> {
        let column = |c| Ok(Value::decode_from(Row::column_bytes(tuple, c)?)?.0);
        match &self.kind {
            StructureKind::Ar { keep_cols, .. } => Ok(Row::new(
                keep_cols
                    .iter()
                    .map(|&c| column(c))
                    .collect::<Result<_>>()?,
            )),
            StructureKind::Gi => Ok(Row::new(vec![
                column(self.col)?,
                Value::Int(grid.node.0 as i64),
                Value::Int(grid.rid.page.0 as i64),
                Value::Int(grid.rid.slot.0 as i64),
            ])),
        }
    }

    pub fn method(&self) -> MethodTag {
        match self.kind {
            StructureKind::Ar { .. } => MethodTag::AuxRel,
            StructureKind::Gi => MethodTag::GlobalIndex,
        }
    }
}

/// Deterministic structure table name: `{owner}__ar_{base}_{col}` or
/// `{owner}__gi_{base}_{col}`, where the owner is a view or the pool.
pub(crate) fn table_name(owner: &str, kind: &StructureKind, base: &str, col: usize) -> String {
    let tag = match kind {
        StructureKind::Ar { .. } => "ar",
        StructureKind::Gi => "gi",
    };
    format!("{owner}__{tag}_{base}_{col}")
}

/// The probe structures of one maintained view, keyed by `(relation
/// index, base join-attribute column)` — what distinguishes the three
/// methods. Empty for the naive method; a join attribute its base
/// relation is partitioned on has no entry either, as the base relation
/// itself serves those probes.
#[derive(Debug, Clone, Default)]
pub(crate) struct Probes(pub BTreeMap<(usize, usize), Structure>);

impl Probes {
    /// Create (and populate) the private structures `method` needs, and
    /// make every join attribute that gets none probeable on its base.
    pub fn install(
        cluster: &mut Cluster,
        handle: &ViewHandle,
        method: MaintenanceMethod,
    ) -> Result<Probes> {
        let mut probes = Probes::default();
        for (rel, &table) in handle.base.iter().enumerate() {
            let def = cluster.def(table)?.clone();
            for c in handle.def.join_attrs_of(rel) {
                // §2.1.2: "if some base relation is partitioned on the join
                // attribute, the auxiliary relation for that base relation
                // is unnecessary" (likewise the GI).
                let kind = StructureKind::of(method, keep_columns(&handle.def, rel), c)
                    .filter(|_| !def.partitioning.is_on(c));
                let Some(kind) = kind else {
                    chain::ensure_join_index(cluster, table, c)?;
                    continue;
                };
                let name = table_name(&handle.def.name, &kind, &def.name, c);
                probes
                    .0
                    .insert((rel, c), Structure::create(cluster, name, table, c, kind)?);
            }
        }
        Ok(probes)
    }

    /// The structure tables, sorted.
    pub fn tables(&self) -> Vec<TableId> {
        let mut out: Vec<TableId> = self.0.values().map(|s| s.table).collect();
        out.sort();
        out
    }

    /// Propagate an already-applied base update on relation `rel` into
    /// that relation's structures (the *aux* phase).
    pub fn update<B: Backend>(
        &self,
        backend: &mut B,
        rel: usize,
        placed: &[(Row, GlobalRid)],
        insert: bool,
        batch: BatchPolicy,
        gates: Option<&PartialGates<'_>>,
    ) -> Result<()> {
        let mine: Vec<&Structure> = self
            .0
            .iter()
            .filter(|((r, _), _)| *r == rel)
            .map(|(_, s)| s)
            .collect();
        update(backend, &mine, placed, insert, batch, gates)
    }
}

/// Route each placed delta row's entry in every structure of
/// `structures` to its home node(s) — one SEND per entry per destination
/// per-row, one per populated destination coalesced — and apply it
/// there. Shared by per-view maintenance and the cross-view pool. All
/// structures ride **one** stage program (a route stage plus a send-free
/// apply stage each), so a pipelined backend overlaps one structure's
/// apply with the next one's routing.
///
/// Under partial state (`gates`), an entry whose join value is a hole is
/// routed but **not stored**: it stays a hole until a probe needs it
/// (refill). The coordinator mirrors the same skip when accounting bytes.
pub(crate) fn update<B: Backend>(
    backend: &mut B,
    structures: &[&Structure],
    placed: &[(Row, GlobalRid)],
    insert: bool,
    batch: BatchPolicy,
    gates: Option<&PartialGates<'_>>,
) -> Result<()> {
    if structures.is_empty() {
        return Ok(());
    }
    let l = backend.node_count();
    let mut program = StepProgram::new();
    for &s in structures {
        let spec = backend.engine().def(s.table)?.partitioning.clone();
        let method = s.method();
        program = program.stage(move |ctx, _| {
            let mut by_dst: Vec<Vec<Row>> = vec![Vec::new(); l];
            for (row, grid) in placed {
                if grid.node != ctx.id() {
                    continue;
                }
                let entry = s.entry(row, *grid)?;
                // One destination for hash (and salted-heavy) entries;
                // every spread-set replica for a replicated heavy value.
                let dsts = spec.route_all(&entry, l, 0)?;
                // An AR write is the method's routed work; a GI's fan-out
                // metric counts only its probe fan-out K.
                if ctx.tracing() && method == MethodTag::AuxRel {
                    chain::trace_route(ctx, method, entry.try_get(s.key_pos())?, dsts.len() as u64);
                }
                for dst in dsts {
                    match batch {
                        BatchPolicy::Coalesced => by_dst[dst.index()].push(entry.clone()),
                        BatchPolicy::PerRow => ctx.send(
                            dst,
                            NetPayload::DeltaRows {
                                table: s.table,
                                rows: vec![entry.clone()],
                            },
                        )?,
                    }
                }
            }
            let messages = by_dst.into_iter().map(|rows| NetPayload::DeltaRows {
                table: s.table,
                rows,
            });
            chain::send_per_destination(ctx, messages.collect())?;
            Ok(Vec::new())
        });
        let key_pos = s.key_pos();
        let holes = gates.and_then(|g| g.structure_holes(s.table));
        program = program.local_stage(move |ctx, _| {
            let mut applied = 0u64;
            let mut pending = chain::PendingInserts::default();
            for env in ctx.drain() {
                let NetPayload::DeltaRows { table, rows } = env.payload else {
                    return Err(PvmError::InvalidOperation(
                        "unexpected payload during structure update".into(),
                    ));
                };
                for r in rows {
                    if let Some(h) = holes {
                        if h.contains(r.try_get(key_pos)?) {
                            continue; // evicted entry: the hole persists
                        }
                    }
                    if insert {
                        pending.push(ctx.node, table, r)?;
                    } else {
                        ctx.node.delete_row(table, &r, &[key_pos])?;
                    }
                    applied += 1;
                }
            }
            pending.flush(ctx.node)?;
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
