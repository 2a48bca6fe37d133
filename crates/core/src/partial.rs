//! Partial state: bounded-memory views with upquery-on-miss.
//!
//! The paper worries that "the parallel RDBMS may not have enough disk
//! space" for the auxiliary structures; partial state attacks the same
//! pressure from the memory side. A [`PartialPolicy`] puts a per-node
//! byte budget on a maintained view: view partitions, AR entries, and GI
//! entries for *cold* keys are dropped as **holes** under size-aware LRU
//! eviction, and a read that hits a hole recomputes just that key's join
//! result from the base relations — an **upquery** — charged on the same
//! counted-cost ledger as maintenance.
//!
//! Division of labour:
//!
//! * `PartialState` (here) owns the hole sets, the per-entry byte
//!   accounting ([`PartialBudget`]), the admission sketch, and the
//!   `dropped_at` epoch map that keeps pinned-snapshot reads exact.
//! * The stage programs that touch storage — upquery, structure refill,
//!   eviction deletes, point reads — are free functions here, invoked by
//!   the partial-state half of `MaintainedView` at the bottom of this
//!   file (the batch lifecycle itself lives in [`crate::view`]).
//! * `crate::chain::PartialGates` lends the live hole sets to one
//!   batch's stage closures (borrowed, not copied); dropped keys flow
//!   back and become `dropped_at` entries at commit.
//! * Point work — a stored-view read, an eviction delete — runs on the
//!   coordinator at only the key's home node, never as a step across all
//!   `L` nodes.
//!
//! ## Exactness rules
//!
//! A read of key `k` at epoch `e`:
//!
//! * `dropped_at[k] > e` — refused (`snapshot too old`): deltas for `k`
//!   were discarded after `e`, and eviction purged `k`'s delta-chain
//!   history, so no tier can reconstruct the old state. The reader
//!   retries at the current epoch.
//! * `k` is a hole and `dropped_at[k] <= e` — an upquery against the
//!   *current* base relations is exact: every delta affecting `k` since
//!   `dropped_at[k]` was dropped (else `dropped_at[k]` would be larger),
//!   so `k`'s join result has not changed between `e` and now.
//! * `k` resident — the normal read path.
//!
//! Structure (AR / GI) holes never affect read exactness: they are
//! refilled from the *other* relation's base fragments — unchanged by
//! the in-flight delta — before the compute phase probes them. Structure
//! holes are only maintained for two-relation views; wider views keep
//! their structures eager (the view partitions are still partial).

use std::collections::{BTreeSet, HashMap, HashSet};

use pvm_engine::{
    Backend, Cluster, NetPayload, PartialBudget, PartialPolicy, PartitionSpec, SpaceSaving, TableId,
};
use pvm_obs::MethodTag;
use pvm_types::{GlobalRid, NodeId, PvmError, Result, Rid, Row, Value};

use pvm_storage::Organization;

use crate::chain::{self, BatchPolicy, JoinPolicy, PartialGates};
use crate::structure::{Probes, Structure, StructureKind};
use crate::view::{MaintainedView, MaintenanceMethod, ViewHandle};

/// One evictable maintenance structure of a two-relation partial view.
#[derive(Debug, Clone)]
pub(crate) struct StructInfo {
    /// The AR / GI: its table, join column and entry kind.
    pub s: Structure,
    /// The base relation the entries are derived from.
    pub source_rel: usize,
    pub source_table: TableId,
    /// Column of the *other* relation whose delta rows probe this
    /// structure (well-defined because structure holes are gated to
    /// two-relation views).
    pub probe_col_other: usize,
    /// The structure table's partitioning — routes refilled entries and
    /// mirrors byte accounting on the coordinator.
    pub spec: PartitionSpec,
}

/// Point-in-time counters for introspection (`pvm_views`, bench).
#[derive(Debug, Clone, Copy, Default)]
pub struct PartialStats {
    pub budget_bytes: u64,
    pub resident_bytes: u64,
    pub holes: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl PartialStats {
    /// Fraction of key reads served without an upquery.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// All partial-state bookkeeping of one maintained view.
#[derive(Debug)]
pub(crate) struct PartialState {
    pub policy: PartialPolicy,
    /// Size-aware LRU ledger over every resident entry (view partitions
    /// and structure entries alike).
    pub budget: PartialBudget,
    /// Traffic sketch over view partition keys (reads and captured
    /// writes) — its heavy set is eviction-protected until last resort.
    pub sketch: SpaceSaving,
    /// View partition keys currently evicted.
    pub holes: HashSet<Value>,
    /// Key → epoch of the latest commit that dropped deltas for it.
    /// Monotone per key; never removed (it is the permanent floor below
    /// which reads of the key are refused).
    pub dropped_at: HashMap<Value, u64>,
    /// Keys whose deltas were dropped by the batch in flight; assigned a
    /// `dropped_at` epoch when the batch commits.
    pending_dropped: BTreeSet<Value>,
    /// Structure-entry holes per AR / GI table.
    pub struct_holes: HashMap<TableId, HashSet<Value>>,
    /// The evictable structures (empty for views wider than two
    /// relations).
    pub structs: Vec<StructInfo>,
    l: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl PartialState {
    pub fn new(policy: PartialPolicy, l: usize, structs: Vec<StructInfo>) -> PartialState {
        let mut struct_holes = HashMap::new();
        for info in &structs {
            struct_holes.insert(info.s.table, HashSet::new());
        }
        PartialState {
            budget: PartialBudget::new(l, policy.budget_bytes),
            sketch: SpaceSaving::new(policy.sketch_capacity),
            policy,
            holes: HashSet::new(),
            dropped_at: HashMap::new(),
            pending_dropped: BTreeSet::new(),
            struct_holes,
            structs,
            l,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Home node of a view partition key (the view table is
    /// hash-partitioned on its partitioning attribute) — the node
    /// [`read_stored_key`] and [`delete_matching`] visit.
    fn home(&self, v: &Value) -> usize {
        // `l` comes from a live cluster, so routing cannot fail.
        PartitionSpec::route_value(v, self.l).map_or(0, |n| n.index())
    }

    /// Lend the live hole sets to one batch's stage closures. Nothing is
    /// copied: the sets do not change while the batch runs, and the
    /// borrow ends when the caller takes the dropped keys out
    /// ([`PartialGates::into_dropped`]).
    pub fn gates(&self) -> PartialGates<'_> {
        PartialGates::new(&self.holes, &self.struct_holes)
    }

    /// Record the keys a batch's gates dropped; they get their
    /// `dropped_at` epoch at commit.
    pub fn note_batch_dropped(&mut self, dropped: BTreeSet<Value>) {
        self.pending_dropped.extend(dropped);
    }

    pub fn clear_pending(&mut self) {
        self.pending_dropped.clear();
    }

    /// Mirror the byte cost of this batch's AR / GI updates on the
    /// coordinator. Exact: the skip condition and the destination set
    /// (`route_all` with sequence 0) are computed exactly as the node
    /// stages compute them, so charged bytes equal stored bytes.
    pub fn account_struct_delta(
        &mut self,
        rel: usize,
        placed: &[(Row, pvm_types::GlobalRid)],
        insert: bool,
    ) -> Result<()> {
        let mut ops: Vec<(TableId, Value, usize, u64)> = Vec::new();
        for info in &self.structs {
            if info.source_rel != rel {
                continue;
            }
            let holes = self.struct_holes.get(&info.s.table);
            for (row, grid) in placed {
                let v = &row[info.s.col];
                if holes.is_some_and(|h| h.contains(v)) {
                    continue;
                }
                let entry = info.s.entry(row, *grid)?;
                let dsts = info.spec.route_all(&entry, self.l, 0)?;
                let node = dsts.first().map_or(0, |d| d.index());
                let bytes = entry.byte_size() as u64 * dsts.len() as u64;
                ops.push((info.s.table, v.clone(), node, bytes));
            }
        }
        for (table, v, node, bytes) in ops {
            let key = (table, v);
            if insert {
                self.budget.charge(key, node, bytes);
            } else {
                self.budget.release(&key, bytes);
            }
        }
        Ok(())
    }

    /// Fold a committed batch into the ledger: captured view changes
    /// adjust residency bytes (hole rows were never captured), observed
    /// keys feed the admission sketch, and this batch's dropped keys get
    /// the committing epoch as their `dropped_at`.
    pub fn on_commit(
        &mut self,
        epoch: u64,
        pcol: usize,
        view_table: TableId,
        captured: &[(Row, bool)],
    ) {
        for (row, ins) in captured {
            let k = &row[pcol];
            self.sketch.observe(k);
            let key = (view_table, k.clone());
            let node = self.home(k);
            let bytes = row.byte_size() as u64;
            if *ins {
                self.budget.charge(key, node, bytes);
            } else {
                self.budget.release(&key, bytes);
            }
        }
        for k in std::mem::take(&mut self.pending_dropped) {
            self.sketch.observe(&k);
            self.dropped_at.insert(k, epoch);
        }
    }

    /// View keys the sketch currently calls heavy — evicted only as a
    /// last resort.
    pub fn heavy_keys(&self) -> HashSet<Value> {
        self.sketch
            .heavy_values(self.policy.heavy_share)
            .into_iter()
            .collect()
    }

    pub fn stats(&self) -> PartialStats {
        PartialStats {
            budget_bytes: self.budget.budget_bytes(),
            resident_bytes: self.budget.total_resident(),
            holes: self.holes.len() as u64,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

/// Discover the evictable structures of a two-relation view: one
/// [`StructInfo`] per AR / GI, with the probe column of the
/// opposite relation resolved from the join edge.
pub(crate) fn collect_structs(
    cluster: &Cluster,
    handle: &ViewHandle,
    probes: &Probes,
) -> Result<Vec<StructInfo>> {
    debug_assert_eq!(handle.def.relation_count(), 2);
    let other_col = |rel: usize, col: usize| -> Result<usize> {
        handle
            .def
            .edges
            .iter()
            .find(|e| e.end_on(rel).is_some_and(|vc| vc.col == col))
            .and_then(|e| e.other_end(rel))
            .map(|vc| vc.col)
            .ok_or_else(|| PvmError::InvalidReference(format!("no join edge on ({rel}, {col})")))
    };
    let mut out = Vec::new();
    for (&(rel, col), s) in &probes.0 {
        out.push(StructInfo {
            s: s.clone(),
            source_rel: rel,
            source_table: handle.base[rel],
            probe_col_other: other_col(rel, col)?,
            spec: cluster.def(s.table)?.partitioning.clone(),
        });
    }
    // Fix one order so every backend (and every run) accounts and
    // refills the same way.
    out.sort_by_key(|info| info.s.table);
    Ok(out)
}

/// Recompute one view key's join result from the base relations and
/// install it into the stored view — the upquery. Anchored on the view's
/// partitioning attribute: every node pulls its fragment's matching
/// anchor rows, the planner's chain joins the remaining relations with
/// naive-style base-table probes (never through AR / GI structures, so
/// structure holes cannot poison the result), and the ship stage routes
/// finished rows to the view's home nodes. Returns the captured physical
/// view-row changes (all inserts).
///
/// The caller is responsible for removing the key from its hole set and
/// charging the installed bytes.
pub(crate) fn run_upquery<B: Backend>(
    backend: &mut B,
    handle: &ViewHandle,
    policy: JoinPolicy,
    batch: BatchPolicy,
    method: MethodTag,
    key: &Value,
) -> Result<Vec<(Row, bool)>> {
    let l = backend.node_count();
    let anchor = handle.def.partition_attr();
    let atable = handle.base[anchor.rel];
    let adef = backend.engine().def(atable)?;
    // When the anchor relation is partitioned on the anchor column, only
    // its probe nodes can hold matches — skip the search elsewhere.
    let probe_set: Option<Vec<NodeId>> = if adef.partitioning.is_on(anchor.col) {
        Some(adef.partitioning.probe_nodes(key, l, 0)?)
    } else {
        None
    };
    let acol = anchor.col;
    let k = key.clone();
    let program = pvm_engine::StepProgram::new().local_stage(move |ctx, _| {
        if probe_set.as_ref().is_some_and(|s| !s.contains(&ctx.id())) {
            return Ok(Vec::new());
        }
        ctx.node
            .index_search(atable, &[acol], &Row::new(vec![k.clone()]))
    });
    let (program, layout) = chain::push_chain(
        backend,
        program,
        handle,
        &Probes::default(),
        anchor.rel,
        policy,
        batch,
        method,
    )?;
    let (shipped, sinks) = chain::sinks([(handle, true, None)]);
    let program = chain::push_ship(program, &layout, &shipped, &sinks, l, method)?;
    backend.run_stages(chain::empty_staged(l), &program)?;
    let mut applied = chain::apply_shipped(backend, &sinks, true, method)?;
    Ok(applied.swap_remove(0).1)
}

/// Rebuild one structure's entries for `needed` key values from its
/// source relation's base fragments. Returns the installed entry rows
/// per node, for exact byte accounting. Exact because refill runs
/// *before* the compute phase probes the structure, and the source
/// relation is untouched by the delta being applied (it is the other
/// relation of a two-way join).
pub(crate) fn run_refill<B: Backend>(
    backend: &mut B,
    info: &StructInfo,
    needed: &BTreeSet<Value>,
) -> Result<Vec<Vec<Row>>> {
    let l = backend.node_count();
    let (s, spec, source) = (&info.s, &info.spec, info.source_table);
    let values: Vec<Value> = needed.iter().cloned().collect();
    let mut program = pvm_engine::StepProgram::new();
    program = program.stage(move |ctx, _| {
        let mut by_dst: Vec<Vec<Row>> = vec![Vec::new(); l];
        for v in &values {
            let keyrow = Row::new(vec![v.clone()]);
            // A GI entry needs each match's rid, which only a secondary
            // index search yields; an AR entry needs the row alone, and
            // its source may be clustered on the join attribute.
            let matches: Vec<(Rid, Row)> = match s.kind {
                StructureKind::Gi => ctx.node.index_search_rids(source, &[s.col], &keyrow)?,
                StructureKind::Ar { .. } => (ctx.node.index_search(source, &[s.col], &keyrow)?)
                    .into_iter()
                    .map(|row| (Rid::new(0, 0), row))
                    .collect(),
            };
            for (rid, row) in matches {
                let entry = s.entry(&row, GlobalRid::new(ctx.id(), rid))?;
                for dst in spec.route_all(&entry, l, 0)? {
                    by_dst[dst.index()].push(entry.clone());
                }
            }
        }
        for (dst, rows) in by_dst.into_iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            ctx.send(
                NodeId::from(dst),
                NetPayload::DeltaRows {
                    table: s.table,
                    rows,
                },
            )?;
        }
        Ok(Vec::new())
    });
    program = program.local_stage(move |ctx, _| {
        let mut installed = Vec::new();
        for env in ctx.drain() {
            let NetPayload::DeltaRows { table: t, rows } = env.payload else {
                return Err(PvmError::InvalidOperation(
                    "unexpected payload during partial refill".into(),
                ));
            };
            for row in rows {
                ctx.node.insert(t, row.clone())?;
                installed.push(row);
            }
        }
        if !installed.is_empty() {
            ctx.count_work(installed.len() as u64);
        }
        Ok(installed)
    });
    backend.run_stages(chain::empty_staged(l), &program)
}

/// The one node storing `table`'s rows whose `col` equals `key`. A
/// partial view (never skew-handled) and its ARs / GIs are
/// hash-partitioned on their key column, so that is the key's hash home.
fn key_home(cluster: &Cluster, table: TableId, col: usize, key: &Value) -> Result<NodeId> {
    debug_assert_eq!(
        cluster.def(table)?.partitioning,
        PartitionSpec::hash(col),
        "partial point work routes by hash on the key column"
    );
    PartitionSpec::route_value(key, cluster.node_count())
}

/// Delete every stored row of `table` whose `col` equals `key` — the
/// eviction delete. Runs on the coordinator between steps, at only the
/// key's home node, so it costs the key's rows, not a search on all `L`
/// nodes. Returns the number of rows removed.
pub(crate) fn delete_matching<B: Backend>(
    backend: &mut B,
    table: TableId,
    col: usize,
    key: &Value,
) -> Result<u64> {
    let cluster = backend.engine_mut();
    let home = key_home(cluster, table, col, key)?;
    let obs = cluster.obs_handle();
    let node = cluster.node_mut(home)?;
    let keyrow = Row::new(vec![key.clone()]);
    let mut removed = 0u64;
    loop {
        let matches = node.index_search(table, &[col], &keyrow)?;
        if matches.is_empty() {
            break;
        }
        let mut progressed = false;
        for row in matches {
            if node.delete_row(table, &row, &[col])? {
                removed += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    if removed > 0 {
        pvm_engine::count_work(&obs, home, removed);
    }
    Ok(removed)
}

/// Point-read the stored view for one partition key (the non-serving
/// read path). Runs on the coordinator between steps, with no
/// [`Backend::step`]: only the key's home node is searched, so the read
/// charges one SEARCH (plus a FETCH per row on a heap view) there and
/// nothing anywhere else.
pub(crate) fn read_stored_key<B: Backend>(
    backend: &mut B,
    table: TableId,
    col: usize,
    key: &Value,
) -> Result<Vec<Row>> {
    let cluster = backend.engine_mut();
    let home = key_home(cluster, table, col, key)?;
    cluster
        .node_mut(home)?
        .index_search(table, &[col], &Row::new(vec![key.clone()]))
}

impl MaintainedView {
    /// Put this view under a per-node memory budget
    /// ([`PartialPolicy::budget_bytes`]): cold view partitions — and, for
    /// two-relation views, cold AR / GI entries — are evicted as *holes*
    /// under size-aware LRU, and a read that hits a hole recomputes just
    /// that key from the base relations ([`MaintainedView::read_key`]).
    ///
    /// Rejected for aggregate views (a group's fold state cannot be
    /// recomputed from one key's base rows alone), pool-shared ARs / GIs
    /// (other views read them eagerly), and skew-handled views (a
    /// rebalance rewrites the structures the accounting tracks).
    pub fn enable_partial<B: Backend>(
        &mut self,
        backend: &mut B,
        policy: PartialPolicy,
    ) -> Result<()> {
        if self.partial.is_some() {
            return Err(PvmError::InvalidOperation(format!(
                "view '{}' is already partial",
                self.handle.def.name
            )));
        }
        if self.handle.agg.is_some() {
            return Err(PvmError::InvalidOperation(
                "aggregate views cannot be partial: group state is not recomputable per key".into(),
            ));
        }
        if self.is_pool_shared() {
            return Err(PvmError::InvalidOperation(
                "views on pool-shared structures cannot be partial: their peers read them eagerly"
                    .into(),
            ));
        }
        if self.skew.is_some() {
            return Err(PvmError::InvalidOperation(
                "skew-handled views cannot be partial: rebalance invalidates the accounting".into(),
            ));
        }
        if self.has_open_batch() || backend.in_txn() {
            return Err(PvmError::InvalidOperation(
                "cannot enable partial state while a maintenance batch or transaction is open"
                    .into(),
            ));
        }
        let cluster = backend.engine_mut();
        // Upqueries probe the base relations naive-style regardless of
        // the view's method, so every join attribute — and the anchor
        // (partitioning) attribute — must be indexed.
        Probes::install(cluster, &self.handle, MaintenanceMethod::Naive)?;
        let anchor = self.handle.def.partition_attr();
        crate::chain::ensure_join_index(cluster, self.handle.base[anchor.rel], anchor.col)?;
        let structs = if self.handle.def.relation_count() == 2 {
            collect_structs(cluster, &self.handle, &self.probes)?
        } else {
            // Wider views keep their structures eager; only the view
            // partitions are partial.
            Vec::new()
        };
        // GI refill captures rids, which only a *secondary* index search
        // yields; a source relation clustered on the join attribute
        // satisfies `ensure_join_index` without one.
        for info in &structs {
            if info.s.kind == StructureKind::Gi {
                let (col, def) = (info.s.col, cluster.def(info.source_table)?);
                let clustered = matches!(
                    &def.organization,
                    Organization::Clustered { key } if key.as_slice() == [col]
                );
                if clustered {
                    let name = format!("{}_pq{col}", def.name);
                    cluster.create_secondary_index(info.source_table, name, vec![col])?;
                }
            }
        }
        let l = cluster.node_count();
        let mut state = PartialState::new(policy, l, structs);
        // Everything currently materialized is resident: charge it where
        // it is stored.
        let pcol = self.handle.view_pcol;
        let seeds: Vec<(TableId, usize)> = state
            .structs
            .iter()
            .map(|info| (info.s.table, info.s.key_pos()))
            .collect();
        for n in cluster.nodes() {
            let node = n.id().index();
            for (_, row) in n.storage(self.handle.view_table)?.scan()? {
                state.budget.charge(
                    (self.handle.view_table, row[pcol].clone()),
                    node,
                    row.byte_size() as u64,
                );
            }
            for &(table, key_col) in &seeds {
                for (_, row) in n.storage(table)?.scan()? {
                    state.budget.charge(
                        (table, row[key_col].clone()),
                        node,
                        row.byte_size() as u64,
                    );
                }
            }
        }
        self.partial = Some(state);
        // Evict straight down to the budget.
        self.enforce_partial_budget(backend)?;
        Ok(())
    }

    /// Partial-state counters, when enabled.
    pub fn partial_stats(&self) -> Option<PartialStats> {
        self.partial.as_ref().map(|p| p.stats())
    }

    /// View keys currently evicted, sorted — the scan path upqueries
    /// these before reading ([`MaintainedView::ensure_all_resident`]).
    pub fn partial_holes(&self) -> Vec<Value> {
        match &self.partial {
            Some(p) => {
                let mut keys: Vec<Value> = p.holes.iter().cloned().collect();
                keys.sort();
                keys
            }
            None => Vec::new(),
        }
    }

    /// Refuse a full-scan read at `epoch` when any key's eviction fence
    /// sits above it: eviction purged that key's chain history from the
    /// serve tier, so the snapshot is no longer reconstructible. A no-op
    /// for non-partial views and current-epoch reads.
    pub fn verify_scan_epoch(&self, epoch: u64) -> Result<()> {
        let Some(p) = &self.partial else {
            return Ok(());
        };
        if let Some((k, &d)) = p.dropped_at.iter().find(|(_, &d)| d > epoch) {
            return Err(PvmError::InvalidOperation(format!(
                "snapshot too old: key {k} of partial view '{}' was evicted at epoch {d} \
                 (reading at {epoch}); retry at the current epoch",
                self.handle.def.name
            )));
        }
        Ok(())
    }

    /// Make `key` readable at `epoch`: refuse reads below the key's
    /// `dropped_at` floor (eviction purged that history everywhere — the
    /// reader must retry at the current epoch), upquery if the key is a
    /// hole, and record the hit / miss. A no-op for non-partial views.
    /// Budget enforcement is left to the caller so a freshly installed
    /// result cannot be evicted before it is read.
    pub fn ensure_key_resident<B: Backend>(
        &mut self,
        backend: &mut B,
        key: &Value,
        epoch: u64,
    ) -> Result<()> {
        let view_table = self.handle.view_table;
        let batch_open = self.has_open_batch();
        let Some(p) = &mut self.partial else {
            return Ok(());
        };
        if let Some(&d) = p.dropped_at.get(key) {
            if d > epoch {
                return Err(PvmError::InvalidOperation(format!(
                    "snapshot too old: key {key} of partial view '{}' was evicted at epoch {d} \
                     (reading at {epoch}); retry at the current epoch",
                    self.handle.def.name
                )));
            }
        }
        if !p.holes.contains(key) {
            p.hits += 1;
            p.sketch.observe(key);
            p.budget.touch(&(view_table, key.clone()));
            let obs = backend.engine().obs_handle();
            if obs.enabled() {
                obs.metrics().counter(pvm_obs::metric::PARTIAL_HITS).inc();
                obs.metrics()
                    .histogram(pvm_obs::metric::PARTIAL_HIT_RATE)
                    .observe(1000);
            }
            return Ok(());
        }
        // Miss: recompute the key from the base relations. Exact because
        // every delta for the key since `dropped_at[key]` was dropped —
        // its join result has not moved since `epoch` (see the module
        // docs of `crate::partial`).
        if backend.in_txn() || batch_open {
            return Err(PvmError::InvalidOperation(
                "cannot upquery a partial view while a transaction or maintenance batch is open"
                    .into(),
            ));
        }
        p.misses += 1;
        p.sketch.observe(key);
        let t0 = std::time::Instant::now();
        let changes = run_upquery(
            backend,
            &self.handle,
            self.policy,
            self.batch,
            self.method_tag(),
            key,
        )?;
        let rows: Vec<Row> = changes
            .into_iter()
            .filter(|(_, ins)| *ins)
            .map(|(r, _)| r)
            .collect();
        let p = self.partial.as_mut().expect("partial");
        p.holes.remove(key);
        let node = p.home(key);
        let bytes: u64 = rows.iter().map(|r| r.byte_size() as u64).sum();
        p.budget.charge((view_table, key.clone()), node, bytes);
        if let Some(serve) = &self.serve {
            // Fold the result into the serve-tier base — no epoch is
            // published; `dropped_at` already fences stale readers.
            serve.install_rows(&rows);
        }
        let obs = backend.engine().obs_handle();
        if obs.enabled() {
            let m = obs.metrics();
            m.counter(pvm_obs::metric::PARTIAL_MISSES).inc();
            m.histogram(pvm_obs::metric::PARTIAL_HIT_RATE).observe(0);
            m.histogram(pvm_obs::metric::PARTIAL_UPQUERY_US)
                .observe(t0.elapsed().as_micros() as u64);
        }
        Ok(())
    }

    /// Upquery every hole (in sorted key order, for determinism) so a
    /// full scan at the current epoch sees the complete view. Returns the
    /// number of upqueries issued. The caller should
    /// [`MaintainedView::enforce_partial_budget`] after its read.
    pub fn ensure_all_resident<B: Backend>(&mut self, backend: &mut B) -> Result<u64> {
        let keys = self.partial_holes();
        let epoch = self.epoch;
        for k in &keys {
            self.ensure_key_resident(backend, k, epoch)?;
        }
        Ok(keys.len() as u64)
    }

    /// Point-read the view at its current epoch, upquerying on a miss:
    /// the partial read path. Serves from the MVCC snapshot tier when
    /// enabled (uncharged), else from the stored view table at only the
    /// key's home node, with no step: one SEARCH plus a FETCH per row on a
    /// heap view, charged to that node alone. Works on non-partial views
    /// too (plain point read).
    pub fn read_key<B: Backend>(&mut self, backend: &mut B, key: &Value) -> Result<Vec<Row>> {
        let epoch = self.epoch;
        self.ensure_key_resident(backend, key, epoch)?;
        let rows = match &self.serve {
            Some(serve) => serve.reader().snapshot().lookup(self.handle.view_pcol, key),
            None => read_stored_key(backend, self.handle.view_table, self.handle.view_pcol, key)?,
        };
        self.enforce_partial_budget(backend)?;
        Ok(rows)
    }

    /// Evict entries until every node is back under the policy budget:
    /// delete each victim's stored rows, purge its serve-tier history,
    /// install the hole, and (for view keys) stamp `dropped_at` with the
    /// current epoch. Heavy keys per the admission sketch go last.
    /// Deferred while a transaction or maintenance batch is open — a
    /// rolled-back delete would corrupt the accounting; the next
    /// post-commit call catches up. Returns the number of entries
    /// evicted.
    pub fn enforce_partial_budget<B: Backend>(&mut self, backend: &mut B) -> Result<u64> {
        let Some(p) = &self.partial else {
            return Ok(0);
        };
        if backend.in_txn() || self.has_open_batch() {
            return Ok(0);
        }
        let view_table = self.handle.view_table;
        let pcol = self.handle.view_pcol;
        let victims = if p.budget.over_budget() {
            let heavy = p.heavy_keys();
            p.budget
                .plan_evictions(|(t, v)| *t == view_table && heavy.contains(v))
        } else {
            Vec::new()
        };
        let epoch = self.epoch;
        let mut evicted = 0u64;
        for key in victims {
            let (table, v) = &key;
            if *table == view_table {
                delete_matching(backend, view_table, pcol, v)?;
                if let Some(serve) = &self.serve {
                    serve.purge_matching(pcol, v);
                }
                let p = self.partial.as_mut().expect("partial");
                p.holes.insert(v.clone());
                p.dropped_at.insert(v.clone(), epoch);
                p.budget.remove(&key);
                p.evictions += 1;
            } else {
                let Some(col) = self
                    .partial
                    .as_ref()
                    .expect("partial")
                    .structs
                    .iter()
                    .find(|info| info.s.table == *table)
                    .map(|info| info.s.key_pos())
                else {
                    continue;
                };
                delete_matching(backend, *table, col, v)?;
                let p = self.partial.as_mut().expect("partial");
                p.struct_holes.entry(*table).or_default().insert(v.clone());
                p.budget.remove(&key);
                p.evictions += 1;
            }
            evicted += 1;
        }
        let p = self.partial.as_ref().expect("partial");
        let obs = backend.engine().obs_handle();
        if obs.enabled() {
            let m = obs.metrics();
            if evicted > 0 {
                m.counter(pvm_obs::metric::PARTIAL_EVICTIONS).add(evicted);
            }
            m.histogram(pvm_obs::metric::PARTIAL_RESIDENT_BYTES)
                .observe(p.budget.total_resident());
        }
        Ok(evicted)
    }

    /// Rebuild the structure entries the incoming delta will probe, for
    /// values that are currently holes — from the *other* relation's base
    /// fragments, which this delta does not touch, so the refilled
    /// entries are exact before the compute phase reads them.
    pub(crate) fn partial_refill<B: Backend>(
        &mut self,
        backend: &mut B,
        rel: usize,
        placed: &[(Row, pvm_types::GlobalRid)],
    ) -> Result<()> {
        let Some(p) = &self.partial else {
            return Ok(());
        };
        if p.structs.is_empty() {
            return Ok(());
        }
        let mut jobs: Vec<(StructInfo, BTreeSet<Value>)> = Vec::new();
        for info in &p.structs {
            if info.source_rel == rel {
                // The delta's own structures are *updated* (hole-gated),
                // never probed by this delta.
                continue;
            }
            let Some(holes) = p.struct_holes.get(&info.s.table) else {
                continue;
            };
            if holes.is_empty() {
                continue;
            }
            let mut needed = BTreeSet::new();
            for (row, _) in placed {
                let v = &row[info.probe_col_other];
                if holes.contains(v) {
                    needed.insert(v.clone());
                }
            }
            if !needed.is_empty() {
                jobs.push((info.clone(), needed));
            }
        }
        for (info, needed) in jobs {
            let installed = run_refill(backend, &info, &needed)?;
            let p = self.partial.as_mut().expect("partial");
            let (table, key_pos) = (info.s.table, info.s.key_pos());
            for (node, rows) in installed.iter().enumerate() {
                for row in rows {
                    p.budget
                        .charge((table, row[key_pos].clone()), node, row.byte_size() as u64);
                }
            }
            if let Some(h) = p.struct_holes.get_mut(&table) {
                for v in &needed {
                    h.remove(v);
                }
            }
        }
        Ok(())
    }
}
