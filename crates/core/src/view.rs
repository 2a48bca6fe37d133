//! [`MaintainedView`]: a materialized join view plus the machinery that
//! keeps it consistent under one of the three maintenance methods, and
//! [`maintain`] — the one maintenance loop every delta goes through.
//! (The partial-state and skew-handling parts of `MaintainedView` live in
//! [`crate::partial`] and [`crate::skew`].)

use pvm_engine::{exec, Backend, Cluster, MeterReport, PartitionSpec, TableDef, TableId};
use pvm_obs::MethodTag;
use pvm_serve::{ServePublisher, ServeReader};
use pvm_storage::Organization;
use pvm_types::{PvmError, Result, Row};

use crate::aggregate::AggShape;
use crate::chain::{self, BatchPolicy, JoinPolicy};
use crate::delta::Delta;
use crate::partial::PartialState;
use crate::share::{self, SharedCatalog};
use crate::skew::SkewState;
use crate::structure::Probes;
use crate::viewdef::JoinViewDef;

/// The three maintenance methods of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaintenanceMethod {
    /// §2.1.1: broadcast deltas, probe base fragments at every node.
    Naive,
    /// §2.1.2: σπ copies partitioned on join attributes, single-node work.
    AuxiliaryRelation,
    /// §2.1.3: join-attribute → global-rid indices, few-node work.
    GlobalIndex,
}

impl MaintenanceMethod {
    pub fn label(&self) -> &'static str {
        match self {
            MaintenanceMethod::Naive => "naive",
            MaintenanceMethod::AuxiliaryRelation => "auxiliary relation",
            MaintenanceMethod::GlobalIndex => "global index",
        }
    }
}

/// The advisor's pick ([`crate::advise`]) as the method to create with.
impl From<pvm_model::Recommendation> for MaintenanceMethod {
    fn from(r: pvm_model::Recommendation) -> Self {
        match r {
            pvm_model::Recommendation::Naive => MaintenanceMethod::Naive,
            pvm_model::Recommendation::AuxiliaryRelation => MaintenanceMethod::AuxiliaryRelation,
            pvm_model::Recommendation::GlobalIndex => MaintenanceMethod::GlobalIndex,
        }
    }
}

/// Resolved identifiers shared by all method implementations.
#[derive(Debug, Clone)]
pub struct ViewHandle {
    pub def: JoinViewDef,
    /// Base table ids in definition order.
    pub base: Vec<TableId>,
    /// The view's stored table.
    pub view_table: TableId,
    /// Position (in the view schema) of the partitioning attribute.
    pub view_pcol: usize,
    /// Grouping/aggregation shape for aggregate join views; `None` for
    /// plain join views.
    pub agg: Option<crate::aggregate::AggShape>,
}

/// Cost report of one maintenance transaction, split into the paper's
/// phases. "update base relation" and "update view" are common to all
/// methods (§3.1.1 omits them from TW); what distinguishes the methods is
/// `aux` (the extra structure updates) plus `compute` (finding the view
/// delta).
#[derive(Debug, Clone)]
pub struct MaintenanceOutcome {
    /// Updating the base relation itself.
    pub base: MeterReport,
    /// Updating auxiliary relations / global indices of the updated
    /// relation (empty for the naive method).
    pub aux: MeterReport,
    /// Computing the changes to the view (redistribution + probes + joins
    /// + shipping results toward the view).
    pub compute: MeterReport,
    /// Applying the changes to the stored view.
    pub view: MeterReport,
    /// Join rows inserted into / deleted from the view.
    pub view_rows: u64,
    /// Physical view-row changes (`true` = insert, `false` = delete) in
    /// application order — captured only while the view is serving
    /// snapshots, then drained into the open batch for publication at
    /// commit. Empty otherwise.
    pub view_changes: Vec<(Row, bool)>,
}

impl MaintenanceOutcome {
    /// The paper's per-method TW (aux + compute), in I/Os.
    pub fn tw_io(&self) -> f64 {
        self.aux.total_workload_io() + self.compute.total_workload_io()
    }

    /// The §3.3 measured quantity: computing the view changes only.
    pub fn compute_io(&self) -> f64 {
        self.compute.total_workload_io()
    }

    /// Busiest-node response time over aux + compute (I/Os).
    pub fn response_io(&self) -> f64 {
        self.aux
            .per_node
            .iter()
            .zip(&self.compute.per_node)
            .map(|(a, c)| {
                pvm_types::IoWeights::default().total(a) + pvm_types::IoWeights::default().total(c)
            })
            .fold(0.0, f64::max)
    }

    /// Charged interconnect messages across all phases.
    pub fn sends(&self) -> u64 {
        self.base.sends() + self.aux.sends() + self.compute.sends() + self.view.sends()
    }

    /// Nodes that did abstract work in the compute phase — all-node vs.
    /// few-node vs. single-node, the paper's headline distinction.
    pub fn compute_active_nodes(&self) -> usize {
        self.compute.active_nodes()
    }

    /// Every phase reporting `report`, nothing maintained.
    pub(crate) fn idle(report: MeterReport) -> MaintenanceOutcome {
        MaintenanceOutcome {
            base: report.clone(),
            aux: report.clone(),
            compute: report.clone(),
            view: report,
            view_rows: 0,
            view_changes: Vec::new(),
        }
    }

    pub(crate) fn merge(mut self, other: MaintenanceOutcome) -> MaintenanceOutcome {
        merge_reports(&mut self.base, &other.base);
        merge_reports(&mut self.aux, &other.aux);
        merge_reports(&mut self.compute, &other.compute);
        merge_reports(&mut self.view, &other.view);
        self.view_rows += other.view_rows;
        self.view_changes.extend(other.view_changes);
        self
    }
}

/// Accumulate `other`'s counters into `into` (per-node zip plus net).
fn merge_reports(into: &mut MeterReport, other: &MeterReport) {
    for (x, y) in into.per_node.iter_mut().zip(&other.per_node) {
        *x += *y;
    }
    into.net += other.net;
}

/// Observed counted costs of one committed maintenance batch, split into
/// the paper's phases — the raw material behind `EXPLAIN ANALYZE
/// MAINTENANCE` and the `pvm_metrics` view counters. Recorded only while
/// the cluster's obs gate is on; pure bookkeeping over already-computed
/// [`MeterReport`]s, so it can never move a counted cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCostRecord {
    /// Epoch the batch committed at.
    pub epoch: u64,
    /// Delta rows pushed through maintenance in this batch.
    pub delta_rows: u64,
    /// I/O charged to updating the base relation (recorded on the first
    /// joining view of a [`maintain`] round, which shares the base update
    /// across its views; 0 on the others).
    pub base_io: f64,
    /// I/O charged to auxiliary-structure updates (ARs / GI).
    pub aux_io: f64,
    /// I/O charged to computing the view delta (probe + join + ship).
    pub compute_io: f64,
    /// I/O charged to installing the view delta.
    pub view_io: f64,
    /// Busiest-node response time over aux + compute (I/Os).
    pub response_io: f64,
    /// Interconnect messages charged across all phases.
    pub sends: u64,
    /// Interconnect payload bytes across all phases.
    pub bytes: u64,
    /// Nodes that did abstract work in the compute phase.
    pub compute_nodes: u64,
}

impl BatchCostRecord {
    fn empty() -> Self {
        BatchCostRecord {
            epoch: 0,
            delta_rows: 0,
            base_io: 0.0,
            aux_io: 0.0,
            compute_io: 0.0,
            view_io: 0.0,
            response_io: 0.0,
            sends: 0,
            bytes: 0,
            compute_nodes: 0,
        }
    }

    /// The paper's TW for this batch: aux + compute I/O.
    pub fn tw_io(&self) -> f64 {
        self.aux_io + self.compute_io
    }

    fn add_outcome(&mut self, rows: u64, outcome: &MaintenanceOutcome) {
        self.delta_rows += rows;
        self.aux_io += outcome.aux.total_workload_io();
        self.compute_io += outcome.compute.total_workload_io();
        self.view_io += outcome.view.total_workload_io();
        self.response_io += outcome.response_io();
        self.sends += outcome.sends();
        self.bytes += outcome.aux.net.bytes_sent
            + outcome.compute.net.bytes_sent
            + outcome.view.net.bytes_sent;
        self.compute_nodes = self
            .compute_nodes
            .max(outcome.compute_active_nodes() as u64);
    }

    fn add_base(&mut self, base: &MeterReport) {
        self.base_io += base.total_workload_io();
        self.sends += base.sends();
        self.bytes += base.net.bytes_sent;
    }
}

/// One maintenance batch in flight: everything between a batch-begin and
/// its commit (one [`maintain`] round across its delete+insert phases). The epoch at
/// entry is recorded so commit can assert it never moved mid-batch.
#[derive(Debug)]
struct BatchState {
    entry_epoch: u64,
    /// Captured physical view-row changes, in application order —
    /// populated only while serving.
    captured: Vec<(Row, bool)>,
    /// Observed-cost accumulator — `Some` only while the obs gate is on.
    cost: Option<BatchCostRecord>,
}

/// A materialized join view maintained under a fixed method.
#[derive(Debug)]
pub struct MaintainedView {
    pub(crate) handle: ViewHandle,
    pub(crate) method: MaintenanceMethod,
    pub(crate) policy: JoinPolicy,
    pub(crate) batch: BatchPolicy,
    /// The structures the chain's steps probe: private to this view, or
    /// bindings to a [`SharedCatalog`]'s pool when `pooled`.
    pub(crate) probes: Probes,
    /// True when `probes` belong to a [`SharedCatalog`] pool: the pool
    /// updates them once per base delta (so this view skips its aux
    /// phase) and owns their tables (so [`MaintainedView::destroy`]
    /// leaves them alone).
    pub(crate) pooled: bool,
    /// Heavy-light skew handling: per-class traffic sketches, enabled via
    /// [`MaintainedView::enable_skew_handling`].
    pub(crate) skew: Option<SkewState>,
    /// Monotonic maintenance epoch: advances exactly once per committed
    /// batch, regardless of [`BatchPolicy`] and of how many delete/insert
    /// phases the batch contained.
    pub(crate) epoch: u64,
    /// The batch currently being applied, if any.
    open_batch: Option<BatchState>,
    /// Snapshot-serving tier, when enabled
    /// ([`MaintainedView::enable_serving`]): commit publishes each
    /// batch's captured view changes here at the new epoch.
    pub(crate) serve: Option<ServePublisher>,
    /// Batches committed inside a still-open cluster transaction:
    /// `(epoch, changes)` held back from the serving tier until the
    /// transaction's commit point ([`MaintainedView::publish_pending`]) —
    /// or rewound on abort ([`MaintainedView::discard_pending`]). Readers
    /// never observe an epoch that could still roll back.
    pending_publish: Vec<(u64, Vec<(Row, bool)>)>,
    /// Partial-state bookkeeping, when enabled
    /// ([`MaintainedView::enable_partial`]): hole sets, per-entry byte
    /// accounting, admission sketch, `dropped_at` epochs.
    pub(crate) partial: Option<PartialState>,
    /// Ring of the last [`MaintainedView::COST_HISTORY`] committed-batch
    /// cost records, newest last. Populated only while the obs gate is
    /// on; read by `EXPLAIN ANALYZE MAINTENANCE`.
    recent_costs: std::collections::VecDeque<BatchCostRecord>,
    /// Shared-maintenance group id, when a catalog planner has enrolled
    /// this view into one (see [`crate::share`]). Purely informational:
    /// grouping is recomputed per delta from live signatures; this id is
    /// what introspection surfaces.
    shared_group: Option<u64>,
}

impl MaintainedView {
    /// Create the view: validate the definition, materialize the view
    /// table (hash-partitioned on its partitioning attribute, with an
    /// index on it), install the method's structures, and populate
    /// everything from the current base contents.
    pub fn create(
        cluster: &mut Cluster,
        def: JoinViewDef,
        method: MaintenanceMethod,
    ) -> Result<MaintainedView> {
        MaintainedView::build(cluster, def, None, method, None)
    }

    /// Create an **aggregate** join view: `SELECT group…, COUNT/SUM …
    /// FROM join GROUP BY group…`, maintained under `method`. The
    /// underlying join's delta flows through the same machinery; shipped
    /// rows are folded into their groups at the group's home node. See
    /// [`crate::aggregate`].
    pub fn create_aggregate(
        cluster: &mut Cluster,
        def: JoinViewDef,
        shape: AggShape,
        method: MaintenanceMethod,
    ) -> Result<MaintainedView> {
        MaintainedView::build(cluster, def, Some(shape), method, None)
    }

    /// Create a view whose ARs / GIs are the shared ones of `catalog`'s
    /// pools (§2.1.2's one-structure-per-attribute sharing) instead of
    /// private copies. The pool for `method` must already cover this
    /// definition — plan + materialize, or enroll, it first. Maintain
    /// pooled views through [`maintain`] with the same catalog, so each
    /// shared structure is updated exactly once per base delta. (The
    /// naive method has no structures to share: this is then
    /// [`MaintainedView::create`].)
    pub fn create_pooled(
        cluster: &mut Cluster,
        def: JoinViewDef,
        method: MaintenanceMethod,
        catalog: &SharedCatalog,
    ) -> Result<MaintainedView> {
        MaintainedView::build(cluster, def, None, method, Some(catalog))
    }

    /// The one constructor body: view table + index + handle + probe
    /// structures (installed privately, or bound to `catalog`'s pools) +
    /// initial contents.
    fn build(
        cluster: &mut Cluster,
        def: JoinViewDef,
        agg: Option<AggShape>,
        method: MaintenanceMethod,
        catalog: Option<&SharedCatalog>,
    ) -> Result<MaintainedView> {
        def.validate(cluster)?;
        let base: Vec<TableId> = def
            .relations
            .iter()
            .map(|r| cluster.table_id(r))
            .collect::<Result<_>>()?;
        // Pool bindings resolve before anything is created, so a pool
        // that does not cover the definition fails without side effects.
        let bindings = match catalog {
            Some(catalog) if method != MaintenanceMethod::Naive => {
                Some(catalog.resolve(cluster, method, &def, &base)?)
            }
            _ => None,
        };

        let join_schema = def.view_schema(cluster)?;
        let (schema, view_pcol, index_name, index_cols) = match &agg {
            None => {
                let pcol = def.partition_column;
                (join_schema, pcol, format!("{}_part", def.name), vec![pcol])
            }
            // Stored rows lead with the group columns; partition on the
            // first so every update of a group lands on one node.
            Some(shape) => (
                shape.stored_schema(&def, &join_schema)?,
                0,
                format!("{}_groups", def.name),
                shape.stored_group_positions(),
            ),
        };
        let view_table = cluster.create_table(TableDef::new(
            def.name.clone(),
            schema.into_ref(),
            PartitionSpec::hash(view_pcol),
            Organization::Heap,
        ))?;
        cluster.create_secondary_index(view_table, index_name, index_cols)?;

        let handle = ViewHandle {
            def,
            base,
            view_table,
            view_pcol,
            agg,
        };
        let pooled = bindings.is_some();
        let probes = match bindings {
            Some(bindings) => {
                // A base relation partitioned on a join attribute serves
                // those probes itself; make it probeable, as the private
                // installs do.
                for (rel, &table) in handle.base.iter().enumerate() {
                    for c in handle.def.join_attrs_of(rel) {
                        if cluster.def(table)?.partitioning.is_on(c) {
                            chain::ensure_join_index(cluster, table, c)?;
                        }
                    }
                }
                bindings
            }
            None => Probes::install(cluster, &handle, method)?,
        };

        let view = MaintainedView {
            handle,
            method,
            policy: JoinPolicy::default(),
            batch: BatchPolicy::default(),
            probes,
            pooled,
            skew: None,
            epoch: 0,
            open_batch: None,
            serve: None,
            pending_publish: Vec::new(),
            partial: None,
            recent_costs: std::collections::VecDeque::new(),
            shared_group: None,
        };
        view.populate(cluster)?;
        Ok(view)
    }

    /// Choose how nodes join their delta shares with local fragments:
    /// [`crate::chain::JoinPolicy::IndexOnly`] (default; the access path
    /// the paper's figures stipulate) or
    /// [`crate::chain::JoinPolicy::CostBased`] (the §3.1.2
    /// index-vs-sort-merge choice, executed — large deltas switch to one
    /// local scan per node where that is cheaper).
    pub fn set_join_policy(&mut self, policy: crate::chain::JoinPolicy) {
        self.policy = policy;
    }

    /// The active join policy.
    pub fn join_policy(&self) -> crate::chain::JoinPolicy {
        self.policy
    }

    /// Choose how maintenance messages are packed:
    /// [`crate::chain::BatchPolicy::Coalesced`] (default; one multi-row
    /// message per populated destination, with grouped probes on the
    /// receive side) or [`crate::chain::BatchPolicy::PerRow`] (the
    /// one-message-per-delta-row pipeline, kept as the equivalence
    /// oracle). Both produce bit-identical view contents.
    pub fn set_batch_policy(&mut self, batch: crate::chain::BatchPolicy) {
        self.batch = batch;
    }

    /// The active batch policy.
    pub fn batch_policy(&self) -> crate::chain::BatchPolicy {
        self.batch
    }

    /// Bulk-load the view table from the current base contents (used at
    /// creation; not a maintenance path).
    fn populate(&self, cluster: &mut Cluster) -> Result<()> {
        let rows = self.recompute_expected(cluster)?;
        cluster.insert(self.handle.view_table, rows)?;
        Ok(())
    }

    pub fn method(&self) -> MaintenanceMethod {
        self.method
    }

    pub fn def(&self) -> &JoinViewDef {
        &self.handle.def
    }

    pub fn view_table(&self) -> TableId {
        self.handle.view_table
    }

    /// Tables of the method's auxiliary structures (AR tables, GI
    /// tables — the pool's, for a pool-bound view), sorted. Together
    /// with the view table and the base tables these are exactly the
    /// state a fault-equivalence check must find bit-identical to a
    /// fault-free run.
    pub fn method_tables(&self) -> Vec<TableId> {
        self.probes.tables()
    }

    /// True when this view's maintenance structures belong to a
    /// [`SharedCatalog`] pool (ARs from its `ars` pool, GIs from its
    /// `gis` pool) —
    /// [`MaintainedView::destroy`] leaves those tables alone.
    pub fn is_pool_shared(&self) -> bool {
        self.pooled
    }

    /// Shared-maintenance group id, when a catalog planner assigned one.
    pub fn shared_group(&self) -> Option<u64> {
        self.shared_group
    }

    /// Record (or clear) the shared-maintenance group this view belongs
    /// to. Informational — grouping is recomputed per delta from live
    /// signatures ([`crate::share`]); the id is what introspection shows.
    pub fn set_shared_group(&mut self, group: Option<u64>) {
        self.shared_group = group;
    }

    /// The pool structures this view would probe once bound to `catalog`
    /// — the read-only half of [`MaintainedView::bind_pool`]. Fails
    /// without mutating when the view cannot move (partial state) or the
    /// pool lacks a `(base, attr)` it probes.
    pub(crate) fn pool_bindings(
        &self,
        cluster: &Cluster,
        catalog: &SharedCatalog,
    ) -> Result<Probes> {
        if self.partial.is_some() {
            return Err(PvmError::InvalidOperation(
                "partial views cannot adopt a shared pool".into(),
            ));
        }
        catalog.resolve(cluster, self.method, &self.handle.def, &self.handle.base)
    }

    /// Point this view's chain at pool structures (from
    /// [`MaintainedView::pool_bindings`]): a private view drops its own
    /// AR / GI tables first; an already pool-bound view just rebinds.
    pub(crate) fn bind_pool(&mut self, cluster: &mut Cluster, bindings: Probes) -> Result<()> {
        if !self.pooled {
            for table in self.probes.tables() {
                cluster.drop_table(table)?;
            }
        }
        self.probes = bindings;
        self.pooled = true;
        Ok(())
    }

    /// Whether maintenance must capture physical view-row changes for
    /// this view: serving publishes them; partial accounting needs them
    /// too (and must see what was dropped at the gates).
    pub(crate) fn is_capturing(&self) -> bool {
        self.serve.is_some() || self.partial.is_some()
    }

    pub(crate) fn has_open_batch(&self) -> bool {
        self.open_batch.is_some()
    }

    /// Current contents of the stored view (cluster-wide).
    pub fn contents(&self, cluster: &Cluster) -> Result<Vec<Row>> {
        cluster.scan_all(self.handle.view_table)
    }

    /// Recompute the view from scratch via a full join — the correctness
    /// oracle every maintenance path is tested against, and what
    /// [`MaintainedView::create`] fills the view with. Rows come in join
    /// order (left-major, matches in scan order); an aggregate view's
    /// groups in key order.
    pub fn recompute_expected(&self, cluster: &Cluster) -> Result<Vec<Row>> {
        let projection = self.handle.def.projection_cols();
        match &self.handle.agg {
            None => {
                let mut rows = Vec::new();
                self.stream_recompute(cluster, |m| {
                    rows.push(exec::project_row(m, &projection)?);
                    Ok(())
                })?;
                Ok(rows)
            }
            Some(shape) => {
                let mut groups = crate::aggregate::Groups::new();
                self.stream_recompute(cluster, |m| {
                    shape.add_to(&mut groups, &exec::project_row(m, &projection)?)
                })?;
                Ok(groups.into_values().collect())
            }
        }
    }

    /// Stream the join of the view's base relations, scanned encoded in
    /// definition order, to `sink` ([`exec::stream_join`]).
    fn stream_recompute<'c>(
        &self,
        cluster: &'c Cluster,
        sink: impl FnMut(&[Vec<&'c [u8]>]) -> Result<()>,
    ) -> Result<()> {
        let relations: Vec<Vec<&[u8]>> = self
            .handle
            .base
            .iter()
            .map(|&id| cluster.scan_all_encoded(id))
            .collect::<Result<_>>()?;
        exec::stream_join(&relations, &self.handle.def.exec_edges(), sink)
    }

    /// Apply a delta on base relation `rel` (by definition index),
    /// maintaining base table, method structures, and the view. Returns
    /// the phase-split cost report. Works against any [`Backend`] — the
    /// sequential [`Cluster`] or a threaded runtime. This is [`maintain`]
    /// for a catalog of one private view; a pool-bound view is refused
    /// there (its pool would go stale) — maintain it through [`maintain`]
    /// with its [`SharedCatalog`].
    pub fn apply<B: Backend>(
        &mut self,
        backend: &mut B,
        rel: usize,
        delta: &Delta,
    ) -> Result<MaintenanceOutcome> {
        let Some(relation) = self.handle.def.relations.get(rel).cloned() else {
            return Err(PvmError::InvalidReference(format!(
                "relation {rel} out of range for view '{}'",
                self.handle.def.name
            )));
        };
        let mut outcomes = maintain(backend, None, &mut [self], &relation, delta)?;
        Ok(outcomes.pop().expect("one outcome per view"))
    }

    /// Open a maintenance batch: record the entry epoch so commit can
    /// assert that nothing advanced it mid-batch. One batch is exactly one
    /// epoch tick — [`MaintainedView::commit_batch`] is the *only* place
    /// the epoch moves, so Coalesced and PerRow batch policies (and
    /// multi-phase deltas) all advance it exactly once per applied batch.
    fn begin_batch(&mut self) {
        assert!(
            self.open_batch.is_none(),
            "view '{}': batch opened while another is in flight",
            self.handle.def.name
        );
        self.open_batch = Some(BatchState {
            entry_epoch: self.epoch,
            captured: Vec::new(),
            cost: None,
        });
    }

    /// Commit the open batch: advance the epoch by exactly one and — when
    /// serving — publish the batch's captured view changes at the new
    /// epoch (link first, epoch visible second; see `pvm-serve`). With
    /// `defer` set (a cluster transaction is open), the publication is
    /// held in `pending_publish` until [`MaintainedView::publish_pending`]
    /// runs at the transaction's commit point. `obs` gates the per-view
    /// metrics.
    fn commit_batch(&mut self, defer: bool, obs: &pvm_obs::Obs) {
        let batch = self
            .open_batch
            .take()
            .expect("batch commit without an open batch");
        assert_eq!(
            self.epoch, batch.entry_epoch,
            "view '{}': epoch advanced mid-batch under {:?} policy",
            self.handle.def.name, self.batch
        );
        self.epoch += 1;
        if let Some(mut cost) = batch.cost {
            cost.epoch = self.epoch;
            if self.recent_costs.len() == Self::COST_HISTORY {
                self.recent_costs.pop_front();
            }
            self.recent_costs.push_back(cost);
            // Publish the aggregate per-view counters under stable names;
            // counters never feed back into counted costs.
            if obs.enabled() {
                let m = obs.metrics();
                let name = &self.handle.def.name;
                m.counter(&pvm_obs::metric::view_batches(name)).inc();
                m.counter(&pvm_obs::metric::view_delta_rows(name))
                    .add(cost.delta_rows);
                m.counter(&pvm_obs::metric::view_tw_milli_io(name))
                    .add((cost.tw_io() * 1000.0).round() as u64);
                m.counter(&pvm_obs::metric::view_sends(name))
                    .add(cost.sends);
            }
        }
        if let Some(p) = &mut self.partial {
            // Hole rows were never captured, so captured changes are
            // exactly the resident-byte delta; keys the gates dropped get
            // this commit's epoch as their `dropped_at`.
            p.on_commit(
                self.epoch,
                self.handle.view_pcol,
                self.handle.view_table,
                &batch.captured,
            );
        }
        if self.serve.is_some() {
            if defer {
                self.pending_publish.push((self.epoch, batch.captured));
            } else {
                self.publish_pending();
                self.serve
                    .as_ref()
                    .expect("serving")
                    .publish(self.epoch, batch.captured);
            }
        }
    }

    /// Release every batch held back by an open transaction to the
    /// serving tier — the transaction's commit point. No-op when nothing
    /// is pending.
    pub fn publish_pending(&mut self) {
        if let Some(serve) = &self.serve {
            for (epoch, changes) in self.pending_publish.drain(..) {
                serve.publish(epoch, changes);
            }
        }
    }

    /// Drop every held-back publication and rewind the epoch to the last
    /// *published* state — the transaction abort path. Safe because
    /// readers never saw the pending epochs (nothing was published), and
    /// the engine's rollback restores the stored view to exactly the
    /// published state.
    pub fn discard_pending(&mut self) {
        self.epoch -= self.pending_publish.len() as u64;
        self.pending_publish.clear();
    }

    /// Drop the open batch (if any) without advancing the epoch — the
    /// failed maintenance path. Safe to call with no batch open.
    fn abort_batch(&mut self) {
        self.open_batch = None;
        if let Some(p) = &mut self.partial {
            p.clear_pending();
        }
    }

    /// Fold one phase's maintenance outcome into the open batch (the
    /// [`crate::share`] driver does so for every member): captured view
    /// changes drain into the batch, and the obs-gated cost record
    /// absorbs the outcome.
    pub(crate) fn note_outcome<B: Backend>(
        &mut self,
        backend: &B,
        delta_rows: u64,
        outcome: &mut MaintenanceOutcome,
    ) {
        let open = self
            .open_batch
            .as_mut()
            .expect("outcomes are noted inside the batch `maintain` opened");
        open.captured.append(&mut outcome.view_changes);
        if backend.engine().obs_handle().enabled() {
            open.cost
                .get_or_insert_with(BatchCostRecord::empty)
                .add_outcome(delta_rows, outcome);
        }
    }

    /// The view's maintenance epoch: 0 at creation, +1 per committed
    /// batch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// How many committed-batch cost records are retained for
    /// introspection ([`MaintainedView::recent_costs`]).
    pub const COST_HISTORY: usize = 32;

    /// Observed per-batch cost records, oldest first — at most
    /// [`MaintainedView::COST_HISTORY`] of them, recorded only while the
    /// cluster's obs gate was on at apply time.
    pub fn recent_costs(&self) -> impl ExactSizeIterator<Item = &BatchCostRecord> {
        self.recent_costs.iter()
    }

    /// Start serving MVCC snapshots of this view: seed a `pvm-serve`
    /// delta chain with the current contents at the current epoch, and
    /// from the next batch commit on publish every batch's physical view
    /// changes at its new epoch. Returns a cloneable [`ServeReader`] —
    /// hand one to each reader session/thread. The cluster's `Obs`
    /// handle gates the `serve.*` metrics, so serving charges nothing
    /// while observability is off.
    pub fn enable_serving<B: Backend>(&mut self, backend: &B) -> Result<ServeReader> {
        if self.serve.is_some() {
            return Err(PvmError::InvalidOperation(format!(
                "view '{}' is already serving snapshots",
                self.handle.def.name
            )));
        }
        if self.open_batch.is_some() || backend.in_txn() {
            return Err(PvmError::InvalidOperation(
                "cannot enable serving while a maintenance batch or transaction is open".into(),
            ));
        }
        let rows = self.contents(backend.engine())?;
        let publisher = ServePublisher::new(
            &self.handle.def.name,
            self.epoch,
            rows,
            Some(backend.engine().obs_handle()),
        );
        let reader = publisher.reader();
        self.serve = Some(publisher);
        Ok(reader)
    }

    /// A fresh read handle onto the serving tier, when enabled.
    pub fn serve_reader(&self) -> Option<ServeReader> {
        self.serve.as_ref().map(|p| p.reader())
    }

    pub(crate) fn method_tag(&self) -> MethodTag {
        match self.method {
            MaintenanceMethod::Naive => MethodTag::Naive,
            MaintenanceMethod::AuxiliaryRelation => MethodTag::AuxRel,
            MaintenanceMethod::GlobalIndex => MethodTag::GlobalIndex,
        }
    }

    /// Extra storage (pages) the method's structures occupy — zero for
    /// naive, σπ copies for AR, key+rid entries for GI.
    pub fn storage_overhead_pages(&self, cluster: &Cluster) -> Result<usize> {
        let mut pages = 0;
        for table in self.probes.tables() {
            pages += cluster.total_pages(table)?;
        }
        Ok(pages)
    }

    /// [`MaintainedView::apply`] wrapped in a cluster transaction — the
    /// paper's `begin transaction … end transaction`: base update,
    /// auxiliary-structure update, and view update commit or roll back as
    /// one unit. On error, every node's DML is undone (deleted rows come
    /// back at their original rids) and the error is returned.
    pub fn apply_atomic<B: Backend>(
        &mut self,
        backend: &mut B,
        rel: usize,
        delta: &Delta,
    ) -> Result<MaintenanceOutcome> {
        backend.begin_txn()?;
        match self.apply(backend, rel, delta) {
            Ok(outcome) => {
                backend.commit_txn()?;
                self.publish_pending();
                self.enforce_partial_budget(backend)?;
                Ok(outcome)
            }
            Err(e) => {
                backend.abort_txn()?;
                self.discard_pending();
                Err(e)
            }
        }
    }

    /// The join chain the planner would use for a delta on relation
    /// `rel`, with fan-outs estimated from current cluster statistics —
    /// the §2.2 choice, inspectable (`EXPLAIN MAINTENANCE` in pvm-sql).
    pub fn plan_for(&self, cluster: &Cluster, rel: usize) -> Result<Vec<crate::planner::PlanStep>> {
        crate::plan_with_stats(cluster, &self.handle, rel)
    }

    /// Tear the view down: drop its stored table and every maintenance
    /// structure it owns (private ARs / GIs). Pool-shared structures are
    /// left alone — other views may still read them. This is how the
    /// storage the paper worries about ("the parallel RDBMS may not have
    /// enough disk space") is handed back.
    pub fn destroy(self, cluster: &mut Cluster) -> Result<()> {
        cluster.drop_table(self.handle.view_table)?;
        if !self.pooled {
            for table in self.probes.tables() {
                cluster.drop_table(table)?;
            }
        }
        Ok(())
    }

    /// Verify the stored view equals the from-scratch recomputation, as
    /// multisets of encoded rows (two rows are equal exactly when their
    /// encodings are). The stored rows are counted in place, borrowed from
    /// the view's heap, and the recompute streams against the counts, so
    /// the check holds the view's size, not a decoded copy of the
    /// database. A divergence names how many rows are missing from the
    /// view and how many it holds extra, with one of each.
    pub fn check_consistent(&self, cluster: &Cluster) -> Result<()> {
        use pvm_storage::SeededMix;
        use std::borrow::Cow;
        use std::collections::HashMap;

        let stored = cluster.scan_all_encoded(self.handle.view_table)?;
        // Stored minus expected copies, per encoded row.
        let mut counts: HashMap<Cow<[u8]>, i64, SeededMix> =
            HashMap::with_capacity_and_hasher(stored.len(), SeededMix);
        for &tuple in &stored {
            *counts.entry(Cow::Borrowed(tuple)).or_default() += 1;
        }
        let mut expected = 0usize;
        let mut take = |row: &[u8]| {
            expected += 1;
            match counts.get_mut(row) {
                Some(n) => *n -= 1,
                None => {
                    counts.insert(Cow::Owned(row.to_vec()), -1);
                }
            }
        };
        match &self.handle.agg {
            None => {
                let projection = self.handle.def.projection_cols();
                let mut row = Vec::new();
                self.stream_recompute(cluster, |m| {
                    exec::project_encoded(m, &projection, &mut row)?;
                    take(&row);
                    Ok(())
                })?;
            }
            Some(_) => {
                for row in self.recompute_expected(cluster)? {
                    take(&row.encode());
                }
            }
        }
        let (mut missing, mut extra) = (Divergent::default(), Divergent::default());
        for (row, n) in &counts {
            match n.cmp(&0) {
                std::cmp::Ordering::Less => missing.note(row, -n),
                std::cmp::Ordering::Greater => extra.note(row, *n),
                std::cmp::Ordering::Equal => {}
            }
        }
        if missing.rows == 0 && extra.rows == 0 {
            return Ok(());
        }
        Err(PvmError::Corrupt(format!(
            "view '{}' diverged: {} stored vs {expected} expected rows; {} missing{}, {} extra{}",
            self.handle.def.name,
            stored.len(),
            missing.rows,
            missing.example(),
            extra.rows,
            extra.example(),
        )))
    }
}

/// One side of a [`MaintainedView::check_consistent`] divergence: how many
/// rows, and the least of them in encoded order as its example.
#[derive(Default)]
struct Divergent<'a> {
    rows: i64,
    least: Option<&'a [u8]>,
}

impl<'a> Divergent<'a> {
    fn note(&mut self, row: &'a [u8], copies: i64) {
        self.rows += copies;
        if self.least.map_or(true, |l| row < l) {
            self.least = Some(row);
        }
    }

    fn example(&self) -> String {
        match self.least.map(Row::decode) {
            None => String::new(),
            Some(Ok(row)) => format!(" (e.g. {row})"),
            Some(Err(_)) => " (e.g. an undecodable tuple)".to_owned(),
        }
    }
}

/// Apply a delta to the base relation once and return the cost report
/// plus each row's global rid placement (occupied on insert, vacated on
/// delete). Rows absent at delete time are skipped — they contribute no
/// view delta.
pub(crate) fn update_base<B: Backend>(
    backend: &mut B,
    table: TableId,
    rows: &[Row],
    insert: bool,
) -> Result<(MeterReport, Vec<(Row, pvm_types::GlobalRid)>)> {
    use pvm_types::GlobalRid;
    let guard = backend.start_meter();
    let mut placed = Vec::with_capacity(rows.len());
    let cluster = backend.engine_mut();
    if insert {
        // Two copies of each borrowed delta row, both needed: the one the
        // storage consumes (`Cluster::insert` moves it all the way down)
        // and the one `placed` hands to the chain.
        for (row, (node, rid)) in rows.iter().zip(cluster.insert(table, rows.to_vec())?) {
            placed.push((row.clone(), GlobalRid::new(node, rid)));
        }
    } else {
        for row in rows {
            let home = cluster.route(table, row)?;
            let node = cluster.node_mut(home)?;
            let Some(rid) = node.find_rid(table, row, &[])? else {
                continue;
            };
            node.delete_rid(table, rid)?;
            placed.push((row.clone(), GlobalRid::new(home, rid)));
        }
    }
    Ok((backend.finish_meter(&guard), placed))
}

/// Maintain a catalog of views over one base-relation delta — **the**
/// maintenance loop; [`MaintainedView::apply`] is this with one view and
/// no catalog. In order:
///
/// 1. every view joining `relation` opens a batch (one batch — and one
///    epoch tick — per view, even when the delta splits into a delete and
///    an insert phase); views that do not join it are left untouched;
/// 2. per phase, the base table is updated **once**;
/// 3. `catalog`'s pool ARs / GIs over `relation` are each updated
///    **once**, however many views are bound to them;
/// 4. every shared-signature group ([`crate::share`]) runs its route →
///    probe → ship → apply chain **once** for all its members;
/// 5. every other joining view runs the same driver as a group of one;
/// 6. all batches commit (or, on error, all abort), and partial views are
///    brought back under budget.
///
/// `None` means nothing is shared — no pool update, no grouping: the
/// many-views-per-table situation of §2.1.2 with independent views, and
/// the oracle the shared path is tested against. Pool-bound views are
/// refused there, since their structures would go stale.
///
/// Returns one outcome per view, in input order. The shared base phase
/// and the pool's structure updates are reported on (merged into) the
/// first joining view's outcome, so summed costs equal work done.
pub fn maintain<B: Backend>(
    backend: &mut B,
    catalog: Option<&SharedCatalog>,
    views: &mut [&mut MaintainedView],
    relation: &str,
    delta: &Delta,
) -> Result<Vec<MaintenanceOutcome>> {
    let table = backend.engine().table_id(relation)?;
    let joins = |v: &MaintainedView| v.handle.def.relation_index(relation).is_ok();
    if catalog.is_none() {
        if let Some(v) = views.iter().find(|v| v.pooled && joins(v)) {
            return Err(PvmError::InvalidOperation(format!(
                "view '{}' probes pool-shared structures: maintain it through `maintain` \
                 with its SharedCatalog, which updates them",
                v.handle.def.name
            )));
        }
    }
    for view in views.iter_mut().filter(|v| joins(v)) {
        view.begin_batch();
    }
    match maintain_phases(backend, catalog, views, table, relation, delta) {
        Ok(outcomes) => {
            let defer = backend.in_txn();
            let obs = backend.engine().obs_handle();
            for view in views.iter_mut().filter(|v| v.open_batch.is_some()) {
                view.commit_batch(defer, &obs);
            }
            // A no-op while a transaction is open (evictions must not
            // roll back); the next post-commit call catches up.
            for view in views.iter_mut() {
                view.enforce_partial_budget(backend)?;
            }
            Ok(outcomes)
        }
        Err(e) => {
            for view in views.iter_mut() {
                view.abort_batch();
            }
            Err(e)
        }
    }
}

fn maintain_phases<B: Backend>(
    backend: &mut B,
    catalog: Option<&SharedCatalog>,
    views: &mut [&mut MaintainedView],
    table: TableId,
    relation: &str,
    delta: &Delta,
) -> Result<Vec<MaintenanceOutcome>> {
    // Signatures cannot change mid-delta, so plan once: the shared groups,
    // then every other joining view as a group of one, in input order.
    let mut groups = match catalog {
        Some(_) => share::plan_groups(backend.engine(), views, relation)?,
        None => Vec::new(),
    };
    let grouped = groups.concat();
    groups.extend(
        (0..views.len())
            .filter(|i| {
                !grouped.contains(i) && views[*i].handle.def.relation_index(relation).is_ok()
            })
            .map(|i| vec![i]),
    );
    let first_joining = groups.iter().flatten().min().copied();
    let mut outcomes: Vec<Option<MaintenanceOutcome>> = views.iter().map(|_| None).collect();
    let (deletes, inserts) = delta.phases();
    for (rows, insert) in [(deletes, false), (inserts, true)] {
        let Some(rows) = rows else { continue };
        let (base, placed) = update_base(backend, table, rows, insert)?;
        let guard = backend.start_meter();
        if let Some(catalog) = catalog {
            let batch = share::pool_batch_policy(views, relation);
            catalog.apply_base_delta(backend, relation, &placed, insert, batch)?;
        }
        let pool_aux = backend.finish_meter(&guard);
        for members in &groups {
            let rel = views[members[0]].handle.def.relation_index(relation)?;
            let outs = share::maintain_group(backend, views, members, rel, &placed, insert)?;
            for (&i, out) in members.iter().zip(outs) {
                outcomes[i] = Some(match outcomes[i].take() {
                    Some(prev) => prev.merge(out),
                    None => out,
                });
            }
        }
        match first_joining {
            // The shared base phase and the pool's structure updates land
            // on the first joining view — merged into (not replacing) its
            // own aux phase, so a view with private structures still
            // reports its own aux cost.
            Some(i) => {
                if let Some(cost) = views[i].open_batch.as_mut().and_then(|b| b.cost.as_mut()) {
                    cost.add_base(&base);
                }
                let out = outcomes[i].as_mut().expect("a joining view has an outcome");
                merge_reports(&mut out.base, &base);
                merge_reports(&mut out.aux, &pool_aux);
            }
            // No view joined the relation; surface the base report anyway
            // on the first slot if present.
            None => {
                if let Some(first @ None) = outcomes.first_mut() {
                    *first = Some(MaintenanceOutcome {
                        base,
                        ..MaintenanceOutcome::idle(empty_report(backend))
                    });
                }
            }
        }
    }
    // A view the relation does not join reports nothing maintained.
    let untouched = MaintenanceOutcome::idle(MeterReport {
        per_node: Vec::new(),
        net: Default::default(),
    });
    Ok(outcomes
        .into_iter()
        .map(|o| o.unwrap_or_else(|| untouched.clone()))
        .collect())
}

pub(crate) fn empty_report<B: Backend>(backend: &B) -> MeterReport {
    let guard = backend.start_meter();
    backend.finish_meter(&guard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm_engine::{ClusterConfig, PartialPolicy};
    use pvm_types::{row, Column, Schema, Value};

    /// A(a, c, payload) partitioned on a; B(b, d, payload) partitioned on
    /// b. Join A.c = B.d — neither partitioned on the join attribute, the
    /// paper's hard case 2.
    fn setup(l: usize) -> (Cluster, TableId, TableId) {
        let mut cluster = Cluster::new(ClusterConfig::new(l).with_buffer_pages(512));
        let a = cluster
            .create_table(TableDef::hash_heap(
                "a",
                Schema::new(vec![Column::int("a"), Column::int("c"), Column::str("pa")]).into_ref(),
                0,
            ))
            .unwrap();
        let b = cluster
            .create_table(TableDef::hash_heap(
                "b",
                Schema::new(vec![Column::int("b"), Column::int("d"), Column::str("pb")]).into_ref(),
                0,
            ))
            .unwrap();
        // 50 B-rows, 10 distinct join values → N = 5.
        cluster
            .insert(
                b,
                (0..50).map(|i| row![i, i % 10, format!("b{i}")]).collect(),
            )
            .unwrap();
        cluster
            .insert(
                a,
                (0..20).map(|i| row![i, i % 10, format!("a{i}")]).collect(),
            )
            .unwrap();
        (cluster, a, b)
    }

    fn jv_def() -> JoinViewDef {
        JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3)
    }

    fn methods() -> [MaintenanceMethod; 3] {
        [
            MaintenanceMethod::Naive,
            MaintenanceMethod::AuxiliaryRelation,
            MaintenanceMethod::GlobalIndex,
        ]
    }

    #[test]
    fn create_populates_existing_join() {
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            assert_eq!(
                view.contents(&cluster).unwrap().len(),
                20 * 5,
                "{m:?}: each A row matches 5 B rows"
            );
            view.check_consistent(&cluster).unwrap();
        }
    }

    #[test]
    fn insert_maintains_all_methods() {
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            let out = view
                .apply(&mut cluster, 0, &Delta::Insert(vec![row![100, 3, "new"]]))
                .unwrap();
            assert_eq!(out.view_rows, 5, "{m:?}");
            view.check_consistent(&cluster).unwrap();
            // And an insert into B (roles switch).
            let out = view
                .apply(&mut cluster, 1, &Delta::Insert(vec![row![100, 3, "newb"]]))
                .unwrap();
            assert_eq!(out.view_rows, 3, "{m:?}: three A rows have c = 3 now");
            view.check_consistent(&cluster).unwrap();
        }
    }

    #[test]
    fn delete_maintains_all_methods() {
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            let out = view
                .apply(&mut cluster, 0, &Delta::Delete(vec![row![0, 0, "a0"]]))
                .unwrap();
            assert_eq!(out.view_rows, 5, "{m:?}");
            view.check_consistent(&cluster).unwrap();
            let out = view
                .apply(&mut cluster, 1, &Delta::Delete(vec![row![0, 0, "b0"]]))
                .unwrap();
            assert_eq!(out.view_rows, 1, "{m:?}: one remaining A row with c = 0");
            view.check_consistent(&cluster).unwrap();
        }
    }

    #[test]
    fn update_is_delete_plus_insert() {
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            view.apply(
                &mut cluster,
                0,
                &Delta::Update {
                    old: vec![row![0, 0, "a0"]],
                    new: vec![row![0, 7, "a0"]],
                },
            )
            .unwrap();
            view.check_consistent(&cluster).unwrap();
        }
    }

    #[test]
    fn active_nodes_distinguish_methods() {
        // The paper's headline: naive does compute work at ALL nodes;
        // AR at one node per step; GI in between.
        let l = 8;
        let (mut cluster, _, _) = setup(l);
        let mut naive =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::Naive).unwrap();
        let out = naive
            .apply(&mut cluster, 0, &Delta::Insert(vec![row![200, 4, "x"]]))
            .unwrap();
        assert_eq!(out.compute_active_nodes(), l, "naive probes at every node");

        let (mut cluster, _, _) = setup(l);
        let mut ar =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::AuxiliaryRelation)
                .unwrap();
        let out = ar
            .apply(&mut cluster, 0, &Delta::Insert(vec![row![200, 4, "x"]]))
            .unwrap();
        assert_eq!(
            out.compute_active_nodes(),
            1,
            "AR probes at exactly one node"
        );

        let (mut cluster, _, _) = setup(l);
        let mut gi =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::GlobalIndex).unwrap();
        let out = gi
            .apply(&mut cluster, 0, &Delta::Insert(vec![row![200, 4, "x"]]))
            .unwrap();
        let active = out.compute_active_nodes();
        assert!(
            active >= 1 && active <= 1 + 5.min(l),
            "GI touches the probe node plus ≤ K holder nodes, got {active}"
        );
    }

    #[test]
    fn tw_matches_analytical_model() {
        // Engine-measured TW (aux + compute I/Os) for a single-tuple insert
        // must equal the §3.1.1 formulas: AR = 3; GI(dist non-clustered) =
        // 3 + N; naive(non-clustered) = L + N.
        let l = 8u64;
        let n = 5u64; // 5 matches per value in setup()

        let (mut cluster, _, _) = setup(l as usize);
        let mut ar =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::AuxiliaryRelation)
                .unwrap();
        let out = ar
            .apply(&mut cluster, 0, &Delta::Insert(vec![row![300, 4, "x"]]))
            .unwrap();
        assert_eq!(out.tw_io(), 3.0, "AR: 1 INSERT (2 I/Os) + 1 SEARCH");

        let (mut cluster, _, _) = setup(l as usize);
        let mut gi =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::GlobalIndex).unwrap();
        let out = gi
            .apply(&mut cluster, 0, &Delta::Insert(vec![row![300, 4, "x"]]))
            .unwrap();
        assert_eq!(
            out.tw_io(),
            (3 + n) as f64,
            "GI: INSERT + SEARCH + N FETCHes"
        );

        let (mut cluster, _, _) = setup(l as usize);
        let mut nv =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::Naive).unwrap();
        let out = nv
            .apply(&mut cluster, 0, &Delta::Insert(vec![row![300, 4, "x"]]))
            .unwrap();
        assert_eq!(out.tw_io(), (l + n) as f64, "naive: L SEARCHes + N FETCHes");
    }

    #[test]
    fn storage_overhead_ordering() {
        // naive = 0 < GI < AR, the paper's space hierarchy.
        let mut overheads = Vec::new();
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            overheads.push(view.storage_overhead_pages(&cluster).unwrap());
        }
        assert_eq!(overheads[0], 0, "naive stores nothing extra");
        assert!(overheads[2] >= 1, "GI stores entries");
        assert!(
            overheads[1] >= overheads[2],
            "AR copies dominate GI entries"
        );
    }

    #[test]
    fn view_partitioned_on_b_attribute() {
        // "JV not partitioned on an attribute of A": partition the view on
        // a B column; insert into A must still route result rows correctly.
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut def = jv_def();
            def.partition_column = 3; // view column 3 = B.b
            let mut view = MaintainedView::create(&mut cluster, def, m).unwrap();
            view.apply(&mut cluster, 0, &Delta::Insert(vec![row![400, 2, "x"]]))
                .unwrap();
            view.check_consistent(&cluster).unwrap();
        }
    }

    #[test]
    fn no_matches_inserts_nothing() {
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            let out = view
                .apply(
                    &mut cluster,
                    0,
                    &Delta::Insert(vec![row![500, 999, "lonely"]]),
                )
                .unwrap();
            assert_eq!(out.view_rows, 0, "{m:?}");
            view.check_consistent(&cluster).unwrap();
        }
    }

    #[test]
    fn null_join_values_never_match() {
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            let out = view
                .apply(
                    &mut cluster,
                    0,
                    &Delta::Insert(vec![Row::new(vec![
                        Value::Int(600),
                        Value::Null,
                        Value::from("n"),
                    ])]),
                )
                .unwrap();
            assert_eq!(out.view_rows, 0, "{m:?}");
        }
    }

    #[test]
    fn bad_relation_index_rejected() {
        let (mut cluster, _, _) = setup(2);
        let mut view =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::Naive).unwrap();
        assert!(view
            .apply(&mut cluster, 9, &Delta::insert_one(row![1, 1, "x"]))
            .is_err());
    }

    #[test]
    fn method_labels() {
        assert_eq!(MaintenanceMethod::Naive.label(), "naive");
        assert_eq!(
            MaintenanceMethod::AuxiliaryRelation.label(),
            "auxiliary relation"
        );
        assert_eq!(MaintenanceMethod::GlobalIndex.label(), "global index");
    }

    #[test]
    fn epoch_advances_once_per_batch_under_both_policies() {
        // The BatchPolicy/epoch contract made explicit: one apply() call
        // is one batch is one epoch tick — whether messages are coalesced
        // or sent per row, and whether the delta is a plain insert or an
        // update (delete phase + insert phase).
        use crate::chain::BatchPolicy;
        for m in methods() {
            for policy in [BatchPolicy::Coalesced, BatchPolicy::PerRow] {
                let (mut cluster, _, _) = setup(4);
                let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
                view.set_batch_policy(policy);
                assert_eq!(view.epoch(), 0);
                view.apply(&mut cluster, 0, &Delta::Insert(vec![row![100, 3, "x"]]))
                    .unwrap();
                assert_eq!(view.epoch(), 1, "{m:?}/{policy:?}: one insert batch");
                view.apply(
                    &mut cluster,
                    0,
                    &Delta::Update {
                        old: vec![row![100, 3, "x"]],
                        new: vec![row![100, 5, "x"]],
                    },
                )
                .unwrap();
                assert_eq!(
                    view.epoch(),
                    2,
                    "{m:?}/{policy:?}: a two-phase update is still one batch"
                );
                // A failed batch must not tick the epoch.
                assert!(view
                    .apply(&mut cluster, 9, &Delta::insert_one(row![1]))
                    .is_err());
                assert_eq!(view.epoch(), 2, "{m:?}/{policy:?}: failed batch ticked");
            }
        }
    }

    #[test]
    fn serving_snapshots_track_the_stored_view() {
        // Every committed batch publishes exactly the view delta: a
        // snapshot taken after each commit matches the stored contents
        // (and the recompute oracle) at that moment, and older pinned
        // snapshots keep reading their own epoch.
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            let reader = view.enable_serving(&cluster).unwrap();
            let s0 = reader.snapshot();
            let mut at_s0 = view.contents(&cluster).unwrap();
            at_s0.sort();

            view.apply(&mut cluster, 0, &Delta::Insert(vec![row![100, 3, "x"]]))
                .unwrap();
            view.apply(&mut cluster, 1, &Delta::Delete(vec![row![0, 0, "b0"]]))
                .unwrap();
            assert_eq!(reader.current_epoch(), 2, "{m:?}");

            let mut stored = view.contents(&cluster).unwrap();
            stored.sort();
            assert_eq!(reader.snapshot().rows(), stored, "{m:?}: head snapshot");
            assert_eq!(s0.rows(), at_s0, "{m:?}: pinned epoch-0 snapshot");
        }
    }

    #[test]
    fn serving_aggregate_views_folds_group_changes() {
        use crate::aggregate::{AggShape, AggSpec};
        let (mut cluster, _, _) = setup(4);
        let def = jv_def();
        let shape = AggShape {
            group_by: vec![1],
            aggregates: vec![AggSpec::count()],
        };
        let mut view = MaintainedView::create_aggregate(
            &mut cluster,
            def,
            shape,
            MaintenanceMethod::AuxiliaryRelation,
        )
        .unwrap();
        let reader = view.enable_serving(&cluster).unwrap();
        view.apply(&mut cluster, 0, &Delta::Insert(vec![row![100, 3, "x"]]))
            .unwrap();
        let mut stored = view.contents(&cluster).unwrap();
        stored.sort();
        assert_eq!(reader.snapshot().rows(), stored);
        view.apply(&mut cluster, 0, &Delta::Delete(vec![row![100, 3, "x"]]))
            .unwrap();
        let mut stored = view.contents(&cluster).unwrap();
        stored.sort();
        assert_eq!(reader.snapshot().rows(), stored);
    }

    #[test]
    fn enable_serving_twice_is_rejected() {
        let (mut cluster, _, _) = setup(2);
        let mut view =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::Naive).unwrap();
        view.enable_serving(&cluster).unwrap();
        assert!(view.enable_serving(&cluster).is_err());
        assert!(view.serve_reader().is_some());
    }

    #[test]
    fn transactions_defer_publication_until_commit() {
        let (mut cluster, _, _) = setup(4);
        let mut view =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::Naive).unwrap();
        let reader = view.enable_serving(&cluster).unwrap();
        let delta = Delta::Insert(vec![row![100, 3, "x"]]);

        // Aborted transaction: readers never saw the epoch, and the
        // rewind keeps view epoch == published head.
        cluster.begin_txn().unwrap();
        view.apply(&mut cluster, 0, &delta).unwrap();
        assert_eq!(view.epoch(), 1);
        assert_eq!(reader.current_epoch(), 0, "publication waits for commit");
        cluster.abort_txn().unwrap();
        view.discard_pending();
        assert_eq!(view.epoch(), 0);
        let mut stored = view.contents(&cluster).unwrap();
        stored.sort();
        assert_eq!(reader.snapshot().rows(), stored);

        // Committed transaction: the commit point releases the epoch.
        cluster.begin_txn().unwrap();
        view.apply(&mut cluster, 0, &delta).unwrap();
        cluster.commit_txn().unwrap();
        view.publish_pending();
        assert_eq!(reader.current_epoch(), 1);
        let mut stored = view.contents(&cluster).unwrap();
        stored.sort();
        assert_eq!(reader.snapshot().rows(), stored);
    }

    #[test]
    fn maintain_ticks_each_joining_view_once() {
        let (mut cluster, _, _) = setup(4);
        let mut v1 =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::Naive).unwrap();
        let mut def2 = jv_def();
        def2.name = "jv2".into();
        let mut v2 =
            MaintainedView::create(&mut cluster, def2, MaintenanceMethod::GlobalIndex).unwrap();
        let r1 = v1.enable_serving(&cluster).unwrap();
        let r2 = v2.enable_serving(&cluster).unwrap();
        maintain(
            &mut cluster,
            None,
            &mut [&mut v1, &mut v2],
            "a",
            &Delta::Update {
                old: vec![row![0, 0, "a0"]],
                new: vec![row![0, 4, "a0"]],
            },
        )
        .unwrap();
        assert_eq!((v1.epoch(), v2.epoch()), (1, 1), "one tick per view");
        let mut c1 = v1.contents(&cluster).unwrap();
        c1.sort();
        let mut c2 = v2.contents(&cluster).unwrap();
        c2.sort();
        assert_eq!(r1.snapshot().rows(), c1);
        assert_eq!(r2.snapshot().rows(), c2);
    }

    /// One pool-bound view per pooled method over the `setup` fixture.
    fn pooled(cluster: &mut Cluster, method: MaintenanceMethod) -> (SharedCatalog, MaintainedView) {
        let mut catalog = SharedCatalog::new();
        match method {
            MaintenanceMethod::AuxiliaryRelation => {
                catalog.ars.enroll(cluster, &jv_def()).unwrap();
            }
            _ => {
                catalog.gis.enroll(cluster, &jv_def()).unwrap();
            }
        }
        let view = MaintainedView::create_pooled(cluster, jv_def(), method, &catalog).unwrap();
        (catalog, view)
    }

    #[test]
    fn apply_refuses_pool_bound_views_instead_of_leaving_the_pool_stale() {
        // `apply` has no catalog, so it cannot update the pool structures
        // a pool-bound view probes: an insert on `a` followed by an insert
        // on `b` joining the new `a` row would probe the un-updated pool
        // structure of `a`, miss the match, and diverge.
        for m in [
            MaintenanceMethod::AuxiliaryRelation,
            MaintenanceMethod::GlobalIndex,
        ] {
            let (mut cluster, _, _) = setup(4);
            let (catalog, mut v) = pooled(&mut cluster, m);
            let new_a = Delta::Insert(vec![row![100, 77, "na"]]);
            let new_b = Delta::Insert(vec![row![100, 77, "nb"]]);
            for result in [
                v.apply(&mut cluster, 0, &new_a),
                v.apply_atomic(&mut cluster, 0, &new_a),
            ] {
                let err = result.unwrap_err().to_string();
                assert!(
                    err.contains("maintain") && err.contains("SharedCatalog"),
                    "{m:?}: {err}"
                );
            }
            assert_eq!(v.epoch(), 0, "{m:?}: a refused batch must not tick");
            v.check_consistent(&cluster).unwrap();
            // Through the one entry point the same two deltas stay exact.
            for (rel, delta) in [("a", &new_a), ("b", &new_b)] {
                let out =
                    maintain(&mut cluster, Some(&catalog), &mut [&mut v], rel, delta).unwrap();
                assert_eq!(out[0].view_rows, u64::from(rel == "b"), "{m:?}/{rel}");
            }
            v.check_consistent(&cluster).unwrap();
        }
    }

    #[test]
    fn partial_reads_match_oracle_after_eviction() {
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            view.enable_partial(&mut cluster, PartialPolicy::with_budget(600))
                .unwrap();
            assert!(
                view.partial_stats().unwrap().evictions > 0,
                "{m:?}: a tiny budget must evict"
            );
            // Maintain under holes: a new A key, a deleted B row, and
            // deltas whose view rows land on holes and get dropped.
            view.apply(&mut cluster, 0, &Delta::Insert(vec![row![100, 3, "a100"]]))
                .unwrap();
            view.apply(&mut cluster, 1, &Delta::Delete(vec![row![7, 7, "b7"]]))
                .unwrap();
            view.apply(&mut cluster, 1, &Delta::Insert(vec![row![50, 9, "b50"]]))
                .unwrap();
            let oracle = view.recompute_expected(&cluster).unwrap();
            for k in (0..21).chain([100, 999]) {
                let key = Value::Int(k);
                let mut got = view.read_key(&mut cluster, &key).unwrap();
                let mut want: Vec<Row> = oracle.iter().filter(|r| r[0] == key).cloned().collect();
                got.sort();
                want.sort();
                assert_eq!(got, want, "{m:?}: key {k}");
            }
        }
    }

    #[test]
    fn partial_accounting_matches_stored_bytes_and_budget() {
        for m in methods() {
            let (mut cluster, _, _) = setup(4);
            let mut view = MaintainedView::create(&mut cluster, jv_def(), m).unwrap();
            let budget = 900u64;
            view.enable_partial(&mut cluster, PartialPolicy::with_budget(budget))
                .unwrap();
            for i in 0..6i64 {
                view.apply(
                    &mut cluster,
                    0,
                    &Delta::Insert(vec![row![200 + i, i % 10, "x"]]),
                )
                .unwrap();
                view.apply(
                    &mut cluster,
                    1,
                    &Delta::Insert(vec![row![300 + i, i % 10, "y"]]),
                )
                .unwrap();
            }
            view.read_key(&mut cluster, &Value::Int(3)).unwrap();
            // The ledger must equal the physically stored bytes, and every
            // node must be back under budget after enforcement.
            let mut tables = vec![view.view_table()];
            tables.extend(view.method_tables());
            let mut stored_total = 0u64;
            for n in cluster.nodes() {
                let mut node_bytes = 0u64;
                for &t in &tables {
                    for (_, r) in n.storage(t).unwrap().scan().unwrap() {
                        node_bytes += r.byte_size() as u64;
                    }
                }
                assert!(
                    node_bytes <= budget,
                    "{m:?}: node {} stores {node_bytes} bytes > budget {budget}",
                    n.id().index()
                );
                stored_total += node_bytes;
            }
            let stats = view.partial_stats().unwrap();
            assert_eq!(stats.resident_bytes, stored_total, "{m:?}: ledger drift");
        }
    }

    #[test]
    fn eviction_delete_runs_no_step_and_visits_only_the_home_node() {
        let (mut cluster, _, _) = setup(4);
        let view =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::Naive).unwrap();
        let key = Value::Int(7);
        let home = PartitionSpec::route_value(&key, 4).unwrap().index();
        let clock = cluster.obs_handle().now();
        let before = cluster.node_snapshots();
        let removed =
            crate::partial::delete_matching(&mut cluster, view.view_table(), 0, &key).unwrap();
        assert_eq!(removed, 5, "key 7 joins 5 B rows");
        assert_eq!(cluster.obs_handle().now(), clock, "no step ran");
        let after = cluster.node_snapshots();
        for (n, (a, b)) in after.into_iter().zip(before).enumerate() {
            let charged = a - b;
            assert_eq!(charged.is_zero(), n != home, "node {n}: {charged:?}");
        }
        let rows = view.contents(&cluster).unwrap();
        assert_eq!(rows.len(), 20 * 5 - 5);
        assert!(rows.iter().all(|r| r[0] != key));
    }

    #[test]
    fn partial_refuses_reads_below_dropped_at() {
        let (mut cluster, _, _) = setup(2);
        let mut view =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::AuxiliaryRelation)
                .unwrap();
        view.enable_partial(&mut cluster, PartialPolicy::with_budget(400))
            .unwrap();
        let holes = view.partial_holes();
        assert!(!holes.is_empty());
        let k = holes[0].clone();
        let e0 = view.epoch();
        // A delta for the hole key gets dropped at the gates, bumping its
        // dropped_at past e0.
        let Value::Int(kv) = k else { unreachable!() };
        view.apply(&mut cluster, 0, &Delta::Insert(vec![row![kv, 3, "dup"]]))
            .unwrap();
        let key = Value::Int(kv);
        let err = view
            .ensure_key_resident(&mut cluster, &key, e0)
            .unwrap_err();
        assert!(err.to_string().contains("snapshot too old"), "{err}");
        // At the current epoch the same key upqueries fine.
        let got = view.read_key(&mut cluster, &key).unwrap();
        let want: Vec<Row> = view
            .recompute_expected(&cluster)
            .unwrap()
            .into_iter()
            .filter(|r| r[0] == key)
            .collect();
        assert_eq!(got.len(), want.len());
    }

    #[test]
    fn partial_serves_snapshot_reads_with_upquery() {
        let (mut cluster, _, _) = setup(4);
        let mut view =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::GlobalIndex).unwrap();
        view.enable_serving(&cluster).unwrap();
        view.enable_partial(&mut cluster, PartialPolicy::with_budget(500))
            .unwrap();
        view.apply(&mut cluster, 1, &Delta::Insert(vec![row![60, 2, "b60"]]))
            .unwrap();
        let oracle = view.recompute_expected(&cluster).unwrap();
        for k in 0..20 {
            let key = Value::Int(k);
            let mut got = view.read_key(&mut cluster, &key).unwrap();
            let mut want: Vec<Row> = oracle.iter().filter(|r| r[0] == key).cloned().collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "key {k}");
        }
    }

    #[test]
    fn partial_rejected_for_aggregates_and_during_txn() {
        let (mut cluster, _, _) = setup(2);
        let shape = crate::aggregate::AggShape {
            group_by: vec![1],
            aggregates: vec![crate::aggregate::AggSpec::count()],
        };
        let mut agg = MaintainedView::create_aggregate(
            &mut cluster,
            jv_def(),
            shape,
            MaintenanceMethod::Naive,
        )
        .unwrap();
        assert!(agg
            .enable_partial(&mut cluster, PartialPolicy::with_budget(1 << 20))
            .is_err());

        // Pool-shared structures are read eagerly by the view's peers:
        // refused the same way for ARs and GIs.
        let mut refusals = Vec::new();
        for m in [
            MaintenanceMethod::AuxiliaryRelation,
            MaintenanceMethod::GlobalIndex,
        ] {
            let (mut cluster, _, _) = setup(2);
            let (_catalog, mut v) = pooled(&mut cluster, m);
            let err = v
                .enable_partial(&mut cluster, PartialPolicy::with_budget(1 << 20))
                .unwrap_err();
            assert!(v.partial_stats().is_none(), "{m:?}");
            refusals.push(err.to_string());
        }
        assert!(refusals[0].contains("pool-shared"), "{}", refusals[0]);
        assert_eq!(refusals[0], refusals[1], "one refusal text for AR and GI");

        let (mut cluster, _, _) = setup(2);
        let mut view =
            MaintainedView::create(&mut cluster, jv_def(), MaintenanceMethod::Naive).unwrap();
        cluster.begin_txn().unwrap();
        assert!(view
            .enable_partial(&mut cluster, PartialPolicy::with_budget(1 << 20))
            .is_err());
        cluster.abort_txn().unwrap();
        // With a roomy budget nothing is evicted and reads are plain hits.
        view.enable_partial(&mut cluster, PartialPolicy::with_budget(1 << 20))
            .unwrap();
        assert_eq!(view.partial_stats().unwrap().evictions, 0);
        let got = view.read_key(&mut cluster, &Value::Int(5)).unwrap();
        assert_eq!(got.len(), 5, "key 5 joins its 5 B rows");
        let stats = view.partial_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// A plain and an aggregate view over a(id, k, g) ⋈ b(id, k, j) ⋈
        /// c(id, j, v) on Float keys a.k = b.k (NULL, ±0, NaNs) and Int
        /// keys b.j = c.j (NULL), with duplicate base rows: the streamed
        /// recompute equals a nested loop over the decoded tables in scan
        /// order, the aggregate folds exactly those rows, and both
        /// freshly created views check clean.
        #[test]
        fn streamed_recompute_equals_nested_loop(
            l in 1usize..4,
            a in proptest::collection::vec((0usize..6, 0i64..3, proptest::prelude::any::<bool>()), 0..12),
            b in proptest::collection::vec((0usize..6, 0usize..4, proptest::prelude::any::<bool>()), 0..12),
            c in proptest::collection::vec((0usize..4, -2i64..3, proptest::prelude::any::<bool>()), 0..12),
        ) {
            use crate::aggregate::{AggShape, AggSpec};
            use crate::viewdef::{ViewColumn, ViewEdge};

            let float = |p: usize| match p {
                0 => Value::Null,
                p => Value::Float([0.0, -0.0, f64::NAN, -f64::NAN, 1.5][p - 1]),
            };
            let int = |p: usize| if p == 0 { Value::Null } else { Value::Int(p as i64) };
            let mut cluster = Cluster::new(ClusterConfig::new(l).with_buffer_pages(64));
            // Row i of a table from its picks, stored twice when asked.
            fn rows<X: Copy, Y: Copy>(picks: &[(X, Y, bool)], row: impl Fn(i64, X, Y) -> Vec<Value>) -> Vec<Row> {
                picks
                    .iter()
                    .enumerate()
                    .flat_map(|(i, &(x, y, twice))| vec![Row::new(row(i as i64, x, y)); 1 + usize::from(twice)])
                    .collect()
            }
            let tables = [
                (
                    "a",
                    [Column::int("id"), Column::float("k"), Column::int("g")],
                    rows(&a, |i, k, g| vec![Value::Int(i), float(k), Value::Int(g)]),
                ),
                (
                    "b",
                    [Column::int("id"), Column::float("k"), Column::int("j")],
                    rows(&b, |i, k, j| vec![Value::Int(i), float(k), int(j)]),
                ),
                (
                    "c",
                    [Column::int("id"), Column::int("j"), Column::float("v")],
                    rows(&c, |i, j, v| vec![Value::Int(i), int(j), Value::Float(v as f64 / 4.0)]),
                ),
            ];
            for (name, cols, rows) in tables {
                let t = cluster
                    .create_table(TableDef::hash_heap(name, Schema::new(cols.to_vec()).into_ref(), 0))
                    .unwrap();
                cluster.insert(t, rows).unwrap();
            }
            let def = |name: &str| JoinViewDef {
                name: name.into(),
                relations: vec!["a".into(), "b".into(), "c".into()],
                edges: vec![
                    ViewEdge::new(ViewColumn::new(0, 1), ViewColumn::new(1, 1)),
                    ViewEdge::new(ViewColumn::new(1, 2), ViewColumn::new(2, 1)),
                ],
                projection: vec![
                    ViewColumn::new(0, 2),
                    ViewColumn::new(0, 0),
                    ViewColumn::new(1, 0),
                    ViewColumn::new(2, 0),
                    ViewColumn::new(2, 2),
                ],
                partition_column: 0,
            };
            let shape = AggShape {
                group_by: vec![0],
                aggregates: vec![AggSpec::count(), AggSpec::sum(4)],
            };
            let plain = MaintainedView::create(&mut cluster, def("plain"), MaintenanceMethod::Naive).unwrap();
            let agg = MaintainedView::create_aggregate(&mut cluster, def("agg"), shape.clone(), MaintenanceMethod::Naive).unwrap();

            let scan = |name: &str| cluster.scan_all(cluster.table_id(name).unwrap()).unwrap();
            let (ra, rb, rc) = (scan("a"), scan("b"), scan("c"));
            let joins = |x: &Value, y: &Value| !x.is_null() && x == y;
            let mut want = Vec::new();
            for x in &ra {
                for y in rb.iter().filter(|y| joins(&x[1], &y[1])) {
                    for z in rc.iter().filter(|z| joins(&y[2], &z[1])) {
                        want.push(Row::new(vec![x[2].clone(), x[0].clone(), y[0].clone(), z[0].clone(), z[2].clone()]));
                    }
                }
            }
            proptest::prop_assert_eq!(plain.recompute_expected(&cluster).unwrap(), want.clone());
            proptest::prop_assert_eq!(agg.recompute_expected(&cluster).unwrap(), shape.aggregate_all(&want).unwrap());
            plain.check_consistent(&cluster).unwrap();
            agg.check_consistent(&cluster).unwrap();
        }
    }
}
