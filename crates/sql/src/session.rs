//! Statement execution: a [`Session`] owns a cluster and its views and
//! keeps every view maintained across SQL DML.

use std::collections::HashMap;
use std::sync::Arc;

use pvm_core::{
    maintain, Delta, GroupSignature, JoinViewDef, MaintainedView, MaintenanceMethod, PartialPolicy,
    SharedCatalog, ViewColumn, ViewEdge,
};
use pvm_engine::{Cluster, ClusterConfig, PartitionSpec, TableDef};
use pvm_obs::RingSink;
use pvm_serve::Snapshot;
use pvm_storage::Organization;
use pvm_types::{CmpOp, CostSnapshot, Predicate, PvmError, Result, Row, Schema, SchemaRef, Value};

use crate::ast::{ColumnRef, MethodSpec, Statement, ViewSelect, WhereTerm};
use crate::introspect;
use crate::parser::parse;

/// Result of one statement.
#[derive(Debug, Clone)]
pub struct SqlOutput {
    /// Human-readable status line.
    pub message: String,
    /// Result rows for `SELECT` / `SHOW` statements.
    pub rows: Option<(SchemaRef, Vec<Row>)>,
}

impl SqlOutput {
    fn message(m: impl Into<String>) -> Self {
        SqlOutput {
            message: m.into(),
            rows: None,
        }
    }
}

/// A SQL session over one PVM cluster.
///
/// ```
/// use pvm_sql::Session;
/// use pvm_engine::ClusterConfig;
///
/// let mut s = Session::new(ClusterConfig::new(4));
/// s.execute(
///     "CREATE TABLE a (id INT, c INT) PARTITION BY HASH(id); \
///      CREATE TABLE b (id INT, d INT) PARTITION BY HASH(id); \
///      INSERT INTO a VALUES (1, 7); \
///      INSERT INTO b VALUES (10, 7), (11, 7); \
///      CREATE VIEW jv USING AUXILIARY RELATION AS \
///          SELECT x.id, y.id FROM a x, b y WHERE x.c = y.d;",
/// ).unwrap();
/// // DML keeps the view maintained automatically.
/// let out = s.execute_one("INSERT INTO a VALUES (2, 7)").unwrap();
/// assert!(out.message.contains("2 view rows maintained"));
/// s.execute_one("CHECK VIEW jv").unwrap();
/// ```
pub struct Session {
    cluster: Cluster,
    views: Vec<MaintainedView>,
    /// `BEGIN SNAPSHOT` session: one pinned [`Snapshot`] per served view,
    /// keyed by view name. While `Some`, every view SELECT reads its
    /// pinned epoch — maintenance keeps streaming underneath.
    snapshots: Option<HashMap<String, Snapshot>>,
    /// Bounded window of recent trace events, installed as the cluster's
    /// sink at session creation — backs the `pvm_lineage` system table
    /// and keeps the obs gate on so gated metrics register. Counted
    /// costs are unaffected (see `tests/obs_parity.rs`).
    lineage: Arc<RingSink>,
    /// Shared maintenance structures (one AR pool + one GI pool) backing
    /// probe-once groups. Pooling is lazy: a lone view keeps private
    /// structures; the second signature-compatible `CREATE VIEW` enrolls
    /// both into the pool and rebinds them.
    catalog: SharedCatalog,
    /// Next shared-group id to hand out (`pvm_views.shared_group`).
    next_group: u64,
}

/// Trace events the session retains for `pvm_lineage`. A few thousand is
/// enough to cover several maintenance batches while staying a bounded,
/// cache-friendly allocation.
const LINEAGE_CAPACITY: usize = 4096;

impl Session {
    pub fn new(config: ClusterConfig) -> Self {
        let cluster = Cluster::new(config);
        let lineage = Arc::new(RingSink::new(LINEAGE_CAPACITY));
        cluster.set_trace_sink(lineage.clone());
        Session {
            cluster,
            views: Vec::new(),
            snapshots: None,
            lineage,
            catalog: SharedCatalog::new(),
            next_group: 0,
        }
    }

    /// The session's bounded lineage recorder (the `pvm_lineage` source).
    pub fn lineage(&self) -> &RingSink {
        &self.lineage
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Views created through this session.
    pub fn view(&self, name: &str) -> Option<&MaintainedView> {
        self.views.iter().find(|v| v.def().name == name)
    }

    /// Parse and execute `;`-separated statements, returning one output
    /// per statement. Execution stops at the first error.
    pub fn execute(&mut self, sql: &str) -> Result<Vec<SqlOutput>> {
        let stmts = parse(sql)?;
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            out.push(self.run(s)?);
        }
        Ok(out)
    }

    /// Execute a single statement and return its output (convenience for
    /// REPLs).
    pub fn execute_one(&mut self, sql: &str) -> Result<SqlOutput> {
        let outputs = self.execute(sql)?;
        outputs
            .into_iter()
            .next_back()
            .ok_or_else(|| PvmError::InvalidOperation("empty statement".into()))
    }

    fn is_view_table(&self, name: &str) -> bool {
        self.views.iter().any(|v| v.def().name == name)
    }

    fn run(&mut self, stmt: Statement) -> Result<SqlOutput> {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                partition_column,
                clustered,
            } => self.create_table(name, columns, partition_column, clustered),
            Statement::CreateView {
                name,
                method,
                select,
                partition_on,
            } => self.create_view(name, method, select, partition_on),
            Statement::Insert { table, rows } => self.insert(table, rows),
            Statement::Delete { table, predicate } => self.delete(table, predicate),
            Statement::Update {
                table,
                assignments,
                predicate,
            } => self.update(table, assignments, predicate),
            Statement::Select { table, predicate } => self.select(table, predicate),
            Statement::ShowTables => self.show_tables(),
            Statement::ShowViews => self.show_views(),
            Statement::ShowCost => self.show_cost(),
            Statement::CheckView { name } => self.check_view(name),
            Statement::ExplainMaintenance {
                view,
                relation,
                analyze,
            } => self.explain_maintenance(view, relation, analyze),
            Statement::AlterViewPartial { name, budget_bytes } => {
                self.alter_view_partial(name, budget_bytes)
            }
            Statement::DropView { name } => self.drop_view(name),
            Statement::DropTable { name } => self.drop_table(name),
            Statement::Begin => {
                if self.snapshots.is_some() {
                    return Err(PvmError::InvalidOperation(
                        "a snapshot session is open; COMMIT or ROLLBACK it first".into(),
                    ));
                }
                self.cluster.begin_txn()?;
                Ok(SqlOutput::message("transaction started"))
            }
            Statement::BeginSnapshot => self.begin_snapshot(),
            Statement::Commit => {
                if self.snapshots.take().is_some() {
                    return Ok(SqlOutput::message("snapshot session released"));
                }
                self.cluster.commit_txn()?;
                for v in &mut self.views {
                    v.publish_pending();
                }
                Ok(SqlOutput::message("committed"))
            }
            Statement::Rollback => {
                if self.snapshots.take().is_some() {
                    return Ok(SqlOutput::message("snapshot session released"));
                }
                self.cluster.abort_txn()?;
                for v in &mut self.views {
                    v.discard_pending();
                }
                Ok(SqlOutput::message("rolled back"))
            }
        }
    }

    /// `ALTER VIEW … SET PARTIAL BUDGET`: put the view under a per-node
    /// memory budget with upquery-on-miss reads.
    fn alter_view_partial(&mut self, name: String, budget_bytes: u64) -> Result<SqlOutput> {
        if self.snapshots.is_some() {
            return Err(PvmError::InvalidOperation(
                "cannot alter a view while a snapshot session is open".into(),
            ));
        }
        let view = self
            .views
            .iter_mut()
            .find(|v| v.def().name == name)
            .ok_or_else(|| PvmError::NotFound(format!("view '{name}'")))?;
        view.enable_partial(&mut self.cluster, PartialPolicy::with_budget(budget_bytes))?;
        let stats = view.partial_stats().expect("just enabled");
        Ok(SqlOutput::message(format!(
            "view {name} is now partial ({budget_bytes} bytes/node budget, {} resident bytes, \
             {} evicted keys)",
            stats.resident_bytes, stats.holes
        )))
    }

    fn drop_view(&mut self, name: String) -> Result<SqlOutput> {
        let idx = self
            .views
            .iter()
            .position(|v| v.def().name == name)
            .ok_or_else(|| PvmError::NotFound(format!("view '{name}'")))?;
        let view = self.views.remove(idx);
        if let Some(pinned) = &mut self.snapshots {
            pinned.remove(&name);
        }
        let group = view.shared_group();
        view.destroy(&mut self.cluster)?;
        // Pool GC: destroy skips pool-shared structures, so once the last
        // view bound to a pool is gone the pool's tables are reclaimed
        // here. A surviving group of one keeps its pool bindings (the
        // structures still serve its probes) but loses its group id —
        // probe-once needs at least two members.
        if !self
            .views
            .iter()
            .any(|v| v.method() == MaintenanceMethod::AuxiliaryRelation && v.is_pool_shared())
        {
            self.catalog.ars.release(&mut self.cluster)?;
        }
        if !self
            .views
            .iter()
            .any(|v| v.method() == MaintenanceMethod::GlobalIndex && v.is_pool_shared())
        {
            self.catalog.gis.release(&mut self.cluster)?;
        }
        if let Some(gid) = group {
            let members: Vec<usize> = self
                .views
                .iter()
                .enumerate()
                .filter(|(_, v)| v.shared_group() == Some(gid))
                .map(|(i, _)| i)
                .collect();
            if members.len() < 2 {
                for i in members {
                    self.views[i].set_shared_group(None);
                }
            }
        }
        Ok(SqlOutput::message(format!("dropped view {name}")))
    }

    fn drop_table(&mut self, name: String) -> Result<SqlOutput> {
        if let Some(v) = self
            .views
            .iter()
            .find(|v| v.def().relations.iter().any(|r| r == &name))
        {
            return Err(PvmError::InvalidOperation(format!(
                "table '{name}' is referenced by view '{}'; drop the view first",
                v.def().name
            )));
        }
        if self.is_view_table(&name) {
            return Err(PvmError::InvalidOperation(format!(
                "'{name}' is a view; use DROP VIEW"
            )));
        }
        let id = self.cluster.table_id(&name)?;
        self.cluster.drop_table(id)?;
        Ok(SqlOutput::message(format!("dropped table {name}")))
    }

    fn explain_maintenance(
        &self,
        view_name: String,
        relation: String,
        analyze: bool,
    ) -> Result<SqlOutput> {
        let view = self
            .views
            .iter()
            .find(|v| v.def().name == view_name)
            .ok_or_else(|| PvmError::NotFound(format!("view '{view_name}'")))?;
        let rel = view.def().relation_index(&relation)?;
        let plan = view.plan_for(&self.cluster, rel)?;
        if analyze {
            return self.explain_analyze(view, &relation, &plan);
        }
        let schema = Schema::new(vec![
            pvm_types::Column::int("step"),
            pvm_types::Column::str("probe_relation"),
            pvm_types::Column::str("on_column"),
            pvm_types::Column::str("anchor"),
            pvm_types::Column::int("extra_filters"),
        ])
        .into_ref();
        let mut rows = Vec::new();
        for (i, step) in plan.iter().enumerate() {
            let (probe_rel, on_column, anchor) = self.plan_step_names(view, step)?;
            rows.push(Row::new(vec![
                Value::Int(i as i64 + 1),
                Value::from(probe_rel),
                Value::from(on_column),
                Value::from(anchor),
                Value::Int(step.filters.len() as i64),
            ]));
        }
        Ok(SqlOutput {
            message: format!(
                "maintenance chain for Δ{relation} → {view_name} ({} method)",
                view.method().label()
            ),
            rows: Some((schema, rows)),
        })
    }

    /// Human-readable names for one §2.2 plan step.
    fn plan_step_names(
        &self,
        view: &MaintainedView,
        step: &pvm_core::planner::PlanStep,
    ) -> Result<(String, String, String)> {
        let probe_rel = view.def().relations[step.rel].clone();
        let probe_schema = {
            let id = self.cluster.table_id(&probe_rel)?;
            self.cluster.def(id)?.schema.clone()
        };
        let anchor_rel = &view.def().relations[step.anchor.rel];
        let anchor_schema = {
            let id = self.cluster.table_id(anchor_rel)?;
            self.cluster.def(id)?.schema.clone()
        };
        let on_column = probe_schema
            .column(step.probe_col)
            .map(|c| c.name.clone())
            .unwrap_or_else(|| step.probe_col.to_string());
        let anchor = format!(
            "{anchor_rel}.{}",
            anchor_schema
                .column(step.anchor.col)
                .map(|c| c.name.clone())
                .unwrap_or_else(|| step.anchor.col.to_string())
        );
        Ok((probe_rel, on_column, anchor))
    }

    /// `EXPLAIN ANALYZE MAINTENANCE`: the static §2.2 chain annotated
    /// with observed per-phase counted costs averaged over the view's
    /// last [`MaintainedView::COST_HISTORY`] committed batches, plus the
    /// §3.1 advisor's predicted busiest-node response time for the same
    /// batch size — prediction and reality in one result set.
    fn explain_analyze(
        &self,
        view: &MaintainedView,
        relation: &str,
        plan: &[pvm_core::planner::PlanStep],
    ) -> Result<SqlOutput> {
        let schema = Schema::new(vec![
            pvm_types::Column::str("section"),
            pvm_types::Column::int("step"),
            pvm_types::Column::str("phase"),
            pvm_types::Column::str("detail"),
            pvm_types::Column::int("batches"),
            pvm_types::Column::float("mean_io"),
            pvm_types::Column::float("mean_rows"),
            pvm_types::Column::float("mean_sends"),
        ])
        .into_ref();
        let mut rows = Vec::new();
        for (i, step) in plan.iter().enumerate() {
            let (probe_rel, on_column, anchor) = self.plan_step_names(view, step)?;
            rows.push(Row::new(vec![
                Value::from("plan"),
                Value::Int(i as i64 + 1),
                Value::from("probe"),
                Value::from(format!(
                    "{probe_rel}.{on_column} anchored at {anchor} ({} extra filters)",
                    step.filters.len()
                )),
                Value::Int(0),
                Value::Float(0.0),
                Value::Float(0.0),
                Value::Float(0.0),
            ]));
        }

        let costs: Vec<&pvm_core::BatchCostRecord> = view.recent_costs().collect();
        let n = costs.len();
        let mean = |f: &dyn Fn(&pvm_core::BatchCostRecord) -> f64| -> f64 {
            if n == 0 {
                0.0
            } else {
                costs.iter().map(|c| f(c)).sum::<f64>() / n as f64
            }
        };
        let mean_rows = mean(&|c| c.delta_rows as f64);
        let observed_response = mean(&|c| c.response_io);
        let phases: [(&str, f64, &str); 6] = [
            ("base", mean(&|c| c.base_io), "update the base relation"),
            ("aux", mean(&|c| c.aux_io), "update ARs / global indices"),
            (
                "compute",
                mean(&|c| c.compute_io),
                "route + probe + join + ship the view delta",
            ),
            ("view", mean(&|c| c.view_io), "install the view delta"),
            (
                "tw",
                mean(&|c| c.tw_io()),
                "total extra workload (aux + compute)",
            ),
            (
                "response",
                observed_response,
                "busiest-node response time over aux + compute",
            ),
        ];
        for (i, (phase, io, detail)) in phases.iter().enumerate() {
            rows.push(Row::new(vec![
                Value::from("observed"),
                Value::Int(i as i64 + 1),
                Value::from(*phase),
                Value::from(*detail),
                Value::Int(n as i64),
                Value::Float(*io),
                Value::Float(mean_rows),
                Value::Float(mean(&|c| c.sends as f64)),
            ]));
        }

        // Predicted cost from the §3.1 analytical model, priced for the
        // observed mean batch size so the comparison is like-for-like.
        let a_tuples = (mean_rows.round() as u64).max(1);
        let advice = pvm_core::advise(&self.cluster, view.def(), a_tuples, u64::MAX)?;
        let wanted = match view.method() {
            MaintenanceMethod::Naive => pvm_core::Recommendation::Naive,
            MaintenanceMethod::AuxiliaryRelation => pvm_core::Recommendation::AuxiliaryRelation,
            MaintenanceMethod::GlobalIndex => pvm_core::Recommendation::GlobalIndex,
        };
        let predicted = advice
            .options
            .iter()
            .find(|o| o.method == wanted)
            .map(|o| o.response_io)
            .unwrap_or(0.0);
        rows.push(Row::new(vec![
            Value::from("predicted"),
            Value::Int(1),
            Value::from("response"),
            Value::from(format!(
                "advisor model for the {} method at {a_tuples} tuples/batch",
                view.method().label()
            )),
            Value::Int(n as i64),
            Value::Float(predicted),
            Value::Float(a_tuples as f64),
            Value::Float(0.0),
        ]));

        let message = if n == 0 {
            format!(
                "Δ{relation} → {} ({} method): no observed batches yet — run some DML first \
                 (predicted response {predicted:.1} I/Os)",
                view.def().name,
                view.method().label()
            )
        } else {
            format!(
                "Δ{relation} → {} ({} method): predicted response {predicted:.1} I/Os vs \
                 observed {observed_response:.1} I/Os over the last {n} batches",
                view.def().name,
                view.method().label()
            )
        };
        Ok(SqlOutput {
            message,
            rows: Some((schema, rows)),
        })
    }

    fn create_table(
        &mut self,
        name: String,
        columns: Vec<(String, pvm_types::DataType)>,
        partition_column: String,
        clustered: bool,
    ) -> Result<SqlOutput> {
        let schema = Schema::new(
            columns
                .iter()
                .map(|(n, t)| pvm_types::Column::new(n.clone(), *t))
                .collect(),
        );
        let pcol = schema.index_of(&partition_column)?;
        let organization = if clustered {
            Organization::Clustered { key: vec![pcol] }
        } else {
            Organization::Heap
        };
        self.cluster.create_table(TableDef::new(
            name.clone(),
            schema.into_ref(),
            PartitionSpec::hash(pcol),
            organization,
        ))?;
        Ok(SqlOutput::message(format!("created table {name}")))
    }

    fn create_view(
        &mut self,
        name: String,
        method: MethodSpec,
        select: ViewSelect,
        partition_on: Option<ColumnRef>,
    ) -> Result<SqlOutput> {
        // Bind aliases.
        let alias_index = |c: &ColumnRef| -> Result<usize> {
            let q = c.qualifier.as_deref().ok_or_else(|| {
                PvmError::InvalidOperation(format!("view columns must be alias-qualified: '{c}'"))
            })?;
            select
                .from
                .iter()
                .position(|(_, alias)| alias == q)
                .ok_or_else(|| PvmError::NotFound(format!("alias '{q}'")))
        };
        let mut schemas = Vec::new();
        for (table, _) in &select.from {
            let id = self.cluster.table_id(table)?;
            schemas.push(self.cluster.def(id)?.schema.clone());
        }
        let bind = |c: &ColumnRef| -> Result<ViewColumn> {
            let rel = alias_index(c)?;
            let col = schemas[rel].index_of(&c.column)?;
            Ok(ViewColumn::new(rel, col))
        };
        // Split the select list into plain columns and aggregates.
        let mut plain: Vec<ColumnRef> = Vec::new();
        let mut agg_items: Vec<(pvm_core::AggFunc, Option<ColumnRef>)> = Vec::new();
        for item in &select.projection {
            match item {
                crate::ast::SelectItem::Column(c) => {
                    if !agg_items.is_empty() {
                        return Err(PvmError::InvalidOperation(
                            "plain columns must precede aggregates in the SELECT list".into(),
                        ));
                    }
                    plain.push(c.clone());
                }
                crate::ast::SelectItem::Count => agg_items.push((pvm_core::AggFunc::Count, None)),
                crate::ast::SelectItem::Sum(c) => {
                    agg_items.push((pvm_core::AggFunc::Sum, Some(c.clone())))
                }
            }
        }
        if agg_items.is_empty() && !select.group_by.is_empty() {
            return Err(PvmError::InvalidOperation(
                "GROUP BY requires COUNT/SUM in the SELECT list".into(),
            ));
        }
        if !agg_items.is_empty() {
            // Aggregate view: GROUP BY must match the plain columns.
            if plain.is_empty() {
                return Err(PvmError::InvalidOperation(
                    "aggregate views need at least one grouping column".into(),
                ));
            }
            for p in &plain {
                if !select.group_by.contains(p) {
                    return Err(PvmError::InvalidOperation(format!(
                        "selected column '{p}' must appear in GROUP BY"
                    )));
                }
            }
            for g in &select.group_by {
                if !plain.contains(g) {
                    return Err(PvmError::InvalidOperation(format!(
                        "GROUP BY column '{g}' must appear in the SELECT list"
                    )));
                }
            }
        }

        let edges: Vec<ViewEdge> = select
            .joins
            .iter()
            .map(|j| Ok(ViewEdge::new(bind(&j.left)?, bind(&j.right)?)))
            .collect::<Result<_>>()?;

        // The underlying join projects the plain columns followed by every
        // SUM input.
        let mut projection: Vec<ViewColumn> = plain.iter().map(&bind).collect::<Result<_>>()?;
        let mut agg_specs = Vec::with_capacity(agg_items.len());
        for (func, input) in &agg_items {
            match func {
                pvm_core::AggFunc::Count => agg_specs.push(pvm_core::AggSpec::count()),
                pvm_core::AggFunc::Sum => {
                    let c = input.as_ref().expect("SUM parsed with input");
                    projection.push(bind(c)?);
                    agg_specs.push(pvm_core::AggSpec::sum(projection.len() - 1));
                }
            }
        }

        let partition_column = match &partition_on {
            None => 0,
            Some(c) => {
                let vc = bind(c)?;
                let pos = projection.iter().position(|p| *p == vc).ok_or_else(|| {
                    PvmError::InvalidOperation(format!(
                        "PARTITION ON column '{c}' must appear in the view's SELECT list"
                    ))
                })?;
                if !agg_items.is_empty() && pos >= plain.len() {
                    return Err(PvmError::InvalidOperation(
                        "aggregate views can only be partitioned on a grouping column".into(),
                    ));
                }
                pos
            }
        };
        let def = JoinViewDef {
            name: name.clone(),
            relations: select.from.iter().map(|(t, _)| t.clone()).collect(),
            edges,
            projection,
            partition_column,
        };

        let resolved_method = match method {
            MethodSpec::Naive => MaintenanceMethod::Naive,
            MethodSpec::AuxiliaryRelation => MaintenanceMethod::AuxiliaryRelation,
            MethodSpec::GlobalIndex => MaintenanceMethod::GlobalIndex,
            MethodSpec::Auto => pvm_core::advise(&self.cluster, &def, 128, u64::MAX)?
                .recommendation
                .into(),
        };
        let mut view = if agg_items.is_empty() {
            MaintainedView::create(&mut self.cluster, def, resolved_method)?
        } else {
            let shape = pvm_core::AggShape {
                group_by: (0..plain.len()).collect(),
                aggregates: agg_specs,
            };
            MaintainedView::create_aggregate(&mut self.cluster, def, shape, resolved_method)?
        };
        // Serve snapshots from epoch 0 onward. Inside a transaction the
        // seed contents could still roll back, so serving stays off there.
        if !self.cluster.in_txn() {
            view.enable_serving(&self.cluster)?;
        }
        // Lazy pooling: a lone view keeps private structures; the second
        // view with the same join-graph signature pulls the whole group
        // onto the shared pool so deltas run the probe chain once.
        let group = if agg_items.is_empty() {
            self.enroll_shared(&mut view)?
        } else {
            None
        };
        let rows = view.contents(&self.cluster)?.len();
        let kind = if agg_items.is_empty() {
            "rows"
        } else {
            "groups"
        };
        let group_note = match group {
            Some(gid) => format!(", shared group g{gid}"),
            None => String::new(),
        };
        let msg = format!(
            "created view {name} ({} method, {rows} {kind}, {} extra pages{group_note})",
            view.method().label(),
            view.storage_overhead_pages(&self.cluster)?
        );
        self.views.push(view);
        Ok(SqlOutput::message(msg))
    }

    /// Find existing views whose join-graph signature matches the new
    /// view's ([`GroupSignature::candidate`] — same method, relations,
    /// normalized edges, and policies; projections may differ). When
    /// peers exist, move the whole group onto the session's shared pools
    /// ([`pvm_core::SharedCatalog::enroll_group`]) and hand out a
    /// shared-group id. Returns the group id, or `None` when the view
    /// stays private.
    fn enroll_shared(&mut self, view: &mut MaintainedView) -> Result<Option<u64>> {
        let Some(sig) = GroupSignature::candidate(&self.cluster, view)? else {
            return Ok(None);
        };
        let mut peers = Vec::new();
        for (i, v) in self.views.iter().enumerate() {
            if GroupSignature::candidate(&self.cluster, v)?.is_some_and(|s| s == sig) {
                peers.push(i);
            }
        }
        if peers.is_empty() {
            return Ok(None);
        }
        // The new view is not in `self.views` yet: it rides as the last
        // element, so the catalog sees every view it may have to rebind.
        let mut members = peers.clone();
        members.push(self.views.len());
        let mut all: Vec<&mut MaintainedView> = self.views.iter_mut().collect();
        all.push(&mut *view);
        self.catalog
            .enroll_group(&mut self.cluster, &mut all, &members)?;
        let gid = match peers.iter().find_map(|&i| self.views[i].shared_group()) {
            Some(g) => g,
            None => {
                let g = self.next_group;
                self.next_group += 1;
                g
            }
        };
        for &i in &peers {
            self.views[i].set_shared_group(Some(gid));
        }
        view.set_shared_group(Some(gid));
        Ok(Some(gid))
    }

    /// Resolve a WHERE column against a table schema. Qualified refs match
    /// the full stored name (`c.custkey` for view schemas); bare refs
    /// match either the exact name or a unique `.`-suffix.
    fn resolve_column(schema: &Schema, c: &ColumnRef) -> Result<usize> {
        let target = c.to_string();
        if let Some(i) = schema.names().iter().position(|n| **n == target) {
            return Ok(i);
        }
        if c.qualifier.is_none() {
            let hits: Vec<usize> = schema
                .names()
                .iter()
                .enumerate()
                .filter(|(_, n)| {
                    n.rsplit_once('.')
                        .map(|(_, tail)| tail == c.column)
                        .unwrap_or(false)
                })
                .map(|(i, _)| i)
                .collect();
            match hits.as_slice() {
                [one] => return Ok(*one),
                [] => {}
                _ => {
                    return Err(PvmError::InvalidOperation(format!(
                        "column '{c}' is ambiguous; qualify it"
                    )))
                }
            }
        }
        Err(PvmError::NotFound(format!("column '{c}'")))
    }

    fn build_predicate(schema: &Schema, terms: &[WhereTerm]) -> Result<Predicate> {
        let mut p = Predicate::always();
        for t in terms {
            let col = Self::resolve_column(schema, &t.column)?;
            p = p.and(col, t.op, t.literal.clone());
        }
        Ok(p)
    }

    fn matching_rows(&self, table: &str, terms: &[WhereTerm]) -> Result<Vec<Row>> {
        let id = self.cluster.table_id(table)?;
        let schema = self.cluster.def(id)?.schema.clone();
        let pred = Self::build_predicate(&schema, terms)?;
        Ok(self
            .cluster
            .scan_all(id)?
            .into_iter()
            .filter(|r| pred.eval(r))
            .collect())
    }

    fn guard_base_table(&self, table: &str) -> Result<()> {
        if self.is_view_table(table) {
            return Err(PvmError::InvalidOperation(format!(
                "'{table}' is a materialized view; update its base relations instead"
            )));
        }
        if introspect::is_system_table(table) {
            return Err(PvmError::InvalidOperation(format!(
                "'{table}' is a read-only system table"
            )));
        }
        Ok(())
    }

    /// Apply a delta to `table` through [`maintain`] — the one write path,
    /// which also keeps the catalog's pool structures over `table` current
    /// when no view joins it. Returns the maintenance note for the
    /// statement's message (empty when no view joins `table`).
    fn apply_delta(&mut self, table: &str, delta: Delta) -> Result<String> {
        let mut refs: Vec<&mut MaintainedView> = self.views.iter_mut().collect();
        let outcomes = maintain(
            &mut self.cluster,
            Some(&self.catalog),
            &mut refs,
            table,
            &delta,
        )?;
        if !self
            .views
            .iter()
            .any(|v| v.def().relations.iter().any(|r| r == table))
        {
            return Ok(String::new());
        }
        let view_rows: u64 = outcomes.iter().map(|o| o.view_rows).sum();
        let io: f64 = outcomes.iter().map(|o| o.tw_io()).sum();
        Ok(format!(" ({view_rows} view rows maintained, {io:.0} I/Os)"))
    }

    fn insert(&mut self, table: String, rows: Vec<Vec<Value>>) -> Result<SqlOutput> {
        self.guard_base_table(&table)?;
        let rows: Vec<Row> = rows.into_iter().map(Row::new).collect();
        let n = rows.len();
        let extra = self.apply_delta(&table, Delta::Insert(rows))?;
        Ok(SqlOutput::message(format!(
            "inserted {n} rows into {table}{extra}"
        )))
    }

    fn delete(&mut self, table: String, predicate: Vec<WhereTerm>) -> Result<SqlOutput> {
        self.guard_base_table(&table)?;
        let doomed = self.matching_rows(&table, &predicate)?;
        if doomed.is_empty() {
            return Ok(SqlOutput::message(format!("deleted 0 rows from {table}")));
        }
        let n = doomed.len();
        let extra = self.apply_delta(&table, Delta::Delete(doomed))?;
        Ok(SqlOutput::message(format!(
            "deleted {n} rows from {table}{extra}"
        )))
    }

    fn update(
        &mut self,
        table: String,
        assignments: Vec<(String, Value)>,
        predicate: Vec<WhereTerm>,
    ) -> Result<SqlOutput> {
        self.guard_base_table(&table)?;
        let id = self.cluster.table_id(&table)?;
        let schema = self.cluster.def(id)?.schema.clone();
        let old = self.matching_rows(&table, &predicate)?;
        if old.is_empty() {
            return Ok(SqlOutput::message(format!("updated 0 rows in {table}")));
        }
        let mut new = old.clone();
        for (col_name, value) in &assignments {
            let col = schema.index_of(col_name)?;
            if !value.conforms_to(schema.column(col).expect("bound").dtype) {
                return Err(PvmError::SchemaMismatch(format!(
                    "cannot assign {value} to column '{col_name}'"
                )));
            }
            for r in &mut new {
                r.set(col, value.clone())?;
            }
        }
        let n = old.len();
        let extra = self.apply_delta(&table, Delta::Update { old, new })?;
        Ok(SqlOutput::message(format!(
            "updated {n} rows in {table}{extra}"
        )))
    }

    fn select(&mut self, table: String, predicate: Vec<WhereTerm>) -> Result<SqlOutput> {
        // Virtual system tables resolve first (they shadow any stored
        // table of the same name): rows are synthesized from the live
        // registry / views / lineage ring, then filtered like any scan.
        if let Some((schema, unfiltered)) =
            introspect::system_table(&table, &self.cluster, &self.views, &self.lineage)?
        {
            let pred = Self::build_predicate(&schema, &predicate)?;
            let mut rows: Vec<Row> = unfiltered.into_iter().filter(|r| pred.eval(r)).collect();
            rows.sort();
            let n = rows.len();
            return Ok(SqlOutput {
                message: format!("{n} rows ({table} system table)"),
                rows: Some((schema, rows)),
            });
        }
        // View reads outside a transaction go through the snapshot tier;
        // inside one they must see the session's own uncommitted changes,
        // so they scan the stored table directly. Partial views upquery
        // the keys the read needs first, and enforce the memory budget
        // only after the rows are out.
        if self.is_view_table(&table) {
            if self.cluster.in_txn() {
                let holes = self
                    .views
                    .iter()
                    .find(|v| v.def().name == table)
                    .map(|v| v.partial_holes().len())
                    .unwrap_or(0);
                if holes > 0 {
                    return Err(PvmError::InvalidOperation(format!(
                        "cannot read partial view '{table}' inside a transaction: \
                         {holes} evicted keys need an upquery; COMMIT or ROLLBACK first"
                    )));
                }
            } else {
                self.partial_prepare(&table, &predicate)?;
                let out = match self.select_view_snapshot(&table, &predicate)? {
                    Some(out) => out,
                    None => self.scan_stored(&table, &predicate)?,
                };
                if let Some(v) = self.views.iter_mut().find(|v| v.def().name == table) {
                    if v.partial_stats().is_some() {
                        v.enforce_partial_budget(&mut self.cluster)?;
                    }
                }
                return Ok(out);
            }
        }
        self.scan_stored(&table, &predicate)
    }

    /// Filtered scan of a stored table (base relations, and views inside
    /// a transaction or without a serve tier).
    fn scan_stored(&self, table: &str, predicate: &[WhereTerm]) -> Result<SqlOutput> {
        let id = self.cluster.table_id(table)?;
        let schema = self.cluster.def(id)?.schema.clone();
        let pred = Self::build_predicate(&schema, predicate)?;
        let mut rows: Vec<Row> = self
            .cluster
            .scan_all(id)?
            .into_iter()
            .filter(|r| pred.eval(r))
            .collect();
        rows.sort();
        let (schema, rows) = Self::hide_count(schema, rows)?;
        let n = rows.len();
        Ok(SqlOutput {
            message: format!("{n} rows"),
            rows: Some((schema, rows)),
        })
    }

    /// Make a partial view's needed keys resident before a SELECT: a
    /// key-equality predicate on the view's partition column upqueries
    /// just that key (at the pinned epoch when a snapshot session is
    /// open — refusing with "snapshot too old" when eviction purged the
    /// key's history), anything else upqueries every hole so the scan
    /// sees the complete view. A no-op for non-partial views.
    fn partial_prepare(&mut self, table: &str, predicate: &[WhereTerm]) -> Result<()> {
        let Some(idx) = self.views.iter().position(|v| v.def().name == table) else {
            return Ok(());
        };
        if self.views[idx].partial_stats().is_none() {
            return Ok(());
        }
        let id = self.cluster.table_id(table)?;
        let schema = self.cluster.def(id)?.schema.clone();
        let pcol = self.views[idx].def().partition_column;
        let key = predicate.iter().find_map(|t| {
            (t.op == CmpOp::Eq && Self::resolve_column(&schema, &t.column).ok() == Some(pcol))
                .then(|| t.literal.clone())
        });
        let pinned = self
            .snapshots
            .as_ref()
            .and_then(|m| m.get(table))
            .map(|s| s.epoch());
        let view = &mut self.views[idx];
        match key {
            Some(k) => {
                let epoch = pinned.unwrap_or_else(|| view.epoch());
                view.ensure_key_resident(&mut self.cluster, &k, epoch)?;
            }
            None => match pinned {
                Some(e) => {
                    view.verify_scan_epoch(e)?;
                    for k in view.partial_holes() {
                        view.ensure_key_resident(&mut self.cluster, &k, e)?;
                    }
                }
                None => {
                    view.ensure_all_resident(&mut self.cluster)?;
                }
            },
        }
        Ok(())
    }

    /// Serve a view SELECT from an MVCC snapshot: the one pinned by an
    /// open `BEGIN SNAPSHOT` session, or a fresh per-statement snapshot.
    /// Returns `None` when the view is not serving (falls back to a scan).
    fn select_view_snapshot(
        &self,
        table: &str,
        predicate: &[WhereTerm],
    ) -> Result<Option<SqlOutput>> {
        let fresh;
        let snap: &Snapshot =
            if let Some(pinned) = self.snapshots.as_ref().and_then(|m| m.get(table)) {
                pinned
            } else {
                let view = self
                    .views
                    .iter()
                    .find(|v| v.def().name == table)
                    .expect("caller checked is_view_table");
                match view.serve_reader() {
                    Some(reader) => {
                        fresh = reader.snapshot();
                        &fresh
                    }
                    None => return Ok(None),
                }
            };
        let id = self.cluster.table_id(table)?;
        let schema = self.cluster.def(id)?.schema.clone();
        let pred = Self::build_predicate(&schema, predicate)?;
        // An equality term reads only the rows it matches instead of a
        // copy of the whole view; the whole predicate still filters them.
        // Both reads return rows sorted, so the output order is the same.
        let candidates = match pred.terms().iter().find(|t| t.op == CmpOp::Eq) {
            Some(t) => snap.lookup(t.column, &t.literal),
            None => snap.rows(),
        };
        let rows: Vec<Row> = candidates.into_iter().filter(|r| pred.eval(r)).collect();
        let epoch = snap.epoch();
        let (schema, rows) = Self::hide_count(schema, rows)?;
        let n = rows.len();
        Ok(Some(SqlOutput {
            message: format!("{n} rows (snapshot epoch {epoch})"),
            rows: Some((schema, rows)),
        }))
    }

    /// Hide the aggregate views' internal `__count` bookkeeping column.
    fn hide_count(schema: SchemaRef, rows: Vec<Row>) -> Result<(SchemaRef, Vec<Row>)> {
        let visible: Vec<usize> = (0..schema.arity())
            .filter(|&i| {
                schema
                    .column(i)
                    .map(|c| c.name != "__count")
                    .unwrap_or(true)
            })
            .collect();
        if visible.len() == schema.arity() {
            return Ok((schema, rows));
        }
        let schema = std::sync::Arc::new(schema.project(&visible)?);
        let rows = rows
            .into_iter()
            .map(|r| r.project(&visible))
            .collect::<Result<_>>()?;
        Ok((schema, rows))
    }

    /// `BEGIN SNAPSHOT`: pin the current epoch of every serving view so
    /// subsequent view SELECTs read one consistent state while maintenance
    /// keeps streaming underneath.
    fn begin_snapshot(&mut self) -> Result<SqlOutput> {
        if self.cluster.in_txn() {
            return Err(PvmError::InvalidOperation(
                "BEGIN SNAPSHOT is not allowed inside a transaction".into(),
            ));
        }
        if self.snapshots.is_some() {
            return Err(PvmError::InvalidOperation(
                "a snapshot session is already open".into(),
            ));
        }
        let mut pinned = HashMap::new();
        for v in &self.views {
            if let Some(reader) = v.serve_reader() {
                pinned.insert(v.def().name.clone(), reader.snapshot());
            }
        }
        let n = pinned.len();
        self.snapshots = Some(pinned);
        Ok(SqlOutput::message(format!(
            "snapshot session open ({n} views pinned)"
        )))
    }

    fn show_tables(&self) -> Result<SqlOutput> {
        let schema = Schema::new(vec![
            pvm_types::Column::str("table"),
            pvm_types::Column::int("rows"),
            pvm_types::Column::int("pages"),
        ])
        .into_ref();
        let mut rows = Vec::new();
        for id in self.cluster.catalog().ids() {
            let def = self.cluster.def(id)?;
            rows.push(Row::new(vec![
                Value::from(def.name.clone()),
                Value::Int(self.cluster.row_count(id)? as i64),
                Value::Int(self.cluster.total_pages(id)? as i64),
            ]));
        }
        rows.sort();
        Ok(SqlOutput {
            message: format!("{} tables", rows.len()),
            rows: Some((schema, rows)),
        })
    }

    fn show_views(&self) -> Result<SqlOutput> {
        let schema = Schema::new(vec![
            pvm_types::Column::str("view"),
            pvm_types::Column::str("method"),
            pvm_types::Column::int("rows"),
            pvm_types::Column::int("extra_pages"),
        ])
        .into_ref();
        let mut rows = Vec::new();
        for v in &self.views {
            rows.push(Row::new(vec![
                Value::from(v.def().name.clone()),
                Value::from(v.method().label()),
                Value::Int(self.cluster.row_count(v.view_table())? as i64),
                Value::Int(v.storage_overhead_pages(&self.cluster)? as i64),
            ]));
        }
        rows.sort();
        Ok(SqlOutput {
            message: format!("{} views", rows.len()),
            rows: Some((schema, rows)),
        })
    }

    fn show_cost(&self) -> Result<SqlOutput> {
        let mut total = CostSnapshot::default();
        for n in self.cluster.nodes() {
            total += n.combined_snapshot();
        }
        let net = self.cluster.fabric().ledger().snapshot();
        Ok(SqlOutput::message(format!(
            "cumulative: {total}; network: {} sends, {} bytes",
            net.sends, net.bytes_sent
        )))
    }

    fn check_view(&mut self, name: String) -> Result<SqlOutput> {
        let idx = self
            .views
            .iter()
            .position(|v| v.def().name == name)
            .ok_or_else(|| PvmError::NotFound(format!("view '{name}'")))?;
        let view = &mut self.views[idx];
        // A partial view legitimately stores fewer rows than the join:
        // upquery every hole so the oracle sees the complete contents,
        // then evict back down to budget.
        let partial = view.partial_stats().is_some();
        if partial {
            view.ensure_all_resident(&mut self.cluster)?;
        }
        let result = view.check_consistent(&self.cluster);
        if partial {
            view.enforce_partial_budget(&mut self.cluster)?;
        }
        result?;
        Ok(SqlOutput::message(format!(
            "view {name} is consistent with its join"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        let mut s = Session::new(ClusterConfig::new(4).with_buffer_pages(512));
        s.execute(
            "CREATE TABLE a (id INT, c INT, p STR) PARTITION BY HASH(id); \
             CREATE TABLE b (id INT, d INT, p STR) PARTITION BY HASH(id);",
        )
        .unwrap();
        for i in 0..20 {
            s.execute(&format!(
                "INSERT INTO a VALUES ({i}, {}, 'a{i}'); INSERT INTO b VALUES ({i}, {}, 'b{i}');",
                i % 5,
                i % 5
            ))
            .unwrap();
        }
        s
    }

    #[test]
    fn end_to_end_view_lifecycle() {
        let mut s = session();
        let out = s
            .execute_one(
                "CREATE VIEW jv USING AUXILIARY RELATION AS \
                 SELECT x.id, x.c, y.id FROM a x, b y WHERE x.c = y.d \
                 PARTITION ON x.id",
            )
            .unwrap();
        assert!(out.message.contains("auxiliary relation"));
        assert!(
            out.message.contains("80 rows"),
            "20 × 4 matches: {}",
            out.message
        );

        // DML keeps the view maintained.
        let out = s
            .execute_one("INSERT INTO a VALUES (100, 2, 'new')")
            .unwrap();
        assert!(
            out.message.contains("4 view rows maintained"),
            "{}",
            out.message
        );
        s.execute_one("CHECK VIEW jv").unwrap();

        let out = s.execute_one("DELETE FROM b WHERE d = 2").unwrap();
        assert!(out.message.contains("deleted 4 rows"), "{}", out.message);
        s.execute_one("CHECK VIEW jv").unwrap();

        let out = s.execute_one("UPDATE a SET c = 3 WHERE id = 100").unwrap();
        assert!(out.message.contains("updated 1 rows"), "{}", out.message);
        s.execute_one("CHECK VIEW jv").unwrap();

        // SELECT over the view's stored table, with suffix column match.
        let out = s.execute_one("SELECT * FROM jv WHERE c = 3").unwrap();
        let (_, rows) = out.rows.unwrap();
        // 5 a-rows with c = 3 (ids 3, 8, 13, 18, 100) × 4 b-rows with d = 3.
        assert_eq!(rows.len(), 20, "{rows:?}");
    }

    #[test]
    fn select_and_predicates() {
        let mut s = session();
        let out = s
            .execute_one("SELECT * FROM a WHERE c = 1 AND id < 10")
            .unwrap();
        let (_, rows) = out.rows.unwrap();
        assert_eq!(rows.len(), 2); // ids 1, 6
        let out = s.execute_one("SELECT * FROM a WHERE p = 'a3'").unwrap();
        assert_eq!(out.rows.unwrap().1.len(), 1);
    }

    #[test]
    fn show_statements() {
        let mut s = session();
        s.execute_one(
            "CREATE VIEW v USING NAIVE AS SELECT x.id, y.id FROM a x, b y WHERE x.c = y.d",
        )
        .unwrap();
        let tables = s.execute_one("SHOW TABLES").unwrap();
        let names: Vec<String> = tables
            .rows
            .unwrap()
            .1
            .iter()
            .map(|r| r[0].as_str().unwrap().to_owned())
            .collect();
        assert!(names.contains(&"a".to_string()));
        assert!(
            names.contains(&"v".to_string()),
            "view table listed: {names:?}"
        );

        let views = s.execute_one("SHOW VIEWS").unwrap();
        let (_, vrows) = views.rows.unwrap();
        assert_eq!(vrows.len(), 1);
        assert_eq!(vrows[0][1], Value::from("naive"));

        let cost = s.execute_one("SHOW COST").unwrap();
        assert!(cost.message.contains("cumulative"));
    }

    #[test]
    fn view_tables_are_read_only() {
        let mut s = session();
        s.execute_one(
            "CREATE VIEW v USING GLOBAL INDEX AS SELECT x.id, y.id FROM a x, b y WHERE x.c = y.d",
        )
        .unwrap();
        assert!(s.execute_one("INSERT INTO v VALUES (1, 1)").is_err());
        assert!(s.execute_one("DELETE FROM v").is_err());
        assert!(s.execute_one("UPDATE v SET id = 1").is_err());
    }

    #[test]
    fn auto_method_selection() {
        let mut s = session();
        let out = s
            .execute_one("CREATE VIEW v AS SELECT x.id, y.id FROM a x, b y WHERE x.c = y.d")
            .unwrap();
        // Tiny tables: the advisor may legitimately pick any method; the
        // statement must succeed and name one.
        assert!(out.message.contains("method"), "{}", out.message);
        s.execute_one("CHECK VIEW v").unwrap();
    }

    #[test]
    fn binding_errors_are_reported() {
        let mut s = session();
        assert!(s.execute("SELECT * FROM missing").is_err());
        assert!(
            s.execute("INSERT INTO a VALUES (1)").is_err(),
            "arity mismatch"
        );
        assert!(
            s.execute("INSERT INTO a VALUES ('x', 1, 'p')").is_err(),
            "type mismatch"
        );
        assert!(s
            .execute("CREATE VIEW v AS SELECT q.id FROM a x, b y WHERE x.c = y.d")
            .is_err());
        assert!(s.execute("DELETE FROM a WHERE nope = 1").is_err());
        assert!(s.execute("CHECK VIEW ghost").is_err());
        // Unqualified projection in a view.
        assert!(s
            .execute("CREATE VIEW v AS SELECT id FROM a x, b y WHERE x.c = y.d")
            .is_err());
        // PARTITION ON column outside the SELECT list.
        assert!(s
            .execute("CREATE VIEW v AS SELECT x.id FROM a x, b y WHERE x.c = y.d PARTITION ON y.d")
            .is_err());
    }

    #[test]
    fn multiple_views_one_update() {
        let mut s = session();
        s.execute(
            "CREATE VIEW v1 USING NAIVE AS SELECT x.id, y.id FROM a x, b y WHERE x.c = y.d; \
             CREATE VIEW v2 USING AUXILIARY RELATION AS \
             SELECT x.c, y.id FROM a x, b y WHERE x.c = y.d;",
        )
        .unwrap();
        let out = s.execute_one("INSERT INTO a VALUES (200, 0, 'z')").unwrap();
        // 4 matches in each of the two views.
        assert!(
            out.message.contains("8 view rows maintained"),
            "{}",
            out.message
        );
        s.execute_one("CHECK VIEW v1").unwrap();
        s.execute_one("CHECK VIEW v2").unwrap();
    }

    #[test]
    fn explain_maintenance_shows_chain() {
        let mut s = session();
        s.execute_one(
            "CREATE TABLE c (id INT, e INT, p STR) PARTITION BY HASH(id); \
             ",
        )
        .unwrap();
        for i in 0..10 {
            s.execute_one(&format!("INSERT INTO c VALUES ({i}, {}, 'c')", i % 5))
                .unwrap();
        }
        s.execute_one(
            "CREATE VIEW jv3 USING AUXILIARY RELATION AS \
             SELECT x.id, y.id, z.id FROM a x, b y, c z \
             WHERE x.c = y.d AND y.d = z.e",
        )
        .unwrap();
        let out = s.execute_one("EXPLAIN MAINTENANCE OF jv3 ON a").unwrap();
        let (_, rows) = out.rows.unwrap();
        assert_eq!(rows.len(), 2, "two probe steps for a three-way view");
        assert_eq!(rows[0][0], Value::Int(1));
        // Errors for unknown names.
        assert!(s.execute("EXPLAIN MAINTENANCE OF ghost ON a").is_err());
        assert!(s.execute("EXPLAIN MAINTENANCE OF jv3 ON ghost").is_err());
    }

    #[test]
    fn aggregate_views_in_sql() {
        let mut s = session();
        let out = s
            .execute_one(
                "CREATE VIEW agg USING AUXILIARY RELATION AS \
                 SELECT x.c, COUNT(*), SUM(y.d) FROM a x, b y WHERE x.c = y.d \
                 GROUP BY x.c",
            )
            .unwrap();
        assert!(out.message.contains("5 groups"), "{}", out.message);

        // 4 a-rows × 4 b-rows per value initially; the hidden __count
        // column does not appear in SELECT output.
        let rows = s.execute_one("SELECT * FROM agg").unwrap().rows.unwrap().1;
        for r in &rows {
            let g = r[0].as_int().unwrap();
            assert_eq!(r.arity(), 3, "group, COUNT, SUM — no __count");
            assert_eq!(r[1], Value::Int(16), "COUNT per group");
            assert_eq!(r[2], Value::Int(16 * g), "SUM(d) = 16·g");
        }

        // DML folds incrementally.
        s.execute_one("INSERT INTO a VALUES (100, 2, 'x')").unwrap();
        s.execute_one("CHECK VIEW agg").unwrap();
        let g2 = s
            .execute_one("SELECT * FROM agg WHERE c = 2")
            .unwrap()
            .rows
            .unwrap()
            .1;
        assert_eq!(g2[0][1], Value::Int(20), "5 a-rows × 4 b-rows");

        // Deleting every b-row of a group dissolves it.
        s.execute_one("DELETE FROM b WHERE d = 3").unwrap();
        s.execute_one("CHECK VIEW agg").unwrap();
        let left = s.execute_one("SELECT * FROM agg").unwrap().rows.unwrap().1;
        assert_eq!(left.len(), 4);
    }

    #[test]
    fn aggregate_sql_validation() {
        let mut s = session();
        // GROUP BY without aggregates.
        assert!(s
            .execute("CREATE VIEW v AS SELECT x.id FROM a x, b y WHERE x.c = y.d GROUP BY x.id")
            .is_err());
        // Aggregate without GROUP BY column in select.
        assert!(s
            .execute("CREATE VIEW v AS SELECT COUNT(*) FROM a x, b y WHERE x.c = y.d")
            .is_err());
        // Selected plain column missing from GROUP BY.
        assert!(s
            .execute(
                "CREATE VIEW v AS SELECT x.id, x.c, COUNT(*) FROM a x, b y \
                 WHERE x.c = y.d GROUP BY x.id"
            )
            .is_err());
        // SUM of a string column.
        assert!(s
            .execute(
                "CREATE VIEW v AS SELECT x.c, SUM(y.p) FROM a x, b y \
                 WHERE x.c = y.d GROUP BY x.c"
            )
            .is_err());
    }

    #[test]
    fn drop_view_reclaims_structures() {
        let mut s = session();
        s.execute_one(
            "CREATE VIEW jv USING AUXILIARY RELATION AS \
             SELECT x.id, y.id FROM a x, b y WHERE x.c = y.d",
        )
        .unwrap();
        // Base tables cannot be dropped while referenced.
        assert!(s.execute("DROP TABLE a").is_err());
        // ARs exist…
        let ars_before = s
            .cluster()
            .catalog()
            .ids()
            .filter(|&id| s.cluster().def(id).unwrap().name.contains("__ar_"))
            .count();
        assert_eq!(ars_before, 2);
        s.execute_one("DROP VIEW jv").unwrap();
        // …and are gone, together with the view table.
        let ars_after = s
            .cluster()
            .catalog()
            .ids()
            .filter(|&id| s.cluster().def(id).unwrap().name.contains("__ar_"))
            .count();
        assert_eq!(ars_after, 0);
        assert!(s.execute("SELECT * FROM jv").is_err());
        assert!(s.execute("DROP VIEW jv").is_err(), "double drop");
        // Now the base table can go; further DML on it fails.
        s.execute_one("DROP TABLE a").unwrap();
        assert!(s.execute("INSERT INTO a VALUES (1, 1, 'x')").is_err());
    }

    /// One row per grouped view in `pvm_views`, `shared_group` column.
    fn shared_groups(s: &mut Session) -> Vec<(String, String)> {
        let rows = s
            .execute_one("SELECT * FROM pvm_views")
            .unwrap()
            .rows
            .unwrap()
            .1;
        let unquote = |v: &Value| match v {
            Value::Str(s) => s.clone(),
            other => other.to_string(),
        };
        rows.iter()
            .map(|r| (unquote(&r[0]), unquote(&r[10])))
            .collect()
    }

    #[test]
    fn second_compatible_view_forms_shared_group() {
        let mut s = session();
        let out = s
            .execute_one(
                "CREATE VIEW jv1 USING AUXILIARY RELATION AS \
                 SELECT x.id, x.c, y.id FROM a x, b y WHERE x.c = y.d",
            )
            .unwrap();
        assert!(
            !out.message.contains("shared group"),
            "a lone view stays private: {}",
            out.message
        );
        let out = s
            .execute_one(
                "CREATE VIEW jv2 USING AUXILIARY RELATION AS \
                 SELECT y.id, y.p FROM a x, b y WHERE x.c = y.d",
            )
            .unwrap();
        assert!(
            out.message.contains("shared group g0"),
            "second compatible view pools: {}",
            out.message
        );
        assert_eq!(
            shared_groups(&mut s),
            vec![
                ("jv1".to_string(), "g0".to_string()),
                ("jv2".to_string(), "g0".to_string()),
            ]
        );
        // Private AR tables were re-homed onto the pool.
        let names: Vec<String> = s
            .cluster()
            .catalog()
            .ids()
            .map(|id| s.cluster().def(id).unwrap().name.clone())
            .collect();
        assert!(
            names.iter().any(|n| n.starts_with("pool__ar_")),
            "pool ARs exist: {names:?}"
        );
        assert!(
            !names.iter().any(|n| n.starts_with("jv1__ar_")),
            "jv1's private ARs dropped: {names:?}"
        );
        // Deltas run the chain once and fan results to both members.
        let out = s.execute_one("INSERT INTO a VALUES (200, 0, 'z')").unwrap();
        assert!(
            out.message.contains("8 view rows maintained"),
            "4 matches in each member: {}",
            out.message
        );
        s.execute_one("CHECK VIEW jv1").unwrap();
        s.execute_one("CHECK VIEW jv2").unwrap();
        let metrics = s
            .execute_one("SELECT * FROM pvm_metrics")
            .unwrap()
            .rows
            .unwrap()
            .1;
        let saved = metrics
            .iter()
            .find(|r| r[0] == Value::from("share.probes_saved"))
            .expect("share.probes_saved counter");
        assert!(
            matches!(saved[1], Value::Int(n) if n > 0),
            "probe-once saved searches: {saved:?}"
        );
    }

    #[test]
    fn pool_widening_rebinds_other_signature_groups() {
        let mut s = session();
        s.execute("CREATE TABLE e (id INT, f INT, p STR) PARTITION BY HASH(id)")
            .unwrap();
        for i in 0..20 {
            s.execute(&format!("INSERT INTO e VALUES ({i}, {}, 'e{i}')", i % 5))
                .unwrap();
        }
        // Group g0: two AR views on a ⋈ b. Pool AR (a, c) keeps {id, c}.
        s.execute(
            "CREATE VIEW jv1 USING AUXILIARY RELATION AS \
                 SELECT x.id, y.id FROM a x, b y WHERE x.c = y.d; \
             CREATE VIEW jv2 USING AUXILIARY RELATION AS \
                 SELECT y.id, x.id FROM a x, b y WHERE x.c = y.d;",
        )
        .unwrap();
        // Group g1: a different join graph needing the same (a, c) AR
        // with a wider keep set {id, c, p} — enrolling drops and rebuilds
        // the pool AR under a new table id, so g0's members must rebind
        // even though they are not g1's signature peers.
        s.execute(
            "CREATE VIEW jv3 USING AUXILIARY RELATION AS \
                 SELECT x.id, x.p, z.f FROM a x, b y, e z \
                 WHERE x.c = y.d AND y.id = z.id; \
             CREATE VIEW jv4 USING AUXILIARY RELATION AS \
                 SELECT z.f, x.id, x.p FROM a x, b y, e z \
                 WHERE x.c = y.d AND y.id = z.id;",
        )
        .unwrap();
        assert_eq!(
            shared_groups(&mut s),
            vec![
                ("jv1".to_string(), "g0".to_string()),
                ("jv2".to_string(), "g0".to_string()),
                ("jv3".to_string(), "g1".to_string()),
                ("jv4".to_string(), "g1".to_string()),
            ]
        );
        // A delta on b probes the rebuilt (a, c) AR through g0's chain —
        // with stale bindings this fails (the old table is dropped).
        s.execute_one("INSERT INTO b VALUES (300, 2, 'nb')")
            .unwrap();
        s.execute_one("INSERT INTO a VALUES (301, 3, 'na')")
            .unwrap();
        s.execute_one("DELETE FROM b WHERE id = 4").unwrap();
        for v in ["jv1", "jv2", "jv3", "jv4"] {
            s.execute_one(&format!("CHECK VIEW {v}")).unwrap();
        }
    }

    #[test]
    fn incompatible_views_stay_ungrouped() {
        let mut s = session();
        // Same method, different join attribute — no group.
        s.execute(
            "CREATE VIEW v1 USING NAIVE AS SELECT x.id, y.id FROM a x, b y WHERE x.c = y.d; \
             CREATE VIEW v2 USING NAIVE AS SELECT x.id, y.id FROM a x, b y WHERE x.id = y.id; \
             CREATE VIEW v3 USING GLOBAL INDEX AS SELECT x.c, y.id FROM a x, b y WHERE x.c = y.d;",
        )
        .unwrap();
        assert!(shared_groups(&mut s).iter().all(|(_, g)| g == "-"));
        let out = s.execute_one("INSERT INTO a VALUES (201, 1, 'q')").unwrap();
        assert!(out.message.contains("view rows maintained"));
        for v in ["v1", "v2", "v3"] {
            s.execute_one(&format!("CHECK VIEW {v}")).unwrap();
        }
    }

    #[test]
    fn dropping_members_dissolves_group_and_pool() {
        let mut s = session();
        s.execute(
            "CREATE VIEW g1 USING GLOBAL INDEX AS \
                 SELECT x.id, y.id FROM a x, b y WHERE x.c = y.d; \
             CREATE VIEW g2 USING GLOBAL INDEX AS \
                 SELECT y.id, x.p FROM a x, b y WHERE x.c = y.d; \
             CREATE VIEW g3 USING GLOBAL INDEX AS \
                 SELECT x.c, y.p FROM a x, b y WHERE x.c = y.d;",
        )
        .unwrap();
        assert_eq!(
            shared_groups(&mut s)
                .iter()
                .filter(|(_, g)| g == "g0")
                .count(),
            3
        );
        s.execute_one("DROP VIEW g2").unwrap();
        // Two members left: still a group, still maintained together.
        assert_eq!(
            shared_groups(&mut s)
                .iter()
                .filter(|(_, g)| g == "g0")
                .count(),
            2
        );
        s.execute_one("INSERT INTO b VALUES (300, 3, 'nb')")
            .unwrap();
        s.execute_one("CHECK VIEW g1").unwrap();
        s.execute_one("CHECK VIEW g3").unwrap();
        s.execute_one("DROP VIEW g1").unwrap();
        // A group of one is no group; the survivor keeps its pool GIs.
        assert_eq!(
            shared_groups(&mut s),
            vec![("g3".to_string(), "-".to_string())]
        );
        s.execute_one("INSERT INTO a VALUES (301, 3, 'na')")
            .unwrap();
        s.execute_one("CHECK VIEW g3").unwrap();
        s.execute_one("DROP VIEW g3").unwrap();
        // Last pool-bound view gone: the pool's tables are reclaimed.
        let leftovers: Vec<String> = s
            .cluster()
            .catalog()
            .ids()
            .map(|id| s.cluster().def(id).unwrap().name.clone())
            .filter(|n| n.starts_with("pool__"))
            .collect();
        assert!(leftovers.is_empty(), "pool tables linger: {leftovers:?}");
    }

    #[test]
    fn sql_transactions_roll_back_views() {
        let mut s = session();
        s.execute_one(
            "CREATE VIEW jv USING GLOBAL INDEX AS \
             SELECT x.id, y.id FROM a x, b y WHERE x.c = y.d",
        )
        .unwrap();
        let before = s
            .execute_one("SELECT * FROM jv")
            .unwrap()
            .rows
            .unwrap()
            .1
            .len();
        s.execute("BEGIN; INSERT INTO a VALUES (300, 1, 'tx'); DELETE FROM b WHERE d = 2;")
            .unwrap();
        let during = s
            .execute_one("SELECT * FROM jv")
            .unwrap()
            .rows
            .unwrap()
            .1
            .len();
        assert_ne!(during, before, "txn changes visible before rollback");
        s.execute_one("ROLLBACK").unwrap();
        let after = s
            .execute_one("SELECT * FROM jv")
            .unwrap()
            .rows
            .unwrap()
            .1
            .len();
        assert_eq!(after, before);
        s.execute_one("CHECK VIEW jv").unwrap();
        // And a committed txn sticks.
        s.execute("BEGIN; INSERT INTO a VALUES (301, 1, 'tx2'); COMMIT")
            .unwrap();
        let committed = s
            .execute_one("SELECT * FROM jv")
            .unwrap()
            .rows
            .unwrap()
            .1
            .len();
        assert_eq!(committed, before + 4);
        // Discipline errors surface.
        assert!(s.execute("COMMIT").is_err());
    }

    #[test]
    fn snapshot_sessions_pin_view_epochs() {
        let mut s = session();
        s.execute_one(
            "CREATE VIEW jv USING AUXILIARY RELATION AS \
             SELECT x.id, y.id FROM a x, b y WHERE x.c = y.d",
        )
        .unwrap();
        let before = s.execute_one("SELECT * FROM jv").unwrap();
        assert!(
            before.message.contains("snapshot epoch 0"),
            "{}",
            before.message
        );
        let before_n = before.rows.unwrap().1.len();

        let out = s.execute_one("BEGIN SNAPSHOT").unwrap();
        assert!(out.message.contains("1 views pinned"), "{}", out.message);

        // Maintenance streams in underneath the pinned snapshot…
        s.execute_one("INSERT INTO a VALUES (400, 1, 'n')").unwrap();
        let pinned = s.execute_one("SELECT * FROM jv").unwrap();
        assert!(
            pinned.message.contains("snapshot epoch 0"),
            "{}",
            pinned.message
        );
        assert_eq!(pinned.rows.unwrap().1.len(), before_n);

        // …and becomes visible once the session releases.
        let out = s.execute_one("COMMIT").unwrap();
        assert!(out.message.contains("snapshot session released"));
        let after = s.execute_one("SELECT * FROM jv").unwrap();
        assert!(
            after.message.contains("snapshot epoch 1"),
            "{}",
            after.message
        );
        assert_eq!(after.rows.unwrap().1.len(), before_n + 4);
    }

    #[test]
    fn served_equality_select_matches_the_filtered_full_read() {
        let mut s = session();
        s.execute(
            "CREATE VIEW jv USING AUXILIARY RELATION AS \
             SELECT x.id, x.c, y.id FROM a x, b y WHERE x.c = y.d PARTITION ON x.id; \
             CREATE VIEW agg USING NAIVE AS \
             SELECT x.c, COUNT(*), SUM(y.d) FROM a x, b y WHERE x.c = y.d GROUP BY x.c",
        )
        .unwrap();
        s.execute_one("INSERT INTO a VALUES (7, 2, 'dup')").unwrap();
        let mut rows = |sql: &str| s.execute_one(sql).unwrap().rows.unwrap().1;
        let all = rows("SELECT * FROM jv");
        for k in [0i64, 7, 13, 99] {
            let key = Value::Int(k);
            let got = rows(&format!("SELECT * FROM jv WHERE a.id = {k}"));
            let want: Vec<Row> = all.iter().filter(|r| r[0] == key).cloned().collect();
            assert_eq!(got, want, "key {k}");
            // The rest of the predicate still filters the key's rows.
            let got = rows(&format!("SELECT * FROM jv WHERE b.id > 9 AND a.id = {k}"));
            let want: Vec<Row> = want.into_iter().filter(|r| r[2] > Value::Int(9)).collect();
            assert_eq!(got, want, "key {k} with b.id > 9");
            // An equality off the partition column takes the same path.
            let got = rows(&format!("SELECT * FROM jv WHERE a.c = {k}"));
            let want: Vec<Row> = all.iter().filter(|r| r[1] == key).cloned().collect();
            assert_eq!(got, want, "a.c = {k}");
        }
        // The hidden `__count` of an aggregate view stays hidden on the
        // equality path.
        let groups = rows("SELECT * FROM agg");
        for g in 0..6i64 {
            let got = rows(&format!("SELECT * FROM agg WHERE c = {g}"));
            let want: Vec<Row> = groups
                .iter()
                .filter(|r| r[0] == Value::Int(g))
                .cloned()
                .collect();
            assert_eq!(got, want, "group {g}");
        }
    }

    #[test]
    fn snapshot_session_discipline() {
        let mut s = session();
        s.execute_one(
            "CREATE VIEW jv USING NAIVE AS SELECT x.id, y.id FROM a x, b y WHERE x.c = y.d",
        )
        .unwrap();
        s.execute_one("BEGIN SNAPSHOT").unwrap();
        assert!(s.execute("BEGIN SNAPSHOT").is_err(), "nested snapshot");
        assert!(s.execute("BEGIN").is_err(), "txn under snapshot session");
        let out = s.execute_one("ROLLBACK").unwrap();
        assert!(out.message.contains("snapshot session released"));
        // Snapshots do not mix with transactions the other way either.
        s.execute_one("BEGIN").unwrap();
        assert!(s.execute("BEGIN SNAPSHOT").is_err());
        s.execute_one("ROLLBACK").unwrap();
    }

    #[test]
    fn delete_without_predicate_clears_table() {
        let mut s = session();
        s.execute_one("DELETE FROM a").unwrap();
        let out = s.execute_one("SELECT * FROM a").unwrap();
        assert!(out.rows.unwrap().1.is_empty());
    }

    #[test]
    fn ambiguous_suffix_rejected() {
        let mut s = session();
        s.execute_one(
            "CREATE VIEW v USING NAIVE AS SELECT x.id, y.id FROM a x, b y WHERE x.c = y.d",
        )
        .unwrap();
        // Both view columns are named `…id`: the bare ref is ambiguous.
        assert!(s.execute("SELECT * FROM v WHERE id = 1").is_err());
    }

    #[test]
    fn system_tables_expose_live_state() {
        let mut s = session();
        s.execute_one(
            "CREATE VIEW jv USING AUXILIARY RELATION AS \
             SELECT x.id, x.c, y.id FROM a x, b y WHERE x.c = y.d \
             PARTITION ON x.id",
        )
        .unwrap();
        s.execute_one("INSERT INTO a VALUES (100, 1, 'n')").unwrap();

        // pvm_metrics: counters exist and the per-view batch counter ticked.
        let out = s.execute_one("SELECT * FROM pvm_metrics").unwrap();
        let (schema, rows) = out.rows.unwrap();
        assert_eq!(schema.columns().len(), 2);
        assert!(!rows.is_empty(), "registry should have counters");
        let batches = rows
            .iter()
            .find(|r| r.values()[0] == Value::from("view.jv.batches"))
            .expect("view.jv.batches counter");
        assert_eq!(batches.values()[1], Value::Int(1));

        // pvm_views: one well-formed row for jv at epoch 1.
        let out = s.execute_one("SELECT * FROM pvm_views").unwrap();
        let (schema, rows) = out.rows.unwrap();
        assert_eq!(
            schema
                .columns()
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            [
                "view",
                "method",
                "epoch",
                "rows",
                "chain_len",
                "pinned_snapshots",
                "partial_budget",
                "resident_bytes",
                "evictions",
                "hit_rate",
                "shared_group"
            ]
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values()[0], Value::from("jv"));
        assert_eq!(rows[0].values()[1], Value::from("auxiliary relation"));
        assert_eq!(rows[0].values()[2], Value::Int(1));
        assert!(matches!(rows[0].values()[3], Value::Int(n) if n > 0));
        assert_eq!(
            rows[0].values()[10],
            Value::from("-"),
            "lone view is ungrouped"
        );

        // pvm_nodes: one row per node, shares sum to ~1 once work exists.
        let out = s.execute_one("SELECT * FROM pvm_nodes").unwrap();
        let rows = out.rows.unwrap().1;
        assert_eq!(rows.len(), 4);
        let share: f64 = rows
            .iter()
            .map(|r| match r.values()[6] {
                Value::Float(f) => f,
                _ => panic!("work_share must be FLOAT"),
            })
            .sum();
        assert!((share - 1.0).abs() < 1e-9, "shares sum to {share}");

        // pvm_histograms: every row carries p50 <= p99 <= max.
        let out = s.execute_one("SELECT * FROM pvm_histograms").unwrap();
        let rows = out.rows.unwrap().1;
        assert!(!rows.is_empty());
        for r in &rows {
            let (p50, p99) = match (&r.values()[3], &r.values()[4]) {
                (Value::Float(a), Value::Float(b)) => (*a, *b),
                other => panic!("quantiles must be FLOAT, got {other:?}"),
            };
            let max = match r.values()[5] {
                Value::Int(m) => m as f64,
                _ => panic!("max must be INT"),
            };
            assert!(p50 <= p99 && p99 <= max, "p50 {p50} p99 {p99} max {max}");
        }

        // pvm_lineage: the insert's maintenance left a span trail with
        // the route → probe → ship → view-apply lifecycle phases.
        let out = s.execute_one("SELECT * FROM pvm_lineage").unwrap();
        let rows = out.rows.unwrap().1;
        assert!(!rows.is_empty(), "lineage ring should have events");
        let phases: std::collections::HashSet<String> = rows
            .iter()
            .map(|r| match &r.values()[4] {
                Value::Str(p) => p.clone(),
                other => panic!("phase must be STR, got {other:?}"),
            })
            .collect();
        for want in ["route", "probe", "view-apply"] {
            assert!(phases.contains(want), "missing phase {want}: {phases:?}");
        }

        // WHERE works on system tables like on any relation.
        let out = s
            .execute_one("SELECT * FROM pvm_nodes WHERE node = 2")
            .unwrap();
        let rows = out.rows.unwrap().1;
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values()[0], Value::Int(2));
    }

    #[test]
    fn system_tables_are_read_only() {
        let mut s = session();
        for stmt in [
            "INSERT INTO pvm_metrics VALUES ('x', 1)",
            "DELETE FROM pvm_views",
            "UPDATE pvm_nodes SET node = 0",
            "DROP TABLE pvm_lineage",
        ] {
            assert!(s.execute(stmt).is_err(), "{stmt} must be rejected");
        }
    }

    #[test]
    fn partial_views_in_sql() {
        let mut s = session();
        s.execute_one(
            "CREATE VIEW jv USING AUXILIARY RELATION AS \
             SELECT x.id, x.c, y.id FROM a x, b y WHERE x.c = y.d \
             PARTITION ON x.id",
        )
        .unwrap();
        // Fully eager contents are the oracle for every later read.
        let want = s.execute_one("SELECT * FROM jv").unwrap().rows.unwrap().1;

        let out = s
            .execute_one("ALTER VIEW jv SET PARTIAL BUDGET 256")
            .unwrap();
        assert!(out.message.contains("is now partial"), "{}", out.message);

        // The tiny budget forced evictions, visible in pvm_views.
        let vrows = s
            .execute_one("SELECT * FROM pvm_views")
            .unwrap()
            .rows
            .unwrap()
            .1;
        assert_eq!(vrows[0].values()[6], Value::Int(256), "budget column");
        assert!(
            matches!(vrows[0].values()[8], Value::Int(e) if e > 0),
            "evictions recorded: {:?}",
            vrows[0]
        );

        // A point read on the partition column upqueries on miss and
        // matches the eager oracle.
        let got = s
            .execute_one("SELECT * FROM jv WHERE a.id = 3")
            .unwrap()
            .rows
            .unwrap()
            .1;
        let want_key: Vec<Row> = want
            .iter()
            .filter(|r| r.values()[0] == Value::Int(3))
            .cloned()
            .collect();
        assert_eq!(got, want_key, "key 3 point read");

        // A full scan upqueries every hole first and matches exactly.
        let got = s.execute_one("SELECT * FROM jv").unwrap().rows.unwrap().1;
        assert_eq!(got, want, "full scan after upquerying all holes");

        // CHECK VIEW upqueries the holes before comparing against the
        // recomputed join (a partial view legitimately stores less), then
        // re-evicts down to budget.
        let out = s.execute_one("CHECK VIEW jv").unwrap();
        assert!(out.message.contains("consistent"), "{}", out.message);
        let vrows = s
            .execute_one("SELECT * FROM pvm_views")
            .unwrap()
            .rows
            .unwrap()
            .1;
        assert!(
            matches!(vrows[0].values()[7], Value::Int(r) if r <= 256 * 4),
            "budget re-enforced after CHECK VIEW: {:?}",
            vrows[0]
        );

        // DML still maintains the view; the new key reads back correctly.
        s.execute_one("INSERT INTO a VALUES (100, 2, 'n')").unwrap();
        let got = s
            .execute_one("SELECT * FROM jv WHERE a.id = 100")
            .unwrap()
            .rows
            .unwrap()
            .1;
        assert_eq!(got.len(), 4, "4 b-rows join the new a-row");

        // Errors: unknown view, double enable.
        assert!(s
            .execute("ALTER VIEW ghost SET PARTIAL BUDGET 1 KB")
            .is_err());
        assert!(s.execute("ALTER VIEW jv SET PARTIAL BUDGET 1 KB").is_err());
    }

    #[test]
    fn partial_view_reads_blocked_in_txn_and_old_snapshots() {
        let mut s = session();
        s.execute_one(
            "CREATE VIEW jv USING NAIVE AS \
             SELECT x.id, x.c, y.id FROM a x, b y WHERE x.c = y.d \
             PARTITION ON x.id",
        )
        .unwrap();
        s.execute_one("ALTER VIEW jv SET PARTIAL BUDGET 256")
            .unwrap();

        // Inside a transaction an upquery cannot run; reads that would
        // need one are refused instead of returning partial rows.
        s.execute_one("BEGIN").unwrap();
        let err = s.execute("SELECT * FROM jv").unwrap_err();
        assert!(err.to_string().contains("inside a transaction"), "{err}");
        s.execute_one("ROLLBACK").unwrap();

        // A pinned snapshot that predates an eviction is refused: the
        // key's MVCC history was purged everywhere.
        s.execute_one("BEGIN SNAPSHOT").unwrap();
        assert!(
            s.execute("ALTER VIEW jv SET PARTIAL BUDGET 512").is_err(),
            "no ALTER under a snapshot session"
        );
        // Maintenance advances the epoch and the cap forces evictions
        // stamped above the pinned epoch.
        s.execute_one("INSERT INTO a VALUES (200, 1, 'n')").unwrap();
        let err = s.execute("SELECT * FROM jv").unwrap_err();
        assert!(err.to_string().contains("snapshot too old"), "{err}");
        s.execute_one("COMMIT").unwrap();
        // Released: current-epoch reads work again.
        s.execute_one("SELECT * FROM jv").unwrap();
    }

    #[test]
    fn explain_analyze_compares_prediction_to_observation() {
        let mut s = session();
        s.execute_one(
            "CREATE VIEW jv USING GLOBAL INDEX AS \
             SELECT x.id, x.c, y.id FROM a x, b y WHERE x.c = y.d \
             PARTITION ON x.id",
        )
        .unwrap();

        // Before any DML: plan + predicted rows, zero observed batches.
        let out = s
            .execute_one("EXPLAIN ANALYZE MAINTENANCE OF jv ON a")
            .unwrap();
        assert!(
            out.message.contains("no observed batches yet"),
            "{}",
            out.message
        );
        let (schema, rows) = out.rows.unwrap();
        assert_eq!(
            schema
                .columns()
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            [
                "section",
                "step",
                "phase",
                "detail",
                "batches",
                "mean_io",
                "mean_rows",
                "mean_sends"
            ]
        );
        assert!(rows.iter().any(|r| r.values()[0] == Value::from("plan")));
        assert!(rows
            .iter()
            .any(|r| r.values()[0] == Value::from("predicted")));

        // After some batches the observed section carries live means.
        for i in 0..3 {
            s.execute_one(&format!("INSERT INTO a VALUES ({}, 1, 'n')", 200 + i))
                .unwrap();
        }
        let out = s
            .execute_one("EXPLAIN ANALYZE MAINTENANCE OF jv ON a")
            .unwrap();
        assert!(
            out.message.contains("predicted response")
                && out.message.contains("over the last 3 batches"),
            "{}",
            out.message
        );
        let rows = out.rows.unwrap().1;
        let observed: Vec<_> = rows
            .iter()
            .filter(|r| r.values()[0] == Value::from("observed"))
            .collect();
        assert_eq!(observed.len(), 6, "base/aux/compute/view/tw/response");
        for r in &observed {
            assert_eq!(r.values()[4], Value::Int(3), "3 batches observed");
            assert_eq!(r.values()[6], Value::Float(1.0), "1 delta row per batch");
        }
        let response = observed
            .iter()
            .find(|r| r.values()[2] == Value::from("response"))
            .unwrap();
        assert!(
            matches!(response.values()[5], Value::Float(io) if io > 0.0),
            "observed response I/O must be positive"
        );

        // Plain EXPLAIN (no ANALYZE) keeps the static chain shape.
        let out = s.execute_one("EXPLAIN MAINTENANCE OF jv ON a").unwrap();
        let (schema, _) = out.rows.unwrap();
        assert_eq!(schema.columns()[0].name, "step");
    }

    #[test]
    fn writes_to_unviewed_tables_keep_pool_structures_current() {
        // The e ⋈ f pair keeps the AR pool alive after the a ⋈ b pair is
        // dropped, so the pool's ARs over a and b must follow an INSERT
        // into b made while no view joins it: the re-created a ⋈ b pair
        // enrolls onto those same ARs.
        let mut s = session();
        s.execute(
            "CREATE TABLE e (id INT, c INT, p STR) PARTITION BY HASH(id); \
             CREATE TABLE f (id INT, d INT, p STR) PARTITION BY HASH(id);",
        )
        .unwrap();
        for i in 0..20 {
            s.execute(&format!(
                "INSERT INTO e VALUES ({i}, {}, 'e{i}'); INSERT INTO f VALUES ({i}, {}, 'f{i}');",
                i % 5,
                i % 5
            ))
            .unwrap();
        }
        let pair = |x: &str, y: &str, v: &str, w: &str| {
            format!(
                "CREATE VIEW {v} USING AUXILIARY RELATION AS \
                     SELECT x.id, y.id FROM {x} x, {y} y WHERE x.c = y.d; \
                 CREATE VIEW {w} USING AUXILIARY RELATION AS \
                     SELECT x.id, y.p FROM {x} x, {y} y WHERE x.c = y.d;"
            )
        };
        s.execute(&pair("a", "b", "ab1", "ab2")).unwrap();
        s.execute(&pair("e", "f", "ef1", "ef2")).unwrap();
        s.execute("DROP VIEW ab1; DROP VIEW ab2;").unwrap();
        let out = s
            .execute_one("INSERT INTO b VALUES (100, 3, 'nb')")
            .unwrap();
        assert_eq!(out.message, "inserted 1 rows into b");
        s.execute(&pair("a", "b", "ab3", "ab4")).unwrap();
        s.execute_one("INSERT INTO a VALUES (100, 3, 'na')")
            .unwrap();
        for v in ["ab3", "ab4", "ef1", "ef2"] {
            s.execute_one(&format!("CHECK VIEW {v}"))
                .unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }
}
