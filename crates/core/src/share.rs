//! Probe-once shared maintenance across a catalog of views.
//!
//! §2.1.2 observes that many views commonly join the same base relations
//! on the same attributes, differing only in which columns they project.
//! [`crate::view::maintain`] — the one maintenance loop — shares the
//! *base update* across such views, and a [`SharedCatalog`]'s
//! [`crate::minimize`] pools share the *structure updates*. This module
//! supplies the third saving: views with the same **join-graph
//! signature** ([`GroupSignature`]: same maintenance method, base
//! relations, (normalized) join edges, policies, and probe structures —
//! pool-shared ARs or GIs, or none for the naive method) share the route
//! → probe → ship → apply chain too, so the per-delta SEARCH and SEND
//! bill stops growing with the number of views. For each base delta,
//! `maintain` hands every group of two or more to `run_group`, which
//! runs the chain **once**:
//!
//! 1. the common route/probe hops execute exactly as a single view's
//!    would (same `crate::chain::push_chain`), carrying the *full*
//!    joined partials;
//! 2. a group **ship** stage routes each joined partial to the union of
//!    every member's home node (each member hashes its own partition
//!    attribute out of the partial) — one multicast per destination set,
//!    `Arc`-shared on the pipelined runtime, charged per destination;
//! 3. a group **apply** stage projects the partial per member at the
//!    member's home node and installs it, capturing per-member changes
//!    for serving views.
//!
//! A group of one — and every view when `maintain` is given no catalog —
//! takes the per-view driver instead: sender-side projection and ship,
//! strictly cheaper when nobody shares the partials.
//!
//! Member view rows are bit-identical to independent maintenance: each
//! member's projection is applied at the same home node an independent
//! ship would have chosen (the signature requires plain hash-partitioned
//! view tables, so `route == hash(partition attribute)`), and per-node
//! apply order follows drained payload order, making contents equal as
//! multisets. Cost accounting stays honest — every logical destination of
//! a multicast is a charged SEND, and the shared chain's reports land on
//! the group's first member (the same convention `maintain` uses for the
//! shared base phase), so totals across members equal real work done.
//!
//! [`SharedCatalog`] also owns **pool binding**: the constructor
//! [`MaintainedView::create_pooled`] and the migration of a whole group of
//! private views onto the pools ([`SharedCatalog::enroll_group`]) both go
//! through `SharedCatalog::resolve`, so the "every bound view rebinds
//! after a pool table is rebuilt" invariant is enforced in this module.

use pvm_engine::{Backend, Cluster, NetPayload, PartitionSpec, TableId};
use pvm_obs::{metric, Phase};
use pvm_types::{GlobalRid, NodeId, PvmError, Result, Row};

use crate::chain::{self, BatchPolicy, ChainMode, JoinPolicy};
use crate::minimize::StructurePool;
use crate::structure::Probes;
use crate::view::{self, MaintainedView, MaintenanceMethod, MaintenanceOutcome};
use crate::viewdef::{JoinViewDef, ViewColumn};

/// Everything that must match for two views to ride one maintenance
/// chain. Projections (and therefore view partition attributes) may
/// differ — the group ship/apply stages handle those per member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSignature {
    method: MaintenanceMethod,
    /// Base relation names, in join order (different orderings index the
    /// edges differently, so they are distinct signatures).
    relations: Vec<String>,
    /// Join edges, each normalized to `(min, max)` and sorted.
    edges: Vec<(ViewColumn, ViewColumn)>,
    policy: JoinPolicy,
    batch: BatchPolicy,
    /// The probe structures the chain touches ([`MaintainedView::
    /// method_tables`]) — identical only for pool-shared views (trivially
    /// identical, i.e. empty, for the naive method).
    structures: Vec<TableId>,
}

impl GroupSignature {
    /// The signature of one maintained view, or `None` when the view is
    /// ineligible for shared maintenance: aggregate projections, partial
    /// state, skew handling, a non-hash-partitioned view table, or
    /// private (non-pooled) AR/GI structures.
    pub fn of(cluster: &Cluster, view: &MaintainedView) -> Result<Option<GroupSignature>> {
        // AR / GI members must probe the *same* structures; only
        // pool-shared structures can be identical across views.
        if view.method() != MaintenanceMethod::Naive && !view.is_pool_shared() {
            return Ok(None);
        }
        GroupSignature::build(cluster, view, view.method_tables())
    }

    /// Like [`GroupSignature::of`] but ignoring the pool-shared structure
    /// requirement: whether the view *could* join a shared group once its
    /// AR/GI structures are rebound to a pool. Two candidates with equal
    /// signatures form a group after adoption. Structures are left empty
    /// so pooled and still-private views compare equal here.
    pub fn candidate(cluster: &Cluster, view: &MaintainedView) -> Result<Option<GroupSignature>> {
        GroupSignature::build(cluster, view, Vec::new())
    }

    fn build(
        cluster: &Cluster,
        view: &MaintainedView,
        structures: Vec<TableId>,
    ) -> Result<Option<GroupSignature>> {
        let handle = &view.handle;
        if handle.agg.is_some() || view.partial.is_some() || view.skew.is_some() {
            return Ok(None);
        }
        // The group ship stage routes by hashing each member's partition
        // attribute straight out of the joined partial; anything but a
        // plain hash spec on the partition column would route elsewhere.
        let spec = cluster.def(handle.view_table)?.partitioning.clone();
        if !matches!(spec, PartitionSpec::Hash { .. }) || !spec.is_on(handle.view_pcol) {
            return Ok(None);
        }
        let mut edges: Vec<(ViewColumn, ViewColumn)> = handle
            .def
            .edges
            .iter()
            .map(|e| {
                if e.left <= e.right {
                    (e.left, e.right)
                } else {
                    (e.right, e.left)
                }
            })
            .collect();
        edges.sort();
        Ok(Some(GroupSignature {
            method: view.method(),
            relations: handle.def.relations.clone(),
            edges,
            policy: view.join_policy(),
            batch: view.batch_policy(),
            structures,
        }))
    }
}

/// Partition the views joining `relation` into shared-maintenance groups
/// (member indices into `views`, singleton "groups" excluded — a lone
/// view gains nothing from the group path). Group order follows first
/// appearance, and members keep input order, so planning is deterministic.
pub fn plan_groups(
    cluster: &Cluster,
    views: &[&mut MaintainedView],
    relation: &str,
) -> Result<Vec<Vec<usize>>> {
    let mut groups: Vec<(GroupSignature, Vec<usize>)> = Vec::new();
    for (i, view) in views.iter().enumerate() {
        if view.handle.def.relation_index(relation).is_err() {
            continue;
        }
        let Some(sig) = GroupSignature::of(cluster, view)? else {
            continue;
        };
        match groups.iter_mut().find(|(s, _)| *s == sig) {
            Some((_, members)) => members.push(i),
            None => groups.push((sig, vec![i])),
        }
    }
    Ok(groups
        .into_iter()
        .filter(|(_, m)| m.len() >= 2)
        .map(|(_, m)| m)
        .collect())
}

/// The shared maintenance structures of a whole view catalog: one AR
/// pool and one GI pool, updated **once** per base delta regardless of
/// how many views are bound to them.
#[derive(Debug)]
pub struct SharedCatalog {
    pub ars: StructurePool,
    pub gis: StructurePool,
}

impl Default for SharedCatalog {
    fn default() -> Self {
        SharedCatalog {
            ars: StructurePool::new(MaintenanceMethod::AuxiliaryRelation),
            gis: StructurePool::new(MaintenanceMethod::GlobalIndex),
        }
    }
}

impl SharedCatalog {
    pub fn new() -> Self {
        SharedCatalog::default()
    }

    /// Propagate one already-applied base delta into every pool structure
    /// over `relation` — each AR and GI exactly once. `batch` is the
    /// pool-bound member views' common policy
    /// (`pool_batch_policy`), so per-row parity runs keep per-row
    /// messaging through the structure-update phase too.
    pub fn apply_base_delta<B: Backend>(
        &self,
        backend: &mut B,
        relation: &str,
        placed: &[(Row, GlobalRid)],
        insert: bool,
        batch: BatchPolicy,
    ) -> Result<()> {
        self.ars
            .apply_base_delta(backend, relation, placed, insert, batch)?;
        self.gis
            .apply_base_delta(backend, relation, placed, insert, batch)
    }

    /// Total pages occupied by the catalog's shared structures.
    pub fn storage_pages(&self, cluster: &Cluster) -> Result<usize> {
        Ok(self.ars.storage_pages(cluster)? + self.gis.storage_pages(cluster)?)
    }

    /// Drop every shared structure and reset both pools. Called when the
    /// last pool-bound view is destroyed.
    pub fn release(&mut self, cluster: &mut Cluster) -> Result<()> {
        self.ars.release(cluster)?;
        self.gis.release(cluster)
    }

    /// The pool structures a view of `def` (over base tables `base`)
    /// probes under `method`: one per join attribute its base relation is
    /// not partitioned on. Read-only — fails without touching anything
    /// when the pool lacks one.
    pub(crate) fn resolve(
        &self,
        cluster: &Cluster,
        method: MaintenanceMethod,
        def: &JoinViewDef,
        base: &[TableId],
    ) -> Result<Probes> {
        let (pool, what) = match method {
            MaintenanceMethod::Naive => return Ok(Probes::default()),
            MaintenanceMethod::AuxiliaryRelation => (&self.ars, "AR"),
            MaintenanceMethod::GlobalIndex => (&self.gis, "GI"),
        };
        let mut probes = Probes::default();
        for (rel, &table) in base.iter().enumerate() {
            let tdef = cluster.def(table)?;
            for c in def.join_attrs_of(rel) {
                if tdef.partitioning.is_on(c) {
                    continue;
                }
                let s = pool.get(&tdef.name, c).ok_or_else(|| {
                    PvmError::NotFound(format!(
                        "pool {what} for ({}, {c}) — enroll view '{}' into the catalog first",
                        tdef.name, def.name
                    ))
                })?;
                probes.0.insert((rel, c), s.clone());
            }
        }
        Ok(probes)
    }

    /// Move a signature group — `members` indexes into `views`, all of
    /// one method — onto this catalog's pools, so the group probes
    /// identical structures and can run its chain once. `views` must hold
    /// **every** view bound to this catalog, members or not. In order:
    ///
    /// 1. enroll every member's definition (creating pool structures, or
    ///    widening pool ARs whose keep-set grows);
    /// 2. if any pool table was created or rebuilt, rebind every
    ///    pool-bound view of the method — a widened AR lives under a new
    ///    table id, and the one pool spans every group, so other groups'
    ///    bindings would otherwise dangle;
    /// 3. resolve every member's bindings before any member drops its
    ///    private structures, so a failure cannot leave the group
    ///    half-migrated;
    /// 4. bind every member.
    ///
    /// A no-op for the naive method (no structures to pool).
    pub fn enroll_group(
        &mut self,
        cluster: &mut Cluster,
        views: &mut [&mut MaintainedView],
        members: &[usize],
    ) -> Result<()> {
        let Some(&first) = members.first() else {
            return Ok(());
        };
        let method = views[first].method();
        let mut changed = false;
        for &i in members {
            let def = views[i].def();
            // GIs never widen, so for them `changed` only ever reports
            // creations.
            changed |= match method {
                MaintenanceMethod::Naive => return Ok(()),
                MaintenanceMethod::AuxiliaryRelation => !self.ars.enroll(cluster, def)?.is_empty(),
                MaintenanceMethod::GlobalIndex => !self.gis.enroll(cluster, def)?.is_empty(),
            };
        }
        if changed {
            for v in views.iter_mut() {
                if v.method() == method && v.is_pool_shared() {
                    let bindings = v.pool_bindings(cluster, self)?;
                    v.bind_pool(cluster, bindings)?;
                }
            }
        }
        let bindings: Vec<Probes> = members
            .iter()
            .map(|&i| views[i].pool_bindings(cluster, self))
            .collect::<Result<_>>()?;
        for (&i, bindings) in members.iter().zip(bindings) {
            views[i].bind_pool(cluster, bindings)?;
        }
        Ok(())
    }
}

/// The batch policy pool structure updates should run under: the uniform
/// policy of the pool-bound views joining `relation`. The update runs
/// once for all of them, so when members disagree (or none are bound)
/// there is no single honest granularity and the coalescing default
/// applies.
pub(crate) fn pool_batch_policy(views: &[&mut MaintainedView], relation: &str) -> BatchPolicy {
    let mut policies = views
        .iter()
        .filter(|v| v.is_pool_shared() && v.handle.def.relation_index(relation).is_ok())
        .map(|v| v.batch_policy());
    match policies.next() {
        Some(first) if policies.all(|p| p == first) => first,
        _ => BatchPolicy::default(),
    }
}

/// Per-member data the group ship/apply stages need, cloned out of the
/// handles so the stage closures borrow nothing from the views.
struct Member {
    view_table: TableId,
    view_pcol: usize,
    /// Position of the member's partition attribute in the chain's final
    /// (full-partial) layout.
    pcol_pos: usize,
    projection: Vec<ViewColumn>,
    capture: bool,
}

/// Run one group's probe-once chain for a prepared base delta: the common
/// route/probe hops once, then ship each joined partial to the union of
/// member home nodes and apply every member's projection there. Returns
/// one outcome per member (in `members` order); the chain's compute and
/// view reports land on the first member, the rest get empty reports, so
/// summed costs equal work actually done.
pub(crate) fn run_group<B: Backend>(
    backend: &mut B,
    views: &mut [&mut MaintainedView],
    members: &[usize],
    rel: usize,
    placed: &[(Row, GlobalRid)],
    insert: bool,
) -> Result<Vec<MaintenanceOutcome>> {
    let l = backend.node_count();
    let first: &MaintainedView = views[members[0]];
    let tag = first.method_tag();

    // Phase: compute — the one shared chain, built exactly as the
    // per-view driver builds it; only the final ship differs.
    let guard = backend.start_meter();
    let mark = chain::phase_mark(backend);
    let staged = chain::stage_delta(l, placed)?;
    let (mut program, layout) = chain::push_chain(
        backend,
        pvm_engine::StepProgram::new(),
        &first.handle,
        &first.probes,
        rel,
        first.join_policy(),
        first.batch_policy(),
        tag,
    )?;
    // Resolve every member's partition-attribute position in the final
    // layout (pool AR keep-sets are merged over all members, so each
    // member's projection columns are present in the carried partials).
    let ship: Vec<Member> = members
        .iter()
        .map(|&i| {
            let v: &MaintainedView = views[i];
            let h = &v.handle;
            Ok(Member {
                view_table: h.view_table,
                view_pcol: h.view_pcol,
                pcol_pos: layout.position(h.def.partition_attr())?,
                projection: h.def.projection.clone(),
                capture: v.is_capturing(),
            })
        })
        .collect::<Result<_>>()?;
    // Group ship: one destination set per joined partial (the union of
    // member homes, sorted), batched by identical set in first-appearance
    // order — deterministic send order on both backends. Full partials
    // ship, tagged with the first member's view table; the group apply
    // below projects per member. Every listed destination is a charged
    // SEND; the pipelined runtime shares one encoded payload across them.
    let first_table = ship[0].view_table;
    let positions: Vec<usize> = ship.iter().map(|m| m.pcol_pos).collect();
    program = program.stage(move |ctx, partials| {
        let positions = &positions;
        if partials.is_empty() {
            return Ok(Vec::new());
        }
        if ctx.tracing() {
            ctx.trace_span(Phase::Ship, tag)
                .count(partials.len() as u64)
                .emit();
        }
        let mut batches: Vec<(Vec<NodeId>, Vec<Row>)> = Vec::new();
        for partial in &partials {
            let mut dsts: Vec<NodeId> = Vec::new();
            for &pos in positions {
                let dst = PartitionSpec::route_value(partial.try_get(pos)?, l)?;
                if !dsts.contains(&dst) {
                    dsts.push(dst);
                }
            }
            dsts.sort();
            match batches.iter_mut().find(|(s, _)| *s == dsts) {
                Some((_, rows)) => rows.push(partial.clone()),
                None => batches.push((dsts, vec![partial.clone()])),
            }
        }
        for (dsts, rows) in batches {
            if ctx.tracing() {
                let h = ctx.obs().metrics().histogram(metric::BATCH_ROWS_PER_MSG);
                for _ in 0..dsts.len() {
                    h.observe(rows.len() as u64);
                }
            }
            let payload = NetPayload::ResultRows {
                table: first_table,
                rows,
            };
            if dsts.len() == 1 {
                ctx.send(dsts[0], payload)?;
            } else {
                ctx.multicast(&dsts, &payload)?;
            }
        }
        Ok(Vec::new())
    });
    backend.run_stages(staged, &program)?;
    chain::coord_phase(backend, Phase::Compute, tag, mark);
    let compute = backend.finish_meter(&guard);

    // The shared chain ran once instead of `members.len()` times; record
    // the (estimated) savings — independent runs would each have probed
    // the same structures and shipped their own copies.
    let obs = backend.engine().obs_handle();
    if obs.enabled() {
        let saved = (members.len() - 1) as u64;
        obs.metrics()
            .histogram(metric::SHARE_GROUP_SIZE)
            .observe(members.len() as u64);
        obs.metrics()
            .counter(metric::SHARE_PROBES_SAVED)
            .add(saved * compute.total().searches);
        obs.metrics()
            .counter(metric::SHARE_SENDS_SAVED)
            .add(saved * compute.sends());
    }

    // Phase: group view apply — drain the multicast partials once per
    // node and install each member's projection of the rows homed there.
    let guard = backend.start_meter();
    let mark = chain::phase_mark(backend);
    let mode = if insert {
        ChainMode::Insert
    } else {
        ChainMode::Delete
    };
    let apply_layout = layout;
    let per_node = backend.step(|ctx| {
        let mut per_member: Vec<(u64, Vec<(Row, bool)>)> = vec![(0, Vec::new()); ship.len()];
        for env in ctx.drain() {
            let NetPayload::ResultRows { rows, .. } = env.payload else {
                return Err(PvmError::InvalidOperation(
                    "unexpected payload at group view-apply".into(),
                ));
            };
            for row in rows {
                for (m, member) in ship.iter().enumerate() {
                    let dst = PartitionSpec::route_value(row.try_get(member.pcol_pos)?, l)?;
                    if dst != ctx.id() {
                        continue;
                    }
                    let view_row = apply_layout.project(&row, &member.projection)?;
                    match mode {
                        ChainMode::Insert => {
                            if member.capture {
                                per_member[m].1.push((view_row.clone(), true));
                            }
                            ctx.node.insert(member.view_table, view_row)?;
                            per_member[m].0 += 1;
                        }
                        ChainMode::Delete => {
                            if ctx
                                .node
                                .delete_row(member.view_table, &view_row, &[member.view_pcol])?
                            {
                                if member.capture {
                                    per_member[m].1.push((view_row, false));
                                }
                                per_member[m].0 += 1;
                            }
                        }
                    }
                }
            }
        }
        let affected: u64 = per_member.iter().map(|(a, _)| *a).sum();
        if affected > 0 {
            ctx.count_work(affected);
            if ctx.tracing() {
                ctx.trace_span(Phase::ViewApply, tag).count(affected).emit();
            }
        }
        Ok(per_member)
    })?;
    chain::coord_phase(backend, Phase::View, tag, mark);
    let view_report = backend.finish_meter(&guard);

    // Fold per-node results in node order — deterministic on both
    // backends for the same reason as `chain::apply_at_view`.
    let mut totals: Vec<(u64, Vec<(Row, bool)>)> = vec![(0, Vec::new()); members.len()];
    for node_result in per_node {
        for (m, (affected, mut captured)) in node_result.into_iter().enumerate() {
            totals[m].0 += affected;
            totals[m].1.append(&mut captured);
        }
    }
    let mut outcomes = Vec::with_capacity(members.len());
    for (m, (view_rows, view_changes)) in totals.into_iter().enumerate() {
        let (compute_r, view_r) = if m == 0 {
            (compute.clone(), view_report.clone())
        } else {
            (view::empty_report(backend), view::empty_report(backend))
        };
        outcomes.push(MaintenanceOutcome {
            base: view::empty_report(backend),
            aux: view::empty_report(backend),
            compute: compute_r,
            view: view_r,
            view_rows,
            view_changes,
        });
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Delta;
    use crate::view::maintain;
    use crate::viewdef::ViewEdge;
    use pvm_engine::{ClusterConfig, TableDef};
    use pvm_types::{row, Column, Schema};

    /// The view.rs fixture: A(a, c, pa) ⋈ B(b, d, pb) on c = d, neither
    /// partitioned on the join attribute. 10 distinct join values, N = 5.
    fn setup(l: usize) -> Cluster {
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
        cluster
    }

    /// Three views over the same join graph with different projections —
    /// and different partition attributes (A.a, A.a, B.b), so the group
    /// ship stage genuinely fans one partial to several home nodes.
    fn defs() -> [JoinViewDef; 3] {
        let full = JoinViewDef::two_way("jv_full", "a", "b", 1, 1, 3, 3);
        let slim = JoinViewDef {
            name: "jv_slim".into(),
            relations: vec!["a".into(), "b".into()],
            edges: vec![ViewEdge::new(ViewColumn::new(0, 1), ViewColumn::new(1, 1))],
            projection: vec![
                ViewColumn::new(0, 0),
                ViewColumn::new(0, 1),
                ViewColumn::new(1, 2),
            ],
            partition_column: 0,
        };
        let alt = JoinViewDef {
            name: "jv_alt".into(),
            relations: vec!["a".into(), "b".into()],
            edges: vec![ViewEdge::new(ViewColumn::new(0, 1), ViewColumn::new(1, 1))],
            projection: vec![ViewColumn::new(1, 0), ViewColumn::new(0, 0)],
            partition_column: 0,
        };
        [full, slim, alt]
    }

    fn create_catalog(
        cluster: &mut Cluster,
        method: MaintenanceMethod,
    ) -> (SharedCatalog, Vec<MaintainedView>) {
        let mut catalog = SharedCatalog::new();
        match method {
            MaintenanceMethod::Naive => {}
            MaintenanceMethod::AuxiliaryRelation => {
                for def in &defs() {
                    catalog.ars.enroll(cluster, def).unwrap();
                }
            }
            MaintenanceMethod::GlobalIndex => {
                for def in &defs() {
                    catalog.gis.enroll(cluster, def).unwrap();
                }
            }
        }
        let views = defs()
            .into_iter()
            .map(|def| MaintainedView::create_pooled(cluster, def, method, &catalog).unwrap())
            .collect();
        (catalog, views)
    }

    fn deltas() -> Vec<(&'static str, Delta)> {
        vec![
            (
                "a",
                Delta::Insert(vec![row![100, 3, "na"], row![101, 7, "nb"]]),
            ),
            ("b", Delta::Insert(vec![row![100, 3, "nb"]])),
            ("a", Delta::Delete(vec![row![0, 0, "a0"]])),
            (
                "b",
                Delta::Update {
                    old: vec![row![1, 1, "b1"]],
                    new: vec![row![1, 5, "b1"]],
                },
            ),
        ]
    }

    fn run_shared_vs_independent(method: MaintenanceMethod) {
        let mut ind = setup(4);
        let mut ivs: Vec<MaintainedView> = defs()
            .into_iter()
            .map(|d| MaintainedView::create(&mut ind, d, method).unwrap())
            .collect();

        let mut shared = setup(4);
        let (catalog, mut svs) = create_catalog(&mut shared, method);
        {
            let refs: Vec<&mut MaintainedView> = svs.iter_mut().collect();
            assert_eq!(
                plan_groups(&shared, &refs, "a").unwrap(),
                vec![vec![0, 1, 2]],
                "{method:?}: all three views should form one group"
            );
        }

        let (mut ind_searches, mut shared_searches) = (0u64, 0u64);
        for (rel, delta) in deltas() {
            let mut irefs: Vec<&mut MaintainedView> = ivs.iter_mut().collect();
            let iouts = maintain(&mut ind, None, &mut irefs, rel, &delta).unwrap();
            let mut srefs: Vec<&mut MaintainedView> = svs.iter_mut().collect();
            let souts = maintain(&mut shared, Some(&catalog), &mut srefs, rel, &delta).unwrap();
            for (v, (io, so)) in iouts.iter().zip(&souts).enumerate() {
                assert_eq!(
                    io.view_rows, so.view_rows,
                    "{method:?}: view {v} row count diverged on {rel} delta"
                );
            }
            // The shared chain's reports land on the first member only.
            assert_eq!(souts[1].compute.total().searches, 0, "{method:?}");
            assert_eq!(souts[2].compute.total().searches, 0, "{method:?}");
            ind_searches += iouts.iter().map(|o| o.compute.total().searches).sum::<u64>();
            shared_searches += souts
                .iter()
                .map(|o| o.compute.total().searches)
                .sum::<u64>();
        }

        for (iv, sv) in ivs.iter().zip(&svs) {
            let mut want = iv.contents(&ind).unwrap();
            want.sort();
            let mut got = sv.contents(&shared).unwrap();
            got.sort();
            assert_eq!(want, got, "{method:?}: shared-group contents diverged");
            sv.check_consistent(&shared).unwrap();
        }
        assert!(
            shared_searches < ind_searches,
            "{method:?}: probe-once should search less ({shared_searches} vs {ind_searches})"
        );
    }

    #[test]
    fn shared_group_matches_independent_naive() {
        run_shared_vs_independent(MaintenanceMethod::Naive);
    }

    #[test]
    fn shared_group_matches_independent_auxrel() {
        run_shared_vs_independent(MaintenanceMethod::AuxiliaryRelation);
    }

    #[test]
    fn shared_group_matches_independent_gi() {
        run_shared_vs_independent(MaintenanceMethod::GlobalIndex);
    }

    #[test]
    fn mixed_catalog_groups_only_compatible_views() {
        // Two pooled AR views group; a private AR view over the same join
        // stays on the per-view path — and everything still matches an
        // independent run.
        let mut ind = setup(4);
        let mut ivs: Vec<MaintainedView> = defs()
            .into_iter()
            .map(|d| {
                MaintainedView::create(&mut ind, d, MaintenanceMethod::AuxiliaryRelation).unwrap()
            })
            .collect();

        let mut shared = setup(4);
        let mut catalog = SharedCatalog::new();
        let [full, slim, alt] = defs();
        catalog.ars.enroll(&mut shared, &full).unwrap();
        catalog.ars.enroll(&mut shared, &slim).unwrap();
        let ar = MaintenanceMethod::AuxiliaryRelation;
        let mut svs = vec![
            MaintainedView::create_pooled(&mut shared, full, ar, &catalog).unwrap(),
            MaintainedView::create_pooled(&mut shared, slim, ar, &catalog).unwrap(),
            MaintainedView::create(&mut shared, alt, ar).unwrap(),
        ];
        {
            let refs: Vec<&mut MaintainedView> = svs.iter_mut().collect();
            assert_eq!(plan_groups(&shared, &refs, "b").unwrap(), vec![vec![0, 1]]);
        }
        for (rel, delta) in deltas() {
            let mut irefs: Vec<&mut MaintainedView> = ivs.iter_mut().collect();
            maintain(&mut ind, None, &mut irefs, rel, &delta).unwrap();
            let mut srefs: Vec<&mut MaintainedView> = svs.iter_mut().collect();
            maintain(&mut shared, Some(&catalog), &mut srefs, rel, &delta).unwrap();
        }
        for (iv, sv) in ivs.iter().zip(&svs) {
            let mut want = iv.contents(&ind).unwrap();
            want.sort();
            let mut got = sv.contents(&shared).unwrap();
            got.sort();
            assert_eq!(want, got);
            sv.check_consistent(&shared).unwrap();
        }
    }

    #[test]
    fn enroll_group_drops_private_structures() {
        for (method, kind) in [
            (MaintenanceMethod::AuxiliaryRelation, "ar"),
            (MaintenanceMethod::GlobalIndex, "gi"),
        ] {
            let mut cluster = setup(4);
            let [full, _, _] = defs();
            let mut v = MaintainedView::create(&mut cluster, full, method).unwrap();
            assert!(!v.is_pool_shared());
            let mut catalog = SharedCatalog::new();
            catalog
                .enroll_group(&mut cluster, &mut [&mut v], &[0])
                .unwrap();
            assert!(v.is_pool_shared(), "{method:?}");
            // The private structures are gone; probes go to the pool's.
            assert!(cluster.table_id(&format!("jv_full__{kind}_a_1")).is_err());
            assert!(cluster.table_id(&format!("jv_full__{kind}_b_1")).is_err());
            maintain(
                &mut cluster,
                Some(&catalog),
                &mut [&mut v],
                "a",
                &Delta::Insert(vec![row![200, 4, "x"]]),
            )
            .unwrap();
            v.check_consistent(&cluster).unwrap();
        }
    }

    #[test]
    fn enroll_group_is_all_or_nothing() {
        // A member that cannot move (partial state) fails the group's
        // enrollment before any member drops its private structures.
        let mut cluster = setup(4);
        let [full, slim, _] = defs();
        let ar = MaintenanceMethod::AuxiliaryRelation;
        let mut v = MaintainedView::create(&mut cluster, full, ar).unwrap();
        let mut p = MaintainedView::create(&mut cluster, slim, ar).unwrap();
        p.enable_partial(
            &mut cluster,
            pvm_engine::PartialPolicy::with_budget(1 << 20),
        )
        .unwrap();
        let mut catalog = SharedCatalog::new();
        assert!(catalog
            .enroll_group(&mut cluster, &mut [&mut v, &mut p], &[0, 1])
            .is_err());
        assert!(!v.is_pool_shared() && !p.is_pool_shared());
        assert!(cluster.table_id("jv_full__ar_a_1").is_ok());
        assert!(cluster.table_id("jv_full__ar_b_1").is_ok());
        v.apply(&mut cluster, 0, &Delta::Insert(vec![row![200, 4, "x"]]))
            .unwrap();
        v.check_consistent(&cluster).unwrap();
    }

    #[test]
    fn resolve_rejects_uncovered_pool_without_mutation() {
        let mut cluster = setup(4);
        let [full, _, _] = defs();
        let ar = MaintenanceMethod::AuxiliaryRelation;
        let catalog = SharedCatalog::new();
        // Empty pool: binding fails before the view table is created.
        assert!(MaintainedView::create_pooled(&mut cluster, full.clone(), ar, &catalog).is_err());
        assert!(cluster.table_id("jv_full").is_err());
        let v = MaintainedView::create(&mut cluster, full, ar).unwrap();
        assert!(v.pool_bindings(&cluster, &catalog).is_err());
        assert!(!v.is_pool_shared());
        assert!(cluster.table_id("jv_full__ar_a_1").is_ok());
    }

    #[test]
    fn pool_batch_policy_uniform_or_default() {
        let mut cluster = setup(4);
        let (_catalog, mut svs) =
            create_catalog(&mut cluster, MaintenanceMethod::AuxiliaryRelation);
        {
            let refs: Vec<&mut MaintainedView> = svs.iter_mut().collect();
            assert_eq!(pool_batch_policy(&refs, "a"), BatchPolicy::Coalesced);
        }
        for v in &mut svs {
            v.set_batch_policy(BatchPolicy::PerRow);
        }
        {
            // Uniform PerRow membership keeps per-row messaging through
            // the pool structure-update phase (parity-oracle premise).
            let refs: Vec<&mut MaintainedView> = svs.iter_mut().collect();
            assert_eq!(pool_batch_policy(&refs, "a"), BatchPolicy::PerRow);
        }
        svs[0].set_batch_policy(BatchPolicy::Coalesced);
        {
            // Mixed membership has no single honest granularity.
            let refs: Vec<&mut MaintainedView> = svs.iter_mut().collect();
            assert_eq!(pool_batch_policy(&refs, "a"), BatchPolicy::Coalesced);
        }
    }

    #[test]
    fn aggregate_and_skewed_views_are_ineligible() {
        let mut cluster = setup(4);
        let [full, _, _] = defs();
        let v = MaintainedView::create(&mut cluster, full, MaintenanceMethod::Naive).unwrap();
        let sig = GroupSignature::of(&cluster, &v).unwrap();
        assert!(sig.is_some(), "plain hash view is eligible");
        // A view with private (non-pooled) ARs has no shareable chain.
        let [_, slim, _] = defs();
        let ar =
            MaintainedView::create(&mut cluster, slim, MaintenanceMethod::AuxiliaryRelation)
                .unwrap();
        assert!(GroupSignature::of(&cluster, &ar).unwrap().is_none());
    }
}
