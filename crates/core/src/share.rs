//! Probe-once shared maintenance across a catalog of views, and the one
//! maintenance driver every view runs through.
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
//! bill stops growing with the number of views.
//!
//! `maintain` hands every group to `maintain_group`, and a view that
//! shares with nobody — every view when `maintain` is given no catalog —
//! is a group of one. The driver runs the chain **once** per group: the
//! route/probe hops of `crate::chain::push_chain`, then one ship stage
//! that projects each joined partial at the sender to the union of the
//! members' columns and sends it to the union of their home nodes (one
//! multicast per destination set, `Arc`-shared on the pipelined runtime,
//! charged per destination), then one apply step that installs each
//! member's projection at its home node. The first member's projection
//! ships first and unchanged, so a group of one ships exactly its view
//! rows.
//!
//! Member view rows are bit-identical to independent maintenance: each is
//! applied at the home node its own ship would have chosen, and per-node
//! apply order follows drained payload order, making contents equal as
//! multisets. The chain's reports land on the group's first member (the
//! same convention `maintain` uses for the shared base phase), so totals
//! across members equal real work done.
//!
//! [`SharedCatalog`] also owns **pool binding**: the constructor
//! [`MaintainedView::create_pooled`] and the migration of a whole group of
//! private views onto the pools ([`SharedCatalog::enroll_group`]) both go
//! through `SharedCatalog::resolve`, so the "every bound view rebinds
//! after a pool table is rebuilt" invariant is enforced in this module.

use pvm_engine::{Backend, Cluster, PartitionSpec, TableId};
use pvm_obs::{metric, Phase};
use pvm_types::{GlobalRid, PvmError, Result, Row};

use crate::chain::{self, BatchPolicy, JoinPolicy, PartialGates};
use crate::minimize::StructurePool;
use crate::partial::PartialState;
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

/// Maintain `members` (indices into `views`) for one phase of a base
/// update that has **already been applied** — `placed` pairs each delta
/// row with the global rid it occupied (insert) or vacated (delete) —
/// inside the batches [`view::maintain`] opened. The one driver: a shared
/// group runs it once for all its members, a lone view as a group of one.
/// In order:
///
/// 1. per member: skew observation and partial refill, then its live hole
///    sets lent to the stages as gates;
/// 2. the *aux* phase: a non-pooled member's own structures of the
///    updated relation (a pool's were updated once already; naive has
///    none);
/// 3. the *compute* phase: the first member's route/probe chain, once,
///    and the ship stage ([`chain::push_ship`]);
/// 4. the *view* phase: the apply step ([`chain::apply_shipped`]);
/// 5. per member: partial accounting, the keys its gates dropped, and the
///    outcome noted into its batch.
///
/// Returns one outcome per member, in `members` order. The phase reports
/// land on the first member and the rest get empty ones, so summed costs
/// equal work actually done.
pub(crate) fn maintain_group<B: Backend>(
    backend: &mut B,
    views: &mut [&mut MaintainedView],
    members: &[usize],
    rel: usize,
    placed: &[(Row, GlobalRid)],
    insert: bool,
) -> Result<Vec<MaintenanceOutcome>> {
    for &i in members {
        let v = &mut *views[i];
        if let Some(skew) = &mut v.skew {
            // Inserts and deletes both cause routed probes and structure
            // updates, so both count as traffic.
            skew.observe_rows(rel, placed.iter().map(|(r, _)| r))?;
        }
        v.partial_refill(backend, rel, placed)?;
    }
    let (mut outcomes, dropped) = {
        let group: Vec<&MaintainedView> = members.iter().map(|&i| &*views[i]).collect();
        let gates: Vec<Option<PartialGates<'_>>> = group
            .iter()
            .map(|v| v.partial.as_ref().map(PartialState::gates))
            .collect();
        let (first, tag) = (group[0], group[0].method_tag());
        let ((), aux) = chain::metered(backend, Phase::Aux, tag, |backend| {
            for (v, g) in group.iter().zip(&gates) {
                if !v.pooled {
                    v.probes
                        .update(backend, rel, placed, insert, v.batch, g.as_ref())?;
                }
            }
            Ok(())
        })?;
        // One stage program covering every probe hop plus the ship, so a
        // pipelined backend overlaps the hops instead of barriering
        // between them.
        let (sinks, compute) = chain::metered(backend, Phase::Compute, tag, |backend| {
            let l = backend.node_count();
            let (program, layout) = chain::push_chain(
                backend,
                pvm_engine::StepProgram::new(),
                &first.handle,
                &first.probes,
                rel,
                first.policy,
                first.batch,
                tag,
            )?;
            let (shipped, sinks) = chain::sinks(
                group
                    .iter()
                    .zip(&gates)
                    .map(|(v, g)| (&v.handle, v.is_capturing(), g.as_ref())),
            );
            let program = chain::push_ship(program, &layout, &shipped, &sinks, l, tag)?;
            backend.run_stages(chain::stage_delta(l, placed)?, &program)?;
            Ok(sinks)
        })?;
        // A shared chain ran once instead of `group.len()` times; record
        // the (estimated) savings — independent runs would each have
        // probed the same structures and shipped their own copies.
        let obs = backend.engine().obs_handle();
        if group.len() >= 2 && obs.enabled() {
            let saved = (group.len() - 1) as u64;
            let m = obs.metrics();
            m.histogram(metric::SHARE_GROUP_SIZE)
                .observe(group.len() as u64);
            m.counter(metric::SHARE_PROBES_SAVED)
                .add(saved * compute.total().searches);
            m.counter(metric::SHARE_SENDS_SAVED)
                .add(saved * compute.sends());
        }
        let (applied, view) = chain::metered(backend, Phase::View, tag, |backend| {
            chain::apply_shipped(backend, &sinks, insert, tag)
        })?;
        let idle = MaintenanceOutcome::idle(view::empty_report(backend));
        let mut outcomes: Vec<MaintenanceOutcome> = applied
            .into_iter()
            .map(|(view_rows, view_changes)| MaintenanceOutcome {
                view_rows,
                view_changes,
                ..idle.clone()
            })
            .collect();
        (outcomes[0].aux, outcomes[0].compute, outcomes[0].view) = (aux, compute, view);
        let dropped: Vec<_> = gates
            .into_iter()
            .map(|g| g.map(PartialGates::into_dropped))
            .collect();
        (outcomes, dropped)
    };
    for ((&i, out), dropped) in members.iter().zip(&mut outcomes).zip(dropped) {
        let v = &mut *views[i];
        if let Some(p) = &mut v.partial {
            p.account_struct_delta(rel, placed, insert)?;
            if let Some(dropped) = dropped {
                p.note_batch_dropped(dropped);
            }
        }
        v.note_outcome(backend, placed.len() as u64, out);
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
