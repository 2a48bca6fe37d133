//! Storage-overhead minimization for auxiliary relations (§2.1.2).
//!
//! Two levers, both from the paper (which credits the technique to the
//! self-maintainable-view literature it cites as \[7\]):
//!
//! 1. **σπ reduction** — an auxiliary relation need not copy the whole
//!    base relation, only the columns a maintenance probe or the view's
//!    output can reference: [`keep_columns`].
//! 2. **Cross-view sharing** — views over the same base relation that
//!    partition their ARs on the same attribute can share one AR holding
//!    the union of their column needs instead of storing redundant copies:
//!    [`merge_requirements`]. The paper's JV1/JV2 example (both keeping
//!    `A.c, A.e`) is the motivating redundancy.

use std::collections::BTreeMap;

use crate::viewdef::JoinViewDef;

/// Base columns of `rel` an auxiliary relation must keep: the relation's
/// join attributes (probes and onward routing) plus every column the
/// view's projection outputs from it. Sorted, deduplicated.
pub fn keep_columns(def: &JoinViewDef, rel: usize) -> Vec<usize> {
    let mut cols = def.join_attrs_of(rel);
    cols.extend(def.projected_cols_of(rel));
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// One auxiliary-relation requirement: base relation `base` partitioned on
/// its column `attr`, keeping `keep` columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArRequirement {
    pub base: String,
    pub attr: usize,
    pub keep: Vec<usize>,
}

/// The AR requirements of one view. `is_partitioned_on(rel, col)` reports
/// whether the base relation is already partitioned on the attribute (in
/// which case no AR is required).
pub fn ar_requirements(
    def: &JoinViewDef,
    mut is_partitioned_on: impl FnMut(usize, usize) -> bool,
) -> Vec<ArRequirement> {
    let mut out = Vec::new();
    for (rel, base) in def.relations.iter().enumerate() {
        for attr in def.join_attrs_of(rel) {
            if !is_partitioned_on(rel, attr) {
                out.push(ArRequirement {
                    base: base.clone(),
                    attr,
                    keep: keep_columns(def, rel),
                });
            }
        }
    }
    out
}

/// Merge AR requirements across views: requirements for the same
/// `(base, attr)` collapse into one AR keeping the union of columns.
/// Returns the merged set in deterministic `(base, attr)` order.
pub fn merge_requirements(reqs: &[ArRequirement]) -> Vec<ArRequirement> {
    let mut merged: BTreeMap<(String, usize), Vec<usize>> = BTreeMap::new();
    for r in reqs {
        let cols = merged.entry((r.base.clone(), r.attr)).or_default();
        cols.extend(&r.keep);
        cols.sort_unstable();
        cols.dedup();
    }
    merged
        .into_iter()
        .map(|((base, attr), keep)| ArRequirement { base, attr, keep })
        .collect()
}

/// Redundancy the merge removed, measured in stored column-slots: the
/// difference between the per-view column totals and the merged totals.
/// This is the quantity §2.1.2 warns "may be substantial" when many views
/// are defined on the same base relation.
pub fn columns_saved(reqs: &[ArRequirement]) -> usize {
    let before: usize = reqs.iter().map(|r| r.keep.len()).sum();
    let after: usize = merge_requirements(reqs).iter().map(|r| r.keep.len()).sum();
    before - after
}

use std::collections::HashMap;

use pvm_engine::{Backend, Cluster, TableDef};
use pvm_types::{GlobalRid, PvmError, Result, Row};

use crate::auxrel::{self, ArInfo};

/// A **materialized** pool of auxiliary relations shared across views —
/// §2.1.2's "keep only one auxiliary relation `AR_A` for all the views
/// that use the same attribute `A.c`", executed.
///
/// Lifecycle — the pool is the `ars` half of a
/// [`crate::SharedCatalog`]:
///
/// 1. [`ArPool::plan`] each view definition (requirements accumulate and
///    merge);
/// 2. [`ArPool::materialize`] once (creates and bulk-loads the merged
///    ARs) — or [`ArPool::enroll`] definitions one at a time;
/// 3. create each view with [`crate::MaintainedView::create_pooled`];
/// 4. on every base update, call [`crate::maintain`] with the catalog, so
///    each shared AR is updated **once**, not once per view.
///
/// ```
/// use pvm_core::{maintain, Delta, JoinViewDef, MaintainedView, MaintenanceMethod, SharedCatalog};
/// use pvm_engine::{Cluster, ClusterConfig, TableDef};
/// use pvm_types::{row, Column, Schema};
///
/// let mut cluster = Cluster::new(ClusterConfig::new(2));
/// let schema = Schema::new(vec![Column::int("id"), Column::int("j")]).into_ref();
/// cluster.create_table(TableDef::hash_heap("a", schema.clone(), 0)).unwrap();
/// cluster.create_table(TableDef::hash_heap("b", schema, 0)).unwrap();
/// let a = cluster.table_id("a").unwrap();
/// cluster.insert(a, vec![row![1, 7]]).unwrap();
///
/// let v1 = JoinViewDef::two_way("v1", "a", "b", 1, 1, 2, 2);
/// let v2 = JoinViewDef::two_way("v2", "a", "b", 1, 1, 2, 2);
/// let mut catalog = SharedCatalog::new();
/// catalog.ars.plan(&cluster, &v1).unwrap();
/// catalog.ars.plan(&cluster, &v2).unwrap();
/// catalog.ars.materialize(&mut cluster).unwrap();
/// // Both views bind to the SAME two merged ARs.
/// let ar = MaintenanceMethod::AuxiliaryRelation;
/// let mut va = MaintainedView::create_pooled(&mut cluster, v1, ar, &catalog).unwrap();
/// let mut vb = MaintainedView::create_pooled(&mut cluster, v2, ar, &catalog).unwrap();
/// assert_eq!(catalog.ars.requirements().len(), 2);
/// // One base update, one update per shared AR, both views maintained.
/// let delta = Delta::insert_one(row![1, 7]);
/// let outs = maintain(&mut cluster, Some(&catalog), &mut [&mut va, &mut vb], "b", &delta).unwrap();
/// assert_eq!(outs.iter().map(|o| o.view_rows).sum::<u64>(), 2);
/// ```
#[derive(Debug, Default)]
pub struct ArPool {
    /// Merged requirements, keyed by (base table name, join attribute).
    reqs: Vec<ArRequirement>,
    /// Materialized ARs, same key.
    ars: HashMap<(String, usize), ArInfo>,
    materialized: bool,
}

impl ArPool {
    pub fn new() -> Self {
        ArPool::default()
    }

    /// Register a view's AR needs. Must be called before
    /// [`ArPool::materialize`].
    pub fn plan(&mut self, cluster: &Cluster, def: &crate::JoinViewDef) -> Result<()> {
        if self.materialized {
            return Err(PvmError::InvalidOperation(
                "ArPool::plan after materialize".into(),
            ));
        }
        def.validate(cluster)?;
        let mut part_lookup = Vec::new();
        for name in &def.relations {
            let id = cluster.table_id(name)?;
            part_lookup.push(cluster.def(id)?.partitioning.clone());
        }
        let new = ar_requirements(def, |rel, col| part_lookup[rel].is_on(col));
        self.reqs.extend(new);
        self.reqs = merge_requirements(&self.reqs);
        Ok(())
    }

    /// The merged requirements so far.
    pub fn requirements(&self) -> &[ArRequirement] {
        &self.reqs
    }

    /// Create and bulk-load every merged AR.
    pub fn materialize(&mut self, cluster: &mut Cluster) -> Result<()> {
        if self.materialized {
            return Err(PvmError::InvalidOperation(
                "ArPool already materialized".into(),
            ));
        }
        for req in &self.reqs {
            let info = materialize_ar(cluster, req)?;
            self.ars.insert((req.base.clone(), req.attr), info);
        }
        self.materialized = true;
        Ok(())
    }

    /// Register one more view with an **already-materialized** pool,
    /// creating or widening pool ARs in place (a first call on an empty
    /// pool plans and materializes). A widened AR — the new view needs
    /// columns the stored σπ copy lacks — is dropped and rebuilt from the
    /// base relation under the same pool table name.
    ///
    /// Returns the `(base, attr)` keys whose AR table changed (created or
    /// rebuilt), in sorted order: every view already bound to the pool
    /// must rebind those keys before its next maintenance —
    /// [`crate::SharedCatalog::enroll_group`] is the caller that does.
    pub fn enroll(
        &mut self,
        cluster: &mut Cluster,
        def: &crate::JoinViewDef,
    ) -> Result<Vec<(String, usize)>> {
        if !self.materialized {
            self.plan(cluster, def)?;
            self.materialize(cluster)?;
            let mut keys: Vec<(String, usize)> = self.ars.keys().cloned().collect();
            keys.sort();
            return Ok(keys);
        }
        def.validate(cluster)?;
        let mut part_lookup = Vec::new();
        for name in &def.relations {
            let id = cluster.table_id(name)?;
            part_lookup.push(cluster.def(id)?.partitioning.clone());
        }
        let mut all = self.reqs.clone();
        all.extend(ar_requirements(def, |rel, col| part_lookup[rel].is_on(col)));
        let merged = merge_requirements(&all);
        let mut changed = Vec::new();
        for req in &merged {
            let key = (req.base.clone(), req.attr);
            let unchanged = self.ars.contains_key(&key)
                && self
                    .reqs
                    .iter()
                    .any(|r| r.base == req.base && r.attr == req.attr && r.keep == req.keep);
            if unchanged {
                continue;
            }
            if let Some(old) = self.ars.remove(&key) {
                cluster.drop_table(old.table)?;
            }
            let info = materialize_ar(cluster, req)?;
            self.ars.insert(key.clone(), info);
            changed.push(key);
        }
        self.reqs = merged;
        changed.sort();
        Ok(changed)
    }

    /// The shared AR for `(base, attr)`, if materialized.
    pub(crate) fn ar_for(&self, base: &str, attr: usize) -> Option<&ArInfo> {
        self.ars.get(&(base.to_owned(), attr))
    }

    pub fn is_materialized(&self) -> bool {
        self.materialized
    }

    /// Propagate one already-applied base delta into every pool AR of
    /// `relation` — exactly once, regardless of how many views share
    /// them. `batch` governs the update's messaging granularity; pass
    /// the member views' common policy (they share this one structure
    /// update, so a mixed-policy membership has no single honest
    /// granularity — fall back to the coalescing default there).
    pub fn apply_base_delta<B: Backend>(
        &self,
        backend: &mut B,
        relation: &str,
        placed: &[(Row, GlobalRid)],
        insert: bool,
        batch: crate::chain::BatchPolicy,
    ) -> Result<()> {
        let mine: Vec<ArInfo> = self
            .ars
            .iter()
            .filter(|((base, _), _)| base == relation)
            .map(|(_, info)| info.clone())
            .collect();
        // Pooled ARs are shared across views and never partial: no gates.
        auxrel::update_ars(backend, &mine, placed, insert, batch, None)
    }

    /// Total pages occupied by the pool's ARs.
    pub fn storage_pages(&self, cluster: &Cluster) -> Result<usize> {
        let mut pages = 0;
        for info in self.ars.values() {
            pages += cluster.total_pages(info.table)?;
        }
        Ok(pages)
    }

    /// Drop every pool AR table and reset the pool to empty. Called when
    /// the last pool-bound view is destroyed.
    pub fn release(&mut self, cluster: &mut Cluster) -> Result<()> {
        for (_, info) in std::mem::take(&mut self.ars) {
            cluster.drop_table(info.table)?;
        }
        self.reqs.clear();
        self.materialized = false;
        Ok(())
    }
}

/// Create and bulk-load one pool AR from its merged requirement.
fn materialize_ar(cluster: &mut Cluster, req: &ArRequirement) -> Result<ArInfo> {
    let base_id = cluster.table_id(&req.base)?;
    let base_def = cluster.def(base_id)?.clone();
    let key_pos = req
        .keep
        .iter()
        .position(|&k| k == req.attr)
        .expect("join attribute always kept");
    let schema = base_def.schema.project(&req.keep)?.into_ref();
    let table = cluster.create_table(TableDef::hash_clustered(
        format!("pool__ar_{}_{}", req.base, req.attr),
        schema,
        key_pos,
    ))?;
    let rows: Vec<Row> = cluster
        .scan_all(base_id)?
        .iter()
        .map(|r| r.project(&req.keep))
        .collect::<Result<_>>()?;
    cluster.insert(table, rows)?;
    Ok(ArInfo {
        table,
        keep_cols: req.keep.clone(),
        key_pos,
    })
}

/// One global-index requirement: base relation `base` indexed on its
/// column `attr`. GIs have a fixed `(value, node, page, slot)` schema,
/// so — unlike [`ArRequirement`] — there is no keep set to merge: two
/// views needing the same `(base, attr)` GI need the *identical* GI.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct GiRequirement {
    pub base: String,
    pub attr: usize,
}

/// The GI requirements of one view (mirrors [`ar_requirements`]):
/// one per `(base relation, join attribute)` pair unless the base is
/// already partitioned on the attribute.
pub fn gi_requirements(
    def: &JoinViewDef,
    mut is_partitioned_on: impl FnMut(usize, usize) -> bool,
) -> Vec<GiRequirement> {
    let mut out = Vec::new();
    for (rel, base) in def.relations.iter().enumerate() {
        for attr in def.join_attrs_of(rel) {
            if !is_partitioned_on(rel, attr) {
                out.push(GiRequirement {
                    base: base.clone(),
                    attr,
                });
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// A **materialized** pool of global indices shared across views — the
/// GI analogue of [`ArPool`], extending §2.1.2's cross-view sharing to
/// the global-index method. Because a GI's contents depend only on
/// `(base, attr)`, sharing is exact: no union/widening step exists, and
/// [`GiPool::enroll`] never invalidates an existing member's binding.
///
/// Lifecycle mirrors [`ArPool`] (this pool is the `gis` half of a
/// [`crate::SharedCatalog`]): [`GiPool::plan`] + [`GiPool::materialize`]
/// (or [`GiPool::enroll`] incrementally), bind views with
/// [`crate::MaintainedView::create_pooled`], and maintain them through
/// [`crate::maintain`] with the catalog.
#[derive(Debug, Default)]
pub struct GiPool {
    reqs: Vec<GiRequirement>,
    /// Materialized GIs, keyed by (base table name, join attribute).
    gis: HashMap<(String, usize), crate::globalindex::GiInfo>,
    materialized: bool,
}

impl GiPool {
    pub fn new() -> Self {
        GiPool::default()
    }

    /// Register a view's GI needs. Must be called before
    /// [`GiPool::materialize`].
    pub fn plan(&mut self, cluster: &Cluster, def: &crate::JoinViewDef) -> Result<()> {
        if self.materialized {
            return Err(PvmError::InvalidOperation(
                "GiPool::plan after materialize".into(),
            ));
        }
        def.validate(cluster)?;
        let mut part_lookup = Vec::new();
        for name in &def.relations {
            let id = cluster.table_id(name)?;
            part_lookup.push(cluster.def(id)?.partitioning.clone());
        }
        self.reqs
            .extend(gi_requirements(def, |rel, col| part_lookup[rel].is_on(col)));
        self.reqs.sort();
        self.reqs.dedup();
        Ok(())
    }

    /// The merged requirements so far.
    pub fn requirements(&self) -> &[GiRequirement] {
        &self.reqs
    }

    /// Create and populate every required GI.
    pub fn materialize(&mut self, cluster: &mut Cluster) -> Result<()> {
        if self.materialized {
            return Err(PvmError::InvalidOperation(
                "GiPool already materialized".into(),
            ));
        }
        for req in &self.reqs {
            let base_id = cluster.table_id(&req.base)?;
            let table = crate::globalindex::create_gi(
                cluster,
                format!("pool__gi_{}_{}", req.base, req.attr),
                base_id,
                req.attr,
            )?;
            self.gis.insert(
                (req.base.clone(), req.attr),
                crate::globalindex::GiInfo { table },
            );
        }
        self.materialized = true;
        Ok(())
    }

    /// Register one more view with an **already-materialized** pool,
    /// creating any GIs it needs that the pool lacks (a first call on an
    /// empty pool plans and materializes). Returns the newly created
    /// `(base, attr)` keys in sorted order; existing members' bindings
    /// stay valid (GIs never widen).
    pub fn enroll(
        &mut self,
        cluster: &mut Cluster,
        def: &crate::JoinViewDef,
    ) -> Result<Vec<(String, usize)>> {
        if !self.materialized {
            self.plan(cluster, def)?;
            self.materialize(cluster)?;
            let mut keys: Vec<(String, usize)> = self.gis.keys().cloned().collect();
            keys.sort();
            return Ok(keys);
        }
        def.validate(cluster)?;
        let mut part_lookup = Vec::new();
        for name in &def.relations {
            let id = cluster.table_id(name)?;
            part_lookup.push(cluster.def(id)?.partitioning.clone());
        }
        let mut created = Vec::new();
        for req in gi_requirements(def, |rel, col| part_lookup[rel].is_on(col)) {
            let key = (req.base.clone(), req.attr);
            if self.gis.contains_key(&key) {
                continue;
            }
            let base_id = cluster.table_id(&req.base)?;
            let table = crate::globalindex::create_gi(
                cluster,
                format!("pool__gi_{}_{}", req.base, req.attr),
                base_id,
                req.attr,
            )?;
            self.gis
                .insert(key.clone(), crate::globalindex::GiInfo { table });
            self.reqs.push(req);
            created.push(key);
        }
        self.reqs.sort();
        self.reqs.dedup();
        created.sort();
        Ok(created)
    }

    /// The shared GI for `(base, attr)`, if materialized.
    pub(crate) fn gi_for(&self, base: &str, attr: usize) -> Option<&crate::globalindex::GiInfo> {
        self.gis.get(&(base.to_owned(), attr))
    }

    pub fn is_materialized(&self) -> bool {
        self.materialized
    }

    /// Propagate one already-applied base delta into every pool GI of
    /// `relation` — exactly once, regardless of how many views share
    /// them. `batch` governs messaging granularity exactly as in
    /// [`ArPool::apply_base_delta`].
    pub fn apply_base_delta<B: Backend>(
        &self,
        backend: &mut B,
        relation: &str,
        placed: &[(Row, GlobalRid)],
        insert: bool,
        batch: crate::chain::BatchPolicy,
    ) -> Result<()> {
        let mut mine: Vec<(usize, pvm_engine::TableId)> = self
            .gis
            .iter()
            .filter(|((base, _), _)| base == relation)
            .map(|((_, attr), info)| (*attr, info.table))
            .collect();
        mine.sort();
        crate::globalindex::update_gis(
            backend,
            &mine,
            placed,
            insert,
            batch,
            None, // pooled GIs are shared across views and never partial
        )
    }

    /// Total pages occupied by the pool's GIs.
    pub fn storage_pages(&self, cluster: &Cluster) -> Result<usize> {
        let mut pages = 0;
        for info in self.gis.values() {
            pages += cluster.total_pages(info.table)?;
        }
        Ok(pages)
    }

    /// Drop every pool GI table and reset the pool to empty. Called when
    /// the last pool-bound view is destroyed.
    pub fn release(&mut self, cluster: &mut Cluster) -> Result<()> {
        for (_, info) in std::mem::take(&mut self.gis) {
            cluster.drop_table(info.table)?;
        }
        self.reqs.clear();
        self.materialized = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::viewdef::{ViewColumn, ViewEdge};

    /// The paper's JV1: keeps A.e, A.f, B.h; joins A.c = B.d.
    /// Columns: A = (c=0, e=1, f=2, g=3), B = (d=0, h=1).
    fn jv1() -> JoinViewDef {
        JoinViewDef {
            name: "jv1".into(),
            relations: vec!["a".into(), "b".into()],
            edges: vec![ViewEdge::new(ViewColumn::new(0, 0), ViewColumn::new(1, 0))],
            projection: vec![
                ViewColumn::new(0, 1),
                ViewColumn::new(0, 2),
                ViewColumn::new(1, 1),
            ],
            partition_column: 0,
        }
    }

    /// The paper's JV2 analogue: keeps A.e, A.g, C.p; joins A.c = C.q.
    fn jv2() -> JoinViewDef {
        JoinViewDef {
            name: "jv2".into(),
            relations: vec!["a".into(), "c_rel".into()],
            edges: vec![ViewEdge::new(ViewColumn::new(0, 0), ViewColumn::new(1, 0))],
            projection: vec![
                ViewColumn::new(0, 1),
                ViewColumn::new(0, 3),
                ViewColumn::new(1, 1),
            ],
            partition_column: 0,
        }
    }

    #[test]
    fn keep_columns_matches_paper_example() {
        // AR_A1 keeps attributes c, e, f of A.
        assert_eq!(keep_columns(&jv1(), 0), vec![0, 1, 2]);
        // AR_A2 keeps attributes c, e, g of A.
        assert_eq!(keep_columns(&jv2(), 0), vec![0, 1, 3]);
    }

    #[test]
    fn requirements_skip_copartitioned_relations() {
        let reqs = ar_requirements(&jv1(), |rel, _| rel == 0);
        // A is partitioned on the join attribute → only B needs an AR.
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].base, "b");
        assert_eq!(reqs[0].attr, 0);
    }

    #[test]
    fn merge_unions_columns() {
        let mut reqs = ar_requirements(&jv1(), |_, _| false);
        reqs.extend(ar_requirements(&jv2(), |_, _| false));
        // Both views demand an AR of A on attribute 0.
        let a_reqs: Vec<_> = reqs.iter().filter(|r| r.base == "a").collect();
        assert_eq!(a_reqs.len(), 2);
        let merged = merge_requirements(&reqs);
        let merged_a: Vec<_> = merged.iter().filter(|r| r.base == "a").collect();
        assert_eq!(merged_a.len(), 1, "one shared AR_A remains");
        // Union of {c,e,f} and {c,e,g} = {c,e,f,g}.
        assert_eq!(merged_a[0].keep, vec![0, 1, 2, 3]);
        // Redundancy removed: both c and e were stored twice.
        assert_eq!(columns_saved(&reqs), 2);
    }

    #[test]
    fn merge_is_deterministic_and_idempotent() {
        let reqs = ar_requirements(&jv1(), |_, _| false);
        let once = merge_requirements(&reqs);
        let twice = merge_requirements(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn merge_same_view_twice_is_a_noop() {
        // Planning the identical view twice (two members of a shared
        // group) must not widen any keep set or add requirements.
        let once = ar_requirements(&jv1(), |_, _| false);
        let mut twice = once.clone();
        twice.extend(once.clone());
        assert_eq!(merge_requirements(&once), merge_requirements(&twice));
    }

    #[test]
    fn merge_overlapping_keep_sets_union_without_duplicates() {
        let reqs = vec![
            ArRequirement {
                base: "a".into(),
                attr: 0,
                keep: vec![0, 1, 2],
            },
            ArRequirement {
                base: "a".into(),
                attr: 0,
                keep: vec![1, 2, 3],
            },
            ArRequirement {
                base: "a".into(),
                attr: 0,
                keep: vec![0, 3],
            },
        ];
        let merged = merge_requirements(&reqs);
        assert_eq!(merged.len(), 1);
        // Overlaps collapse: each column appears exactly once, sorted.
        assert_eq!(merged[0].keep, vec![0, 1, 2, 3]);
    }

    #[test]
    fn merge_orders_by_base_then_attr_regardless_of_input_order() {
        let mk = |base: &str, attr: usize| ArRequirement {
            base: base.into(),
            attr,
            keep: vec![attr],
        };
        let forward = vec![mk("a", 0), mk("a", 2), mk("b", 1), mk("b", 0)];
        let mut reversed = forward.clone();
        reversed.reverse();
        let m1 = merge_requirements(&forward);
        let m2 = merge_requirements(&reversed);
        assert_eq!(m1, m2, "merged set is input-order independent");
        let keys: Vec<(String, usize)> = m1.iter().map(|r| (r.base.clone(), r.attr)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "deterministic (base, attr) order");
    }

    #[test]
    fn gi_requirements_dedup_and_skip_copartitioned() {
        let reqs = gi_requirements(&jv1(), |rel, _| rel == 0);
        assert_eq!(
            reqs,
            vec![GiRequirement {
                base: "b".into(),
                attr: 0
            }]
        );
        // Same view twice: identical GI needs collapse.
        let mut twice = gi_requirements(&jv1(), |_, _| false);
        twice.extend(gi_requirements(&jv1(), |_, _| false));
        twice.sort();
        twice.dedup();
        assert_eq!(twice, gi_requirements(&jv1(), |_, _| false));
    }
}
