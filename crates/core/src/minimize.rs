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
//!    [`merge_requirements`], executed by [`StructurePool`], which shares
//!    global indices the same way. The paper's JV1/JV2 example (both
//!    keeping `A.c, A.e`) is the motivating redundancy.

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

use pvm_engine::{Backend, Cluster};
use pvm_types::{GlobalRid, Result, Row};

use crate::chain::BatchPolicy;
use crate::structure::{self, Structure, StructureKind};
use crate::view::MaintenanceMethod;

/// A **materialized** pool of maintenance structures shared across views
/// — §2.1.2's "keep only one auxiliary relation `AR_A` for all the views
/// that use the same attribute `A.c`", executed, for auxiliary relations
/// (the `ars` pool of a [`crate::SharedCatalog`]) and global indices (its
/// `gis` pool) alike: one structure per `(base, attr)`.
///
/// Lifecycle:
///
/// 1. [`StructurePool::enroll`] each view definition (creating, or for
///    ARs widening, the pool's structures);
/// 2. create each view with [`crate::MaintainedView::create_pooled`];
/// 3. on every base update, call [`crate::maintain`] with the catalog, so
///    each shared structure is updated **once**, not once per view.
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
/// // The first enrollment creates the two ARs; the identical second one
/// // needs nothing new.
/// assert_eq!(catalog.ars.enroll(&mut cluster, &v1).unwrap().len(), 2);
/// assert!(catalog.ars.enroll(&mut cluster, &v2).unwrap().is_empty());
/// // Both views bind to the SAME two merged ARs.
/// let ar = MaintenanceMethod::AuxiliaryRelation;
/// let mut va = MaintainedView::create_pooled(&mut cluster, v1, ar, &catalog).unwrap();
/// let mut vb = MaintainedView::create_pooled(&mut cluster, v2, ar, &catalog).unwrap();
/// assert_eq!(va.method_tables(), vb.method_tables());
/// // One base update, one update per shared AR, both views maintained.
/// let delta = Delta::insert_one(row![1, 7]);
/// let outs = maintain(&mut cluster, Some(&catalog), &mut [&mut va, &mut vb], "b", &delta).unwrap();
/// assert_eq!(outs.iter().map(|o| o.view_rows).sum::<u64>(), 2);
/// ```
#[derive(Debug)]
pub struct StructurePool {
    /// Which structures the pool keeps: ARs or GIs.
    method: MaintenanceMethod,
    /// Materialized structures, keyed by (base table name, join attribute).
    structures: BTreeMap<(String, usize), Structure>,
}

impl StructurePool {
    pub(crate) fn new(method: MaintenanceMethod) -> Self {
        StructurePool {
            method,
            structures: BTreeMap::new(),
        }
    }

    /// Register one view with the pool, creating the structures it needs
    /// that the pool lacks. A pool AR whose keep set the view widens — it
    /// needs columns the stored σπ copy lacks — is dropped and rebuilt
    /// from the base relation under the same pool table name; a GI's entry
    /// is fixed, so a GI never widens.
    ///
    /// Returns the `(base, attr)` keys whose table changed (created or
    /// rebuilt), in sorted order: every view already bound to the pool
    /// must rebind those keys before its next maintenance —
    /// [`crate::SharedCatalog::enroll_group`] is the caller that does.
    pub fn enroll(
        &mut self,
        cluster: &mut Cluster,
        def: &crate::JoinViewDef,
    ) -> Result<Vec<(String, usize)>> {
        def.validate(cluster)?;
        let mut part_lookup = Vec::new();
        for name in &def.relations {
            let id = cluster.table_id(name)?;
            part_lookup.push(cluster.def(id)?.partitioning.clone());
        }
        // A GI is needed exactly where an AR is; only its entry differs.
        let reqs = ar_requirements(def, |rel, col| part_lookup[rel].is_on(col));
        let mut changed = Vec::new();
        for mut req in merge_requirements(&reqs) {
            let key = (req.base.clone(), req.attr);
            let old = self.structures.get(&key);
            if let Some(StructureKind::Ar { keep_cols, .. }) = old.map(|s| &s.kind) {
                req.keep.extend(keep_cols);
                req.keep.sort_unstable();
                req.keep.dedup();
            }
            let kind = StructureKind::of(self.method, req.keep, req.attr)
                .expect("pools hold AR or GI structures");
            if let Some(old) = old {
                if old.kind == kind {
                    continue;
                }
                cluster.drop_table(old.table)?;
            }
            let base = cluster.table_id(&req.base)?;
            let name = structure::table_name("pool", &kind, &req.base, req.attr);
            let s = Structure::create(cluster, name, base, req.attr, kind)?;
            self.structures.insert(key.clone(), s);
            changed.push(key);
        }
        Ok(changed)
    }

    /// The shared structure for `(base, attr)`, if materialized.
    pub(crate) fn get(&self, base: &str, attr: usize) -> Option<&Structure> {
        self.structures.get(&(base.to_owned(), attr))
    }

    /// Propagate one already-applied base delta into every pool structure
    /// of `relation` — exactly once, regardless of how many views share
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
        batch: BatchPolicy,
    ) -> Result<()> {
        let mine: Vec<&Structure> = self
            .structures
            .iter()
            .filter(|((base, _), _)| base == relation)
            .map(|(_, s)| s)
            .collect();
        // Pooled structures are shared across views and never partial:
        // no gates.
        structure::update(backend, &mine, placed, insert, batch, None)
    }

    /// Total pages occupied by the pool's structures.
    pub fn storage_pages(&self, cluster: &Cluster) -> Result<usize> {
        let mut pages = 0;
        for s in self.structures.values() {
            pages += cluster.total_pages(s.table)?;
        }
        Ok(pages)
    }

    /// Drop every pool table and reset the pool to empty. Called when the
    /// last pool-bound view is destroyed.
    pub fn release(&mut self, cluster: &mut Cluster) -> Result<()> {
        for (_, s) in std::mem::take(&mut self.structures) {
            cluster.drop_table(s.table)?;
        }
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
}
