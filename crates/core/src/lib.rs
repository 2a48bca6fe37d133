//! # pvm-core
//!
//! Join-view maintenance in a parallel RDBMS — the primary contribution of
//! Luo, Naughton, Ellmann & Watzke (ICDE 2003), implemented over the
//! [`pvm_engine`] cluster.
//!
//! A [`JoinViewDef`] describes a materialized view over an n-ary equi-join
//! of hash-partitioned base relations. [`MaintainedView`] materializes it
//! under one of three [`MaintenanceMethod`]s:
//!
//! * **Naive** ([`naive`]) — no extra structures; delta tuples are
//!   broadcast to every node (or routed, when the probed relation happens
//!   to be partitioned on the join attribute) and joined against local
//!   base fragments. Simple, space-free, but turns localized updates into
//!   all-node operations.
//! * **Auxiliary relations** ([`auxrel`]) — each base relation gets a
//!   σπ-reduced copy hash-partitioned *on the join attribute* with a
//!   clustered index, so a delta tuple is handled at exactly one node per
//!   join step.
//! * **Global index** ([`globalindex`]) — each base relation gets an index
//!   from join-attribute value to the *global row ids* of matching tuples;
//!   a delta tuple visits one node to probe the index, then only the `K`
//!   nodes that actually hold matches.
//!
//! Deltas ([`Delta`]) cover inserts, deletes, and updates; views may join
//! any number of relations (§2.2's multi-relation algorithm, with the
//! statistics-driven choice among alternative auxiliary-relation chains
//! implemented in [`planner`]). An AR and a GI are one kind of structure,
//! built, shared and updated by one code path; only their probes differ.
//! [`minimize`] implements the §2.1.2 storage minimization and cross-view
//! sharing of auxiliary relations (and global indices), and [`advisor`]
//! the conclusion's cost-based method selection.

pub mod advisor;
pub mod aggregate;
pub mod auxrel;
pub(crate) mod chain;
pub mod delta;
pub mod globalindex;
pub mod layout;
pub mod minimize;
pub mod naive;
pub mod partial;
pub mod planner;
pub mod share;
pub mod skew;
pub(crate) mod structure;
pub mod view;
pub mod viewdef;

pub use advisor::{advise, Advice};
pub use partial::PartialStats;
pub use pvm_engine::PartialPolicy;

use pvm_engine::Cluster;
use pvm_types::Result;

/// Plan the join chain for a delta on relation `rel` of a view, with
/// fan-outs (matches per join-attribute value) estimated from current
/// cluster-wide statistics. The statistics are read lazily: only for a
/// `(relation, join attribute)` pair the planner asks about — it asks
/// only where the join graph offers a choice — only that one column of
/// each node's statistics, and once per pair within the call.
/// Two-relation views have a forced chain, so statistics are skipped.
pub(crate) fn plan_with_stats(
    cluster: &Cluster,
    handle: &view::ViewHandle,
    rel: usize,
) -> Result<Vec<PlanStep>> {
    if handle.def.relation_count() <= 2 {
        return plan_chain(&handle.def, rel, |_, _| 1.0);
    }
    let fanout_of = |r: usize, c: usize| -> Result<f64> {
        let parts = cluster
            .nodes()
            .iter()
            .map(|n| n.storage(handle.base[r]))
            .collect::<Result<Vec<_>>>()?;
        Ok(pvm_storage::TableStats::matches_per_value_across(parts, c)?.max(f64::MIN_POSITIVE))
    };
    let mut memo = std::collections::HashMap::new();
    // The planner's oracle cannot fail; a statistics error is kept aside
    // and fails the plan.
    let mut failed = None;
    let steps = plan_chain(&handle.def, rel, |r, c| {
        *memo.entry((r, c)).or_insert_with(|| {
            fanout_of(r, c).unwrap_or_else(|e| {
                failed.get_or_insert(e);
                1.0
            })
        })
    })?;
    failed.map_or(Ok(steps), Err)
}
pub use aggregate::{AggFunc, AggShape, AggSpec};
pub use chain::{BatchPolicy, JoinPolicy};
pub use delta::Delta;
pub use layout::Layout;
pub use minimize::StructurePool;
pub use planner::{plan_chain, PlanStep};
pub use pvm_model::Recommendation;
pub use share::{plan_groups, GroupSignature, SharedCatalog};
pub use skew::{RebalanceReport, SkewConfig, SkewState};
pub use view::{maintain, BatchCostRecord, MaintainedView, MaintenanceMethod, MaintenanceOutcome};
pub use viewdef::{JoinViewDef, ViewColumn, ViewEdge};
