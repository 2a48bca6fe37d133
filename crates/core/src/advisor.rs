//! Cost-based method selection against a live cluster — the conclusion's
//! hybrid heuristic, wired to real catalog statistics.
//!
//! Given a view definition, the expected update-transaction size, and a
//! storage budget, the advisor estimates the model parameters (`N` from
//! fan-out statistics, `|B|` from heap page counts) and the space each
//! method would need, then delegates to [`pvm_model::choose_method`].

use pvm_engine::Cluster;
use pvm_model::{choose_method, ChooserInput, ModelParams, Recommendation};
use pvm_storage::{TableStats, PAGE_SIZE};
use pvm_types::Result;

use crate::minimize;
use crate::viewdef::JoinViewDef;

/// The advisor's verdict plus the full priced option list.
#[derive(Debug, Clone)]
pub struct Advice {
    pub recommendation: Recommendation,
    pub options: Vec<pvm_model::chooser::PricedOption>,
    /// Estimated model parameters the verdict was computed from.
    pub params: ModelParams,
}

/// Recommend a maintenance method for `def` on `cluster`, assuming update
/// transactions of `expected_update_tuples` tuples and at most
/// `budget_pages` pages of extra storage.
pub fn advise(
    cluster: &Cluster,
    def: &JoinViewDef,
    expected_update_tuples: u64,
    budget_pages: u64,
) -> Result<Advice> {
    def.validate(cluster)?;
    let l = cluster.node_count() as u64;

    let mut n_est = 1.0f64;
    let mut b_pages = 0u64;
    let mut aux_pages = 0u64;
    let mut gi_pages = 0u64;
    let mut all_clustered = true;

    for (rel, name) in def.relations.iter().enumerate() {
        let table = cluster.table_id(name)?;
        let tdef = cluster.def(table)?.clone();
        let heap_pages = cluster.heap_pages(table)? as u64;
        b_pages = b_pages.max(heap_pages);

        let parts = cluster
            .nodes()
            .iter()
            .map(|node| node.storage(table))
            .collect::<Result<Vec<_>>>()?;
        let rows: u64 = parts.iter().map(|t| t.stats().row_count()).sum();

        for attr in def.join_attrs_of(rel) {
            // Fan-out across nodes, asking each for this column only.
            n_est = n_est.max(TableStats::matches_per_value_across(
                parts.iter().copied(),
                attr,
            )?);
            if tdef.partitioning.is_on(attr) {
                continue; // co-partitioned: no structure needed
            }
            // AR: σπ copy — scale heap pages by the kept-column byte share
            // (approximated by column-count share).
            let keep = minimize::keep_columns(def, rel);
            let frac = keep.len() as f64 / tdef.schema.arity().max(1) as f64;
            aux_pages += (heap_pages as f64 * frac).ceil() as u64;
            // GI: one (value, node, page, slot) entry per tuple; entries
            // are ≈ key + 3×9 bytes + B+tree overhead.
            let entry_bytes = 40u64;
            gi_pages += (rows * entry_bytes).div_ceil(PAGE_SIZE as u64);
            if !cluster
                .nodes()
                .first()
                .map(|node| node.is_clustered_on(table, &[attr]))
                .unwrap_or(false)
            {
                all_clustered = false;
            }
        }
    }

    let params = ModelParams {
        l,
        n: (n_est.round() as u64).max(1),
        b_pages: b_pages.max(1),
        m_pages: cluster.config().buffer_pages as u64,
        a_tuples: expected_update_tuples.max(1),
    };
    let input = ChooserInput {
        params,
        aux_rel_pages: aux_pages,
        global_index_pages: gi_pages,
        budget_pages,
        clustered: all_clustered,
    };
    let (recommendation, options) = choose_method(&input);
    Ok(Advice {
        recommendation,
        options,
        params,
    })
}
