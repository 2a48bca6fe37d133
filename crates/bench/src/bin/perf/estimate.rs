//! Estimated shares of maintenance time per layer: counts taken at the
//! public boundary during the traced pass, times the unit costs the
//! layer kernels measured in the same run, over the total time spent in
//! `core.apply` / `sql.execute`.
//!
//! These are estimates, labelled as such. A kernel runs hot and alone,
//! so a unit cost is a floor for the same call inside maintenance; work
//! that no kernel models (planning, routing, allocation, the view
//! bookkeeping) lands in `est.unattributed.share`. Only
//! `est.engine.base_dml.share` is measured: the same deltas applied to a
//! view-less twin. In-program scoped timers that replace the rest are a
//! later change; shrinking the unattributed share is its target.

use crate::registry::Metrics;
use crate::workloads::Counts;

pub const SHARES: [&str; 11] = [
    "est.types.share",
    "est.storage.btree.share",
    "est.storage.heap.share",
    "est.storage.buffer.share",
    "est.engine.base_dml.share",
    "est.engine.exec.share",
    "est.net.share",
    "est.runtime.share",
    "est.serve.share",
    "est.sql.share",
    "est.unattributed.share",
];

/// The eleven shares; they sum to 1. When the estimates exceed the
/// measured total they are scaled down to it and nothing is left
/// unattributed.
pub fn shares(c: &Counts, kernels: &Metrics) -> Metrics {
    let k = |name: &str| kernels.value(name);
    let (searches, fetches, inserts) = (
        c.maint.searches as f64,
        c.maint.fetches as f64,
        c.maint.inserts as f64,
    );
    let rows = c.delta_rows as f64;
    // What `group_probe` adds on top of the index search it wraps.
    let probe_overhead = (k("engine.exec.group_probe_ns_per_key")
        - k("storage.table.index_search_batch_ns_per_key"))
    .max(0.0);
    let ns = [
        inserts * k("types.row.encode_ns")
            + fetches * k("types.row.decode_ns")
            + searches * k("types.row.encode_key_ns"),
        searches * k("storage.btree.search_ns") + inserts * k("storage.btree.insert_ns"),
        inserts * k("storage.heap.insert_ns") + fetches * k("storage.heap.get_ns"),
        c.buffer_accesses as f64 * k("storage.buffer.hit_ns"),
        c.base_dml_ns as f64,
        c.hash_join_rows as f64 * k("engine.exec.hash_join_ns_per_row") + searches * probe_overhead,
        c.maint.sends as f64 * k("net.fabric.send_recv_ns")
            + rows * k("net.payload.byte_size_ns_per_row"),
        c.steps as f64 * k("runtime.pipe.empty_step_us") * 1e3,
        c.published_changes as f64 * k("serve.publish_ns_per_change"),
        c.statements as f64 * k("sql.parse_ns_per_stmt"),
    ];
    let total = c.maintain_ns as f64;
    let attributed: f64 = ns.iter().sum();
    let scale = if attributed > total {
        attributed
    } else {
        total
    };
    let mut m = Metrics::default();
    let mut rest = 1.0;
    for (name, ns) in SHARES.iter().zip(ns) {
        let share = if scale > 0.0 { ns / scale } else { 0.0 };
        rest -= share;
        m.set(name, share);
    }
    m.set("est.unattributed.share", rest.max(0.0));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm::prelude::CostSnapshot;

    fn kernels() -> Metrics {
        let mut k = Metrics::default();
        for m in crate::registry::PER_LAYER
            .iter()
            .filter(|m| m.name.contains("_ns"))
        {
            k.set(m.name, 100.0);
        }
        k
    }

    fn sum(m: &Metrics) -> f64 {
        SHARES.iter().map(|s| m.value(s)).sum()
    }

    #[test]
    fn shares_sum_to_one_with_a_remainder() {
        let c = Counts {
            delta_rows: 10,
            maint: CostSnapshot {
                searches: 10,
                inserts: 10,
                ..CostSnapshot::default()
            },
            maintain_ns: 100_000,
            base_dml_ns: 25_000,
            ..Counts::default()
        };
        let m = shares(&c, &kernels());
        assert!((sum(&m) - 1.0).abs() < 1e-9);
        assert_eq!(m.value("est.engine.base_dml.share"), 0.25);
        assert_eq!(m.value("est.storage.btree.share"), 0.02);
        assert!(m.value("est.unattributed.share") > 0.5);
    }

    #[test]
    fn overshooting_estimates_are_scaled_to_the_total() {
        let c = Counts {
            maintain_ns: 1_000,
            base_dml_ns: 3_000,
            statements: 10,
            ..Counts::default()
        };
        let m = shares(&c, &kernels());
        assert!((sum(&m) - 1.0).abs() < 1e-9);
        assert_eq!(m.value("est.unattributed.share"), 0.0);
        assert_eq!(m.value("est.engine.base_dml.share"), 0.75);
        let idle = shares(&Counts::default(), &kernels());
        assert_eq!(idle.value("est.unattributed.share"), 1.0);
    }
}
