//! Every metric and workload the benchmark reports, in one table. The
//! root `BENCHMARK.json` lists exactly these (a test compares the two),
//! and a run may only set a metric that is declared here.

use std::collections::BTreeMap;

use crate::stats::Summary;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "trickle",
        "4-row insert/update/delete batches on JV1 under all three methods, all resident: per-batch cost, base DML and index probes work; rings, SQL and upqueries do not",
    ),
    (
        "bulk",
        "2000-row insert batches on three-way JV2 on the threaded runtime: row codec, bulk inserts, hash joins and the rings work; per-batch overhead, deletes, serve and SQL do not",
    ),
    (
        "sql_serve",
        "SQL DML on four views (one shared group) beside a snapshot reader thread: the only workload crossing sql and group multicast, and reads beside writes on one serving tier",
    ),
    (
        "partial_zipf",
        "Zipf point reads on a view holding 25% of its state: the one workload larger than the program's own cache, so hits, upqueries and evictions set read latency",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics with their regression bounds (share of the
/// parent's median a metric may worsen by). Every workload reports all
/// of them: `setup_s` as the median set-up, the other timings as the
/// fast-decile slice (`stats::FAST_QUANTILE`).
///
/// The tail is the 90th percentile: `bulk` commits about 130 batches in
/// a run, which leaves ten samples beyond p90 and not beyond p95, and
/// the driver wants every workload to report every metric. p95 and p99
/// are per-layer metrics.
///
/// No counted metric is among them: `sends_per_row` is 0 wherever the
/// delta is co-located with its auxiliary relation, `error_ratio` must
/// stay 0, and `tw_io_per_row` reads the same on every run, while the
/// driver wants metrics that are never 0 and vary as measured. They are
/// [`COUNTED`]: per-layer metrics that every result file also carries
/// and `perf compare` checks for equality.
pub const END_TO_END: [(MetricDef, f64); 7] = [
    (lower("setup_s", "s"), 0.25),
    (higher("maintain_rows_per_s", "rows/s"), 0.25),
    (lower("fresh_p50_us", "us"), 0.25),
    (lower("fresh_p90_us", "us"), 0.25),
    (lower("read_p50_us", "us"), 0.25),
    (lower("read_p90_us", "us"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.15),
];

/// The paper's counted currency. Two runs of one program with the same
/// seed and the same fixed slice count must agree on these exactly.
pub const COUNTED: [&str; 4] = ["tw_io_per_row", "sends_per_row", "space_amp", "error_ratio"];

/// `sql_serve`'s statement throughput: a timing `perf compare` bounds
/// like an end-to-end metric, on the one workload that measures it.
pub const STMTS_PER_S: (&str, f64) = ("sql.stmts_per_s", 0.25);

/// Per-layer metrics. A traced run prints all of them; one that the
/// workload does not exercise reads 0.
pub const PER_LAYER: [MetricDef; 108] = [
    // -- traced run: the bench's spans and the program's own counters --
    lower("workload.gen_us_per_batch", "us"),
    lower("core.naive.insert_us_p50", "us"),
    lower("core.naive.update_us_p50", "us"),
    lower("core.naive.delete_us_p50", "us"),
    lower("core.auxrel.insert_us_p50", "us"),
    lower("core.auxrel.update_us_p50", "us"),
    lower("core.auxrel.delete_us_p50", "us"),
    lower("core.gi.insert_us_p50", "us"),
    lower("core.gi.update_us_p50", "us"),
    lower("core.gi.delete_us_p50", "us"),
    lower("engine.base_dml.insert_us_p50", "us"),
    lower("engine.base_dml.update_us_p50", "us"),
    lower("engine.base_dml.delete_us_p50", "us"),
    lower("core.naive.tw_io_per_row", "io/row"),
    lower("core.auxrel.tw_io_per_row", "io/row"),
    lower("core.gi.tw_io_per_row", "io/row"),
    lower("core.naive.sends_per_row", "msgs/row"),
    lower("core.auxrel.sends_per_row", "msgs/row"),
    lower("core.gi.sends_per_row", "msgs/row"),
    lower("core.naive.active_nodes_mean", "count"),
    lower("core.auxrel.active_nodes_mean", "count"),
    lower("core.gi.active_nodes_mean", "count"),
    lower("core.naive.space_pages", "pages"),
    lower("core.auxrel.space_pages", "pages"),
    lower("core.gi.space_pages", "pages"),
    lower("net.bytes_per_row", "bytes/row"),
    higher("net.rows_per_message_mean", "rows/msg"),
    higher("engine.group_probe_fanin_mean", "keys"),
    higher("storage.buffer.hit_rate", "ratio"),
    lower("storage.buffer.accesses_per_row", "count"),
    lower("storage.page_reads_per_row", "count"),
    lower("storage.page_writes_per_row", "count"),
    higher("runtime.seq.rows_per_s", "rows/s"),
    higher("runtime.barrier.rows_per_s", "rows/s"),
    higher("runtime.pipe.rows_per_s", "rows/s"),
    higher("runtime.pipe_over_seq", "ratio"),
    lower("runtime.barrier_wait_us_p50", "us"),
    lower("runtime.watermark_lag_us_p50", "us"),
    higher("runtime.run_ahead_steps_p50", "steps"),
    lower("core.bulk_batch_us_p90", "us"),
    lower("serve.epoch_visible_us_p50", "us"),
    lower("serve.snapshot_ns_p50", "ns"),
    lower("serve.lookup_ns_p50", "ns"),
    lower("serve.lookup_ns_p99", "ns"),
    lower("serve.chain_len_p50", "links"),
    lower("sql.execute_us_p50.insert", "us"),
    lower("sql.execute_us_p50.update", "us"),
    lower("sql.execute_us_p50.delete", "us"),
    lower("sql.execute_us_p50.select", "us"),
    higher("sql.stmts_per_s", "stmt/s"),
    higher("share.probes_saved_per_batch", "count"),
    higher("share.sends_saved_per_batch", "count"),
    higher("core.partial.hit_rate", "ratio"),
    lower("core.partial.read_hit_us_p50", "us"),
    lower("core.partial.read_miss_us_p50", "us"),
    lower("core.partial.evictions_per_kread", "count"),
    lower("core.partial.resident_over_budget", "ratio"),
    higher("obs.overhead_ratio", "ratio"),
    lower("fresh_p95_us", "us"),
    lower("fresh_p99_us", "us"),
    lower("read_p95_us", "us"),
    lower("read_p99_us", "us"),
    lower("tw_io_per_row", "io/row"),
    lower("sends_per_row", "msgs/row"),
    lower("space_amp", "ratio"),
    lower("error_ratio", "ratio"),
    // -- layer kernels: public functions of the lower layers, timed alone --
    lower("types.row.encode_ns", "ns"),
    lower("types.row.decode_ns", "ns"),
    lower("types.row.encode_key_ns", "ns"),
    lower("storage.page.insert_ns", "ns"),
    lower("storage.page.get_ns", "ns"),
    lower("storage.heap.insert_ns", "ns"),
    lower("storage.heap.get_ns", "ns"),
    lower("storage.heap.delete_ns", "ns"),
    lower("storage.btree.insert_ns", "ns"),
    lower("storage.btree.search_ns", "ns"),
    lower("storage.btree.search_many_ns_per_key", "ns"),
    lower("storage.btree.delete_ns", "ns"),
    lower("storage.buffer.hit_ns", "ns"),
    lower("storage.buffer.miss_evict_ns", "ns"),
    lower("storage.table.insert_ns", "ns"),
    lower("storage.table.delete_row_ns", "ns"),
    lower("storage.table.index_search_ns", "ns"),
    lower("storage.table.index_search_batch_ns_per_key", "ns"),
    lower("engine.cluster.insert_ns_per_row", "ns"),
    lower("engine.cluster.delete_ns_per_row", "ns"),
    lower("engine.exec.hash_join_ns_per_row", "ns"),
    lower("engine.exec.group_probe_ns_per_key", "ns"),
    lower("net.fabric.send_recv_ns", "ns"),
    lower("net.payload.byte_size_ns_per_row", "ns"),
    lower("runtime.spsc.push_pop_ns", "ns"),
    lower("runtime.pipe.empty_step_us", "us"),
    lower("runtime.barrier.empty_step_us", "us"),
    lower("serve.publish_ns_per_change", "ns"),
    lower("serve.snapshot_ns", "ns"),
    lower("serve.lookup_ns", "ns"),
    lower("sql.parse_ns_per_stmt", "ns"),
    // -- estimated shares of maintenance time (counts x kernel costs) --
    lower("est.types.share", "ratio"),
    lower("est.storage.btree.share", "ratio"),
    lower("est.storage.heap.share", "ratio"),
    lower("est.storage.buffer.share", "ratio"),
    lower("est.engine.base_dml.share", "ratio"),
    lower("est.engine.exec.share", "ratio"),
    lower("est.net.share", "ratio"),
    lower("est.runtime.share", "ratio"),
    lower("est.serve.share", "ratio"),
    lower("est.sql.share", "ratio"),
    lower("est.unattributed.share", "ratio"),
];

pub fn end_to_end(name: &str) -> Option<(MetricDef, f64)> {
    END_TO_END.iter().copied().find(|(m, _)| m.name == name)
}

pub fn per_layer(name: &str) -> Option<MetricDef> {
    PER_LAYER.iter().copied().find(|m| m.name == name)
}

/// The metrics one run measured, keyed by declared name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, Summary>);

impl Metrics {
    /// Set a counted or single-shot metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.put(name, Summary::single(value));
    }

    /// Set a metric summarised over slices (keeps spread and counts).
    pub fn put(&mut self, name: &str, summary: Summary) {
        let declared = end_to_end(name)
            .map(|(m, _)| m.name)
            .or_else(|| per_layer(name).map(|m| m.name))
            .unwrap_or_else(|| panic!("metric '{name}' is not declared in registry.rs"));
        self.0.insert(declared, summary);
    }

    /// [`Metrics::put`] with the summary rescaled (ns to us).
    pub fn put_scaled(&mut self, name: &str, summary: Summary, factor: f64) {
        self.put(name, summary.scaled(factor));
    }

    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.0.get(name)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |s| s.value)
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// Whether the run measured `name`.
    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn declared_names_and_units_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|(m, _)| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END.iter().map(|(m, _)| m).chain(&PER_LAYER) {
            assert!(unit_ok(m.unit), "bad unit {} on {}", m.unit, m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        for (m, bound) in &END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", m.name);
        }
        for (_, why) in &WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.0.unit, setup.0.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|(_, b)| *b <= setup.1),
            "setup_s has the largest bound"
        );
        for name in COUNTED.iter().chain([&STMTS_PER_S.0]) {
            assert!(per_layer(name).is_some(), "{name} is a per-layer metric");
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        Metrics::default().set("made.up", 1.0);
    }
}
