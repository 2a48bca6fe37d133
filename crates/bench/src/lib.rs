//! # pvm-bench
//!
//! Experiment harnesses. One binary per table/figure of the paper
//! (`fig07` … `fig14`, `table1`) regenerates the corresponding series —
//! run them with `cargo run -p pvm-bench --release --bin figNN`. The
//! Criterion micro-benches live under `benches/`.
//!
//! This library holds the shared output helpers so every figure prints in
//! the same aligned, diff-friendly format recorded in `EXPERIMENTS.md`.

use std::fmt::Display;
use std::path::{Path, PathBuf};

/// The common bench-bin surface, parsed once at startup: the
/// `--trace <path>` and `--metrics <path>` flags plus the
/// `PVM_BENCH_QUICK` environment toggle every CI-gated bin honors.
/// Replaces the per-bin copies of the same flag plumbing.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// `--trace <path>`: write a Chrome trace of one maintenance round
    /// instead of running the sweep.
    pub trace: Option<PathBuf>,
    /// `--metrics <path>`: dump the metrics registry in Prometheus text
    /// exposition format when the run finishes.
    pub metrics: Option<PathBuf>,
    /// `PVM_BENCH_QUICK` is set: shrink the sweep for CI.
    pub quick: bool,
}

impl BenchArgs {
    pub fn parse() -> Self {
        BenchArgs {
            trace: trace_arg(),
            metrics: metrics_arg(),
            quick: std::env::var_os("PVM_BENCH_QUICK").is_some(),
        }
    }

    /// When `--trace` was passed, run the standard three-method traced
    /// round ([`capture_trace`]) and return `true`: the bin should exit
    /// without sweeping.
    pub fn run_trace(&self, bin: &str, caption: &str, l: usize, threaded: bool) -> bool {
        let Some(path) = &self.trace else {
            return false;
        };
        header(&format!("{bin} --trace"), caption);
        capture_trace(path, l, threaded);
        true
    }

    /// Flip the obs gate on ([`enable_metrics`]) when a `--metrics` dump
    /// was requested, so gated metrics are collected for [`BenchArgs::
    /// dump`].
    pub fn observe(&self, cluster: &pvm::prelude::Cluster) {
        if self.metrics.is_some() {
            enable_metrics(cluster);
        }
    }

    /// Write the registry dump if `--metrics` was passed. Call at the
    /// point whose registry should be left behind — callers that dump in
    /// a loop overwrite, keeping the last configuration's registry.
    pub fn dump(&self, cluster: &pvm::prelude::Cluster) {
        if let Some(path) = &self.metrics {
            write_metrics(path, cluster);
        }
    }
}

/// Parse a `--trace <path>` flag from the process arguments.
pub fn trace_arg() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--trace" {
            return args.next().map(PathBuf::from);
        }
    }
    None
}

/// Parse a `--metrics <path>` flag from the process arguments: where to
/// write a Prometheus text-exposition dump of the metrics registry when
/// the run finishes.
pub fn metrics_arg() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--metrics" {
            return args.next().map(PathBuf::from);
        }
    }
    None
}

/// Flip a cluster's obs gate on (with a [`pvm::obs::NoopSink`]) so gated
/// metrics — work shares, inbox depths, per-view batch counters — are
/// collected for a later [`write_metrics`] dump. Counted costs are
/// unaffected (see `tests/obs_parity.rs`).
pub fn enable_metrics(cluster: &pvm::prelude::Cluster) {
    use std::sync::Arc;
    cluster.set_trace_sink(Arc::new(pvm::obs::NoopSink));
}

/// Write `cluster`'s metrics registry to `path` in Prometheus text
/// exposition format (0.0.4).
pub fn write_metrics(path: &Path, cluster: &pvm::prelude::Cluster) {
    let text = pvm::obs::prometheus(cluster.obs_handle().metrics());
    std::fs::write(path, text).expect("write metrics exposition");
    println!("metrics: prometheus exposition -> {}", path.display());
}

/// Run one compact maintenance round with all three methods (as three
/// views over the same base tables) under a recording trace sink, then
/// write a Chrome `trace_event` file to `path`, a JSONL event dump next
/// to it (`.jsonl`), and print per-phase metric summaries as JSON lines.
///
/// The capture is deliberately small — tracing a full sweep would bury
/// the timeline — and runs on the threaded backend when `threaded` so
/// transport batching and barrier-wait metrics show up too.
pub fn capture_trace(path: &Path, l: usize, threaded: bool) {
    use pvm::obs::{chrome_trace, jsonl, MemorySink};
    use pvm::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    let mut cluster = Cluster::new(ClusterConfig::new(l).with_buffer_pages(2048));
    let schema =
        || Schema::new(vec![Column::int("id"), Column::int("j"), Column::str("p")]).into_ref();
    cluster
        .create_table(TableDef::hash_heap("a", schema(), 0))
        .unwrap();
    let b = cluster
        .create_table(TableDef::hash_heap("b", schema(), 0))
        .unwrap();
    cluster
        .insert(b, (0..64i64).map(|i| row![i, i % 16, "b"]).collect())
        .unwrap();
    let mut views = Vec::new();
    for (name, method) in [
        ("jv_naive", MaintenanceMethod::Naive),
        ("jv_ar", MaintenanceMethod::AuxiliaryRelation),
        ("jv_gi", MaintenanceMethod::GlobalIndex),
    ] {
        let def = JoinViewDef::two_way(name, "a", "b", 1, 1, 3, 3);
        views.push(MaintainedView::create(&mut cluster, def, method).unwrap());
    }
    let sink = Arc::new(MemorySink::new(l));
    cluster.set_trace_sink(sink.clone());
    let obs = cluster.obs_handle();
    let delta = Delta::Insert((0..32i64).map(|i| row![10_000 + i, i % 16, "a"]).collect());
    let mut view_refs: Vec<&mut MaintainedView> = views.iter_mut().collect();
    if threaded {
        let mut backend = ThreadedCluster::from_cluster(cluster);
        maintain(&mut backend, None, &mut view_refs, "a", &delta).unwrap();
    } else {
        maintain(&mut cluster, None, &mut view_refs, "a", &delta).unwrap();
    }

    let events = sink.events();
    std::fs::write(path, chrome_trace(&events)).expect("write chrome trace");
    std::fs::write(path.with_extension("jsonl"), jsonl(&events)).expect("write jsonl trace");

    // Per-(method, phase) roll-up of the captured events.
    let mut agg: BTreeMap<(&str, &str), (u64, u64)> = BTreeMap::new();
    for e in &events {
        let m = e.method.map(|m| m.label()).unwrap_or("engine");
        let slot = agg.entry((m, e.phase.label())).or_default();
        slot.0 += 1;
        slot.1 += e.count;
    }
    for ((m, p), (n, rows)) in &agg {
        println!(
            "{{\"trace_summary\": true, \"method\": \"{m}\", \"phase\": \"{p}\", \
             \"events\": {n}, \"rows\": {rows}}}"
        );
    }
    println!("{}", obs.metrics().to_json());
    println!(
        "trace: {} events -> {} (+ .jsonl)",
        events.len(),
        path.display()
    );
}

/// Print a figure/table header.
pub fn header(id: &str, caption: &str) {
    println!("================================================================");
    println!("{id}: {caption}");
    println!("================================================================");
}

/// Print one aligned row: a leading x-value plus one column per series.
pub fn series_row(x: impl Display, values: &[f64]) {
    print!("{x:>10}");
    for v in values {
        if v.fract() == 0.0 && v.abs() < 1e15 {
            print!(" {v:>14.0}");
        } else {
            print!(" {v:>14.2}");
        }
    }
    println!();
}

/// Print the column-label row matching [`series_row`] alignment.
pub fn series_labels(x_label: &str, labels: &[&str]) {
    print!("{x_label:>10}");
    for l in labels {
        print!(" {l:>14}");
    }
    println!();
}

/// Geometric sweep of node counts, the x-axis of Figures 7 and 9–10.
pub fn node_sweep() -> Vec<u64> {
    vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_geometric() {
        let s = node_sweep();
        assert_eq!(s.first(), Some(&1));
        assert_eq!(s.last(), Some(&512));
        for w in s.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }
}
