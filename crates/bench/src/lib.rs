//! # pvm-bench
//!
//! Experiment harnesses. The `figures` bin regenerates every table and
//! figure of the paper's evaluation from [`figures`] — `cargo run -p
//! pvm-bench --release --bin figures [ID ...]` — and the gated bins
//! (`parallel`, `skew`, `serve`, `partial`, `catalog`) measure the
//! extensions beyond it. The Criterion micro-benches live under
//! `benches/`; `perf`, the repo's benchmark, under `src/bin/perf/`.
//!
//! This library holds the shared output helpers: every table prints in
//! the same aligned, diff-friendly format recorded in `EXPERIMENTS.md`,
//! and every bin writes its `BENCH_<name>.json` through [`BenchJson`].

pub mod figures;

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
            trace: path_arg("--trace"),
            metrics: path_arg("--metrics"),
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

/// The path after `flag` in the process arguments.
fn path_arg(flag: &str) -> Option<PathBuf> {
    let mut args = std::env::args();
    args.find(|a| a == flag)?;
    args.next().map(PathBuf::from)
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
    print!("{}", header_text(&format!("{id}: {caption}")));
}

/// The lines [`header`] prints: `title` between two rules.
pub(crate) fn header_text(title: &str) -> String {
    let rule = "=".repeat(64);
    format!("{rule}\n{title}\n{rule}\n")
}

/// Print one aligned row: a leading x-value plus one column per series.
pub fn series_row(x: impl Display, values: &[f64]) {
    let cols: Vec<(usize, Option<usize>)> = values.iter().map(|_| (14, None)).collect();
    println!("{}", row_text(10, &cols, x, values));
}

/// Print the column-label row matching [`series_row`] alignment.
pub fn series_labels(x_label: &str, labels: &[&str]) {
    let widths = vec![14; labels.len()];
    println!("{}", labels_text(10, &widths, x_label, labels));
}

/// One table row: `x` right-aligned in `x_width` columns, then each value
/// right-aligned in its `(width, decimals)` column. `None` decimals print
/// whole numbers bare and anything else with two.
pub(crate) fn row_text(
    x_width: usize,
    cols: &[(usize, Option<usize>)],
    x: impl Display,
    values: &[f64],
) -> String {
    let mut out = format!("{x:>x_width$}");
    for (&(w, decimals), v) in cols.iter().zip(values) {
        let whole = v.fract() == 0.0 && v.abs() < 1e15;
        let d = decimals.unwrap_or(if whole { 0 } else { 2 });
        out += &format!(" {v:>w$.d$}");
    }
    out
}

/// The label row above [`row_text`] rows of the same widths.
pub(crate) fn labels_text(x_width: usize, widths: &[usize], x: &str, labels: &[&str]) -> String {
    let mut out = format!("{x:>x_width$}");
    for (w, l) in widths.iter().zip(labels) {
        out += &format!(" {l:>w$}");
    }
    out
}

/// A `BENCH_<name>.json` file: scalar fields, then arrays of one-line
/// JSON objects, in the layout every committed file has. [`write`]
/// puts it in the directory named by `PVM_BENCH_OUT` (default: the
/// working directory).
///
/// [`write`]: BenchJson::write
#[derive(Debug, Clone)]
pub struct BenchJson {
    name: &'static str,
    entries: Vec<String>,
}

impl BenchJson {
    pub fn new(name: &'static str) -> Self {
        BenchJson {
            name,
            entries: vec![format!("  \"bench\": \"{name}\"")],
        }
    }

    /// A scalar field; `value` is written as already-formatted JSON.
    pub fn field(mut self, key: &str, value: impl Display) -> Self {
        self.entries.push(format!("  \"{key}\": {value}"));
        self
    }

    /// An array of one-line JSON objects, one per line.
    pub fn rows(mut self, key: &str, rows: &[String]) -> Self {
        let body: Vec<String> = rows.iter().map(|r| format!("    {r}")).collect();
        self.entries
            .push(format!("  \"{key}\": [\n{}\n  ]", body.join(",\n")));
        self
    }

    /// Write `BENCH_<name>.json` into `$PVM_BENCH_OUT` (default `.`) and
    /// return its path.
    pub fn write(&self) -> PathBuf {
        let dir = std::env::var_os("PVM_BENCH_OUT").unwrap_or_else(|| ".".into());
        let path = Path::new(&dir).join(format!("BENCH_{}.json", self.name));
        let text = format!("{{\n{}\n}}\n", self.entries.join(",\n"));
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        path
    }
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
