//! The four workloads and what they share: the run limit, the checker
//! that counts every verified operation, per-slice accumulators, and the
//! counters harvested for the per-layer metrics.
//!
//! All workloads are closed loops driven from this process with at most
//! two runnable threads. A *pass* sets the workload up (several times,
//! for `setup_s`), runs one untimed warm-up slice, then measures
//! equal-count slices until the limit is reached, verifying as it goes
//! and recomputing every view at the end.

pub mod bulk;
pub mod partial_zipf;
pub mod sql_serve;
pub mod trickle;

use std::time::{Duration, Instant};

use pvm::prelude::*;

use crate::env;
use crate::registry::Metrics;
use crate::span::Recorder;
use crate::stats::{self, Hist, Pick, Summary};

/// How long a pass measures: wall time (the driver's `--seconds`), or a
/// fixed number of slices, under which every counted metric repeats
/// exactly. `Frozen` is the slice count each workload fixes in source,
/// sized to measure for 20-25 s on the host the baseline was taken on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    Seconds(f64),
    Slices(usize),
    Frozen,
}

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub limit: Limit,
    /// Shrink data and slices to about a second per workload (tests).
    pub smoke: bool,
}

impl Config {
    /// Pick the full-size or the smoke-size constant.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// The same run with its time limit scaled (traced runs split theirs).
    pub fn share(&self, part: f64) -> Config {
        let limit = match self.limit {
            Limit::Seconds(s) => Limit::Seconds(s * part),
            slices => slices,
        };
        Config { limit, ..*self }
    }
}

/// Decides, before each slice, whether to measure another one.
#[derive(Debug)]
pub struct Budget {
    limit: Limit,
    start: Instant,
    done: usize,
    /// A time-limited pass still measures this many slices.
    min_slices: usize,
}

impl Budget {
    /// `frozen` is the calling workload's own slice count.
    pub fn start(limit: Limit, frozen: usize, min_slices: usize) -> Self {
        Budget {
            limit: if limit == Limit::Frozen {
                Limit::Slices(frozen)
            } else {
                limit
            },
            start: Instant::now(),
            done: 0,
            min_slices,
        }
    }

    pub fn more(&mut self) -> bool {
        let go = match self.limit {
            Limit::Frozen => unreachable!("resolved to a slice count at the start"),
            Limit::Slices(n) => self.done < n,
            Limit::Seconds(s) => {
                self.done < self.min_slices || self.start.elapsed() < Duration::from_secs_f64(s)
            }
        };
        self.done += usize::from(go);
        go
    }
}

/// Counts every verified operation; a failure is printed with the
/// operation that failed and makes the process exit non-zero.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("FAILED: {}", what());
            }
        }
    }

    pub fn ok<T>(&mut self, result: Result<T>, what: impl FnOnce() -> String) -> Option<T> {
        match result {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{}: {e}", what()));
                None
            }
        }
    }

    pub fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Set something up `reps` times, dropping each before building the
/// next (so peak memory is one copy), and keep the last. Returns it with
/// the median set-up time in seconds.
pub fn setup_median<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, Summary) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        stats::summarise(&times, times.len() as u64, Pick::Median),
    )
}

/// Per-slice accumulators behind the end-to-end timing metrics.
#[derive(Debug, Default)]
pub struct Slices {
    fresh: Vec<Hist>,
    read: Vec<Hist>,
    busy_ns: Vec<u64>,
    rows: Vec<u64>,
}

impl Slices {
    pub fn open(&mut self) {
        self.fresh.push(Hist::default());
        self.read.push(Hist::default());
        self.busy_ns.push(0);
        self.rows.push(0);
    }

    /// One committed batch of `rows` delta rows that took `ns` from
    /// hand-off to readable.
    pub fn batch(&mut self, ns: u64, rows: u64) {
        self.fresh.last_mut().expect("open slice").record(ns);
        *self.busy_ns.last_mut().expect("open slice") += ns;
        *self.rows.last_mut().expect("open slice") += rows;
    }

    pub fn read(&mut self, ns: u64) {
        self.read.last_mut().expect("open slice").record(ns);
    }

    pub fn total_rows(&self) -> u64 {
        self.rows.iter().sum()
    }

    pub fn reads(&mut self) -> &mut Vec<Hist> {
        &mut self.read
    }

    /// Delta rows per second of writer-busy time, per slice.
    pub fn rows_per_s(&self) -> Summary {
        let per_slice: Vec<f64> = self
            .rows
            .iter()
            .zip(&self.busy_ns)
            .filter(|(_, ns)| **ns > 0)
            .map(|(r, ns)| *r as f64 / (*ns as f64 / 1e9))
            .collect();
        stats::summarise(
            &per_slice,
            self.fresh.iter().map(Hist::len).sum(),
            Pick::FastHigh,
        )
    }

    /// The timing metrics every workload reports.
    pub fn report(&self, m: &mut Metrics) {
        m.put("maintain_rows_per_s", self.rows_per_s());
        for (q, label) in [(0.5, "p50"), (0.9, "p90"), (0.95, "p95"), (0.99, "p99")] {
            let fresh = stats::quantile_over_slices(&self.fresh, q);
            m.put_scaled(&format!("fresh_{label}_us"), fresh, 1e-3);
            let read = stats::quantile_over_slices(&self.read, q);
            m.put_scaled(&format!("read_{label}_us"), read, 1e-3);
        }
    }
}

/// Counted work of the maintenance calls of one traced pass — the input
/// of the estimated shares.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub delta_rows: u64,
    /// Abstract ops, sends and bytes of maintenance proper (auxiliary
    /// structures, computing the view delta, installing it).
    pub maint: CostSnapshot,
    pub buffer_accesses: u64,
    pub published_changes: u64,
    pub statements: u64,
    pub steps: u64,
    /// Rows pushed through the local scan + hash join path.
    pub hash_join_rows: u64,
    /// Total time inside `core.apply` / `sql.execute`.
    pub maintain_ns: u64,
    /// Total time of the same deltas on the view-less twin.
    pub base_dml_ns: u64,
}

/// Buffer-pool and page-I/O counters of a cluster, for before/after
/// differences.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolCounters {
    pub hits: u64,
    pub misses: u64,
    pub page_reads: u64,
    pub page_writes: u64,
}

impl PoolCounters {
    pub fn of(cluster: &Cluster) -> Self {
        let mut c = PoolCounters::default();
        for n in cluster.nodes() {
            let pool = n.buffer().lock();
            c.hits += pool.hits();
            c.misses += pool.misses();
            let io = pool.io_snapshot();
            c.page_reads += io.page_reads;
            c.page_writes += io.page_writes;
        }
        c
    }

    pub fn since(self, before: PoolCounters) -> PoolCounters {
        PoolCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            page_reads: self.page_reads - before.page_reads,
            page_writes: self.page_writes - before.page_writes,
        }
    }

    pub fn add(&mut self, o: PoolCounters) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.page_reads += o.page_reads;
        self.page_writes += o.page_writes;
    }

    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// The `storage.*` traced-run metrics.
    pub fn report(&self, rows: u64, m: &mut Metrics) {
        let per_row = |n: u64| n as f64 / rows.max(1) as f64;
        m.set(
            "storage.buffer.hit_rate",
            self.hits as f64 / self.accesses().max(1) as f64,
        );
        m.set("storage.buffer.accesses_per_row", per_row(self.accesses()));
        m.set("storage.page_reads_per_row", per_row(self.page_reads));
        m.set("storage.page_writes_per_row", per_row(self.page_writes));
    }
}

/// Turn the program's obs gate on so its gated counters record.
pub fn open_obs_gate(cluster: &Cluster) {
    cluster.set_trace_sink(std::sync::Arc::new(pvm::obs::NoopSink));
}

/// Mean of one of the program's own histograms (0 when never observed).
pub fn obs_mean(cluster: &Cluster, name: &str) -> f64 {
    cluster
        .obs_handle()
        .metrics()
        .histogram(name)
        .snapshot()
        .mean()
}

/// Median estimate of one of the program's own histograms.
pub fn obs_p50(cluster: &Cluster, name: &str) -> f64 {
    cluster
        .obs_handle()
        .metrics()
        .histogram(name)
        .snapshot()
        .p50()
}

/// The phases of a maintenance outcome that are maintenance proper.
pub fn maint_cost(out: &MaintenanceOutcome) -> CostSnapshot {
    out.aux.total() + out.compute.total() + out.view.total()
}

pub fn outcome_bytes(out: &MaintenanceOutcome) -> u64 {
    maint_cost(out).bytes_sent + out.base.net.bytes_sent
}

/// Everything one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    pub metrics: Metrics,
    pub schedule_hash: u64,
    pub checker: Checker,
    pub counts: Counts,
    /// One recorder per bench thread (spans only on traced passes).
    pub recorders: Vec<Recorder>,
    /// Frozen sizes and sample counts worth printing with the result.
    pub notes: Vec<(String, f64)>,
    /// Slices the pass measured.
    pub slices: usize,
}

impl Pass {
    pub fn note(&mut self, key: &str, value: f64) {
        self.notes.push((key.to_owned(), value));
    }

    pub fn measured(&mut self, slices: usize) {
        self.slices = slices;
        self.note("slices", slices as f64);
    }

    /// Metrics common to every workload's end: the checker's ratio and
    /// the process's peak memory.
    pub fn finish(&mut self) {
        let ratio = self.checker.failed as f64 / self.checker.attempted.max(1) as f64;
        self.metrics.set("error_ratio", ratio);
        self.metrics.set("peak_rss_mb", env::peak_rss_mb());
    }
}

pub fn run(workload: &str, cfg: &Config, traced: bool) -> Option<Pass> {
    Some(match workload {
        "trickle" => trickle::pass(cfg, traced),
        "bulk" => bulk::pass(cfg, traced),
        "sql_serve" => sql_serve::pass(cfg, traced),
        "partial_zipf" => partial_zipf::pass(cfg, traced),
        _ => return None,
    })
}

/// Pages of the named base relations.
pub fn base_pages(cluster: &Cluster, relations: &[&str]) -> Result<usize> {
    let mut pages = 0;
    for r in relations {
        pages += cluster.total_pages(cluster.table_id(r)?)?;
    }
    Ok(pages)
}

/// Pages a view and its method's structures occupy.
pub fn view_pages(cluster: &Cluster, view: &MaintainedView) -> Result<usize> {
    Ok(cluster.total_pages(view.view_table())? + view.storage_overhead_pages(cluster)?)
}

/// The short metric-name label of a maintenance method.
pub fn method_label(m: MaintenanceMethod) -> &'static str {
    match m {
        MaintenanceMethod::Naive => "naive",
        MaintenanceMethod::AuxiliaryRelation => "auxrel",
        MaintenanceMethod::GlobalIndex => "gi",
    }
}

/// Per-method counted totals behind `core.<m>.*`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MethodCounted {
    pub rows: u64,
    pub batches: u64,
    pub tw_io: f64,
    pub sends: u64,
    pub active_nodes: u64,
}

impl MethodCounted {
    pub fn add(&mut self, rows: u64, out: &MaintenanceOutcome) {
        self.rows += rows;
        self.batches += 1;
        self.tw_io += out.tw_io();
        self.sends += out.sends();
        self.active_nodes += out.compute_active_nodes() as u64;
    }

    pub fn report(&self, method: MaintenanceMethod, space_pages: usize, m: &mut Metrics) {
        let label = method_label(method);
        let rows = self.rows.max(1) as f64;
        m.set(&format!("core.{label}.tw_io_per_row"), self.tw_io / rows);
        m.set(
            &format!("core.{label}.sends_per_row"),
            self.sends as f64 / rows,
        );
        m.set(
            &format!("core.{label}.active_nodes_mean"),
            self.active_nodes as f64 / self.batches.max(1) as f64,
        );
        m.set(&format!("core.{label}.space_pages"), space_pages as f64);
    }
}
