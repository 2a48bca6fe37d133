//! Closed-loop snapshot serving: R reader sessions query a maintained
//! view through the MVCC serving tier while one writer streams
//! maintenance batches into it. Three passes over the identical batch
//! schedule:
//!
//! 1. **Oracle** — a plain sequential run records, for every epoch, a
//!    content hash of the whole view and of each join-key group.
//! 2. **Baseline** — the writer alone (R = 0), measuring reader-free
//!    maintenance throughput.
//! 3. **Serving** — R reader threads issue point lookups in a closed
//!    loop (snapshot → lookup → verify → think) while the writer re-runs
//!    the schedule. Every read is verified bit-identical to the oracle
//!    at its epoch, and a final full-content read checks the last epoch.
//!
//! The bin asserts the serving pass keeps maintenance throughput within
//! 25% of the baseline and that every read verified, then writes
//! `BENCH_serve.json` (into `$PVM_BENCH_OUT`, default `.`) with p50/p99
//! read latency and rows/s per pass. `PVM_BENCH_QUICK=1` shrinks the
//! workload for CI.
//!
//! Readers pace themselves with a think time between requests — a closed
//! loop of serving requests, not a CPU-saturating spin that would
//! measure core starvation instead of serving overhead (this matters on
//! small hosts; the JSON records the core count).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pvm::prelude::*;
use pvm_bench::{header, series_labels, series_row, BenchArgs, BenchJson};

/// Reader think time between point reads.
const THINK: Duration = Duration::from_millis(2);
const READERS: usize = 8;
/// The view column point reads filter on (the join value `a.j`).
const KEY_COL: usize = 1;

struct Config {
    b_rows: i64,
    domain: i64,
    delta: i64,
    batches: u64,
}

fn config(quick: bool) -> Config {
    if quick {
        Config {
            b_rows: 2_000,
            domain: 2_000,
            delta: 150,
            batches: 120,
        }
    } else {
        Config {
            b_rows: 10_000,
            domain: 10_000,
            delta: 250,
            batches: 400,
        }
    }
}

fn setup(cfg: &Config) -> (Cluster, MaintainedView) {
    let mut cluster = Cluster::new(ClusterConfig::new(4).with_buffer_pages(4096));
    let schema =
        || Schema::new(vec![Column::int("id"), Column::int("j"), Column::str("p")]).into_ref();
    cluster
        .create_table(TableDef::hash_heap("a", schema(), 0))
        .unwrap();
    let b = cluster
        .create_table(TableDef::hash_heap("b", schema(), 0))
        .unwrap();
    cluster
        .insert(
            b,
            (0..cfg.b_rows)
                .map(|i| row![i, i % cfg.domain, "b"])
                .collect(),
        )
        .unwrap();
    let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
    let view =
        MaintainedView::create(&mut cluster, def, MaintenanceMethod::AuxiliaryRelation).unwrap();
    (cluster, view)
}

/// The `a`-side delta rows of batch `n`.
fn a_rows(cfg: &Config, n: u64) -> Vec<Row> {
    let base = 1_000_000 + n as i64 * cfg.delta;
    (0..cfg.delta)
        .map(|i| row![base + i, (base + i) % cfg.domain, "a"])
        .collect()
}

/// Batch `n` of the schedule: the first inserts its delta, every later
/// one replaces the previous batch's rows with its own. The view stays
/// bounded at one delta's worth of rows, so the schedule can run long
/// enough to measure steadily while point reads stay cheap.
fn batch(cfg: &Config, n: u64) -> Delta {
    if n == 0 {
        Delta::Insert(a_rows(cfg, 0))
    } else {
        Delta::Update {
            old: a_rows(cfg, n - 1),
            new: a_rows(cfg, n),
        }
    }
}

fn hash_rows(rows: &[Row]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{rows:?}").hash(&mut h);
    h.finish()
}

/// Per-epoch oracle: the full-content hash plus one hash per join-key
/// group (sorted rows, exactly what `Snapshot::lookup` returns).
struct EpochOracle {
    full: u64,
    by_key: HashMap<i64, u64>,
}

fn epoch_oracle(cluster: &Cluster, view: &MaintainedView) -> EpochOracle {
    let mut rows = cluster.scan_all(view.view_table()).unwrap();
    rows.sort();
    let mut groups: HashMap<i64, Vec<Row>> = HashMap::new();
    for r in &rows {
        let k = r[KEY_COL].as_int().expect("join key is an int");
        groups.entry(k).or_default().push(r.clone());
    }
    EpochOracle {
        full: hash_rows(&rows),
        by_key: groups.iter().map(|(k, g)| (*k, hash_rows(g))).collect(),
    }
}

/// Drive the full batch schedule; returns elapsed wall seconds.
fn run_writer(cluster: &mut Cluster, view: &mut MaintainedView, cfg: &Config) -> f64 {
    let t0 = Instant::now();
    for n in 0..cfg.batches {
        view.apply(cluster, 0, &batch(cfg, n)).unwrap();
    }
    t0.elapsed().as_secs_f64()
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

struct Pass {
    readers: usize,
    rows_per_s: f64,
    reads: u64,
    p50_us: u64,
    p99_us: u64,
}

fn run_pass(cfg: &Config, oracle: &Arc<Vec<EpochOracle>>, readers: usize, args: &BenchArgs) -> Pass {
    let empty_hash = hash_rows(&[]);
    let (mut cluster, mut view) = setup(cfg);
    args.observe(&cluster);
    let reader = view.enable_serving(&cluster).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..readers)
        .map(|idx| {
            let reader = reader.clone();
            let oracle = oracle.clone();
            let stop = stop.clone();
            let domain = cfg.domain;
            std::thread::spawn(move || {
                let mut lat = Vec::new();
                let mut iter = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let key = (idx as i64 * 7919 + iter * 31).rem_euclid(domain);
                    iter += 1;
                    let t0 = Instant::now();
                    let snap = reader.snapshot();
                    let group = snap.lookup(KEY_COL, &Value::Int(key));
                    lat.push(t0.elapsed().as_micros() as u64);
                    let epoch = snap.epoch();
                    drop(snap);
                    let expect = oracle[epoch as usize]
                        .by_key
                        .get(&key)
                        .copied()
                        .unwrap_or(empty_hash);
                    assert_eq!(
                        hash_rows(&group),
                        expect,
                        "lookup(j = {key}) at epoch {epoch} diverged from the oracle"
                    );
                    std::thread::sleep(THINK);
                }
                lat
            })
        })
        .collect();
    let secs = run_writer(&mut cluster, &mut view, cfg);
    stop.store(true, Ordering::Relaxed);
    let mut lat: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("reader thread panicked"))
        .collect();
    lat.sort_unstable();
    assert_eq!(view.epoch(), cfg.batches, "one epoch per batch");
    // Full-content check of the final epoch, through the same tier the
    // readers used.
    let fin = reader.snapshot();
    assert_eq!(fin.epoch(), cfg.batches);
    assert_eq!(
        hash_rows(&fin.rows()),
        oracle[cfg.batches as usize].full,
        "final snapshot diverged from the oracle"
    );
    // Overwritten per pass: the file left behind is the serving pass.
    args.dump(&cluster);
    Pass {
        readers,
        rows_per_s: (cfg.batches * cfg.delta as u64) as f64 / secs,
        reads: lat.len() as u64,
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
    }
}

fn main() {
    let args = BenchArgs::parse();
    header(
        "serve",
        "closed-loop snapshot point reads vs maintenance throughput (AR method, L=4)",
    );
    let cfg = config(args.quick);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host cores: {cores}");

    // Pass 1: sequential oracle — full and per-key hashes at every epoch.
    let oracle = {
        let (mut cluster, mut view) = setup(&cfg);
        let mut epochs = vec![epoch_oracle(&cluster, &view)];
        for n in 0..cfg.batches {
            view.apply(&mut cluster, 0, &batch(&cfg, n)).unwrap();
            epochs.push(epoch_oracle(&cluster, &view));
        }
        Arc::new(epochs)
    };
    println!("oracle: {} epochs hashed", oracle.len());

    series_labels("R", &["rows/s", "reads", "p50 us", "p99 us"]);
    let mut passes = Vec::new();
    for readers in [0, READERS] {
        let pass = run_pass(&cfg, &oracle, readers, &args);
        series_row(
            pass.readers,
            &[
                pass.rows_per_s,
                pass.reads as f64,
                pass.p50_us as f64,
                pass.p99_us as f64,
            ],
        );
        passes.push(pass);
    }

    let ratio = passes[1].rows_per_s / passes[0].rows_per_s;
    assert!(passes[1].reads > 0, "readers made no progress");
    assert!(
        ratio >= 0.75,
        "serving {READERS} readers cost more than 25% of maintenance throughput \
         (ratio {ratio:.3}: {:.0} -> {:.0} rows/s)",
        passes[0].rows_per_s,
        passes[1].rows_per_s
    );
    println!("\nthroughput ratio with {READERS} readers: {ratio:.3} (every read verified)");

    let rows: Vec<String> = passes
        .iter()
        .map(|p| {
            format!(
                "{{\"readers\": {}, \"batches\": {}, \"delta\": {}, \"epochs\": {}, \
                 \"reads\": {}, \"verified\": true, \"rows_per_s\": {:.0}, \
                 \"p50_us\": {}, \"p99_us\": {}}}",
                p.readers,
                cfg.batches,
                cfg.delta,
                cfg.batches,
                p.reads,
                p.rows_per_s,
                p.p50_us,
                p.p99_us
            )
        })
        .collect();
    let out_path = BenchJson::new("serve")
        .field("cores", cores)
        .field("throughput_ratio", format!("{ratio:.3}"))
        .rows("rows", &rows)
        .write();
    println!("results written to {}", out_path.display());
}
