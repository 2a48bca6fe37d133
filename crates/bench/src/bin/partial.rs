//! Partial-state ablation (beyond the paper): what a per-node memory
//! budget costs a maintained join view under skewed point reads.
//!
//! A 4-node cluster maintains a two-way join view (AR method) whose
//! resident bytes — view partitions plus auxiliary-relation entries —
//! are capped at a *fraction* of the fully materialized footprint
//! ([`MaintainedView::enable_partial`]). A closed loop of point reads on
//! the view's partition key, drawn uniform / Zipf(1.0) / Zipf(1.5),
//! interleaves with maintenance churn; a read that hits an evicted key
//! upqueries it from the base relations and reinstalls it.
//!
//! Per (budget fraction × distribution) cell the harness reports the
//! steady-state hit rate, read latency p50/p99, and upquery latency
//! p50/p99 (from the `partial.upquery_us` histogram), and asserts the
//! accounting invariant — resident bytes never exceed the budget — plus
//! the headline claim: at Zipf(1.5) a 25% budget sustains a ≥ 0.9 hit
//! rate (the SpaceSaving admission sketch protects the heavy keys, LRU
//! keeps the read working set). Results go to `BENCH_partial.json` (in
//! `$PVM_BENCH_OUT`, default `.`) for the CI regression gate;
//! `PVM_BENCH_QUICK=1` shrinks the read loop for CI.

use std::time::Instant;

use pvm::prelude::*;
use pvm_bench::{enable_metrics, header, series_labels, series_row, BenchArgs, BenchJson};
use rand::{rngs::StdRng, SeedableRng};

const L: usize = 4;
/// Distinct view partition keys (`a.id` values).
const KEYS: u64 = 512;
/// Distinct join-attribute values.
const DOMAIN: i64 = 64;
/// `b`-rows per join value — view rows per key.
const FANOUT: i64 = 4;

struct Config {
    warmup: u64,
    reads: u64,
}

fn config(quick: bool) -> Config {
    if quick {
        Config {
            warmup: 300,
            reads: 1_200,
        }
    } else {
        Config {
            warmup: 1_000,
            reads: 5_000,
        }
    }
}

fn setup() -> (Cluster, MaintainedView) {
    let mut cluster = Cluster::new(ClusterConfig::new(L).with_buffer_pages(4096));
    let schema =
        || Schema::new(vec![Column::int("id"), Column::int("j"), Column::str("p")]).into_ref();
    let a = cluster
        .create_table(TableDef::hash_heap("a", schema(), 0))
        .unwrap();
    let b = cluster
        .create_table(TableDef::hash_heap("b", schema(), 0))
        .unwrap();
    cluster
        .insert(
            a,
            (0..KEYS as i64).map(|i| row![i, i % DOMAIN, "a"]).collect(),
        )
        .unwrap();
    cluster
        .insert(
            b,
            (0..DOMAIN * FANOUT)
                .map(|i| row![i, i % DOMAIN, "b"])
                .collect(),
        )
        .unwrap();
    let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
    let view =
        MaintainedView::create(&mut cluster, def, MaintenanceMethod::AuxiliaryRelation).unwrap();
    (cluster, view)
}

/// Fully materialized footprint (view + AR entries), measured once on a
/// twin with an unbounded budget — the denominator of the sweep's
/// budget fractions.
fn full_resident_bytes() -> u64 {
    let (mut cluster, mut view) = setup();
    view.enable_partial(&mut cluster, PartialPolicy::with_budget(u64::MAX))
        .unwrap();
    view.partial_stats().unwrap().resident_bytes
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

struct Cell {
    hit_rate: f64,
    p50_us: u64,
    p99_us: u64,
    upq_p50_us: u64,
    upq_p99_us: u64,
    resident: u64,
    budget: u64,
    evictions: u64,
}

fn run_cell(cfg: &Config, dist: &dyn Distribution, seed: u64, budget: u64) -> Cell {
    let (mut cluster, mut view) = setup();
    enable_metrics(&cluster);
    view.enable_partial(&mut cluster, PartialPolicy::with_budget(budget))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut churn = 0u64;
    let mut lat = Vec::with_capacity(cfg.reads as usize);
    let mut base = PartialStats::default();
    for i in 0..cfg.warmup + cfg.reads {
        // Maintenance churn: every 16th step inserts a fresh `b`-row,
        // the next churn step deletes that same row — the view keeps
        // returning to baseline while deltas stream through the ledger.
        if i % 16 == 8 {
            let idx = (churn / 2) as i64;
            let r = row![1_000_000 + idx, idx % DOMAIN, "x"];
            let delta = if churn % 2 == 0 {
                Delta::insert_one(r)
            } else {
                Delta::Delete(vec![r])
            };
            view.apply(&mut cluster, 1, &delta).unwrap();
            churn += 1;
        }
        if i == cfg.warmup {
            base = view.partial_stats().unwrap();
        }
        let k = dist.sample(&mut rng) as i64;
        let key = Value::Int(k);
        let t0 = Instant::now();
        let rows = view.read_key(&mut cluster, &key).unwrap();
        if i >= cfg.warmup {
            lat.push(t0.elapsed().as_micros() as u64);
        }
        // An odd churn count means one extra b-row is live; keys sharing
        // its join value see fanout + 1.
        let extra = (churn % 2 == 1 && k % DOMAIN == ((churn / 2) as i64) % DOMAIN) as i64;
        assert_eq!(
            rows.len() as i64,
            FANOUT + extra,
            "key {key} must join its {FANOUT}+{extra} b-rows"
        );
    }
    lat.sort_unstable();
    let stats = view.partial_stats().unwrap();
    assert!(
        stats.resident_bytes <= budget * L as u64,
        "resident {} bytes exceeds the {budget} × {L}-node budget",
        stats.resident_bytes
    );
    let measured = (stats.hits - base.hits) + (stats.misses - base.misses);
    let upq = cluster
        .obs_handle()
        .metrics()
        .histogram(pvm::obs::metric::PARTIAL_UPQUERY_US)
        .snapshot();
    Cell {
        hit_rate: (stats.hits - base.hits) as f64 / measured.max(1) as f64,
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
        upq_p50_us: upq.p50() as u64,
        upq_p99_us: upq.p99() as u64,
        resident: stats.resident_bytes,
        budget,
        evictions: stats.evictions,
    }
}

fn main() {
    header(
        "partial",
        "bounded-memory view: hit rate and upquery latency vs budget fraction (AR method, L=4)",
    );
    let cfg = config(BenchArgs::parse().quick);
    let full = full_resident_bytes();
    println!("fully materialized footprint: {full} bytes ({KEYS} keys, fanout {FANOUT})\n");

    series_labels(
        "frac/dist",
        &[
            "hit rate", "p50 us", "p99 us", "upq p50", "upq p99", "evict",
        ],
    );
    let fracs = [0.125f64, 0.25, 0.5];
    let dists: [(&str, Box<dyn Distribution>, u64); 3] = [
        ("uniform", Box::new(Uniform::new(KEYS)), 11),
        ("zipf1.0", Box::new(Zipf::new(KEYS, 1.0)), 12),
        ("zipf1.5", Box::new(Zipf::new(KEYS, 1.5)), 13),
    ];
    let mut json_rows = Vec::new();
    let mut headline = None;
    for frac in fracs {
        let budget = ((full as f64 * frac) / L as f64).ceil() as u64;
        for (label, dist, seed) in &dists {
            let cell = run_cell(&cfg, dist.as_ref(), *seed, budget);
            series_row(
                format!("{frac}/{label}"),
                &[
                    cell.hit_rate,
                    cell.p50_us as f64,
                    cell.p99_us as f64,
                    cell.upq_p50_us as f64,
                    cell.upq_p99_us as f64,
                    cell.evictions as f64,
                ],
            );
            if frac == 0.25 && *label == "zipf1.5" {
                headline = Some(cell.hit_rate);
            }
            json_rows.push(format!(
                "{{\"frac\": {frac}, \"dist\": \"{label}\", \"hit_rate\": {:.4}, \
                 \"p50_us\": {}, \"p99_us\": {}, \"upq_p50_us\": {}, \"upq_p99_us\": {}, \
                 \"resident\": {}, \"budget\": {}, \"evictions\": {}}}",
                cell.hit_rate,
                cell.p50_us,
                cell.p99_us,
                cell.upq_p50_us,
                cell.upq_p99_us,
                cell.resident,
                cell.budget,
                cell.evictions
            ));
        }
    }

    // The headline claim, enforced: at Zipf(1.5) a 25% budget keeps at
    // least 9 of 10 reads on the resident fast path.
    let headline = headline.expect("0.25/zipf1.5 cell ran");
    assert!(
        headline >= 0.9,
        "zipf1.5 @ 25% budget hit rate {headline:.3} < 0.9"
    );
    println!("\nzipf1.5 @ 25% budget hit rate: {headline:.3} (≥ 0.9 asserted)");

    let out_path = BenchJson::new("partial")
        .field("full_bytes", full)
        .rows("rows", &json_rows)
        .write();
    println!("results written to {}", out_path.display());
}
