//! Threaded-runtime speedup: identical auxiliary-relation maintenance
//! work on the sequential backend vs. `pvm-runtime`'s one-thread-per-node
//! backend, swept over cluster sizes. Because the runtime is
//! cost-deterministic (see `tests/parallel_equivalence.rs`), the two
//! backends do *exactly* the same counted work — the only thing threading
//! changes is wall-clock time, which is what this bin measures.
//!
//! Emits one JSON object per line (plus the usual aligned table) so the
//! series can be plotted directly: speedup should grow with `L` while
//! per-node work still dominates the per-step barrier cost — provided
//! the host actually has cores to run the node threads on (`cores` is
//! included in every JSON row; with one core the best possible result
//! is parity). On glibc, run with `MALLOC_ARENA_MAX=1` when measuring
//! on few cores: scoped step threads are short-lived, and letting each
//! one pull a fresh malloc arena otherwise dominates the measurement.

//!
//! Pass `--trace <path>` to instead run a compact traced round covering
//! all three maintenance methods on the threaded backend and write a
//! Chrome `trace_event` file (open in Perfetto / `chrome://tracing`)
//! plus a JSONL event dump and per-phase metric summaries.
//!
//! Pass `--faults <seed>:<rate>` to instead run a compact fault-injection
//! round: the same maintenance work on both backends wrapped in
//! `pvm_faults::FaultTolerant`, asserting the faulted view contents match
//! a fault-free run and printing the fault/reliability counters as JSON.
//!
//! The default mode also writes the *counted* (wall-clock-free) costs per
//! `L` to `BENCH_parallel.json` (in `$PVM_BENCH_OUT`, default the working
//! directory). Counted costs are deterministic, so CI
//! diffs this file against the committed copy at the repo root and fails
//! on regressions — see the `bench-build` job.

use std::time::Instant;

use pvm::prelude::*;
use pvm_bench::{header, series_labels, series_row, BenchArgs, BenchJson};
use pvm_faults::{FaultPlan, FaultTolerant};

/// Rows preloaded into the probed relation `b`.
const B_ROWS: i64 = 160_000;
/// Distinct join values → each delta tuple matches `B_ROWS / DOMAIN`.
const DOMAIN: i64 = 160_000;
/// Delta tuples inserted into `a` per measured apply — large enough that
/// the §3.1.2 cost-based choice flips every node to a local scan + hash
/// join, the CPU-heavy / message-light regime where threading pays.
const DELTA: i64 = 8_000;

fn setup(l: usize) -> (Cluster, MaintainedView) {
    let mut cluster = Cluster::new(ClusterConfig::new(l).with_buffer_pages(8192));
    let schema =
        || Schema::new(vec![Column::int("id"), Column::int("j"), Column::str("p")]).into_ref();
    cluster
        .create_table(TableDef::hash_heap("a", schema(), 0))
        .unwrap();
    let b = cluster
        .create_table(TableDef::hash_heap("b", schema(), 0))
        .unwrap();
    cluster
        .insert(b, (0..B_ROWS).map(|i| row![i, i % DOMAIN, "b"]).collect())
        .unwrap();
    let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
    let mut view =
        MaintainedView::create(&mut cluster, def, MaintenanceMethod::AuxiliaryRelation).unwrap();
    view.set_join_policy(JoinPolicy::CostBased);
    (cluster, view)
}

fn delta() -> Delta {
    Delta::Insert(
        (0..DELTA)
            .map(|i| row![1_000_000 + i, i % DOMAIN, "a"])
            .collect(),
    )
}

/// Apply the delta on any backend, returning (wall ms, outcome).
fn run<B: Backend>(backend: &mut B, view: &mut MaintainedView) -> (f64, MaintenanceOutcome) {
    let d = delta();
    let t0 = Instant::now();
    let out = view.apply(backend, 0, &d).unwrap();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

/// Interconnect bytes charged across all four maintenance phases.
fn outcome_bytes(out: &MaintenanceOutcome) -> u64 {
    out.base.net.bytes_sent
        + out.aux.net.bytes_sent
        + out.compute.net.bytes_sent
        + out.view.net.bytes_sent
}

/// `--faults <seed>:<rate>` argument, if present.
fn faults_arg() -> Option<(u64, f64)> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--faults" {
            let spec = args.next().expect("--faults takes <seed>:<rate>");
            let (seed, rate) = spec.split_once(':').expect("--faults takes <seed>:<rate>");
            return Some((
                seed.parse().expect("fault seed must be an integer"),
                rate.parse().expect("fault rate must be a float"),
            ));
        }
    }
    None
}

/// Compact fault-injection round: a smaller workload than the speedup
/// sweep (settlement under faults multiplies message rounds), run on both
/// backends behind `FaultTolerant`, checked bit-identical to a fault-free
/// run.
fn faults_mode(seed: u64, rate: f64) {
    const L: usize = 4;
    const ROWS: i64 = 2_000;
    const FDOMAIN: i64 = 50;
    const FDELTA: i64 = 200;

    header(
        "parallel --faults",
        "fault-injected maintenance vs. fault-free baseline, both backends",
    );
    let setup = || {
        let mut cluster = Cluster::new(ClusterConfig::new(L).with_buffer_pages(1024));
        let schema =
            || Schema::new(vec![Column::int("id"), Column::int("j"), Column::str("p")]).into_ref();
        cluster
            .create_table(TableDef::hash_heap("a", schema(), 0))
            .unwrap();
        let b = cluster
            .create_table(TableDef::hash_heap("b", schema(), 0))
            .unwrap();
        cluster
            .insert(b, (0..ROWS).map(|i| row![i, i % FDOMAIN, "b"]).collect())
            .unwrap();
        let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
        let view = MaintainedView::create(&mut cluster, def, MaintenanceMethod::AuxiliaryRelation)
            .unwrap();
        (cluster, view)
    };
    let fdelta = Delta::Insert(
        (0..FDELTA)
            .map(|i| row![1_000_000 + i, i % FDOMAIN, "a"])
            .collect(),
    );
    let contents = |cluster: &Cluster, view: &MaintainedView| -> Vec<Row> {
        let mut rows = cluster.scan_all(view.view_table()).unwrap();
        rows.sort();
        rows
    };

    // Fault-free baseline on the bare sequential backend.
    let (mut base, mut base_view) = setup();
    let out = base_view.apply(&mut base, 0, &fdelta).unwrap();
    let expect = contents(&base, &base_view);
    println!("baseline view rows: {}", out.view_rows);

    let mut counters = Vec::new();
    for threaded in [false, true] {
        let plan = FaultPlan::uniform(seed, rate);
        let (cluster, mut view) = setup();
        let (name, faulted_contents, wire, link) = if threaded {
            let mut ft = FaultTolerant::threaded(ThreadedCluster::from_cluster(cluster), plan);
            view.apply(&mut ft, 0, &fdelta).unwrap();
            let (wire, link) = (ft.wire_stats(), ft.link_stats());
            let cluster = ft.into_inner().into_cluster();
            ("threaded", contents(&cluster, &view), wire, link)
        } else {
            let mut ft = FaultTolerant::sequential(cluster, plan);
            view.apply(&mut ft, 0, &fdelta).unwrap();
            let (wire, link) = (ft.wire_stats(), ft.link_stats());
            let cluster = ft.into_inner();
            ("sequential", contents(&cluster, &view), wire, link)
        };
        assert_eq!(
            faulted_contents, expect,
            "{name}: faulted run diverged from fault-free baseline (seed={seed} rate={rate})"
        );
        println!(
            "{{\"mode\": \"faults\", \"seed\": {seed}, \"rate\": {rate}, \"backend\": \"{name}\", \
             \"drops\": {}, \"dups\": {}, \"delays\": {}, \"retries\": {}, \
             \"dup_suppressed\": {}, \"acks\": {}, \"match\": true}}",
            wire.drops, wire.dups, wire.delays, link.retries, link.dup_suppressed, link.acks_sent
        );
        counters.push((wire, link));
    }
    // Both backends ride one FIFO wire, so the same plan must draw the
    // same faults and the link must make the same repairs on each.
    assert_eq!(
        counters[0], counters[1],
        "threaded wire/link counters diverged from sequential (seed={seed} rate={rate})"
    );
}

fn main() {
    let args = BenchArgs::parse();
    if args.run_trace("parallel", "three-method traced round, threaded backend", 4, true) {
        return;
    }
    if let Some((seed, rate)) = faults_arg() {
        faults_mode(seed, rate);
        return;
    }
    header(
        "parallel",
        "threaded runtime wall-clock speedup over the sequential backend (AR method)",
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host cores: {cores}");
    series_labels(
        "L",
        &["seq ms", "barrier ms", "pipe ms", "pipe speedup", "rows/s"],
    );
    let mut json_rows = Vec::new();
    let mut counted_rows = Vec::new();
    for l in [1usize, 2, 4, 8] {
        let (seq_cluster, mut seq_view) = setup(l);
        let mut seq = seq_cluster;
        args.observe(&seq);
        let (seq_ms, seq_out) = run(&mut seq, &mut seq_view);
        // Overwritten each sweep point: the file left behind is the
        // largest configuration's registry.
        args.dump(&seq);

        // The threaded runtime both ways: lockstep per-step barriers vs.
        // watermark-driven pipelining (the default).
        let (bar_cluster, mut bar_view) = setup(l);
        let mut bar = ThreadedCluster::with_runtime(bar_cluster, RuntimeConfig::barriered());
        let (bar_ms, bar_out) = run(&mut bar, &mut bar_view);

        let (thr_cluster, mut thr_view) = setup(l);
        let mut thr = ThreadedCluster::from_cluster(thr_cluster);
        let (thr_ms, thr_out) = run(&mut thr, &mut thr_view);

        let seq_rows = seq_out.view_rows;
        assert_eq!(
            seq_rows, thr_out.view_rows,
            "backends computed different views"
        );
        assert_eq!(
            seq_rows, bar_out.view_rows,
            "barriered backend computed a different view"
        );
        let speedup = seq_ms / thr_ms;
        let pipeline_speedup = bar_ms / thr_ms;
        // Wall-clock maintenance throughput: delta rows pushed through
        // the full pipeline per second, on each threaded configuration.
        let rows_per_sec = DELTA as f64 / (thr_ms / 1e3);
        let rows_per_sec_barrier = DELTA as f64 / (bar_ms / 1e3);
        series_row(l, &[seq_ms, bar_ms, thr_ms, pipeline_speedup, rows_per_sec]);
        json_rows.push(format!(
            "{{\"l\": {l}, \"cores\": {cores}, \"seq_ms\": {seq_ms:.3}, \"thr_barrier_ms\": {bar_ms:.3}, \"thr_ms\": {thr_ms:.3}, \"speedup\": {speedup:.3}, \"pipeline_speedup\": {pipeline_speedup:.3}, \"rows_per_sec\": {rows_per_sec:.0}, \"rows_per_sec_barrier\": {rows_per_sec_barrier:.0}, \"view_rows\": {seq_rows}}}"
        ));
        // Counted costs only — no wall-clock — so the file is
        // machine-independent and deterministic run to run.
        counted_rows.push(format!(
            "{{\"l\": {l}, \"view_rows\": {seq_rows}, \"tw_io\": {:.1}, \"sends\": {}, \"bytes\": {}}}",
            seq_out.tw_io(),
            seq_out.sends(),
            outcome_bytes(&seq_out)
        ));
    }
    println!();
    for row in &json_rows {
        println!("{row}");
    }
    // `rows` holds counted costs only — machine-independent and
    // deterministic, diffed strictly by CI. `wall` holds the wall-clock
    // sweep (including the barriered-vs-pipelined comparison); it is
    // machine-dependent, so CI gates it loosely (median of several runs,
    // >25% regression) rather than diffing it.
    let out_path = BenchJson::new("parallel")
        .rows("rows", &counted_rows)
        .rows("wall", &json_rows)
        .write();
    println!("\ncounted costs written to {}", out_path.display());
}
