//! `bulk`: the paper's §3.3 experiment. Insert-only batches of 2 000
//! delta customers into the three-way JV2 = customer ⋈ orders ⋈ lineitem
//! under auxiliary relations with the cost-based join policy, on a
//! 2-node cluster driven by the default pipelined `ThreadedCluster`,
//! serving off. Row codec, bulk heap/B+tree inserts, local scans + hash
//! joins, `NetPayload` sizing and the SPSC rings dominate; per-batch
//! overhead, deletes, serve and SQL do nothing — the mirror image of
//! `trickle`.
//!
//! Inserts only grow the tables, so the workload runs in repetitions on
//! fresh clusters: each repetition is one set-up sample and one slice of
//! batches. A traced pass adds one repetition each on the sequential
//! `Cluster` and on the barriered runtime for the `runtime.*` ratios.

use std::time::Instant;

use pvm::prelude::*;

use super::{
    maint_cost, open_obs_gate, outcome_bytes, view_pages, Budget, Config, Limit, MethodCounted,
    Pass, PoolCounters, Slices,
};
use crate::gen::{self, ScheduleHash, Tpcr};
use crate::span::Recorder;
use crate::stats::{self, Hist};

const NODES: usize = 2;
const POOL_PAGES: usize = 8192;
/// Frozen sizes: customers loaded, delta customers per batch, batches
/// per repetition (bounded by the fresh keys a data set holds),
/// repetitions of a run that is not time-limited, verified point reads
/// after each batch.
const CUSTOMERS: (usize, usize) = (4_000, 100);
const BATCH_ROWS: (usize, usize) = (2_000, 40);
const REP_BATCHES: (usize, usize) = (16, 3);
const REPETITIONS: (usize, usize) = (10, 3);
const READS_PER_BATCH: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Pipelined,
    Sequential,
    Barriered,
}

/// What one repetition measured.
#[derive(Default)]
struct Rep {
    setup_s: f64,
    batch_ns: Vec<u64>,
    counted: MethodCounted,
    pools: PoolCounters,
    structure_pages: usize,
    relation_pages: usize,
    bytes: u64,
    steps: u64,
    barrier_wait_us_p50: f64,
    watermark_lag_us_p50: f64,
    run_ahead_steps_p50: f64,
    rows_per_message_mean: f64,
    group_probe_fanin_mean: f64,
}

struct Run<'a> {
    cfg: &'a Config,
    data: Tpcr,
    /// A repetition's fresh customer keys, in seeded order.
    keys: Vec<i64>,
    batch_rows: usize,
    rep_batches: usize,
    rec: Recorder,
    pass: Pass,
    op: u64,
    gen_ns: u64,
}

impl Run<'_> {
    /// The rows of batch `b` of a repetition, in seeded key order.
    fn batch_rows_of(&self, b: usize) -> Vec<Row> {
        self.keys[b * self.batch_rows..(b + 1) * self.batch_rows]
            .iter()
            .map(|&k| self.data.customer(k, 1))
            .collect()
    }

    /// One repetition on a fresh cluster. `slices` is `None` for the
    /// runtime-comparison repetitions, which only feed `runtime.*`.
    fn rep(&mut self, mode: Mode, gate: bool, slices: Option<&mut Slices>) -> Rep {
        let t0 = Instant::now();
        let mut cluster = Cluster::new(ClusterConfig::new(NODES).with_buffer_pages(POOL_PAGES));
        self.data.install(&mut cluster, true).expect("bulk load");
        let mut view = MaintainedView::create(
            &mut cluster,
            gen::jv2("jv2"),
            MaintenanceMethod::AuxiliaryRelation,
        )
        .expect("bulk view");
        view.set_join_policy(JoinPolicy::CostBased);
        let mut rep = Rep {
            setup_s: t0.elapsed().as_secs_f64(),
            ..Rep::default()
        };
        if gate {
            open_obs_gate(&cluster);
        }
        let cluster = match mode {
            Mode::Sequential => {
                let mut backend = cluster;
                self.batches(&mut backend, &mut view, &mut rep, slices);
                backend
            }
            Mode::Pipelined => {
                let mut backend = ThreadedCluster::from_cluster(cluster);
                self.batches(&mut backend, &mut view, &mut rep, slices);
                backend.into_cluster()
            }
            Mode::Barriered => {
                let mut backend =
                    ThreadedCluster::with_runtime(cluster, RuntimeConfig::barriered());
                self.batches(&mut backend, &mut view, &mut rep, slices);
                backend.into_cluster()
            }
        };
        let open = self.rec.begin("core.check_consistent", self.op);
        let consistent = view.check_consistent(&cluster);
        self.rec.end(open);
        self.pass
            .checker
            .ok(consistent, || format!("bulk {mode:?} check_consistent"));
        rep.structure_pages = view_pages(&cluster, &view).expect("view pages");
        rep.relation_pages =
            super::base_pages(&cluster, &["customer", "orders", "lineitem"]).expect("base pages");
        if gate {
            use pvm::obs::metric;
            rep.barrier_wait_us_p50 = super::obs_p50(&cluster, metric::BARRIER_WAIT_US);
            rep.watermark_lag_us_p50 = super::obs_p50(&cluster, metric::WATERMARK_LAG_US);
            rep.run_ahead_steps_p50 = super::obs_p50(&cluster, metric::RUN_AHEAD_STEPS);
            rep.rows_per_message_mean = super::obs_mean(&cluster, metric::BATCH_ROWS_PER_MSG);
            rep.group_probe_fanin_mean = super::obs_mean(&cluster, metric::GROUP_PROBE_FANIN);
        }
        rep
    }

    fn batches<B: Backend>(
        &mut self,
        backend: &mut B,
        view: &mut MaintainedView,
        rep: &mut Rep,
        mut slices: Option<&mut Slices>,
    ) {
        let mut rng = gen::Rng::new(self.cfg.seed ^ 0xB01C);
        let pools_before = PoolCounters::of(backend.engine());
        let steps_before = backend.engine().obs_handle().now();
        // AR rows a cost-based local scan + hash join walks per batch.
        let scanned: u64 = view
            .method_tables()
            .iter()
            .map(|&t| backend.engine().row_count(t).unwrap_or(0))
            .sum();
        for b in 0..self.rep_batches {
            self.op += 1;
            let id = self.op;
            let gen = self.rec.begin("workload.gen", id);
            let rows = self.batch_rows_of(b);
            let delta = Delta::Insert(rows);
            self.gen_ns += self.rec.end(gen);
            let before = view.epoch();
            let open = self.rec.begin("core.apply", id);
            let out = view.apply(backend, 0, &delta);
            let ns = self.rec.end(open);
            let what = || format!("bulk batch {b} (op {id})");
            let Some(out) = self.pass.checker.ok(out, what) else {
                continue;
            };
            self.pass.checker.check(
                view.epoch() == before + 1 && out.view_rows == 4 * delta.len() as u64,
                || {
                    format!(
                        "{}: epoch {} view rows {}",
                        what(),
                        view.epoch(),
                        out.view_rows
                    )
                },
            );
            rep.batch_ns.push(ns);
            rep.counted.add(delta.len() as u64, &out);
            rep.bytes += outcome_bytes(&out);
            if let Some(slices) = slices.as_deref_mut() {
                slices.batch(ns, delta.len() as u64);
                if self.rec.keeping() {
                    let c = &mut self.pass.counts;
                    c.maint += maint_cost(&out);
                    c.maintain_ns += ns;
                    c.delta_rows += delta.len() as u64;
                    let probes = out.compute.total().searches;
                    c.hash_join_rows += if probes < delta.len() as u64 {
                        scanned + delta.len() as u64
                    } else {
                        0
                    };
                }
            }
            // Verified point reads: half from this batch, half loaded.
            for r in 0..READS_PER_BATCH {
                let (key, version) = if r % 2 == 0 {
                    let i = b * self.batch_rows + rng.below(self.batch_rows as u64) as usize;
                    (self.keys[i], 1)
                } else {
                    let k = self.data.base_keys().start + rng.below(self.data.customers) as i64;
                    (k, 0)
                };
                self.op += 1;
                let open = self.rec.begin("core.read_key", self.op);
                let got = view.read_key(backend, &Value::Int(key));
                let ns = self.rec.end(open);
                let what = || format!("bulk read_key({key})");
                if let Some(mut got) = self.pass.checker.ok(got, what) {
                    got.sort();
                    let expect = self.data.jv2_rows(&self.data.customer(key, version));
                    self.pass.checker.check(got == expect, || {
                        format!("{}: {got:?} != {expect:?}", what())
                    });
                }
                if let Some(slices) = slices.as_deref_mut() {
                    slices.read(ns);
                }
            }
        }
        rep.pools = PoolCounters::of(backend.engine()).since(pools_before);
        rep.steps = backend.engine().obs_handle().now() - steps_before;
    }
}

/// Delta rows per second over a repetition's batches (median batch).
fn rows_per_s(rep: &Rep, batch_rows: usize) -> f64 {
    let per_batch: Vec<f64> = rep
        .batch_ns
        .iter()
        .map(|ns| batch_rows as f64 / (*ns as f64 / 1e9))
        .collect();
    stats::median(&per_batch)
}

pub fn pass(cfg: &Config, traced: bool) -> Pass {
    let batch_rows = cfg.size(BATCH_ROWS.0, BATCH_ROWS.1);
    let rep_batches = cfg.size(REP_BATCHES.0, REP_BATCHES.1);
    let customers = cfg.size(CUSTOMERS.0, CUSTOMERS.1);
    let data = Tpcr::new(cfg.seed, customers as u64);
    let mut pool = data.key_pool(cfg.seed, 1);
    let keys = (0..batch_rows * rep_batches)
        .map(|_| {
            pool.take()
                .expect("data set holds a repetition's fresh keys")[0]
        })
        .collect();
    let mut run = Run {
        cfg,
        data,
        keys,
        batch_rows,
        rep_batches,
        rec: Recorder::new(Instant::now(), 0, traced),
        pass: Pass::default(),
        op: 0,
        gen_ns: 0,
    };
    let mut hash = ScheduleHash::default();
    run.data.hash_into(&mut hash, true);
    for b in 0..rep_batches {
        hash.rows(&run.batch_rows_of(b));
    }
    run.pass.schedule_hash = hash.value();

    // A traced pass spends two repetitions on the runtime comparison;
    // its time limit covers them.
    let started = Instant::now();
    let (seq, barrier) = if traced {
        (
            Some(run.rep(Mode::Sequential, true, None)),
            Some(run.rep(Mode::Barriered, true, None)),
        )
    } else {
        (None, None)
    };
    let limit = match cfg.limit {
        Limit::Seconds(s) => Limit::Seconds((s - started.elapsed().as_secs_f64()).max(0.0)),
        slices => slices,
    };

    // No separate warm-up: a repetition's first batch meets a freshly
    // built cluster by design, as the paper's experiment does.
    let mut slices = Slices::default();
    let mut reps = Vec::new();
    let mut budget = Budget::start(limit, cfg.size(REPETITIONS.0, REPETITIONS.1), 1);
    while budget.more() {
        slices.open();
        reps.push(run.rep(Mode::Pipelined, traced, Some(&mut slices)));
    }

    let Run {
        mut pass,
        rec,
        gen_ns,
        ..
    } = run;
    let m = &mut pass.metrics;
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    m.put(
        "setup_s",
        stats::summarise(&setups, setups.len() as u64, stats::Pick::Median),
    );
    slices.report(m);
    let last = reps.last().expect("at least one repetition");
    m.set(
        "space_amp",
        last.structure_pages as f64 / last.relation_pages as f64,
    );
    let mut counted = MethodCounted::default();
    let mut pools = PoolCounters::default();
    let (mut bytes, mut steps) = (0, 0);
    for r in &reps {
        counted.rows += r.counted.rows;
        counted.batches += r.counted.batches;
        counted.tw_io += r.counted.tw_io;
        counted.sends += r.counted.sends;
        counted.active_nodes += r.counted.active_nodes;
        pools.add(r.pools);
        bytes += r.bytes;
        steps += r.steps;
    }
    let rows = counted.rows.max(1) as f64;
    m.set("tw_io_per_row", counted.tw_io / rows);
    m.set("sends_per_row", counted.sends as f64 / rows);
    counted.report(
        MaintenanceMethod::AuxiliaryRelation,
        last.structure_pages,
        m,
    );
    if traced {
        let mut all = Hist::default();
        reps.iter()
            .flat_map(|r| &r.batch_ns)
            .for_each(|ns| all.record(*ns));
        m.set("core.auxrel.insert_us_p50", all.quantile(0.5) / 1e3);
        m.set("core.bulk_batch_us_p90", all.quantile(0.9) / 1e3);
        m.set(
            "workload.gen_us_per_batch",
            gen_ns as f64 / 1e3 / (counted.batches.max(1) + 2 * rep_batches as u64) as f64,
        );
        m.set("net.bytes_per_row", bytes as f64 / rows);
        m.set("net.rows_per_message_mean", last.rows_per_message_mean);
        m.set("engine.group_probe_fanin_mean", last.group_probe_fanin_mean);
        pools.report(counted.rows, m);
        let (seq, barrier) = (seq.expect("traced"), barrier.expect("traced"));
        let pipe = stats::median(
            &reps
                .iter()
                .map(|r| rows_per_s(r, batch_rows))
                .collect::<Vec<f64>>(),
        );
        m.set("runtime.seq.rows_per_s", rows_per_s(&seq, batch_rows));
        m.set(
            "runtime.barrier.rows_per_s",
            rows_per_s(&barrier, batch_rows),
        );
        m.set("runtime.pipe.rows_per_s", pipe);
        m.set("runtime.pipe_over_seq", pipe / rows_per_s(&seq, batch_rows));
        m.set("runtime.barrier_wait_us_p50", barrier.barrier_wait_us_p50);
        m.set("runtime.watermark_lag_us_p50", last.watermark_lag_us_p50);
        m.set("runtime.run_ahead_steps_p50", last.run_ahead_steps_p50);
        pass.counts.buffer_accesses = pools.accesses();
        pass.counts.steps = steps;
    }
    pass.note("customers", customers as f64);
    pass.note("batch_rows", batch_rows as f64);
    pass.note("rep_batches", rep_batches as f64);
    pass.measured(reps.len());
    pass.recorders.push(rec);
    pass.finish();
    pass
}
