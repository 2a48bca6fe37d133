//! `partial_zipf`: the one workload whose working set exceeds the
//! program's own cache. A sequential 4-node cluster maintains JV1 under
//! auxiliary relations with `enable_partial` at 25 % of the fully
//! resident bytes (measured on a twin during set-up), serving off. One
//! thread cycles 64 `read_key` point reads — drawn Zipf(1.1) over the
//! loaded custkeys, every eighth aimed at a recently inserted key — and
//! then one 4-row maintenance batch, inserts and deletes alternating and
//! recycling keys. The hit path, upquery-on-miss (probes of the base
//! tables), eviction and the dropping of deltas for evicted keys set
//! the read latencies; `trickle` is its all-resident twin.

use std::collections::VecDeque;
use std::time::Instant;

use pvm::prelude::*;

use super::{
    maint_cost, open_obs_gate, outcome_bytes, setup_median, view_pages, Budget, Config,
    MethodCounted, Pass, PoolCounters, Slices,
};
use crate::gen::{self, KeyPool, ScheduleHash, Tpcr, Zipf, BLOCK};
use crate::span::Recorder;
use crate::stats::Hist;

const NODES: usize = 4;
const POOL_PAGES: usize = 8192;
/// Frozen sizes: customers loaded, reads between two batches, rounds
/// (reads + one batch) per slice, slices of a run that is not
/// time-limited, inserted blocks kept live, set-ups.
const CUSTOMERS: (usize, usize) = (4_000, 200);
const ROUND_READS: (usize, usize) = (64, 8);
const SLICE_ROUNDS: (usize, usize) = (300, 3);
const SLICES: (usize, usize) = (50, 3);
const LIVE_BLOCKS: usize = 8;
/// A set-up builds the view twice (twin, then budgeted), about 1.3 s.
const SETUPS: (usize, usize) = (3, 2);
const ZIPF_S: f64 = 1.1;
const BUDGET_SHARE: f64 = 0.25;

fn build(data: &Tpcr) -> Result<(Cluster, MaintainedView)> {
    let mut cluster = Cluster::new(ClusterConfig::new(NODES).with_buffer_pages(POOL_PAGES));
    data.install(&mut cluster, false)?;
    let view = MaintainedView::create(
        &mut cluster,
        gen::jv1("jv1"),
        MaintenanceMethod::AuxiliaryRelation,
    )?;
    Ok((cluster, view))
}

/// Measure the fully resident footprint on a twin, then build the view
/// under a quarter of it. Returns the per-node budget too.
fn build_partial(data: &Tpcr) -> Result<(Cluster, MaintainedView, u64)> {
    let (mut twin, mut full_view) = build(data)?;
    full_view.enable_partial(&mut twin, PartialPolicy::with_budget(u64::MAX))?;
    let full = full_view.partial_stats().expect("partial").resident_bytes;
    drop((twin, full_view));
    let budget = (full as f64 * BUDGET_SHARE / NODES as f64).ceil() as u64;
    let (mut cluster, mut view) = build(data)?;
    view.enable_partial(&mut cluster, PartialPolicy::with_budget(budget))?;
    Ok((cluster, view, budget))
}

struct State<'a> {
    data: &'a Tpcr,
    cluster: Cluster,
    view: MaintainedView,
    twin: Option<Cluster>,
    pool: KeyPool,
    zipf: Zipf,
    /// Loaded custkeys in seeded order: Zipf rank -> key.
    ranked: Vec<i64>,
    /// Inserted blocks still live, oldest first, with their row version.
    live: VecDeque<(Vec<i64>, u64)>,
    rng: gen::Rng,
    version: u64,
    op: u64,
    rec: Recorder,
    pass: Pass,
    counted: MethodCounted,
    hit: Hist,
    miss: Hist,
    apply: [Hist; 2],
    base_dml: [Hist; 2],
    gen_ns: u64,
    bytes: u64,
}

impl State<'_> {
    fn read(&mut self, nth: usize, slices: &mut Option<&mut Slices>) {
        let inserted = (nth % 8 == 7 && !self.live.is_empty()).then(|| {
            let (keys, version) = &self.live[self.rng.below(self.live.len() as u64) as usize];
            (keys[self.rng.below(BLOCK as u64) as usize], *version)
        });
        let (key, version) =
            inserted.unwrap_or_else(|| (self.ranked[self.zipf.sample(&mut self.rng)], 0));
        self.op += 1;
        let misses = self
            .rec
            .keeping()
            .then(|| self.view.partial_stats().expect("partial").misses);
        let open = self.rec.begin("core.read_key", self.op);
        let got = self.view.read_key(&mut self.cluster, &Value::Int(key));
        let ns = self.rec.end(open);
        let what = || format!("partial_zipf read_key({key})");
        if let Some(got) = self.pass.checker.ok(got, what) {
            let expect = self.data.jv1_rows(&self.data.customer(key, version));
            self.pass.checker.check(got == expect, || {
                format!("{}: {got:?} != {expect:?}", what())
            });
        }
        let Some(slices) = slices else { return };
        slices.read(ns);
        if let Some(before) = misses {
            if self.view.partial_stats().expect("partial").misses > before {
                self.miss.record(ns);
            } else {
                self.hit.record(ns);
            }
        }
    }

    /// Insert a fresh block, or delete the oldest live one.
    fn batch(&mut self, slices: &mut Option<&mut Slices>) {
        let open = self.rec.begin("workload.gen", self.op + 1);
        let insert = self.live.len() < LIVE_BLOCKS;
        let delta = if insert {
            let keys = self
                .pool
                .take()
                .expect("key pool never runs dry: blocks are recycled");
            self.version += 1;
            let rows = keys
                .iter()
                .map(|&k| self.data.customer(k, self.version))
                .collect();
            self.live.push_back((keys, self.version));
            Delta::Insert(rows)
        } else {
            // Once `LIVE_BLOCKS` are live, deletes and inserts alternate.
            let (keys, version) = self.live.pop_front().expect("live block");
            let rows = keys
                .iter()
                .map(|&k| self.data.customer(k, version))
                .collect();
            self.pool.give_back(&keys);
            Delta::Delete(rows)
        };
        let gen_ns = self.rec.end(open);
        self.op += 1;
        let id = self.op;
        let before = self.view.epoch();
        let open = self.rec.begin("core.apply", id);
        let out = self.view.apply(&mut self.cluster, 0, &delta);
        let ns = self.rec.end(open);
        let kind = usize::from(!insert);
        let what = || format!("partial_zipf {} batch {id}", ["insert", "delete"][kind]);
        let Some(out) = self.pass.checker.ok(out, what) else {
            return;
        };
        self.pass
            .checker
            .check(self.view.epoch() == before + 1, || {
                format!("{}: one epoch per batch", what())
            });
        let mut twin_ns = 0;
        if let Some(twin) = &mut self.twin {
            let table = twin.table_id("customer").expect("customer table");
            let open = self.rec.begin("engine.base_dml", id);
            let done = match &delta {
                Delta::Insert(rows) => twin.insert(table, rows.clone()).map(|_| ()),
                Delta::Delete(rows) => twin.delete(table, rows, &[]).map(|_| ()),
                Delta::Update { .. } => unreachable!("no updates in this workload"),
            };
            twin_ns = self.rec.end(open);
            self.pass
                .checker
                .ok(done, || "partial_zipf twin DML".to_owned());
        }
        let Some(slices) = slices else { return };
        let rows = delta.len() as u64;
        slices.batch(ns, rows);
        self.counted.add(rows, &out);
        self.gen_ns += gen_ns;
        if self.rec.keeping() {
            self.apply[kind].record(ns);
            self.base_dml[kind].record(twin_ns);
            self.bytes += outcome_bytes(&out);
            let c = &mut self.pass.counts;
            c.maint += maint_cost(&out);
            c.maintain_ns += ns;
            c.base_dml_ns += twin_ns;
            c.delta_rows += rows;
        }
    }
}

pub fn pass(cfg: &Config, traced: bool) -> Pass {
    let customers = cfg.size(CUSTOMERS.0, CUSTOMERS.1);
    let round_reads = cfg.size(ROUND_READS.0, ROUND_READS.1);
    let slice_rounds = cfg.size(SLICE_ROUNDS.0, SLICE_ROUNDS.1);
    let data = Tpcr::new(cfg.seed, customers as u64);
    let origin = Instant::now();

    let ((cluster, view, budget), setup) = setup_median(cfg.size(SETUPS.0, SETUPS.1), || {
        build_partial(&data).expect("partial_zipf set-up")
    });
    let twin = traced.then(|| {
        let mut twin = Cluster::new(ClusterConfig::new(NODES).with_buffer_pages(POOL_PAGES));
        data.install(&mut twin, false)
            .expect("partial_zipf twin set-up");
        twin
    });
    if traced {
        open_obs_gate(&cluster);
    }
    let mut ranked: Vec<i64> = data.base_keys().collect();
    gen::Rng::new(cfg.seed ^ 0x21FF).shuffle(&mut ranked);

    let mut hash = ScheduleHash::default();
    data.hash_into(&mut hash, false);
    {
        // The first slice's read keys, from a copy of the generator.
        let (zipf, mut rng) = (
            Zipf::new(customers, ZIPF_S),
            gen::Rng::new(cfg.seed ^ 0x9A97),
        );
        for _ in 0..slice_rounds * round_reads {
            hash.bytes(&ranked[zipf.sample(&mut rng)].to_le_bytes());
        }
    }

    let mut st = State {
        data: &data,
        cluster,
        view,
        twin,
        pool: data.key_pool(cfg.seed, BLOCK),
        zipf: Zipf::new(customers, ZIPF_S),
        ranked,
        live: VecDeque::new(),
        rng: gen::Rng::new(cfg.seed ^ 0x9A97),
        version: 0,
        op: 0,
        rec: Recorder::new(origin, 0, traced),
        pass: Pass::default(),
        counted: MethodCounted::default(),
        hit: Hist::default(),
        miss: Hist::default(),
        apply: Default::default(),
        base_dml: Default::default(),
        gen_ns: 0,
        bytes: 0,
    };
    st.pass.schedule_hash = hash.value();

    let round = |st: &mut State, slices: &mut Option<&mut Slices>| {
        for nth in 0..round_reads {
            st.read(nth, slices);
        }
        st.batch(slices);
    };
    for _ in 0..slice_rounds {
        round(&mut st, &mut None);
    }
    let stats_before = st.view.partial_stats().expect("partial");
    let pools_before = PoolCounters::of(&st.cluster);
    let mut slices = Slices::default();
    let mut budget_ok = true;
    let mut worst_over_budget = 0f64;
    let mut clock = Budget::start(cfg.limit, cfg.size(SLICES.0, SLICES.1), 3);
    while clock.more() {
        slices.open();
        let mut open = Some(&mut slices);
        for _ in 0..slice_rounds {
            round(&mut st, &mut open);
        }
        let s = st.view.partial_stats().expect("partial");
        let over = s.resident_bytes as f64 / (budget * NODES as u64) as f64;
        worst_over_budget = worst_over_budget.max(over);
        budget_ok &= over <= 1.0;
    }

    let State {
        mut cluster,
        mut view,
        mut pass,
        counted,
        rec,
        ..
    } = st;
    pass.checker.check(budget_ok, || {
        format!("partial_zipf: resident bytes reached {worst_over_budget:.3} of the budget")
    });
    let stats = view.partial_stats().expect("partial");
    let pools = PoolCounters::of(&cluster).since(pools_before);
    // Fill every hole, then the stored view must equal its recomputation.
    let filled = view.ensure_all_resident(&mut cluster);
    pass.checker
        .ok(filled, || "partial_zipf ensure_all_resident".to_owned());
    pass.checker.ok(view.check_consistent(&cluster), || {
        "partial_zipf check_consistent".to_owned()
    });

    let m = &mut pass.metrics;
    m.put("setup_s", setup);
    slices.report(m);
    let pages = view_pages(&cluster, &view).expect("view pages");
    let relation_pages = super::base_pages(&cluster, &["customer", "orders"]).expect("base pages");
    m.set("space_amp", pages as f64 / relation_pages as f64);
    let rows = counted.rows.max(1) as f64;
    m.set("tw_io_per_row", counted.tw_io / rows);
    m.set("sends_per_row", counted.sends as f64 / rows);
    counted.report(MaintenanceMethod::AuxiliaryRelation, pages, m);
    let (hits, misses) = (
        stats.hits - stats_before.hits,
        stats.misses - stats_before.misses,
    );
    m.set(
        "core.partial.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.set(
        "core.partial.evictions_per_kread",
        (stats.evictions - stats_before.evictions) as f64 * 1e3 / (hits + misses).max(1) as f64,
    );
    m.set("core.partial.resident_over_budget", worst_over_budget);
    if traced {
        m.set("core.partial.read_hit_us_p50", st.hit.quantile(0.5) / 1e3);
        m.set("core.partial.read_miss_us_p50", st.miss.quantile(0.5) / 1e3);
        m.set("core.auxrel.insert_us_p50", st.apply[0].quantile(0.5) / 1e3);
        m.set("core.auxrel.delete_us_p50", st.apply[1].quantile(0.5) / 1e3);
        m.set(
            "engine.base_dml.insert_us_p50",
            st.base_dml[0].quantile(0.5) / 1e3,
        );
        m.set(
            "engine.base_dml.delete_us_p50",
            st.base_dml[1].quantile(0.5) / 1e3,
        );
        m.set(
            "workload.gen_us_per_batch",
            st.gen_ns as f64 / 1e3 / counted.batches.max(1) as f64,
        );
        m.set("net.bytes_per_row", st.bytes as f64 / rows);
        m.set(
            "net.rows_per_message_mean",
            super::obs_mean(&cluster, pvm::obs::metric::BATCH_ROWS_PER_MSG),
        );
        m.set(
            "engine.group_probe_fanin_mean",
            super::obs_mean(&cluster, pvm::obs::metric::GROUP_PROBE_FANIN),
        );
        pools.report(counted.rows, m);
        pass.counts.buffer_accesses = pools.accesses();
    }
    pass.note("customers", customers as f64);
    pass.note("budget_bytes_per_node", budget as f64);
    pass.note("slice_rounds", slice_rounds as f64);
    pass.measured(slices.rows_per_s().groups);
    pass.note("holes_at_end", stats.holes as f64);
    pass.recorders.push(rec);
    pass.finish();
    pass
}
