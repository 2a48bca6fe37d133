//! `trickle`: the paper's operational-warehouse stream. A sequential
//! 4-node cluster per method (naive, auxiliary relation, global index)
//! maintains JV1 = customer ⋈ orders, serving snapshots, under one
//! seeded schedule of 4-row batches cycling insert → update → delete on
//! `customer`. Everything is resident, so per-batch fixed cost, base
//! DML, index probes and heap/B+tree inserts do all the work; the
//! runtime's rings, SQL and upqueries do none.
//!
//! The three methods take every cycle in turn, so each slice holds the
//! same operation mix. Every batch is followed by eight `read_key` point
//! reads — the four keys it wrote and four loaded ones — checked against
//! the bench's own model of the view.

use std::time::Instant;

use pvm::prelude::*;

use super::{
    maint_cost, method_label, open_obs_gate, outcome_bytes, setup_median, view_pages, Budget,
    Config, Counts, MethodCounted, Pass, PoolCounters, Slices,
};
use crate::gen::{self, KeyPool, ScheduleHash, Tpcr, BLOCK};
use crate::span::Recorder;
use crate::stats::{self, Hist};

const NODES: usize = 4;
const POOL_PAGES: usize = 8192;
/// Frozen sizes: customers loaded, cycles per slice (each cycle is three
/// batches, each followed by eight reads, on each of the three methods),
/// slices of a run that is not time-limited, set-ups timed.
const CUSTOMERS: (usize, usize) = (4_000, 200);
const SLICE_CYCLES: (usize, usize) = (64, 4);
const SLICES: (usize, usize) = (60, 3);
const SETUPS: (usize, usize) = (9, 2);

pub const METHODS: [MaintenanceMethod; 3] = [
    MaintenanceMethod::Naive,
    MaintenanceMethod::AuxiliaryRelation,
    MaintenanceMethod::GlobalIndex,
];
const OPS: [&str; 3] = ["insert", "update", "delete"];

struct Site {
    cluster: Cluster,
    view: MaintainedView,
    reader: ServeReader,
}

fn build_site(data: &Tpcr, method: MaintenanceMethod) -> Result<Site> {
    let mut cluster = Cluster::new(ClusterConfig::new(NODES).with_buffer_pages(POOL_PAGES));
    data.install(&mut cluster, false)?;
    let mut view = MaintainedView::create(&mut cluster, gen::jv1("jv1"), method)?;
    let reader = view.enable_serving(&cluster)?;
    Ok(Site {
        cluster,
        view,
        reader,
    })
}

/// Per-slice histograms of one traced pass, by method and operation.
#[derive(Default)]
struct Traced {
    apply: [[Vec<Hist>; 3]; 3],
    base_dml: [Vec<Hist>; 3],
    epoch_visible: Vec<Hist>,
    chain_len: Hist,
    gen_ns: u64,
    bytes: u64,
}

impl Traced {
    fn open(&mut self) {
        for h in self.apply.iter_mut().flatten().chain(&mut self.base_dml) {
            h.push(Hist::default());
        }
        self.epoch_visible.push(Hist::default());
    }
}

struct State<'a> {
    data: &'a Tpcr,
    sites: Vec<Site>,
    /// View-less copy of the base tables (traced passes only): the same
    /// deltas applied here isolate the base-relation update.
    twin: Option<Cluster>,
    pool: KeyPool,
    rng: gen::Rng,
    version: u64,
    op: u64,
    rec: Recorder,
    pass: Pass,
    counted: [MethodCounted; 3],
    traced: Traced,
}

impl State<'_> {
    /// Hand one batch to `apply`, wait for its epoch to be readable, and
    /// account for it. `slices` is `None` during warm-up.
    fn batch(&mut self, site: usize, op: usize, delta: &Delta, slices: &mut Option<&mut Slices>) {
        self.op += 1;
        let id = self.op;
        let s = &mut self.sites[site];
        let before = s.view.epoch();
        let whole = self.rec.begin("fresh", id);
        let apply = self.rec.begin("core.apply", id);
        let out = s.view.apply(&mut s.cluster, 0, delta);
        let apply_ns = self.rec.end(apply);
        let visible = self.rec.begin("serve.epoch_visible", id);
        let seen = s.reader.current_epoch();
        let visible_ns = self.rec.end(visible);
        let ns = self.rec.end(whole);
        let what = || {
            format!(
                "trickle {} {} batch {id}",
                method_label(METHODS[site]),
                OPS[op]
            )
        };
        let Some(out) = self.pass.checker.ok(out, what) else {
            return;
        };
        self.pass
            .checker
            .check(s.view.epoch() == before + 1 && seen == before + 1, || {
                format!("{}: one epoch per batch, saw {seen} after {before}", what())
            });
        let Some(slices) = slices else { return };
        let rows = delta.len() as u64;
        slices.batch(ns, rows);
        self.counted[site].add(rows, &out);
        if self.rec.keeping() {
            self.traced.apply[site][op]
                .last_mut()
                .expect("open")
                .record(apply_ns);
            self.traced
                .epoch_visible
                .last_mut()
                .expect("open")
                .record(visible_ns);
            self.traced.chain_len.record(s.reader.chain_len() as u64);
            self.traced.bytes += outcome_bytes(&out);
            self.pass.counts.maint += maint_cost(&out);
            self.pass.counts.maintain_ns += apply_ns;
            self.pass.counts.published_changes += out.view_rows;
        }
    }

    /// The same delta on the view-less twin.
    fn base_dml(&mut self, op: usize, delta: &Delta, measured: bool) {
        let Some(twin) = &mut self.twin else { return };
        let table = twin.table_id("customer").expect("customer table");
        let open = self.rec.begin("engine.base_dml", self.op);
        let done = match delta {
            Delta::Insert(rows) => twin.insert(table, rows.clone()).map(|_| ()),
            Delta::Delete(rows) => twin.delete(table, rows, &[]).map(|_| ()),
            Delta::Update { old, new } => twin
                .delete(table, old, &[])
                .and_then(|_| twin.insert(table, new.clone()))
                .map(|_| ()),
        };
        let ns = self.rec.end(open);
        self.pass
            .checker
            .ok(done, || format!("trickle twin {}", OPS[op]));
        if measured {
            self.traced.base_dml[op]
                .last_mut()
                .expect("open")
                .record(ns);
            // Every site applied this delta to its own base table.
            self.pass.counts.base_dml_ns += ns * self.sites.len() as u64;
        }
    }

    fn read(&mut self, site: usize, key: i64, expect: &[Row], slices: &mut Option<&mut Slices>) {
        self.op += 1;
        let s = &mut self.sites[site];
        let open = self.rec.begin("core.read_key", self.op);
        let got = s.view.read_key(&mut s.cluster, &Value::Int(key));
        let ns = self.rec.end(open);
        let what = || format!("trickle {} read_key({key})", method_label(METHODS[site]));
        if let Some(got) = self.pass.checker.ok(got, what) {
            self.pass.checker.check(got == expect, || {
                format!("{}: {got:?} != {expect:?}", what())
            });
        }
        if let Some(slices) = slices {
            slices.read(ns);
        }
    }

    /// One cycle on every method: insert a fresh block, update it,
    /// delete it. Each batch is followed by eight verified reads: the
    /// block's four keys and four loaded ones.
    fn cycle(&mut self, mut slices: Option<&mut Slices>) {
        let data = self.data;
        let gen = self.rec.begin("workload.gen", self.op + 1);
        let keys = self
            .pool
            .take()
            .expect("key pool never runs dry: blocks are recycled");
        self.version += 1;
        let fresh: Vec<Row> = keys
            .iter()
            .map(|&k| data.customer(k, self.version))
            .collect();
        self.version += 1;
        let updated: Vec<Row> = keys
            .iter()
            .map(|&k| data.customer(k, self.version))
            .collect();
        let loaded: Vec<i64> = (0..BLOCK)
            .map(|_| data.base_keys().start + self.rng.below(data.customers) as i64)
            .collect();
        // What the block's keys must read as after each of the batches.
        let expect: [Vec<Vec<Row>>; 3] = [
            fresh.iter().map(|r| data.jv1_rows(r)).collect(),
            updated.iter().map(|r| data.jv1_rows(r)).collect(),
            vec![Vec::new(); BLOCK],
        ];
        let deltas = [
            Delta::Insert(fresh.clone()),
            Delta::Update {
                old: fresh.clone(),
                new: updated.clone(),
            },
            Delta::Delete(updated.clone()),
        ];
        let gen_ns = self.rec.end(gen);
        if slices.is_some() {
            self.traced.gen_ns += gen_ns;
        }
        let measured = slices.is_some();
        for site in 0..self.sites.len() {
            for (op, delta) in deltas.iter().enumerate() {
                self.batch(site, op, delta, &mut slices);
                for (key, rows) in keys.iter().zip(&expect[op]) {
                    self.read(site, *key, rows, &mut slices);
                }
                for &key in &loaded {
                    let rows = data.jv1_rows(&data.customer(key, 0));
                    self.read(site, key, &rows, &mut slices);
                }
            }
        }
        for (op, delta) in deltas.iter().enumerate() {
            self.base_dml(op, delta, measured);
        }
        self.pool.give_back(&keys);
    }
}

pub fn pass(cfg: &Config, traced: bool) -> Pass {
    let customers = cfg.size(CUSTOMERS.0, CUSTOMERS.1);
    let slice_cycles = cfg.size(SLICE_CYCLES.0, SLICE_CYCLES.1);
    let data = Tpcr::new(cfg.seed, customers as u64);
    let origin = Instant::now();

    let (sites, setup) = setup_median(cfg.size(SETUPS.0, SETUPS.1), || {
        METHODS
            .iter()
            .map(|&m| build_site(&data, m).expect("trickle set-up"))
            .collect::<Vec<Site>>()
    });
    let twin = traced.then(|| {
        let mut twin = Cluster::new(ClusterConfig::new(NODES).with_buffer_pages(POOL_PAGES));
        data.install(&mut twin, false).expect("trickle twin set-up");
        twin
    });
    if traced {
        sites.iter().for_each(|s| open_obs_gate(&s.cluster));
    }

    let mut st = State {
        data: &data,
        sites,
        twin,
        pool: data.key_pool(cfg.seed, BLOCK),
        rng: gen::Rng::new(cfg.seed ^ 0x7121),
        version: 0,
        op: 0,
        rec: Recorder::new(origin, 0, traced),
        pass: Pass::default(),
        counted: Default::default(),
        traced: Traced::default(),
    };

    // The schedule hash covers the loaded tables and the first slice's
    // deltas, drawn from a copy of the generator state.
    let mut hash = ScheduleHash::default();
    data.hash_into(&mut hash, false);
    let mut preview = st.pool.clone();
    for c in 0..slice_cycles as u64 {
        let keys = preview.take().expect("pool holds a slice");
        for v in [2 * c + 1, 2 * c + 2] {
            let rows: Vec<Row> = keys.iter().map(|&k| data.customer(k, v)).collect();
            hash.rows(&rows);
        }
    }
    st.pass.schedule_hash = hash.value();

    for _ in 0..slice_cycles {
        st.cycle(None);
    }
    let pools_before: Vec<PoolCounters> = st
        .sites
        .iter()
        .map(|s| PoolCounters::of(&s.cluster))
        .collect();
    let mut slices = Slices::default();
    let mut budget = Budget::start(cfg.limit, cfg.size(SLICES.0, SLICES.1), 3);
    while budget.more() {
        slices.open();
        st.traced.open();
        for _ in 0..slice_cycles {
            st.cycle(Some(&mut slices));
        }
    }

    // Every view equals its recomputation, and its serving tier holds
    // the same rows.
    let State {
        sites,
        mut pass,
        counted,
        traced: tr,
        rec,
        ..
    } = st;
    let mut space = Vec::new();
    let (mut structure_pages, mut relation_pages) = (0, 0);
    let mut pools = PoolCounters::default();
    for (i, s) in sites.iter().enumerate() {
        let label = method_label(METHODS[i]);
        pass.checker.ok(s.view.check_consistent(&s.cluster), || {
            format!("trickle {label} check_consistent")
        });
        pass.checker
            .check(s.reader.snapshot().row_count() == customers as u64, || {
                format!("trickle {label} final snapshot row count")
            });
        let pages = view_pages(&s.cluster, &s.view).expect("view pages");
        structure_pages += pages;
        relation_pages +=
            super::base_pages(&s.cluster, &["customer", "orders"]).expect("base pages");
        space.push(pages);
        pools.add(PoolCounters::of(&s.cluster).since(pools_before[i]));
    }

    let m = &mut pass.metrics;
    m.put("setup_s", setup);
    slices.report(m);
    m.set("space_amp", structure_pages as f64 / relation_pages as f64);
    let rows: u64 = counted.iter().map(|c| c.rows).sum();
    m.set(
        "tw_io_per_row",
        counted.iter().map(|c| c.tw_io).sum::<f64>() / rows.max(1) as f64,
    );
    m.set(
        "sends_per_row",
        counted.iter().map(|c| c.sends).sum::<u64>() as f64 / rows.max(1) as f64,
    );
    for (i, c) in counted.iter().enumerate() {
        c.report(METHODS[i], space[i], m);
    }
    if traced {
        for (i, method) in METHODS.iter().enumerate() {
            for (o, op) in OPS.iter().enumerate() {
                let name = format!("core.{}.{op}_us_p50", method_label(*method));
                m.put_scaled(
                    &name,
                    stats::quantile_over_slices(&tr.apply[i][o], 0.5),
                    1e-3,
                );
            }
        }
        for (o, op) in OPS.iter().enumerate() {
            let name = format!("engine.base_dml.{op}_us_p50");
            m.put_scaled(
                &name,
                stats::quantile_over_slices(&tr.base_dml[o], 0.5),
                1e-3,
            );
        }
        m.put_scaled(
            "serve.epoch_visible_us_p50",
            stats::quantile_over_slices(&tr.epoch_visible, 0.5),
            1e-3,
        );
        m.set("serve.chain_len_p50", tr.chain_len.quantile(0.5));
        let batches: u64 = counted.iter().map(|c| c.batches).sum();
        // One generated cycle feeds three batches on each method.
        m.set(
            "workload.gen_us_per_batch",
            tr.gen_ns as f64 / 1e3 / batches.max(1) as f64,
        );
        m.set("net.bytes_per_row", tr.bytes as f64 / rows.max(1) as f64);
        // The program's own gated histograms, pooled over the methods
        // that ship or probe in groups.
        let mean_over_sites = |name: &str| {
            let means: Vec<f64> = sites
                .iter()
                .map(|s| super::obs_mean(&s.cluster, name))
                .filter(|v| *v > 0.0)
                .collect();
            means.iter().sum::<f64>() / means.len().max(1) as f64
        };
        m.set(
            "net.rows_per_message_mean",
            mean_over_sites(pvm::obs::metric::BATCH_ROWS_PER_MSG),
        );
        m.set(
            "engine.group_probe_fanin_mean",
            mean_over_sites(pvm::obs::metric::GROUP_PROBE_FANIN),
        );
        pools.report(rows, m);
        pass.counts = Counts {
            delta_rows: rows,
            buffer_accesses: pools.accesses(),
            ..pass.counts
        };
    }
    pass.note("customers", customers as f64);
    pass.note("slice_cycles", slice_cycles as f64);
    pass.measured(slices.rows_per_s().groups);
    pass.recorders.push(rec);
    pass.finish();
    pass
}
