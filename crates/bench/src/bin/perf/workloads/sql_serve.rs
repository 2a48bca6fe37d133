//! `sql_serve`: reads beside writes on one serving tier, through SQL.
//! One `Session` on a 4-node cluster holds four JV1-shaped views created
//! through SQL — two `USING AUXILIARY RELATION` (signature-compatible,
//! so they enrol as one shared group), one `GLOBAL INDEX`, one `NAIVE`.
//! The writer thread executes a seeded script cycling a 4-row `INSERT`,
//! an `UPDATE … WHERE custkey = k`, a verified `SELECT` on `jv0` and a
//! 4-row `DELETE`, while one reader thread runs a closed loop of
//! `ServeReader::snapshot()` + `lookup` with 100 µs think time. It is the
//! only workload that crosses `sql` (lex/parse/plan) and `core::share`
//! (group multicast); a publish-side gain that costs readers, or the
//! reverse, shows here.
//!
//! The reader records (epoch, key, digest of the rows) for every read.
//! After the run the bench replays the writer's schedule epoch by epoch
//! and verifies every recorded read exactly, and that the epochs a
//! reader saw never went backwards.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pvm::obs::metric;
use pvm::prelude::*;

use super::{setup_median, Budget, Checker, Config, Pass, PoolCounters, Slices};
use crate::gen::{self, sql, ScheduleHash, Tpcr, BLOCK};
use crate::span::Recorder;
use crate::stats::{self, Hist};

const NODES: usize = 4;
const POOL_PAGES: usize = 8192;
/// Frozen sizes: customers loaded, writer cycles per slice (four
/// statements each), slices of a run that is not time-limited, reads per
/// reader slice, set-ups timed.
const CUSTOMERS: (usize, usize) = (2_000, 100);
const SLICE_CYCLES: (usize, usize) = (150, 3);
const SLICES: (usize, usize) = (60, 3);
const SLICE_READS: (usize, usize) = (1_500, 20);
const SETUPS: (usize, usize) = (15, 2);
const THINK: Duration = Duration::from_micros(100);

const VIEWS: [(&str, &str); 4] = [
    ("jv0", "AUXILIARY RELATION"),
    ("jv1", "AUXILIARY RELATION"),
    ("jv2", "GLOBAL INDEX"),
    ("jv3", "NAIVE"),
];
const STATEMENTS: [&str; 4] = ["insert", "update", "delete", "select"];

fn build(data: &Tpcr) -> Result<Session> {
    let mut s = Session::new(ClusterConfig::new(NODES).with_buffer_pages(POOL_PAGES));
    s.execute(sql::CREATE_TABLES)?;
    let customer = s.cluster().table_id("customer")?;
    let orders = s.cluster().table_id("orders")?;
    s.cluster_mut().insert(customer, data.customer_rows())?;
    s.cluster_mut().insert(orders, data.orders_rows())?;
    for (name, method) in VIEWS {
        s.execute(&sql::create_view(name, method))?;
    }
    Ok(s)
}

/// Order-sensitive FNV digest of result rows, cheap enough for the
/// reader's loop.
fn digest(rows: &[Row]) -> u64 {
    let mut h = ScheduleHash::default();
    for r in rows {
        for v in r.values() {
            match v {
                Value::Int(i) => h.bytes(&i.to_le_bytes()),
                Value::Float(f) => h.bytes(&f.to_bits().to_le_bytes()),
                Value::Str(s) => h.bytes(s.as_bytes()),
                other => h.bytes(format!("{other:?}").as_bytes()),
            }
        }
        h.bytes(&[0xFF]);
    }
    h.value()
}

/// What `jv0` must return for `key` when its customer row carries
/// `acctbal` (or is absent).
fn expected_digest(data: &Tpcr, key: i64, acctbal: Option<f64>) -> u64 {
    match acctbal {
        None => digest(&[]),
        Some(a) => digest(&data.jv1_rows(&row![key, a, ""])),
    }
}

#[derive(Debug, Clone, Copy)]
struct ReadRecord {
    epoch: u64,
    key: i64,
    digest: u64,
}

struct ReaderOutput {
    records: Vec<ReadRecord>,
    slices: Vec<Hist>,
    snapshot: Hist,
    lookup: Hist,
    rec: Recorder,
}

/// The reader thread's closed loop. It aims most reads at the blocks the
/// writer is working on (`progress` is the writer's cycle counter), so
/// reads observe keys appearing, changing and vanishing.
#[allow(clippy::too_many_arguments)]
fn reader_loop(
    reader: ServeReader,
    data: Tpcr,
    blocks: Arc<Vec<i64>>,
    progress: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    seed: u64,
    slice_reads: usize,
    rec: Recorder,
) -> ReaderOutput {
    let mut rng = gen::Rng::new(seed ^ 0x4EAD);
    let mut out = ReaderOutput {
        records: Vec::new(),
        slices: vec![Hist::default()],
        snapshot: Hist::default(),
        lookup: Hist::default(),
        rec,
    };
    let mut op = 1u64 << 40;
    while !stop.load(Ordering::Relaxed) {
        let key = if rng.below(4) == 0 {
            data.base_keys().start + rng.below(data.customers) as i64
        } else {
            let cycle = progress
                .load(Ordering::Relaxed)
                .saturating_sub(rng.below(3));
            blocks[cycle as usize % blocks.len()] + rng.below(BLOCK as u64) as i64
        };
        op += 1;
        let whole = out.rec.begin("read", op);
        let open = out.rec.begin("serve.snapshot", op);
        let snap = reader.snapshot();
        let snapshot_ns = out.rec.end(open);
        let open = out.rec.begin("serve.lookup", op);
        let rows = snap.lookup(0, &Value::Int(key));
        let lookup_ns = out.rec.end(open);
        let ns = out.rec.end(whole);
        out.records.push(ReadRecord {
            epoch: snap.epoch(),
            key,
            digest: digest(&rows),
        });
        drop(snap);
        if out.slices.last().expect("open slice").len() >= slice_reads as u64 {
            out.slices.push(Hist::default());
        }
        out.slices.last_mut().expect("open slice").record(ns);
        out.snapshot.record(snapshot_ns);
        out.lookup.record(lookup_ns);
        std::thread::sleep(THINK);
    }
    out
}

/// One change to `jv0`'s contents, at the epoch it became visible.
struct Change {
    epoch: u64,
    key: i64,
    acctbal: Option<f64>,
}

/// The program's running counters, read before and after the measured
/// section.
struct Counters {
    /// Per view, in `VIEWS` order: TW in milli-I/Os and SENDs.
    views: Vec<(u64, u64)>,
    probes_saved: u64,
    sends_saved: u64,
    cost: CostSnapshot,
    twin_cost: CostSnapshot,
    pools: PoolCounters,
}

impl Counters {
    fn read(cluster: &Cluster, twin: Option<&Cluster>) -> Counters {
        let obs = cluster.obs_handle();
        let get = |name: &str| obs.metrics().counter(name).get();
        Counters {
            views: VIEWS
                .iter()
                .map(|(v, _)| {
                    (
                        get(&metric::view_tw_milli_io(v)),
                        get(&metric::view_sends(v)),
                    )
                })
                .collect(),
            probes_saved: get(metric::SHARE_PROBES_SAVED),
            sends_saved: get(metric::SHARE_SENDS_SAVED),
            cost: cluster_cost(cluster),
            twin_cost: twin.map(cluster_cost).unwrap_or_default(),
            pools: PoolCounters::of(cluster),
        }
    }
}

fn cluster_cost(cluster: &Cluster) -> CostSnapshot {
    cluster
        .node_snapshots()
        .into_iter()
        .fold(cluster.fabric().ledger().snapshot(), |a, s| a + s)
}

struct Writer<'a> {
    data: &'a Tpcr,
    session: Session,
    reader: ServeReader,
    twin: Option<Cluster>,
    blocks: Arc<Vec<i64>>,
    progress: Arc<AtomicU64>,
    version: u64,
    epoch: u64,
    op: u64,
    rec: Recorder,
    checker: Checker,
    changes: Vec<Change>,
    by_statement: [Vec<Hist>; 4],
    statement_ns: Vec<u64>,
    base_dml_ns: u64,
    gen_ns: u64,
}

impl Writer<'_> {
    /// Execute one statement; DML must make exactly one new epoch
    /// visible on `jv0`'s reader. Returns the output and the latency.
    fn statement(
        &mut self,
        kind: usize,
        text: &str,
        delta_rows: u64,
        slices: &mut Option<&mut Slices>,
    ) -> Option<SqlOutput> {
        self.op += 1;
        let id = self.op;
        let whole = self.rec.begin("fresh", id);
        let open = self.rec.begin("sql.execute", id);
        let out = self.session.execute_one(text);
        let execute_ns = self.rec.end(open);
        let open = self.rec.begin("serve.epoch_visible", id);
        let seen = self.reader.current_epoch();
        self.rec.end(open);
        let ns = self.rec.end(whole);
        let dml = delta_rows > 0;
        self.epoch += u64::from(dml);
        let want = self.epoch;
        self.checker.check(seen == want, || {
            format!("sql_serve op {id} `{text}`: jv0 epoch {seen}, expected {want}")
        });
        if let Some(slices) = slices {
            if dml {
                slices.batch(ns, delta_rows);
            }
            self.by_statement[kind]
                .last_mut()
                .expect("open")
                .record(execute_ns);
            *self.statement_ns.last_mut().expect("open") += execute_ns;
        }
        self.checker
            .ok(out, || format!("sql_serve op {id} `{text}`"))
    }

    fn twin_dml(&mut self, measured: bool, f: impl FnOnce(&mut Cluster, TableId) -> Result<()>) {
        let Some(twin) = &mut self.twin else { return };
        let table = twin.table_id("customer").expect("customer table");
        let open = self.rec.begin("engine.base_dml", self.op);
        let done = f(twin, table);
        let ns = self.rec.end(open);
        self.checker.ok(done, || "sql_serve twin DML".to_owned());
        if measured {
            self.base_dml_ns += ns;
        }
    }

    fn cycle(&mut self, cycle: u64, mut slices: Option<&mut Slices>) {
        let measured = slices.is_some();
        let open = self.rec.begin("workload.gen", self.op + 1);
        let first = self.blocks[cycle as usize % self.blocks.len()];
        let keys: Vec<i64> = (first..first + BLOCK as i64).collect();
        self.version += 1;
        let rows: Vec<Row> = keys
            .iter()
            .map(|&k| self.data.customer(k, self.version))
            .collect();
        self.version += 1;
        let updated = self.data.customer(keys[1], self.version);
        let acctbal = updated[1].as_float().expect("acctbal");
        let text = [
            sql::insert(&rows),
            sql::update(keys[1], acctbal),
            sql::select("jv0", keys[1]),
            sql::delete_range(keys[0], keys[BLOCK - 1]),
        ];
        let gen_ns = self.rec.end(open);
        if measured {
            self.gen_ns += gen_ns;
        }
        self.progress.store(cycle, Ordering::Relaxed);

        self.statement(0, &text[0], BLOCK as u64, &mut slices);
        for r in &rows {
            self.changes.push(Change {
                epoch: self.epoch,
                key: r[0].as_int().expect("custkey"),
                acctbal: r[1].as_float(),
            });
        }
        self.statement(1, &text[1], 1, &mut slices);
        self.changes.push(Change {
            epoch: self.epoch,
            key: keys[1],
            acctbal: Some(acctbal),
        });
        if let Some(out) = self.statement(3, &text[2], 0, &mut slices) {
            let got = out.rows.map(|(_, rows)| rows).unwrap_or_default();
            let expect = self.data.jv1_rows(&updated);
            self.checker.check(got == expect, || {
                format!("sql_serve `{}`: {got:?} != {expect:?}", text[2])
            });
        }
        self.statement(2, &text[3], BLOCK as u64, &mut slices);
        for &key in &keys {
            self.changes.push(Change {
                epoch: self.epoch,
                key,
                acctbal: None,
            });
        }

        let mut after = rows.clone();
        after[1] = updated.clone();
        let (old, new) = (rows[1].clone(), updated);
        self.twin_dml(measured, |t, id| t.insert(id, rows).map(|_| ()));
        self.twin_dml(measured, |t, id| {
            t.delete(id, &[old], &[])?;
            t.insert(id, vec![new]).map(|_| ())
        });
        self.twin_dml(measured, |t, id| t.delete(id, &after, &[]).map(|_| ()));
    }
}

/// Replay the writer's changes epoch by epoch and check every read.
fn verify_reads(data: &Tpcr, changes: &[Change], records: &[ReadRecord], checker: &mut Checker) {
    let mut live: HashMap<i64, f64> = HashMap::new();
    let mut next = 0;
    let mut last_epoch = 0;
    for (i, r) in records.iter().enumerate() {
        checker.check(r.epoch >= last_epoch, || {
            format!(
                "sql_serve read {i}: epoch went back from {last_epoch} to {}",
                r.epoch
            )
        });
        last_epoch = last_epoch.max(r.epoch);
        while next < changes.len() && changes[next].epoch <= last_epoch {
            match changes[next].acctbal {
                Some(a) => live.insert(changes[next].key, a),
                None => live.remove(&changes[next].key),
            };
            next += 1;
        }
        let acctbal = if data.base_keys().contains(&r.key) {
            data.customer(r.key, 0)[1].as_float()
        } else {
            live.get(&r.key).copied()
        };
        checker.check(r.digest == expected_digest(data, r.key, acctbal), || {
            format!(
                "sql_serve read {i}: lookup({}) at epoch {} is not {acctbal:?}",
                r.key, r.epoch
            )
        });
    }
}

pub fn pass(cfg: &Config, traced: bool) -> Pass {
    let customers = cfg.size(CUSTOMERS.0, CUSTOMERS.1);
    let slice_cycles = cfg.size(SLICE_CYCLES.0, SLICE_CYCLES.1);
    let data = Tpcr::new(cfg.seed, customers as u64);
    let origin = Instant::now();

    let (session, setup) = setup_median(cfg.size(SETUPS.0, SETUPS.1), || {
        build(&data).expect("sql_serve set-up")
    });
    let twin = traced.then(|| {
        let mut twin = Cluster::new(ClusterConfig::new(NODES).with_buffer_pages(POOL_PAGES));
        data.install(&mut twin, false)
            .expect("sql_serve twin set-up");
        twin
    });
    let reader = session
        .view("jv0")
        .and_then(MaintainedView::serve_reader)
        .expect("CREATE VIEW enables serving");
    // The pool hands blocks out in a fixed cyclic order; both threads
    // index it by cycle number.
    let mut pool = data.key_pool(cfg.seed, BLOCK);
    let blocks: Arc<Vec<i64>> =
        Arc::new(std::iter::from_fn(|| pool.take().map(|b| b[0])).collect());
    let progress = Arc::new(AtomicU64::new(0));

    let mut pass = Pass::default();
    let mut hash = ScheduleHash::default();
    data.hash_into(&mut hash, false);
    hash.bytes(sql::CREATE_TABLES.as_bytes());

    let mut w = Writer {
        data: &data,
        epoch: reader.current_epoch(),
        session,
        reader: reader.clone(),
        twin,
        blocks: blocks.clone(),
        progress: progress.clone(),
        version: 0,
        op: 0,
        rec: Recorder::new(origin, 0, traced),
        checker: Checker::default(),
        changes: Vec::new(),
        by_statement: Default::default(),
        statement_ns: Vec::new(),
        base_dml_ns: 0,
        gen_ns: 0,
    };
    let group = w.session.view("jv0").and_then(MaintainedView::shared_group);
    w.checker.check(
        group.is_some() && group == w.session.view("jv1").and_then(MaintainedView::shared_group),
        || "sql_serve: jv0 and jv1 must enrol as one shared group".to_owned(),
    );

    let mut cycle = 0;
    for _ in 0..slice_cycles {
        w.cycle(cycle, None);
        cycle += 1;
    }
    // Hash the statements of the warm-up slice (the schedule's start).
    for c in 0..slice_cycles as u64 {
        let first = blocks[c as usize % blocks.len()];
        let rows: Vec<Row> = (first..first + BLOCK as i64)
            .map(|k| data.customer(k, 2 * c + 1))
            .collect();
        hash.bytes(sql::insert(&rows).as_bytes());
    }
    pass.schedule_hash = hash.value();

    let before = Counters::read(w.session.cluster(), w.twin.as_ref());

    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let (reader, data, blocks, progress, stop) = (
            reader.clone(),
            data.clone(),
            blocks.clone(),
            progress.clone(),
            stop.clone(),
        );
        let rec = Recorder::new(origin, 1, traced);
        let (seed, slice_reads) = (cfg.seed, cfg.size(SLICE_READS.0, SLICE_READS.1));
        std::thread::spawn(move || {
            reader_loop(reader, data, blocks, progress, stop, seed, slice_reads, rec)
        })
    };
    let mut slices = Slices::default();
    let mut budget = Budget::start(cfg.limit, cfg.size(SLICES.0, SLICES.1), 3);
    while budget.more() {
        slices.open();
        w.by_statement
            .iter_mut()
            .for_each(|h| h.push(Hist::default()));
        w.statement_ns.push(0);
        for _ in 0..slice_cycles {
            w.cycle(cycle, Some(&mut slices));
            cycle += 1;
        }
    }
    stop.store(true, Ordering::Relaxed);
    let read = handle.join().expect("reader thread panicked");

    // Every view passes CHECK VIEW; every recorded read is replayed.
    for (name, _) in VIEWS {
        let checked = w.session.execute_one(&format!("CHECK VIEW {name}"));
        w.checker
            .ok(checked, || format!("sql_serve CHECK VIEW {name}"));
    }
    verify_reads(&data, &w.changes, &read.records, &mut w.checker);
    w.checker.check(!read.records.is_empty(), || {
        "sql_serve: the reader made no progress".into()
    });

    let cluster = w.session.cluster();
    let after = Counters::read(cluster, w.twin.as_ref());
    let rows = slices.total_rows().max(1) as f64;
    let batches = slices.rows_per_s().samples.max(1) as f64;
    let m = &mut pass.metrics;
    m.put("setup_s", setup);
    *slices.reads() = read.slices;
    slices.report(m);
    let mut tables = BTreeSet::new();
    for (name, _) in VIEWS {
        let view = w.session.view(name).expect("view exists");
        tables.insert(view.view_table());
        tables.extend(view.method_tables());
    }
    let structure_pages: usize = tables
        .iter()
        .map(|&t| cluster.total_pages(t).expect("table pages"))
        .sum();
    let relation_pages = super::base_pages(cluster, &["customer", "orders"]).expect("base pages");
    m.set("space_amp", structure_pages as f64 / relation_pages as f64);
    // Per method, over the views it maintains; a shared group's chain
    // is charged once, on its first member.
    let (mut tw_total, mut sends_total) = (0.0, 0.0);
    for (label, method) in [
        ("naive", "NAIVE"),
        ("auxrel", "AUXILIARY RELATION"),
        ("gi", "GLOBAL INDEX"),
    ] {
        let (mut tw, mut sends) = (0.0, 0.0);
        for (i, _) in VIEWS.iter().enumerate().filter(|(_, v)| v.1 == method) {
            tw += (after.views[i].0 - before.views[i].0) as f64 / 1e3;
            sends += (after.views[i].1 - before.views[i].1) as f64;
        }
        m.set(&format!("core.{label}.tw_io_per_row"), tw / rows);
        m.set(&format!("core.{label}.sends_per_row"), sends / rows);
        tw_total += tw;
        sends_total += sends;
    }
    m.set("tw_io_per_row", tw_total / rows);
    m.set("sends_per_row", sends_total / rows);
    let stmts_per_s: Vec<f64> = w
        .statement_ns
        .iter()
        .map(|ns| (4 * slice_cycles) as f64 / (*ns as f64 / 1e9))
        .collect();
    m.put(
        "sql.stmts_per_s",
        stats::summarise(
            &stmts_per_s,
            (4 * slice_cycles * stmts_per_s.len()) as u64,
            stats::Pick::FastHigh,
        ),
    );
    for (kind, label) in STATEMENTS.iter().enumerate() {
        m.put_scaled(
            &format!("sql.execute_us_p50.{label}"),
            stats::quantile_over_slices(&w.by_statement[kind], 0.5),
            1e-3,
        );
    }
    m.set(
        "share.probes_saved_per_batch",
        (after.probes_saved - before.probes_saved) as f64 / batches,
    );
    m.set(
        "share.sends_saved_per_batch",
        (after.sends_saved - before.sends_saved) as f64 / batches,
    );
    m.set("serve.snapshot_ns_p50", read.snapshot.quantile(0.5));
    m.set("serve.lookup_ns_p50", read.lookup.quantile(0.5));
    m.set("serve.lookup_ns_p99", read.lookup.quantile(0.99));
    m.set(
        "serve.chain_len_p50",
        super::obs_p50(cluster, metric::SERVE_CHAIN_LEN),
    );
    if traced {
        m.set("workload.gen_us_per_batch", w.gen_ns as f64 / 1e3 / batches);
        m.set(
            "net.rows_per_message_mean",
            super::obs_mean(cluster, metric::BATCH_ROWS_PER_MSG),
        );
        m.set(
            "engine.group_probe_fanin_mean",
            super::obs_mean(cluster, metric::GROUP_PROBE_FANIN),
        );
        let pools = after.pools.since(before.pools);
        pools.report(slices.total_rows(), m);
        let all = after.cost - before.cost;
        let base = after.twin_cost - before.twin_cost;
        m.set("net.bytes_per_row", all.bytes_sent as f64 / rows);
        let c = &mut pass.counts;
        c.delta_rows = slices.total_rows();
        c.maint = all - base;
        c.buffer_accesses = pools.accesses();
        // Each delta row changes one row of each of the four views (an
        // update deletes and re-inserts it).
        c.published_changes = c.delta_rows * VIEWS.len() as u64;
        c.statements = (4 * slice_cycles * w.statement_ns.len()) as u64;
        c.maintain_ns = w.statement_ns.iter().sum();
        c.base_dml_ns = w.base_dml_ns;
    }
    pass.note("customers", customers as f64);
    pass.note("slice_cycles", slice_cycles as f64);
    pass.measured(w.statement_ns.len());
    pass.note("reads", read.records.len() as f64);
    pass.checker.absorb(w.checker);
    pass.recorders.push(w.rec);
    pass.recorders.push(read.rec);
    pass.finish();
    pass
}
