//! Fault equivalence: for every `(seed, fault rate, method, backend)`
//! swept, a run under injected message faults (drop / duplicate / delay)
//! plus a scheduled node crash must leave the view, the method's
//! auxiliary structures (ARs / GIs), and the base tables **bit-identical**
//! to a fault-free run — the reliability layer and WAL replay mask the
//! faults completely below the `Backend::step` contract.
//!
//! The sweep is environment-configurable so CI failures reproduce
//! locally with one variable:
//!
//! ```text
//! PVM_FAULT_REPRO="seed:rate:backend:method" \
//!     cargo test -p pvm-faults --test fault_equivalence
//! ```
//!
//! Also configurable: `PVM_FAULT_SEEDS` (comma-separated),
//! `PVM_FAULT_RATES`, `PVM_FAULT_BACKENDS` (`sequential,threaded`),
//! `PVM_FAULT_METHODS` (`naive,auxrel,global-index`).

use proptest::prelude::*;
use pvm::prelude::*;
use pvm_faults::{FaultPlan, FaultStats, FaultTolerant, FaultyTransport, SplitMix64};
use pvm_net::{Envelope, Fabric, LinkStats, MessageSize, NetConfig, Transport};

// ------------------------------------------------------------- workload

#[derive(Debug, Clone)]
enum Op {
    Insert { rel: usize, jval: i64 },
    DeleteExisting { rel: usize, pick: usize },
}

/// Deterministic op stream from a seed (used by the sweep; the proptest
/// below drives random streams through the same harness).
fn gen_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ 0xD1B54A32D192ED03);
    (0..n)
        .map(|_| {
            if rng.below(4) < 3 {
                Op::Insert {
                    rel: rng.below(2) as usize,
                    jval: rng.below(6) as i64,
                }
            } else {
                Op::DeleteExisting {
                    rel: rng.below(2) as usize,
                    pick: rng.next_u64() as usize,
                }
            }
        })
        .collect()
}

fn setup(l: usize, method: MaintenanceMethod) -> (Cluster, MaintainedView) {
    // WAL on: crash recovery needs it, and it must be on in the baseline
    // too so both runs execute identical code paths.
    let mut cluster = Cluster::new(ClusterConfig::new(l).with_buffer_pages(256).with_wal());
    let schema =
        || Schema::new(vec![Column::int("id"), Column::int("j"), Column::str("p")]).into_ref();
    let a = cluster
        .create_table(TableDef::hash_heap("a", schema(), 0))
        .unwrap();
    let b = cluster
        .create_table(TableDef::hash_heap("b", schema(), 0))
        .unwrap();
    cluster
        .insert(a, (0..10).map(|i| row![i, i % 3, "a"]).collect())
        .unwrap();
    cluster
        .insert(b, (0..10).map(|i| row![i, i % 3, "b"]).collect())
        .unwrap();
    let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
    let view = MaintainedView::create(&mut cluster, def, method).unwrap();
    (cluster, view)
}

fn apply_ops<B: Backend>(backend: &mut B, view: &mut MaintainedView, ops: &[Op]) -> Result<()> {
    let mut live: [Vec<Row>; 2] = [
        (0..10).map(|i| row![i, i % 3, "a"]).collect(),
        (0..10).map(|i| row![i, i % 3, "b"]).collect(),
    ];
    let mut next_id = 100_000i64;
    for op in ops {
        match op {
            Op::Insert { rel, jval } => {
                let payload = if *rel == 0 { "a" } else { "b" };
                let r = row![next_id, *jval, payload];
                next_id += 1;
                live[*rel].push(r.clone());
                view.apply(backend, *rel, &Delta::insert_one(r))?;
            }
            Op::DeleteExisting { rel, pick } => {
                if live[*rel].is_empty() {
                    continue;
                }
                let idx = pick % live[*rel].len();
                let r = live[*rel].swap_remove(idx);
                view.apply(backend, *rel, &Delta::Delete(vec![r]))?;
            }
        }
    }
    Ok(())
}

/// Everything the tentpole demands be bit-identical: the stored view,
/// the method's AR/GI tables, and the base tables — each sorted.
fn state_snapshot<B: Backend>(backend: &B, view: &MaintainedView) -> Vec<Vec<Row>> {
    let c = backend.engine();
    let mut tables = vec![view.view_table()];
    tables.extend(view.method_tables());
    tables.push(c.table_id("a").unwrap());
    tables.push(c.table_id("b").unwrap());
    tables
        .into_iter()
        .map(|t| {
            let mut rows = c.scan_all(t).unwrap();
            rows.sort();
            rows
        })
        .collect()
}

// ------------------------------------------------------------ the sweep

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackendKind {
    Sequential,
    Threaded,
}

impl BackendKind {
    fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "sequential" => Some(BackendKind::Sequential),
            "threaded" => Some(BackendKind::Threaded),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            BackendKind::Sequential => "sequential",
            BackendKind::Threaded => "threaded",
        }
    }
}

fn parse_method(s: &str) -> Option<MaintenanceMethod> {
    match s.trim() {
        "naive" => Some(MaintenanceMethod::Naive),
        "auxrel" => Some(MaintenanceMethod::AuxiliaryRelation),
        "global-index" => Some(MaintenanceMethod::GlobalIndex),
        _ => None,
    }
}

fn method_name(m: MaintenanceMethod) -> &'static str {
    match m {
        MaintenanceMethod::Naive => "naive",
        MaintenanceMethod::AuxiliaryRelation => "auxrel",
        MaintenanceMethod::GlobalIndex => "global-index",
    }
}

fn env_list<T>(name: &str, default: Vec<T>, parse: impl Fn(&str) -> Option<T>) -> Vec<T> {
    match std::env::var(name) {
        Ok(v) if !v.trim().is_empty() => v
            .split(',')
            .map(|s| {
                parse(s).unwrap_or_else(|| panic!("{name}: cannot parse element '{}'", s.trim()))
            })
            .collect(),
        _ => default,
    }
}

/// The plan the sweep uses for one `(seed, rate)` cell: uniform message
/// faults plus one scheduled crash early in the run (rate 0.0 still
/// crashes — that cell isolates the recovery path from message faults).
fn sweep_plan(seed: u64, rate: f64, l: usize) -> FaultPlan {
    FaultPlan::uniform(seed, rate).with_crash(NodeId((seed % l as u64) as u16), 2 + seed % 6)
}

const L: usize = 3;

/// One backend's half of a sweep cell: a fault-free baseline and a run
/// under `plan` of the same ops, each on `make` of a fresh cluster, the
/// second wrapped by `wrap`. Returns the wire and link counters, or what
/// diverged.
fn run_cell<B: Backend>(
    method: MaintenanceMethod,
    ops: &[Op],
    plan: &FaultPlan,
    make: fn(Cluster) -> B,
    wrap: fn(B, FaultPlan) -> FaultTolerant<B>,
) -> std::result::Result<(FaultStats, LinkStats), &'static str> {
    let (c, mut view) = setup(L, method);
    let mut bare = make(c);
    if apply_ops(&mut bare, &mut view, ops).is_err() {
        return Err("baseline run errored");
    }
    assert!(
        view.check_consistent(bare.engine()).is_ok(),
        "baseline inconsistent — harness bug"
    );
    let expected = state_snapshot(&bare, &view);

    let (c, mut view) = setup(L, method);
    let mut ft = wrap(make(c), plan.clone());
    if apply_ops(&mut ft, &mut view, ops).is_err() {
        return Err("faulted run errored");
    }
    if state_snapshot(&ft, &view) != expected {
        return Err("state diverged from fault-free run");
    }
    if view.check_consistent(ft.engine()).is_err() {
        return Err("faulted view inconsistent with recomputed join");
    }
    Ok((ft.wire_stats(), ft.link_stats()))
}

/// Run one sweep cell; panics with a one-env-var repro line on any
/// divergence or error. Returns the cell's wire and link counters.
fn check_case(
    seed: u64,
    rate: f64,
    backend: BackendKind,
    method: MaintenanceMethod,
) -> (FaultStats, LinkStats) {
    let ops = gen_ops(seed, 15);
    let plan = sweep_plan(seed, rate, L);
    let repro = format!(
        "PVM_FAULT_REPRO=\"{}:{}:{}:{}\" cargo test -p pvm-faults --test fault_equivalence",
        seed,
        rate,
        backend.name(),
        method_name(method)
    );
    let fail = |what: &str| -> ! {
        panic!(
            "fault equivalence FAILED ({what})\n  case: seed={seed} rate={rate} \
             backend={} method={}\n  plan: {plan}\n  repro: {repro}",
            backend.name(),
            method_name(method)
        )
    };

    let stats = match backend {
        BackendKind::Sequential => run_cell(method, &ops, &plan, |c| c, FaultTolerant::sequential),
        BackendKind::Threaded => run_cell(
            method,
            &ops,
            &plan,
            ThreadedCluster::from_cluster,
            FaultTolerant::threaded,
        ),
    }
    .unwrap_or_else(|what| fail(what));
    // Sanity: at the sweep's top rate the cell must actually have
    // injected something (low rates can legitimately draw zero faults on
    // low-traffic methods).
    if rate >= 0.15 {
        let s = stats.0;
        assert!(
            s.drops + s.dups + s.delays > 0,
            "rate {rate} injected nothing — sweep is vacuous ({repro})"
        );
    }
    stats
}

#[test]
fn fault_sweep() {
    // One-cell repro mode: PVM_FAULT_REPRO="seed:rate:backend:method".
    if let Ok(repro) = std::env::var("PVM_FAULT_REPRO") {
        let parts: Vec<&str> = repro.split(':').collect();
        assert_eq!(
            parts.len(),
            4,
            "PVM_FAULT_REPRO must be seed:rate:backend:method"
        );
        let seed: u64 = parts[0].trim().parse().expect("repro seed");
        let rate: f64 = parts[1].trim().parse().expect("repro rate");
        let backend = BackendKind::parse(parts[2]).expect("repro backend");
        let method = parse_method(parts[3]).expect("repro method");
        check_case(seed, rate, backend, method);
        return;
    }

    let seeds = env_list("PVM_FAULT_SEEDS", vec![1, 7, 42], |s| s.parse().ok());
    let rates = env_list("PVM_FAULT_RATES", vec![0.0, 0.05, 0.2], |s| s.parse().ok());
    let backends = env_list(
        "PVM_FAULT_BACKENDS",
        vec![BackendKind::Sequential, BackendKind::Threaded],
        BackendKind::parse,
    );
    let methods = env_list(
        "PVM_FAULT_METHODS",
        vec![
            MaintenanceMethod::Naive,
            MaintenanceMethod::AuxiliaryRelation,
            MaintenanceMethod::GlobalIndex,
        ],
        parse_method,
    );

    for &seed in &seeds {
        for &rate in &rates {
            for &method in &methods {
                // Both backends ride one FIFO wire, so a plan draws the
                // same faults and the link makes the same repairs on each.
                let stats: Vec<_> = backends
                    .iter()
                    .map(|&backend| check_case(seed, rate, backend, method))
                    .collect();
                assert!(
                    stats.windows(2).all(|w| w[0] == w[1]),
                    "seed={seed} rate={rate} method={}: wire/link counters differ \
                     across backends: {stats:?}",
                    method_name(method)
                );
            }
        }
    }
}

/// A reader thread snapshotting *while* a faulted run (message faults
/// plus a scheduled crash and WAL replay) streams maintenance must only
/// ever observe states the fault-free sequential oracle produced at the
/// same epoch — recovery never publishes a torn or divergent epoch.
#[test]
fn snapshot_reads_match_oracle_during_recovery() {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const L: usize = 3;
    let method = MaintenanceMethod::AuxiliaryRelation;
    let ops = gen_ops(42, 15);

    // Fault-free sequential oracle: sorted view contents at every epoch.
    let mut oracle: HashMap<u64, Vec<Row>> = HashMap::new();
    {
        let (mut c, mut view) = setup(L, method);
        let record = |c: &Cluster, view: &MaintainedView, oracle: &mut HashMap<u64, Vec<Row>>| {
            let mut rows = c.scan_all(view.view_table()).unwrap();
            rows.sort();
            oracle.insert(view.epoch(), rows);
        };
        record(&c, &view, &mut oracle);
        let mut live: [Vec<Row>; 2] = [
            (0..10).map(|i| row![i, i % 3, "a"]).collect(),
            (0..10).map(|i| row![i, i % 3, "b"]).collect(),
        ];
        let mut next_id = 100_000i64;
        for op in &ops {
            match op {
                Op::Insert { rel, jval } => {
                    let payload = if *rel == 0 { "a" } else { "b" };
                    let r = row![next_id, *jval, payload];
                    next_id += 1;
                    live[*rel].push(r.clone());
                    view.apply(&mut c, *rel, &Delta::insert_one(r)).unwrap();
                }
                Op::DeleteExisting { rel, pick } => {
                    if live[*rel].is_empty() {
                        continue;
                    }
                    let idx = pick % live[*rel].len();
                    let r = live[*rel].swap_remove(idx);
                    view.apply(&mut c, *rel, &Delta::Delete(vec![r])).unwrap();
                }
            }
            record(&c, &view, &mut oracle);
        }
    }

    // The same workload under faults, with a live reader alongside.
    let (c, mut view) = setup(L, method);
    let mut ft = FaultTolerant::sequential(c, sweep_plan(42, 0.2, L));
    let reader = view.enable_serving(&ft).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let reader = reader.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            // Always take at least one snapshot: on a loaded single-core
            // host this thread may not be scheduled until after the
            // writer finishes and raises `stop`.
            let mut reads: Vec<(u64, Vec<Row>)> = Vec::new();
            loop {
                let s = reader.snapshot();
                reads.push((s.epoch(), s.rows()));
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            reads
        })
    };
    apply_ops(&mut ft, &mut view, &ops).unwrap();
    stop.store(true, Ordering::Relaxed);
    let reads = handle.join().unwrap();

    assert!(ft.crashes() > 0, "the crash fired during the serving run");
    assert!(!reads.is_empty(), "the reader made progress");
    for (epoch, rows) in &reads {
        assert_eq!(
            rows, &oracle[epoch],
            "reader observed a state the fault-free oracle never produced at epoch {epoch}"
        );
    }
    // And the final epoch's snapshot is the oracle's final state.
    let fin = reader.snapshot();
    assert_eq!(fin.epoch(), view.epoch());
    assert_eq!(&fin.rows(), &oracle[&view.epoch()]);
}

/// Fault counters are surfaced through the cluster's pvm-obs metrics
/// registry, not just the wrapper's accessors.
#[test]
fn fault_counters_surface_in_obs() {
    let (c, mut view) = setup(3, MaintenanceMethod::AuxiliaryRelation);
    let obs = c.obs_handle();
    let mut ft = FaultTolerant::sequential(c, sweep_plan(7, 0.2, 3));
    apply_ops(&mut ft, &mut view, &gen_ops(7, 15)).unwrap();
    let counters = obs.metrics().counters();
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(get("faults.drops"), ft.wire_stats().drops);
    assert_eq!(get("faults.retries"), ft.link_stats().retries);
    assert_eq!(get("faults.crashes"), ft.crashes());
    assert_eq!(get("faults.recovery_replayed"), ft.recovery_replayed());
    assert!(ft.crashes() > 0, "the sweep plan's crash fired");
    assert!(
        ft.recovery_replayed() > 0,
        "recovery replayed a WAL suffix for the crashed node"
    );
}

/// Rows and per-node charge of an unserved point read of each key in
/// `0..12` (keys 10 and 11 match nothing), after a short maintenance
/// stream.
type PointRead = (Vec<Row>, Vec<CostSnapshot>);

fn point_reads<B: Backend>(backend: &mut B, view: &mut MaintainedView) -> Vec<PointRead> {
    apply_ops(backend, view, &gen_ops(7, 6)).unwrap();
    (0..12)
        .map(|k| {
            let key = Value::Int(k);
            let before = backend.engine().node_snapshots();
            let net = backend.net_snapshot();
            let clock = backend.engine().obs_handle().now();
            let rows = view.read_key(backend, &key).unwrap();
            assert_eq!(
                backend.engine().obs_handle().now(),
                clock,
                "key {k}: a point read runs no step"
            );
            assert_eq!(
                backend.net_snapshot(),
                net,
                "key {k}: a point read sends nothing"
            );
            let after = backend.engine().node_snapshots();
            let charged = after.into_iter().zip(before).map(|(a, b)| a - b).collect();
            (rows, charged)
        })
        .collect()
}

/// An unserved point read runs no step and visits only the key's home
/// node: one SEARCH plus one FETCH per row of the heap view there,
/// nothing on the other nodes, no message — with identical rows and per-node charges on the
/// sequential, threaded and fault-tolerant backends.
#[test]
fn unserved_point_read_charges_only_the_home_node() {
    const NODES: usize = 4;
    let method = MaintenanceMethod::AuxiliaryRelation;
    let plan = || FaultPlan::uniform(5, 0.2);
    let runs = [
        {
            let (mut c, mut v) = setup(NODES, method);
            point_reads(&mut c, &mut v)
        },
        {
            let (c, mut v) = setup(NODES, method);
            point_reads(&mut ThreadedCluster::from_cluster(c), &mut v)
        },
        {
            let (c, mut v) = setup(NODES, method);
            point_reads(&mut FaultTolerant::sequential(c, plan()), &mut v)
        },
        {
            let (c, mut v) = setup(NODES, method);
            let thr = ThreadedCluster::from_cluster(c);
            point_reads(&mut FaultTolerant::threaded(thr, plan()), &mut v)
        },
    ];
    for (k, (rows, charged)) in runs[0].iter().enumerate() {
        let home = PartitionSpec::route_value(&Value::Int(k as i64), NODES)
            .unwrap()
            .index();
        for (n, c) in charged.iter().enumerate() {
            if n == home {
                let paper_ops = (c.searches, c.fetches, c.inserts, c.sends);
                assert_eq!(paper_ops, (1, rows.len() as u64, 0, 0), "key {k}");
            } else {
                assert!(c.is_zero(), "key {k}: node {n} charged {c:?}");
            }
        }
    }
    assert!(runs[0].iter().any(|(rows, _)| !rows.is_empty()));
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            run, &runs[0],
            "backend {i} diverged from the sequential reads"
        );
    }
}

// ------------------------------------------- zero-fault identity checks

#[derive(Debug, Clone, PartialEq)]
struct Msg(u64);

impl MessageSize for Msg {
    fn byte_size(&self) -> usize {
        8
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..2, 0i64..6).prop_map(|(rel, jval)| Op::Insert { rel, jval }),
        (0usize..2, any::<usize>()).prop_map(|(rel, pick)| Op::DeleteExisting { rel, pick }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// A zero-fault `FaultyTransport` is a strict identity wrapper: for
    /// any send schedule, per-step delivery order and counted costs are
    /// exactly the bare transport's.
    #[test]
    fn zero_fault_transport_is_identity(
        sched in proptest::collection::vec((0usize..4, 0usize..4, any::<u64>()), 1..40)
    ) {
        let mut bare: Fabric<Msg> = Fabric::new(4, NetConfig::default());
        let mut wrapped = FaultyTransport::new(
            Fabric::<Msg>::new(4, NetConfig::default()),
            FaultPlan::none(123),
        );
        // Interleave sends and per-step drains.
        for (chunk_no, chunk) in sched.chunks(5).enumerate() {
            for &(src, dst, v) in chunk {
                bare.send(NodeId(src as u16), NodeId(dst as u16), Msg(v)).unwrap();
                Transport::send(&mut wrapped, NodeId(src as u16), NodeId(dst as u16), Msg(v))
                    .unwrap();
            }
            wrapped.advance_step();
            let dst = NodeId((chunk_no % 4) as u16);
            let a: Vec<Envelope<Msg>> = bare.recv_all(dst);
            let b: Vec<Envelope<Msg>> = wrapped.recv_all(dst);
            prop_assert_eq!(a, b, "delivery order diverged");
        }
        let bare_snap = bare.ledger().snapshot();
        let wire_snap = wrapped.inner().ledger().snapshot();
        prop_assert_eq!(bare_snap.sends, wire_snap.sends);
        prop_assert_eq!(bare_snap.bytes_sent, wire_snap.bytes_sent);
        prop_assert_eq!(wrapped.stats(), pvm_faults::FaultStats::default());
    }

    /// A zero-fault `FaultTolerant` backend leaves the same state as the
    /// bare backend for any op stream (costs differ only by the reliable
    /// link's uncounted Data headers — i.e. not at all — plus acks,
    /// which a fault-free epoch never needs... so contents AND costs
    /// could be compared; contents are what the tentpole demands).
    #[test]
    fn zero_fault_backend_matches_bare(
        ops in proptest::collection::vec(op_strategy(), 1..12)
    ) {
        let (mut bare, mut bare_view) = setup(3, MaintenanceMethod::GlobalIndex);
        apply_ops(&mut bare, &mut bare_view, &ops).unwrap();
        let expected = state_snapshot(&bare, &bare_view);

        let (c, mut view) = setup(3, MaintenanceMethod::GlobalIndex);
        let mut ft = FaultTolerant::sequential(c, FaultPlan::none(5));
        apply_ops(&mut ft, &mut view, &ops).unwrap();
        prop_assert_eq!(state_snapshot(&ft, &view), expected);
        prop_assert_eq!(ft.link_stats().retries, 0, "no spurious retransmissions");
    }
}
