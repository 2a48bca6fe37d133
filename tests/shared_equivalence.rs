//! Shared-group equivalence: maintaining N same-signature views through
//! one probe-once [`SharedCatalog`] group must leave every member's rows
//! bit-identical to maintaining the same N views independently — across
//! methods × {sequential, threaded} backends × batch policies × injected
//! message faults.
//!
//! Two comparisons per cell:
//!
//! - **shared vs independent**: per-member sorted view contents and the
//!   base tables must match, and every shared member must pass
//!   [`MaintainedView::check_consistent`] (which recomputes the join and
//!   so also vouches for the pooled AR/GI state feeding it);
//! - **faulted vs fault-free** (shared path): the *full* state snapshot —
//!   every member view table, the pool AR/GI tables, the base tables —
//!   must be bit-identical, i.e. the reliability layer masks drops /
//!   duplicates / delays and a scheduled node crash under the group's
//!   multicast ship stage exactly as it does for the per-view chain.
//!
//! The deterministic sweep covers every cell; the proptest at the bottom
//! drives random op streams through the same harness.

use proptest::prelude::*;
use pvm::prelude::*;
use pvm_faults::{FaultPlan, FaultStats, FaultTolerant, SplitMix64};
use pvm_net::LinkStats;

const L: usize = 3;
/// Members per shared group — three, so every projection shape below is
/// represented and the group ship stage has a non-trivial fan-out.
const N: usize = 3;

// ------------------------------------------------------------- workload

#[derive(Debug, Clone)]
enum Op {
    Insert { rel: usize, jval: i64 },
    DeleteExisting { rel: usize, pick: usize },
}

fn gen_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ 0x9E3779B97F4A7C15);
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

fn setup_cluster() -> Cluster {
    // WAL on: the fault cells schedule a crash, and the baselines must
    // run the identical code path.
    let mut cluster = Cluster::new(ClusterConfig::new(L).with_buffer_pages(256).with_wal());
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
    cluster
}

/// N views over the same join graph (`a.j = b.j`), differing only in
/// projection — including one partitioned on a `b` column so the group
/// ship stage genuinely multicasts to several home-node sets.
fn defs() -> Vec<JoinViewDef> {
    (0..N)
        .map(|i| {
            let projection = match i % 3 {
                0 => (0..3)
                    .map(|c| ViewColumn::new(0, c))
                    .chain((0..3).map(|c| ViewColumn::new(1, c)))
                    .collect(),
                1 => vec![
                    ViewColumn::new(0, 0),
                    ViewColumn::new(0, 1),
                    ViewColumn::new(1, 2),
                ],
                _ => vec![ViewColumn::new(1, 0), ViewColumn::new(0, 0)],
            };
            JoinViewDef {
                name: format!("jv{i}"),
                relations: vec!["a".into(), "b".into()],
                edges: vec![ViewEdge::new(ViewColumn::new(0, 1), ViewColumn::new(1, 1))],
                projection,
                partition_column: 0,
            }
        })
        .collect()
}

fn create_independent(
    cluster: &mut Cluster,
    method: MaintenanceMethod,
    batch: BatchPolicy,
) -> Vec<MaintainedView> {
    defs()
        .into_iter()
        .map(|d| {
            let mut v = MaintainedView::create(cluster, d, method).unwrap();
            v.set_batch_policy(batch);
            v
        })
        .collect()
}

/// A catalog with every definition of [`defs`] enrolled for `method`.
fn enroll_all(cluster: &mut Cluster, method: MaintenanceMethod) -> SharedCatalog {
    let mut catalog = SharedCatalog::new();
    for def in &defs() {
        match method {
            MaintenanceMethod::AuxiliaryRelation => catalog.ars.enroll(cluster, def).unwrap(),
            MaintenanceMethod::GlobalIndex => catalog.gis.enroll(cluster, def).unwrap(),
            MaintenanceMethod::Naive => Vec::new(),
        };
    }
    catalog
}

/// Every pool table of the cluster by name, with its sorted contents.
fn pool_tables(c: &Cluster) -> Vec<(String, Vec<Row>)> {
    let mut out: Vec<(String, Vec<Row>)> = c
        .catalog()
        .ids()
        .map(|t| (c.def(t).unwrap().name.clone(), t))
        .filter(|(name, _)| name.starts_with("pool__"))
        .map(|(name, t)| {
            let mut rows = c.scan_all(t).unwrap();
            rows.sort();
            (name, rows)
        })
        .collect();
    out.sort();
    out
}

/// The same N views bound to one pool; asserts they form a single
/// fully-shared group on both base relations.
fn create_shared(
    cluster: &mut Cluster,
    method: MaintenanceMethod,
    batch: BatchPolicy,
) -> (SharedCatalog, Vec<MaintainedView>) {
    let catalog = enroll_all(cluster, method);
    let mut views: Vec<MaintainedView> = defs()
        .into_iter()
        .map(|d| {
            let mut v = MaintainedView::create_pooled(cluster, d, method, &catalog).unwrap();
            v.set_batch_policy(batch);
            v
        })
        .collect();
    for rel in ["a", "b"] {
        let refs: Vec<&mut MaintainedView> = views.iter_mut().collect();
        let groups = plan_groups(cluster, &refs, rel).unwrap();
        assert_eq!(
            groups,
            vec![(0..N).collect::<Vec<_>>()],
            "the {N} views must form one shared group on '{rel}'"
        );
    }
    (catalog, views)
}

/// Drive the op stream through the whole catalog — one [`maintain`]
/// round per op, with the catalog (shared) or without (independent).
fn run_ops<B: Backend>(
    backend: &mut B,
    views: &mut [MaintainedView],
    catalog: Option<&SharedCatalog>,
    ops: &[Op],
) -> Result<()> {
    let mut live: [Vec<Row>; 2] = [
        (0..10).map(|i| row![i, i % 3, "a"]).collect(),
        (0..10).map(|i| row![i, i % 3, "b"]).collect(),
    ];
    let mut next_id = 100_000i64;
    for op in ops {
        let (rel, delta) = match op {
            Op::Insert { rel, jval } => {
                let payload = if *rel == 0 { "a" } else { "b" };
                let r = row![next_id, *jval, payload];
                next_id += 1;
                live[*rel].push(r.clone());
                (*rel, Delta::insert_one(r))
            }
            Op::DeleteExisting { rel, pick } => {
                if live[*rel].is_empty() {
                    continue;
                }
                let idx = pick % live[*rel].len();
                let r = live[*rel].swap_remove(idx);
                (*rel, Delta::Delete(vec![r]))
            }
        };
        let name = if rel == 0 { "a" } else { "b" };
        let mut refs: Vec<&mut MaintainedView> = views.iter_mut().collect();
        maintain(backend, catalog, &mut refs, name, &delta)?;
    }
    Ok(())
}

/// Per-member sorted view contents plus the base tables — the
/// shared-vs-independent comparison surface (structure table names
/// differ between pooled and private views, so those are vouched for by
/// `check_consistent` instead).
fn member_rows<B: Backend>(backend: &B, views: &[MaintainedView]) -> Vec<Vec<Row>> {
    let c = backend.engine();
    let mut out: Vec<Vec<Row>> = views
        .iter()
        .map(|v| {
            let mut rows = v.contents(c).unwrap();
            rows.sort();
            rows
        })
        .collect();
    for t in ["a", "b"] {
        let mut rows = c.scan_all(c.table_id(t).unwrap()).unwrap();
        rows.sort();
        out.push(rows);
    }
    out
}

/// Everything, for the faulted-vs-fault-free comparison: every member
/// view table, the (deduplicated) pool AR/GI tables, and the base
/// tables, each sorted.
fn full_state<B: Backend>(backend: &B, views: &[MaintainedView]) -> Vec<Vec<Row>> {
    let c = backend.engine();
    let mut tables = Vec::new();
    for v in views {
        tables.push(v.view_table());
        for t in v.method_tables() {
            if !tables.contains(&t) {
                tables.push(t);
            }
        }
    }
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

const METHODS: [MaintenanceMethod; 3] = [
    MaintenanceMethod::Naive,
    MaintenanceMethod::AuxiliaryRelation,
    MaintenanceMethod::GlobalIndex,
];

#[derive(Debug, Clone, Copy)]
enum BackendKind {
    Sequential,
    Threaded,
}

/// One shared-vs-independent cell: identical op stream both ways, then
/// per-member rows and base tables must match and every shared member
/// must be consistent with the recomputed join.
fn check_shared_vs_independent(
    method: MaintenanceMethod,
    backend: BackendKind,
    batch: BatchPolicy,
    ops: &[Op],
) {
    let ctx = format!("method={method:?} backend={backend:?} batch={batch:?}");

    let mut ind_cluster = setup_cluster();
    let mut ind = create_independent(&mut ind_cluster, method, batch);
    let mut shr_cluster = setup_cluster();
    let (catalog, mut shr) = create_shared(&mut shr_cluster, method, batch);

    let (expected, got) = match backend {
        BackendKind::Sequential => {
            run_ops(&mut ind_cluster, &mut ind, None, ops).unwrap();
            run_ops(&mut shr_cluster, &mut shr, Some(&catalog), ops).unwrap();
            for v in &shr {
                v.check_consistent(&shr_cluster)
                    .unwrap_or_else(|e| panic!("{ctx}: shared member inconsistent: {e}"));
            }
            (
                member_rows(&ind_cluster, &ind),
                member_rows(&shr_cluster, &shr),
            )
        }
        BackendKind::Threaded => {
            let mut ind_thr = ThreadedCluster::from_cluster(ind_cluster);
            run_ops(&mut ind_thr, &mut ind, None, ops).unwrap();
            let mut shr_thr = ThreadedCluster::from_cluster(shr_cluster);
            run_ops(&mut shr_thr, &mut shr, Some(&catalog), ops).unwrap();
            for v in &shr {
                v.check_consistent(shr_thr.engine())
                    .unwrap_or_else(|e| panic!("{ctx}: shared member inconsistent: {e}"));
            }
            (member_rows(&ind_thr, &ind), member_rows(&shr_thr, &shr))
        }
    };
    assert_eq!(
        got, expected,
        "{ctx}: shared group diverged from independent maintenance"
    );
}

/// Every method × backend × batch-policy cell with a deterministic op
/// stream.
#[test]
fn shared_group_matches_independent_everywhere() {
    for (i, method) in METHODS.into_iter().enumerate() {
        for (j, backend) in [BackendKind::Sequential, BackendKind::Threaded]
            .into_iter()
            .enumerate()
        {
            for (k, batch) in [BatchPolicy::Coalesced, BatchPolicy::PerRow]
                .into_iter()
                .enumerate()
            {
                let seed = 100 + (i * 4 + j * 2 + k) as u64;
                check_shared_vs_independent(method, backend, batch, &gen_ops(seed, 15));
            }
        }
    }
}

/// One faulted cell on backend `B` (`make` builds it from a fresh
/// cluster, `wrap` puts it under the plan): the shared path under
/// injected message faults plus a scheduled node crash must leave the
/// *entire* state — member views, pool AR/GI tables, base tables —
/// bit-identical to a fault-free shared run on the same backend. Returns
/// the wire and link counters.
fn check_faults_masked<B: Backend>(
    method: MaintenanceMethod,
    seed: u64,
    make: fn(Cluster) -> B,
    wrap: fn(B, FaultPlan) -> FaultTolerant<B>,
) -> (FaultStats, LinkStats) {
    let ctx = format!(
        "method={method:?} backend={} seed={seed}",
        std::any::type_name::<B>()
    );
    let ops = gen_ops(seed, 15);
    let plan = FaultPlan::uniform(seed, 0.2).with_crash(NodeId((seed % L as u64) as u16), 2 + seed % 6);

    let mut base = setup_cluster();
    let (cat, mut views) = create_shared(&mut base, method, BatchPolicy::Coalesced);
    let mut base = make(base);
    run_ops(&mut base, &mut views, Some(&cat), &ops).unwrap();
    let expected = full_state(&base, &views);

    let mut c = setup_cluster();
    let (cat, mut views) = create_shared(&mut c, method, BatchPolicy::Coalesced);
    let mut ft = wrap(make(c), plan);
    run_ops(&mut ft, &mut views, Some(&cat), &ops)
        .unwrap_or_else(|e| panic!("{ctx}: faulted run errored: {e}"));
    let s = ft.wire_stats();
    assert!(
        s.drops + s.dups + s.delays > 0,
        "{ctx}: plan injected nothing — cell is vacuous"
    );
    for v in &views {
        v.check_consistent(ft.engine())
            .unwrap_or_else(|e| panic!("{ctx}: faulted member inconsistent: {e}"));
    }
    assert_eq!(
        full_state(&ft, &views),
        expected,
        "{ctx}: faulted shared run diverged from the fault-free shared run"
    );
    (s, ft.link_stats())
}

#[test]
fn faults_masked_under_shared_multicast() {
    for (i, method) in METHODS.into_iter().enumerate() {
        for j in 0..2 {
            let seed = 700 + (i * 2 + j) as u64;
            let seq = check_faults_masked(method, seed, |c| c, FaultTolerant::sequential);
            let thr = check_faults_masked(
                method,
                seed,
                ThreadedCluster::from_cluster,
                FaultTolerant::threaded,
            );
            // Both backends ride one FIFO wire, so the plan draws the
            // same faults and the link makes the same repairs on each.
            assert_eq!(
                seq, thr,
                "method={method:?} seed={seed}: wire/link counters differ across backends"
            );
        }
    }
}

// ------------------------------------------------------------- proptest

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..2, 0i64..6).prop_map(|(rel, jval)| Op::Insert { rel, jval }),
        (0usize..2, any::<usize>()).prop_map(|(rel, pick)| Op::DeleteExisting { rel, pick }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Random op streams, sequential backend, all three methods: the
    /// shared group stays bit-identical to its independent twins.
    #[test]
    fn shared_group_matches_independent_random(
        ops in proptest::collection::vec(op_strategy(), 1..20),
        batch_coalesced in any::<bool>(),
    ) {
        let batch = if batch_coalesced { BatchPolicy::Coalesced } else { BatchPolicy::PerRow };
        for method in METHODS {
            let mut ind_cluster = setup_cluster();
            let mut ind = create_independent(&mut ind_cluster, method, batch);
            let mut shr_cluster = setup_cluster();
            let (catalog, mut shr) = create_shared(&mut shr_cluster, method, batch);
            run_ops(&mut ind_cluster, &mut ind, None, &ops).unwrap();
            run_ops(&mut shr_cluster, &mut shr, Some(&catalog), &ops).unwrap();
            prop_assert_eq!(
                member_rows(&shr_cluster, &shr),
                member_rows(&ind_cluster, &ind),
                "method {:?}: shared group diverged", method
            );
            for v in &shr {
                prop_assert!(v.check_consistent(&shr_cluster).is_ok());
            }
            // Drop + rebuild == maintained, for the pooled structures.
            let maintained = pool_tables(&shr_cluster);
            let mut catalog = catalog;
            catalog.release(&mut shr_cluster).unwrap();
            enroll_all(&mut shr_cluster, method);
            prop_assert_eq!(
                pool_tables(&shr_cluster),
                maintained,
                "method {:?}: pool structures differ from a rebuild", method
            );
        }
    }
}
