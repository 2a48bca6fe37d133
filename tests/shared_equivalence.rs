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
//!   multicast ship stage exactly as it does for a lone view's chain.
//!
//! One more cell mixes every kind of member in one `maintain` call — the
//! shared group beside a private, an aggregate, a partial and a serving
//! view — against each view's recomputed join and its copy maintained
//! alone.
//!
//! The deterministic sweep covers every cell; the proptest at the bottom
//! drives random op streams through the same harness.

use proptest::prelude::*;
use pvm::core::{AggShape, AggSpec};
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

/// The base deltas an op stream makes, in order: `(relation, delta)`.
fn op_deltas(ops: &[Op]) -> Vec<(&'static str, Delta)> {
    let mut live: [Vec<Row>; 2] = [
        (0..10).map(|i| row![i, i % 3, "a"]).collect(),
        (0..10).map(|i| row![i, i % 3, "b"]).collect(),
    ];
    let mut next_id = 100_000i64;
    let mut out = Vec::new();
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
        out.push((if rel == 0 { "a" } else { "b" }, delta));
    }
    out
}

/// Drive the op stream through the whole catalog — one [`maintain`]
/// round per op, with the catalog (shared) or without (independent).
fn run_ops<B: Backend>(
    backend: &mut B,
    views: &mut [MaintainedView],
    catalog: Option<&SharedCatalog>,
    ops: &[Op],
) -> Result<()> {
    for (name, delta) in op_deltas(ops) {
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

// ------------------------------------------------- every kind of member

/// What a member of the mixed catalog is, beside the shared group.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// A pool-bound member of the shared group (private when alone).
    Pooled,
    Private,
    Aggregate,
    Partial,
    Serving,
}

/// The mixed catalog's members after the group's [`defs`]: each kind
/// once, all over the group's join, each with its own projection.
fn mixed_kinds() -> Vec<(Kind, JoinViewDef)> {
    let def = |name: &str, projection: Vec<ViewColumn>| JoinViewDef {
        name: name.into(),
        relations: vec!["a".into(), "b".into()],
        edges: vec![ViewEdge::new(ViewColumn::new(0, 1), ViewColumn::new(1, 1))],
        projection,
        partition_column: 0,
    };
    let (a, b) = (|c| ViewColumn::new(0, c), |c| ViewColumn::new(1, c));
    let mut out: Vec<(Kind, JoinViewDef)> = defs().into_iter().map(|d| (Kind::Pooled, d)).collect();
    out.push((Kind::Private, def("mp", vec![a(0), b(0)])));
    out.push((Kind::Aggregate, def("mg", vec![a(1), b(0)])));
    out.push((Kind::Partial, def("mq", vec![a(0), b(2)])));
    out.push((Kind::Serving, def("ms", vec![b(0), a(2)])));
    out
}

/// A view of `kind` under `method` — bound to `catalog`'s pools when it
/// is [`Kind::Pooled`] and a catalog is given — plus a serving view's
/// reader.
fn create_kind(
    cluster: &mut Cluster,
    kind: Kind,
    def: JoinViewDef,
    method: MaintenanceMethod,
    catalog: Option<&SharedCatalog>,
) -> (MaintainedView, Option<ServeReader>) {
    let mut view = match (kind, catalog) {
        (Kind::Pooled, Some(catalog)) => {
            MaintainedView::create_pooled(cluster, def, method, catalog).unwrap()
        }
        // COUNT(*) and SUM(b.id) per a.j.
        (Kind::Aggregate, _) => {
            let shape = AggShape {
                group_by: vec![0],
                aggregates: vec![AggSpec::count(), AggSpec::sum(1)],
            };
            MaintainedView::create_aggregate(cluster, def, shape, method).unwrap()
        }
        _ => MaintainedView::create(cluster, def, method).unwrap(),
    };
    let reader = match kind {
        // A budget of a few rows per node, so maintenance meets holes.
        Kind::Partial => {
            view.enable_partial(cluster, PartialPolicy::with_budget(200))
                .unwrap();
            None
        }
        Kind::Serving => Some(view.enable_serving(&*cluster).unwrap()),
        _ => None,
    };
    (view, reader)
}

/// Make every view of `views` fully resident, check each against its
/// recomputed join and each serving view's snapshot against its table,
/// then evict partial views back under budget so the next batch meets
/// holes. Returns each view's sorted rows.
fn check_members<B: Backend>(
    backend: &mut B,
    views: &mut [MaintainedView],
    readers: &[Option<ServeReader>],
    ctx: &str,
) -> Vec<Vec<Row>> {
    let mut out = Vec::new();
    for (v, reader) in views.iter_mut().zip(readers) {
        let name = v.def().name.clone();
        v.ensure_all_resident(backend).unwrap();
        let mut got = v.contents(backend.engine()).unwrap();
        got.sort();
        let mut want = v.recompute_expected(backend.engine()).unwrap();
        want.sort();
        assert_eq!(got, want, "{ctx}: '{name}' diverged from its join");
        if let Some(reader) = reader {
            let mut served = reader.snapshot().rows();
            served.sort();
            assert_eq!(served, got, "{ctx}: '{name}' snapshot diverged");
        }
        v.enforce_partial_budget(backend).unwrap();
        out.push(got);
    }
    out
}

/// One [`maintain`] call drives every kind of member at once: a shared
/// group beside a private, an aggregate, a partial and a serving view
/// over the same join. After each op every view equals its recomputed
/// join and its copy maintained alone, and the serving view's snapshot
/// equals its stored table. (Under the naive method the private and the
/// serving view share the group's signature and ride its chain.)
fn check_every_kind_of_member<B: Backend>(
    method: MaintenanceMethod,
    make: fn(Cluster) -> B,
    ops: &[Op],
) {
    let ctx = format!("method={method:?} backend={}", std::any::type_name::<B>());
    let mut cluster = setup_cluster();
    let catalog = enroll_all(&mut cluster, method);
    let (mut views, mut readers) = (Vec::new(), Vec::new());
    for (kind, def) in mixed_kinds() {
        let (v, r) = create_kind(&mut cluster, kind, def, method, Some(&catalog));
        views.push(v);
        readers.push(r);
    }
    for rel in ["a", "b"] {
        let refs: Vec<&mut MaintainedView> = views.iter_mut().collect();
        let want = match method {
            MaintenanceMethod::Naive => vec![vec![0, 1, 2, 3, 6]],
            _ => vec![vec![0, 1, 2]],
        };
        assert_eq!(plan_groups(&cluster, &refs, rel).unwrap(), want, "{ctx}");
    }
    let mut backend = make(cluster);
    let mut alone: Vec<(B, Vec<MaintainedView>, Vec<Option<ServeReader>>)> = mixed_kinds()
        .into_iter()
        .map(|(kind, def)| {
            let mut cluster = setup_cluster();
            let (v, r) = create_kind(&mut cluster, kind, def, method, None);
            (make(cluster), vec![v], vec![r])
        })
        .collect();
    for (step, (name, delta)) in op_deltas(ops).into_iter().enumerate() {
        let ctx = format!("{ctx} op {step} on {name}");
        let mut refs: Vec<&mut MaintainedView> = views.iter_mut().collect();
        maintain(&mut backend, Some(&catalog), &mut refs, name, &delta).unwrap();
        let got = check_members(&mut backend, &mut views, &readers, &ctx);
        for (i, (b, v, r)) in alone.iter_mut().enumerate() {
            maintain(b, None, &mut [&mut v[0]], name, &delta).unwrap();
            let want = check_members(b, v, r, &ctx);
            assert_eq!(
                got[i],
                want[0],
                "{ctx}: '{}' diverged from its copy alone",
                v[0].def().name
            );
        }
    }
    let partial = views.iter().find_map(|v| v.partial_stats()).unwrap();
    assert!(
        partial.evictions > 0 && partial.misses > 0,
        "{ctx}: the partial view never met a hole"
    );
}

#[test]
fn one_maintain_call_drives_every_kind_of_member() {
    for (i, method) in METHODS.into_iter().enumerate() {
        let ops = gen_ops(200 + i as u64, 15);
        check_every_kind_of_member(method, |c| c, &ops);
        check_every_kind_of_member(method, ThreadedCluster::from_cluster, &ops);
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
