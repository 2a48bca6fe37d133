//! Partial-state equivalence: a budget-capped view with upquery-on-miss
//! reads must be observationally identical to a fully eager twin fed the
//! same update stream — for every maintenance method, on both the
//! sequential and the threaded backend. Random interleavings of inserts,
//! deletes, point reads, and full scans exercise the
//! evict → hole → upquery → reinstall cycle; after every operation the
//! resident view+AR+GI bytes must respect the per-node budget.

use proptest::prelude::*;
use pvm::prelude::*;

/// One random operation against the two-relation schema.
#[derive(Debug, Clone)]
enum Op {
    Insert {
        rel: usize,
        jval: i64,
    },
    DeleteExisting {
        rel: usize,
        pick: usize,
    },
    /// Point read on the view's partition key (an `a.id`; keys ≥ 10 miss).
    ReadKey {
        key: i64,
    },
    /// Full scan: every hole upqueries first.
    ReadAll,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..2, 0i64..6).prop_map(|(rel, jval)| Op::Insert { rel, jval }),
        (0usize..2, any::<usize>()).prop_map(|(rel, pick)| Op::DeleteExisting { rel, pick }),
        (0i64..12).prop_map(|key| Op::ReadKey { key }),
        (0i64..12).prop_map(|key| Op::ReadKey { key }),
        Just(Op::ReadAll),
    ]
}

const NODES: usize = 3;
/// Per-node byte budget: roughly half the seeded view + structures, so
/// enabling partial state evicts immediately and the stream keeps
/// crossing the cap.
const BUDGET: u64 = 400;

fn setup(method: MaintenanceMethod) -> (Cluster, MaintainedView) {
    let mut cluster = Cluster::new(ClusterConfig::new(NODES).with_buffer_pages(256));
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

/// Run `ops` against a partial view on `backend`, checking every read
/// against the fully eager `oracle` (always on a sequential cluster) at
/// the same point in the stream.
fn run_stream<B: Backend>(
    backend: &mut B,
    view: &mut MaintainedView,
    oracle_cluster: &mut Cluster,
    oracle: &mut MaintainedView,
    ops: &[Op],
) -> Result<()> {
    let pcol = 0; // two_way partitions the view on projected a.id
    let mut live: [Vec<Row>; 2] = [
        (0..10).map(|i| row![i, i % 3, "a"]).collect(),
        (0..10).map(|i| row![i, i % 3, "b"]).collect(),
    ];
    let mut next_id = 100_000i64;
    let mut evictions_seen = 0;
    for op in ops {
        match op {
            Op::Insert { rel, jval } => {
                let payload = if *rel == 0 { "a" } else { "b" };
                let r = row![next_id, *jval, payload];
                next_id += 1;
                live[*rel].push(r.clone());
                view.apply(backend, *rel, &Delta::insert_one(r.clone()))?;
                oracle.apply(oracle_cluster, *rel, &Delta::insert_one(r))?;
            }
            Op::DeleteExisting { rel, pick } => {
                if live[*rel].is_empty() {
                    continue;
                }
                let idx = pick % live[*rel].len();
                let r = live[*rel].swap_remove(idx);
                view.apply(backend, *rel, &Delta::Delete(vec![r.clone()]))?;
                oracle.apply(oracle_cluster, *rel, &Delta::Delete(vec![r]))?;
            }
            Op::ReadKey { key } => {
                let k = Value::Int(*key);
                let mut got = view.read_key(backend, &k)?;
                got.sort();
                let mut want: Vec<Row> = oracle
                    .contents(oracle_cluster)?
                    .into_iter()
                    .filter(|r| r[pcol] == k)
                    .collect();
                want.sort();
                assert_eq!(got, want, "point read of key {key} diverged from oracle");
            }
            Op::ReadAll => {
                view.ensure_all_resident(backend)?;
                let mut got = view.contents(backend.engine())?;
                got.sort();
                let mut want = oracle.contents(oracle_cluster)?;
                want.sort();
                assert_eq!(got, want, "full scan diverged from oracle");
                view.enforce_partial_budget(backend)?;
            }
        }
        let stats = view.partial_stats().expect("partial enabled");
        assert!(
            stats.resident_bytes <= BUDGET * NODES as u64,
            "resident {} bytes exceeds {} × {NODES}-node budget after {op:?}",
            stats.resident_bytes,
            BUDGET
        );
        evictions_seen = stats.evictions;
    }
    assert!(
        evictions_seen > 0,
        "budget never forced an eviction — the test lost its teeth"
    );
    Ok(())
}

fn methods() -> [MaintenanceMethod; 3] {
    [
        MaintenanceMethod::Naive,
        MaintenanceMethod::AuxiliaryRelation,
        MaintenanceMethod::GlobalIndex,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn partial_views_match_eager_oracle_sequential(
        ops in proptest::collection::vec(op_strategy(), 1..24)
    ) {
        for method in methods() {
            let (mut cluster, mut view) = setup(method);
            view.enable_partial(&mut cluster, PartialPolicy::with_budget(BUDGET)).unwrap();
            let (mut ocluster, mut oracle) = setup(method);
            run_stream(&mut cluster, &mut view, &mut ocluster, &mut oracle, &ops).unwrap();
        }
    }

    #[test]
    fn partial_views_match_eager_oracle_threaded(
        ops in proptest::collection::vec(op_strategy(), 1..16)
    ) {
        for method in methods() {
            let (cluster, mut view) = setup(method);
            let mut thr = ThreadedCluster::from_cluster(cluster);
            view.enable_partial(&mut thr, PartialPolicy::with_budget(BUDGET)).unwrap();
            let (mut ocluster, mut oracle) = setup(method);
            run_stream(&mut thr, &mut view, &mut ocluster, &mut oracle, &ops).unwrap();
        }
    }
}

/// Deterministic smoke: eviction, miss, upquery, and re-read of one key
/// survive a delete of half the key's join partners in between.
#[test]
fn upquery_reflects_interleaved_deletes() {
    for method in methods() {
        let (mut cluster, mut view) = setup(method);
        view.enable_partial(&mut cluster, PartialPolicy::with_budget(BUDGET))
            .unwrap();
        // Delete one b-row joining key 0 (j = 0), then read key 0: whether
        // the key was evicted or stayed resident, the result must reflect
        // the delete.
        view.apply(&mut cluster, 1, &Delta::Delete(vec![row![0, 0, "b"]]))
            .unwrap();
        let mut got = view.read_key(&mut cluster, &Value::Int(0)).unwrap();
        got.sort();
        let (mut ocluster, mut oracle) = setup(method);
        oracle
            .apply(&mut ocluster, 1, &Delta::Delete(vec![row![0, 0, "b"]]))
            .unwrap();
        let mut want: Vec<Row> = oracle
            .contents(&ocluster)
            .unwrap()
            .into_iter()
            .filter(|r| r[0] == Value::Int(0))
            .collect();
        want.sort();
        assert_eq!(got, want, "{method:?}");
    }
}

/// Evict a key between two batches, then maintain a delta on it. The
/// batch gates borrow the live hole sets, so the second batch must see
/// the new hole and drop the key's view rows at the gate: nothing is
/// stored for it, its `dropped_at` fence moves to the second batch's
/// epoch, and a current read upqueries the exact result.
fn evict_between_batches_then_gate<B: Backend>(backend: &mut B, view: &mut MaintainedView) {
    view.apply(backend, 1, &Delta::insert_one(row![200, 0, "b"]))
        .unwrap();
    // Between the batches: upquery holes until the budget evicts a key
    // that was resident through the first batch.
    let holes_before = view.partial_holes();
    let mut victim = None;
    for h in &holes_before {
        view.read_key(backend, h).unwrap();
        victim = view
            .partial_holes()
            .into_iter()
            .find(|k| !holes_before.contains(k));
        if victim.is_some() {
            break;
        }
    }
    let victim = victim.expect("an upquery pushed a resident key out");
    let Value::Int(id) = victim else {
        panic!("view keys are ints, got {victim:?}");
    };
    let fence = view.epoch();
    // The second batch's view rows carry the victim key (j = 0 joins
    // b-rows 0, 3, 6, 9 and 200).
    view.apply(backend, 0, &Delta::insert_one(row![id, 0, "dup"]))
        .unwrap();
    assert!(
        view.partial_holes().contains(&victim),
        "key {id} stays a hole"
    );
    let stored = backend.engine().scan_all(view.view_table()).unwrap();
    assert!(
        stored.iter().all(|r| r[0] != victim),
        "key {id}'s delta was applied past the gate"
    );
    let err = view
        .ensure_key_resident(backend, &victim, fence)
        .unwrap_err();
    assert!(
        err.to_string().contains("snapshot too old"),
        "the gate did not move key {id}'s fence: {err}"
    );
    let mut got = view.read_key(backend, &victim).unwrap();
    got.sort();
    let mut want: Vec<Row> = view
        .recompute_expected(backend.engine())
        .unwrap()
        .into_iter()
        .filter(|r| r[0] == victim)
        .collect();
    want.sort();
    assert!(!want.is_empty());
    assert_eq!(got, want, "key {id} after the upquery");
}

#[test]
fn key_evicted_between_batches_is_dropped_at_the_next_gate() {
    for method in methods() {
        let (mut cluster, mut view) = setup(method);
        view.enable_partial(&mut cluster, PartialPolicy::with_budget(BUDGET))
            .unwrap();
        evict_between_batches_then_gate(&mut cluster, &mut view);

        let (cluster, mut view) = setup(method);
        let mut thr = ThreadedCluster::from_cluster(cluster);
        view.enable_partial(&mut thr, PartialPolicy::with_budget(BUDGET))
            .unwrap();
        evict_between_batches_then_gate(&mut thr, &mut view);
    }
}
