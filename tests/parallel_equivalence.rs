//! Sequential/threaded backend equivalence: the same random update
//! stream, run through the sequential [`Cluster`] backend and through the
//! threaded [`ThreadedCluster`] runtime, must — for every maintenance
//! method — leave identical view contents AND identical cost-ledger
//! totals (`SEARCH`/`FETCH`/`INSERT` per node, `SEND`s and bytes on the
//! interconnect). This is the metering-determinism contract of
//! `pvm-runtime`: threading is a wall-clock optimization that is
//! invisible to the paper's cost model.

use proptest::prelude::*;
use pvm::prelude::*;
use pvm_engine::MeterReport;

/// One random operation against the two-relation schema.
#[derive(Debug, Clone)]
enum Op {
    Insert { rel: usize, jval: i64 },
    DeleteExisting { rel: usize, pick: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..2, 0i64..6).prop_map(|(rel, jval)| Op::Insert { rel, jval }),
        (0usize..2, any::<usize>()).prop_map(|(rel, pick)| Op::DeleteExisting { rel, pick }),
    ]
}

fn setup(l: usize, method: MaintenanceMethod) -> (Cluster, MaintainedView) {
    let mut cluster = Cluster::new(ClusterConfig::new(l).with_buffer_pages(256));
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

/// Apply `ops` through any backend, tracking live rows so deletes target
/// rows that exist. Returns sorted view contents plus the cumulative
/// cost report over the whole stream.
fn run_stream<B: Backend>(
    backend: &mut B,
    view: &mut MaintainedView,
    ops: &[Op],
) -> (Vec<Row>, MeterReport) {
    let mut live: [Vec<Row>; 2] = [
        (0..10).map(|i| row![i, i % 3, "a"]).collect(),
        (0..10).map(|i| row![i, i % 3, "b"]).collect(),
    ];
    let mut next_id = 100_000i64;
    let guard = backend.start_meter();
    for op in ops {
        match op {
            Op::Insert { rel, jval } => {
                let payload = if *rel == 0 { "a" } else { "b" };
                let r = row![next_id, *jval, payload];
                next_id += 1;
                live[*rel].push(r.clone());
                view.apply(backend, *rel, &Delta::insert_one(r)).unwrap();
            }
            Op::DeleteExisting { rel, pick } => {
                if live[*rel].is_empty() {
                    continue;
                }
                let idx = pick % live[*rel].len();
                let r = live[*rel].swap_remove(idx);
                view.apply(backend, *rel, &Delta::Delete(vec![r])).unwrap();
            }
        }
    }
    let report = backend.finish_meter(&guard);
    let mut contents = view.contents(backend.engine()).unwrap();
    contents.sort();
    (contents, report)
}

fn methods() -> [MaintenanceMethod; 3] {
    [
        MaintenanceMethod::Naive,
        MaintenanceMethod::AuxiliaryRelation,
        MaintenanceMethod::GlobalIndex,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn threaded_runtime_is_cost_identical(
        ops in proptest::collection::vec(op_strategy(), 1..20)
    ) {
        for method in methods() {
            // Identical initial states, one per backend.
            let (seq_cluster, mut seq_view) = setup(3, method);
            let mut seq = seq_cluster;
            let (thr_cluster, mut thr_view) = setup(3, method);
            let mut thr = ThreadedCluster::from_cluster(thr_cluster);

            let (seq_contents, seq_report) = run_stream(&mut seq, &mut seq_view, &ops);
            let (thr_contents, thr_report) = run_stream(&mut thr, &mut thr_view, &ops);

            prop_assert_eq!(
                &seq_contents, &thr_contents,
                "{:?}: view contents diverged", method
            );
            thr_view.check_consistent(thr.engine()).unwrap();

            // Abstract op totals — per node, not just summed — and the
            // interconnect's SEND/byte counters must match exactly.
            prop_assert_eq!(
                &seq_report.per_node, &thr_report.per_node,
                "{:?}: per-node SEARCH/FETCH/INSERT (or page I/O) diverged", method
            );
            prop_assert_eq!(
                seq_report.net, thr_report.net,
                "{:?}: interconnect SEND/byte totals diverged", method
            );
        }
    }
}

/// The transactional path works on the threaded backend too: an atomic
/// apply commits, and the view stays consistent.
#[test]
fn threaded_atomic_apply() {
    let (cluster, mut view) = setup(4, MaintenanceMethod::GlobalIndex);
    let mut thr = ThreadedCluster::from_cluster(cluster);
    let out = view
        .apply_atomic(&mut thr, 0, &Delta::insert_one(row![777, 1, "a"]))
        .unwrap();
    assert!(out.view_rows > 0);
    view.check_consistent(thr.engine()).unwrap();
}
