//! Batch equivalence: [`BatchPolicy::Coalesced`] (destination-coalesced
//! messages + grouped probes) must leave the view, the method's auxiliary
//! structures, and the base tables **bit-identical** to the per-row
//! pipeline ([`BatchPolicy::PerRow`], the oracle) — for every method,
//! both backends, insert/delete mixes, batch sizes 1 / 7 / 256, under
//! the fault-injection wrapper, and with skew handling enabled.
//!
//! Coalescing is a pure wire-format change: the same rows travel in the
//! same per-(src, dst) order, just packed into fewer messages, so view
//! contents and `view_rows` match exactly while SEND counts drop.

use proptest::prelude::*;
use pvm::prelude::*;
use pvm_faults::{FaultPlan, FaultTolerant};

// ------------------------------------------------------------- workload

#[derive(Debug, Clone)]
enum Op {
    /// Insert `n` fresh rows into `rel`, join values cycling from `jbase`.
    InsertBatch { rel: usize, n: usize, jbase: i64 },
    /// Delete up to `n` currently-live rows of `rel`, picked from `pick`.
    DeleteBatch { rel: usize, n: usize, pick: usize },
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
        .insert(a, (0..12).map(|i| row![i, i % 6, "a"]).collect())
        .unwrap();
    cluster
        .insert(b, (0..12).map(|i| row![i, i % 6, "b"]).collect())
        .unwrap();
    let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
    let view = MaintainedView::create(&mut cluster, def, method).unwrap();
    (cluster, view)
}

/// Drive the op stream; returns (`view_rows` per op, total charged SENDs).
/// The live-row bookkeeping is run-independent, so the same `ops` produce
/// the same deltas under every policy/backend/wrapper.
fn apply_ops<B: Backend>(
    backend: &mut B,
    view: &mut MaintainedView,
    ops: &[Op],
) -> Result<(Vec<u64>, u64)> {
    let mut live: [Vec<Row>; 2] = [
        (0..12).map(|i| row![i, i % 6, "a"]).collect(),
        (0..12).map(|i| row![i, i % 6, "b"]).collect(),
    ];
    let mut next_id = 100_000i64;
    let mut view_rows = Vec::new();
    let mut sends = 0u64;
    for op in ops {
        match op {
            Op::InsertBatch { rel, n, jbase } => {
                let payload = if *rel == 0 { "a" } else { "b" };
                let rows: Vec<Row> = (0..*n)
                    .map(|k| row![next_id + k as i64, (jbase + k as i64) % 6, payload])
                    .collect();
                next_id += *n as i64;
                live[*rel].extend(rows.iter().cloned());
                let out = view.apply(backend, *rel, &Delta::Insert(rows))?;
                view_rows.push(out.view_rows);
                sends += out.sends();
            }
            Op::DeleteBatch { rel, n, pick } => {
                let mut rows = Vec::new();
                for _ in 0..*n {
                    if live[*rel].is_empty() {
                        break;
                    }
                    let idx = pick % live[*rel].len();
                    rows.push(live[*rel].swap_remove(idx));
                }
                if rows.is_empty() {
                    continue;
                }
                let out = view.apply(backend, *rel, &Delta::Delete(rows))?;
                view_rows.push(out.view_rows);
                sends += out.sends();
            }
        }
    }
    Ok((view_rows, sends))
}

/// Everything that must be bit-identical: the stored view, the method's
/// AR/GI tables, and the base tables — each sorted (row placement within
/// a node's heap is policy-identical too, but sorted multisets are what
/// every other equivalence suite in this repo compares).
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

fn methods() -> [MaintenanceMethod; 3] {
    [
        MaintenanceMethod::Naive,
        MaintenanceMethod::AuxiliaryRelation,
        MaintenanceMethod::GlobalIndex,
    ]
}

/// A deterministic mixed stream exercising one batch size: a large
/// insert on each relation, a partial delete, and a re-insert that
/// re-creates join partners for the deleted values.
fn ops_for(batch_rows: usize) -> Vec<Op> {
    vec![
        Op::InsertBatch {
            rel: 0,
            n: batch_rows,
            jbase: 0,
        },
        Op::InsertBatch {
            rel: 1,
            n: batch_rows,
            jbase: 2,
        },
        Op::DeleteBatch {
            rel: 0,
            n: batch_rows / 2 + 1,
            pick: 3,
        },
        Op::DeleteBatch {
            rel: 1,
            n: batch_rows / 3 + 1,
            pick: 5,
        },
        Op::InsertBatch {
            rel: 0,
            n: (batch_rows / 4).max(1),
            jbase: 4,
        },
    ]
}

/// One sequential-backend run; returns (snapshot, view_rows, sends).
fn run_sequential(
    method: MaintenanceMethod,
    policy: JoinPolicy,
    batch: BatchPolicy,
    ops: &[Op],
) -> (Vec<Vec<Row>>, Vec<u64>, u64) {
    let (mut c, mut view) = setup(3, method);
    view.set_join_policy(policy);
    view.set_batch_policy(batch);
    let (view_rows, sends) = apply_ops(&mut c, &mut view, ops).unwrap();
    view.check_consistent(&c).unwrap();
    (state_snapshot(&c, &view), view_rows, sends)
}

/// Each structure table of `view`, named without its owning view's
/// prefix, with its sorted contents.
fn structures(c: &Cluster, view: &MaintainedView) -> Vec<(String, Vec<Row>)> {
    view.method_tables()
        .into_iter()
        .map(|t| {
            let name = c.def(t).unwrap().name.clone();
            let (_, structure) = name.split_once("__").unwrap();
            let mut rows = c.scan_all(t).unwrap();
            rows.sort();
            (structure.to_string(), rows)
        })
        .collect()
}

/// Drop + rebuild == maintained: after the stream, every AR / GI the
/// view maintained must equal the one a fresh view installs over the
/// final base tables.
fn check_structures_rebuild(method: MaintenanceMethod, batch: BatchPolicy, ops: &[Op]) {
    let (mut c, mut view) = setup(3, method);
    view.set_batch_policy(batch);
    apply_ops(&mut c, &mut view, ops).unwrap();
    let mut def = view.def().clone();
    def.name = "rebuilt".into();
    let rebuilt = MaintainedView::create(&mut c, def, method).unwrap();
    assert_eq!(
        structures(&c, &view),
        structures(&c, &rebuilt),
        "{method:?}/{batch:?}: maintained structures differ from a rebuild"
    );
}

// ------------------------------------------------------------ the sweep

#[test]
fn coalesced_matches_per_row_all_methods_and_sizes() {
    for method in methods() {
        for policy in [JoinPolicy::IndexOnly, JoinPolicy::CostBased] {
            for batch_rows in [1usize, 7, 256] {
                let ops = ops_for(batch_rows);
                let (oracle, oracle_rows, oracle_sends) =
                    run_sequential(method, policy, BatchPolicy::PerRow, &ops);
                let (got, got_rows, got_sends) =
                    run_sequential(method, policy, BatchPolicy::Coalesced, &ops);
                assert_eq!(
                    got, oracle,
                    "{method:?}/{policy:?}/batch={batch_rows}: state diverged"
                );
                assert_eq!(
                    got_rows, oracle_rows,
                    "{method:?}/{policy:?}/batch={batch_rows}: view_rows diverged"
                );
                if batch_rows >= 7 {
                    assert!(
                        got_sends < oracle_sends,
                        "{method:?}/{policy:?}/batch={batch_rows}: coalescing did not \
                         reduce sends ({got_sends} vs {oracle_sends})"
                    );
                }
            }
        }
    }
}

#[test]
fn coalesced_matches_per_row_on_threaded_backend() {
    for method in methods() {
        let ops = ops_for(32);
        let oracle = {
            let (c, mut view) = setup(3, method);
            view.set_batch_policy(BatchPolicy::PerRow);
            let mut thr = ThreadedCluster::from_cluster(c);
            let (rows, _) = apply_ops(&mut thr, &mut view, &ops).unwrap();
            view.check_consistent(thr.engine()).unwrap();
            (state_snapshot(&thr, &view), rows)
        };
        let got = {
            let (c, mut view) = setup(3, method);
            view.set_batch_policy(BatchPolicy::Coalesced);
            let mut thr = ThreadedCluster::from_cluster(c);
            let (rows, _) = apply_ops(&mut thr, &mut view, &ops).unwrap();
            view.check_consistent(thr.engine()).unwrap();
            (state_snapshot(&thr, &view), rows)
        };
        assert_eq!(got, oracle, "{method:?}: threaded parity diverged");
    }
}

/// Coalesced maintenance under injected message faults + a node crash
/// must still match the fault-free coalesced run: multi-row payloads ride
/// the same reliable-delivery layer as singletons.
#[test]
fn coalesced_survives_fault_injection() {
    for method in methods() {
        let ops = ops_for(16);
        let oracle = {
            let (mut c, mut view) = setup_wal(3, method);
            view.set_batch_policy(BatchPolicy::Coalesced);
            let (rows, _) = apply_ops(&mut c, &mut view, &ops).unwrap();
            (state_snapshot(&c, &view), rows)
        };
        let plan = FaultPlan::uniform(11, 0.15).with_crash(NodeId(1), 4);
        let (c, mut view) = setup_wal(3, method);
        view.set_batch_policy(BatchPolicy::Coalesced);
        let mut ft = FaultTolerant::sequential(c, plan);
        let (rows, _) = apply_ops(&mut ft, &mut view, &ops).unwrap();
        assert_eq!(
            (state_snapshot(&ft, &view), rows),
            oracle,
            "{method:?}: faulted coalesced run diverged"
        );
        view.check_consistent(ft.engine()).unwrap();
    }
}

/// setup() with WAL on — crash recovery requires it, and the fault-free
/// oracle must run the same code paths.
fn setup_wal(l: usize, method: MaintenanceMethod) -> (Cluster, MaintainedView) {
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
        .insert(a, (0..12).map(|i| row![i, i % 6, "a"]).collect())
        .unwrap();
    cluster
        .insert(b, (0..12).map(|i| row![i, i % 6, "b"]).collect())
        .unwrap();
    let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
    let view = MaintainedView::create(&mut cluster, def, method).unwrap();
    (cluster, view)
}

/// Skew handling on top of coalescing: heavy-light routing (salted ARs,
/// replicated GI entries) composes with destination coalescing — rows for
/// different spread-set replicas land in different per-destination
/// messages, contents stay bit-identical to the per-row oracle.
#[test]
fn coalesced_matches_per_row_with_skew_handling() {
    for method in [
        MaintenanceMethod::AuxiliaryRelation,
        MaintenanceMethod::GlobalIndex,
    ] {
        // Skewed stream: most traffic on join value 0.
        let ops = vec![
            Op::InsertBatch {
                rel: 0,
                n: 48,
                jbase: 0,
            },
            Op::InsertBatch {
                rel: 1,
                n: 12,
                jbase: 0,
            },
            Op::DeleteBatch {
                rel: 0,
                n: 10,
                pick: 2,
            },
        ];
        let skewed_run = |batch: BatchPolicy| {
            let (mut c, mut view) = setup(3, method);
            view.set_batch_policy(batch);
            view.enable_skew_handling(&mut c, SkewConfig::default())
                .unwrap();
            // Pre-train on a hot value, freeze the heavy set, then
            // maintain the stream through the rebalanced structures.
            view.train_skew(0, &(0..64).map(|i| row![i, 0, "t"]).collect::<Vec<_>>())
                .unwrap();
            view.rebalance(&mut c).unwrap();
            let (rows, _) = apply_ops(&mut c, &mut view, &ops).unwrap();
            view.check_consistent(&c).unwrap();
            (state_snapshot(&c, &view), rows)
        };
        assert_eq!(
            skewed_run(BatchPolicy::Coalesced),
            skewed_run(BatchPolicy::PerRow),
            "{method:?}: skewed parity diverged"
        );
    }
}

// ----------------------------------------------------- property testing

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..2, 1usize..40, 0i64..6).prop_map(|(rel, n, jbase)| Op::InsertBatch {
            rel,
            n,
            jbase
        }),
        (0usize..2, 1usize..20, any::<usize>()).prop_map(|(rel, n, pick)| Op::DeleteBatch {
            rel,
            n,
            pick
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// For any op stream and method, the coalesced run is bit-identical
    /// to the per-row oracle (state and per-op view_rows).
    #[test]
    fn coalesced_is_equivalent_for_any_stream(
        ops in proptest::collection::vec(op_strategy(), 1..8),
        method_idx in 0usize..3,
        cost_based in any::<bool>(),
    ) {
        let method = methods()[method_idx];
        let policy = if cost_based { JoinPolicy::CostBased } else { JoinPolicy::IndexOnly };
        let (oracle, oracle_rows, _) = run_sequential(method, policy, BatchPolicy::PerRow, &ops);
        let (got, got_rows, _) = run_sequential(method, policy, BatchPolicy::Coalesced, &ops);
        prop_assert_eq!(got, oracle, "state diverged ({:?}/{:?})", method, policy);
        prop_assert_eq!(got_rows, oracle_rows, "view_rows diverged ({:?}/{:?})", method, policy);
        check_structures_rebuild(method, BatchPolicy::Coalesced, &ops);
    }
}
