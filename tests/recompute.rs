//! The full recompute behind `CREATE VIEW` and `CHECK VIEW`: it fills a
//! new view and checks a stored one at the buffer-pool traffic of a
//! plain scan of each table, and the check catches every way a stored
//! multiset can differ from the join.

use pvm::core::{AggShape, AggSpec};
use pvm::prelude::*;

fn methods() -> [MaintenanceMethod; 3] {
    [
        MaintenanceMethod::Naive,
        MaintenanceMethod::AuxiliaryRelation,
        MaintenanceMethod::GlobalIndex,
    ]
}

/// A(id, x, y, pad) ⋈ B on x ⋈ C on y, with rows wide enough that each
/// table spans several pages per node.
fn chain_cluster(l: usize, pool_pages: usize) -> Cluster {
    let mut cluster = Cluster::new(ClusterConfig::new(l).with_buffer_pages(pool_pages));
    let schema = Schema::new(vec![
        Column::int("id"),
        Column::int("x"),
        Column::int("y"),
        Column::str("pad"),
    ])
    .into_ref();
    for (name, rows, x, y) in [("a", 240, 40, 1), ("b", 240, 40, 24), ("c", 48, 1, 24)] {
        let t = cluster
            .create_table(TableDef::hash_heap(name, schema.clone(), 0))
            .unwrap();
        cluster
            .insert(
                t,
                (0..rows)
                    .map(|i| row![i, i % x, i % y, "p".repeat(150 + (i % 90) as usize)])
                    .collect(),
            )
            .unwrap();
    }
    cluster
}

fn chain_def() -> JoinViewDef {
    JoinViewDef {
        name: "jv".into(),
        relations: vec!["a".into(), "b".into(), "c".into()],
        edges: vec![
            ViewEdge::new(ViewColumn::new(0, 1), ViewColumn::new(1, 1)),
            ViewEdge::new(ViewColumn::new(1, 2), ViewColumn::new(2, 2)),
        ],
        projection: vec![
            ViewColumn::new(0, 0),
            ViewColumn::new(1, 0),
            ViewColumn::new(2, 0),
            ViewColumn::new(1, 1),
        ],
        partition_column: 0,
    }
}

/// Each node's buffer-pool `[hits, misses, page reads]` so far.
fn pool_counters(cluster: &Cluster) -> Vec<[u64; 3]> {
    cluster
        .nodes()
        .iter()
        .map(|n| {
            let pool = n.buffer().lock();
            [pool.hits(), pool.misses(), pool.io_snapshot().page_reads]
        })
        .collect()
}

fn since(after: &[[u64; 3]], before: &[[u64; 3]]) -> Vec<[u64; 3]> {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| std::array::from_fn(|k| a[k] - b[k]))
        .collect()
}

/// A few maintained batches on every relation, so the checked view has
/// seen inserts and deletes.
fn drive<B: Backend>(backend: &mut B, view: &mut MaintainedView) {
    view.apply(
        backend,
        0,
        &Delta::Insert((500..520).map(|i| row![i, i % 40, 0, "new"]).collect()),
    )
    .unwrap();
    view.apply(
        backend,
        1,
        &Delta::Delete(vec![row![3, 3, 3, "p".repeat(153)]]),
    )
    .unwrap();
    view.apply(
        backend,
        2,
        &Delta::Insert((700..710).map(|i| row![i, 0, i % 24, "c"]).collect()),
    )
    .unwrap();
}

/// FNV-1a over every stored tuple's node, table, rid and bytes, in node,
/// table and heap order: where the view and its structures put each row.
fn placement_digest(cluster: &Cluster) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for n in cluster.nodes() {
        for id in cluster.catalog().ids() {
            for (rid, tuple) in n.storage(id).unwrap().scan_encoded() {
                eat(&(n.id().0 as u64).to_be_bytes());
                eat(&(id.0 as u64).to_be_bytes());
                eat(&rid.page.0.to_be_bytes());
                eat(&rid.slot.0.to_be_bytes());
                eat(tuple);
            }
        }
    }
    h
}

/// What one create-maintain-check run saw: per-node pool traffic
/// `[hits, misses, page reads]` of `MaintainedView::create` and of
/// `check_consistent` after maintenance, and the placement digest of
/// every table right after create.
type Traffic = (Vec<[u64; 3]>, Vec<[u64; 3]>, u64);

fn traffic(method: MaintenanceMethod, threaded: bool) -> Traffic {
    fn run<B: Backend>(backend: &mut B, method: MaintenanceMethod) -> Traffic {
        let before = pool_counters(backend.engine());
        let mut view = MaintainedView::create(backend.engine_mut(), chain_def(), method).unwrap();
        let create = since(&pool_counters(backend.engine()), &before);
        let digest = placement_digest(backend.engine());
        drive(backend, &mut view);
        let before = pool_counters(backend.engine());
        view.check_consistent(backend.engine()).unwrap();
        (
            create,
            since(&pool_counters(backend.engine()), &before),
            digest,
        )
    }
    let cluster = chain_cluster(3, 20);
    if threaded {
        run(&mut ThreadedCluster::from_cluster(cluster), method)
    } else {
        run(&mut { cluster }, method)
    }
}

#[test]
fn create_and_check_pool_traffic_is_pinned_on_both_backends() {
    // The pool holds 20 of each node's ~14 checked pages plus what
    // maintenance left resident, so hits depend on the order the check
    // scans the view and the base relations in.
    let create_structures = vec![[4332, 20, 20], [4201, 19, 19], [4249, 19, 19]];
    let pinned = [
        (
            MaintenanceMethod::Naive,
            vec![[4064, 16, 16], [3953, 15, 15], [4009, 15, 15]],
            vec![[7, 7, 7], [5, 9, 9], [7, 7, 7]],
            0x139c_f981_9dfd_a09f,
        ),
        (
            MaintenanceMethod::AuxiliaryRelation,
            create_structures.clone(),
            vec![[4, 10, 10], [3, 11, 11], [5, 9, 9]],
            0x3dc3_410c_ddef_da1f,
        ),
        (
            MaintenanceMethod::GlobalIndex,
            create_structures,
            vec![[7, 7, 7], [5, 9, 9], [7, 7, 7]],
            0x83d6_55b9_60bd_8750,
        ),
    ];
    for (method, create, check, placement) in pinned {
        for threaded in [false, true] {
            let cell = format!("{method:?} threaded={threaded}");
            let (got_create, got_check, digest) = traffic(method, threaded);
            assert_eq!(got_create, create, "{cell}: create");
            assert_eq!(got_check, check, "{cell}: check");
            // Same rows at the same rids on the same pages, in every table.
            assert_eq!(digest, placement, "{cell}: placement");
        }
    }
}

/// One way to tamper with a stored view: what it does to the table and
/// the `(missing, extra)` row counts the check must report.
struct Mutation {
    name: &'static str,
    apply: fn(&mut Cluster, TableId, &[Row]),
    missing: usize,
    extra: usize,
}

fn mutations() -> Vec<Mutation> {
    vec![
        Mutation {
            name: "one row deleted",
            apply: |c, t, rows| {
                c.delete(t, &rows[..1], &[]).unwrap();
            },
            missing: 1,
            extra: 0,
        },
        Mutation {
            name: "one row that joins nothing",
            apply: |c, t, rows| {
                let mut stray = rows[0].clone();
                stray.set(1, Value::Int(-1)).unwrap();
                c.insert(t, vec![stray]).unwrap();
            },
            missing: 0,
            extra: 1,
        },
        Mutation {
            name: "one row duplicated",
            apply: |c, t, rows| {
                c.insert(t, vec![rows[rows.len() / 2].clone()]).unwrap();
            },
            missing: 0,
            extra: 1,
        },
        Mutation {
            name: "one column changed",
            apply: |c, t, rows| {
                let row = &rows[rows.len() - 1];
                c.delete(t, std::slice::from_ref(row), &[]).unwrap();
                let mut changed = row.clone();
                let last = changed.arity() - 1;
                let bumped = match &changed[last] {
                    Value::Int(v) => Value::Int(v + 1),
                    Value::Float(v) => Value::Float(v + 0.5),
                    other => panic!("unexpected column {other:?}"),
                };
                changed.set(last, bumped).unwrap();
                c.insert(t, vec![changed]).unwrap();
            },
            missing: 1,
            extra: 1,
        },
    ]
}

/// A plain join view under each method, and an aggregate view over A ⋈ B
/// grouped by A.x with COUNT(*) and SUM(B.y).
fn tamper_targets() -> Vec<(String, Cluster, MaintainedView)> {
    let mut out = Vec::new();
    for method in methods() {
        let mut cluster = chain_cluster(3, 64);
        let view = MaintainedView::create(&mut cluster, chain_def(), method).unwrap();
        out.push((format!("{method:?}"), cluster, view));
    }
    let mut cluster = chain_cluster(3, 64);
    let def = JoinViewDef {
        name: "agg".into(),
        relations: vec!["a".into(), "b".into()],
        edges: vec![ViewEdge::new(ViewColumn::new(0, 1), ViewColumn::new(1, 1))],
        projection: vec![ViewColumn::new(0, 1), ViewColumn::new(1, 2)],
        partition_column: 0,
    };
    let shape = AggShape {
        group_by: vec![0],
        aggregates: vec![AggSpec::count(), AggSpec::sum(1)],
    };
    let view = MaintainedView::create_aggregate(
        &mut cluster,
        def,
        shape,
        MaintenanceMethod::AuxiliaryRelation,
    )
    .unwrap();
    out.push(("aggregate".into(), cluster, view));
    out
}

#[test]
fn check_names_every_divergence_and_ignores_heap_order() {
    for mutation in mutations() {
        for (label, mut cluster, view) in tamper_targets() {
            let cell = format!("{label}, {}", mutation.name);
            view.check_consistent(&cluster).unwrap();
            let table = view.view_table();
            let stored = view.contents(&cluster).unwrap();
            (mutation.apply)(&mut cluster, table, &stored);
            let Err(PvmError::Corrupt(msg)) = view.check_consistent(&cluster) else {
                panic!("{cell}: the check passed a tampered view");
            };
            let counts = format!("{} missing", mutation.missing);
            assert!(msg.contains(&counts), "{cell}: {msg}");
            let counts = format!("{} extra", mutation.extra);
            assert!(msg.contains(&counts), "{cell}: {msg}");
            // One example per non-empty side.
            let examples = msg.matches("(e.g. [").count();
            let sides = usize::from(mutation.missing > 0) + usize::from(mutation.extra > 0);
            assert_eq!(examples, sides, "{cell}: {msg}");
        }
    }
    // The same multiset in another heap order is the same view.
    for (label, mut cluster, view) in tamper_targets() {
        let table = view.view_table();
        let stored = view.contents(&cluster).unwrap();
        assert!(stored.len() > 1, "{label}");
        assert_eq!(cluster.delete(table, &stored, &[]).unwrap(), stored.len());
        cluster
            .insert(table, stored.iter().rev().cloned().collect())
            .unwrap();
        let mut again = view.contents(&cluster).unwrap();
        assert_ne!(again, stored, "{label}: the heap order changed");
        again.sort();
        let mut sorted = stored.clone();
        sorted.sort();
        assert_eq!(again, sorted, "{label}");
        view.check_consistent(&cluster).unwrap();
    }
}
