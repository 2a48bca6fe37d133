//! Cluster transactions: the paper's `begin transaction … end
//! transaction` brackets, with logical undo across all nodes. Aborting a
//! maintenance transaction must restore base relations, auxiliary
//! structures, AND the view — with rids stable enough that the
//! global-index method keeps working afterwards.

use pvm::prelude::*;

fn snapshot_tables(cluster: &Cluster) -> Vec<(String, Vec<Row>)> {
    let mut out = Vec::new();
    for id in cluster.catalog().ids() {
        let name = cluster.def(id).unwrap().name.clone();
        let mut rows = cluster.scan_all(id).unwrap();
        rows.sort();
        out.push((name, rows));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn setup(l: usize, method: MaintenanceMethod) -> (Cluster, MaintainedView) {
    let mut cluster = Cluster::new(ClusterConfig::new(l).with_buffer_pages(512));
    SyntheticRelation::new("a", 40, 8)
        .install(&mut cluster)
        .unwrap();
    SyntheticRelation::new("b", 40, 8)
        .install(&mut cluster)
        .unwrap();
    let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
    let view = MaintainedView::create(&mut cluster, def, method).unwrap();
    (cluster, view)
}

#[test]
fn abort_restores_plain_dml() {
    let mut cluster = Cluster::new(ClusterConfig::new(3).with_buffer_pages(256));
    let t = SyntheticRelation::new("t", 30, 5)
        .install(&mut cluster)
        .unwrap();
    let before = snapshot_tables(&cluster);

    cluster.begin_txn().unwrap();
    cluster
        .insert(t, (100..120).map(|i| row![i, i % 5, "new"]).collect())
        .unwrap();
    cluster
        .delete(
            t,
            &[row![0, 0, "x".repeat(32)], row![7, 2, "x".repeat(32)]],
            &[],
        )
        .unwrap();
    assert_ne!(snapshot_tables(&cluster), before, "txn changes are visible");
    cluster.abort_txn().unwrap();

    assert_eq!(
        snapshot_tables(&cluster),
        before,
        "abort restores everything"
    );
    assert!(!cluster.in_txn());
}

#[test]
fn commit_keeps_changes() {
    let mut cluster = Cluster::new(ClusterConfig::new(2).with_buffer_pages(256));
    let t = SyntheticRelation::new("t", 10, 5)
        .install(&mut cluster)
        .unwrap();
    cluster.begin_txn().unwrap();
    cluster.insert(t, vec![row![99, 0, "kept"]]).unwrap();
    cluster.commit_txn().unwrap();
    assert_eq!(cluster.row_count(t).unwrap(), 11);
}

#[test]
fn abort_restores_view_maintenance_for_every_method() {
    for method in [
        MaintenanceMethod::Naive,
        MaintenanceMethod::AuxiliaryRelation,
        MaintenanceMethod::GlobalIndex,
    ] {
        let (mut cluster, mut view) = setup(4, method);
        let before = snapshot_tables(&cluster);

        cluster.begin_txn().unwrap();
        // A full maintenance pass inside the transaction: base + aux +
        // view all change…
        view.apply(&mut cluster, 0, &Delta::insert_one(row![500, 3, "doomed"]))
            .unwrap();
        view.apply(
            &mut cluster,
            1,
            &Delta::Delete(vec![row![0, 0, "x".repeat(32)]]),
        )
        .unwrap();
        assert_ne!(snapshot_tables(&cluster), before);
        cluster.abort_txn().unwrap();

        // …and all roll back, including the stored view and the method's
        // auxiliary structures.
        assert_eq!(snapshot_tables(&cluster), before, "{method:?}");
        view.check_consistent(&cluster).unwrap();
    }
}

#[test]
fn gi_still_works_after_aborted_delete() {
    // The rid-stability property: deleting a row and aborting must leave
    // its global-index entry pointing at a live rid.
    let (mut cluster, mut view) = setup(3, MaintenanceMethod::GlobalIndex);
    cluster.begin_txn().unwrap();
    view.apply(
        &mut cluster,
        1,
        &Delta::Delete(vec![row![0, 0, "x".repeat(32)]]),
    )
    .unwrap();
    cluster.abort_txn().unwrap();
    view.check_consistent(&cluster).unwrap();

    // The resurrected b-row must still be reachable through the GI path.
    let out = view
        .apply(&mut cluster, 0, &Delta::insert_one(row![600, 0, "probe"]))
        .unwrap();
    assert_eq!(
        out.view_rows, 5,
        "all 5 b-rows with value 0, including the resurrected one"
    );
    view.check_consistent(&cluster).unwrap();
}

#[test]
fn apply_atomic_commits_on_success() {
    let (mut cluster, mut view) = setup(3, MaintenanceMethod::AuxiliaryRelation);
    let out = view
        .apply_atomic(&mut cluster, 0, &Delta::insert_one(row![700, 2, "ok"]))
        .unwrap();
    assert_eq!(out.view_rows, 5);
    assert!(!cluster.in_txn());
    view.check_consistent(&cluster).unwrap();
}

#[test]
fn apply_atomic_rolls_back_on_error() {
    let (mut cluster, mut view) = setup(3, MaintenanceMethod::AuxiliaryRelation);
    let before = snapshot_tables(&cluster);
    // Schema violation surfaces at the base insert inside the txn.
    let bad = Delta::Insert(vec![row!["not-an-int", 1, "x"]]);
    assert!(view.apply_atomic(&mut cluster, 0, &bad).is_err());
    assert!(!cluster.in_txn(), "failed transaction must be closed");
    assert_eq!(snapshot_tables(&cluster), before);
    view.check_consistent(&cluster).unwrap();
}

#[test]
fn txn_discipline() {
    let mut cluster = Cluster::new(ClusterConfig::new(2).with_buffer_pages(128));
    assert!(cluster.commit_txn().is_err(), "commit without begin");
    assert!(cluster.abort_txn().is_err(), "abort without begin");
    cluster.begin_txn().unwrap();
    assert!(cluster.begin_txn().is_err(), "no nesting");
    // DDL is rejected inside a transaction.
    let schema = Schema::new(vec![Column::int("x")]).into_ref();
    assert!(cluster
        .create_table(TableDef::hash_heap("t", schema, 0))
        .is_err());
    cluster.commit_txn().unwrap();
}

#[test]
fn insert_then_delete_same_row_aborts_cleanly() {
    let mut cluster = Cluster::new(ClusterConfig::new(2).with_buffer_pages(128));
    let t = SyntheticRelation::new("t", 5, 5)
        .install(&mut cluster)
        .unwrap();
    let before = snapshot_tables(&cluster);
    cluster.begin_txn().unwrap();
    let placed = cluster.insert(t, vec![row![50, 0, "ephemeral"]]).unwrap();
    let (node, rid) = placed[0];
    cluster.node_mut(node).unwrap().delete_rid(t, rid).unwrap();
    cluster.abort_txn().unwrap();
    assert_eq!(snapshot_tables(&cluster), before);
}

#[test]
fn repeated_txns_reuse_cleanly() {
    let (mut cluster, mut view) = setup(2, MaintenanceMethod::GlobalIndex);
    for i in 0..5 {
        let delta = Delta::insert_one(row![800 + i, (i % 8) as i64, "r"]);
        if i % 2 == 0 {
            // Commit path.
            view.apply_atomic(&mut cluster, 0, &delta).unwrap();
        } else {
            // Abort path.
            cluster.begin_txn().unwrap();
            view.apply(&mut cluster, 0, &delta).unwrap();
            cluster.abort_txn().unwrap();
        }
        view.check_consistent(&cluster).unwrap();
    }
    // Three commits happened (i = 0, 2, 4): 40 original + 3 rows.
    assert_eq!(
        cluster.row_count(cluster.table_id("a").unwrap()).unwrap(),
        43
    );
}

/// Each node's `(INSERT, SEARCH, FETCH, page reads, page writes)`.
fn abort_counters(backend: &impl Backend) -> Vec<[u64; 5]> {
    backend
        .engine()
        .node_snapshots()
        .iter()
        .map(|s| {
            [
                s.inserts,
                s.searches,
                s.fetches,
                s.page_reads,
                s.page_writes,
            ]
        })
        .collect()
}

/// Every node's per-table `(rid, row)` scan, in node and table-id order.
fn placed_rows(cluster: &Cluster) -> Vec<(NodeId, TableId, pvm::types::Rid, Row)> {
    let mut out = Vec::new();
    for n in cluster.nodes() {
        for id in cluster.catalog().ids() {
            for (rid, row) in n.storage(id).unwrap().scan().unwrap() {
                out.push((n.id(), id, rid, row));
            }
        }
    }
    out
}

#[test]
fn abort_cost_and_placement_are_pinned_on_both_backends_with_and_without_wal() {
    // A GI view whose transaction inserts rows, then deletes one
    // pre-existing row and one it just inserted, then aborts. The pool is
    // small enough that the abort itself evicts pages.
    fn drive<B: Backend>(backend: &mut B, view: &mut MaintainedView) -> Vec<[u64; 5]> {
        backend.begin_txn().unwrap();
        let inserted: Vec<Row> = (0..12).map(|i| row![500 + i, i % 8, "doomed"]).collect();
        view.apply(backend, 1, &Delta::Insert(inserted)).unwrap();
        view.apply(
            backend,
            1,
            &Delta::Delete(vec![row![3, 3, "x".repeat(32)], row![505, 5, "doomed"]]),
        )
        .unwrap();
        let before = abort_counters(backend);
        backend.abort_txn().unwrap();
        let after = abort_counters(backend);
        after
            .iter()
            .zip(&before)
            .map(|(a, b)| std::array::from_fn(|k| a[k] - b[k]))
            .collect()
    }

    let mut cells = Vec::new();
    for wal in [false, true] {
        for threaded in [false, true] {
            let config = ClusterConfig::new(3).with_buffer_pages(6);
            let mut cluster = Cluster::new(if wal { config.with_wal() } else { config });
            SyntheticRelation::new("a", 48, 8)
                .install(&mut cluster)
                .unwrap();
            SyntheticRelation::new("b", 48, 8)
                .install(&mut cluster)
                .unwrap();
            let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
            let mut view =
                MaintainedView::create(&mut cluster, def, MaintenanceMethod::GlobalIndex).unwrap();
            let before = placed_rows(&cluster);
            let (cluster, delta) = if threaded {
                let mut thr = ThreadedCluster::from_cluster(cluster);
                let delta = drive(&mut thr, &mut view);
                (thr.into_cluster(), delta)
            } else {
                let delta = drive(&mut cluster, &mut view);
                (cluster, delta)
            };
            let cell = format!("wal={wal} threaded={threaded}");
            assert_eq!(
                placed_rows(&cluster),
                before,
                "{cell}: rows back at their rids"
            );
            view.check_consistent(&cluster).unwrap();
            cells.push((cell, delta));
        }
    }
    // Undo charges 1 INSERT per compensated row and touches pages; it
    // never searches or fetches.
    let pinned = vec![[45, 0, 0, 3, 1], [33, 0, 0, 3, 1], [34, 0, 0, 2, 0]];
    for (cell, delta) in &cells {
        assert_eq!(delta, &pinned, "{cell}: per-node abort cost");
    }
}
