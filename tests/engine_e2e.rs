//! Engine-level end-to-end behaviour: partitioned DML, buffer-pool
//! effects under the paper's memory parameter `M`, interconnect
//! quiescence, and multi-view coexistence on one cluster.

use pvm::prelude::*;

#[test]
fn buffer_pool_size_changes_physical_io_not_results() {
    // Same workload under M = 10 pages vs M = 10,000 pages: identical
    // query results, far more physical reads when memory is scarce.
    let run = |m: usize| {
        let mut cluster = Cluster::new(ClusterConfig::new(2).with_buffer_pages(m));
        let rel = SyntheticRelation::new("b", 5_000, 100).with_payload_len(100);
        let id = rel.install(&mut cluster).unwrap();
        cluster.create_secondary_index(id, "b_j", vec![1]).unwrap();
        cluster.reset_counters();
        let mut hits = 0usize;
        for v in 0..100i64 {
            for n in 0..2u16 {
                hits += cluster
                    .node_mut(NodeId(n))
                    .unwrap()
                    .index_search(id, &[1], &row![v])
                    .unwrap()
                    .len();
            }
        }
        let pages: u64 = cluster
            .nodes()
            .iter()
            .map(|n| n.buffer().lock().io_snapshot().page_reads)
            .sum();
        (hits, pages)
    };
    let (hits_small, pages_small) = run(10);
    let (hits_big, pages_big) = run(10_000);
    assert_eq!(hits_small, 5_000);
    assert_eq!(hits_big, 5_000);
    assert!(
        pages_small > pages_big * 2,
        "tiny buffer must thrash: {pages_small} vs {pages_big}"
    );
}

#[test]
fn fabric_quiescent_after_every_maintenance() {
    let mut cluster = Cluster::new(ClusterConfig::new(4).with_buffer_pages(256));
    SyntheticRelation::new("a", 100, 10)
        .install(&mut cluster)
        .unwrap();
    SyntheticRelation::new("b", 100, 10)
        .install(&mut cluster)
        .unwrap();
    let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
    for m in [
        MaintenanceMethod::Naive,
        MaintenanceMethod::AuxiliaryRelation,
        MaintenanceMethod::GlobalIndex,
    ] {
        let mut d = def.clone();
        d.name = format!("jv_{}", m.label().replace(' ', "_"));
        let mut view = MaintainedView::create(&mut cluster, d, m).unwrap();
        view.apply(&mut cluster, 0, &Delta::insert_one(row![10_000, 3, "x"]))
            .unwrap();
        assert!(
            cluster.fabric().quiescent(),
            "{m:?} left messages in flight"
        );
    }
}

#[test]
fn three_views_three_methods_one_cluster() {
    // One cluster hosting the same join under all three methods at once;
    // every delta keeps all three consistent and identical.
    let mut cluster = Cluster::new(ClusterConfig::new(3).with_buffer_pages(512));
    SyntheticRelation::new("a", 60, 6)
        .install(&mut cluster)
        .unwrap();
    SyntheticRelation::new("b", 60, 6)
        .install(&mut cluster)
        .unwrap();
    let mk = |name: &str| {
        let mut d = JoinViewDef::two_way(name, "a", "b", 1, 1, 3, 3);
        d.name = name.into();
        d
    };
    let mut naive =
        MaintainedView::create(&mut cluster, mk("v_naive"), MaintenanceMethod::Naive).unwrap();
    let mut ar = MaintainedView::create(
        &mut cluster,
        mk("v_ar"),
        MaintenanceMethod::AuxiliaryRelation,
    )
    .unwrap();
    let mut gi =
        MaintainedView::create(&mut cluster, mk("v_gi"), MaintenanceMethod::GlobalIndex).unwrap();

    // One shared base update per step, all three views maintained from it.
    for (i, rel) in [(0usize, "a"), (1, "b"), (2, "a"), (3, "b")] {
        let r = row![20_000 + i as i64, (i % 6) as i64, "x"];
        let outcomes = maintain(
            &mut cluster,
            None,
            &mut [&mut naive, &mut ar, &mut gi],
            rel,
            &Delta::insert_one(r),
        )
        .unwrap();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes
            .iter()
            .all(|o| o.view_rows == outcomes[0].view_rows));
    }
    naive.check_consistent(&cluster).unwrap();
    ar.check_consistent(&cluster).unwrap();
    gi.check_consistent(&cluster).unwrap();
    let mut c1 = naive.contents(&cluster).unwrap();
    let mut c2 = ar.contents(&cluster).unwrap();
    let mut c3 = gi.contents(&cluster).unwrap();
    c1.sort();
    c2.sort();
    c3.sort();
    assert_eq!(c1, c2);
    assert_eq!(c2, c3);
}

#[test]
fn rows_live_where_the_partitioner_says() {
    let mut cluster = Cluster::new(ClusterConfig::new(5).with_buffer_pages(256));
    let id = SyntheticRelation::new("t", 500, 50)
        .install(&mut cluster)
        .unwrap();
    for row in cluster.scan_all(id).unwrap() {
        let home = cluster.route(id, &row).unwrap();
        let found = cluster
            .node(home)
            .unwrap()
            .storage(id)
            .unwrap()
            .scan()
            .unwrap()
            .iter()
            .any(|(_, r)| r == &row);
        assert!(found, "row {row} missing from its home node {home}");
    }
}

#[test]
fn deletes_shrink_and_preserve_views() {
    let mut cluster = Cluster::new(ClusterConfig::new(4).with_buffer_pages(256));
    SyntheticRelation::new("a", 40, 4)
        .install(&mut cluster)
        .unwrap();
    SyntheticRelation::new("b", 40, 4)
        .install(&mut cluster)
        .unwrap();
    let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
    let mut view =
        MaintainedView::create(&mut cluster, def, MaintenanceMethod::AuxiliaryRelation).unwrap();
    let before = view.contents(&cluster).unwrap().len();
    assert_eq!(before, 40 * 10);
    // Delete every A row with join value 0 (10 rows × 10 matches each).
    let doomed: Vec<Row> = (0..40)
        .filter(|i| i % 4 == 0)
        .map(|i| row![i, i % 4, "x".repeat(32)])
        .collect();
    let out = view.apply(&mut cluster, 0, &Delta::Delete(doomed)).unwrap();
    assert_eq!(out.view_rows, 100);
    assert_eq!(view.contents(&cluster).unwrap().len(), before - 100);
    view.check_consistent(&cluster).unwrap();
}

#[test]
fn meter_reports_are_additive() {
    let mut cluster = Cluster::new(ClusterConfig::new(2).with_buffer_pages(256));
    let id = SyntheticRelation::new("t", 0, 1)
        .install(&mut cluster)
        .unwrap();
    let guard_outer = cluster.meter();
    let (_, inner1) = cluster
        .metered(|c| c.insert(id, vec![row![1, 0, "x"]]).map(|_| ()))
        .unwrap();
    let (_, inner2) = cluster
        .metered(|c| c.insert(id, vec![row![2, 0, "x"]]).map(|_| ()))
        .unwrap();
    let outer = guard_outer.finish(&cluster);
    assert_eq!(
        outer.total().inserts,
        inner1.total().inserts + inner2.total().inserts
    );
}
