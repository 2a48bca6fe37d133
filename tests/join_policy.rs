//! The §3.1.2 index-vs-sort-merge choice, executed: under
//! [`JoinPolicy::CostBased`], a node that receives a delta share larger
//! than its local fragment's page count switches from per-tuple index
//! probes to one local scan — and for large transactions that makes the
//! naive method competitive again, exactly as Figure 10 predicts.

use pvm::prelude::*;

fn setup(
    l: usize,
    b_rows: u64,
    method: MaintenanceMethod,
    policy: JoinPolicy,
) -> (Cluster, MaintainedView, SyntheticRelation) {
    let mut cluster = Cluster::new(ClusterConfig::new(l).with_buffer_pages(2048));
    let a = SyntheticRelation::new("a", 100, 100).with_payload_len(64);
    a.install(&mut cluster).unwrap();
    SyntheticRelation::new("b", b_rows, 100)
        .with_payload_len(64)
        .install(&mut cluster)
        .unwrap();
    let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
    let mut view = MaintainedView::create(&mut cluster, def, method).unwrap();
    view.set_join_policy(policy);
    (cluster, view, a)
}

#[test]
fn large_delta_switches_to_scan() {
    // 2,000 B rows → ~20 pages per node at L=2; a 500-tuple delta makes
    // 500 probes per node ≫ 20 pages: the scan must win.
    let (mut cluster, mut view, a) =
        setup(2, 2_000, MaintenanceMethod::Naive, JoinPolicy::CostBased);
    let delta = a.delta(500, &Uniform::new(100), 5);
    let out = view.apply(&mut cluster, 0, &Delta::Insert(delta)).unwrap();
    let compute = out.compute.total();
    assert_eq!(compute.searches, 0, "scan join performs no index searches");
    assert!(
        compute.fetches < 500,
        "scan charges ≈ local pages, not per-probe fetches: {}",
        compute.fetches
    );
    view.check_consistent(&cluster).unwrap();
}

#[test]
fn small_delta_keeps_index_probes() {
    let (mut cluster, mut view, _) =
        setup(2, 2_000, MaintenanceMethod::Naive, JoinPolicy::CostBased);
    let out = view
        .apply(&mut cluster, 0, &Delta::insert_one(row![100_000, 7, "d"]))
        .unwrap();
    let compute = out.compute.total();
    assert_eq!(
        compute.searches, 2,
        "one probe per node under the index plan (L = 2)"
    );
    view.check_consistent(&cluster).unwrap();
}

#[test]
fn cost_based_beats_index_only_for_large_deltas() {
    let measure = |policy| {
        let (mut cluster, mut view, a) = setup(4, 8_000, MaintenanceMethod::Naive, policy);
        let delta = a.delta(1_000, &Uniform::new(100), 9);
        let out = view.apply(&mut cluster, 0, &Delta::Insert(delta)).unwrap();
        view.check_consistent(&cluster).unwrap();
        out.compute.response_time_io()
    };
    let index_only = measure(JoinPolicy::IndexOnly);
    let cost_based = measure(JoinPolicy::CostBased);
    assert!(
        cost_based < index_only / 2.0,
        "scan plan must win decisively: {cost_based} vs {index_only}"
    );
}

#[test]
fn policies_agree_on_results() {
    // Same delta under both policies: identical view contents.
    let contents = |policy| {
        let (mut cluster, mut view, a) =
            setup(3, 3_000, MaintenanceMethod::AuxiliaryRelation, policy);
        let delta = a.delta(300, &Uniform::new(100), 3);
        view.apply(&mut cluster, 0, &Delta::Insert(delta)).unwrap();
        let mut c = view.contents(&cluster).unwrap();
        c.sort();
        c
    };
    assert_eq!(
        contents(JoinPolicy::IndexOnly),
        contents(JoinPolicy::CostBased)
    );
}

#[test]
fn scan_plan_handles_deletes() {
    let (mut cluster, mut view, a) =
        setup(2, 2_000, MaintenanceMethod::Naive, JoinPolicy::CostBased);
    let delta = a.delta(400, &Uniform::new(100), 11);
    view.apply(&mut cluster, 0, &Delta::Insert(delta.clone()))
        .unwrap();
    view.apply(&mut cluster, 0, &Delta::Delete(delta)).unwrap();
    view.check_consistent(&cluster).unwrap();
}

#[test]
fn ar_method_scans_its_auxiliary_relation() {
    // AR under CostBased: the scanned fragment is the AR itself.
    let (mut cluster, mut view, a) = setup(
        2,
        4_000,
        MaintenanceMethod::AuxiliaryRelation,
        JoinPolicy::CostBased,
    );
    let delta = a.delta(800, &Uniform::new(100), 13);
    let out = view.apply(&mut cluster, 0, &Delta::Insert(delta)).unwrap();
    let compute = out.compute.total();
    assert_eq!(compute.searches, 0, "AR probes replaced by a scan");
    view.check_consistent(&cluster).unwrap();
}

/// A(id, x, y, pad) ⋈ B ⋈ C with A.x = B.x, B.y = C.y, under auxiliary
/// relations and the cost-based policy: 400 B rows over 40 x values (its
/// AR keeps the padding, so a fragment spans several pages), 1 600 C rows
/// over 100 y values.
fn three_way() -> (Cluster, MaintainedView) {
    let mut cluster = Cluster::new(ClusterConfig::new(2).with_buffer_pages(2048));
    let schema = || {
        Schema::new(vec![
            Column::int("id"),
            Column::int("x"),
            Column::int("y"),
            Column::str("pad"),
        ])
        .into_ref()
    };
    let pad = "p".repeat(120);
    for (name, n) in [("a", 40), ("b", 400), ("c", 1_600)] {
        let id = cluster
            .create_table(TableDef::hash_heap(name, schema(), 0))
            .unwrap();
        let rows = (0..n)
            .map(|i| row![i, i % 40, i % 100, pad.as_str()])
            .collect();
        cluster.insert(id, rows).unwrap();
    }
    let def = JoinViewDef {
        name: "jv3".into(),
        relations: vec!["a".into(), "b".into(), "c".into()],
        edges: vec![
            ViewEdge::new(ViewColumn::new(0, 1), ViewColumn::new(1, 1)),
            ViewEdge::new(ViewColumn::new(1, 2), ViewColumn::new(2, 2)),
        ],
        projection: vec![
            ViewColumn::new(0, 0),
            ViewColumn::new(1, 0),
            ViewColumn::new(1, 3),
            ViewColumn::new(2, 0),
        ],
        partition_column: 0,
    };
    let mut view =
        MaintainedView::create(&mut cluster, def, MaintenanceMethod::AuxiliaryRelation).unwrap();
    view.set_join_policy(JoinPolicy::CostBased);
    (cluster, view)
}

/// What a large delta on the end relation of the chain must leave behind,
/// whatever drives it: no index search, one FETCH per page of the two AR
/// fragments the chain scans (B's on x, C's on y) at either node, and the
/// view the recomputed join gives. Returns the view after the insert.
fn end_relation_delta_scans_both_ars<B: Backend>(
    build: impl Fn(Cluster) -> B,
    unwrap: impl Fn(B) -> Cluster,
) -> Vec<Row> {
    let (cluster, mut view) = three_way();
    let scanned: u64 = ["jv3__ar_b_1", "jv3__ar_c_2"]
        .iter()
        .map(|ar| cluster.heap_pages(cluster.table_id(ar).unwrap()).unwrap() as u64)
        .sum();
    assert!(scanned > 4, "fragments of more than a page: {scanned}");
    // 200 A rows, 5 per x value: each joins 10 B rows × 16 C rows.
    let delta: Vec<Row> = (0..200).map(|i| row![1_000 + i, i % 40, 0, "d"]).collect();
    let mut after_insert = Vec::new();
    let mut backend = build(cluster);
    for delta in [Delta::Insert(delta.clone()), Delta::Delete(delta)] {
        let out = view.apply(&mut backend, 0, &delta).unwrap();
        let compute = out.compute.total();
        assert_eq!(compute.searches, 0, "{delta:?}: both steps scan");
        assert_eq!(compute.fetches, scanned, "one FETCH per scanned AR page");
        assert_eq!(out.view_rows, 200 * 10 * 16);
        let cluster = unwrap(backend);
        view.check_consistent(&cluster).unwrap();
        if after_insert.is_empty() {
            after_insert = view.contents(&cluster).unwrap();
            after_insert.sort();
        }
        backend = build(cluster);
    }
    after_insert
}

#[test]
fn end_relation_delta_costs_the_same_on_every_runtime() {
    let sequential = end_relation_delta_scans_both_ars(|c| c, |c| c);
    let pipelined = end_relation_delta_scans_both_ars(
        ThreadedCluster::from_cluster,
        ThreadedCluster::into_cluster,
    );
    let barriered = end_relation_delta_scans_both_ars(
        |c| ThreadedCluster::with_runtime(c, RuntimeConfig::barriered()),
        ThreadedCluster::into_cluster,
    );
    assert_eq!(sequential.len(), (40 + 200) * 10 * 16);
    assert_eq!(sequential, pipelined);
    assert_eq!(sequential, barriered);
}

#[test]
fn default_policy_is_index_only() {
    let (mut cluster, view, _) = setup(2, 100, MaintenanceMethod::Naive, JoinPolicy::IndexOnly);
    assert_eq!(view.join_policy(), JoinPolicy::IndexOnly);
    let def2 = JoinViewDef::two_way("jv2", "a", "b", 1, 1, 3, 3);
    let v2 = MaintainedView::create(&mut cluster, def2, MaintenanceMethod::Naive).unwrap();
    assert_eq!(v2.join_policy(), JoinPolicy::IndexOnly);
}
