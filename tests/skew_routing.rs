//! Heavy-light skew routing: view contents must be **bit-identical** to
//! plain hash routing on both backends, for any heavy set — the spread
//! layer moves work, never results. These tests drive random and
//! adversarial update streams through plain and skew-enabled AR / GI
//! views, across the sequential and threaded backends, and check
//! contents, per-node counted costs, edge cases (single-node cluster,
//! single-value domains, all-heavy deltas), sketch determinism, and the
//! rebalance lifecycle.

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

fn seed_rows(payload: &str) -> Vec<Row> {
    (0..10).map(|i| row![i, i % 3, payload]).collect()
}

fn setup(
    l: usize,
    method: MaintenanceMethod,
    skew: Option<SkewConfig>,
) -> (Cluster, MaintainedView) {
    let mut cluster = Cluster::new(ClusterConfig::new(l).with_buffer_pages(256));
    let schema =
        || Schema::new(vec![Column::int("id"), Column::int("j"), Column::str("p")]).into_ref();
    let a = cluster
        .create_table(TableDef::hash_heap("a", schema(), 0))
        .unwrap();
    let b = cluster
        .create_table(TableDef::hash_heap("b", schema(), 0))
        .unwrap();
    cluster.insert(a, seed_rows("a")).unwrap();
    cluster.insert(b, seed_rows("b")).unwrap();
    let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
    let mut view = MaintainedView::create(&mut cluster, def, method).unwrap();
    if let Some(config) = skew {
        view.enable_skew_handling(&mut cluster, config).unwrap();
    }
    (cluster, view)
}

/// Train the sketch so values 0 and 1 are classified heavy (they dominate
/// the training stream), then freeze them into the routing specs.
fn make_heavy(backend: &mut impl Backend, view: &mut MaintainedView) {
    let training: Vec<Row> = (0..64)
        .map(|i| row![50_000 + i, i % 2, "t"])
        .chain((0..6).map(|i| row![60_000 + i, 2 + i, "t"]))
        .collect();
    view.train_skew(0, &training).unwrap();
    view.train_skew(1, &training).unwrap();
    let report = view.rebalance(backend).unwrap();
    assert!(
        report.heavy_values() > 0,
        "training stream should have produced a non-empty heavy set"
    );
}

/// Apply `ops` through any backend, tracking live rows so deletes target
/// rows that exist. Returns sorted view contents plus the cumulative
/// cost report over the whole stream.
fn run_stream<B: Backend>(
    backend: &mut B,
    view: &mut MaintainedView,
    ops: &[Op],
) -> (Vec<Row>, MeterReport) {
    let mut live: [Vec<Row>; 2] = [seed_rows("a"), seed_rows("b")];
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

fn routed_methods() -> [MaintenanceMethod; 2] {
    [
        MaintenanceMethod::AuxiliaryRelation,
        MaintenanceMethod::GlobalIndex,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The headline contract: with a non-empty heavy set frozen in, the
    /// skew-routed view computes exactly the rows the plain view does,
    /// for both routed methods, on any op stream.
    #[test]
    fn heavy_light_contents_match_plain_hash(
        ops in proptest::collection::vec(op_strategy(), 1..20)
    ) {
        for method in routed_methods() {
            let (mut plain_cluster, mut plain_view) = setup(3, method, None);
            let (mut hl_cluster, mut hl_view) =
                setup(3, method, Some(SkewConfig::default()));
            make_heavy(&mut hl_cluster, &mut hl_view);

            let (plain_contents, _) = run_stream(&mut plain_cluster, &mut plain_view, &ops);
            let (hl_contents, _) = run_stream(&mut hl_cluster, &mut hl_view, &ops);

            prop_assert_eq!(
                &plain_contents, &hl_contents,
                "{:?}: heavy-light routing changed the view", method
            );
            hl_view.check_consistent(&hl_cluster).unwrap();
        }
    }

    /// Threading stays cost-invisible under heavy-light routing: same
    /// per-node SEARCH/FETCH/INSERT and interconnect totals as the
    /// sequential backend, with the same heavy set frozen in.
    #[test]
    fn heavy_light_threaded_cost_parity(
        ops in proptest::collection::vec(op_strategy(), 1..16)
    ) {
        for method in routed_methods() {
            let (mut seq, mut seq_view) = setup(3, method, Some(SkewConfig::default()));
            make_heavy(&mut seq, &mut seq_view);
            let (mut thr_cluster, mut thr_view) =
                setup(3, method, Some(SkewConfig::default()));
            make_heavy(&mut thr_cluster, &mut thr_view);
            let mut thr = ThreadedCluster::from_cluster(thr_cluster);

            let (seq_contents, seq_report) = run_stream(&mut seq, &mut seq_view, &ops);
            let (thr_contents, thr_report) = run_stream(&mut thr, &mut thr_view, &ops);

            prop_assert_eq!(
                &seq_contents, &thr_contents,
                "{:?}: contents diverged between backends", method
            );
            prop_assert_eq!(
                &seq_report.per_node, &thr_report.per_node,
                "{:?}: per-node costs diverged under heavy-light routing", method
            );
            prop_assert_eq!(
                seq_report.net, thr_report.net,
                "{:?}: interconnect totals diverged under heavy-light routing", method
            );
        }
    }
}

/// Enabling skew handling without rebalancing (empty heavy set) must be
/// invisible: identical contents AND identical counted costs to a plain
/// view — `HeavyLight` with no heavy values routes exactly like `Hash`.
#[test]
fn empty_heavy_set_is_cost_invisible() {
    let ops: Vec<Op> = (0..14)
        .map(|i| Op::Insert {
            rel: i % 2,
            jval: i as i64 % 4,
        })
        .collect();
    for method in routed_methods() {
        let (mut plain_cluster, mut plain_view) = setup(3, method, None);
        let (mut hl_cluster, mut hl_view) = setup(3, method, Some(SkewConfig::default()));

        let (plain_contents, plain_report) = run_stream(&mut plain_cluster, &mut plain_view, &ops);
        let (hl_contents, hl_report) = run_stream(&mut hl_cluster, &mut hl_view, &ops);

        assert_eq!(plain_contents, hl_contents, "{method:?}: contents");
        assert_eq!(
            plain_report.per_node, hl_report.per_node,
            "{method:?}: an un-rebalanced heavy-light view must charge plain-hash costs"
        );
        assert_eq!(plain_report.net, hl_report.net, "{method:?}: net costs");
    }
}

/// Degenerate cluster: on a single node the spread set collapses to the
/// one node; heavy routing must still be correct (and trivially equal to
/// plain hash).
#[test]
fn single_node_cluster_with_heavy_values() {
    for method in routed_methods() {
        let (mut cluster, mut view) = setup(1, method, Some(SkewConfig::default()));
        make_heavy(&mut cluster, &mut view);
        let ops: Vec<Op> = (0..10)
            .map(|i| Op::Insert {
                rel: i % 2,
                jval: 0, // all heavy
            })
            .collect();
        let (contents, _) = run_stream(&mut cluster, &mut view, &ops);
        view.check_consistent(&cluster).unwrap();
        let (mut plain_cluster, mut plain_view) = setup(1, method, None);
        let (plain_contents, _) = run_stream(&mut plain_cluster, &mut plain_view, &ops);
        assert_eq!(contents, plain_contents, "{method:?}: l=1 contents");
    }
}

/// Single-value domain: *every* delta tuple carries the same join value,
/// which the sketch classifies heavy with certainty. The spread layer
/// takes all the traffic and the view must still be exact.
#[test]
fn all_heavy_single_value_domain() {
    for method in routed_methods() {
        let (mut cluster, mut view) = setup(4, method, Some(SkewConfig::default()));
        let training: Vec<Row> = (0..32).map(|i| row![70_000 + i, 1, "t"]).collect();
        view.train_skew(0, &training).unwrap();
        let report = view.rebalance(&mut cluster).unwrap();
        assert!(report.heavy_values() > 0, "single value must be heavy");

        let ops: Vec<Op> = (0..12)
            .map(|i| Op::Insert {
                rel: i % 2,
                jval: 1,
            })
            .collect();
        let (contents, _) = run_stream(&mut cluster, &mut view, &ops);
        view.check_consistent(&cluster).unwrap();

        let (mut plain_cluster, mut plain_view) = setup(4, method, None);
        let (plain_contents, _) = run_stream(&mut plain_cluster, &mut plain_view, &ops);
        assert_eq!(contents, plain_contents, "{method:?}: all-heavy contents");
    }
}

/// The sketch is deterministic across backends: feeding the same delta
/// stream through the sequential and threaded backends must leave the
/// same observed totals and the same heavy classification — routing
/// decisions derived from the sketch can never diverge by backend.
#[test]
fn sketch_state_is_backend_deterministic() {
    let ops: Vec<Op> = (0..24)
        .map(|i| Op::Insert {
            rel: i % 2,
            jval: if i % 3 == 0 { 5 } else { i as i64 % 2 },
        })
        .collect();
    let (mut seq, mut seq_view) = setup(
        3,
        MaintenanceMethod::AuxiliaryRelation,
        Some(SkewConfig::default()),
    );
    let (thr_cluster, mut thr_view) = setup(
        3,
        MaintenanceMethod::AuxiliaryRelation,
        Some(SkewConfig::default()),
    );
    let mut thr = ThreadedCluster::from_cluster(thr_cluster);

    run_stream(&mut seq, &mut seq_view, &ops);
    run_stream(&mut thr, &mut thr_view, &ops);

    let a = seq_view.skew_state().unwrap();
    let b = thr_view.skew_state().unwrap();
    for rel in 0..2 {
        assert_eq!(a.observed(rel, 1), b.observed(rel, 1), "rel {rel} totals");
        assert_eq!(
            a.heavy_for(rel, 1),
            b.heavy_for(rel, 1),
            "rel {rel} heavy set"
        );
        assert_eq!(
            a.traffic_split(rel, 1),
            b.traffic_split(rel, 1),
            "rel {rel} own/cross traffic"
        );
    }
}

/// Rebalance moves rows the first time (non-empty heavy set over seeded
/// structures) and is idempotent: a second call with an unchanged heavy
/// set re-derives the same specs and `repartition` no-ops.
#[test]
fn rebalance_is_idempotent() {
    for method in routed_methods() {
        let (mut cluster, mut view) = setup(4, method, Some(SkewConfig::default()));
        let training: Vec<Row> = (0..64).map(|i| row![50_000 + i, i % 2, "t"]).collect();
        view.train_skew(0, &training).unwrap();
        view.train_skew(1, &training).unwrap();

        let first = view.rebalance(&mut cluster).unwrap();
        assert!(
            first.heavy_values() > 0,
            "{method:?}: heavy set is non-empty"
        );
        assert!(
            first.rows_moved() > 0,
            "{method:?}: seeded structures hold heavy rows that must migrate"
        );
        let second = view.rebalance(&mut cluster).unwrap();
        assert_eq!(
            second.rows_moved(),
            0,
            "{method:?}: unchanged heavy set must be a no-op"
        );
        view.check_consistent(&cluster).unwrap();
    }
}

/// Naive maintenance broadcasts everything — there is no structure to
/// spread — and a pool-bound view's structures belong to its peers too:
/// asking either for skew handling is an error, not a silent no-op.
#[test]
fn naive_and_pool_shared_views_reject_skew_handling() {
    let mut cluster = Cluster::new(ClusterConfig::new(3).with_buffer_pages(256));
    let schema =
        Schema::new(vec![Column::int("id"), Column::int("j"), Column::str("p")]).into_ref();
    cluster
        .create_table(TableDef::hash_heap("a", schema.clone(), 0))
        .unwrap();
    cluster
        .create_table(TableDef::hash_heap("b", schema, 0))
        .unwrap();
    let def = |name: &str| JoinViewDef::two_way(name, "a", "b", 1, 1, 3, 3);
    let mut view =
        MaintainedView::create(&mut cluster, def("jv"), MaintenanceMethod::Naive).unwrap();
    let err = view.enable_skew_handling(&mut cluster, SkewConfig::default());
    assert!(err.is_err(), "naive must reject skew handling");

    let mut catalog = SharedCatalog::new();
    catalog.ars.enroll(&mut cluster, &def("jv_ar")).unwrap();
    catalog.gis.enroll(&mut cluster, &def("jv_gi")).unwrap();
    let mut refusals = Vec::new();
    for (name, method) in [
        ("jv_ar", MaintenanceMethod::AuxiliaryRelation),
        ("jv_gi", MaintenanceMethod::GlobalIndex),
    ] {
        let mut view =
            MaintainedView::create_pooled(&mut cluster, def(name), method, &catalog).unwrap();
        let tables = view.method_tables();
        let specs = |cluster: &Cluster| -> Vec<PartitionSpec> {
            tables
                .iter()
                .map(|&t| cluster.def(t).unwrap().partitioning.clone())
                .collect()
        };
        let before = specs(&cluster);
        let err = view
            .enable_skew_handling(&mut cluster, SkewConfig::default())
            .unwrap_err();
        assert!(view.skew_state().is_none(), "{method:?}");
        assert_eq!(
            specs(&cluster),
            before,
            "{method:?}: pool tables repartitioned"
        );
        refusals.push(err.to_string());
    }
    assert!(refusals[0].contains("pool-shared"), "{}", refusals[0]);
    assert_eq!(refusals[0], refusals[1], "one refusal text for AR and GI");
}
