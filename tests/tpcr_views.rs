//! The §3.3 experiment end-to-end on the engine: JV1 and JV2 over a
//! scaled TPC-R dataset, 128-tuple customer inserts, naive vs. auxiliary
//! relation (and global index, which Teradata lacked but we have).

use pvm::prelude::*;

const DELTA: u64 = 128;

fn setup(l: usize) -> (Cluster, TpcrDataset) {
    let mut cluster = Cluster::new(ClusterConfig::new(l).with_buffer_pages(1_000));
    let dataset = TpcrDataset::new(TpcrScale { customers: 300 });
    dataset.install(&mut cluster).unwrap();
    (cluster, dataset)
}

fn methods() -> [MaintenanceMethod; 3] {
    [
        MaintenanceMethod::Naive,
        MaintenanceMethod::AuxiliaryRelation,
        MaintenanceMethod::GlobalIndex,
    ]
}

#[test]
fn jv1_maintenance_all_methods() {
    for m in methods() {
        let (mut cluster, dataset) = setup(4);
        let mut view = MaintainedView::create(&mut cluster, TpcrDataset::jv1(), m).unwrap();
        assert_eq!(
            view.contents(&cluster).unwrap().len(),
            300,
            "each customer matches one order"
        );
        let out = view
            .apply(
                &mut cluster,
                0,
                &Delta::Insert(dataset.customer_delta(DELTA)),
            )
            .unwrap();
        assert_eq!(
            out.view_rows, DELTA,
            "{m:?}: one join row per delta customer"
        );
        view.check_consistent(&cluster).unwrap();
    }
}

#[test]
fn jv2_maintenance_all_methods() {
    for m in methods() {
        let (mut cluster, dataset) = setup(4);
        let mut view = MaintainedView::create(&mut cluster, TpcrDataset::jv2(), m).unwrap();
        assert_eq!(
            view.contents(&cluster).unwrap().len(),
            300 * 4,
            "customer × 1 order × 4 lineitems"
        );
        let out = view
            .apply(
                &mut cluster,
                0,
                &Delta::Insert(dataset.customer_delta(DELTA)),
            )
            .unwrap();
        assert_eq!(out.view_rows, DELTA * 4, "{m:?}");
        view.check_consistent(&cluster).unwrap();
    }
}

#[test]
fn customer_needs_no_auxiliary_relation() {
    // §3.3: "As the customer relation was partitioned on the [join]
    // attribute, it required no auxiliary relation."
    let (mut cluster, _) = setup(2);
    let _view = MaintainedView::create(
        &mut cluster,
        TpcrDataset::jv1(),
        MaintenanceMethod::AuxiliaryRelation,
    )
    .unwrap();
    let ar_names: Vec<String> = cluster
        .catalog()
        .ids()
        .map(|id| cluster.def(id).unwrap().name.clone())
        .filter(|n| n.contains("__ar_"))
        .collect();
    assert_eq!(ar_names.len(), 1, "only orders gets an AR: {ar_names:?}");
    assert!(ar_names[0].contains("orders"));
}

#[test]
fn ar_speedup_over_naive_grows_with_nodes() {
    // The Figure 13 / 14 trend, measured on the engine: speedup of AR
    // over naive (busiest-node compute I/Os) increases with L.
    let mut speedups = Vec::new();
    for l in [2usize, 4, 8] {
        let measure = |method| {
            let (mut cluster, dataset) = setup(l);
            let mut view =
                MaintainedView::create(&mut cluster, TpcrDataset::jv1(), method).unwrap();
            let out = view
                .apply(
                    &mut cluster,
                    0,
                    &Delta::Insert(dataset.customer_delta(DELTA)),
                )
                .unwrap();
            out.compute.response_time_io()
        };
        let naive = measure(MaintenanceMethod::Naive);
        let ar = measure(MaintenanceMethod::AuxiliaryRelation);
        assert!(naive > ar, "L={l}: naive {naive} must exceed AR {ar}");
        speedups.push(naive / ar.max(1.0));
    }
    assert!(
        speedups.windows(2).all(|w| w[1] > w[0]),
        "speedup must grow with L: {speedups:?}"
    );
}

#[test]
fn measured_speedups_match_model_predictions() {
    // Fig. 13 (predicted) vs Fig. 14 (measured): within 25% for JV1.
    for l in [2u64, 4, 8] {
        let predicted = predict_chain(DELTA, l, &[ChainStep::new(1.0)]).speedup();
        let measure = |method| {
            let (mut cluster, dataset) = setup(l as usize);
            let mut view =
                MaintainedView::create(&mut cluster, TpcrDataset::jv1(), method).unwrap();
            let out = view
                .apply(
                    &mut cluster,
                    0,
                    &Delta::Insert(dataset.customer_delta(DELTA)),
                )
                .unwrap();
            out.compute.response_time_io()
        };
        let measured = measure(MaintenanceMethod::Naive)
            / measure(MaintenanceMethod::AuxiliaryRelation).max(1.0);
        let ratio = measured / predicted;
        assert!(
            (0.75..=1.34).contains(&ratio),
            "L={l}: measured {measured:.2} vs predicted {predicted:.2}"
        );
    }
}

#[test]
fn naive_is_all_node_ar_is_single_node_per_step() {
    let l = 8;
    let (mut cluster, dataset) = setup(l);
    let mut naive =
        MaintainedView::create(&mut cluster, TpcrDataset::jv1(), MaintenanceMethod::Naive).unwrap();
    let one = Delta::Insert(dataset.customer_delta(1));
    let out = naive.apply(&mut cluster, 0, &one).unwrap();
    assert_eq!(out.compute_active_nodes(), l, "naive probes every node");

    let (mut cluster, dataset) = setup(l);
    let mut ar = MaintainedView::create(
        &mut cluster,
        TpcrDataset::jv1(),
        MaintenanceMethod::AuxiliaryRelation,
    )
    .unwrap();
    let out = ar
        .apply(&mut cluster, 0, &Delta::Insert(dataset.customer_delta(1)))
        .unwrap();
    assert_eq!(out.compute_active_nodes(), 1, "AR probes a single node");
}

#[test]
fn orders_updates_also_maintained() {
    // The §2.1 symmetric case: updates to the non-customer relation.
    for m in methods() {
        let (mut cluster, _) = setup(3);
        let mut view = MaintainedView::create(&mut cluster, TpcrDataset::jv1(), m).unwrap();
        // New order for customer 5 (which already has one) → +1 join row.
        let out = view
            .apply(&mut cluster, 1, &Delta::insert_one(row![900_000, 5, 42.0]))
            .unwrap();
        assert_eq!(out.view_rows, 1, "{m:?}");
        view.check_consistent(&cluster).unwrap();
        // Delete it again.
        let out = view
            .apply(
                &mut cluster,
                1,
                &Delta::Delete(vec![row![900_000, 5, 42.0]]),
            )
            .unwrap();
        assert_eq!(out.view_rows, 1, "{m:?}");
        view.check_consistent(&cluster).unwrap();
    }
}

#[test]
fn lineitem_updates_propagate_through_jv2() {
    for m in methods() {
        let (mut cluster, _) = setup(3);
        let mut view = MaintainedView::create(&mut cluster, TpcrDataset::jv2(), m).unwrap();
        // A fifth lineitem for order 7 (customer 7 exists) → +1 join row.
        let out = view
            .apply(
                &mut cluster,
                2,
                &Delta::insert_one(row![7, 1, 1, 10.0, 0.05]),
            )
            .unwrap();
        assert_eq!(out.view_rows, 1, "{m:?}");
        view.check_consistent(&cluster).unwrap();
    }
}

#[test]
fn view_tables_build_no_statistics_or_locator() {
    // Storage bookkeeping exists only where something reads it: the
    // view's stored table is deleted from through its partition-column
    // index and nothing asks for its statistics, so after insert, update
    // and delete batches it has built neither; a base table hit by an
    // unhinted by-value delete has built its row locator.
    for m in methods() {
        let (mut cluster, dataset) = setup(3);
        let mut view = MaintainedView::create(&mut cluster, TpcrDataset::jv1(), m).unwrap();
        let delta = dataset.customer_delta(16);
        view.apply(&mut cluster, 0, &Delta::Insert(delta.clone()))
            .unwrap();
        // Reprice orders 0..8 (customers 0..8 match them).
        let old: Vec<Row> = (0..8i64)
            .map(|o| row![o, o, (o % 100_000) as f64 / 10.0])
            .collect();
        let new: Vec<Row> = (0..8i64).map(|o| row![o, o, 1.5]).collect();
        view.apply(&mut cluster, 1, &Delta::Update { old, new })
            .unwrap();
        view.apply(&mut cluster, 0, &Delta::Delete(delta[..8].to_vec()))
            .unwrap();
        view.check_consistent(&cluster).unwrap();

        let stored = view.view_table();
        let arity = cluster.def(stored).unwrap().schema.arity();
        for node in cluster.nodes() {
            let t = node.storage(stored).unwrap();
            assert!(!t.has_locator(), "{m:?}: view table built a locator");
            assert!(
                (0..arity).all(|c| !t.stats().is_tracked(c)),
                "{m:?}: view table tracks a column"
            );
        }
        for (rel, doomed) in [("customer", &delta[0]), ("orders", &row![0, 0, 1.5])] {
            let table = cluster.table_id(rel).unwrap();
            let home = cluster.route(table, doomed).unwrap();
            assert!(
                cluster
                    .node(home)
                    .unwrap()
                    .storage(table)
                    .unwrap()
                    .has_locator(),
                "{m:?}: {rel} at {home} located deletes without a locator"
            );
        }
    }
}
