//! Storage-overhead accounting and §2.1.2 minimization: σπ-reduced
//! auxiliary relations, the naive < GI < AR space hierarchy, and
//! cross-view AR sharing.

use pvm::core::minimize::{ar_requirements, columns_saved, keep_columns, merge_requirements};
use pvm::prelude::*;

/// Wide base relations so projection matters: 8 columns, the view needs 3.
fn wide_schema() -> Schema {
    Schema::new(vec![
        Column::int("id"),
        Column::int("j"),
        Column::str("c2"),
        Column::str("c3"),
        Column::str("c4"),
        Column::str("c5"),
        Column::str("c6"),
        Column::str("c7"),
    ])
}

fn wide_row(i: i64) -> Row {
    row![
        i,
        i % 10,
        "x".repeat(40),
        "x".repeat(40),
        "x".repeat(40),
        "x".repeat(40),
        "x".repeat(40),
        "x".repeat(40)
    ]
}

fn setup(l: usize) -> Cluster {
    let mut cluster = Cluster::new(ClusterConfig::new(l).with_buffer_pages(1024));
    for name in ["a", "b"] {
        cluster
            .create_table(TableDef::hash_heap(name, wide_schema().into_ref(), 0))
            .unwrap();
    }
    for name in ["a", "b"] {
        let id = cluster.table_id(name).unwrap();
        cluster
            .insert(id, (0..400).map(wide_row).collect())
            .unwrap();
    }
    cluster
}

/// JV keeping only (a.id, a.j, b.id).
fn narrow_def() -> JoinViewDef {
    JoinViewDef {
        name: "jv".into(),
        relations: vec!["a".into(), "b".into()],
        edges: vec![ViewEdge::new(ViewColumn::new(0, 1), ViewColumn::new(1, 1))],
        projection: vec![
            ViewColumn::new(0, 0),
            ViewColumn::new(0, 1),
            ViewColumn::new(1, 0),
        ],
        partition_column: 0,
    }
}

#[test]
fn sigma_pi_reduction_shrinks_ars() {
    // keep_columns keeps only {id, j} per relation out of 8 columns…
    let def = narrow_def();
    assert_eq!(keep_columns(&def, 0), vec![0, 1]);
    assert_eq!(keep_columns(&def, 1), vec![0, 1]);

    // …and the materialized AR is therefore much smaller than the base.
    let mut cluster = setup(2);
    let view =
        MaintainedView::create(&mut cluster, def, MaintenanceMethod::AuxiliaryRelation).unwrap();
    let base_pages = cluster.heap_pages(cluster.table_id("a").unwrap()).unwrap()
        + cluster.heap_pages(cluster.table_id("b").unwrap()).unwrap();
    let ar_pages = view.storage_overhead_pages(&cluster).unwrap();
    assert!(
        ar_pages * 3 < base_pages,
        "σπ ARs ({ar_pages} pages) must be far below full copies ({base_pages} pages)"
    );
    // And the reduced ARs still maintain correctly.
    let _ = view;
}

#[test]
fn reduced_ars_still_maintain_correctly() {
    let mut cluster = setup(3);
    let mut view = MaintainedView::create(
        &mut cluster,
        narrow_def(),
        MaintenanceMethod::AuxiliaryRelation,
    )
    .unwrap();
    view.apply(&mut cluster, 0, &Delta::insert_one(wide_row(10_000)))
        .unwrap();
    view.check_consistent(&cluster).unwrap();
    view.apply(&mut cluster, 1, &Delta::Delete(vec![wide_row(0)]))
        .unwrap();
    view.check_consistent(&cluster).unwrap();
}

#[test]
fn space_hierarchy_naive_gi_ar() {
    let mut overhead = std::collections::HashMap::new();
    for m in [
        MaintenanceMethod::Naive,
        MaintenanceMethod::GlobalIndex,
        MaintenanceMethod::AuxiliaryRelation,
    ] {
        let mut cluster = setup(2);
        // Full-width projection so AR copies are big.
        let mut def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 8, 8);
        def.partition_column = 0;
        let view = MaintainedView::create(&mut cluster, def, m).unwrap();
        overhead.insert(m.label(), view.storage_overhead_pages(&cluster).unwrap());
    }
    let naive = overhead["naive"];
    let gi = overhead["global index"];
    let ar = overhead["auxiliary relation"];
    assert_eq!(naive, 0);
    assert!(gi > 0, "GI stores entries: {gi}");
    assert!(ar > gi, "AR ({ar} pages) must exceed GI ({gi} pages)");
}

#[test]
fn cross_view_sharing_merges_requirements() {
    // Two views on the same base relation `a`, same join attribute,
    // different projected columns → one merged AR with the union.
    let jv1 = narrow_def();
    let mut jv2 = narrow_def();
    jv2.name = "jv2".into();
    jv2.projection = vec![
        ViewColumn::new(0, 0),
        ViewColumn::new(0, 3),
        ViewColumn::new(1, 0),
    ];

    let mut reqs = ar_requirements(&jv1, |_, _| false);
    reqs.extend(ar_requirements(&jv2, |_, _| false));
    let a_before: Vec<_> = reqs.iter().filter(|r| r.base == "a").collect();
    assert_eq!(a_before.len(), 2);

    let merged = merge_requirements(&reqs);
    let a_after: Vec<_> = merged.iter().filter(|r| r.base == "a").collect();
    assert_eq!(a_after.len(), 1);
    // jv1 keeps {0,1}; jv2 keeps {0,1,3} (join attr 1 + projected 0,3).
    assert_eq!(a_after[0].keep, vec![0, 1, 3]);
    assert!(columns_saved(&reqs) > 0);
}

#[test]
fn overhead_reported_per_view() {
    // Two AR views coexist; each reports only its own structures.
    let mut cluster = setup(2);
    let v1 = MaintainedView::create(
        &mut cluster,
        narrow_def(),
        MaintenanceMethod::AuxiliaryRelation,
    )
    .unwrap();
    let mut def2 = JoinViewDef::two_way("jv_full", "a", "b", 1, 1, 8, 8);
    def2.partition_column = 0;
    let v2 =
        MaintainedView::create(&mut cluster, def2, MaintenanceMethod::AuxiliaryRelation).unwrap();
    let o1 = v1.storage_overhead_pages(&cluster).unwrap();
    let o2 = v2.storage_overhead_pages(&cluster).unwrap();
    assert!(
        o1 < o2,
        "narrow view's ARs ({o1}) smaller than full-width view's ({o2})"
    );
}

#[test]
fn pooled_ars_are_created_once_and_merged() {
    // Two views needing ARs of `a` on the same attribute with different
    // projections → the pool materializes ONE merged AR per (base, attr).
    let mut cluster = setup(2);
    let jv1 = narrow_def();
    let mut jv2 = narrow_def();
    jv2.name = "jv2".into();
    jv2.projection = vec![
        ViewColumn::new(0, 0),
        ViewColumn::new(0, 3),
        ViewColumn::new(1, 0),
    ];

    let mut catalog = SharedCatalog::new();
    catalog.ars.enroll(&mut cluster, &jv1).unwrap();
    // jv2 widens a's AR; b's is already there.
    let changed = catalog.ars.enroll(&mut cluster, &jv2).unwrap();
    assert_eq!(changed, vec![("a".to_string(), 1)]);

    let ar_tables: Vec<String> = cluster
        .catalog()
        .ids()
        .map(|id| cluster.def(id).unwrap().name.clone())
        .filter(|n| n.starts_with("pool__ar_"))
        .collect();
    assert_eq!(
        ar_tables.len(),
        2,
        "exactly one shared AR per (base, attr): {ar_tables:?}"
    );
    // a needs {0,1} ∪ {0,1,3} = {0,1,3}; b needs {0,1} for both.
    let kept = |name: &str| -> Vec<String> {
        let id = cluster.table_id(name).unwrap();
        let schema = &cluster.def(id).unwrap().schema;
        schema.columns().iter().map(|c| c.name.clone()).collect()
    };
    assert_eq!(kept("pool__ar_a_1"), ["id", "j", "c3"]);
    assert_eq!(kept("pool__ar_b_1"), ["id", "j"]);

    // Views bind to the pool; no private __ar_ tables appear.
    let ar = MaintenanceMethod::AuxiliaryRelation;
    let v1 = MaintainedView::create_pooled(&mut cluster, jv1, ar, &catalog).unwrap();
    let v2 = MaintainedView::create_pooled(&mut cluster, jv2, ar, &catalog).unwrap();
    let private = cluster
        .catalog()
        .ids()
        .filter(|&id| cluster.def(id).unwrap().name.contains("__ar_"))
        .filter(|&id| !cluster.def(id).unwrap().name.starts_with("pool__"))
        .count();
    assert_eq!(private, 0);
    let _ = (v1, v2);
}

#[test]
fn pooled_maintenance_updates_each_ar_once_and_stays_consistent() {
    let mut cluster = setup(3);
    let jv1 = narrow_def();
    let mut jv2 = narrow_def();
    jv2.name = "jv2".into();
    jv2.projection = vec![
        ViewColumn::new(0, 0),
        ViewColumn::new(0, 3),
        ViewColumn::new(1, 0),
    ];

    let mut catalog = SharedCatalog::new();
    catalog.ars.enroll(&mut cluster, &jv1).unwrap();
    catalog.ars.enroll(&mut cluster, &jv2).unwrap();
    let ar = MaintenanceMethod::AuxiliaryRelation;
    let mut v1 = MaintainedView::create_pooled(&mut cluster, jv1, ar, &catalog).unwrap();
    let mut v2 = MaintainedView::create_pooled(&mut cluster, jv2, ar, &catalog).unwrap();

    // One base insert, both views maintained, the shared AR updated once:
    // aux phase charges exactly ONE INSERT (2 I/Os) total.
    let outcomes = maintain(
        &mut cluster,
        Some(&catalog),
        &mut [&mut v1, &mut v2],
        "a",
        &Delta::insert_one(wide_row(10_000)),
    )
    .unwrap();
    let aux_inserts: u64 = outcomes.iter().map(|o| o.aux.total().inserts).sum();
    assert_eq!(aux_inserts, 1, "shared AR updated once, not once per view");
    v1.check_consistent(&cluster).unwrap();
    v2.check_consistent(&cluster).unwrap();

    // Deletes flow through the shared AR too.
    maintain(
        &mut cluster,
        Some(&catalog),
        &mut [&mut v1, &mut v2],
        "a",
        &Delta::Delete(vec![wide_row(10_000)]),
    )
    .unwrap();
    v1.check_consistent(&cluster).unwrap();
    v2.check_consistent(&cluster).unwrap();
}

#[test]
fn pooled_storage_beats_private_storage() {
    // The §2.1.2 claim, measured: pooled ARs occupy fewer pages than the
    // two views' private ARs combined.
    let jv1 = narrow_def();
    let mut jv2 = narrow_def();
    jv2.name = "jv2".into();
    jv2.projection = vec![
        ViewColumn::new(0, 0),
        ViewColumn::new(0, 3),
        ViewColumn::new(1, 0),
    ];

    // Private ARs.
    let mut c_private = setup(2);
    let p1 = MaintainedView::create(
        &mut c_private,
        jv1.clone(),
        MaintenanceMethod::AuxiliaryRelation,
    )
    .unwrap();
    let p2 = MaintainedView::create(
        &mut c_private,
        jv2.clone(),
        MaintenanceMethod::AuxiliaryRelation,
    )
    .unwrap();
    let private_pages = p1.storage_overhead_pages(&c_private).unwrap()
        + p2.storage_overhead_pages(&c_private).unwrap();

    // Pooled ARs.
    let mut c_pool = setup(2);
    let mut catalog = SharedCatalog::new();
    catalog.ars.enroll(&mut c_pool, &jv1).unwrap();
    catalog.ars.enroll(&mut c_pool, &jv2).unwrap();
    let pooled_pages = catalog.storage_pages(&c_pool).unwrap();

    assert!(
        pooled_pages < private_pages,
        "pooled {pooled_pages} pages must beat private {private_pages}"
    );
}

#[test]
fn pool_lifecycle_errors() {
    let mut cluster = setup(2);
    let mut catalog = SharedCatalog::new();
    let ar = MaintenanceMethod::AuxiliaryRelation;
    // Views cannot bind before enrollment.
    assert!(MaintainedView::create_pooled(&mut cluster, narrow_def(), ar, &catalog).is_err());
    catalog.ars.enroll(&mut cluster, &narrow_def()).unwrap();
    assert!(MaintainedView::create_pooled(&mut cluster, narrow_def(), ar, &catalog).is_ok());
    // A view the pool never saw fails to bind.
    let mut other = JoinViewDef::two_way("other", "a", "b", 2, 2, 8, 8);
    other.partition_column = 0;
    // join on column 2 (STR) — needs an AR on attr 2, absent from pool.
    assert!(MaintainedView::create_pooled(&mut cluster, other, ar, &catalog).is_err());
}

#[test]
fn gi_entries_track_base_cardinality() {
    // GI space grows with base rows, not base width: doubling the rows
    // roughly doubles GI pages.
    let overhead_at = |rows: i64| {
        let mut cluster = Cluster::new(ClusterConfig::new(2).with_buffer_pages(1024));
        for name in ["a", "b"] {
            cluster
                .create_table(TableDef::hash_heap(name, wide_schema().into_ref(), 0))
                .unwrap();
        }
        for name in ["a", "b"] {
            let id = cluster.table_id(name).unwrap();
            cluster
                .insert(id, (0..rows).map(wide_row).collect())
                .unwrap();
        }
        let view =
            MaintainedView::create(&mut cluster, narrow_def(), MaintenanceMethod::GlobalIndex)
                .unwrap();
        view.storage_overhead_pages(&cluster).unwrap() as f64
    };
    let small = overhead_at(2_000);
    let big = overhead_at(4_000);
    let ratio = big / small;
    assert!(
        (1.5..=2.6).contains(&ratio),
        "GI pages should ≈ double: {small} → {big}"
    );
}
