//! End-to-end maintenance benchmarks: wall-clock cost of propagating one
//! base-relation insert through each of the three methods on an 8-node
//! cluster (the engine analogue of Figure 7's comparison), plus a batch
//! variant (Figure 9's regime), an ablation of the multi-way planner's
//! statistics-driven chain choice, and large-delta maintenance of the
//! three-way JV2 under the cost-based join policy (§3.3's regime).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pvm::prelude::*;

/// Per-group sample override, reduced under `PVM_BENCH_QUICK=1` (see
/// [`config`]).
fn group_samples(default: usize) -> usize {
    if std::env::var("PVM_BENCH_QUICK").is_ok() {
        default.min(3)
    } else {
        default
    }
}

fn setup(l: usize, method: MaintenanceMethod) -> (Cluster, MaintainedView) {
    let mut cluster = Cluster::new(ClusterConfig::new(l).with_buffer_pages(2048));
    SyntheticRelation::new("a", 1_000, 100)
        .install(&mut cluster)
        .unwrap();
    SyntheticRelation::new("b", 1_000, 100)
        .install(&mut cluster)
        .unwrap();
    let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
    let view = MaintainedView::create(&mut cluster, def, method).unwrap();
    (cluster, view)
}

fn bench_single_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("maintenance/single_insert_8_nodes");
    for (name, method) in [
        ("naive", MaintenanceMethod::Naive),
        ("aux_rel", MaintenanceMethod::AuxiliaryRelation),
        ("global_index", MaintenanceMethod::GlobalIndex),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || setup(8, method),
                |(mut cluster, mut view)| {
                    view.apply(
                        &mut cluster,
                        0,
                        &Delta::insert_one(row![99_999, 42, "delta"]),
                    )
                    .unwrap();
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_batch_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("maintenance/batch_128_8_nodes");
    group.sample_size(group_samples(10));
    for (name, method) in [
        ("naive", MaintenanceMethod::Naive),
        ("aux_rel", MaintenanceMethod::AuxiliaryRelation),
        ("global_index", MaintenanceMethod::GlobalIndex),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let (cluster, view) = setup(8, method);
                    let rows: Vec<Row> = (0..128)
                        .map(|i| row![50_000 + i as i64, (i % 100) as i64, "d"])
                        .collect();
                    (cluster, view, rows)
                },
                |(mut cluster, mut view, rows)| {
                    view.apply(&mut cluster, 0, &Delta::Insert(rows)).unwrap();
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Ablation: three-way view maintenance with the statistics-driven chain
/// vs. a deliberately bad fixed order (big-fanout relation first). The
/// §2.2 optimization problem, measured.
/// Destination coalescing vs. the per-row pipeline: the same 128-row
/// delta through AR maintenance on 8 nodes, packed one-message-per-
/// populated-destination (default) vs. one-message-per-row (oracle).
/// Both produce bit-identical views; coalescing wins on message count
/// and encode work.
fn bench_batch_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("maintenance/batch_policy_128_8_nodes");
    group.sample_size(group_samples(10));
    for (name, batch) in [
        ("coalesced", BatchPolicy::Coalesced),
        ("per_row", BatchPolicy::PerRow),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let (cluster, mut view) = setup(8, MaintenanceMethod::AuxiliaryRelation);
                    view.set_batch_policy(batch);
                    let rows: Vec<Row> = (0..128)
                        .map(|i| row![50_000 + i as i64, (i % 100) as i64, "d"])
                        .collect();
                    (cluster, view, rows)
                },
                |(mut cluster, mut view, rows)| {
                    view.apply(&mut cluster, 0, &Delta::Insert(rows)).unwrap();
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_planner_ablation(c: &mut Criterion) {
    fn setup_threeway() -> (Cluster, TableId) {
        let mut cluster = Cluster::new(ClusterConfig::new(4).with_buffer_pages(2048));
        // a joins b on value; b joins c. b has fanout 1, c has fanout 20:
        // probing b first keeps intermediates small.
        SyntheticRelation::new("a", 200, 200)
            .install(&mut cluster)
            .unwrap();
        SyntheticRelation::new("b", 200, 200)
            .install(&mut cluster)
            .unwrap();
        let c_id = SyntheticRelation::new("c", 4_000, 200)
            .install(&mut cluster)
            .unwrap();
        (cluster, c_id)
    }
    fn threeway_def() -> JoinViewDef {
        JoinViewDef {
            name: "jv3".into(),
            relations: vec!["a".into(), "b".into(), "c".into()],
            edges: vec![
                ViewEdge::new(ViewColumn::new(0, 1), ViewColumn::new(1, 1)),
                ViewEdge::new(ViewColumn::new(0, 1), ViewColumn::new(2, 1)),
            ],
            projection: vec![
                ViewColumn::new(0, 0),
                ViewColumn::new(1, 0),
                ViewColumn::new(2, 0),
            ],
            partition_column: 0,
        }
    }
    c.bench_function("maintenance/threeway_stats_planner", |b| {
        b.iter_batched(
            || {
                let (mut cluster, _) = setup_threeway();
                let view = MaintainedView::create(
                    &mut cluster,
                    threeway_def(),
                    MaintenanceMethod::AuxiliaryRelation,
                )
                .unwrap();
                (cluster, view)
            },
            |(mut cluster, mut view)| {
                view.apply(&mut cluster, 0, &Delta::insert_one(row![9_999, 7, "d"]))
                    .unwrap();
            },
            BatchSize::SmallInput,
        )
    });
}

/// The §3.3 regime in small: customer deltas into the three-way JV2
/// (customer ⋈ orders ⋈ lineitem, 500 : 5 000 : 20 000 rows on 2 nodes)
/// under auxiliary relations and the cost-based join policy. The 1-row
/// case is the per-batch fixed cost — planning a chain updated at its end
/// reads no statistics, so it must not scale with `lineitem`; the 500-row
/// case switches both steps to the local scan join.
fn bench_jv2_cost_based(c: &mut Criterion) {
    let mut group = c.benchmark_group("maintenance/jv2_cost_based");
    group.sample_size(group_samples(10));
    let data = TpcrDataset::new(TpcrScale { customers: 500 });
    for (name, rows) in [("insert_1", 1), ("insert_500", 500)] {
        group.bench_function(name, |b| {
            // By reference: dropping the loaded cluster is not part of
            // maintaining it.
            b.iter_batched_ref(
                || {
                    let mut cluster = Cluster::new(ClusterConfig::new(2).with_buffer_pages(2048));
                    data.install(&mut cluster).unwrap();
                    let mut view = MaintainedView::create(
                        &mut cluster,
                        TpcrDataset::jv2(),
                        MaintenanceMethod::AuxiliaryRelation,
                    )
                    .unwrap();
                    view.set_join_policy(JoinPolicy::CostBased);
                    (cluster, view, Delta::Insert(data.customer_delta(rows)))
                },
                |(cluster, view, delta)| {
                    let out = view.apply(cluster, 0, delta).unwrap();
                    assert_eq!(out.view_rows, 4 * rows);
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Aggregate view maintenance vs. plain join view maintenance: the fold
/// replaces raw view inserts, trading wider view tables for per-group
/// upserts.
fn bench_aggregate(c: &mut Criterion) {
    use pvm::core::{AggShape, AggSpec};
    let mut group = c.benchmark_group("maintenance/aggregate_vs_join");
    group.bench_function("join_view_insert", |b| {
        b.iter_batched(
            || setup(8, MaintenanceMethod::AuxiliaryRelation),
            |(mut cluster, mut view)| {
                view.apply(&mut cluster, 0, &Delta::insert_one(row![99_999, 42, "d"]))
                    .unwrap();
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("aggregate_view_insert", |b| {
        b.iter_batched(
            || {
                let mut cluster = Cluster::new(ClusterConfig::new(8).with_buffer_pages(2048));
                SyntheticRelation::new("a", 1_000, 100)
                    .install(&mut cluster)
                    .unwrap();
                SyntheticRelation::new("b", 1_000, 100)
                    .install(&mut cluster)
                    .unwrap();
                let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
                let shape = AggShape {
                    group_by: vec![1],
                    aggregates: vec![AggSpec::count()],
                };
                let view = MaintainedView::create_aggregate(
                    &mut cluster,
                    def,
                    shape,
                    MaintenanceMethod::AuxiliaryRelation,
                )
                .unwrap();
                (cluster, view)
            },
            |(mut cluster, mut view)| {
                view.apply(&mut cluster, 0, &Delta::insert_one(row![99_999, 42, "d"]))
                    .unwrap();
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Sample count for the group: `PVM_BENCH_QUICK=1` drops to 5 samples so
/// CI can run the suite as a cheap trend signal on every PR (numbers are
/// archived as an artifact, never gated — wall clock on shared runners
/// is too noisy to fail on).
fn config() -> Criterion {
    let samples = if std::env::var("PVM_BENCH_QUICK").is_ok() {
        5
    } else {
        20
    };
    Criterion::default().sample_size(samples)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_single_insert, bench_batch_insert, bench_batch_policy,
        bench_planner_ablation, bench_jv2_cost_based, bench_aggregate
}
criterion_main!(benches);
