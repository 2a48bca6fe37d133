//! Ablation (beyond the paper): what join-attribute **skew** does to the
//! three methods — and what heavy-light routing buys back.
//!
//! The analytical model assumes tuples "uniformly distributed on the join
//! attribute" (assumption 9). Under Zipf-skewed update streams, the AR
//! and GI methods concentrate their routed work on the hot values' home
//! nodes, while the naive method — which broadcasts everything anyway —
//! is insensitive. This harness measures, per method:
//!
//! * busiest-node compute I/Os (response time), and
//! * the imbalance ratio busiest/average across nodes,
//!
//! for uniform vs. Zipf(1.0) vs. Zipf(1.5) deltas. The `+hl` rows rerun
//! AR and GI with heavy-light skew handling enabled
//! ([`MaintainedView::enable_skew_handling`]): the traffic sketch classifies the
//! hot values, [`MaintainedView::rebalance`] spreads them (salted AR
//! rows, replicated GI entries), and the same delta is applied.
//!
//! Expected shape: naive's imbalance stays ≈ 1 regardless of skew; plain
//! AR and GI imbalance grows with the Zipf exponent; the heavy-light
//! variants pull it back toward 1 while keeping AR's single-digit
//! per-tuple I/O advantage. The run **asserts** the headline claim —
//! Zipf(1.5) imbalance at least halved for both methods — and writes the
//! counted (wall-clock-free) costs to `BENCH_skew.json` (in
//! `$PVM_BENCH_OUT`, default the working directory) for the CI regression
//! gate.
//!
//! Pass `--trace <path>` to instead run a compact traced round covering
//! all three maintenance methods on the sequential backend and write a
//! Chrome `trace_event` file plus a JSONL event dump and per-phase
//! metric summaries.

use pvm::prelude::*;
use pvm_bench::{header, series_labels, series_row, BenchArgs, BenchJson};

const L: usize = 8;
const DELTA: u64 = 256;
const DISTINCT: u64 = 64;

/// Counted costs of one maintenance run: busiest-node I/Os, the
/// busiest/average imbalance ratio, and total TW (aux + compute) I/Os.
struct Measured {
    io: f64,
    imb: f64,
    tw: f64,
}

fn measure(
    args: &BenchArgs,
    method: MaintenanceMethod,
    skew: Option<SkewConfig>,
    rows: &[Row],
) -> Measured {
    let mut cluster = Cluster::new(ClusterConfig::new(L).with_buffer_pages(2048));
    args.observe(&cluster);
    let a = SyntheticRelation::new("a", 100, 100);
    a.install(&mut cluster).unwrap();
    // The probed relation: hash-partitioned on id, locally clustered on
    // the join attribute (the paper's "distributed clustered" probe case
    // — one FETCH per probed node).
    let rel_b = SyntheticRelation::new("b", DISTINCT * 4, DISTINCT);
    let b = cluster
        .create_table(TableDef::new(
            "b",
            SyntheticRelation::schema().into_ref(),
            PartitionSpec::hash(0),
            Organization::Clustered {
                key: vec![SyntheticRelation::JOIN_COL],
            },
        ))
        .unwrap();
    cluster.insert(b, rel_b.rows()).unwrap();
    let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 3, 3);
    let mut view = match skew {
        None => MaintainedView::create(&mut cluster, def, method).unwrap(),
        Some(config) => {
            let mut v = MaintainedView::create(&mut cluster, def, method).unwrap();
            v.enable_skew_handling(&mut cluster, config).unwrap();
            // Train the sketch on the delta itself (the stream is what is
            // skewed here), freeze the heavy set, and migrate.
            v.train_skew(0, rows).unwrap();
            v.rebalance(&mut cluster).unwrap();
            v
        }
    };
    let out = view
        .apply(&mut cluster, 0, &Delta::Insert(rows.to_vec()))
        .unwrap();
    view.check_consistent(&cluster).unwrap();
    // Both phase reports cover the whole cluster; a silent zip-truncate
    // here would drop nodes from the imbalance metric.
    assert_eq!(
        out.compute.per_node.len(),
        out.aux.per_node.len(),
        "phase reports disagree on cluster size"
    );
    let per_node: Vec<f64> = out
        .compute
        .per_node
        .iter()
        .zip(&out.aux.per_node)
        .map(|(c, x)| {
            (c.searches + c.fetches + 2 * c.inserts + x.searches + x.fetches + 2 * x.inserts) as f64
        })
        .collect();
    let busiest = per_node.iter().cloned().fold(0.0, f64::max);
    let avg = per_node.iter().sum::<f64>() / per_node.len() as f64;
    if std::env::var("BENCH_SKEW_DEBUG").is_ok() {
        eprintln!("{method:?} skew={}: {per_node:?}", skew.is_some());
    }
    // Overwritten per run: the file left behind is the last
    // (method, distribution) combination's registry.
    args.dump(&cluster);
    Measured {
        io: busiest,
        imb: if avg > 0.0 { busiest / avg } else { 1.0 },
        tw: out.tw_io(),
    }
}

fn delta_rows(dist: &dyn Distribution, seed: u64) -> Vec<Row> {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..DELTA)
        .map(|i| row![(10_000 + i) as i64, dist.sample(&mut rng) as i64, "d"])
        .collect()
}

fn main() {
    let args = BenchArgs::parse();
    if args.run_trace("skew", "three-method traced round, sequential backend", L, false) {
        return;
    }
    header(
        "Skew ablation",
        &format!(
            "{DELTA}-tuple delta, L = {L}, {DISTINCT} join values, busiest-node I/Os and imbalance"
        ),
    );
    series_labels(
        "method",
        &[
            "uni io", "uni imb", "z1.0 io", "z1.0 imb", "z1.5 io", "z1.5 imb",
        ],
    );

    let dists: [(&str, Box<dyn Distribution>, u64); 3] = [
        ("uniform", Box::new(Uniform::new(DISTINCT)), 1),
        ("zipf1.0", Box::new(Zipf::new(DISTINCT, 1.0)), 2),
        ("zipf1.5", Box::new(Zipf::new(DISTINCT, 1.5)), 3),
    ];
    let deltas: Vec<(&str, Vec<Row>)> = dists
        .iter()
        .map(|(label, dist, seed)| (*label, delta_rows(dist.as_ref(), *seed)))
        .collect();

    let config = SkewConfig::default();
    let runs: [(&str, MaintenanceMethod, Option<SkewConfig>); 5] = [
        ("naive", MaintenanceMethod::Naive, None),
        ("aux-rel", MaintenanceMethod::AuxiliaryRelation, None),
        ("glob-ix", MaintenanceMethod::GlobalIndex, None),
        (
            "aux-rel+hl",
            MaintenanceMethod::AuxiliaryRelation,
            Some(config),
        ),
        ("glob-ix+hl", MaintenanceMethod::GlobalIndex, Some(config)),
    ];

    let mut json_rows = Vec::new();
    // (method label, dist label) → imbalance, for the headline assert.
    let mut imb = std::collections::HashMap::new();
    for (label, method, skew) in runs {
        let mut vals = Vec::new();
        for (dist_label, rows) in &deltas {
            let m = measure(&args, method, skew, rows);
            vals.push(m.io);
            vals.push(m.imb);
            imb.insert((label, *dist_label), m.imb);
            json_rows.push(format!(
                "{{\"method\": \"{label}\", \"dist\": \"{dist_label}\", \"io\": {:.1}, \"imb\": {:.3}, \"tw_io\": {:.1}}}",
                m.io, m.imb, m.tw
            ));
        }
        series_row(label, &vals);
    }

    // The headline claim, enforced: at Zipf 1.5 heavy-light routing at
    // least halves the busiest-node imbalance of both routed methods.
    for plain in ["aux-rel", "glob-ix"] {
        let before = imb[&(plain, "zipf1.5")];
        let after = imb[&(
            match plain {
                "aux-rel" => "aux-rel+hl",
                _ => "glob-ix+hl",
            },
            "zipf1.5",
        )];
        assert!(
            after <= before / 2.0,
            "{plain}: zipf1.5 imbalance {before:.2} only reduced to {after:.2} by heavy-light"
        );
    }

    let out_path = BenchJson::new("skew").rows("rows", &json_rows).write();
    println!(
        "\nnaive imbalance stays ≈ 1 (it broadcasts); plain AR/GI imbalance grows with skew;\n\
         the +hl rows spread the sketch-classified heavy values (salted AR rows, replicated\n\
         GI entries) and pull Zipf-1.5 imbalance back toward 1.\n\
         counted costs written to {}",
        out_path.display()
    );
}
