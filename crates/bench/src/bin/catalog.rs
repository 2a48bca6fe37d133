//! `catalog`: probe-once shared maintenance vs N independent views.
//!
//! §2.1.2 notes that real catalogs hold many views over the same join
//! graph, differing only in projection. This bin sweeps the catalog size
//! N and maintains the same delta stream two ways:
//!
//! - **independent**: N plain AR views, `maintain` with no catalog — the route →
//!   probe → ship chain runs once *per view*, so per-delta SEARCH and
//!   SEND grow linearly with N;
//! - **shared**: the same N views bound to one [`SharedCatalog`] pool,
//!   `maintain` with the catalog — one signature group, the chain runs **once**,
//!   and the group ship stage multicasts each joined partial to the
//!   union of member home nodes (bounded by L, not N).
//!
//! Every member's final contents are hash-compared against its
//! independent twin — bit-identical rows, or the bin aborts. Counted
//! costs are deterministic, so CI reruns the quick sweep and gates the
//! savings ratios against the committed `BENCH_catalog.json` (the
//! committed file is a full sweep; quick-mode points are a subset and
//! their values are N-local, so they match exactly).
//!
//! `PVM_BENCH_QUICK=1` shrinks the sweep to N <= 10 for CI.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use pvm::prelude::*;
use pvm_bench::{header, series_labels, series_row, BenchArgs, BenchJson};

const L: usize = 4;
/// Rows in the delta-side relation `a` and probe-side relation `b`.
const A_ROWS: i64 = 200;
const B_ROWS: i64 = 500;
/// Distinct join values — each delta tuple matches `B_ROWS / DOMAIN`.
const DOMAIN: i64 = 50;

fn setup() -> Cluster {
    let mut cluster = Cluster::new(ClusterConfig::new(L).with_buffer_pages(8192));
    let schema = |c: &str| {
        Schema::new(vec![
            Column::int(c),
            Column::int("j"),
            Column::str("p"),
        ])
        .into_ref()
    };
    let a = cluster
        .create_table(TableDef::hash_heap("a", schema("a"), 0))
        .unwrap();
    let b = cluster
        .create_table(TableDef::hash_heap("b", schema("b"), 0))
        .unwrap();
    cluster
        .insert(
            a,
            (0..A_ROWS).map(|i| row![i, i % DOMAIN, "a"]).collect(),
        )
        .unwrap();
    cluster
        .insert(
            b,
            (0..B_ROWS).map(|i| row![i, i % DOMAIN, "b"]).collect(),
        )
        .unwrap();
    cluster
}

/// N views over the same join graph (`a.j = b.j`), cycling through three
/// projection shapes — including one partitioned on a `b` column, so the
/// group ship stage genuinely fans partials to several home nodes.
fn defs(n: usize) -> Vec<JoinViewDef> {
    (0..n)
        .map(|i| {
            let projection = match i % 3 {
                0 => (0..3)
                    .map(|c| ViewColumn::new(0, c))
                    .chain((0..3).map(|c| ViewColumn::new(1, c)))
                    .collect(),
                1 => vec![
                    ViewColumn::new(0, 0),
                    ViewColumn::new(0, 1),
                    ViewColumn::new(1, 2),
                ],
                _ => vec![ViewColumn::new(1, 0), ViewColumn::new(0, 0)],
            };
            JoinViewDef {
                name: format!("jv{i}"),
                relations: vec!["a".into(), "b".into()],
                edges: vec![ViewEdge::new(ViewColumn::new(0, 1), ViewColumn::new(1, 1))],
                projection,
                partition_column: 0,
            }
        })
        .collect()
}

/// The measured delta stream: inserts, a delete, and an update, touching
/// both relations.
fn deltas() -> Vec<(&'static str, Delta)> {
    vec![
        (
            "a",
            Delta::Insert((0..8).map(|i| row![1_000 + i, i % DOMAIN, "na"]).collect()),
        ),
        (
            "b",
            Delta::Insert((0..4).map(|i| row![2_000 + i, i % DOMAIN, "nb"]).collect()),
        ),
        ("a", Delta::Delete(vec![row![0, 0, "a"], row![1, 1, "a"]])),
        (
            "b",
            Delta::Update {
                old: vec![row![2, 2, "b"]],
                new: vec![row![2, 7, "b"]],
            },
        ),
    ]
}

/// Sum probe SEARCHes and ship SENDs — the compute phase, which is what
/// probe-once shares. (The base, structure, and view-apply phases are
/// excluded: writing N physical view tables is inherently linear in N on
/// both paths, and base/pool updates are shared by `maintain` either
/// way.)
fn probe_ship(outs: &[MaintenanceOutcome]) -> (u64, u64) {
    let (mut searches, mut sends) = (0, 0);
    for o in outs {
        searches += o.compute.total().searches;
        sends += o.compute.sends();
    }
    (searches, sends)
}

fn contents_hash(cluster: &Cluster, view: &MaintainedView) -> u64 {
    let mut rows = view.contents(cluster).unwrap();
    rows.sort();
    let mut h = DefaultHasher::new();
    rows.hash(&mut h);
    h.finish()
}

struct Point {
    n: usize,
    ind_searches: f64,
    ind_sends: f64,
    shared_searches: f64,
    shared_sends: f64,
}

fn measure(n: usize) -> Point {
    let rounds = deltas().len() as f64;

    let mut ind = setup();
    let mut ivs: Vec<MaintainedView> = defs(n)
        .into_iter()
        .map(|d| MaintainedView::create(&mut ind, d, MaintenanceMethod::AuxiliaryRelation).unwrap())
        .collect();
    let (mut ind_searches, mut ind_sends) = (0, 0);
    for (rel, delta) in deltas() {
        let mut refs: Vec<&mut MaintainedView> = ivs.iter_mut().collect();
        let outs = maintain(&mut ind, None, &mut refs, rel, &delta).unwrap();
        let (s, d) = probe_ship(&outs);
        ind_searches += s;
        ind_sends += d;
    }

    let mut shared = setup();
    let mut catalog = SharedCatalog::new();
    for def in &defs(n) {
        catalog.ars.enroll(&mut shared, def).unwrap();
    }
    let mut svs: Vec<MaintainedView> = defs(n)
        .into_iter()
        .map(|d| {
            let method = MaintenanceMethod::AuxiliaryRelation;
            MaintainedView::create_pooled(&mut shared, d, method, &catalog).unwrap()
        })
        .collect();
    {
        let refs: Vec<&mut MaintainedView> = svs.iter_mut().collect();
        let groups = plan_groups(&shared, &refs, "a").unwrap();
        let expect: Vec<Vec<usize>> = if n >= 2 { vec![(0..n).collect()] } else { vec![] };
        assert_eq!(groups, expect, "N={n}: one fully-shared group");
    }
    let (mut shared_searches, mut shared_sends) = (0, 0);
    for (rel, delta) in deltas() {
        let mut refs: Vec<&mut MaintainedView> = svs.iter_mut().collect();
        let outs = maintain(&mut shared, Some(&catalog), &mut refs, rel, &delta).unwrap();
        let (s, d) = probe_ship(&outs);
        shared_searches += s;
        shared_sends += d;
    }

    for (i, (iv, sv)) in ivs.iter().zip(&svs).enumerate() {
        assert_eq!(
            contents_hash(&ind, iv),
            contents_hash(&shared, sv),
            "N={n}: member {i} contents diverged from the independent twin"
        );
        sv.check_consistent(&shared).unwrap();
    }

    Point {
        n,
        ind_searches: ind_searches as f64 / rounds,
        ind_sends: ind_sends as f64 / rounds,
        shared_searches: shared_searches as f64 / rounds,
        shared_sends: shared_sends as f64 / rounds,
    }
}

fn main() {
    let args = BenchArgs::parse();
    if args.run_trace("catalog", "three-method traced round, sequential backend", L, false) {
        return;
    }
    header(
        "catalog",
        &format!(
            "probe-once shared maintenance vs N independent AR views \
             (L = {L}, {} deltas/point, per-delta SEARCH and SEND)",
            deltas().len()
        ),
    );
    let sweep: Vec<usize> = if args.quick {
        vec![1, 2, 5, 10]
    } else {
        vec![1, 2, 5, 10, 25, 50, 100]
    };
    series_labels(
        "N",
        &["ind srch", "shr srch", "ind send", "shr send", "srch x", "send x"],
    );
    let mut points = Vec::new();
    for &n in &sweep {
        let p = measure(n);
        series_row(
            p.n,
            &[
                p.ind_searches,
                p.shared_searches,
                p.ind_sends,
                p.shared_sends,
                p.ind_searches / p.shared_searches,
                p.ind_sends / p.shared_sends,
            ],
        );
        points.push(p);
    }

    // The headline claim, enforced: the shared chain's probe bill is flat
    // in N (the chain runs once per group regardless of members), and its
    // send bill is bounded by the L-node destination union, not by N —
    // while the independent bills grow linearly.
    let two = points.iter().find(|p| p.n == 2).expect("N=2 point");
    let five = points.iter().find(|p| p.n == 5).expect("N=5 point");
    let last = points.last().expect("sweep is non-empty");
    assert!(
        last.shared_searches <= two.shared_searches * 1.05,
        "shared searches not flat: N=2 {} vs N={} {}",
        two.shared_searches,
        last.n,
        last.shared_searches
    );
    // Sends saturate once every projection shape (and so every distinct
    // home-node set) is represented — by N=5 here — because the multicast
    // destination union is bounded by L, not N.
    assert!(
        last.shared_sends <= five.shared_sends * 1.05,
        "shared sends not bounded: N=5 {} vs N={} {}",
        five.shared_sends,
        last.n,
        last.shared_sends
    );
    assert!(
        last.ind_searches / last.shared_searches >= last.n as f64 * 0.5,
        "probe-once savings below half-linear at N={}: {}x",
        last.n,
        last.ind_searches / last.shared_searches
    );

    let json_rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"n\": {}, \"ind_searches\": {:.1}, \"shared_searches\": {:.1}, \
                 \"ind_sends\": {:.1}, \"shared_sends\": {:.1}, \
                 \"search_ratio\": {:.2}, \"send_ratio\": {:.2}, \"match\": true}}",
                p.n,
                p.ind_searches,
                p.shared_searches,
                p.ind_sends,
                p.shared_sends,
                p.ind_searches / p.shared_searches,
                p.ind_sends / p.shared_sends,
            )
        })
        .collect();
    let out_path = BenchJson::new("catalog").rows("rows", &json_rows).write();
    println!(
        "\ncounted costs -> {} (all member contents hash-verified)",
        out_path.display()
    );
}
