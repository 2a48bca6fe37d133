//! Maintenance-chain planning for multi-relation views (§2.2).
//!
//! When relation `u` of an n-ary view is updated, the delta must be joined
//! with the remaining `n−1` relations in *some* order — and as §2.2
//! observes, "there are many choices as to how to use the auxiliary
//! relations, and an optimization problem arises": for a three-way cyclic
//! view, four distinct AR chains can compute the same delta.
//!
//! [`plan_chain`] resolves the choice greedily using relation statistics:
//! at each step it picks, among relations joined to the already-covered
//! set, the one with the smallest expected fan-out (matches per
//! join-attribute value), keeping intermediate results small. Extra edges
//! that also connect the new relation to the covered set become filter
//! predicates.

use pvm_types::{PvmError, Result};

use crate::viewdef::{JoinViewDef, ViewColumn};

/// One step of a maintenance chain: probe `rel` on `probe_col` with the
/// value taken from `anchor` (a column of the already-joined partial);
/// `filters` are additional equality conditions from other edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// Relation joined at this step.
    pub rel: usize,
    /// Column of `rel` being probed (the join attribute).
    pub probe_col: usize,
    /// Column of the joined prefix supplying the probe value.
    pub anchor: ViewColumn,
    /// Additional `(prefix column, rel column)` equalities to enforce.
    pub filters: Vec<(ViewColumn, usize)>,
}

/// Plan the join chain for a delta on relation `updated`.
///
/// `fanout(rel, col)` estimates the matching tuples per probe value for
/// relation `rel` on column `col`, and the planner prefers small values.
/// It is consulted only at a step the join graph offers more than one
/// candidate for — a lone candidate is taken whatever its fan-out — so a
/// chain updated at its end is planned without reading any statistics.
/// Pass `|_, _| 1.0` when none are available (definition-order-ish
/// traversal).
pub fn plan_chain(
    def: &JoinViewDef,
    updated: usize,
    mut fanout: impl FnMut(usize, usize) -> f64,
) -> Result<Vec<PlanStep>> {
    let n = def.relation_count();
    if updated >= n {
        return Err(PvmError::InvalidReference(format!(
            "updated relation {updated} out of range for view '{}'",
            def.name
        )));
    }
    let mut covered = vec![false; n];
    covered[updated] = true;
    let mut steps = Vec::with_capacity(n - 1);

    while steps.len() < n - 1 {
        // Candidate (rel, probe_col, anchor) triples reachable from the
        // covered set, in edge order.
        let mut candidates = Vec::new();
        for e in &def.edges {
            for (from, to) in [(e.left, e.right), (e.right, e.left)] {
                if covered[from.rel] && !covered[to.rel] {
                    candidates.push((to.rel, to.col, from));
                }
            }
        }
        let (rel, probe_col, anchor) = match candidates[..] {
            [] => {
                return Err(PvmError::InvalidOperation(format!(
                    "join graph of view '{}' is disconnected",
                    def.name
                )))
            }
            [only] => only,
            // Smallest fan-out; ties go to the smallest (rel, col), then
            // to the earliest edge.
            _ => {
                let mut best: Option<(f64, (usize, usize, ViewColumn))> = None;
                for &c in &candidates {
                    let f = fanout(c.0, c.1);
                    let better = match best {
                        None => true,
                        Some((bf, b)) => f < bf || (f == bf && (c.0, c.1) < (b.0, b.1)),
                    };
                    if better {
                        best = Some((f, c));
                    }
                }
                best.expect("two or more candidates").1
            }
        };
        // Remaining edges that connect `rel` to the covered set become
        // filters.
        let mut filters = Vec::new();
        for e in &def.edges {
            for (from, to) in [(e.left, e.right), (e.right, e.left)] {
                if covered[from.rel] && to.rel == rel && !(from == anchor && to.col == probe_col) {
                    filters.push((from, to.col));
                }
            }
        }
        covered[rel] = true;
        steps.push(PlanStep {
            rel,
            probe_col,
            anchor,
            filters,
        });
    }
    Ok(steps)
}

/// All chains the planner could produce (used to expose the §2.2
/// optimization space in examples/benches): one plan per fan-out oracle in
/// `oracles`, deduplicated.
pub fn alternative_chains(
    def: &JoinViewDef,
    updated: usize,
    oracles: &[&dyn Fn(usize, usize) -> f64],
) -> Result<Vec<Vec<PlanStep>>> {
    let mut out: Vec<Vec<PlanStep>> = Vec::new();
    for o in oracles {
        let plan = plan_chain(def, updated, o)?;
        if !out.contains(&plan) {
            out.push(plan);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::viewdef::ViewEdge;

    /// A ⋈ B ⋈ C chain: A.0 = B.0, B.1 = C.0.
    fn chain_view() -> JoinViewDef {
        JoinViewDef {
            name: "jv".into(),
            relations: vec!["a".into(), "b".into(), "c".into()],
            edges: vec![
                ViewEdge::new(ViewColumn::new(0, 0), ViewColumn::new(1, 0)),
                ViewEdge::new(ViewColumn::new(1, 1), ViewColumn::new(2, 0)),
            ],
            projection: vec![ViewColumn::new(0, 0), ViewColumn::new(2, 0)],
            partition_column: 0,
        }
    }

    /// Cyclic triangle: A.0=B.0, B.1=C.0, C.1=A.1.
    fn triangle_view() -> JoinViewDef {
        JoinViewDef {
            name: "tri".into(),
            relations: vec!["a".into(), "b".into(), "c".into()],
            edges: vec![
                ViewEdge::new(ViewColumn::new(0, 0), ViewColumn::new(1, 0)),
                ViewEdge::new(ViewColumn::new(1, 1), ViewColumn::new(2, 0)),
                ViewEdge::new(ViewColumn::new(2, 1), ViewColumn::new(0, 1)),
            ],
            projection: vec![ViewColumn::new(0, 0)],
            partition_column: 0,
        }
    }

    /// The planner before it turned lazy, verbatim: every candidate's
    /// fan-out is asked for, at every step. The reference `plan_chain`
    /// must agree with on every join graph.
    fn plan_chain_eager(
        def: &JoinViewDef,
        updated: usize,
        mut fanout: impl FnMut(usize, usize) -> f64,
    ) -> Result<Vec<PlanStep>> {
        let n = def.relation_count();
        if updated >= n {
            return Err(PvmError::InvalidReference(format!(
                "updated relation {updated} out of range for view '{}'",
                def.name
            )));
        }
        let mut covered = vec![false; n];
        covered[updated] = true;
        let mut steps = Vec::with_capacity(n - 1);

        while steps.len() < n - 1 {
            let mut best: Option<(f64, usize, usize, ViewColumn)> = None;
            for e in &def.edges {
                for (from, to) in [(e.left, e.right), (e.right, e.left)] {
                    if covered[from.rel] && !covered[to.rel] {
                        let f = fanout(to.rel, to.col);
                        let better = match &best {
                            None => true,
                            Some((bf, brel, bcol, _)) => {
                                f < *bf || (f == *bf && (to.rel, to.col) < (*brel, *bcol))
                            }
                        };
                        if better {
                            best = Some((f, to.rel, to.col, from));
                        }
                    }
                }
            }
            let (_, rel, probe_col, anchor) = best.ok_or_else(|| {
                PvmError::InvalidOperation(format!(
                    "join graph of view '{}' is disconnected",
                    def.name
                ))
            })?;
            let mut filters = Vec::new();
            for e in &def.edges {
                for (from, to) in [(e.left, e.right), (e.right, e.left)] {
                    if covered[from.rel]
                        && to.rel == rel
                        && !(from == anchor && to.col == probe_col)
                    {
                        filters.push((from, to.col));
                    }
                }
            }
            covered[rel] = true;
            steps.push(PlanStep {
                rel,
                probe_col,
                anchor,
                filters,
            });
        }
        Ok(steps)
    }

    #[test]
    fn no_choice_no_statistics() {
        // Updated at either end, a chain has one candidate per step: the
        // oracle must not be touched.
        let v = chain_view();
        for end in [0, 2] {
            let plan = plan_chain(&v, end, |_, _| panic!("no step offers a choice")).unwrap();
            assert_eq!(plan, plan_chain_eager(&v, end, |_, _| 1.0).unwrap());
        }
        // Updated in the middle, the first step has two candidates and
        // asks about both; the second has one left and asks nothing. On a
        // triangle both steps have two.
        for (v, updated, asks) in [
            (chain_view(), 1, vec![(0, 0), (2, 0)]),
            (triangle_view(), 0, vec![(1, 0), (2, 1), (2, 0), (2, 1)]),
        ] {
            let mut asked = Vec::new();
            plan_chain(&v, updated, |r, c| {
                asked.push((r, c));
                1.0
            })
            .unwrap();
            assert_eq!(asked, asks);
        }
    }

    mod lazy_equals_eager {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn on_random_connected_join_graphs(
                n in 2usize..6,
                // Relation i > 0 hangs off an earlier one, so the graph is
                // connected; `extra` edges close cycles and double edges.
                tree in proptest::collection::vec((any::<usize>(), 0usize..3, 0usize..3), 4..5),
                extra in proptest::collection::vec((0usize..5, 0usize..5, 0usize..3, 0usize..3), 0..5),
                // Few distinct fan-outs, so ties are common.
                fan in proptest::collection::vec(0u8..3, 15..16),
            ) {
                let mut edges = Vec::new();
                for i in 1..n {
                    let (parent, pc, c) = tree[i - 1];
                    edges.push(ViewEdge::new(ViewColumn::new(parent % i, pc), ViewColumn::new(i, c)));
                }
                for &(a, b, ca, cb) in &extra {
                    if a < n && b < n && a != b {
                        edges.push(ViewEdge::new(ViewColumn::new(a, ca), ViewColumn::new(b, cb)));
                    }
                }
                let def = JoinViewDef {
                    name: "g".into(),
                    relations: (0..n).map(|i| format!("r{i}")).collect(),
                    edges,
                    projection: vec![ViewColumn::new(0, 0)],
                    partition_column: 0,
                };
                let fanout = |r: usize, c: usize| f64::from(fan[r * 3 + c]) * 0.5;
                for updated in 0..n {
                    prop_assert_eq!(
                        plan_chain(&def, updated, fanout).unwrap(),
                        plan_chain_eager(&def, updated, fanout).unwrap(),
                        "updated {} of {:?}", updated, def.edges
                    );
                }
            }
        }
    }

    #[test]
    fn chain_from_each_end() {
        let v = chain_view();
        let plan = plan_chain(&v, 0, |_, _| 1.0).unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].rel, 1);
        assert_eq!(plan[0].anchor, ViewColumn::new(0, 0));
        assert_eq!(plan[1].rel, 2);
        assert_eq!(plan[1].anchor, ViewColumn::new(1, 1));

        let plan = plan_chain(&v, 2, |_, _| 1.0).unwrap();
        assert_eq!(plan[0].rel, 1);
        assert_eq!(plan[1].rel, 0);

        // Middle relation updated: both neighbours probed directly.
        let plan = plan_chain(&v, 1, |_, _| 1.0).unwrap();
        let rels: Vec<usize> = plan.iter().map(|s| s.rel).collect();
        assert!(rels.contains(&0) && rels.contains(&2));
        assert!(plan.iter().all(|s| s.anchor.rel == 1));
    }

    #[test]
    fn fanout_steers_order() {
        let v = triangle_view();
        // From A both B (via A.0=B.0) and C (via C.1=A.1) are reachable.
        // Make C far cheaper: planner must visit C first.
        let plan = plan_chain(&v, 0, |rel, _| if rel == 2 { 0.1 } else { 100.0 }).unwrap();
        assert_eq!(plan[0].rel, 2);
        assert_eq!(plan[1].rel, 1);
        // And the reverse.
        let plan = plan_chain(&v, 0, |rel, _| if rel == 1 { 0.1 } else { 100.0 }).unwrap();
        assert_eq!(plan[0].rel, 1);
    }

    #[test]
    fn triangle_closing_edge_becomes_filter() {
        let v = triangle_view();
        let plan = plan_chain(&v, 0, |rel, _| rel as f64).unwrap();
        // Whatever the order, the second step must carry one filter (the
        // edge closing the triangle).
        assert_eq!(plan[1].filters.len(), 1);
        assert!(plan[0].filters.is_empty());
    }

    #[test]
    fn updated_out_of_range() {
        assert!(plan_chain(&chain_view(), 9, |_, _| 1.0).is_err());
    }

    #[test]
    fn every_step_anchored_in_prefix() {
        let v = triangle_view();
        for updated in 0..3 {
            let plan = plan_chain(&v, updated, |_, _| 1.0).unwrap();
            let mut covered = vec![updated];
            for s in &plan {
                assert!(
                    covered.contains(&s.anchor.rel),
                    "anchor must be joined already"
                );
                for (f, _) in &s.filters {
                    assert!(covered.contains(&f.rel));
                }
                covered.push(s.rel);
            }
            assert_eq!(covered.len(), 3);
        }
    }

    #[test]
    fn alternative_chains_dedup() {
        let v = triangle_view();
        let cheap_b = |rel: usize, _: usize| if rel == 1 { 0.1 } else { 10.0 };
        let cheap_c = |rel: usize, _: usize| if rel == 2 { 0.1 } else { 10.0 };
        let plans = alternative_chains(&v, 0, &[&cheap_b, &cheap_c, &cheap_b]).unwrap();
        assert_eq!(plans.len(), 2, "duplicate oracle collapses");
    }
}
