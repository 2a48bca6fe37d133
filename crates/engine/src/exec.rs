//! Join execution.
//!
//! Two layers:
//!
//! * **Full recompute** ([`stream_join`] with [`project_row`] /
//!   [`project_encoded`]): the n-ary join that fills a new view and that
//!   the consistency check compares a stored view with. It streams
//!   borrowed encoded tuples, so it holds one hash table per joined
//!   relation, not a decoded copy of the database. Maintenance plans do
//!   not call it: their local scan join lives with the chain driver in
//!   `pvm-core` and works on encoded tuples too.
//! * **Two-relation operators**: [`hash_join`], an in-memory equi-join of
//!   two row sets, and the group probe behind batched index lookups.
//!
//! SQL semantics throughout: a NULL join key never matches.

use std::collections::HashMap;

use pvm_storage::SeededMix;
use pvm_types::{PvmError, Result, Row, Value};

/// One equi-join edge of an n-ary join graph: `rels[left_rel].left_col =
/// rels[right_rel].right_col`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinEdge {
    pub left_rel: usize,
    pub left_col: usize,
    pub right_rel: usize,
    pub right_col: usize,
}

impl JoinEdge {
    pub fn new(left_rel: usize, left_col: usize, right_rel: usize, right_col: usize) -> Self {
        JoinEdge {
            left_rel,
            left_col,
            right_rel,
            right_col,
        }
    }
}

/// In-memory equi-join: `left ⋈ right` on `left[lcol] = right[rcol]`.
/// Output rows are `left_row ++ right_row`. NULL keys never match.
pub fn hash_join(left: &[Row], right: &[Row], lcol: usize, rcol: usize) -> Result<Vec<Row>> {
    let mut table: HashMap<&Value, Vec<&Row>> = HashMap::new();
    for r in right {
        let k = r.try_get(rcol)?;
        if !k.is_null() {
            table.entry(k).or_default().push(r);
        }
    }
    let mut out = Vec::new();
    for l in left {
        let k = l.try_get(lcol)?;
        if k.is_null() {
            continue;
        }
        if let Some(matches) = table.get(k) {
            for r in matches {
                out.push(l.concat(r));
            }
        }
    }
    Ok(out)
}

/// The full-recompute join behind view creation and the consistency
/// check: stream the n-ary equi-join of `relations` to `sink`, one match
/// at a time. `relations[i]` holds relation `i`'s tuples in scan order,
/// encoded as [`Row::encode`] writes them. Every edge must connect
/// relation `i > 0` to some relation `j < i` (a connected join graph
/// ordered so each new relation attaches to the prefix).
///
/// Left-deep: relations `1..` are hashed on the encoded bytes of the
/// column their first attaching edge names (two values are equal exactly
/// when their encodings are; a NULL key never matches), and relation 0 is
/// walked depth-first. Each further edge is checked, on encoded bytes,
/// when its later relation joins, so cyclic graphs hold too. Tuples are
/// borrowed and nothing is decoded: `sink` gets each match as one tuple
/// per relation, split into its encoded columns ([`Row::split_columns`]).
/// Matches arrive left-major, the matches of one prefix in scan order —
/// the order of a left-deep cascade of [`hash_join`]s.
pub fn stream_join<'t>(
    relations: &[Vec<&'t [u8]>],
    edges: &[JoinEdge],
    mut sink: impl FnMut(&[Vec<&'t [u8]>]) -> Result<()>,
) -> Result<()> {
    if relations.is_empty() {
        return Ok(());
    }
    let levels = (1..relations.len())
        .map(|i| Level::build(i, &relations[i], edges))
        .collect::<Result<Vec<_>>>()?;
    let mut cols = vec![Vec::new(); relations.len()];
    for &tuple in &relations[0] {
        Row::split_columns(tuple, &mut cols[0])?;
        descend(1, relations, &levels, &mut cols, &mut sink)?;
    }
    Ok(())
}

/// The view row a [`stream_join`] match projects to: column `col` of
/// relation `rel` for each `(rel, col)` of `projection`, decoded.
pub fn project_row(cols: &[Vec<&[u8]>], projection: &[(usize, usize)]) -> Result<Row> {
    let mut values = Vec::with_capacity(projection.len());
    for &(rel, col) in projection {
        values.push(Value::decode_from(column(&cols[rel], col)?)?.0);
    }
    Ok(Row::new(values))
}

/// [`project_row`] without decoding: `out` is cleared and receives the
/// bytes [`Row::encode`] writes for that row.
pub fn project_encoded(
    cols: &[Vec<&[u8]>],
    projection: &[(usize, usize)],
    out: &mut Vec<u8>,
) -> Result<()> {
    for &(rel, col) in projection {
        column(&cols[rel], col)?;
    }
    out.clear();
    Row::encode_columns(projection.iter().map(|&(rel, col)| cols[rel][col]), out);
    Ok(())
}

/// End of a [`Level`] chain.
const END: usize = usize::MAX;

/// Relation `i > 0` of a [`stream_join`], hashed for the walk.
struct Level<'t> {
    /// The prefix `(relation, column)` whose value is looked up.
    probe: (usize, usize),
    /// Encoded key → first and last tuple of its chain.
    chains: HashMap<&'t [u8], (usize, usize), SeededMix>,
    /// Per tuple, the next tuple with its key, in scan order.
    next: Vec<usize>,
    /// Every further attaching edge: `(prefix relation, its column, own
    /// column)`.
    filters: Vec<(usize, usize, usize)>,
}

impl<'t> Level<'t> {
    fn build(i: usize, tuples: &[&'t [u8]], edges: &[JoinEdge]) -> Result<Level<'t>> {
        let conds: Vec<(usize, usize, usize)> = edges
            .iter()
            .filter_map(|e| {
                if e.right_rel == i && e.left_rel < i {
                    Some((e.left_rel, e.left_col, e.right_col))
                } else if e.left_rel == i && e.right_rel < i {
                    Some((e.right_rel, e.right_col, e.left_col))
                } else {
                    None
                }
            })
            .collect();
        let Some(&(rel, col, own)) = conds.first() else {
            return Err(PvmError::InvalidOperation(format!(
                "join graph is disconnected at relation {i}"
            )));
        };
        let mut chains: HashMap<&'t [u8], (usize, usize), SeededMix> = HashMap::default();
        let mut next = vec![END; tuples.len()];
        for (at, &tuple) in tuples.iter().enumerate() {
            let key = Row::column_bytes(tuple, own)?;
            if key == Value::NULL_ENCODING {
                continue;
            }
            chains
                .entry(key)
                .and_modify(|(_, last)| {
                    next[*last] = at;
                    *last = at;
                })
                .or_insert((at, at));
        }
        Ok(Level {
            probe: (rel, col),
            chains,
            next,
            filters: conds[1..].to_vec(),
        })
    }

    /// Whether a tuple split into `own` passes every further edge to the
    /// match prefix split into `prefix`.
    fn passes(&self, prefix: &[Vec<&[u8]>], own: &[&[u8]]) -> Result<bool> {
        for &(rel, col, own_col) in &self.filters {
            let a = column(&prefix[rel], col)?;
            if a == Value::NULL_ENCODING || a != column(own, own_col)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Extend the match prefix split into `cols[..i]` by every tuple of
/// relation `i` that joins it, then recurse; a full match goes to `sink`.
fn descend<'t>(
    i: usize,
    relations: &[Vec<&'t [u8]>],
    levels: &[Level<'t>],
    cols: &mut [Vec<&'t [u8]>],
    sink: &mut impl FnMut(&[Vec<&'t [u8]>]) -> Result<()>,
) -> Result<()> {
    if i == relations.len() {
        return sink(cols);
    }
    let level = &levels[i - 1];
    let (rel, col) = level.probe;
    // NULL is never a chain key, so a NULL probe finds nothing.
    let Some(&(mut at, _)) = level.chains.get(column(&cols[rel], col)?) else {
        return Ok(());
    };
    while at != END {
        let (prefix, rest) = cols.split_at_mut(i);
        Row::split_columns(relations[i][at], &mut rest[0])?;
        if level.passes(prefix, &rest[0])? {
            descend(i + 1, relations, levels, cols, sink)?;
        }
        at = level.next[at];
    }
    Ok(())
}

/// Column `col` of a split tuple.
fn column<'t>(cols: &[&'t [u8]], col: usize) -> Result<&'t [u8]> {
    cols.get(col)
        .copied()
        .ok_or_else(|| PvmError::InvalidReference(format!("row column {col}")))
}

/// Vectorized local probe kernel of the batched maintenance pipeline:
/// index-search `table` once per *distinct* value in `values` (single
/// key-column probes in arrival order). The result is aligned to
/// `values`; duplicate probes share their representative's match list,
/// descent, and — through a non-clustered index — its FETCHes, per
/// [`crate::node::NodeState::index_search_batch`].
pub fn group_probe(
    node: &mut crate::node::NodeState,
    table: crate::TableId,
    key: &[usize],
    values: &[Value],
) -> Result<Vec<Vec<Row>>> {
    let key_rows: Vec<Row> = values.iter().map(|v| Row::new(vec![v.clone()])).collect();
    node.index_search_batch(table, key, &key_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm_types::row;

    /// The materialising recompute [`stream_join`] replaced, kept as its
    /// oracle: a left-deep cascade of [`hash_join`]s over decoded rows in
    /// relation order, each output row the concatenation of all
    /// relations' rows.
    fn multiway_join(relations: &[Vec<Row>], edges: &[JoinEdge]) -> Result<Vec<Row>> {
        if relations.is_empty() {
            return Ok(Vec::new());
        }
        // Column offset of each relation in the concatenated output.
        let mut offsets = Vec::with_capacity(relations.len());
        let mut acc_arity = 0usize;
        for rel in relations {
            offsets.push(acc_arity);
            acc_arity += rel.first().map_or(0, Row::arity);
        }

        let mut current: Vec<Row> = relations[0].clone();
        for (i, rel) in relations.iter().enumerate().skip(1) {
            // Conditions attaching relation i to the joined prefix.
            let conds: Vec<(usize, usize)> = edges
                .iter()
                .filter_map(|e| {
                    if e.right_rel == i && e.left_rel < i {
                        Some((offsets[e.left_rel] + e.left_col, e.right_col))
                    } else if e.left_rel == i && e.right_rel < i {
                        Some((offsets[e.right_rel] + e.right_col, e.left_col))
                    } else {
                        None
                    }
                })
                .collect();
            if conds.is_empty() {
                return Err(PvmError::InvalidOperation(format!(
                    "join graph is disconnected at relation {i}"
                )));
            }
            // Join on the first condition, filter the rest.
            let (pcol, rcol) = conds[0];
            let joined = hash_join(&current, rel, pcol, rcol)?;
            let prefix_arity = offsets[i];
            current = joined
                .into_iter()
                .filter(|row| {
                    conds[1..].iter().all(|&(pc, rc)| {
                        let a = &row[pc];
                        let b = &row[prefix_arity + rc];
                        !a.is_null() && a == b
                    })
                })
                .collect();
        }
        // Cross-edges among prefix relations (e.g. cyclic graphs) are already
        // enforced because every edge attaches when its later relation joins.
        Ok(current)
    }

    /// [`stream_join`] projecting every column, so its rows line up with
    /// [`multiway_join`]'s concatenations.
    fn streamed(relations: &[Vec<Row>], edges: &[JoinEdge]) -> Result<Vec<Row>> {
        let encoded: Vec<Vec<Vec<u8>>> = relations
            .iter()
            .map(|rel| rel.iter().map(Row::encode).collect())
            .collect();
        let tuples: Vec<Vec<&[u8]>> = encoded
            .iter()
            .map(|rel| rel.iter().map(Vec::as_slice).collect())
            .collect();
        let projection: Vec<(usize, usize)> = relations
            .iter()
            .enumerate()
            .flat_map(|(i, rel)| (0..rel.first().map_or(0, Row::arity)).map(move |c| (i, c)))
            .collect();
        let mut out = Vec::new();
        stream_join(&tuples, edges, |m| {
            out.push(project_row(m, &projection)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Both joins, which must agree row for row and in order (or both
    /// fail); the streamed result.
    fn joined(relations: &[Vec<Row>], edges: &[JoinEdge]) -> Result<Vec<Row>> {
        let oracle = multiway_join(relations, edges);
        let got = streamed(relations, edges);
        match (&oracle, &got) {
            (Ok(want), Ok(got)) => assert_eq!(got, want),
            (Err(_), Err(_)) => {}
            _ => panic!("streamed {got:?} vs oracle {oracle:?}"),
        }
        got
    }

    #[test]
    fn hash_join_basic() {
        let left = vec![row![1, "a"], row![2, "b"], row![3, "c"]];
        let right = vec![row![2, 20.0], row![3, 30.0], row![3, 33.0], row![4, 40.0]];
        let out = hash_join(&left, &right, 0, 0).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.contains(&row![2, "b", 2, 20.0]));
        assert!(out.contains(&row![3, "c", 3, 30.0]));
        assert!(out.contains(&row![3, "c", 3, 33.0]));
    }

    #[test]
    fn null_keys_never_match() {
        let left = vec![Row::new(vec![Value::Null])];
        let right = vec![Row::new(vec![Value::Null])];
        assert!(hash_join(&left, &right, 0, 0).unwrap().is_empty());
    }

    #[test]
    fn bad_column_errors() {
        assert!(hash_join(&[row![1]], &[row![1]], 5, 0).is_err());
    }

    #[test]
    fn three_way_chain() {
        // A(a) ⋈ B(a, b) ⋈ C(b)
        let a = vec![row![1], row![2]];
        let b = vec![row![1, 10], row![2, 20], row![2, 21]];
        let c = vec![row![10], row![21]];
        let out = joined(
            &[a, b, c],
            &[JoinEdge::new(0, 0, 1, 0), JoinEdge::new(1, 1, 2, 0)],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&row![1, 1, 10, 10]));
        assert!(out.contains(&row![2, 2, 21, 21]));
    }

    #[test]
    fn cyclic_triangle_join() {
        // A(x, y) ⋈ B(y, z) ⋈ C(z, x): all three edges must hold.
        let a = vec![row![1, 2], row![5, 6]];
        let b = vec![row![2, 3], row![6, 7]];
        let c = vec![row![3, 1], row![7, 99]];
        let out = joined(
            &[a, b, c],
            &[
                JoinEdge::new(0, 1, 1, 0), // A.y = B.y
                JoinEdge::new(1, 1, 2, 0), // B.z = C.z
                JoinEdge::new(2, 1, 0, 0), // C.x = A.x
            ],
        )
        .unwrap();
        // Only (1,2),(2,3),(3,1) closes the triangle; (5,6),(6,7),(7,99)
        // fails C.x = A.x.
        assert_eq!(out, vec![row![1, 2, 2, 3, 3, 1]]);
    }

    #[test]
    fn disconnected_graph_rejected() {
        let a = vec![row![1]];
        let b = vec![row![1]];
        assert!(joined(&[a, b], &[]).is_err());
    }

    #[test]
    fn empty_inputs() {
        assert!(joined(&[], &[]).unwrap().is_empty());
        let a: Vec<Row> = vec![];
        let b = vec![row![1]];
        let out = joined(&[a, b], &[JoinEdge::new(0, 0, 1, 0)]).unwrap();
        assert!(out.is_empty());
    }

    /// Join keys dense in collisions: NULL, both zeros and NaNs of both
    /// signs for floats, the empty string.
    fn key(dtype: usize, pick: usize) -> Value {
        let pick = pick % 6;
        if pick == 0 {
            return Value::Null;
        }
        match dtype {
            0 => Value::Int([0, 1, 2, -1, 3][pick - 1]),
            1 => Value::Float([0.0, -0.0, f64::NAN, 1.0, -f64::NAN][pick - 1]),
            _ => Value::from(["", "a", "b", "ab", "é"][pick - 1]),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::default())]

        /// The streamed recompute equals the materialising cascade it
        /// replaced, row for row and in order: 2–4 relations `(id, k1, k2,
        /// tag)` attached as a chain, a star or at random, an optional
        /// cyclic edge, NULL keys and duplicate base rows.
        #[test]
        fn stream_join_equals_materialised_oracle(
            n in 2usize..5,
            dtype in 0usize..3,
            shape in 0usize..3,
            // Per attached relation: (parent pick, parent column, own
            // column, edge written own-first).
            attach in proptest::collection::vec(
                (0usize..4, 0usize..2, 0usize..2, proptest::prelude::any::<bool>()), 3..4),
            // An extra edge from the last relation's other key column
            // back into the prefix: (present, target pick, target column).
            cycle in (proptest::prelude::any::<bool>(), 0usize..4, 0usize..2),
            // Per relation, rows of (k1 pick, k2 pick, stored twice).
            rows in proptest::collection::vec(proptest::collection::vec(
                (0usize..6, 0usize..6, proptest::prelude::any::<bool>()), 0..10), 4..5),
            projection in proptest::collection::vec((0usize..4, 0usize..4), 1..7),
        ) {
            let relations: Vec<Vec<Row>> = rows[..n]
                .iter()
                .enumerate()
                .map(|(rel, picks)| {
                    let mut out = Vec::new();
                    for (id, &(a, b, twice)) in picks.iter().enumerate() {
                        let r = Row::new(vec![
                            Value::Int(id as i64),
                            key(dtype, a),
                            key(dtype, b),
                            Value::from(format!("r{rel}")),
                        ]);
                        if twice {
                            out.push(r.clone());
                        }
                        out.push(r);
                    }
                    out
                })
                .collect();
            let mut edges = Vec::new();
            for i in 1..n {
                let (pick, pcol, own, flip) = attach[i - 1];
                let parent = match shape {
                    0 => i - 1,
                    1 => 0,
                    _ => pick % i,
                };
                edges.push(if flip {
                    JoinEdge::new(i, 1 + own, parent, 1 + pcol)
                } else {
                    JoinEdge::new(parent, 1 + pcol, i, 1 + own)
                });
            }
            let (cyclic, pick, pcol) = cycle;
            if cyclic && n >= 3 {
                let other = 2 - attach[n - 2].2;
                edges.push(JoinEdge::new(n - 1, other, pick % (n - 1), 1 + pcol));
            }
            let projection: Vec<(usize, usize)> =
                projection.iter().map(|&(rel, col)| (rel % n, col)).collect();

            let want: Vec<Row> = multiway_join(&relations, &edges)
                .unwrap()
                .iter()
                .map(|r| Row::new(projection.iter().map(|&(rel, col)| r[4 * rel + col].clone()).collect()))
                .collect();
            let encoded: Vec<Vec<Vec<u8>>> = relations
                .iter()
                .map(|rel| rel.iter().map(Row::encode).collect())
                .collect();
            let tuples: Vec<Vec<&[u8]>> = encoded
                .iter()
                .map(|rel| rel.iter().map(Vec::as_slice).collect())
                .collect();
            let mut got = Vec::new();
            let mut bytes = Vec::new();
            stream_join(&tuples, &edges, |m| {
                let row = project_row(m, &projection)?;
                project_encoded(m, &projection, &mut bytes)?;
                assert_eq!(bytes, row.encode(), "encoded projection");
                got.push(row);
                Ok(())
            })
            .unwrap();
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn group_probe_matches_per_value_search_for_less() {
        use crate::{Cluster, ClusterConfig, TableDef};
        use pvm_types::{Column, NodeId, Schema};

        let mut cluster = Cluster::new(ClusterConfig::new(1).with_buffer_pages(256));
        let schema = Schema::new(vec![Column::int("id"), Column::int("j")]).into_ref();
        let t = cluster
            .create_table(TableDef::hash_clustered("t", schema, 1))
            .unwrap();
        cluster
            .insert(t, (0..40).map(|i| row![i, i % 8]).collect())
            .unwrap();
        let node = cluster.node_mut(NodeId(0)).unwrap();
        let before = node.ledger().snapshot();
        let values: Vec<Value> = [3i64, 5, 3, 3, 99].iter().map(|&v| Value::Int(v)).collect();
        let batched = group_probe(node, t, &[1], &values).unwrap();
        let searches = node.ledger().snapshot().searches - before.searches;
        assert_eq!(searches, 3, "one SEARCH per distinct probe value");
        for (v, hits) in values.iter().zip(&batched) {
            let per_row = node
                .index_search(t, &[1], &Row::new(vec![v.clone()]))
                .unwrap();
            assert_eq!(hits, &per_row);
        }
    }
}
