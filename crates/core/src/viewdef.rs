//! Join view definitions.
//!
//! A join view is an equi-join of `n ≥ 2` base relations with a projection
//! and a partitioning attribute, e.g. the paper's JV1:
//!
//! ```sql
//! create view JV1 as
//! select c.custkey, c.acctbal, o.orderkey, o.totalprice
//! from customer c, orders o
//! where c.custkey = o.custkey;
//! ```

use pvm_engine::exec::JoinEdge;
use pvm_engine::Cluster;
use pvm_types::{Column, PvmError, Result, Schema};

/// A column of one of the view's base relations: `(relation index within
/// the view definition, column index within that relation's schema)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewColumn {
    pub rel: usize,
    pub col: usize,
}

impl ViewColumn {
    pub fn new(rel: usize, col: usize) -> Self {
        ViewColumn { rel, col }
    }
}

/// One equi-join predicate `left = right` between two base relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewEdge {
    pub left: ViewColumn,
    pub right: ViewColumn,
}

impl ViewEdge {
    pub fn new(left: ViewColumn, right: ViewColumn) -> Self {
        ViewEdge { left, right }
    }

    /// The end of this edge on relation `rel`, if any.
    pub fn end_on(&self, rel: usize) -> Option<ViewColumn> {
        if self.left.rel == rel {
            Some(self.left)
        } else if self.right.rel == rel {
            Some(self.right)
        } else {
            None
        }
    }

    /// The end of this edge *not* on relation `rel`, if the edge touches
    /// `rel`.
    pub fn other_end(&self, rel: usize) -> Option<ViewColumn> {
        if self.left.rel == rel {
            Some(self.right)
        } else if self.right.rel == rel {
            Some(self.left)
        } else {
            None
        }
    }
}

/// Definition of a materialized join view.
#[derive(Debug, Clone)]
pub struct JoinViewDef {
    /// View name (also the name of its stored table).
    pub name: String,
    /// Base relation names, in definition order.
    pub relations: Vec<String>,
    /// Equi-join graph; must connect all relations.
    pub edges: Vec<ViewEdge>,
    /// Output columns, in order. Must include `partition_column`.
    pub projection: Vec<ViewColumn>,
    /// Index into `projection`: the attribute the view is hash-partitioned
    /// on ("partitioned on an attribute of A" in the paper).
    pub partition_column: usize,
}

impl JoinViewDef {
    /// A two-relation view `left ⋈ right` keeping all columns, partitioned
    /// on the first projected column.
    pub fn two_way(
        name: impl Into<String>,
        left: &str,
        right: &str,
        left_col: usize,
        right_col: usize,
        left_arity: usize,
        right_arity: usize,
    ) -> Self {
        let mut projection: Vec<ViewColumn> =
            (0..left_arity).map(|c| ViewColumn::new(0, c)).collect();
        projection.extend((0..right_arity).map(|c| ViewColumn::new(1, c)));
        JoinViewDef {
            name: name.into(),
            relations: vec![left.to_owned(), right.to_owned()],
            edges: vec![ViewEdge::new(
                ViewColumn::new(0, left_col),
                ViewColumn::new(1, right_col),
            )],
            projection,
            partition_column: 0,
        }
    }

    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Index of relation `name` within the definition.
    pub fn relation_index(&self, name: &str) -> Result<usize> {
        self.relations
            .iter()
            .position(|r| r == name)
            .ok_or_else(|| PvmError::NotFound(format!("relation '{name}' in view '{}'", self.name)))
    }

    /// Join attributes of relation `rel`: every column of `rel` that
    /// appears in some edge.
    pub fn join_attrs_of(&self, rel: usize) -> Vec<usize> {
        let mut cols: Vec<usize> = self
            .edges
            .iter()
            .filter_map(|e| e.end_on(rel))
            .map(|vc| vc.col)
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Columns of `rel` the view's projection outputs.
    pub fn projected_cols_of(&self, rel: usize) -> Vec<usize> {
        let mut cols: Vec<usize> = self
            .projection
            .iter()
            .filter(|vc| vc.rel == rel)
            .map(|vc| vc.col)
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// The view column (relation, column) the view is partitioned on.
    pub fn partition_attr(&self) -> ViewColumn {
        self.projection[self.partition_column]
    }

    /// The projection as executor `(relation, column)` pairs, for
    /// [`pvm_engine::exec::project_row`].
    pub(crate) fn projection_cols(&self) -> Vec<(usize, usize)> {
        self.projection.iter().map(|vc| (vc.rel, vc.col)).collect()
    }

    /// Edges as executor [`JoinEdge`]s over definition-order relations.
    pub fn exec_edges(&self) -> Vec<JoinEdge> {
        self.edges
            .iter()
            .map(|e| JoinEdge::new(e.left.rel, e.left.col, e.right.rel, e.right.col))
            .collect()
    }

    /// The view's stored schema (projection applied, `rel.col` names).
    pub fn view_schema(&self, cluster: &Cluster) -> Result<Schema> {
        let mut cols = Vec::with_capacity(self.projection.len());
        for vc in &self.projection {
            let rel_name = self
                .relations
                .get(vc.rel)
                .ok_or_else(|| PvmError::InvalidReference(format!("relation {}", vc.rel)))?;
            let id = cluster.table_id(rel_name)?;
            let base = cluster.def(id)?.schema.clone();
            let c = base
                .column(vc.col)
                .ok_or_else(|| PvmError::InvalidReference(format!("{rel_name}.{}", vc.col)))?;
            cols.push(Column::new(format!("{rel_name}.{}", c.name), c.dtype));
        }
        Ok(Schema::new(cols))
    }

    /// Validate the definition against the cluster's catalog: relations
    /// exist, column indices are in range, the join graph is connected,
    /// joined columns have matching types, and the projection includes the
    /// partitioning attribute.
    pub fn validate(&self, cluster: &Cluster) -> Result<()> {
        if self.relations.len() < 2 {
            return Err(PvmError::InvalidOperation(
                "a join view needs at least two base relations".into(),
            ));
        }
        let mut arities = Vec::with_capacity(self.relations.len());
        let mut schemas = Vec::with_capacity(self.relations.len());
        for name in &self.relations {
            let id = cluster.table_id(name)?;
            let schema = cluster.def(id)?.schema.clone();
            arities.push(schema.arity());
            schemas.push(schema);
        }
        let check = |vc: &ViewColumn, what: &str| -> Result<()> {
            if vc.rel >= arities.len() || vc.col >= arities[vc.rel] {
                return Err(PvmError::InvalidReference(format!(
                    "{what} ({}, {}) out of range in view '{}'",
                    vc.rel, vc.col, self.name
                )));
            }
            Ok(())
        };
        for e in &self.edges {
            check(&e.left, "edge column")?;
            check(&e.right, "edge column")?;
            if e.left.rel == e.right.rel {
                return Err(PvmError::InvalidOperation(format!(
                    "self-join edges are not supported (view '{}')",
                    self.name
                )));
            }
            let lt = schemas[e.left.rel]
                .column(e.left.col)
                .expect("checked")
                .dtype;
            let rt = schemas[e.right.rel]
                .column(e.right.col)
                .expect("checked")
                .dtype;
            if lt != rt {
                return Err(PvmError::SchemaMismatch(format!(
                    "join columns of view '{}' have types {lt} and {rt}",
                    self.name
                )));
            }
        }
        for vc in &self.projection {
            check(vc, "projected column")?;
        }
        if self.partition_column >= self.projection.len() {
            return Err(PvmError::InvalidReference(format!(
                "partition column {} out of projection range",
                self.partition_column
            )));
        }
        // Connectivity: BFS over the edge graph.
        let n = self.relations.len();
        let mut seen = vec![false; n];
        let mut queue = vec![0usize];
        seen[0] = true;
        while let Some(r) = queue.pop() {
            for e in &self.edges {
                if let (Some(a), Some(b)) = (e.end_on(r), e.other_end(r)) {
                    debug_assert_eq!(a.rel, r);
                    if !seen[b.rel] {
                        seen[b.rel] = true;
                        queue.push(b.rel);
                    }
                }
            }
        }
        if !seen.iter().all(|&s| s) {
            return Err(PvmError::InvalidOperation(format!(
                "join graph of view '{}' is disconnected",
                self.name
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm_engine::{ClusterConfig, TableDef};
    use pvm_types::Column;

    fn cluster() -> Cluster {
        let mut c = Cluster::new(ClusterConfig::new(2));
        c.create_table(TableDef::hash_heap(
            "a",
            Schema::new(vec![Column::int("x"), Column::int("c")]).into_ref(),
            0,
        ))
        .unwrap();
        c.create_table(TableDef::hash_heap(
            "b",
            Schema::new(vec![Column::int("d"), Column::str("p")]).into_ref(),
            0,
        ))
        .unwrap();
        c
    }

    fn jv() -> JoinViewDef {
        JoinViewDef::two_way("jv", "a", "b", 1, 0, 2, 2)
    }

    #[test]
    fn two_way_builder_and_accessors() {
        let v = jv();
        assert_eq!(v.relation_count(), 2);
        assert_eq!(v.relation_index("b").unwrap(), 1);
        assert!(v.relation_index("zzz").is_err());
        assert_eq!(v.join_attrs_of(0), vec![1]);
        assert_eq!(v.join_attrs_of(1), vec![0]);
        assert_eq!(v.projected_cols_of(0), vec![0, 1]);
        assert_eq!(v.partition_attr(), ViewColumn::new(0, 0));
    }

    #[test]
    fn schema_and_validation() {
        let c = cluster();
        let v = jv();
        v.validate(&c).unwrap();
        let s = v.view_schema(&c).unwrap();
        assert_eq!(s.names(), vec!["a.x", "a.c", "b.d", "b.p"]);
    }

    #[test]
    fn validation_catches_bad_defs() {
        let c = cluster();
        let mut v = jv();
        v.edges[0].right.col = 9;
        assert!(v.validate(&c).is_err());

        let mut v = jv();
        v.relations[1] = "missing".into();
        assert!(v.validate(&c).is_err());

        let mut v = jv();
        v.partition_column = 99;
        assert!(v.validate(&c).is_err());

        let mut v = jv();
        v.edges.clear();
        assert!(v.validate(&c).is_err(), "disconnected graph");

        // Type mismatch: a.c (INT) joined with b.p (STR).
        let mut v = jv();
        v.edges[0] = ViewEdge::new(ViewColumn::new(0, 1), ViewColumn::new(1, 1));
        assert!(v.validate(&c).is_err());

        // Self-join edge.
        let mut v = jv();
        v.edges[0] = ViewEdge::new(ViewColumn::new(0, 0), ViewColumn::new(0, 1));
        assert!(v.validate(&c).is_err());

        // Single relation.
        let mut v = jv();
        v.relations.pop();
        assert!(v.validate(&c).is_err());
    }

    #[test]
    fn edge_end_helpers() {
        let e = ViewEdge::new(ViewColumn::new(0, 1), ViewColumn::new(1, 0));
        assert_eq!(e.end_on(0), Some(ViewColumn::new(0, 1)));
        assert_eq!(e.other_end(0), Some(ViewColumn::new(1, 0)));
        assert_eq!(e.end_on(2), None);
        assert_eq!(e.other_end(2), None);
    }

    #[test]
    fn exec_edges_match() {
        let v = jv();
        let ee = v.exec_edges();
        assert_eq!(ee.len(), 1);
        assert_eq!(
            (
                ee[0].left_rel,
                ee[0].left_col,
                ee[0].right_rel,
                ee[0].right_col
            ),
            (0, 1, 1, 0)
        );
    }
}
