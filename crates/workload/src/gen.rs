//! Generic synthetic relations with controlled join fan-out.
//!
//! The analytical model's central workload parameter is `N`, the number of
//! matching tuples of `B` per join-attribute value. [`SyntheticRelation`]
//! constructs relations where `N` is exact: `rows / distinct_values`
//! copies of each value, uniformly interleaved.

use pvm_engine::{Cluster, TableDef, TableId};
use pvm_types::{row, Column, Result, Row, Schema};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dist::Distribution;

/// A synthetic relation `(id, jcol, payload)` hash-partitioned on `id`
/// (never on the join column — the paper's hard case) with exactly
/// `rows / distinct` matches per join value.
#[derive(Debug, Clone)]
pub struct SyntheticRelation {
    pub name: String,
    pub rows: u64,
    pub distinct: u64,
    /// Payload string length (pads tuples toward realistic page counts).
    pub payload_len: usize,
}

impl SyntheticRelation {
    pub fn new(name: impl Into<String>, rows: u64, distinct: u64) -> Self {
        SyntheticRelation {
            name: name.into(),
            rows,
            distinct: distinct.max(1),
            payload_len: 32,
        }
    }

    pub fn with_payload_len(mut self, len: usize) -> Self {
        self.payload_len = len;
        self
    }

    /// Exact matches per join value (`N` when probed by an equality).
    pub fn fanout(&self) -> u64 {
        self.rows / self.distinct
    }

    pub fn schema() -> Schema {
        Schema::new(vec![
            Column::int("id"),
            Column::int("jcol"),
            Column::str("payload"),
        ])
    }

    /// Column index of the join attribute.
    pub const JOIN_COL: usize = 1;

    fn row(&self, id: u64) -> Row {
        row![
            id as i64,
            (id % self.distinct) as i64,
            "x".repeat(self.payload_len)
        ]
    }

    /// Generate all rows (join values cycle so each value appears exactly
    /// `rows / distinct` times when `distinct` divides `rows`).
    pub fn rows(&self) -> Vec<Row> {
        (0..self.rows).map(|i| self.row(i)).collect()
    }

    /// Create the table (heap, hash-partitioned on `id`) and load it.
    pub fn install(&self, cluster: &mut Cluster) -> Result<TableId> {
        let id = cluster.create_table(TableDef::hash_heap(
            self.name.clone(),
            Self::schema().into_ref(),
            0,
        ))?;
        cluster.insert(id, self.rows())?;
        Ok(id)
    }

    /// Fresh delta rows whose ids do not collide with the loaded rows and
    /// whose join values follow `dist`.
    pub fn delta(&self, count: u64, dist: &impl Distribution, seed: u64) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|i| {
                let id = (self.rows + i) as i64;
                row![
                    id,
                    dist.sample(&mut rng) as i64,
                    "x".repeat(self.payload_len)
                ]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Uniform;
    use pvm_engine::ClusterConfig;

    #[test]
    fn exact_fanout() {
        let r = SyntheticRelation::new("b", 100, 20);
        assert_eq!(r.fanout(), 5);
        let rows = r.rows();
        assert_eq!(rows.len(), 100);
        let hits = rows
            .iter()
            .filter(|row| row[1] == pvm_types::Value::Int(7))
            .count();
        assert_eq!(hits, 5, "every join value appears exactly fanout times");
    }

    #[test]
    fn install_loads_cluster() {
        let mut c = Cluster::new(ClusterConfig::new(4));
        let r = SyntheticRelation::new("b", 200, 10);
        let id = r.install(&mut c).unwrap();
        assert_eq!(c.row_count(id).unwrap(), 200);
    }

    #[test]
    fn delta_ids_fresh_and_reproducible() {
        let r = SyntheticRelation::new("a", 50, 10);
        let d1 = r.delta(5, &Uniform::new(10), 42);
        let d2 = r.delta(5, &Uniform::new(10), 42);
        assert_eq!(d1, d2, "same seed, same delta");
        for row in &d1 {
            assert!(row[0].as_int().unwrap() >= 50, "delta ids are fresh");
        }
    }
}
