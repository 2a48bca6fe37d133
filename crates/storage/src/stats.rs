//! Per-table statistics: row/byte counts and per-column distinct-value
//! estimates, maintained incrementally on insert/delete.
//!
//! Distinct counting hashes values to 64 bits and keeps exact hash
//! multiplicities up to a cap, after which the estimate freezes (marked
//! approximate). This is enough for the join-selectivity arithmetic the
//! multi-way maintenance planner needs (`N` = matching tuples per value).

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use pvm_types::Row;

use crate::hash::{MixHasher, Prehashed};

/// Cap on tracked distinct hashes per column before freezing.
const DISTINCT_CAP: usize = 1 << 20;

#[derive(Debug, Clone, Default)]
struct ColumnStats {
    /// hash(value) → multiplicity. The key is already a mixed hash, so
    /// the map does not hash it again.
    counts: HashMap<u64, u64, Prehashed>,
    frozen: bool,
    frozen_distinct: u64,
}

impl ColumnStats {
    fn hash_of(v: &pvm_types::Value) -> u64 {
        let mut h = MixHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    fn on_insert(&mut self, v: &pvm_types::Value) {
        if self.frozen {
            return;
        }
        *self.counts.entry(Self::hash_of(v)).or_insert(0) += 1;
        if self.counts.len() > DISTINCT_CAP {
            self.frozen_distinct = self.counts.len() as u64;
            self.counts.clear();
            self.frozen = true;
        }
    }

    fn on_delete(&mut self, v: &pvm_types::Value) {
        if self.frozen {
            return;
        }
        let h = Self::hash_of(v);
        if let Some(c) = self.counts.get_mut(&h) {
            *c -= 1;
            if *c == 0 {
                self.counts.remove(&h);
            }
        }
    }

    fn distinct(&self) -> u64 {
        if self.frozen {
            self.frozen_distinct
        } else {
            self.counts.len() as u64
        }
    }
}

/// Statistics for one table (or auxiliary relation) at one node.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    rows: u64,
    bytes: u64,
    columns: Vec<ColumnStats>,
}

impl TableStats {
    pub fn new(arity: usize) -> Self {
        TableStats {
            rows: 0,
            bytes: 0,
            columns: vec![ColumnStats::default(); arity],
        }
    }

    pub fn on_insert(&mut self, row: &Row) {
        self.rows += 1;
        self.bytes += row.byte_size() as u64;
        for (c, v) in self.columns.iter_mut().zip(row.values()) {
            c.on_insert(v);
        }
    }

    pub fn on_delete(&mut self, row: &Row) {
        self.rows = self.rows.saturating_sub(1);
        self.bytes = self.bytes.saturating_sub(row.byte_size() as u64);
        for (c, v) in self.columns.iter_mut().zip(row.values()) {
            c.on_delete(v);
        }
    }

    pub fn row_count(&self) -> u64 {
        self.rows
    }

    /// Total stored tuple bytes (heap payload, excluding page overhead).
    pub fn byte_size(&self) -> u64 {
        self.bytes
    }

    /// Distinct values in `column` (estimate; exact below the cap).
    pub fn distinct(&self, column: usize) -> u64 {
        self.columns.get(column).map_or(0, |c| c.distinct())
    }

    /// Expected matches per join-key value: `rows / distinct(column)`,
    /// the `N` of the paper's model. Returns 0.0 for empty tables.
    pub fn matches_per_value(&self, column: usize) -> f64 {
        let d = self.distinct(column);
        if d == 0 {
            0.0
        } else {
            self.rows as f64 / d as f64
        }
    }

    /// [`TableStats::matches_per_value`] of `column` for the table whose
    /// per-node fragments have statistics `parts`: the number that
    /// merging all of them (in this order) and asking would give, bit for
    /// bit, reading that one column only.
    pub fn matches_per_value_across<'a>(
        parts: impl IntoIterator<Item = &'a TableStats>,
        column: usize,
    ) -> f64 {
        let mut rows = 0u64;
        let mut seen: HashSet<u64, Prehashed> = HashSet::default();
        // The distinct estimate, once any fragment's column is frozen.
        let mut frozen: Option<u64> = None;
        for part in parts {
            rows += part.rows;
            let Some(col) = part.columns.get(column) else {
                continue;
            };
            if frozen.is_some() || col.frozen {
                let so_far = frozen.unwrap_or(seen.len() as u64);
                frozen = Some(so_far.max(col.distinct()));
            } else {
                seen.extend(col.counts.keys());
            }
        }
        match frozen.unwrap_or(seen.len() as u64) {
            0 => 0.0,
            d => rows as f64 / d as f64,
        }
    }

    /// Merge node-local stats into cluster-wide stats.
    pub fn merge(&mut self, other: &TableStats) {
        self.rows += other.rows;
        self.bytes += other.bytes;
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            if a.frozen || b.frozen {
                a.frozen_distinct = a.distinct().max(b.distinct());
                a.frozen = true;
                a.counts.clear();
                continue;
            }
            for (h, c) in &b.counts {
                *a.counts.entry(*h).or_insert(0) += c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm_types::row;

    #[test]
    fn counts_and_bytes() {
        let mut s = TableStats::new(2);
        let r = row![1, "abc"];
        s.on_insert(&r);
        s.on_insert(&r);
        assert_eq!(s.row_count(), 2);
        assert_eq!(s.byte_size(), 2 * r.byte_size() as u64);
        s.on_delete(&r);
        assert_eq!(s.row_count(), 1);
    }

    #[test]
    fn distinct_tracks_inserts_and_deletes() {
        let mut s = TableStats::new(1);
        for i in 0..100 {
            s.on_insert(&row![i % 10]);
        }
        assert_eq!(s.distinct(0), 10);
        assert!((s.matches_per_value(0) - 10.0).abs() < 1e-9);
        // Delete all rows with value 0.
        for _ in 0..10 {
            s.on_delete(&row![0]);
        }
        assert_eq!(s.distinct(0), 9);
    }

    #[test]
    fn empty_table_matches_zero() {
        let s = TableStats::new(1);
        assert_eq!(s.matches_per_value(0), 0.0);
        assert_eq!(s.distinct(5), 0, "out-of-range column reports 0");
    }

    #[test]
    fn merge_combines_nodes() {
        let mut a = TableStats::new(1);
        let mut b = TableStats::new(1);
        for i in 0..5 {
            a.on_insert(&row![i]);
        }
        for i in 3..8 {
            b.on_insert(&row![i]);
        }
        a.merge(&b);
        assert_eq!(a.row_count(), 10);
        assert_eq!(a.distinct(0), 8);
    }

    #[test]
    fn value_hash_separates_types_and_neighbours() {
        use pvm_types::Value;
        let values = [
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::Int(-1),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.0),
            Value::from(""),
            Value::from("a"),
            Value::from("b"),
            Value::from("12345678"),
            Value::from("123456789"),
            Value::Bool(false),
            Value::Bool(true),
        ];
        let hashes: HashSet<u64> = values.iter().map(ColumnStats::hash_of).collect();
        assert_eq!(hashes.len(), values.len());
        // Dense keys must not pile into few hash-table buckets: the low
        // and the high seven bits (what the std map indexes and tags
        // with) each take most of their 128 values over 10 000 integers.
        let dense: Vec<u64> = (0..10_000)
            .map(|i| ColumnStats::hash_of(&Value::Int(i)))
            .collect();
        let low: HashSet<u64> = dense.iter().map(|h| h & 127).collect();
        let high: HashSet<u64> = dense.iter().map(|h| h >> 57).collect();
        assert!(
            low.len() > 120 && high.len() > 120,
            "{} {}",
            low.len(),
            high.len()
        );
        assert_eq!(dense.iter().collect::<HashSet<_>>().len(), dense.len());
    }

    mod one_column_fanout {
        //! `matches_per_value_across` against its definition: merge every
        //! fragment's statistics, then ask.

        use super::*;
        use proptest::prelude::*;

        /// What reaching `DISTINCT_CAP` does to a column.
        fn freeze(s: &mut TableStats, column: usize) {
            let c = &mut s.columns[column];
            c.frozen_distinct = c.counts.len() as u64;
            c.counts.clear();
            c.frozen = true;
        }

        proptest! {
            #[test]
            fn equals_merge_then_ask_bit_for_bit(
                // Per node: rows as (col 0, col 1) drawn from small domains
                // so nodes overlap, and which columns froze there.
                nodes in proptest::collection::vec(
                    (
                        proptest::collection::vec((0i64..12, 0i64..4), 0..40),
                        any::<bool>(),
                        0u8..6,
                    ),
                    0..5,
                ),
            ) {
                let parts: Vec<TableStats> = nodes
                    .iter()
                    .map(|(rows, delete_some, frozen)| {
                        let mut s = TableStats::new(2);
                        for &(a, b) in rows {
                            s.on_insert(&row![a, b]);
                        }
                        if *delete_some {
                            for &(a, b) in rows.iter().step_by(3) {
                                s.on_delete(&row![a, b]);
                            }
                        }
                        // One node in three has a frozen column.
                        if *frozen < 2 {
                            freeze(&mut s, *frozen as usize);
                        }
                        s
                    })
                    .collect();
                let mut merged = TableStats::new(2);
                for p in &parts {
                    merged.merge(p);
                }
                // Column 2 does not exist: both sides answer 0.
                for column in 0..3 {
                    prop_assert_eq!(
                        TableStats::matches_per_value_across(&parts, column).to_bits(),
                        merged.matches_per_value(column).to_bits(),
                        "column {}", column
                    );
                }
            }
        }
    }
}
