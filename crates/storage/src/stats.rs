//! Per-table statistics: row/byte counts, always maintained, and
//! per-column distinct-value estimates, built on first ask.
//!
//! Distinct counting hashes values to 64 bits and keeps exact hash
//! multiplicities up to a cap, after which the estimate freezes (marked
//! approximate). This is enough for the join-selectivity arithmetic the
//! multi-way maintenance planner needs (`N` = matching tuples per value).
//!
//! A column's counts cost nothing until a reader — the planner, the
//! §3.1.2 scan-or-probe choice, the advisor — asks for that column
//! through [`crate::TableStorage::column_stats`]. The first ask builds
//! them from the table's live tuples without a page access or a ledger
//! charge (the [`crate::HeapFile::peek`] contract); every later insert,
//! delete and undelete maintains them. A table nothing asks about, such
//! as a view's stored table, keeps row and byte counts only.
//!
//! One trade against counting every column from the first insert: a
//! column whose distinct count once passed the cap (2^20 per table per
//! node) and then fell back below it reads the exact count if first asked
//! after the fall, where eager counting would have stayed frozen.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use pvm_types::{Result, Row, Value};

use crate::hash::{MixHasher, Prehashed};
use crate::TableStorage;

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
    fn hash_of(v: &Value) -> u64 {
        let mut h = MixHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    fn on_insert(&mut self, v: &Value) {
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

    fn on_delete(&mut self, v: &Value) {
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
    /// Distinct counts of the columns asked for so far.
    columns: Vec<OnceLock<ColumnStats>>,
}

impl TableStats {
    /// Statistics of an empty table of `arity` columns, none tracked.
    pub fn new(arity: usize) -> Self {
        TableStats {
            rows: 0,
            bytes: 0,
            columns: (0..arity).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Count `row` in; tracked columns count its values.
    pub fn on_insert(&mut self, row: &Row) {
        self.rows += 1;
        self.bytes += row.byte_size() as u64;
        for (c, v) in self.columns.iter_mut().zip(row.values()) {
            if let Some(c) = c.get_mut() {
                c.on_insert(v);
            }
        }
    }

    /// Count `row` out; tracked columns count its values out.
    pub fn on_delete(&mut self, row: &Row) {
        self.rows = self.rows.saturating_sub(1);
        self.bytes = self.bytes.saturating_sub(row.byte_size() as u64);
        for (c, v) in self.columns.iter_mut().zip(row.values()) {
            if let Some(c) = c.get_mut() {
                c.on_delete(v);
            }
        }
    }

    /// Start tracking `column` unless it is tracked already (or out of
    /// range): count its value in each of `live`, the table's live tuples
    /// in [`Row::encode`] form.
    pub(crate) fn track<'a>(
        &self,
        column: usize,
        live: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<()> {
        let Some(cell) = self.columns.get(column) else {
            return Ok(());
        };
        if cell.get().is_none() {
            let mut counts = ColumnStats::default();
            for tuple in live {
                counts.on_insert(&Value::decode_from(Row::column_bytes(tuple, column)?)?.0);
            }
            // A concurrent first ask built the same counts; keep either.
            let _ = cell.set(counts);
        }
        Ok(())
    }

    /// Whether `column`'s distinct counts have been asked for (and are
    /// maintained from then on).
    pub fn is_tracked(&self, column: usize) -> bool {
        self.column(column).is_some()
    }

    fn column(&self, column: usize) -> Option<&ColumnStats> {
        self.columns.get(column).and_then(OnceLock::get)
    }

    pub fn row_count(&self) -> u64 {
        self.rows
    }

    /// Total stored tuple bytes (heap payload, excluding page overhead).
    pub fn byte_size(&self) -> u64 {
        self.bytes
    }

    /// Distinct values in `column` (estimate; exact below the cap). 0 for
    /// a column out of range or not tracked: ask through
    /// [`TableStorage::column_stats`].
    pub fn distinct(&self, column: usize) -> u64 {
        self.column(column).map_or(0, ColumnStats::distinct)
    }

    /// Expected matches per join-key value: `rows / distinct(column)`,
    /// the `N` of the paper's model. Returns 0.0 for empty tables (and,
    /// like [`TableStats::distinct`], for untracked columns).
    pub fn matches_per_value(&self, column: usize) -> f64 {
        let d = self.distinct(column);
        if d == 0 {
            0.0
        } else {
            self.rows as f64 / d as f64
        }
    }

    /// [`TableStats::matches_per_value`] of `column` for the table whose
    /// per-node fragments are `parts`: the number that merging all their
    /// statistics (in this order) and asking would give, bit for bit,
    /// asking each fragment for that one column only.
    pub fn matches_per_value_across<'a>(
        parts: impl IntoIterator<Item = &'a TableStorage>,
        column: usize,
    ) -> Result<f64> {
        let mut rows = 0u64;
        let mut seen: HashSet<u64, Prehashed> = HashSet::default();
        // The distinct estimate, once any fragment's column is frozen.
        let mut frozen: Option<u64> = None;
        for part in parts {
            let part = part.column_stats(column)?;
            rows += part.rows;
            let Some(col) = part.column(column) else {
                continue;
            };
            if frozen.is_some() || col.frozen {
                let so_far = frozen.unwrap_or(seen.len() as u64);
                frozen = Some(so_far.max(col.distinct()));
            } else {
                seen.extend(col.counts.keys());
            }
        }
        Ok(match frozen.unwrap_or(seen.len() as u64) {
            0 => 0.0,
            d => rows as f64 / d as f64,
        })
    }

    /// Statistics of an empty table with every column tracked from the
    /// start: the eager model the on-ask columns are checked against.
    #[cfg(test)]
    pub(crate) fn eager(arity: usize) -> Self {
        TableStats {
            rows: 0,
            bytes: 0,
            columns: (0..arity)
                .map(|_| OnceLock::from(ColumnStats::default()))
                .collect(),
        }
    }

    /// Merge node-local stats into cluster-wide stats: the definition
    /// [`TableStats::matches_per_value_across`] is checked against.
    #[cfg(test)]
    pub(crate) fn merge(&mut self, other: &TableStats) {
        self.rows += other.rows;
        self.bytes += other.bytes;
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            let (Some(a), Some(b)) = (a.get_mut(), b.get()) else {
                continue;
            };
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

    /// What reaching `DISTINCT_CAP` does to a tracked column.
    #[cfg(test)]
    pub(crate) fn freeze(&mut self, column: usize) {
        let c = self.columns[column].get_mut().expect("a tracked column");
        c.frozen_distinct = c.counts.len() as u64;
        c.counts.clear();
        c.frozen = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::table::Organization;
    use pvm_types::{row, Column, CostLedger, Schema};

    /// A heap table of `arity` integer columns.
    fn table(arity: usize) -> TableStorage {
        let schema = Schema::new((0..arity).map(|c| Column::int(format!("c{c}"))).collect());
        TableStorage::new(
            "t",
            schema.into_ref(),
            Organization::Heap,
            0,
            BufferPool::shared(64),
        )
    }

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
        assert!(
            !s.is_tracked(0) && !s.is_tracked(1),
            "rows and bytes need no column"
        );
    }

    #[test]
    fn distinct_tracks_inserts_and_deletes() {
        // Asked after the rows arrived (built from the heap), and asked
        // before (maintained from the first row): the same counts.
        let (mut late, mut early) = (table(1), table(1));
        early.column_stats(0).unwrap();
        let mut l = CostLedger::new();
        for i in 0..100 {
            late.insert(row![i % 10], &mut l).unwrap();
            early.insert(row![i % 10], &mut l).unwrap();
        }
        assert!(!late.stats().is_tracked(0), "nothing asked yet");
        for t in [&mut late, &mut early] {
            assert_eq!(t.column_stats(0).unwrap().distinct(0), 10);
            assert!((t.stats().matches_per_value(0) - 10.0).abs() < 1e-9);
            // Delete all rows with value 0.
            for _ in 0..10 {
                assert!(t.delete_row(&row![0], &[], &mut l).unwrap());
            }
            assert_eq!(t.stats().distinct(0), 9);
        }
    }

    #[test]
    fn empty_table_matches_zero() {
        let t = table(1);
        assert_eq!(t.column_stats(0).unwrap().matches_per_value(0), 0.0);
        assert_eq!(
            t.column_stats(5).unwrap().distinct(5),
            0,
            "out-of-range column reports 0"
        );
        let mut untracked = TableStats::new(1);
        untracked.on_insert(&row![1]);
        assert_eq!(untracked.distinct(0), 0, "an untracked column reports 0");
    }

    #[test]
    fn merge_combines_nodes() {
        let (mut a, mut b) = (table(1), table(1));
        let (mut ma, mut mb) = (TableStats::eager(1), TableStats::eager(1));
        let mut l = CostLedger::new();
        for i in 0..5 {
            a.insert(row![i], &mut l).unwrap();
            ma.on_insert(&row![i]);
        }
        for i in 3..8 {
            b.insert(row![i], &mut l).unwrap();
            mb.on_insert(&row![i]);
        }
        ma.merge(&mb);
        assert_eq!(ma.row_count(), 10);
        assert_eq!(ma.distinct(0), 8);
        let across = TableStats::matches_per_value_across([&a, &b], 0).unwrap();
        assert_eq!(across.to_bits(), (10.0f64 / 8.0).to_bits());
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
        //! fragment's eagerly kept statistics, then ask.

        use super::*;
        use proptest::prelude::*;

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
                let mut l = CostLedger::new();
                let mut parts = Vec::new();
                let mut merged = TableStats::eager(2);
                for (rows, delete_some, frozen) in &nodes {
                    let (mut part, mut model) = (table(2), TableStats::eager(2));
                    for &(a, b) in rows {
                        part.insert(row![a, b], &mut l).unwrap();
                        model.on_insert(&row![a, b]);
                    }
                    if *delete_some {
                        for &(a, b) in rows.iter().step_by(3) {
                            part.delete_row(&row![a, b], &[], &mut l).unwrap();
                            model.on_delete(&row![a, b]);
                        }
                    }
                    // One node in three has a frozen column.
                    if *frozen < 2 {
                        let c = *frozen as usize;
                        part.column_stats(c).unwrap();
                        part.stats_mut().freeze(c);
                        model.freeze(c);
                    }
                    merged.merge(&model);
                    parts.push(part);
                }
                // Column 2 does not exist: both sides answer 0.
                for column in 0..3 {
                    prop_assert_eq!(
                        TableStats::matches_per_value_across(&parts, column).unwrap().to_bits(),
                        merged.matches_per_value(column).to_bits(),
                        "column {}", column
                    );
                }
            }
        }
    }
}
