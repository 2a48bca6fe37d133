//! Table storage: a heap file (stable RIDs), an optional clustered index,
//! any number of secondary indexes, and statistics.
//!
//! Abstract-op accounting follows §3.1.1 of the paper and is charged into
//! the [`CostLedger`] the caller passes in:
//!
//! * [`TableStorage::insert`] charges one `INSERT`;
//! * [`TableStorage::index_search`] charges one `SEARCH`, plus one `FETCH`
//!   per matching row when the probe goes through a non-clustered index
//!   (clustered probes return rows straight from the leaf — free fetches);
//! * [`TableStorage::fetch`] (RID lookup, the global-index access path)
//!   charges one `FETCH`.
//!
//! Physical page traffic is metered independently by the shared
//! [`crate::BufferPool`] every structure of the node points at.
//!
//! Locating a row **by value** where no secondary index serves the
//! caller's key hint charges nothing — the paper prices a delete as one
//! `INSERT`, "locate + write back" — and goes through the table's *row
//! locator*: an in-memory sorted set of `(hash of the encoded row, rid)`.
//! Candidates of one hash are compared with the heap tuple byte for byte
//! in rid order, so among duplicate rows the lowest rid wins.
//!
//! Two structures exist only once something reads them, and cost an
//! insert nothing before: the locator is built by the first by-value
//! locate that no secondary index serves, and a column's distinct counts
//! by the first [`TableStorage::column_stats`] for that column. Both are
//! built from the live heap tuples with no page access and no charge, and
//! kept by `insert` / `delete` / `undelete` from then on, so they are
//! right after WAL replay, recovery and transaction abort with no code of
//! their own. A view's stored table, whose deletes go through its
//! partition-column index and whose statistics nothing reads, never
//! builds either.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use pvm_types::{CostKind, CostLedger, PvmError, Result, Rid, Row, SchemaRef};

use crate::buffer::SharedBufferPool;
use crate::heap::HeapFile;
use crate::index::{ClusteredIndex, IndexDescriptor, IndexKind, NonClusteredIndex};
use crate::stats::TableStats;
use crate::FileId;

/// Physical organization of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Organization {
    /// Plain heap.
    Heap,
    /// Heap + clustered index on `key` (models "relation clustered on its
    /// partitioning attribute").
    Clustered { key: Vec<usize> },
}

/// One table's storage at one node.
#[derive(Debug)]
pub struct TableStorage {
    name: String,
    schema: SchemaRef,
    organization: Organization,
    heap: HeapFile,
    clustered: Option<ClusteredIndex>,
    secondary: Vec<(IndexDescriptor, NonClusteredIndex)>,
    stats: TableStats,
    buffer: SharedBufferPool,
    next_file: u32,
    /// Row locator: `(row_hash(encoded row), rid)` of every live row,
    /// once a by-value locate has asked for it.
    locator: OnceLock<BTreeSet<(u32, Rid)>>,
}

/// Hash of an encoded row ([`crate::hash`]'s word-at-a-time mix).
/// Collisions cost [`TableStorage::locate`] one more byte comparison,
/// never a wrong answer, so 32 bits are enough and keep a locator entry
/// at 12 bytes.
fn row_hash(bytes: &[u8]) -> u32 {
    crate::hash::mix_bytes(bytes.len() as u64, bytes) as u32
}

impl TableStorage {
    /// Create table storage. `file_base` seeds FileIds for the heap and all
    /// indexes of this table (each table gets a disjoint range from its
    /// node).
    pub fn new(
        name: impl Into<String>,
        schema: SchemaRef,
        organization: Organization,
        file_base: u32,
        buffer: SharedBufferPool,
    ) -> Self {
        let name = name.into();
        let heap = HeapFile::new(FileId(file_base), buffer.clone());
        let clustered = match &organization {
            Organization::Heap => None,
            Organization::Clustered { key } => Some(ClusteredIndex::new(
                FileId(file_base + 1),
                key.clone(),
                buffer.clone(),
            )),
        };
        let arity = schema.arity();
        TableStorage {
            name,
            schema,
            organization,
            heap,
            clustered,
            secondary: Vec::new(),
            stats: TableStats::new(arity),
            buffer,
            next_file: file_base + 2,
            locator: OnceLock::new(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn organization(&self) -> &Organization {
        &self.organization
    }

    /// Row and byte counts, plus the distinct counts of the columns asked
    /// for so far.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// [`TableStorage::stats`] with `column`'s distinct counts tracked:
    /// built from the live tuples on the first ask — no page access, no
    /// charge — and maintained by every insert, delete and undelete after.
    pub fn column_stats(&self, column: usize) -> Result<&TableStats> {
        self.stats
            .track(column, self.heap.peek_all().map(|(_, tuple)| tuple))?;
        Ok(&self.stats)
    }

    #[cfg(test)]
    pub(crate) fn stats_mut(&mut self) -> &mut TableStats {
        &mut self.stats
    }

    /// Whether a by-value locate has built the row locator.
    pub fn has_locator(&self) -> bool {
        self.locator.get().is_some()
    }

    pub fn row_count(&self) -> u64 {
        self.heap.len()
    }

    /// Heap data pages (the paper's `|R|` in pages).
    pub fn heap_pages(&self) -> usize {
        self.heap.page_count()
    }

    /// Pages across heap + all indexes (storage-overhead accounting).
    pub fn total_pages(&self) -> usize {
        self.heap.page_count()
            + self.clustered.as_ref().map_or(0, |c| c.page_count())
            + self
                .secondary
                .iter()
                .map(|(_, ix)| ix.page_count())
                .sum::<usize>()
    }

    /// Add a secondary (non-clustered) index over `key` columns,
    /// backfilling from existing rows.
    pub fn create_secondary_index(
        &mut self,
        name: impl Into<String>,
        key: Vec<usize>,
    ) -> Result<()> {
        let name = name.into();
        if self.secondary.iter().any(|(d, _)| d.name == name) {
            return Err(PvmError::AlreadyExists(format!("index '{name}'")));
        }
        for &c in &key {
            if c >= self.schema.arity() {
                return Err(PvmError::InvalidReference(format!("key column {c}")));
            }
        }
        let mut ix =
            NonClusteredIndex::new(FileId(self.next_file), key.clone(), self.buffer.clone());
        self.next_file += 1;
        self.heap
            .scan_locked(&mut self.buffer.lock(), |pool, rid, bytes| {
                ix.insert_locked(pool, &Row::decode(bytes)?, rid)
            })?;
        self.secondary
            .push((IndexDescriptor::new(name, key, IndexKind::NonClustered), ix));
        Ok(())
    }

    /// Descriptors of all indexes (clustered first, if any).
    pub fn indexes(&self) -> Vec<IndexDescriptor> {
        let mut out = Vec::new();
        if let Some(c) = &self.clustered {
            out.push(IndexDescriptor::new(
                format!("{}_clustered", self.name),
                c.key_columns().to_vec(),
                IndexKind::Clustered,
            ));
        }
        for (d, _) in &self.secondary {
            out.push(d.clone());
        }
        out
    }

    /// Does an index (clustered or secondary) exist whose key is exactly
    /// `key`?
    pub fn has_index_on(&self, key: &[usize]) -> bool {
        self.best_index_on(key).is_some()
    }

    fn best_index_on(&self, key: &[usize]) -> Option<IndexKind> {
        if let Some(c) = &self.clustered {
            if c.key_columns() == key {
                return Some(IndexKind::Clustered);
            }
        }
        if self.secondary.iter().any(|(d, _)| d.key == key) {
            return Some(IndexKind::NonClustered);
        }
        None
    }

    /// Insert a row. Charges one `INSERT`.
    pub fn insert(&mut self, row: Row, ledger: &mut CostLedger) -> Result<Rid> {
        let mut rid = None;
        self.insert_rows(std::slice::from_ref(&row), ledger, |r| rid = Some(r))?;
        Ok(rid.expect("one row, one rid"))
    }

    /// Insert `rows` in order, charging one `INSERT` each: the rids, tree
    /// shapes, page touches and charges of [`TableStorage::insert`] row
    /// by row. Every row is checked first (schema, heap page, each
    /// index's entry bound), so a refused batch writes nothing.
    pub fn insert_batch(&mut self, rows: &[Row], ledger: &mut CostLedger) -> Result<Vec<Rid>> {
        let mut rids = Vec::with_capacity(rows.len());
        self.insert_rows(rows, ledger, |rid| rids.push(rid))?;
        Ok(rids)
    }

    /// Refuse `rows` if [`TableStorage::insert_batch`] would.
    pub fn check_rows<'r>(&self, rows: impl IntoIterator<Item = &'r Row>) -> Result<()> {
        let columns = self.schema.columns();
        for row in rows {
            // One pass for the types and the encoded length (a row encodes
            // to exactly its byte size); the schema names a misfit.
            let (mut len, mut typed) = (2, row.arity() == columns.len());
            for (v, c) in row.values().iter().zip(columns) {
                typed &= v.conforms_to(c.dtype);
                len += v.byte_size();
            }
            if !typed {
                self.schema.check_row(row)?;
            }
            HeapFile::check_tuple_len(len)?;
            if let Some(c) = &self.clustered {
                c.check(row, len)?;
            }
            for (_, ix) in &self.secondary {
                ix.check(row)?;
            }
        }
        Ok(())
    }

    /// [`TableStorage::insert_batch`], handing each rid to `placed`. The
    /// pool is locked once for the batch; each row is encoded once, for
    /// the heap and the clustered index both.
    fn insert_rows(
        &mut self,
        rows: &[Row],
        ledger: &mut CostLedger,
        mut placed: impl FnMut(Rid),
    ) -> Result<()> {
        self.check_rows(rows)?;
        let mut pool = self.buffer.lock();
        let mut bytes = Vec::new();
        for row in rows {
            bytes.clear();
            row.encode_into(&mut bytes);
            let rid = self.heap.insert_locked(&mut pool, &bytes)?;
            if let Some(locator) = self.locator.get_mut() {
                locator.insert((row_hash(&bytes), rid));
            }
            if let Some(c) = &mut self.clustered {
                c.insert_locked(&mut pool, row, &bytes)?;
            }
            for (_, ix) in &mut self.secondary {
                ix.insert_locked(&mut pool, row, rid)?;
            }
            self.stats.on_insert(row);
            ledger.record(CostKind::Insert, 1);
            placed(rid);
        }
        Ok(())
    }

    /// Read the row at `rid` without abstract-op charge (physical page
    /// traffic is still metered).
    pub fn get(&self, rid: Rid) -> Result<Row> {
        Row::decode(&self.heap.get(rid)?)
    }

    /// Fetch the row at `rid`, charging one `FETCH` — the access performed
    /// when following a (global or local) non-clustered index entry.
    pub fn fetch(&self, rid: Rid, ledger: &mut CostLedger) -> Result<Row> {
        ledger.record(CostKind::Fetch, 1);
        self.get(rid)
    }

    /// Delete the row at `rid`. Returns the deleted row.
    pub fn delete(&mut self, rid: Rid, ledger: &mut CostLedger) -> Result<Row> {
        let bytes = self.heap.get(rid)?;
        let row = Row::decode(&bytes)?;
        self.heap.delete(rid)?;
        if let Some(locator) = self.locator.get_mut() {
            let located = locator.remove(&(row_hash(&bytes), rid));
            debug_assert!(located, "the locator holds every live row");
        }
        if let Some(c) = &mut self.clustered {
            c.delete(&row)?;
        }
        for (_, ix) in &mut self.secondary {
            ix.delete(&row, rid)?;
        }
        self.stats.on_delete(&row);
        // Deletion is charged like an insert: locate + write back.
        ledger.record(CostKind::Insert, 1);
        Ok(row)
    }

    /// Delete one row equal to `row` (located via the secondary index on
    /// `key_hint` columns if there is one, else via the row locator).
    /// Returns true if a row was deleted.
    pub fn delete_row(
        &mut self,
        row: &Row,
        key_hint: &[usize],
        ledger: &mut CostLedger,
    ) -> Result<bool> {
        let rid = self.locate(row, key_hint, ledger)?;
        match rid {
            Some(rid) => {
                self.delete(rid, ledger)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Find the RID of one row equal to `row` (public entry point used by
    /// the global-index maintainer, which must learn a row's rid before
    /// deleting it so the matching index entry can be removed).
    pub fn find_rid(
        &self,
        row: &Row,
        key_hint: &[usize],
        ledger: &mut CostLedger,
    ) -> Result<Option<Rid>> {
        self.locate(row, key_hint, ledger)
    }

    /// Resurrect the row at `rid` (transaction abort): the heap tuple is
    /// un-tombstoned in place and every index entry re-added. The caller
    /// supplies the row (captured in the undo record) so indexes need no
    /// heap read.
    pub fn undelete(&mut self, rid: Rid, row: &Row) -> Result<()> {
        self.heap.undelete(rid)?;
        if let Some(locator) = self.locator.get_mut() {
            let bytes = self.heap.peek(rid).expect("just resurrected");
            locator.insert((row_hash(bytes), rid));
        }
        if let Some(c) = &mut self.clustered {
            c.insert(row)?;
        }
        for (_, ix) in &mut self.secondary {
            ix.insert(row, rid)?;
        }
        self.stats.on_insert(row);
        Ok(())
    }

    /// Toggle tombstone preservation on the heap (open transaction).
    pub fn set_preserve_tombstones(&mut self, preserve: bool) {
        self.heap.set_preserve_tombstones(preserve);
    }

    /// Probe the clustered index without abstract-op charging (physical
    /// page traffic is still metered). Used where the paper's model prices
    /// the access as something other than a SEARCH — e.g. the single FETCH
    /// charged per node when a distributed-clustered global index fans out.
    pub fn clustered_search(&self, key_values: &Row) -> Result<Vec<Row>> {
        match &self.clustered {
            Some(c) => c.search(key_values),
            None => Err(PvmError::InvalidOperation(format!(
                "table '{}' has no clustered index",
                self.name
            ))),
        }
    }

    /// Find the RID of one row equal to `row`: through the secondary index
    /// on exactly `key_hint` when there is one (one `SEARCH`, one `FETCH`
    /// per candidate), else through the row locator (no charge, no page
    /// access; built here on first use) — the lowest rid holding these
    /// bytes.
    fn locate(
        &self,
        row: &Row,
        key_hint: &[usize],
        ledger: &mut CostLedger,
    ) -> Result<Option<Rid>> {
        if !key_hint.is_empty() {
            if let Some((_, ix)) = self.secondary.iter().find(|(d, _)| d.key == key_hint) {
                ledger.record(CostKind::Search, 1);
                let key_vals = row.project(key_hint)?;
                for rid in ix.search(&key_vals)? {
                    if &self.fetch(rid, ledger)? == row {
                        return Ok(Some(rid));
                    }
                }
                return Ok(None);
            }
        }
        let locator = self.locator.get_or_init(|| {
            self.heap
                .peek_all()
                .map(|(rid, tuple)| (row_hash(tuple), rid))
                .collect()
        });
        let bytes = row.encode();
        let h = row_hash(&bytes);
        let candidates = locator.range((h, Rid::new(0, 0))..=(h, Rid::new(u32::MAX, u16::MAX)));
        Ok(candidates
            .map(|&(_, rid)| rid)
            .find(|&rid| self.heap.peek(rid) == Some(bytes.as_slice())))
    }

    /// Probe an index whose key columns are exactly `key`, returning all
    /// matching rows. Charges one `SEARCH`; non-clustered probes charge one
    /// `FETCH` per matching row as well.
    pub fn index_search(
        &self,
        key: &[usize],
        key_values: &Row,
        ledger: &mut CostLedger,
    ) -> Result<Vec<Row>> {
        if let Some(c) = &self.clustered {
            if c.key_columns() == key {
                ledger.record(CostKind::Search, 1);
                return c.search(key_values);
            }
        }
        if let Some((_, ix)) = self.secondary.iter().find(|(d, _)| d.key == key) {
            ledger.record(CostKind::Search, 1);
            let rids = ix.search(key_values)?;
            let mut rows = Vec::with_capacity(rids.len());
            for rid in rids {
                rows.push(self.fetch(rid, ledger)?);
            }
            return Ok(rows);
        }
        Err(PvmError::NotFound(format!(
            "index on {key:?} of table '{}'",
            self.name
        )))
    }

    /// Probe a *secondary* index whose key columns are exactly `key`,
    /// returning `(rid, row)` pairs — the rid-preserving variant of
    /// [`TableStorage::index_search`] that global-index refills need to
    /// rebuild value → global-rid entries. Charges one `SEARCH` plus one
    /// `FETCH` per matching row, identical to the non-clustered
    /// `index_search` path. Clustered indexes don't expose rids, so this
    /// never consults them.
    pub fn index_search_rids(
        &self,
        key: &[usize],
        key_values: &Row,
        ledger: &mut CostLedger,
    ) -> Result<Vec<(Rid, Row)>> {
        if let Some((_, ix)) = self.secondary.iter().find(|(d, _)| d.key == key) {
            ledger.record(CostKind::Search, 1);
            let rids = ix.search(key_values)?;
            let mut out = Vec::with_capacity(rids.len());
            for rid in rids {
                let row = self.fetch(rid, ledger)?;
                out.push((rid, row));
            }
            return Ok(out);
        }
        Err(PvmError::NotFound(format!(
            "secondary index on {key:?} of table '{}'",
            self.name
        )))
    }

    /// Batched [`TableStorage::index_search`] over many probe rows at
    /// once: the B-tree is walked with a merge-style cursor over the
    /// *distinct* probe keys (duplicates share their representative's
    /// descent and result), so a batch charges one `SEARCH` per distinct
    /// key — and, for non-clustered indexes, one `FETCH` per matching rid
    /// per distinct key — instead of per probe. Results are aligned to
    /// `key_values`, duplicates included.
    pub fn index_search_batch(
        &self,
        key: &[usize],
        key_values: &[Row],
        ledger: &mut CostLedger,
    ) -> Result<Vec<Vec<Row>>> {
        if key_values.is_empty() {
            return Ok(Vec::new());
        }
        if let Some(c) = &self.clustered {
            if c.key_columns() == key {
                let (rows, rep) = c.search_batch(key_values)?;
                let distinct = rep.iter().enumerate().filter(|&(i, &r)| i == r).count();
                ledger.record(CostKind::Search, distinct as u64);
                return Ok(rows);
            }
        }
        if let Some((_, ix)) = self.secondary.iter().find(|(d, _)| d.key == key) {
            let (rid_lists, rep) = ix.search_batch(key_values)?;
            let mut out: Vec<Vec<Row>> = vec![Vec::new(); key_values.len()];
            for i in 0..key_values.len() {
                if rep[i] == i {
                    ledger.record(CostKind::Search, 1);
                    let mut rows = Vec::with_capacity(rid_lists[i].len());
                    for &rid in &rid_lists[i] {
                        rows.push(self.fetch(rid, ledger)?);
                    }
                    out[i] = rows;
                }
            }
            for i in 0..key_values.len() {
                if rep[i] != i {
                    out[i] = out[rep[i]].clone();
                }
            }
            return Ok(out);
        }
        Err(PvmError::NotFound(format!(
            "index on {key:?} of table '{}'",
            self.name
        )))
    }

    /// Full scan of `(rid, row)` pairs.
    pub fn scan(&self) -> Result<Vec<(Rid, Row)>> {
        self.scan_encoded()
            .map(|(rid, b)| Ok((rid, Row::decode(b)?)))
            .collect()
    }

    /// Full scan of `(rid, encoded row)` pairs, one page at a time: the
    /// same page accesses as [`TableStorage::scan`], with decoding left
    /// to a caller that needs only some of the rows.
    pub fn scan_encoded(&self) -> impl Iterator<Item = (Rid, &[u8])> + '_ {
        self.heap.scan()
    }

    /// Ordered scan through the clustered index (sort-merge access path).
    pub fn clustered_scan(&self) -> Result<Vec<Row>> {
        match &self.clustered {
            Some(c) => c.scan().collect(),
            None => Err(PvmError::InvalidOperation(format!(
                "table '{}' has no clustered index",
                self.name
            ))),
        }
    }
}

#[cfg(test)]
impl TableStorage {
    /// [`TableStorage::insert`] as it stood before batches, kept as the
    /// oracle of [`TableStorage::insert_batch`]: the heap and each index
    /// lock the pool per page touch, the row is encoded per structure,
    /// and a row an index refuses stays in the heap.
    pub(crate) fn insert_per_row(&mut self, row: Row, ledger: &mut CostLedger) -> Result<Rid> {
        self.schema.check_row(&row)?;
        let bytes = row.encode();
        let rid = self.heap.insert(&bytes)?;
        if let Some(locator) = self.locator.get_mut() {
            locator.insert((row_hash(&bytes), rid));
        }
        if let Some(c) = &mut self.clustered {
            c.insert(&row)?;
        }
        for (_, ix) in &mut self.secondary {
            ix.insert(&row, rid)?;
        }
        self.stats.on_insert(&row);
        ledger.record(CostKind::Insert, 1);
        Ok(rid)
    }

    /// Everything a batch must leave as the per-row loop does, pages
    /// and counters of the pool aside: heap tuples, every tree's nodes
    /// and shape, statistics and the locator.
    pub(crate) fn image(&self) -> impl PartialEq + std::fmt::Debug {
        let trees: Vec<_> = self
            .clustered
            .iter()
            .map(ClusteredIndex::tree)
            .chain(self.secondary.iter().map(|(_, ix)| ix.tree()))
            .map(|t| (t.image(), t.len(), t.page_count(), t.height()))
            .collect();
        let heap: Vec<(Rid, Vec<u8>)> =
            self.heap.peek_all().map(|(r, b)| (r, b.to_vec())).collect();
        (
            heap,
            self.heap.page_count(),
            trees,
            (self.stats.row_count(), self.stats.byte_size()),
            self.locator.get().cloned(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use pvm_types::{row, Column, Schema, Value};

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Column::int("k"),
            Column::int("c"),
            Column::str("payload"),
        ])
        .into_ref()
    }

    fn heap_table() -> TableStorage {
        TableStorage::new(
            "t",
            schema(),
            Organization::Heap,
            0,
            BufferPool::shared(512),
        )
    }

    fn clustered_table() -> TableStorage {
        TableStorage::new(
            "t",
            schema(),
            Organization::Clustered { key: vec![1] },
            0,
            BufferPool::shared(512),
        )
    }

    #[test]
    fn insert_charges_one_insert_op() {
        let mut t = heap_table();
        let mut l = CostLedger::new();
        t.insert(row![1, 2, "x"], &mut l).unwrap();
        assert_eq!(l.snapshot().inserts, 1);
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn schema_enforced() {
        let mut t = heap_table();
        let mut l = CostLedger::new();
        assert!(t.insert(row![1, 2], &mut l).is_err());
        assert!(t.insert(row!["wrong", 2, "x"], &mut l).is_err());
    }

    #[test]
    fn clustered_search_no_fetch() {
        let mut t = clustered_table();
        let mut l = CostLedger::new();
        for i in 0..20 {
            t.insert(row![i, i % 5, "p"], &mut l).unwrap();
        }
        l.reset();
        let rows = t.index_search(&[1], &row![3], &mut l).unwrap();
        assert_eq!(rows.len(), 4);
        let s = l.snapshot();
        assert_eq!(s.searches, 1);
        assert_eq!(s.fetches, 0, "clustered probe returns rows from the leaf");
    }

    #[test]
    fn nonclustered_search_fetches_per_row() {
        let mut t = heap_table();
        let mut l = CostLedger::new();
        for i in 0..20 {
            t.insert(row![i, i % 5, "p"], &mut l).unwrap();
        }
        t.create_secondary_index("t_c", vec![1]).unwrap();
        l.reset();
        let rows = t.index_search(&[1], &row![3], &mut l).unwrap();
        assert_eq!(rows.len(), 4);
        let s = l.snapshot();
        assert_eq!(s.searches, 1);
        assert_eq!(
            s.fetches, 4,
            "one FETCH per matching row through a non-clustered index"
        );
    }

    #[test]
    fn missing_index_errors() {
        let t = heap_table();
        let mut l = CostLedger::new();
        assert!(t.index_search(&[1], &row![3], &mut l).is_err());
        assert!(t.index_search_batch(&[1], &[row![3]], &mut l).is_err());
    }

    #[test]
    fn batch_search_charges_per_distinct_key_clustered() {
        let mut t = clustered_table();
        let mut l = CostLedger::new();
        for i in 0..20 {
            t.insert(row![i, i % 5, "p"], &mut l).unwrap();
        }
        l.reset();
        let probes = [row![3], row![1], row![3], row![3], row![9]];
        let hits = t.index_search_batch(&[1], &probes, &mut l).unwrap();
        for (p, h) in probes.iter().zip(&hits) {
            let mut per_row = CostLedger::new();
            assert_eq!(h, &t.index_search(&[1], p, &mut per_row).unwrap());
        }
        let s = l.snapshot();
        assert_eq!(s.searches, 3, "one SEARCH per distinct key, not per probe");
        assert_eq!(s.fetches, 0);
    }

    #[test]
    fn batch_search_charges_per_distinct_key_nonclustered() {
        let mut t = heap_table();
        let mut l = CostLedger::new();
        for i in 0..20 {
            t.insert(row![i, i % 5, "p"], &mut l).unwrap();
        }
        t.create_secondary_index("t_c", vec![1]).unwrap();
        l.reset();
        let probes = [row![3], row![3], row![0]];
        let hits = t.index_search_batch(&[1], &probes, &mut l).unwrap();
        assert!(hits.iter().all(|h| h.len() == 4));
        let s = l.snapshot();
        assert_eq!(s.searches, 2);
        assert_eq!(
            s.fetches, 8,
            "duplicate probes share the representative's FETCHes"
        );
    }

    #[test]
    fn delete_maintains_indexes_and_stats() {
        let mut t = heap_table();
        t.create_secondary_index("t_c", vec![1]).unwrap();
        let mut l = CostLedger::new();
        let rid = t.insert(row![1, 7, "x"], &mut l).unwrap();
        t.insert(row![2, 7, "y"], &mut l).unwrap();
        t.delete(rid, &mut l).unwrap();
        let rows = t.index_search(&[1], &row![7], &mut l).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(2));
        assert_eq!(t.stats().row_count(), 1);
    }

    #[test]
    fn delete_row_by_value() {
        let mut t = heap_table();
        t.create_secondary_index("t_c", vec![1]).unwrap();
        let mut l = CostLedger::new();
        t.insert(row![1, 7, "x"], &mut l).unwrap();
        assert!(t.delete_row(&row![1, 7, "x"], &[1], &mut l).unwrap());
        assert!(!t.delete_row(&row![1, 7, "x"], &[1], &mut l).unwrap());
        assert_eq!(t.row_count(), 0);
        // Fallback path without index hint.
        t.insert(row![5, 5, "z"], &mut l).unwrap();
        assert!(t.delete_row(&row![5, 5, "z"], &[], &mut l).unwrap());
    }

    #[test]
    fn backfilled_index_sees_existing_rows() {
        let mut t = heap_table();
        let mut l = CostLedger::new();
        for i in 0..10 {
            t.insert(row![i, 1, "x"], &mut l).unwrap();
        }
        t.create_secondary_index("late", vec![1]).unwrap();
        let rows = t.index_search(&[1], &row![1], &mut l).unwrap();
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = heap_table();
        t.create_secondary_index("a", vec![0]).unwrap();
        assert!(t.create_secondary_index("a", vec![1]).is_err());
        assert!(t.create_secondary_index("b", vec![99]).is_err());
    }

    #[test]
    fn clustered_scan_ordered() {
        let mut t = clustered_table();
        let mut l = CostLedger::new();
        for i in (0..30).rev() {
            t.insert(row![i, i, "x"], &mut l).unwrap();
        }
        let rows = t.clustered_scan().unwrap();
        let keys: Vec<i64> = rows.iter().map(|r| r[1].as_int().unwrap()).collect();
        assert_eq!(keys, (0..30).collect::<Vec<_>>());
        assert!(heap_table().clustered_scan().is_err());
    }

    #[test]
    fn update_via_delete_insert_keeps_consistency() {
        let mut t = clustered_table();
        let mut l = CostLedger::new();
        let rid = t.insert(row![1, 2, "old"], &mut l).unwrap();
        t.delete(rid, &mut l).unwrap();
        t.insert(row![1, 3, "new"], &mut l).unwrap();
        assert!(t.index_search(&[1], &row![2], &mut l).unwrap().is_empty());
        assert_eq!(t.index_search(&[1], &row![3], &mut l).unwrap().len(), 1);
    }

    #[test]
    fn page_accounting_nonzero() {
        let mut t = clustered_table();
        let mut l = CostLedger::new();
        for i in 0..100 {
            t.insert(row![i, i, "payloadpayload"], &mut l).unwrap();
        }
        assert!(t.heap_pages() >= 1);
        assert!(
            t.total_pages() > t.heap_pages(),
            "clustered index occupies pages too"
        );
    }
}

#[cfg(test)]
mod locator_equivalence {
    //! Model check: the row locator must return the rid the old heap scan
    //! returned (first equal row in `(page, slot)` order) and charge what
    //! it charged, so GI entries, rid-exact WAL replay and every counted
    //! cost stay bit-identical under any DML interleaving — whenever it is
    //! first built. Column statistics built on first ask must equal eager
    //! ones likewise.

    use super::*;
    use crate::buffer::BufferPool;
    use proptest::prelude::*;
    use pvm_types::{row, Column, Schema};
    use std::collections::HashMap;

    /// The pre-locator `TableStorage::locate`, verbatim.
    fn locate_by_scan(
        t: &TableStorage,
        row: &Row,
        key_hint: &[usize],
        ledger: &mut CostLedger,
    ) -> Result<Option<Rid>> {
        if !key_hint.is_empty() {
            if let Some((_, ix)) = t.secondary.iter().find(|(d, _)| d.key == key_hint) {
                ledger.record(CostKind::Search, 1);
                let key_vals = row.project(key_hint)?;
                for rid in ix.search(&key_vals)? {
                    if &t.fetch(rid, ledger)? == row {
                        return Ok(Some(rid));
                    }
                }
                return Ok(None);
            }
        }
        for (rid, bytes) in t.heap.scan() {
            if &Row::decode(bytes)? == row {
                return Ok(Some(rid));
            }
        }
        Ok(None)
    }

    fn table_in(organization: Organization, pool: SharedBufferPool) -> TableStorage {
        let schema = Schema::new(vec![
            Column::int("k"),
            Column::int("c"),
            Column::str("payload"),
        ]);
        TableStorage::new("t", schema.into_ref(), organization, 0, pool)
    }

    fn table(organization: Organization) -> TableStorage {
        table_in(organization, BufferPool::shared(64))
    }

    /// Twelve distinct rows wide enough (≈ 700 B) that a schedule spans
    /// several heap pages and the last page compacts.
    fn domain() -> Vec<Row> {
        let mut rows = Vec::new();
        for k in 0..2i64 {
            for c in 0..3i64 {
                for fill in ["a", "b"] {
                    rows.push(row![k, c, fill.repeat(700)]);
                }
            }
        }
        rows
    }

    fn assert_same_as_scan(t: &TableStorage, rows: &[Row], step: usize) {
        for (i, row) in rows.iter().enumerate() {
            for hint in [&[][..], &[1], &[0]] {
                let (mut got, mut want) = (CostLedger::new(), CostLedger::new());
                assert_eq!(
                    t.find_rid(row, hint, &mut got).unwrap(),
                    locate_by_scan(t, row, hint, &mut want).unwrap(),
                    "rid of row {i} under hint {hint:?} at step {step}"
                );
                assert_eq!(
                    got.snapshot(),
                    want.snapshot(),
                    "charge for row {i} under hint {hint:?} at step {step}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        #[test]
        fn find_rid_matches_first_row_in_scan_order(
            clustered in any::<bool>(),
            secondary in any::<bool>(),
            ops in proptest::collection::vec((0u8..8, 0usize..12, any::<bool>()), 1..120),
        ) {
            let mut t = table(if clustered {
                Organization::Clustered { key: vec![1] }
            } else {
                Organization::Heap
            });
            if secondary {
                t.create_secondary_index("t_c", vec![1]).unwrap();
            }
            let rows = domain();
            let mut l = CostLedger::new();
            // Rids deleted since tombstones were last preserved: the ones a
            // transaction abort may resurrect.
            let mut in_txn = false;
            let mut deleted: Vec<(Rid, Row)> = Vec::new();
            for (step, &(kind, pick, hinted)) in ops.iter().enumerate() {
                let row = &rows[pick];
                let hint: &[usize] = if hinted { &[1] } else { &[] };
                match kind {
                    0..=3 => {
                        t.insert(row.clone(), &mut l).unwrap();
                    }
                    4 | 5 => {
                        if let Some(rid) = t.find_rid(row, hint, &mut l).unwrap() {
                            t.delete(rid, &mut l).unwrap();
                            if in_txn {
                                deleted.push((rid, row.clone()));
                            }
                        }
                    }
                    6 => {
                        if let Some((rid, row)) = deleted.pop() {
                            t.undelete(rid, &row).unwrap();
                        }
                    }
                    _ => {
                        in_txn = !in_txn;
                        t.set_preserve_tombstones(in_txn);
                        deleted.clear();
                    }
                }
                assert_same_as_scan(&t, &rows, step);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// The on-ask structures against their eager models: column
        /// statistics asked for at a random step equal a `TableStats`
        /// that counted every column from the first row, and the locator
        /// built by the first unhinted `find_rid` (at another random step)
        /// answers what a heap scan answers, at the same charge. Before
        /// its step, neither exists.
        #[test]
        fn on_ask_bookkeeping_matches_eager_models(
            clustered in any::<bool>(),
            secondary in any::<bool>(),
            ops in proptest::collection::vec((0u8..8, 0usize..12, any::<bool>()), 1..120),
            ask_stats_at in 0usize..120,
            locate_at in 0usize..120,
        ) {
            let mut t = table(if clustered {
                Organization::Clustered { key: vec![1] }
            } else {
                Organization::Heap
            });
            if secondary {
                t.create_secondary_index("t_c", vec![1]).unwrap();
            }
            let rows = domain();
            let mut model = TableStats::eager(3);
            let mut l = CostLedger::new();
            let mut in_txn = false;
            let mut deleted: Vec<(Rid, Row)> = Vec::new();
            for (step, &(kind, pick, hinted)) in ops.iter().enumerate() {
                if step == ask_stats_at {
                    for c in 0..3 {
                        t.column_stats(c).unwrap();
                    }
                }
                let located = step >= locate_at;
                let row = &rows[pick];
                match kind {
                    0..=3 => {
                        t.insert(row.clone(), &mut l).unwrap();
                        model.on_insert(row);
                    }
                    4 | 5 => {
                        // Before the locator's step, the rid comes from
                        // the scan oracle, so nothing builds it early.
                        let rid = if located {
                            let hint: &[usize] = if hinted { &[1] } else { &[] };
                            t.find_rid(row, hint, &mut l).unwrap()
                        } else {
                            locate_by_scan(&t, row, &[], &mut CostLedger::new()).unwrap()
                        };
                        if let Some(rid) = rid {
                            t.delete(rid, &mut l).unwrap();
                            model.on_delete(row);
                            if in_txn {
                                deleted.push((rid, row.clone()));
                            }
                        }
                    }
                    6 => {
                        if let Some((rid, row)) = deleted.pop() {
                            t.undelete(rid, &row).unwrap();
                            model.on_insert(&row);
                        }
                    }
                    _ => {
                        in_txn = !in_txn;
                        t.set_preserve_tombstones(in_txn);
                        deleted.clear();
                    }
                }
                let stats = t.stats();
                prop_assert_eq!(stats.row_count(), model.row_count());
                prop_assert_eq!(stats.byte_size(), model.byte_size());
                for c in 0..3 {
                    prop_assert_eq!(stats.is_tracked(c), step >= ask_stats_at, "column {} at step {}", c, step);
                    if stats.is_tracked(c) {
                        prop_assert_eq!(stats.distinct(c), model.distinct(c), "column {} at step {}", c, step);
                        prop_assert_eq!(
                            stats.matches_per_value(c).to_bits(),
                            model.matches_per_value(c).to_bits(),
                            "column {} at step {}", c, step
                        );
                    }
                }
                if located {
                    assert_same_as_scan(&t, &rows, step);
                } else {
                    prop_assert!(!t.has_locator(), "locator built before step {}", locate_at);
                }
            }
        }
    }

    #[test]
    fn building_on_ask_touches_no_page_and_charges_nothing() {
        let pool = BufferPool::shared(0);
        let mut t = table_in(Organization::Clustered { key: vec![1] }, pool.clone());
        let mut l = CostLedger::new();
        for row in domain() {
            t.insert(row, &mut l).unwrap();
        }
        pool.lock().reset_counters();
        l.reset();
        for c in 0..3 {
            assert!(t.column_stats(c).unwrap().is_tracked(c));
        }
        assert!(t.find_rid(&domain()[5], &[], &mut l).unwrap().is_some());
        assert!(t.has_locator());
        let io = pool.lock().io_snapshot();
        assert_eq!((io.page_reads, io.page_writes), (0, 0));
        assert!(l.snapshot().is_zero(), "{:?}", l.snapshot());
    }

    #[test]
    fn colliding_hashes_resolve_by_bytes() {
        // Birthday search over a 32-bit hash: two different rows, one hash.
        let mut seen: HashMap<u32, i64> = HashMap::new();
        let (a, b) = (0i64..)
            .find_map(|i| {
                seen.insert(row_hash(&row![i, 0, "p"].encode()), i)
                    .map(|j| (j, i))
            })
            .expect("a 32-bit hash collides well within 2^32 rows");
        let rows = [row![a, 0, "p"], row![b, 0, "p"]];
        assert_eq!(row_hash(&rows[0].encode()), row_hash(&rows[1].encode()));

        let mut t = table(Organization::Clustered { key: vec![0] });
        let mut l = CostLedger::new();
        let rid_b = t.insert(rows[1].clone(), &mut l).unwrap();
        let rid_a = t.insert(rows[0].clone(), &mut l).unwrap();
        t.insert(rows[1].clone(), &mut l).unwrap();
        assert!(rid_b < rid_a);
        assert_eq!(t.find_rid(&rows[0], &[], &mut l).unwrap(), Some(rid_a));
        assert_eq!(t.find_rid(&rows[1], &[], &mut l).unwrap(), Some(rid_b));
        assert_same_as_scan(&t, &rows, 0);
        assert!(t.delete_row(&rows[1], &[], &mut l).unwrap());
        assert_eq!(t.find_rid(&rows[0], &[], &mut l).unwrap(), Some(rid_a));
        assert_same_as_scan(&t, &rows, 1);
    }

    #[test]
    fn delete_by_value_touches_a_constant_number_of_pages() {
        // No caching, so every page access is a counted read: a heap scan
        // of this table would be hundreds of them.
        let pool = BufferPool::shared(0);
        let mut t = table_in(Organization::Clustered { key: vec![0] }, pool.clone());
        let mut l = CostLedger::new();
        for i in 0..10_000i64 {
            t.insert(row![i, i % 7, "payloadpayloadpayload"], &mut l)
                .unwrap();
        }
        assert!(t.heap_pages() > 50);
        pool.lock().reset_counters();
        l.reset();
        assert!(t
            .delete_row(
                &row![9_000, 9_000 % 7, "payloadpayloadpayload"],
                &[],
                &mut l
            )
            .unwrap());
        // Heap read + heap write + the clustered index's descent and leaf write.
        let reads = pool.lock().io_snapshot().page_reads;
        assert!(reads <= 8, "delete_row touched {reads} pages");
        let ops = l.snapshot();
        assert_eq!((ops.inserts, ops.searches, ops.fetches), (1, 0, 0));
    }
}

#[cfg(test)]
mod insert_batch_equivalence {
    //! Model check: a batch must leave the table, its ledger and its pool
    //! exactly as the per-row loop it replaced leaves them — rids, heap
    //! tuples, every tree's nodes, statistics, the locator, charges, pool
    //! counts and recency order (so the next eviction victims) — and a
    //! batch holding one refused row must change nothing at all.

    use super::*;
    use crate::buffer::BufferPool;
    use crate::PAGE_SIZE;
    use proptest::prelude::*;
    use pvm_types::{row, Column, Schema};

    /// Longest payload every index of [`table`] takes: the clustered
    /// entry is its 9-byte key, the 25 + `len`-byte row and 8 bytes of
    /// overhead, within half a page.
    const MAX_PAYLOAD: usize = PAGE_SIZE / 2 - 42;

    /// Clustered on `k`, with secondaries on `c` and on the payload, so
    /// the payload's size drives splits in all three trees.
    fn table(pool: SharedBufferPool) -> TableStorage {
        let schema = Schema::new(vec![
            Column::int("k"),
            Column::int("c"),
            Column::str("payload"),
        ]);
        let mut t = TableStorage::new(
            "t",
            schema.into_ref(),
            Organization::Clustered { key: vec![0] },
            0,
            pool,
        );
        t.create_secondary_index("t_c", vec![1]).unwrap();
        t.create_secondary_index("t_payload", vec![2]).unwrap();
        t
    }

    fn payload(len: usize, b: u8) -> String {
        char::from(b'a' + b % 26).to_string().repeat(len)
    }

    /// Rows whose keys ascend, descend, scatter or repeat (five values),
    /// with payloads of every size up to [`MAX_PAYLOAD`], mostly short.
    fn any_batch() -> impl Strategy<Value = Vec<Row>> {
        let len = prop_oneof![0usize..24, 0usize..MAX_PAYLOAD + 1, Just(MAX_PAYLOAD)];
        let row = (0i64..1 << 16, len, any::<u8>());
        (0u8..4, proptest::collection::vec(row, 0..120)).prop_map(|(order, mut rows)| {
            match order {
                0 => rows.sort_by_key(|r| r.0),
                1 => rows.sort_by_key(|r| std::cmp::Reverse(r.0)),
                2 => {}
                _ => rows.iter_mut().for_each(|r| r.0 %= 5),
            }
            rows.into_iter()
                .map(|(k, n, b)| row![k, k % 7, payload(n, b)])
                .collect()
        })
    }

    /// A row some check refuses: too long for the clustered index, or
    /// not of the schema.
    fn refused(kind: u8) -> Row {
        match kind {
            0 => row![1, 1, payload(MAX_PAYLOAD + 1, 0)],
            _ => row![1, "not an int", "p"],
        }
    }

    fn pool_state(
        pool: &SharedBufferPool,
    ) -> (u64, u64, pvm_types::CostSnapshot, Vec<crate::PageKey>) {
        let pool = pool.lock();
        (
            pool.hits(),
            pool.misses(),
            pool.io_snapshot(),
            pool.recency().collect(),
        )
    }

    proptest! {
        #[test]
        fn insert_batch_matches_per_row_loop(
            batches in proptest::collection::vec(
                // One batch in five holds a refused row at a random place.
                (any_batch(), (0u8..10, 0usize..1 << 16), 0usize..30),
                1..6,
            ),
            capacity in 2usize..8,
            locate_at in 0usize..6,
        ) {
            let (batch_pool, row_pool) = (BufferPool::shared(capacity), BufferPool::shared(capacity));
            let (mut batched, mut per_row) = (table(batch_pool.clone()), table(row_pool.clone()));
            let (mut lb, mut lr) = (CostLedger::new(), CostLedger::new());
            let mut live: Vec<Rid> = Vec::new();
            for (step, (mut rows, poison, deletes)) in batches.into_iter().enumerate() {
                if step == locate_at {
                    // Build both locators: later inserts must keep them.
                    let probe = row![0, 0, ""];
                    prop_assert_eq!(
                        batched.find_rid(&probe, &[], &mut lb).unwrap(),
                        per_row.find_rid(&probe, &[], &mut lr).unwrap()
                    );
                }
                if poison.0 < 2 {
                    rows.insert(poison.1 % (rows.len() + 1), refused(poison.0));
                    prop_assert!(batched.insert_batch(&rows, &mut lb).is_err());
                } else {
                    let got = batched.insert_batch(&rows, &mut lb).unwrap();
                    let want: Vec<Rid> = rows
                        .into_iter()
                        .map(|r| per_row.insert_per_row(r, &mut lr).unwrap())
                        .collect();
                    prop_assert_eq!(&got, &want);
                    live.extend(got);
                }
                prop_assert!(batched.image() == per_row.image(), "tables diverged at step {}", step);
                prop_assert_eq!(lb.snapshot(), lr.snapshot());
                prop_assert_eq!(pool_state(&batch_pool), pool_state(&row_pool));
                for i in 0..deletes.min(live.len()) {
                    let rid = live.swap_remove(i * 7 % live.len());
                    prop_assert_eq!(batched.delete(rid, &mut lb).unwrap(), per_row.delete(rid, &mut lr).unwrap());
                }
            }
        }
    }

    #[test]
    fn a_row_an_index_refuses_is_not_left_in_the_heap() {
        let mut t = table(BufferPool::shared(16));
        let mut l = CostLedger::new();
        t.insert(row![1, 1, "a"], &mut l).unwrap();
        let before = t.image();
        let big = refused(0);
        let err = t.insert(big.clone(), &mut l).unwrap_err();
        assert!(
            matches!(&err, PvmError::CapacityExceeded(m) if m.contains("exceeds half a page")),
            "{err}"
        );
        assert!(t
            .insert_batch(&[row![2, 2, "b"], big.clone()], &mut l)
            .is_err());
        assert_eq!(t.row_count(), 1);
        assert!(t.image() == before, "a refused batch changed the table");
        assert_eq!(l.snapshot().inserts, 1);
        // The loop this replaced wrote the heap before the index refused.
        assert!(t.insert_per_row(big, &mut l).is_err());
        assert_eq!(t.row_count(), 2);
    }
}
