//! Typed clustered / non-clustered index wrappers over [`crate::btree`].
//!
//! * A **clustered** index stores full row bytes in its leaves (an
//!   index-organized copy of the relation, the way Teradata keeps a
//!   relation clustered on its partitioning attribute). A search returns
//!   rows directly — no FETCH is needed, matching assumption (5) of the
//!   paper's model.
//! * A **non-clustered** index stores RIDs; matching rows must be FETCHed
//!   from the heap, one page access each — assumption (7)(i).

use pvm_types::{Result, Rid, Row};

use crate::btree::{check_entry_len, BPlusTree};
use crate::buffer::{BufferPool, SharedBufferPool};
use crate::FileId;

/// Flavor of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    Clustered,
    NonClustered,
}

/// Catalog-level description of an index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDescriptor {
    pub name: String,
    /// Key columns (composite keys supported).
    pub key: Vec<usize>,
    pub kind: IndexKind,
}

impl IndexDescriptor {
    pub fn new(name: impl Into<String>, key: Vec<usize>, kind: IndexKind) -> Self {
        IndexDescriptor {
            name: name.into(),
            key,
            kind,
        }
    }
}

/// Group a batch of encoded probe keys for deduplicated searching:
/// returns `(distinct, slot, rep)` where `distinct` holds the sorted
/// distinct keys, `slot[i]` is input `i`'s position in `distinct`, and
/// `rep[i]` is the *first* input position carrying a key equal to input
/// `i`'s — so `rep[i] == i` exactly once per distinct key, which is
/// where callers charge the one shared SEARCH (and FETCHes).
fn batch_groups(encoded: &[Vec<u8>]) -> (Vec<Vec<u8>>, Vec<usize>, Vec<usize>) {
    let mut order: Vec<usize> = (0..encoded.len()).collect();
    order.sort_by(|&a, &b| encoded[a].cmp(&encoded[b]).then(a.cmp(&b)));
    let mut distinct: Vec<Vec<u8>> = Vec::new();
    let mut first: Vec<usize> = Vec::new();
    let mut slot = vec![0usize; encoded.len()];
    for &i in &order {
        if distinct.last().map(Vec::as_slice) != Some(encoded[i].as_slice()) {
            distinct.push(encoded[i].clone());
            first.push(i);
        }
        slot[i] = distinct.len() - 1;
    }
    let rep = slot.iter().map(|&s| first[s]).collect();
    (distinct, slot, rep)
}

/// Spread per-distinct-key results back out to per-input alignment:
/// duplicates clone their representative's result, each representative
/// takes its result by move.
fn align_to_inputs<T: Clone + Default>(
    mut per_distinct: Vec<T>,
    slot: &[usize],
    rep: &[usize],
) -> Vec<T> {
    let mut out: Vec<T> = vec![T::default(); slot.len()];
    for i in 0..slot.len() {
        if rep[i] != i {
            out[i] = per_distinct[slot[i]].clone();
        }
    }
    for i in 0..slot.len() {
        if rep[i] == i {
            out[i] = std::mem::take(&mut per_distinct[slot[i]]);
        }
    }
    out
}

/// The index key a probe row spells: every one of its columns, encoded.
fn probe_key(key_values: &Row) -> Vec<u8> {
    let mut key = Vec::new();
    for v in key_values.values() {
        v.encode_into(&mut key);
    }
    key
}

/// Bytes [`Row::encode_key_into`] writes for `row`'s `key` columns.
fn key_len(row: &Row, key: &[usize]) -> Result<usize> {
    key.iter().map(|&c| Ok(row.try_get(c)?.byte_size())).sum()
}

/// All matches of one probe, each decoded straight from its leaf.
fn probe<T>(tree: &BPlusTree, key_values: &Row, decode: fn(&[u8]) -> Result<T>) -> Result<Vec<T>> {
    let mut out = Vec::new();
    let mut decoded = Ok(());
    tree.search_with(&probe_key(key_values), |v| {
        if decoded.is_ok() {
            decoded = decode(v).map(|t| out.push(t));
        }
    });
    decoded.map(|()| out)
}

/// Batched [`probe`]: one B-tree probe per distinct key, matches aligned
/// to `key_values`, plus the representative map (see [`batch_groups`]).
fn probe_batch<T: Clone>(
    tree: &BPlusTree,
    key_values: &[Row],
    decode: fn(&[u8]) -> Result<T>,
) -> Result<(Vec<Vec<T>>, Vec<usize>)> {
    let encoded: Vec<Vec<u8>> = key_values.iter().map(probe_key).collect();
    let (distinct, slot, rep) = batch_groups(&encoded);
    let mut out: Vec<Vec<T>> = std::iter::repeat_with(Vec::new)
        .take(distinct.len())
        .collect();
    let mut decoded = Ok(());
    tree.search_many_with(&distinct, |i, v| {
        if decoded.is_ok() {
            decoded = decode(v).map(|t| out[i].push(t));
        }
    });
    decoded?;
    Ok((align_to_inputs(out, &slot, &rep), rep))
}

/// Clustered index: key → row bytes in the leaves.
#[derive(Debug)]
pub struct ClusteredIndex {
    key: Vec<usize>,
    tree: BPlusTree,
    /// Reused key/value encode buffers for the write paths.
    scratch_key: Vec<u8>,
    scratch_val: Vec<u8>,
}

impl ClusteredIndex {
    pub fn new(file: FileId, key: Vec<usize>, buffer: SharedBufferPool) -> Self {
        ClusteredIndex {
            key,
            tree: BPlusTree::new(file, buffer),
            scratch_key: Vec::new(),
            scratch_val: Vec::new(),
        }
    }

    pub fn key_columns(&self) -> &[usize] {
        &self.key
    }

    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Leaf+internal pages occupied.
    pub fn page_count(&self) -> usize {
        self.tree.page_count()
    }

    pub fn insert(&mut self, row: &Row) -> Result<()> {
        self.scratch_key.clear();
        row.encode_key_into(&self.key, &mut self.scratch_key)?;
        self.scratch_val.clear();
        row.encode_into(&mut self.scratch_val);
        self.tree.insert(&self.scratch_key, &self.scratch_val)
    }

    /// [`ClusteredIndex::insert`] of `row`, already encoded as `encoded`,
    /// under a lock of the index's pool that the caller holds.
    pub(crate) fn insert_locked(
        &mut self,
        pool: &mut BufferPool,
        row: &Row,
        encoded: &[u8],
    ) -> Result<()> {
        self.scratch_key.clear();
        row.encode_key_into(&self.key, &mut self.scratch_key)?;
        self.tree.insert_locked(pool, &self.scratch_key, encoded)
    }

    /// Refuse `row`, whose encoding is `row_len` bytes, where
    /// [`ClusteredIndex::insert`] would.
    pub(crate) fn check(&self, row: &Row, row_len: usize) -> Result<()> {
        check_entry_len(key_len(row, &self.key)? + row_len)
    }

    /// Remove one copy of `row`. Returns true if present.
    pub fn delete(&mut self, row: &Row) -> Result<bool> {
        self.scratch_key.clear();
        row.encode_key_into(&self.key, &mut self.scratch_key)?;
        self.scratch_val.clear();
        row.encode_into(&mut self.scratch_val);
        Ok(self.tree.delete(&self.scratch_key, &self.scratch_val))
    }

    /// All rows whose key columns equal `key_values`.
    pub fn search(&self, key_values: &Row) -> Result<Vec<Row>> {
        probe(&self.tree, key_values, Row::decode)
    }

    /// Batched [`ClusteredIndex::search`]: one B-tree probe per *distinct*
    /// key (sorted, merge-cursor — see [`BPlusTree::search_many`]);
    /// duplicate probes share the representative's result. Returns the
    /// match lists aligned to `key_values` plus the representative map
    /// `rep`, where `rep[i]` is the first input position whose key equals
    /// input `i`'s (`rep[i] == i` exactly once per distinct key).
    pub fn search_batch(&self, key_values: &[Row]) -> Result<(Vec<Vec<Row>>, Vec<usize>)> {
        probe_batch(&self.tree, key_values, Row::decode)
    }

    /// Ordered scan of all rows (key order) — the sort-merge access path.
    pub fn scan(&self) -> impl Iterator<Item = Result<Row>> + '_ {
        self.tree.scan().map(|(_, v)| Row::decode(&v))
    }

    #[doc(hidden)]
    pub fn check_invariants(&self) -> Result<()> {
        self.tree.check_invariants()
    }

    #[cfg(test)]
    pub(crate) fn tree(&self) -> &BPlusTree {
        &self.tree
    }
}

/// Non-clustered index: key → RID.
#[derive(Debug)]
pub struct NonClusteredIndex {
    key: Vec<usize>,
    tree: BPlusTree,
    /// Reused key encode buffer for the write paths.
    scratch_key: Vec<u8>,
}

impl NonClusteredIndex {
    pub fn new(file: FileId, key: Vec<usize>, buffer: SharedBufferPool) -> Self {
        NonClusteredIndex {
            key,
            tree: BPlusTree::new(file, buffer),
            scratch_key: Vec::new(),
        }
    }

    pub fn key_columns(&self) -> &[usize] {
        &self.key
    }

    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    pub fn page_count(&self) -> usize {
        self.tree.page_count()
    }

    pub fn insert(&mut self, row: &Row, rid: Rid) -> Result<()> {
        self.scratch_key.clear();
        row.encode_key_into(&self.key, &mut self.scratch_key)?;
        self.tree.insert(&self.scratch_key, &rid.encode())
    }

    /// [`NonClusteredIndex::insert`] under a lock of the index's pool
    /// that the caller holds.
    pub(crate) fn insert_locked(
        &mut self,
        pool: &mut BufferPool,
        row: &Row,
        rid: Rid,
    ) -> Result<()> {
        self.scratch_key.clear();
        row.encode_key_into(&self.key, &mut self.scratch_key)?;
        self.tree
            .insert_locked(pool, &self.scratch_key, &rid.encode())
    }

    /// Refuse `row` where [`NonClusteredIndex::insert`] would.
    pub(crate) fn check(&self, row: &Row) -> Result<()> {
        check_entry_len(key_len(row, &self.key)? + Rid::default().encode().len())
    }

    pub fn delete(&mut self, row: &Row, rid: Rid) -> Result<bool> {
        self.scratch_key.clear();
        row.encode_key_into(&self.key, &mut self.scratch_key)?;
        Ok(self.tree.delete(&self.scratch_key, &rid.encode()))
    }

    /// RIDs of all rows whose key columns equal `key_values`.
    pub fn search(&self, key_values: &Row) -> Result<Vec<Rid>> {
        probe(&self.tree, key_values, Rid::decode)
    }

    /// Batched [`NonClusteredIndex::search`] with the same distinct-key
    /// dedup contract as [`ClusteredIndex::search_batch`]: rid lists
    /// aligned to `key_values`, plus the representative map `rep`.
    pub fn search_batch(&self, key_values: &[Row]) -> Result<(Vec<Vec<Rid>>, Vec<usize>)> {
        probe_batch(&self.tree, key_values, Rid::decode)
    }

    #[doc(hidden)]
    pub fn check_invariants(&self) -> Result<()> {
        self.tree.check_invariants()
    }

    #[cfg(test)]
    pub(crate) fn tree(&self) -> &BPlusTree {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use pvm_types::row;

    #[test]
    fn clustered_roundtrip() {
        let mut ix = ClusteredIndex::new(FileId(1), vec![0], BufferPool::shared(256));
        for i in 0..100 {
            ix.insert(&row![i % 10, i]).unwrap();
        }
        let hits = ix.search(&row![3]).unwrap();
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|r| r[0] == pvm_types::Value::Int(3)));
        assert_eq!(ix.len(), 100);
    }

    #[test]
    fn clustered_delete_one_copy() {
        let mut ix = ClusteredIndex::new(FileId(1), vec![0], BufferPool::shared(256));
        let r = row![1, "x"];
        ix.insert(&r).unwrap();
        ix.insert(&r).unwrap();
        assert!(ix.delete(&r).unwrap());
        assert_eq!(ix.search(&row![1]).unwrap().len(), 1);
        assert!(ix.delete(&r).unwrap());
        assert!(!ix.delete(&r).unwrap());
    }

    #[test]
    fn clustered_scan_is_key_ordered() {
        let mut ix = ClusteredIndex::new(FileId(1), vec![0], BufferPool::shared(256));
        for i in (0..50).rev() {
            ix.insert(&row![i]).unwrap();
        }
        let keys: Vec<i64> = ix.scan().map(|r| r.unwrap()[0].as_int().unwrap()).collect();
        assert_eq!(keys, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn composite_key_search() {
        let mut ix = ClusteredIndex::new(FileId(1), vec![0, 1], BufferPool::shared(256));
        ix.insert(&row![1, "a", 10]).unwrap();
        ix.insert(&row![1, "b", 20]).unwrap();
        let hits = ix.search(&row![1, "a"]).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0][2], pvm_types::Value::Int(10));
    }

    #[test]
    fn batch_groups_dedups_and_maps_representatives() {
        let enc: Vec<Vec<u8>> = [b"b", b"a", b"b", b"a", b"c"]
            .iter()
            .map(|k| k.to_vec())
            .collect();
        let (distinct, slot, rep) = batch_groups(&enc);
        assert_eq!(distinct, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
        assert_eq!(slot, vec![1, 0, 1, 0, 2]);
        assert_eq!(rep, vec![0, 1, 0, 1, 4]);
    }

    #[test]
    fn clustered_search_batch_matches_per_key() {
        let mut ix = ClusteredIndex::new(FileId(1), vec![0], BufferPool::shared(256));
        for i in 0..100 {
            ix.insert(&row![i % 10, i]).unwrap();
        }
        // Unsorted probes with duplicates and misses.
        let probes: Vec<Row> = [3i64, 7, 3, 42, 0, 3].iter().map(|&v| row![v]).collect();
        let (hits, rep) = ix.search_batch(&probes).unwrap();
        assert_eq!(hits.len(), probes.len());
        for (p, h) in probes.iter().zip(&hits) {
            assert_eq!(h, &ix.search(p).unwrap());
        }
        assert_eq!(rep, vec![0, 1, 0, 3, 4, 0]);
    }

    #[test]
    fn nonclustered_search_batch_matches_per_key() {
        let mut ix = NonClusteredIndex::new(FileId(2), vec![1], BufferPool::shared(256));
        for i in 0..40u32 {
            ix.insert(&row![i as i64, (i % 4) as i64], Rid::new(i, 0))
                .unwrap();
        }
        let probes: Vec<Row> = [2i64, 2, 9, 0].iter().map(|&v| row![v]).collect();
        let (hits, rep) = ix.search_batch(&probes).unwrap();
        for (p, h) in probes.iter().zip(&hits) {
            assert_eq!(h, &ix.search(p).unwrap());
        }
        assert_eq!(rep, vec![0, 0, 2, 3]);
    }

    #[test]
    fn nonclustered_returns_rids() {
        let mut ix = NonClusteredIndex::new(FileId(2), vec![1], BufferPool::shared(256));
        let r1 = row![10, 5];
        let r2 = row![11, 5];
        ix.insert(&r1, Rid::new(0, 0)).unwrap();
        ix.insert(&r2, Rid::new(0, 1)).unwrap();
        let rids = ix.search(&row![5]).unwrap();
        assert_eq!(rids, vec![Rid::new(0, 0), Rid::new(0, 1)]);
        assert!(ix.delete(&r1, Rid::new(0, 0)).unwrap());
        assert_eq!(ix.search(&row![5]).unwrap(), vec![Rid::new(0, 1)]);
    }
}
