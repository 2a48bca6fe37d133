//! A from-scratch B+tree over byte-string keys.
//!
//! Properties:
//!
//! * entries are `(key, value)` byte pairs ordered by the composite
//!   `(key, value)`, so **duplicate keys** (and even duplicate entries —
//!   multiset semantics) are fully supported: equal keys are contiguous in
//!   leaf order and may span leaves;
//! * an entry is **one allocation** (`key ‖ value` plus the key's length),
//!   accounted as `key + value + 8` bytes against the node budget;
//! * leaves are chained left-to-right for ordered scans (the access path
//!   used by sort-merge joins over clustered auxiliary relations);
//! * nodes live in an arena and are sized by a *byte budget* equal to the
//!   page size, so tree page counts are realistic and every node visit is
//!   metered through the node's [`crate::BufferPool`];
//! * deletion is lazy (no rebalancing/merging, like PostgreSQL's nbtree):
//!   underfull leaves simply stay; this never affects correctness, only
//!   space, and keeps the structure auditable.
//!
//! The tree stores raw bytes; the typed clustered / non-clustered index
//! wrappers live in [`crate::index`].

use pvm_types::{PvmError, Result};

use crate::buffer::{AccessMode, PageKey, SharedBufferPool};
use crate::page::PAGE_SIZE;
use crate::FileId;

/// Byte budget per node; splits trigger when exceeded.
const NODE_BYTE_BUDGET: usize = PAGE_SIZE;
/// Accounting overhead charged per entry / separator.
const ENTRY_OVERHEAD: usize = 8;

type NodeIdx = usize;

/// One `(key, value)` pair packed into a single allocation.
#[derive(Debug, Clone)]
struct Entry {
    /// `key ‖ value`.
    buf: Box<[u8]>,
    key_len: u32,
}

impl Entry {
    fn new(key: &[u8], val: &[u8]) -> Self {
        let mut buf = Vec::with_capacity(key.len() + val.len());
        buf.extend_from_slice(key);
        buf.extend_from_slice(val);
        Entry {
            buf: buf.into_boxed_slice(),
            key_len: u32::try_from(key.len()).expect("insert bounds entries by the node budget"),
        }
    }

    fn key(&self) -> &[u8] {
        &self.buf[..self.key_len as usize]
    }

    fn val(&self) -> &[u8] {
        &self.buf[self.key_len as usize..]
    }

    /// Bytes this entry is accounted at against the node budget.
    fn size(&self) -> usize {
        entry_size(self.key(), self.val())
    }

    /// Composite `(key, value)` order against a probe.
    fn cmp_to(&self, key: &[u8], val: &[u8]) -> std::cmp::Ordering {
        self.key().cmp(key).then_with(|| self.val().cmp(val))
    }
}

#[derive(Debug)]
enum Node {
    Leaf {
        /// Entries sorted by composite order.
        entries: Vec<Entry>,
        /// Next leaf to the right.
        next: Option<NodeIdx>,
        /// Cached byte size of all entries.
        bytes: usize,
    },
    Internal {
        /// `seps[i]` is the minimum composite entry of `children[i + 1]`.
        seps: Vec<Entry>,
        children: Vec<NodeIdx>,
        bytes: usize,
    },
}

fn entry_size(k: &[u8], v: &[u8]) -> usize {
    k.len() + v.len() + ENTRY_OVERHEAD
}

/// The B+tree. See module docs.
///
/// ```
/// use pvm_storage::btree::BPlusTree;
/// use pvm_storage::{BufferPool, FileId};
///
/// let mut t = BPlusTree::new(FileId(0), BufferPool::shared(256));
/// t.insert(b"k1", b"v1").unwrap();
/// t.insert(b"k1", b"v2").unwrap(); // duplicate keys are fine
/// assert_eq!(t.search(b"k1").len(), 2);
/// assert!(t.delete(b"k1", b"v1"));
/// assert_eq!(t.search(b"k1"), vec![b"v2".to_vec()]);
/// ```
#[derive(Debug)]
pub struct BPlusTree {
    file: FileId,
    nodes: Vec<Node>,
    root: NodeIdx,
    buffer: SharedBufferPool,
    len: u64,
}

impl BPlusTree {
    pub fn new(file: FileId, buffer: SharedBufferPool) -> Self {
        let root = Node::Leaf {
            entries: Vec::new(),
            next: None,
            bytes: 0,
        };
        BPlusTree {
            file,
            nodes: vec![root],
            root: 0,
            buffer,
            len: 0,
        }
    }

    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of nodes ≈ pages occupied.
    pub fn page_count(&self) -> usize {
        self.nodes.len()
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut idx = self.root;
        while let Node::Internal { children, .. } = &self.nodes[idx] {
            idx = children[0];
            h += 1;
        }
        h
    }

    fn touch(&self, node: NodeIdx, mode: AccessMode) {
        self.buffer
            .lock()
            .access(PageKey::new(self.file, node as u32), mode);
    }

    /// Descend to the leftmost leaf that could contain `(key, val)`;
    /// records the path for split propagation.
    fn descend(&self, key: &[u8], val: &[u8]) -> (NodeIdx, Vec<NodeIdx>) {
        let mut path = Vec::new();
        let mut idx = self.root;
        loop {
            self.touch(idx, AccessMode::Read);
            match &self.nodes[idx] {
                Node::Leaf { .. } => return (idx, path),
                Node::Internal { seps, children, .. } => {
                    path.push(idx);
                    // First separator strictly greater than probe bounds the
                    // child on its left; probe >= sep means the right child's
                    // range includes it.
                    let pos = seps.partition_point(|s| s.cmp_to(key, val).is_le());
                    idx = children[pos];
                }
            }
        }
    }

    /// Insert an entry. Duplicates (same key, same or different value) are
    /// allowed; the tree is a multiset.
    pub fn insert(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        if entry_size(key, val) > NODE_BYTE_BUDGET / 2 {
            return Err(PvmError::CapacityExceeded(format!(
                "index entry of {} bytes exceeds half a page",
                entry_size(key, val)
            )));
        }
        let (leaf, path) = self.descend(key, val);
        self.touch(leaf, AccessMode::Write);
        let Node::Leaf { entries, bytes, .. } = &mut self.nodes[leaf] else {
            unreachable!("descend returns a leaf")
        };
        let pos = entries.partition_point(|e| e.cmp_to(key, val).is_le());
        entries.insert(pos, Entry::new(key, val));
        *bytes += entry_size(key, val);
        self.len += 1;
        self.split_if_needed(leaf, path);
        Ok(())
    }

    fn split_if_needed(&mut self, mut idx: NodeIdx, mut path: Vec<NodeIdx>) {
        loop {
            let needs_split = match &self.nodes[idx] {
                Node::Leaf { entries, bytes, .. } => *bytes > NODE_BYTE_BUDGET && entries.len() > 1,
                Node::Internal { seps, bytes, .. } => *bytes > NODE_BYTE_BUDGET && seps.len() > 2,
            };
            if !needs_split {
                return;
            }
            let (sep, new_idx) = self.split(idx);
            match path.pop() {
                Some(parent) => {
                    self.touch(parent, AccessMode::Write);
                    let Node::Internal {
                        seps,
                        children,
                        bytes,
                    } = &mut self.nodes[parent]
                    else {
                        unreachable!("path nodes are internal")
                    };
                    let pos = seps.partition_point(|s| s.cmp_to(sep.key(), sep.val()).is_le());
                    *bytes += sep.size();
                    seps.insert(pos, sep);
                    children.insert(pos + 1, new_idx);
                    idx = parent;
                }
                None => {
                    // Split reached the root: grow the tree by one level.
                    let bytes = sep.size();
                    let new_root = Node::Internal {
                        seps: vec![sep],
                        children: vec![idx, new_idx],
                        bytes,
                    };
                    self.nodes.push(new_root);
                    self.root = self.nodes.len() - 1;
                    self.touch(self.root, AccessMode::Write);
                    return;
                }
            }
        }
    }

    /// Split node `idx` in half; returns `(separator, right node idx)`.
    /// The separator is the minimum entry of the right node.
    fn split(&mut self, idx: NodeIdx) -> (Entry, NodeIdx) {
        self.touch(idx, AccessMode::Write);
        let new_idx = self.nodes.len();
        match &mut self.nodes[idx] {
            Node::Leaf {
                entries,
                next,
                bytes,
            } => {
                let mid = entries.len() / 2;
                let right_entries: Vec<_> = entries.split_off(mid);
                let right_bytes: usize = right_entries.iter().map(Entry::size).sum();
                *bytes -= right_bytes;
                let sep = right_entries[0].clone();
                let right = Node::Leaf {
                    entries: right_entries,
                    next: next.take(),
                    bytes: right_bytes,
                };
                // Re-link: left.next = right (right inherited left's old next).
                if let Node::Leaf { next, .. } = &mut self.nodes[idx] {
                    *next = Some(new_idx);
                }
                self.nodes.push(right);
                self.touch(new_idx, AccessMode::Write);
                (sep, new_idx)
            }
            Node::Internal {
                seps,
                children,
                bytes,
            } => {
                // Promote the middle separator.
                let mid = seps.len() / 2;
                let mut right_seps = seps.split_off(mid);
                let promoted = right_seps.remove(0);
                let right_children = children.split_off(mid + 1);
                let right_bytes: usize = right_seps.iter().map(Entry::size).sum();
                *bytes -= right_bytes + promoted.size();
                let right = Node::Internal {
                    seps: right_seps,
                    children: right_children,
                    bytes: right_bytes,
                };
                self.nodes.push(right);
                self.touch(new_idx, AccessMode::Write);
                (promoted, new_idx)
            }
        }
    }

    /// All values stored under `key`, in value order. Touches the descent
    /// path plus every leaf holding matches.
    pub fn search(&self, key: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let (mut leaf, _) = self.descend(key, &[]);
        loop {
            let Node::Leaf { entries, next, .. } = &self.nodes[leaf] else {
                unreachable!()
            };
            let start = entries.partition_point(|e| e.key() < key);
            for e in &entries[start..] {
                if e.key() == key {
                    out.push(e.val().to_vec());
                } else {
                    // Passed beyond `key`: no match can follow.
                    return out;
                }
            }
            // Consumed this leaf to its end; matches may continue right.
            match next {
                Some(n) => {
                    leaf = *n;
                    self.touch(leaf, AccessMode::Read);
                }
                None => return out,
            }
        }
    }

    /// Batched [`BPlusTree::search`] for `keys` sorted ascending and
    /// distinct. Probes share a merge-style cursor over the leaf chain:
    /// a key whose start position falls inside the leaf where the
    /// previous probe stopped reuses that (pinned) leaf instead of
    /// re-descending from the root, so duplicate-heavy batches and
    /// adjacent leaves are touched once rather than once per probe.
    pub fn search_many(&self, keys: &[Vec<u8>]) -> Vec<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(keys.len());
        let mut cursor: Option<NodeIdx> = None;
        for (i, key) in keys.iter().enumerate() {
            debug_assert!(
                i == 0 || keys[i - 1].as_slice() < key.as_slice(),
                "search_many keys must be sorted and distinct"
            );
            let in_cursor = cursor.is_some_and(|leaf| {
                let Node::Leaf { entries, .. } = &self.nodes[leaf] else {
                    unreachable!()
                };
                match (entries.first(), entries.last()) {
                    // The lower bound is strict: entries in earlier leaves
                    // sort <= this leaf's first entry, so `first < key`
                    // guarantees no match lives left of the cursor (equal
                    // keys could straddle the boundary otherwise).
                    (Some(first), Some(last)) => {
                        first.key() < key.as_slice() && key.as_slice() <= last.key()
                    }
                    _ => false,
                }
            });
            let mut leaf = match cursor.filter(|_| in_cursor) {
                Some(l) => l,
                None => self.descend(key, &[]).0,
            };
            let mut matches = Vec::new();
            'scan: loop {
                let Node::Leaf { entries, next, .. } = &self.nodes[leaf] else {
                    unreachable!()
                };
                let start = entries.partition_point(|e| e.key() < key.as_slice());
                for e in &entries[start..] {
                    if e.key() == key.as_slice() {
                        matches.push(e.val().to_vec());
                    } else {
                        break 'scan;
                    }
                }
                match next {
                    Some(n) => {
                        leaf = *n;
                        self.touch(leaf, AccessMode::Read);
                    }
                    None => break 'scan,
                }
            }
            cursor = Some(leaf);
            out.push(matches);
        }
        out
    }

    /// Whether any entry has exactly `(key, val)`.
    pub fn contains(&self, key: &[u8], val: &[u8]) -> bool {
        let (mut leaf, _) = self.descend(key, val);
        loop {
            let Node::Leaf { entries, next, .. } = &self.nodes[leaf] else {
                unreachable!()
            };
            let pos = entries.partition_point(|e| e.cmp_to(key, val).is_lt());
            if let Some(e) = entries.get(pos) {
                return e.cmp_to(key, val).is_eq();
            }
            match next {
                Some(n) => {
                    leaf = *n;
                    self.touch(leaf, AccessMode::Read);
                }
                None => return false,
            }
        }
    }

    /// Remove **one** entry equal to `(key, val)`. Returns true if removed.
    pub fn delete(&mut self, key: &[u8], val: &[u8]) -> bool {
        let (mut leaf, _) = self.descend(key, val);
        loop {
            let Node::Leaf {
                entries,
                next,
                bytes,
            } = &mut self.nodes[leaf]
            else {
                unreachable!()
            };
            let pos = entries.partition_point(|e| e.cmp_to(key, val).is_lt());
            if let Some(e) = entries.get(pos) {
                if e.cmp_to(key, val).is_eq() {
                    *bytes -= entry_size(key, val);
                    entries.remove(pos);
                    self.len -= 1;
                    self.touch(leaf, AccessMode::Write);
                    return true;
                }
                return false;
            }
            // Reached end of this leaf without a greater entry: continue
            // right (the entry may start the next leaf).
            match *next {
                Some(n) => {
                    leaf = n;
                    self.touch(leaf, AccessMode::Read);
                }
                None => return false,
            }
        }
    }

    /// Remove **all** entries with `key`, returning their values.
    pub fn delete_all(&mut self, key: &[u8]) -> Vec<Vec<u8>> {
        let vals = self.search(key);
        for v in &vals {
            let removed = self.delete(key, v);
            debug_assert!(removed);
        }
        vals
    }

    fn leftmost_leaf(&self) -> NodeIdx {
        let mut idx = self.root;
        loop {
            self.touch(idx, AccessMode::Read);
            match &self.nodes[idx] {
                Node::Leaf { .. } => return idx,
                Node::Internal { children, .. } => idx = children[0],
            }
        }
    }

    /// Ordered scan of all entries (clustered scan access path). Touches
    /// every leaf.
    pub fn scan(&self) -> BTreeScan<'_> {
        let leaf = self.leftmost_leaf();
        BTreeScan {
            tree: self,
            leaf: Some(leaf),
            pos: 0,
        }
    }

    /// Ordered scan starting at the first entry with `key >= from`.
    pub fn scan_from(&self, from: &[u8]) -> BTreeScan<'_> {
        let (leaf, _) = self.descend(from, &[]);
        let pos = match &self.nodes[leaf] {
            Node::Leaf { entries, .. } => entries.partition_point(|e| e.key() < from),
            _ => unreachable!(),
        };
        BTreeScan {
            tree: self,
            leaf: Some(leaf),
            pos,
        }
    }

    /// Internal consistency check used by tests: order within every node,
    /// leaf-chain completeness, byte accounting.
    pub fn check_invariants(&self) -> Result<()> {
        // 1. Every node's entries / separators are sorted; bytes match.
        for node in &self.nodes {
            let (entries, bytes) = match node {
                Node::Leaf { entries, bytes, .. } => (entries, bytes),
                Node::Internal { seps, bytes, .. } => (seps, bytes),
            };
            if entries
                .windows(2)
                .any(|w| w[0].cmp_to(w[1].key(), w[1].val()).is_gt())
            {
                return Err(PvmError::Corrupt("node out of order".into()));
            }
            if entries.iter().map(Entry::size).sum::<usize>() != *bytes {
                return Err(PvmError::Corrupt("node byte accounting drift".into()));
            }
        }
        // 2. Chain from the leftmost leaf yields len() sorted entries.
        let mut count = 0u64;
        let mut prev: Option<(Vec<u8>, Vec<u8>)> = None;
        for (k, v) in self.scan() {
            if let Some(p) = &prev {
                if (p.0.as_slice(), p.1.as_slice()) > (k.as_slice(), v.as_slice()) {
                    return Err(PvmError::Corrupt("scan out of order".into()));
                }
            }
            prev = Some((k, v));
            count += 1;
        }
        if count != self.len {
            return Err(PvmError::Corrupt(format!(
                "scan count {count} != len {len}",
                len = self.len
            )));
        }
        Ok(())
    }
}

/// Ordered iterator over `(key, value)` pairs.
pub struct BTreeScan<'a> {
    tree: &'a BPlusTree,
    leaf: Option<NodeIdx>,
    pos: usize,
}

impl Iterator for BTreeScan<'_> {
    type Item = (Vec<u8>, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let leaf = self.leaf?;
            match &self.tree.nodes[leaf] {
                Node::Leaf { entries, next, .. } => {
                    if let Some(e) = entries.get(self.pos) {
                        self.pos += 1;
                        return Some((e.key().to_vec(), e.val().to_vec()));
                    }
                    self.leaf = *next;
                    self.pos = 0;
                    if let Some(n) = self.leaf {
                        self.tree.touch(n, AccessMode::Read);
                    }
                }
                _ => unreachable!("scan only visits leaves"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;

    fn tree() -> BPlusTree {
        BPlusTree::new(FileId(10), BufferPool::shared(1024))
    }

    fn key(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn insert_search_small() {
        let mut t = tree();
        t.insert(&key(5), b"five").unwrap();
        t.insert(&key(3), b"three").unwrap();
        t.insert(&key(9), b"nine").unwrap();
        assert_eq!(t.search(&key(3)), vec![b"three".to_vec()]);
        assert_eq!(t.search(&key(9)), vec![b"nine".to_vec()]);
        assert!(t.search(&key(4)).is_empty());
        assert_eq!(t.len(), 3);
        t.check_invariants().unwrap();
    }

    #[test]
    fn many_inserts_split_correctly() {
        let mut t = tree();
        let n = 5000u64;
        // Insert in a scrambled order.
        for i in 0..n {
            let k = (i * 2654435761) % n;
            t.insert(&key(k), &k.to_be_bytes()).unwrap();
        }
        assert_eq!(t.len(), n);
        assert!(
            t.page_count() > 10,
            "5000 entries must split into many nodes"
        );
        assert!(t.height() >= 2);
        t.check_invariants().unwrap();
        for probe in [0u64, 1, n / 2, n - 1] {
            assert_eq!(t.search(&key(probe)).len(), 1, "probe {probe}");
        }
    }

    #[test]
    fn duplicate_keys_supported() {
        let mut t = tree();
        for i in 0..100u64 {
            t.insert(&key(42), &i.to_be_bytes()).unwrap();
        }
        t.insert(&key(41), b"l").unwrap();
        t.insert(&key(43), b"r").unwrap();
        let hits = t.search(&key(42));
        assert_eq!(hits.len(), 100);
        // Values come back in value order.
        for (i, v) in hits.iter().enumerate() {
            assert_eq!(v, &(i as u64).to_be_bytes().to_vec());
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicates_spanning_many_leaves() {
        let mut t = tree();
        let big = vec![7u8; 512];
        for i in 0..200u64 {
            let mut v = big.clone();
            v.extend_from_slice(&i.to_be_bytes());
            t.insert(&key(1), &v).unwrap();
        }
        assert!(t.page_count() > 10, "duplicates must span leaves");
        assert_eq!(t.search(&key(1)).len(), 200);
        assert!(t.search(&key(0)).is_empty());
        assert!(t.search(&key(2)).is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn search_many_matches_per_key_search() {
        let mut t = tree();
        let n = 3000u64;
        for i in 0..n {
            let k = (i * 2654435761) % 500; // heavy duplication, scrambled
            t.insert(&key(k), &i.to_be_bytes()).unwrap();
        }
        // Sorted distinct probes: present, absent, dense runs, extremes.
        let probes: Vec<Vec<u8>> = (0..600u64).step_by(3).map(key).collect();
        let batched = t.search_many(&probes);
        assert_eq!(batched.len(), probes.len());
        for (k, hits) in probes.iter().zip(&batched) {
            assert_eq!(hits, &t.search(k), "probe {k:?}");
        }
    }

    #[test]
    fn search_many_duplicates_across_leaf_boundaries() {
        // Duplicate runs long enough that one key's matches span several
        // leaves and the next key starts mid-chain: the cursor must not
        // skip matches straddling a leaf boundary.
        let mut t = tree();
        let big = vec![7u8; 512];
        for k in [1u64, 2, 3] {
            for i in 0..80u64 {
                let mut v = big.clone();
                v.extend_from_slice(&i.to_be_bytes());
                t.insert(&key(k), &v).unwrap();
            }
        }
        let probes: Vec<Vec<u8>> = (0..5u64).map(key).collect();
        let got: Vec<usize> = t.search_many(&probes).iter().map(Vec::len).collect();
        assert_eq!(got, vec![0, 80, 80, 80, 0]);
    }

    #[test]
    fn multiset_semantics() {
        let mut t = tree();
        t.insert(b"k", b"v").unwrap();
        t.insert(b"k", b"v").unwrap();
        assert_eq!(t.search(b"k").len(), 2);
        assert!(t.delete(b"k", b"v"));
        assert_eq!(t.search(b"k").len(), 1);
        assert!(t.delete(b"k", b"v"));
        assert!(!t.delete(b"k", b"v"));
        assert!(t.is_empty());
    }

    #[test]
    fn delete_across_leaves() {
        let mut t = tree();
        let n = 3000u64;
        for i in 0..n {
            t.insert(&key(i), &i.to_be_bytes()).unwrap();
        }
        for i in (0..n).step_by(3) {
            assert!(t.delete(&key(i), &i.to_be_bytes()), "delete {i}");
        }
        assert_eq!(t.len(), n - n.div_ceil(3));
        for i in 0..n {
            let expect = i % 3 != 0;
            assert_eq!(!t.search(&key(i)).is_empty(), expect, "probe {i}");
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn delete_all_returns_values() {
        let mut t = tree();
        for i in 0..10u64 {
            t.insert(&key(7), &i.to_be_bytes()).unwrap();
        }
        let vals = t.delete_all(&key(7));
        assert_eq!(vals.len(), 10);
        assert!(t.search(&key(7)).is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn ordered_scan() {
        let mut t = tree();
        for i in (0..1000u64).rev() {
            t.insert(&key(i), b"").unwrap();
        }
        let keys: Vec<u64> = t
            .scan()
            .map(|(k, _)| u64::from_be_bytes(k.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(keys.len(), 1000);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn scan_from_midpoint() {
        let mut t = tree();
        for i in 0..100u64 {
            t.insert(&key(i), b"").unwrap();
        }
        let got: Vec<u64> = t
            .scan_from(&key(90))
            .map(|(k, _)| u64::from_be_bytes(k.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(got, (90..100).collect::<Vec<_>>());
    }

    #[test]
    fn contains_exact_entry() {
        let mut t = tree();
        t.insert(b"a", b"1").unwrap();
        assert!(t.contains(b"a", b"1"));
        assert!(!t.contains(b"a", b"2"));
        assert!(!t.contains(b"b", b"1"));
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut t = tree();
        let huge = vec![0u8; NODE_BYTE_BUDGET];
        assert!(t.insert(b"k", &huge).is_err());
    }

    #[test]
    fn page_accesses_metered() {
        let bp = BufferPool::shared(0);
        let mut t = BPlusTree::new(FileId(20), bp.clone());
        for i in 0..500u64 {
            t.insert(&key(i), &i.to_be_bytes()).unwrap();
        }
        bp.lock().reset_counters();
        let _ = t.search(&key(250));
        let io = bp.lock().io_snapshot();
        let h = t.height() as u64;
        assert!(
            io.page_reads >= h && io.page_reads <= h + 2,
            "search should touch ≈height pages, got {} for height {h}",
            io.page_reads
        );
    }

    #[test]
    fn search_with_hot_cache_is_cheap() {
        let bp = BufferPool::shared(4096);
        let mut t = BPlusTree::new(FileId(21), bp.clone());
        for i in 0..2000u64 {
            t.insert(&key(i), &i.to_be_bytes()).unwrap();
        }
        let _ = t.search(&key(1000)); // warm the path
        bp.lock().reset_counters();
        let _ = t.search(&key(1000));
        assert_eq!(
            bp.lock().io_snapshot().page_reads,
            0,
            "hot path must be all hits"
        );
    }

    /// Leaf and internal bytes as the nodes account them.
    fn accounted_bytes(t: &BPlusTree) -> (usize, usize) {
        t.nodes.iter().fold((0, 0), |(leaf, internal), n| match n {
            Node::Leaf { bytes, .. } => (leaf + bytes, internal),
            Node::Internal { bytes, .. } => (leaf, internal + bytes),
        })
    }

    #[test]
    fn packed_entries_account_like_separate_key_and_value() {
        // The constants are what `Vec<(Vec<u8>, Vec<u8>)>` entries produced
        // for this sequence: packing changes the allocation, not the page
        // model (entry = key + value + 8 bytes, same split points).
        let mut t = tree();
        let n = 24_000u64;
        for i in 0..n {
            let k = (i * 2654435761) % n;
            let val = vec![k as u8; (k % 97) as usize];
            t.insert(&key(k % 5000), &val).unwrap();
        }
        assert_eq!((t.page_count(), t.height()), (260, 3));
        assert_eq!(accounted_bytes(&t), (1_534_852, 16_394));
        for i in (0..n).step_by(3) {
            let k = (i * 2654435761) % n;
            let val = vec![k as u8; (k % 97) as usize];
            assert!(t.delete(&key(k % 5000), &val));
        }
        for i in 0..9000u64 {
            t.insert(&key(i * 7 % 5000), &[7u8; 150]).unwrap();
        }
        assert_eq!(t.len(), n - n.div_ceil(3) + 9000);
        assert_eq!((t.page_count(), t.height()), (518, 3));
        assert_eq!(accounted_bytes(&t), (2_517_216, 40_640));
        t.check_invariants().unwrap();
    }
}
