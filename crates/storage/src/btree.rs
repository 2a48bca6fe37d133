//! A from-scratch B+tree over byte-string keys.
//!
//! Properties:
//!
//! * entries are `(key, value)` byte pairs ordered by the composite
//!   `(key, value)`, so **duplicate keys** (and even duplicate entries —
//!   multiset semantics) are fully supported: equal keys are contiguous in
//!   leaf order and may span leaves, and copies of one entry may sit on
//!   both sides of a separator equal to it, so reads descend left of such
//!   a separator and walk the leaf chain;
//! * a node keeps **all its entries in one byte buffer**: an insert
//!   appends `key ‖ value` to the buffer and puts a slot (offset, key
//!   length, value length) into a sorted slot array, so a binary search
//!   compares bytes inside one allocation and a probe hands each match to
//!   its caller in place ([`BPlusTree::search_with`]);
//! * a delete drops the slot and counts the bytes it leaves dead; a node
//!   compacts once its dead bytes pass half its buffer, so a buffer never
//!   holds more than twice its live key and value bytes;
//! * a split gives the new right node room for as many entries and bytes
//!   as the whole node held, so it refills without reallocating;
//! * the layout does not enter the page model: an entry is accounted as
//!   `key + value + 8` bytes against the node budget, so page counts,
//!   split points and buffer-pool traffic are those of the page model,
//!   not of the allocator;
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

use std::cmp::Ordering;
use std::sync::Arc;

use pvm_types::{PvmError, Result};

use crate::buffer::{AccessMode, BufferPool, PageKey, SharedBufferPool};
use crate::page::PAGE_SIZE;
use crate::FileId;

/// Byte budget per node; splits trigger when exceeded.
const NODE_BYTE_BUDGET: usize = PAGE_SIZE;
/// Accounting overhead charged per entry / separator.
const ENTRY_OVERHEAD: usize = 8;

type NodeIdx = usize;

/// A separator moving up a split: the one entry held outside a node.
#[derive(Debug)]
struct Entry {
    /// `key ‖ value`.
    buf: Box<[u8]>,
    key_len: usize,
}

impl Entry {
    fn key(&self) -> &[u8] {
        &self.buf[..self.key_len]
    }

    fn val(&self) -> &[u8] {
        &self.buf[self.key_len..]
    }

    /// Bytes this entry is accounted at against the node budget.
    fn size(&self) -> usize {
        self.buf.len() + ENTRY_OVERHEAD
    }
}

/// Where one entry's `key ‖ value` sits in its node's buffer.
#[derive(Debug, Clone, Copy)]
struct Slot {
    off: u32,
    key_len: u16,
    val_len: u16,
}

impl Slot {
    fn len(self) -> usize {
        self.key_len as usize + self.val_len as usize
    }

    fn end(self) -> usize {
        self.off as usize + self.len()
    }
}

/// A node's entries: every `key ‖ value` in one buffer, ordered by a
/// slot array.
#[derive(Debug, Default)]
struct Packed {
    /// Entry bytes in append order, dead ones included.
    buf: Vec<u8>,
    /// Live entries in composite order.
    slots: Vec<Slot>,
    /// Bytes of `buf` no slot points at.
    dead: usize,
}

impl Packed {
    fn len(&self) -> usize {
        self.slots.len()
    }

    fn key_of(&self, s: Slot) -> &[u8] {
        &self.buf[s.off as usize..][..s.key_len as usize]
    }

    fn val_of(&self, s: Slot) -> &[u8] {
        &self.buf[s.off as usize + s.key_len as usize..s.end()]
    }

    fn key(&self, i: usize) -> &[u8] {
        self.key_of(self.slots[i])
    }

    fn val(&self, i: usize) -> &[u8] {
        self.val_of(self.slots[i])
    }

    fn entry(&self, i: usize) -> Entry {
        let s = self.slots[i];
        Entry {
            buf: self.buf[s.off as usize..s.end()].into(),
            key_len: s.key_len as usize,
        }
    }

    /// Composite `(key, value)` order of entry `i` against a probe.
    fn cmp_at(&self, i: usize, key: &[u8], val: &[u8]) -> Ordering {
        self.cmp_slot(self.slots[i], key, val)
    }

    fn cmp_slot(&self, s: Slot, key: &[u8], val: &[u8]) -> Ordering {
        cmp_bytes(self.key_of(s), key).then_with(|| cmp_bytes(self.val_of(s), val))
    }

    /// First position whose key is not below `key`.
    fn lower_bound_key(&self, key: &[u8]) -> usize {
        self.slots
            .partition_point(|&s| cmp_bytes(self.key_of(s), key).is_lt())
    }

    /// First position whose entry is not below `(key, val)`.
    fn lower_bound(&self, key: &[u8], val: &[u8]) -> usize {
        self.slots
            .partition_point(|&s| self.cmp_slot(s, key, val).is_lt())
    }

    /// First position whose entry is above `(key, val)`.
    fn upper_bound(&self, key: &[u8], val: &[u8]) -> usize {
        self.slots
            .partition_point(|&s| self.cmp_slot(s, key, val).is_le())
    }

    fn insert(&mut self, pos: usize, key: &[u8], val: &[u8]) {
        let slot = Slot {
            off: u32::try_from(self.buf.len()).expect("a node buffer stays within a few pages"),
            key_len: u16::try_from(key.len()).expect("insert bounds entries by half a page"),
            val_len: u16::try_from(val.len()).expect("insert bounds entries by half a page"),
        };
        self.buf.extend_from_slice(key);
        self.buf.extend_from_slice(val);
        self.slots.insert(pos, slot);
    }

    /// Drop entry `pos`; compacts once dead bytes pass half the buffer.
    fn remove(&mut self, pos: usize) {
        self.dead += self.slots.remove(pos).len();
        if self.dead * 2 > self.buf.len() {
            self.compact();
        }
    }

    /// Rewrite the buffer with live entries only, in slot order.
    fn compact(&mut self) {
        let mut buf = Vec::with_capacity(self.slots.iter().map(|s| s.len()).sum());
        for s in &mut self.slots {
            let start = s.off as usize;
            let end = s.end();
            s.off = buf.len() as u32;
            buf.extend_from_slice(&self.buf[start..end]);
        }
        self.buf = buf;
        self.dead = 0;
    }

    /// Copy entries `from..` into a fresh node and keep only `..keep`
    /// here, compacted (an internal split drops the promoted separator
    /// between the two). The fresh node gets room for as many entries and
    /// bytes as this one held, so it refills without reallocating.
    fn split_off(&mut self, keep: usize, from: usize) -> Packed {
        let moved = &self.slots[from..];
        let mut right = Packed {
            buf: Vec::with_capacity(self.buf.len() - self.dead),
            slots: Vec::with_capacity(self.slots.len()),
            dead: 0,
        };
        for &s in moved {
            right.insert(right.len(), self.key_of(s), self.val_of(s));
        }
        self.slots.truncate(keep);
        self.compact();
        right
    }

    /// Bytes these entries are accounted at against the node budget.
    fn accounted(&self) -> usize {
        self.slots.iter().map(|s| s.len() + ENTRY_OVERHEAD).sum()
    }
}

#[derive(Debug)]
enum Node {
    Leaf {
        /// Entries sorted by composite order.
        entries: Packed,
        /// Next leaf to the right.
        next: Option<NodeIdx>,
        /// Cached accounted size of all entries.
        bytes: usize,
    },
    Internal {
        /// Separator `i` is the minimum composite entry of `children[i + 1]`.
        seps: Packed,
        children: Vec<NodeIdx>,
        bytes: usize,
    },
}

fn entry_size(k: &[u8], v: &[u8]) -> usize {
    k.len() + v.len() + ENTRY_OVERHEAD
}

/// `a.cmp(b)`, eight bytes at a time: for the short keys an index holds
/// this is cheaper than a `memcmp` call per comparison.
fn cmp_bytes(a: &[u8], b: &[u8]) -> Ordering {
    let n = a.len().min(b.len());
    let (mut aw, mut bw) = (a[..n].chunks_exact(8), b[..n].chunks_exact(8));
    for (x, y) in (&mut aw).zip(&mut bw) {
        let x = u64::from_be_bytes(x.try_into().expect("chunks of 8"));
        let y = u64::from_be_bytes(y.try_into().expect("chunks of 8"));
        if x != y {
            return x.cmp(&y);
        }
    }
    for (x, y) in aw.remainder().iter().zip(bw.remainder()) {
        if x != y {
            return x.cmp(y);
        }
    }
    a.len().cmp(&b.len())
}

/// Refuse an entry of `len` key and value bytes, as
/// [`BPlusTree::insert`] would.
pub(crate) fn check_entry_len(len: usize) -> Result<()> {
    let size = len + ENTRY_OVERHEAD;
    if size > NODE_BYTE_BUDGET / 2 {
        return Err(PvmError::CapacityExceeded(format!(
            "index entry of {size} bytes exceeds half a page"
        )));
    }
    Ok(())
}

/// Where the last insert went: its root-to-leaf path and the separators
/// bounding that leaf. Only a split changes which leaf an insert reaches
/// (deletes leave separators alone), and a split forgets the path, so an
/// entry between the bounds reaches the same leaf along the same path.
#[derive(Debug, Default)]
struct LastInsert {
    /// Root first, leaf last; empty before the first insert and after a
    /// split.
    path: Vec<NodeIdx>,
    /// The separator the leaf's range starts at, as (internal node,
    /// position): the deepest one left of the path.
    lo: Option<(NodeIdx, usize)>,
    /// The separator the leaf's range ends before: the deepest one right
    /// of the path.
    hi: Option<(NodeIdx, usize)>,
}

/// Where a descent goes when a separator equals its probe: copies of an
/// entry can sit on both sides of a separator equal to it.
#[derive(Debug, Clone, Copy)]
enum Tie {
    /// Right of it, where an insert puts a new copy.
    Right,
    /// Left of it, so that a walk along the leaf chain meets every copy.
    Left,
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
    last: LastInsert,
}

impl BPlusTree {
    pub fn new(file: FileId, buffer: SharedBufferPool) -> Self {
        let root = Node::Leaf {
            entries: Packed::default(),
            next: None,
            bytes: 0,
        };
        BPlusTree {
            file,
            nodes: vec![root],
            root: 0,
            buffer,
            len: 0,
            last: LastInsert::default(),
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

    /// Descend to the leaf where `(key, val)` belongs, taking the side
    /// `tie` names at a separator equal to it.
    fn descend(&self, key: &[u8], val: &[u8], tie: Tie) -> NodeIdx {
        let mut idx = self.root;
        loop {
            self.touch(idx, AccessMode::Read);
            match &self.nodes[idx] {
                Node::Leaf { .. } => return idx,
                Node::Internal { seps, children, .. } => {
                    // Child `i` holds entries from separator `i - 1` up to
                    // separator `i`, both ends included.
                    idx = children[match tie {
                        Tie::Right => seps.upper_bound(key, val),
                        Tie::Left => seps.lower_bound(key, val),
                    }];
                }
            }
        }
    }

    /// Whether a separator on the [`Tie::Right`] path to `(key, val)`
    /// equals it, so that copies may also sit left of where that path
    /// ends. Unmetered, like [`BPlusTree::path_to`].
    fn tied(&self, key: &[u8], val: &[u8]) -> bool {
        let mut idx = self.root;
        while let Node::Internal { seps, children, .. } = &self.nodes[idx] {
            let pos = seps.upper_bound(key, val);
            if pos > 0 && seps.cmp_at(pos - 1, key, val).is_eq() {
                return true;
            }
            idx = children[pos];
        }
        false
    }

    /// Insert an entry. Duplicates (same key, same or different value) are
    /// allowed; the tree is a multiset.
    pub fn insert(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
        let buffer = Arc::clone(&self.buffer);
        let mut pool = buffer.lock();
        self.insert_locked(&mut pool, key, val)
    }

    /// [`BPlusTree::insert`] under a lock of this tree's pool that the
    /// caller holds, so a run of inserts takes it once. It touches the
    /// same pages in the same modes: an entry inside the bounds of the
    /// last insert's leaf retraces that path's reads instead of searching
    /// it, and one at or after the leaf's last entry is appended.
    pub fn insert_locked(&mut self, pool: &mut BufferPool, key: &[u8], val: &[u8]) -> Result<()> {
        debug_assert!(
            self.buffer.try_lock().is_none(),
            "the caller holds this tree's pool"
        );
        check_entry_len(key.len() + val.len())?;
        if self.last_holds(key, val) {
            for &idx in &self.last.path {
                pool.access(self.page(idx), AccessMode::Read);
            }
        } else {
            self.descend_for_insert(pool, key, val);
        }
        let leaf = *self.last.path.last().expect("a path ends at a leaf");
        pool.access(self.page(leaf), AccessMode::Write);
        let Node::Leaf { entries, bytes, .. } = &mut self.nodes[leaf] else {
            unreachable!("an insert path ends at a leaf")
        };
        let pos = match entries.slots.last() {
            Some(&s) if entries.cmp_slot(s, key, val).is_gt() => entries.upper_bound(key, val),
            _ => entries.len(),
        };
        entries.insert(pos, key, val);
        *bytes += entry_size(key, val);
        self.len += 1;
        if self.overfull(leaf) {
            let mut path = std::mem::take(&mut self.last.path);
            path.pop();
            self.split_up(pool, leaf, &mut path);
            path.clear();
            self.last.path = path;
        }
        Ok(())
    }

    fn page(&self, node: NodeIdx) -> PageKey {
        PageKey::new(self.file, node as u32)
    }

    /// Whether `(key, val)` lies within the last insert's leaf bounds.
    fn last_holds(&self, key: &[u8], val: &[u8]) -> bool {
        let sep = |(node, pos): (NodeIdx, usize)| match &self.nodes[node] {
            Node::Internal { seps, .. } => seps.cmp_at(pos, key, val),
            Node::Leaf { .. } => unreachable!("bounds are separators"),
        };
        !self.last.path.is_empty()
            && self.last.lo.map_or(true, |lo| sep(lo).is_le())
            && self.last.hi.map_or(true, |hi| sep(hi).is_gt())
    }

    /// [`BPlusTree::descend`] with [`Tie::Right`] under the caller's lock,
    /// keeping the path and the leaf's bounds as the last insert's.
    fn descend_for_insert(&mut self, pool: &mut BufferPool, key: &[u8], val: &[u8]) {
        let last = &mut self.last;
        last.path.clear();
        (last.lo, last.hi) = (None, None);
        let mut idx = self.root;
        loop {
            pool.access(PageKey::new(self.file, idx as u32), AccessMode::Read);
            last.path.push(idx);
            match &self.nodes[idx] {
                Node::Leaf { .. } => return,
                Node::Internal { seps, children, .. } => {
                    let pos = seps.upper_bound(key, val);
                    if pos > 0 {
                        last.lo = Some((idx, pos - 1));
                    }
                    if pos < seps.len() {
                        last.hi = Some((idx, pos));
                    }
                    idx = children[pos];
                }
            }
        }
    }

    fn overfull(&self, idx: NodeIdx) -> bool {
        match &self.nodes[idx] {
            Node::Leaf { entries, bytes, .. } => *bytes > NODE_BYTE_BUDGET && entries.len() > 1,
            Node::Internal { seps, bytes, .. } => *bytes > NODE_BYTE_BUDGET && seps.len() > 2,
        }
    }

    /// Split the overfull node `idx`, then each parent on `path` (the
    /// internal nodes above it, root first) that the new separator
    /// overfills in turn.
    fn split_up(&mut self, pool: &mut BufferPool, mut idx: NodeIdx, path: &mut Vec<NodeIdx>) {
        loop {
            let (sep, new_idx) = self.split(pool, idx);
            match path.pop() {
                Some(parent) => {
                    pool.access(self.page(parent), AccessMode::Write);
                    let Node::Internal {
                        seps,
                        children,
                        bytes,
                    } = &mut self.nodes[parent]
                    else {
                        unreachable!("path nodes are internal")
                    };
                    let pos = seps.upper_bound(sep.key(), sep.val());
                    *bytes += sep.size();
                    seps.insert(pos, sep.key(), sep.val());
                    children.insert(pos + 1, new_idx);
                    if !self.overfull(parent) {
                        return;
                    }
                    idx = parent;
                }
                None => {
                    // Split reached the root: grow the tree by one level.
                    let mut seps = Packed::default();
                    seps.insert(0, sep.key(), sep.val());
                    let new_root = Node::Internal {
                        seps,
                        children: vec![idx, new_idx],
                        bytes: sep.size(),
                    };
                    self.nodes.push(new_root);
                    self.root = self.nodes.len() - 1;
                    pool.access(self.page(self.root), AccessMode::Write);
                    return;
                }
            }
        }
    }

    /// Split node `idx` in half; returns `(separator, right node idx)`.
    /// The separator is the minimum entry of the right node.
    fn split(&mut self, pool: &mut BufferPool, idx: NodeIdx) -> (Entry, NodeIdx) {
        pool.access(self.page(idx), AccessMode::Write);
        let new_idx = self.nodes.len();
        let (sep, right) = match &mut self.nodes[idx] {
            Node::Leaf {
                entries,
                next,
                bytes,
            } => {
                let mid = entries.len() / 2;
                let right_entries = entries.split_off(mid, mid);
                let right_bytes = right_entries.accounted();
                *bytes -= right_bytes;
                let sep = right_entries.entry(0);
                // Re-link: left.next = right (right inherits left's old next).
                let right = Node::Leaf {
                    entries: right_entries,
                    next: next.replace(new_idx),
                    bytes: right_bytes,
                };
                (sep, right)
            }
            Node::Internal {
                seps,
                children,
                bytes,
            } => {
                // Promote the middle separator.
                let mid = seps.len() / 2;
                let promoted = seps.entry(mid);
                let right_seps = seps.split_off(mid, mid + 1);
                let right_children = children.split_off(mid + 1);
                let right_bytes = right_seps.accounted();
                *bytes -= right_bytes + promoted.size();
                let right = Node::Internal {
                    seps: right_seps,
                    children: right_children,
                    bytes: right_bytes,
                };
                (promoted, right)
            }
        };
        self.nodes.push(right);
        pool.access(self.page(new_idx), AccessMode::Write);
        (sep, new_idx)
    }

    /// Hand every match of `key`, from `leaf` rightwards, to `visit`;
    /// returns the leaf where the run ended.
    fn visit_run(&self, mut leaf: NodeIdx, key: &[u8], visit: &mut impl FnMut(&[u8])) -> NodeIdx {
        loop {
            let Node::Leaf { entries, next, .. } = &self.nodes[leaf] else {
                unreachable!("runs stay on the leaf chain")
            };
            for i in entries.lower_bound_key(key)..entries.len() {
                if entries.key(i) != key {
                    // Passed beyond `key`: no match can follow.
                    return leaf;
                }
                visit(entries.val(i));
            }
            // Consumed this leaf to its end; matches may continue right.
            match next {
                Some(n) => {
                    leaf = *n;
                    self.touch(leaf, AccessMode::Read);
                }
                None => return leaf,
            }
        }
    }

    /// Hand every value stored under `key` to `visit`, in value order,
    /// straight from the leaf. Touches the descent path plus every leaf
    /// holding matches.
    pub fn search_with(&self, key: &[u8], mut visit: impl FnMut(&[u8])) {
        let leaf = self.descend(key, &[], Tie::Left);
        self.visit_run(leaf, key, &mut visit);
    }

    /// All values stored under `key`, in value order; see
    /// [`BPlusTree::search_with`].
    pub fn search(&self, key: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        self.search_with(key, |v| out.push(v.to_vec()));
        out
    }

    /// Batched [`BPlusTree::search_with`] for `keys` sorted ascending and
    /// distinct: `visit(i, value)` gets each match of `keys[i]`. Probes
    /// share a merge-style cursor over the leaf chain: a key whose start
    /// position falls inside the leaf where the previous probe stopped
    /// reuses that (pinned) leaf instead of re-descending from the root,
    /// so duplicate-heavy batches and adjacent leaves are touched once
    /// rather than once per probe.
    pub fn search_many_with(&self, keys: &[Vec<u8>], mut visit: impl FnMut(usize, &[u8])) {
        let mut cursor: Option<NodeIdx> = None;
        for (i, key) in keys.iter().enumerate() {
            debug_assert!(
                i == 0 || keys[i - 1].as_slice() < key.as_slice(),
                "search_many keys must be sorted and distinct"
            );
            let leaf = match cursor.filter(|&leaf| self.covers(leaf, key)) {
                Some(l) => l,
                None => self.descend(key, &[], Tie::Left),
            };
            cursor = Some(self.visit_run(leaf, key, &mut |v| visit(i, v)));
        }
    }

    /// Whether a probe for `key` may start at the cursor `leaf` instead
    /// of descending. The lower bound is strict: entries in earlier
    /// leaves sort <= this leaf's first entry, so `first < key`
    /// guarantees no match lives left of it (equal keys could straddle
    /// the boundary otherwise).
    fn covers(&self, leaf: NodeIdx, key: &[u8]) -> bool {
        let Node::Leaf { entries, .. } = &self.nodes[leaf] else {
            unreachable!("the cursor is a leaf")
        };
        entries.len() > 0 && entries.key(0) < key && key <= entries.key(entries.len() - 1)
    }

    /// Batched [`BPlusTree::search`]; see [`BPlusTree::search_many_with`].
    pub fn search_many(&self, keys: &[Vec<u8>]) -> Vec<Vec<Vec<u8>>> {
        let mut out = vec![Vec::new(); keys.len()];
        self.search_many_with(keys, |i, v| out[i].push(v.to_vec()));
        out
    }

    /// Remove **one** entry equal to `(key, val)`. Returns true if removed.
    pub fn delete(&mut self, key: &[u8], val: &[u8]) -> bool {
        // The copy an insert would sit beside first; copies left of an
        // equal separator only when none is there.
        let leaf = self.descend(key, val, Tie::Right);
        self.delete_from(leaf, key, val)
            || (self.tied(key, val) && {
                let leaf = self.descend(key, val, Tie::Left);
                self.delete_from(leaf, key, val)
            })
    }

    /// Remove the first copy of `(key, val)` found walking right from `leaf`.
    fn delete_from(&mut self, mut leaf: NodeIdx, key: &[u8], val: &[u8]) -> bool {
        loop {
            let Node::Leaf {
                entries,
                next,
                bytes,
            } = &mut self.nodes[leaf]
            else {
                unreachable!()
            };
            let pos = entries.lower_bound(key, val);
            if pos < entries.len() {
                if entries.cmp_at(pos, key, val).is_eq() {
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

    /// Internal consistency check used by tests: order within every node,
    /// buffer and byte accounting, leaf-chain completeness.
    pub fn check_invariants(&self) -> Result<()> {
        // 1. Every node's entries / separators are sorted; bytes match;
        //    slots and dead bytes cover the buffer, which honours the
        //    compaction rule.
        for node in &self.nodes {
            let (entries, bytes) = match node {
                Node::Leaf { entries, bytes, .. } => (entries, bytes),
                Node::Internal { seps, bytes, .. } => (seps, bytes),
            };
            if (1..entries.len()).any(|i| {
                entries
                    .cmp_at(i - 1, entries.key(i), entries.val(i))
                    .is_gt()
            }) {
                return Err(PvmError::Corrupt("node out of order".into()));
            }
            if entries.accounted() != *bytes {
                return Err(PvmError::Corrupt("node byte accounting drift".into()));
            }
            let live: usize = entries.slots.iter().map(|s| s.len()).sum();
            if entries.slots.iter().any(|s| s.end() > entries.buf.len())
                || live + entries.dead != entries.buf.len()
                || entries.dead * 2 > entries.buf.len()
            {
                return Err(PvmError::Corrupt("node buffer accounting drift".into()));
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
                    if self.pos < entries.len() {
                        let i = self.pos;
                        self.pos += 1;
                        return Some((entries.key(i).to_vec(), entries.val(i).to_vec()));
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

/// The tree with one boxed `key ‖ value` per entry, as it stood before
/// packed nodes, kept as an exact oracle: the packed tree must make the
/// same nodes, return the same matches and touch the same pages. It
/// carries the same rule for separators equal to a probe (reads go left
/// of them; a delete that misses right of one retries from the left).
#[cfg(test)]
pub(crate) mod reference {
    use pvm_types::{PvmError, Result};

    use super::{entry_size, NodeIdx, NODE_BYTE_BUDGET};
    use crate::buffer::{AccessMode, PageKey, SharedBufferPool};
    use crate::FileId;

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
                key_len: u32::try_from(key.len())
                    .expect("insert bounds entries by the node budget"),
            }
        }

        fn key(&self) -> &[u8] {
            &self.buf[..self.key_len as usize]
        }

        fn val(&self) -> &[u8] {
            &self.buf[self.key_len as usize..]
        }

        fn size(&self) -> usize {
            entry_size(self.key(), self.val())
        }

        fn cmp_to(&self, key: &[u8], val: &[u8]) -> std::cmp::Ordering {
            self.key().cmp(key).then_with(|| self.val().cmp(val))
        }
    }

    #[derive(Debug)]
    enum Node {
        Leaf {
            entries: Vec<Entry>,
            next: Option<NodeIdx>,
            bytes: usize,
        },
        Internal {
            seps: Vec<Entry>,
            children: Vec<NodeIdx>,
            bytes: usize,
        },
    }

    /// One node as both trees can show it: kind, entries, children, leaf
    /// link and accounted bytes.
    #[derive(Debug, PartialEq)]
    pub(crate) struct NodeImage {
        pub(super) leaf: bool,
        pub(super) entries: Vec<(Vec<u8>, Vec<u8>)>,
        pub(super) children: Vec<NodeIdx>,
        pub(super) next: Option<NodeIdx>,
        pub(super) bytes: usize,
    }

    #[derive(Debug)]
    pub(super) struct BPlusTree {
        file: FileId,
        nodes: Vec<Node>,
        root: NodeIdx,
        buffer: SharedBufferPool,
        len: u64,
    }

    impl BPlusTree {
        pub(super) fn new(file: FileId, buffer: SharedBufferPool) -> Self {
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

        pub(super) fn len(&self) -> u64 {
            self.len
        }

        pub(super) fn page_count(&self) -> usize {
            self.nodes.len()
        }

        pub(super) fn height(&self) -> usize {
            let mut h = 1;
            let mut idx = self.root;
            while let Node::Internal { children, .. } = &self.nodes[idx] {
                idx = children[0];
                h += 1;
            }
            h
        }

        /// The root and every node, in arena order.
        pub(super) fn image(&self) -> (NodeIdx, Vec<NodeImage>) {
            let pairs = |es: &[Entry]| {
                es.iter()
                    .map(|e| (e.key().to_vec(), e.val().to_vec()))
                    .collect()
            };
            let nodes = self
                .nodes
                .iter()
                .map(|n| match n {
                    Node::Leaf {
                        entries,
                        next,
                        bytes,
                    } => NodeImage {
                        leaf: true,
                        entries: pairs(entries),
                        children: Vec::new(),
                        next: *next,
                        bytes: *bytes,
                    },
                    Node::Internal {
                        seps,
                        children,
                        bytes,
                    } => NodeImage {
                        leaf: false,
                        entries: pairs(seps),
                        children: children.clone(),
                        next: None,
                        bytes: *bytes,
                    },
                })
                .collect();
            (self.root, nodes)
        }

        fn touch(&self, node: NodeIdx, mode: AccessMode) {
            self.buffer
                .lock()
                .access(PageKey::new(self.file, node as u32), mode);
        }

        /// `left`: at a separator equal to the probe, go left of it.
        fn descend(&self, key: &[u8], val: &[u8], left: bool) -> (NodeIdx, Vec<NodeIdx>) {
            let mut path = Vec::new();
            let mut idx = self.root;
            loop {
                self.touch(idx, AccessMode::Read);
                match &self.nodes[idx] {
                    Node::Leaf { .. } => return (idx, path),
                    Node::Internal { seps, children, .. } => {
                        path.push(idx);
                        let pos = if left {
                            seps.partition_point(|s| s.cmp_to(key, val).is_lt())
                        } else {
                            seps.partition_point(|s| s.cmp_to(key, val).is_le())
                        };
                        idx = children[pos];
                    }
                }
            }
        }

        fn tied(&self, key: &[u8], val: &[u8]) -> bool {
            let mut idx = self.root;
            while let Node::Internal { seps, children, .. } = &self.nodes[idx] {
                let pos = seps.partition_point(|s| s.cmp_to(key, val).is_le());
                if pos > 0 && seps[pos - 1].cmp_to(key, val).is_eq() {
                    return true;
                }
                idx = children[pos];
            }
            false
        }

        pub(super) fn insert(&mut self, key: &[u8], val: &[u8]) -> Result<()> {
            if entry_size(key, val) > NODE_BYTE_BUDGET / 2 {
                return Err(PvmError::CapacityExceeded(format!(
                    "index entry of {} bytes exceeds half a page",
                    entry_size(key, val)
                )));
            }
            let (leaf, path) = self.descend(key, val, false);
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
                    Node::Leaf { entries, bytes, .. } => {
                        *bytes > NODE_BYTE_BUDGET && entries.len() > 1
                    }
                    Node::Internal { seps, bytes, .. } => {
                        *bytes > NODE_BYTE_BUDGET && seps.len() > 2
                    }
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

        pub(super) fn search(&self, key: &[u8]) -> Vec<Vec<u8>> {
            let mut out = Vec::new();
            let (mut leaf, _) = self.descend(key, &[], true);
            loop {
                let Node::Leaf { entries, next, .. } = &self.nodes[leaf] else {
                    unreachable!()
                };
                let start = entries.partition_point(|e| e.key() < key);
                for e in &entries[start..] {
                    if e.key() == key {
                        out.push(e.val().to_vec());
                    } else {
                        return out;
                    }
                }
                match next {
                    Some(n) => {
                        leaf = *n;
                        self.touch(leaf, AccessMode::Read);
                    }
                    None => return out,
                }
            }
        }

        pub(super) fn search_many(&self, keys: &[Vec<u8>]) -> Vec<Vec<Vec<u8>>> {
            let mut out = Vec::with_capacity(keys.len());
            let mut cursor: Option<NodeIdx> = None;
            for key in keys {
                let in_cursor = cursor.is_some_and(|leaf| {
                    let Node::Leaf { entries, .. } = &self.nodes[leaf] else {
                        unreachable!()
                    };
                    match (entries.first(), entries.last()) {
                        (Some(first), Some(last)) => {
                            first.key() < key.as_slice() && key.as_slice() <= last.key()
                        }
                        _ => false,
                    }
                });
                let mut leaf = match cursor.filter(|_| in_cursor) {
                    Some(l) => l,
                    None => self.descend(key, &[], true).0,
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

        pub(super) fn delete(&mut self, key: &[u8], val: &[u8]) -> bool {
            let (leaf, _) = self.descend(key, val, false);
            self.delete_from(leaf, key, val)
                || (self.tied(key, val) && {
                    let (leaf, _) = self.descend(key, val, true);
                    self.delete_from(leaf, key, val)
                })
        }

        fn delete_from(&mut self, mut leaf: NodeIdx, key: &[u8], val: &[u8]) -> bool {
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
                match *next {
                    Some(n) => {
                        leaf = n;
                        self.touch(leaf, AccessMode::Read);
                    }
                    None => return false,
                }
            }
        }

        /// Ordered scan of all entries, collected.
        pub(super) fn scan(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
            let mut idx = self.root;
            let mut leaf = loop {
                self.touch(idx, AccessMode::Read);
                match &self.nodes[idx] {
                    Node::Leaf { .. } => break idx,
                    Node::Internal { children, .. } => idx = children[0],
                }
            };
            let mut out = Vec::new();
            loop {
                let Node::Leaf { entries, next, .. } = &self.nodes[leaf] else {
                    unreachable!("scan only visits leaves")
                };
                out.extend(entries.iter().map(|e| (e.key().to_vec(), e.val().to_vec())));
                match next {
                    Some(n) => {
                        leaf = *n;
                        self.touch(leaf, AccessMode::Read);
                    }
                    None => return out,
                }
            }
        }
    }
}

#[cfg(test)]
impl BPlusTree {
    /// The root and every node, in arena order, in the oracle's terms.
    pub(crate) fn image(&self) -> (NodeIdx, Vec<reference::NodeImage>) {
        let pairs = |es: &Packed| {
            (0..es.len())
                .map(|i| (es.key(i).to_vec(), es.val(i).to_vec()))
                .collect()
        };
        let nodes = self
            .nodes
            .iter()
            .map(|n| match n {
                Node::Leaf {
                    entries,
                    next,
                    bytes,
                } => reference::NodeImage {
                    leaf: true,
                    entries: pairs(entries),
                    children: Vec::new(),
                    next: *next,
                    bytes: *bytes,
                },
                Node::Internal {
                    seps,
                    children,
                    bytes,
                } => reference::NodeImage {
                    leaf: false,
                    entries: pairs(seps),
                    children: children.clone(),
                    next: None,
                    bytes: *bytes,
                },
            })
            .collect();
        (self.root, nodes)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use proptest::prelude::*;

    use super::*;
    use crate::buffer::{BufferPool, SharedBufferPool};

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
    fn copies_of_a_separator_are_all_found() {
        // Copies of one entry fill several leaves, so separators equal
        // the entry and copies sit on both sides of them. Every search
        // sees them all and every delete finds one, after the copies
        // right of the last separator are gone too.
        let mut t = tree();
        let big = vec![7u8; 512];
        for _ in 0..200 {
            t.insert(&key(1), &big).unwrap();
            t.insert(&key(2), &[]).unwrap();
        }
        for _ in 0..2000 {
            t.insert(&key(2), &[]).unwrap();
        }
        assert!(t.height() > 1);
        assert_eq!(t.search(&key(1)).len(), 200);
        assert_eq!(t.search(&key(2)).len(), 2200);
        for i in 0..200 {
            assert!(t.delete(&key(1), &big), "delete {i}");
        }
        for i in 0..2200 {
            assert!(t.delete(&key(2), &[]), "delete {i}");
        }
        assert!(t.is_empty());
        t.check_invariants().unwrap();
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

    /// Churn the way `partial_zipf` does — delete the oldest block of 4
    /// entries, insert a fresh block, 8 blocks live — over a loaded tree
    /// for 100k operations. A node compacts once its dead bytes pass half
    /// its buffer, so a buffer never holds more than twice its live key
    /// and value bytes, and so never more than `2 × PAGE_SIZE`: live
    /// bytes stay within the node budget between operations.
    #[test]
    fn churn_keeps_dead_bytes_bounded() {
        const BLOCK: usize = 4;
        const LIVE_BLOCKS: usize = 8;
        let value = |k: u64, version: u64| {
            let mut v = version.to_be_bytes().to_vec();
            v.resize(96, k as u8);
            v
        };
        let mut t = tree();
        for i in 0..2000u64 {
            t.insert(&key(i * 2), &value(i, 0)).unwrap();
        }
        // Recycled block keys, scattered between the loaded ones.
        let mut pool: VecDeque<u64> = (0..256u64)
            .map(|i| (i * 2654435761) % 2000 * 2 + 1)
            .collect();
        let mut live: VecDeque<(Vec<u64>, u64)> = VecDeque::new();
        let (mut version, mut max_dead) = (0u64, 0usize);
        for _ in 0..100_000 / BLOCK {
            if live.len() < LIVE_BLOCKS {
                version += 1;
                let keys: Vec<u64> = pool.drain(..BLOCK).collect();
                for &k in &keys {
                    t.insert(&key(k), &value(k, version)).unwrap();
                }
                live.push_back((keys, version));
            } else {
                let (keys, version) = live.pop_front().unwrap();
                for &k in &keys {
                    assert!(t.delete(&key(k), &value(k, version)));
                }
                pool.extend(keys);
            }
            for node in &t.nodes {
                let (Node::Leaf { entries, bytes, .. }
                | Node::Internal {
                    seps: entries,
                    bytes,
                    ..
                }) = node;
                let live_bytes = bytes - entries.len() * ENTRY_OVERHEAD;
                assert!(
                    entries.buf.len() <= 2 * live_bytes,
                    "{} dead of {}",
                    entries.dead,
                    entries.buf.len()
                );
                assert!(entries.buf.len() <= 2 * PAGE_SIZE);
                max_dead = max_dead.max(entries.dead);
            }
        }
        assert!(
            max_dead > PAGE_SIZE / 4,
            "the churn must leave dead bytes to compact"
        );
        t.check_invariants().unwrap();
    }

    /// Hits, misses, page reads and page writes so far.
    fn pool_counts(pool: &SharedBufferPool) -> (u64, u64, u64, u64) {
        let pool = pool.lock();
        let io = pool.io_snapshot();
        (pool.hits(), pool.misses(), io.page_reads, io.page_writes)
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u8>, Vec<u8>),
        /// Delete the `n`-th live entry (modulo the live count).
        DeleteLive(usize),
        /// Delete an arbitrary entry, usually absent.
        Delete(Vec<u8>, Vec<u8>),
        Search(Vec<u8>),
        SearchMany(Vec<Vec<u8>>),
        Scan,
    }

    /// Seven keys, prefixes of one another: duplicate-heavy by design.
    fn any_key() -> impl Strategy<Value = Vec<u8>> {
        (0u8..3, 0usize..3).prop_map(|(b, n)| vec![b; n])
    }

    /// Values of 0 to `PAGE_SIZE / 2 - 8` bytes, mostly short.
    fn any_val() -> impl Strategy<Value = Vec<u8>> {
        let len = prop_oneof![0usize..64, 0usize..PAGE_SIZE / 2 - 7];
        (0u8..3, len).prop_map(|(b, n)| vec![b; n])
    }

    fn insert_op() -> impl Strategy<Value = Op> {
        (any_key(), any_val()).prop_map(|(k, v)| Op::Insert(k, v))
    }

    fn any_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            insert_op(),
            insert_op(),
            insert_op(),
            insert_op(),
            (0usize..1 << 16).prop_map(Op::DeleteLive),
            (any_key(), any_val()).prop_map(|(k, v)| Op::Delete(k, v)),
            any_key().prop_map(Op::Search),
            proptest::collection::vec(any_key(), 0..6).prop_map(|mut keys| {
                keys.sort();
                keys.dedup();
                Op::SearchMany(keys)
            }),
            Just(Op::Scan),
        ]
    }

    proptest! {
        /// The packed tree against the boxed-entry oracle, each on a
        /// 16-page pool so that nodes are evicted and written back: after
        /// every operation both return the same thing, have the same
        /// shape and nodes, and have cost their pools the same.
        #[test]
        fn packed_tree_matches_boxed_entry_oracle(ops in proptest::collection::vec(any_op(), 1..600)) {
            let (packed_pool, oracle_pool) = (BufferPool::shared(16), BufferPool::shared(16));
            let mut packed = BPlusTree::new(FileId(1), packed_pool.clone());
            let mut oracle = reference::BPlusTree::new(FileId(1), oracle_pool.clone());
            let mut live: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            for op in ops {
                match &op {
                    Op::Insert(k, v) => {
                        let (got, want) = (packed.insert(k, v), oracle.insert(k, v));
                        prop_assert_eq!(got.is_ok(), want.is_ok(), "{:?}", op);
                        if got.is_ok() {
                            live.push((k.clone(), v.clone()));
                        }
                    }
                    Op::DeleteLive(n) => {
                        if !live.is_empty() {
                            let (k, v) = live.swap_remove(n % live.len());
                            prop_assert!(packed.delete(&k, &v));
                            prop_assert!(oracle.delete(&k, &v));
                        }
                    }
                    Op::Delete(k, v) => {
                        let removed = packed.delete(k, v);
                        prop_assert_eq!(removed, oracle.delete(k, v), "{:?}", op);
                        if removed {
                            let at = live.iter().position(|e| (&e.0, &e.1) == (k, v)).unwrap();
                            live.swap_remove(at);
                        }
                    }
                    Op::Search(k) => prop_assert_eq!(packed.search(k), oracle.search(k)),
                    Op::SearchMany(keys) => {
                        prop_assert_eq!(packed.search_many(keys), oracle.search_many(keys))
                    }
                    Op::Scan => prop_assert_eq!(packed.scan().collect::<Vec<_>>(), oracle.scan()),
                }
                prop_assert_eq!(packed.len(), oracle.len());
                prop_assert_eq!(
                    (packed.page_count(), packed.height()),
                    (oracle.page_count(), oracle.height())
                );
                prop_assert!(packed.image() == oracle.image(), "nodes diverged after {:?}", op);
                prop_assert_eq!(pool_counts(&packed_pool), pool_counts(&oracle_pool), "{:?}", op);
            }
            prop_assert_eq!(packed.len(), live.len() as u64);
            packed.check_invariants().unwrap();
        }
    }

    /// A run of entries whose keys ascend, descend, are scrambled, or
    /// come from five values (duplicate-heavy), with values of every size
    /// up to the half-page bound, mostly short.
    fn any_run() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
        let len = prop_oneof![0usize..24, 0usize..PAGE_SIZE / 2 - 16];
        let entry = (0u64..1 << 20, len, any::<u8>());
        (0u8..4, proptest::collection::vec(entry, 1..300)).prop_map(|(order, mut es)| {
            match order {
                0 => es.sort_by_key(|e| e.0),
                1 => es.sort_by_key(|e| std::cmp::Reverse(e.0)),
                2 => {}
                _ => es.iter_mut().for_each(|e| e.0 %= 5),
            }
            es.into_iter()
                .map(|(k, n, b)| (key(k), vec![b; n]))
                .collect()
        })
    }

    proptest! {
        /// Runs of inserts under one held lock against the boxed-entry
        /// oracle inserting one entry at a time, on pools of a few pages:
        /// after each run (and after deleting some entries, which leaves
        /// the last insert's path in place) both trees have the same
        /// nodes and shape, and their pools the same counts and the same
        /// recency order, so the same next victims.
        #[test]
        fn insert_runs_match_boxed_entry_oracle(
            runs in proptest::collection::vec((any_run(), 0usize..40), 1..6),
            capacity in 2usize..8,
        ) {
            let (packed_pool, oracle_pool) = (BufferPool::shared(capacity), BufferPool::shared(capacity));
            let mut packed = BPlusTree::new(FileId(1), packed_pool.clone());
            let mut oracle = reference::BPlusTree::new(FileId(1), oracle_pool.clone());
            let mut live: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            for (run, deletes) in runs {
                {
                    let mut pool = packed_pool.lock();
                    for (k, v) in &run {
                        packed.insert_locked(&mut pool, k, v).unwrap();
                    }
                }
                for (k, v) in &run {
                    oracle.insert(k, v).unwrap();
                }
                live.extend(run);
                prop_assert_eq!(packed.len(), oracle.len());
                prop_assert_eq!(
                    (packed.page_count(), packed.height()),
                    (oracle.page_count(), oracle.height())
                );
                prop_assert!(packed.image() == oracle.image(), "nodes diverged");
                prop_assert_eq!(pool_counts(&packed_pool), pool_counts(&oracle_pool));
                prop_assert_eq!(
                    packed_pool.lock().recency().collect::<Vec<_>>(),
                    oracle_pool.lock().recency().collect::<Vec<_>>()
                );
                for i in 0..deletes.min(live.len()) {
                    let (k, v) = live.swap_remove(i * 7 % live.len());
                    prop_assert!(packed.delete(&k, &v));
                    prop_assert!(oracle.delete(&k, &v));
                }
            }
            packed.check_invariants().unwrap();
        }
    }

    #[test]
    fn word_compare_is_byte_order() {
        let words: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![0, 0],
            vec![1],
            vec![0xff; 7],
            vec![0xff; 8],
            vec![0xff; 9],
            [vec![7; 8], vec![1]].concat(),
            [vec![7; 8], vec![2]].concat(),
            [vec![7; 16], vec![0]].concat(),
            [vec![7; 15], vec![8]].concat(),
        ];
        for a in &words {
            for b in &words {
                assert_eq!(cmp_bytes(a, b), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }
}
