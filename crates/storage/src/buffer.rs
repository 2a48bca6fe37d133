//! Buffer-pool model with LRU replacement and physical-I/O metering.
//!
//! The simulator keeps every page resident in process memory for
//! correctness; what a real system would have done at the disk is decided
//! here. The pool tracks which `(file, page)` keys *would* be cached given
//! a memory budget of `capacity` pages:
//!
//! * an access to a cached key is a **hit** (no physical I/O);
//! * an access to an uncached key is a **miss** — one `PageRead` is
//!   charged, and if the evicted frame is dirty one `PageWrite` is charged;
//! * write accesses mark the frame dirty; dirty frames are written back on
//!   eviction or [`BufferPool::flush_all`].
//!
//! This mirrors how the paper's model charges I/Os (`SEARCH`/`FETCH` are
//! page reads that may be absorbed by the cache) while keeping the engine
//! deterministic.
//!
//! Keeping the meter costs O(1) per access: frames live in a slab linked
//! in recency order (most recent at the head, the LRU victim at the
//! tail) and are found through a map keyed by [`PageKey`]. A hit moves
//! its frame to the head; a miss on a full pool reuses the tail's slot.
//! Neither allocates.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use pvm_types::{CostKind, CostLedger, CostSnapshot};

use crate::hash::Mixed;
use crate::FileId;
use pvm_types::PageId;

/// Key of one page frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PageKey {
    pub file: FileId,
    pub page: PageId,
}

impl std::hash::Hash for PageKey {
    /// Both halves as one word: one mix per frame lookup.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from(self.file.0) << 32 | u64::from(self.page.0));
    }
}

impl PageKey {
    pub fn new(file: FileId, page: u32) -> Self {
        PageKey {
            file,
            page: PageId(page),
        }
    }
}

/// Whether an access reads or writes the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    Read,
    Write,
}

/// End of the recency list.
const NIL: u32 = u32::MAX;

/// One cached page: a slab slot linked into the recency list.
#[derive(Debug, Clone, Copy)]
struct Frame {
    key: PageKey,
    dirty: bool,
    /// Neighbour towards the head (more recently used), or [`NIL`].
    prev: u32,
    /// Neighbour towards the tail (less recently used), or [`NIL`].
    next: u32,
}

/// The buffer-pool model. See module docs.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    /// Slab of frames; slots in `free` are unlinked and unmapped.
    frames: Vec<Frame>,
    free: Vec<u32>,
    /// Slot of every resident page.
    slots: HashMap<PageKey, u32, Mixed>,
    /// Most recently used frame, or [`NIL`] when empty.
    head: u32,
    /// Least recently used frame (the next victim), or [`NIL`].
    tail: u32,
    ledger: CostLedger,
    hits: u64,
    misses: u64,
}

/// Shared handle: every storage structure of a node points at the node's
/// single pool.
pub type SharedBufferPool = Arc<Mutex<BufferPool>>;

impl BufferPool {
    /// A pool holding at most `capacity` pages. A capacity of 0 disables
    /// caching entirely (every access is physical).
    pub fn new(capacity: usize) -> Self {
        BufferPool {
            capacity,
            frames: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            slots: HashMap::with_capacity_and_hasher(capacity.min(1 << 20), Mixed::default()),
            head: NIL,
            tail: NIL,
            ledger: CostLedger::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Wrap in the shared handle used across a node's storage structures.
    pub fn shared(capacity: usize) -> SharedBufferPool {
        Arc::new(Mutex::new(BufferPool::new(capacity)))
    }

    /// Record an access to `key`; returns true on a cache hit.
    pub fn access(&mut self, key: PageKey, mode: AccessMode) -> bool {
        let write = mode == AccessMode::Write;
        // Touching the most recent page again moves nothing: no lookup.
        if let Some(head) = self
            .frames
            .get_mut(self.head as usize)
            .filter(|f| f.key == key)
        {
            head.dirty |= write;
            self.hits += 1;
            return true;
        }
        if let Some(&slot) = self.slots.get(&key) {
            self.unlink(slot);
            self.push_front(slot);
            self.frames[slot as usize].dirty |= write;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.ledger.record(CostKind::PageRead, 1);
        if self.capacity == 0 {
            // No caching: writes hit "disk" immediately.
            if write {
                self.ledger.record(CostKind::PageWrite, 1);
            }
            return false;
        }
        let frame = Frame {
            key,
            dirty: write,
            prev: NIL,
            next: NIL,
        };
        let slot = if self.slots.len() >= self.capacity {
            // Evict the tail and reuse its slot.
            let victim = self.tail;
            self.unlink(victim);
            let old = std::mem::replace(&mut self.frames[victim as usize], frame);
            self.slots.remove(&old.key);
            if old.dirty {
                self.ledger.record(CostKind::PageWrite, 1);
            }
            victim
        } else if let Some(slot) = self.free.pop() {
            self.frames[slot as usize] = frame;
            slot
        } else {
            self.frames.push(frame);
            (self.frames.len() - 1) as u32
        };
        self.push_front(slot);
        self.slots.insert(key, slot);
        false
    }

    /// Take `slot` out of the recency list.
    fn unlink(&mut self, slot: u32) {
        let Frame { prev, next, .. } = self.frames[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.frames[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.frames[n as usize].prev = prev,
        }
    }

    /// Link `slot` in as the most recently used frame.
    fn push_front(&mut self, slot: u32) {
        let f = &mut self.frames[slot as usize];
        f.prev = NIL;
        f.next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.frames[h as usize].prev = slot,
        }
        self.head = slot;
    }

    /// Write back all dirty frames (counts one `PageWrite` each) without
    /// evicting them.
    pub fn flush_all(&mut self) {
        let mut dirty = 0;
        let mut s = self.head;
        while s != NIL {
            let f = &mut self.frames[s as usize];
            dirty += u64::from(std::mem::take(&mut f.dirty));
            s = f.next;
        }
        self.ledger.record(CostKind::PageWrite, dirty);
    }

    /// Drop every frame without write-back (used between experiment runs to
    /// cold-start the cache without charging I/O).
    pub fn clear_cold(&mut self) {
        self.frames.clear();
        self.free.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Forget pages of every file in `files` (e.g. all files of a dropped
    /// table), in one walk of the pool. Dirty pages of a dropped file need
    /// no write-back.
    pub fn discard_files(&mut self, files: std::ops::Range<FileId>) {
        let mut s = self.head;
        while s != NIL {
            let Frame { key, next, .. } = self.frames[s as usize];
            if files.contains(&key.file) {
                self.unlink(s);
                self.slots.remove(&key);
                self.free.push(s);
            }
            s = next;
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn resident(&self) -> usize {
        self.slots.len()
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Resident pages, most recently used first: the last one is the next
    /// victim.
    pub fn recency(&self) -> impl Iterator<Item = PageKey> + '_ {
        let mut s = self.head;
        std::iter::from_fn(move || {
            let f = self.frames.get(s as usize)?;
            s = f.next;
            Some(f.key)
        })
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Physical I/O counters accumulated so far.
    pub fn io_snapshot(&self) -> CostSnapshot {
        self.ledger.snapshot()
    }

    /// Reset I/O counters and hit/miss stats (cache contents are kept).
    pub fn reset_counters(&mut self) {
        self.ledger.reset();
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(f: u32, p: u32) -> PageKey {
        PageKey::new(FileId(f), p)
    }

    #[test]
    fn hit_after_miss() {
        let mut bp = BufferPool::new(4);
        assert!(!bp.access(key(0, 0), AccessMode::Read));
        assert!(bp.access(key(0, 0), AccessMode::Read));
        assert_eq!(bp.hits(), 1);
        assert_eq!(bp.misses(), 1);
        assert_eq!(bp.io_snapshot().page_reads, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut bp = BufferPool::new(2);
        bp.access(key(0, 0), AccessMode::Read);
        bp.access(key(0, 1), AccessMode::Read);
        bp.access(key(0, 0), AccessMode::Read); // page 0 now most recent
        bp.access(key(0, 2), AccessMode::Read); // evicts page 1
        assert!(
            bp.access(key(0, 0), AccessMode::Read),
            "page 0 should still be cached"
        );
        assert!(
            !bp.access(key(0, 1), AccessMode::Read),
            "page 1 should have been evicted"
        );
    }

    #[test]
    fn dirty_eviction_counts_write() {
        let mut bp = BufferPool::new(1);
        bp.access(key(0, 0), AccessMode::Write);
        bp.access(key(0, 1), AccessMode::Read); // evicts dirty page 0
        let io = bp.io_snapshot();
        assert_eq!(io.page_reads, 2);
        assert_eq!(io.page_writes, 1);
    }

    #[test]
    fn flush_all_writes_dirty_once() {
        let mut bp = BufferPool::new(8);
        bp.access(key(0, 0), AccessMode::Write);
        bp.access(key(0, 1), AccessMode::Write);
        bp.access(key(0, 2), AccessMode::Read);
        bp.flush_all();
        assert_eq!(bp.io_snapshot().page_writes, 2);
        bp.flush_all();
        assert_eq!(
            bp.io_snapshot().page_writes,
            2,
            "second flush finds nothing dirty"
        );
    }

    #[test]
    fn zero_capacity_is_all_physical() {
        let mut bp = BufferPool::new(0);
        bp.access(key(0, 0), AccessMode::Read);
        bp.access(key(0, 0), AccessMode::Read);
        assert_eq!(bp.misses(), 2);
        assert_eq!(bp.hits(), 0);
        let mut bp = BufferPool::new(0);
        bp.access(key(0, 0), AccessMode::Write);
        assert_eq!(bp.io_snapshot().page_writes, 1);
    }

    #[test]
    fn discard_file_drops_without_writeback() {
        let mut bp = BufferPool::new(4);
        bp.access(key(7, 0), AccessMode::Write);
        bp.access(key(8, 0), AccessMode::Read);
        bp.access(key(9, 0), AccessMode::Write);
        bp.discard_files(FileId(7)..FileId(8));
        assert_eq!(bp.resident(), 2);
        // A range takes every file in it, the dirty one with no write-back.
        bp.discard_files(FileId(8)..FileId(10));
        assert_eq!(bp.resident(), 0);
        assert_eq!(bp.io_snapshot().page_writes, 0);
    }

    #[test]
    fn reset_counters_keeps_cache() {
        let mut bp = BufferPool::new(4);
        bp.access(key(0, 0), AccessMode::Read);
        bp.reset_counters();
        assert_eq!(bp.io_snapshot().page_reads, 0);
        assert!(
            bp.access(key(0, 0), AccessMode::Read),
            "cache contents survive reset"
        );
    }
}

#[cfg(test)]
mod lru_index_equivalence {
    //! Model check: the recency list must pick the exact victim the old
    //! full-frame scan picked, so hit/miss outcomes and PageWrite counts
    //! stay bit-identical under any interleaving of accesses, flushes,
    //! cold clears and file discards.

    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The pre-index implementation, verbatim: eviction scans all frames
    /// for the oldest clock stamp.
    struct RefFrame {
        key: PageKey,
        dirty: bool,
        last_used: u64,
    }

    struct ReferencePool {
        capacity: usize,
        clock: u64,
        frames: HashMap<PageKey, RefFrame>,
        ledger: CostLedger,
        hits: u64,
        misses: u64,
    }

    impl ReferencePool {
        fn new(capacity: usize) -> Self {
            ReferencePool {
                capacity,
                clock: 0,
                frames: HashMap::new(),
                ledger: CostLedger::new(),
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, key: PageKey, mode: AccessMode) -> bool {
            self.clock += 1;
            let clock = self.clock;
            if let Some(f) = self.frames.get_mut(&key) {
                f.last_used = clock;
                if mode == AccessMode::Write {
                    f.dirty = true;
                }
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            self.ledger.record(CostKind::PageRead, 1);
            if self.capacity == 0 {
                if mode == AccessMode::Write {
                    self.ledger.record(CostKind::PageWrite, 1);
                }
                return false;
            }
            if self.frames.len() >= self.capacity {
                if let Some(victim) = self
                    .frames
                    .values()
                    .min_by_key(|f| f.last_used)
                    .map(|f| f.key)
                {
                    let frame = self.frames.remove(&victim).unwrap();
                    if frame.dirty {
                        self.ledger.record(CostKind::PageWrite, 1);
                    }
                }
            }
            self.frames.insert(
                key,
                RefFrame {
                    key,
                    dirty: mode == AccessMode::Write,
                    last_used: clock,
                },
            );
            false
        }

        /// File of the resident frame at `rank` in recency order (0 = most
        /// recent), clamped to the least recent.
        fn file_at(&self, rank: Rank) -> Option<FileId> {
            let mut by_age: Vec<&RefFrame> = self.frames.values().collect();
            by_age.sort_by_key(|f| std::cmp::Reverse(f.last_used));
            let i = match rank {
                Rank::Head => 0,
                Rank::Middle => by_age.len() / 2,
                Rank::Tail => by_age.len().checked_sub(1)?,
            };
            by_age.get(i).map(|f| f.key.file)
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Rank {
        Head,
        Middle,
        Tail,
    }

    #[derive(Debug, Clone)]
    enum Op {
        Access {
            file: u32,
            page: u32,
            write: bool,
        },
        FlushAll,
        ClearCold,
        /// Discard files `lo .. lo + len`.
        DiscardFiles {
            lo: u32,
            len: u32,
        },
        /// Discard the file of the frame at a recency rank.
        DiscardFileOf(Rank),
    }

    const FILES: u32 = 4;

    /// Ops over `FILES` files: ~5/6 accesses, the rest split across the
    /// maintenance ops. Pages are raw; the test folds them into a domain
    /// sized to the capacity.
    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u8..30, 0..FILES, 0u32..1 << 16, any::<bool>()).prop_map(|(sel, file, page, write)| {
            match sel {
                0 => Op::FlushAll,
                1 => Op::ClearCold,
                2 => Op::DiscardFiles {
                    lo: file,
                    len: page % 3,
                },
                3 => Op::DiscardFileOf(Rank::Head),
                4 => Op::DiscardFileOf(Rank::Middle),
                5 => Op::DiscardFileOf(Rank::Tail),
                _ => Op::Access { file, page, write },
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn indexed_pool_matches_scan_reference(
            capacity in 0usize..64,
            ops in proptest::collection::vec(op_strategy(), 1..2_000),
        ) {
            // About twice as many keys as frames, so a run mixes hits,
            // evictions and reuse of discarded slots.
            let pages = (capacity as u32 / 2).max(1) + 3;
            let mut fast = BufferPool::new(capacity);
            let mut slow = ReferencePool::new(capacity);
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::Access { file, page, write } => {
                        let key = PageKey::new(FileId(file), page % pages);
                        let mode = if write { AccessMode::Write } else { AccessMode::Read };
                        prop_assert_eq!(
                            fast.access(key, mode),
                            slow.access(key, mode),
                            "hit/miss diverged at step {}",
                            step
                        );
                    }
                    Op::FlushAll => {
                        fast.flush_all();
                        let mut dirty = 0;
                        for f in slow.frames.values_mut() {
                            if f.dirty {
                                dirty += 1;
                                f.dirty = false;
                            }
                        }
                        slow.ledger.record(CostKind::PageWrite, dirty);
                    }
                    Op::ClearCold => {
                        fast.clear_cold();
                        slow.frames.clear();
                    }
                    Op::DiscardFiles { lo, len } => {
                        let files = FileId(lo)..FileId(lo + len);
                        fast.discard_files(files.clone());
                        slow.frames.retain(|k, _| !files.contains(&k.file));
                    }
                    Op::DiscardFileOf(rank) => {
                        if let Some(file) = slow.file_at(rank) {
                            fast.discard_files(file..FileId(file.0 + 1));
                            slow.frames.retain(|k, _| k.file != file);
                        }
                    }
                }
                let (fio, sio) = (fast.io_snapshot(), slow.ledger.snapshot());
                prop_assert_eq!(fio.page_reads, sio.page_reads, "PageRead diverged at step {}", step);
                prop_assert_eq!(fio.page_writes, sio.page_writes, "PageWrite diverged at step {}", step);
                prop_assert_eq!(fast.resident(), slow.frames.len(), "resident diverged at step {}", step);
                prop_assert_eq!(fast.hits(), slow.hits, "hits diverged at step {}", step);
                prop_assert_eq!(fast.misses(), slow.misses, "misses diverged at step {}", step);
            }
        }
    }
}
