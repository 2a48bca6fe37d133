//! Heap files: unordered collections of slotted pages with stable RIDs.

use pvm_types::{PvmError, Result, Rid};

use crate::buffer::{AccessMode, BufferPool, PageKey, SharedBufferPool};
use crate::page::Page;
use crate::FileId;

/// A heap file of slotted pages. Tuples are addressed by stable
/// [`Rid`]s; inserts fill the last page first, then grow the file.
#[derive(Debug)]
pub struct HeapFile {
    file: FileId,
    pages: Vec<Page>,
    buffer: SharedBufferPool,
    live: u64,
    /// While true (an open transaction), compaction must not reclaim
    /// tombstones — aborting may need to resurrect them in place.
    preserve_tombstones: bool,
}

impl HeapFile {
    pub fn new(file: FileId, buffer: SharedBufferPool) -> Self {
        HeapFile {
            file,
            pages: Vec::new(),
            buffer,
            live: 0,
            preserve_tombstones: false,
        }
    }

    /// Toggle tombstone preservation (open transaction ⇒ true).
    pub fn set_preserve_tombstones(&mut self, preserve: bool) {
        self.preserve_tombstones = preserve;
    }

    pub fn file_id(&self) -> FileId {
        self.file
    }

    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Number of live tuples.
    pub fn len(&self) -> u64 {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn touch(&self, page: u32, mode: AccessMode) {
        self.buffer
            .lock()
            .access(PageKey::new(self.file, page), mode);
    }

    /// Refuse a tuple of `len` bytes, as [`HeapFile::insert`] would.
    pub(crate) fn check_tuple_len(len: usize) -> Result<()> {
        if len > Page::max_tuple_len() {
            return Err(PvmError::CapacityExceeded(format!(
                "tuple of {len} bytes exceeds page capacity"
            )));
        }
        Ok(())
    }

    /// Insert tuple bytes, returning the new RID.
    pub fn insert(&mut self, tuple: &[u8]) -> Result<Rid> {
        let buffer = self.buffer.clone();
        let mut pool = buffer.lock();
        self.insert_locked(&mut pool, tuple)
    }

    /// [`HeapFile::insert`] under a lock of this file's pool that the
    /// caller holds.
    pub(crate) fn insert_locked(&mut self, pool: &mut BufferPool, tuple: &[u8]) -> Result<Rid> {
        Self::check_tuple_len(tuple.len())?;
        // Try the last page; compact it if dead space would make it fit
        // (not during a transaction: aborts may resurrect tombstones).
        if let Some(last) = self.pages.last_mut() {
            if !self.preserve_tombstones
                && !last.fits(tuple.len())
                && last.dead_space() >= tuple.len()
            {
                last.compact();
            }
            if last.fits(tuple.len()) {
                let page_no = (self.pages.len() - 1) as u32;
                let slot = self.pages.last_mut().expect("non-empty").insert(tuple)?;
                pool.access(PageKey::new(self.file, page_no), AccessMode::Write);
                self.live += 1;
                return Ok(Rid {
                    page: pvm_types::PageId(page_no),
                    slot,
                });
            }
        }
        let mut page = Page::new();
        let slot = page.insert(tuple)?;
        self.pages.push(page);
        let page_no = (self.pages.len() - 1) as u32;
        pool.access(PageKey::new(self.file, page_no), AccessMode::Write);
        self.live += 1;
        Ok(Rid {
            page: pvm_types::PageId(page_no),
            slot,
        })
    }

    fn page(&self, rid: Rid) -> Result<&Page> {
        self.pages
            .get(rid.page.0 as usize)
            .ok_or_else(|| PvmError::InvalidReference(format!("page {} out of range", rid.page)))
    }

    /// Read the tuple at `rid` (one page access).
    pub fn get(&self, rid: Rid) -> Result<Vec<u8>> {
        let page = self.page(rid)?;
        let bytes = page.get(rid.slot)?.to_vec();
        self.touch(rid.page.0, AccessMode::Read);
        Ok(bytes)
    }

    /// The live tuple at `rid` without a page access: for comparing bytes
    /// where the caller's abstract cost model charges nothing (the
    /// table's row locator). `None` for a deleted or unknown rid.
    pub fn peek(&self, rid: Rid) -> Option<&[u8]> {
        self.pages.get(rid.page.0 as usize)?.get(rid.slot).ok()
    }

    /// Delete the tuple at `rid`.
    pub fn delete(&mut self, rid: Rid) -> Result<()> {
        let file_page = rid.page.0;
        let page = self
            .pages
            .get_mut(rid.page.0 as usize)
            .ok_or_else(|| PvmError::InvalidReference(format!("page {} out of range", rid.page)))?;
        page.delete(rid.slot)?;
        self.touch(file_page, AccessMode::Write);
        self.live -= 1;
        Ok(())
    }

    /// Resurrect the tombstoned tuple at `rid` in place (transaction
    /// abort). The rid stays valid, so index entries referring to it do
    /// too.
    pub fn undelete(&mut self, rid: Rid) -> Result<()> {
        let file_page = rid.page.0;
        let page = self
            .pages
            .get_mut(rid.page.0 as usize)
            .ok_or_else(|| PvmError::InvalidReference(format!("page {} out of range", rid.page)))?;
        page.undelete(rid.slot)?;
        self.touch(file_page, AccessMode::Write);
        self.live += 1;
        Ok(())
    }

    /// Replace the tuple at `rid`. Because slotted pages do not support
    /// in-place growth, the tuple is deleted and re-inserted; the returned
    /// RID may differ from the input.
    pub fn update(&mut self, rid: Rid, tuple: &[u8]) -> Result<Rid> {
        self.delete(rid)?;
        self.insert(tuple)
    }

    /// Iterate all live tuples as `(rid, bytes)`, charging one page access
    /// per page visited.
    pub fn scan(&self) -> impl Iterator<Item = (Rid, &[u8])> + '_ {
        self.pages.iter().enumerate().flat_map(move |(pno, page)| {
            self.touch(pno as u32, AccessMode::Read);
            Self::tuples(pno, page)
        })
    }

    /// [`HeapFile::scan`] under a lock of this file's pool that the caller
    /// holds: `visit` gets each live tuple, and the pool back, after the
    /// read of its page.
    pub(crate) fn scan_locked(
        &self,
        pool: &mut BufferPool,
        mut visit: impl FnMut(&mut BufferPool, Rid, &[u8]) -> Result<()>,
    ) -> Result<()> {
        for (pno, page) in self.pages.iter().enumerate() {
            pool.access(PageKey::new(self.file, pno as u32), AccessMode::Read);
            for (rid, tuple) in Self::tuples(pno, page) {
                visit(pool, rid, tuple)?;
            }
        }
        Ok(())
    }

    /// [`HeapFile::scan`] without page accesses, under the
    /// [`HeapFile::peek`] contract: for building in-memory structures the
    /// cost model does not price (the table's row locator and column
    /// statistics).
    pub fn peek_all(&self) -> impl Iterator<Item = (Rid, &[u8])> + '_ {
        self.pages
            .iter()
            .enumerate()
            .flat_map(|(pno, page)| Self::tuples(pno, page))
    }

    fn tuples(pno: usize, page: &Page) -> impl Iterator<Item = (Rid, &[u8])> + '_ {
        page.iter().map(move |(slot, bytes)| {
            (
                Rid {
                    page: pvm_types::PageId(pno as u32),
                    slot,
                },
                bytes,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;

    fn heap() -> HeapFile {
        HeapFile::new(FileId(1), BufferPool::shared(64))
    }

    #[test]
    fn insert_get() {
        let mut h = heap();
        let r1 = h.insert(b"alpha").unwrap();
        let r2 = h.insert(b"beta").unwrap();
        assert_eq!(h.get(r1).unwrap(), b"alpha");
        assert_eq!(h.get(r2).unwrap(), b"beta");
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn grows_pages() {
        let mut h = heap();
        let tuple = vec![7u8; 1000];
        for _ in 0..100 {
            h.insert(&tuple).unwrap();
        }
        assert!(h.page_count() > 10, "100 x 1 KB tuples need > 10 pages");
        assert_eq!(h.len(), 100);
    }

    #[test]
    fn delete_then_get_errors() {
        let mut h = heap();
        let r = h.insert(b"x").unwrap();
        h.delete(r).unwrap();
        assert!(h.get(r).is_err());
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn update_moves_tuple() {
        let mut h = heap();
        let r = h.insert(b"small").unwrap();
        let big = vec![1u8; 4000];
        let r2 = h.update(r, &big).unwrap();
        assert_eq!(h.get(r2).unwrap(), big);
        assert!(h.get(r).is_err());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn scan_sees_all_live() {
        let mut h = heap();
        let mut rids = Vec::new();
        for i in 0..50u8 {
            rids.push(h.insert(&[i]).unwrap());
        }
        h.delete(rids[10]).unwrap();
        h.delete(rids[20]).unwrap();
        let seen: Vec<&[u8]> = h.scan().map(|(_, b)| b).collect();
        assert_eq!(seen.len(), 48);
        assert!(!seen.contains(&[10u8].as_slice()));
    }

    #[test]
    fn reuses_dead_space_via_compaction() {
        let mut h = heap();
        // Fill one page with ~1 KB tuples, delete them, insert again — the
        // heap should not need a new page for the re-inserts targeting the
        // last page.
        let tuple = vec![9u8; 1024];
        let mut rids = Vec::new();
        while h.page_count() <= 1 {
            rids.push(h.insert(&tuple).unwrap());
        }
        let pages_before = h.page_count();
        // Delete everything on the last page and insert the same amount.
        let last_page = (pages_before - 1) as u32;
        let on_last: Vec<Rid> = rids
            .iter()
            .copied()
            .filter(|r| r.page.0 == last_page)
            .collect();
        for r in &on_last {
            h.delete(*r).unwrap();
        }
        for _ in &on_last {
            h.insert(&tuple).unwrap();
        }
        assert_eq!(
            h.page_count(),
            pages_before,
            "compaction should reclaim the last page"
        );
    }

    #[test]
    fn page_accesses_metered() {
        let bp = BufferPool::shared(0); // all physical
        let mut h = HeapFile::new(FileId(3), bp.clone());
        let r = h.insert(b"z").unwrap();
        let _ = h.get(r).unwrap();
        let io = bp.lock().io_snapshot();
        assert!(io.page_reads >= 2, "insert touch + get touch");
    }

    #[test]
    fn invalid_rid_errors() {
        let h = heap();
        assert!(h.get(Rid::new(99, 0)).is_err());
    }
}
