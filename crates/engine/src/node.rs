//! One data-server node: its tables, buffer pool, and cost ledger.

use std::collections::HashMap;

use pvm_storage::{BufferPool, FileId, Organization, SharedBufferPool, TableStorage};
use pvm_types::{CostLedger, CostSnapshot, NodeId, PvmError, Result, Rid, Row};

use crate::catalog::{TableDef, TableId};
use crate::wal::{Wal, WalRecord};

/// Shared handle to the cluster's write-ahead log.
pub(crate) type WalSink = std::sync::Arc<parking_lot::Mutex<Wal>>;

/// Disjoint FileId range reserved per table at a node (heap + clustered +
/// secondaries).
const FILES_PER_TABLE: u32 = 64;

/// One logical-undo record; applied in reverse order on abort.
#[derive(Debug, Clone)]
enum LocalUndo {
    /// Undo an insert: delete the rid.
    Insert { table: TableId, rid: Rid },
    /// Undo a delete: resurrect the row at its original rid.
    Delete { table: TableId, rid: Rid, row: Row },
}

/// State owned by one node of the shared-nothing cluster.
#[derive(Debug)]
pub struct NodeState {
    id: NodeId,
    buffer: SharedBufferPool,
    tables: HashMap<TableId, TableStorage>,
    ledger: CostLedger,
    /// Logical undo log of the open transaction, if any.
    undo: Option<Vec<LocalUndo>>,
    /// Cluster WAL, when logging is enabled.
    wal: Option<WalSink>,
}

impl NodeState {
    /// A node with a buffer pool of `buffer_pages` pages (the paper's `M`).
    pub fn new(id: NodeId, buffer_pages: usize) -> Self {
        NodeState {
            id,
            buffer: BufferPool::shared(buffer_pages),
            tables: HashMap::new(),
            ledger: CostLedger::new(),
            undo: None,
            wal: None,
        }
    }

    pub(crate) fn set_wal(&mut self, wal: Option<WalSink>) {
        self.wal = wal;
    }

    fn log_wal(&self, rec: WalRecord) {
        if let Some(w) = &self.wal {
            w.lock().append(rec);
        }
    }

    /// Open a local undo scope (part of a cluster transaction): DML is
    /// logged for rollback and heap tombstones are preserved so deletes
    /// can be resurrected in place.
    pub(crate) fn begin_undo(&mut self) {
        debug_assert!(self.undo.is_none(), "nested local transactions");
        self.undo = Some(Vec::new());
        for t in self.tables.values_mut() {
            t.set_preserve_tombstones(true);
        }
    }

    /// Commit: discard the undo log.
    pub(crate) fn commit_undo(&mut self) {
        self.undo = None;
        for t in self.tables.values_mut() {
            t.set_preserve_tombstones(false);
        }
    }

    /// Abort: apply the undo log in reverse. Undo work is charged to the
    /// node's ledger like any other operation.
    pub(crate) fn abort_undo(&mut self) -> Result<()> {
        let log = self.undo.take().unwrap_or_default();
        for entry in log.into_iter().rev() {
            match entry {
                LocalUndo::Insert { table, rid } => {
                    let ledger = &mut self.ledger;
                    let t = self
                        .tables
                        .get_mut(&table)
                        .ok_or_else(|| PvmError::NotFound(format!("{table}")))?;
                    let row = t.delete(rid, ledger)?;
                    let name = t.name().to_owned();
                    self.log_wal(WalRecord::Delete {
                        table: name,
                        node: self.id,
                        rid,
                        row,
                    });
                }
                LocalUndo::Delete { table, rid, row } => {
                    let t = self
                        .tables
                        .get_mut(&table)
                        .ok_or_else(|| PvmError::NotFound(format!("{table}")))?;
                    t.undelete(rid, &row)?;
                    let name = t.name().to_owned();
                    self.ledger.record(pvm_types::CostKind::Insert, 1);
                    self.log_wal(WalRecord::Undelete {
                        table: name,
                        node: self.id,
                        rid,
                        row,
                    });
                }
            }
        }
        for t in self.tables.values_mut() {
            t.set_preserve_tombstones(false);
        }
        Ok(())
    }

    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Instantiate local storage for a catalog table.
    pub fn create_table(&mut self, id: TableId, def: &TableDef) -> Result<()> {
        if self.tables.contains_key(&id) {
            return Err(PvmError::AlreadyExists(format!("{id} at {}", self.id)));
        }
        let storage = TableStorage::new(
            def.name.clone(),
            def.schema.clone(),
            def.organization.clone(),
            id.0 * FILES_PER_TABLE,
            self.buffer.clone(),
        );
        self.tables.insert(id, storage);
        Ok(())
    }

    /// Drop the table's storage and forget its frames in the buffer pool:
    /// a dropped file holds no capacity and its dirty pages are never
    /// written back.
    pub fn drop_table(&mut self, id: TableId) -> Result<()> {
        self.tables
            .remove(&id)
            .ok_or_else(|| PvmError::NotFound(format!("{id} at {}", self.id)))?;
        let base = id.0 * FILES_PER_TABLE;
        self.buffer
            .lock()
            .discard_files(FileId(base)..FileId(base + FILES_PER_TABLE));
        Ok(())
    }

    pub fn storage(&self, id: TableId) -> Result<&TableStorage> {
        self.tables
            .get(&id)
            .ok_or_else(|| PvmError::NotFound(format!("{id} at {}", self.id)))
    }

    pub fn storage_mut(&mut self, id: TableId) -> Result<&mut TableStorage> {
        self.tables
            .get_mut(&id)
            .ok_or_else(|| PvmError::NotFound(format!("{id} at {}", self.id)))
    }

    /// Insert locally, charging this node's ledger one `INSERT`.
    pub fn insert(&mut self, id: TableId, row: Row) -> Result<Rid> {
        let t = self
            .tables
            .get_mut(&id)
            .ok_or_else(|| PvmError::NotFound(format!("{id}")))?;
        let logged = self.wal.as_ref().map(|wal| (wal, row.clone()));
        let rid = t.insert(row, &mut self.ledger)?;
        if let Some(undo) = &mut self.undo {
            undo.push(LocalUndo::Insert { table: id, rid });
        }
        if let Some((wal, row)) = logged {
            wal.lock().append(WalRecord::Insert {
                table: t.name().to_owned(),
                node: self.id,
                rid,
                row,
            });
        }
        Ok(rid)
    }

    /// Probe a local index (see [`TableStorage::index_search`] for the
    /// SEARCH/FETCH charging rules).
    pub fn index_search(
        &mut self,
        id: TableId,
        key: &[usize],
        key_values: &Row,
    ) -> Result<Vec<Row>> {
        let ledger = &mut self.ledger;
        let t = self
            .tables
            .get(&id)
            .ok_or_else(|| PvmError::NotFound(format!("{id}")))?;
        t.index_search(key, key_values, ledger)
    }

    /// Probe a local secondary index, returning `(rid, row)` pairs (see
    /// [`TableStorage::index_search_rids`] for the charging rules).
    pub fn index_search_rids(
        &mut self,
        id: TableId,
        key: &[usize],
        key_values: &Row,
    ) -> Result<Vec<(pvm_types::Rid, Row)>> {
        let ledger = &mut self.ledger;
        let t = self
            .tables
            .get(&id)
            .ok_or_else(|| PvmError::NotFound(format!("{id}")))?;
        t.index_search_rids(key, key_values, ledger)
    }

    /// Probe a local index with a whole batch of key rows at once (see
    /// [`TableStorage::index_search_batch`]: one SEARCH per *distinct*
    /// key; duplicates share their representative's result and FETCHes).
    pub fn index_search_batch(
        &mut self,
        id: TableId,
        key: &[usize],
        key_values: &[Row],
    ) -> Result<Vec<Vec<Row>>> {
        let ledger = &mut self.ledger;
        let t = self
            .tables
            .get(&id)
            .ok_or_else(|| PvmError::NotFound(format!("{id}")))?;
        t.index_search_batch(key, key_values, ledger)
    }

    /// Fetch a local row by rid (one `FETCH`).
    pub fn fetch(&mut self, id: TableId, rid: Rid) -> Result<Row> {
        let ledger = &mut self.ledger;
        let t = self
            .tables
            .get(&id)
            .ok_or_else(|| PvmError::NotFound(format!("{id}")))?;
        t.fetch(rid, ledger)
    }

    /// RID of one local row equal to `row`, if present.
    pub fn find_rid(&mut self, id: TableId, row: &Row, key_hint: &[usize]) -> Result<Option<Rid>> {
        let ledger = &mut self.ledger;
        let t = self
            .tables
            .get(&id)
            .ok_or_else(|| PvmError::NotFound(format!("{id}")))?;
        t.find_rid(row, key_hint, ledger)
    }

    /// Delete the local row at `rid`, returning it.
    pub fn delete_rid(&mut self, id: TableId, rid: Rid) -> Result<Row> {
        let t = self
            .tables
            .get_mut(&id)
            .ok_or_else(|| PvmError::NotFound(format!("{id}")))?;
        let row = t.delete(rid, &mut self.ledger)?;
        if let Some(undo) = &mut self.undo {
            undo.push(LocalUndo::Delete {
                table: id,
                rid,
                row: row.clone(),
            });
        }
        if let Some(wal) = &self.wal {
            wal.lock().append(WalRecord::Delete {
                table: t.name().to_owned(),
                node: self.id,
                rid,
                row: row.clone(),
            });
        }
        Ok(row)
    }

    /// Delete one local row equal to `row` (located via `key_hint`'s
    /// secondary index when there is one, else via the table's row
    /// locator).
    pub fn delete_row(&mut self, id: TableId, row: &Row, key_hint: &[usize]) -> Result<bool> {
        match self.find_rid(id, row, key_hint)? {
            Some(rid) => {
                self.delete_rid(id, rid)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// The node's abstract-op ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    pub fn ledger_mut(&mut self) -> &mut CostLedger {
        &mut self.ledger
    }

    /// The node's buffer pool (physical-I/O metering).
    pub fn buffer(&self) -> &SharedBufferPool {
        &self.buffer
    }

    /// Abstract ops + physical page I/O, combined.
    pub fn combined_snapshot(&self) -> CostSnapshot {
        self.ledger.snapshot() + self.buffer.lock().io_snapshot()
    }

    pub fn reset_counters(&mut self) {
        self.ledger.reset();
        self.buffer.lock().reset_counters();
    }

    /// Ids of tables present at this node.
    pub fn table_ids(&self) -> Vec<TableId> {
        let mut v: Vec<TableId> = self.tables.keys().copied().collect();
        v.sort();
        v
    }

    /// Is the table clustered on exactly `key` at this node?
    pub fn is_clustered_on(&self, id: TableId, key: &[usize]) -> bool {
        self.tables
            .get(&id)
            .map(|t| matches!(t.organization(), Organization::Clustered { key: k } if k == key))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm_types::{row, Column, Schema};

    fn node() -> NodeState {
        NodeState::new(NodeId(0), 256)
    }

    fn def() -> TableDef {
        TableDef::hash_heap(
            "t",
            Schema::new(vec![Column::int("a"), Column::int("b")]).into_ref(),
            0,
        )
    }

    #[test]
    fn create_insert_search() {
        let mut n = node();
        let id = TableId(0);
        n.create_table(id, &def()).unwrap();
        n.storage_mut(id)
            .unwrap()
            .create_secondary_index("ix", vec![1])
            .unwrap();
        n.insert(id, row![1, 5]).unwrap();
        n.insert(id, row![2, 5]).unwrap();
        let hits = n.index_search(id, &[1], &row![5]).unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(n.ledger().snapshot().inserts, 2);
        assert_eq!(n.ledger().snapshot().searches, 1);
        assert_eq!(n.ledger().snapshot().fetches, 2);
    }

    #[test]
    fn double_create_rejected() {
        let mut n = node();
        n.create_table(TableId(0), &def()).unwrap();
        assert!(n.create_table(TableId(0), &def()).is_err());
    }

    #[test]
    fn drop_table() {
        let mut n = node();
        n.create_table(TableId(0), &def()).unwrap();
        n.drop_table(TableId(0)).unwrap();
        assert!(n.storage(TableId(0)).is_err());
        assert!(n.drop_table(TableId(0)).is_err());
    }

    #[test]
    fn drop_table_frees_its_frames_without_write_back() {
        let mut n = NodeState::new(NodeId(0), 4);
        n.create_table(TableId(0), &def()).unwrap();
        n.create_table(TableId(1), &def()).unwrap();
        n.insert(TableId(1), row![1, 2]).unwrap();
        n.insert(TableId(0), row![3, 4]).unwrap();
        assert_eq!(n.buffer().lock().resident(), 2);
        n.drop_table(TableId(0)).unwrap();
        let pool = n.buffer().clone();
        assert_eq!(
            pool.lock().resident(),
            1,
            "only table 1's heap page is left"
        );
        // Cycle the pool through pages of another file: every eviction
        // hits table 1's dirty page or a clean one, never the dropped one.
        pool.lock().reset_counters();
        for p in 0..8 {
            pool.lock().access(
                pvm_storage::PageKey::new(FileId(9_999), p),
                pvm_storage::AccessMode::Read,
            );
        }
        assert_eq!(
            pool.lock().io_snapshot().page_writes,
            1,
            "table 1's page only"
        );
    }

    #[test]
    fn combined_snapshot_includes_pages() {
        let mut n = node();
        n.create_table(TableId(0), &def()).unwrap();
        n.insert(TableId(0), row![1, 2]).unwrap();
        let s = n.combined_snapshot();
        assert_eq!(s.inserts, 1);
        assert!(s.page_reads >= 1, "heap touch flows into the snapshot");
        n.reset_counters();
        assert!(n.combined_snapshot().is_zero());
    }

    #[test]
    fn clustered_detection() {
        let mut n = node();
        let cdef = TableDef::hash_clustered(
            "c",
            Schema::new(vec![Column::int("a"), Column::int("b")]).into_ref(),
            1,
        );
        n.create_table(TableId(1), &cdef).unwrap();
        assert!(n.is_clustered_on(TableId(1), &[1]));
        assert!(!n.is_clustered_on(TableId(1), &[0]));
        assert!(!n.is_clustered_on(TableId(9), &[0]));
    }
}
