//! One data-server node: its tables, buffer pool, and cost ledger.

use std::collections::HashMap;

use pvm_storage::{BufferPool, FileId, Organization, SharedBufferPool, TableStorage};
use pvm_types::{CostLedger, CostSnapshot, NodeId, PvmError, Result, Rid, Row};

use crate::catalog::{TableDef, TableId};
use crate::wal::{compensation, WalRecord};

/// Disjoint FileId range reserved per table at a node (heap + clustered +
/// secondaries).
const FILES_PER_TABLE: u32 = 64;

/// State owned by one node of the shared-nothing cluster.
#[derive(Debug)]
pub struct NodeState {
    id: NodeId,
    buffer: SharedBufferPool,
    tables: HashMap<TableId, TableStorage>,
    ledger: CostLedger,
    /// This node's log: the DDL, the node's own DML and the transaction
    /// markers, in execution order. Kept whole when `durable`; otherwise
    /// it holds only the open transaction, which is that transaction's
    /// undo.
    log: Vec<WalRecord>,
    /// Keep the whole log for crash recovery ([`crate::ClusterConfig::wal`]).
    durable: bool,
    /// Position in `log` of the open transaction's `TxnBegin`.
    txn: Option<usize>,
}

impl NodeState {
    /// A node with a buffer pool of `buffer_pages` pages (the paper's `M`).
    pub fn new(id: NodeId, buffer_pages: usize) -> Self {
        NodeState {
            id,
            buffer: BufferPool::shared(buffer_pages),
            tables: HashMap::new(),
            ledger: CostLedger::new(),
            log: Vec::new(),
            durable: false,
            txn: None,
        }
    }

    /// A node that keeps its whole log (`durable`) or only its open
    /// transaction.
    pub(crate) fn with_log(id: NodeId, buffer_pages: usize, durable: bool) -> Self {
        NodeState {
            durable,
            ..NodeState::new(id, buffer_pages)
        }
    }

    /// This node's log so far (see [`crate::wal`]).
    pub fn log(&self) -> &[WalRecord] {
        &self.log
    }

    pub(crate) fn take_log(&mut self) -> Vec<WalRecord> {
        std::mem::take(&mut self.log)
    }

    fn logs(&self) -> bool {
        self.durable || self.txn.is_some()
    }

    /// Append a DDL record (the coordinator writes each to every node).
    pub(crate) fn log_ddl(&mut self, rec: WalRecord) {
        if self.durable {
            self.log.push(rec);
        }
    }

    /// Keep heap tombstones while a transaction is open, so an abort can
    /// resurrect deleted rows in place.
    pub(crate) fn hold_tombstones(&mut self, hold: bool) {
        for t in self.tables.values_mut() {
            t.set_preserve_tombstones(hold);
        }
    }

    /// Open this node's part of a cluster transaction.
    pub(crate) fn begin(&mut self) {
        debug_assert!(self.txn.is_none(), "nested local transactions");
        self.txn = Some(self.log.len());
        self.log.push(WalRecord::TxnBegin);
        self.hold_tombstones(true);
    }

    /// Commit: the transaction's DML stays.
    pub(crate) fn commit(&mut self) {
        self.close(WalRecord::TxnCommit);
    }

    /// Abort: apply the `compensation` of the open transaction's log
    /// tail and log what was applied. Returns how many records that was.
    pub(crate) fn abort(&mut self) -> Result<usize> {
        let start = self.txn.expect("abort inside a transaction");
        let undo = compensation(&self.log[start + 1..])?;
        for rec in &undo {
            self.apply(rec)?;
        }
        let undone = undo.len();
        self.log.extend(undo);
        self.close(WalRecord::TxnAbort);
        Ok(undone)
    }

    fn close(&mut self, marker: WalRecord) {
        self.txn = None;
        self.hold_tombstones(false);
        if self.durable {
            self.log.push(marker);
        } else {
            self.log.clear();
        }
    }

    /// Adopt `log` after replaying it into this node, closing a trailing
    /// open transaction the way a live abort would. Returns how many
    /// compensation records that applied.
    pub(crate) fn resume(&mut self, log: Vec<WalRecord>) -> Result<usize> {
        let last = log.iter().rposition(|r| {
            matches!(
                r,
                WalRecord::TxnBegin | WalRecord::TxnCommit | WalRecord::TxnAbort
            )
        });
        self.txn = last.filter(|&i| log[i] == WalRecord::TxnBegin);
        self.log = log;
        if self.txn.is_some() {
            return self.abort();
        }
        if !self.durable {
            self.log.clear();
        }
        Ok(0)
    }

    /// Redo one DML record without logging it. An insert charges one
    /// `INSERT` and must land on the logged rid; a delete charges what
    /// [`TableStorage::delete`] does; an undelete charges one `INSERT`.
    pub(crate) fn apply(&mut self, rec: &WalRecord) -> Result<()> {
        match rec {
            WalRecord::Insert { table, rid, row } => {
                let (t, ledger) = self.table(*table)?;
                let got = t.insert(row.clone(), ledger)?;
                if got != *rid {
                    return Err(PvmError::Corrupt(format!(
                        "replay divergence: expected {rid}, got {got} in {table}"
                    )));
                }
            }
            WalRecord::Delete { table, rid, .. } => {
                let (t, ledger) = self.table(*table)?;
                t.delete(*rid, ledger)?;
            }
            WalRecord::Undelete { table, rid, row } => {
                let (t, ledger) = self.table(*table)?;
                t.undelete(*rid, row)?;
                ledger.record(pvm_types::CostKind::Insert, 1);
            }
            other => {
                return Err(PvmError::InvalidOperation(format!(
                    "not a DML record: {other:?}"
                )))
            }
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
        Ok(self.table(id)?.0)
    }

    /// The table's local storage and the ledger its work is charged to.
    fn table(&mut self, id: TableId) -> Result<(&mut TableStorage, &mut CostLedger)> {
        let t = self
            .tables
            .get_mut(&id)
            .ok_or_else(|| PvmError::NotFound(format!("{id} at {}", self.id)))?;
        Ok((t, &mut self.ledger))
    }

    /// Insert locally, charging this node's ledger one `INSERT`.
    pub fn insert(&mut self, id: TableId, row: Row) -> Result<Rid> {
        let logged = self.logs().then(|| row.clone());
        let (t, ledger) = self.table(id)?;
        let rid = t.insert(row, ledger)?;
        if let Some(row) = logged {
            self.log.push(WalRecord::Insert {
                table: id,
                rid,
                row,
            });
        }
        Ok(rid)
    }

    /// [`NodeState::insert`] of each of `rows`, in order, as one
    /// [`TableStorage::insert_batch`]: every row is checked before the
    /// first is written, so a refused batch changes nothing.
    pub fn insert_batch(&mut self, id: TableId, rows: Vec<Row>) -> Result<Vec<Rid>> {
        let (t, ledger) = self.table(id)?;
        let rids = t.insert_batch(&rows, ledger)?;
        if self.logs() {
            self.log.extend(
                rows.into_iter()
                    .zip(&rids)
                    .map(|(row, &rid)| WalRecord::Insert {
                        table: id,
                        rid,
                        row,
                    }),
            );
        }
        Ok(rids)
    }

    /// Probe a local index (see [`TableStorage::index_search`] for the
    /// SEARCH/FETCH charging rules).
    pub fn index_search(
        &mut self,
        id: TableId,
        key: &[usize],
        key_values: &Row,
    ) -> Result<Vec<Row>> {
        let (t, ledger) = self.table(id)?;
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
        let (t, ledger) = self.table(id)?;
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
        let (t, ledger) = self.table(id)?;
        t.index_search_batch(key, key_values, ledger)
    }

    /// Fetch a local row by rid (one `FETCH`).
    pub fn fetch(&mut self, id: TableId, rid: Rid) -> Result<Row> {
        let (t, ledger) = self.table(id)?;
        t.fetch(rid, ledger)
    }

    /// RID of one local row equal to `row`, if present.
    pub fn find_rid(&mut self, id: TableId, row: &Row, key_hint: &[usize]) -> Result<Option<Rid>> {
        let (t, ledger) = self.table(id)?;
        t.find_rid(row, key_hint, ledger)
    }

    /// Delete the local row at `rid`, returning it.
    pub fn delete_rid(&mut self, id: TableId, rid: Rid) -> Result<Row> {
        let (t, ledger) = self.table(id)?;
        let row = t.delete(rid, ledger)?;
        if self.logs() {
            self.log.push(WalRecord::Delete {
                table: id,
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
