//! Write-ahead logging and crash recovery.
//!
//! The simulator's storage is in-process memory; the WAL is what survives
//! a "crash". Every executed operation is logged **physically, in
//! execution order** — including work that a transaction later rolls back
//! (the compensation deletes/undeletes are logged too, ARIES-style) — so
//! replaying the log op-by-op on an empty cluster reproduces the exact
//! same state *including rid assignment*, which the global-index method
//! depends on.
//!
//! Recovery ([`recover`], and [`replay_node`] for one node) is one loop,
//! redo-all + undo-losers:
//!
//! 1. replay every record (DDL and DML) in order;
//! 2. if the log ends inside an open transaction (crash before
//!    commit/abort), replay the compensation an abort would have logged
//!    — that transaction's operations undone in reverse.
//!
//! The log serializes to a stable binary format ([`Wal::to_bytes`] /
//! [`Wal::from_bytes`]) so it can be persisted byte-for-byte.

use pvm_storage::Organization;
use pvm_types::{Column, DataType, NodeId, PvmError, Result, Rid, Row, Schema};

use crate::catalog::TableDef;
use crate::cluster::{Cluster, ClusterConfig};
use crate::node::NodeState;
use crate::partition::PartitionSpec;

/// One log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// DDL: a table (or view/AR/GI table) was created.
    CreateTable {
        name: String,
        columns: Vec<(String, DataType)>,
        partition: Option<usize>,
        clustered_key: Option<Vec<usize>>,
    },
    /// DDL: a secondary index was created.
    CreateIndex {
        table: String,
        index: String,
        key: Vec<usize>,
    },
    /// DDL: a table was dropped.
    DropTable {
        name: String,
    },
    /// A row was inserted at `rid` on `node`.
    Insert {
        table: String,
        node: NodeId,
        rid: Rid,
        row: Row,
    },
    /// The row at `rid` on `node` was deleted (row kept for undo).
    Delete {
        table: String,
        node: NodeId,
        rid: Rid,
        row: Row,
    },
    /// The row at `rid` was resurrected (transaction-abort compensation).
    Undelete {
        table: String,
        node: NodeId,
        rid: Rid,
        row: Row,
    },
    /// Transaction boundaries.
    TxnBegin,
    TxnCommit,
    TxnAbort,
}

/// The in-memory write-ahead log. Clone it (or serialize it) before
/// "crashing" a cluster; feed it to [`recover`].
///
/// ```
/// use pvm_engine::{recover, Cluster, ClusterConfig, TableDef};
/// use pvm_types::{row, Column, Schema};
///
/// let config = ClusterConfig::new(2).with_wal();
/// let mut cluster = Cluster::new(config);
/// let schema = Schema::new(vec![Column::int("x")]).into_ref();
/// let t = cluster.create_table(TableDef::hash_heap("t", schema, 0)).unwrap();
/// cluster.insert(t, vec![row![1], row![2]]).unwrap();
///
/// let wal = cluster.wal_snapshot().unwrap();
/// drop(cluster); // crash
///
/// let recovered = recover(config, &wal).unwrap();
/// assert_eq!(recovered.row_count(recovered.table_id("t").unwrap()).unwrap(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Wal {
    records: Vec<WalRecord>,
}

impl Wal {
    pub fn new() -> Self {
        Wal::default()
    }

    pub fn append(&mut self, rec: WalRecord) {
        self.records.push(rec);
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn records(&self) -> &[WalRecord] {
        &self.records
    }

    /// Serialize to a stable binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"PVMWAL1\0");
        out.extend_from_slice(&(self.records.len() as u64).to_be_bytes());
        for r in &self.records {
            encode_record(r, &mut out);
        }
        out
    }

    /// Deserialize a log produced by [`Wal::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<Wal> {
        let mut cur = Cursor { buf, pos: 0 };
        let magic = cur.take(8)?;
        if magic != b"PVMWAL1\0" {
            return Err(PvmError::Corrupt("bad WAL magic".into()));
        }
        let n = cur.u64()? as usize;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            records.push(decode_record(&mut cur)?);
        }
        if cur.pos != buf.len() {
            return Err(PvmError::Corrupt("trailing bytes after WAL".into()));
        }
        Ok(Wal { records })
    }
}

// ------------------------------------------------------------- encoding

fn put_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_row(row: &Row, out: &mut Vec<u8>) {
    let enc = row.encode();
    out.extend_from_slice(&(enc.len() as u32).to_be_bytes());
    out.extend_from_slice(&enc);
}

fn put_rid(node: NodeId, rid: Rid, out: &mut Vec<u8>) {
    out.extend_from_slice(&node.0.to_be_bytes());
    out.extend_from_slice(&rid.encode());
}

fn put_dml(tag: u8, table: &str, node: NodeId, rid: Rid, row: &Row, out: &mut Vec<u8>) {
    out.push(tag);
    put_str(table, out);
    put_rid(node, rid, out);
    put_row(row, out);
}

fn encode_record(r: &WalRecord, out: &mut Vec<u8>) {
    match r {
        WalRecord::CreateTable {
            name,
            columns,
            partition,
            clustered_key,
        } => {
            out.push(1);
            put_str(name, out);
            out.extend_from_slice(&(columns.len() as u32).to_be_bytes());
            for (c, t) in columns {
                put_str(c, out);
                out.push(match t {
                    DataType::Int => 0,
                    DataType::Float => 1,
                    DataType::Str => 2,
                    DataType::Bool => 3,
                });
            }
            match partition {
                Some(p) => {
                    out.push(1);
                    out.extend_from_slice(&(*p as u32).to_be_bytes());
                }
                None => out.push(0),
            }
            match clustered_key {
                Some(k) => {
                    out.push(1);
                    out.extend_from_slice(&(k.len() as u32).to_be_bytes());
                    for c in k {
                        out.extend_from_slice(&(*c as u32).to_be_bytes());
                    }
                }
                None => out.push(0),
            }
        }
        WalRecord::CreateIndex { table, index, key } => {
            out.push(2);
            put_str(table, out);
            put_str(index, out);
            out.extend_from_slice(&(key.len() as u32).to_be_bytes());
            for c in key {
                out.extend_from_slice(&(*c as u32).to_be_bytes());
            }
        }
        WalRecord::DropTable { name } => {
            out.push(3);
            put_str(name, out);
        }
        WalRecord::Insert {
            table,
            node,
            rid,
            row,
        } => put_dml(4, table, *node, *rid, row, out),
        WalRecord::Delete {
            table,
            node,
            rid,
            row,
        } => put_dml(5, table, *node, *rid, row, out),
        WalRecord::Undelete {
            table,
            node,
            rid,
            row,
        } => put_dml(6, table, *node, *rid, row, out),
        WalRecord::TxnBegin => out.push(7),
        WalRecord::TxnCommit => out.push(8),
        WalRecord::TxnAbort => out.push(9),
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos + n;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| PvmError::Corrupt("truncated WAL".into()))?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("len")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("len")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("len")))
    }

    fn string(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PvmError::Corrupt("invalid utf-8 in WAL".into()))
    }

    fn row(&mut self) -> Result<Row> {
        let n = self.u32()? as usize;
        Row::decode(self.take(n)?)
    }

    fn rid(&mut self) -> Result<(NodeId, Rid)> {
        let node = NodeId(self.u16()?);
        let rid = Rid::decode(self.take(6)?)?;
        Ok((node, rid))
    }
}

fn decode_record(cur: &mut Cursor<'_>) -> Result<WalRecord> {
    match cur.u8()? {
        1 => {
            let name = cur.string()?;
            let ncols = cur.u32()? as usize;
            let mut columns = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let cname = cur.string()?;
                let t = match cur.u8()? {
                    0 => DataType::Int,
                    1 => DataType::Float,
                    2 => DataType::Str,
                    3 => DataType::Bool,
                    other => return Err(PvmError::Corrupt(format!("bad type tag {other}"))),
                };
                columns.push((cname, t));
            }
            let partition = match cur.u8()? {
                1 => Some(cur.u32()? as usize),
                _ => None,
            };
            let clustered_key = match cur.u8()? {
                1 => {
                    let n = cur.u32()? as usize;
                    let mut k = Vec::with_capacity(n);
                    for _ in 0..n {
                        k.push(cur.u32()? as usize);
                    }
                    Some(k)
                }
                _ => None,
            };
            Ok(WalRecord::CreateTable {
                name,
                columns,
                partition,
                clustered_key,
            })
        }
        2 => {
            let table = cur.string()?;
            let index = cur.string()?;
            let n = cur.u32()? as usize;
            let mut key = Vec::with_capacity(n);
            for _ in 0..n {
                key.push(cur.u32()? as usize);
            }
            Ok(WalRecord::CreateIndex { table, index, key })
        }
        3 => Ok(WalRecord::DropTable {
            name: cur.string()?,
        }),
        tag @ (4..=6) => {
            let table = cur.string()?;
            let (node, rid) = cur.rid()?;
            let row = cur.row()?;
            Ok(match tag {
                4 => WalRecord::Insert {
                    table,
                    node,
                    rid,
                    row,
                },
                5 => WalRecord::Delete {
                    table,
                    node,
                    rid,
                    row,
                },
                _ => WalRecord::Undelete {
                    table,
                    node,
                    rid,
                    row,
                },
            })
        }
        7 => Ok(WalRecord::TxnBegin),
        8 => Ok(WalRecord::TxnCommit),
        9 => Ok(WalRecord::TxnAbort),
        other => Err(PvmError::Corrupt(format!("unknown WAL tag {other}"))),
    }
}

// ------------------------------------------------------------- recovery

/// Helper: build the [`TableDef`] a `CreateTable` record describes.
fn def_from_record(
    name: &str,
    columns: &[(String, DataType)],
    partition: Option<usize>,
    clustered_key: &Option<Vec<usize>>,
) -> TableDef {
    let schema = Schema::new(
        columns
            .iter()
            .map(|(n, t)| Column::new(n.clone(), *t))
            .collect(),
    )
    .into_ref();
    let partitioning = match partition {
        Some(c) => PartitionSpec::hash(c),
        None => PartitionSpec::RoundRobin,
    };
    let organization = match clustered_key {
        Some(k) => Organization::Clustered { key: k.clone() },
        None => Organization::Heap,
    };
    TableDef::new(name, schema, partitioning, organization)
}

/// Rebuild a cluster from a WAL: a catalog pass over the DDL, then
/// [`replay_node`] for every node — redo every record in order, then undo
/// the operations of an unfinished trailing transaction (crash before
/// commit). Replay reproduces rid assignment exactly, so global indices
/// recover valid. With WAL logging on, the recovered cluster's log is the
/// input log plus what an abort of that trailing transaction would have
/// logged (its compensation records and a `TxnAbort`), so it recovers
/// again to the same state.
pub fn recover(config: ClusterConfig, wal: &Wal) -> Result<Cluster> {
    let mut cluster = Cluster::new(config);
    for rec in wal.records() {
        match rec {
            WalRecord::CreateTable {
                name,
                columns,
                partition,
                clustered_key,
            } => {
                cluster.create_table(def_from_record(name, columns, *partition, clustered_key))?;
            }
            WalRecord::CreateIndex { table, index, key } => {
                let id = cluster.table_id(table)?;
                cluster.create_secondary_index(id, index.clone(), key.clone())?;
            }
            WalRecord::DropTable { name } => {
                let id = cluster.table_id(name)?;
                cluster.drop_table(id)?;
            }
            _ => {}
        }
    }
    let mut log = wal.clone();
    let nodes = (0..cluster.node_count()).map(NodeId::from);
    log.records.extend(abort_losers(wal, nodes)?);
    cluster.restart_from(&log)?;
    // Recovery work should not pollute the recovered cluster's meters.
    cluster.reset_counters();
    Ok(cluster)
}

/// What aborting the log's unfinished trailing transaction would log:
/// per node in node order, the compensation of each of its operations,
/// newest first (a `Delete` for an insert, an `Undelete` for a delete),
/// then the `TxnAbort`. Empty when the log ends outside a transaction.
fn abort_losers(wal: &Wal, nodes: impl IntoIterator<Item = NodeId>) -> Result<Vec<WalRecord>> {
    let records = wal.records();
    let Some(start) = records.iter().rposition(|r| {
        matches!(
            r,
            WalRecord::TxnBegin | WalRecord::TxnCommit | WalRecord::TxnAbort
        )
    }) else {
        return Ok(Vec::new());
    };
    if records[start] != WalRecord::TxnBegin {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for me in nodes {
        for rec in records[start..].iter().rev() {
            out.push(match rec.clone() {
                WalRecord::Insert {
                    table,
                    node,
                    rid,
                    row,
                } if node == me => WalRecord::Delete {
                    table,
                    node,
                    rid,
                    row,
                },
                WalRecord::Delete {
                    table,
                    node,
                    rid,
                    row,
                } if node == me => WalRecord::Undelete {
                    table,
                    node,
                    rid,
                    row,
                },
                WalRecord::Undelete { node, .. } if node == me => {
                    return Err(PvmError::Corrupt(
                        "undelete inside an open transaction".into(),
                    ));
                }
                _ => continue,
            });
        }
    }
    out.push(WalRecord::TxnAbort);
    Ok(out)
}

/// Rebuild ONE node's state from the cluster-wide WAL: redo the DDL
/// (which runs at every node) plus this node's own DML, then undo the
/// node's operations of an unfinished trailing transaction by redoing
/// their compensation ([`recover`] describes it).
///
/// This is the per-node half of [`recover`] and the single-node recovery
/// path behind [`Cluster::crash_node`](crate::Cluster::crash_node): the
/// rest of the cluster keeps its live state and only the crashed node is
/// replayed. Catalog ids are mirrored by construction — the catalog
/// assigns monotonically increasing ids and never reuses a dropped one,
/// so a local counter that advances on every `CreateTable` reproduces the
/// exact id every record referred to, even across drop/re-create of the
/// same name.
///
/// The cluster WAL interleaves records from all nodes, but each node's
/// own subsequence is in its execution order (and DDL is
/// coordinator-ordered), so per-node replay reproduces rid assignment
/// exactly — the property the global-index method depends on.
///
/// Returns the number of DML records replayed for this node (the
/// "recovery replay length" surfaced by the fault layer's metrics).
pub fn replay_node(node: &mut NodeState, wal: &Wal) -> Result<usize> {
    let me = node.id();
    let undo = abort_losers(wal, [me])?;
    let mut next_id: u32 = 0;
    let mut ids: std::collections::HashMap<String, crate::catalog::TableId> =
        std::collections::HashMap::new();
    let lookup = |ids: &std::collections::HashMap<String, crate::catalog::TableId>,
                  table: &str|
     -> Result<crate::catalog::TableId> {
        ids.get(table)
            .copied()
            .ok_or_else(|| PvmError::Corrupt(format!("WAL references unknown table '{table}'")))
    };
    let mut replayed = 0usize;

    for rec in wal.records().iter().chain(&undo) {
        match rec {
            WalRecord::CreateTable {
                name,
                columns,
                partition,
                clustered_key,
            } => {
                let id = crate::catalog::TableId(next_id);
                next_id += 1;
                node.create_table(
                    id,
                    &def_from_record(name, columns, *partition, clustered_key),
                )?;
                ids.insert(name.clone(), id);
            }
            WalRecord::CreateIndex { table, index, key } => {
                let id = lookup(&ids, table)?;
                node.storage_mut(id)?
                    .create_secondary_index(index.clone(), key.clone())?;
            }
            WalRecord::DropTable { name } => {
                let id = lookup(&ids, name)?;
                ids.remove(name);
                node.drop_table(id)?;
            }
            WalRecord::Insert {
                table,
                node: n,
                rid,
                row,
            } if *n == me => {
                let id = lookup(&ids, table)?;
                let got = node.insert(id, row.clone())?;
                if got != *rid {
                    return Err(PvmError::Corrupt(format!(
                        "replay divergence: expected {rid}, got {got} in '{table}'"
                    )));
                }
                replayed += 1;
            }
            WalRecord::Delete {
                table,
                node: n,
                rid,
                ..
            } if *n == me => {
                let id = lookup(&ids, table)?;
                node.delete_rid(id, *rid)?;
                replayed += 1;
            }
            WalRecord::Undelete {
                table,
                node: n,
                rid,
                row,
            } if *n == me => {
                let id = lookup(&ids, table)?;
                node.storage_mut(id)?.undelete(*rid, row)?;
                replayed += 1;
            }
            _ => {}
        }
    }
    node.reset_counters();
    Ok(replayed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm_types::row;

    #[test]
    fn record_roundtrip() {
        let mut wal = Wal::new();
        wal.append(WalRecord::CreateTable {
            name: "t".into(),
            columns: vec![("a".into(), DataType::Int), ("s".into(), DataType::Str)],
            partition: Some(0),
            clustered_key: Some(vec![1]),
        });
        wal.append(WalRecord::CreateIndex {
            table: "t".into(),
            index: "ix".into(),
            key: vec![1],
        });
        wal.append(WalRecord::TxnBegin);
        wal.append(WalRecord::Insert {
            table: "t".into(),
            node: NodeId(3),
            rid: Rid::new(7, 2),
            row: row![1, "x"],
        });
        wal.append(WalRecord::Delete {
            table: "t".into(),
            node: NodeId(0),
            rid: Rid::new(0, 0),
            row: row![2, "y"],
        });
        wal.append(WalRecord::Undelete {
            table: "t".into(),
            node: NodeId(0),
            rid: Rid::new(0, 0),
            row: row![2, "y"],
        });
        wal.append(WalRecord::TxnCommit);
        wal.append(WalRecord::TxnAbort);
        wal.append(WalRecord::DropTable { name: "t".into() });

        let bytes = wal.to_bytes();
        let back = Wal::from_bytes(&bytes).unwrap();
        assert_eq!(back, wal);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Wal::from_bytes(b"nope").is_err());
        let mut bytes = Wal::new().to_bytes();
        bytes.push(0xFF);
        assert!(Wal::from_bytes(&bytes).is_err(), "trailing bytes");
        let mut wal = Wal::new();
        wal.append(WalRecord::TxnBegin);
        let mut bytes = wal.to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(Wal::from_bytes(&bytes).is_err(), "truncated");
    }
}
