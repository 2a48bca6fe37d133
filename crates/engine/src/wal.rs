//! Write-ahead logging and crash recovery: one log per node.
//!
//! The simulator's storage is in-process memory; the log is what survives
//! a "crash". Each [`NodeState`] owns its log: the DDL (which the
//! coordinator writes to every node), the node's own DML, and the
//! `TxnBegin` / `TxnCommit` / `TxnAbort` markers of every transaction it
//! takes part in. DML is logged **physically, in execution order** —
//! including work a transaction later rolls back (the compensation is
//! logged too, ARIES-style) — so replaying a node's log on an empty node
//! reproduces its exact state *including rid assignment*, which the
//! global-index method depends on.
//!
//! With [`crate::ClusterConfig::wal`] on, a node keeps its whole log.
//! With it off, the log holds only the open transaction — which is that
//! transaction's undo — and is cleared at commit or abort.
//!
//! Undo is one function, `compensation`: the records that undo an open
//! transaction's log tail, newest first. A live abort applies it with
//! `NodeState::apply` and logs what it applied; recovery ([`recover`],
//! and [`replay_node`] for one node) redoes the node's log with the same
//! `apply`, then closes a trailing open transaction (crash before
//! commit/abort) exactly as a live abort would.
//!
//! The logs serialize to a stable binary format ([`Wal::to_bytes`] /
//! [`Wal::from_bytes`]) so they can be persisted byte-for-byte.

use pvm_storage::Organization;
use pvm_types::{Column, DataType, NodeId, PvmError, Result, Rid, Row, Schema};

use crate::catalog::{TableDef, TableId};
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
    /// A row was inserted at `rid`.
    Insert {
        table: TableId,
        rid: Rid,
        row: Row,
    },
    /// The row at `rid` was deleted (row kept for undo).
    Delete {
        table: TableId,
        rid: Rid,
        row: Row,
    },
    /// The row at `rid` was resurrected (transaction-abort compensation).
    Undelete {
        table: TableId,
        rid: Rid,
        row: Row,
    },
    /// Transaction boundaries.
    TxnBegin,
    TxnCommit,
    TxnAbort,
}

/// The records that undo an open transaction whose log tail (everything
/// after its `TxnBegin`) is `tail`, newest first: a `Delete` for each
/// insert and an `Undelete` for each delete.
pub(crate) fn compensation(tail: &[WalRecord]) -> Result<Vec<WalRecord>> {
    let mut out = Vec::new();
    for rec in tail.iter().rev() {
        out.push(match rec.clone() {
            WalRecord::Insert { table, rid, row } => WalRecord::Delete { table, rid, row },
            WalRecord::Delete { table, rid, row } => WalRecord::Undelete { table, rid, row },
            WalRecord::Undelete { .. } => {
                return Err(PvmError::Corrupt(
                    "undelete inside an open transaction".into(),
                ))
            }
            _ => continue,
        });
    }
    Ok(out)
}

/// Every node's log, in node order. Take one with
/// [`Cluster::wal_snapshot`] before "crashing" a cluster; feed it to
/// [`recover`].
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
    pub(crate) nodes: Vec<Vec<WalRecord>>,
}

const MAGIC: &[u8; 8] = b"PVMWAL2\0";

impl Wal {
    /// Serialize to a stable binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&(self.nodes.len() as u64).to_be_bytes());
        for log in &self.nodes {
            out.extend_from_slice(&(log.len() as u64).to_be_bytes());
            for r in log {
                encode_record(r, &mut out);
            }
        }
        out
    }

    /// Deserialize logs produced by [`Wal::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<Wal> {
        let mut cur = Cursor { buf, pos: 0 };
        if cur.take(8)? != MAGIC {
            return Err(PvmError::Corrupt("bad WAL magic".into()));
        }
        let mut nodes = Vec::new();
        for _ in 0..cur.u64()? {
            let n = cur.u64()? as usize;
            let mut log = Vec::with_capacity(n.min(buf.len()));
            for _ in 0..n {
                log.push(decode_record(&mut cur)?);
            }
            nodes.push(log);
        }
        if cur.pos != buf.len() {
            return Err(PvmError::Corrupt("trailing bytes after WAL".into()));
        }
        Ok(Wal { nodes })
    }
}

// ------------------------------------------------------------- encoding

fn put_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_dml(tag: u8, table: TableId, rid: Rid, row: &Row, out: &mut Vec<u8>) {
    out.push(tag);
    out.extend_from_slice(&table.0.to_be_bytes());
    out.extend_from_slice(&rid.encode());
    let enc = row.encode();
    out.extend_from_slice(&(enc.len() as u32).to_be_bytes());
    out.extend_from_slice(&enc);
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
        WalRecord::Insert { table, rid, row } => put_dml(4, *table, *rid, row, out),
        WalRecord::Delete { table, rid, row } => put_dml(5, *table, *rid, row, out),
        WalRecord::Undelete { table, rid, row } => put_dml(6, *table, *rid, row, out),
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
            let table = TableId(cur.u32()?);
            let rid = Rid::decode(cur.take(6)?)?;
            let row = cur.row()?;
            Ok(match tag {
                4 => WalRecord::Insert { table, rid, row },
                5 => WalRecord::Delete { table, rid, row },
                _ => WalRecord::Undelete { table, rid, row },
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

/// Rebuild a cluster from its nodes' logs: a catalog pass over the DDL,
/// then [`replay_node`] for every node — redo its log, then undo an
/// unfinished trailing transaction (crash before commit) exactly as a
/// live abort would. Replay reproduces rid assignment exactly, so global
/// indices recover valid. With WAL logging on, each recovered node's log
/// is its input log plus what that abort logged (its compensation records
/// and a `TxnAbort`), so it recovers again to the same state.
///
/// A log taken from a cluster of another size is refused: rows live at
/// the node their log belongs to.
pub fn recover(config: ClusterConfig, wal: &Wal) -> Result<Cluster> {
    if wal.nodes.len() != config.nodes {
        return Err(PvmError::InvalidOperation(format!(
            "the log holds {} nodes' records, the cluster has {} nodes",
            wal.nodes.len(),
            config.nodes
        )));
    }
    let mut cluster = Cluster::new(config);
    for rec in wal.nodes.first().into_iter().flatten() {
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
    for (i, log) in wal.nodes.iter().enumerate() {
        cluster.restart_node(NodeId::from(i), log.clone())?;
    }
    // Recovery work should not pollute the recovered cluster's meters.
    cluster.reset_counters();
    Ok(cluster)
}

/// Rebuild ONE node from its own log: redo every record in order (the
/// DDL, the node's DML, the transaction markers), then adopt the log and
/// close an unfinished trailing transaction by applying its
/// `compensation`, as a live abort does. `node` must be fresh.
///
/// This is the per-node half of [`recover`] and the single-node recovery
/// path behind [`Cluster::crash_node`]: the rest of the cluster keeps its
/// live state, and only the crashed node's own log is read. DML records
/// name their table by id. Catalog ids are mirrored by construction — the
/// catalog assigns monotonically increasing ids and never reuses a
/// dropped one, so a local counter that advances on every `CreateTable`
/// reproduces the exact id every record refers to, even across
/// drop/re-create of the same name. Each log is in its node's execution
/// order, so replay reproduces rid assignment exactly — the property the
/// global-index method depends on.
///
/// Returns the number of DML records replayed, compensation included
/// (the "recovery replay length" surfaced by the fault layer's metrics).
pub fn replay_node(node: &mut NodeState, log: Vec<WalRecord>) -> Result<usize> {
    let named = |node: &NodeState, name: &str| {
        node.table_ids()
            .into_iter()
            .find(|&id| node.storage(id).is_ok_and(|t| t.name() == name))
            .ok_or_else(|| PvmError::Corrupt(format!("WAL references unknown table '{name}'")))
    };
    let mut next_id = 0;
    let mut replayed = 0;
    for rec in &log {
        match rec {
            WalRecord::CreateTable {
                name,
                columns,
                partition,
                clustered_key,
            } => {
                let def = def_from_record(name, columns, *partition, clustered_key);
                node.create_table(TableId(next_id), &def)?;
                next_id += 1;
            }
            WalRecord::CreateIndex { table, index, key } => {
                let id = named(node, table)?;
                node.storage_mut(id)?
                    .create_secondary_index(index.clone(), key.clone())?;
            }
            WalRecord::DropTable { name } => node.drop_table(named(node, name)?)?,
            WalRecord::TxnBegin => node.hold_tombstones(true),
            WalRecord::TxnCommit | WalRecord::TxnAbort => node.hold_tombstones(false),
            dml => {
                node.apply(dml)?;
                replayed += 1;
            }
        }
    }
    replayed += node.resume(log)?;
    node.reset_counters();
    Ok(replayed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm_types::row;

    #[test]
    fn record_roundtrip() {
        let t = TableId(0);
        let ddl = vec![
            WalRecord::CreateTable {
                name: "t".into(),
                columns: vec![("a".into(), DataType::Int), ("s".into(), DataType::Str)],
                partition: Some(0),
                clustered_key: Some(vec![1]),
            },
            WalRecord::CreateIndex {
                table: "t".into(),
                index: "ix".into(),
                key: vec![1],
            },
        ];
        let mut busy = ddl.clone();
        busy.extend([
            WalRecord::TxnBegin,
            WalRecord::Insert {
                table: t,
                rid: Rid::new(7, 2),
                row: row![1, "x"],
            },
            WalRecord::Delete {
                table: t,
                rid: Rid::new(0, 0),
                row: row![2, "y"],
            },
            WalRecord::Undelete {
                table: t,
                rid: Rid::new(0, 0),
                row: row![2, "y"],
            },
            WalRecord::TxnCommit,
            WalRecord::TxnAbort,
            WalRecord::DropTable { name: "t".into() },
        ]);
        let wal = Wal {
            nodes: vec![busy, ddl, Vec::new()],
        };

        let bytes = wal.to_bytes();
        let back = Wal::from_bytes(&bytes).unwrap();
        assert_eq!(back, wal);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Wal::from_bytes(b"nope").is_err());
        let mut bytes = Wal::default().to_bytes();
        bytes.push(0xFF);
        assert!(Wal::from_bytes(&bytes).is_err(), "trailing bytes");
        let wal = Wal {
            nodes: vec![vec![WalRecord::TxnBegin]],
        };
        let mut bytes = wal.to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(Wal::from_bytes(&bytes).is_err(), "truncated");
        let mut bytes = wal.to_bytes();
        bytes[7] = b'1';
        assert!(Wal::from_bytes(&bytes).is_err(), "the shared-log format");
    }

    #[test]
    fn compensation_undoes_newest_first() {
        let t = TableId(3);
        let ins = |slot| WalRecord::Insert {
            table: t,
            rid: Rid::new(0, slot),
            row: row![slot as i64],
        };
        let tail = [
            ins(0),
            WalRecord::Delete {
                table: t,
                rid: Rid::new(0, 0),
                row: row![0],
            },
            ins(1),
        ];
        assert_eq!(
            compensation(&tail).unwrap(),
            vec![
                WalRecord::Delete {
                    table: t,
                    rid: Rid::new(0, 1),
                    row: row![1],
                },
                WalRecord::Undelete {
                    table: t,
                    rid: Rid::new(0, 0),
                    row: row![0],
                },
                WalRecord::Delete {
                    table: t,
                    rid: Rid::new(0, 0),
                    row: row![0],
                },
            ]
        );
        let undelete = WalRecord::Undelete {
            table: t,
            rid: Rid::new(0, 0),
            row: row![0],
        };
        assert!(compensation(&[undelete]).is_err());
    }
}
