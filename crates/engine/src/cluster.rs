//! The cluster: `L` nodes, a catalog, and the interconnect.

use std::sync::Arc;

use pvm_net::{Fabric, NetConfig, Transport};
use pvm_obs::{Obs, TraceSink};
use pvm_types::{CostSnapshot, NodeId, PvmError, Result, Row};

use crate::catalog::{Catalog, TableDef, TableId};
use crate::message::NetPayload;
use crate::meter::{MeterGuard, MeterReport};
use crate::node::NodeState;

/// Rows one [`Cluster::insert`] hands its nodes at a time: large enough
/// that a node's pool lock and batch set-up are paid rarely, small enough
/// that a bulk load drops its rows as they land instead of holding them
/// all until the last is stored.
const INSERT_CHUNK: usize = 1024;

/// Cluster-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of data-server nodes (`L`).
    pub nodes: usize,
    /// Buffer-pool pages per node (`M`).
    pub buffer_pages: usize,
    /// Interconnect behaviour.
    pub net: NetConfig,
    /// Record a write-ahead log for crash recovery ([`crate::recover`]).
    pub wal: bool,
}

impl ClusterConfig {
    /// `L` nodes with the paper's default memory of 100 pages per node.
    pub fn new(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            buffer_pages: 100,
            net: NetConfig::default(),
            wal: false,
        }
    }

    pub fn with_buffer_pages(mut self, pages: usize) -> Self {
        self.buffer_pages = pages;
        self
    }

    /// Enable write-ahead logging from the first operation on.
    pub fn with_wal(mut self) -> Self {
        self.wal = true;
        self
    }
}

/// A shared-nothing parallel RDBMS instance.
///
/// ```
/// use pvm_engine::{Cluster, ClusterConfig, TableDef};
/// use pvm_types::{row, Column, Schema};
///
/// let mut cluster = Cluster::new(ClusterConfig::new(4));
/// let schema = Schema::new(vec![Column::int("id"), Column::int("v")]).into_ref();
/// let t = cluster.create_table(TableDef::hash_heap("t", schema, 0)).unwrap();
///
/// // Rows are hash-routed to their home nodes.
/// cluster.insert(t, (0..100).map(|i| row![i, i % 7]).collect()).unwrap();
/// assert_eq!(cluster.row_count(t).unwrap(), 100);
///
/// // Everything is metered: inserts charge the paper's INSERT op.
/// let total = cluster.meter().finish(&cluster);
/// # let _ = total;
/// ```
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    catalog: Catalog,
    nodes: Vec<NodeState>,
    fabric: Fabric<NetPayload>,
    rr_seq: u64,
    txn_active: bool,
    /// Observability handle, shared with the fabric.
    obs: Arc<Obs>,
}

impl Cluster {
    pub fn new(config: ClusterConfig) -> Self {
        let nodes = (0..config.nodes)
            .map(|i| NodeState::with_log(NodeId::from(i), config.buffer_pages, config.wal))
            .collect();
        let obs = Arc::new(Obs::new());
        let mut fabric = Fabric::new(config.nodes, config.net);
        fabric.set_obs(obs.clone());
        Cluster {
            config,
            catalog: Catalog::new(),
            nodes,
            fabric,
            rr_seq: 0,
            txn_active: false,
            obs,
        }
    }

    /// The cluster's observability handle (tracing gate, metrics
    /// registry, logical step clock). Cheap to clone; disabled — and
    /// therefore cost-free on hot paths — until a sink is installed.
    pub fn obs_handle(&self) -> Arc<Obs> {
        self.obs.clone()
    }

    /// Install a trace sink and start recording lifecycle events.
    pub fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) {
        self.obs.install(sink);
    }

    /// Current combined (abstract-op + page-I/O) counters of every node,
    /// in node order — the baseline/closing capture used by metering.
    pub fn node_snapshots(&self) -> Vec<CostSnapshot> {
        self.nodes.iter().map(|n| n.combined_snapshot()).collect()
    }

    /// Write a DDL record to every node's log.
    fn log_ddl(&mut self, rec: crate::wal::WalRecord) {
        for n in &mut self.nodes {
            n.log_ddl(rec.clone());
        }
    }

    /// A copy of every node's log so far (None when WAL is disabled).
    /// Take one before simulating a crash; feed it to [`crate::recover`].
    pub fn wal_snapshot(&self) -> Option<crate::wal::Wal> {
        self.config.wal.then(|| crate::wal::Wal {
            nodes: self.nodes.iter().map(|n| n.log().to_vec()).collect(),
        })
    }

    // ---------------------------------------------------------- transactions

    /// Begin a cluster-wide transaction (the paper's `begin
    /// transaction`): every node logs a `TxnBegin`, and its DML from here
    /// on is the transaction's undo. DDL is not allowed inside a
    /// transaction; nesting is rejected.
    pub fn begin_txn(&mut self) -> Result<()> {
        if self.txn_active {
            return Err(PvmError::InvalidOperation(
                "a transaction is already open".into(),
            ));
        }
        for n in &mut self.nodes {
            n.begin();
        }
        self.txn_active = true;
        Ok(())
    }

    /// Commit: all changes stay.
    pub fn commit_txn(&mut self) -> Result<()> {
        if !self.txn_active {
            return Err(PvmError::InvalidOperation("no open transaction".into()));
        }
        for n in &mut self.nodes {
            n.commit();
        }
        self.txn_active = false;
        Ok(())
    }

    /// Abort: every node applies the compensation of its log tail, newest
    /// first (deleted rows are resurrected at their original rids, so
    /// index and global-index entries stay valid), and any in-flight
    /// messages are discarded.
    pub fn abort_txn(&mut self) -> Result<()> {
        if !self.txn_active {
            return Err(PvmError::InvalidOperation("no open transaction".into()));
        }
        for n in &mut self.nodes {
            n.abort()?;
        }
        // Drop messages the aborted work left in flight.
        for i in 0..self.nodes.len() {
            let _ = self.fabric.recv_all(pvm_types::NodeId::from(i));
        }
        self.txn_active = false;
        Ok(())
    }

    /// True while a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn_active
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn nodes(&self) -> &[NodeState] {
        &self.nodes
    }

    pub fn node(&self, id: NodeId) -> Result<&NodeState> {
        self.nodes
            .get(id.index())
            .ok_or_else(|| PvmError::InvalidReference(format!("{id}")))
    }

    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut NodeState> {
        self.nodes
            .get_mut(id.index())
            .ok_or_else(|| PvmError::InvalidReference(format!("{id}")))
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn fabric(&self) -> &Fabric<NetPayload> {
        &self.fabric
    }

    pub fn fabric_mut(&mut self) -> &mut Fabric<NetPayload> {
        &mut self.fabric
    }

    /// Split-borrow the node slice and the fabric together, so per-node
    /// work can run against node state while sends charge the fabric —
    /// the borrow shape every [`crate::backend::Backend`] step needs.
    pub fn nodes_and_fabric_mut(&mut self) -> (&mut [NodeState], &mut Fabric<NetPayload>) {
        (&mut self.nodes, &mut self.fabric)
    }

    // ---------------------------------------------------------------- DDL

    /// Create a table at every node and register it in the catalog.
    pub fn create_table(&mut self, def: TableDef) -> Result<TableId> {
        if self.txn_active {
            return Err(PvmError::InvalidOperation(
                "DDL is not allowed inside a transaction".into(),
            ));
        }
        let id = self.catalog.register(def)?;
        let def = self.catalog.get(id)?.clone();
        for n in &mut self.nodes {
            n.create_table(id, &def)?;
        }
        self.log_ddl(crate::wal::WalRecord::CreateTable {
            name: def.name.clone(),
            columns: def
                .schema
                .columns()
                .iter()
                .map(|c| (c.name.clone(), c.dtype))
                .collect(),
            partition: def.partitioning.column(),
            clustered_key: match &def.organization {
                pvm_storage::Organization::Clustered { key } => Some(key.clone()),
                pvm_storage::Organization::Heap => None,
            },
        });
        Ok(id)
    }

    /// Drop a table everywhere.
    pub fn drop_table(&mut self, id: TableId) -> Result<()> {
        if self.txn_active {
            return Err(PvmError::InvalidOperation(
                "DDL is not allowed inside a transaction".into(),
            ));
        }
        let name = self.catalog.get(id)?.name.clone();
        self.catalog.deregister(id)?;
        for n in &mut self.nodes {
            n.drop_table(id)?;
        }
        self.log_ddl(crate::wal::WalRecord::DropTable { name });
        Ok(())
    }

    /// Create a non-clustered secondary index on `key` at every node.
    pub fn create_secondary_index(
        &mut self,
        id: TableId,
        name: impl Into<String>,
        key: Vec<usize>,
    ) -> Result<()> {
        let name = name.into();
        for n in &mut self.nodes {
            n.storage_mut(id)?
                .create_secondary_index(name.clone(), key.clone())?;
        }
        let table = self.catalog.get(id)?.name.clone();
        self.log_ddl(crate::wal::WalRecord::CreateIndex {
            table,
            index: name,
            key,
        });
        Ok(())
    }

    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.catalog.id_of(name)
    }

    pub fn def(&self, id: TableId) -> Result<&TableDef> {
        self.catalog.get(id)
    }

    // ---------------------------------------------------------------- DML

    /// Home node of `row` in table `id` under its partitioning spec.
    pub fn route(&self, id: TableId, row: &Row) -> Result<NodeId> {
        let def = self.catalog.get(id)?;
        def.partitioning.route(row, self.node_count(), self.rr_seq)
    }

    /// Client-side insert: route each row to its home node(s) and insert
    /// there. (Client→node delivery is not a metered inter-node SEND.)
    /// Returns the **primary** placement per row; heavy-light replicate
    /// tables additionally store copies at the rest of the spread set.
    ///
    /// Every row is routed and checked before the first is written, so a
    /// refused insert changes nothing. Then each node gets its rows in
    /// arrival order as [`NodeState::insert_batch`]es, a chunk of rows at
    /// a time, which leave the node as inserting them one at a time would
    /// (nodes share no state).
    pub fn insert(&mut self, id: TableId, rows: Vec<Row>) -> Result<Vec<(NodeId, pvm_types::Rid)>> {
        let l = self.node_count();
        let spec = &self.catalog.get(id)?.partitioning;
        let mut homes = Vec::with_capacity(rows.len());
        let mut seq = self.rr_seq;
        for row in &rows {
            let home = spec.route(row, l, seq)?;
            seq += 1;
            for n in std::iter::once(home).chain(spec.replicas(row, home, l)?) {
                self.nodes[n.index()].storage(id)?.check_rows([row])?;
            }
            homes.push(home);
        }
        let mut out = Vec::with_capacity(rows.len());
        let mut rows = rows.into_iter();
        let mut batches: Vec<Vec<Row>> = vec![Vec::new(); l];
        for chunk in homes.chunks(INSERT_CHUNK) {
            // Per row, its place in its home's batch.
            let mut at = Vec::with_capacity(chunk.len());
            for (&home, row) in chunk.iter().zip(&mut rows) {
                for copy in spec.replicas(&row, home, l)? {
                    batches[copy.index()].push(row.clone());
                }
                at.push(batches[home.index()].len());
                batches[home.index()].push(row);
            }
            let mut rids = Vec::with_capacity(l);
            for (node, batch) in self.nodes.iter_mut().zip(&mut batches) {
                rids.push(if batch.is_empty() {
                    Vec::new()
                } else {
                    node.insert_batch(id, std::mem::take(batch))?
                });
            }
            out.extend(
                chunk
                    .iter()
                    .zip(at)
                    .map(|(&home, i)| (home, rids[home.index()][i])),
            );
        }
        self.rr_seq = seq;
        Ok(out)
    }

    /// Delete rows by value (each row routed to its home node(s), deleted
    /// via `key_hint` index when available — heavy-light replicate tables
    /// drop every spread-set copy). Round-robin tables have no
    /// value-derived home, so their rows are sought at every node.
    /// Returns how many distinct rows were deleted.
    pub fn delete(&mut self, id: TableId, rows: &[Row], key_hint: &[usize]) -> Result<usize> {
        let def = self.catalog.get(id)?.clone();
        let l = self.node_count();
        let mut deleted = 0;
        for row in rows {
            match def.partitioning {
                crate::partition::PartitionSpec::Hash { .. }
                | crate::partition::PartitionSpec::HeavyLight { .. } => {
                    let mut hit = false;
                    for node in def.partitioning.route_all(row, l, 0)? {
                        hit |= self.nodes[node.index()].delete_row(id, row, key_hint)?;
                    }
                    if hit {
                        deleted += 1;
                    }
                }
                crate::partition::PartitionSpec::RoundRobin => {
                    for n in &mut self.nodes {
                        if n.delete_row(id, row, key_hint)? {
                            deleted += 1;
                            break;
                        }
                    }
                }
            }
        }
        Ok(deleted)
    }

    /// Reorganize `id` under a new value-derived partitioning spec: every
    /// stored row is pulled from its current primary placement, the
    /// catalog is updated, and the rows are re-inserted under `spec`
    /// (client-side, like bulk load — no metered SENDs). Replicated
    /// spread-set copies are collapsed to their primary before the move,
    /// so the logical multiset is preserved exactly. Returns the number of
    /// logical rows re-placed.
    ///
    /// The WAL logs the physical deletes/inserts (per-node crash replay
    /// stays rid-exact), but the spec swap itself is not a logged DDL:
    /// after a full-cluster [`crate::recover`], the table routes as plain
    /// hash again and `repartition` must be re-applied.
    pub fn repartition(
        &mut self,
        id: TableId,
        spec: crate::partition::PartitionSpec,
    ) -> Result<u64> {
        if self.txn_active {
            return Err(PvmError::InvalidOperation(
                "DDL is not allowed inside a transaction".into(),
            ));
        }
        if spec.column().is_none() {
            return Err(PvmError::InvalidOperation(
                "repartition requires a value-derived (hash / heavy-light) spec".into(),
            ));
        }
        let old = self.catalog.get(id)?.partitioning.clone();
        if old == spec {
            return Ok(0);
        }
        let l = self.node_count();
        // Collect each logical row once: a stored copy counts iff this
        // node is its primary home under the old spec.
        // (A round-robin source has exactly one copy per row wherever it
        // sits, so every stored row is primary.)
        let primary_only = old.column().is_some();
        let mut logical = Vec::new();
        for n in &self.nodes {
            for (_, row) in n.storage(id)?.scan()? {
                if !primary_only || old.route(&row, l, 0)? == n.id() {
                    logical.push(row);
                }
            }
        }
        // Drop every stored copy, swap the spec, re-insert.
        for n in &mut self.nodes {
            let all: Vec<_> = n.storage(id)?.scan()?;
            for (rid, _) in all {
                n.delete_rid(id, rid)?;
            }
        }
        self.catalog.set_partitioning(id, spec)?;
        let moved = logical.len() as u64;
        self.insert(id, logical)?;
        Ok(moved)
    }

    /// All rows of table `id` across the cluster (oracle / bulk-load
    /// helper; no cost charged beyond page touches). Node fragments are
    /// scanned by parallel scoped threads — they touch disjoint storage —
    /// and concatenated in node order, so the result is deterministic.
    pub fn scan_all(&self, id: TableId) -> Result<Vec<Row>> {
        let per_node: Vec<Result<Vec<(pvm_types::Rid, Row)>>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .nodes
                .iter()
                .map(|n| s.spawn(move || n.storage(id)?.scan()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scan thread must not panic"))
                .collect()
        });
        let mut out = Vec::new();
        for rows in per_node {
            out.extend(rows?.into_iter().map(|(_, r)| r));
        }
        Ok(out)
    }

    /// [`Cluster::scan_all`] without decoding: every stored tuple of table
    /// `id`, borrowed and encoded, in node order — the same page touches,
    /// node by node on the calling thread.
    pub fn scan_all_encoded(&self, id: TableId) -> Result<Vec<&[u8]>> {
        let mut out = Vec::new();
        for n in &self.nodes {
            out.extend(n.storage(id)?.scan_encoded().map(|(_, tuple)| tuple));
        }
        Ok(out)
    }

    /// Cluster-wide row count of a table.
    pub fn row_count(&self, id: TableId) -> Result<u64> {
        let mut c = 0;
        for n in &self.nodes {
            c += n.storage(id)?.row_count();
        }
        Ok(c)
    }

    /// Cluster-wide heap pages of a table (the paper's `|R|`).
    pub fn heap_pages(&self, id: TableId) -> Result<usize> {
        let mut c = 0;
        for n in &self.nodes {
            c += n.storage(id)?.heap_pages();
        }
        Ok(c)
    }

    /// Cluster-wide pages including indexes (storage-overhead accounting).
    pub fn total_pages(&self, id: TableId) -> Result<usize> {
        let mut c = 0;
        for n in &self.nodes {
            c += n.storage(id)?.total_pages();
        }
        Ok(c)
    }

    // ------------------------------------------------------------ network

    /// Point-to-point send between nodes.
    pub fn send(&mut self, src: NodeId, dst: NodeId, payload: NetPayload) -> Result<()> {
        self.fabric.send(src, dst, payload)
    }

    /// Broadcast from `src` to every node.
    pub fn broadcast(&mut self, src: NodeId, payload: &NetPayload) -> Result<()> {
        Transport::broadcast(&mut self.fabric, src, payload)
    }

    /// Multicast from `src` to `dsts`.
    pub fn multicast(&mut self, src: NodeId, dsts: &[NodeId], payload: &NetPayload) -> Result<()> {
        Transport::multicast(&mut self.fabric, src, dsts, payload)
    }

    // ------------------------------------------------------------ metering

    /// Begin metering a region.
    pub fn meter(&self) -> MeterGuard {
        MeterGuard::start(self)
    }

    /// Meter a closure, returning its result and the cost report.
    pub fn metered<T>(
        &mut self,
        f: impl FnOnce(&mut Cluster) -> Result<T>,
    ) -> Result<(T, MeterReport)> {
        let guard = self.meter();
        let out = f(self)?;
        Ok((out, guard.finish(self)))
    }

    /// Simulate a fail-stop crash of one node: its in-memory state is
    /// discarded and rebuilt by [`crate::replay_node`] from the node's own
    /// log — DDL plus its DML, in execution order, reproducing rid
    /// assignment exactly — which the rebuilt node then keeps. The rest of
    /// the cluster is untouched; messages in flight to the node are the
    /// caller's problem (the fault layer re-delivers unacknowledged
    /// frames).
    ///
    /// Requires WAL logging ([`ClusterConfig::with_wal`]) and no open
    /// transaction. Returns the number of DML records replayed.
    pub fn crash_node(&mut self, id: NodeId) -> Result<usize> {
        if !self.config.wal {
            return Err(PvmError::InvalidOperation(
                "crash_node requires WAL logging (ClusterConfig::with_wal)".into(),
            ));
        }
        if self.txn_active {
            return Err(PvmError::InvalidOperation(
                "cannot crash a node inside an open transaction".into(),
            ));
        }
        let log = self.node_mut(id)?.take_log();
        self.restart_node(id, log)
    }

    /// Replace node `id` with a fresh one replayed from `log`
    /// ([`crate::replay_node`]). Returns the number of DML records
    /// replayed.
    pub(crate) fn restart_node(
        &mut self,
        id: NodeId,
        log: Vec<crate::wal::WalRecord>,
    ) -> Result<usize> {
        let mut fresh = NodeState::with_log(id, self.config.buffer_pages, self.config.wal);
        let replayed = crate::wal::replay_node(&mut fresh, log)?;
        self.nodes[id.index()] = fresh;
        Ok(replayed)
    }

    /// Zero every counter (nodes, buffers, fabric).
    pub fn reset_counters(&mut self) {
        for n in &mut self.nodes {
            n.reset_counters();
        }
        self.fabric.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm_types::{row, Column, Schema};

    fn two_col_schema() -> pvm_types::SchemaRef {
        Schema::new(vec![Column::int("a"), Column::int("c")]).into_ref()
    }

    fn cluster(l: usize) -> Cluster {
        Cluster::new(ClusterConfig::new(l).with_buffer_pages(256))
    }

    #[test]
    fn create_and_insert_partitions_rows() {
        let mut c = cluster(4);
        let id = c
            .create_table(TableDef::hash_heap("a", two_col_schema(), 0))
            .unwrap();
        let rows: Vec<Row> = (0..100).map(|i| row![i, i % 10]).collect();
        c.insert(id, rows).unwrap();
        assert_eq!(c.row_count(id).unwrap(), 100);
        // Every node should hold some rows under uniform hashing.
        for n in c.nodes() {
            assert!(n.storage(id).unwrap().row_count() > 0);
        }
        // Rows live at their hash-routed home.
        for r in c.scan_all(id).unwrap() {
            let home = c.route(id, &r).unwrap();
            let found = c.node(home).unwrap().storage(id).unwrap().scan().unwrap();
            assert!(found.iter().any(|(_, fr)| fr == &r));
        }
    }

    #[test]
    fn delete_by_value() {
        let mut c = cluster(2);
        let id = c
            .create_table(TableDef::hash_heap("a", two_col_schema(), 0))
            .unwrap();
        c.insert(id, vec![row![1, 2], row![3, 4]]).unwrap();
        assert_eq!(c.delete(id, &[row![1, 2]], &[]).unwrap(), 1);
        assert_eq!(c.delete(id, &[row![1, 2]], &[]).unwrap(), 0);
        assert_eq!(c.row_count(id).unwrap(), 1);
    }

    #[test]
    fn metered_region_reports_deltas() {
        let mut c = cluster(2);
        let id = c
            .create_table(TableDef::hash_heap("a", two_col_schema(), 0))
            .unwrap();
        c.insert(id, vec![row![1, 1]]).unwrap();
        let (_, report) = c
            .metered(|c| {
                c.insert(id, (0..10).map(|i| row![i, i]).collect())?;
                Ok(())
            })
            .unwrap();
        let total = report.total();
        assert_eq!(total.inserts, 10, "only the metered inserts are counted");
        assert!(report.total_workload_io() >= 20.0);
    }

    #[test]
    fn secondary_index_everywhere() {
        let mut c = cluster(3);
        let id = c
            .create_table(TableDef::hash_heap("a", two_col_schema(), 0))
            .unwrap();
        c.insert(id, (0..30).map(|i| row![i, 7]).collect()).unwrap();
        c.create_secondary_index(id, "a_c", vec![1]).unwrap();
        let mut hits = 0;
        for i in 0..3u16 {
            hits += c
                .node_mut(NodeId(i))
                .unwrap()
                .index_search(id, &[1], &row![7])
                .unwrap()
                .len();
        }
        assert_eq!(hits, 30);
    }

    #[test]
    fn drop_table_everywhere() {
        let mut c = cluster(2);
        let id = c
            .create_table(TableDef::hash_heap("a", two_col_schema(), 0))
            .unwrap();
        c.drop_table(id).unwrap();
        assert!(c.scan_all(id).is_err());
        assert!(c.table_id("a").is_err());
    }

    #[test]
    fn send_and_receive_payloads() {
        let mut c = cluster(3);
        let payload = NetPayload::DeltaRows {
            table: TableId(0),
            rows: vec![row![1]],
        };
        c.send(NodeId(0), NodeId(2), payload.clone()).unwrap();
        c.broadcast(NodeId(1), &payload).unwrap();
        let at2 = c.fabric_mut().recv_all(NodeId(2));
        assert_eq!(at2.len(), 2);
        // p2p + 2 charged broadcast copies (local copy free).
        assert_eq!(c.fabric().ledger().snapshot().sends, 3);
    }

    #[test]
    fn reset_counters_clears_everything() {
        let mut c = cluster(2);
        let id = c
            .create_table(TableDef::hash_heap("a", two_col_schema(), 0))
            .unwrap();
        c.insert(id, vec![row![1, 1]]).unwrap();
        c.reset_counters();
        let report = c.meter().finish(&c);
        assert!(report.total().is_zero());
    }

    #[test]
    fn round_robin_delete_searches_all_nodes() {
        let mut c = cluster(4);
        let id = c
            .create_table(TableDef::new(
                "rr",
                two_col_schema(),
                crate::partition::PartitionSpec::RoundRobin,
                pvm_storage::Organization::Heap,
            ))
            .unwrap();
        c.insert(id, (0..8).map(|i| row![i, i]).collect()).unwrap();
        assert_eq!(c.delete(id, &[row![5, 5]], &[]).unwrap(), 1);
        assert_eq!(c.delete(id, &[row![5, 5]], &[]).unwrap(), 0);
        assert_eq!(c.row_count(id).unwrap(), 7);
    }

    #[test]
    fn round_robin_insert_spreads() {
        let mut c = cluster(4);
        let id = c
            .create_table(TableDef::new(
                "rr",
                two_col_schema(),
                crate::partition::PartitionSpec::RoundRobin,
                pvm_storage::Organization::Heap,
            ))
            .unwrap();
        c.insert(id, (0..8).map(|i| row![i, i]).collect()).unwrap();
        for n in c.nodes() {
            assert_eq!(n.storage(id).unwrap().row_count(), 2);
        }
    }

    /// [`Cluster::insert`] as it stood before batches, kept as its oracle:
    /// one [`NodeState::insert`] per row and destination, in arrival
    /// order, the `TableDef` cloned and the route allocated per row.
    fn insert_per_row(
        c: &mut Cluster,
        id: TableId,
        rows: Vec<Row>,
    ) -> Result<Vec<(NodeId, pvm_types::Rid)>> {
        let def = c.catalog.get(id)?.clone();
        let l = c.node_count();
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let dsts = def.partitioning.route_all(&row, l, c.rr_seq)?;
            c.rr_seq += 1;
            let (&last, rest) = dsts.split_last().expect("a row has a primary node");
            let mut primary = None;
            for &dst in rest {
                let rid = c.nodes[dst.index()].insert(id, row.clone())?;
                primary.get_or_insert((dst, rid));
            }
            let rid = c.nodes[last.index()].insert(id, row)?;
            out.push(primary.unwrap_or((last, rid)));
        }
        Ok(out)
    }

    /// Hash heap with a secondary index, hash clustered, round-robin,
    /// and heavy-light replicated and salted over heavy values 0 and 1.
    fn mixed_tables(c: &mut Cluster) -> Vec<TableId> {
        use crate::partition::{PartitionSpec, SpreadMode};
        let heavy = |mode| PartitionSpec::heavy_light(0, vec![0.into(), 1.into()], 3, mode);
        let defs = [
            TableDef::hash_heap("h", two_col_schema(), 0),
            TableDef::hash_clustered("c", two_col_schema(), 1),
            TableDef::new(
                "r",
                two_col_schema(),
                PartitionSpec::RoundRobin,
                pvm_storage::Organization::Heap,
            ),
            TableDef::new(
                "hr",
                two_col_schema(),
                heavy(SpreadMode::Replicate),
                pvm_storage::Organization::Heap,
            ),
            TableDef::new(
                "hs",
                two_col_schema(),
                heavy(SpreadMode::Salt),
                pvm_storage::Organization::Clustered { key: vec![0] },
            ),
        ];
        let ids: Vec<TableId> = defs
            .into_iter()
            .map(|d| c.create_table(d).unwrap())
            .collect();
        c.create_secondary_index(ids[0], "h_c", vec![1]).unwrap();
        ids
    }

    /// A node's counters, log and table sizes, read without a page touch.
    fn node_counts(n: &NodeState) -> impl PartialEq + std::fmt::Debug {
        let sizes: Vec<_> = n
            .table_ids()
            .into_iter()
            .map(|t| {
                let s = n.storage(t).unwrap();
                (s.row_count(), s.total_pages())
            })
            .collect();
        let pool = n.buffer().lock();
        let pool = (
            pool.hits(),
            pool.misses(),
            pool.io_snapshot(),
            pool.recency().collect::<Vec<_>>(),
        );
        (sizes, n.ledger().snapshot(), n.log().to_vec(), pool)
    }

    /// A node as both insert paths must leave it: [`node_counts`], then
    /// every stored tuple at its rid (the scan touches pages after the
    /// counts are read).
    fn node_image(n: &NodeState) -> impl PartialEq + std::fmt::Debug {
        let counts = node_counts(n);
        let tuples: Vec<Vec<_>> = n
            .table_ids()
            .into_iter()
            .map(|t| {
                let s = n.storage(t).unwrap();
                s.scan_encoded().map(|(r, b)| (r, b.to_vec())).collect()
            })
            .collect();
        (counts, tuples)
    }

    proptest::proptest! {
        /// Batches of mixed tables against the per-row loop: the same
        /// placements returned, and every node left the same.
        #[test]
        fn cluster_insert_batch_matches_per_row_loop(
            l in 1usize..5,
            batches in proptest::collection::vec(
                (0usize..5, proptest::collection::vec((0i64..8, 0i64..1 << 20), 0..60)),
                1..8,
            ),
        ) {
            let config = ClusterConfig::new(l).with_buffer_pages(4).with_wal();
            let (mut batched, mut per_row) = (Cluster::new(config), Cluster::new(config));
            let (ids, _) = (mixed_tables(&mut batched), mixed_tables(&mut per_row));
            for (t, rows) in batches {
                let rows: Vec<Row> = rows.into_iter().map(|(k, v)| row![k, v]).collect();
                let got = batched.insert(ids[t], rows.clone()).unwrap();
                let want = insert_per_row(&mut per_row, ids[t], rows).unwrap();
                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert_eq!(batched.rr_seq, per_row.rr_seq);
                for (a, b) in batched.nodes().iter().zip(per_row.nodes()) {
                    proptest::prop_assert!(node_image(a) == node_image(b), "node {} diverged", a.id());
                }
            }
        }
    }

    #[test]
    fn insert_batch_in_several_chunks_matches_the_per_row_loop() {
        let config = ClusterConfig::new(3).with_buffer_pages(16).with_wal();
        let (mut batched, mut per_row) = (Cluster::new(config), Cluster::new(config));
        let (ids, _) = (mixed_tables(&mut batched), mixed_tables(&mut per_row));
        let rows: Vec<Row> = (0..2 * INSERT_CHUNK as i64 + 77)
            .map(|i| row![i * 7 % 11, i])
            .collect();
        for id in ids {
            let got = batched.insert(id, rows.clone()).unwrap();
            assert_eq!(got, insert_per_row(&mut per_row, id, rows.clone()).unwrap());
        }
        for (a, b) in batched.nodes().iter().zip(per_row.nodes()) {
            assert!(node_image(a) == node_image(b), "node {} diverged", a.id());
        }
    }

    #[test]
    fn a_refused_insert_changes_no_node() {
        let mut c = cluster(3);
        let id = c
            .create_table(TableDef::hash_clustered(
                "t",
                Schema::new(vec![Column::int("a"), Column::str("s")]).into_ref(),
                0,
            ))
            .unwrap();
        c.insert(id, vec![row![1, "x"]]).unwrap();
        let before: Vec<_> = c.nodes().iter().map(node_counts).collect();
        let seq = c.rr_seq;
        let big = "x".repeat(pvm_storage::PAGE_SIZE / 2);
        let rows = vec![row![2, "a"], row![3, big], row![4, "b"], row![5, "c"]];
        assert!(c.insert(id, rows).is_err());
        assert_eq!(c.row_count(id).unwrap(), 1);
        assert_eq!(c.rr_seq, seq);
        for (n, b) in c.nodes().iter().zip(before) {
            assert!(node_counts(n) == b, "node {} changed", n.id());
        }
    }
}
