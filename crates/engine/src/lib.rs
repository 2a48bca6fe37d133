//! # pvm-engine
//!
//! The shared-nothing parallel RDBMS the paper's maintenance methods run
//! on. `L` data-server nodes each own a slice of every hash-partitioned
//! table (heap + indexes + buffer pool + cost ledger, from
//! [`pvm_storage`]); a simulated interconnect ([`pvm_net::Fabric`])
//! carries rows and global-rid lists between nodes and meters `SEND`s.
//!
//! The engine is deliberately *mechanism*, not policy: it provides
//! partitioned DDL/DML, per-node index probes and scans, redistribution /
//! broadcast primitives, and cost metering. The view-maintenance policies
//! (naive / auxiliary relation / global index) live in `pvm-core` and are
//! expressed purely in terms of this crate's API.

pub mod backend;
pub mod catalog;
pub mod cluster;
pub mod exec;
pub mod message;
pub mod meter;
pub mod node;
pub mod partial;
pub mod partition;
pub mod sketch;
pub mod wal;

pub use backend::{
    count_work, note_inbox, run_stages_lockstep, Backend, Stage, StepCtx, StepProgram, StepSink,
    TraceEventSlot,
};
pub use catalog::{Catalog, TableDef, TableId};
pub use cluster::{Cluster, ClusterConfig};
pub use message::NetPayload;
pub use meter::{MeterGuard, MeterReport};
pub use node::NodeState;
pub use partial::{EntryKey, PartialBudget, PartialPolicy};
pub use partition::{hash_row, hash_value, PartitionSpec, SpreadMode};
pub use sketch::SpaceSaving;
pub use wal::{recover, replay_node, Wal, WalRecord};
