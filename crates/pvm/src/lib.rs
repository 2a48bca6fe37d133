//! # pvm — Parallel View Maintenance
//!
//! A from-scratch reproduction of *"A Comparison of Three Methods for Join
//! View Maintenance in Parallel RDBMS"* (Luo, Naughton, Ellmann, Watzke —
//! ICDE 2003): a shared-nothing parallel RDBMS simulator plus the three
//! materialized-join-view maintenance methods the paper compares — naive,
//! auxiliary relation, and global index — with the paper's analytical cost
//! model and every figure/table regenerable from code.
//!
//! ## Quick start
//!
//! ```
//! use pvm::prelude::*;
//!
//! // A 4-node shared-nothing cluster.
//! let mut cluster = Cluster::new(ClusterConfig::new(4));
//!
//! // Two base relations, neither partitioned on the join attribute.
//! let a = cluster.create_table(TableDef::hash_heap(
//!     "a",
//!     Schema::new(vec![Column::int("id"), Column::int("c")]).into_ref(),
//!     0,
//! )).unwrap();
//! let _b = cluster.create_table(TableDef::hash_heap(
//!     "b",
//!     Schema::new(vec![Column::int("id"), Column::int("d")]).into_ref(),
//!     0,
//! )).unwrap();
//! cluster.insert(a, vec![row![1, 10]]).unwrap();
//!
//! // A materialized join view maintained with auxiliary relations.
//! let def = JoinViewDef::two_way("jv", "a", "b", 1, 1, 2, 2);
//! let mut view =
//!     MaintainedView::create(&mut cluster, def, MaintenanceMethod::AuxiliaryRelation).unwrap();
//!
//! // Updates propagate incrementally; the view stays equal to the join.
//! let out = view.apply(&mut cluster, 1, &Delta::insert_one(row![7, 10])).unwrap();
//! assert_eq!(out.view_rows, 1);
//! view.check_consistent(&cluster).unwrap();
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`pvm_types`] | values, rows, schemas, rids, cost ledgers |
//! | [`pvm_storage`] | slotted pages, buffer pool, B+tree, tables |
//! | [`pvm_net`] | simulated interconnect with SEND metering |
//! | [`pvm_engine`] | the parallel RDBMS: catalog, partitioning, DML, joins |
//! | [`pvm_runtime`] | threaded per-node execution, sends delivered from per-node outboxes |
//! | [`pvm_obs`] | structured trace events, metrics, Chrome-trace export |
//! | [`pvm_serve`] | MVCC snapshot serving: epochs, delta chains, pinned reads |
//! | [`pvm_core`] | the three maintenance methods, planner, advisor |
//! | [`pvm_model`] | the paper's analytical cost model |
//! | [`pvm_workload`] | TPC-R-shaped data and synthetic workloads |

pub use pvm_core as core;
pub use pvm_engine as engine;
pub use pvm_model as model;
pub use pvm_net as net;
pub use pvm_obs as obs;
pub use pvm_runtime as runtime;
pub use pvm_serve as serve;
pub use pvm_sql as sql;
pub use pvm_storage as storage;
pub use pvm_types as types;
pub use pvm_workload as workload;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use pvm_core::{
        advise, maintain, plan_groups, Advice, BatchCostRecord, BatchPolicy, Delta, GroupSignature,
        JoinPolicy, JoinViewDef, MaintainedView, MaintenanceMethod, MaintenanceOutcome,
        PartialPolicy, PartialStats, RebalanceReport, SharedCatalog, SkewConfig, SkewState,
        StructurePool, ViewColumn, ViewEdge,
    };
    pub use pvm_engine::{
        Backend, Cluster, ClusterConfig, PartitionSpec, SpaceSaving, SpreadMode, TableDef, TableId,
    };
    pub use pvm_model::{
        choose_method, predict_chain, response_time, savings_vs_naive, tw, ChainStep, ChooserInput,
        MethodVariant, ModelParams, Recommendation,
    };
    pub use pvm_obs::{
        chrome_trace, jsonl, prometheus, MemorySink, MetricsRegistry, Obs, RingSink, TraceSink,
    };
    pub use pvm_runtime::{RuntimeConfig, ThreadedCluster};
    pub use pvm_serve::{ServePublisher, ServeReader, Snapshot};
    pub use pvm_sql::{Session, SqlOutput};
    pub use pvm_storage::Organization;
    pub use pvm_types::{
        row, Column, CostSnapshot, DataType, LatencyProfile, NodeId, PvmError, Result, Row, Schema,
        Value,
    };
    pub use pvm_workload::{
        Distribution, SyntheticRelation, TpcrDataset, TpcrScale, Uniform, Zipf,
    };
}
