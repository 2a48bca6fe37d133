//! # pvm-types
//!
//! Foundational types shared by every crate in the PVM workspace: typed
//! values, schemas, row encoding, row identifiers, predicates/projections,
//! error types, and the cost-accounting primitives used to reproduce the
//! analytical model of Luo et al. (ICDE 2003).
//!
//! Nothing in this crate knows about nodes, partitioning, or views; it is
//! the vocabulary the rest of the system speaks.

pub mod cost;
pub mod error;
pub mod expr;
pub mod rid;
pub mod row;
pub mod schema;
pub mod value;

pub use cost::{CostKind, CostLedger, CostSnapshot, IoWeights, LatencyProfile};
pub use error::{PvmError, Result};
pub use expr::{CmpOp, Predicate};
pub use rid::{GlobalRid, NodeId, PageId, Rid, SlotId};
pub use row::Row;
pub use schema::{Column, Schema, SchemaRef};
pub use value::{DataType, Value};
