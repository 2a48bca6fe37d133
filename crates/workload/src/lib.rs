//! # pvm-workload
//!
//! Workload and data generation for the PVM experiments:
//!
//! * [`tpcr`] — the TPC-R-shaped three-relation dataset of the paper's
//!   §3.3 Teradata experiments (customer / orders / lineitem with the
//!   paper's exact match fan-outs: one order per customer key, four
//!   lineitems per order), at configurable scale;
//! * [`gen`] — generic synthetic relations with controlled join fan-out
//!   `N` (the model's key parameter) and reproducible deltas against them;
//! * [`dist`] — value distributions (uniform, Zipf) for join attributes.

pub mod dist;
pub mod gen;
pub mod tpcr;

pub use dist::{Distribution, Uniform, Zipf};
pub use gen::SyntheticRelation;
pub use tpcr::{TpcrDataset, TpcrScale, TpcrTables};
