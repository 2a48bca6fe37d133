//! # pvm-sql
//!
//! A small SQL front end for the PVM parallel RDBMS — enough of the
//! language to express everything the paper does in its own notation:
//!
//! ```sql
//! CREATE TABLE customer (custkey INT, acctbal FLOAT, name STR)
//!     PARTITION BY HASH(custkey) CLUSTERED;
//!
//! CREATE VIEW jv1 USING AUXILIARY RELATION AS
//!     SELECT c.custkey, c.acctbal, o.orderkey, o.totalprice
//!     FROM customer c, orders o
//!     WHERE c.custkey = o.custkey
//!     PARTITION ON c.custkey;
//!
//! INSERT INTO customer VALUES (1, 100.0, 'Alice'), (2, 70.5, 'Bob');
//! DELETE FROM customer WHERE custkey = 2;
//! SELECT * FROM jv1 WHERE c.custkey = 1;
//! SHOW COST;
//! ```
//!
//! A [`Session`] owns a cluster plus every view created through it, and
//! keeps all views maintained on every `INSERT` / `DELETE` / `UPDATE`
//! (one shared base update per statement — see [`pvm_core::maintain`]).
//!
//! Deliberately out of scope: general expressions, aggregation, nested
//! queries, and multi-table `SELECT` execution (the engine recomputes
//! joins for verification through [`pvm_core::MaintainedView`]; ad-hoc
//! joins are not this crate's job).

pub mod ast;
pub mod introspect;
pub mod lexer;
pub mod parser;
pub mod session;

pub use ast::{ColumnRef, MethodSpec, Statement};
pub use parser::parse;
pub use session::{Session, SqlOutput};
