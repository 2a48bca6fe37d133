//! The naive maintenance method (§2.1.1).
//!
//! No extra structures beyond an index on each join attribute of each base
//! relation (made by `Probes::install`, which creates no structure for
//! this method). A delta tuple is joined with the other relations where they
//! physically are:
//!
//! * if the probed relation happens to be partitioned on the join
//!   attribute (case 1, Fig. 1), the tuple is routed to the single node
//!   holding the matches;
//! * otherwise (case 2, Fig. 2), the tuple is **broadcast to every node**
//!   and probed against every local fragment, because "we do not know at
//!   which nodes these matching tuples reside" — the expensive all-node
//!   operation that motivates the paper.
//!
//! **Delivery assumptions.** The driver's step chain assumes the
//! transport delivers every broadcast copy **exactly once, in the step
//! after it was sent** — a dropped copy would silently lose view rows at
//! one node, a duplicate would double-apply them. Under fault injection
//! these guarantees are restored *under* the driver by the reliability
//! layer (`pvm_net::reliable`, driven by `pvm-faults`), so the chain
//! logic itself stays delivery-oblivious.
