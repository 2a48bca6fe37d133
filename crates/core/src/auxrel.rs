//! The auxiliary-relation maintenance method (§2.1.2).
//!
//! For each base relation `R` and each join attribute `c` it joins on, the
//! method keeps `AR_R = σπ(R)` — a projected copy of `R` **hash-partitioned
//! on `c`** with a clustered index on `c` — unless `R` is already
//! partitioned on `c` (then the base relation itself serves). The σπ
//! reduction keeps only the columns a maintenance probe or the view's
//! output can ever need (§2.1.2's storage minimization; see
//! [`crate::minimize`]).
//!
//! A delta tuple is then handled at exactly **one node per join step**:
//! routed by hash to the node holding its matches, probed against the
//! clustered AR (one SEARCH, no FETCHes), and shipped onward. The paper's
//! 2-relation transaction becomes:
//!
//! ```text
//! begin transaction
//!   update base relation A;
//!   update auxiliary relation AR_A;   (cheap)
//!   update join view JV;              (cheap)
//! end transaction
//! ```
//!
//! The AR is built, pooled and updated by the code it shares with the
//! global index (its entry is the σπ projection); this module holds the
//! part that differs, the probe.
//!
//! **Delivery assumptions.** Each hop of the single-node chain assumes
//! its routed delta arrives **exactly once, next step**: a lost message
//! would strand the chain mid-flight, a duplicate would insert the AR /
//! view rows twice. The reliability layer (`pvm_net::reliable`) restores
//! both guarantees under fault injection without the driver noticing.

use pvm_engine::{Cluster, TableId};
use pvm_types::Result;

use crate::chain::ProbeTarget;

/// The AR probe step's target: one SEARCH on the clustered AR `table` at
/// the join value's home node, matching σπ rows that carry `keep_cols`.
/// The AR itself is a [`crate::structure::Structure`], built, pooled and
/// updated like a global index.
pub(crate) fn probe_target(
    cluster: &Cluster,
    table: TableId,
    keep_cols: &[usize],
    key_pos: usize,
) -> Result<ProbeTarget> {
    Ok(ProbeTarget {
        table,
        carried: keep_cols.to_vec(),
        key: vec![key_pos],
        routing: Some(cluster.def(table)?.partitioning.clone()),
    })
}
