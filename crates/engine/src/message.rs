//! Payloads carried by the cluster interconnect.

use pvm_net::MessageSize;
use pvm_types::{GlobalRid, Row};

use crate::catalog::TableId;

/// A message between data-server nodes. Every maintenance algorithm in
/// `pvm-core` is expressed as flows of these payloads, so the fabric's
/// SEND accounting observes exactly the communication the paper models.
#[derive(Debug, Clone, PartialEq)]
pub enum NetPayload {
    /// Delta rows redistributed toward a table (by hash or broadcast),
    /// e.g. an inserted base tuple on its way to an auxiliary relation.
    DeltaRows { table: TableId, rows: Vec<Row> },
    /// Join-result rows on their way to the view's home node(s).
    ResultRows { table: TableId, rows: Vec<Row> },
    /// A delta row plus the global rids of its match partners at the
    /// destination node — the probe message of the global-index method.
    RowWithRids {
        table: TableId,
        row: Row,
        rids: Vec<GlobalRid>,
    },
    /// Several delta rows, each paired with the global rids of its match
    /// partners at the destination — the destination-coalesced form of
    /// [`NetPayload::RowWithRids`]: one message per (src, dst) pair
    /// instead of one per row, same bytes up to the shared frame header.
    RowsWithRids {
        table: TableId,
        items: Vec<(Row, Vec<GlobalRid>)>,
    },
}

impl NetPayload {
    /// How many rows the message carries (a rid-list item counts as its
    /// row).
    pub fn row_count(&self) -> usize {
        match self {
            NetPayload::DeltaRows { rows, .. } | NetPayload::ResultRows { rows, .. } => rows.len(),
            NetPayload::RowWithRids { .. } => 1,
            NetPayload::RowsWithRids { items, .. } => items.len(),
        }
    }
}

impl MessageSize for NetPayload {
    fn byte_size(&self) -> usize {
        match self {
            NetPayload::DeltaRows { rows, .. } | NetPayload::ResultRows { rows, .. } => {
                4 + rows.iter().map(Row::byte_size).sum::<usize>()
            }
            NetPayload::RowWithRids { row, rids, .. } => {
                4 + row.byte_size() + rids.iter().map(MessageSize::byte_size).sum::<usize>()
            }
            NetPayload::RowsWithRids { items, .. } => {
                4 + items
                    .iter()
                    .map(|(row, rids)| {
                        row.byte_size() + rids.iter().map(MessageSize::byte_size).sum::<usize>()
                    })
                    .sum::<usize>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvm_types::{row, NodeId, Rid};

    #[test]
    fn sizes_scale_with_contents() {
        let r = row![1, "abc"];
        let one = NetPayload::DeltaRows {
            table: TableId(0),
            rows: vec![r.clone()],
        };
        let two = NetPayload::DeltaRows {
            table: TableId(0),
            rows: vec![r.clone(), r.clone()],
        };
        assert!(two.byte_size() > one.byte_size());

        let no_rids = NetPayload::RowWithRids {
            table: TableId(0),
            row: r.clone(),
            rids: vec![],
        };
        let with_rids = NetPayload::RowWithRids {
            table: TableId(0),
            row: r,
            rids: vec![GlobalRid::new(NodeId(0), Rid::new(0, 0)); 3],
        };
        assert_eq!(with_rids.byte_size() - no_rids.byte_size(), 24);
    }

    #[test]
    fn coalesced_rid_payload_charges_one_header_for_all_items() {
        // Two singleton RowWithRids vs one RowsWithRids carrying both:
        // identical row/rid bytes, one 4-byte header saved per extra item.
        let r = row![1, "abc"];
        let rids = vec![GlobalRid::new(NodeId(1), Rid::new(2, 3)); 2];
        let single = NetPayload::RowWithRids {
            table: TableId(0),
            row: r.clone(),
            rids: rids.clone(),
        };
        let coalesced = NetPayload::RowsWithRids {
            table: TableId(0),
            items: vec![(r.clone(), rids.clone()), (r, rids)],
        };
        assert_eq!(coalesced.byte_size(), 2 * single.byte_size() - 4);
    }
}
