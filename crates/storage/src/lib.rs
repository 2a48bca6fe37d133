//! # pvm-storage
//!
//! Per-node storage engine for the PVM parallel-RDBMS simulator:
//!
//! * [`page`] — 8 KiB slotted pages holding raw tuple bytes;
//! * [`buffer`] — an LRU buffer-pool *model* that meters physical page
//!   reads/writes (the simulator keeps all data resident; the pool decides
//!   what would have been a hit vs. a miss for a given memory budget `M`);
//! * [`heap`] — heap files of slotted pages with stable [`pvm_types::Rid`]s;
//! * [`btree`] — a from-scratch B+tree over byte keys, used for both
//!   clustered indexes (row bytes in the leaves, like an index-organized
//!   table) and non-clustered indexes (RID payloads);
//! * [`index`] — typed clustered / non-clustered index wrappers;
//! * [`table`] — table storage combining a heap, optional indexes, and
//!   statistics, with the SEARCH/FETCH/INSERT accounting of the paper;
//! * [`stats`] — per-table statistics for planning and Table 1 reporting.

pub mod btree;
pub mod buffer;
mod hash;
pub mod heap;
pub mod index;
pub mod page;
pub mod stats;
pub mod table;

pub use buffer::{AccessMode, BufferPool, PageKey, SharedBufferPool};
pub use hash::{MixHasher, SeededMix};
pub use heap::HeapFile;
pub use index::{ClusteredIndex, IndexDescriptor, IndexKind, NonClusteredIndex};
pub use page::{Page, PAGE_SIZE};
pub use stats::TableStats;
pub use table::{Organization, TableStorage};

/// Identifies one storage file (heap or index) within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}
