//! MVCC main-memory storage engine for the AETS backup node.
//!
//! Mirrors the prototype of Section VI-A of the paper: each table is a
//! from-scratch [`BPlusTree`] index whose leaves hold stable, shareable
//! [`RecordNode`]s; each record keeps a transaction-ID-ordered version
//! chain. Readers reconstruct the row visible at a snapshot timestamp;
//! the commit phase of TPLR appends versions under a short per-record
//! exclusive lock.

pub mod bptree;
pub mod gc;
pub mod query;
pub mod record;
#[cfg_attr(not(test), deny(clippy::unwrap_used))]
pub mod snapshot;
pub mod table;

pub use bptree::BPlusTree;
pub use gc::{gc_db, gc_node, gc_table, FloorTicket, GcStats, QueryFloor};
pub use query::{compare_values, Aggregate, CmpOp, Filter, Scan};
pub use record::{OpType, RecordNode, Version};
pub use snapshot::{apply_snapshot, decode_db, encode_chains, encode_db, ChainFilter};
pub use table::{MemDb, Table};
