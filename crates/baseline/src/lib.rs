//! Coupled-architecture baselines: the systems gRouting is compared against.
//!
//! Figure 7 of the paper pits gRouting against two distributed graph
//! systems in which storage and compute are *coupled* — each server owns a
//! partition and only that server can process queries touching it:
//!
//! * [`run_bsp`] — a Pregel/Giraph-style vertex-centric bulk-synchronous
//!   engine standing in for **SEDGE** \[35\]. It runs on METIS-style multilevel
//!   edge-cut partitions ([`multilevel`], the ParMETIS stand-in, held in a
//!   [`TablePartitioner`]) and pays a synchronisation barrier per superstep
//!   — the cost that makes h-hop queries expensive on offline BSP engines;
//! * [`run_gas`] — a PowerGraph-style gather-apply-scatter engine on a
//!   greedy vertex-cut ([`vertexcut`]), with only the h-hop frontier active
//!   (the paper's own port: "we ensure that only the required nodes are
//!   active at any point of time").
//!
//! The partitioners live here, not beside the storage tier, because only
//! these coupled baselines need a clever placement: gRouting's own storage
//! tier uses the stateless [`HashPartitioner`], which is also the overflow
//! of a [`TablePartitioner`] for nodes added after partitioning.
//!
//! Both engines execute queries *for real* over the in-memory graph and
//! charge virtual time from explicit cost models, mirroring how
//! `grouting-sim` treats the decoupled cluster, so throughput comparisons
//! are apples-to-apples.

mod bsp;
mod gas;
pub mod multilevel;
#[cfg(test)]
mod quality;
mod report;
pub mod vertexcut;

use grouting_graph::NodeId;
use grouting_storage::{HashPartitioner, Partitioner};

pub use bsp::{run_bsp, BspConfig};
pub use gas::{run_gas, GasConfig};

/// A partitioner backed by an explicit node → partition table, produced by
/// the offline [`multilevel`] partitioner.
#[derive(Debug, Clone)]
pub struct TablePartitioner {
    table: Vec<u32>,
    parts: usize,
    /// Fallback for nodes beyond the table (e.g. added after partitioning).
    overflow: HashPartitioner,
}

impl TablePartitioner {
    /// Wraps an assignment table.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0` or any table entry is out of range.
    pub fn new(table: Vec<u32>, parts: usize) -> Self {
        assert!(parts > 0, "zero partitions");
        assert!(
            table.iter().all(|&p| (p as usize) < parts),
            "assignment out of range"
        );
        Self {
            table,
            parts,
            overflow: HashPartitioner::new(parts),
        }
    }

    /// The raw assignment table.
    pub fn table(&self) -> &[u32] {
        &self.table
    }
}

impl Partitioner for TablePartitioner {
    fn parts(&self) -> usize {
        self.parts
    }

    fn assign(&self, node: NodeId) -> usize {
        match self.table.get(node.index()) {
            Some(&p) => p as usize,
            None => self.overflow.assign(node),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_partitioner_assigns_and_overflows() {
        let t = TablePartitioner::new(vec![0, 1, 2, 0], 3);
        assert_eq!(t.parts(), 3);
        assert_eq!(t.assign(NodeId::new(1)), 1);
        assert_eq!(t.assign(NodeId::new(3)), 0);
        // Beyond the table: falls back to hash, still in range.
        let p = t.assign(NodeId::new(1000));
        assert!(p < 3);
    }

    #[test]
    #[should_panic(expected = "assignment out of range")]
    fn table_partitioner_validates() {
        let _ = TablePartitioner::new(vec![0, 5], 3);
    }

    #[test]
    #[should_panic(expected = "zero partitions")]
    fn table_partitioner_rejects_zero_parts() {
        let _ = TablePartitioner::new(vec![], 0);
    }
}
