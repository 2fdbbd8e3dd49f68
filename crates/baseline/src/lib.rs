//! Coupled-architecture baselines: the systems gRouting is compared against.
//!
//! Figure 7 of the paper pits gRouting against two distributed graph
//! systems in which storage and compute are *coupled* — each server owns a
//! partition and only that server can process queries touching it:
//!
//! * [`bsp`] — a Pregel/Giraph-style vertex-centric bulk-synchronous engine
//!   standing in for **SEDGE** \[35\]. It runs on METIS-style multilevel
//!   edge-cut partitions (`grouting-partition::multilevel`, the ParMETIS
//!   stand-in) and pays a synchronisation barrier per superstep — the cost
//!   that makes h-hop queries expensive on offline BSP engines;
//! * [`gas`] — a PowerGraph-style gather-apply-scatter engine on a greedy
//!   vertex-cut, with only the h-hop frontier active (the paper's own port:
//!   "we ensure that only the required nodes are active at any point of
//!   time").
//!
//! Both engines execute queries *for real* over the in-memory graph and
//! charge virtual time from explicit cost models, mirroring how
//! `grouting-sim` treats the decoupled cluster, so throughput comparisons
//! are apples-to-apples.

pub mod bsp;
pub mod gas;
pub mod report;

pub use bsp::{run_bsp, BspConfig};
pub use gas::{run_gas, GasConfig};
pub use report::BaselineReport;
