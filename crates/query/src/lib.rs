//! h-hop traversal queries and their executors (§2.2).
//!
//! The paper generalises online graph queries to *h-hop traversals* from a
//! query node and evaluates three of them:
//!
//! 1. **h-hop neighbour aggregation** — count the h-hop neighbours of the
//!    query node (optionally only those carrying a given label);
//! 2. **h-step random walk with restart** — jump to a uniform neighbour per
//!    step, restarting at the query node with small probability;
//! 3. **h-hop reachability** — bidirectional BFS (forward from the source
//!    over out-edges, backward from the target over in-edges — possible
//!    because both directions are stored).
//!
//! Execution runs against [`CacheBackedStore`] — the cache-then-
//! storage fetch layer whose hit/miss counts *are* the paper's Eq. 8/9
//! metrics and whose per-query access statistics the runtimes turn into
//! simulated (or real) time.

mod executor;
mod fetch;
mod types;

pub use executor::{ExecOutcome, Executor, Scratch, StagedQuery, Step};
pub use fetch::{AccessStats, BatchSource, CacheBackedStore, MissEvent, ProcessorCache};
pub use types::{Query, QueryResult};

/// The speculative-prefetch setting, which has nothing left to set: a
/// fetch is exactly a query's demand miss set. Named by the benchmark
/// (`load/`); the next `benchmark` PR drops it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchConfig;

impl PrefetchConfig {
    /// The only setting.
    pub const OFF: Self = Self;
}

/// The speculative-prefetch tally, which has nothing left to count.
/// Named by the benchmark (`load/`); the next `benchmark` PR drops it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats;
