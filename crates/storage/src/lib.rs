//! The decoupled storage tier.
//!
//! The paper implements its storage tier on RAMCloud (§4.1): a distributed,
//! fully in-memory key-value store with a log-structured design, where each
//! graph node's id is the key and its adjacency record the value, and keys
//! are placed on servers by MurmurHash3. This crate rebuilds that substrate:
//!
//! * [`murmur3`] — MurmurHash3 (x86 32-bit), from scratch;
//! * [`HashPartitioner`] — the stateless modulo-hash placement every
//!   fetch consults, behind the [`Partitioner`] trait;
//! * [`log`] — a log-structured in-memory store per server: append-only
//!   segments, a hash index, and a cleaner that reclaims dead bytes
//!   (RAMCloud's high-memory-utilisation design);
//! * `server` — a storage server wrapping one log store behind a lock;
//! * [`StorageTier`] — the horizontal partitioning of the graph across
//!   servers and the graph-level load/get/update API; a load seals every
//!   server's head segment, so each read of a loaded record is a slice
//!   of the segment that holds it, never a copy;
//! * [`NetworkModel`] — network cost models (Infiniband RDMA, 10 Gbps
//!   Ethernet, and custom) that the simulator charges per fetch.

mod hash;
pub mod log;
pub mod murmur3;
mod net;
mod server;
mod tier;

pub use hash::{HashPartitioner, Partitioner};
pub use net::NetworkModel;
pub use tier::StorageTier;

/// Storage-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The key is not present on the owning server.
    NotFound(u64),
    /// A value exceeded the segment size and cannot be stored.
    ValueTooLarge {
        /// Key whose value was oversized.
        key: u64,
        /// Size of the offending value.
        len: usize,
        /// Maximum storable size.
        max: usize,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::NotFound(k) => write!(f, "key {k} not found"),
            StorageError::ValueTooLarge { key, len, max } => {
                write!(f, "value for key {key} is {len} bytes (max {max})")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
