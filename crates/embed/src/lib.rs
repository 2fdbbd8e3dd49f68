//! Landmark and embedding machinery behind the smart routing schemes (§3.4).
//!
//! Both smart routers share a preprocessing pipeline:
//!
//! 1. [`landmarks`] selects a small set `L` of high-degree, well-separated
//!    landmark nodes and runs bit-parallel bi-directed BFS over batches of
//!    up to 64 landmarks, producing the `|L| × n` hop-distance matrix;
//! 2. **Landmark routing** ([`ProcessorDistanceTable`]) assigns landmarks
//!    to processors via farthest-point pivots and materialises the `n × P`
//!    node→processor distance table the router consults in O(P);
//! 3. **Embed routing** ([`embedding`]) instead embeds the graph into a
//!    D-dimensional Euclidean space with the Simplex-Downhill minimiser
//!    ([`simplex`]), preserving hop distances by relative error (Eq. 4);
//!    the router then tracks an EMA of each processor's served coordinates.
//!
//! [`updates`] implements the paper's one incremental maintenance rule
//! (§3.4.1): after an edge is added or removed, its endpoints and their
//! neighbours get fresh landmark distances, and a node is removed as its
//! incident edges. [`error`] is the relative-error evaluation used for
//! Figure 12(a).

pub mod embedding;
pub mod error;
pub mod landmarks;
mod pivots;
pub mod simplex;
pub mod updates;

pub use embedding::{Embedding, EmbeddingConfig};
pub use landmarks::{LandmarkConfig, Landmarks};
pub use pivots::ProcessorDistanceTable;

/// Hop distance marking "unreachable" in the `u16`-compressed matrices.
pub const UNREACHED_U16: u16 = u16::MAX;
