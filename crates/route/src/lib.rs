//! The gRouting query router (§3).
//!
//! The router is the piece this paper is about: with storage decoupled from
//! processing, *any* processor can serve *any* query, so the router's job is
//! to pick the processor whose cache most likely already holds the query
//! node's neighbourhood — without ever inspecting those caches — while
//! keeping the load balanced.
//!
//! * [`Strategy`] — the four routing schemes: the two baselines (next-ready,
//!   modulo hash of Eq. 1) and the two smart schemes (landmark routing over
//!   the `d(u, p)` table; embed routing over coordinates + per-processor
//!   EMA, Eq. 5–7), plus the no-cache control;
//! * [`EmbedRouter`] — the exponential-moving-average cache-content estimate;
//! * [`Router`] — per-processor queues, acknowledgement-driven dispatch,
//!   query stealing (Requirement 2), the load-balanced distance `d_LB`
//!   (Eq. 3/7), and processor fault masking.

mod ema;
mod router;
mod strategy;

pub use ema::EmbedRouter;
pub use router::{Router, RouterConfig};
pub use strategy::{RoutingKind, Strategy};
