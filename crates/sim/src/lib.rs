//! Deterministic discrete-event simulator of the decoupled cluster.
//!
//! This is the substrate standing in for the paper's 12-server testbed (see
//! DESIGN.md §1). The simulation runs the *real* gRouting logic — the actual
//! router, caches, and query executors operate on actual graph data — and
//! only *time* is simulated: every cache probe, storage get, network
//! transfer, and per-record computation charges virtual nanoseconds from an
//! explicit [`CostModel`]. Because the counts are real and the constants
//! explicit, the relative shapes the paper reports (which routing wins, how
//! throughput scales with processors, where cache-size break-evens fall)
//! reproduce without any wall-clock noise, and every run is deterministic.
//!
//! * [`SimAssets`] — preprocessing bundle shared across simulations (graph,
//!   loaded storage tier, landmarks, embedding);
//! * [`SimConfig`] — the shared `grouting_engine::EngineConfig` (the same
//!   cluster shape the wire cluster runs) plus the cost model;
//! * [`simulate`] — the event loop (ack-driven closed loop with a bounded
//!   admission window, per-server FCFS storage contention);
//! * [`SimReport`] — the measurements each run produces, answers included:
//!   the deterministic reference the real-time wire cluster is checked
//!   against (`wire_agreement`, `runtime_agreement`).

mod assets;
mod config;
mod report;
mod runner;

pub use assets::SimAssets;
pub use config::{CostModel, SimConfig};
pub use report::SimReport;
pub use runner::simulate;
