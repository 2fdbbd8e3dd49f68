//! Chaos scripts: a wire workload that survives scripted node deaths.
//!
//! A [`ChaosScript`] is a workload in *waves*, with [`ChaosAction`]s at
//! the wave boundaries — killing and restarting processors and storage
//! endpoints mid-run while the client keeps collecting answers.
//! [`crate::cluster::launch_chaos_cluster`] runs one on the same launcher
//! every wire run uses (a plain [`crate::cluster::launch_cluster`]
//! workload is a one-wave script with no actions), so a chaos run honours
//! tracing and observability like any other. Every kill is a real death:
//! a storage endpoint's reactor stops and its listener closes (subsequent
//! dials are refused, live connections drop); a processor exits its loop
//! and its router connection closes, exactly as a crash would look from
//! the wire.
//!
//! Determinism contract: a wave fully drains before its actions run, so
//! processor kills happen with an empty outstanding window, and a killed
//! processor is only declared restarted once the router has acknowledged
//! its re-join (a [`Frame::MetricsRequest`] pipelined behind the hello on
//! the same connection — frames on one connection are handled in order).
//! Storage kills surface at the next wave's fetches, which fail over along
//! the tier's replica chain and return byte-identical payloads. Under a
//! deterministic routing scheme (hash, no stealing) a chaos run therefore
//! reproduces the fault-free run's answers and demand statistics exactly —
//! pinned by `tests/tests/chaos.rs` — while the failover counters in the
//! final [`RunSnapshot`] account for every recovery.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grouting_metrics::RunSnapshot;
use grouting_query::Query;

use crate::cluster::Fleet;
use crate::error::{WireError, WireResult};
use crate::frame::Frame;
use crate::transport::Connection;

/// How long the harness waits for a restarted processor's re-join to be
/// acknowledged before declaring the restart failed.
const REJOIN_TIMEOUT: Duration = Duration::from_secs(10);

/// One scripted failure or recovery, executed between waves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Stop processor `id` and join its thread: its router connection
    /// closes, the router marks it down. Killing a processor that is
    /// already down is a script error.
    KillProcessor(usize),
    /// Respawn processor `id` (same id, cold cache) and block until the
    /// router has acknowledged the re-join — the next wave is routed with
    /// the processor back in rotation.
    RestartProcessor(usize),
    /// Shut storage endpoint `server` down: its listener closes and every
    /// connection to it drops. Fetches homed there fail over along the
    /// replica chain (fatal if the tier has no replication).
    KillStorage(usize),
    /// Respawn storage endpoint `server` at the address it announced at
    /// launch — peers recover it with the addresses they already hold.
    RestartStorage(usize),
}

/// One wave of a chaos script: queries to submit, then actions to execute
/// once they have all completed. A wave without actions is not drained:
/// the next wave's queries follow its own straight away.
#[derive(Debug, Clone, Default)]
pub struct ChaosWave {
    /// Queries submitted (and completed) before `after` runs.
    pub queries: Vec<Query>,
    /// Actions executed once every query of this wave has completed.
    pub after: Vec<ChaosAction>,
}

/// A scripted kill/restart schedule interleaved with a workload.
#[derive(Debug, Clone, Default)]
pub struct ChaosScript {
    /// The waves, in submission order.
    pub waves: Vec<ChaosWave>,
}

impl ChaosScript {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a wave of queries (no actions yet).
    #[must_use]
    pub fn wave(mut self, queries: Vec<Query>) -> Self {
        self.waves.push(ChaosWave {
            queries,
            after: Vec::new(),
        });
        self
    }

    /// Appends an action to the most recent wave.
    ///
    /// # Panics
    ///
    /// Panics if no wave has been added yet.
    #[must_use]
    pub fn then(mut self, action: ChaosAction) -> Self {
        self.waves
            .last_mut()
            .expect("ChaosScript::then needs a wave first")
            .after
            .push(action);
        self
    }

    /// Total number of queries across all waves.
    pub fn query_count(&self) -> usize {
        self.waves.iter().map(|w| w.queries.len()).sum()
    }

    /// The same waves with every action stripped — the fault-free
    /// comparison run a chaos run must agree with.
    #[must_use]
    pub fn fault_free(&self) -> Self {
        Self {
            waves: self
                .waves
                .iter()
                .map(|w| ChaosWave {
                    queries: w.queries.clone(),
                    after: Vec::new(),
                })
                .collect(),
        }
    }
}

/// Executes one scripted action against the running `fleet`, between
/// waves: `conn` is the client's router connection, which carries the
/// kill barrier (its reply lands in `snapshots`).
pub(crate) fn apply_action(
    action: ChaosAction,
    conn: &mut Connection,
    fleet: &mut Fleet<'_>,
    snapshots: &mut Vec<RunSnapshot>,
) -> WireResult<()> {
    let script_err = |what: String| Err(WireError::Protocol(format!("chaos script: {what}")));
    match action {
        ChaosAction::KillProcessor(id) => {
            let Some(slot) = fleet.procs.get_mut(id).and_then(Option::take) else {
                return script_err(format!("processor {id} is not running"));
            };
            slot.stop.store(true, Ordering::SeqCst);
            // A processor stopped between frames exits cleanly; one caught
            // mid-exchange may surface an error — either way it is dead.
            let _ = slot.join.join();
            // Barrier: one metrics round trip guarantees the router has
            // polled (and fully processed) the dead peer's closed stream
            // before any restart can re-dial under the same id. The poll
            // that delivered our request had the closure ready too, and
            // the router drains a poll batch completely before polling
            // again.
            conn.send(&Frame::MetricsRequest)?;
            match conn.recv()? {
                Frame::Metrics { snapshot, .. } => snapshots.push(snapshot),
                other => {
                    return Err(WireError::Protocol(format!(
                        "client got {} awaiting the kill barrier",
                        other.kind()
                    )))
                }
            }
            Ok(())
        }
        ChaosAction::RestartProcessor(id) => {
            if fleet.procs.get(id).is_none_or(Option::is_some) {
                return script_err(format!("processor {id} is not down"));
            }
            let ready = Arc::new(AtomicBool::new(false));
            let slot = (fleet.spawn_proc)(id, Some(Arc::clone(&ready)));
            let deadline = Instant::now() + REJOIN_TIMEOUT;
            while !ready.load(Ordering::SeqCst) {
                if Instant::now() > deadline {
                    return Err(WireError::Protocol(format!(
                        "restarted processor {id} never re-joined"
                    )));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            fleet.procs[id] = Some(slot);
            Ok(())
        }
        ChaosAction::KillStorage(server) => {
            let Some(handle) = fleet.storage.get_mut(server).and_then(Option::take) else {
                return script_err(format!("storage {server} is not running"));
            };
            handle.shutdown();
            Ok(())
        }
        ChaosAction::RestartStorage(server) => {
            if fleet.storage.get(server).is_none_or(Option::is_some) {
                return script_err(format!("storage {server} is not down"));
            }
            fleet.storage[server] = Some((fleet.restart_storage)(server)?);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{launch_chaos_cluster, ClusterConfig, TransportKind};
    use crate::transport::RetryPolicy;
    use grouting_engine::{EngineAssets, EngineConfig};
    use grouting_graph::{GraphBuilder, NodeId};
    use grouting_route::RoutingKind;
    use grouting_storage::HashPartitioner;
    use grouting_storage::StorageTier;
    use grouting_trace::{Stage, TraceLevel};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Disjoint 5-node star components: queries anchored in different
    /// components share no adjacency records, so demand statistics are
    /// invariant to cache restarts and query placement.
    fn disjoint_tier(components: u32, servers: usize, replication: usize) -> Arc<StorageTier> {
        let mut b = GraphBuilder::new();
        for c in 0..components {
            let base = c * 8;
            for leaf in 1..5 {
                b.add_edge(n(base), n(base + leaf));
            }
        }
        let g = b.build().unwrap();
        let tier = Arc::new(StorageTier::with_replication(
            Arc::new(HashPartitioner::new(servers)),
            grouting_storage::log::DEFAULT_SEGMENT_BYTES,
            replication,
        ));
        tier.load_graph(&g).unwrap();
        tier
    }

    fn wave(range: std::ops::Range<u32>) -> Vec<Query> {
        range
            .map(|c| Query::NeighborAggregation {
                node: n(c * 8),
                hops: 1,
                label: None,
            })
            .collect()
    }

    fn chaos_config() -> ClusterConfig {
        let engine = EngineConfig {
            stealing: false,
            cache_capacity: 4 << 20,
            ..EngineConfig::paper_default(2, RoutingKind::Hash)
        };
        ClusterConfig {
            retry: Some(RetryPolicy::new(2, Duration::from_millis(1))),
            ..ClusterConfig::new(engine, TransportKind::InProc)
        }
    }

    /// One storage endpoint and one processor die and come back.
    fn kill_everything_once() -> ChaosScript {
        ChaosScript::new()
            .wave(wave(0..8))
            .then(ChaosAction::KillStorage(0))
            .wave(wave(8..16))
            .then(ChaosAction::RestartStorage(0))
            .then(ChaosAction::KillProcessor(1))
            .then(ChaosAction::RestartProcessor(1))
            .wave(wave(16..24))
    }

    #[test]
    fn kill_everything_once_batched() {
        let tier = disjoint_tier(24, 2, 2);
        let assets = EngineAssets::new(tier);
        let script = kill_everything_once();
        let config = chaos_config();
        let chaos = launch_chaos_cluster(&assets, &script, &config).unwrap();
        let calm = launch_chaos_cluster(&assets, &script.fault_free(), &config).unwrap();
        assert_eq!(chaos.results, calm.results);
        assert_eq!(chaos.snapshot.cache_hits, calm.snapshot.cache_hits);
        assert_eq!(chaos.snapshot.cache_misses, calm.snapshot.cache_misses);
        assert_eq!(chaos.snapshot.per_processor, calm.snapshot.per_processor);
        assert!(
            chaos.snapshot.replica_failovers > 0,
            "storage kill must fail over"
        );
        assert_eq!(calm.snapshot.replica_failovers, 0);
        assert_eq!(calm.snapshot.windows_resubmitted, 0);
        // Clean kills: the processor died with an empty dispatch window.
        assert_eq!(chaos.snapshot.windows_resubmitted, 0);
        assert!(chaos.trace.is_none());
    }

    #[test]
    fn traced_chaos_run_reports_its_trace() {
        let assets = EngineAssets::new(disjoint_tier(24, 2, 2));
        let script = kill_everything_once();
        let traced = ClusterConfig {
            trace: TraceLevel::Stats,
            ..chaos_config()
        };
        let chaos = launch_chaos_cluster(&assets, &script, &traced).unwrap();
        let calm = launch_chaos_cluster(&assets, &script.fault_free(), &chaos_config()).unwrap();
        let trace = chaos
            .trace
            .as_ref()
            .expect("a traced run reports its trace");
        for stage in [Stage::RouterQueue, Stage::DispatchRtt, Stage::Completion] {
            assert_eq!(
                trace.stages.stage(stage).count(),
                script.query_count() as u64,
                "{stage:?}"
            );
        }
        assert!(trace.reactor.frames_in > 0);
        assert_eq!(chaos.results, calm.results);
        assert_eq!(chaos.snapshot.cache_hits, calm.snapshot.cache_hits);
        assert_eq!(chaos.snapshot.cache_misses, calm.snapshot.cache_misses);
        assert_eq!(chaos.snapshot.per_processor, calm.snapshot.per_processor);
    }

    #[test]
    fn script_errors_name_the_bad_action() {
        let tier = disjoint_tier(4, 2, 2);
        let assets = EngineAssets::new(tier);
        let script = ChaosScript::new()
            .wave(wave(0..4))
            .then(ChaosAction::RestartStorage(0));
        let err = launch_chaos_cluster(&assets, &script, &chaos_config()).unwrap_err();
        assert!(
            err.to_string().contains("storage 0 is not down"),
            "got {err}"
        );
    }
}
