//! A TCP socket cluster and the simulator must agree on routing.
//!
//! The wire deployment (`grouting-wire`) replaces every in-process hop —
//! dispatch, acknowledgement, adjacency fetch — with framed connections,
//! but it drives the *same* engine as the simulator (`grouting-sim`):
//! same strategy, same admission window, same caches, same byte
//! accounting. With a deterministic scheme (hash routing, stealing off)
//! the two must therefore make identical per-query routing decisions and
//! produce identical cache statistics on the same seeded workload,
//! regardless of socket timing.
//!
//! The wire miss path ships one pipelined batch per storage server per
//! hop where the simulator's workers fetch from the tier directly —
//! frontier batching changes how many times the wire is crossed, never
//! what the caches count.

use std::sync::Arc;

use grouting_core::engine::EngineConfig;
use grouting_core::gen::{DatasetProfile, ProfileName};
use grouting_core::metrics::Timeline;
use grouting_core::query::Query;
use grouting_core::route::RoutingKind;
use grouting_core::sim::{simulate, CostModel, SimAssets, SimConfig, SimReport};
use grouting_core::wire::{launch_cluster, ClusterConfig, ClusterRun, TransportKind};
use grouting_core::workload::{hotspot_workload, QueryMix, WorkloadConfig};

fn seeded_setup() -> (SimAssets, Vec<Query>) {
    let graph = Arc::new(DatasetProfile::tiny(ProfileName::WebGraph).generate());
    let queries = hotspot_workload(
        &graph,
        &WorkloadConfig {
            hotspots: 8,
            per_hotspot: 8,
            radius: 2,
            hops: 2,
            mix: QueryMix::uniform(),
            restart_prob: 0.15,
            seed: 41,
        },
    )
    .queries;
    (SimAssets::paper_defaults(graph, 3), queries)
}

/// The in-process reference: the deterministic simulator on `engine`.
fn reference(assets: &SimAssets, queries: &[Query], engine: EngineConfig) -> SimReport {
    let config = SimConfig {
        engine,
        cost: CostModel::infiniband(),
    };
    simulate(assets, queries, &config)
}

/// The deployment under test, over the reference's storage tier.
fn wire(assets: &SimAssets, queries: &[Query], config: &ClusterConfig) -> ClusterRun {
    launch_cluster(&assets.engine_assets(), queries, config).expect("wire cluster completes")
}

/// Hash routing with stealing disabled is fully deterministic: the
/// assignment is a pure function of the query node, and each processor
/// serves its own queue in submission order. Both deployments must land on
/// byte-identical routing decisions and cache statistics.
///
/// `overlap: 1` pins the strictly serial processor path: with one query in
/// flight per processor, the staged wire executor replays the exact access
/// sequence of the simulator's workers, making cache statistics
/// byte-comparable. (Overlap ≥ 2 interleaves queries over a shared cache,
/// which legally shifts the hit/miss split between them — covered by the
/// overlap-4 test below, which pins answers and routing instead.)
fn deterministic_config() -> EngineConfig {
    EngineConfig {
        processors: 4,
        stealing: false,
        cache_capacity: 8 << 20,
        overlap: 1,
        ..EngineConfig::paper_default(4, RoutingKind::Hash)
    }
}

/// TCP sockets, or the in-proc fabric where `GROUTING_NO_SOCKETS=1` says
/// the sandbox has no loopback. Every other deployment knob stays at
/// `ClusterConfig::new`'s hermetic default.
fn env_transport() -> TransportKind {
    ClusterConfig::from_env(deterministic_config()).transport
}

/// Per-query processor assignments, in sequence order.
fn assignments(timeline: &Timeline, queries: usize) -> Vec<usize> {
    let mut by_seq = vec![usize::MAX; queries];
    for r in timeline.records() {
        assert_eq!(by_seq[r.seq as usize], usize::MAX, "duplicate completion");
        by_seq[r.seq as usize] = r.processor;
    }
    assert!(
        by_seq.iter().all(|&p| p != usize::MAX),
        "every query must complete"
    );
    by_seq
}

fn assert_agreement(transport: TransportKind) {
    let (assets, queries) = seeded_setup();
    let cfg = deterministic_config();

    let sim = reference(&assets, &queries, cfg);
    let wired = wire(&assets, &queries, &ClusterConfig::new(cfg, transport));

    // Identical answers…
    assert_eq!(wired.results, sim.results);
    // …identical per-query routing decisions…
    assert_eq!(
        assignments(&wired.timeline, queries.len()),
        assignments(&sim.timeline, queries.len()),
        "routing assignments diverged over {transport}"
    );
    // …and identical cache statistics (hence identical hit rates).
    assert_eq!(
        wired.snapshot.cache_hits, sim.cache_hits,
        "hit counts diverged over {transport}"
    );
    assert_eq!(wired.snapshot.cache_misses, sim.cache_misses);
    assert_eq!(wired.snapshot.stolen, 0);
    assert_eq!(sim.stolen, 0);
    assert!(wired.hit_rate() > 0.0, "workload should produce hits");
}

#[test]
fn batched_tcp_cluster_agrees_with_inproc_engine() {
    // The acceptance gate for `grouting-flow`: frontier-batched fetching
    // over real sockets lands on the same routing assignments and the
    // same hit/miss counts as the simulator's serial workers.
    // `GROUTING_NO_SOCKETS=1` falls back to the in-proc fabric so
    // sandboxes without loopback still exercise the full protocol path.
    assert_agreement(env_transport());
}

#[test]
fn batched_inproc_fabric_agrees_with_inproc_engine() {
    assert_agreement(TransportKind::InProc);
}

#[test]
fn overlap4_cluster_matches_assignments_and_results() {
    // Cross-query fetch overlap must never change WHAT is computed or
    // WHERE: with hash routing and stealing off, the assignment is a pure
    // function of the query node, so even four queries in flight per
    // processor must reproduce the simulator's routing decisions and
    // answers exactly. (Cache-stat equality is deliberately not asserted
    // here — interleaved queries may split hits/misses between themselves
    // differently; total accesses are pinned by the overlap-pipeline unit
    // tests.)
    let (assets, queries) = seeded_setup();
    let cfg = EngineConfig {
        overlap: 4,
        ..deterministic_config()
    };
    let sim = reference(&assets, &queries, cfg);
    let wired = wire(&assets, &queries, &ClusterConfig::new(cfg, env_transport()));
    assert_eq!(wired.results, sim.results);
    assert_eq!(
        assignments(&wired.timeline, queries.len()),
        assignments(&sim.timeline, queries.len()),
        "routing assignments diverged at overlap 4"
    );
    assert_eq!(wired.snapshot.stolen, 0);
}

#[test]
fn tcp_and_unix_fabrics_agree_byte_for_byte() {
    // The two fabrics: loopback TCP and the in-proc Unix-domain sockets,
    // both epoll-tracked. Which socket carries the frames must never
    // change what a run computes or counts. Same seeded workload over
    // both: identical answers, identical per-query routing assignments,
    // identical demand cache statistics, and (at overlap 1, where
    // execution is strictly serial) identical per-partition heat. Under
    // `GROUTING_NO_SOCKETS=1` this compares the Unix fabric with itself.
    // (`unix` names the in-proc run, `chosen` the run over the
    // environment's fabric.)
    let (assets, queries) = seeded_setup();
    let cfg = EngineConfig {
        // Small enough that the hotspot region keeps missing, so the heat
        // comparison pins many misses per partition.
        cache_capacity: 64 << 10,
        ..deterministic_config()
    };
    let run_over =
        |transport: TransportKind| wire(&assets, &queries, &ClusterConfig::new(cfg, transport));
    let unix = run_over(TransportKind::InProc);
    let chosen = run_over(env_transport());

    assert_eq!(chosen.results, unix.results);
    assert_eq!(
        assignments(&chosen.timeline, queries.len()),
        assignments(&unix.timeline, queries.len()),
        "routing assignments diverged between fabrics"
    );
    assert_eq!(
        chosen.snapshot.cache_hits, unix.snapshot.cache_hits,
        "hit counts diverged between fabrics"
    );
    assert_eq!(chosen.snapshot.cache_misses, unix.snapshot.cache_misses);
    assert_eq!(chosen.snapshot.stolen, unix.snapshot.stolen);
    assert_eq!(
        chosen.snapshot.partition_heat, unix.snapshot.partition_heat,
        "partition heat diverged between fabrics"
    );
    assert!(
        unix.snapshot.partition_heat.total_demand() > 0,
        "the run must actually miss to pin anything"
    );
}

#[test]
fn tracing_levels_pin_byte_identical_statistics() {
    // The tracing layer is strictly observational: the same seeded
    // workload run with `ClusterConfig::trace` at off, stats, and spans must produce
    // identical answers, identical per-query routing assignments, and
    // identical cache statistics and partition heat — tracing watches the run,
    // it never steers it. The traced runs must also actually deliver a
    // trace (non-empty per-stage histograms covering every query, reactor
    // frame counts, and — at spans level — a non-empty span ring), while
    // the untraced run carries none at all, keeping its frames
    // byte-identical to the pre-tracing protocol.
    use grouting_core::trace::{Stage, TraceLevel};
    let (assets, queries) = seeded_setup();
    let run_at = |level: TraceLevel| {
        let cfg = EngineConfig {
            // Small enough that the run keeps missing, so the heat
            // comparison pins something real.
            cache_capacity: 64 << 10,
            ..deterministic_config()
        };
        let config = ClusterConfig {
            trace: level,
            ..ClusterConfig::new(cfg, env_transport())
        };
        wire(&assets, &queries, &config)
    };
    let off = run_at(TraceLevel::Off);
    let stats = run_at(TraceLevel::Stats);
    let spans = run_at(TraceLevel::Spans);

    for (level, traced) in [("stats", &stats), ("spans", &spans)] {
        assert_eq!(traced.results, off.results, "answers diverged at {level}");
        assert_eq!(
            assignments(&traced.timeline, queries.len()),
            assignments(&off.timeline, queries.len()),
            "routing assignments diverged at {level}"
        );
        assert_eq!(
            traced.snapshot.cache_hits, off.snapshot.cache_hits,
            "hit counts diverged at {level}"
        );
        assert_eq!(traced.snapshot.cache_misses, off.snapshot.cache_misses);
        assert_eq!(traced.snapshot.stolen, off.snapshot.stolen);
        assert_eq!(
            traced.snapshot.partition_heat, off.snapshot.partition_heat,
            "partition heat diverged at {level}"
        );
    }
    assert!(
        off.snapshot.partition_heat.total_demand() > 0,
        "the run must actually miss to pin anything"
    );

    assert!(off.trace.is_none(), "untraced run must carry no trace");
    let st = stats.trace.as_ref().expect("stats run returns a trace");
    assert_eq!(st.level, TraceLevel::Stats);
    for stage in [Stage::RouterQueue, Stage::DispatchRtt, Stage::Completion] {
        assert_eq!(
            st.stages.stage(stage).count(),
            queries.len() as u64,
            "{stage} histogram must cover every query"
        );
    }
    assert!(st.spans.is_empty(), "stats level records no spans");
    assert!(
        st.reactor.frames_in > 0,
        "reactor telemetry must tally frames"
    );
    assert!(st.reactor.frames_out > 0);
    let sp = spans.trace.as_ref().expect("spans run returns a trace");
    assert_eq!(sp.level, TraceLevel::Spans);
    assert!(!sp.spans.is_empty(), "spans level captures query spans");
    assert!(!sp.stages.is_empty());
}

#[test]
fn observability_pins_byte_identical_statistics() {
    // The observability layer is strictly observational: the same seeded
    // workload with the sampler hammering every poll round (plus a live
    // scrape endpoint where the sandbox has sockets) must produce a
    // byte-identical run — same answers, same routing assignments, same
    // full `RunSnapshot` including the workload heatmaps — as a run with
    // observability off. Heat counters are deterministic demand
    // accounting, NOT sampling artifacts, so they too must match exactly.
    use grouting_core::wire::ObsConfig;
    let (assets, queries) = seeded_setup();
    let assets = assets.engine_assets();
    let cfg = deterministic_config();
    let run_with = |transport: TransportKind, obs: ObsConfig| -> ClusterRun {
        let cluster_cfg = ClusterConfig {
            obs,
            ..ClusterConfig::new(cfg, transport)
        };
        let observed = cluster_cfg.obs.enabled();
        launch_cluster(&assets, &queries, &cluster_cfg).unwrap_or_else(|e| {
            panic!("cluster over {transport} (observability on: {observed}) failed: {e}")
        })
    };
    // `sample_every_ns: 1` makes every service poll round a sampling
    // tick — the most intrusive cadence possible. The dump flag enables
    // the sampler even where no socket endpoint can bind; on a
    // socket-capable host the router additionally serves a live scrape
    // endpoint on an ephemeral port while the run executes.
    let sampled = ObsConfig {
        metrics_addr: (env_transport() == TransportKind::Tcp).then(|| "127.0.0.1:0".to_string()),
        dump: true,
        sample_every_ns: 1,
    };

    for transport in [env_transport(), TransportKind::InProc] {
        let off = run_with(transport, ObsConfig::disabled());
        let on = run_with(transport, sampled.clone());
        assert_eq!(
            on.results, off.results,
            "answers diverged under observability over {transport}"
        );
        assert_eq!(
            on.snapshot, off.snapshot,
            "run snapshot diverged under observability over {transport}"
        );
        // Completion order is wall-clock timing; the per-seq assignment is
        // the deterministic contract.
        let by_seq = |run: &ClusterRun| {
            let mut assigned = vec![usize::MAX; queries.len()];
            for r in run.timeline.records() {
                assigned[r.seq as usize] = r.processor;
            }
            assigned
        };
        assert_eq!(
            by_seq(&on),
            by_seq(&off),
            "routing assignments diverged under observability over {transport}"
        );
        // The pinned snapshot must carry real heat, or the heat half of
        // the equality proves nothing.
        assert!(
            off.snapshot.partition_heat.total_demand() > 0,
            "workload must produce demand heat"
        );
        assert_eq!(
            off.snapshot.partition_heat.total_demand(),
            off.snapshot.cache_misses,
            "partition heat counts exactly the demand misses"
        );
    }
}

#[test]
fn no_cache_scheme_has_zero_hits_over_the_wire() {
    let (assets, queries) = seeded_setup();
    let cfg = EngineConfig {
        stealing: false,
        ..EngineConfig::paper_default(3, RoutingKind::NoCache)
    };
    let wired = wire(&assets, &queries, &ClusterConfig::new(cfg, env_transport()));
    let sim = reference(&assets, &queries, cfg);
    assert_eq!(wired.snapshot.cache_hits, 0);
    assert_eq!(sim.cache_hits, 0);
    assert_eq!(wired.snapshot.cache_misses, sim.cache_misses);
    assert_eq!(wired.results, sim.results);
}

#[test]
fn stealing_over_the_wire_still_answers_identically() {
    // With stealing on, *assignments* may legally differ between
    // deployments (they depend on real-time idleness), but answers and
    // total work conservation may not.
    let (assets, queries) = seeded_setup();
    let cfg = EngineConfig {
        cache_capacity: 8 << 20,
        ..EngineConfig::paper_default(4, RoutingKind::Hash)
    };
    let wired = wire(&assets, &queries, &ClusterConfig::new(cfg, env_transport()));
    let sim = reference(&assets, &queries, cfg);
    assert_eq!(wired.results, sim.results);
    assert_eq!(wired.timeline.len(), queries.len());
}
