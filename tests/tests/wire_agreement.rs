//! A TCP socket cluster and the in-process engine must agree on routing.
//!
//! The wire deployment (`grouting-wire`) replaces every in-process hop —
//! dispatch, acknowledgement, adjacency fetch — with framed connections,
//! but it drives the *same* engine: same strategy, same admission window,
//! same caches, same byte accounting. With a deterministic scheme (hash
//! routing, stealing off) the two deployments must therefore make
//! identical per-query routing decisions and produce identical cache
//! statistics on the same seeded workload, regardless of socket timing.
//!
//! The wire miss path ships one pipelined batch per storage server per
//! hop where the in-process engine fetches node by node — frontier
//! batching changes how many times the wire is crossed, never what the
//! caches count.

use std::sync::Arc;

use grouting_core::gen::{DatasetProfile, ProfileName};
use grouting_core::graph::CsrGraph;
use grouting_core::live::{run_cluster, run_live, LiveConfig, LiveReport};
use grouting_core::partition::HashPartitioner;
use grouting_core::query::Query;
use grouting_core::route::RoutingKind;
use grouting_core::storage::{Preset, StorageTier};
use grouting_core::wire::TransportKind;
use grouting_core::workload::{hotspot_workload, QueryMix, WorkloadConfig};

fn seeded_setup() -> (Arc<StorageTier>, Vec<Query>) {
    let graph: CsrGraph = DatasetProfile::tiny(ProfileName::WebGraph).generate();
    let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(3))));
    tier.load_graph(&graph).unwrap();
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
    (tier, queries)
}

/// Hash routing with stealing disabled is fully deterministic: the
/// assignment is a pure function of the query node, and each processor
/// serves its own queue in submission order. Both deployments must land on
/// byte-identical routing decisions and cache statistics.
///
/// `overlap: 1` pins the strictly serial processor path: with one query in
/// flight per processor, the staged wire executor replays the exact access
/// sequence of the in-process engine, making cache statistics
/// byte-comparable. (Overlap ≥ 2 interleaves queries over a shared cache,
/// which legally shifts the hit/miss split between them — covered by the
/// overlap-4 test below, which pins answers and routing instead.)
fn deterministic_config() -> LiveConfig {
    LiveConfig {
        processors: 4,
        stealing: false,
        cache_capacity: 8 << 20,
        overlap: 1,
        ..LiveConfig::paper_default(4, RoutingKind::Hash)
    }
}

/// Per-query processor assignments, in sequence order.
fn assignments(report: &LiveReport, queries: usize) -> Vec<usize> {
    let mut by_seq = vec![usize::MAX; queries];
    for r in report.timeline.records() {
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
    let (tier, queries) = seeded_setup();
    let cfg = deterministic_config();

    let inproc = run_live(Arc::clone(&tier), None, None, &queries, &cfg);
    let wired = run_cluster(
        Arc::clone(&tier),
        None,
        None,
        &queries,
        &cfg,
        transport,
        Preset::Local,
    )
    .expect("wire cluster completes");

    // Identical answers…
    assert_eq!(wired.results, inproc.results);
    // …identical per-query routing decisions…
    assert_eq!(
        assignments(&wired, queries.len()),
        assignments(&inproc, queries.len()),
        "routing assignments diverged over {transport}"
    );
    // …and identical cache statistics (hence identical hit rates).
    assert_eq!(
        wired.cache_hits, inproc.cache_hits,
        "hit counts diverged over {transport}"
    );
    assert_eq!(wired.cache_misses, inproc.cache_misses);
    assert_eq!(wired.stolen, 0);
    assert_eq!(inproc.stolen, 0);
    assert!(wired.hit_rate() > 0.0, "workload should produce hits");
}

#[test]
fn batched_tcp_cluster_agrees_with_inproc_engine() {
    // The acceptance gate for `grouting-flow`: frontier-batched fetching
    // over real sockets lands on the same routing assignments and the
    // same hit/miss counts as the in-proc serial engine.
    // `GROUTING_NO_SOCKETS=1` falls back to the in-proc fabric so
    // sandboxes without loopback still exercise the full protocol path.
    assert_agreement(TransportKind::from_env());
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
    // processor must reproduce the in-process engine's routing decisions
    // and answers exactly. (Cache-stat equality is deliberately not
    // asserted here — interleaved queries may split hits/misses between
    // themselves differently; total accesses are pinned by the
    // overlap-pipeline unit tests.)
    let (tier, queries) = seeded_setup();
    let cfg = LiveConfig {
        overlap: 4,
        ..deterministic_config()
    };
    let inproc = run_live(Arc::clone(&tier), None, None, &queries, &cfg);
    let wired = run_cluster(
        Arc::clone(&tier),
        None,
        None,
        &queries,
        &cfg,
        TransportKind::from_env(),
        Preset::Local,
    )
    .expect("overlap-4 wire cluster completes");
    assert_eq!(wired.results, inproc.results);
    assert_eq!(
        assignments(&wired, queries.len()),
        assignments(&inproc, queries.len()),
        "routing assignments diverged at overlap 4"
    );
    assert_eq!(wired.stolen, 0);
}

#[test]
fn prefetching_cluster_agrees_with_prefetch_off_engine() {
    // The speculative-prefetch acceptance gate: with `GROUTING_PREFETCH`
    // semantics on (hotspot policy, default budget) the wire cluster must
    // produce identical answers, identical per-query routing assignments,
    // and identical *demand* cache statistics to the in-process engine
    // running with prefetch off — speculation moves bytes earlier, never
    // what Eq. 8/9 count. The run must also actually speculate (a vacuous
    // pass with zero issued prefetches would prove nothing).
    let (tier, queries) = seeded_setup();
    let off_cfg = deterministic_config();
    let on_cfg = LiveConfig {
        prefetch: grouting_core::query::PrefetchConfig::with_policy(
            grouting_core::query::PrefetchPolicy::Hotspot,
        ),
        // A cache too small to retain the hotspot region: repeat traffic
        // keeps missing, which is exactly where speculation fires.
        cache_capacity: 64 << 10,
        ..off_cfg
    };
    let small_cache_off = LiveConfig {
        cache_capacity: 64 << 10,
        ..off_cfg
    };

    let inproc = run_live(Arc::clone(&tier), None, None, &queries, &small_cache_off);
    let wired = run_cluster(
        Arc::clone(&tier),
        None,
        None,
        &queries,
        &on_cfg,
        TransportKind::from_env(),
        Preset::Local,
    )
    .expect("prefetching wire cluster completes");

    assert_eq!(wired.results, inproc.results);
    assert_eq!(
        assignments(&wired, queries.len()),
        assignments(&inproc, queries.len()),
        "routing assignments diverged under prefetch"
    );
    assert_eq!(
        wired.cache_hits, inproc.cache_hits,
        "demand hit counts diverged under prefetch"
    );
    assert_eq!(wired.cache_misses, inproc.cache_misses);
    assert!(
        wired.prefetch_issued > 0,
        "the run must actually speculate to pin anything"
    );
    assert!(
        wired.prefetch_hits > 0,
        "hotspot repeats must be served from the staging buffer"
    );
    assert_eq!(
        inproc.prefetch_issued, 0,
        "the reference must not speculate"
    );
}

#[test]
fn epoll_and_sweep_backends_agree_byte_for_byte() {
    // The readiness backend (`GROUTING_REACTOR`) decides how the service
    // poll loops *idle* — blocking `epoll_wait` on Linux vs the portable
    // yield/sleep sweep — and must never change what a run computes or
    // counts. Same seeded workload under both backends: identical
    // answers, identical per-query routing assignments, identical demand
    // cache statistics, and (at overlap 1, where execution is strictly
    // serial) an identical speculative-prefetch tally. On non-Linux hosts
    // `epoll` falls back to the sweep backend, making this vacuously true
    // there and a real two-backend comparison on Linux.
    let (tier, queries) = seeded_setup();
    let cfg = LiveConfig {
        prefetch: grouting_core::query::PrefetchConfig::with_policy(
            grouting_core::query::PrefetchPolicy::Hotspot,
        ),
        // Small enough that the hotspot region keeps missing, so the run
        // actually speculates and the prefetch comparison pins something.
        cache_capacity: 64 << 10,
        ..deterministic_config()
    };
    let run_with_backend = |backend: &str| {
        std::env::set_var("GROUTING_REACTOR", backend);
        let report = run_cluster(
            Arc::clone(&tier),
            None,
            None,
            &queries,
            &cfg,
            TransportKind::from_env(),
            Preset::Local,
        )
        .expect("wire cluster completes");
        std::env::remove_var("GROUTING_REACTOR");
        report
    };
    let sweep = run_with_backend("sweep");
    let epoll = run_with_backend("epoll");

    assert_eq!(epoll.results, sweep.results);
    assert_eq!(
        assignments(&epoll, queries.len()),
        assignments(&sweep, queries.len()),
        "routing assignments diverged between reactor backends"
    );
    assert_eq!(
        epoll.cache_hits, sweep.cache_hits,
        "hit counts diverged between reactor backends"
    );
    assert_eq!(epoll.cache_misses, sweep.cache_misses);
    assert_eq!(epoll.stolen, sweep.stolen);
    assert_eq!(
        epoll.prefetch_issued, sweep.prefetch_issued,
        "speculation tallies diverged between reactor backends"
    );
    assert_eq!(epoll.prefetch_hits, sweep.prefetch_hits);
    assert_eq!(epoll.prefetch_wasted_bytes, sweep.prefetch_wasted_bytes);
    assert!(
        sweep.prefetch_issued > 0,
        "the run must actually speculate to pin anything"
    );
}

#[test]
fn tracing_levels_pin_byte_identical_statistics() {
    // The tracing layer is strictly observational: the same seeded
    // workload run with `cfg.trace` at off, stats, and spans must produce
    // identical answers, identical per-query routing assignments, and
    // identical cache and prefetch statistics — tracing watches the run,
    // it never steers it. The traced runs must also actually deliver a
    // trace (non-empty per-stage histograms covering every query, reactor
    // frame counts, and — at spans level — a non-empty span ring), while
    // the untraced run carries none at all, keeping its frames
    // byte-identical to the pre-tracing protocol.
    use grouting_core::trace::{Stage, TraceLevel};
    let (tier, queries) = seeded_setup();
    let run_at = |level: TraceLevel| {
        let cfg = LiveConfig {
            trace: level,
            prefetch: grouting_core::query::PrefetchConfig::with_policy(
                grouting_core::query::PrefetchPolicy::Hotspot,
            ),
            // Small enough that the run actually speculates, so the
            // prefetch-tally comparison pins something real.
            cache_capacity: 64 << 10,
            ..deterministic_config()
        };
        run_cluster(
            Arc::clone(&tier),
            None,
            None,
            &queries,
            &cfg,
            TransportKind::from_env(),
            Preset::Local,
        )
        .expect("traced wire cluster completes")
    };
    let off = run_at(TraceLevel::Off);
    let stats = run_at(TraceLevel::Stats);
    let spans = run_at(TraceLevel::Spans);

    for (level, traced) in [("stats", &stats), ("spans", &spans)] {
        assert_eq!(traced.results, off.results, "answers diverged at {level}");
        assert_eq!(
            assignments(traced, queries.len()),
            assignments(&off, queries.len()),
            "routing assignments diverged at {level}"
        );
        assert_eq!(
            traced.cache_hits, off.cache_hits,
            "hit counts diverged at {level}"
        );
        assert_eq!(traced.cache_misses, off.cache_misses);
        assert_eq!(traced.stolen, off.stolen);
        assert_eq!(
            traced.prefetch_issued, off.prefetch_issued,
            "speculation tallies diverged at {level}"
        );
        assert_eq!(traced.prefetch_hits, off.prefetch_hits);
        assert_eq!(traced.prefetch_wasted_bytes, off.prefetch_wasted_bytes);
    }
    assert!(
        off.prefetch_issued > 0,
        "the run must actually speculate to pin anything"
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
    use grouting_core::engine::EngineAssets;
    use grouting_core::wire::{launch_cluster, ClusterConfig, ClusterRun, ObsConfig};
    let (tier, queries) = seeded_setup();
    let cfg = deterministic_config();
    let run_with = |transport: TransportKind, obs: ObsConfig| -> ClusterRun {
        let assets = EngineAssets::new(Arc::clone(&tier));
        let cluster_cfg = ClusterConfig::new(cfg.engine_config(), transport).with_obs(obs);
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
        metrics_addr: (TransportKind::from_env() == TransportKind::Tcp)
            .then(|| "127.0.0.1:0".to_string()),
        dump: true,
        sample_every_ns: 1,
    };

    for transport in [TransportKind::from_env(), TransportKind::InProc] {
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
    let (tier, queries) = seeded_setup();
    let cfg = LiveConfig {
        stealing: false,
        ..LiveConfig::paper_default(3, RoutingKind::NoCache)
    };
    let wired = run_cluster(
        Arc::clone(&tier),
        None,
        None,
        &queries,
        &cfg,
        TransportKind::from_env(),
        Preset::Local,
    )
    .expect("wire cluster completes");
    let inproc = run_live(tier, None, None, &queries, &cfg);
    assert_eq!(wired.cache_hits, 0);
    assert_eq!(inproc.cache_hits, 0);
    assert_eq!(wired.cache_misses, inproc.cache_misses);
    assert_eq!(wired.results, inproc.results);
}

#[test]
fn stealing_over_the_wire_still_answers_identically() {
    // With stealing on, *assignments* may legally differ between
    // deployments (they depend on real-time idleness), but answers and
    // total work conservation may not.
    let (tier, queries) = seeded_setup();
    let cfg = LiveConfig {
        cache_capacity: 8 << 20,
        ..LiveConfig::paper_default(4, RoutingKind::Hash)
    };
    let wired = run_cluster(
        Arc::clone(&tier),
        None,
        None,
        &queries,
        &cfg,
        TransportKind::from_env(),
        Preset::Local,
    )
    .expect("wire cluster completes");
    let inproc = run_live(tier, None, None, &queries, &cfg);
    assert_eq!(wired.results, inproc.results);
    assert_eq!(wired.timeline.len(), queries.len());
}
