//! Counted costs: allocations per query, pinned.
//!
//! A timing on a shared 2-vCPU host drifts from one set of runs to the
//! next by more than most changes move it; a count does not. This binary
//! installs a counting allocator (per thread, so parallel tests do not
//! mix) and pins how often each query kind allocates through both drivers
//! of `StagedQuery`: the serial `Executor::run` and the processor's
//! `QueryPipeline` at window 2 over a seam that lands every fetch at once.
//!
//! * A warm query, every access a cache hit, allocates nothing once its
//!   driver's scratch has grown to the stream: the pin is 0.
//! * A cold query, every access a miss, allocates for what travels (the
//!   miss set, the payloads, the decoded records, the miss log). Its pins
//!   are upper bounds at the count the code reads now: lowering one is a
//!   change that says so, and raising one fails here.
//!
//! Each pass is counted twice and must read the same count both times.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use grouting_core::cache::{LruCache, NullCache};
use grouting_core::gen::labels::{assign_labels, LabelConfig};
use grouting_core::gen::{DatasetProfile, ProfileName};
use grouting_core::graph::{NodeId, NodeLabelId};
use grouting_core::query::{Executor, ProcessorCache, Query};
use grouting_core::storage::{HashPartitioner, StorageTier};
use grouting_core::wire::{BatchPayloads, FetchSeam, QueryPipeline, WireResult};
use grouting_core::workload::{hotspot_workload, QueryMix, WorkloadConfig};

/// Counts every allocation and reallocation on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // A thread being torn down may allocate after its counter is gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator with its arguments
// unchanged, so the caller's guarantees are the system allocator's; the
// count touches only a thread-local cell, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for the impl.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for the impl.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as for the impl; `ptr` came from this allocator, which is
        // the system's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// How many times `f` allocated on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The five query kinds, in the order of every pin below.
const KINDS: [&str; 5] = [
    "aggregation",
    "labelled aggregation",
    "walk",
    "reachability",
    "constrained reachability",
];

/// Queries per kind and pass.
const QUERIES: usize = 64;

/// Allocations of one pass of a kind's all-miss queries through
/// `Executor::run`, in [`KINDS`] order: upper bounds. A missed record
/// costs its slab and its `Arc`; the rest is per ask (the tier's reader
/// sessions and its answer vector) and per query (the executor's miss
/// log, which each pass takes).
const COLD_SERIAL: [u64; 5] = [88_714, 88_714, 1_796, 3_520, 4_944];

/// The same through `QueryPipeline` at window 2: upper bounds. Here the
/// seam's two vectors are the per-ask part, and the pipeline reads each
/// query's miss log in place.
const COLD_PIPELINE: [u64; 5] = [88_650, 88_650, 1_732, 3_456, 4_880];

/// The tiny WebGraph with node labels, loaded into a three-server tier.
fn tier() -> Arc<StorageTier> {
    let graph = DatasetProfile::tiny(ProfileName::WebGraph).generate();
    let graph = assign_labels(&graph, &LabelConfig::default(), 41);
    let tier = StorageTier::new(Arc::new(HashPartitioner::new(3)));
    tier.load_graph(&graph).unwrap();
    Arc::new(tier)
}

/// Kind `kind`'s 64 queries, anchored where `wire_agreement`'s hotspot
/// stream is (eight hotspots, radius 2, seed 41).
fn queries(kind: usize) -> Vec<Query> {
    let graph = DatasetProfile::tiny(ProfileName::WebGraph).generate();
    let anchors: Vec<_> = hotspot_workload(
        &graph,
        &WorkloadConfig {
            hotspots: 8,
            per_hotspot: QUERIES / 8,
            radius: 2,
            hops: 2,
            mix: QueryMix {
                aggregation: 1.0,
                random_walk: 0.0,
                reachability: 0.0,
            },
            restart_prob: 0.15,
            seed: 41,
        },
    )
    .queries
    .into_iter()
    .map(|q| match q {
        Query::NeighborAggregation { node, .. } => node,
        other => panic!("an aggregation-only mix made {other:?}"),
    })
    .collect();
    let label = NodeLabelId::new(1);
    (0..QUERIES)
        .map(|i| {
            let (node, other) = (anchors[i], anchors[(i + 1) % QUERIES]);
            match kind {
                0 => Query::NeighborAggregation {
                    node,
                    hops: 2,
                    label: None,
                },
                1 => Query::NeighborAggregation {
                    node,
                    hops: 2,
                    label: Some(label),
                },
                2 => Query::RandomWalk {
                    node,
                    steps: 8,
                    restart_prob: 0.15,
                    seed: i as u64,
                },
                3 => Query::Reachability {
                    source: node,
                    target: other,
                    hops: 3,
                },
                _ => Query::ConstrainedReachability {
                    source: node,
                    target: other,
                    hops: 3,
                    via_label: label,
                },
            }
        })
        .collect()
}

/// A 64 MiB LRU: holds the whole tiny graph.
fn roomy() -> ProcessorCache {
    Box::new(LruCache::new(64 << 20))
}

/// Runs `queries` through one executor four times and counts the last
/// two passes, after its scratch has grown in the first two; with `hits`,
/// every access of the counted passes must hit.
fn serial_passes(
    tier: &StorageTier,
    cache: &mut ProcessorCache,
    queries: &[Query],
    hits: bool,
) -> [u64; 2] {
    let mut executor = Executor::new(tier, cache);
    let pass = |executor: &mut Executor<'_, &StorageTier>| {
        allocations(|| {
            for q in queries {
                let out = executor.run(q);
                assert!(
                    !hits || out.stats.cache_misses == 0,
                    "{q:?} missed: {out:?}"
                );
                drop(executor.take_miss_log());
            }
        })
    };
    pass(&mut executor);
    pass(&mut executor);
    [pass(&mut executor), pass(&mut executor)]
}

/// A seam over the tier whose fetches land at once: each fetch handle
/// holds its own nodes, so the seam keeps nothing between fetches.
struct LandingSeam<'a> {
    tier: &'a StorageTier,
    clock: u64,
}

impl FetchSeam for LandingSeam<'_> {
    type Fetch = Vec<NodeId>;

    fn submit_frontier(&mut self, nodes: &[NodeId]) -> Self::Fetch {
        nodes.to_vec()
    }

    fn try_collect(&mut self, fetch: &mut Self::Fetch) -> WireResult<Option<BatchPayloads>> {
        let payloads = fetch
            .iter()
            .map(|&v| {
                self.tier
                    .get(v)
                    .map(|(server, bytes)| (server as u16, bytes))
            })
            .collect();
        Ok(Some(payloads))
    }

    fn clock_ns(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// [`serial_passes`] through a `QueryPipeline` at window 2, each pass
/// pushing every query and stepping until the pipeline is idle. Which
/// scratch a query draws depends on the interleaving, so the two scratches
/// take both warm-up passes to reach their sizes.
fn pipeline_passes(
    tier: &StorageTier,
    cache: &mut ProcessorCache,
    queries: &[Query],
    hits: bool,
) -> [u64; 2] {
    let mut seam = LandingSeam { tier, clock: 0 };
    let mut pipeline = QueryPipeline::new(2);
    let mut pass = |pipeline: &mut QueryPipeline<_>, cache: &mut ProcessorCache| {
        allocations(|| {
            for (seq, q) in queries.iter().enumerate() {
                pipeline.push(seq as u64, *q);
            }
            let mut completed = 0;
            while !pipeline.is_idle() {
                let done = pipeline.step(&mut seam, cache).unwrap();
                for c in &done {
                    let misses = c.outcome.stats.cache_misses;
                    assert!(!hits || misses == 0, "query {} missed", c.seq);
                }
                completed += done.len();
                pipeline.recycle(done);
            }
            assert_eq!(completed, queries.len());
        })
    };
    pass(&mut pipeline, cache);
    pass(&mut pipeline, cache);
    [pass(&mut pipeline, cache), pass(&mut pipeline, cache)]
}

/// Warms `cache` with every record the kind's queries read.
fn warmed(tier: &StorageTier, queries: &[Query]) -> ProcessorCache {
    let mut cache = roomy();
    let mut executor = Executor::new(tier, &mut cache);
    for q in queries {
        executor.run(q);
    }
    drop(executor);
    cache
}

#[test]
fn a_warm_query_allocates_nothing_through_the_serial_executor() {
    let tier = tier();
    for (kind, name) in KINDS.iter().enumerate() {
        let queries = queries(kind);
        let mut cache = warmed(&tier, &queries);
        let counts = serial_passes(&tier, &mut cache, &queries, true);
        assert_eq!(counts, [0, 0], "{name}: allocations per pass of {QUERIES}");
    }
}

#[test]
fn a_warm_query_allocates_nothing_through_the_pipeline() {
    let tier = tier();
    for (kind, name) in KINDS.iter().enumerate() {
        let queries = queries(kind);
        let mut cache = warmed(&tier, &queries);
        let counts = pipeline_passes(&tier, &mut cache, &queries, true);
        assert_eq!(counts, [0, 0], "{name}: allocations per pass of {QUERIES}");
    }
}

/// Cold pins: a cache that holds nothing, so every access misses.
fn cold(drive: fn(&StorageTier, &mut ProcessorCache, &[Query], bool) -> [u64; 2], pins: [u64; 5]) {
    let tier = tier();
    for (kind, name) in KINDS.iter().enumerate() {
        let mut cache: ProcessorCache = Box::new(NullCache::new());
        let [first, second] = drive(&tier, &mut cache, &queries(kind), false);
        assert_eq!(
            first, second,
            "{name}: a cold pass must count the same twice"
        );
        assert!(
            first <= pins[kind],
            "{name}: {first} allocations per pass of {QUERIES} cold queries, pinned at most {}",
            pins[kind]
        );
    }
}

#[test]
fn a_cold_query_allocates_at_most_its_pin_through_the_serial_executor() {
    cold(serial_passes, COLD_SERIAL);
}

#[test]
fn a_cold_query_allocates_at_most_its_pin_through_the_pipeline() {
    cold(pipeline_passes, COLD_PIPELINE);
}

/// `StorageTier::get_many` allocates per batch — its per-server reader
/// sessions and its answer vector — and nothing per record: a loaded
/// tier's records are slices of sealed segments, not copies.
#[test]
fn a_storage_multi_get_allocates_per_batch_not_per_record() {
    let tier = tier();
    let nodes: Vec<NodeId> = (0..256).map(NodeId::new).collect();
    for width in [1, 16, 256] {
        let mut got = Vec::new();
        let count = allocations(|| got = tier.get_many(&nodes[..width]));
        assert!(got.iter().all(Option::is_some), "every node is stored");
        assert_eq!(count, 2, "{width} records read in one multi-get");
    }
}
