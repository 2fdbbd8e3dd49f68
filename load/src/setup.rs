//! Set-up: the graph, the loaded tier, the routing assets, the query
//! stream and the reference answers. All of it is timed, stage by stage,
//! because `setup_s` is an end-to-end metric: work a later change moves
//! out of the measured window and into preprocessing must show here.

use std::sync::Arc;
use std::time::Instant;

use grouting_core::cache::NullCache;
use grouting_core::engine::EngineAssets;
use grouting_core::gen::{DatasetProfile, ProfileName};
use grouting_core::query::{Executor, ProcessorCache, Query, QueryResult};
use grouting_core::sim::SimAssets;
use grouting_core::storage::StorageTier;
use grouting_core::workload::{hotspot_workload, WorkloadConfig};

use crate::spec::{self, Workload};

/// Seconds spent in each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub tier_load_s: f64,
    pub landmarks_s: f64,
    pub embed_s: f64,
    pub queries_s: f64,
    pub reference_s: f64,
    pub launch_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.gen_s
            + self.tier_load_s
            + self.landmarks_s
            + self.embed_s
            + self.queries_s
            + self.reference_s
            + self.launch_s
    }
}

/// Everything a repetition needs before a cluster is launched.
pub struct Prepared {
    pub assets: EngineAssets,
    pub tier: Arc<StorageTier>,
    /// The generated stream; sequence number `s` runs `queries[s % len]`.
    pub queries: Vec<Query>,
    /// `references[i]` answers `queries[i]` where one was computed.
    pub references: Vec<Option<QueryResult>>,
    pub times: SetupTimes,
}

impl Prepared {
    pub fn query(&self, seq: u64) -> Query {
        self.queries[seq as usize % self.queries.len()]
    }

    pub fn reference(&self, seq: u64) -> Option<QueryResult> {
        self.references[seq as usize % self.queries.len()]
    }
}

/// Builds the deployment's inputs for `workload` from `seed`. The graph is
/// the fixed WebGraph profile (its generator seed belongs to the profile);
/// `seed` draws the hotspots and the queries.
pub fn prepare(workload: &Workload, seed: u64) -> Prepared {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let graph =
        Arc::new(DatasetProfile::at_scale(ProfileName::WebGraph, spec::GRAPH_SCALE).generate());
    times.gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let sim = SimAssets::paper_defaults(Arc::clone(&graph), spec::STORAGE_SERVERS);
    let assets_s = t.elapsed().as_secs_f64();
    times.landmarks_s = sim.timings.landmark_ns as f64 / 1e9;
    times.embed_s = (sim.timings.embed_landmarks_ns + sim.timings.embed_nodes_ns) as f64 / 1e9;
    // `paper_defaults` loads the tier first and times only the two
    // preprocessing stages itself; the tier load is the remainder.
    times.tier_load_s = (assets_s - times.landmarks_s - times.embed_s).max(0.0);

    let t = Instant::now();
    let queries = hotspot_workload(
        &graph,
        &WorkloadConfig {
            hotspots: workload.hotspots,
            per_hotspot: workload.per_hotspot,
            radius: workload.radius,
            hops: spec::HOPS,
            mix: workload.mix,
            restart_prob: 0.15,
            seed,
        },
    )
    .queries;
    times.queries_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let references = reference_answers(&sim.tier, &queries);
    times.reference_s = t.elapsed().as_secs_f64();

    Prepared {
        assets: sim.engine_assets(),
        tier: sim.tier,
        queries,
        references,
        times,
    }
}

/// Reference answers from the in-process executor reading the tier
/// directly: no cache, no wire, no router.
fn reference_answers(tier: &Arc<StorageTier>, queries: &[Query]) -> Vec<Option<QueryResult>> {
    let every = if queries.len() < spec::REFERENCE_ALL_BELOW {
        1
    } else {
        spec::REFERENCE_EVERY
    };
    let mut cache: ProcessorCache = Box::new(NullCache::new());
    let mut executor = Executor::new(&**tier, &mut cache);
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| (i % every == 0).then(|| executor.run(q).result))
        .collect()
}
