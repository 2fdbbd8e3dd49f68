//! One repetition: a fresh cluster (cold caches), the workload's client
//! loop, teardown, and the cross-checks that make the numbers trustworthy.

use std::time::Instant;

use grouting_core::route::RoutingKind;

use crate::client::{Client, ClientRun};
use crate::cluster::Cluster;
use crate::setup::Prepared;
use crate::spec::{LoadLoop, Workload};

/// Warm-up concurrency of an open-loop workload (its closed-loop phase).
const OPEN_LOOP_WARM_IN_FLIGHT: usize = 16;
/// The diagnostic rate ladder: multiples of the workload's offered rate,
/// each held for `LADDER_SEGMENT`. The highest rate runs last so its
/// backlog cannot pollute the others.
const LADDER_FACTORS: [f64; 2] = [0.5, 2.0];
const LADDER_SEGMENT_S: f64 = 3.0;

#[derive(Debug, Clone, Copy)]
pub struct RepOptions {
    pub routing: RoutingKind,
    /// Switch the repository's own `stats` tracing and telemetry on.
    pub traced: bool,
    /// Completions in the measured window.
    pub measure: usize,
    /// Open-loop workloads: also run the diagnostic rate ladder.
    pub ladder: bool,
}

pub struct Rep {
    pub run: ClientRun,
    pub launch_s: f64,
}

/// Runs one repetition. Any wrong total, missing completion or transport
/// failure is an error: the benchmark does not report numbers from a run
/// it cannot vouch for.
pub fn run_rep(prepared: &Prepared, workload: &Workload, opts: RepOptions) -> Result<Rep, String> {
    let t = Instant::now();
    let cluster = Cluster::launch(&prepared.assets, workload, opts.routing, opts.traced)
        .map_err(|e| format!("cluster launch: {e}"))?;
    let launch_s = t.elapsed().as_secs_f64();

    let driven = drive(&cluster, prepared, workload, opts);
    let run = match driven {
        Ok(run) => run,
        Err(e) => {
            cluster.abort();
            return Err(format!("client: {e}"));
        }
    };
    let snapshot = cluster.finish().map_err(|e| format!("teardown: {e}"))?;

    if run.completions != run.submitted {
        return Err(format!(
            "{} of {} submitted queries never completed",
            run.submitted - run.completions,
            run.submitted
        ));
    }
    // The client's per-completion sums must be the router's totals.
    let t = &run.totals;
    if (
        snapshot.queries,
        snapshot.cache_hits,
        snapshot.cache_misses,
        snapshot.evictions,
    ) != (run.completions, t.cache_hits, t.cache_misses, t.evictions)
    {
        return Err(format!(
            "client totals {:?} over {} completions disagree with the router's snapshot \
             ({} queries, {} hits, {} misses, {} evictions)",
            t,
            run.completions,
            snapshot.queries,
            snapshot.cache_hits,
            snapshot.cache_misses,
            snapshot.evictions
        ));
    }
    if run.snapshot.as_ref() != Some(&snapshot) {
        return Err("the snapshot sent to the client differs from the router's".to_string());
    }
    Ok(Rep { run, launch_s })
}

fn drive(
    cluster: &Cluster,
    prepared: &Prepared,
    workload: &Workload,
    opts: RepOptions,
) -> grouting_core::wire::WireResult<ClientRun> {
    let mut client = Client::connect(cluster.dial_client()?, prepared, opts.traced)?;
    match workload.load {
        LoadLoop::Closed { in_flight } => {
            client.closed_loop(in_flight, workload.warm, opts.measure)?;
        }
        LoadLoop::Open { rate } => {
            client.warm_up(OPEN_LOOP_WARM_IN_FLIGHT, workload.warm)?;
            // Segment 0 is always the workload's own rate: every reported
            // number comes from it.
            client.open_loop(rate, opts.measure)?;
            if opts.ladder {
                for factor in LADDER_FACTORS {
                    let rate = rate * factor;
                    client.open_loop(rate, (rate * LADDER_SEGMENT_S) as usize)?;
                }
            }
        }
    }
    client.finish()
}
