//! Turns what the client saw into named metrics. Everything here is
//! measured from outside the running cluster: fields already on every
//! `Completion`, the client's own clock, and `/proc`.

use grouting_core::trace::Stage;

use crate::client::{ClientRun, Sample, Segment};
use crate::setup::SetupTimes;
use crate::spec;
use crate::sys::{quantile, ratio, sorted};

/// Metric values keyed by name, in name order.
pub type Metrics = std::collections::BTreeMap<String, f64>;

fn put(m: &mut Metrics, name: &str, value: f64) {
    m.insert(name.to_string(), value);
}

fn quantiles_us(m: &mut Metrics, values: Vec<u64>, names: &[(&str, f64)]) {
    let values = sorted(values);
    for (name, q) in names {
        put(m, name, quantile(&values, *q) / 1e3);
    }
}

/// The end-to-end metrics of one repetition's measured segment
/// (`setup_s` and `peak_rss_mb` are added by the caller), and the two
/// counts the run prints beside them.
pub fn end_to_end(segment: &Segment) -> Metrics {
    let mut m = Metrics::new();
    let n = segment.samples.len() as f64;
    let wall_s = segment.wall_ns as f64 / 1e9;
    put(
        &mut m,
        "qps",
        ratio(segment.completed_in_window as f64, wall_s),
    );
    quantiles_us(
        &mut m,
        segment.samples.iter().map(Sample::latency_ns).collect(),
        &[("lat_p50_us", 0.50), ("lat_p95_us", 0.95)],
    );
    let sum = |f: fn(&Sample) -> u64| segment.samples.iter().map(f).sum::<u64>() as f64;
    put(
        &mut m,
        "hit_rate",
        ratio(sum(|s| s.stats.cache_hits), sum(|s| s.stats.accesses())),
    );
    put(
        &mut m,
        "storage_bytes_per_query",
        ratio(sum(|s| s.stats.miss_bytes), n),
    );
    put(
        &mut m,
        "net_bytes_per_query",
        ratio(sum(|s| s.net_bytes), n),
    );
    put(
        &mut m,
        "cpu_us_per_query",
        ratio(
            (segment.process_cpu_s - segment.loadgen_cpu_s - segment.probe_cpu_s) * 1e6,
            segment.completed_in_window as f64,
        ),
    );
    m
}

/// Restates one closed-loop repetition's timings at the reference host
/// speed, from the factor `host::Probe` read beside it: the load saturates
/// the host, so rate, latency and CPU per query all move with its speed.
/// Counts, memory and `setup_s` are never scaled.
pub fn at_reference_speed(m: &mut Metrics, host_speed: f64) {
    for (name, factor) in [
        ("qps", 1.0 / host_speed),
        ("lat_p50_us", host_speed),
        ("lat_p95_us", host_speed),
        ("cpu_us_per_query", host_speed),
    ] {
        if let Some(v) = m.get_mut(name) {
            *v *= factor;
        }
    }
}

/// Per-layer metrics available from outside the cluster on any repetition:
/// routing balance, cache churn, records per query, the four client-visible
/// service stages, process and load-generator health.
pub fn outside(segment: &Segment, run: &ClientRun) -> Metrics {
    let mut m = Metrics::new();
    let samples = &segment.samples;
    let n = samples.len() as f64;

    let mut per_proc = [0u64; spec::PROCESSORS];
    for s in samples {
        per_proc[s.processor as usize % spec::PROCESSORS] += 1;
    }
    let max = per_proc.iter().copied().max().unwrap_or(0) as f64;
    put(
        &mut m,
        "route.proc_imbalance",
        ratio(max, n / spec::PROCESSORS as f64),
    );
    let snapshot = run.snapshot.as_ref();
    put(
        &mut m,
        "route.stolen_frac",
        snapshot.map_or(0.0, |s| ratio(s.stolen as f64, s.queries as f64)),
    );

    let sum = |f: fn(&Sample) -> u64| samples.iter().map(f).sum::<u64>() as f64;
    let accesses = sum(|s| s.stats.accesses());
    put(
        &mut m,
        "cache.hit_rate",
        ratio(sum(|s| s.stats.cache_hits), accesses),
    );
    put(
        &mut m,
        "storage.miss_bytes_per_query",
        ratio(sum(|s| s.stats.miss_bytes), n),
    );
    let evictions = sum(|s| s.stats.evictions);
    put(&mut m, "cache.evictions_per_query", ratio(evictions, n));
    put(&mut m, "query.records_per_query", ratio(accesses, n));

    // Client send → router admission → execution start → completion →
    // client receive, all on the process-wide `now_ns` clock.
    let stage = |f: fn(&Sample) -> u64| samples.iter().map(f).collect::<Vec<u64>>();
    quantiles_us(
        &mut m,
        stage(|s| s.arrived_ns.saturating_sub(s.sent_ns)),
        &[("wire.service.submit_us_p50", 0.50)],
    );
    quantiles_us(
        &mut m,
        stage(|s| s.started_ns.saturating_sub(s.arrived_ns)),
        &[
            ("wire.service.router_queue_us_p50", 0.50),
            ("wire.service.router_queue_us_p95", 0.95),
        ],
    );
    quantiles_us(
        &mut m,
        stage(|s| s.completed_ns.saturating_sub(s.started_ns)),
        &[
            ("wire.service.service_us_p50", 0.50),
            ("wire.service.service_us_p95", 0.95),
        ],
    );
    quantiles_us(
        &mut m,
        stage(|s| s.received_ns.saturating_sub(s.completed_ns)),
        &[("wire.service.return_us_p50", 0.50)],
    );

    put(
        &mut m,
        "process.ctx_switches_per_query",
        ratio(segment.ctx_switches as f64, n),
    );
    put(&mut m, "process.threads", segment.threads as f64);

    quantiles_us(
        &mut m,
        samples.iter().map(Sample::latency_ns).collect(),
        &[("client.lat_p99_us", 0.99), ("client.lat_p999_us", 0.999)],
    );
    put(&mut m, "client.samples", n);
    let slow = samples
        .iter()
        .filter(|s| s.latency_ns() > spec::SLO_NS)
        .count() as u64;
    put(
        &mut m,
        "client.slo_miss_frac",
        ratio((slow + run.wrong) as f64, n),
    );
    quantiles_us(
        &mut m,
        segment.late_ns.clone(),
        &[("client.late_p99_us", 0.99)],
    );
    put(
        &mut m,
        "client.loadgen_cpu_frac",
        ratio(segment.loadgen_cpu_s, segment.wall_ns as f64 / 1e9),
    );
    put(&mut m, "client.inflight_end", segment.inflight_end as f64);
    put(
        &mut m,
        "client.fail_frac",
        ratio(
            (run.wrong + run.submitted.saturating_sub(run.completions)) as f64,
            run.submitted as f64,
        ),
    );
    m
}

/// The `setup.*` stage breakdown.
pub fn setup(times: &SetupTimes) -> Metrics {
    let mut m = Metrics::new();
    put(&mut m, "setup.gen_s", times.gen_s);
    put(&mut m, "setup.tier_load_s", times.tier_load_s);
    put(&mut m, "setup.landmarks_s", times.landmarks_s);
    put(&mut m, "setup.embed_s", times.embed_s);
    put(&mut m, "setup.queries_s", times.queries_s);
    put(&mut m, "setup.launch_s", times.launch_s);
    put(&mut m, "setup.reference_s", times.reference_s);
    m
}

/// The `trace.*` metrics of a traced repetition: the repository's own
/// `stats`-level tracing and shared telemetry counters, read through
/// `Completion.trace` blocks, bracketing `MetricsRequest`s and the final
/// `TraceSnapshot`. `untraced_qps` is the same workload's untraced rate.
pub fn traced(segment: &Segment, run: &ClientRun, untraced_qps: f64) -> Metrics {
    let mut m = Metrics::new();
    let samples = &segment.samples;
    quantiles_us(
        &mut m,
        samples.iter().map(|s| s.fetch_wait_ns).collect(),
        &[
            ("trace.fetch_wait_us_p50", 0.50),
            ("trace.fetch_wait_us_p99", 0.99),
        ],
    );
    quantiles_us(
        &mut m,
        samples.iter().map(|s| s.compute_ns).collect(),
        &[
            ("trace.compute_us_p50", 0.50),
            ("trace.compute_us_p99", 0.99),
        ],
    );
    // The router-side dispatch round trip exists only as a histogram over
    // the whole repetition (warm-up included).
    let dispatch_rtt = run
        .trace
        .as_ref()
        .and_then(|t| t.stages.stage(Stage::DispatchRtt).p50())
        .unwrap_or(0);
    put(
        &mut m,
        "trace.dispatch_rtt_us_p50",
        dispatch_rtt as f64 / 1e3,
    );

    let (a, b) = segment.reactor.unwrap_or_default();
    let d = |f: fn(&grouting_core::trace::ReactorStats) -> u64| f(&b).saturating_sub(f(&a)) as f64;
    let busy = d(|r| r.busy_ns);
    put(
        &mut m,
        "trace.reactor_busy_ratio",
        ratio(busy, busy + d(|r| r.idle_ns)),
    );
    // Only reactor-driven peers (the router and the storage endpoints)
    // count frames, so each frame crossing one of them is counted once. The
    // two marks bracket exactly the queries sampled (an open-loop segment
    // is marked again only once its last request has completed).
    let done = samples.len() as f64;
    put(
        &mut m,
        "trace.frames_per_query",
        ratio(d(|r| r.frames_in) + d(|r| r.frames_out), done),
    );
    put(
        &mut m,
        "trace.wire_bytes_per_query",
        ratio(d(|r| r.bytes_in) + d(|r| r.bytes_out), done),
    );
    put(
        &mut m,
        "trace.batches_per_query",
        ratio(d(|r| r.batches_submitted), done),
    );
    put(
        &mut m,
        "trace.pool_reuse_rate",
        ratio(d(|r| r.pool_reused), d(|r| r.pool_checkouts)),
    );
    let traced_qps = ratio(
        segment.completed_in_window as f64,
        segment.wall_ns as f64 / 1e9,
    );
    put(
        &mut m,
        "trace.overhead_frac",
        1.0 - ratio(traced_qps, untraced_qps),
    );
    m
}
