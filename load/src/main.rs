//! `grouting-load`: the wire-cluster benchmark.
//!
//! Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints, as the last line of standard
//!   output, the result object `BENCHMARK.json` describes — the end-to-end
//!   metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! * without `--workload`, every workload runs in a child process of its
//!   own (so peak memory and CPU are per workload), untraced and traced,
//!   and a report is printed and written to `load/out/summary.json`.
//!   `--selfcheck` runs the untraced suite twice and compares the two
//!   against the bounds; `--quick` is a smoke test of the harness.

mod client;
mod cluster;
mod host;
mod json;
mod layers;
mod metrics;
mod rep;
mod setup;
mod spec;
mod sys;

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use grouting_core::route::RoutingKind;

use host::Probe;
use json::Json;
use metrics::Metrics;
use rep::{run_rep, Rep, RepOptions};
use spec::{LoadLoop, Workload};

/// The contract this benchmark reports against: metric names, units,
/// directions and bounds are read from it, never repeated in code.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
/// A single-workload run must end well inside the driver's 180 s limit.
const WATCHDOG: Duration = Duration::from_secs(170);
/// Open-loop generator health: a run whose generator was later than this
/// at p99, or used more than this share of a core, measured itself.
const MAX_LATE_P99_US: f64 = 5_000.0;
const MAX_LOADGEN_CPU_FRAC: f64 = 0.10;

struct MetricDef {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// Relative worsening that counts as a regression (end-to-end only).
    bound: f64,
}

struct Contract {
    run_seconds: u64,
    workloads: Vec<String>,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

fn load_contract() -> Result<Contract, String> {
    let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no {key}"))?
            .iter()
            .map(|d| {
                let text = |k: &str| {
                    d.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {k}"))
                };
                Ok(MetricDef {
                    name: text("name")?,
                    unit: text("unit")?,
                    higher_is_better: text("better")? == "higher",
                    bound: d.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                })
            })
            .collect()
    };
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let ours: Vec<&str> = spec::workloads().iter().map(|w| w.name).collect();
    if workloads != ours {
        return Err(format!(
            "BENCHMARK.json lists workloads {workloads:?}, the benchmark defines {ours:?}"
        ));
    }
    Ok(Contract {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")? as u64,
        workloads,
        end_to_end: defs("end_to_end")?,
        per_layer: defs("per_layer")?,
    })
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    selfcheck: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 77,
        seconds: None,
        trace: false,
        selfcheck: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The repository reads thirteen `GROUTING_*` variables into the defaults
/// of its option structs. The benchmark sets every option explicitly, and
/// refuses to run at all in an environment that tries to steer it.
fn refuse_env() -> Result<(), String> {
    match std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("GROUTING_")) {
        Some((k, _)) => Err(format!(
            "{} is set: the benchmark's deployment is fixed in code; unset it",
            k.to_string_lossy()
        )),
        None => Ok(()),
    }
}

fn main() -> ExitCode {
    let outcome = refuse_env()
        .and_then(|()| parse_args())
        .and_then(|args| load_contract().map(|c| (args, c)))
        .and_then(|(args, contract)| match &args.workload {
            Some(name) => {
                let workload = spec::workload(name)
                    .ok_or_else(|| format!("unknown workload {name}: {:?}", contract.workloads))?;
                run_workload(&workload, &args, &contract)
            }
            None => run_suite(&args, &contract),
        });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("grouting-load: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// One workload, in this process
// ---------------------------------------------------------------------------

/// How much one run measures.
struct Plan {
    repetitions: usize,
    /// Completions measured per repetition.
    measure: usize,
}

/// The window is counted, never timed: `--seconds` only scales the count
/// `spec` fixed for a run of `run_seconds`, so two commits given the same
/// arguments measure the same queries however fast either one is.
fn plan(workload: &Workload, args: &Args, contract: &Contract) -> Plan {
    let scale = args.seconds.unwrap_or(contract.run_seconds) as f64 / contract.run_seconds as f64;
    let (repetitions, scale) = if args.quick {
        (1, scale / 5.0)
    } else {
        (spec::REPETITIONS, scale)
    };
    Plan {
        repetitions,
        measure: ((workload.measure as f64 * scale) as usize).max(1),
    }
}

/// The seed of repetition `rep`: each one draws hotspots of its own, so a
/// run's medians rest on three times the inputs. Repetition 0, and with it
/// the per-layer run, uses `seed` itself.
fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_add(rep as u64 * 0x9E37_79B9)
}

fn run_workload(workload: &Workload, args: &Args, contract: &Contract) -> Result<(), String> {
    // Detached on purpose: it exists to end a run that hangs in a blocking
    // receive, which nothing else can interrupt.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("grouting-load: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let plan = plan(workload, args, contract);
    let result = if args.trace {
        per_layer_run(workload, args.seed, &plan)?
    } else {
        end_to_end_run(workload, args.seed, &plan)?
    };
    let defs = if args.trace {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    println!(
        "{} seed {} — {} × {} queries measured{}",
        workload.name,
        args.seed,
        plan.repetitions,
        plan.measure,
        if args.quick {
            " — QUICK: a smoke test, numbers are not comparable"
        } else {
            ""
        }
    );
    let mut reported = Vec::new();
    for def in defs {
        let value = *result
            .metrics
            .get(&def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        println!("  {:<40} {:>16.4} {}", def.name, value, def.unit);
        reported.push((
            def.name.clone(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(def.unit.clone())),
            ]),
        ));
    }
    for line in &result.notes {
        println!("  {line}");
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(result.failed == 0)),
            ("attempted", Json::Num(result.attempted as f64)),
            ("failed", Json::Num(result.failed as f64)),
            ("metrics", Json::Obj(reported)),
        ])
        .encode()
    );
    if result.failed > 0 {
        return Err(format!(
            "{} of {} queries failed or answered wrongly",
            result.failed, result.attempted
        ));
    }
    Ok(())
}

struct RunResult {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Workload-specific diagnostics for the human reader.
    notes: Vec<String>,
}

fn failures(rep: &Rep) -> u64 {
    rep.run.wrong + rep.run.submitted.saturating_sub(rep.run.completions)
}

/// Fails the run when the open-loop generator did not hold its schedule:
/// numbers measured by a late or busy generator describe the generator.
/// Judged on the median repetition, as every reported number is — a single
/// host stall spoils one repetition, not the run.
fn check_generator(workload: &Workload, reps: &[&Rep]) -> Result<(), String> {
    if !matches!(workload.load, LoadLoop::Open { .. }) {
        return Ok(());
    }
    let health = median_of(
        &reps
            .iter()
            .map(|r| metrics::outside(&r.run.segments[0], &r.run))
            .collect::<Vec<_>>(),
    );
    let late = health["client.late_p99_us"];
    let cpu = health["client.loadgen_cpu_frac"];
    if late > MAX_LATE_P99_US || cpu > MAX_LOADGEN_CPU_FRAC {
        return Err(format!(
            "load generator unhealthy: p99 lateness {late:.0} µs (limit {MAX_LATE_P99_US}), \
             {cpu:.3} of a core (limit {MAX_LOADGEN_CPU_FRAC})"
        ));
    }
    Ok(())
}

/// Runs `work` with the host-speed probe beside it and returns the factor it
/// read. Only a closed loop is probed: it saturates the host, so its timings
/// move with the host's speed. The open loop is reported as measured
/// (factor 1) and keeps its two load-generator threads to itself.
fn beside_probe<T>(workload: &Workload, work: impl FnOnce() -> T) -> (T, f64) {
    let probe = matches!(workload.load, LoadLoop::Closed { .. }).then(Probe::start);
    let out = work();
    (out, probe.map_or(1.0, Probe::finish))
}

/// `--trace 0`: every repetition sets up from scratch (so `setup_s` has
/// several samples) with a seed of its own, runs on a fresh cluster, and
/// the reported value of each metric is the median over repetitions.
fn end_to_end_run(workload: &Workload, seed: u64, plan: &Plan) -> Result<RunResult, String> {
    let mut reps: Vec<Rep> = Vec::new();
    let mut per_rep: Vec<Metrics> = Vec::new();
    let mut notes = Vec::new();
    for i in 0..plan.repetitions {
        let mut prepared = setup::prepare(workload, rep_seed(seed, i));
        let options = RepOptions {
            routing: workload.routing,
            traced: false,
            measure: plan.measure,
            ladder: false,
        };
        let (rep, host_speed) = beside_probe(workload, || run_rep(&prepared, workload, options));
        let rep = rep?;
        prepared.times.launch_s = rep.launch_s;
        let mut m = metrics::end_to_end(&rep.run.segments[0]);
        m.insert("setup_s".into(), prepared.times.total_s());
        notes.push(format!(
            "repetition {i} as measured: qps {:.1}, p50 {:.0} us, p95 {:.0} us, cpu {:.1} us/query, \
             window {:.2} s, host speed {host_speed:.4}; hit rate {:.4}, storage {:.0} B/query",
            m["qps"],
            m["lat_p50_us"],
            m["lat_p95_us"],
            m["cpu_us_per_query"],
            rep.run.segments[0].wall_ns as f64 / 1e9,
            m["hit_rate"],
            m["storage_bytes_per_query"],
        ));
        metrics::at_reference_speed(&mut m, host_speed);
        per_rep.push(m);
        reps.push(rep);
    }
    let reps: Vec<&Rep> = reps.iter().collect();
    check_generator(workload, &reps)?;
    let mut metrics = median_of(&per_rep);
    metrics.insert("peak_rss_mb".into(), sys::peak_rss_mib());
    Ok(RunResult {
        metrics,
        attempted: reps.iter().map(|r| r.run.submitted).sum(),
        failed: reps.iter().map(|r| failures(r)).sum(),
        notes,
    })
}

fn median_of(reps: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    if let Some(first) = reps.first() {
        for name in first.keys() {
            let values: Vec<f64> = reps.iter().filter_map(|m| m.get(name).copied()).collect();
            out.insert(name.clone(), sys::median(&values));
        }
    }
    out
}

/// `--trace 1`: one set-up, then an untraced repetition (outside-the-
/// cluster metrics, and the rate ladder on an open loop), a traced one,
/// a shadow repetition of the same queries under hash routing, and the
/// isolated layer pass.
fn per_layer_run(workload: &Workload, seed: u64, plan: &Plan) -> Result<RunResult, String> {
    let mut prepared = setup::prepare(workload, seed);
    let options = RepOptions {
        routing: workload.routing,
        traced: false,
        measure: plan.measure,
        ladder: true,
    };
    let (plain, speed) = beside_probe(workload, || run_rep(&prepared, workload, options));
    let plain = plain?;
    prepared.times.launch_s = plain.launch_s;
    let segment = &plain.run.segments[0];
    let e2e = metrics::end_to_end(segment);
    let mut m = metrics::outside(segment, &plain.run);
    m.extend(metrics::setup(&prepared.times));
    // Everything in this pass is reported as measured; this is the factor
    // the end-to-end run would have scaled its timings by (1 = not probed).
    m.insert("host.speed_factor".into(), speed);
    let mut notes = ladder_notes(&plain, &mut m);

    let traced_options = RepOptions {
        traced: true,
        ladder: false,
        ..options
    };
    let (traced, traced_speed) =
        beside_probe(workload, || run_rep(&prepared, workload, traced_options));
    let traced = traced?;
    // The two repetitions ran at different moments: the untraced rate is
    // restated at the traced repetition's host speed before the two are
    // compared.
    let untraced_qps = e2e["qps"] * traced_speed / speed;
    m.extend(metrics::traced(
        &traced.run.segments[0],
        &traced.run,
        untraced_qps,
    ));

    let shadow = run_rep(
        &prepared,
        workload,
        RepOptions {
            routing: RoutingKind::Hash,
            ladder: false,
            ..options
        },
    )?;
    let hash = metrics::outside(&shadow.run.segments[0], &shadow.run);
    let (hit, bytes) = ("cache.hit_rate", "storage.miss_bytes_per_query");
    m.insert("route.hash_hit_rate".into(), hash[hit]);
    m.insert("route.hit_gain_vs_hash".into(), m[hit] - hash[hit]);
    notes.push(format!(
        "{} vs hash shadow: hit rate {:.4} vs {:.4}, storage miss bytes per query {:.0} vs {:.0}",
        workload.routing, m[hit], hash[hit], m[bytes], hash[bytes],
    ));
    // The paper's headline ordering (Fig. 7/9, pinned in `sim` by
    // tests/paper_shapes.rs), asserted on the wire where routing matters.
    if workload.name == "hotspot_local" && !(m[hit] > hash[hit] && m[bytes] < hash[bytes]) {
        return Err(format!(
            "paper shape violated: embed routing must beat hash on hit rate and storage bytes \
             ({})",
            notes.last().expect("just pushed")
        ));
    }

    let pass = layers::layer_pass(&prepared, workload);
    m.extend(layers::live_layers(&prepared, workload).map_err(|e| format!("live layers: {e}"))?);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let trace_path = format!("{OUT_DIR}/trace_{}.json", workload.name);
    std::fs::write(
        &trace_path,
        layers::trace_json(workload, seed, &pass).encode(),
    )
    .map_err(|e| format!("{trace_path}: {e}"))?;
    notes.push(format!(
        "{} spans written to {trace_path}",
        pass.spans.len()
    ));
    m.extend(pass.metrics);

    // The layer budget: what the isolated layer costs add up to, against
    // what the running cluster was measured to spend.
    let explained = m["budget.cpu_explained_us_per_query"];
    m.insert(
        "budget.cpu_unexplained_frac".into(),
        1.0 - sys::ratio(explained, e2e["cpu_us_per_query"]),
    );
    let stages = m["wire.service.submit_us_p50"]
        + m["wire.service.router_queue_us_p50"]
        + m["wire.service.service_us_p50"]
        + m["wire.service.return_us_p50"];
    m.insert("budget.lat_explained_us".into(), stages);
    m.insert(
        "budget.lat_unexplained_us".into(),
        e2e["lat_p50_us"] - stages,
    );

    let reps = [&plain, &traced, &shadow];
    check_generator(workload, &reps)?;
    Ok(RunResult {
        metrics: m,
        attempted: reps.iter().map(|r| r.run.submitted).sum(),
        failed: reps.iter().map(|r| failures(r)).sum(),
        notes,
    })
}

/// Prints p50/p95 per offered rate and records `client.max_rate_ok`: the
/// highest rate that met the latency objective at p95 without a growing
/// backlog. A closed loop has no offered rate; its achieved rate stands in.
fn ladder_notes(rep: &Rep, m: &mut Metrics) -> Vec<String> {
    let mut notes = Vec::new();
    let mut max_ok = 0.0f64;
    for segment in &rep.run.segments {
        let e2e = metrics::end_to_end(segment);
        let Some(rate) = segment.rate else {
            max_ok = e2e["qps"];
            continue;
        };
        let ok = e2e["lat_p95_us"] * 1e3 <= spec::SLO_NS as f64
            && e2e["qps"] >= 0.99 * rate
            && segment.inflight_end <= 16;
        if ok {
            max_ok = max_ok.max(rate);
        }
        notes.push(format!(
            "offered {rate:.0}/s: achieved {:.1}/s, p50 {:.0} µs, p95 {:.0} µs, in flight at close {} — {}",
            e2e["qps"],
            e2e["lat_p50_us"],
            e2e["lat_p95_us"],
            segment.inflight_end,
            if ok { "ok" } else { "over the objective" }
        ));
    }
    m.insert("client.max_rate_ok".into(), max_ok);
    notes
}

// ---------------------------------------------------------------------------
// The whole suite, one child process per workload
// ---------------------------------------------------------------------------

/// The parsed last line of a child run.
struct ChildResult {
    raw: Json,
    metrics: Metrics,
}

fn run_child(workload: &str, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("workload {workload} (trace {trace}) failed"));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let raw = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let mut metrics = Metrics::new();
    if let Some(Json::Obj(pairs)) = raw.get("metrics") {
        for (name, entry) in pairs {
            if let Some(v) = entry.get("value").and_then(Json::as_f64) {
                metrics.insert(name.clone(), v);
            }
        }
    }
    Ok(ChildResult { raw, metrics })
}

fn run_suite(args: &Args, contract: &Contract) -> Result<(), String> {
    if args.quick {
        println!("QUICK MODE: one short repetition per workload — a smoke test of the harness; these numbers are not comparable with anything.");
    }
    if args.selfcheck {
        return selfcheck(args, contract);
    }
    let mut sections = Vec::new();
    for workload in &contract.workloads {
        let e2e = run_child(workload, args, false)?;
        let layers = run_child(workload, args, true)?;
        sections.push((
            workload.clone(),
            Json::obj([("end_to_end", e2e.raw), ("per_layer", layers.raw)]),
        ));
    }
    let summary = Json::obj([
        ("benchmark", Json::Str("grouting-load".to_string())),
        ("seed", Json::Num(args.seed as f64)),
        ("quick", Json::Bool(args.quick)),
        // This benchmark defines the yardstick; it claims nothing.
        ("claim", Json::Null),
        ("workloads", Json::Obj(sections)),
    ]);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/summary.json");
    std::fs::write(&path, summary.encode()).map_err(|e| format!("{path}: {e}"))?;
    println!("summary written to {path}");
    Ok(())
}

/// Runs the untraced suite twice on this commit and holds the two sets of
/// medians against the bounds in `BENCHMARK.json`: a benchmark that cannot
/// agree with itself within a bound cannot referee a change with it.
fn selfcheck(args: &Args, contract: &Contract) -> Result<(), String> {
    let mut sets: Vec<Vec<Metrics>> = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for workload in &contract.workloads {
            set.push(run_child(workload, args, false)?.metrics);
        }
        sets.push(set);
    }
    println!(
        "\n{:<16} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut failed = 0usize;
    for (w, workload) in contract.workloads.iter().enumerate() {
        for def in &contract.end_to_end {
            let (a, b) = (sets[0][w][&def.name], sets[1][w][&def.name]);
            // How much worse the second set is than the first, as a share
            // of the first; negative when it is better.
            let worse = if def.higher_is_better {
                sys::ratio(a - b, a)
            } else {
                sys::ratio(b - a, a)
            };
            let pass = worse.abs() <= def.bound;
            failed += usize::from(!pass);
            println!(
                "{workload:<16} {:<26} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%  {}",
                def.name,
                worse * 100.0,
                def.bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    if failed > 0 {
        return Err(format!(
            "{failed} (metric, workload) pairs disagree between two runs of one commit"
        ));
    }
    Ok(())
}
