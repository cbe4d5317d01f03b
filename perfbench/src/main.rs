//! The repository benchmark.
//!
//! `c3-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--strategy <name>]` runs one workload and prints, as its last line,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Lines before it give the run's facts, every metric with its unit and
//! sample count, the per-run checks, and (traced) every span. See
//! `perfbench/GUIDE.md`.

#[cfg(test)]
mod json;
mod live;
mod probes;
mod report;
mod sim;
mod spans;
mod stats;
mod sys;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use c3_engine::Strategy;
use c3_scenarios::ScenarioRegistry;

use crate::live::{Fleet, LiveRun, LiveWorkload, Round, LIMIT_MS};
use crate::probes::Shape;
use crate::report::{Outcome, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::median;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["live-uniform", "node-hetero-write", "sim-suite"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    strategy: Strategy,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut strategy = Strategy::c3();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--strategy" => strategy = Strategy::named(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        strategy,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("c3-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let issuers = if args.workload == "sim-suite" {
        1
    } else {
        live::ISSUERS
    };
    let nproc = sys::nproc();
    print_facts(&args, issuers, nproc);
    if issuers > nproc {
        eprintln!(
            "c3-perfbench: {} asks for {issuers} issuer threads but only {nproc} CPUs are available",
            args.workload
        );
        return ExitCode::from(2);
    }

    let mut tracer = Tracer::new(args.trace);
    let mut out = tracer.span("perfbench", &format!("run {}", args.workload), 1, |t| {
        let mut out = match args.workload.as_str() {
            "live-uniform" => live_workload(t, &args, &live::live_uniform(), Fleet::InProcess),
            "node-hetero-write" => match c3_live_node::node_bin() {
                Some(bin) => {
                    live_workload(t, &args, &live::node_hetero_write(), Fleet::Nodes(&bin))
                }
                None => {
                    let mut out = Outcome::default();
                    out.fail(["the c3-live-node binary was not found".to_string()]);
                    out
                }
            },
            _ => sim_suite(t, &args),
        };
        if t.is_on() {
            layer_probes(t, &args, &mut out);
        }
        out
    });
    if args.trace {
        trace_metrics(&tracer, &mut out);
    }

    println!(
        "metrics ({}):",
        if args.trace { "traced" } else { "untraced" }
    );
    print!("{}", out.table());
    let line = out.result_json(if args.trace { PER_LAYER } else { END_TO_END });
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("{line}");
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_facts(args: &Args, issuers: usize, nproc: usize) {
    let rates = match args.workload.as_str() {
        "live-uniform" => rates_of(&live::live_uniform()),
        "node-hetero-write" => rates_of(&live::node_hetero_write()),
        _ => "[]".to_string(),
    };
    let live = args.workload != "sim-suite";
    println!(
        "facts {{\"workload\": \"{}\", \"strategy\": \"{}\", \"seed\": {}, \"run_seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"issuer_threads\": {issuers}, \"connections_per_replica\": {}, \"replicas\": {}, \"open_loop_rates\": {rates}, \"closed_in_flight\": {}, \"live_rounds\": {}, \"latency_limit_ms\": {LIMIT_MS}, \"git_revision\": \"{}\"}}",
        args.workload,
        args.strategy.name(),
        args.seed,
        args.seconds,
        args.trace,
        if live { live::CONNECTIONS } else { 0 },
        if live { live::REPLICAS } else { 0 },
        if live { live::CLOSED_IN_FLIGHT } else { 0 },
        if live { live::ROUNDS } else { 0 },
        sys::git_revision(),
    );
}

fn rates_of(w: &LiveWorkload) -> String {
    let rates: Vec<String> = w
        .ladder
        .iter()
        .filter_map(|p| p.rate)
        .map(|r| format!("{r}"))
        .collect();
    format!("[{}]", rates.join(", "))
}

/// A live workload: every phase, the per-run checks, the end-to-end
/// metrics, and (traced) the metrics of the client layers it exercised.
fn live_workload(t: &mut Tracer, args: &Args, w: &LiveWorkload, fleet: Fleet<'_>) -> Outcome {
    let run = live::run_workload(
        t,
        w,
        args.seconds,
        live::ROUNDS,
        args.seed,
        &args.strategy,
        fleet,
    );
    let mut out = Outcome::default();
    for p in run.phases() {
        println!(
            "phase {:<8} rate {:>7} in_flight {:>3} issued {:>7} warm-up {:>5} completed {:>7} parked {} unfinished {} (never sent {}) read p50 {:.3} ms p99 {:.3} ms p99.9 {:.3} ms update p99 {:.3} ms achieved {:.0} ops/s setup {:.3} s",
            p.phase.name,
            p.phase.rate.map_or("closed".to_string(), |r| format!("{r}")),
            p.in_flight,
            p.live.ops_issued,
            p.warmup_ops,
            p.completions(),
            p.live.lifecycle.parked,
            p.unfinished(),
            p.never_sent(),
            p.channel("read").summary.p50_ns as f64 / 1e6,
            p.channel("read").summary.p99_ns as f64 / 1e6,
            p.channel("read").summary.p999_ns as f64 / 1e6,
            p.channel("update").summary.p99_ns as f64 / 1e6,
            p.achieved_ops_s(),
            p.setup_s,
        );
        out.attempted += p.attempted();
        out.failed += p.failed();
        out.fail(p.check(&args.strategy));
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let rate = run.rounds[0].nominal().phase.rate.unwrap_or_default();
    let rounds = run.rounds.len();
    let nominal_reads: u64 = run
        .rounds
        .iter()
        .map(|r| r.nominal().channel("read").completions)
        .sum();
    let nominal_updates: u64 = run
        .rounds
        .iter()
        .map(|r| r.nominal().channel("update").completions)
        .sum();
    let across = format!("interquartile mean of {rounds} rounds");
    let at_rate = format!("open loop at {rate} ops/s, from intended send time, {across}");
    out.set(
        "read_p50_ms",
        run.across_rounds(|r| ms(r.nominal().channel("read").summary.p50_ns)),
        nominal_reads,
        at_rate.clone(),
    );
    out.set(
        "read_p99_ms",
        run.across_rounds(|r| ms(r.nominal().channel("read").summary.p99_ns)),
        nominal_reads,
        at_rate.clone(),
    );
    out.set(
        "update_p99_ms",
        run.across_rounds(|r| ms(r.nominal().channel("update").summary.p99_ns)),
        nominal_updates,
        at_rate,
    );
    out.set(
        "slo_miss_frac",
        run.across_rounds(|r| r.nominal().miss_frac()),
        run.rounds.iter().map(|r| r.nominal().attempted()).sum(),
        format!("over {LIMIT_MS} ms or failed, at {rate} ops/s, {across}"),
    );
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted,
        "parked or unfinished over attempted, every phase",
    );
    out.set(
        "slo_rate_ops_s",
        run.slo_rate(),
        run.phases().count() as u64,
        format!(
            "ladder {}, each round's read p99 interpolated at the {LIMIT_MS} ms limit, median of {rounds} rounds",
            rates_of(w)
        ),
    );
    out.set(
        "ops_s",
        run.across_rounds(|r| r.closed.achieved_ops_s()),
        run.rounds.iter().map(|r| r.closed.completions()).sum(),
        format!(
            "closed loop at in-flight {}, {across}",
            live::CLOSED_IN_FLIGHT
        ),
    );
    out.set(
        "cpu_us_per_op",
        run.across_rounds(Round::cpu_us_per_op),
        run.phases().map(|p| p.all_completions()).sum(),
        format!("benchmark process + node processes, per round; {across}"),
    );
    let setups: Vec<f64> = run.phases().map(|p| p.setup_s).collect();
    out.set(
        "setup_s",
        median(&setups),
        setups.len() as u64,
        "per phase: spawn, dial, drain, teardown; median",
    );
    let node_rss = run.phases().map(|p| p.node_rss_mb).fold(0.0, f64::max);
    out.set(
        "peak_rss_mb",
        sys::self_peak_rss_mb() + node_rss,
        1 + run.phases().count() as u64,
        format!("benchmark process + node peaks ({node_rss:.1} MiB)"),
    );
    if t.is_on() {
        client_layer_metrics(&run, &mut out);
        if let Fleet::Nodes(_) = fleet {
            node_layer_metrics(&run, &mut out);
        }
    }
    out
}

/// `c3-live` metrics taken from a live run: the nominal rungs for the
/// open-loop figures, the closed loops for occupancy.
fn client_layer_metrics(run: &LiveRun, out: &mut Outcome) {
    let nominal: Vec<&live::PhaseResult> = run.rounds.iter().map(Round::nominal).collect();
    let issued: u64 = nominal.iter().map(|p| p.live.ops_issued).sum();
    let waits: u64 = nominal.iter().map(|p| p.live.backpressure_waits).sum();
    out.set(
        "live_ops",
        issued as f64,
        issued,
        "ops issued at the nominal rate (base)",
    );
    out.set(
        "backpressure_per_kop",
        waits as f64 * 1e3 / issued.max(1) as f64,
        issued,
        format!("{waits} backpressure waits / {issued} issued"),
    );
    out.set(
        "inflight_p99",
        run.across_rounds(|r| r.closed.health(c3_live::HEALTH_INFLIGHT).p99_ns as f64),
        run.rounds
            .iter()
            .map(|r| r.closed.health(c3_live::HEALTH_INFLIGHT).count)
            .sum(),
        format!(
            "closed loop, budget {}, interquartile mean of rounds",
            live::CLOSED_IN_FLIGHT
        ),
    );
    let folds: u64 = nominal
        .iter()
        .map(|p| p.health(c3_live::HEALTH_FEEDBACK_LAG).count)
        .sum();
    out.set(
        "feedback_fold_ns_p50",
        run.across_rounds(|r| live::feedback_fold_ns(r.nominal()).0),
        folds,
        "feedback-lag channel, interquartile mean of rounds",
    );
    out.set(
        "feedback_fold_ns_p99",
        run.across_rounds(|r| live::feedback_fold_ns(r.nominal()).1),
        folds,
        "feedback-lag channel, interquartile mean of rounds",
    );
    let intended: f64 = nominal
        .iter()
        .map(|p| p.phase.rate.unwrap_or_default() * p.run_for.as_secs_f64())
        .sum();
    out.set(
        "issue_shortfall_frac",
        1.0 - issued as f64 / intended,
        issued,
        format!("base: {intended:.0} intended ops"),
    );
    let events: u64 = run
        .phases()
        .map(|p| {
            let l = &p.live.lifecycle;
            l.timeouts
                + l.retries
                + l.hedges
                + l.hedge_wins
                + l.parked
                + l.evictions
                + l.reinstates
                + l.reconnects
        })
        .sum();
    let attempted: u64 = run.phases().map(|p| p.attempted()).sum();
    out.set(
        "lifecycle_events",
        events as f64,
        attempted,
        "sum of LifecycleCounts, every phase",
    );
}

/// `c3-live-node` metrics taken from a node-fleet run.
fn node_layer_metrics(run: &LiveRun, out: &mut Outcome) {
    let spawns: Vec<f64> = run.phases().map(|p| p.spawn_s).collect();
    out.set(
        "node_spawn_s",
        median(&spawns),
        spawns.len() as u64,
        "NodeFleet::spawn + shutdown, median",
    );
    let cpu: Duration = run.phases().map(|p| p.node_cpu).sum();
    let ops: u64 = run.phases().map(|p| p.all_completions()).sum();
    out.set(
        "node_cpu_ms",
        cpu.as_secs_f64() * 1e3,
        ops,
        format!("all node processes, every phase; base: {ops} ops"),
    );
    let rss = run.phases().map(|p| p.node_rss_mb).fold(0.0, f64::max);
    out.set(
        "node_rss_mb_peak",
        rss,
        spawns.len() as u64,
        "sum of node VmHWM",
    );
}

/// `sim-suite`: repeat the four paths until the run's seconds are spent.
fn sim_suite(t: &mut Tracer, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let registry = ScenarioRegistry::with_defaults();
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut rep_rates = Vec::new();
    let mut rep_cpu_us = Vec::new();
    let mut first: Vec<sim::PathRun> = Vec::new();
    let mut completed = 0u64;
    while first.is_empty() || rep_rates.len() < 2 || started.elapsed().as_secs_f64() < args.seconds
    {
        setups.push(sim::setup_once(t, args.seed));
        let cpu0 = sys::self_cpu();
        let (mut ops, mut wall) = (0u64, 0.0);
        for (i, path) in sim::PATHS.iter().enumerate() {
            let run = sim::run_path(t, &registry, *path, args.seed);
            out.fail(sim::check(&run));
            out.attempted += path.ops;
            ops += run.completed;
            wall += run.wall_s;
            match first.get(i) {
                None => {
                    println!(
                        "path {:<13} ops {:>8} fingerprint {:016x} {:.0} ops/s",
                        path.name,
                        path.ops,
                        run.report.fingerprint(),
                        run.ops_s()
                    );
                    first.push(run);
                }
                Some(f) if f.report.fingerprint() != run.report.fingerprint() => {
                    out.fail([format!(
                        "{}: fingerprint {:016x} differs from {:016x} on the same seed",
                        path.name,
                        run.report.fingerprint(),
                        f.report.fingerprint()
                    )]);
                }
                Some(_) => {}
            }
        }
        completed += ops;
        rep_rates.push(ops as f64 / wall);
        rep_cpu_us.push(sys::self_cpu().saturating_sub(cpu0).as_secs_f64() * 1e6 / ops as f64);
        println!(
            "repetition {:>2}: {:.0} simulated ops/s, {:.4} us CPU per op, setup {:.4} s",
            rep_rates.len(),
            ops as f64 / wall,
            rep_cpu_us.last().copied().unwrap_or_default(),
            setups.last().copied().unwrap_or_default()
        );
    }
    println!(
        "repetitions {} (fingerprints identical across them)",
        rep_rates.len()
    );

    let hetero = &first[1].report;
    let read = hetero.channel("read").expect("hetero-fleet reads");
    let update = hetero.channel("update").expect("hetero-fleet updates");
    let note = "hetero-fleet path, simulated ms";
    out.set(
        "read_p50_ms",
        read.summary.p50_ns as f64 / 1e6,
        read.completions,
        note,
    );
    out.set(
        "read_p99_ms",
        read.summary.p99_ns as f64 / 1e6,
        read.completions,
        note,
    );
    out.set(
        "update_p99_ms",
        update.summary.p99_ns as f64 / 1e6,
        update.completions,
        note,
    );
    let limit_ns = (LIMIT_MS * 1e6) as u64;
    let over = stats::share_over(&read.summary, limit_ns) * read.completions as f64
        + stats::share_over(&update.summary, limit_ns) * update.completions as f64;
    let measured = read.completions + update.completions;
    out.set(
        "slo_miss_frac",
        over / measured as f64,
        measured,
        format!("hetero-fleet path, over {LIMIT_MS} simulated ms"),
    );

    let ladder = sim::tenant_ladder(t, &registry, args.seed, 200_000);
    let rungs: Vec<stats::Rung> = ladder
        .iter()
        .map(|(rate, p99, report)| {
            println!(
                "multi-tenant rung {rate:.0} ops/s: interactive p99 {p99:.3} simulated ms, fingerprint {:016x}",
                report.fingerprint()
            );
            stats::Rung {
                achieved: report.channels.iter().map(|c| c.throughput).sum(),
                p99: *p99,
                meets: *p99 <= LIMIT_MS && report.parked == 0,
            }
        })
        .collect();
    out.set(
        "slo_rate_ops_s",
        stats::ladder_rate(&rungs, LIMIT_MS),
        rungs.len() as u64,
        format!(
            "multi-tenant ladder at 30/50/70% capacity, interactive p99 <= {LIMIT_MS} simulated ms"
        ),
    );
    // The host's speed drifts by tens of percent over tens of seconds
    // (steal, neighbours' cache pressure); the best repetition is the
    // least disturbed one, as in the repository's engine benchmark.
    out.set(
        "ops_s",
        rep_rates.iter().copied().fold(0.0, f64::max),
        completed,
        format!(
            "simulated ops per wall second over the four paths, best of {} repetitions",
            rep_rates.len()
        ),
    );
    out.set(
        "cpu_us_per_op",
        rep_cpu_us.iter().copied().fold(f64::INFINITY, f64::min),
        completed,
        format!(
            "benchmark process CPU per simulated op, best of {} repetitions",
            rep_cpu_us.len()
        ),
    );
    out.set(
        "setup_s",
        median(&setups),
        setups.len() as u64,
        "registry + scenario construction, median of repetitions",
    );
    out.set(
        "peak_rss_mb",
        sys::self_peak_rss_mb(),
        1,
        "benchmark process",
    );
    out.set(
        "failed_frac",
        0.0,
        out.attempted,
        "simulated ops never fail",
    );
    if t.is_on() {
        sim_layer_metrics(&first, &mut out);
    }
    out
}

/// Simulator-layer metrics from one run of each path.
fn sim_layer_metrics(runs: &[sim::PathRun], out: &mut Outcome) {
    let mut events = 0u64;
    let mut cancelled = 0u64;
    let mut ops = 0u64;
    let mut wall = 0.0;
    for r in runs {
        events += r.report.events_processed;
        cancelled += r.report.events_cancelled;
        ops += r.completed;
        wall += r.wall_s;
        let (ops_name, p99_name) = match r.path.name {
            "sim" => ("path_ops_s.sim", "path_p99_ms.sim"),
            "hetero-fleet" => ("path_ops_s.hetero-fleet", "path_p99_ms.hetero-fleet"),
            "multi-tenant" => ("path_ops_s.multi-tenant", "path_p99_ms.multi-tenant"),
            _ => ("path_ops_s.mega-fleet", "path_p99_ms.mega-fleet"),
        };
        out.set(
            ops_name,
            r.ops_s(),
            r.completed,
            "simulated ops per wall second",
        );
        let head = r.report.headline();
        out.set(
            p99_name,
            head.summary.p99_ns as f64 / 1e6,
            head.completions,
            format!("{} channel, simulated ms", head.name),
        );
    }
    out.set(
        "sim_events",
        events as f64,
        events,
        "kernel events, four paths (base)",
    );
    out.set(
        "events_per_op",
        events as f64 / ops as f64,
        ops,
        format!("{events} events / {ops} ops"),
    );
    out.set(
        "ns_per_event",
        wall * 1e9 / events as f64,
        events,
        "path wall time per kernel event",
    );
    out.set(
        "cancelled_frac",
        cancelled as f64 / events as f64,
        events,
        format!("{cancelled} cancelled / {events} events"),
    );
}

/// The probes every traced run makes, plus, for layers the workload's
/// own phases did not reach, a small run through them with the same
/// seed.
fn layer_probes(t: &mut Tracer, args: &Args, out: &mut Outcome) {
    let live_shape = |w: LiveWorkload| Shape {
        servers: live::REPLICAS,
        keys: 10_000,
        zipf_theta: 0.99,
        read_fraction: w.read_fraction,
        value_bytes: 1024,
        rate: w.ladder[w.nominal]
            .rate
            .expect("the nominal rung is open loop"),
        live_selector: true,
        seed: args.seed,
    };
    let shape = match args.workload.as_str() {
        "live-uniform" => live_shape(live::live_uniform()),
        "node-hetero-write" => live_shape(live::node_hetero_write()),
        // The mega-fleet's shape: 256 servers, 100k keys at Zipf 0.9,
        // the simulators' C3Selector.
        _ => Shape {
            servers: 256,
            keys: 100_000,
            zipf_theta: 0.9,
            read_fraction: 0.9,
            value_bytes: 1024,
            rate: 600_000.0,
            live_selector: false,
            seed: args.seed,
        },
    };
    probes::key_sample(t, &shape, out);
    probes::selector(t, &shape, out);
    probes::codec(t, &shape, out);
    probes::mux(t, out);
    probes::server_overhead(t, &shape, out);
    probes::churn(t, args.seed, out);
    probes::record(t, &shape, out);
    probes::recorder_overhead(t, args.seed, out);
    probes::registry_build(t, out);

    let uniform = live::live_uniform();
    let probe_cfg = uniform.config(
        &uniform.ladder[uniform.nominal],
        Duration::from_secs(1),
        args.seed,
        &args.strategy,
    );
    probes::live_spawn(t, &probe_cfg, out);

    // Layers this workload's phases did not exercise: a short run
    // through them, same seed.
    if out.get("live_ops").is_none() {
        let w = live::live_uniform();
        let run = short_live_run(t, &w, args, Fleet::InProcess);
        for p in run.phases() {
            out.fail(p.check(&args.strategy));
        }
        client_layer_metrics(&run, out);
    }
    if out.get("node_spawn_s").is_none() {
        match c3_live_node::node_bin() {
            Some(bin) => {
                let w = live::node_hetero_write();
                let run = short_live_run(t, &w, args, Fleet::Nodes(&bin));
                for p in run.phases() {
                    out.fail(p.check(&args.strategy));
                }
                node_layer_metrics(&run, out);
            }
            None => out.fail(["the c3-live-node binary was not found".to_string()]),
        }
    }
    if out.get("sim_events").is_none() {
        let registry = ScenarioRegistry::with_defaults();
        let runs: Vec<sim::PathRun> = sim::scaled(0.05)
            .into_iter()
            .map(|p| sim::run_path(t, &registry, p, args.seed))
            .collect();
        for r in &runs {
            out.fail(sim::check(r));
        }
        sim_layer_metrics(&runs, out);
    }
}

/// A short version of a live workload: one round of two seconds.
fn short_live_run(t: &mut Tracer, w: &LiveWorkload, args: &Args, fleet: Fleet<'_>) -> LiveRun {
    live::run_workload(t, w, 2.0, 1, args.seed, &args.strategy, fleet)
}

/// Span-derived metrics: per-layer self time, span count, and the
/// tracing overhead (spans recorded × the measured cost of one span,
/// over the traced run's wall time).
fn trace_metrics(tracer: &Tracer, out: &mut Outcome) {
    let spans = tracer.spans();
    let self_ns = spans::self_times(spans);
    for (i, (s, own)) in spans.iter().zip(&self_ns).enumerate() {
        println!("span {}", spans::span_json(i, s, *own));
    }
    let by_layer = spans::self_time_by_layer(spans);
    println!("self time by layer:");
    for (layer, ns) in &by_layer {
        println!("  {layer:<14} {:>12.3} ms", *ns as f64 / 1e6);
    }
    for &(name, _) in PER_LAYER {
        if let Some(layer) = name.strip_prefix("self_ms.") {
            let ns = by_layer.get(layer).copied().unwrap_or(0);
            let count = spans.iter().filter(|s| s.layer == layer).count();
            out.set(name, ns as f64 / 1e6, count as u64, "span self time");
        }
    }
    let wall_ns = spans.first().map_or(1, |root| root.duration_ns()).max(1);
    let cost = spans::span_cost_ns();
    out.set(
        "spans",
        spans.len() as f64,
        spans.len() as u64,
        "recorded spans",
    );
    out.set(
        "trace_overhead_frac",
        spans.len() as f64 * cost / wall_ns as f64,
        spans.len() as u64,
        format!(
            "{} spans x {cost:.0} ns / {:.3} s traced wall time",
            spans.len(),
            wall_ns as f64 / 1e9
        ),
    );
}
