//! Client-scaling sweep for the multiplexed live client: closed-loop
//! throughput as a function of the in-flight budget, per strategy —
//! written to `BENCH_live.json` (override the path with `BENCH_LIVE_OUT`).
//!
//! The question this answers is the live backend's credibility question:
//! **who sets the pace, the client or the servers?** The old client held
//! one request per worker thread, so "live throughput" measured the
//! client's thread count. The multiplexed client holds `in_flight`
//! requests over per-replica writer/reader connection pairs; sweeping the
//! budget from 1 to past 1000 must show
//!
//! 1. throughput *scaling* with the budget while the fleet has idle
//!    executors (client-bound region),
//! 2. a *knee*, and then a plateau pinned at the fleet's service capacity
//!    (replicas × per-replica concurrency / mean service time), where
//!    raising the budget only deepens the server queues (server-bound
//!    region — latency grows, throughput does not).
//!
//! The occupancy health channel corroborates the verdict per cell: in the
//! client-bound region p99 occupancy sits at the budget ceiling; past the
//! knee the budget stops being the binding constraint on throughput.
//! Each cell also prints C3's rate-limiter counters (decreases, increases,
//! throttled sends, summed over replicas): on this fleet no replica is
//! slow, so a steady stream of decreases means the limiter is cutting
//! healthy replicas.
//!
//! A second section sweeps **fleet shape**: the same workload against
//! multi-process `c3-live-node` fleets (one replica per OS process),
//! with per-process RSS/CPU peaks from the coordinator's procfs gauges
//! — the cross-process twin of the in-flight ladder, skipped gracefully
//! when the node binary is not built.
//!
//! Each cell is a real socket run with real sleeps, so cells run
//! serially (the `run_live` gate) and the whole sweep takes
//! `cells × run_for` wall time. `--quick` halves the budget ladder and
//! run length for CI smoke use.

use std::fmt::Write as _;
use std::time::Duration;

use c3_core::RateStats;
use c3_engine::Strategy;
use c3_live::{run_live, LiveConfig};
use c3_live_node::{node_bin, run_node};
use c3_telemetry::{node_cpu_gauge, node_rss_gauge};

/// One measured cell of the sweep.
struct Cell {
    strategy: String,
    in_flight: usize,
    throughput: f64,
    read_p99_ms: f64,
    occupancy_p50: u64,
    occupancy_p99: u64,
    occupancy_max: u64,
    feedback_lag_p50_ns: u64,
    feedback_lag_p99_ns: u64,
    feedback_lag_max_ns: u64,
    /// C3 rate-limiter counters (zeros for LOR).
    rate: RateStats,
}

fn cell_cfg(strategy: Strategy, in_flight: usize, run_for: Duration) -> LiveConfig {
    LiveConfig {
        strategy,
        in_flight,
        // Issuers never block on responses; a fixed handful is enough for
        // every budget, which is exactly the point of the sweep.
        threads: 8,
        run_for,
        warmup_ops: 200,
        seed: 1,
        ..LiveConfig::default()
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let out_path = std::env::var("BENCH_LIVE_OUT").unwrap_or_else(|_| "BENCH_live.json".into());
    let budgets: &[usize] = if quick {
        &[1, 16, 256, 1024]
    } else {
        &[1, 4, 16, 64, 256, 1024, 2048]
    };
    let run_for = Duration::from_millis(if quick { 500 } else { 1_200 });
    let strategies = [Strategy::c3(), Strategy::lor()];
    let fleet = LiveConfig::default();
    println!(
        "client scaling: closed loop, {} replicas x {} executors, SSD service times, {:?}/cell",
        fleet.replicas, fleet.concurrency, run_for
    );
    println!(
        "{:<9} {:>9} {:>12} {:>9} {:>17} {:>17}",
        "strategy", "in-flight", "ops/s", "p99 ms", "occ p50/p99/max", "rate dec/inc/thr"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for strategy in &strategies {
        for &budget in budgets {
            let live = run_live(
                "client-scaling",
                cell_cfg(strategy.clone(), budget, run_for),
            );
            let report = &live.report;
            let throughput: f64 = report.channels.iter().map(|c| c.throughput).sum();
            let read_p99_ms = report.p99_ms();
            let occ = &live.health[0].summary;
            let lag = &live.health[1].summary;
            let occ_col = format!("{}/{}/{}", occ.p50_ns, occ.p99_ns, occ.max_ns);
            let rate = live.rate;
            let rate_col = format!("{}/{}/{}", rate.decreases, rate.increases, rate.throttled);
            println!(
                "{:<9} {:>9} {:>12.0} {:>9.2} {:>17} {:>17}",
                strategy.label(),
                budget,
                throughput,
                read_p99_ms,
                occ_col,
                rate_col,
            );
            cells.push(Cell {
                strategy: strategy.label().to_string(),
                in_flight: budget,
                throughput,
                read_p99_ms,
                occupancy_p50: occ.p50_ns,
                occupancy_p99: occ.p99_ns,
                occupancy_max: occ.max_ns,
                feedback_lag_p50_ns: lag.p50_ns,
                feedback_lag_p99_ns: lag.p99_ns,
                feedback_lag_max_ns: lag.max_ns,
                rate,
            });
        }
    }

    // Verdicts come from the throughput curve, not from occupancy: a
    // closed loop keeps its budget fully occupied in *every* regime (the
    // excess just queues on the servers), so "who is the bottleneck" is
    // decided by whether more budget still buys throughput. The knee per
    // strategy is the smallest budget whose throughput reaches 90% of
    // that strategy's plateau (its best cell); cells at/past the knee are
    // the server-bound plateau the acceptance criterion wants.
    let mut knees = Vec::new();
    let mut verdicts: Vec<&'static str> = Vec::with_capacity(cells.len());
    for strategy in &strategies {
        let own: Vec<&Cell> = cells
            .iter()
            .filter(|c| c.strategy == strategy.label())
            .collect();
        let plateau = own.iter().map(|c| c.throughput).fold(0.0, f64::max);
        let knee = own
            .iter()
            .find(|c| c.throughput >= 0.9 * plateau)
            .map(|c| c.in_flight)
            .unwrap_or(0);
        // At or past the knee the fleet sets the pace — including cells
        // where throughput *droops* slightly under the deep queues that
        // oversized budgets build.
        verdicts.extend(own.iter().map(|c| {
            if c.in_flight >= knee {
                "server-bound"
            } else {
                "client-bound"
            }
        }));
        println!(
            "{}: plateau {:.0} ops/s, knee at in-flight {} (budgets past the knee buy \
             latency, not throughput)",
            strategy.label(),
            plateau,
            knee
        );
        knees.push((strategy.label(), knee, plateau));
    }

    let mut json = String::new();
    json.push_str("{\n  \"schema\": 1,\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"replicas\": {}, \"concurrency\": {}, \"disk\": \"ssd\", \
         \"threads\": 8, \"run_for_ms\": {}, \"loop\": \"closed\"}},",
        fleet.replicas,
        fleet.concurrency,
        run_for.as_millis()
    );
    json.push_str("  \"cells\": [\n");
    for (i, (c, verdict)) in cells.iter().zip(&verdicts).enumerate() {
        let _ = write!(
            json,
            "    {{\"strategy\": \"{}\", \"in_flight\": {}, \"throughput\": {:.1}, \
             \"read_p99_ms\": {:.3}, \"occupancy_p50\": {}, \"occupancy_p99\": {}, \
             \"occupancy_max\": {}, \"feedback_lag_p50_ns\": {}, \
             \"feedback_lag_p99_ns\": {}, \"feedback_lag_max_ns\": {}, \
             \"rate_decreases\": {}, \"rate_increases\": {}, \"rate_throttled\": {}, \
             \"verdict\": \"{}\"}}",
            c.strategy,
            c.in_flight,
            c.throughput,
            c.read_p99_ms,
            c.occupancy_p50,
            c.occupancy_p99,
            c.occupancy_max,
            c.feedback_lag_p50_ns,
            c.feedback_lag_p99_ns,
            c.feedback_lag_max_ns,
            c.rate.decreases,
            c.rate.increases,
            c.rate.throttled,
            verdict
        );
        json.push_str(if i + 1 == cells.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n  \"knees\": [\n");
    for (i, (name, knee, plateau)) in knees.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"strategy\": \"{name}\", \"knee_in_flight\": {knee}, \
             \"plateau_ops_per_sec\": {plateau:.1}}}"
        );
        json.push_str(if i + 1 == knees.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    node_cells_json(&mut json, quick, run_for);
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_live.json");
    println!("wrote {out_path}");
}

/// The node-scaling cells: the same closed-loop workload against fleets
/// of `c3-live-node` *processes* — one replica per process, per-process
/// RSS/CPU from procfs. Skipped (with an empty-but-present JSON section)
/// when the node binary is not built, so the sweep still runs from a
/// bare `cargo run --bin client_scaling`.
fn node_cells_json(json: &mut String, quick: bool, run_for: Duration) {
    json.push_str("  \"node_cells\": [\n");
    let Some(bin) = node_bin() else {
        println!(
            "node scaling: skipped (c3-live-node binary not built; cargo build --release first)"
        );
        json.push_str("  ]\n");
        return;
    };
    let fleets: &[usize] = if quick { &[3] } else { &[3, 6] };
    println!("node scaling: closed loop, one process per replica, in-flight 256, {run_for:?}/cell");
    for (i, &nodes) in fleets.iter().enumerate() {
        let cfg = LiveConfig {
            replicas: nodes,
            in_flight: 256,
            threads: 8,
            run_for,
            warmup_ops: 200,
            seed: 1,
            ..LiveConfig::default()
        };
        let live = run_node("node-scaling", cfg, &bin);
        let report = &live.report;
        let throughput: f64 = report.channels.iter().map(|c| c.throughput).sum();
        let read_p99_ms = report.p99_ms();
        let _ = write!(
            json,
            "    {{\"strategy\": \"C3\", \"nodes\": {nodes}, \"throughput\": {throughput:.1}, \
             \"read_p99_ms\": {read_p99_ms:.3}, \"processes\": ["
        );
        let mut procs = Vec::new();
        for replica in 0..nodes {
            let peak = |name: &str| {
                live.recorder
                    .gauge_series(name)
                    .map(|g| g.values.iter().map(|(_, v)| *v).max().unwrap_or(0))
                    .unwrap_or(0)
            };
            let rss_kb = peak(&node_rss_gauge(replica));
            let cpu_ms = peak(&node_cpu_gauge(replica));
            procs.push(format!(
                "{{\"replica\": {replica}, \"rss_kb_peak\": {rss_kb}, \"cpu_ms\": {cpu_ms}}}"
            ));
        }
        let _ = write!(json, "{}]}}", procs.join(", "));
        json.push_str(if i + 1 == fleets.len() { "\n" } else { ",\n" });
        println!(
            "nodes={nodes}: {throughput:.0} ops/s, p99 {read_p99_ms:.2} ms, per-process peaks: {}",
            procs.join(" ")
        );
    }
    json.push_str("  ]\n");
}
