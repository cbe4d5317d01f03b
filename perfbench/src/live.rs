//! The two socket workloads: `live-uniform` (in-process thread fleet)
//! and `node-hetero-write` (one `c3-live-node` process per replica).
//!
//! Both drive the unchanged multiplexed client through
//! [`c3_live::run_live_on`]: 1 issuer thread, 1 connection per replica,
//! 3 replicas, strategy C3. Every phase runs on a freshly spawned fleet,
//! so each phase is one set-up sample as well as one timed window.

use std::path::Path;
use std::time::{Duration, Instant};

use c3_cluster::DiskKind;
use c3_engine::Strategy;
use c3_live::{
    run_live_on, LifecycleCounts, LiveConfig, LiveReport, SlowdownScript, Transport,
    HEALTH_FEEDBACK_LAG, HEALTH_INFLIGHT,
};
use c3_live_node::{FleetConfig, NodeFleet};
use c3_metrics::LatencySummary;
use c3_scenarios::ChannelReport;

use crate::spans::Tracer;
use crate::stats::{self, Rung};
use crate::sys;

/// The latency limit every workload is judged against: read p99 ≤ 10 ms.
pub const LIMIT_MS: f64 = 10.0;
/// Issuer threads of the load generator. One: on a machine of a few
/// cores, the fewer runnable threads beside the fleet's own, the less of
/// the tail the scheduler sets.
pub const ISSUERS: usize = 1;
/// Multiplexed connections per replica.
pub const CONNECTIONS: usize = 1;
/// Replicas (the paper's replication factor).
pub const REPLICAS: usize = 3;
/// In-flight budget of the open-loop phases: a safety valve well above
/// the occupancy a keeping-up fleet needs, so a backlog shows as
/// latency and issue shortfall rather than as a silent client cap.
pub const OPEN_IN_FLIGHT: usize = 256;
/// Seconds of each open-loop phase whose ops warm the fleet up and are
/// left out of the figures: a fresh client's C3 rate limiters start
/// from their initial rate, and a store's clients run far longer than
/// that ramp.
pub const WARMUP_S: f64 = 0.25;
/// In-flight budget of the closed-loop phase.
pub const CLOSED_IN_FLIGHT: usize = 16;

/// Where the fleet runs.
#[derive(Clone, Copy, Debug)]
pub enum Fleet<'a> {
    /// Replica threads inside the benchmark process.
    InProcess,
    /// One `c3-live-node` process per replica, from this binary.
    Nodes(&'a Path),
}

/// One timed window of a live workload.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Phase label.
    pub name: &'static str,
    /// Open-loop rate in ops/s; `None` runs the closed loop.
    pub rate: Option<f64>,
    /// Share of a round's seconds this phase measures for.
    pub share: f64,
}

/// A live workload's definition.
#[derive(Clone, Debug)]
pub struct LiveWorkload {
    /// Workload name.
    pub name: &'static str,
    /// GET share of operations.
    pub read_fraction: f64,
    /// Per-replica slowdown tiers (`[1, 1, 3]` = replica 2 three times
    /// slower for the whole run).
    pub tiers: &'static [f64],
    /// The open-loop ladder, ascending; `nominal` indexes the rung whose
    /// latencies are the headline.
    pub ladder: &'static [Phase],
    /// Index of the nominal rung in `ladder`.
    pub nominal: usize,
    /// The closed loop at [`CLOSED_IN_FLIGHT`].
    pub closed: Phase,
}

/// `live-uniform`: SSD service times, no stragglers, 90% GET. The rungs
/// below 12k sit where C3's rate-limit stalls catch about 1% of reads,
/// so a window's p99 there is either clear of them or inside them; at
/// the nominal 12k they are frequent enough that the p99 is steady.
pub fn live_uniform() -> LiveWorkload {
    LiveWorkload {
        name: "live-uniform",
        read_fraction: 0.9,
        tiers: &[1.0],
        ladder: &[
            Phase {
                name: "4k",
                rate: Some(4_000.0),
                share: 0.15,
            },
            Phase {
                name: "6k",
                rate: Some(6_000.0),
                share: 0.2,
            },
            Phase {
                name: "8k",
                rate: Some(8_000.0),
                share: 0.2,
            },
            Phase {
                name: "12k",
                rate: Some(12_000.0),
                share: 0.35,
            },
        ],
        nominal: 3,
        closed: Phase {
            name: "closed",
            rate: None,
            share: 0.1,
        },
    }
}

/// `node-hetero-write`: replica 2 permanently 3x slower, 50% PUT.
pub fn node_hetero_write() -> LiveWorkload {
    LiveWorkload {
        name: "node-hetero-write",
        read_fraction: 0.5,
        tiers: &[1.0, 1.0, 3.0],
        ladder: &[
            Phase {
                name: "light",
                rate: Some(3_000.0),
                share: 0.125,
            },
            Phase {
                name: "nominal",
                rate: Some(6_000.0),
                share: 0.5,
            },
            Phase {
                name: "heavy",
                rate: Some(12_000.0),
                share: 0.125,
            },
        ],
        nominal: 1,
        closed: Phase {
            name: "closed",
            rate: None,
            share: 0.25,
        },
    }
}

impl LiveWorkload {
    /// The client/fleet config of one phase.
    pub fn config(
        &self,
        phase: &Phase,
        run_for: Duration,
        seed: u64,
        strategy: &Strategy,
    ) -> LiveConfig {
        let mut cfg = LiveConfig {
            replicas: REPLICAS,
            replication_factor: REPLICAS,
            threads: ISSUERS,
            connections: CONNECTIONS,
            in_flight: if phase.rate.is_some() {
                OPEN_IN_FLIGHT
            } else {
                CLOSED_IN_FLIGHT
            },
            keys: 10_000,
            zipf_theta: 0.99,
            read_fraction: self.read_fraction,
            value_bytes: 1024,
            disk: DiskKind::Ssd,
            strategy: strategy.clone(),
            offered_rate: phase.rate,
            exact_latency: true,
            run_for,
            warmup_ops: phase.rate.map_or(0, |r| (r * WARMUP_S) as u64),
            seed,
            ..LiveConfig::default()
        };
        cfg.scripted = SlowdownScript::tiers(self.tiers, cfg.replicas)
            .windows()
            .to_vec();
        cfg
    }
}

/// What one phase produced.
pub struct PhaseResult {
    /// The phase.
    pub phase: Phase,
    /// The in-flight budget in force.
    pub in_flight: usize,
    /// Ops issued first to warm the fleet up, left out of every figure.
    pub warmup_ops: u64,
    /// Measured window.
    pub run_for: Duration,
    /// The client's report.
    pub live: LiveReport,
    /// Wall time outside the measured window: spawn, dial, drain,
    /// teardown.
    pub setup_s: f64,
    /// Of which fleet spawn + shutdown.
    pub spawn_s: f64,
    /// CPU of the benchmark process plus the node processes.
    pub cpu: Duration,
    /// Node processes' CPU alone.
    pub node_cpu: Duration,
    /// Sum of node processes' peak RSS, MiB (0 in-process).
    pub node_rss_mb: f64,
}

impl PhaseResult {
    /// Completed measured ops (both channels).
    pub fn completions(&self) -> u64 {
        self.live.report.total_completions()
    }

    /// Ops issued after the warm-up.
    pub fn measured_issued(&self) -> u64 {
        self.live.ops_issued.saturating_sub(self.warmup_ops)
    }

    /// Measured ops neither completed nor parked by teardown.
    pub fn unfinished(&self) -> u64 {
        self.measured_issued()
            .saturating_sub(self.completions() + self.live.lifecycle.parked)
    }

    /// Unfinished ops that were never put on the wire. An issuer counts
    /// an op as issued before it selects a replica, and drops it unsent
    /// when selection finds the window already closed, so up to one op
    /// per issuer ends every phase counted but never attempted. On these
    /// fault-free fleets (lifecycle counters checked zero, a 3 s drain at
    /// teardown) a sent op always completes, so those are the only
    /// unfinished ops a healthy run has; any beyond them are failures.
    pub fn never_sent(&self) -> u64 {
        self.unfinished().min(ISSUERS as u64)
    }

    /// Every completed op, the warm-up's included: on these fault-free
    /// fleets a warm-up op always completes.
    pub fn all_completions(&self) -> u64 {
        self.completions() + self.warmup_ops.min(self.live.ops_issued)
    }

    /// Measured ops put on the wire.
    pub fn attempted(&self) -> u64 {
        self.measured_issued() - self.never_sent()
    }

    /// Attempted ops that did not complete: parked or unfinished.
    pub fn failed(&self) -> u64 {
        self.live.lifecycle.parked + self.unfinished() - self.never_sent()
    }

    /// Completions per second of the measured window, from the first
    /// measured completion to the last.
    pub fn achieved_ops_s(&self) -> f64 {
        self.completions() as f64 / self.live.report.duration.as_secs_f64()
    }

    /// A report channel.
    pub fn channel(&self, name: &str) -> &ChannelReport {
        self.live
            .report
            .channel(name)
            .unwrap_or_else(|| panic!("live report has no {name} channel"))
    }

    /// A client-health channel.
    pub fn health(&self, name: &str) -> &LatencySummary {
        &self
            .live
            .health
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("live report has no {name} health channel"))
            .summary
    }

    /// Share of attempted ops that missed the limit: failed, or
    /// completed above it.
    pub fn miss_frac(&self) -> f64 {
        let limit_ns = (LIMIT_MS * 1e6) as u64;
        let over: f64 = ["read", "update"]
            .iter()
            .map(|c| {
                let ch = self.channel(c);
                stats::share_over(&ch.summary, limit_ns) * ch.completions as f64
            })
            .sum();
        (over + self.failed() as f64) / self.attempted().max(1) as f64
    }

    /// 1 − issued / (rate × window): how far the generator fell behind
    /// its schedule (open loop only).
    pub fn issue_shortfall(&self) -> f64 {
        let rate = self.phase.rate.expect("open-loop phase");
        1.0 - self.live.ops_issued as f64 / (rate * self.run_for.as_secs_f64())
    }

    /// The backlog stayed bounded: failed ops (which miss the limit)
    /// under 1%, the generator on schedule and the in-flight budget
    /// never exhausted.
    pub fn backlog_bounded(&self) -> bool {
        self.failed() * 100 <= self.attempted()
            && self.issue_shortfall() < 0.05
            && self.health(HEALTH_INFLIGHT).max_ns < self.in_flight as u64
    }

    /// The per-run correctness checks, as failure messages.
    pub fn check(&self, strategy: &Strategy) -> Vec<String> {
        let mut failures = Vec::new();
        let name = self.phase.name;
        let issued = self.measured_issued();
        let done = self.completions() + self.live.lifecycle.parked;
        if done > issued {
            failures.push(format!(
                "{name}: completions + parked = {done} exceeds measured issued = {issued}"
            ));
        }
        if self.live.lifecycle != LifecycleCounts::default() {
            failures.push(format!(
                "{name}: lifecycle counters not zero on a fault-free run: {:?}",
                self.live.lifecycle
            ));
        }
        let inflight_max = self.health(HEALTH_INFLIGHT).max_ns;
        if inflight_max > self.in_flight as u64 {
            failures.push(format!(
                "{name}: in-flight gauge reached {inflight_max} above the budget {}",
                self.in_flight
            ));
        }
        if strategy.name() == "C3" && self.live.score_trace.is_empty() {
            failures.push(format!("{name}: the C3 score trace is empty"));
        }
        if issued == 0 {
            failures.push(format!("{name}: no operation was issued"));
        }
        failures
    }
}

/// Run one phase on a fresh fleet.
pub fn run_phase(
    tracer: &mut Tracer,
    workload: &LiveWorkload,
    phase: &Phase,
    run_for: Duration,
    seed: u64,
    strategy: &Strategy,
    fleet: Fleet<'_>,
) -> PhaseResult {
    let cfg = workload.config(phase, run_for, seed, strategy);
    let in_flight = cfg.in_flight;
    let warmup_ops = cfg.warmup_ops;
    let label = format!("{} {}", workload.name, phase.name);
    let cpu0 = sys::self_cpu();
    let start = Instant::now();
    let (live, spawn_s, node_cpu, node_rss_mb) = match fleet {
        Fleet::InProcess => {
            let live = tracer.span("c3-live", &format!("run_live_on {label}"), 1, |_| {
                run_live_on(workload.name, cfg, Transport::InProcess)
            });
            (live, 0.0, Duration::ZERO, 0.0)
        }
        Fleet::Nodes(bin) => {
            let fleet_cfg = FleetConfig::from_live(&cfg);
            let t = Instant::now();
            let nodes = tracer.span("c3-live-node", "NodeFleet::spawn", 1, |_| {
                NodeFleet::spawn(bin, &fleet_cfg)
            });
            let nodes = nodes.unwrap_or_else(|e| panic!("node fleet failed to spawn: {e}"));
            let mut spawn_s = t.elapsed().as_secs_f64();
            let transport = Transport::Remote {
                addrs: nodes.addrs().to_vec(),
                config_digest: nodes.digest(),
            };
            let live = tracer.span("c3-live", &format!("run_live_on {label}"), 1, |_| {
                run_live_on(workload.name, cfg, transport)
            });
            let pids = nodes.pids();
            let node_cpu = pids.iter().filter_map(|&p| sys::pid_cpu(p)).sum();
            let node_rss_mb = pids.iter().filter_map(|&p| sys::pid_peak_rss_mb(p)).sum();
            let t = Instant::now();
            let forced = tracer.span("c3-live-node", "NodeFleet::shutdown", 1, |_| {
                nodes.shutdown()
            });
            spawn_s += t.elapsed().as_secs_f64();
            assert_eq!(forced, 0, "{forced} node process(es) needed a kill");
            (live, spawn_s, node_cpu, node_rss_mb)
        }
    };
    let wall = start.elapsed();
    let self_cpu = sys::self_cpu().saturating_sub(cpu0);
    PhaseResult {
        phase: *phase,
        in_flight,
        warmup_ops,
        run_for,
        live,
        setup_s: wall.saturating_sub(run_for).as_secs_f64(),
        spawn_s,
        cpu: self_cpu + node_cpu,
        node_cpu,
        node_rss_mb,
    }
}

/// One round of a live workload: every ladder rung, then the closed loop.
pub struct Round {
    /// Ladder results, ascending rate.
    pub ladder: Vec<PhaseResult>,
    /// The closed-loop result.
    pub closed: PhaseResult,
    /// Index of the nominal rung.
    pub nominal: usize,
}

impl Round {
    /// All phases.
    pub fn phases(&self) -> impl Iterator<Item = &PhaseResult> {
        self.ladder.iter().chain(std::iter::once(&self.closed))
    }

    /// The nominal rung.
    pub fn nominal(&self) -> &PhaseResult {
        &self.ladder[self.nominal]
    }

    /// Highest rate of this round's ladder meeting the limit: a rung
    /// meets it when its read p99 is within the limit and its backlog
    /// stayed bounded; the crossing is interpolated on read p99 between
    /// the top passing rung and the next.
    pub fn slo_rate(&self) -> f64 {
        let rungs: Vec<Rung> = self
            .ladder
            .iter()
            .map(|p| {
                let p99 = p.channel("read").summary.p99_ns as f64 / 1e6;
                Rung {
                    achieved: p.achieved_ops_s(),
                    p99,
                    meets: p99 <= LIMIT_MS && p.backlog_bounded(),
                }
            })
            .collect();
        stats::ladder_rate(&rungs, LIMIT_MS)
    }

    /// CPU per completed op over the round's phases, in µs.
    pub fn cpu_us_per_op(&self) -> f64 {
        let cpu: Duration = self.phases().map(|p| p.cpu).sum();
        let ops: u64 = self.phases().map(PhaseResult::all_completions).sum();
        cpu.as_secs_f64() * 1e6 / ops.max(1) as f64
    }
}

/// A whole live workload run: the same round of phases repeated, each
/// round on its own workload draw. A single window's tail swings with
/// the few stalls that land in it and with the draw; a statistic over
/// rounds averages both out, and a burst of interference on the shared
/// machine spoils one round rather than the run.
pub struct LiveRun {
    /// The rounds, in run order.
    pub rounds: Vec<Round>,
}

impl LiveRun {
    /// Every phase of every round.
    pub fn phases(&self) -> impl Iterator<Item = &PhaseResult> {
        self.rounds.iter().flat_map(Round::phases)
    }

    /// The interquartile mean over rounds of `f`.
    pub fn across_rounds(&self, f: impl Fn(&Round) -> f64) -> f64 {
        let values: Vec<f64> = self.rounds.iter().map(f).collect();
        stats::interquartile_mean(&values)
    }

    /// Highest ladder rate meeting the limit: the median over rounds of
    /// each round's own ladder crossing ([`Round::slo_rate`]). A round
    /// is a whole ladder on one workload draw, so its crossing is one
    /// trial, and the median keeps a round whose rung caught a stall or
    /// two from moving the figure.
    pub fn slo_rate(&self) -> f64 {
        let rates: Vec<f64> = self.rounds.iter().map(Round::slo_rate).collect();
        stats::median(&rates)
    }
}

/// Rounds a live workload run makes.
pub const ROUNDS: usize = 12;

/// Run a whole live workload within `seconds`: `rounds` rounds, each
/// phase measuring its share of a round's seconds. Each round draws its
/// inputs from its own seed derived from `seed`, so a run's figures span
/// several workload draws rather than one.
pub fn run_workload(
    tracer: &mut Tracer,
    workload: &LiveWorkload,
    seconds: f64,
    rounds: usize,
    seed: u64,
    strategy: &Strategy,
    fleet: Fleet<'_>,
) -> LiveRun {
    let round_s = seconds / rounds as f64;
    let window = |p: &Phase| Duration::from_secs_f64((round_s * p.share).max(0.5));
    let seeds = c3_engine::SeedSeq::new(seed);
    let rounds = (0..rounds)
        .map(|round| {
            let seed = seeds.phase_seed(round as u64);
            let ladder = workload
                .ladder
                .iter()
                .map(|p| run_phase(tracer, workload, p, window(p), seed, strategy, fleet))
                .collect();
            let closed = &workload.closed;
            let closed = run_phase(
                tracer,
                workload,
                closed,
                window(closed),
                seed,
                strategy,
                fleet,
            );
            Round {
                ladder,
                closed,
                nominal: workload.nominal,
            }
        })
        .collect();
    LiveRun { rounds }
}

/// Nanoseconds of a feedback fold at a percentile.
pub fn feedback_fold_ns(p: &PhaseResult) -> (f64, f64) {
    let s = p.health(HEALTH_FEEDBACK_LAG);
    (s.p50_ns as f64, s.p99_ns as f64)
}
