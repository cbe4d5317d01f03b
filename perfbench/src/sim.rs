//! `sim-suite`: the four simulator request paths in sequence, one
//! thread, fixed op counts.
//!
//! - `sim`: the §6 simulator (`c3-sim`'s `SimScenario`, the scenario
//!   behind `Simulation`), driven by the engine's `ScenarioRunner`;
//! - `hetero-fleet`: the §5 `c3-cluster` path with a 3x slow tier;
//! - `multi-tenant`: three tenant classes on one fleet;
//! - `mega-fleet`: 256 servers, 120k clients, a large pending set.
//!
//! The paths have no sockets or sleeps, so kernel, selector and
//! bookkeeping CPU decide their speed, and every report is exact per
//! seed: the suite repeats within the run and checks that each path's
//! fingerprint repeats.

use std::time::Instant;

use c3_core::Nanos;
use c3_engine::{ScenarioRunner, Strategy};
use c3_scenarios::{
    MegaFleetConfig, MultiTenantConfig, MultiTenantScenario, RunTuning, ScenarioParams,
    ScenarioRegistry, ScenarioReport, HETERO_FLEET, MEGA_FLEET, MULTI_TENANT,
};
use c3_sim::{SimConfig, SimScenario};

use crate::spans::Tracer;

/// A path of the suite and its op count per repetition.
#[derive(Clone, Copy, Debug)]
pub struct Path {
    /// Path name (the registry name for the scenario paths).
    pub name: &'static str,
    /// Requested operations.
    pub ops: u64,
}

/// Op counts sized so one repetition runs for seconds on a 2-vCPU box.
pub const PATHS: [Path; 4] = [
    Path {
        name: "sim",
        ops: 2_000_000,
    },
    Path {
        name: HETERO_FLEET,
        ops: 1_500_000,
    },
    Path {
        name: MULTI_TENANT,
        ops: 1_500_000,
    },
    Path {
        name: MEGA_FLEET,
        ops: 800_000,
    },
];

/// Scale every path's op count by `factor` (probe-sized runs).
pub fn scaled(factor: f64) -> Vec<Path> {
    PATHS
        .iter()
        .map(|p| Path {
            name: p.name,
            ops: ((p.ops as f64 * factor) as u64).max(20_000),
        })
        .collect()
}

/// One path's run.
#[derive(Clone, Debug)]
pub struct PathRun {
    /// The path.
    pub path: Path,
    /// Its report.
    pub report: ScenarioReport,
    /// Completions including warm-up.
    pub completed: u64,
    /// Wall seconds of the run.
    pub wall_s: f64,
}

impl PathRun {
    /// Simulated ops per wall second.
    pub fn ops_s(&self) -> f64 {
        self.completed as f64 / self.wall_s
    }
}

/// The §6 simulator config of the `sim` path.
fn sim_config(ops: u64, seed: u64) -> SimConfig {
    SimConfig {
        servers: 20,
        clients: 40,
        generators: 40,
        total_requests: ops,
        fluctuation_interval: Nanos::from_millis(100),
        strategy: Strategy::c3(),
        seed,
        ..SimConfig::default()
    }
}

/// Exact percentiles, optionally open loop at `rate`.
fn exact(rate: Option<f64>) -> RunTuning {
    RunTuning {
        offered_rate: rate,
        exact_latency: true,
        ..RunTuning::default()
    }
}

/// Run one path.
pub fn run_path(
    tracer: &mut Tracer,
    registry: &ScenarioRegistry,
    path: Path,
    seed: u64,
) -> PathRun {
    let start = Instant::now();
    let (report, completed) = if path.name == "sim" {
        let cfg = sim_config(path.ops, seed);
        let servers = cfg.servers;
        let window = cfg.load_window;
        tracer.span("c3-sim", "ScenarioRunner::run(SimScenario)", 1, |_| {
            let mut scenario = SimScenario::new(cfg);
            let (metrics, stats) = ScenarioRunner::new(seed).run(&mut scenario, servers, window);
            let report =
                ScenarioReport::from_metrics("sim", &Strategy::c3(), seed, &metrics, &stats);
            (report, metrics.total_completions())
        })
    } else {
        let params = ScenarioParams::tuned(Strategy::c3(), seed, path.ops, exact(None));
        let warmup = params.warmup;
        let report = tracer.span(
            "c3-scenarios",
            &format!("ScenarioRegistry::run {}", path.name),
            1,
            |_| registry.run(path.name, &params),
        );
        let report = report.unwrap_or_else(|e| panic!("{}: {e}", path.name));
        let completed = report.total_completions() + warmup;
        (report, completed)
    };
    PathRun {
        path,
        report,
        completed,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// The per-run checks on one path: every requested op completed.
pub fn check(run: &PathRun) -> Vec<String> {
    let mut failures = Vec::new();
    if run.completed != run.path.ops {
        failures.push(format!(
            "{}: {} completions for {} requested ops",
            run.path.name, run.completed, run.path.ops
        ));
    }
    if run.report.parked != 0 || run.report.timeouts != 0 {
        failures.push(format!(
            "{}: {} parked / {} timed out on a fault-free path",
            run.path.name, run.report.parked, run.report.timeouts
        ));
    }
    failures
}

/// Time building what a sim run needs before its first event: the
/// scenario registry and each scenario path's construction (the fleet,
/// client and selector state), in seconds.
pub fn setup_once(tracer: &mut Tracer, seed: u64) -> f64 {
    let start = Instant::now();
    let registry = tracer.span("c3-scenarios", "ScenarioRegistry::with_defaults", 1, |_| {
        ScenarioRegistry::with_defaults()
    });
    let strategies = c3_scenarios::scenario_registry();
    tracer.span("c3-sim", "SimScenario::new", 1, |_| {
        std::hint::black_box(SimScenario::new(sim_config(PATHS[0].ops, seed)));
    });
    tracer.span("c3-scenarios", "MultiTenantScenario::new", 1, |_| {
        std::hint::black_box(MultiTenantScenario::new(
            MultiTenantConfig {
                seed,
                ..MultiTenantConfig::default()
            },
            &strategies,
        ));
    });
    tracer.span("c3-scenarios", "MegaFleetScenario::new", 1, |_| {
        std::hint::black_box(c3_scenarios::MegaFleetScenario::new(
            MegaFleetConfig {
                seed,
                ..MegaFleetConfig::default()
            },
            &strategies,
        ));
    });
    std::hint::black_box(registry);
    start.elapsed().as_secs_f64()
}

/// The multi-tenant throughput-at-limit ladder: the interactive tenant's
/// p99 at 30%, 50% and 70% of the fleet's capacity, in simulated ms.
pub fn tenant_ladder(
    tracer: &mut Tracer,
    registry: &ScenarioRegistry,
    seed: u64,
    ops: u64,
) -> Vec<(f64, f64, ScenarioReport)> {
    let capacity = MultiTenantConfig::default().capacity();
    [0.3, 0.5, 0.7]
        .iter()
        .map(|share| {
            let rate = capacity * share;
            let params = ScenarioParams::tuned(Strategy::c3(), seed, ops, exact(Some(rate)));
            let report = tracer.span(
                "c3-scenarios",
                &format!("ScenarioRegistry::run multi-tenant @{share}"),
                1,
                |_| registry.run(MULTI_TENANT, &params),
            );
            let report = report.unwrap_or_else(|e| panic!("multi-tenant ladder: {e}"));
            let p99 = report.headline().summary.p99_ns as f64 / 1e6;
            (rate, p99, report)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_reaches_every_path_and_reproduces_its_fingerprint() {
        let registry = ScenarioRegistry::with_defaults();
        let mut t = Tracer::new(false);
        for path in scaled(0.0) {
            let a = run_path(&mut t, &registry, path, 1);
            let again = run_path(&mut t, &registry, path, 1);
            let other = run_path(&mut t, &registry, path, 2);
            assert!(check(&a).is_empty(), "{:?}", check(&a));
            assert_eq!(
                a.report.fingerprint(),
                again.report.fingerprint(),
                "{}: same seed, different report",
                path.name
            );
            assert_ne!(
                a.report.fingerprint(),
                other.report.fingerprint(),
                "{}: the seed did not reach the run",
                path.name
            );
        }
    }
}
