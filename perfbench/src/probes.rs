//! Layer probes for the traced run: each calls one layer's public API on
//! one thread, with the workload's own seeded keys, groups, feedback and
//! value sizes, inside a span.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use c3_cluster::DiskModel;
use c3_core::{
    C3Config, Feedback, Nanos, ResponseInfo, Selection, SendDecision, SharedC3State, WallClock,
};
use c3_engine::{EventQueue, SelectorCtx, Strategy, StrategyRegistry};
use c3_live::{
    encode_key, read_frame, CorrelationTable, InFlightBudget, LiveCluster, NoSlowdown,
    ReplicaServer, ReplicaSpec,
};
use c3_metrics::LogHistogram;
use c3_net::proto::{
    decode_frame, encode_request, encode_response, Frame, Request, Response, Status,
};
use c3_scenarios::{ScenarioParams, ScenarioRegistry, HETERO_FLEET};
use c3_telemetry::Recorder;
use c3_workload::ScrambledZipfian;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::median;

/// The inputs a workload hands its probes.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Servers a key's group of three is drawn from.
    pub servers: usize,
    /// Distinct keys.
    pub keys: u64,
    /// Zipf constant.
    pub zipf_theta: f64,
    /// GET share.
    pub read_fraction: f64,
    /// Value bytes.
    pub value_bytes: u32,
    /// Offered rate the selector sees (spaces the replayed decisions).
    pub rate: f64,
    /// Whether the workload's client runs the live selector
    /// (`SharedC3State`) rather than the simulators' `C3Selector`.
    pub live_selector: bool,
    /// Seed.
    pub seed: u64,
}

/// One seeded operation of the workload.
struct Op {
    key: u64,
    group: [usize; 3],
    is_read: bool,
    response_time: Nanos,
    feedback: Feedback,
}

fn ops(shape: &Shape, n: usize) -> Vec<Op> {
    let zipf = ScrambledZipfian::new(shape.keys, shape.keys, shape.zipf_theta);
    let disk = DiskModel::ssd(shape.read_fraction);
    let mut rng = SmallRng::seed_from_u64(shape.seed);
    (0..n)
        .map(|_| {
            let key = zipf.sample(&mut rng);
            let primary = (key % shape.servers as u64) as usize;
            let group = [0, 1, 2].map(|k| (primary + k) % shape.servers);
            let is_read = rng.gen_bool(shape.read_fraction);
            let service = if is_read {
                disk.sample_read(&mut rng, shape.value_bytes, 1.0)
            } else {
                disk.sample_write(&mut rng, shape.value_bytes, 1.0)
            };
            let queue_size = rng.gen_range(0..4u32);
            Op {
                key,
                group,
                is_read,
                response_time: service + Nanos::from_micros(100),
                feedback: Feedback {
                    queue_size,
                    service_time: service,
                },
            }
        })
        .collect()
}

fn per_call_ns(start: Instant, calls: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// `c3-workload`: key sampling.
pub fn key_sample(t: &mut Tracer, shape: &Shape, out: &mut Outcome) {
    const N: usize = 500_000;
    let zipf = ScrambledZipfian::new(shape.keys, shape.keys, shape.zipf_theta);
    let mut rng = SmallRng::seed_from_u64(shape.seed);
    let ns = t.span("c3-workload", "ScrambledZipfian::sample", N as u64, |_| {
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..N {
            acc = acc.wrapping_add(zipf.sample(&mut rng));
        }
        std::hint::black_box(acc);
        per_call_ns(start, N)
    });
    out.set("key_sample_ns", ns, N as u64, "control: should not move");
}

/// `c3-core`: selection and feedback folding, replaying the workload's
/// groups and feedback on the selector its client runs.
pub fn selector(t: &mut Tracer, shape: &Shape, out: &mut Outcome) {
    const N: usize = 200_000;
    let ops = ops(shape, N);
    let gap = (1e9 / shape.rate) as u64;
    let mut chosen = Vec::with_capacity(N);
    let (select_ns, fold_ns) = if shape.live_selector {
        // The live client shares one state across its issuers, so its
        // outstanding counts are already global: w = 1.
        let cfg = C3Config {
            concurrency_weight: 1.0,
            ..C3Config::default()
        };
        let state = SharedC3State::new(shape.servers, cfg, Nanos::ZERO);
        let select_ns = t.span("c3-core", "SharedC3State::try_send", N as u64, |_| {
            let start = Instant::now();
            for (i, op) in ops.iter().enumerate() {
                let now = Nanos(i as u64 * gap);
                chosen.push(match state.try_send(&op.group, now) {
                    SendDecision::Send(s) => Some(s),
                    SendDecision::Backpressure { .. } => None,
                });
            }
            per_call_ns(start, N)
        });
        let fold_ns = t.span("c3-core", "SharedC3State::on_response", N as u64, |_| {
            let start = Instant::now();
            for (i, (op, s)) in ops.iter().zip(&chosen).enumerate() {
                if let Some(s) = *s {
                    let now = Nanos(i as u64 * gap) + op.response_time;
                    state.on_response(s, op.response_time, Some(&op.feedback), now);
                }
            }
            per_call_ns(start, N)
        });
        (select_ns, fold_ns)
    } else {
        let registry = StrategyRegistry::with_defaults();
        let ctx = SelectorCtx {
            servers: shape.servers,
            c3: C3Config::default(),
            seed: shape.seed,
            now: Nanos::ZERO,
        };
        let mut sel = registry
            .build(&Strategy::c3(), &ctx)
            .expect("C3 is registered")
            .expect_selector(&Strategy::c3());
        let select_ns = t.span("c3-core", "ReplicaSelector::select", N as u64, |_| {
            let start = Instant::now();
            for (i, op) in ops.iter().enumerate() {
                let now = Nanos(i as u64 * gap);
                chosen.push(match sel.select(&op.group, now) {
                    Selection::Server(s) => {
                        sel.on_send(s, now);
                        Some(s)
                    }
                    Selection::Backpressure { .. } => None,
                });
            }
            per_call_ns(start, N)
        });
        let fold_ns = t.span("c3-core", "ReplicaSelector::on_response", N as u64, |_| {
            let start = Instant::now();
            for (i, (op, s)) in ops.iter().zip(&chosen).enumerate() {
                if let Some(s) = *s {
                    let now = Nanos(i as u64 * gap) + op.response_time;
                    let info = ResponseInfo {
                        response_time: op.response_time,
                        feedback: Some(op.feedback),
                    };
                    sel.on_response(s, &info, now);
                }
            }
            per_call_ns(start, N)
        });
        (select_ns, fold_ns)
    };
    let sent = chosen.iter().filter(|c| c.is_some()).count();
    let which = if shape.live_selector {
        "SharedC3State"
    } else {
        "C3Selector"
    };
    out.set(
        "select_ns",
        select_ns,
        N as u64,
        format!("{which}, {} servers, {sent}/{N} sent", shape.servers),
    );
    out.set("on_response_ns", fold_ns, sent as u64, which);
}

/// `c3-net`: frame encode and decode of the workload's requests and
/// responses.
pub fn codec(t: &mut Tracer, shape: &Shape, out: &mut Outcome) {
    const N: usize = 200_000;
    let ops = ops(shape, N);
    let value = Bytes::from(vec![0x5Au8; shape.value_bytes as usize]);
    let mut buf = BytesMut::new();
    let (encode_ns, bytes) = t.span("c3-net", "encode_request+encode_response", N as u64, |_| {
        let start = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            let id = i as u64;
            let key = encode_key(op.key);
            let req = if op.is_read {
                Request::Get { id, key }
            } else {
                Request::Put {
                    id,
                    key,
                    value: value.clone(),
                }
            };
            encode_request(&req, &mut buf);
            let resp = Response {
                id,
                status: Status::Ok,
                feedback: op.feedback,
                value: if op.is_read {
                    value.clone()
                } else {
                    Bytes::new()
                },
            };
            encode_response(&resp, &mut buf);
        }
        (per_call_ns(start, N), buf.len())
    });
    let decoded = t.span("c3-net", "decode_frame", 2 * N as u64, |_| {
        let start = Instant::now();
        let mut frames = 0usize;
        while let Some(frame) = decode_frame(&mut buf).expect("frames we encoded decode") {
            std::hint::black_box(&frame);
            frames += 1;
        }
        (per_call_ns(start, N), frames)
    });
    assert_eq!(decoded.1, 2 * N, "every encoded frame decodes");
    out.set(
        "encode_ns",
        encode_ns,
        N as u64,
        "request + response, per op",
    );
    out.set(
        "decode_ns",
        decoded.0,
        N as u64,
        "request + response, per op",
    );
    out.set(
        "bytes_per_op",
        bytes as f64 / N as f64,
        N as u64,
        format!("request + response frames, {} B values", shape.value_bytes),
    );
}

/// `c3-live`: permit acquire/release and correlation register/complete
/// at the closed loop's depth.
pub fn mux(t: &mut Tracer, out: &mut Outcome) {
    const N: usize = 500_000;
    const DEPTH: usize = crate::live::CLOSED_IN_FLIGHT;
    let budget = InFlightBudget::new(DEPTH);
    let far = Instant::now() + Duration::from_secs(3600);
    let permit_ns = t.span(
        "c3-live",
        "InFlightBudget::acquire_until+release",
        N as u64,
        |_| {
            let start = Instant::now();
            for _ in 0..N {
                assert!(budget.acquire_until(far));
                budget.release();
            }
            per_call_ns(start, N)
        },
    );
    let mut table = CorrelationTable::<u64>::new();
    for id in 0..DEPTH as u64 {
        table.register(id, id).expect("fresh id");
    }
    let depth = DEPTH as u64;
    let correlation_ns = t.span(
        "c3-live",
        "CorrelationTable::register+complete",
        N as u64,
        |_| {
            let start = Instant::now();
            for i in 0..N as u64 {
                table.register(depth + i, i).expect("fresh id");
                std::hint::black_box(table.complete(i).expect("registered id"));
            }
            per_call_ns(start, N)
        },
    );
    out.set(
        "permit_ns",
        permit_ns,
        N as u64,
        "uncontended acquire + release",
    );
    out.set(
        "correlation_ns",
        correlation_ns,
        N as u64,
        format!("register + complete at depth {DEPTH}"),
    );
}

/// `c3-live`: serial round trips against one `ReplicaServer` with no
/// slowdown over a raw socket, minus the service time the response
/// reports — the server's own overhead plus loopback.
pub fn server_overhead(t: &mut Tracer, shape: &Shape, out: &mut Outcome) {
    const N: usize = 1_500;
    let spec = ReplicaSpec {
        id: 0,
        concurrency: 4,
        disk: c3_cluster::DiskKind::Ssd,
        read_fraction: shape.read_fraction,
        value_bytes: shape.value_bytes,
        seed: shape.seed,
        faults: c3_cluster::FaultPlan::none(),
        hello: None,
    };
    let loopback: SocketAddr = (std::net::Ipv4Addr::LOCALHOST, 0).into();
    let server = t
        .span("c3-live", "ReplicaServer::bind", 1, |_| {
            ReplicaServer::bind(&spec, loopback, Arc::new(NoSlowdown), WallClock::start())
        })
        .expect("bind a loopback replica");
    let mut stream = TcpStream::connect(server.addr()).expect("dial the replica");
    stream.set_nodelay(true).expect("nodelay");
    let ops = ops(shape, N);
    let value = Bytes::from(vec![0x5Au8; shape.value_bytes as usize]);
    let mut rbuf = BytesMut::new();
    let mut overhead_us = t.span("c3-live", "serial round trip", N as u64, |_| {
        ops.iter()
            .enumerate()
            .map(|(i, op)| {
                let id = i as u64 + 1;
                let key = encode_key(op.key);
                let req = if op.is_read {
                    Request::Get { id, key }
                } else {
                    Request::Put {
                        id,
                        key,
                        value: value.clone(),
                    }
                };
                let mut frame = BytesMut::new();
                encode_request(&req, &mut frame);
                let start = Instant::now();
                stream.write_all(&frame).expect("send");
                let resp = match read_frame(&mut stream, &mut rbuf).expect("receive") {
                    Some(Frame::Response(r)) => r,
                    other => panic!("expected a response, got {other:?}"),
                };
                let rtt = start.elapsed().as_nanos() as f64;
                assert_eq!(resp.id, id, "response for the request sent");
                (rtt - resp.feedback.service_time.as_nanos() as f64) / 1e3
            })
            .collect::<Vec<f64>>()
    });
    drop(stream);
    t.span("c3-live", "ReplicaServer::shutdown", 1, |_| {
        server.shutdown()
    });
    overhead_us.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let at = |q: f64| overhead_us[((overhead_us.len() - 1) as f64 * q).round() as usize];
    out.set(
        "server_overhead_us_p50",
        at(0.5),
        N as u64,
        "RTT - service_time",
    );
    out.set(
        "server_overhead_us_p99",
        at(0.99),
        N as u64,
        "RTT - service_time",
    );
}

/// `c3-live`: spawning and shutting down an in-process fleet.
pub fn live_spawn(t: &mut Tracer, cfg: &c3_live::LiveConfig, out: &mut Outcome) {
    const REPS: usize = 5;
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let cluster = t
                .span("c3-live", "LiveCluster::spawn", 1, |_| {
                    LiveCluster::spawn(cfg, Arc::new(NoSlowdown), WallClock::start())
                })
                .expect("spawn an in-process fleet");
            t.span("c3-live", "LiveCluster::shutdown", 1, |_| {
                cluster.shutdown()
            });
            start.elapsed().as_secs_f64()
        })
        .collect();
    out.set(
        "live_spawn_s",
        median(&times),
        REPS as u64,
        format!("{} replicas, spawn + shutdown, median", cfg.replicas),
    );
}

/// `c3-engine`: pop-one/push-one churn at the mega-fleet's depth.
pub fn churn(t: &mut Tracer, seed: u64, out: &mut Outcome) {
    const PENDING: usize = 65_536;
    const STEPS: usize = 1_000_000;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..PENDING {
        q.schedule(Nanos(rng.gen_range(1..1_000_000_000u64)), i as u64);
    }
    let delays: Vec<u64> = (0..STEPS)
        .map(|_| rng.gen_range(1..1_000_000_000u64))
        .collect();
    let ns = t.span(
        "c3-engine",
        "EventQueue::pop+schedule",
        STEPS as u64,
        |_| {
            let start = Instant::now();
            for d in &delays {
                let (at, e) = q.pop().expect("pending events");
                q.schedule(Nanos(at.as_nanos() + d), e);
            }
            per_call_ns(start, STEPS)
        },
    );
    out.set(
        "churn_ns",
        ns,
        STEPS as u64,
        format!("pop + schedule at {PENDING} pending"),
    );
}

/// `c3-metrics`: histogram record of the workload's latencies.
pub fn record(t: &mut Tracer, shape: &Shape, out: &mut Outcome) {
    const N: usize = 1_000_000;
    let latencies: Vec<u64> = ops(shape, 10_000)
        .iter()
        .map(|o| o.response_time.as_nanos())
        .collect();
    let mut h = LogHistogram::new();
    let ns = t.span("c3-metrics", "LogHistogram::record", N as u64, |_| {
        let start = Instant::now();
        for i in 0..N {
            h.record(latencies[i % latencies.len()]);
        }
        per_call_ns(start, N)
    });
    assert_eq!(h.count(), N as u64);
    out.set("record_ns", ns, N as u64, "LogHistogram::record");
}

/// `c3-telemetry`: `run` vs `run_recorded` on the same hetero-fleet cell,
/// interleaved; the median of the paired ratios minus one.
pub fn recorder_overhead(t: &mut Tracer, seed: u64, out: &mut Outcome) {
    const OPS: u64 = 60_000;
    const PAIRS: usize = 3;
    let registry = ScenarioRegistry::with_defaults();
    let params = ScenarioParams::sized(Strategy::c3(), seed, OPS);
    let mut ratios = Vec::new();
    let mut base = Vec::new();
    for _ in 0..PAIRS {
        let start = Instant::now();
        let plain = t
            .span(
                "c3-scenarios",
                "ScenarioRegistry::run hetero-fleet",
                1,
                |_| registry.run(HETERO_FLEET, &params),
            )
            .expect("hetero-fleet runs");
        let plain_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let (recorded, rec) = t
            .span(
                "c3-telemetry",
                "ScenarioRegistry::run_recorded hetero-fleet",
                1,
                |_| registry.run_recorded(HETERO_FLEET, &params, Recorder::with_default_capacity()),
            )
            .expect("hetero-fleet runs recorded");
        let recorded_s = start.elapsed().as_secs_f64();
        assert_eq!(
            plain.fingerprint(),
            recorded.fingerprint(),
            "recording must not perturb the run"
        );
        std::hint::black_box(rec.len());
        ratios.push(recorded_s / plain_s - 1.0);
        base.push(plain_s * 1e3);
    }
    out.set(
        "recorder_overhead_frac",
        median(&ratios),
        PAIRS as u64,
        format!(
            "base: plain run {:.1} ms, hetero-fleet {OPS} ops",
            median(&base)
        ),
    );
}

/// `c3-scenarios`: building the scenario registry.
pub fn registry_build(t: &mut Tracer, out: &mut Outcome) {
    const REPS: usize = 9;
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let r = t.span("c3-scenarios", "ScenarioRegistry::with_defaults", 1, |_| {
                ScenarioRegistry::with_defaults()
            });
            std::hint::black_box(r);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.set("registry_build_ms", median(&times), REPS as u64, "median");
}
