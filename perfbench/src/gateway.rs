//! `gateway_mix`: a closed loop over loopback TCP into a 2-shard
//! `GatewayFleet`, from one `FleetClient` (one connection per shard, one
//! client thread). The simulated clock runs at a fixed compression and
//! admission is opened wide, so no request is refused. The mix is 60%
//! SUBMIT, 20% STATUS, 10% QUEUE, 9% PREDICT and 1% METRICS; an op is one
//! answered request, timed client-side from send to reply.
//!
//! The traced run times each verb, the fleet reconcile, and — from the
//! last traced round's own traffic — `Request::parse` and `Response`
//! encoding, plus a bare TCP echo on loopback: the kernel floor under
//! every request.

use std::cell::RefCell;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use qcs::cloud::{CloudConfig, RecordSink};
use qcs::gateway::{FleetClient, GatewayConfig, GatewayFleet, Request, Response, ShardMap};
use qcs::machine::Fleet;

use crate::checks;
use crate::trace::Tracer;
use crate::util::{peak_rss_mib, quantile, secs, sub_seed, Rng};
use crate::{timed_rounds, timed_setups, Opts, Report};

const SHARDS: usize = 2;
/// Requests per round.
const ROUND: usize = 20_000;
/// Rounds served by one fleet before it is replaced.
const EPOCH: usize = 25;
/// Requests between two fleet reconciles.
const RECONCILE_EVERY: usize = 2_000;
/// Requests of the set-up warm-up, before waiting for predictors: enough
/// that the set-up time is request work, not wall-clock waiting for the
/// first simulated completion.
const WARMUP: usize = 10_000;
/// Simulated seconds per wall-clock second. At about 90k requests/s the
/// mix submits ten jobs per simulated second, about six times what the
/// fleet completes: the overloaded regime of the paper's growth period,
/// where impatient users abandon (see `PopulationConfig::million`). Each
/// request advances the clock by a few simulated milliseconds, so a DES
/// step does a small, steady amount of work.
const COMPRESSION: f64 = 5_000.0;
/// Simulated patience of every submitted job. Jobs that wait longer
/// abandon, which bounds the queues within about one simulated hour
/// (under a second of wall time), so the queues, and with them the
/// per-request DES work, stop growing.
const PATIENCE_S: f64 = 3_600.0;
const PROVIDERS: usize = 40;
const ECHOES: usize = 20_000;

/// The client's own ledger of what it asked and what it was told.
#[derive(Debug, Default)]
struct Ledger {
    /// `(shard, id)` of every accepted SUBMIT, for STATUS and the final
    /// freshness check.
    submitted: Vec<(usize, u64)>,
    submits: [u64; SHARDS],
    predicts: [u64; SHARDS],
    failed: u64,
    errors: Vec<String>,
}

impl Ledger {
    fn note(&mut self, result: checks::Check) {
        if let Err(e) = result {
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }
}

struct Live {
    fleet: GatewayFleet,
    client: FleetClient,
    map: ShardMap,
    names: Vec<String>,
    rng: Rng,
    ledger: Ledger,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Verb {
    Submit,
    Status,
    Queue,
    Predict,
    Metrics,
}

impl Verb {
    fn span(self) -> &'static str {
        match self {
            Verb::Submit => "gateway.submit",
            Verb::Status => "gateway.status",
            Verb::Queue => "gateway.queue",
            Verb::Predict => "gateway.predict",
            Verb::Metrics => "gateway.metrics",
        }
    }
}

fn gateway_config(threads: usize) -> GatewayConfig {
    GatewayConfig {
        threads,
        time_compression: COMPRESSION,
        rate_capacity: 1e15,
        rate_refill_per_s: 1e15,
        max_pending_per_machine: usize::MAX,
        ..GatewayConfig::default()
    }
}

/// Draw the next request of the mix: `(verb, shard, request)`.
fn next_request(live: &mut Live) -> (Verb, usize, Request) {
    let rng = &mut live.rng;
    let machines = live.map.num_machines() as u64;
    let roll = rng.below(100);
    let verb = match roll {
        0..=59 => Verb::Submit,
        60..=79 if !live.ledger.submitted.is_empty() => Verb::Status,
        60..=79 => Verb::Submit,
        80..=89 => Verb::Queue,
        90..=98 => Verb::Predict,
        _ => Verb::Metrics,
    };
    let (shard, local) = live.map.locate(rng.below(machines) as usize);
    match verb {
        Verb::Submit => (
            verb,
            shard,
            Request::Submit {
                provider: rng.below(PROVIDERS as u64) as u32,
                machine: local.to_string(),
                circuits: 1 + rng.below(20) as u32,
                shots: 1024 * (1 + rng.below(8) as u32),
                mean_depth: 10.0 + 40.0 * rng.unit(),
                mean_width: 2.0 + 3.0 * rng.unit(),
                patience_s: PATIENCE_S,
            },
        ),
        Verb::Status => {
            let i = rng.below(live.ledger.submitted.len() as u64) as usize;
            let (shard, id) = live.ledger.submitted[i];
            (verb, shard, Request::Status(id))
        }
        Verb::Queue => (
            verb,
            shard,
            Request::Queue(live.names[live.map.global(shard, local)].clone()),
        ),
        Verb::Predict => (
            verb,
            shard,
            Request::Predict {
                machine: local.to_string(),
                circuits: 1 + rng.below(20) as u32,
                shots: 1024 * (1 + rng.below(8) as u32),
            },
        ),
        Verb::Metrics => (verb, shard, Request::Metrics),
    }
}

/// Check a reply against the client's ledger; count it failed if refused.
fn settle(ledger: &mut Ledger, verb: Verb, shard: usize, reply: &Response) {
    let ok = match (verb, reply) {
        (Verb::Submit, Response::Ok(id)) => {
            ledger.submitted.push((shard, *id));
            true
        }
        (Verb::Status, Response::Status { state, id }) => {
            if state == "unknown" {
                ledger.note(Err(format!(
                    "STATUS of submitted job {id} on shard {shard} is unknown"
                )));
            }
            true
        }
        (Verb::Queue, Response::Queue { .. }) | (Verb::Metrics, Response::Metrics(_)) => true,
        (
            Verb::Predict,
            Response::Predict {
                wait_s,
                lo_s,
                hi_s,
                run_s,
                ..
            },
        ) => {
            ledger.predicts[shard] += 1;
            ledger.note(checks::estimate_ordered(*wait_s, *lo_s, *hi_s));
            if !run_s.is_finite() {
                ledger.note(Err(format!("PREDICT run_s {run_s}")));
            }
            true
        }
        _ => false,
    };
    if verb == Verb::Submit {
        ledger.submits[shard] += 1;
    }
    if !ok {
        ledger.failed += 1;
    }
}

/// Send one request; returns the reply (or `None` on a transport error).
fn send(live: &mut Live, shard: usize, request: &Request) -> Option<Response> {
    live.client.shard_client(shard).request(request).ok()
}

/// Start a fleet, connect, and warm it up; `epoch` salts the mix.
fn start(opts: &Opts, epoch: u64) -> Live {
    let fleet = Fleet::ibm_like();
    let names = fleet.iter().map(|m| m.name().to_string()).collect();
    let cloud = CloudConfig {
        seed: sub_seed(opts.seed, 2),
        num_providers: PROVIDERS,
        // A long-running service folds terminal records into sketches
        // instead of keeping every record.
        record_sink: RecordSink::streaming(sub_seed(opts.seed, 3)),
        ..CloudConfig::default()
    };
    let gateways =
        GatewayFleet::start(&fleet, cloud, gateway_config(1), SHARDS).expect("bind loopback");
    let client = FleetClient::connect(&gateways).expect("connect to every shard");
    let map = gateways.map();
    let mut live = Live {
        fleet: gateways,
        client,
        map,
        names,
        rng: Rng::new(sub_seed(sub_seed(opts.seed, 1), epoch)),
        ledger: Ledger::default(),
    };
    // Warm-up: the mix, then SUBMITs to each shard until its predictor
    // has seen a completion, so PREDICT never answers NOT_READY later.
    for _ in 0..WARMUP {
        let (verb, shard, request) = next_request(&mut live);
        if let Some(reply) = send(&mut live, shard, &request) {
            if verb == Verb::Submit {
                settle(&mut live.ledger, verb, shard, &reply);
            } else if verb == Verb::Predict {
                if let Response::Predict { .. } = reply {
                    live.ledger.predicts[shard] += 1;
                }
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    for shard in 0..SHARDS {
        loop {
            let probe = Request::Predict {
                machine: "0".to_string(),
                circuits: 1,
                shots: 1024,
            };
            if let Some(Response::Predict { .. }) = send(&mut live, shard, &probe) {
                live.ledger.predicts[shard] += 1;
                break;
            }
            assert!(
                Instant::now() < deadline,
                "shard {shard} predictor never became ready"
            );
            let submit = Request::Submit {
                provider: 0,
                machine: "0".to_string(),
                circuits: 1,
                shots: 1024,
                mean_depth: 10.0,
                mean_width: 2.0,
                patience_s: f64::INFINITY,
            };
            if let Some(reply) = send(&mut live, shard, &submit) {
                settle(&mut live.ledger, Verb::Submit, shard, &reply);
            }
        }
    }
    live.ledger.failed = 0;
    live
}

fn stop(live: Live) -> Vec<(qcs::cloud::SimulationResult, qcs::gateway::GatewayMetrics)> {
    live.client.quit().expect("QUIT every shard");
    live.fleet.shutdown_and_drain()
}

/// What one round keeps for the replica: its requests and replies.
type Traffic = Vec<(Request, Response)>;

/// One round; returns its traffic (traced rounds) and the client-side
/// latency of each request, µs (untraced rounds).
fn round(live: &mut Live, tracer: &mut Tracer) -> (Traffic, Vec<f64>) {
    let keep = tracer.is_on();
    let mut traffic = Vec::new();
    let mut latencies = Vec::with_capacity(if keep { 0 } else { ROUND });
    for i in 0..ROUND {
        let (verb, shard, request) = next_request(live);
        let open = tracer.enter(verb.span());
        let t0 = Instant::now();
        let reply = send(live, shard, &request);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        tracer.exit(open);
        if !keep {
            latencies.push(us);
        }
        match reply {
            Some(reply) => {
                settle(&mut live.ledger, verb, shard, &reply);
                if keep {
                    traffic.push((request, reply));
                }
            }
            None => live.ledger.failed += 1,
        }
        if (i + 1) % RECONCILE_EVERY == 0 {
            tracer.time("gateway.reconcile", || live.fleet.reconcile());
        }
    }
    (traffic, latencies)
}

/// Round trips of a bare line echo over loopback, µs.
fn loopback_rtts() -> Vec<f64> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let echo = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        let mut writer = stream.try_clone().expect("clone stream");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
            if writer.write_all(line.as_bytes()).is_err() {
                break;
            }
            line.clear();
        }
    });
    let stream = TcpStream::connect(addr).expect("connect echo");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut rtts = Vec::with_capacity(ECHOES);
    for _ in 0..ECHOES {
        let t0 = Instant::now();
        writer.write_all(b"STATUS 12345\n").expect("echo write");
        line.clear();
        reader.read_line(&mut line).expect("echo read");
        rtts.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(writer);
    drop(reader);
    echo.join().expect("echo thread");
    rtts
}

/// Check one epoch's fleet against the client's ledger, then shut it
/// down and check the drained results.
fn finish(mut live: Live, report: &mut Report) {
    report.failed += live.ledger.failed;
    report.errors.append(&mut live.ledger.errors);
    let mut charged = Vec::new();
    let mut executed = Vec::new();
    let accepted: Vec<u64> = (0..SHARDS)
        .map(|shard| {
            live.ledger
                .submitted
                .iter()
                .filter(|(s, _)| *s == shard)
                .count() as u64
        })
        .collect();
    for (shard, gateway) in live.fleet.shards().iter().enumerate() {
        charged.push(gateway.charged_seconds_by_provider());
        executed.push(gateway.executed_seconds_by_provider());
        let pairs = match live.client.shard_client(shard).metrics() {
            Ok(pairs) => pairs,
            Err(e) => {
                report.errors.push(format!("METRICS on shard {shard}: {e}"));
                continue;
            }
        };
        let get = |key: &str| {
            pairs
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.parse::<u64>().ok())
        };
        for (key, expected) in [
            ("submitted", live.ledger.submits[shard]),
            ("accepted", accepted[shard]),
            ("predictions_served", live.ledger.predicts[shard]),
        ] {
            if get(key) != Some(expected) {
                report.errors.push(format!(
                    "shard {shard} METRICS {key}={:?}, client counted {expected}",
                    get(key)
                ));
            }
        }
    }
    report.check(checks::charged_matches_executed(&charged, &executed));
    report.check(checks::fresh_ids(&live.ledger.submitted));
    for (shard, (result, metrics)) in stop(live).into_iter().enumerate() {
        report.check(checks::outcome_total(
            result.outcome_counts,
            accepted[shard],
        ));
        if result.total_jobs != accepted[shard] || metrics.finished != result.outcome_counts {
            report.errors.push(format!(
                "shard {shard}: drained {} jobs, finished {:?}, client accepted {}",
                result.total_jobs, metrics.finished, accepted[shard]
            ));
        }
    }
}

pub fn run(opts: &Opts, tracer: &mut Tracer) -> Report {
    let mut report = Report {
        config: vec![
            ("shards", SHARDS.to_string()),
            ("gateway_threads", "1".to_string()),
            ("compression", COMPRESSION.to_string()),
            ("patience_s", PATIENCE_S.to_string()),
            ("round_requests", ROUND.to_string()),
            ("epoch_rounds", EPOCH.to_string()),
            ("reconcile_every", RECONCILE_EVERY.to_string()),
            ("warmup_requests", WARMUP.to_string()),
            (
                "mix",
                "submit60/status20/queue10/predict9/metrics1".to_string(),
            ),
            ("cloud_seed", sub_seed(opts.seed, 2).to_string()),
            ("mix_seed", sub_seed(opts.seed, 1).to_string()),
        ],
        ..Report::default()
    };
    let first = timed_setups(&mut report, || start(opts, 0), |live| drop(stop(live)));

    // Every EPOCH rounds the fleet is replaced by a fresh one (untimed
    // except as one more set-up), so the server's per-job state, and with
    // it the memory, depends on the requests of one epoch and not on how
    // many requests the run's throughput fitted into --seconds.
    let live = RefCell::new(Some(first));
    let mut epoch = 1u64;
    let mut request_p50_us = Vec::new();
    let mut last_traffic = Traffic::new();
    let rounds = timed_rounds(
        opts,
        tracer,
        |tracer| round(live.borrow_mut().as_mut().expect("a live fleet"), tracer),
        |i, (traffic, latencies)| {
            if !latencies.is_empty() {
                request_p50_us.push(quantile(&latencies, 0.5));
            }
            if !traffic.is_empty() {
                last_traffic = traffic;
            }
            if (i + 1) % EPOCH == 0 {
                let done = live.borrow_mut().take().expect("a live fleet");
                finish(done, &mut report);
                let t0 = Instant::now();
                *live.borrow_mut() = Some(start(opts, epoch));
                report.setup_s.push(secs(t0));
                epoch += 1;
            }
        },
        None,
    );
    report.rounds = rounds;
    report.peak_rss_mib = peak_rss_mib();
    report.ops_per_round = ROUND as u64;
    report.request_p50_us = request_p50_us;
    finish(live.into_inner().expect("a live fleet"), &mut report);

    // Replica: the server's parse and encode, over one traced round's
    // traffic; then the loopback floor.
    tracer.set_on(opts.trace);
    if opts.trace {
        let lines: Vec<String> = last_traffic
            .iter()
            .map(|(req, _)| req.to_string())
            .collect();
        let open = tracer.enter("gateway.parse");
        let parsed: Vec<_> = lines.iter().map(|l| Request::parse(l)).collect();
        tracer.exit_items(open, lines.len() as u64);
        let round_trips = parsed
            .iter()
            .zip(&last_traffic)
            .all(|(p, (req, _))| p.as_ref().is_ok_and(|p| p == req));
        if !round_trips {
            report
                .errors
                .push("a request did not survive parse(display(request))".to_string());
        }
        let mut out = String::new();
        let open = tracer.enter("gateway.encode");
        for (_, reply) in &last_traffic {
            out.clear();
            std::fmt::Write::write_fmt(&mut out, format_args!("{reply}\n")).expect("format reply");
        }
        tracer.exit_items(open, last_traffic.len() as u64);
    }
    tracer.set_on(false);

    if opts.trace {
        let layers = tracer.layers();
        let p = |name: &str, q: f64| {
            let d = tracer.durations(name);
            if d.is_empty() {
                0.0
            } else {
                quantile(&d, q) * 1e6
            }
        };
        report.layer("gateway.submit_p50_us", p("gateway.submit", 0.5));
        report.layer("gateway.status_p50_us", p("gateway.status", 0.5));
        report.layer("gateway.queue_p50_us", p("gateway.queue", 0.5));
        report.layer("gateway.predict_p50_us", p("gateway.predict", 0.5));
        report.layer("gateway.metrics_p50_us", p("gateway.metrics", 0.5));
        report.layer("gateway.submit_p99_us", p("gateway.submit", 0.99));
        let all: Vec<f64> = [
            Verb::Submit,
            Verb::Status,
            Verb::Queue,
            Verb::Predict,
            Verb::Metrics,
        ]
        .into_iter()
        .flat_map(|v| tracer.durations(v.span()))
        .collect();
        report.layer("gateway.request_p99_us", quantile(&all, 0.99) * 1e6);
        let per_item = |name: &str| {
            layers
                .get(name)
                .map_or(0.0, |l| l.self_s * 1e9 / l.items.max(1) as f64)
        };
        report.layer("gateway.parse_ns", per_item("gateway.parse"));
        report.layer("gateway.encode_ns", per_item("gateway.encode"));
        let traced_rounds = report.rounds.traced_s.len() as f64;
        report.layer(
            "gateway.reconcile_s",
            layers
                .get("gateway.reconcile")
                .map_or(0.0, |l| l.self_s / traced_rounds),
        );
        report.layer(
            "gateway.loopback_rtt_p50_us",
            quantile(&loopback_rtts(), 0.5),
        );
    }
    report
}
