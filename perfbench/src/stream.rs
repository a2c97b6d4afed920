//! `fleet_stream`: the million-job smoke. One round streams
//! `PopulationConfig::million()` in 20k-job chunks through a 4-shard
//! `FleetSim` (streaming sink, per-shard `OnlinePredictor` record tap,
//! reconcile after every chunk), then asks a burst of `FleetSim::predict`
//! queries and drains. An op is one simulated job.
//!
//! The tap runs inside `FleetSim::step_until`, out of reach of the
//! benchmark, so a replica streams the same chunks through
//! `ShardMap`-partitioned `LiveCloud`s whose tap is the benchmark's own
//! closure around `OnlinePredictor::observe`. Its outcome counts and
//! estimates must equal the `FleetSim` round's exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qcs::cloud::{CloudConfig, JobSpec, LiveCloud, RecordSink};
use qcs::gateway::{FleetSim, ShardMap};
use qcs::machine::Fleet;
use qcs::predictor::OnlinePredictor;
use qcs::workload::{PopulationConfig, PopulationTrace};

use crate::checks;
use crate::trace::Tracer;
use crate::util::{peak_rss_mib, sub_seed, Digest, Rng};
use crate::{timed_rounds, timed_setups, Opts, Report};

const SHARDS: usize = 4;
const CHUNK: usize = 20_000;
/// PREDICT queries asked after the last chunk.
const BURST: usize = 20_000;

/// The burst's queries: `(global machine, circuits, shots)`.
fn queries(seed: u64, machines: usize) -> Vec<(usize, u32, u32)> {
    let mut rng = Rng::new(sub_seed(seed, 3));
    (0..BURST)
        .map(|_| {
            (
                rng.below(machines as u64) as usize,
                1 + rng.below(100) as u32,
                1024 * (1 + rng.below(8) as u32),
            )
        })
        .collect()
}

fn cloud_config(population: &PopulationConfig) -> CloudConfig {
    CloudConfig {
        num_providers: population.providers,
        record_sink: RecordSink::streaming(population.seed),
        ..CloudConfig::default()
    }
}

/// The burst's answers: `(wait, lo, hi, run)` per query.
type Estimates = Vec<(f64, f64, f64, f64)>;

/// What a round leaves behind for the checks.
struct Outcome {
    sim: FleetSim,
    estimates: Estimates,
    failed: u64,
}

/// One pass of the stream through a `FleetSim`.
fn stream(
    fleet: &Fleet,
    population: PopulationConfig,
    queries: &[(usize, u32, u32)],
    tracer: &mut Tracer,
) -> Outcome {
    let mut sim = FleetSim::new(fleet, cloud_config(&population), SHARDS);
    let mut trace = PopulationTrace::new(fleet, population);
    let mut chunk: Vec<JobSpec> = Vec::with_capacity(CHUNK);
    let mut failed = 0u64;
    loop {
        let open = tracer.enter("workload.trace");
        chunk.clear();
        chunk.extend(trace.by_ref().take(CHUNK));
        tracer.exit_items(open, chunk.len() as u64);
        let Some(last_submit_s) = chunk.last().map(|j| j.submit_s) else {
            break;
        };
        let open = tracer.enter("fleet.submit");
        let n = chunk.len() as u64;
        for job in chunk.drain(..) {
            if sim.submit(job).is_err() {
                failed += 1;
            }
        }
        tracer.exit_items(open, n);
        tracer.time("fleet.step", || sim.step_until(last_submit_s));
        tracer.time("fleet.reconcile", || sim.reconcile());
    }
    let open = tracer.enter("fleet.predict");
    let mut estimates = Vec::with_capacity(queries.len());
    for &(machine, circuits, shots) in queries {
        match sim.predict(machine, circuits, shots) {
            Ok(e) => estimates.push((e.wait_s, e.wait_lo_s, e.wait_hi_s, e.run_s)),
            Err(_) => failed += 1,
        }
    }
    tracer.exit_items(open, queries.len() as u64);
    tracer.time("fleet.step", || sim.run_to_completion());
    tracer.time("fleet.reconcile", || sim.reconcile());
    Outcome {
        sim,
        estimates,
        failed,
    }
}

fn digest(o: &Outcome) -> u64 {
    let mut d = Digest::default();
    for c in o.sim.outcome_counts() {
        d.u64(c);
    }
    for shard in o.sim.shards() {
        for v in shard
            .charged_seconds_by_provider()
            .into_iter()
            .chain(shard.executed_seconds_by_provider())
        {
            d.f64(v);
        }
    }
    for &(w, lo, hi, run) in &o.estimates {
        for v in [w, lo, hi, run] {
            d.f64(v);
        }
    }
    d.value()
}

fn check(report: &mut Report, o: &Outcome, jobs: u64) {
    let sim = &o.sim;
    report.check(checks::outcome_total(sim.outcome_counts(), jobs));
    let folded: u64 = sim
        .shards()
        .iter()
        .map(|s| s.streaming_aggregates().map_or(0, |a| a.folded()))
        .sum();
    if folded != jobs {
        report
            .errors
            .push(format!("{folded} jobs folded, expected {jobs}"));
    }
    if sim.predictor_observed() != jobs {
        report.errors.push(format!(
            "{} records observed by the predictors, expected {jobs}",
            sim.predictor_observed()
        ));
    }
    if sim.records_len() != 0 {
        report
            .errors
            .push("streaming sink materialized records".to_string());
    }
    let charged: Vec<Vec<f64>> = sim
        .shards()
        .iter()
        .map(LiveCloud::charged_seconds_by_provider)
        .collect();
    let executed: Vec<Vec<f64>> = sim
        .shards()
        .iter()
        .map(LiveCloud::executed_seconds_by_provider)
        .collect();
    report.check(checks::charged_matches_executed(&charged, &executed));
    for &(wait, lo, hi, run) in &o.estimates {
        report.check(checks::estimate_ordered(wait, lo, hi));
        if !run.is_finite() {
            report.errors.push(format!("run estimate {run}"));
        }
    }
}

/// Broadcast each shard's charged-seconds growth since the last exchange
/// to every other shard, as `FleetSim::reconcile` does.
fn exchange(shards: &mut [LiveCloud], last: &mut [Vec<f64>]) {
    let snapshots: Vec<Vec<f64>> = shards
        .iter()
        .map(LiveCloud::charged_seconds_by_provider)
        .collect();
    for (source, snapshot) in snapshots.iter().enumerate() {
        for (provider, &total) in snapshot.iter().enumerate() {
            let delta = total - last[source][provider];
            if delta <= 0.0 {
                continue;
            }
            for (target, shard) in shards.iter_mut().enumerate() {
                if target != source {
                    shard.inject_external_usage(provider as u32, delta);
                }
            }
        }
    }
    last.clone_from_slice(&snapshots);
}

/// The replica: same chunks, `LiveCloud` shards, the benchmark's own tap.
/// Returns outcome counts and the burst's estimates.
fn replica(
    fleet: &Fleet,
    population: PopulationConfig,
    queries: &[(usize, u32, u32)],
    tracer: &mut Tracer,
) -> ([u64; 3], Estimates) {
    let config = cloud_config(&population);
    let map = ShardMap::new(fleet.len(), SHARDS);
    let observe_ns = Arc::new(AtomicU64::new(0));
    let observed = Arc::new(AtomicU64::new(0));
    let timed = tracer.is_on();
    let mut predictors = Vec::new();
    let mut shards: Vec<LiveCloud> = map
        .partition(fleet)
        .into_iter()
        .map(|shard_fleet| {
            let qubits = shard_fleet
                .machines()
                .iter()
                .map(|m| m.num_qubits())
                .collect();
            let predictor = Arc::new(Mutex::new(OnlinePredictor::new(qubits)));
            predictors.push(Arc::clone(&predictor));
            let (ns, count) = (Arc::clone(&observe_ns), Arc::clone(&observed));
            let mut cloud = LiveCloud::new(shard_fleet, config);
            cloud.set_record_tap(Box::new(move |record| {
                let mut p = predictor.lock().expect("predictor lock");
                if timed {
                    let t0 = Instant::now();
                    p.observe(record);
                    ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                } else {
                    p.observe(record);
                }
                count.fetch_add(1, Ordering::Relaxed);
            }));
            cloud
        })
        .collect();
    let mut last = vec![vec![0.0; config.num_providers]; SHARDS];
    let mut trace = PopulationTrace::new(fleet, population);
    let mut chunk: Vec<JobSpec> = Vec::with_capacity(CHUNK);

    // Step every shard under one span; the tap's observe time becomes
    // its child, so the span's self time is the DES alone.
    let step = |shards: &mut [LiveCloud], tracer: &mut Tracer, until: Option<f64>| {
        let (ns0, n0) = (
            observe_ns.load(Ordering::Relaxed),
            observed.load(Ordering::Relaxed),
        );
        let open = tracer.enter("cloud.live_step");
        for shard in shards.iter_mut() {
            match until {
                Some(t) => shard.step_until(t),
                None => shard.run_to_completion(),
            }
        }
        let (ns1, n1) = (
            observe_ns.load(Ordering::Relaxed),
            observed.load(Ordering::Relaxed),
        );
        tracer.record_child("predictor.observe", ns1 - ns0, n1 - n0);
        tracer.exit_items(open, n1 - n0);
    };

    loop {
        chunk.clear();
        chunk.extend(trace.by_ref().take(CHUNK));
        let Some(last_submit_s) = chunk.last().map(|j| j.submit_s) else {
            break;
        };
        let open = tracer.enter("cloud.live_submit");
        let n = chunk.len() as u64;
        for mut job in chunk.drain(..) {
            let (shard, local) = map.locate(job.machine);
            job.machine = local;
            shards[shard]
                .submit(job)
                .expect("replica admits what FleetSim admitted");
        }
        tracer.exit_items(open, n);
        step(&mut shards, tracer, Some(last_submit_s));
        tracer.time("replica.reconcile", || exchange(&mut shards, &mut last));
    }
    let open = tracer.enter("predictor.predict");
    let mut estimates = Vec::with_capacity(queries.len());
    for &(machine, circuits, shots) in queries {
        let (shard, local) = map.locate(machine);
        let pending = shards[shard].queue_depth(local);
        let predictor = predictors[shard].lock().expect("predictor lock");
        if let Ok(e) = predictor.predict(local, circuits, shots, pending) {
            estimates.push((e.wait_s, e.wait_lo_s, e.wait_hi_s, e.run_s));
        }
    }
    tracer.exit_items(open, queries.len() as u64);
    step(&mut shards, tracer, None);
    exchange(&mut shards, &mut last);
    let mut counts = [0u64; 3];
    for shard in &shards {
        for (c, n) in counts.iter_mut().zip(shard.outcome_counts()) {
            *c += n;
        }
    }
    (counts, estimates)
}

pub fn run(opts: &Opts, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let population = PopulationConfig {
        seed: sub_seed(opts.seed, 1),
        ..PopulationConfig::million()
    };
    report.config = vec![
        ("jobs", population.jobs.to_string()),
        ("users", population.users.to_string()),
        ("providers", population.providers.to_string()),
        ("horizon_days", population.horizon_days.to_string()),
        ("patience_hours", population.patience_hours.to_string()),
        ("population_seed", population.seed.to_string()),
        ("shards", SHARDS.to_string()),
        ("chunk", CHUNK.to_string()),
        ("burst", BURST.to_string()),
    ];
    // The warm-up is one chunk at the full trace's arrival rate.
    let smoke = PopulationConfig {
        jobs: CHUNK as u64,
        horizon_days: population.horizon_days * CHUNK as f64 / population.jobs as f64,
        ..population
    };

    let mut scratch = Tracer::new();
    let mut setup = || {
        let fleet = Fleet::ibm_like();
        let queries = queries(opts.seed, fleet.len());
        let warm = stream(&fleet, smoke, &queries, &mut scratch);
        assert_eq!(warm.failed, 0, "smoke stream failed");
        (fleet, queries)
    };
    let (fleet, queries) = timed_setups(&mut report, &mut setup, drop);

    let mut digests = Vec::new();
    let mut reference: Option<([u64; 3], Estimates)> = None;
    let rounds = timed_rounds(
        opts,
        tracer,
        |tracer| stream(&fleet, population, &queries, tracer),
        |i, outcome| {
            report.failed += outcome.failed;
            if i == 0 {
                check(&mut report, &outcome, population.jobs);
                reference = Some((outcome.sim.outcome_counts(), outcome.estimates.clone()));
            }
            digests.push(digest(&outcome));
        },
        Some(&mut || drop(setup())),
    );
    report.rounds = rounds;
    report.peak_rss_mib = peak_rss_mib();
    report.ops_per_round = population.jobs;
    if digests.windows(2).any(|w| w[0] != w[1]) {
        report.errors.push(format!(
            "stream digests differ between rounds: {digests:x?}"
        ));
    }
    report.digest = digests.first().copied();

    tracer.set_on(opts.trace);
    let open = tracer.enter("replica");
    let (counts, estimates) = replica(&fleet, population, &queries, tracer);
    tracer.exit(open);
    tracer.set_on(false);
    if let Some((expected, expected_estimates)) = &reference {
        report.check(checks::same_outcomes(*expected, counts));
        let same = estimates.len() == expected_estimates.len()
            && estimates.iter().zip(expected_estimates).all(|(a, b)| {
                a.0.to_bits() == b.0.to_bits()
                    && a.1.to_bits() == b.1.to_bits()
                    && a.2.to_bits() == b.2.to_bits()
                    && a.3.to_bits() == b.3.to_bits()
            });
        if !same {
            report
                .errors
                .push("replica estimates differ from FleetSim::predict".to_string());
        }
    }

    if opts.trace {
        let layers = tracer.layers();
        let traced_rounds = report.rounds.traced_s.len() as f64;
        let per_item = |name: &str| {
            layers
                .get(name)
                .map_or(0.0, |l| l.self_s * 1e9 / l.items.max(1) as f64)
        };
        let per_round = |name: &str| layers.get(name).map_or(0.0, |l| l.self_s / traced_rounds);
        report.layer("workload.trace_ns_per_job", per_item("workload.trace"));
        report.layer("fleet.submit_ns_per_job", per_item("fleet.submit"));
        report.layer("fleet.step_s", per_round("fleet.step"));
        report.layer("fleet.reconcile_s", per_round("fleet.reconcile"));
        report.layer("fleet.predict_ns", per_item("fleet.predict"));
        let step = layers["cloud.live_step"];
        report.layer(
            "cloud.live_step_ns_per_job",
            step.self_s * 1e9 / population.jobs as f64,
        );
        report.layer(
            "predictor.observe_ns_per_record",
            per_item("predictor.observe"),
        );
        report.layer("predictor.predict_ns", per_item("predictor.predict"));
    }
    report
}
