//! `study_full`: the paper reproduction. One round is
//! `Study::run(&StudyConfig::full())` followed by every figure accessor of
//! Figs 2–4 and 8–16. An op is one simulated job.
//!
//! `Study::run` is one opaque call (trace generation, then the batch DES),
//! so the traced run splits it with a replica made of the same public
//! calls it makes — `generate`, `OutagePlan::sample`, `Simulation::run` —
//! and checks that the replica's records are the study's records.

use qcs::cloud::{JobOutcome, JobRecord, OutagePlan, Simulation, SimulationResult};
use qcs::machine::Fleet;
use qcs::workload::generate;
use qcs::{Study, StudyConfig};

use crate::checks;
use crate::trace::Tracer;
use crate::util::{peak_rss_mib, sub_seed, Digest};
use crate::{timed_rounds, timed_setups, Opts, Report};

fn config(seed: u64, threads: usize, full: bool) -> StudyConfig {
    let mut config = if full {
        StudyConfig::full()
    } else {
        StudyConfig::smoke()
    };
    config.workload.seed = sub_seed(seed, 1);
    config.cloud.seed = sub_seed(seed, 2);
    config.with_threads(threads)
}

/// Digest of the simulated trace: every recorded job and the totals.
fn result_digest(result: &SimulationResult) -> u64 {
    let mut d = Digest::default();
    d.u64(result.total_jobs);
    for c in result.outcome_counts {
        d.u64(c);
    }
    for r in &result.records {
        d.u64(r.id);
        d.u64(r.machine as u64);
        d.f64(r.submit_s);
        d.f64(r.start_s);
        d.f64(r.end_s);
        d.u64(r.outcome as u64);
    }
    d.value()
}

/// Everything the figure accessors return, kept for checks and digest.
struct Figures {
    cumulative: Vec<(usize, u64)>,
    cumulative_study: Vec<(usize, u64)>,
    fractions: (f64, f64, f64),
    queue_sorted: Vec<f64>,
    anchors: (f64, f64, f64, f64),
    ratios: Vec<f64>,
    violins: Vec<(&'static str, Vec<(String, qcs::stats::ViolinSummary)>)>,
    pending: Vec<(String, usize, bool, f64)>,
    batch: Vec<(String, f64, f64, usize)>,
    crossover: f64,
    runtime: Vec<(u32, f64)>,
    correlation: f64,
}

fn figures(study: &Study, seed: u64, tracer: &mut Tracer) -> Figures {
    let open = tracer.enter("study.figures");
    let cumulative = study.cumulative_executions();
    let cumulative_study = study.cumulative_study_executions();
    let fractions = study.outcome_fractions();
    let queue_sorted = study.queue_times_sorted_min();
    let anchors = study.queue_time_anchors();
    let ratios = study.queue_exec_ratios_sorted();
    let util = tracer.time("stats.violins", || study.utilization_by_machine());
    let pending = study.pending_jobs_by_machine();
    let queue = tracer.time("stats.violins", || study.queue_time_by_machine());
    let batch = study.queue_time_vs_batch();
    let crossover = study.calibration_crossover_fraction();
    let exec = tracer.time("stats.violins", || study.exec_time_by_machine());
    let runtime = study.runtime_vs_batch();
    let prediction = tracer.time("predictor.batch_fit", || study.prediction_study(seed));
    tracer.exit(open);
    Figures {
        cumulative,
        cumulative_study,
        fractions,
        queue_sorted,
        anchors,
        ratios,
        violins: vec![("fig08", util), ("fig10", queue), ("fig13", exec)],
        pending,
        batch,
        crossover,
        runtime,
        correlation: prediction.overall_correlation,
    }
}

fn figures_digest(f: &Figures) -> u64 {
    let mut d = Digest::default();
    for &(day, n) in f.cumulative.iter().chain(&f.cumulative_study) {
        d.u64(day as u64);
        d.u64(n);
    }
    for v in [
        f.fractions.0,
        f.fractions.1,
        f.fractions.2,
        f.anchors.0,
        f.anchors.1,
    ]
    .into_iter()
    .chain([f.anchors.2, f.anchors.3, f.crossover, f.correlation])
    .chain(f.queue_sorted.iter().copied())
    .chain(f.ratios.iter().copied())
    {
        d.f64(v);
    }
    for (_, violins) in &f.violins {
        for (name, v) in violins {
            d.str(name);
            let s = &v.summary;
            for x in [s.min, s.q1, s.median, s.q3, s.max, s.mean] {
                d.f64(x);
            }
        }
    }
    for (name, qubits, public, mean) in &f.pending {
        d.str(name);
        d.u64(*qubits as u64);
        d.u64(u64::from(*public));
        d.f64(*mean);
    }
    for (label, job, circuit, n) in &f.batch {
        d.str(label);
        d.f64(*job);
        d.f64(*circuit);
        d.u64(*n as u64);
    }
    for &(b, t) in &f.runtime {
        d.u64(u64::from(b));
        d.f64(t);
    }
    d.value()
}

fn check_study(report: &mut Report, study: &Study, f: &Figures) {
    let result = study.result();
    let records: &[JobRecord] = &result.records;
    report.check(checks::causality(records));
    report.check(checks::no_overlap(records));
    report.check(checks::fractions_sum_to_one(f.fractions));
    let executed_study = records
        .iter()
        .filter(|r| r.is_study && r.outcome != JobOutcome::Cancelled)
        .count();
    report.check(checks::sorted_with_len(
        "fig03 queue times",
        &f.queue_sorted,
        executed_study,
    ));
    for (name, violins) in &f.violins {
        report.check(checks::violins_ordered(name, violins));
    }
    if !f.correlation.is_finite() {
        report
            .errors
            .push(format!("fig15 correlation {}", f.correlation));
    }
}

pub fn run(opts: &Opts, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let full = config(opts.seed, opts.threads, true);
    report.config = vec![
        ("days", full.workload.days.to_string()),
        ("study_jobs", full.workload.study_jobs.to_string()),
        ("workload_seed", full.workload.seed.to_string()),
        ("cloud_seed", full.cloud.seed.to_string()),
        (
            "record_divisor",
            full.cloud.background_record_divisor.to_string(),
        ),
        ("study_threads", opts.threads.to_string()),
    ];

    // Set-up: the fleet and one smoke-sized study through the same calls.
    let smoke = config(opts.seed, opts.threads, false);
    let mut scratch = Tracer::new();
    let mut setup = || {
        let fleet = Fleet::ibm_like();
        let study = Study::run(&smoke);
        let f = figures(&study, opts.seed, &mut scratch);
        (fleet, f.queue_sorted.len())
    };
    timed_setups(&mut report, &mut setup, drop);

    let mut jobs_per_round = 0u64;
    let mut digests: Vec<(u64, u64)> = Vec::new();
    let rounds = timed_rounds(
        opts,
        tracer,
        |tracer| {
            let study = tracer.time("study.run", || Study::run(&full));
            let f = figures(&study, opts.seed, tracer);
            (study, f)
        },
        |i, (study, f)| {
            jobs_per_round = study.result().total_jobs;
            if i == 0 {
                check_study(&mut report, &study, &f);
            }
            digests.push((result_digest(study.result()), figures_digest(&f)));
        },
        Some(&mut || drop(setup())),
    );
    report.rounds = rounds;
    report.peak_rss_mib = peak_rss_mib();
    report.ops_per_round = jobs_per_round;
    if digests.windows(2).any(|w| w[0] != w[1]) {
        report
            .errors
            .push(format!("study digests differ between rounds: {digests:x?}"));
    }

    // Replica of Study::run, one layer down.
    tracer.set_on(opts.trace);
    let fleet = Fleet::ibm_like();
    let open = tracer.enter("replica");
    let workload = tracer.time("workload.generate", || generate(&fleet, &full.workload));
    let generated = workload.jobs.len() as u64;
    let outages = tracer.time("cloud.outages", || {
        OutagePlan::sample(
            fleet.len(),
            full.workload.days,
            full.outage_interval_days,
            full.outage_duration_hours,
            full.workload.seed ^ 0x0u64.wrapping_sub(0x6F75_7461_6765),
        )
    });
    let sim_open = tracer.enter("cloud.simulate");
    let result = Simulation::new(fleet.clone(), full.cloud)
        .with_outages(outages)
        .run(workload.jobs);
    tracer.exit_items(sim_open, generated);
    tracer.exit(open);
    tracer.set_on(false);

    report.check(checks::outcome_total(result.outcome_counts, generated));
    if let Some(&(study_digest, figures_digest)) = digests.first() {
        if result_digest(&result) != study_digest {
            report
                .errors
                .push("replica records differ from Study::run".to_string());
        }
        let mut d = Digest::default();
        d.u64(study_digest);
        d.u64(figures_digest);
        report.digest = Some(d.value());
    }

    if opts.trace {
        let layers = tracer.layers();
        let traced_rounds = report.rounds.traced_s.len() as f64;
        let per_round = |name: &str| layers.get(name).map_or(0.0, |l| l.self_s / traced_rounds);
        report.layer("study.run_s", per_round("study.run"));
        report.layer("study.figures_s", per_round("study.figures"));
        report.layer("stats.violins_s", per_round("stats.violins"));
        report.layer("predictor.batch_fit_s", per_round("predictor.batch_fit"));
        let generate = layers["workload.generate"];
        let simulate = layers["cloud.simulate"];
        report.layer("workload.generate_s", generate.self_s);
        report.layer("cloud.simulate_s", simulate.self_s);
        report.layer(
            "cloud.simulate_ns_per_job",
            simulate.self_s * 1e9 / simulate.items as f64,
        );
    }
    report
}
