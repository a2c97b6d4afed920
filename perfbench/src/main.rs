//! qcs benchmark: four workloads run against the public API, each checked
//! against properties computed apart from the program, printing the
//! end-to-end metrics (or, with `--trace 1`, the per-layer metrics) as one
//! JSON object on the last line of standard output.
//!
//! ```text
//! qcs-perfbench --workload <study_full|fleet_stream|gateway_mix|circuits>
//!               --seed <n> --seconds <s> --trace <0|1> [--threads <n>]
//! ```
//!
//! A run sets up several times and reports the median set-up, then runs
//! whole rounds of its workload until `--seconds` have passed; `wall_s` is
//! the median round. With `--trace 1`, untraced and traced rounds
//! alternate so the tracing overhead is measured in the same process, and
//! a replica of the workload, made of calls one layer further down, splits
//! the opaque calls into layers.

mod checks;
mod circuits;
mod gateway;
mod stream;
mod study;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::time::Instant;

use trace::Tracer;
use util::{cpu_s, median, secs};

/// End-to-end metrics: name and unit. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("request_p50_us", "us"),
];

/// Per-layer metrics of the traced run: name and unit. A workload that
/// never calls a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("workload.generate_s", "s"),
    ("workload.trace_ns_per_job", "ns"),
    ("cloud.simulate_s", "s"),
    ("cloud.simulate_ns_per_job", "ns"),
    ("cloud.live_step_ns_per_job", "ns"),
    ("predictor.observe_ns_per_record", "ns"),
    ("predictor.predict_ns", "ns"),
    ("predictor.batch_fit_s", "s"),
    ("study.run_s", "s"),
    ("study.figures_s", "s"),
    ("stats.violins_s", "s"),
    ("fleet.submit_ns_per_job", "ns"),
    ("fleet.step_s", "s"),
    ("fleet.reconcile_s", "s"),
    ("fleet.predict_ns", "ns"),
    ("gateway.submit_p50_us", "us"),
    ("gateway.status_p50_us", "us"),
    ("gateway.queue_p50_us", "us"),
    ("gateway.predict_p50_us", "us"),
    ("gateway.metrics_p50_us", "us"),
    ("gateway.submit_p99_us", "us"),
    ("gateway.request_p99_us", "us"),
    ("gateway.parse_ns", "ns"),
    ("gateway.encode_ns", "ns"),
    ("gateway.reconcile_s", "s"),
    ("gateway.loopback_rtt_p50_us", "us"),
    ("experiments.compile_scaling_s", "s"),
    ("experiments.fidelity_s", "s"),
    ("experiments.stale_s", "s"),
    ("transpile.total_s", "s"),
    ("transpile.basis_translation_s", "s"),
    ("transpile.layout_s", "s"),
    ("transpile.routing_s", "s"),
    ("transpile.swap_decomposition_s", "s"),
    ("transpile.optimization_s", "s"),
    ("transpile.scheduling_s", "s"),
    ("transpile.cache_hit_ratio", "ratio"),
    ("sim.dense_s", "s"),
    ("sim.sparse_s", "s"),
    ("sim.stabilizer_s", "s"),
    ("sim.shots_per_s", "1/s"),
    ("process.cpu_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Extra per-layer figure: the share of the traced rounds that named
/// layer spans account for.
pub const COVERAGE: (&str, &str) = ("trace.layer_share", "ratio");

/// Set-ups timed before the first round. One more is timed after each
/// round, so the samples spread over the whole run like the rounds do;
/// the median of all is reported.
pub const SETUPS: usize = 3;

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Every thread count the program accepts is pinned to this.
    pub threads: usize,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    pub setup_s: Vec<f64>,
    pub rounds: Rounds,
    /// Ops in one round.
    pub ops_per_round: u64,
    /// Median client-side request latency of each untraced round, µs;
    /// empty for workloads whose unit of request is the whole round.
    pub request_p50_us: Vec<f64>,
    pub failed: u64,
    pub peak_rss_mib: f64,
    pub digest: Option<u64>,
    pub errors: Vec<String>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload configuration, for the stamp and its digest.
    pub config: Vec<(&'static str, String)>,
}

impl Report {
    pub fn check(&mut self, result: checks::Check) {
        if let Err(e) = result {
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted layer metric {name}"
        );
        self.layers.insert(name, value);
    }
}

#[derive(Debug, Default, Clone)]
pub struct Rounds {
    pub untraced_s: Vec<f64>,
    pub traced_s: Vec<f64>,
    /// CPU seconds of each untraced round.
    pub cpu_s: Vec<f64>,
    /// Set-ups timed between rounds.
    pub setup_s: Vec<f64>,
}

impl Rounds {
    pub fn count(&self) -> usize {
        self.untraced_s.len() + self.traced_s.len()
    }
}

/// Time `setup` [`SETUPS`] times; all but the last result go to
/// `discard` (untimed), and the last one is returned.
pub fn timed_setups<T>(
    report: &mut Report,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> T {
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let state = setup();
        report.setup_s.push(secs(t0));
        if i + 1 == SETUPS {
            return state;
        }
        discard(state);
    }
    unreachable!("SETUPS > 0")
}

/// Run whole rounds until `opts.seconds` have passed (at least one; with
/// tracing, at least one untraced and one traced, alternating). Only the
/// `round` closure is timed as a round; `after` (checks, drops) is not.
/// `setup_again`, when given, is timed as one more set-up after each
/// round.
pub fn timed_rounds<T>(
    opts: &Opts,
    tracer: &mut Tracer,
    mut round: impl FnMut(&mut Tracer) -> T,
    mut after: impl FnMut(usize, T),
    mut setup_again: Option<&mut dyn FnMut()>,
) -> Rounds {
    let mut rounds = Rounds::default();
    let started = Instant::now();
    let mut i = 0usize;
    loop {
        let traced = opts.trace && i % 2 == 1;
        tracer.set_on(traced);
        let cpu0 = cpu_s();
        let t0 = Instant::now();
        let open = tracer.enter("round");
        let out = round(tracer);
        tracer.exit(open);
        let wall = secs(t0);
        let cpu = cpu_s() - cpu0;
        tracer.set_on(false);
        if traced {
            rounds.traced_s.push(wall);
        } else {
            rounds.untraced_s.push(wall);
            rounds.cpu_s.push(cpu);
        }
        after(i, out);
        if let Some(setup) = setup_again.as_mut() {
            let t0 = Instant::now();
            setup();
            rounds.setup_s.push(secs(t0));
        }
        i += 1;
        let enough = !opts.trace || !(rounds.untraced_s.is_empty() || rounds.traced_s.is_empty());
        if enough && secs(started) >= opts.seconds {
            return rounds;
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: qcs-perfbench --workload <study_full|fleet_stream|gateway_mix|circuits> \
         --seed <n> --seconds <s> --trace <0|1> [--threads <n>]"
    );
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        threads: nproc.min(2),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => opts.trace = value == "1",
            "--threads" => opts.threads = value.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if opts.threads == 0 || opts.threads > nproc {
        opts.threads = nproc.min(opts.threads.max(1));
    }
    opts
}

fn isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "baseline"
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let opts = parse_args();
    // The env-driven experiment functions and the fig binaries size their
    // worker pools from QCS_THREADS; pin it before any thread starts.
    std::env::set_var("QCS_THREADS", opts.threads.to_string());

    let mut tracer = Tracer::new();
    let mut report = match opts.workload.as_str() {
        "study_full" => study::run(&opts, &mut tracer),
        "fleet_stream" => stream::run(&opts, &mut tracer),
        "gateway_mix" => gateway::run(&opts, &mut tracer),
        "circuits" => circuits::run(&opts, &mut tracer),
        _ => usage(),
    };

    let rounds = &report.rounds;
    eprintln!(
        "rounds untraced {:?} traced {:?} setups {:?} {:?}",
        rounds.untraced_s, rounds.traced_s, report.setup_s, rounds.setup_s
    );
    let attempted = report.ops_per_round * rounds.count() as u64;
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if opts.trace {
        let overhead = median(&rounds.traced_s) - median(&rounds.untraced_s);
        report.layers.insert("process.cpu_s", median(&rounds.cpu_s));
        report.layers.insert("trace.overhead_s", overhead);
        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, report.layers.get(name).copied().unwrap_or(0.0)));
        }
        metrics.push((COVERAGE.0, COVERAGE.1, tracer.coverage("round")));
        eprint!("{}", tracer.table());
    } else {
        let wall = median(&rounds.untraced_s);
        let p50 = if report.request_p50_us.is_empty() {
            wall * 1e6
        } else {
            median(&report.request_p50_us)
        };
        let setups: Vec<f64> = report
            .setup_s
            .iter()
            .chain(&rounds.setup_s)
            .copied()
            .collect();
        let values = [
            median(&setups),
            wall,
            report.ops_per_round as f64 / wall,
            report.peak_rss_mib,
            p50,
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, unit, value));
        }
    }

    let mut config_digest = util::Digest::default();
    for (k, v) in &report.config {
        config_digest.str(k);
        config_digest.str(v);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = std::env::var("QCS_BENCH_REV").unwrap_or_else(|_| "unknown".to_string());
    let config: Vec<String> = report
        .config
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "STAMP workload={} seed={} seconds={} trace={} nproc={nproc} isa={} threads={} \
         QCS_THREADS={} rounds={} setups={} config_digest={:016x} rev={rev} {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        isa(),
        opts.threads,
        opts.threads,
        rounds.count(),
        report.setup_s.len(),
        config_digest.value(),
        config.join(" ")
    );
    match report.digest {
        Some(d) => println!("DIGEST {} {d:016x}", opts.workload),
        None => println!("DIGEST {} none (wall-clock driven)", opts.workload),
    }
    for e in &report.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.errors.is_empty(),
        report.failed,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root names exactly the metrics this
    /// binary prints, with the same units.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let compact: String = json.split_whitespace().collect();
        let listed = |name: &str, unit: &str| {
            compact.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\""))
        };
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER).chain([&COVERAGE]) {
            assert!(
                listed(name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let names = compact.matches("\"name\":").count();
        assert_eq!(
            names,
            4 + END_TO_END.len() + PER_LAYER.len() + 1,
            "extra names"
        );
    }
}
