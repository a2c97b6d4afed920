//! `circuits`: the paper's circuit experiments through their public
//! functions — Fig 5 `compile_scaling` at its smoke sizes, Fig 7
//! `fidelity_vs_cx` on the five paper machines and `fleet_fidelity` on all
//! 25, and Recommendation ⑥ `stale_compilation_cost_with` on a 27-qubit
//! machine with a 10-qubit QFT, decoherence on. An op is one compile
//! request or one simulator run.
//!
//! The experiments return only summary rows, so a replica repeats each one
//! with the calls it makes (`transpile`, `TranspileCache::transpile`,
//! `NoisySimulator::run`), one at a time, with its simulator thread
//! settings. The replica's success probabilities must equal the rows
//! bit for bit; its compiled circuits and counts are what the checks
//! inspect, and its spans split the experiments into transpiler passes
//! and simulator backends.

use qcs::calibration::CalibrationSnapshot;
use qcs::circuit::{library, Circuit};
use qcs::exec::ExecConfig;
use qcs::experiments::{
    compile_scaling, fidelity_vs_cx, fleet_fidelity, stale_compilation_cost_with,
};
use qcs::machine::{Fleet, Machine};
use qcs::sim::{clifford_pos_circuit, probability_of_success, qft_pos_circuit, NoisySimulator};
use qcs::topology::families;
use qcs::transpiler::{transpile, Target, TranspileCache, TranspileOptions, TranspileResult};

use crate::checks;
use crate::trace::Tracer;
use crate::util::{peak_rss_mib, sub_seed, Digest};
use crate::{timed_rounds, timed_setups, Opts, Report};

const FIG7_MACHINES: [&str; 5] = ["casablanca", "toronto", "guadalupe", "rome", "manhattan"];
const T_HOURS: f64 = 36.0;
const SHOTS: u32 = 8192;
/// Fig 5 smoke sizes.
const SCALING: (usize, usize) = (24, 200);
/// Recommendation ⑥: machine, QFT width, calibration days. Day `d`
/// compiles against cycles `d` and `d + 1`, so two days share one cycle
/// and the shared cache hits once.
const STALE: (&str, usize, u64) = ("toronto", 10, 2);
/// The experiment's per-day simulator thread count: one, which the
/// simulator's statevector team does not follow (see README).
const STALE_SIM_THREADS: usize = 1;

#[derive(Debug, Clone, Copy)]
struct Sizes {
    scaling: (usize, usize),
    fig7_qubits: usize,
    stale_qubits: usize,
    stale_days: u64,
    shots: u32,
}

const FULL: Sizes = Sizes {
    scaling: SCALING,
    fig7_qubits: 4,
    stale_qubits: STALE.1,
    stale_days: STALE.2,
    shots: SHOTS,
};

/// The set-up warm-up: the same calls at small sizes.
const WARM: Sizes = Sizes {
    scaling: (8, 24),
    fig7_qubits: 3,
    stale_qubits: 4,
    stale_days: 2,
    shots: 256,
};

impl Sizes {
    fn ops(&self) -> u64 {
        let fleet = Fleet::ibm_like().len() as u64;
        2 + 2 * FIG7_MACHINES.len() as u64 + 2 * fleet + 4 * self.stale_days
    }
}

/// The rows of one round.
struct Rows {
    fig7: Vec<f64>,
    fleet: Vec<f64>,
    fleet_skipped: usize,
    stale: Vec<(f64, f64)>,
    cache: (u64, u64),
    passes: usize,
}

fn experiments(
    fleet: &Fleet,
    sizes: Sizes,
    seed: u64,
    threads: usize,
    tracer: &mut Tracer,
) -> Rows {
    let passes = tracer.time("experiments.compile_scaling", || {
        compile_scaling(sizes.scaling.0, sizes.scaling.1).expect("Fig 5 compiles")
    });
    let fig7 = tracer.time("experiments.fidelity_vs_cx", || {
        fidelity_vs_cx(
            fleet,
            &FIG7_MACHINES,
            sizes.fig7_qubits,
            T_HOURS,
            sizes.shots,
            seed,
        )
        .expect("Fig 7 compiles")
    });
    let whole = tracer.time("experiments.fleet_fidelity", || {
        fleet_fidelity(fleet, T_HOURS, sizes.shots, seed).expect("fleet Fig 7 compiles")
    });
    let machine = fleet.get(STALE.0).expect("stale machine in the fleet");
    let cache = TranspileCache::new();
    let stale = tracer.time("experiments.stale_compilation", || {
        stale_compilation_cost_with(
            &ExecConfig::with_threads(threads),
            STALE_SIM_THREADS,
            machine,
            sizes.stale_qubits,
            sizes.stale_days,
            sizes.shots,
            seed,
            &cache,
        )
        .expect("stale experiment compiles")
    });
    let stats = cache.stats();
    Rows {
        fig7: fig7.iter().map(|r| r.pos).collect(),
        fleet: whole.rows.iter().map(|r| r.pos).collect(),
        fleet_skipped: whole.skipped,
        stale: stale.iter().map(|r| (r.pos_fresh, r.pos_stale)).collect(),
        cache: (stats.hits, stats.misses),
        passes: passes.len(),
    }
}

fn digest(rows: &Rows) -> u64 {
    let mut d = Digest::default();
    for &v in rows.fig7.iter().chain(&rows.fleet) {
        d.f64(v);
    }
    for &(a, b) in &rows.stale {
        d.f64(a);
        d.f64(b);
    }
    d.u64(rows.fleet_skipped as u64);
    d.value()
}

/// The replica's results, in the rows' order.
#[derive(Default)]
struct Replica {
    rows: Vec<f64>,
    errors: Vec<String>,
    cache: (u64, u64),
}

impl Replica {
    fn note(&mut self, result: checks::Check) {
        if let Err(e) = result {
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    /// Compile under a span, with the pass timings as its children.
    fn compile(
        &mut self,
        tracer: &mut Tracer,
        circuit: &Circuit,
        target: &Target,
    ) -> TranspileResult {
        let open = tracer.enter("transpile");
        let result =
            transpile(circuit, target, TranspileOptions::full()).expect("replica compiles");
        pass_children(tracer, &result);
        tracer.exit(open);
        self.note(checks::on_coupling_map(&result.circuit, target.topology()));
        result
    }

    /// Run a compiled circuit (noisy, then noiseless) and return its POS.
    fn execute(
        &mut self,
        tracer: &mut Tracer,
        sim: NoisySimulator,
        compiled: &Circuit,
        snapshot: &CalibrationSnapshot,
        coupling: &qcs::topology::CouplingGraph,
        shots: u32,
    ) -> f64 {
        let (compact, region) = compiled.compacted();
        let noisy_snapshot = snapshot.restricted(&region);
        let backend = sim
            .planned_backend(&compact)
            .expect("replica circuit has a backend");
        let span = match backend.to_string().as_str() {
            "dense" => "sim.dense",
            "sparse" => "sim.sparse",
            _ => "sim.stabilizer",
        };
        let open = tracer.enter(span);
        let counts = sim
            .run(&compact, &noisy_snapshot, shots)
            .expect("replica simulates");
        tracer.exit_items(open, u64::from(shots));
        self.note(checks::counts_sum_to_shots(&counts, shots));
        let ideal_target = Target::noiseless("ideal", coupling.induced_subgraph(&region));
        let ideal = NoisySimulator::with_seed(sim.seed)
            .with_threads(1)
            .run(&compact, ideal_target.snapshot(), shots)
            .expect("noiseless run");
        self.note(checks::all_shots_ideal(&ideal, shots));
        probability_of_success(&counts, 0)
    }
}

fn pass_children(tracer: &mut Tracer, result: &TranspileResult) {
    for &(pass, elapsed) in result.timings.entries() {
        let name = match pass {
            "basis_translation" => "transpile.basis_translation",
            "layout" => "transpile.layout",
            "routing" => "transpile.routing",
            "swap_decomposition" => "transpile.swap_decomposition",
            "optimization" => "transpile.optimization",
            "scheduling" => "transpile.scheduling",
            _ => "transpile.other_pass",
        };
        tracer.record_child(name, elapsed.as_nanos() as u64, 1);
    }
}

/// Repeat the round's experiments with their inner calls, one at a time.
fn replica(fleet: &Fleet, sizes: Sizes, seed: u64, tracer: &mut Tracer) -> Replica {
    let mut rep = Replica::default();

    let hummingbird = Target::noiseless("manhattan-65q", families::ibm_hummingbird_65q());
    let big = families::heavy_hex(19, 45);
    let big = Target::noiseless(format!("heavyhex-{}q", big.num_qubits()), big);
    rep.compile(tracer, &library::qft(sizes.scaling.0), &hummingbird);
    rep.compile(tracer, &library::qft(sizes.scaling.1), &big);

    let qft = qft_pos_circuit(sizes.fig7_qubits);
    for name in FIG7_MACHINES {
        let machine = fleet.get(name).expect("Fig 7 machine in the fleet");
        let target = Target::from_machine(machine, T_HOURS);
        let compiled = rep.compile(tracer, &qft, &target);
        let sim = NoisySimulator::with_seed(seed)
            .with_decoherence()
            .with_threads(1);
        let pos = rep.execute(
            tracer,
            sim,
            &compiled.circuit,
            target.snapshot(),
            target.topology(),
            sizes.shots,
        );
        rep.rows.push(pos);
    }
    for machine in fleet.iter() {
        let target = Target::from_machine(machine, T_HOURS);
        let compiled = rep.compile(tracer, &clifford_pos_circuit(machine.num_qubits()), &target);
        let sim = NoisySimulator::with_seed(seed).with_threads(1);
        let pos = rep.execute(
            tracer,
            sim,
            &compiled.circuit,
            target.snapshot(),
            target.topology(),
            sizes.shots,
        );
        rep.rows.push(pos);
    }

    let machine: &Machine = fleet.get(STALE.0).expect("stale machine in the fleet");
    let circuit = qft_pos_circuit(sizes.stale_qubits);
    let cache = TranspileCache::new();
    for day in 0..sizes.stale_days {
        let exec_snapshot = machine.profile().snapshot(machine.topology(), day + 1);
        for compile_day in [day + 1, day] {
            let target = Target::new(
                format!("{}-day{compile_day}", machine.name()),
                machine.topology().clone(),
                machine.profile().snapshot(machine.topology(), compile_day),
            );
            let misses = cache.stats().misses;
            let open = tracer.enter("transpile");
            let compiled = cache
                .transpile(&circuit, &target, TranspileOptions::full())
                .expect("replica compiles");
            if cache.stats().misses > misses {
                pass_children(tracer, &compiled);
            }
            tracer.exit(open);
            rep.note(checks::on_coupling_map(
                &compiled.circuit,
                target.topology(),
            ));
            let sim = NoisySimulator::with_seed(seed ^ day)
                .with_decoherence()
                .with_threads(STALE_SIM_THREADS);
            let pos = rep.execute(
                tracer,
                sim,
                &compiled.circuit,
                &exec_snapshot,
                target.topology(),
                sizes.shots,
            );
            rep.rows.push(pos);
        }
    }
    let stats = cache.stats();
    rep.cache = (stats.hits, stats.misses);
    rep
}

pub fn run(opts: &Opts, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let seed = sub_seed(opts.seed, 1);
    report.config = vec![
        ("scaling_qubits", format!("{}/{}", SCALING.0, SCALING.1)),
        ("fig7_machines", FIG7_MACHINES.join("/")),
        ("t_hours", T_HOURS.to_string()),
        ("shots", SHOTS.to_string()),
        ("stale", format!("{}/{}q/{}days", STALE.0, STALE.1, STALE.2)),
        ("stale_sim_threads", STALE_SIM_THREADS.to_string()),
        ("exec_threads", opts.threads.to_string()),
        ("sim_seed", seed.to_string()),
    ];

    let mut scratch = Tracer::new();
    let mut setup = || {
        let fleet = Fleet::ibm_like();
        experiments(&fleet, WARM, seed, opts.threads, &mut scratch);
        fleet
    };
    let fleet = timed_setups(&mut report, &mut setup, drop);

    let mut digests = Vec::new();
    let mut first: Option<Rows> = None;
    let rounds = timed_rounds(
        opts,
        tracer,
        |tracer| experiments(&fleet, FULL, seed, opts.threads, tracer),
        |_, rows| {
            digests.push(digest(&rows));
            first.get_or_insert(rows);
        },
        Some(&mut || drop(setup())),
    );
    report.rounds = rounds;
    report.peak_rss_mib = peak_rss_mib();
    report.ops_per_round = FULL.ops();
    if digests.windows(2).any(|w| w[0] != w[1]) {
        report.errors.push(format!(
            "circuit digests differ between rounds: {digests:x?}"
        ));
    }
    report.digest = digests.first().copied();

    tracer.set_on(opts.trace);
    let open = tracer.enter("replica");
    let rep = replica(&fleet, FULL, seed, tracer);
    tracer.exit(open);
    tracer.set_on(false);
    report.errors.extend(rep.errors.iter().cloned());

    let rows = first.expect("at least one round");
    if rows.fleet_skipped != 0 || rows.fleet.len() != fleet.len() {
        report.errors.push(format!(
            "fleet_fidelity skipped {} machines, {} rows",
            rows.fleet_skipped,
            rows.fleet.len()
        ));
    }
    let expected: Vec<f64> = rows
        .fig7
        .iter()
        .chain(&rows.fleet)
        .copied()
        .chain(rows.stale.iter().flat_map(|&(fresh, stale)| [fresh, stale]))
        .collect();
    let same = expected.len() == rep.rows.len()
        && expected
            .iter()
            .zip(&rep.rows)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        report.errors.push(format!(
            "replica POS {:?} differ from experiment rows {expected:?}",
            rep.rows
        ));
    }
    for pos in &expected {
        if !(0.0..=1.0).contains(pos) {
            report.errors.push(format!("POS {pos} outside [0, 1]"));
        }
    }
    let requests = 2 * FULL.stale_days;
    for (who, (hits, misses)) in [("experiment", rows.cache), ("replica", rep.cache)] {
        if hits + misses != requests || hits == 0 {
            report.errors.push(format!(
                "{who} cache: {hits} hits + {misses} misses for {requests} requests"
            ));
        }
    }
    if rows.passes == 0 {
        report
            .errors
            .push("compile_scaling reported no passes".to_string());
    }

    if opts.trace {
        let layers = tracer.layers();
        let traced_rounds = report.rounds.traced_s.len() as f64;
        let per_round = |name: &str| layers.get(name).map_or(0.0, |l| l.total_s / traced_rounds);
        let self_s = |name: &str| layers.get(name).map_or(0.0, |l| l.self_s);
        report.layer(
            "experiments.compile_scaling_s",
            per_round("experiments.compile_scaling"),
        );
        report.layer(
            "experiments.fidelity_s",
            per_round("experiments.fidelity_vs_cx") + per_round("experiments.fleet_fidelity"),
        );
        report.layer(
            "experiments.stale_s",
            per_round("experiments.stale_compilation"),
        );
        report.layer(
            "transpile.total_s",
            layers.get("transpile").map_or(0.0, |l| l.total_s),
        );
        for (metric, span) in [
            (
                "transpile.basis_translation_s",
                "transpile.basis_translation",
            ),
            ("transpile.layout_s", "transpile.layout"),
            ("transpile.routing_s", "transpile.routing"),
            (
                "transpile.swap_decomposition_s",
                "transpile.swap_decomposition",
            ),
            ("transpile.optimization_s", "transpile.optimization"),
            ("transpile.scheduling_s", "transpile.scheduling"),
        ] {
            report.layer(metric, self_s(span));
        }
        report.layer(
            "transpile.cache_hit_ratio",
            rep.cache.0 as f64 / requests as f64,
        );
        let sims = ["sim.dense", "sim.sparse", "sim.stabilizer"];
        report.layer("sim.dense_s", self_s("sim.dense"));
        report.layer("sim.sparse_s", self_s("sim.sparse"));
        report.layer("sim.stabilizer_s", self_s("sim.stabilizer"));
        let (shots, secs) = sims
            .iter()
            .filter_map(|s| layers.get(s))
            .fold((0u64, 0.0), |(n, t), l| (n + l.items, t + l.self_s));
        report.layer("sim.shots_per_s", shots as f64 / secs);
    }
    report
}
