//! Output checks computed apart from the program: each re-derives a
//! property the method must have from the raw outputs, and returns a
//! description of the first violation it finds.

use std::collections::BTreeMap;

use qcs::circuit::Circuit;
use qcs::cloud::{JobOutcome, JobRecord};
use qcs::sim::Counts;
use qcs::stats::ViolinSummary;
use qcs::topology::CouplingGraph;

pub type Check = Result<(), String>;

/// Every record satisfies `submit <= start <= end`.
pub fn causality(records: &[JobRecord]) -> Check {
    match records
        .iter()
        .find(|r| !(r.submit_s <= r.start_s && r.start_s <= r.end_s))
    {
        Some(r) => Err(format!(
            "job {}: submit {} start {} end {} out of order",
            r.id, r.submit_s, r.start_s, r.end_s
        )),
        None => Ok(()),
    }
}

/// Recorded executions on any one machine never overlap: a machine runs
/// one job at a time. Cancelled jobs never executed and are skipped.
pub fn no_overlap(records: &[JobRecord]) -> Check {
    let mut by_machine: BTreeMap<usize, Vec<(f64, f64, u64)>> = BTreeMap::new();
    for r in records
        .iter()
        .filter(|r| r.outcome != JobOutcome::Cancelled)
    {
        by_machine
            .entry(r.machine)
            .or_default()
            .push((r.start_s, r.end_s, r.id));
    }
    for (machine, mut runs) in by_machine {
        runs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for pair in runs.windows(2) {
            if pair[1].0 < pair[0].1 {
                return Err(format!(
                    "machine {machine}: job {} starts at {} before job {} ends at {}",
                    pair[1].2, pair[1].0, pair[0].2, pair[0].1
                ));
            }
        }
    }
    Ok(())
}

/// Outcome totals equal the number of jobs that entered.
pub fn outcome_total(counts: [u64; 3], jobs: u64) -> Check {
    let total: u64 = counts.iter().sum();
    if total == jobs {
        Ok(())
    } else {
        Err(format!(
            "outcome totals {counts:?} sum to {total}, not {jobs} jobs"
        ))
    }
}

/// The three outcome fractions sum to one.
pub fn fractions_sum_to_one((a, b, c): (f64, f64, f64)) -> Check {
    let sum = a + b + c;
    if (sum - 1.0).abs() < 1e-9 && [a, b, c].iter().all(|f| (0.0..=1.0).contains(f)) {
        Ok(())
    } else {
        Err(format!("outcome fractions {a} + {b} + {c} = {sum}"))
    }
}

/// A series is sorted ascending and has `len` points.
pub fn sorted_with_len(name: &str, series: &[f64], len: usize) -> Check {
    if series.len() != len {
        return Err(format!("{name}: {} points, expected {len}", series.len()));
    }
    match series.windows(2).position(|w| w[0] > w[1]) {
        Some(i) => Err(format!("{name}: unsorted at {i}")),
        None => Ok(()),
    }
}

/// Every violin is ordered: `min <= q1 <= median <= q3 <= max`.
pub fn violins_ordered(name: &str, violins: &[(String, ViolinSummary)]) -> Check {
    if violins.is_empty() {
        return Err(format!("{name}: no violins"));
    }
    for (machine, v) in violins {
        let s = &v.summary;
        if !(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max) {
            return Err(format!(
                "{name} {machine}: min {} q1 {} median {} q3 {} max {}",
                s.min, s.q1, s.median, s.q3, s.max
            ));
        }
    }
    Ok(())
}

/// A wait estimate is finite and non-negative, and its 10–90% band is
/// ordered: `0 <= lo <= hi`. The point estimate is not required to lie
/// inside the band: the band scales the point by quantiles of the
/// observed actual/predicted ratio, which need not bracket 1.
pub fn estimate_ordered(wait: f64, lo: f64, hi: f64) -> Check {
    if [wait, lo, hi].iter().all(|v| v.is_finite()) && wait >= 0.0 && 0.0 <= lo && lo <= hi {
        Ok(())
    } else {
        Err(format!(
            "estimate lo {lo} wait {wait} hi {hi} not finite and ordered"
        ))
    }
}

/// Fleet-wide charged and executed seconds agree per provider, summed by
/// the benchmark from per-shard ledgers.
pub fn charged_matches_executed(charged: &[Vec<f64>], executed: &[Vec<f64>]) -> Check {
    let sum = |ledgers: &[Vec<f64>]| {
        let width = ledgers.iter().map(Vec::len).max().unwrap_or(0);
        let mut out = vec![0.0f64; width];
        for ledger in ledgers {
            for (o, v) in out.iter_mut().zip(ledger) {
                *o += v;
            }
        }
        out
    };
    let (c, e) = (sum(charged), sum(executed));
    if c.len() != e.len() {
        return Err(format!(
            "{} charged vs {} executed providers",
            c.len(),
            e.len()
        ));
    }
    for (provider, (c, e)) in c.iter().zip(&e).enumerate() {
        if (c - e).abs() > 1e-6 * e.abs().max(1.0) {
            return Err(format!(
                "provider {provider}: charged {c} s, executed {e} s"
            ));
        }
    }
    Ok(())
}

/// Two runs of the same stream end with identical outcome counts.
pub fn same_outcomes(expected: [u64; 3], replica: [u64; 3]) -> Check {
    if expected == replica {
        Ok(())
    } else {
        Err(format!(
            "replica outcomes {replica:?} differ from {expected:?}"
        ))
    }
}

/// Every `(shard, id)` handed out by SUBMIT is new on its shard: no pair
/// repeats.
pub fn fresh_ids(submitted: &[(usize, u64)]) -> Check {
    let mut sorted = submitted.to_vec();
    sorted.sort_unstable();
    match sorted.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(format!(
            "shard {} handed out job id {} twice",
            w[0].0, w[0].1
        )),
        None => Ok(()),
    }
}

/// Every two-qubit gate of a compiled circuit acts on a coupled pair.
pub fn on_coupling_map(circuit: &Circuit, coupling: &CouplingGraph) -> Check {
    for inst in circuit.instructions() {
        if !inst.gate.is_two_qubit() {
            continue;
        }
        let (a, b) = (inst.qubits[0].index(), inst.qubits[1].index());
        if !coupling.are_coupled(a, b) {
            return Err(format!(
                "{}: {} on uncoupled qubits ({a}, {b})",
                circuit.name(),
                inst.gate.name()
            ));
        }
    }
    Ok(())
}

/// Counts sum to the shots asked for, and the success probability of
/// outcome 0 is a probability.
pub fn counts_sum_to_shots(counts: &Counts, shots: u32) -> Check {
    let pos = counts.frequency(0);
    if counts.total() != u64::from(shots) {
        return Err(format!(
            "counts sum to {}, not {shots} shots",
            counts.total()
        ));
    }
    if !(0.0..=1.0).contains(&pos) {
        return Err(format!("POS {pos} outside [0, 1]"));
    }
    Ok(())
}

/// A noiseless run puts every shot on the ideal outcome 0.
pub fn all_shots_ideal(counts: &Counts, shots: u32) -> Check {
    if counts.count(0) == u64::from(shots) && counts.total() == u64::from(shots) {
        Ok(())
    } else {
        Err(format!(
            "noiseless run put {} of {} shots on outcome 0",
            counts.count(0),
            counts.total()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs::circuit::Circuit;
    use qcs::topology::CouplingGraph;

    fn record(id: u64, machine: usize, start: f64, end: f64) -> JobRecord {
        JobRecord {
            id,
            provider: 0,
            machine,
            circuits: 1,
            shots: 1024,
            mean_width: 2.0,
            mean_depth: 10.0,
            is_study: false,
            submit_s: 0.0,
            start_s: start,
            end_s: end,
            outcome: JobOutcome::Completed,
            pending_at_submit: 0,
            crossed_calibration: false,
        }
    }

    #[test]
    fn overlapping_executions_on_one_machine_fail() {
        let good = [
            record(0, 0, 0.0, 10.0),
            record(1, 0, 10.0, 20.0),
            record(2, 1, 5.0, 15.0),
        ];
        assert!(no_overlap(&good).is_ok());
        let bad = [record(0, 0, 0.0, 10.0), record(1, 0, 9.0, 20.0)];
        assert!(no_overlap(&bad).is_err());
        // A cancelled job never ran, so it cannot overlap.
        let mut cancelled = record(1, 0, 5.0, 5.0);
        cancelled.outcome = JobOutcome::Cancelled;
        assert!(no_overlap(&[record(0, 0, 0.0, 10.0), cancelled]).is_ok());
    }

    #[test]
    fn acausal_record_fails() {
        assert!(causality(&[record(0, 0, 1.0, 2.0)]).is_ok());
        let mut bad = record(0, 0, 1.0, 2.0);
        bad.submit_s = 1.5;
        assert!(causality(&[bad]).is_err());
        assert!(causality(&[record(0, 0, 3.0, 2.0)]).is_err());
    }

    #[test]
    fn duplicated_submit_id_fails() {
        assert!(
            fresh_ids(&[(0, 7), (0, 8), (1, 7)]).is_ok(),
            "ids are per shard"
        );
        assert!(fresh_ids(&[(0, 7), (1, 7), (0, 8), (0, 7)]).is_err());
    }

    #[test]
    fn two_qubit_gate_off_the_coupling_map_fails() {
        let line = CouplingGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut good = Circuit::new(3);
        good.cx(0, 1).cx(2, 1).h(0);
        assert!(on_coupling_map(&good, &line).is_ok());
        let mut bad = Circuit::new(3);
        bad.cx(0, 1).cx(0, 2);
        assert!(on_coupling_map(&bad, &line).is_err());
    }

    #[test]
    fn counts_that_miss_shots_fail() {
        let mut counts = Counts::new(2);
        counts.record(0, 900);
        counts.record(3, 124);
        assert!(counts_sum_to_shots(&counts, 1024).is_ok());
        assert!(counts_sum_to_shots(&counts, 1000).is_err());
        assert!(all_shots_ideal(&counts, 1024).is_err());
        let mut ideal = Counts::new(2);
        ideal.record(0, 1024);
        assert!(all_shots_ideal(&ideal, 1024).is_ok());
    }

    #[test]
    fn replica_with_different_outcomes_fails() {
        assert!(same_outcomes([5, 1, 2], [5, 1, 2]).is_ok());
        assert!(same_outcomes([5, 1, 2], [5, 2, 1]).is_err());
        assert!(outcome_total([5, 1, 2], 8).is_ok());
        assert!(outcome_total([5, 1, 2], 9).is_err());
    }

    #[test]
    fn unbalanced_ledgers_fail() {
        let charged = vec![vec![1.0, 2.0], vec![3.0, 0.5]];
        let executed = vec![vec![4.0, 0.0], vec![0.0, 2.5]];
        assert!(charged_matches_executed(&charged, &executed).is_ok());
        let executed = vec![vec![4.0, 0.0], vec![0.0, 2.0]];
        assert!(charged_matches_executed(&charged, &executed).is_err());
    }

    #[test]
    fn misordered_estimates_series_and_fractions_fail() {
        assert!(estimate_ordered(2.0, 1.0, 3.0).is_ok());
        assert!(estimate_ordered(2.0, 3.0, 1.0).is_err());
        assert!(estimate_ordered(2.0, -1.0, 3.0).is_err());
        assert!(estimate_ordered(f64::NAN, 1.0, 3.0).is_err());
        assert!(sorted_with_len("s", &[1.0, 2.0], 2).is_ok());
        assert!(sorted_with_len("s", &[2.0, 1.0], 2).is_err());
        assert!(sorted_with_len("s", &[1.0, 2.0], 3).is_err());
        assert!(fractions_sum_to_one((0.9, 0.05, 0.05)).is_ok());
        assert!(fractions_sum_to_one((0.9, 0.05, 0.06)).is_err());
    }

    #[test]
    fn misordered_violin_fails() {
        let good = ViolinSummary::of(&[1.0, 2.0, 3.0, 4.0], 8);
        assert!(violins_ordered("v", &[("m".to_string(), good.clone())]).is_ok());
        let mut bad = good;
        bad.summary.q1 = bad.summary.q3 + 1.0;
        assert!(violins_ordered("v", &[("m".to_string(), bad)]).is_err());
        assert!(violins_ordered("v", &[]).is_err());
    }
}
