//! The chaos acceptance suite: the full fault taxonomy, across a seed
//! matrix, bit-deterministic and invariant-clean.
//!
//! The default matrix (4 profiles × 4 replication modes × 3 seeds) runs
//! on every PR; `CHAOS_FULL=1` switches to the nightly matrix (4 × 4 ×
//! 16 seeds).

use chaoskit::{default_matrix, full_matrix, run_matrix, run_scirun_case};
use cloud::Fleet;
use wfsim::ReplStats;
use workflow::montage50::montage50;

#[test]
fn chaos_matrix_is_deterministic_and_invariant_clean() {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let cases = if std::env::var("CHAOS_FULL").is_ok() { full_matrix() } else { default_matrix() };
    let outcomes = run_matrix(&wf, &fleet, &cases);
    let mut report = String::new();
    let mut injected = 0u64;
    for o in &outcomes {
        injected += o.summary.faults;
        for v in &o.violations {
            report.push_str(&format!("{} seed {}: {v}\n", o.name, o.seed));
        }
    }
    assert!(report.is_empty(), "chaos violations:\n{report}");
    assert!(injected > 0, "the matrix must actually inject faults");
    // The faulty profiles must also *recover*: at least one case in the
    // matrix retried or rescheduled work and still completed.
    assert!(
        outcomes.iter().any(|o| o.success && o.summary.retries > 0),
        "no case recovered from a fault"
    );

    // Replication off is the one-attempt case of the replication-aware
    // engine arms: an active policy that never asks for a replica takes
    // the group representation through every arm and must land on the
    // same bytes, apart from the `repl_decision`s it logs per dispatch.
    let mut pairs = 0;
    for off in outcomes.iter().filter(|o| !o.name.contains('+')) {
        let zero = outcomes
            .iter()
            .find(|z| z.name == format!("{}+zero", off.name) && z.seed == off.seed)
            .expect("every profile and seed has a +zero case");
        let case = format!("{} seed {}", off.name, off.seed);
        assert_eq!(zero.trace, off.trace, "{case}: +zero trace differs from off");
        assert_eq!(zero.makespan.as_secs().to_bits(), off.makespan.as_secs().to_bits(), "{case}");
        assert_eq!((zero.success, zero.fault_stats), (off.success, off.fault_stats), "{case}");
        assert_eq!(zero.repl_stats, ReplStats::default(), "{case}");
        assert_eq!(zero.repl_decisions.len() as u64, zero.summary.starts, "{case}");
        assert!(zero.repl_decisions.iter().all(|d| d.requested == 0 && d.launched == 0), "{case}");
        assert!(off.repl_decisions.is_empty(), "{case}");
        pairs += 1;
    }
    assert_eq!(pairs * 4, outcomes.len());
}

#[test]
fn scirun_survives_failures_and_lost_acks() {
    // The worker-channel fault the simulator cannot model: transient
    // activation failures plus completion acks vanishing in flight.
    // Together with the simulator matrix above this covers crash +
    // straggler + lost-ack simultaneously across the two engines.
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let seeds: &[u64] = if std::env::var("CHAOS_FULL").is_ok() { &[3, 5, 7, 11, 13] } else { &[3] };
    for &seed in seeds {
        let violations = run_scirun_case(&wf, &fleet, 0.1, 0.1, seed);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}
