//! Seed-matrix chaos runner.
//!
//! Each case fixes a fault profile, a retry policy and a seed, then
//! simulates the workflow **twice**: the traces must be byte-identical
//! (the fault subsystem's bit-determinism contract) and each must pass
//! every [`crate::invariants`] check. A dynamic scheduler (MCT) is used
//! so blacklisting degrades gracefully — work re-routes to surviving
//! VMs instead of waiting on a pinned placement.

use crate::invariants::{verify_trace, ChaosPolicy, TraceSummary};
use cloud::{FaultConfig, Fleet, ReplTable, ReplicationPolicy};
use obs::{MemSink, TraceEvent, Tracer};
use wfcommon::ids::Idx;
use wfcommon::{SeedDerivation, SimTime};
use wfsim::{simulate_traced, FaultStats, ReplDecision, ReplStats, SimConfig, SimResult};
use workflow::Workflow;

/// One cell of the chaos matrix.
#[derive(Clone, Debug)]
pub struct ChaosCase {
    /// Display name (profile label).
    pub name: String,
    /// Fault taxonomy configuration.
    pub faults: FaultConfig,
    /// Retry budget per activation.
    pub max_retries: u32,
    /// Master seed.
    pub seed: u64,
    /// Speculative-replication policy (schema v1.6 axis).
    pub replication: ReplicationPolicy,
}

/// Result of one chaos case (two runs + verification).
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// Case name.
    pub name: String,
    /// Case seed.
    pub seed: u64,
    /// Whether the simulated workflow completed.
    pub success: bool,
    /// Simulated makespan.
    pub makespan: SimTime,
    /// The first run's trace, byte for byte.
    pub trace: String,
    /// Trace facts from the invariant checker.
    pub summary: TraceSummary,
    /// Engine-side fault counters.
    pub fault_stats: FaultStats,
    /// Engine-side replication counters.
    pub repl_stats: ReplStats,
    /// Engine-side replication decisions, one per dispatch when a
    /// policy is active.
    pub repl_decisions: Vec<ReplDecision>,
    /// Everything that went wrong: invariant violations plus a
    /// determinism failure if the two runs diverged. Empty = pass.
    pub violations: Vec<String>,
}

/// Simulate one case and return `(trace, result)`. Pure in
/// `(workflow, fleet, case)`: same inputs, same bytes out.
pub fn run_case(wf: &Workflow, fleet: &Fleet, case: &ChaosCase) -> (String, SimResult) {
    let cfg = SimConfig {
        faults: case.faults,
        max_retries: case.max_retries,
        replication: case.replication.clone(),
        ..SimConfig::default()
    };
    let mut sink = MemSink::new();
    let mut tracer = Tracer::new(&mut sink);
    tracer.emit_with(|| TraceEvent::Header { producer: "chaoskit" });
    let mut scheduler = sched::Mct;
    let res = simulate_traced(
        wf,
        fleet,
        &mut scheduler,
        &cfg,
        SeedDerivation::new(case.seed),
        None,
        &mut tracer,
    )
    .expect("chaos simulation must not error");
    (sink.take(), res)
}

/// Run every case twice, checking bit-determinism and all invariants.
pub fn run_matrix(wf: &Workflow, fleet: &Fleet, cases: &[ChaosCase]) -> Vec<CaseOutcome> {
    cases
        .iter()
        .map(|case| {
            let (trace_a, res) = run_case(wf, fleet, case);
            let (trace_b, _) = run_case(wf, fleet, case);
            let policy = ChaosPolicy { max_retries: case.max_retries };
            let (summary, mut violations) = match verify_trace(&trace_a, &policy) {
                Ok(s) => (s, Vec::new()),
                Err(v) => (TraceSummary::default(), v),
            };
            if violations.is_empty() {
                // The trace and the engine must agree on replication
                // accounting: every launch and cancel is witnessed.
                if summary.replicates != res.repl_stats.launched {
                    violations.push(format!(
                        "replicate events ({}) disagree with engine launches ({})",
                        summary.replicates, res.repl_stats.launched
                    ));
                }
                if summary.cancels != res.repl_stats.cancelled {
                    violations.push(format!(
                        "cancel events ({}) disagree with engine cancellations ({})",
                        summary.cancels, res.repl_stats.cancelled
                    ));
                }
            }
            if trace_a != trace_b {
                let line = trace_a
                    .lines()
                    .zip(trace_b.lines())
                    .position(|(a, b)| a != b)
                    .map_or(0, |i| i + 1);
                violations.push(format!(
                    "non-deterministic: reruns diverge at line {line} (seed {})",
                    case.seed
                ));
            }
            CaseOutcome {
                name: case.name.clone(),
                seed: case.seed,
                success: res.success,
                makespan: res.makespan,
                trace: trace_a,
                summary,
                fault_stats: res.fault_stats,
                repl_stats: res.repl_stats,
                repl_decisions: res.repl_decisions,
                violations,
            }
        })
        .collect()
}

/// The combined-taxonomy profile: crashes, stragglers, timeouts and
/// backoff all active at once (the acceptance scenario).
fn combined() -> FaultConfig {
    FaultConfig {
        vm_mtbf_hours: 0.03,
        repair_secs: 20.0,
        straggler_prob: 0.15,
        straggler_factor: 3.0,
        timeout_secs: 400.0,
        backoff_base_secs: 0.5,
        blacklist_after: 3,
        ..FaultConfig::none()
    }
}

fn profiles() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("none", FaultConfig::none()),
        ("mild", FaultConfig::mild()),
        ("heavy", FaultConfig::heavy()),
        ("combined", combined()),
    ]
}

/// The replication axis (schema v1.6): every fault profile is crossed
/// with hedging off, always-on static duplication, the learned head's
/// heuristic seed table, and `+zero` — an *active* policy that never
/// asks for a replica. The engine treats `Off` as the one-attempt case
/// of the replication-aware arms; `+zero` runs those arms with the
/// group representation, so it must reproduce the `Off` case byte for
/// byte (the matrix test asserts it).
fn replication_modes() -> Vec<(&'static str, ReplicationPolicy)> {
    vec![
        ("", ReplicationPolicy::Off),
        ("+static2", ReplicationPolicy::Static { k: 2 }),
        ("+learned", ReplicationPolicy::learned_heuristic()),
        ("+zero", ReplicationPolicy::Learned { table: ReplTable::zeros() }),
    ]
}

fn matrix(seeds: &[u64]) -> Vec<ChaosCase> {
    profiles()
        .into_iter()
        .flat_map(|(name, faults)| {
            replication_modes().into_iter().flat_map(move |(suffix, replication)| {
                seeds
                    .iter()
                    .map(move |&seed| ChaosCase {
                        name: format!("{name}{suffix}"),
                        faults,
                        max_retries: 30,
                        seed,
                        replication: replication.clone(),
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect()
}

/// The small PR-CI matrix: every profile × replication mode × a few
/// seeds.
pub fn default_matrix() -> Vec<ChaosCase> {
    matrix(&[1, 2019, 77])
}

/// The nightly matrix (`CHAOS_FULL=1`): every profile × replication
/// mode × many seeds.
pub fn full_matrix() -> Vec<ChaosCase> {
    let seeds: Vec<u64> = (0..16).map(|i| 1000 + 37 * i).collect();
    matrix(&seeds)
}

/// Drive the threaded `scirun` engine under transient failures plus
/// lost acks (the worker-channel fault the simulator cannot model) and
/// check its conservation contract: every activation completes exactly
/// once, every failed attempt is retried, and lost acks are recovered
/// by re-dispatch. Returns violations (empty = pass).
pub fn run_scirun_case(
    wf: &Workflow,
    fleet: &Fleet,
    failure_prob: f64,
    lost_ack_prob: f64,
    seed: u64,
) -> Vec<String> {
    let plan = match sched::heft_plan(wf, fleet, 125.0e6) {
        Ok(h) => h.plan,
        Err(e) => return vec![format!("heft plan failed: {e}")],
    };
    let config = scirun::ExecConfig {
        time_compression: 20_000.0,
        jitter_cv: 0.02,
        seed,
        failure_prob,
        lost_ack_prob,
        max_retries: 30,
        redispatch_wall_ms: if lost_ack_prob > 0.0 { 150.0 } else { 0.0 },
        replication: cloud::ReplicationPolicy::Off,
    };
    let engine = match scirun::ExecutionEngine::new(fleet.clone(), config) {
        Ok(e) => e,
        Err(e) => return vec![format!("engine config rejected: {e}")],
    };
    let report = match engine.execute(wf, &plan) {
        Ok(r) => r,
        Err(e) => return vec![format!("execution errored: {e}")],
    };
    let mut violations = Vec::new();
    if !report.success {
        violations.push("workflow failed within a 30-retry budget".into());
    }
    if report.records.len() != wf.len() {
        violations.push(format!(
            "work not conserved: {} records for {} activations",
            report.records.len(),
            wf.len()
        ));
    }
    let mut seen = vec![0u32; wf.len()];
    for r in &report.records {
        seen[r.activation.index()] += 1;
    }
    if let Some((ac, &n)) = seen.iter().enumerate().find(|&(_, &n)| n != 1) {
        violations.push(format!("ac{ac} completed {n} times"));
    }
    let f = report.fault_stats;
    if f.retries != f.failed_attempts {
        violations.push(format!(
            "retry accounting broken: {} failed attempts, {} retries",
            f.failed_attempts, f.retries
        ));
    }
    if lost_ack_prob > 0.0 && f.lost_acks > 0 && f.redispatches == 0 {
        violations.push(format!("{} acks lost but nothing re-dispatched", f.lost_acks));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use workflow::montage50::montage50;

    #[test]
    fn fault_free_case_is_clean_and_deterministic() {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        let case = ChaosCase {
            name: "none".into(),
            faults: FaultConfig::none(),
            max_retries: 2,
            seed: 42,
            replication: ReplicationPolicy::Off,
        };
        let outcomes = run_matrix(&wf, &fleet, &[case]);
        assert_eq!(outcomes.len(), 1);
        let o = &outcomes[0];
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert!(o.success);
        assert_eq!(o.summary.starts, 50);
        assert_eq!(o.fault_stats, FaultStats::default());
    }

    #[test]
    fn combined_profile_exercises_the_whole_taxonomy() {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        // One seed is enough here; the matrix tests sweep more.
        let case = ChaosCase {
            name: "combined".into(),
            faults: combined(),
            max_retries: 30,
            seed: 2019,
            replication: ReplicationPolicy::Off,
        };
        let outcomes = run_matrix(&wf, &fleet, &[case]);
        let o = &outcomes[0];
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert!(
            o.summary.faults > 0,
            "combined profile must actually inject faults: {:?}",
            o.summary
        );
    }

    #[test]
    fn replicated_case_is_clean_and_actually_hedges() {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        let case = ChaosCase {
            name: "heavy+static2".into(),
            faults: FaultConfig::heavy(),
            max_retries: 30,
            seed: 2019,
            replication: ReplicationPolicy::Static { k: 2 },
        };
        let outcomes = run_matrix(&wf, &fleet, &[case]);
        let o = &outcomes[0];
        assert!(o.violations.is_empty(), "{:?}", o.violations);
        assert!(o.success);
        assert!(o.repl_stats.launched > 0, "static-2 must launch replicas: {:?}", o.repl_stats);
        assert_eq!(o.summary.replicates, o.repl_stats.launched);
        assert_eq!(o.summary.cancels, o.repl_stats.cancelled);
    }

    #[test]
    fn matrices_have_the_advertised_shape() {
        assert_eq!(default_matrix().len(), 4 * 4 * 3);
        assert_eq!(full_matrix().len(), 4 * 4 * 16);
    }
}
