//! What `LearnRun::rollouts` does and does not change (see the
//! `reassign::LearnRun` field docs):
//!
//! * `rollouts = 1` is bitwise identical to the serial learner;
//! * `rollouts = K` is a pure function of the inputs — identical across
//!   repeated runs *and* across rayon thread-pool sizes;
//! * the coupled backends ignore it.

use cloud::Fleet;
use obs::Tracer;
use provenance::ProvenanceStore;
use reassign::{
    learn, learn_tuned, LearnOutcome, LearnRun, ReassignConfig, ReassignScheduler, RlAlgorithm,
};
use wfcommon::{Error, SeedDerivation};
use wfsim::SimConfig;
use workflow::montage50::montage50;
use workflow::{Workflow, WorkflowCache};

/// An untraced run with `rollouts` episodes per round.
fn learn_rollouts(
    wf: &Workflow,
    fleet: &Fleet,
    cfg: &ReassignConfig,
    sim: &SimConfig,
    rollouts: u32,
    provenance: Option<&mut ProvenanceStore>,
) -> wfcommon::Result<LearnOutcome> {
    LearnRun { rollouts, provenance, ..LearnRun::new(wf, fleet, "16vcpus", cfg, sim) }
        .run(&mut Tracer::disabled())
        .map(|tuned| tuned.outcome)
}

fn config(algorithm: RlAlgorithm, carry_history: bool) -> ReassignConfig {
    ReassignConfig {
        algorithm,
        carry_history,
        episodes: 6,
        seed: 2019,
        ..ReassignConfig::default()
    }
}

/// Per-episode (episode, makespan, success, final_reward) rows.
type EpisodeRows = Vec<(u32, f64, bool, f64)>;

/// Every observable of a learning run that the contract covers.
fn fingerprint(out: &LearnOutcome) -> (EpisodeRows, String, f64, String, f64) {
    (
        out.episodes
            .iter()
            .map(|e| (e.episode, e.makespan.as_secs(), e.success, e.final_reward))
            .collect(),
        format!("{:?}", out.greedy_plan),
        out.greedy_makespan.as_secs(),
        format!("{:?}", out.best_episode_plan),
        out.best_episode_makespan.as_secs(),
    )
}

#[test]
fn one_rollout_matches_serial_bitwise() {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    // Mild fluctuation exercises the full stochastic pipeline.
    let sim = SimConfig::default();
    for algorithm in [RlAlgorithm::QLearning, RlAlgorithm::DoubleQ, RlAlgorithm::ExpectedSarsa] {
        for carry in [true, false] {
            let cfg = config(algorithm, carry);
            let serial = learn(&wf, &fleet, "16vcpus", &cfg, &sim, None).unwrap();
            let par = learn_rollouts(&wf, &fleet, &cfg, &sim, 1, None).unwrap();
            assert_eq!(
                fingerprint(&serial),
                fingerprint(&par),
                "{algorithm:?} carry={carry}: K=1 must replay the serial run exactly"
            );
        }
    }
}

#[test]
fn one_rollout_produces_identical_q_snapshot() {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let cfg = config(RlAlgorithm::QLearning, true);
    let sim = SimConfig::deterministic();
    let mut store_serial = ProvenanceStore::new();
    let mut store_par = ProvenanceStore::new();
    let serial = learn(&wf, &fleet, "16vcpus", &cfg, &sim, Some(&mut store_serial)).unwrap();
    let par = learn_rollouts(&wf, &fleet, &cfg, &sim, 1, Some(&mut store_par)).unwrap();
    assert_eq!(
        store_serial.q_snapshot(&serial.key),
        store_par.q_snapshot(&par.key),
        "final Q tables must agree to the last bit"
    );
}

#[test]
fn parallel_runs_are_repeatable() {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let cfg = config(RlAlgorithm::QLearning, true);
    let sim = SimConfig::default();
    let a = learn_rollouts(&wf, &fleet, &cfg, &sim, 4, None).unwrap();
    let b = learn_rollouts(&wf, &fleet, &cfg, &sim, 4, None).unwrap();
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn results_do_not_depend_on_thread_count() {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let cfg = config(RlAlgorithm::QLearning, true);
    let sim = SimConfig::default();
    let run = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| learn_rollouts(&wf, &fleet, &cfg, &sim, 4, None).unwrap())
    };
    let single = run(1);
    let quad = run(4);
    assert_eq!(
        fingerprint(&single),
        fingerprint(&quad),
        "merge order is the episode order, so pool size must not matter"
    );
}

#[test]
fn merge_is_invariant_across_thread_counts_and_batch_sizes() {
    // The delta-rollout merge folds per-episode buffers in episode
    // order, so the outcome is a pure function of (config, K) — never
    // of how many workers rayon happens to schedule. Sweep pool sizes
    // {1, 2, 4, 8} against batch sizes {2, 3, 8}: every cell of a
    // batch-size row must be identical.
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let sim = SimConfig::default();
    let cfg = config(RlAlgorithm::QLearning, true);
    for rollouts in [2u32, 3, 8] {
        let runs: Vec<_> =
            [1usize, 2, 4, 8]
                .into_iter()
                .map(|threads| {
                    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(
                        || learn_rollouts(&wf, &fleet, &cfg, &sim, rollouts, None).unwrap(),
                    )
                })
                .collect();
        for (i, run) in runs.iter().enumerate().skip(1) {
            assert_eq!(
                fingerprint(&runs[0]),
                fingerprint(run),
                "K={rollouts}: pool of {} threads diverged from pool of 1",
                [1, 2, 4, 8][i]
            );
        }
    }
}

#[test]
fn one_rollout_replays_serial_on_every_pool_size() {
    // K=1 rounds run inline on the shared agent, so even the thread
    // pool hosting them is irrelevant — serial, K=1 on one thread, and
    // K=1 on eight threads are the same run.
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let cfg = config(RlAlgorithm::QLearning, true);
    let sim = SimConfig::default();
    let serial = learn(&wf, &fleet, "16vcpus", &cfg, &sim, None).unwrap();
    for threads in [1usize, 2, 4, 8] {
        let par = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| learn_rollouts(&wf, &fleet, &cfg, &sim, 1, None).unwrap());
        assert_eq!(
            fingerprint(&serial),
            fingerprint(&par),
            "K=1 on a {threads}-thread pool must replay the serial run exactly"
        );
    }
}

#[test]
fn fault_profile_preserves_serial_parallel_equivalence() {
    // Nonzero fault injection (crashes, stragglers, backoff) plus the
    // failure-penalty reward hook: the K=1 replay and repeated K=4
    // runs must stay bitwise deterministic.
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let mut cfg = config(RlAlgorithm::QLearning, true);
    cfg.failure_penalty = 5.0;
    let sim = SimConfig {
        max_retries: 20,
        faults: cloud::FaultConfig {
            vm_mtbf_hours: 0.05,
            repair_secs: 15.0,
            straggler_prob: 0.1,
            straggler_factor: 2.0,
            backoff_base_secs: 1.0,
            ..cloud::FaultConfig::none()
        },
        ..SimConfig::default()
    };
    let serial = learn(&wf, &fleet, "16vcpus", &cfg, &sim, None).unwrap();
    let par = learn_rollouts(&wf, &fleet, &cfg, &sim, 1, None).unwrap();
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&par),
        "K=1 must replay the serial run exactly under fault injection"
    );
    let a = learn_rollouts(&wf, &fleet, &cfg, &sim, 4, None).unwrap();
    let b = learn_rollouts(&wf, &fleet, &cfg, &sim, 4, None).unwrap();
    assert_eq!(fingerprint(&a), fingerprint(&b), "K=4 repeatable under fault injection");
    // Fault retries are where the delta path's merge sees the same Q
    // cell touched repeatedly within one episode — the thread pool
    // still must not leak into the result.
    for rollouts in [2u32, 4] {
        let single = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| learn_rollouts(&wf, &fleet, &cfg, &sim, rollouts, None).unwrap());
        let octo = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .unwrap()
            .install(|| learn_rollouts(&wf, &fleet, &cfg, &sim, rollouts, None).unwrap());
        assert_eq!(
            fingerprint(&single),
            fingerprint(&octo),
            "K={rollouts} under faults: worker count must not leak into results"
        );
    }
}

#[test]
fn learned_replication_head_preserves_serial_parallel_equivalence() {
    // The learned replication head (schema v1.6) trains between
    // episodes from realised replica outcomes. Its table feeds the
    // next episode's simulation, so it is part of the determinism
    // contract: K=1 must still replay the serial run bitwise under
    // nonzero faults, and K>1 must stay worker-count invariant.
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let mut cfg = config(RlAlgorithm::QLearning, true);
    cfg.failure_penalty = 5.0;
    let sim = SimConfig {
        max_retries: 20,
        replication: cloud::ReplicationPolicy::learned_heuristic(),
        faults: cloud::FaultConfig {
            vm_mtbf_hours: 0.05,
            repair_secs: 15.0,
            straggler_prob: 0.15,
            straggler_factor: 4.0,
            backoff_base_secs: 1.0,
            ..cloud::FaultConfig::none()
        },
        ..SimConfig::default()
    };
    let serial = learn(&wf, &fleet, "16vcpus", &cfg, &sim, None).unwrap();
    assert!(serial.repl_policy.is_some(), "learned runs must return the trained head");
    let par = learn_rollouts(&wf, &fleet, &cfg, &sim, 1, None).unwrap();
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&par),
        "K=1 must replay the serial run exactly with the learned head training"
    );
    assert_eq!(
        format!("{:?}", serial.repl_policy),
        format!("{:?}", par.repl_policy),
        "the trained replication tables must agree exactly"
    );
    for rollouts in [2u32, 4] {
        let single = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| learn_rollouts(&wf, &fleet, &cfg, &sim, rollouts, None).unwrap());
        let octo = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .unwrap()
            .install(|| learn_rollouts(&wf, &fleet, &cfg, &sim, rollouts, None).unwrap());
        assert_eq!(
            fingerprint(&single),
            fingerprint(&octo),
            "K={rollouts} with learned replication: worker count must not leak"
        );
        assert_eq!(format!("{:?}", single.repl_policy), format!("{:?}", octo.repl_policy));
    }
}

#[test]
fn more_rollouts_than_episodes_is_fine() {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let cfg = config(RlAlgorithm::QLearning, true);
    let out = learn_rollouts(&wf, &fleet, &cfg, &SimConfig::deterministic(), 64, None).unwrap();
    assert_eq!(out.episodes.len(), 6);
    assert!(out.greedy_plan.is_complete());
}

#[test]
fn zero_rollouts_rejected() {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let cfg = config(RlAlgorithm::QLearning, true);
    let err = learn_rollouts(&wf, &fleet, &cfg, &SimConfig::deterministic(), 0, None).unwrap_err();
    assert!(matches!(err, Error::Config(_)), "{err:?}");
    assert!(err.to_string().contains("rollouts"));
}

#[test]
fn coupled_backends_ignore_rollouts() {
    // Double Q-learning and Expected SARSA bootstrap through a second
    // table / a policy expectation, which no additive delta buffer can
    // carry: every round is a single in-place episode whatever
    // `rollouts` says, so the run is the serial run.
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let sim = SimConfig::default();
    for algorithm in [RlAlgorithm::DoubleQ, RlAlgorithm::ExpectedSarsa] {
        let cfg = config(algorithm, true);
        let serial = learn(&wf, &fleet, "16vcpus", &cfg, &sim, None).unwrap();
        for rollouts in [2u32, 3, 8] {
            let par = learn_rollouts(&wf, &fleet, &cfg, &sim, rollouts, None).unwrap();
            assert_eq!(
                fingerprint(&serial),
                fingerprint(&par),
                "{algorithm:?} K={rollouts} must be the serial run"
            );
        }
    }
}

#[test]
fn warm_table_combines_with_rollouts() {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let cfg = config(RlAlgorithm::QLearning, true);
    let sim = SimConfig::deterministic();
    let warm = learn_tuned(&wf, &fleet, "16vcpus", &cfg, &sim, None, &mut Tracer::disabled())
        .unwrap()
        .q_table;
    let run = |rollouts: u32| {
        LearnRun {
            rollouts,
            warm_q: Some(&warm),
            ..LearnRun::new(&wf, &fleet, "16vcpus", &cfg, &sim)
        }
        .run(&mut Tracer::disabled())
        .unwrap()
    };
    let (a, b) = (run(4), run(4));
    assert_eq!(fingerprint(&a.outcome), fingerprint(&b.outcome), "K=4 from a warm table repeats");
    assert_eq!(a.q_table, b.q_table);
    assert_ne!(
        fingerprint(&a.outcome),
        fingerprint(&learn_rollouts(&wf, &fleet, &cfg, &sim, 4, None).unwrap()),
        "the warm table must reach the side-by-side rounds"
    );

    let tuned =
        learn_tuned(&wf, &fleet, "16vcpus", &cfg, &sim, Some(&warm), &mut Tracer::disabled())
            .unwrap();
    let one = run(1);
    assert_eq!(fingerprint(&one.outcome), fingerprint(&tuned.outcome));
    assert_eq!(one.q_table, tuned.q_table);

    // A run lent the workflow cache it would have derived is the same
    // run, in place and side by side.
    let cache = WorkflowCache::new(&wf).unwrap();
    for (rollouts, own) in [(1, &one), (4, &a)] {
        let lent = LearnRun {
            rollouts,
            workflow_cache: Some(&cache),
            warm_q: Some(&warm),
            ..LearnRun::new(&wf, &fleet, "16vcpus", &cfg, &sim)
        }
        .run(&mut Tracer::disabled())
        .unwrap();
        assert_eq!(fingerprint(&lent.outcome), fingerprint(&own.outcome), "K={rollouts}");
        assert_eq!(lent.q_table, own.q_table, "K={rollouts}");
    }
}

#[test]
fn demonstration_combines_with_rollouts() {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let cfg = config(RlAlgorithm::QLearning, true);
    let sim = SimConfig::deterministic();
    let demo = sched::heft_plan(&wf, &fleet, 125.0e6).unwrap().plan;
    let run = |rollouts: u32| {
        LearnRun {
            rollouts,
            demonstration: Some(&demo),
            ..LearnRun::new(&wf, &fleet, "16vcpus", &cfg, &sim)
        }
        .run(&mut Tracer::disabled())
        .unwrap()
    };
    let (a, b) = (run(4), run(4));
    assert_eq!(
        fingerprint(&a.outcome),
        fingerprint(&b.outcome),
        "K=4 from a demonstration repeats"
    );
    assert_eq!(a.q_table, b.q_table);

    // At K=1 the run is Algorithm 2 from the demonstrated table: one
    // agent, episodes chained through its Q-table and the history.
    let mut agent = ReassignScheduler::new(wf.len(), fleet.len(), cfg).unwrap();
    agent.warm_start(&demo).unwrap();
    let seeds = SeedDerivation::new(cfg.seed);
    let mut history = None;
    let mut makespans = Vec::new();
    for ep in 0..cfg.episodes {
        agent.begin_episode_at(ep);
        let episode_seeds = SeedDerivation::new(seeds.seed_for("episode", ep as u64));
        let result =
            wfsim::simulate(&wf, &fleet, &mut agent, &sim, episode_seeds, history.as_ref())
                .unwrap();
        makespans.push(result.makespan);
        history = Some(result.history);
    }
    let one = run(1);
    assert_eq!(one.outcome.episodes.iter().map(|e| e.makespan).collect::<Vec<_>>(), makespans);
    assert_eq!(&one.q_table, agent.q_table());
    assert_eq!(one.outcome.greedy_plan, agent.greedy_plan());
}
