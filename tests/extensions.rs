//! Integration tests for the extension features that cross crate
//! boundaries: ensembles, provisioning, time-shared replay, clustering
//! under learning, warm starts and annealing.

use cloud::{BillingGranularity, Fleet};
use obs::Tracer;
use reassign::{learn, LearnRun, ReassignConfig};
use sched::heft_plan;
use wfcommon::{SeedDerivation, SimTime};
use wfsim::timeshared::replay_time_shared;
use wfsim::{simulate, FixedPlanScheduler, Scheduler, SimConfig};
use workflow::ensemble::merge;
use workflow::generators::montage::{generate, MontageParams};
use workflow::montage50::montage50;

#[test]
fn learning_over_an_ensemble_produces_a_valid_composite_plan() {
    let members = vec![
        montage50(),
        generate(&MontageParams::with_total_activations(20, 9).unwrap()).unwrap(),
    ];
    let (composite, map) = merge("ens", &members).unwrap();
    let fleet = Fleet::paper_32_vcpus();
    let cfg = ReassignConfig { episodes: 6, ..ReassignConfig::default() };
    let out = learn(&composite, &fleet, "ens", &cfg, &SimConfig::default(), None).unwrap();
    out.best_episode_plan.validate(&composite, &fleet).unwrap();
    // The plan covers both members.
    let covered_members: std::collections::HashSet<usize> =
        out.best_episode_plan.iter().map(|(ac, _)| map.origin_of(ac).unwrap().0).collect();
    assert_eq!(covered_members.len(), 2);
}

#[test]
fn provisioning_recommendation_is_consistent_with_direct_simulation() {
    let wf = montage50();
    let candidates = wfsim::provisioning::enumerate_mixes(4, 2);
    let outcomes = wfsim::provisioning::provision(
        &wf,
        &candidates,
        SimTime(400.0),
        BillingGranularity::PerSecondMin60,
        || Box::new(sched::Mct) as Box<dyn Scheduler>,
        &SimConfig::deterministic(),
        SeedDerivation::new(3),
    )
    .unwrap();
    let best = wfsim::provisioning::recommend(&outcomes).expect("400s is feasible");
    // Re-simulate the recommended mix directly and confirm the numbers.
    let mut fleet = Fleet::new();
    fleet.add(&cloud::VmType::t2_micro(), best.micros);
    fleet.add(&cloud::VmType::t2_2xlarge(), best.larges);
    let res = simulate(
        &wf,
        &fleet,
        &mut sched::Mct,
        &SimConfig::deterministic(),
        SeedDerivation::new(3),
        None,
    )
    .unwrap();
    assert!((res.makespan.as_secs() - best.makespan.as_secs()).abs() < 1e-9);
    assert!(res.makespan.as_secs() <= 400.0);
}

#[test]
fn time_shared_and_space_shared_agree_on_underloaded_plans() {
    // HEFT plans rarely oversubscribe; without transfers both
    // disciplines should land close together.
    let wf = montage50();
    let fleet = Fleet::paper_64_vcpus();
    let plan = heft_plan(&wf, &fleet, 125.0e6).unwrap().plan;
    let ts = replay_time_shared(&wf, &fleet, &plan).unwrap();
    let mut cfg = SimConfig::deterministic();
    cfg.stage_in_inputs = false;
    let mut replay = FixedPlanScheduler::new(plan);
    let ss = simulate(&wf, &fleet, &mut replay, &cfg, SeedDerivation::new(1), None).unwrap();
    let ratio = ts.makespan.as_secs() / ss.makespan.as_secs();
    assert!(
        (0.8..1.25).contains(&ratio),
        "time-shared {} vs space-shared {} (ratio {ratio})",
        ts.makespan,
        ss.makespan
    );
}

#[test]
fn clustered_workflow_supports_learning() {
    let wf = montage50();
    let plan = wfsim::clustering::horizontal(&wf, 4).unwrap();
    let (clustered, _) = wfsim::clustering::apply(&wf, &plan).unwrap();
    let fleet = Fleet::paper_16_vcpus();
    let cfg = ReassignConfig { episodes: 5, ..ReassignConfig::default() };
    let out = learn(&clustered, &fleet, "clustered", &cfg, &SimConfig::default(), None).unwrap();
    assert!(out.best_episode_plan.is_complete());
    assert_eq!(out.best_episode_plan.len(), clustered.len());
}

#[test]
fn warm_start_beats_cold_start_at_one_episode() {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let demo = heft_plan(&wf, &fleet, 125.0e6).unwrap().plan;
    let cfg = ReassignConfig { episodes: 1, ..ReassignConfig::default() };
    let sim = SimConfig::deterministic();
    let cold = learn(&wf, &fleet, "cold", &cfg, &sim, None).unwrap();
    let warm =
        LearnRun { demonstration: Some(&demo), ..LearnRun::new(&wf, &fleet, "warm", &cfg, &sim) }
            .run(&mut Tracer::disabled())
            .unwrap()
            .outcome;
    // After one episode the warm greedy plan is still mostly the
    // demonstration, so it must be competitive with HEFT, while the
    // cold greedy plan is essentially noise.
    assert!(
        warm.greedy_makespan.as_secs() <= cold.greedy_makespan.as_secs() * 1.05,
        "warm {} vs cold {}",
        warm.greedy_makespan,
        cold.greedy_makespan
    );
}

#[test]
fn annealed_epsilon_learns_and_stays_valid() {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let cfg = ReassignConfig {
        episodes: 12,
        epsilon_schedule: Some(qlearn::Schedule::Linear { from: 0.0, to: 1.0, steps: 12 }),
        ..ReassignConfig::default()
    };
    let out = learn(&wf, &fleet, "anneal", &cfg, &SimConfig::default(), None).unwrap();
    assert_eq!(out.episodes.len(), 12);
    assert!(out.episodes.iter().all(|e| e.success));
    out.greedy_plan.validate(&wf, &fleet).unwrap();
}
