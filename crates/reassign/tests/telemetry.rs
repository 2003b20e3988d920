//! Learning-telemetry invariants across the serial and parallel
//! learners, and determinism of the learning trace stream.

use cloud::Fleet;
use obs::{trace_diff, MemSink, TraceDiff, Tracer};
use reassign::{learn, learn_traced, LearnOutcome, LearnRun, ReassignConfig};
use wfsim::SimConfig;
use workflow::montage50::montage50;

fn cfg(episodes: u32, seed: u64) -> ReassignConfig {
    ReassignConfig { episodes, seed, ..ReassignConfig::default() }
}

/// A `cfg(6, 3)` run on the deterministic simulator with `rollouts`
/// episodes per round.
fn learn_rollouts(rollouts: u32) -> LearnOutcome {
    let (wf, fleet) = (montage50(), Fleet::paper_16_vcpus());
    LearnRun {
        rollouts,
        ..LearnRun::new(&wf, &fleet, "16vcpus", &cfg(6, 3), &SimConfig::deterministic())
    }
    .run(&mut Tracer::disabled())
    .unwrap()
    .outcome
}

#[test]
fn parallel_k1_telemetry_matches_serial_exactly() {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let sim = SimConfig::deterministic();
    let serial = learn(&wf, &fleet, "16vcpus", &cfg(6, 3), &sim, None).unwrap();
    let par = learn_rollouts(1);
    // Full structural equality: counters, and every histogram down to
    // bucket counts, fixed-point sums and min/max.
    assert_eq!(serial.telemetry, par.telemetry);
    assert_eq!(serial.telemetry.episodes.count(), 6);
}

#[test]
fn parallel_k3_merged_aggregates_equal_serial_counters() {
    // With K > 1 the learning trajectories differ (rollouts share the
    // round-start table), but the *counting* telemetry — episodes run,
    // successes, TD updates (one per completion, retries included) —
    // is trajectory-independent under a deterministic simulator config
    // with no failures: every episode completes all 50 activations.
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let sim = SimConfig::deterministic();
    let serial = learn(&wf, &fleet, "16vcpus", &cfg(6, 3), &sim, None).unwrap();
    let par = learn_rollouts(3);
    assert_eq!(serial.telemetry.episodes, par.telemetry.episodes);
    assert_eq!(serial.telemetry.successes, par.telemetry.successes);
    assert_eq!(serial.telemetry.td_updates, par.telemetry.td_updates);
    assert_eq!(par.telemetry.td_updates.count(), 6 * 50);
    assert_eq!(par.telemetry.exec_secs.count(), serial.telemetry.exec_secs.count());
}

fn parallel_trace(rollouts: u32) -> String {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let mut sink = MemSink::new();
    let mut tracer = Tracer::new(&mut sink);
    let (config, sim) = (cfg(5, 9), SimConfig::deterministic());
    let run = LearnRun { rollouts, ..LearnRun::new(&wf, &fleet, "16vcpus", &config, &sim) };
    tracer.emit_with(|| run.header());
    run.run(&mut tracer).unwrap();
    sink.take()
}

#[test]
fn parallel_trace_is_deterministic_across_runs() {
    // The acceptance bar for the whole layer: two identically-seeded
    // multi-rollout runs must produce byte-identical traces despite
    // rayon scheduling rollouts in arbitrary order.
    let a = parallel_trace(4);
    let b = parallel_trace(4);
    match trace_diff(&a, &b) {
        TraceDiff::Identical { lines } => assert!(lines > 10),
        d @ TraceDiff::Diverged { .. } => panic!("parallel trace diverged: {d}"),
    }
    assert!(a.lines().any(|l| l.contains("\"ev\":\"round_merge\"")));
    assert!(a.lines().any(|l| l.contains("\"ev\":\"episode_end\"")));
    assert!(a.lines().next().unwrap().contains("\"ev\":\"header\""));
}

#[test]
fn serial_trace_orders_episode_markers_around_sim_events() {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let mut sink = MemSink::new();
    let mut tracer = Tracer::new(&mut sink);
    let out = learn_traced(
        &wf,
        &fleet,
        "16vcpus",
        &cfg(2, 5),
        &SimConfig::deterministic(),
        None,
        &mut tracer,
    )
    .unwrap();
    let trace = sink.take();
    let kinds: Vec<&str> = trace
        .lines()
        .map(|l| {
            let at = l.find("\"ev\":\"").unwrap() + 6;
            let rest = &l[at..];
            &rest[..rest.find('"').unwrap()]
        })
        .collect();
    assert_eq!(kinds[0], "header");
    assert_eq!(kinds[1], "episode_start");
    assert_eq!(kinds[2], "sim_start");
    assert_eq!(*kinds.last().unwrap(), "learn_end");
    // Each of the 2 episodes is bracketed start/end, and the q_delta of
    // a learning episode is strictly positive.
    assert_eq!(kinds.iter().filter(|k| **k == "episode_start").count(), 2);
    assert_eq!(kinds.iter().filter(|k| **k == "episode_end").count(), 2);
    let ep_end = trace.lines().find(|l| l.contains("\"ev\":\"episode_end\"")).unwrap();
    let at = ep_end.find("\"q_delta\":").unwrap() + 10;
    let rest = &ep_end[at..];
    let q_delta: f64 = rest[..rest.find([',', '}']).unwrap()].parse().unwrap();
    assert!(q_delta > 0.0, "TD updates must move the table: {ep_end}");
    assert_eq!(out.telemetry.episodes.count(), 2);
}

#[test]
fn disabled_tracer_changes_nothing() {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let sim = SimConfig::deterministic();
    let plain = learn(&wf, &fleet, "16vcpus", &cfg(3, 11), &sim, None).unwrap();
    let mut sink = MemSink::new();
    let mut tracer = Tracer::new(&mut sink);
    let traced =
        learn_traced(&wf, &fleet, "16vcpus", &cfg(3, 11), &sim, None, &mut tracer).unwrap();
    assert_eq!(plain.greedy_plan, traced.greedy_plan);
    assert_eq!(plain.greedy_makespan, traced.greedy_makespan);
    assert_eq!(plain.telemetry, traced.telemetry);
    let ms: Vec<_> = plain.episodes.iter().map(|e| e.makespan).collect();
    let ts: Vec<_> = traced.episodes.iter().map(|e| e.makespan).collect();
    assert_eq!(ms, ts, "tracing must not perturb learning");
}
