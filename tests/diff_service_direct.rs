//! Differential test: a single-tenant submission routed through the
//! scheduling service must be bitwise-identical — plan, makespan,
//! retries, and the detailed learn/sim trace — to calling the learner
//! and the simulator directly with the same inputs. The service adds
//! routing and bookkeeping; it must add no physics.

use obs::{MemSink, Tracer};
use svc::{run_batch, ServiceConfig, Submission, WorkflowSpec};
use wfcommon::ids::Idx;
use wfcommon::SeedDerivation;
use wfsim::{simulate_cached_traced, FixedPlanScheduler, SimArena, SimConfig};
use workflow::WorkflowCache;

const SERVICE_EVENTS: &[&str] = &[
    "{\"ev\":\"header\"",
    "{\"ev\":\"submit\"",
    "{\"ev\":\"admit\"",
    "{\"ev\":\"shed\"",
    "{\"ev\":\"enqueue\"",
    "{\"ev\":\"dequeue\"",
    "{\"ev\":\"backpressure\"",
    "{\"ev\":\"cache_hit\"",
    "{\"ev\":\"cache_miss\"",
    "{\"ev\":\"plan_done\"",
];

#[test]
fn service_path_matches_direct_learn_and_simulate() {
    let mut cfg = ServiceConfig::with_paper_fleet(16).unwrap();
    cfg.shards = 1;
    cfg.workers = 1;
    cfg.episodes_full = 4;
    cfg.trace_detail = true;

    let seed = 7;
    let spec = WorkflowSpec::Generated { family: "montage".into(), size: 25, seed: 3 };
    let sub = Submission {
        tenant: "solo".into(),
        spec: spec.clone(),
        seed,
        replicate: cloud::ReplicationPolicy::Off,
    };

    // Service arm.
    let report = run_batch(&cfg, vec![sub]).unwrap();
    assert_eq!((report.submitted, report.completed, report.failed), (1, 1, 0));
    let got = &report.results[0];
    assert!(got.error.is_none(), "{:?}", got.error);
    assert!(!got.cache_hit, "first submission cannot warm-start");
    assert_eq!(got.episodes, cfg.episodes_full);

    // Direct arm: same workflow, config and seeds, no service around it.
    let wf = spec.build().unwrap();
    let rcfg = reassign::ReassignConfig { episodes: cfg.episodes_full, seed, ..cfg.base };
    let mut sink = MemSink::new();
    let tuned = {
        let mut tracer = Tracer::new(&mut sink);
        let sim = SimConfig::deterministic();
        reassign::LearnRun::new(&wf, &cfg.fleet, &cfg.fleet_label, &rcfg, &sim)
            .run(&mut tracer)
            .unwrap()
    };
    let wf_cache = WorkflowCache::new(&wf).unwrap();
    let seeds = SeedDerivation::new(SeedDerivation::new(seed).seed_for("svc-replay", 0));
    let mut replay = FixedPlanScheduler::new(tuned.outcome.greedy_plan.clone());
    let mut arena = SimArena::new();
    let res = {
        let mut tracer = Tracer::new(&mut sink);
        simulate_cached_traced(
            &wf,
            &wf_cache,
            &cfg.fleet,
            &mut replay,
            &SimConfig::deterministic(),
            seeds,
            None,
            &mut arena,
            &mut tracer,
        )
        .unwrap()
    };
    assert!(res.success);

    // Plan: byte-for-byte equal assignment vectors.
    let mut assignments = vec![u32::MAX; res.plan.len()];
    for (ac, vm) in res.plan.iter() {
        assignments[ac.index()] = vm.raw();
    }
    assert_eq!(got.assignments, assignments, "service plan deviates from direct plan");

    // Makespan: identical to the last bit.
    assert_eq!(
        got.makespan.as_secs().to_bits(),
        res.makespan.as_secs().to_bits(),
        "service makespan {} vs direct {}",
        got.makespan.as_secs(),
        res.makespan.as_secs()
    );

    // Retry sets.
    let mut retries: Vec<(u32, u32)> = res
        .records
        .iter()
        .filter(|r| r.retries > 0)
        .map(|r| (r.activation.index() as u32, r.retries))
        .collect();
    retries.sort_unstable();
    assert_eq!(got.retries, retries);

    // Trace: the canonical trace is binary frames now; rendered back
    // to JSONL and stripped of the service-orchestration events, it
    // must leave exactly the direct learn+sim stream.
    let jsonl = report.trace_jsonl();
    let service_detail: Vec<&str> =
        jsonl.lines().filter(|l| !SERVICE_EVENTS.iter().any(|p| l.starts_with(p))).collect();
    let direct: Vec<&str> = sink.as_str().lines().collect();
    assert_eq!(
        service_detail, direct,
        "detailed service trace is not byte-identical to the direct trace"
    );

    // Provenance: the one record filed under the tenant carries the
    // same plan and makespan.
    let store = report.tenants.get("solo").expect("tenant store exists");
    assert_eq!(store.total_episodes(), 1);
    let keys = store.keys();
    let rec = &store.episodes(&keys[0])[0];
    assert_eq!(rec.assignments, assignments);
    assert_eq!(rec.makespan.as_secs().to_bits(), res.makespan.as_secs().to_bits());
}
