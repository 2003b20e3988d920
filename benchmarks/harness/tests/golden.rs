//! Does the program, built against the stand-in crates under `shim/`,
//! reproduce the repository's committed golden fixtures byte for byte?
//! The README states the answer — the ReASSIgN trace yes, the two
//! fixtures that depend on `shuffle` and on float `gen_range` no — and
//! these tests are how to check it again: `cargo test --release
//! --offline` from `benchmarks/`, with `-- --ignored` for the two that
//! are known to differ. Those fixtures came from an earlier hand-written
//! stand-in, so the difference cannot be blamed on either side offline.

use cloud::{FaultConfig, Fleet};
use obs::{MemSink, TraceEvent, Tracer};
use reassign::{learn_traced, EpsilonConvention, ReassignConfig, RlAlgorithm};
use wfcommon::SeedDerivation;
use wfsim::{simulate_traced, SimConfig};

fn golden(name: &str) -> String {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The generator draws from ChaCha8 through `gen_range`, `gen` and
/// `shuffle`, so the DAX fixture pins the RNG stand-in's streams.
#[test]
#[ignore = "differs in which projection pairs `shuffle` picks; see benchmarks/README.md"]
fn montage50_generator_matches_the_dax_fixture() {
    assert_eq!(workflow::montage50::montage50_dax(), golden("montage50.dax"));
}

/// Same run as `reassign_trace` in `tests/golden_trace.rs`.
#[test]
fn learn_traced_matches_the_reassign_golden() {
    let wf = workflow::dax::parse(&golden("montage50.dax")).unwrap();
    let config = ReassignConfig {
        episodes: 3,
        epsilon: 1.0,
        epsilon_convention: EpsilonConvention::Paper,
        epsilon_schedule: None,
        algorithm: RlAlgorithm::QLearning,
        q_init_scale: 0.0,
        seed: 2019,
        ..ReassignConfig::default()
    };
    let mut sink = MemSink::new();
    learn_traced(
        &wf,
        &Fleet::paper_16_vcpus(),
        "16vcpus",
        &config,
        &SimConfig::deterministic(),
        None,
        &mut Tracer::new(&mut sink),
    )
    .unwrap();
    assert_eq!(sink.take(), golden("montage50_reassign.trace.jsonl"));
}

/// Same run as `fault_trace` in `tests/golden_trace.rs`: crash
/// schedules are pre-sampled from ChaCha8 with `gen_range` over floats.
#[test]
#[ignore = "crash times differ in their last digits; see benchmarks/README.md"]
fn fault_run_matches_the_faults_golden() {
    let wf = workflow::dax::parse(&golden("montage50.dax")).unwrap();
    let cfg = SimConfig {
        failure_prob: 0.05,
        max_retries: 30,
        faults: FaultConfig {
            vm_mtbf_hours: 0.05,
            repair_secs: 15.0,
            straggler_prob: 0.1,
            straggler_factor: 2.0,
            backoff_base_secs: 1.0,
            blacklist_after: 2,
            ..FaultConfig::none()
        },
        ..SimConfig::deterministic()
    };
    let mut sink = MemSink::new();
    {
        let mut tracer = Tracer::new(&mut sink);
        tracer.emit(&TraceEvent::Header { producer: "golden.faults" });
        simulate_traced(
            &wf,
            &Fleet::paper_16_vcpus(),
            &mut sched::Mct,
            &cfg,
            SeedDerivation::new(2019),
            None,
            &mut tracer,
        )
        .unwrap();
    }
    assert_eq!(sink.take(), golden("montage50_faults.trace.jsonl"));
}
