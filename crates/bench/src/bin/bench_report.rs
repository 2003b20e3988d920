//! Serial-vs-parallel learning wall-clock report, written as
//! `BENCH_learning.json`.
//!
//! Runs the `exp_table2`-equivalent quick sweep — the 27 (α, γ, ε)
//! combinations across the three Table I fleets, **sequentially** so the per-round
//! rollout fan-out inside `reassign::LearnRun` is the only
//! parallelism being measured — once serially (`--rollouts 1` path) and
//! once with 8 rollouts per round.
//!
//! ```text
//! cargo run --release -p bench --bin bench_report
//! REASSIGN_EPISODES=16 cargo run --release -p bench --bin bench_report
//! BENCH_OUT=/tmp/b.json cargo run --release -p bench --bin bench_report
//! ```
//!
//! The speedup column is meaningful only on a multi-core host: rollouts
//! of one round run concurrently, so the ideal is `min(8, cores)` minus
//! merge overhead. On a single core the parallel run degenerates to
//! serial plus rayon overhead.

use bench::{learning_wall_clock, sim_event_throughput};
use obs::{MemSink, Tracer};

const ROLLOUTS: u32 = 8;

/// Wall-clock budget for the event-throughput probe: long enough to
/// amortize timer noise, short enough to keep the report quick.
const THROUGHPUT_PROBE_SECS: f64 = 0.5;

/// Telemetry probe: a short traced learning run whose event count and
/// TD-update total land in the report, so a regression that silences
/// the trace stream (or doubles it) shows up next to the timings.
fn telemetry_probe(seed: u64) -> (usize, u64) {
    let wf = workflow::montage50::montage50();
    let fleet = cloud::Fleet::paper_16_vcpus();
    let config =
        reassign::ReassignConfig { episodes: 4, seed, ..reassign::ReassignConfig::default() };
    let mut sink = MemSink::new();
    let mut tracer = Tracer::new(&mut sink);
    let outcome = reassign::learn_traced(
        &wf,
        &fleet,
        "16vcpus",
        &config,
        &wfsim::SimConfig::deterministic(),
        None,
        &mut tracer,
    )
    .expect("telemetry probe learn");
    (sink.take().lines().count(), outcome.telemetry.td_updates.count())
}

fn main() {
    let episodes =
        std::env::var("REASSIGN_EPISODES").ok().and_then(|v| v.parse().ok()).unwrap_or(100);
    let seed = 2019;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // The pool rayon actually built can differ from the detected core
    // count (RAYON_NUM_THREADS, CI cgroup limits); report both so a
    // speedup number can always be read against the real fan-out.
    let rayon_threads = rayon::current_num_threads();

    eprintln!(
        "27 configs x 3 fleets x {episodes} episodes, outer loop sequential \
         ({cores} cores detected, rayon pool {rayon_threads}) …"
    );
    eprintln!("serial pass (rollouts = 1) …");
    let serial_secs = learning_wall_clock(episodes, 1, seed);
    eprintln!("serial: {serial_secs:.3}s; parallel pass (rollouts = {ROLLOUTS}) …");
    let parallel_secs = learning_wall_clock(episodes, ROLLOUTS, seed);
    let speedup = serial_secs / parallel_secs;
    eprintln!("parallel: {parallel_secs:.3}s; speedup {speedup:.2}x");
    let (trace_events, td_updates) = telemetry_probe(seed);
    eprintln!("telemetry probe: {trace_events} trace events, {td_updates} TD updates");
    let (fault_makespan_secs, fault_retries, fault_recoveries) = bench::fault_probe(seed);
    eprintln!(
        "fault probe (mild profile): {fault_makespan_secs:.1}s makespan, \
         {fault_retries} retries, {fault_recoveries} recoveries"
    );
    let sim_events_per_sec = sim_event_throughput(seed, THROUGHPUT_PROBE_SECS);
    eprintln!("throughput probe: {sim_events_per_sec:.0} simulator events/sec");
    let (replicas_launched, replicas_cancelled, replica_wins, repl_makespan_p95) =
        bench::replication_probe();
    eprintln!(
        "replication probe (heavy profile, static-2): {replicas_launched} launched, \
         {replica_wins} replica wins, {replicas_cancelled} cancelled, \
         p95 makespan {repl_makespan_p95:.1}s"
    );

    // Hand-rolled JSON keeps this binary dependency-light and the
    // output schema explicit.
    let json = format!(
        "{{\n  \"benchmark\": \"learning_serial_vs_parallel\",\n  \"workflow\": \"montage50\",\n  \"fleets\": \"16+32+64vcpus\",\n  \"combinations\": 27,\n  \"episodes\": {episodes},\n  \"rollouts\": {ROLLOUTS},\n  \"cores\": {cores},\n  \"rayon_threads\": {rayon_threads},\n  \"serial_secs\": {serial_secs:.6},\n  \"parallel_secs\": {parallel_secs:.6},\n  \"speedup\": {speedup:.4},\n  \"sim_events_per_sec\": {events_per_sec:.1},\n  \"trace_events\": {trace_events},\n  \"td_updates\": {td_updates},\n  \"fault_makespan_secs\": {fault_makespan},\n  \"fault_retries\": {fault_retries},\n  \"fault_recoveries\": {fault_recoveries},\n  \"replicas_launched\": {replicas_launched},\n  \"replicas_cancelled\": {replicas_cancelled},\n  \"replica_wins\": {replica_wins},\n  \"repl_makespan_p95\": {repl_p95}\n}}\n",
        events_per_sec = sim_events_per_sec,
        fault_makespan = obs::event::json_f64(fault_makespan_secs),
        repl_p95 = obs::event::json_f64(repl_makespan_p95),
    );
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_learning.json".into());
    std::fs::write(&out, &json).expect("write benchmark report");
    println!("{json}");
    eprintln!("wrote {out}");
}
