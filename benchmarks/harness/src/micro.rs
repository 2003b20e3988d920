//! Micro-drives: one public function of one layer in a loop, at the
//! sizes the workload actually has. They price operations the harness
//! cannot time from outside while the program runs (an RNG draw, a heap
//! push, a TD update), so a layer's share of a plan can be estimated as
//! count × price. Each returns the price of one operation.

use cloud::{FaultConfig, FaultModel, Fleet};
use obs::{BinMemSink, FrameReader, FrameRef, TraceEvent, TraceSink, Tracer};
use provenance::{EpisodeRecord, ProvenanceStore};
use qlearn::{DenseQTable, QLearner, QLearnerConfig};
use rand::Rng as _;
use simkit::EventQueue;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use svc::{Completed, ServiceConfig, ServiceReport, WfqState};
use wfcommon::{Result, SeedDerivation, SimTime};
use wfsim::{simulate_traced, FixedPlanScheduler, Plan, SimConfig};
use workflow::Workflow;

fn per_op_ns(ops: u64, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// Cost of one `Instant::now()`, which every span pays twice.
pub fn timer_ns() -> f64 {
    const N: u64 = 1_000_000;
    per_op_ns(N, || {
        for _ in 0..N {
            black_box(Instant::now());
        }
    })
}

/// A named stream derived and first used, as every episode does.
pub fn rng_stream_ns(seed: u64) -> f64 {
    const N: u64 = 200_000;
    let seeds = SeedDerivation::new(seed);
    per_op_ns(N, || {
        for i in 0..N {
            black_box(seeds.rng_for("episode", i).gen::<u64>());
        }
    })
}

/// One draw from an established stream.
pub fn rng_draw_ns(seed: u64) -> f64 {
    const N: u64 = 4_000_000;
    let mut rng = SeedDerivation::new(seed).rng_for("draws", 0);
    per_op_ns(N, || {
        let mut sum = 0.0;
        for _ in 0..N {
            sum += rng.gen::<f64>();
        }
        black_box(sum);
    })
}

/// `FaultModel::new`, which the engine calls once per simulation
/// (pre-sampling the crash schedule when crashes are on).
pub fn fault_model_us(faults: FaultConfig, vms: usize, sim: &SimConfig, seed: u64) -> f64 {
    const N: u64 = 2_000;
    let seeds = SeedDerivation::new(seed);
    let horizon = SimTime(sim.migration_horizon_secs);
    per_op_ns(N, || {
        for i in 0..N {
            let episode = SeedDerivation::new(seeds.seed_for("episode", i));
            black_box(FaultModel::new(faults, vms, horizon, episode));
        }
    }) / 1e3
}

/// Records the deepest event queue a simulation reports.
#[derive(Default)]
struct DepthSink(u64);

impl TraceSink for DepthSink {
    fn emit_line(&mut self, _line: &str) {}

    fn emit_event(&mut self, ev: &TraceEvent<'_>) {
        if let TraceEvent::SimEnd { max_queue_depth, .. } = ev {
            self.0 = self.0.max(*max_queue_depth);
        }
    }
}

/// Deepest pending-event queue while `plan` replays on `fleet`.
pub fn max_queue_depth(wf: &Workflow, fleet: &Fleet, plan: &Plan, sim: &SimConfig) -> Result<u64> {
    let mut sink = DepthSink::default();
    simulate_traced(
        wf,
        fleet,
        &mut FixedPlanScheduler::new(plan.clone()),
        sim,
        SeedDerivation::new(0),
        None,
        &mut Tracer::new(&mut sink),
    )?;
    Ok(sink.0)
}

/// One pop and one push on an event queue held at `depth` entries.
pub fn push_pop_ns(depth: usize, seed: u64) -> f64 {
    const N: u64 = 2_000_000;
    let mut rng = SeedDerivation::new(seed).rng_for("queue", 0);
    let mut queue: EventQueue<u32> = EventQueue::new();
    for i in 0..depth.max(1) {
        queue.push(SimTime(rng.gen::<f64>() * 100.0), i as u32);
    }
    per_op_ns(N, || {
        for _ in 0..N {
            let (t, payload) = queue.pop().expect("queue held at depth");
            queue.push(SimTime(t.as_secs() + rng.gen::<f64>() * 100.0), payload);
        }
    })
}

/// Prices of the three Q-table operations on a `rows × cols` table:
/// `(TD update ns, row argmax ns, table clone µs)`.
pub fn qtable(rows: usize, cols: usize, seed: u64) -> Result<(f64, f64, f64)> {
    const N: u64 = 2_000_000;
    let mut rng = SeedDerivation::new(seed).rng_for("qtable", 0);
    let mut table = DenseQTable::random(rows, cols, 0.01, &mut rng);
    let learner = QLearner::new(QLearnerConfig { alpha: 0.5, gamma: 1.0, discount_power_t: true })?;
    let cells: Vec<(usize, usize)> =
        (0..4096).map(|_| (rng.gen_range(0..rows), rng.gen_range(0..cols))).collect();
    let update = per_op_ns(N, || {
        for i in 0..N {
            let (s, a) = cells[i as usize % cells.len()];
            black_box(learner.update(&mut table, s, a, 1.0, 0.5, i % 64));
        }
    });
    let argmax = per_op_ns(N, || {
        for i in 0..N {
            black_box(table.argmax_over(cells[i as usize % cells.len()].0, None));
        }
    });
    const CLONES: u64 = 20_000;
    let clone = per_op_ns(CLONES, || {
        for _ in 0..CLONES {
            black_box(table.clone());
        }
    }) / 1e3;
    Ok((update, argmax, clone))
}

/// `workflow::dax::parse` over the workflows' DAX serializations, µs
/// per document.
pub fn dax_parse_us<'a>(workflows: impl Iterator<Item = &'a Workflow>) -> Result<f64> {
    let docs: Vec<String> = workflows.map(workflow::dax::write).collect();
    let t0 = Instant::now();
    for doc in &docs {
        black_box(workflow::dax::parse(doc)?);
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / docs.len() as f64)
}

/// `WfqState::offer` and `dispatch` over the tenants of `results`, in
/// submission order: `(offer ns, dispatch ns)`.
pub fn wfq(cfg: &ServiceConfig, results: &[Completed]) -> (f64, f64) {
    let n = results.len() as u64;
    let mut state: WfqState<u64> = WfqState::new(cfg.wfq.clone());
    let offer = per_op_ns(n, || {
        for done in results {
            black_box(state.offer(&done.tenant, done.seq));
        }
    });
    let dispatch = per_op_ns(n, || while black_box(state.dispatch()).is_some() {});
    (offer, dispatch)
}

/// The provenance work `drain()` does: log every result's record into
/// its tenant's store, then compact each store. `(log µs per record,
/// compact µs per store)`; compaction is 0 when the service keeps all.
pub fn provenance(cfg: &ServiceConfig, results: &[Completed]) -> (f64, f64) {
    let records: Vec<(&str, EpisodeRecord)> =
        results.iter().filter_map(|c| c.prov.clone().map(|p| (c.tenant.as_str(), p))).collect();
    let n = records.len() as u64;
    let mut tenants: BTreeMap<String, ProvenanceStore> = BTreeMap::new();
    let log = per_op_ns(n, || {
        for (tenant, record) in records {
            tenants.entry(tenant.to_string()).or_default().log_episode(record);
        }
    }) / 1e3;
    let compact = cfg.prov_keep_last.map_or(0.0, |keep| {
        per_op_ns(tenants.len() as u64, || {
            for store in tenants.values_mut() {
                store.compact(keep as usize);
            }
        }) / 1e3
    });
    (log, compact)
}

/// Re-emit the events of a service trace into a fresh binary sink: ns
/// per event, net of reading them (one read-only pass is subtracted).
pub fn emit_ns(report: &ServiceReport) -> f64 {
    let pass = |emit: bool| {
        let mut sink = BinMemSink::new();
        let mut events = 0u64;
        let t0 = Instant::now();
        let mut reader = FrameReader::new(&report.trace[..]).expect("service trace has a prelude");
        while let Some(frame) = reader.next_frame().expect("service trace decodes") {
            if let FrameRef::Event(ev) = frame {
                events += 1;
                if emit {
                    Tracer::new(&mut sink).emit(&ev);
                } else {
                    black_box(&ev);
                }
            }
        }
        (t0.elapsed().as_nanos() as f64, events)
    };
    let (read, _) = pass(false);
    let (both, events) = pass(true);
    (both - read).max(0.0) / events.max(1) as f64
}

/// `obs_analyze::analyze_frames` over a service trace, events per second.
pub fn analyze_frames_per_s(report: &ServiceReport) -> f64 {
    let t0 = Instant::now();
    black_box(obs_analyze::analyze_frames(&report.trace[..]).expect("service trace decodes"));
    report.trace_events as f64 / t0.elapsed().as_secs_f64()
}
