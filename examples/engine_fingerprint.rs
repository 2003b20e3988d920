//! The engine's behaviour as one text file: a seeded grid of `wfsim`
//! simulations, one line per cell, for comparing two commits bit for
//! bit. Run it in both checkouts and `diff` the outputs:
//!
//! ```text
//! cargo run --release --example engine_fingerprint > /tmp/change.txt
//! (cd <parent checkout> && cargo run --release --example engine_fingerprint) > /tmp/parent.txt
//! diff /tmp/parent.txt /tmp/change.txt && echo "0 differing cells"
//! ```
//!
//! Each line is
//!
//! ```text
//! name fnv64(trace) makespan_bits events retries crashes launched cancelled success | the same, on the reused arena
//! ```
//!
//! where `name` spells the cell (workflow, fleet, fault profile,
//! replication policy, scheduler, failure probability, retry budget,
//! the boot / migration / fluctuation / burst toggles, seed). The left
//! half runs every cell on a fresh [`SimArena`] in grid order; the right
//! half runs the same cells in a seeded shuffled order on **one** arena,
//! so whatever a run leaves behind in the arena shows up as a differing
//! column. The cells are a seeded sample of the cross product (every
//! value of every axis is present — asserted below); the `reassign`
//! scheduler cells run three episodes that carry the Q-table and the
//! [`ExecHistory`] forward, the way a learning run does.
//!
//! Only API names the engine has had since the arena exists are used
//! (`simulate_cached_traced`), so this file also builds in a
//! `git archive` of an older commit.

use cloud::{FaultConfig, Fleet, ReplTable, ReplicationPolicy};
use obs::{MemSink, Tracer};
use reassign::{ReassignConfig, ReassignScheduler};
use sched::heft_plan;
use wfcommon::{SeedDerivation, SimTime};
use wfsim::{
    simulate_cached_traced, Decision, ExecHistory, FixedPlanScheduler, FluctuationKind,
    MigrationKind, Scheduler, SchedulerContext, SimArena, SimConfig,
};
use workflow::generators::{cybershake, epigenomics, montage};
use workflow::{Workflow, WorkflowCache};

/// Cells in the grid; the 1,000-activation workflows get 3 in 10.
const CELLS: u64 = 2_400;

/// Greedy FIFO: first ready activation onto the first idle VM.
struct Fifo;
impl Scheduler for Fifo {
    fn name(&self) -> &str {
        "fifo"
    }
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        match (ctx.ready.first(), ctx.idle_slots.first()) {
            (Some(&ac), Some(&(vm, _))) => Decision::Assign { activation: ac, vm },
            _ => Decision::DoNothing,
        }
    }
}

/// SplitMix64: the grid's own generator, so the sample does not move
/// with the `rand` crate.
struct Mix(u64);
impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

const WORKFLOWS: [&str; 7] = ["m50", "m100", "c100", "e100", "m1000", "c1000", "e1000"];
/// Sampling weights over [`WORKFLOWS`], by index.
const WORKFLOW_DRAW: [usize; 10] = [0, 0, 0, 0, 1, 2, 3, 4, 5, 6];
const FLEETS: [&str; 3] = ["16", "32", "64"];
const FAULTS: [&str; 5] = ["none", "mild", "heavy", "combined", "tight"];
const REPLICATION: [&str; 5] = ["off", "static2", "static4", "learned", "zeros"];
const SCHEDULERS: [&str; 3] = ["fifo", "heft", "reassign"];
const FAILURE_PROB: [f64; 2] = [0.0, 0.15];
const MAX_RETRIES: [u32; 2] = [2, 30];
const SEEDS: [u64; 8] = [1, 7, 42, 77, 1000, 2019, 31337, 65537];

/// One cell: an index into each axis plus the four on/off toggles.
#[derive(Clone, Copy)]
struct Cell {
    workflow: usize,
    fleet: usize,
    faults: usize,
    replication: usize,
    scheduler: usize,
    failure_prob: usize,
    max_retries: usize,
    boot: bool,
    migration: bool,
    heavy_fluct: bool,
    burst: bool,
    seed: usize,
}

impl Cell {
    fn sample(rng: &mut Mix) -> Self {
        Self {
            workflow: WORKFLOW_DRAW[rng.pick(WORKFLOW_DRAW.len())],
            fleet: rng.pick(FLEETS.len()),
            faults: rng.pick(FAULTS.len()),
            replication: rng.pick(REPLICATION.len()),
            scheduler: rng.pick(SCHEDULERS.len()),
            failure_prob: rng.pick(FAILURE_PROB.len()),
            max_retries: rng.pick(MAX_RETRIES.len()),
            boot: rng.pick(2) == 1,
            migration: rng.pick(2) == 1,
            heavy_fluct: rng.pick(2) == 1,
            burst: rng.pick(2) == 1,
            seed: rng.pick(SEEDS.len()),
        }
    }

    fn name(&self) -> String {
        let flag = |on: bool, c: char| if on { c } else { '-' };
        format!(
            "{}/{}/{}/{}/{}/p{}/r{}/{}{}{}{}/s{}",
            WORKFLOWS[self.workflow],
            FLEETS[self.fleet],
            FAULTS[self.faults],
            REPLICATION[self.replication],
            SCHEDULERS[self.scheduler],
            FAILURE_PROB[self.failure_prob],
            MAX_RETRIES[self.max_retries],
            flag(self.boot, 'b'),
            flag(self.migration, 'm'),
            flag(self.heavy_fluct, 'f'),
            flag(self.burst, 't'),
            SEEDS[self.seed],
        )
    }

    fn config(&self) -> SimConfig {
        let faults = match FAULTS[self.faults] {
            "none" => FaultConfig::none(),
            "mild" => FaultConfig::mild(),
            "heavy" => FaultConfig::heavy(),
            // chaoskit's combined-taxonomy profile.
            "combined" => FaultConfig {
                vm_mtbf_hours: 0.03,
                repair_secs: 20.0,
                straggler_prob: 0.15,
                straggler_factor: 3.0,
                timeout_secs: 400.0,
                backoff_base_secs: 0.5,
                blacklist_after: 3,
                ..FaultConfig::none()
            },
            // Timeouts short enough to kill ordinary attempts, no
            // backoff, a quick blacklist: most cells fail the workflow.
            _ => FaultConfig {
                vm_mtbf_hours: 0.05,
                repair_secs: 10.0,
                straggler_prob: 0.2,
                straggler_factor: 4.0,
                timeout_secs: 60.0,
                backoff_base_secs: 0.0,
                blacklist_after: 2,
                ..FaultConfig::none()
            },
        };
        let replication = match REPLICATION[self.replication] {
            "off" => ReplicationPolicy::Off,
            "static2" => ReplicationPolicy::Static { k: 2 },
            "static4" => ReplicationPolicy::Static { k: 4 },
            "learned" => ReplicationPolicy::learned_heuristic(),
            _ => ReplicationPolicy::Learned { table: ReplTable::zeros() },
        };
        SimConfig {
            faults,
            replication,
            failure_prob: FAILURE_PROB[self.failure_prob],
            max_retries: MAX_RETRIES[self.max_retries],
            vm_boot_secs: if self.boot { 30.0 } else { 0.0 },
            migration: if self.migration {
                MigrationKind::Poisson {
                    rate_per_hour: 20.0,
                    min_downtime_secs: 5.0,
                    max_downtime_secs: 30.0,
                }
            } else {
                MigrationKind::None
            },
            fluctuation: if self.heavy_fluct {
                FluctuationKind::Heavy
            } else {
                FluctuationKind::Mild
            },
            burst_throttling: self.burst,
            // A drained fleet, so throttling bites inside one workflow.
            burst_credit_scale: if self.burst { 0.01 } else { 1.0 },
            ..SimConfig::default()
        }
    }
}

/// What one cell leaves behind, as the columns of its output line.
fn run_cell(
    cell: &Cell,
    workflows: &[(Workflow, WorkflowCache)],
    fleets: &[Fleet],
    arena: &mut SimArena,
) -> String {
    let (wf, cache) = &workflows[cell.workflow];
    let fleet = &fleets[cell.fleet];
    let config = cell.config();
    let seed = SEEDS[cell.seed];

    let mut fixed;
    let mut agent;
    let mut fifo = Fifo;
    let (scheduler, episodes): (&mut dyn Scheduler, u32) = match SCHEDULERS[cell.scheduler] {
        "fifo" => (&mut fifo, 1),
        "heft" => {
            let plan = heft_plan(wf, fleet, config.bandwidth_bytes_per_sec).expect("heft plan");
            fixed = FixedPlanScheduler::new(plan.plan);
            (&mut fixed, 1)
        }
        _ => {
            let rl = ReassignConfig { episodes: 3, seed, ..ReassignConfig::default() };
            agent = ReassignScheduler::new(wf.len(), fleet.len(), rl).expect("agent");
            (&mut agent, 3)
        }
    };

    let mut sink = MemSink::new();
    let mut history: Option<ExecHistory> = None;
    let (mut events, mut retries, mut crashes, mut launched, mut cancelled) = (0u64, 0, 0, 0, 0);
    let mut last = (SimTime::ZERO, false);
    for episode in 0..episodes {
        let mut tracer = Tracer::new(&mut sink);
        let run = simulate_cached_traced(
            wf,
            cache,
            fleet,
            &mut *scheduler,
            &config,
            SeedDerivation::new(SeedDerivation::new(seed).seed_for("episode", u64::from(episode))),
            history.as_ref(),
            arena,
            &mut tracer,
        );
        match run {
            Ok(res) => {
                events += res.events_processed;
                retries += res.fault_stats.retries + res.fault_stats.reschedules;
                crashes += res.fault_stats.crashes;
                launched += res.repl_stats.launched;
                cancelled += res.repl_stats.cancelled;
                last = (res.makespan, res.success);
                history = Some(res.history);
            }
            Err(e) => return format!("ERR {e}"),
        }
    }
    format!(
        "{:016x} {:016x} {events} {retries} {crashes} {launched} {cancelled} {}",
        fnv64(sink.as_str().as_bytes()),
        last.0.as_secs().to_bits(),
        last.1,
    )
}

fn main() {
    let workflows: Vec<(Workflow, WorkflowCache)> = [
        workflow::montage50::montage50(),
        montage::generate(&montage::MontageParams::with_total_activations(100, 11).unwrap())
            .unwrap(),
        cybershake::generate(
            &cybershake::CyberShakeParams::with_total_activations(100, 12).unwrap(),
        )
        .unwrap(),
        epigenomics::generate(
            &epigenomics::EpigenomicsParams::with_total_activations(100, 13).unwrap(),
        )
        .unwrap(),
        montage::generate(&montage::MontageParams::with_total_activations(1000, 14).unwrap())
            .unwrap(),
        cybershake::generate(
            &cybershake::CyberShakeParams::with_total_activations(1000, 15).unwrap(),
        )
        .unwrap(),
        epigenomics::generate(
            &epigenomics::EpigenomicsParams::with_total_activations(1000, 16).unwrap(),
        )
        .unwrap(),
    ]
    .into_iter()
    .map(|wf| {
        let cache = WorkflowCache::new(&wf).expect("workflow cache");
        (wf, cache)
    })
    .collect();
    let fleets: Vec<Fleet> = Fleet::paper_fleets().into_iter().map(|(_, f)| f).collect();

    let mut rng = Mix(0x5EED_F1E1D);
    let cells: Vec<Cell> = (0..CELLS).map(|_| Cell::sample(&mut rng)).collect();
    // "A seeded sample is enough" only while it still covers every
    // value of every axis.
    for (axis, len, of) in [
        ("workflow", WORKFLOWS.len(), (|c| c.workflow) as fn(&Cell) -> usize),
        ("fleet", FLEETS.len(), |c| c.fleet),
        ("faults", FAULTS.len(), |c| c.faults),
        ("replication", REPLICATION.len(), |c| c.replication),
        ("scheduler", SCHEDULERS.len(), |c| c.scheduler),
        ("failure_prob", FAILURE_PROB.len(), |c| c.failure_prob),
        ("max_retries", MAX_RETRIES.len(), |c| c.max_retries),
        ("seed", SEEDS.len(), |c| c.seed),
        ("boot", 2, |c| usize::from(c.boot)),
        ("migration", 2, |c| usize::from(c.migration)),
        ("fluctuation", 2, |c| usize::from(c.heavy_fluct)),
        ("burst", 2, |c| usize::from(c.burst)),
    ] {
        for value in 0..len {
            assert!(cells.iter().any(|c| of(c) == value), "no cell has {axis} = {value}");
        }
    }

    let fresh: Vec<String> =
        cells.iter().map(|c| run_cell(c, &workflows, &fleets, &mut SimArena::new())).collect();

    // The same cells on one arena, in a shuffled order (Fisher–Yates).
    let mut order: Vec<usize> = (0..cells.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.pick(i + 1));
    }
    let mut shared = SimArena::new();
    let mut reused = vec![String::new(); cells.len()];
    for &k in &order {
        reused[k] = run_cell(&cells[k], &workflows, &fleets, &mut shared);
    }

    for ((cell, fresh), reused) in cells.iter().zip(&fresh).zip(&reused) {
        println!("{} {fresh} | {reused}", cell.name());
    }
}
