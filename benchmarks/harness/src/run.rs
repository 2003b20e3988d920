//! One block of a workload: `[set-up segment][timed segment][checks]`.
//! Every block of a run does the same operations on fresh state, so
//! its checksum must equal every other block's.

use crate::trace::{learn_recomposed, Counts, Processed, ShardMirror, Spans};
use crate::workload::{
    greedy_eval_config, greedy_eval_seeds, setup_learn, setup_svc, Input, LearnInputs, SvcInputs,
    SvcShape, Workload,
};
use obs::Tracer;
use reassign::learn;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};
use svc::{shard_for, Admission, Completed, Service, ServiceConfig, ServiceReport, Submission};
use wfcommon::{Result, VmId};
use wfsim::{simulate, FixedPlanScheduler, Plan};

/// What one block measured. A violated output check lands in `errors`.
#[derive(Default)]
pub struct Block {
    /// One set-up, seconds (the set-up segment ÷ its repetitions).
    pub setup_s: f64,
    /// The timed segment, seconds: for a learn workload all `learn`
    /// calls, for a service workload the saturated phase.
    pub timed_s: f64,
    /// Plans completed in `timed_s`.
    pub plans: u64,
    /// The timed segment cut into the units every block repeats,
    /// milliseconds each, and the lane each unit ran on: one per `learn`
    /// call, all on lane 0; or one per submission of the saturated
    /// phase — its service time on its worker — on that worker's lane.
    /// Lanes run side by side, so the segment lasts as long as its
    /// longest lane, plus `serial_ms`.
    pub units_ms: Vec<f64>,
    pub lanes: Vec<u8>,
    /// What the timed segment does with no lane running: from the
    /// saturated phase's last completion to its assembled report.
    pub serial_ms: f64,
    /// Per plan, in request order, milliseconds from requested to
    /// available: wall of one `learn` call, or paced-phase sojourn from
    /// the due time. Infinite for a plan that never arrived.
    pub plan_ms: Vec<f64>,
    /// FNV-1a over every plan's makespan bits, in request order.
    pub checksum: u64,
    /// Σ greedy ÷ HEFT makespan over the plans where both replays
    /// completed, and how many those were.
    pub ratio_sum: f64,
    pub ratio_n: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Process CPU seconds over the block's timed work, and the plans
    /// that CPU bought.
    pub cpu_s: f64,
    pub cpu_plans: u64,
    pub errors: Vec<String>,
    /// `VmHWM` after the block, MB; filled in for the first block only.
    pub rss_mb: f64,
    pub svc: Option<SvcBlock>,
}

/// The service-only part of a block.
pub struct SvcBlock {
    /// Paced phase: how late each submission was made, milliseconds.
    pub late_ms: Vec<f64>,
    /// Admitted but unfinished submissions when the last burst was sent.
    pub backlog_end: u64,
    pub shed: u64,
    /// Wall of the paced phase's `drain()` (backlog nearly empty, so
    /// mostly joining workers and assembling the report).
    pub drain_s: f64,
    /// Mean wall of one `submit()` in the saturated phase.
    pub submit_ns: f64,
    /// Over both phases: Q-cache hits and lookups, learning episodes,
    /// completed plans, trace events and trace bytes.
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub episodes: u64,
    pub completed: u64,
    pub trace_events: u64,
    pub trace_bytes: u64,
    /// The two phases' reports, for the traced run to compare with and
    /// to feed the micro-drives; an untraced run drops them at once.
    pub reports: Option<(ServiceReport, ServiceReport)>,
}

fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// User + system CPU seconds of this process (all threads), from
/// `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Run the set-up `reps` times, time the whole segment, keep the last.
fn timed_setup<T>(
    reps: u32,
    mut setup: impl FnMut() -> Result<T>,
    mut discard: impl FnMut(T) -> Result<()>,
) -> Result<(T, f64)> {
    let t0 = Instant::now();
    let mut last = setup()?;
    for _ in 1..reps {
        discard(std::mem::replace(&mut last, setup()?))?;
    }
    Ok((last, t0.elapsed().as_secs_f64() / reps as f64))
}

/// How a learn block obtains its plans.
pub enum LearnMode<'a> {
    /// `reassign::learn`, as a user calls it.
    Direct,
    /// The re-composed loop, recording spans and counts.
    Traced(&'a mut Spans, &'a mut Counts),
}

/// One block of a learn workload.
pub fn learn_block(workload: Workload, seed: u64, mut mode: LearnMode<'_>) -> Result<Block> {
    let mut block = Block::default();
    let (inputs, setup_s) = {
        let mut off = Spans::disabled();
        let spans = match &mut mode {
            LearnMode::Direct => &mut off,
            LearnMode::Traced(spans, _) => &mut **spans,
        };
        timed_setup(workload.setup_reps(), || setup_learn(workload, seed, spans), |_| Ok(()))?
    };
    block.setup_s = setup_s;
    let LearnInputs { inputs, fleets, sim, cases } = &inputs;

    // Timed segment: nothing but the learn calls and their clocks.
    let mut outcomes = Vec::with_capacity(cases.len());
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    for (i, case) in cases.iter().enumerate() {
        let wf = &inputs[case.input].wf;
        let (label, fleet) = &fleets[case.fleet];
        let p0 = Instant::now();
        let outcome = match &mut mode {
            LearnMode::Direct => learn(wf, fleet, label, &case.config, sim, None)
                .map(|o| (o.greedy_plan, o.greedy_makespan, o.repl_policy)),
            LearnMode::Traced(spans, counts) => {
                spans.set_plan(i as u32);
                learn_recomposed(
                    wf,
                    fleet,
                    &case.config,
                    sim,
                    None,
                    false,
                    &mut Tracer::disabled(),
                    spans,
                    counts,
                )
                .map(|r| (r.greedy_plan, r.greedy_makespan, None))
            }
        };
        block.plan_ms.push(p0.elapsed().as_secs_f64() * 1e3);
        outcomes.push(outcome);
    }
    block.timed_s = t0.elapsed().as_secs_f64();
    block.cpu_s = cpu_seconds() - cpu0;
    block.units_ms = block.plan_ms.clone();
    block.lanes = vec![0; cases.len()];
    block.plans = cases.len() as u64;
    block.cpu_plans = block.plans;
    block.attempted = block.plans;

    // Checks, untimed.
    let mut h = FNV_OFFSET;
    for (case, outcome) in cases.iter().zip(outcomes) {
        let (plan, makespan, repl_policy) = match outcome {
            Ok(o) => o,
            Err(e) => {
                block.failed += 1;
                block.errors.push(format!("learn failed: {e}"));
                continue;
            }
        };
        h = fnv(h, makespan.as_secs().to_bits());
        let input = &inputs[case.input];
        let fleet = &fleets[case.fleet].1;
        if let Err(e) = plan.validate(&input.wf, fleet) {
            block.errors.push(format!("greedy plan invalid: {e}"));
        }
        if matches!(mode, LearnMode::Traced(..)) {
            // The re-composition's makespan is compared with `learn`'s
            // by the caller, through the checksum.
            continue;
        }
        // Replay the plan the way `learn` evaluated it: the makespan
        // must repeat, and tells whether the replay completed.
        let mut eval = greedy_eval_config(sim);
        if let Some(policy) = repl_policy {
            eval.replication = policy;
        }
        let replay = simulate(
            &input.wf,
            fleet,
            &mut FixedPlanScheduler::new(plan),
            &eval,
            greedy_eval_seeds(case.config.seed),
            None,
        )?;
        if replay.makespan != makespan {
            block.errors.push(format!(
                "greedy replay does not repeat: {} then {}",
                makespan.as_secs(),
                replay.makespan.as_secs()
            ));
        }
        if !replay.success {
            if sim.faults.is_inert() {
                block.failed += 1;
                block.errors.push("fault-free greedy replay did not complete".into());
            }
            continue;
        }
        if makespan.as_secs() < input.cp_bound_secs * (1.0 - 1e-12) {
            block.errors.push(format!(
                "makespan {} below the critical-path bound {}",
                makespan.as_secs(),
                input.cp_bound_secs
            ));
        }
        if let Some(heft) = case.heft_makespan_secs {
            block.ratio_sum += makespan.as_secs() / heft;
            block.ratio_n += 1;
        }
    }
    block.checksum = h;
    Ok(block)
}

/// What the saturated phase observed besides the service's report.
struct Saturated {
    report: ServiceReport,
    wall_s: f64,
    /// Per submission: its service time on its worker, ms (infinite if
    /// it never completed), and that worker.
    service_ms: Vec<f64>,
    lanes: Vec<u8>,
    /// From the last completion to the assembled report, ms.
    tail_ms: f64,
    submit_ns: f64,
}

/// Submit a phase's submissions all at once and drain.
///
/// With every worker busy from the first submission to the last
/// completion, a submission's service time is the gap between its
/// completion and the previous completion on the same worker (a shard's
/// worker is `shard % workers`, and a worker takes its jobs in
/// submission order). A completion's time is when the submission was
/// offered plus the sojourn the service reports for it.
fn run_saturated(
    mut service: Service,
    submissions: Vec<Submission>,
    workers: usize,
) -> Result<Saturated> {
    let n = submissions.len();
    let mut offered_s = Vec::with_capacity(n);
    let t0 = Instant::now();
    for sub in submissions {
        offered_s.push(t0.elapsed().as_secs_f64());
        service.submit(sub);
    }
    let submit_s = t0.elapsed().as_secs_f64();
    let report = service.drain()?;
    let wall_s = t0.elapsed().as_secs_f64();
    let mut service_ms = vec![f64::INFINITY; n];
    let mut lanes = vec![0; n];
    let mut last_done_s = vec![0.0f64; workers];
    for done in &report.results {
        let (seq, lane) = (done.seq as usize, done.shard as usize % workers);
        let done_s = offered_s[seq] + done.sojourn_secs;
        let started_s = last_done_s[lane].max(offered_s[seq]);
        service_ms[seq] = (done_s - started_s).max(0.0) * 1e3;
        lanes[seq] = lane as u8;
        last_done_s[lane] = last_done_s[lane].max(done_s);
    }
    let all_done_s = last_done_s.iter().copied().fold(0.0, f64::max);
    Ok(Saturated {
        report,
        wall_s,
        service_ms,
        lanes,
        tail_ms: (wall_s - all_done_s).max(0.0) * 1e3,
        submit_ns: submit_s * 1e9 / n as f64,
    })
}

/// What the open-loop phase observed besides the service's report.
struct Paced {
    report: ServiceReport,
    late_ms: Vec<f64>,
    shed_seqs: u64,
    backlog_end: u64,
    drain_s: f64,
}

/// Open loop: a burst is due every `gap_ms` whatever the service does;
/// the submitter sleeps to each due time and records how late it was.
fn run_paced(
    mut service: Service,
    submissions: Vec<Submission>,
    shape: &SvcShape,
) -> Result<Paced> {
    let registry = service.registry();
    let mut late_ms = Vec::with_capacity(submissions.len());
    let mut shed_seqs = 0;
    let mut submissions = submissions.into_iter();
    let start = Instant::now();
    for burst in 0..shape.bursts {
        let due = start + Duration::from_millis(shape.gap_ms * burst as u64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        for sub in submissions.by_ref().take(shape.burst as usize) {
            late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            if matches!(service.submit(sub), Admission::Shed { .. }) {
                shed_seqs += 1;
            }
        }
    }
    let backlog_end = service.admitted_count().saturating_sub(registry.plans.get());
    let t0 = Instant::now();
    let report = service.drain()?;
    Ok(Paced { report, late_ms, shed_seqs, backlog_end, drain_s: t0.elapsed().as_secs_f64() })
}

/// Output checks on one phase's results; folds makespans into the
/// checksum and the HEFT ratio.
fn check_phase(
    block: &mut Block,
    h: &mut u64,
    config: &ServiceConfig,
    workflows: &[Input],
    input_of: &[usize],
    heft: &[Option<f64>],
    report: &ServiceReport,
) {
    let fault_free = config.faults.is_inert();
    let by_seq: HashMap<u64, &Completed> = report.results.iter().map(|c| (c.seq, c)).collect();
    for seq in 0..input_of.len() {
        let Some(done) = by_seq.get(&(seq as u64)) else {
            block.failed += 1;
            continue;
        };
        if let Some(e) = &done.error {
            block.failed += 1;
            block.errors.push(format!("submission {seq} failed: {e}"));
            continue;
        }
        *h = fnv(fnv(*h, done.cache_hit as u64), done.makespan.as_secs().to_bits());
        let input = &workflows[input_of[seq]];
        if !done.success {
            if fault_free {
                block.failed += 1;
                block
                    .errors
                    .push(format!("fault-free replay of submission {seq} did not complete"));
            }
            // An incomplete replay reports the partial mapping it got to.
            continue;
        }
        let plan = Plan::from_assignments(done.assignments.iter().map(|&v| VmId::new(v)).collect());
        if let Err(e) = plan.validate(&input.wf, &config.fleet) {
            block.errors.push(format!("plan of submission {seq} invalid: {e}"));
        }
        if done.makespan.as_secs() < input.cp_bound_secs * (1.0 - 1e-12) {
            block
                .errors
                .push(format!("makespan of submission {seq} below the critical-path bound"));
        }
        if let Some(heft) = heft[seq] {
            block.ratio_sum += done.makespan.as_secs() / heft;
            block.ratio_n += 1;
        }
    }
}

/// One block of a service workload: saturated phase, then paced phase,
/// each on its own fresh service.
pub fn svc_block(workload: Workload, seed: u64, spans: &mut Spans) -> Result<Block> {
    let shape = SvcShape::of(workload);
    let mut block = Block::default();
    let (inputs, setup_s) = timed_setup(
        workload.setup_reps(),
        || setup_svc(workload, seed, spans),
        SvcInputs::discard,
    )?;
    block.setup_s = setup_s;
    let SvcInputs { config, inputs: workflows, saturated: sat_phase, paced: paced_phase } = inputs;
    let saturated_refs = (sat_phase.input_of, sat_phase.heft_makespan_secs);
    let paced_refs = (paced_phase.input_of, paced_phase.heft_makespan_secs);
    let attempted = sat_phase.submissions.len() + paced_phase.submissions.len();

    let cpu0 = cpu_seconds();
    let Saturated { report: sat_report, wall_s, service_ms, lanes, tail_ms, submit_ns } =
        run_saturated(sat_phase.service, sat_phase.submissions, config.workers)?;
    let paced = run_paced(paced_phase.service, paced_phase.submissions, shape)?;
    block.cpu_s = cpu_seconds() - cpu0;
    block.timed_s = wall_s;
    block.units_ms = service_ms;
    block.lanes = lanes;
    block.serial_ms = tail_ms;
    block.plans = sat_report.completed;
    block.cpu_plans = sat_report.completed + paced.report.completed;
    block.attempted = attempted as u64;

    let mut h = FNV_OFFSET;
    for (phase, report) in [(&saturated_refs, &sat_report), (&paced_refs, &paced.report)] {
        check_phase(&mut block, &mut h, &config, &workflows, &phase.0, &phase.1, report);
    }
    block.checksum = h;
    // Time to plan, from when each submission was due.
    block.plan_ms = vec![f64::INFINITY; paced.late_ms.len()];
    for done in &paced.report.results {
        if done.error.is_none() {
            let seq = done.seq as usize;
            block.plan_ms[seq] = paced.late_ms[seq] + done.sojourn_secs * 1e3;
        }
    }
    let both = [&sat_report, &paced.report];
    let sum = |f: fn(&ServiceReport) -> u64| both.iter().map(|r| f(r)).sum::<u64>();
    block.svc = Some(SvcBlock {
        late_ms: paced.late_ms,
        backlog_end: paced.backlog_end,
        shed: sat_report.shed + paced.shed_seqs,
        drain_s: paced.drain_s,
        submit_ns,
        cache_hits: sum(|r| r.cache_hits),
        cache_lookups: sum(|r| r.cache_hits + r.cache_misses),
        episodes: sum(|r| r.hit_episodes + r.miss_episodes),
        completed: sum(|r| r.completed),
        trace_events: sum(|r| r.trace_events),
        trace_bytes: sum(|r| r.trace.len() as u64),
        reports: Some((sat_report, paced.report)),
    });
    Ok(block)
}

/// Re-run a block's submissions through re-composed shards, single
/// threaded and routed as the service routes them, a fresh set of
/// shards per phase as each phase had its own service. Returns each
/// submission's wall, milliseconds, and what differs from what the
/// services returned — results, or the shards' trace bytes.
pub fn mirror_block(
    workload: Workload,
    seed: u64,
    reports: [&ServiceReport; 2],
    spans: &mut Spans,
    counts: &mut Counts,
) -> Result<(Vec<f64>, Vec<String>)> {
    let inputs = setup_svc(workload, seed, &mut Spans::disabled())?;
    let config = &inputs.config;
    let (mut plan_ms, mut errors) = (Vec::new(), Vec::new());
    for (phase, report) in [&inputs.saturated, &inputs.paced].into_iter().zip(reports) {
        let mut shards: BTreeMap<u32, ShardMirror> = BTreeMap::new();
        let by_seq: HashMap<u64, &Completed> = report.results.iter().map(|c| (c.seq, c)).collect();
        for (seq, sub) in phase.submissions.iter().enumerate() {
            let shard = shard_for(&sub.tenant, sub.spec.family_label(), config.shards);
            spans.set_plan(seq as u32);
            let mirror = shards.entry(shard).or_insert_with(|| ShardMirror::new(shard));
            let t0 = Instant::now();
            let got = mirror.process(seq as u64, sub, config, spans, counts)?;
            let ns = t0.elapsed().as_nanos() as u64;
            plan_ms.push(ns as f64 / 1e6);
            if got.cache_hit {
                counts.hits += 1;
                counts.hit_ns += ns;
            } else {
                counts.misses += 1;
                counts.miss_ns += ns;
            }
            let want = by_seq.get(&(seq as u64)).map(|c| Processed {
                cache_hit: c.cache_hit,
                episodes: c.episodes,
                makespan_bits: c.makespan.as_secs().to_bits(),
                success: c.success,
            });
            if want != Some(got) {
                errors.push(format!("submission {seq}: service {want:?}, re-composition {got:?}"));
            }
        }
        // The service's trace ends with its shards' buffers in shard
        // order: the re-composed shards must have emitted the same bytes.
        let same_bytes = shards
            .values()
            .rev()
            .try_fold(&report.trace[..], |rest, mirror| rest.strip_suffix(mirror.trace()));
        if same_bytes.is_none() {
            errors.push("re-composed shards' trace bytes differ from the service's".into());
        }
    }
    inputs.discard()?;
    Ok((plan_ms, errors))
}
