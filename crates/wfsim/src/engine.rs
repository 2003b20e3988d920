//! The workflow-execution discrete-event engine.
//!
//! Implements the paper's workflow state machine (§III-A) over the
//! `simkit` kernel:
//!
//! * an activation is **locked** until all its producers finish,
//!   **ready** afterwards, **running** once a scheduler assigns it to
//!   an idle processing element, and terminally **successfully
//!   finished** or **finished with failure**;
//! * the workflow is **available** when ≥1 activation is ready and ≥1
//!   element is idle — only then is the scheduler consulted — and
//!   **unavailable** otherwise (the *do-nothing* action is implicit:
//!   the engine simply waits for the next completion event);
//! * queue time `tf` is the ready→start wait, execution time `te` is
//!   the start→finish span including data stage-in, performance
//!   fluctuation and migration stalls.

use crate::arena::SimArena;
use crate::config::{FluctuationKind, MigrationKind, SimConfig};
use crate::history::ExecHistory;
use crate::plan::Plan;
use crate::result::{ActivationRecord, FaultStats, ReplDecision, ReplStats, SimResult};
use crate::scheduler::{CompletionInfo, Decision, Scheduler, SchedulerContext};
use cloud::failure::{Attempt, FailureModel};
use cloud::fluctuation::{FluctuationModel, NoFluctuation, PerfFluctuation};
use cloud::{FaultModel, Fleet, MigrationModel, ReplFeatures};
use obs::{TraceEvent, Tracer, REPLICA_ATTEMPT_BASE};
use simkit::{Simulation, StepOutcome};
use wfcommon::ids::Idx;
use wfcommon::{ActivationId, Error, Result, SeedDerivation, SimTime, VmId};
use workflow::{Workflow, WorkflowCache};

/// Engine events; scheduling happens synchronously after each event.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// An activation attempt completed.
    Finished {
        ac: ActivationId,
        vm: VmId,
        started_at: SimTime,
        ready_at: SimTime,
        attempt: u32,
        failed: bool,
    },
    /// A VM finished booting; its processing elements come online.
    VmReady { vm: VmId, pes: u32 },
    /// A VM crash fires. `idx` is its position in the VM's crash
    /// schedule, so the next one can be asked for — and only then
    /// sampled — when this one fires (the event heap holds one crash per
    /// VM, not the whole horizon).
    Crash { vm: VmId, idx: usize },
    /// A crashed VM completed repair; `pes` elements return.
    Repair { vm: VmId, pes: u32 },
    /// A per-attempt timeout fires; the attempt is killed if it is
    /// still the live one.
    TimedOut { ac: ActivationId, vm: VmId, started_at: SimTime, ready_at: SimTime, attempt: u32 },
    /// A backed-off retry re-enters the ready queue.
    Wake { ac: ActivationId },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcState {
    Locked {
        remaining_parents: u32,
    },
    Ready {
        since: SimTime,
    },
    Running,
    /// A retry sitting out its exponential backoff; the matching
    /// [`Ev::Wake`] moves it back to `Ready`.
    Waiting,
    Done,
    Failed,
}

/// One live attempt of a speculative-replication group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RepAttempt {
    attempt: u32,
    vm: VmId,
    started_at: SimTime,
}

/// A replication decision whose outcome has not resolved yet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingDecision {
    bucket: u8,
    requested: u8,
    launched: u8,
    primary_secs: f64,
    start_t: SimTime,
    waste_secs: f64,
}

/// All engine-side replication state, carried alongside the legacy
/// per-activation arrays. The per-activation vectors are the arena's
/// (`SimArena::{repl_groups, repl_seq, repl_pending}`), reset in place
/// here for the `n` activations of this run; what the run reports
/// (`stats`, `decisions`) is owned and leaves in the [`SimResult`].
/// Inert (`active == false`) when the policy is
/// [`cloud::ReplicationPolicy::Off`]: the per-activation slices are then
/// empty views, nothing behind them is sized or reset, and no event
/// handler reads them — each takes the exact legacy code path.
struct ReplState<'a> {
    active: bool,
    /// Live attempts per activation (primary first, in launch order).
    groups: &'a mut [Vec<RepAttempt>],
    /// Per-activation replica launch ordinal — replica attempt ids are
    /// `REPLICA_ATTEMPT_BASE + ordinal`, disjoint from retry counts
    /// and never reused across a task's dispatches.
    rep_seq: &'a mut [u32],
    /// Decision awaiting resolution, per activation.
    pending: &'a mut [Option<PendingDecision>],
    /// Workflow-wide critical path (top of the downward-rank order),
    /// the denominator of the slack feature.
    cp_total: f64,
    stats: ReplStats,
    decisions: Vec<ReplDecision>,
}

impl<'a> ReplState<'a> {
    fn new(
        n: usize,
        active: bool,
        cache: &WorkflowCache,
        groups: &'a mut Vec<Vec<RepAttempt>>,
        rep_seq: &'a mut Vec<u32>,
        pending: &'a mut Vec<Option<PendingDecision>>,
    ) -> Self {
        // An `Off` run sizes and resets nothing: its `n` is 0 here.
        // Otherwise whatever an earlier run left behind — another
        // policy, a larger workflow — goes; the inner vectors keep their
        // capacity, so a steady-state episode allocates nothing here.
        let n = if active { n } else { 0 };
        if groups.len() < n {
            groups.resize_with(n, Vec::new);
        }
        groups[..n].iter_mut().for_each(Vec::clear);
        rep_seq.clear();
        rep_seq.resize(n, 0);
        pending.clear();
        pending.resize(n, None);
        Self {
            active,
            groups: &mut groups[..n],
            rep_seq,
            pending,
            cp_total: (0..n).map(|i| cache.rank(i)).fold(0.0f64, f64::max),
            stats: ReplStats::default(),
            // One decision per dispatch: `n` plus the retries.
            decisions: Vec::with_capacity(n),
        }
    }

    /// Bill cancelled-attempt seconds as hedging waste.
    fn add_waste(&mut self, i: usize, secs: f64) {
        self.stats.waste_secs += secs;
        if let Some(d) = self.pending[i].as_mut() {
            d.waste_secs += secs;
        }
    }

    /// Close the pending decision for activation `i` with its outcome.
    fn resolve(&mut self, i: usize, now: SimTime, replica_won: bool, group_failed: bool) {
        if let Some(d) = self.pending[i].take() {
            self.decisions.push(ReplDecision {
                activation: i as u32,
                bucket: d.bucket,
                requested: d.requested,
                launched: d.launched,
                primary_secs: d.primary_secs,
                group_secs: (now - d.start_t).as_secs(),
                waste_secs: d.waste_secs,
                replica_won,
                group_failed,
            });
        }
    }
}

/// Run one simulated execution of `workflow` on `fleet` under
/// `scheduler`. `seeds` drives all stochastic models; `history_seed`
/// lets callers pre-load execution history from earlier episodes
/// (paper §III-C: previous-episode information is carried forward).
///
/// Convenience wrapper over [`simulate_cached`] that derives the
/// structural cache and scratch arena on the spot. Loops that run many
/// episodes should build a [`WorkflowCache`] once and reuse a
/// [`SimArena`] instead; the results are bitwise identical.
pub fn simulate(
    workflow: &Workflow,
    fleet: &Fleet,
    scheduler: &mut dyn Scheduler,
    config: &SimConfig,
    seeds: SeedDerivation,
    history_seed: Option<&ExecHistory>,
) -> Result<SimResult> {
    simulate_traced(
        workflow,
        fleet,
        scheduler,
        config,
        seeds,
        history_seed,
        &mut Tracer::disabled(),
    )
}

/// [`simulate`] with a structured-event tracer attached (see
/// [`obs::TraceEvent`] for the schema). A disabled tracer makes this
/// identical to [`simulate`] at one branch per event of cost.
pub fn simulate_traced(
    workflow: &Workflow,
    fleet: &Fleet,
    scheduler: &mut dyn Scheduler,
    config: &SimConfig,
    seeds: SeedDerivation,
    history_seed: Option<&ExecHistory>,
    tracer: &mut Tracer<'_>,
) -> Result<SimResult> {
    let cache = WorkflowCache::new(workflow)?;
    let mut arena = SimArena::new();
    simulate_cached_traced(
        workflow,
        &cache,
        fleet,
        scheduler,
        config,
        seeds,
        history_seed,
        &mut arena,
        tracer,
    )
}

/// [`simulate`] with the allocation-heavy parts hoisted out: `cache`
/// holds the workflow's precomputed structure (build once per
/// workflow), `arena` the reusable scratch buffers (one per worker,
/// reset in place each call).
#[allow(clippy::too_many_arguments)]
pub fn simulate_cached(
    workflow: &Workflow,
    cache: &WorkflowCache,
    fleet: &Fleet,
    scheduler: &mut dyn Scheduler,
    config: &SimConfig,
    seeds: SeedDerivation,
    history_seed: Option<&ExecHistory>,
    arena: &mut SimArena,
) -> Result<SimResult> {
    simulate_cached_traced(
        workflow,
        cache,
        fleet,
        scheduler,
        config,
        seeds,
        history_seed,
        arena,
        &mut Tracer::disabled(),
    )
}

/// [`simulate_cached`] with a structured-event tracer attached.
#[allow(clippy::too_many_arguments)]
pub fn simulate_cached_traced(
    workflow: &Workflow,
    cache: &WorkflowCache,
    fleet: &Fleet,
    scheduler: &mut dyn Scheduler,
    config: &SimConfig,
    seeds: SeedDerivation,
    history_seed: Option<&ExecHistory>,
    arena: &mut SimArena,
    tracer: &mut Tracer<'_>,
) -> Result<SimResult> {
    config.validate()?;
    if fleet.is_empty() {
        return Err(Error::Simulation("fleet has no VMs".into()));
    }
    if workflow.is_empty() {
        return Err(Error::InvalidWorkflow("workflow has no activations".into()));
    }
    if cache.len() != workflow.len() {
        return Err(Error::Simulation("workflow cache built for a different workflow".into()));
    }

    let n = workflow.len();
    let mut fluct: Box<dyn FluctuationModel> = match config.fluctuation {
        FluctuationKind::None => Box::new(NoFluctuation),
        FluctuationKind::Mild => Box::new(PerfFluctuation::mild(fleet.len(), seeds)),
        FluctuationKind::Heavy => Box::new(PerfFluctuation::heavy(fleet.len(), seeds)),
        FluctuationKind::Custom { sigma, theta } => {
            Box::new(PerfFluctuation::new(fleet.len(), sigma, theta, seeds))
        }
    };
    let failures = FailureModel::new(config.failure_prob, config.max_retries, seeds);
    // Crash schedules run over the same horizon as migrations, sampled
    // as the run reaches them; straggler/lost-ack draws are pure
    // counter-RNG.
    let mut faults =
        FaultModel::new(config.faults, fleet.len(), SimTime(config.migration_horizon_secs), seeds);
    let faults_active = !config.faults.is_inert();
    let migrations = match config.migration {
        MigrationKind::None => MigrationModel::none(),
        MigrationKind::Poisson { rate_per_hour, min_downtime_secs, max_downtime_secs } => {
            MigrationModel::poisson(
                fleet.len(),
                rate_per_hour,
                SimTime(config.migration_horizon_secs),
                SimTime(min_downtime_secs),
                SimTime(max_downtime_secs),
                seeds,
            )
        }
    };

    arena.reset();
    let SimArena {
        sim,
        states,
        retries,
        placed_on,
        running_on,
        vm_faults,
        blacklisted,
        free_pes,
        vm_busy_secs,
        ready,
        idle,
        repl_groups,
        repl_seq,
        repl_pending,
    } = arena;

    tracer.emit_with(|| TraceEvent::SimStart { activations: n as u32, vms: fleet.len() as u32 });
    // Wall-clock phase timers (opt-in via `Tracer::with_timing`; both
    // are `None`/0 and cost nothing otherwise). `sim.total` spans the
    // whole simulation; `sim.sched` accumulates the scheduler-facing
    // share of it across every scheduling pass.
    let sim_t0 = tracer.phase_start();
    let mut sched_wall_secs = 0.0f64;

    // Per-activation state; the roots start out ready.
    states.extend((0..n).map(|i| AcState::Locked { remaining_parents: cache.in_degree(i) }));
    for i in (0..n).filter(|&i| cache.in_degree(i) == 0) {
        make_ready(states, ready, i, SimTime::ZERO);
    }
    retries.resize(n, 0);
    placed_on.resize(n, None);
    running_on.resize(n, None);
    vm_faults.resize(fleet.len(), 0);
    blacklisted.resize(fleet.len(), false);

    // Per-VM free elements. With a provisioning delay, elements come
    // online only when the VM's boot completes (staggered ±50 % per VM
    // like real EC2 launch-time spread).
    let booting = config.vm_boot_secs > 0.0;
    if booting {
        free_pes.resize(fleet.len(), 0);
    } else {
        free_pes.extend(fleet.iter().map(|(_, vm)| vm.vm_type.pes));
    }
    vm_busy_secs.resize(fleet.len(), 0.0);

    let mut history = history_seed.cloned().unwrap_or_else(|| ExecHistory::new(fleet.len()));
    if history.vm_count() != fleet.len() {
        return Err(Error::Simulation("seed history sized for a different fleet".into()));
    }

    let mut plan = Plan::empty(n);
    let mut records: Vec<ActivationRecord> = Vec::with_capacity(n);
    let mut remaining = n; // activations not yet Done
    let mut workflow_failed = false;
    let mut running: usize = 0; // attempts currently occupying a PE
    let mut stats = FaultStats::default();
    let mut repl = ReplState::new(
        n,
        config.replication.is_active(),
        cache,
        repl_groups,
        repl_seq,
        repl_pending,
    );

    if booting {
        use rand::Rng as _;
        let mut boot_rng = seeds.rng_for("vm-boot", 0);
        for (vm_id, vm) in fleet.iter() {
            let jitter: f64 = boot_rng.gen_range(0.5..1.5);
            sim.schedule(
                SimTime(config.vm_boot_secs * jitter),
                Ev::VmReady { vm: vm_id, pes: vm.vm_type.pes },
            )?;
        }
    }

    // Seed each VM's first crash; the rest of its schedule is chained
    // as crashes fire (no crash at all when crashes are off).
    for (vm_id, _) in fleet.iter() {
        if let Some(t0) = faults.crash(vm_id, 0) {
            sim.schedule(t0, Ev::Crash { vm: vm_id, idx: 0 })?;
        }
    }

    // Initial scheduling pass at t = 0.
    let pass_t0 = tracer.phase_start();
    scheduling_pass(
        sim,
        cache,
        fleet,
        scheduler,
        config,
        states,
        free_pes,
        &mut plan,
        &history,
        placed_on,
        fluct.as_mut(),
        &failures,
        &faults,
        &migrations,
        retries,
        vm_busy_secs,
        workflow_failed,
        ready,
        idle,
        running_on,
        &mut running,
        blacklisted,
        &mut stats,
        &mut repl,
        workflow,
        tracer,
    )?;
    if let Some(t0) = pass_t0 {
        sched_wall_secs += t0.elapsed().as_secs_f64();
    }

    let mut processed: u64 = 0;
    loop {
        if processed >= config.max_events {
            return Err(Error::Simulation(format!(
                "exceeded {} events; runaway simulation?",
                config.max_events
            )));
        }
        let ev = match sim.step() {
            StepOutcome::Idle => break,
            StepOutcome::Event(ev) => ev,
        };
        processed += 1;
        let now = sim.now();
        match ev {
            Ev::VmReady { vm, pes } => {
                free_pes[vm.index()] += pes;
                tracer.emit_with(|| TraceEvent::VmReady {
                    t: now.as_secs(),
                    vm: vm.index() as u32,
                    pes,
                });
            }
            Ev::Finished { ac, vm, started_at, ready_at, attempt, failed } if repl.active => {
                // Replication-aware completion: an attempt is live
                // while its `(attempt, vm)` pair is still in the
                // activation's group. The first *successful* finisher
                // wins the race and cancels every surviving sibling;
                // failed attempts just leave the group, and only the
                // last one out triggers the retry machinery.
                let i = ac.index();
                let live = states[i] == AcState::Running
                    && repl.groups[i].iter().any(|a| a.attempt == attempt && a.vm == vm);
                if live {
                    let v = vm.index();
                    let te = (now - started_at).as_secs();
                    let tf = (started_at - ready_at).as_secs().max(0.0);
                    tracer.emit_with(|| TraceEvent::Finish {
                        t: now.as_secs(),
                        ac: i as u32,
                        vm: v as u32,
                        attempt,
                        exec_secs: te,
                        queue_secs: tf,
                        failed,
                    });
                    free_pes[v] += 1;
                    vm_busy_secs[v] += te;
                    running -= 1;
                    repl.groups[i].retain(|a| !(a.attempt == attempt && a.vm == vm));
                    history.record(vm, te, tf);
                    scheduler.on_completion(
                        &CompletionInfo {
                            activation: ac,
                            vm,
                            queue_secs: tf,
                            exec_secs: te,
                            finished_at: now,
                            attempt,
                            failed,
                        },
                        &history,
                    );

                    if failed {
                        if repl.groups[i].is_empty() {
                            // The whole group failed: normal retry.
                            running_on[i] = None;
                            repl.resolve(i, now, false, true);
                            if retries[i] < config.max_retries && !workflow_failed {
                                retries[i] += 1;
                                stats.retries += 1;
                                tracer.emit_with(|| TraceEvent::Retry {
                                    t: now.as_secs(),
                                    ac: i as u32,
                                    next_attempt: retries[i],
                                });
                                let backoff = config.faults.backoff_secs(retries[i]);
                                if backoff > 0.0 {
                                    states[i] = AcState::Waiting;
                                    sim.schedule_in(SimTime(backoff), Ev::Wake { ac })?;
                                } else {
                                    make_ready(states, ready, i, now);
                                }
                            } else {
                                states[i] = AcState::Failed;
                                workflow_failed = true;
                            }
                        }
                        // else: siblings still racing — no retry yet.
                    } else {
                        // Winner. Cancel every surviving sibling,
                        // billing its occupied PE-seconds as waste.
                        for k in 0..repl.groups[i].len() {
                            let a = repl.groups[i][k];
                            let cv = a.vm.index();
                            let billed = (now - a.started_at).as_secs();
                            tracer.emit_with(|| TraceEvent::Cancel {
                                t: now.as_secs(),
                                ac: i as u32,
                                vm: cv as u32,
                                attempt: a.attempt,
                            });
                            free_pes[cv] += 1;
                            vm_busy_secs[cv] += billed;
                            running -= 1;
                            repl.stats.cancelled += 1;
                            repl.add_waste(i, billed);
                        }
                        repl.groups[i].clear();
                        running_on[i] = None;
                        if attempt >= REPLICA_ATTEMPT_BASE {
                            repl.stats.replica_wins += 1;
                        }
                        repl.resolve(i, now, attempt >= REPLICA_ATTEMPT_BASE, false);
                        states[i] = AcState::Done;
                        placed_on[i] = Some(vm);
                        remaining -= 1;
                        records.push(ActivationRecord {
                            activation: ac,
                            vm,
                            ready_at,
                            started_at,
                            finished_at: now,
                            retries: retries[i],
                        });
                        for child in workflow.children(ac) {
                            let c = child.index();
                            if let AcState::Locked { remaining_parents } = &mut states[c] {
                                *remaining_parents -= 1;
                                if *remaining_parents == 0 {
                                    make_ready(states, ready, c, now);
                                }
                            }
                        }
                    }
                }
            }
            Ev::Finished { ac, vm, started_at, ready_at, attempt, failed } => {
                let i = ac.index();
                // A completion is live only while this attempt is
                // still the one the engine believes is running: crash
                // orphaning bumps `retries`, so completions from a
                // dead VM arrive stale and are dropped wholly (no PE,
                // busy-time or history bookkeeping).
                let live = states[i] == AcState::Running
                    && attempt == retries[i]
                    && running_on[i] == Some(vm);
                if live {
                    running_on[i] = None;
                    running -= 1;
                    let te = (now - started_at).as_secs();
                    let tf = (started_at - ready_at).as_secs().max(0.0);
                    tracer.emit_with(|| TraceEvent::Finish {
                        t: now.as_secs(),
                        ac: i as u32,
                        vm: vm.index() as u32,
                        attempt,
                        exec_secs: te,
                        queue_secs: tf,
                        failed,
                    });
                    free_pes[vm.index()] += 1;
                    vm_busy_secs[vm.index()] += te;
                    history.record(vm, te, tf);
                    scheduler.on_completion(
                        &CompletionInfo {
                            activation: ac,
                            vm,
                            queue_secs: tf,
                            exec_secs: te,
                            finished_at: now,
                            attempt,
                            failed,
                        },
                        &history,
                    );

                    if failed {
                        if retries[i] < config.max_retries && !workflow_failed {
                            // Retry: the activation re-enters the
                            // ready queue, after backoff if enabled.
                            retries[i] += 1;
                            stats.retries += 1;
                            tracer.emit_with(|| TraceEvent::Retry {
                                t: now.as_secs(),
                                ac: i as u32,
                                next_attempt: retries[i],
                            });
                            let backoff = config.faults.backoff_secs(retries[i]);
                            if backoff > 0.0 {
                                states[i] = AcState::Waiting;
                                sim.schedule_in(SimTime(backoff), Ev::Wake { ac })?;
                            } else {
                                make_ready(states, ready, i, now);
                            }
                        } else {
                            states[i] = AcState::Failed;
                            workflow_failed = true;
                        }
                    } else {
                        states[i] = AcState::Done;
                        placed_on[i] = Some(vm);
                        remaining -= 1;
                        records.push(ActivationRecord {
                            activation: ac,
                            vm,
                            ready_at,
                            started_at,
                            finished_at: now,
                            retries: retries[i],
                        });
                        // Unlock children.
                        for child in workflow.children(ac) {
                            let c = child.index();
                            if let AcState::Locked { remaining_parents } = &mut states[c] {
                                *remaining_parents -= 1;
                                if *remaining_parents == 0 {
                                    make_ready(states, ready, c, now);
                                }
                            }
                        }
                    }
                }
            }
            Ev::Crash { vm, idx } => {
                let v = vm.index();
                if !blacklisted[v] {
                    tracer.emit_with(|| TraceEvent::Fault {
                        t: now.as_secs(),
                        kind: "crash",
                        ac: -1,
                        vm: v as u32,
                    });
                    stats.crashes += 1;
                    // Everything on the VM — free elements and the
                    // elements held by in-flight attempts — comes back
                    // at repair time; the attempts themselves are lost.
                    let mut restore = free_pes[v];
                    free_pes[v] = 0;
                    if repl.active {
                        // Group-aware orphaning: only the attempts on
                        // the crashed VM are lost; surviving siblings
                        // keep racing and no retry fires unless the
                        // crash drained the whole group.
                        for i in 0..n {
                            if states[i] != AcState::Running {
                                continue;
                            }
                            // At most one attempt per VM per group by
                            // construction (replica placement skips
                            // VMs already hosting the group).
                            let Some(pos) = repl.groups[i].iter().position(|a| a.vm == vm) else {
                                continue;
                            };
                            repl.groups[i].remove(pos);
                            restore += 1;
                            running -= 1;
                            stats.orphaned += 1;
                            tracer.emit_with(|| TraceEvent::Fault {
                                t: now.as_secs(),
                                kind: "crash",
                                ac: i as i64,
                                vm: v as u32,
                            });
                            if repl.groups[i].is_empty() {
                                running_on[i] = None;
                                repl.resolve(i, now, false, true);
                                if retries[i] < config.max_retries && !workflow_failed {
                                    retries[i] += 1;
                                    stats.reschedules += 1;
                                    tracer.emit_with(|| TraceEvent::Reschedule {
                                        t: now.as_secs(),
                                        ac: i as u32,
                                        vm: v as u32,
                                        next_attempt: retries[i],
                                    });
                                    let backoff = config.faults.backoff_secs(retries[i]);
                                    if backoff > 0.0 {
                                        states[i] = AcState::Waiting;
                                        sim.schedule_in(
                                            SimTime(backoff),
                                            Ev::Wake { ac: ActivationId::from_index(i) },
                                        )?;
                                    } else {
                                        make_ready(states, ready, i, now);
                                    }
                                } else {
                                    states[i] = AcState::Failed;
                                    workflow_failed = true;
                                }
                            }
                        }
                    }
                    for i in 0..n {
                        if repl.active {
                            // Handled by the group-aware loop above.
                            break;
                        }
                        if states[i] == AcState::Running && running_on[i] == Some(vm) {
                            restore += 1;
                            running -= 1;
                            running_on[i] = None;
                            stats.orphaned += 1;
                            tracer.emit_with(|| TraceEvent::Fault {
                                t: now.as_secs(),
                                kind: "crash",
                                ac: i as i64,
                                vm: v as u32,
                            });
                            if retries[i] < config.max_retries && !workflow_failed {
                                retries[i] += 1;
                                stats.reschedules += 1;
                                tracer.emit_with(|| TraceEvent::Reschedule {
                                    t: now.as_secs(),
                                    ac: i as u32,
                                    vm: v as u32,
                                    next_attempt: retries[i],
                                });
                                let backoff = config.faults.backoff_secs(retries[i]);
                                if backoff > 0.0 {
                                    states[i] = AcState::Waiting;
                                    sim.schedule_in(
                                        SimTime(backoff),
                                        Ev::Wake { ac: ActivationId::from_index(i) },
                                    )?;
                                } else {
                                    make_ready(states, ready, i, now);
                                }
                            } else {
                                states[i] = AcState::Failed;
                                workflow_failed = true;
                            }
                        }
                    }
                    vm_faults[v] += 1;
                    if config.faults.blacklist_after > 0
                        && vm_faults[v] >= config.faults.blacklist_after
                    {
                        blacklisted[v] = true;
                        stats.blacklisted += 1;
                        tracer.emit_with(|| TraceEvent::Blacklist {
                            t: now.as_secs(),
                            vm: v as u32,
                            faults: vm_faults[v],
                        });
                    } else {
                        sim.schedule_in(
                            SimTime(config.faults.repair_secs),
                            Ev::Repair { vm, pes: restore },
                        )?;
                        if let Some(t_next) = faults.crash(vm, idx + 1) {
                            sim.schedule(t_next, Ev::Crash { vm, idx: idx + 1 })?;
                        }
                    }
                }
            }
            Ev::Repair { vm, pes } => {
                let v = vm.index();
                if !blacklisted[v] {
                    free_pes[v] += pes;
                    stats.recoveries += 1;
                    tracer.emit_with(|| TraceEvent::Recover {
                        t: now.as_secs(),
                        vm: v as u32,
                        pes,
                    });
                }
            }
            Ev::TimedOut { ac, vm, started_at, ready_at, attempt } if repl.active => {
                // Group-aware timeout: the timed-out attempt dies and
                // is billed like a failed completion, but surviving
                // siblings keep racing; the reschedule machinery only
                // fires when the group drains.
                let i = ac.index();
                let live = states[i] == AcState::Running
                    && repl.groups[i].iter().any(|a| a.attempt == attempt && a.vm == vm);
                if live {
                    let v = vm.index();
                    let te = (now - started_at).as_secs();
                    let tf = (started_at - ready_at).as_secs().max(0.0);
                    tracer.emit_with(|| TraceEvent::Fault {
                        t: now.as_secs(),
                        kind: "timeout",
                        ac: i as i64,
                        vm: v as u32,
                    });
                    stats.timeouts += 1;
                    free_pes[v] += 1;
                    vm_busy_secs[v] += te;
                    running -= 1;
                    repl.groups[i].retain(|a| !(a.attempt == attempt && a.vm == vm));
                    history.record(vm, te, tf);
                    scheduler.on_completion(
                        &CompletionInfo {
                            activation: ac,
                            vm,
                            queue_secs: tf,
                            exec_secs: te,
                            finished_at: now,
                            attempt,
                            failed: true,
                        },
                        &history,
                    );
                    vm_faults[v] += 1;
                    if config.faults.blacklist_after > 0
                        && vm_faults[v] >= config.faults.blacklist_after
                        && !blacklisted[v]
                    {
                        blacklisted[v] = true;
                        stats.blacklisted += 1;
                        tracer.emit_with(|| TraceEvent::Blacklist {
                            t: now.as_secs(),
                            vm: v as u32,
                            faults: vm_faults[v],
                        });
                    }
                    if repl.groups[i].is_empty() {
                        running_on[i] = None;
                        repl.resolve(i, now, false, true);
                        if retries[i] < config.max_retries && !workflow_failed {
                            retries[i] += 1;
                            stats.reschedules += 1;
                            tracer.emit_with(|| TraceEvent::Reschedule {
                                t: now.as_secs(),
                                ac: i as u32,
                                vm: v as u32,
                                next_attempt: retries[i],
                            });
                            let backoff = config.faults.backoff_secs(retries[i]);
                            if backoff > 0.0 {
                                states[i] = AcState::Waiting;
                                sim.schedule_in(SimTime(backoff), Ev::Wake { ac })?;
                            } else {
                                make_ready(states, ready, i, now);
                            }
                        } else {
                            states[i] = AcState::Failed;
                            workflow_failed = true;
                        }
                    }
                }
            }
            Ev::TimedOut { ac, vm, started_at, ready_at, attempt } => {
                let i = ac.index();
                let live = states[i] == AcState::Running
                    && attempt == retries[i]
                    && running_on[i] == Some(vm);
                if live {
                    let v = vm.index();
                    // The attempt consumed the VM for the whole
                    // timeout window, so busy time, history and the
                    // scheduler all observe it as a failed attempt —
                    // the RL penalty hook fires through the normal
                    // completion path.
                    let te = (now - started_at).as_secs();
                    let tf = (started_at - ready_at).as_secs().max(0.0);
                    tracer.emit_with(|| TraceEvent::Fault {
                        t: now.as_secs(),
                        kind: "timeout",
                        ac: i as i64,
                        vm: v as u32,
                    });
                    stats.timeouts += 1;
                    free_pes[v] += 1;
                    vm_busy_secs[v] += te;
                    running_on[i] = None;
                    running -= 1;
                    history.record(vm, te, tf);
                    scheduler.on_completion(
                        &CompletionInfo {
                            activation: ac,
                            vm,
                            queue_secs: tf,
                            exec_secs: te,
                            finished_at: now,
                            attempt,
                            failed: true,
                        },
                        &history,
                    );
                    vm_faults[v] += 1;
                    if config.faults.blacklist_after > 0
                        && vm_faults[v] >= config.faults.blacklist_after
                        && !blacklisted[v]
                    {
                        blacklisted[v] = true;
                        stats.blacklisted += 1;
                        tracer.emit_with(|| TraceEvent::Blacklist {
                            t: now.as_secs(),
                            vm: v as u32,
                            faults: vm_faults[v],
                        });
                    }
                    if retries[i] < config.max_retries && !workflow_failed {
                        retries[i] += 1;
                        stats.reschedules += 1;
                        tracer.emit_with(|| TraceEvent::Reschedule {
                            t: now.as_secs(),
                            ac: i as u32,
                            vm: v as u32,
                            next_attempt: retries[i],
                        });
                        let backoff = config.faults.backoff_secs(retries[i]);
                        if backoff > 0.0 {
                            states[i] = AcState::Waiting;
                            sim.schedule_in(SimTime(backoff), Ev::Wake { ac })?;
                        } else {
                            make_ready(states, ready, i, now);
                        }
                    } else {
                        states[i] = AcState::Failed;
                        workflow_failed = true;
                    }
                }
            }
            Ev::Wake { ac } => {
                let i = ac.index();
                if states[i] == AcState::Waiting {
                    make_ready(states, ready, i, now);
                }
            }
        }

        // With faults active the heap can hold crash/repair events far
        // beyond the workflow's lifetime; stop as soon as the outcome
        // is decided (success, or failure with all attempts drained).
        // Gated so fault-free runs keep their historical drain
        // semantics byte-for-byte.
        if faults_active && (remaining == 0 || (workflow_failed && running == 0)) {
            break;
        }

        let pass_t0 = tracer.phase_start();
        scheduling_pass(
            sim,
            cache,
            fleet,
            scheduler,
            config,
            states,
            free_pes,
            &mut plan,
            &history,
            placed_on,
            fluct.as_mut(),
            &failures,
            &faults,
            &migrations,
            retries,
            vm_busy_secs,
            workflow_failed,
            ready,
            idle,
            running_on,
            &mut running,
            blacklisted,
            &mut stats,
            &mut repl,
            workflow,
            tracer,
        )?;
        if let Some(t0) = pass_t0 {
            sched_wall_secs += t0.elapsed().as_secs_f64();
        }
    }

    let success = remaining == 0 && !workflow_failed;
    let makespan = sim.now();
    if tracer.timing_enabled() {
        tracer.emit_phase_secs("sim.sched", sched_wall_secs);
        tracer.emit_phase("sim.total", sim_t0);
    }
    tracer.emit_with(|| TraceEvent::SimEnd {
        t: makespan.as_secs(),
        success,
        events: processed,
        queue_pushes: sim.pushes(),
        max_queue_depth: sim.max_pending() as u64,
    });
    let result = SimResult {
        makespan,
        success,
        records,
        plan,
        history,
        vm_busy_secs: vm_busy_secs.clone(),
        events_processed: processed,
        fault_stats: stats,
        repl_stats: repl.stats,
        repl_decisions: repl.decisions,
    };
    scheduler.on_episode_end(&result);
    Ok(result)
}

/// Move activation `i` into [`AcState::Ready`] — the only way in — and
/// with it into `ready`, the id-sorted set [`SchedulerContext::ready`]
/// shows the scheduler. A binary-search insert: the set is kept across
/// the episode, not refilled from `states` at every consultation.
fn make_ready(states: &mut [AcState], ready: &mut Vec<ActivationId>, i: usize, since: SimTime) {
    states[i] = AcState::Ready { since };
    let ac = ActivationId::from_index(i);
    if let Err(pos) = ready.binary_search(&ac) {
        ready.insert(pos, ac);
    }
}

/// While the workflow is *available*, consult the scheduler and apply
/// assignments. When `halted` (a terminal failure occurred), no new
/// work is started — running activations just drain.
///
/// `ready` is maintained, not rebuilt: [`make_ready`] is its only way
/// in and the `Assign` arm below its only way out, so a consultation
/// costs O(|VM|) for the idle scan plus O(log n) for the set, where
/// scanning every activation state was O(n). Debug builds check the set
/// against that scan at every consultation.
#[allow(clippy::too_many_arguments)]
fn scheduling_pass(
    sim: &mut Simulation<Ev>,
    cache: &WorkflowCache,
    fleet: &Fleet,
    scheduler: &mut dyn Scheduler,
    config: &SimConfig,
    states: &mut [AcState],
    free_pes: &mut [u32],
    plan: &mut Plan,
    history: &ExecHistory,
    placed_on: &[Option<VmId>],
    fluct: &mut dyn FluctuationModel,
    failures: &FailureModel,
    faults: &FaultModel,
    migrations: &MigrationModel,
    retries: &[u32],
    vm_busy_secs: &[f64],
    halted: bool,
    ready: &mut Vec<ActivationId>,
    idle: &mut Vec<(VmId, u32)>,
    running_on: &mut [Option<VmId>],
    running: &mut usize,
    blacklisted: &[bool],
    stats: &mut FaultStats,
    repl: &mut ReplState,
    workflow: &Workflow,
    tracer: &mut Tracer<'_>,
) -> Result<()> {
    if halted {
        return Ok(());
    }
    let mut first_consultation = true;
    loop {
        debug_assert!(
            ready.iter().copied().eq(states
                .iter()
                .enumerate()
                .filter(|&(_i, s)| matches!(s, AcState::Ready { .. }))
                .map(|(i, _s)| ActivationId::from_index(i))),
            "ready set {ready:?} drifted from the activation states"
        );
        if ready.is_empty() {
            return Ok(()); // workflow is *unavailable*: implicit do-nothing
        }
        idle.clear();
        idle.extend(
            free_pes
                .iter()
                .enumerate()
                .filter(|&(i, &f)| f > 0 && !blacklisted[i])
                .map(|(i, &f)| (VmId::from_index(i), f)),
        );
        if idle.is_empty() {
            return Ok(()); // nothing idle: unavailable too
        }
        if first_consultation {
            first_consultation = false;
            tracer.emit_with(|| TraceEvent::Sched {
                t: sim.now().as_secs(),
                ready: ready.len() as u32,
                idle_pes: idle.iter().map(|&(_, f)| f).sum(),
            });
        }
        let ctx =
            SchedulerContext { now: sim.now(), workflow, fleet, ready, idle_slots: idle, history };
        match scheduler.decide(&ctx) {
            Decision::DoNothing => return Ok(()),
            Decision::Assign { activation, vm } => {
                let i = activation.index();
                let since = match states.get(i) {
                    Some(AcState::Ready { since }) => *since,
                    _ => {
                        return Err(Error::InvalidPlan(format!(
                            "scheduler assigned non-ready activation {activation}"
                        )))
                    }
                };
                let v = vm.index();
                if v >= free_pes.len() || free_pes[v] == 0 {
                    return Err(Error::InvalidPlan(format!(
                        "scheduler assigned {activation} to busy/unknown {vm}"
                    )));
                }
                // The one way out of `Ready` (and so out of `ready`).
                let Ok(pos) = ready.binary_search(&activation) else {
                    return Err(Error::InvalidPlan(format!(
                        "scheduler assigned {activation}, which is ready but not in the ready set"
                    )));
                };
                ready.remove(pos);
                free_pes[v] -= 1;
                states[i] = AcState::Running;
                plan.assign(activation, vm);

                let now = sim.now();
                tracer.emit_with(|| TraceEvent::Start {
                    t: now.as_secs(),
                    ac: i as u32,
                    vm: v as u32,
                    attempt: retries[i],
                    ready_since: since.as_secs(),
                });
                let mut duration = execution_secs(
                    cache,
                    workflow,
                    fleet,
                    config,
                    placed_on,
                    fluct,
                    migrations,
                    activation,
                    vm,
                    now,
                    vm_busy_secs[v],
                );
                let slowdown = faults.slowdown(activation, vm, retries[i]);
                if slowdown > 1.0 {
                    duration *= slowdown;
                    stats.stragglers += 1;
                    tracer.emit_with(|| TraceEvent::Fault {
                        t: now.as_secs(),
                        kind: "straggler",
                        ac: i as i64,
                        vm: v as u32,
                    });
                }
                running_on[i] = Some(vm);
                *running += 1;
                let timeout = config.faults.timeout_secs;
                if timeout > 0.0 && duration > timeout {
                    // The attempt is doomed upfront (both its length
                    // and the bound are known now), so the kill event
                    // replaces the completion event entirely.
                    sim.schedule_in(
                        SimTime(timeout),
                        Ev::TimedOut {
                            ac: activation,
                            vm,
                            started_at: now,
                            ready_at: since,
                            attempt: retries[i],
                        },
                    )?;
                } else {
                    let failed = config.failure_prob > 0.0
                        && failures.draw(activation, vm, retries[i]) == Attempt::Fails;
                    sim.schedule_in(
                        SimTime(duration),
                        Ev::Finished {
                            ac: activation,
                            vm,
                            started_at: now,
                            ready_at: since,
                            attempt: retries[i],
                            failed,
                        },
                    )?;
                }

                if repl.active {
                    // The primary's completion event is queued first,
                    // so exact finish-time ties resolve in its favor
                    // (the kernel pops same-time events FIFO).
                    repl.groups[i].clear();
                    repl.groups[i].push(RepAttempt { attempt: retries[i], vm, started_at: now });
                    let pressure = blacklisted.iter().filter(|&&b| b).count();
                    let features = ReplFeatures {
                        attempt: retries[i],
                        blacklist_frac: pressure as f64 / fleet.len() as f64,
                        slack_frac: if repl.cp_total > 0.0 {
                            (cache.rank(i) / repl.cp_total).clamp(0.0, 1.0)
                        } else {
                            0.0
                        },
                    };
                    let bucket = features.bucket();
                    let requested = config.replication.extra_replicas(&features);
                    let mut launched = 0u32;
                    // Replica placement: round-robin scan outward from
                    // the primary's VM, one replica per distinct VM
                    // (co-located replicas share the fault domain and
                    // hedge nothing).
                    let nv = fleet.len();
                    let mut offset = 1;
                    while launched < requested && offset < nv {
                        let cv = (v + offset) % nv;
                        offset += 1;
                        if blacklisted[cv]
                            || free_pes[cv] == 0
                            || repl.groups[i].iter().any(|a| a.vm.index() == cv)
                        {
                            continue;
                        }
                        let cvm = VmId::from_index(cv);
                        let attempt_id = REPLICA_ATTEMPT_BASE + repl.rep_seq[i];
                        repl.rep_seq[i] += 1;
                        free_pes[cv] -= 1;
                        *running += 1;
                        tracer.emit_with(|| TraceEvent::Replicate {
                            t: now.as_secs(),
                            ac: i as u32,
                            vm: cv as u32,
                            attempt: attempt_id,
                            ready_since: since.as_secs(),
                        });
                        let mut rdur = execution_secs(
                            cache,
                            workflow,
                            fleet,
                            config,
                            placed_on,
                            fluct,
                            migrations,
                            activation,
                            cvm,
                            now,
                            vm_busy_secs[cv],
                        );
                        let rslow = faults.slowdown(activation, cvm, attempt_id);
                        if rslow > 1.0 {
                            rdur *= rslow;
                            stats.stragglers += 1;
                            tracer.emit_with(|| TraceEvent::Fault {
                                t: now.as_secs(),
                                kind: "straggler",
                                ac: i as i64,
                                vm: cv as u32,
                            });
                        }
                        repl.groups[i].push(RepAttempt {
                            attempt: attempt_id,
                            vm: cvm,
                            started_at: now,
                        });
                        if timeout > 0.0 && rdur > timeout {
                            sim.schedule_in(
                                SimTime(timeout),
                                Ev::TimedOut {
                                    ac: activation,
                                    vm: cvm,
                                    started_at: now,
                                    ready_at: since,
                                    attempt: attempt_id,
                                },
                            )?;
                        } else {
                            let rfailed = config.failure_prob > 0.0
                                && failures.draw(activation, cvm, attempt_id) == Attempt::Fails;
                            sim.schedule_in(
                                SimTime(rdur),
                                Ev::Finished {
                                    ac: activation,
                                    vm: cvm,
                                    started_at: now,
                                    ready_at: since,
                                    attempt: attempt_id,
                                    failed: rfailed,
                                },
                            )?;
                        }
                        repl.stats.launched += 1;
                        launched += 1;
                    }
                    repl.pending[i] = Some(PendingDecision {
                        bucket: bucket as u8,
                        requested: requested as u8,
                        launched: launched as u8,
                        primary_secs: duration,
                        start_t: now,
                        waste_secs: 0.0,
                    });
                }
            }
        }
    }
}

/// Wall-clock seconds one attempt takes: stage-in transfers + compute
/// (scaled by the fluctuation factor) + migration stalls.
#[allow(clippy::too_many_arguments)]
fn execution_secs(
    cache: &WorkflowCache,
    workflow: &Workflow,
    fleet: &Fleet,
    config: &SimConfig,
    placed_on: &[Option<VmId>],
    fluct: &mut dyn FluctuationModel,
    migrations: &MigrationModel,
    ac: ActivationId,
    vm: VmId,
    now: SimTime,
    vm_busy_so_far_secs: f64,
) -> f64 {
    // Transfers: parent outputs materialized on other VMs must cross
    // the network; co-located files are free. Per-edge byte counts and
    // the producer-less stage-in volume are precomputed in the cache.
    let i = ac.index();
    let mut transfer_bytes: u64 = 0;
    for &(parent, bytes) in cache.parents(i) {
        if placed_on[parent as usize] != Some(vm) {
            transfer_bytes += bytes;
        }
    }
    if config.stage_in_inputs {
        // Workflow-input files (no producer) come from shared storage.
        transfer_bytes += cache.external_input_bytes(i);
    }
    let transfer_secs = transfer_bytes as f64 / config.bandwidth_bytes_per_sec;

    let vm_type = &fleet.vm(vm).vm_type;
    let base = vm_type.exec_secs(workflow.activations[ac].length_mi);
    let factor = fluct.factor(vm, now.as_secs());
    let mut compute_secs = base * factor;
    if config.burst_throttling && vm_type.baseline_fraction < 1.0 {
        let credits =
            vm_type.burst_credit_secs_per_pe * vm_type.pes as f64 * config.burst_credit_scale;
        if vm_busy_so_far_secs >= credits {
            // Credits exhausted: the whole execution runs at baseline.
            compute_secs /= vm_type.baseline_fraction;
        } else if vm_busy_so_far_secs + compute_secs > credits {
            // Burst covers only the head of the execution.
            let full_speed = credits - vm_busy_so_far_secs;
            let remainder = compute_secs - full_speed;
            compute_secs = full_speed + remainder / vm_type.baseline_fraction;
        }
    }

    let pre_stall = transfer_secs + compute_secs;
    let stall = migrations.stall_secs(vm, now, now + SimTime(pre_stall));
    pre_stall + stall
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

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

    fn montage() -> Workflow {
        workflow::montage50::montage50()
    }

    #[test]
    fn fifo_completes_montage() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let mut s = Fifo;
        let res = simulate(
            &wf,
            &fleet,
            &mut s,
            &SimConfig::deterministic(),
            SeedDerivation::new(1),
            None,
        )
        .unwrap();
        assert!(res.success);
        assert_eq!(res.records.len(), 50);
        assert!(res.plan.is_complete());
        assert!(res.makespan.as_secs() > 0.0);
    }

    #[test]
    fn makespan_at_least_critical_path_over_fastest_vm() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let mut s = Fifo;
        let res = simulate(
            &wf,
            &fleet,
            &mut s,
            &SimConfig::deterministic(),
            SeedDerivation::new(2),
            None,
        )
        .unwrap();
        // Fastest element is 1250 MIPS ⇒ lower bound = CP(ref secs) × 1000/1250.
        let bound = wf.reference_critical_path_secs() * (1000.0 / 1250.0);
        assert!(
            res.makespan.as_secs() >= bound - 1e-6,
            "makespan {} below bound {bound}",
            res.makespan
        );
    }

    #[test]
    fn dependencies_respected_in_records() {
        let wf = montage();
        let fleet = Fleet::paper_32_vcpus();
        let mut s = Fifo;
        let res = simulate(
            &wf,
            &fleet,
            &mut s,
            &SimConfig::deterministic(),
            SeedDerivation::new(3),
            None,
        )
        .unwrap();
        for rec in &res.records {
            for parent in wf.parents(rec.activation) {
                let p = res.record_for(parent).expect("parent must have completed");
                assert!(
                    p.finished_at <= rec.started_at + SimTime(1e-9),
                    "{} started before parent {} finished",
                    rec.activation,
                    parent
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let cfg = SimConfig::default(); // includes mild fluctuation
        let r1 = simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(7), None).unwrap();
        let r2 = simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(7), None).unwrap();
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.plan, r2.plan);
        let r3 = simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(8), None).unwrap();
        assert_ne!(r1.makespan, r3.makespan, "different seed should perturb");
    }

    #[test]
    fn certain_failure_marks_workflow_failed() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let mut cfg = SimConfig::deterministic();
        cfg.failure_prob = 1.0;
        cfg.max_retries = 1;
        let res = simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(4), None).unwrap();
        assert!(!res.success);
        assert!(res.records.len() < 50);
    }

    #[test]
    fn retries_allow_recovery_from_rare_failures() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let mut cfg = SimConfig::deterministic();
        cfg.failure_prob = 0.05;
        cfg.max_retries = 10;
        let res = simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(5), None).unwrap();
        assert!(res.success, "with generous retries the workflow completes");
        assert!(res.records.iter().any(|r| r.retries > 0) || res.events_processed == 50);
    }

    #[test]
    fn plan_replay_reproduces_assignments() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let cfg = SimConfig::deterministic();
        let first = simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(6), None).unwrap();
        let mut replay = crate::plan::FixedPlanScheduler::new(first.plan.clone());
        let second =
            simulate(&wf, &fleet, &mut replay, &cfg, SeedDerivation::new(6), None).unwrap();
        assert!(second.success);
        assert_eq!(first.plan, second.plan, "replay must follow the plan exactly");
    }

    /// Follows [`Fifo`] for `honest` consultations, then answers with
    /// whatever `lie` makes of the context.
    struct Hostile<F: FnMut(&SchedulerContext<'_>) -> Decision> {
        honest: u32,
        lie: F,
    }

    impl<F: FnMut(&SchedulerContext<'_>) -> Decision> Scheduler for Hostile<F> {
        fn name(&self) -> &str {
            "hostile"
        }
        fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
            if self.honest > 0 {
                self.honest -= 1;
                return Fifo.decide(ctx);
            }
            (self.lie)(ctx)
        }
    }

    #[test]
    fn hostile_assignments_are_invalid_plans_not_panics() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let cfg = SimConfig::deterministic();
        let run = |honest: u32, lie: &mut dyn FnMut(&SchedulerContext<'_>) -> Decision| {
            let mut s = Hostile { honest, lie };
            match simulate(&wf, &fleet, &mut s, &cfg, SeedDerivation::new(6), None) {
                Err(Error::InvalidPlan(why)) => why,
                other => panic!("expected InvalidPlan, got {other:?}"),
            }
        };
        let idle_vm = |ctx: &SchedulerContext<'_>| ctx.idle_slots[0].0;

        // The same activation twice in one pass: the second assignment
        // finds it running, no longer in the ready set.
        let mut taken = None;
        let why = run(0, &mut |ctx| {
            let activation = *taken.get_or_insert(ctx.ready[0]);
            Decision::Assign { activation, vm: idle_vm(ctx) }
        });
        assert!(why.contains("non-ready"), "{why}");

        // An id past the end of the workflow.
        let why = run(3, &mut |ctx| Decision::Assign {
            activation: ActivationId::from_index(wf.len() + 7),
            vm: idle_vm(ctx),
        });
        assert!(why.contains("non-ready"), "{why}");

        // A real activation that is still locked behind its parents.
        let why = run(3, &mut |ctx| {
            let locked = (0..wf.len())
                .map(ActivationId::from_index)
                .find(|ac| wf.parents(*ac).next().is_some() && !ctx.ready.contains(ac))
                .unwrap();
            Decision::Assign { activation: locked, vm: idle_vm(ctx) }
        });
        assert!(why.contains("non-ready"), "{why}");

        // A ready activation onto a VM that does not exist.
        let why = run(3, &mut |ctx| Decision::Assign {
            activation: ctx.ready[0],
            vm: VmId::from_index(fleet.len()),
        });
        assert!(why.contains("busy/unknown"), "{why}");
    }

    #[test]
    fn empty_fleet_rejected() {
        let wf = montage();
        let fleet = Fleet::new();
        let err = simulate(
            &wf,
            &fleet,
            &mut Fifo,
            &SimConfig::deterministic(),
            SeedDerivation::new(0),
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("no VMs"));
    }

    #[test]
    fn history_seed_carries_over() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let cfg = SimConfig::deterministic();
        let first = simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(9), None).unwrap();
        let res =
            simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(9), Some(&first.history))
                .unwrap();
        assert_eq!(res.history.total_samples(), 2 * first.history.total_samples());
    }

    #[test]
    fn migration_stalls_lengthen_makespan() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let base = SimConfig::deterministic();
        let quiet = simulate(&wf, &fleet, &mut Fifo, &base, SeedDerivation::new(10), None).unwrap();
        let mut noisy_cfg = SimConfig::deterministic();
        noisy_cfg.migration = MigrationKind::Poisson {
            rate_per_hour: 60.0,
            min_downtime_secs: 5.0,
            max_downtime_secs: 15.0,
        };
        let noisy =
            simulate(&wf, &fleet, &mut Fifo, &noisy_cfg, SeedDerivation::new(10), None).unwrap();
        assert!(noisy.makespan > quiet.makespan);
    }

    #[test]
    fn boot_delay_pushes_start_times_and_makespan() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let mut cfg = SimConfig::deterministic();
        let base = simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(20), None).unwrap();
        cfg.vm_boot_secs = 60.0;
        let delayed =
            simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(20), None).unwrap();
        assert!(delayed.success);
        // Nothing starts before the earliest possible boot (30 s with
        // the ±50 % stagger).
        for rec in &delayed.records {
            assert!(rec.started_at.as_secs() >= 30.0 - 1e-9);
        }
        assert!(delayed.makespan > base.makespan);
    }

    #[test]
    fn reused_arena_and_cache_match_fresh_simulate_bitwise() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let cache = WorkflowCache::new(&wf).unwrap();
        let mut arena = SimArena::new();
        // Mixed configs exercise boot events, fluctuation and failures
        // so the arena is left dirty in different ways between runs.
        let noisy = SimConfig {
            vm_boot_secs: 30.0,
            failure_prob: 0.05,
            max_retries: 10,
            ..SimConfig::default()
        };
        let configs = [SimConfig::deterministic(), noisy, SimConfig::default()];
        for round in 0..2 {
            for (c, cfg) in configs.iter().enumerate() {
                let seeds = SeedDerivation::new(40 + (round * 3 + c) as u64);
                let fresh = simulate(&wf, &fleet, &mut Fifo, cfg, seeds, None).unwrap();
                let reused =
                    simulate_cached(&wf, &cache, &fleet, &mut Fifo, cfg, seeds, None, &mut arena)
                        .unwrap();
                assert_eq!(fresh.makespan, reused.makespan);
                assert_eq!(fresh.plan, reused.plan);
                assert_eq!(fresh.records, reused.records);
                assert_eq!(fresh.vm_busy_secs, reused.vm_busy_secs);
                assert_eq!(fresh.events_processed, reused.events_processed);
            }
        }
    }

    #[test]
    fn mismatched_cache_is_rejected() {
        let wf = montage();
        let other = workflow::generators::layered::generate(
            &workflow::generators::layered::LayeredParams::default(),
        )
        .unwrap();
        let fleet = Fleet::paper_16_vcpus();
        let cache = WorkflowCache::new(&other).unwrap();
        if cache.len() == wf.len() {
            return; // degenerate: same size, check not applicable
        }
        let mut arena = SimArena::new();
        let err = simulate_cached(
            &wf,
            &cache,
            &fleet,
            &mut Fifo,
            &SimConfig::deterministic(),
            SeedDerivation::new(1),
            None,
            &mut arena,
        )
        .unwrap_err();
        assert!(err.to_string().contains("different workflow"));
    }

    #[test]
    fn phase_timers_are_opt_in_and_skipped_by_event_diff() {
        use obs::{EventDiff, MemSink, Tracer};
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let cfg = SimConfig::deterministic();
        let seeds = SeedDerivation::new(12);
        let mut plain = MemSink::new();
        simulate_traced(&wf, &fleet, &mut Fifo, &cfg, seeds, None, &mut Tracer::new(&mut plain))
            .unwrap();
        assert!(
            !plain.as_str().contains("\"ev\":\"phase\""),
            "default traces must stay wall-clock-free (byte reproducibility)"
        );
        let mut timed = MemSink::new();
        simulate_traced(
            &wf,
            &fleet,
            &mut Fifo,
            &cfg,
            seeds,
            None,
            &mut Tracer::new(&mut timed).with_timing(true),
        )
        .unwrap();
        let trace = timed.as_str();
        assert!(trace.contains("\"name\":\"sim.sched\""), "{trace}");
        assert!(trace.contains("\"name\":\"sim.total\""), "{trace}");
        // The event-level diff treats the timed trace as identical to
        // the plain one — phase lines are the only difference.
        assert!(matches!(
            obs::trace_diff_events(plain.as_str(), trace),
            EventDiff::Identical { .. }
        ));
    }

    #[test]
    fn crashes_orphan_reschedule_and_recover() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let mut cfg = SimConfig::deterministic();
        cfg.max_retries = 20;
        cfg.faults = cloud::FaultConfig {
            vm_mtbf_hours: 0.02, // ~one crash per VM per 72 s
            repair_secs: 10.0,
            ..cloud::FaultConfig::none()
        };
        let res = simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(31), None).unwrap();
        assert!(res.fault_stats.crashes > 0, "{:?}", res.fault_stats);
        assert!(res.fault_stats.recoveries > 0, "{:?}", res.fault_stats);
        assert!(res.fault_stats.orphaned > 0, "{:?}", res.fault_stats);
        assert_eq!(res.fault_stats.orphaned, res.fault_stats.reschedules);
        assert!(res.success, "generous retries must survive crashes");
        assert_eq!(res.records.len(), 50);
        // Work conservation: every activation completed exactly once.
        let mut seen = std::collections::HashSet::new();
        for r in &res.records {
            assert!(seen.insert(r.activation), "{} finished twice", r.activation);
        }
    }

    #[test]
    fn blacklist_after_repeated_crashes() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let mut cfg = SimConfig::deterministic();
        cfg.max_retries = 50;
        cfg.faults = cloud::FaultConfig {
            vm_mtbf_hours: 0.01,
            repair_secs: 5.0,
            blacklist_after: 2,
            ..cloud::FaultConfig::none()
        };
        let res = simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(32), None).unwrap();
        assert!(res.fault_stats.blacklisted > 0, "{:?}", res.fault_stats);
        assert!(res.fault_stats.blacklisted <= fleet.len() as u64);
    }

    #[test]
    fn tight_timeout_kills_attempts_and_fails_workflow() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let mut cfg = SimConfig::deterministic();
        cfg.faults = cloud::FaultConfig { timeout_secs: 0.5, ..cloud::FaultConfig::none() };
        let res = simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(33), None).unwrap();
        assert!(res.fault_stats.timeouts > 0, "{:?}", res.fault_stats);
        assert!(!res.success, "a 0.5 s timeout must exhaust someone's retries");
        // Timed-out attempts still bill the VM for the timeout window.
        assert!(res.vm_busy_secs.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn stragglers_slow_the_run_down() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let base = SimConfig::deterministic();
        let clean = simulate(&wf, &fleet, &mut Fifo, &base, SeedDerivation::new(34), None).unwrap();
        let mut cfg = SimConfig::deterministic();
        cfg.faults = cloud::FaultConfig {
            straggler_prob: 0.3,
            straggler_factor: 4.0,
            ..cloud::FaultConfig::none()
        };
        let slow = simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(34), None).unwrap();
        assert!(slow.fault_stats.stragglers > 0, "{:?}", slow.fault_stats);
        assert!(slow.makespan > clean.makespan);
        assert!(slow.success);
    }

    #[test]
    fn backoff_delays_retries_but_preserves_success() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let mut cfg = SimConfig::deterministic();
        cfg.failure_prob = 0.2;
        cfg.max_retries = 30;
        let immediate =
            simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(35), None).unwrap();
        cfg.faults = cloud::FaultConfig { backoff_base_secs: 10.0, ..cloud::FaultConfig::none() };
        let delayed =
            simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(35), None).unwrap();
        assert!(immediate.success && delayed.success);
        assert!(delayed.fault_stats.retries > 0);
        // Same pure failure draws, so the same retry pressure — but
        // each retry now sits out its backoff first.
        assert!(delayed.makespan > immediate.makespan);
    }

    #[test]
    fn fault_runs_are_seed_deterministic() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let cfg = SimConfig {
            failure_prob: 0.1,
            max_retries: 25,
            faults: cloud::FaultConfig {
                vm_mtbf_hours: 0.05,
                repair_secs: 20.0,
                straggler_prob: 0.1,
                straggler_factor: 2.0,
                timeout_secs: 2000.0,
                backoff_base_secs: 1.0,
                blacklist_after: 4,
                ..cloud::FaultConfig::none()
            },
            ..SimConfig::default()
        };
        let a = simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(36), None).unwrap();
        let b = simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(36), None).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.records, b.records);
        assert_eq!(a.fault_stats, b.fault_stats);
        let c = simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(37), None).unwrap();
        assert_ne!(a.makespan, c.makespan, "different seed should perturb fault runs");
    }

    #[test]
    fn reused_arena_matches_fresh_under_faults() {
        use obs::{MemSink, Tracer};
        use workflow::generators::montage::{generate, MontageParams};
        let fleet = Fleet::paper_16_vcpus();
        let cfg = SimConfig {
            max_retries: 20,
            faults: cloud::FaultConfig {
                vm_mtbf_hours: 0.05,
                repair_secs: 15.0,
                straggler_prob: 0.1,
                straggler_factor: 3.0,
                backoff_base_secs: 0.5,
                blacklist_after: 3,
                ..cloud::FaultConfig::none()
            },
            ..SimConfig::default()
        };
        let sized = |n| generate(&MontageParams::with_total_activations(n, 5).unwrap()).unwrap();
        let (large, small) = (sized(100), sized(20));
        let (large_cache, small_cache) =
            (WorkflowCache::new(&large).unwrap(), WorkflowCache::new(&small).unwrap());
        // One arena through every replication policy and back, and
        // through a smaller workflow and back: whatever a run leaves in
        // the arena — replication groups the `Off` runs never look at,
        // a hundred of them where the next run has twenty activations —
        // must not reach the next one.
        use cloud::ReplicationPolicy::{Off, Static};
        let learned = cloud::ReplicationPolicy::learned_heuristic;
        let rounds = [
            (&large, &large_cache, Off),
            (&large, &large_cache, Static { k: 2 }),
            (&large, &large_cache, learned()),
            (&large, &large_cache, Off),
            (&small, &small_cache, Static { k: 3 }),
            (&small, &small_cache, Off),
            (&large, &large_cache, learned()),
            (&large, &large_cache, Static { k: 2 }),
        ];
        let mut arena = SimArena::new();
        let mut replicas = 0;
        for (round, (wf, cache, replication)) in rounds.into_iter().enumerate() {
            let cfg = SimConfig { replication, ..cfg.clone() };
            let seeds = SeedDerivation::new(60 + round as u64);
            let (mut fresh_trace, mut reused_trace) = (MemSink::new(), MemSink::new());
            let fresh = simulate_traced(
                wf,
                &fleet,
                &mut Fifo,
                &cfg,
                seeds,
                None,
                &mut Tracer::new(&mut fresh_trace),
            )
            .unwrap();
            let reused = simulate_cached_traced(
                wf,
                cache,
                &fleet,
                &mut Fifo,
                &cfg,
                seeds,
                None,
                &mut arena,
                &mut Tracer::new(&mut reused_trace),
            )
            .unwrap();
            assert_eq!(fresh_trace.as_str(), reused_trace.as_str(), "round {round}");
            assert_eq!(fresh.makespan, reused.makespan, "round {round}");
            assert_eq!(fresh.success, reused.success, "round {round}");
            assert_eq!(fresh.plan, reused.plan, "round {round}");
            assert_eq!(fresh.records, reused.records, "round {round}");
            assert_eq!(fresh.vm_busy_secs, reused.vm_busy_secs, "round {round}");
            assert_eq!(fresh.fault_stats, reused.fault_stats, "round {round}");
            assert_eq!(fresh.repl_stats, reused.repl_stats, "round {round}");
            assert_eq!(fresh.repl_decisions, reused.repl_decisions, "round {round}");
            assert_eq!(fresh.events_processed, reused.events_processed, "round {round}");
            assert_eq!(
                cfg.replication.is_active(),
                reused.repl_stats.launched > 0,
                "round {round}"
            );
            replicas += reused.repl_stats.launched;
        }
        assert!(replicas > 100, "the replicating rounds must fill the groups: {replicas}");
    }

    #[test]
    fn crashes_are_the_schedule_and_stop_at_the_horizon() {
        use obs::{MemSink, Tracer};
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let mut cfg = SimConfig::deterministic();
        cfg.max_retries = 40;
        cfg.faults = cloud::FaultConfig {
            vm_mtbf_hours: 0.005, // ~one crash per VM per 18 s
            repair_secs: 4.0,
            ..cloud::FaultConfig::none()
        };
        // The horizon ends mid-workflow: every crash of the schedule
        // fires, none after it, and the run completes.
        cfg.migration_horizon_secs = 40.0;
        let seeds = SeedDerivation::new(38);
        let mut sink = MemSink::new();
        let res =
            simulate_traced(&wf, &fleet, &mut Fifo, &cfg, seeds, None, &mut Tracer::new(&mut sink))
                .unwrap();
        assert!(res.success);
        assert!(res.makespan.as_secs() > cfg.migration_horizon_secs, "{}", res.makespan);

        // What the engine was handed one instant at a time, against the
        // definition: the whole schedule of every VM, sampled up front.
        let horizon = SimTime(cfg.migration_horizon_secs);
        let schedule = FaultModel::new(cfg.faults, fleet.len(), horizon, seeds);
        let mut fired: Vec<Vec<SimTime>> = vec![Vec::new(); fleet.len()];
        for line in sink.as_str().lines().filter(|l| l.contains("\"kind\":\"crash\",\"ac\":-1,")) {
            // `t` is printed shortest-round-trip, so it parses back exactly.
            let vm: usize = field(line, "vm").parse().unwrap();
            fired[vm].push(SimTime(field(line, "t").parse().unwrap()));
        }
        for (vm, fired) in fired.iter().enumerate() {
            assert_eq!(fired, &schedule.crashes(VmId::from_index(vm)), "vm {vm}");
        }
        assert_eq!(res.fault_stats.crashes as usize, schedule.crash_count());
        assert!(schedule.crash_count() >= fleet.len(), "{}", schedule.crash_count());
    }

    /// The text of scalar field `key` in one JSONL trace line.
    fn field<'l>(line: &'l str, key: &str) -> &'l str {
        let pat = format!("\"{key}\":");
        let rest = &line[line.find(&pat).unwrap() + pat.len()..];
        &rest[..rest.find([',', '}']).unwrap()]
    }

    fn heavy_faults() -> SimConfig {
        let mut cfg = SimConfig::deterministic();
        cfg.max_retries = 20;
        cfg.faults = cloud::FaultConfig {
            straggler_prob: 0.25,
            straggler_factor: 6.0,
            vm_mtbf_hours: 0.05,
            repair_secs: 20.0,
            ..cloud::FaultConfig::none()
        };
        cfg
    }

    #[test]
    fn replication_runs_are_byte_deterministic() {
        use obs::{MemSink, Tracer};
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let mut cfg = heavy_faults();
        cfg.replication = cloud::ReplicationPolicy::Static { k: 2 };
        let run = || {
            let mut sink = MemSink::new();
            let res = simulate_traced(
                &wf,
                &fleet,
                &mut Fifo,
                &cfg,
                SeedDerivation::new(2019),
                None,
                &mut Tracer::new(&mut sink),
            )
            .unwrap();
            (res, sink.as_str().to_string())
        };
        let (a, ta) = run();
        let (b, tb) = run();
        assert_eq!(ta, tb, "replicated traces must be byte-identical");
        assert_eq!(a.repl_stats, b.repl_stats);
        assert_eq!(a.repl_decisions, b.repl_decisions);
        assert!(a.repl_stats.launched > 0, "{:?}", a.repl_stats);
        assert!(ta.contains("\"ev\":\"replicate\""));
    }

    #[test]
    fn static_replication_hedges_stragglers() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let off = heavy_faults();
        let mut rep = heavy_faults();
        rep.replication = cloud::ReplicationPolicy::Static { k: 2 };
        let seeds = SeedDerivation::new(2019);
        let base = simulate(&wf, &fleet, &mut Fifo, &off, seeds, None).unwrap();
        let hedged = simulate(&wf, &fleet, &mut Fifo, &rep, seeds, None).unwrap();
        assert!(base.success && hedged.success);
        assert_eq!(base.repl_stats, crate::result::ReplStats::default());
        assert!(base.repl_decisions.is_empty());
        assert!(hedged.repl_stats.launched > 0);
        assert!(hedged.repl_stats.replica_wins > 0, "{:?}", hedged.repl_stats);
        assert!(hedged.repl_stats.waste_secs > 0.0);
        assert!(
            hedged.makespan < base.makespan,
            "replication must beat {} (got {})",
            base.makespan,
            hedged.makespan
        );
        // Work conservation: every activation still completes once.
        let mut seen = std::collections::HashSet::new();
        for r in &hedged.records {
            assert!(seen.insert(r.activation), "{} finished twice", r.activation);
        }
        assert_eq!(hedged.records.len(), 50);
    }

    #[test]
    fn learned_head_is_cheaper_than_static() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let mut st = heavy_faults();
        st.replication = cloud::ReplicationPolicy::Static { k: 2 };
        let mut ln = heavy_faults();
        ln.replication = cloud::ReplicationPolicy::learned_heuristic();
        let seeds = SeedDerivation::new(2019);
        let s = simulate(&wf, &fleet, &mut Fifo, &st, seeds, None).unwrap();
        let l = simulate(&wf, &fleet, &mut Fifo, &ln, seeds, None).unwrap();
        assert!(s.success && l.success);
        assert!(
            l.repl_stats.launched < s.repl_stats.launched,
            "learned ({}) must launch fewer replicas than static-2 ({})",
            l.repl_stats.launched,
            s.repl_stats.launched
        );
    }

    #[test]
    fn cancelled_attempts_never_finish_in_trace() {
        use obs::{MemSink, Tracer};
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let mut cfg = heavy_faults();
        cfg.replication = cloud::ReplicationPolicy::Static { k: 3 };
        let mut sink = MemSink::new();
        let res = simulate_traced(
            &wf,
            &fleet,
            &mut Fifo,
            &cfg,
            SeedDerivation::new(7),
            None,
            &mut Tracer::new(&mut sink),
        )
        .unwrap();
        let trace = sink.as_str();
        let key_of = |line| (field(line, "ac"), field(line, "attempt"), field(line, "vm"));
        let mut cancelled = std::collections::HashSet::new();
        let mut launched = 0u64;
        for line in trace.lines() {
            if line.contains("\"ev\":\"cancel\"") {
                cancelled.insert(key_of(line));
            } else if line.contains("\"ev\":\"replicate\"") {
                launched += 1;
            }
        }
        assert_eq!(launched, res.repl_stats.launched);
        assert_eq!(cancelled.len() as u64, res.repl_stats.cancelled);
        for line in trace.lines() {
            if line.contains("\"ev\":\"finish\"") {
                assert!(
                    !cancelled.contains(&key_of(line)),
                    "cancelled attempt finished anyway: {line}"
                );
            }
        }
    }

    #[test]
    fn replication_decisions_are_consistent() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let mut cfg = heavy_faults();
        cfg.replication = cloud::ReplicationPolicy::Static { k: 2 };
        let res = simulate(&wf, &fleet, &mut Fifo, &cfg, SeedDerivation::new(11), None).unwrap();
        assert!(!res.repl_decisions.is_empty());
        let mut launched = 0u64;
        for d in &res.repl_decisions {
            assert!(d.launched <= d.requested);
            assert!((d.bucket as usize) < cloud::REPL_STATES);
            assert!(d.group_secs >= 0.0 && d.waste_secs >= 0.0);
            assert!(!(d.replica_won && d.group_failed));
            launched += u64::from(d.launched);
        }
        // Every launch belongs to a resolved or still-pending group.
        assert!(launched <= res.repl_stats.launched);
    }

    #[test]
    fn busy_secs_match_record_exec_times() {
        let wf = montage();
        let fleet = Fleet::paper_16_vcpus();
        let res = simulate(
            &wf,
            &fleet,
            &mut Fifo,
            &SimConfig::deterministic(),
            SeedDerivation::new(11),
            None,
        )
        .unwrap();
        let from_records: f64 = res.records.iter().map(|r| r.exec_secs()).sum();
        let from_vms: f64 = res.vm_busy_secs.iter().sum();
        assert!((from_records - from_vms).abs() < 1e-6);
    }
}
