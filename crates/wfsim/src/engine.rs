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
//!
//! One run is one [`Engine`]: the episode's state in one struct, every
//! event arm and recovery step a method written once. Replication off
//! is the one-attempt case of the same arms (see [`Engine::live_on`]).

use crate::arena::SimArena;
use crate::config::{FluctuationKind, MigrationKind, SimConfig};
use crate::history::ExecHistory;
use crate::plan::Plan;
use crate::result::{ActivationRecord, FaultStats, ReplDecision, ReplStats, SimResult};
use crate::scheduler::{CompletionInfo, Decision, Scheduler, SchedulerContext};
use cloud::failure::{Attempt, FailureModel};
use cloud::fluctuation::{FluctuationModel, NoFluctuation, PerfFluctuation};
use cloud::{replica_targets, FaultModel, Fleet, MigrationModel, ReplFeatures};
use obs::{TraceEvent, Tracer, REPLICA_ATTEMPT_BASE};
use simkit::StepOutcome;
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

/// Run one simulated execution of `workflow` on `fleet` under
/// `scheduler`. `seeds` drives all stochastic models; `history_seed`
/// lets callers pre-load execution history from earlier episodes
/// (paper §III-C: previous-episode information is carried forward).
///
/// Convenience wrapper over [`simulate_cached_traced`] that derives the
/// structural cache and scratch arena on the spot and traces nothing.
/// Loops that run many episodes should build a [`WorkflowCache`] once
/// and reuse a [`SimArena`] instead; the results are bitwise identical.
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

/// [`simulate_traced`] with the allocation-heavy parts hoisted out:
/// `cache` holds the workflow's precomputed structure (build once per
/// workflow), `arena` the reusable scratch buffers (one per worker,
/// reset in place each call). Pass `&mut Tracer::disabled()` to trace
/// nothing.
///
/// A rejected call — invalid `config`, empty fleet or workflow, a cache
/// or seed history built for something else — returns before anything
/// is touched: the arena keeps what it held and the tracer sees no
/// event.
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
    if history_seed.is_some_and(|h| h.vm_count() != fleet.len()) {
        return Err(Error::Simulation("seed history sized for a different fleet".into()));
    }

    let n = workflow.len();
    let fluct: Box<dyn FluctuationModel> = match config.fluctuation {
        FluctuationKind::None => Box::new(NoFluctuation),
        FluctuationKind::Mild => Box::new(PerfFluctuation::mild(fleet.len(), seeds)),
        FluctuationKind::Heavy => Box::new(PerfFluctuation::heavy(fleet.len(), seeds)),
        FluctuationKind::Custom { sigma, theta } => {
            Box::new(PerfFluctuation::new(fleet.len(), sigma, theta, seeds))
        }
    };
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
    arena.states.extend((0..n).map(|i| AcState::Locked { remaining_parents: cache.in_degree(i) }));
    arena.retries.resize(n, 0);
    arena.placed_on.resize(n, None);
    arena.running_on.resize(n, None);
    arena.vm_faults.resize(fleet.len(), 0);
    arena.blacklisted.resize(fleet.len(), false);
    // Per-VM free elements. With a provisioning delay, elements come
    // online only when the VM's boot completes.
    if config.vm_boot_secs > 0.0 {
        arena.free_pes.resize(fleet.len(), 0);
    } else {
        arena.free_pes.extend(fleet.iter().map(|(_, vm)| vm.vm_type.pes));
    }
    arena.vm_busy_secs.resize(fleet.len(), 0.0);
    let replicating = config.replication.is_active();
    if replicating {
        // Only a replicating run sizes and resets the groups: whatever an
        // earlier run left behind — another policy, a larger workflow —
        // goes here. The inner vectors keep their capacity, so a
        // steady-state episode allocates nothing.
        if arena.repl_groups.len() < n {
            arena.repl_groups.resize_with(n, Vec::new);
        }
        arena.repl_groups[..n].iter_mut().for_each(Vec::clear);
        arena.repl_seq.resize(n, 0);
        arena.repl_pending.resize(n, None);
    }

    Engine {
        workflow,
        cache,
        fleet,
        config,
        seeds,
        scheduler,
        tracer,
        fluct,
        failures: FailureModel::new(config.failure_prob, config.max_retries, seeds),
        // Crash schedules run over the same horizon as migrations,
        // sampled as the run reaches them; straggler/lost-ack draws are
        // pure counter-RNG.
        faults: FaultModel::new(
            config.faults,
            fleet.len(),
            SimTime(config.migration_horizon_secs),
            seeds,
        ),
        migrations,
        arena,
        result: SimResult {
            makespan: SimTime::ZERO,
            success: false,
            records: Vec::with_capacity(n),
            plan: Plan::empty(n),
            history: history_seed.cloned().unwrap_or_else(|| ExecHistory::new(fleet.len())),
            vm_busy_secs: Vec::new(),
            events_processed: 0,
            fault_stats: FaultStats::default(),
            repl_stats: ReplStats::default(),
            // One decision per dispatch: `n` plus the retries.
            repl_decisions: Vec::with_capacity(if replicating { n } else { 0 }),
        },
        replicating,
        cp_total: if replicating { (0..n).map(|i| cache.rank(i)).fold(0.0, f64::max) } else { 0.0 },
        remaining: n,
        running: 0,
        workflow_failed: false,
        sched_wall_secs: 0.0,
    }
    .run()
}

/// One simulation in flight: what is being run, the stochastic models,
/// the arena (reset and sized for this run), the result so far and the
/// run's counters. [`Self::run`] is the episode; every other method is
/// one of its steps, written once.
struct Engine<'a, 't> {
    workflow: &'a Workflow,
    cache: &'a WorkflowCache,
    fleet: &'a Fleet,
    config: &'a SimConfig,
    seeds: SeedDerivation,
    scheduler: &'a mut dyn Scheduler,
    tracer: &'a mut Tracer<'t>,

    fluct: Box<dyn FluctuationModel>,
    failures: FailureModel,
    faults: FaultModel,
    migrations: MigrationModel,

    arena: &'a mut SimArena,
    /// What the run will report, filled in as it goes (`makespan`,
    /// `success` and the busy-time copy at the end).
    result: SimResult,

    /// Whether the policy ever replicates: which representation of an
    /// activation's live attempts is in use (see [`Self::live_on`]).
    replicating: bool,
    /// Workflow-wide critical path (top of the downward-rank order),
    /// the denominator of the slack feature.
    cp_total: f64,

    /// Activations not yet `Done`.
    remaining: usize,
    /// Attempts currently occupying a processing element.
    running: usize,
    /// A terminal failure occurred: nothing new starts, running
    /// attempts just drain.
    workflow_failed: bool,
    /// Wall-clock share of the scheduling passes (`sim.sched`; stays 0
    /// unless the tracer times phases).
    sched_wall_secs: f64,
}

impl Engine<'_, '_> {
    /// The episode: start-up events, then event → scheduling pass until
    /// the heap drains or the outcome is decided.
    fn run(mut self) -> Result<SimResult> {
        let (n, nv) = (self.workflow.len(), self.fleet.len());
        self.tracer.emit_with(|| TraceEvent::SimStart { activations: n as u32, vms: nv as u32 });
        // Wall-clock phase timers (opt-in via `Tracer::with_timing`; both
        // are `None`/0 and cost nothing otherwise). `sim.total` spans the
        // whole simulation; `sim.sched` accumulates the scheduler-facing
        // share of it across every scheduling pass.
        let sim_t0 = self.tracer.phase_start();

        // The roots start out ready.
        for i in (0..n).filter(|&i| self.cache.in_degree(i) == 0) {
            self.make_ready(i, SimTime::ZERO);
        }
        // Boot completions, staggered ±50 % per VM like real EC2
        // launch-time spread.
        if self.config.vm_boot_secs > 0.0 {
            use rand::Rng as _;
            let mut boot_rng = self.seeds.rng_for("vm-boot", 0);
            for (vm_id, vm) in self.fleet.iter() {
                let jitter: f64 = boot_rng.gen_range(0.5..1.5);
                self.arena.sim.schedule(
                    SimTime(self.config.vm_boot_secs * jitter),
                    Ev::VmReady { vm: vm_id, pes: vm.vm_type.pes },
                )?;
            }
        }
        // Seed each VM's first crash; the rest of its schedule is chained
        // as crashes fire (no crash at all when crashes are off).
        for (vm_id, _) in self.fleet.iter() {
            if let Some(t0) = self.faults.crash(vm_id, 0) {
                self.arena.sim.schedule(t0, Ev::Crash { vm: vm_id, idx: 0 })?;
            }
        }
        let faults_active = !self.config.faults.is_inert();

        // Initial scheduling pass at t = 0.
        self.schedule()?;
        loop {
            if self.result.events_processed >= self.config.max_events {
                return Err(Error::Simulation(format!(
                    "exceeded {} events; runaway simulation?",
                    self.config.max_events
                )));
            }
            let StepOutcome::Event(ev) = self.arena.sim.step() else { break };
            self.result.events_processed += 1;
            self.handle(ev)?;

            // With faults active the heap can hold crash/repair events far
            // beyond the workflow's lifetime; stop as soon as the outcome
            // is decided (success, or failure with all attempts drained).
            // Gated so fault-free runs keep their historical drain
            // semantics byte-for-byte.
            if faults_active && (self.remaining == 0 || (self.workflow_failed && self.running == 0))
            {
                break;
            }
            self.schedule()?;
        }

        let mut result = self.result;
        result.success = self.remaining == 0 && !self.workflow_failed;
        result.makespan = self.arena.sim.now();
        result.vm_busy_secs = self.arena.vm_busy_secs.clone();
        if self.tracer.timing_enabled() {
            self.tracer.emit_phase_secs("sim.sched", self.sched_wall_secs);
            self.tracer.emit_phase("sim.total", sim_t0);
        }
        self.tracer.emit_with(|| TraceEvent::SimEnd {
            t: result.makespan.as_secs(),
            success: result.success,
            events: result.events_processed,
            queue_pushes: self.arena.sim.pushes(),
            max_queue_depth: self.arena.sim.max_pending() as u64,
        });
        self.scheduler.on_episode_end(&result);
        Ok(result)
    }

    /// Apply one event at `sim.now()`. Forced into the episode loop, its
    /// one caller: as a call it was measured at +2 % per event.
    #[inline(always)]
    fn handle(&mut self, ev: Ev) -> Result<()> {
        let now = self.arena.sim.now();
        let t = now.as_secs();
        match ev {
            Ev::VmReady { vm, pes } => {
                self.arena.free_pes[vm.index()] += pes;
                self.tracer.emit_with(|| TraceEvent::VmReady { t, vm: vm.index() as u32, pes });
            }
            Ev::Finished { ac, vm, started_at, ready_at, attempt, failed } => {
                // The first *successful* finisher wins and cancels every
                // surviving sibling; a failed attempt just leaves, and
                // only the last one out triggers the retry machinery.
                // Completions of attempts that are no longer live (the
                // VM crashed, a sibling won) arrive stale and are
                // dropped wholly: no PE, busy-time or history
                // bookkeeping.
                let i = ac.index();
                if self.live_on(i, vm) == Some(attempt) {
                    let (te, tf) = self.te_tf(started_at, ready_at);
                    self.tracer.emit_with(|| TraceEvent::Finish {
                        t,
                        ac: i as u32,
                        vm: vm.index() as u32,
                        attempt,
                        exec_secs: te,
                        queue_secs: tf,
                        failed,
                    });
                    let drained = self.retire(ac, vm, attempt, te, tf, failed);
                    if !failed {
                        self.complete(ac, vm, attempt, started_at, ready_at);
                    } else if drained {
                        self.retry_or_fail(i, None)?;
                    }
                }
            }
            Ev::Crash { vm, idx } => {
                let v = vm.index();
                if !self.arena.blacklisted[v] {
                    self.trace_fault("crash", -1, vm);
                    self.result.fault_stats.crashes += 1;
                    // Everything on the VM — free elements and the
                    // elements held by in-flight attempts — comes back
                    // at repair time; the attempts themselves are lost.
                    // Siblings elsewhere keep racing: no retry fires
                    // unless the crash drained the activation's last
                    // live attempt.
                    let mut restore = self.arena.free_pes[v];
                    self.arena.free_pes[v] = 0;
                    for i in 0..self.arena.states.len() {
                        if self.live_on(i, vm).is_none() {
                            continue;
                        }
                        let drained = self.leave(i, vm);
                        restore += 1;
                        self.running -= 1;
                        self.result.fault_stats.orphaned += 1;
                        self.trace_fault("crash", i as i64, vm);
                        if drained {
                            self.retry_or_fail(i, Some(vm))?;
                        }
                    }
                    self.note_vm_fault(vm);
                    // A VM this crash got blacklisted stays down.
                    if !self.arena.blacklisted[v] {
                        self.arena.sim.schedule_in(
                            SimTime(self.config.faults.repair_secs),
                            Ev::Repair { vm, pes: restore },
                        )?;
                        if let Some(t_next) = self.faults.crash(vm, idx + 1) {
                            self.arena.sim.schedule(t_next, Ev::Crash { vm, idx: idx + 1 })?;
                        }
                    }
                }
            }
            Ev::Repair { vm, pes } => {
                let v = vm.index();
                if !self.arena.blacklisted[v] {
                    self.arena.free_pes[v] += pes;
                    self.result.fault_stats.recoveries += 1;
                    self.tracer.emit_with(|| TraceEvent::Recover { t, vm: v as u32, pes });
                }
            }
            Ev::TimedOut { ac, vm, started_at, ready_at, attempt } => {
                // The timed-out attempt dies. It consumed the VM for the
                // whole timeout window, so busy time, history and the
                // scheduler all observe it as a failed attempt — the RL
                // penalty hook fires through the normal completion path.
                // Surviving siblings keep racing: the reschedule
                // machinery only fires when it was the last one.
                let i = ac.index();
                if self.live_on(i, vm) == Some(attempt) {
                    let (te, tf) = self.te_tf(started_at, ready_at);
                    self.trace_fault("timeout", i as i64, vm);
                    self.result.fault_stats.timeouts += 1;
                    let drained = self.retire(ac, vm, attempt, te, tf, true);
                    self.note_vm_fault(vm);
                    if drained {
                        self.retry_or_fail(i, Some(vm))?;
                    }
                }
            }
            Ev::Wake { ac } => {
                if self.arena.states[ac.index()] == AcState::Waiting {
                    self.make_ready(ac.index(), now);
                }
            }
        }
        Ok(())
    }

    // The live attempts of activation `i` have two representations, and
    // `live_on`, `enter` and `leave` are the only code that knows it.
    // Replication off: at most one attempt, spelled `retries[i]` (its
    // id) and `running_on[i]` (its VM) — no vector is touched, so a run
    // that never replicates pays nothing per activation for the feature.
    // Replication on: `repl_groups[i]`, which holds at most one attempt
    // per VM because `cloud::replica_targets` never places two there.
    // Merging the two (a one-element group when off) was measured at
    // +17 % per event on the fault-free path and ruled out.

    /// The id of activation `i`'s live attempt on `vm`, if it has one.
    /// An event whose attempt id is not this one is stale: crash
    /// orphaning and retries move the id on, so completions from a dead
    /// VM or a cancelled sibling no longer match.
    fn live_on(&self, i: usize, vm: VmId) -> Option<u32> {
        if self.arena.states[i] != AcState::Running {
            None
        } else if self.replicating {
            self.arena.repl_groups[i].iter().find(|a| a.vm == vm).map(|a| a.attempt)
        } else {
            (self.arena.running_on[i] == Some(vm)).then_some(self.arena.retries[i])
        }
    }

    /// Record an attempt of activation `i` launched at `now` as live.
    fn enter(&mut self, i: usize, attempt: u32, vm: VmId, now: SimTime) {
        if self.replicating {
            // Launch order: the primary's completion event is queued
            // first, so exact finish-time ties resolve in its favor
            // (the kernel pops same-time events FIFO).
            self.arena.repl_groups[i].push(RepAttempt { attempt, vm, started_at: now });
        } else {
            self.arena.running_on[i] = Some(vm);
        }
    }

    /// Take activation `i`'s live attempt on `vm` out; `true` when it
    /// was the last one (always, when replication is off).
    fn leave(&mut self, i: usize, vm: VmId) -> bool {
        if self.replicating {
            let group = &mut self.arena.repl_groups[i];
            group.retain(|a| a.vm != vm);
            group.is_empty()
        } else {
            self.arena.running_on[i] = None;
            true
        }
    }

    /// Close the replication decision pending for activation `i` with
    /// its outcome (`repl_pending` is empty when replication is off:
    /// nothing to close).
    fn resolve(&mut self, i: usize, replica_won: bool, group_failed: bool) {
        if let Some(d) = self.arena.repl_pending.get_mut(i).and_then(Option::take) {
            self.result.repl_decisions.push(ReplDecision {
                activation: i as u32,
                bucket: d.bucket,
                requested: d.requested,
                launched: d.launched,
                primary_secs: d.primary_secs,
                group_secs: (self.arena.sim.now() - d.start_t).as_secs(),
                waste_secs: d.waste_secs,
                replica_won,
                group_failed,
            });
        }
    }

    /// The paper's two observables of an attempt that ends now: execution
    /// time `te` (start → now) and queue time `tf` (ready → start).
    fn te_tf(&self, started_at: SimTime, ready_at: SimTime) -> (f64, f64) {
        let te = (self.arena.sim.now() - started_at).as_secs();
        (te, (started_at - ready_at).as_secs().max(0.0))
    }

    /// A live attempt, its end already traced, stops occupying its
    /// element: bill the element and the busy time, take the attempt out
    /// of the live set, and let the history and the scheduler observe
    /// `te`/`tf`. Returns whether it was the activation's last live
    /// attempt.
    fn retire(
        &mut self,
        ac: ActivationId,
        vm: VmId,
        attempt: u32,
        te: f64,
        tf: f64,
        failed: bool,
    ) -> bool {
        let v = vm.index();
        self.arena.free_pes[v] += 1;
        self.arena.vm_busy_secs[v] += te;
        self.running -= 1;
        let drained = self.leave(ac.index(), vm);
        self.result.history.record(vm, te, tf);
        self.scheduler.on_completion(
            &CompletionInfo {
                activation: ac,
                vm,
                queue_secs: tf,
                exec_secs: te,
                finished_at: self.arena.sim.now(),
                attempt,
                failed,
            },
            &self.result.history,
        );
        drained
    }

    /// A successful attempt, already retired, makes its activation
    /// `Done`: every surviving sibling is cancelled, its occupied
    /// PE-seconds billed as waste; the record is written and the
    /// children unlocked.
    fn complete(
        &mut self,
        ac: ActivationId,
        vm: VmId,
        attempt: u32,
        started_at: SimTime,
        ready_at: SimTime,
    ) {
        let i = ac.index();
        let now = self.arena.sim.now();
        while self.replicating && !self.arena.repl_groups[i].is_empty() {
            let sibling = self.arena.repl_groups[i].remove(0);
            let cv = sibling.vm.index();
            let billed = (now - sibling.started_at).as_secs();
            self.tracer.emit_with(|| TraceEvent::Cancel {
                t: now.as_secs(),
                ac: i as u32,
                vm: cv as u32,
                attempt: sibling.attempt,
            });
            self.arena.free_pes[cv] += 1;
            self.arena.vm_busy_secs[cv] += billed;
            self.running -= 1;
            self.result.repl_stats.cancelled += 1;
            self.result.repl_stats.waste_secs += billed;
            if let Some(d) = self.arena.repl_pending[i].as_mut() {
                d.waste_secs += billed;
            }
        }
        let replica_won = attempt >= REPLICA_ATTEMPT_BASE;
        if replica_won {
            self.result.repl_stats.replica_wins += 1;
        }
        self.resolve(i, replica_won, false);
        self.arena.states[i] = AcState::Done;
        self.arena.placed_on[i] = Some(vm);
        self.remaining -= 1;
        self.result.records.push(ActivationRecord {
            activation: ac,
            vm,
            ready_at,
            started_at,
            finished_at: now,
            retries: self.arena.retries[i],
        });
        for child in self.workflow.children(ac) {
            let c = child.index();
            if let AcState::Locked { remaining_parents } = &mut self.arena.states[c] {
                *remaining_parents -= 1;
                if *remaining_parents == 0 {
                    self.make_ready(c, now);
                }
            }
        }
    }

    /// Activation `i` has no live attempt left and did not succeed — the
    /// last one ran to its end and failed (a `retry`), or was lost with,
    /// or killed on, the VM `lost_on` by a crash or a timeout (a
    /// `reschedule`). Retry it, after its backoff if one is configured,
    /// while the budget lasts and the workflow has not failed; otherwise
    /// it is `Failed` and takes the workflow with it.
    fn retry_or_fail(&mut self, i: usize, lost_on: Option<VmId>) -> Result<()> {
        let now = self.arena.sim.now();
        self.resolve(i, false, true);
        if self.arena.retries[i] < self.config.max_retries && !self.workflow_failed {
            self.arena.retries[i] += 1;
            let (t, ac, next_attempt) = (now.as_secs(), i as u32, self.arena.retries[i]);
            match lost_on {
                None => {
                    self.result.fault_stats.retries += 1;
                    self.tracer.emit_with(|| TraceEvent::Retry { t, ac, next_attempt });
                }
                Some(vm) => {
                    self.result.fault_stats.reschedules += 1;
                    let vm = vm.index() as u32;
                    self.tracer.emit_with(|| TraceEvent::Reschedule { t, ac, vm, next_attempt });
                }
            }
            let backoff = self.config.faults.backoff_secs(next_attempt);
            if backoff > 0.0 {
                self.arena.states[i] = AcState::Waiting;
                self.arena
                    .sim
                    .schedule_in(SimTime(backoff), Ev::Wake { ac: ActivationId::from_index(i) })?;
            } else {
                self.make_ready(i, now);
            }
        } else {
            self.arena.states[i] = AcState::Failed;
            self.workflow_failed = true;
        }
        Ok(())
    }

    /// Count a crash or timeout against `vm` and blacklist it for good
    /// at the configured threshold.
    fn note_vm_fault(&mut self, vm: VmId) {
        let v = vm.index();
        self.arena.vm_faults[v] += 1;
        if self.config.faults.blacklist_after > 0
            && self.arena.vm_faults[v] >= self.config.faults.blacklist_after
            && !self.arena.blacklisted[v]
        {
            self.arena.blacklisted[v] = true;
            self.result.fault_stats.blacklisted += 1;
            let (t, faults) = (self.arena.sim.now().as_secs(), self.arena.vm_faults[v]);
            self.tracer.emit_with(|| TraceEvent::Blacklist { t, vm: v as u32, faults });
        }
    }

    /// Trace one injected fault (`ac` is -1 for a fault of the VM itself).
    fn trace_fault(&mut self, kind: &'static str, ac: i64, vm: VmId) {
        let t = self.arena.sim.now().as_secs();
        self.tracer.emit_with(|| TraceEvent::Fault { t, kind, ac, vm: vm.index() as u32 });
    }

    /// Move activation `i` into [`AcState::Ready`] — the only way in —
    /// and with it into `ready`, the id-sorted set
    /// [`SchedulerContext::ready`] shows the scheduler. A binary-search
    /// insert: the set is kept across the episode, not refilled from
    /// `states` at every consultation.
    fn make_ready(&mut self, i: usize, since: SimTime) {
        self.arena.states[i] = AcState::Ready { since };
        let ac = ActivationId::from_index(i);
        if let Err(pos) = self.arena.ready.binary_search(&ac) {
            self.arena.ready.insert(pos, ac);
        }
    }

    /// One scheduling pass, on the `sim.sched` phase timer.
    fn schedule(&mut self) -> Result<()> {
        let t0 = self.tracer.phase_start();
        let pass = self.scheduling_pass();
        if let Some(t0) = t0 {
            self.sched_wall_secs += t0.elapsed().as_secs_f64();
        }
        pass
    }

    /// While the workflow is *available*, consult the scheduler and apply
    /// assignments. Once the workflow has failed, no new work is started
    /// — running activations just drain.
    ///
    /// `ready` is maintained, not rebuilt: [`Self::make_ready`] is its
    /// only way in and the `Assign` arm below its only way out, so a
    /// consultation costs O(|VM|) for the idle scan plus O(log n) for
    /// the set, where scanning every activation state was O(n). Debug
    /// builds check the set against that scan at every consultation.
    fn scheduling_pass(&mut self) -> Result<()> {
        if self.workflow_failed {
            return Ok(());
        }
        let mut first_consultation = true;
        loop {
            debug_assert!(
                self.arena.ready.iter().copied().eq(self
                    .arena
                    .states
                    .iter()
                    .enumerate()
                    .filter(|&(_i, s)| matches!(s, AcState::Ready { .. }))
                    .map(|(i, _s)| ActivationId::from_index(i))),
                "ready set {:?} drifted from the activation states",
                self.arena.ready
            );
            if self.arena.ready.is_empty() {
                return Ok(()); // workflow is *unavailable*: implicit do-nothing
            }
            self.arena.idle.clear();
            self.arena.idle.extend(
                self.arena
                    .free_pes
                    .iter()
                    .enumerate()
                    .filter(|&(v, &free)| free > 0 && !self.arena.blacklisted[v])
                    .map(|(v, &free)| (VmId::from_index(v), free)),
            );
            if self.arena.idle.is_empty() {
                return Ok(()); // nothing idle: unavailable too
            }
            let now = self.arena.sim.now();
            if first_consultation {
                first_consultation = false;
                let (ready, idle) = (&*self.arena.ready, &*self.arena.idle);
                self.tracer.emit_with(|| TraceEvent::Sched {
                    t: now.as_secs(),
                    ready: ready.len() as u32,
                    idle_pes: idle.iter().map(|&(_, f)| f).sum(),
                });
            }
            let ctx = SchedulerContext {
                now,
                workflow: self.workflow,
                fleet: self.fleet,
                ready: self.arena.ready.as_slice(),
                idle_slots: self.arena.idle.as_slice(),
                history: &self.result.history,
            };
            match self.scheduler.decide(&ctx) {
                Decision::DoNothing => return Ok(()),
                Decision::Assign { activation, vm } => {
                    let i = activation.index();
                    let since = match self.arena.states.get(i) {
                        Some(AcState::Ready { since }) => *since,
                        _ => {
                            return Err(Error::InvalidPlan(format!(
                                "scheduler assigned non-ready activation {activation}"
                            )))
                        }
                    };
                    let v = vm.index();
                    if v >= self.arena.free_pes.len() || self.arena.free_pes[v] == 0 {
                        return Err(Error::InvalidPlan(format!(
                            "scheduler assigned {activation} to busy/unknown {vm}"
                        )));
                    }
                    // The one way out of `Ready` (and so out of `ready`).
                    let Ok(pos) = self.arena.ready.binary_search(&activation) else {
                        return Err(Error::InvalidPlan(format!(
                            "scheduler assigned {activation}, which is ready but not in the ready set"
                        )));
                    };
                    self.arena.ready.remove(pos);
                    self.arena.states[i] = AcState::Running;
                    self.result.plan.assign(activation, vm);
                    let primary_secs = self.launch(activation, vm, self.arena.retries[i], since)?;
                    if self.replicating {
                        self.replicate(activation, vm, since, primary_secs)?;
                    }
                }
            }
        }
    }

    /// Start one attempt of `ac` on `vm` — the primary (`attempt` is the
    /// retry count) or a replica (`attempt >= REPLICA_ATTEMPT_BASE`) —
    /// and queue the event that ends it. Returns its duration.
    fn launch(&mut self, ac: ActivationId, vm: VmId, attempt: u32, since: SimTime) -> Result<f64> {
        let (i, v) = (ac.index(), vm.index());
        let now = self.arena.sim.now();
        self.arena.free_pes[v] -= 1;
        self.running += 1;
        self.tracer.emit_with(|| {
            let (t, ac, vm, ready_since) = (now.as_secs(), i as u32, v as u32, since.as_secs());
            if attempt >= REPLICA_ATTEMPT_BASE {
                TraceEvent::Replicate { t, ac, vm, attempt, ready_since }
            } else {
                TraceEvent::Start { t, ac, vm, attempt, ready_since }
            }
        });
        let mut duration = self.execution_secs(ac, vm, now);
        let slowdown = self.faults.slowdown(ac, vm, attempt);
        if slowdown > 1.0 {
            duration *= slowdown;
            self.result.fault_stats.stragglers += 1;
            self.trace_fault("straggler", i as i64, vm);
        }
        self.enter(i, attempt, vm, now);
        let timeout = self.config.faults.timeout_secs;
        let (after, ev) = if timeout > 0.0 && duration > timeout {
            // The attempt is doomed upfront (both its length and the
            // bound are known now), so the kill event replaces the
            // completion event entirely.
            (timeout, Ev::TimedOut { ac, vm, started_at: now, ready_at: since, attempt })
        } else {
            let failed = self.config.failure_prob > 0.0
                && self.failures.draw(ac, vm, attempt) == Attempt::Fails;
            (duration, Ev::Finished { ac, vm, started_at: now, ready_at: since, attempt, failed })
        };
        self.arena.sim.schedule_in(SimTime(after), ev)?;
        Ok(duration)
    }

    /// Hedge the primary just launched on `primary` with as many
    /// replicas as the policy asks for and the fleet can host, and log
    /// the decision for the trainer.
    fn replicate(
        &mut self,
        ac: ActivationId,
        primary: VmId,
        since: SimTime,
        primary_secs: f64,
    ) -> Result<()> {
        let i = ac.index();
        let nv = self.fleet.len();
        let pressure = self.arena.blacklisted.iter().filter(|&&b| b).count();
        let features = ReplFeatures {
            attempt: self.arena.retries[i],
            blacklist_frac: pressure as f64 / nv as f64,
            slack_frac: if self.cp_total > 0.0 {
                (self.cache.rank(i) / self.cp_total).clamp(0.0, 1.0)
            } else {
                0.0
            },
        };
        let requested = self.config.replication.extra_replicas(&features);
        let targets = replica_targets(primary.index(), nv, requested, |cv| {
            self.arena.blacklisted[cv] || self.arena.free_pes[cv] == 0
        });
        for &cv in targets.as_slice() {
            let attempt = REPLICA_ATTEMPT_BASE + self.arena.repl_seq[i];
            self.arena.repl_seq[i] += 1;
            self.launch(ac, VmId::from_index(cv), attempt, since)?;
            self.result.repl_stats.launched += 1;
        }
        self.arena.repl_pending[i] = Some(PendingDecision {
            bucket: features.bucket() as u8,
            requested: requested as u8,
            launched: targets.as_slice().len() as u8,
            primary_secs,
            start_t: self.arena.sim.now(),
            waste_secs: 0.0,
        });
        Ok(())
    }

    /// Wall-clock seconds one attempt takes: stage-in transfers + compute
    /// (scaled by the fluctuation factor) + migration stalls.
    fn execution_secs(&mut self, ac: ActivationId, vm: VmId, now: SimTime) -> f64 {
        // Transfers: parent outputs materialized on other VMs must cross
        // the network; co-located files are free. Per-edge byte counts and
        // the producer-less stage-in volume are precomputed in the cache.
        let i = ac.index();
        let mut transfer_bytes: u64 = 0;
        for &(parent, bytes) in self.cache.parents(i) {
            if self.arena.placed_on[parent as usize] != Some(vm) {
                transfer_bytes += bytes;
            }
        }
        if self.config.stage_in_inputs {
            // Workflow-input files (no producer) come from shared storage.
            transfer_bytes += self.cache.external_input_bytes(i);
        }
        let transfer_secs = transfer_bytes as f64 / self.config.bandwidth_bytes_per_sec;

        let vm_type = &self.fleet.vm(vm).vm_type;
        let base = vm_type.exec_secs(self.workflow.activations[ac].length_mi);
        let factor = self.fluct.factor(vm, now.as_secs());
        let mut compute_secs = base * factor;
        if self.config.burst_throttling && vm_type.baseline_fraction < 1.0 {
            let busy_so_far = self.arena.vm_busy_secs[vm.index()];
            let credits = vm_type.burst_credit_secs_per_pe
                * vm_type.pes as f64
                * self.config.burst_credit_scale;
            if busy_so_far >= credits {
                // Credits exhausted: the whole execution runs at baseline.
                compute_secs /= vm_type.baseline_fraction;
            } else if busy_so_far + compute_secs > credits {
                // Burst covers only the head of the execution.
                let full_speed = credits - busy_so_far;
                let remainder = compute_secs - full_speed;
                compute_secs = full_speed + remainder / vm_type.baseline_fraction;
            }
        }

        let pre_stall = transfer_secs + compute_secs;
        let stall = self.migrations.stall_secs(vm, now, now + SimTime(pre_stall));
        pre_stall + stall
    }
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
                let reused = simulate_cached_traced(
                    &wf,
                    &cache,
                    &fleet,
                    &mut Fifo,
                    cfg,
                    seeds,
                    None,
                    &mut arena,
                    &mut Tracer::disabled(),
                )
                .unwrap();
                assert_eq!(fresh.makespan, reused.makespan);
                assert_eq!(fresh.plan, reused.plan);
                assert_eq!(fresh.records, reused.records);
                assert_eq!(fresh.vm_busy_secs, reused.vm_busy_secs);
                assert_eq!(fresh.events_processed, reused.events_processed);
            }
        }
    }

    /// Every input the engine refuses — here the five checks of
    /// `simulate_cached_traced`, the mismatched cache among them — is
    /// refused before anything is touched: the tracer sees no event (a
    /// `sim_start` would never get its `sim_end`) and the arena keeps
    /// what the previous run left in it.
    #[test]
    fn mismatched_cache_is_rejected() {
        let wf = montage();
        let other = {
            use workflow::generators::montage::{generate, MontageParams};
            generate(&MontageParams::with_total_activations(30, 1).unwrap()).unwrap()
        };
        let empty = Workflow {
            name: "empty".into(),
            activities: Default::default(),
            activations: Default::default(),
            files: Default::default(),
            dag: dag::Dag::with_nodes(0),
        };
        let fleet = Fleet::paper_16_vcpus();
        let no_fleet = Fleet::new();
        let cache = WorkflowCache::new(&wf).unwrap();
        let other_cache = WorkflowCache::new(&other).unwrap();
        assert_ne!(other_cache.len(), wf.len());
        let good = SimConfig::deterministic();
        let bad = SimConfig { max_events: 0, ..SimConfig::deterministic() };
        let small_history = ExecHistory::new(fleet.len() - 1);

        let mut arena = SimArena::new();
        let mut run = |wf: &Workflow,
                       cache: &WorkflowCache,
                       fleet: &Fleet,
                       config: &SimConfig,
                       history: Option<&ExecHistory>| {
            let mut sink = obs::MemSink::new();
            let res = simulate_cached_traced(
                wf,
                cache,
                fleet,
                &mut Fifo,
                config,
                SeedDerivation::new(1),
                history,
                &mut arena,
                &mut Tracer::new(&mut sink),
            );
            (res, sink.take(), arena.states.clone(), arena.sim.pushes())
        };
        let (ok, trace, states, pushes) = run(&wf, &cache, &fleet, &good, None);
        assert!(ok.unwrap().success);
        assert!(trace.contains("sim_start") && trace.contains("sim_end"));
        assert_eq!(states.len(), wf.len());

        for (wf, cache, fleet, config, history, message) in [
            (&wf, &cache, &fleet, &bad, None, "max_events"),
            (&wf, &cache, &no_fleet, &good, None, "no VMs"),
            (&empty, &cache, &fleet, &good, None, "no activations"),
            (&wf, &other_cache, &fleet, &good, None, "different workflow"),
            (&wf, &cache, &fleet, &good, Some(&small_history), "different fleet"),
        ] {
            let (res, trace, states_after, pushes_after) = run(wf, cache, fleet, config, history);
            let err = res.unwrap_err().to_string();
            assert!(err.contains(message), "{err:?} does not mention {message:?}");
            assert_eq!(trace, "", "a rejected call ({message}) must leave no trace");
            assert_eq!(states_after, states, "a rejected call ({message}) reset the arena");
            assert_eq!(pushes_after, pushes, "a rejected call ({message}) reset the arena");
        }
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
