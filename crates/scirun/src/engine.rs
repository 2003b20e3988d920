//! SCCore: the master/worker plan-execution engine.

use cloud::{
    replica_targets, Attempt, FailureModel, FaultConfig, FaultModel, ReplFeatures,
    ReplicationPolicy,
};
use crossbeam_channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use obs::{Histogram, REPLICA_ATTEMPT_BASE};
use rand::Rng as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wfcommon::ids::Idx;
use wfcommon::{ActivationId, Error, Result, SeedDerivation, SimTime, VmId};
use wfsim::Plan;
use workflow::Workflow;

/// Execution-engine configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecConfig {
    /// How many virtual (cloud) seconds elapse per wall-clock second.
    /// 1000 compresses a 300 s Montage run into 0.3 s of test time.
    pub time_compression: f64,
    /// Coefficient of variation of the injected per-activation runtime
    /// jitter (on top of natural OS-scheduling noise).
    pub jitter_cv: f64,
    /// Seed for the jitter streams.
    pub seed: u64,
    /// Per-attempt failure probability. Drawn with the same
    /// [`cloud::FailureModel`] keying as the simulator, so replaying a
    /// `wfsim` plan at the same seed reproduces its exact retry set.
    pub failure_prob: f64,
    /// Retry bound per activation (attempt count ≤ `max_retries + 1`).
    pub max_retries: u32,
    /// Probability one attempt's completion ack is dropped on the done
    /// channel ([`cloud::FaultModel::ack_lost`] draws). Requires
    /// re-dispatch to be enabled or the run would hang.
    pub lost_ack_prob: f64,
    /// Wall-clock grace (milliseconds) past an attempt's expected
    /// completion before the master presumes the ack lost and
    /// re-dispatches. `0` disables re-dispatch (legacy blocking wait).
    pub redispatch_wall_ms: f64,
    /// Speculative-replication policy. The race is resolved
    /// *analytically* by the master from the same pure failure draws
    /// and nominal per-VM runtimes the simulator uses, so the replica
    /// launch/win/cancel sets are deterministic and engine-comparable
    /// even though worker completions arrive in wall-clock order.
    /// Incompatible with ack-loss/re-dispatch (both hedge the same
    /// failure mode; combining them double-dispatches).
    pub replication: ReplicationPolicy,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            time_compression: 1000.0,
            jitter_cv: 0.02,
            seed: 2019,
            failure_prob: 0.0,
            max_retries: 2,
            lost_ack_prob: 0.0,
            redispatch_wall_ms: 0.0,
            replication: ReplicationPolicy::Off,
        }
    }
}

impl ExecConfig {
    /// Validate ranges.
    pub fn validate(&self) -> Result<()> {
        if self.time_compression <= 0.0 {
            return Err(Error::Config("time_compression must be positive".into()));
        }
        if self.jitter_cv < 0.0 {
            return Err(Error::Config("jitter_cv must be non-negative".into()));
        }
        if !(0.0..=1.0).contains(&self.failure_prob) {
            return Err(Error::Config("failure_prob must be in [0, 1]".into()));
        }
        if !(0.0..=1.0).contains(&self.lost_ack_prob) {
            return Err(Error::Config("lost_ack_prob must be in [0, 1]".into()));
        }
        if self.redispatch_wall_ms < 0.0 {
            return Err(Error::Config("redispatch_wall_ms must be non-negative".into()));
        }
        if self.lost_ack_prob > 0.0 && self.redispatch_wall_ms <= 0.0 {
            return Err(Error::Config(
                "lost_ack_prob > 0 requires redispatch_wall_ms > 0 (acks can vanish)".into(),
            ));
        }
        self.replication.validate().map_err(Error::Config)?;
        if self.replication.is_active()
            && (self.lost_ack_prob > 0.0 || self.redispatch_wall_ms > 0.0)
        {
            return Err(Error::Config(
                "replication is incompatible with ack-loss/re-dispatch recovery".into(),
            ));
        }
        Ok(())
    }
}

/// Timing record of one activation in virtual (cloud) seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecRecord {
    /// The activation.
    pub activation: ActivationId,
    /// The VM (worker pool) it ran on.
    pub vm: VmId,
    /// Became ready (dependencies done), virtual seconds from start.
    pub ready_at: SimTime,
    /// Dequeued by a worker.
    pub started_at: SimTime,
    /// Completed.
    pub finished_at: SimTime,
}

impl ExecRecord {
    /// Queue time `tf` in virtual seconds.
    pub fn queue_secs(&self) -> f64 {
        (self.started_at - self.ready_at).as_secs().max(0.0)
    }

    /// Execution time `te` in virtual seconds.
    pub fn exec_secs(&self) -> f64 {
        (self.finished_at - self.started_at).as_secs().max(0.0)
    }
}

/// Latency/jitter telemetry of one emulated execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecTelemetry {
    /// Virtual queue time per activation: ready → dequeued by a worker.
    pub dispatch_latency_secs: Histogram,
    /// Wall-clock lag between a worker finishing an activation and the
    /// master receiving the completion message.
    pub ack_latency_secs: Histogram,
    /// Injected runtime-jitter factors the workers drew (≈ 1.0, floored
    /// at 0.5) — abusing the seconds histogram as a dimensionless one.
    pub jitter_factor: Histogram,
}

impl ExecTelemetry {
    /// One-line JSON quantile summary (count/mean/p50/p95/p99 per
    /// histogram, see [`Histogram::summary_json`]) — the report-facing
    /// rendering of the worker-thread latency measurements.
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"dispatch_latency_secs\":{},\"ack_latency_secs\":{},\"jitter_factor\":{}}}",
            self.dispatch_latency_secs.summary_json(),
            self.ack_latency_secs.summary_json(),
            self.jitter_factor.summary_json()
        )
    }
}

/// Fault/recovery counters for one emulated execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecFaultStats {
    /// Attempts that ran to completion but failed (injected).
    pub failed_attempts: u64,
    /// Retries dispatched after a failed attempt.
    pub retries: u64,
    /// Attempts re-dispatched after an ack deadline expired.
    pub redispatches: u64,
    /// Completion acks the workers dropped (injected).
    pub lost_acks: u64,
}

/// Replication counters for one emulated execution (schema v1.6).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecReplStats {
    /// Speculative replicas dispatched (primaries excluded).
    pub launched: u64,
    /// Attempts cancelled because a sibling won the race.
    pub cancelled: u64,
    /// Races a replica won instead of the primary.
    pub replica_wins: u64,
}

/// The analytically resolved outcome of one replicated dispatch group.
/// `(u32, u32)` pairs are `(attempt, vm)`; replica attempt ids start at
/// [`REPLICA_ATTEMPT_BASE`]. `winner` is `None` when every attempt's
/// failure draw killed it (the group retried or exhausted its bound).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecReplGroup {
    /// The activation the group raced for.
    pub activation: u32,
    /// All attempts in dispatch order, primary first.
    pub attempts: Vec<(u32, u32)>,
    /// The attempt that resolved the activation.
    pub winner: Option<(u32, u32)>,
    /// Attempts cancelled at the winner's (virtual) finish.
    pub cancelled: Vec<(u32, u32)>,
}

/// Result of one emulated execution.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionReport {
    /// Makespan in virtual cloud seconds (Table IV's measurement).
    pub makespan: SimTime,
    /// Actual wall-clock seconds the emulation took.
    pub wall_secs: f64,
    /// Per-activation records in completion order.
    pub records: Vec<ExecRecord>,
    /// True when all activations completed.
    pub success: bool,
    /// Worker-thread latency/jitter measurements.
    pub telemetry: ExecTelemetry,
    /// Fault-injection and recovery counters.
    pub fault_stats: ExecFaultStats,
    /// Speculative-replication counters (all zero with replication off).
    pub repl_stats: ExecReplStats,
    /// Per-group replication outcomes, sorted by
    /// `(activation, primary attempt)` so the set is comparable across
    /// runs and engines regardless of wall-clock arrival order.
    pub repl_groups: Vec<ExecReplGroup>,
}

/// The master/worker execution engine (one instance per execution).
pub struct ExecutionEngine {
    fleet: cloud::Fleet,
    config: ExecConfig,
}

enum WorkItem {
    Run { ac: ActivationId, length_mi: f64, ready_wall: f64, attempt: u32 },
}

struct DoneMsg {
    ac: ActivationId,
    vm: VmId,
    attempt: u32,
    ready_wall: f64,
    start_wall: f64,
    end_wall: f64,
    /// The jitter factor this attempt's runtime was scaled by.
    jitter: f64,
    /// Whether the injected failure draw killed this attempt.
    failed: bool,
}

impl ExecutionEngine {
    /// Build an engine over `fleet`.
    pub fn new(fleet: cloud::Fleet, config: ExecConfig) -> Result<Self> {
        config.validate()?;
        if fleet.is_empty() {
            return Err(Error::Config("fleet has no VMs".into()));
        }
        Ok(Self { fleet, config })
    }

    /// The fleet this engine drives.
    pub fn fleet(&self) -> &cloud::Fleet {
        &self.fleet
    }

    /// Execute `workflow` following `plan`. Blocks until the workflow
    /// drains; returns virtual-time records.
    pub fn execute(&self, workflow: &Workflow, plan: &Plan) -> Result<ExecutionReport> {
        plan.validate(workflow, &self.fleet)
            .map_err(|e| Error::InvalidPlan(format!("cannot execute: {e}")))?;
        let n = workflow.len();
        let compression = self.config.time_compression;
        let seeds = SeedDerivation::new(self.config.seed);
        // Same derivation + keying as the simulator: a plan replayed
        // here at the same seed sees the identical failure set.
        let failures = FailureModel::new(self.config.failure_prob, self.config.max_retries, seeds);
        let fault_cfg =
            FaultConfig { lost_ack_prob: self.config.lost_ack_prob, ..FaultConfig::none() };
        let fault_model = FaultModel::new(fault_cfg, self.fleet.len(), SimTime::ZERO, seeds);
        let lost_acks = Arc::new(AtomicU64::new(0));
        let t0 = Instant::now();

        // One MPMC queue per VM; `pes` workers consume it.
        let mut vm_senders: Vec<Sender<WorkItem>> = Vec::with_capacity(self.fleet.len());
        let (done_tx, done_rx): (Sender<DoneMsg>, Receiver<DoneMsg>) = unbounded();
        let mut handles = Vec::new();
        for (vm_id, vm) in self.fleet.iter() {
            let (tx, rx) = bounded::<WorkItem>(n.max(1));
            vm_senders.push(tx);
            for pe in 0..vm.vm_type.pes {
                let rx = rx.clone();
                let done = done_tx.clone();
                let mips = vm.vm_type.mips_per_pe;
                let jitter_cv = self.config.jitter_cv;
                let mut rng = seeds.rng_for("scirun-worker", (vm_id.raw() as u64) << 8 | pe as u64);
                let failures = failures.clone();
                let fault_model = fault_model.clone();
                let lost_acks = Arc::clone(&lost_acks);
                let start_instant = t0;
                handles.push(std::thread::spawn(move || {
                    while let Ok(WorkItem::Run { ac, length_mi, ready_wall, attempt }) = rx.recv() {
                        let start_wall = start_instant.elapsed().as_secs_f64();
                        let (virt_secs, jitter) = {
                            let base = length_mi / mips;
                            // Truncated-normal jitter around 1.0.
                            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                            let u2: f64 = rng.gen::<f64>();
                            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                            let factor = (1.0 + jitter_cv * z).max(0.5);
                            (base * factor, factor)
                        };
                        std::thread::sleep(std::time::Duration::from_secs_f64(
                            virt_secs / compression,
                        ));
                        let end_wall = start_instant.elapsed().as_secs_f64();
                        let failed = failures.draw(ac, vm_id, attempt) == Attempt::Fails;
                        // A lost ack vanishes on the channel: the work
                        // happened, but the master never hears of it.
                        if fault_model.ack_lost(ac, attempt) {
                            lost_acks.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        // Receiver gone ⇒ master aborted; just exit.
                        if done
                            .send(DoneMsg {
                                ac,
                                vm: vm_id,
                                attempt,
                                ready_wall,
                                start_wall,
                                end_wall,
                                jitter,
                                failed,
                            })
                            .is_err()
                        {
                            break;
                        }
                    }
                }));
            }
        }
        drop(done_tx);

        // Master: dependency tracking + dispatch + recovery.
        let mut remaining_parents: Vec<usize> = (0..n).map(|i| workflow.dag.in_degree(i)).collect();
        let mut dispatched = vec![false; n];
        let mut resolved = vec![false; n];
        let mut cur_attempt = vec![0u32; n];
        let mut completed = 0usize;
        let mut records = Vec::with_capacity(n);
        let mut stats = ExecFaultStats::default();
        let mut workflow_failed = false;

        // Ack-deadline machinery (active only when re-dispatch is on):
        // an attempt's deadline is the expected drain time of its VM's
        // queue plus the configured wall grace. Overestimates are
        // harmless — a spurious re-dispatch duplicates work, and the
        // stale completion is ignored by its attempt tag.
        let redispatch = self.config.redispatch_wall_ms > 0.0;
        let grace_wall = self.config.redispatch_wall_ms / 1000.0;
        let expected_virt: Vec<f64> = (0..n)
            .map(|i| {
                let ac = ActivationId::from_index(i);
                let vm = plan.vm_for(ac).expect("plan validated complete");
                workflow.activations[ac].length_mi / self.fleet.vm(vm).vm_type.mips_per_pe
            })
            .collect();
        let vm_pes: Vec<f64> = self.fleet.iter().map(|(_, vm)| f64::from(vm.vm_type.pes)).collect();
        let mut queue_virt: Vec<f64> = vec![0.0; self.fleet.len()];
        let mut deadline: Vec<f64> = vec![f64::INFINITY; n];

        // Speculative replication (schema v1.6). The race is resolved
        // *analytically* at dispatch: per-attempt nominal runtime is
        // `length_mi / mips` and the failure draws are pure functions of
        // `(ac, vm, attempt)`, so the winner — the earliest non-failed
        // attempt under the simulator's (finish, dispatch-order)
        // tie-break — is known before any worker runs. Arrival order on
        // the done channel then never influences counts or outcome.
        let repl_active = self.config.replication.is_active();
        let nv = self.fleet.len();
        let vm_mips: Vec<f64> = self.fleet.iter().map(|(_, vm)| vm.vm_type.mips_per_pe).collect();
        let (ranks, cp_total) = if repl_active {
            let cache = workflow::WorkflowCache::new(workflow)?;
            let ranks: Vec<f64> = (0..n).map(|i| cache.rank(i)).collect();
            let cp = ranks.iter().cloned().fold(0.0_f64, f64::max).max(f64::MIN_POSITIVE);
            (ranks, cp)
        } else {
            (Vec::new(), 1.0)
        };
        struct RepGroup {
            winner_attempt: Option<u32>,
            outstanding: usize,
        }
        let mut rep_seq = vec![0u32; n];
        let mut rep_groups: Vec<Option<RepGroup>> = (0..n).map(|_| None).collect();
        let mut repl_stats = ExecReplStats::default();
        let mut repl_log: Vec<ExecReplGroup> = Vec::new();

        macro_rules! dispatch {
            ($i:expr, $now:expr) => {{
                let i: usize = $i;
                let now: f64 = $now;
                let ac = ActivationId::from_index(i);
                let vm = plan.vm_for(ac).expect("plan validated complete");
                vm_senders[vm.index()]
                    .send(WorkItem::Run {
                        ac,
                        length_mi: workflow.activations[ac].length_mi,
                        ready_wall: now,
                        attempt: cur_attempt[i],
                    })
                    .map_err(|_| Error::Execution("worker pool hung up".into()))?;
                if redispatch {
                    let v = vm.index();
                    queue_virt[v] += expected_virt[i];
                    let drain = (queue_virt[v] / vm_pes[v]).max(expected_virt[i]) * 2.0;
                    deadline[i] = now + drain / compression + grace_wall;
                }
            }};
        }

        // Replicated dispatch: launch the primary plus up to `k` extra
        // replicas on distinct VMs, then resolve the race analytically
        // (see above). Every attempt strictly earlier than the winner in
        // `(finish, order)` must have failed — otherwise *it* would be
        // the winner — and every later one is cancelled at the winner's
        // finish, exactly the simulator's semantics.
        macro_rules! dispatch_group {
            ($i:expr, $now:expr) => {{
                let i: usize = $i;
                let now: f64 = $now;
                let ac = ActivationId::from_index(i);
                let primary_vm = plan.vm_for(ac).expect("plan validated complete");
                let length_mi = workflow.activations[ac].length_mi;
                let features = ReplFeatures {
                    attempt: cur_attempt[i],
                    // The execution engine has no VM blacklist.
                    blacklist_frac: 0.0,
                    slack_frac: (ranks[i] / cp_total).clamp(0.0, 1.0),
                };
                let requested = self.config.replication.extra_replicas(&features);
                let mut attempts: Vec<(u32, VmId)> = vec![(cur_attempt[i], primary_vm)];
                // Same placement as the simulator's, minus what only it
                // has: no VM here is ever blacklisted or full.
                let targets = replica_targets(primary_vm.index(), nv, requested, |_| false);
                for &cand in targets.as_slice() {
                    attempts.push((REPLICA_ATTEMPT_BASE + rep_seq[i], VmId::from_index(cand)));
                    rep_seq[i] += 1;
                }
                repl_stats.launched += targets.as_slice().len() as u64;
                let mut order: Vec<usize> = (0..attempts.len()).collect();
                order.sort_by(|&a, &b| {
                    let da = length_mi / vm_mips[attempts[a].1.index()];
                    let db = length_mi / vm_mips[attempts[b].1.index()];
                    da.total_cmp(&db).then(a.cmp(&b))
                });
                let winner = order
                    .iter()
                    .copied()
                    .find(|&k| failures.draw(ac, attempts[k].1, attempts[k].0) != Attempt::Fails);
                let mut cancelled: Vec<(u32, u32)> = Vec::new();
                match winner {
                    Some(w) => {
                        let pos = order.iter().position(|&k| k == w).expect("winner in order");
                        stats.failed_attempts += pos as u64;
                        for &k in &order[pos + 1..] {
                            cancelled.push((attempts[k].0, attempts[k].1.raw()));
                        }
                        cancelled.sort_unstable();
                        repl_stats.cancelled += cancelled.len() as u64;
                        if attempts[w].0 >= REPLICA_ATTEMPT_BASE {
                            repl_stats.replica_wins += 1;
                        }
                    }
                    None => {
                        stats.failed_attempts += attempts.len() as u64;
                    }
                }
                repl_log.push(ExecReplGroup {
                    activation: i as u32,
                    attempts: attempts.iter().map(|&(a, v)| (a, v.raw())).collect(),
                    winner: winner.map(|w| (attempts[w].0, attempts[w].1.raw())),
                    cancelled,
                });
                rep_groups[i] = Some(RepGroup {
                    winner_attempt: winner.map(|w| attempts[w].0),
                    outstanding: attempts.len(),
                });
                for &(attempt, vm) in &attempts {
                    vm_senders[vm.index()]
                        .send(WorkItem::Run { ac, length_mi, ready_wall: now, attempt })
                        .map_err(|_| Error::Execution("worker pool hung up".into()))?;
                }
            }};
        }

        macro_rules! dispatch_any {
            ($i:expr, $now:expr) => {{
                if repl_active {
                    dispatch_group!($i, $now)
                } else {
                    dispatch!($i, $now)
                }
            }};
        }

        for i in 0..n {
            if remaining_parents[i] == 0 {
                dispatch_any!(i, 0.0);
                dispatched[i] = true;
            }
        }

        let mut telemetry = ExecTelemetry::default();
        while completed < n && !workflow_failed {
            let msg = if redispatch {
                match done_rx.recv_timeout(Duration::from_millis(5)) {
                    Ok(m) => Some(m),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(Error::Execution("all workers exited early".into()))
                    }
                }
            } else {
                Some(
                    done_rx
                        .recv()
                        .map_err(|_| Error::Execution("all workers exited early".into()))?,
                )
            };
            if let Some(msg) = msg {
                let i = msg.ac.index();
                let now_wall = t0.elapsed().as_secs_f64();
                if redispatch {
                    let v = msg.vm.index();
                    queue_virt[v] = (queue_virt[v] - expected_virt[i]).max(0.0);
                }
                if repl_active {
                    if resolved[i] {
                        continue;
                    }
                    let g = rep_groups[i].as_mut().expect("arrival for dispatched group");
                    match g.winner_attempt {
                        // Winner arrival ⇒ fall through and resolve;
                        // its failure draw is `Survives` by the race's
                        // construction.
                        Some(w) if w == msg.attempt => {}
                        // A loser: its fate (failed or cancelled) was
                        // already counted analytically at dispatch.
                        Some(_) => continue,
                        // Every attempt fails: the group retries only
                        // once all of its arrivals have drained.
                        None => {
                            g.outstanding -= 1;
                            if g.outstanding == 0 {
                                rep_groups[i] = None;
                                if cur_attempt[i] < self.config.max_retries {
                                    cur_attempt[i] += 1;
                                    stats.retries += 1;
                                    dispatch_group!(i, now_wall);
                                } else {
                                    workflow_failed = true;
                                }
                            }
                            continue;
                        }
                    }
                } else if resolved[i] || msg.attempt != cur_attempt[i] {
                    // Stale tag ⇒ the attempt was already presumed lost
                    // and re-dispatched; this late completion is void.
                    continue;
                }
                telemetry
                    .dispatch_latency_secs
                    .record(((msg.start_wall - msg.ready_wall) * compression).max(0.0));
                telemetry.ack_latency_secs.record((now_wall - msg.end_wall).max(0.0));
                telemetry.jitter_factor.record(msg.jitter);
                if msg.failed {
                    stats.failed_attempts += 1;
                    if cur_attempt[i] < self.config.max_retries {
                        cur_attempt[i] += 1;
                        stats.retries += 1;
                        dispatch!(i, now_wall);
                    } else {
                        workflow_failed = true;
                    }
                    continue;
                }
                resolved[i] = true;
                deadline[i] = f64::INFINITY;
                completed += 1;
                records.push(ExecRecord {
                    activation: msg.ac,
                    vm: msg.vm,
                    ready_at: SimTime(msg.ready_wall * compression),
                    started_at: SimTime(msg.start_wall * compression),
                    finished_at: SimTime(msg.end_wall * compression),
                });
                for child in workflow.children(msg.ac) {
                    let c = child.index();
                    remaining_parents[c] -= 1;
                    if remaining_parents[c] == 0 && !dispatched[c] {
                        dispatch_any!(c, now_wall);
                        dispatched[c] = true;
                    }
                }
            }
            if redispatch {
                let now_wall = t0.elapsed().as_secs_f64();
                for i in 0..n {
                    if dispatched[i] && !resolved[i] && now_wall > deadline[i] {
                        if cur_attempt[i] < self.config.max_retries {
                            cur_attempt[i] += 1;
                            stats.redispatches += 1;
                            dispatch!(i, now_wall);
                        } else {
                            workflow_failed = true;
                        }
                    }
                }
            }
        }

        // Close queues; workers drain and exit.
        drop(vm_senders);
        for h in handles {
            h.join().map_err(|_| Error::Execution("worker panicked".into()))?;
        }
        stats.lost_acks = lost_acks.load(Ordering::Relaxed);

        let wall_secs = t0.elapsed().as_secs_f64();
        let makespan = records.iter().map(|r| r.finished_at).fold(SimTime::ZERO, SimTime::max);
        repl_log.sort_by_key(|g| (g.activation, g.attempts.first().map_or(0, |a| a.0)));
        Ok(ExecutionReport {
            makespan,
            wall_secs,
            records,
            success: completed == n,
            telemetry,
            fault_stats: stats,
            repl_stats,
            repl_groups: repl_log,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud::Fleet;
    use sched::heft_plan;
    use workflow::montage50::montage50;

    fn fast_config(seed: u64) -> ExecConfig {
        // Very aggressive compression keeps the test suite quick.
        ExecConfig { time_compression: 20_000.0, jitter_cv: 0.02, seed, ..ExecConfig::default() }
    }

    #[test]
    fn exec_telemetry_summary_json_is_quantiles() {
        let mut t = ExecTelemetry::default();
        t.dispatch_latency_secs.record(0.5);
        t.dispatch_latency_secs.record(1.5);
        let json = t.summary_json();
        assert!(json.starts_with("{\"dispatch_latency_secs\":{\"count\":2"), "{json}");
        assert!(json.contains("\"p95\":"), "{json}");
        assert!(!json.contains("\"buckets\""), "{json}");
        assert!(json.contains("\"jitter_factor\":{\"count\":0"), "{json}");
    }

    #[test]
    fn executes_heft_plan_to_completion() {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        let plan = heft_plan(&wf, &fleet, 125.0e6).unwrap().plan;
        let engine = ExecutionEngine::new(fleet, fast_config(1)).unwrap();
        let report = engine.execute(&wf, &plan).unwrap();
        assert!(report.success);
        assert_eq!(report.records.len(), 50);
        assert!(report.makespan.as_secs() > 0.0);
        assert!(report.wall_secs < 10.0, "compression should keep this fast");
    }

    #[test]
    fn dependencies_respected_in_wall_clock() {
        let wf = montage50();
        let fleet = Fleet::paper_32_vcpus();
        let plan = heft_plan(&wf, &fleet, 125.0e6).unwrap().plan;
        let engine = ExecutionEngine::new(fleet, fast_config(2)).unwrap();
        let report = engine.execute(&wf, &plan).unwrap();
        let find = |ac: ActivationId| report.records.iter().find(|r| r.activation == ac);
        for rec in &report.records {
            for parent in wf.parents(rec.activation) {
                let p = find(parent).expect("parent completed");
                // Thread wake-up latencies can reorder timestamps by a
                // few ms of wall time; tolerate compression × 5 ms.
                assert!(
                    p.finished_at.as_secs() <= rec.started_at.as_secs() + 0.005 * 20_000.0,
                    "{} started before parent {} finished",
                    rec.activation,
                    parent
                );
            }
        }
    }

    #[test]
    fn makespan_roughly_tracks_plan_quality() {
        // A plan that serializes everything on one micro VM must be far
        // slower than HEFT's spread across the fleet.
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        let heft = heft_plan(&wf, &fleet, 125.0e6).unwrap().plan;
        let engine = ExecutionEngine::new(fleet.clone(), fast_config(3)).unwrap();
        let good = engine.execute(&wf, &heft).unwrap();

        let all_on_micro = Plan::from_assignments(vec![VmId::new(0); wf.len()]);
        let bad = engine.execute(&wf, &all_on_micro).unwrap();
        assert!(
            bad.makespan.as_secs() > good.makespan.as_secs() * 2.0,
            "serializing on one micro ({}) should be ≫ HEFT ({})",
            bad.makespan,
            good.makespan
        );
    }

    #[test]
    fn rejects_incomplete_plan() {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        let engine = ExecutionEngine::new(fleet, fast_config(4)).unwrap();
        let incomplete = Plan::empty(wf.len());
        assert!(engine.execute(&wf, &incomplete).is_err());
    }

    #[test]
    fn queue_times_nonzero_when_vm_oversubscribed() {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        // All 50 activations on the single-element micro vm0 ⇒ the 11
        // entry projections must queue behind each other.
        let plan = Plan::from_assignments(vec![VmId::new(0); wf.len()]);
        let engine = ExecutionEngine::new(fleet, fast_config(5)).unwrap();
        let report = engine.execute(&wf, &plan).unwrap();
        let queued = report.records.iter().filter(|r| r.queue_secs() > 1.0).count();
        assert!(queued > 5, "expected queueing, saw {queued} queued records");
    }

    #[test]
    fn telemetry_covers_every_completion() {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        let plan = heft_plan(&wf, &fleet, 125.0e6).unwrap().plan;
        let engine = ExecutionEngine::new(fleet, fast_config(6)).unwrap();
        let report = engine.execute(&wf, &plan).unwrap();
        let t = &report.telemetry;
        assert_eq!(t.dispatch_latency_secs.count(), 50);
        assert_eq!(t.ack_latency_secs.count(), 50);
        assert_eq!(t.jitter_factor.count(), 50);
        // Jitter is centred near 1.0 with cv = 0.02 and floored at 0.5.
        assert!(t.jitter_factor.min_secs().unwrap() >= 0.5);
        let mean = t.jitter_factor.mean_secs().unwrap();
        assert!((mean - 1.0).abs() < 0.1, "jitter mean {mean}");
        // Ack latency is wall-clock and tiny, but never negative.
        assert!(t.ack_latency_secs.min_secs().unwrap() >= 0.0);
    }

    #[test]
    fn invalid_config_rejected() {
        let fleet = Fleet::paper_16_vcpus();
        assert!(ExecutionEngine::new(
            fleet.clone(),
            ExecConfig { time_compression: 0.0, ..ExecConfig::default() }
        )
        .is_err());
        assert!(ExecutionEngine::new(Fleet::new(), ExecConfig::default()).is_err());
        assert!(ExecutionEngine::new(
            fleet.clone(),
            ExecConfig { failure_prob: 1.5, ..ExecConfig::default() }
        )
        .is_err());
        // Lost acks with no re-dispatch would hang the master forever.
        assert!(ExecutionEngine::new(
            fleet,
            ExecConfig { lost_ack_prob: 0.1, ..ExecConfig::default() }
        )
        .is_err());
    }

    #[test]
    fn injected_failures_retry_and_complete() {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        let plan = heft_plan(&wf, &fleet, 125.0e6).unwrap().plan;
        let config = ExecConfig { failure_prob: 0.2, max_retries: 10, ..fast_config(7) };
        let engine = ExecutionEngine::new(fleet, config).unwrap();
        let report = engine.execute(&wf, &plan).unwrap();
        assert!(report.success);
        assert_eq!(report.records.len(), 50, "every activation resolves exactly once");
        let s = report.fault_stats;
        assert!(s.failed_attempts > 0, "p=0.2 over 50 activations must fail somewhere");
        assert_eq!(s.retries, s.failed_attempts, "every failure retried within bound");
        assert_eq!((s.redispatches, s.lost_acks), (0, 0));
    }

    #[test]
    fn failure_draws_match_the_simulator_model() {
        // The engine keys failures exactly like wfsim: predict the
        // failed attempts from the model and check the engine's count.
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        let plan = heft_plan(&wf, &fleet, 125.0e6).unwrap().plan;
        let config = ExecConfig { failure_prob: 0.3, max_retries: 10, ..fast_config(11) };
        let model = FailureModel::new(0.3, 10, SeedDerivation::new(11));
        let mut predicted = 0u64;
        for i in 0..wf.len() {
            let ac = ActivationId::from_index(i);
            let vm = plan.vm_for(ac).unwrap();
            let mut attempt = 0;
            while model.draw(ac, vm, attempt) == Attempt::Fails {
                predicted += 1;
                attempt += 1;
            }
        }
        let engine = ExecutionEngine::new(fleet, config).unwrap();
        let report = engine.execute(&wf, &plan).unwrap();
        assert!(report.success);
        assert_eq!(report.fault_stats.failed_attempts, predicted);
        assert_eq!(report.fault_stats.retries, predicted);
    }

    #[test]
    fn retry_bound_fails_the_workflow() {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        let plan = heft_plan(&wf, &fleet, 125.0e6).unwrap().plan;
        let config = ExecConfig { failure_prob: 1.0, max_retries: 1, ..fast_config(8) };
        let engine = ExecutionEngine::new(fleet, config).unwrap();
        let report = engine.execute(&wf, &plan).unwrap();
        assert!(!report.success, "every attempt fails; the bound must trip");
        assert!(report.records.len() < 50);
    }

    #[test]
    fn replication_config_rules() {
        let fleet = Fleet::paper_16_vcpus();
        // Replication and ack-loss recovery hedge the same failure mode;
        // combining them double-dispatches.
        let c = ExecConfig {
            replication: ReplicationPolicy::Static { k: 2 },
            lost_ack_prob: 0.1,
            redispatch_wall_ms: 100.0,
            ..ExecConfig::default()
        };
        assert!(ExecutionEngine::new(fleet.clone(), c).is_err());
        let c = ExecConfig {
            replication: ReplicationPolicy::Static { k: 2 },
            redispatch_wall_ms: 100.0,
            ..ExecConfig::default()
        };
        assert!(ExecutionEngine::new(fleet.clone(), c).is_err());
        let c =
            ExecConfig { replication: ReplicationPolicy::Static { k: 9 }, ..ExecConfig::default() };
        assert!(ExecutionEngine::new(fleet, c).is_err());
    }

    #[test]
    fn replication_completes_with_deterministic_race_sets() {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        let plan = heft_plan(&wf, &fleet, 125.0e6).unwrap().plan;
        let config = ExecConfig {
            failure_prob: 0.25,
            max_retries: 10,
            replication: ReplicationPolicy::Static { k: 2 },
            ..fast_config(21)
        };
        let engine = ExecutionEngine::new(fleet, config).unwrap();
        let a = engine.execute(&wf, &plan).unwrap();
        let b = engine.execute(&wf, &plan).unwrap();
        assert!(a.success);
        assert_eq!(a.records.len(), 50);
        assert!(a.repl_stats.launched > 0, "static-2 must launch replicas");
        // The race is resolved analytically, so two wall-clock runs
        // agree on every launch/win/cancel set and every counter.
        assert_eq!(a.repl_groups, b.repl_groups);
        assert_eq!(a.repl_stats, b.repl_stats);
        assert_eq!(a.fault_stats, b.fault_stats);
        // Sanity on the group ledger itself: drained (all-failed)
        // groups stay recorded with no winner; each activation resolves
        // through exactly one winning group.
        let mut wins_per_ac = std::collections::HashMap::new();
        for g in &a.repl_groups {
            if let Some((w, _)) = g.winner {
                assert!(g.attempts.iter().any(|&(at, _)| at == w));
                for c in &g.cancelled {
                    assert_ne!(c.0, w, "the winner is never cancelled");
                    assert!(g.attempts.contains(c));
                }
                *wins_per_ac.entry(g.activation).or_insert(0u32) += 1;
            } else {
                assert!(g.cancelled.is_empty(), "drained groups cancel nothing");
            }
        }
        assert!(wins_per_ac.values().all(|&w| w == 1), "one winning group per activation");
        let cancelled: u64 = a.repl_groups.iter().map(|g| g.cancelled.len() as u64).sum();
        assert_eq!(cancelled, a.repl_stats.cancelled);
    }

    #[test]
    fn replicas_win_races_the_primary_loses() {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        let plan = heft_plan(&wf, &fleet, 125.0e6).unwrap().plan;
        let base = ExecConfig { failure_prob: 0.3, max_retries: 10, ..fast_config(23) };
        let plain = ExecutionEngine::new(fleet.clone(), base.clone()).unwrap();
        let plain_report = plain.execute(&wf, &plan).unwrap();
        assert!(plain_report.fault_stats.retries > 0, "p=0.3 must force retries");

        let hedged_cfg = ExecConfig { replication: ReplicationPolicy::Static { k: 2 }, ..base };
        let hedged = ExecutionEngine::new(fleet, hedged_cfg).unwrap();
        let report = hedged.execute(&wf, &plan).unwrap();
        assert!(report.success);
        assert!(report.repl_stats.replica_wins > 0, "failed primaries lose to replicas");
        // A surviving replica absorbs what would have been a retry.
        assert!(
            report.fault_stats.retries < plain_report.fault_stats.retries,
            "hedged retries {} !< plain retries {}",
            report.fault_stats.retries,
            plain_report.fault_stats.retries
        );
    }

    #[test]
    fn all_failed_replica_group_retries_or_exhausts() {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        let plan = heft_plan(&wf, &fleet, 125.0e6).unwrap().plan;
        let config = ExecConfig {
            failure_prob: 1.0,
            max_retries: 1,
            replication: ReplicationPolicy::Static { k: 2 },
            ..fast_config(24)
        };
        let engine = ExecutionEngine::new(fleet, config).unwrap();
        let report = engine.execute(&wf, &plan).unwrap();
        assert!(!report.success, "p=1 groups all fail; the retry bound must trip");
        assert!(report.repl_groups.iter().all(|g| g.winner.is_none()));
        assert!(report.fault_stats.retries > 0, "a drained group retries before exhausting");
    }

    #[test]
    fn lost_acks_are_redispatched_to_completion() {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        let plan = heft_plan(&wf, &fleet, 125.0e6).unwrap().plan;
        let config = ExecConfig {
            lost_ack_prob: 0.15,
            redispatch_wall_ms: 150.0,
            max_retries: 20,
            ..fast_config(9)
        };
        let engine = ExecutionEngine::new(fleet, config).unwrap();
        let report = engine.execute(&wf, &plan).unwrap();
        assert!(report.success, "re-dispatch must recover every lost ack");
        assert_eq!(report.records.len(), 50);
        let s = report.fault_stats;
        assert!(s.lost_acks > 0, "p=0.15 over ≥50 attempts must drop some acks");
        assert!(s.redispatches >= 1, "lost acks only recover via re-dispatch");
    }
}
