//! The traced run: spans recorded by the harness around every call into
//! a layer's public functions, and the two re-compositions that make
//! those calls visible — `reassign`'s serial learning loop and
//! `svc::ShardState::process`, rebuilt from the program's public parts.
//! Each re-composition must reproduce the program's own result bit for
//! bit (checked by the callers), which is what ties the per-layer times
//! to the code the untraced run measures.

use crate::workload::{greedy_eval_config, greedy_eval_seeds, service_replay};
use cloud::{Fleet, ReplTable, ReplicationPolicy, REPL_MAX_EXTRA, REPL_STATES};
use obs::{BinMemSink, TraceEvent, Tracer};
use provenance::{ActivationProv, EpisodeKey, EpisodeRecord};
use qlearn::DenseQTable;
use reassign::{LearnTelemetry, ReassignConfig, ReassignScheduler};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;
use svc::{CacheKey, QCache, ServiceConfig, Submission};
use wfcommon::ids::Idx;
use wfcommon::{EpisodeId, Error, Result, SeedDerivation, SimTime};
use wfsim::{
    simulate, simulate_cached_traced, CompletionInfo, Decision, ExecHistory, FixedPlanScheduler,
    Plan, ReplDecision, Scheduler, SchedulerContext, SimArena, SimConfig, SimResult,
};
use workflow::{Workflow, WorkflowCache};

/// One timed interval. `calls > 1` marks an aggregate: the summed time
/// of that many callbacks inside the parent (one span per `decide` would
/// be tens of millions of spans), laid out from the parent's start.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The plan (learn call or submission) the span belongs to.
    pub plan: u32,
    pub calls: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Disabled, it runs the closures and records
/// nothing, so set-up code is shared between traced and untraced runs.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    plan: u32,
}

impl Spans {
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            plan: 0,
        }
    }

    pub fn enabled() -> Self {
        Self { enabled: true, ..Self::disabled() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened from here on belong to plan `plan`.
    pub fn set_plan(&mut self, plan: u32) {
        self.plan = plan;
    }

    /// Run `f` inside a span called `name`, child of the enclosing one.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            plan: self.plan,
            calls: 1,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Record `calls` callbacks that together took `total_ns` inside
    /// the enclosing span.
    pub fn aggregate(&mut self, name: &'static str, calls: u64, total_ns: u64) {
        if !self.enabled || calls == 0 {
            return;
        }
        let parent = self.stack.last().copied();
        let start_ns = parent.map_or(0, |p| self.spans[p as usize].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + total_ns,
            parent,
            plan: self.plan,
            calls,
        });
    }

    /// Per span name: `(spans, calls, total ns, self ns)`, where self
    /// time is a span's duration minus its children's.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.nanos() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.nanos() as i64;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.calls += s.calls;
            t.total_ns += s.nanos();
            t.self_ns += own;
        }
        out
    }

    /// Write the first `count` spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path, count: usize) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().take(count).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"plan\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.plan, s.calls
            )?;
        }
        w.flush()
    }
}

#[derive(Default, Clone, Copy)]
pub struct NameTotals {
    pub spans: u64,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: i64,
}

/// Exact counts taken at the same boundaries as the spans.
#[derive(Default)]
pub struct Counts {
    pub episodes: u64,
    pub sim_events: u64,
    pub replays: u64,
    pub replay_events: u64,
    /// Failed or lost attempts that went back to the ready queue
    /// (`retry` and `reschedule` events).
    pub retries: u64,
    pub replicas: u64,
    pub td_updates: u64,
    /// Service plans by Q-cache outcome, and the time they took.
    pub hits: u64,
    pub hit_ns: u64,
    pub misses: u64,
    pub miss_ns: u64,
}

/// The agent as the engine sees it, with its two callbacks timed.
struct TimedAgent<'a> {
    agent: &'a mut ReassignScheduler,
    decides: u64,
    decide_ns: u64,
    observes: u64,
    observe_ns: u64,
}

impl Scheduler for TimedAgent<'_> {
    fn name(&self) -> &str {
        self.agent.name()
    }

    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        let t0 = Instant::now();
        let decision = self.agent.decide(ctx);
        self.decide_ns += t0.elapsed().as_nanos() as u64;
        self.decides += 1;
        decision
    }

    fn on_completion(&mut self, info: &CompletionInfo, history: &ExecHistory) {
        let t0 = Instant::now();
        self.agent.on_completion(info, history);
        self.observe_ns += t0.elapsed().as_nanos() as u64;
        self.observes += 1;
    }

    fn on_episode_end(&mut self, result: &SimResult) {
        self.agent.on_episode_end(result);
    }
}

/// `reassign`'s replication-head trainer is private to the crate, so a
/// re-composed loop has to carry its own copy of the exploration rule
/// (prior first, then ±1 neighbours, then margin-greedy) to run the same
/// episodes. The bit-for-bit check against `learn` is what keeps this
/// copy honest: if the crate's rule changes, the traced run fails.
struct ReplHead {
    active: bool,
    failure_penalty: f64,
    prior: ReplTable,
    q: Vec<Vec<f64>>,
    n: Vec<Vec<u64>>,
}

impl ReplHead {
    const WASTE_WEIGHT: f64 = 0.25;
    const PRIOR_MARGIN: f64 = 8.0;

    fn new(policy: &ReplicationPolicy, failure_penalty: f64) -> Self {
        let actions = REPL_MAX_EXTRA as usize + 1;
        let (active, prior) = match policy {
            ReplicationPolicy::Learned { table } => (true, table.clone()),
            _ => (false, ReplTable::zeros()),
        };
        Self {
            active,
            failure_penalty,
            prior,
            q: vec![vec![0.0; actions]; REPL_STATES],
            n: vec![vec![0; actions]; REPL_STATES],
        }
    }

    fn candidates(&self, bucket: usize) -> Vec<u32> {
        let p = self.prior.extra(bucket);
        let mut c = vec![p];
        if p > 0 {
            c.push(p - 1);
        }
        if p < REPL_MAX_EXTRA {
            c.push(p + 1);
        }
        c
    }

    fn converged(&self, bucket: usize) -> u32 {
        let prior = self.prior.extra(bucket);
        if self.n[bucket][prior as usize] == 0 {
            return prior;
        }
        let mut best = prior;
        let mut best_q = self.q[bucket][prior as usize] + Self::PRIOR_MARGIN;
        for a in self.candidates(bucket) {
            if a != prior && self.n[bucket][a as usize] > 0 && self.q[bucket][a as usize] > best_q {
                best = a;
                best_q = self.q[bucket][a as usize];
            }
        }
        best
    }

    /// The table for the next training episode (`explore`) or the
    /// converged one.
    fn policy(&self, explore: bool) -> ReplicationPolicy {
        let mut table = ReplTable::zeros();
        for b in 0..REPL_STATES {
            let unsampled = self.candidates(b).into_iter().find(|&a| self.n[b][a as usize] == 0);
            table.set(b, unsampled.filter(|_| explore).unwrap_or_else(|| self.converged(b)));
        }
        ReplicationPolicy::Learned { table }
    }

    fn observe(&mut self, decisions: &[ReplDecision]) {
        if !self.active {
            return;
        }
        for d in decisions {
            let b = d.bucket as usize;
            if b >= REPL_STATES {
                continue;
            }
            let a = (d.requested as usize).min(REPL_MAX_EXTRA as usize);
            let mut reward = d.primary_secs - d.group_secs - Self::WASTE_WEIGHT * d.waste_secs;
            if d.group_failed {
                reward -= self.failure_penalty;
            }
            self.n[b][a] += 1;
            self.q[b][a] += (reward - self.q[b][a]) / self.n[b][a] as f64;
        }
    }
}

/// What the re-composed learning loop yields.
pub struct Recomposed {
    pub greedy_plan: Plan,
    pub greedy_makespan: SimTime,
    /// The behaviour table after the last episode (`learn_tuned` only).
    pub q_table: Option<DenseQTable>,
}

/// `reassign::learn` (and, with `tuned`, `reassign::learn_tuned`)
/// re-composed from public parts, one span per call across a layer
/// boundary. Follows `reassign::episodes::learn_inner` step for step.
#[allow(clippy::too_many_arguments)]
pub fn learn_recomposed(
    wf: &Workflow,
    fleet: &Fleet,
    config: &ReassignConfig,
    sim_config: &SimConfig,
    warm_q: Option<&DenseQTable>,
    tuned: bool,
    tracer: &mut Tracer<'_>,
    spans: &mut Spans,
    counts: &mut Counts,
) -> Result<Recomposed> {
    spans.time("reassign.learn", |spans| {
        config.validate()?;
        sim_config.validate()?;
        let mut agent = spans.time("reassign.agent_new", |_| {
            ReassignScheduler::new(wf.len(), fleet.len(), *config)
        })?;
        if let Some(q) = warm_q {
            spans.time("reassign.load_q", |_| agent.load_q_table(q.clone()))?;
        }
        let seeds = SeedDerivation::new(config.seed);
        let cache = spans.time("workflow.cache", |_| WorkflowCache::new(wf))?;
        let mut arena = SimArena::new();
        let mut best: Option<(Plan, SimTime)> = None;
        let mut carried: Option<ExecHistory> = None;
        let mut telemetry = LearnTelemetry::new();
        let mut head = ReplHead::new(&sim_config.replication, config.failure_penalty);
        let mut episode_sim = sim_config.clone();

        for ep in 0..config.episodes {
            if head.active {
                episode_sim.replication = head.policy(true);
            }
            spans.time("reassign.episode", |spans| -> Result<()> {
                spans.time("reassign.begin_episode", |_| agent.begin_episode_at(ep));
                tracer.emit_with(|| TraceEvent::EpisodeStart {
                    episode: ep,
                    epsilon: agent.current_epsilon(),
                });
                let q_before = tracer.enabled().then(|| agent.q_table().as_flat().to_vec());
                let episode_seeds = SeedDerivation::new(seeds.seed_for("episode", ep as u64));
                let result = spans.time("wfsim.simulate", |spans| {
                    let mut timed = TimedAgent {
                        agent: &mut agent,
                        decides: 0,
                        decide_ns: 0,
                        observes: 0,
                        observe_ns: 0,
                    };
                    let result = simulate_cached_traced(
                        wf,
                        &cache,
                        fleet,
                        &mut timed,
                        &episode_sim,
                        episode_seeds,
                        carried.as_ref(),
                        &mut arena,
                        tracer,
                    );
                    spans.aggregate("reassign.decide", timed.decides, timed.decide_ns);
                    spans.aggregate("reassign.observe", timed.observes, timed.observe_ns);
                    result
                })?;
                let td_updates = agent.td_updates_this_episode();
                if let Some(before) = q_before {
                    let q_delta: f64 = before
                        .iter()
                        .zip(agent.q_table().as_flat())
                        .map(|(a, b)| (a - b).abs())
                        .sum();
                    tracer.emit(&TraceEvent::EpisodeEnd {
                        episode: ep,
                        makespan_secs: result.makespan.as_secs(),
                        success: result.success,
                        reward: agent.current_reward(),
                        td_updates,
                        q_delta,
                    });
                }
                head.observe(&result.repl_decisions);
                spans.time("reassign.telemetry", |_| telemetry.record_episode(&result, td_updates));
                counts.episodes += 1;
                counts.sim_events += result.events_processed;
                counts.retries += result.fault_stats.retries + result.fault_stats.reschedules;
                counts.replicas += result.repl_stats.launched;
                counts.td_updates += td_updates;
                let SimResult { makespan, success, plan, history, .. } = result;
                if config.carry_history {
                    carried = Some(history);
                }
                if success && best.as_ref().is_none_or(|(_, m)| makespan < *m) {
                    best = Some((plan, makespan));
                }
                Ok(())
            })?;
        }

        if head.active {
            episode_sim.replication = head.policy(false);
        }
        let greedy_plan = spans.time("reassign.greedy_plan", |_| agent.greedy_plan());
        spans.time("wfsim.plan_validate", |_| greedy_plan.validate(wf, fleet))?;
        let replay = spans.time("wfsim.replay", |_| {
            simulate(
                wf,
                fleet,
                &mut FixedPlanScheduler::new(greedy_plan.clone()),
                &greedy_eval_config(&episode_sim),
                greedy_eval_seeds(config.seed),
                None,
            )
        })?;
        counts.replays += 1;
        counts.replay_events += replay.events_processed;
        if !replay.success && sim_config.faults.is_inert() {
            return Err(Error::Simulation("greedy plan replay did not complete".into()));
        }
        let (_, best_makespan) =
            best.ok_or_else(|| Error::Simulation("no episode finished successfully".into()))?;
        tracer.emit_with(|| TraceEvent::LearnEnd {
            episodes: config.episodes,
            greedy_makespan_secs: replay.makespan.as_secs(),
            best_makespan_secs: best_makespan.as_secs(),
        });
        let q_table = tuned.then(|| spans.time("qlearn.table_clone", |_| agent.q_table().clone()));
        Ok(Recomposed { greedy_plan, greedy_makespan: replay.makespan, q_table })
    })
}

/// What the re-composed shard yields for one submission: the fields the
/// service's own result is compared on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Processed {
    pub cache_hit: bool,
    pub episodes: u32,
    pub makespan_bits: u64,
    pub success: bool,
}

/// `svc::ShardState` re-composed from public parts: the Q-cache, the
/// trace buffer and the arena one shard owns.
pub struct ShardMirror {
    id: u32,
    cache: QCache,
    sink: BinMemSink,
    arena: SimArena,
}

impl ShardMirror {
    pub fn new(id: u32) -> Self {
        Self { id, cache: QCache::new(), sink: BinMemSink::new(), arena: SimArena::new() }
    }

    /// The frames this shard has emitted so far.
    pub fn trace(&self) -> &[u8] {
        self.sink.as_bytes()
    }

    /// `ShardState::process` step for step: build → cache lookup →
    /// learn (full or fine-tune) → cache insert → plan simulation under
    /// the service's fault regime → result and provenance records.
    pub fn process(
        &mut self,
        seq: u64,
        sub: &Submission,
        cfg: &ServiceConfig,
        spans: &mut Spans,
        counts: &mut Counts,
    ) -> Result<Processed> {
        spans.time("svc.process", |spans| {
            let family = sub.spec.family_label().to_string();
            let wf = spans.time("workflow.build", |_| sub.spec.build())?;
            let key =
                CacheKey { family: family.clone(), activations: wf.len(), vms: cfg.fleet.len() };
            let warm = spans.time("svc.qcache_lookup", |_| self.cache.lookup(&key));
            let hit = warm.is_some();
            let size = wf.len() as u32;
            spans.time("obs.emit", |_| {
                let mut tracer = Tracer::new(&mut self.sink);
                let (shard, family) = (self.id, family.as_str());
                if hit {
                    tracer.emit(&TraceEvent::CacheHit { seq, shard, family, size });
                } else {
                    tracer.emit(&TraceEvent::CacheMiss { seq, shard, family, size });
                }
            });

            let episodes = if hit { cfg.episodes_finetune } else { cfg.episodes_full };
            let rcfg = ReassignConfig { episodes, seed: sub.seed, ..cfg.base };
            let tuned = {
                let mut tracer =
                    if cfg.trace_detail { Tracer::new(&mut self.sink) } else { Tracer::disabled() };
                learn_recomposed(
                    &wf,
                    &cfg.fleet,
                    &rcfg,
                    &SimConfig::deterministic(),
                    warm.as_ref(),
                    true,
                    &mut tracer,
                    spans,
                    counts,
                )?
            };
            let q_table = tuned.q_table.expect("tuned learning returns its table");
            spans.time("svc.qcache_insert", |_| self.cache.insert(key, q_table));

            let wf_cache = spans.time("workflow.cache", |_| WorkflowCache::new(&wf))?;
            let (sim_cfg, seeds) = service_replay(cfg, sub);
            let res = spans.time("wfsim.replay", |_| {
                let mut tracer =
                    if cfg.trace_detail { Tracer::new(&mut self.sink) } else { Tracer::disabled() };
                simulate_cached_traced(
                    &wf,
                    &wf_cache,
                    &cfg.fleet,
                    &mut FixedPlanScheduler::new(tuned.greedy_plan.clone()),
                    &sim_cfg,
                    seeds,
                    None,
                    &mut self.arena,
                    &mut tracer,
                )
            })?;
            counts.replays += 1;
            counts.replay_events += res.events_processed;
            if !res.success && cfg.faults.is_inert() {
                return Err(Error::Simulation(format!("plan replay for submission {seq} failed")));
            }

            // The result and provenance records the shard assembles.
            let record = spans.time("svc.record", |_| {
                let mut assignments = vec![u32::MAX; res.plan.len()];
                for (ac, vm) in res.plan.iter() {
                    assignments[ac.index()] = vm.raw();
                }
                let mut retries: Vec<(u32, u32)> = res
                    .records
                    .iter()
                    .filter(|r| r.retries > 0)
                    .map(|r| (r.activation.index() as u32, r.retries))
                    .collect();
                retries.sort_unstable();
                let prov = EpisodeRecord {
                    episode: EpisodeId::new(0),
                    key: EpisodeKey::new(
                        wf.name.clone(),
                        cfg.fleet_label.clone(),
                        format!("svc:{}:{}", sub.tenant, rcfg.label()),
                    ),
                    makespan: res.makespan,
                    success: res.success,
                    assignments: assignments.clone(),
                    activations: res
                        .records
                        .iter()
                        .map(|r| ActivationProv {
                            activation: r.activation,
                            vm: r.vm,
                            queue_secs: r.queue_secs(),
                            exec_secs: r.exec_secs(),
                            started_at: r.started_at,
                            finished_at: r.finished_at,
                            retries: r.retries,
                        })
                        .collect(),
                    final_reward: None,
                };
                (assignments, retries, prov, sub.tenant.clone(), family.clone())
            });
            std::hint::black_box(&record);
            spans.time("obs.emit", |_| {
                Tracer::new(&mut self.sink).emit(&TraceEvent::PlanDone {
                    seq,
                    tenant: &sub.tenant,
                    shard: self.id,
                    makespan_secs: res.makespan.as_secs(),
                    episodes,
                    cache_hit: hit,
                });
            });
            Ok(Processed {
                cache_hit: hit,
                episodes,
                makespan_bits: res.makespan.as_secs().to_bits(),
                success: res.success,
            })
        })
    }
}
