//! Shard-local state: the warm-start Q-cache and the job processing
//! path. A shard is owned by exactly one worker at a time and never
//! shared, which is what makes the service deterministic (see the
//! crate docs).

use crate::config::ServiceConfig;
use crate::report::Completed;
use crate::submit::Submission;
use obs::{BinMemSink, TraceEvent, Tracer};
use provenance::{ActivationProv, EpisodeKey, EpisodeRecord};
use qlearn::DenseQTable;
use reassign::{LearnRun, ReassignConfig};
use std::collections::HashMap;
use wfcommon::ids::Idx;
use wfcommon::{EpisodeId, Error, Result, SeedDerivation, SimTime};
use wfsim::{simulate_cached_traced, FixedPlanScheduler, SimArena, SimConfig};
use workflow::WorkflowCache;

/// What a cached Q-table is keyed by: workflow family (or DAX path),
/// exact activation count, and fleet size. The table shape is
/// `activations × vms`, so all three must match for a warm start to be
/// shape-compatible and meaningful.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Family label (see [`crate::submit::WorkflowSpec::family_label`]).
    pub family: String,
    /// Actual workflow length (not the requested size — generators
    /// round to structurally valid counts).
    pub activations: usize,
    /// Fleet size the table was learned against.
    pub vms: usize,
}

/// A shard's warm-start cache: the final Q-table of the last learning
/// run per `(family, size, fleet)` line, plus hit/miss counters.
#[derive(Debug, Default)]
pub struct QCache {
    map: HashMap<CacheKey, DenseQTable>,
    hits: u64,
    misses: u64,
}

impl QCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a warm-start table, counting the hit or miss.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<DenseQTable> {
        match self.map.get(key) {
            Some(q) => {
                self.hits += 1;
                Some(q.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) the cache line for `key`.
    pub fn insert(&mut self, key: CacheKey, table: DenseQTable) {
        self.map.insert(key, table);
    }

    /// Number of cached tables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups that found a table.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Everything a worker hands back for one shard at drain time.
#[derive(Debug)]
pub struct ShardOutput {
    /// Shard id.
    pub shard: u32,
    /// The shard's binary trace buffer (service events, plus full
    /// learn/sim streams when `trace_detail` is on), in processing
    /// order. A frame fragment: no prelude — drain-time assembly
    /// concatenates the fragments under one prelude.
    pub trace: Vec<u8>,
    /// Structured events in the trace buffer.
    pub trace_events: u64,
    /// Completed jobs in processing order (= per-shard admission
    /// order).
    pub completed: Vec<Completed>,
    /// Cache hit count.
    pub cache_hits: u64,
    /// Cache miss count.
    pub cache_misses: u64,
    /// Distinct cache lines at drain.
    pub cache_entries: usize,
}

/// Mutable state owned by one shard.
pub struct ShardState {
    id: u32,
    cache: QCache,
    sink: BinMemSink,
    arena: SimArena,
    completed: Vec<Completed>,
}

impl ShardState {
    /// Fresh state for shard `id`.
    pub fn new(id: u32) -> Self {
        Self {
            id,
            cache: QCache::new(),
            sink: BinMemSink::new(),
            arena: SimArena::new(),
            completed: Vec::new(),
        }
    }

    /// Process one admitted submission end to end: cache lookup →
    /// learn (full or fine-tune) → final plan simulation → record.
    /// Errors are captured on the [`Completed`] record — a bad
    /// submission must not kill the worker. Returns the record just
    /// pushed, so the worker loop can feed the live registry without
    /// re-deriving the outcome.
    pub fn process(&mut self, seq: u64, sub: &Submission, cfg: &ServiceConfig) -> &Completed {
        let family = sub.spec.family_label().to_string();
        let done = match self.try_process(seq, sub, cfg, &family) {
            Ok(done) => done,
            Err(e) => Completed {
                seq,
                tenant: sub.tenant.clone(),
                family,
                shard: self.id,
                activations: 0,
                cache_hit: false,
                episodes: 0,
                makespan: SimTime::ZERO,
                success: false,
                assignments: Vec::new(),
                retries: Vec::new(),
                sojourn_secs: 0.0,
                error: Some(e.to_string()),
                prov: None,
            },
        };
        self.completed.push(done);
        self.completed.last().expect("just pushed")
    }

    fn try_process(
        &mut self,
        seq: u64,
        sub: &Submission,
        cfg: &ServiceConfig,
        family: &str,
    ) -> Result<Completed> {
        let wf = sub.spec.build()?;
        let key =
            CacheKey { family: family.to_string(), activations: wf.len(), vms: cfg.fleet.len() };
        let warm = self.cache.lookup(&key);
        let hit = warm.is_some();
        let size = wf.len() as u32;
        {
            let mut tracer = Tracer::new(&mut self.sink);
            if hit {
                tracer.emit(&TraceEvent::CacheHit { seq, shard: self.id, family, size });
            } else {
                tracer.emit(&TraceEvent::CacheMiss { seq, shard: self.id, family, size });
            }
        }

        // Hit ⇒ short fine-tune from the cached table; miss ⇒ full
        // learning. Learning always runs fault-free and deterministic;
        // the configured fault regime applies to the plan simulation
        // below.
        let episodes = if hit { cfg.episodes_finetune } else { cfg.episodes_full };
        let rcfg = ReassignConfig { episodes, seed: sub.seed, ..cfg.base };
        let tuned = {
            let mut tracer =
                if cfg.trace_detail { Tracer::new(&mut self.sink) } else { Tracer::disabled() };
            LearnRun {
                warm_q: warm.as_ref(),
                ..LearnRun::new(
                    &wf,
                    &cfg.fleet,
                    &cfg.fleet_label,
                    &rcfg,
                    &SimConfig::deterministic(),
                )
            }
            .run(&mut tracer)?
        };
        self.cache.insert(key, tuned.q_table);
        let out = tuned.outcome;

        // The deployed artifact: simulate the greedy plan under the
        // service's fault regime. All seeds derive from the
        // submission's seed — never from wall clock or sequence.
        let wf_cache = WorkflowCache::new(&wf)?;
        let sim_cfg = SimConfig {
            faults: cfg.faults,
            replication: sub.replicate.clone(),
            ..SimConfig::deterministic()
        };
        let seeds = SeedDerivation::new(SeedDerivation::new(sub.seed).seed_for("svc-replay", 0));
        let mut replay = FixedPlanScheduler::new(out.greedy_plan.clone());
        let res = {
            let mut tracer =
                if cfg.trace_detail { Tracer::new(&mut self.sink) } else { Tracer::disabled() };
            simulate_cached_traced(
                &wf,
                &wf_cache,
                &cfg.fleet,
                &mut replay,
                &sim_cfg,
                seeds,
                None,
                &mut self.arena,
                &mut tracer,
            )?
        };
        // Invariant: without faults, a validated plan must complete.
        // Under injected faults a pinned plan can legitimately fail —
        // that is a measured outcome, not a service bug.
        if !res.success && cfg.faults.is_inert() {
            return Err(Error::Simulation(format!(
                "plan replay for submission {seq} did not complete in a fault-free regime"
            )));
        }

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

        let prov_key = EpisodeKey::new(
            wf.name.clone(),
            cfg.fleet_label.clone(),
            format!("svc:{}:{}", sub.tenant, rcfg.label()),
        );
        let prov = EpisodeRecord {
            episode: EpisodeId::new(0), // assigned densely at drain
            key: prov_key,
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

        Tracer::new(&mut self.sink).emit(&TraceEvent::PlanDone {
            seq,
            tenant: &sub.tenant,
            shard: self.id,
            makespan_secs: res.makespan.as_secs(),
            episodes,
            cache_hit: hit,
        });

        Ok(Completed {
            seq,
            tenant: sub.tenant.clone(),
            family: family.to_string(),
            shard: self.id,
            activations: size,
            cache_hit: hit,
            episodes,
            makespan: res.makespan,
            success: res.success,
            assignments,
            retries,
            sojourn_secs: 0.0, // filled by the worker loop (wall clock)
            error: None,
            prov: Some(prov),
        })
    }

    /// Record the wall-clock sojourn of the most recently processed
    /// job (kept out of [`ShardState::process`] so the deterministic
    /// path never touches the clock).
    pub fn set_last_sojourn(&mut self, secs: f64) {
        if let Some(last) = self.completed.last_mut() {
            last.sojourn_secs = secs;
        }
    }

    /// Consume the state into its drain-time output.
    pub fn into_output(mut self) -> ShardOutput {
        ShardOutput {
            shard: self.id,
            trace_events: self.sink.events(),
            trace: self.sink.take(),
            completed: self.completed,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_entries: self.cache.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submit::WorkflowSpec;

    fn quick_cfg() -> ServiceConfig {
        let mut cfg = ServiceConfig::with_paper_fleet(16).unwrap();
        cfg.episodes_full = 3;
        cfg.episodes_finetune = 1;
        cfg
    }

    fn sub(tenant: &str, family: &str, size: usize, seed: u64) -> Submission {
        Submission {
            tenant: tenant.into(),
            spec: WorkflowSpec::Generated { family: family.into(), size, seed },
            seed,
            replicate: cloud::ReplicationPolicy::Off,
        }
    }

    /// Decode a shard's prelude-less frame fragment to JSONL.
    fn fragment_jsonl(fragment: &[u8]) -> String {
        let mut full = Vec::new();
        obs::frame::write_prelude(&mut full);
        full.extend_from_slice(fragment);
        obs::frame::frames_to_jsonl(&full).unwrap()
    }

    #[test]
    fn repeat_family_hits_cache_and_spends_fewer_episodes() {
        let cfg = quick_cfg();
        let mut shard = ShardState::new(0);
        shard.process(0, &sub("acme", "montage", 20, 1), &cfg);
        shard.process(1, &sub("acme", "montage", 20, 2), &cfg);
        let out = shard.into_output();
        assert_eq!(out.completed.len(), 2);
        assert!(!out.completed[0].cache_hit);
        assert!(out.completed[1].cache_hit);
        assert_eq!(out.completed[0].episodes, 3);
        assert_eq!(out.completed[1].episodes, 1);
        assert_eq!(out.cache_hits, 1);
        assert_eq!(out.cache_misses, 1);
        assert_eq!(out.cache_entries, 1);
        let jsonl = fragment_jsonl(&out.trace);
        assert!(jsonl.contains("\"ev\":\"cache_miss\""));
        assert!(jsonl.contains("\"ev\":\"cache_hit\""));
        assert!(jsonl.contains("\"ev\":\"plan_done\""));
        assert_eq!(out.trace_events, jsonl.lines().count() as u64);
    }

    #[test]
    fn bad_submission_is_captured_not_fatal() {
        let cfg = quick_cfg();
        let mut shard = ShardState::new(3);
        shard.process(0, &sub("acme", "not-a-family", 20, 1), &cfg);
        shard.process(1, &sub("acme", "montage", 20, 1), &cfg);
        let out = shard.into_output();
        assert!(out.completed[0].error.is_some());
        assert!(out.completed[0].prov.is_none());
        assert!(out.completed[1].error.is_none(), "worker survived the bad job");
    }

    #[test]
    fn processing_is_deterministic() {
        let cfg = quick_cfg();
        let run = || {
            let mut shard = ShardState::new(0);
            for (i, s) in
                [sub("a", "montage", 20, 1), sub("a", "montage", 20, 2), sub("b", "sipht", 20, 3)]
                    .iter()
                    .enumerate()
            {
                shard.process(i as u64, s, &cfg);
            }
            shard.into_output()
        };
        let x = run();
        let y = run();
        assert_eq!(x.trace, y.trace, "shard traces must be byte-identical");
        for (a, b) in x.completed.iter().zip(&y.completed) {
            assert_eq!(a.assignments, b.assignments);
            assert_eq!(a.makespan.as_secs().to_bits(), b.makespan.as_secs().to_bits());
            assert_eq!(a.retries, b.retries);
        }
    }
}
