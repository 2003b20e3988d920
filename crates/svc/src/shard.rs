//! Shard-local state: the warm-start Q-cache and the job processing
//! path. A shard is owned by exactly one worker at a time and never
//! shared, which is what makes the service deterministic (see the
//! crate docs).
//!
//! Beside it, worker-local and *outside* that contract: the
//! [`PreparedMemo`] of built workflows a worker lends to whichever of
//! its shards is processing. A generated spec always builds the same
//! workflow, so who remembers it cannot change an output byte.

use crate::config::ServiceConfig;
use crate::report::Completed;
use crate::submit::{Submission, WorkflowSpec};
use obs::{BinFragSink, TraceEvent, Tracer};
use provenance::{ActivationProv, EpisodeKey, EpisodeRecord};
use qlearn::DenseQTable;
use reassign::{LearnRun, ReassignConfig};
use std::collections::HashMap;
use std::rc::Rc;
use wfcommon::ids::Idx;
use wfcommon::{EpisodeId, Error, Result, SeedDerivation, SimTime};
use wfsim::{simulate_cached_traced, FixedPlanScheduler, SimArena, SimConfig};
use workflow::{Workflow, WorkflowCache};

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

/// A submission's workflow with the structure derived from it: what a
/// plan needs before any learning, and the same for every submission of
/// one spec.
#[derive(Debug)]
struct Prepared {
    workflow: Workflow,
    /// Shared by the learning run and the plan replay.
    cache: WorkflowCache,
}

/// Activations one [`PreparedMemo`] may hold. A prepared workflow is
/// ~1 KB resident per activation, so this is ~1 MB per worker: room for
/// every spec of a workload that repeats a few dozen small workflows
/// (the shipped loadgen mix: 20 specs, ~500 activations), and nearly
/// nothing where specs never repeat. It bounds activations because
/// entries vary too much in size to count — a cap of 64 *entries* per
/// shard cost the `svc-churn` benchmark workload (60–152 activations a
/// workflow, almost no repeats) +27 MB of peak RSS, this costs it ~1 MB.
const MEMO_BUDGET_ACTIVATIONS: usize = 1024;

/// One worker thread's memo of prepared workflows (a built [`Workflow`]
/// and its [`WorkflowCache`]), by spec.
///
/// Only [`WorkflowSpec::Generated`] is remembered: building one is a
/// pure function of the spec. A [`WorkflowSpec::Dax`] file can change
/// between two submissions and is read and parsed every time. A spec
/// that fails to build is not remembered either, so it fails the same
/// way each time. Not shared between workers (an `Rc` map needs no
/// lock) and not per shard (a worker's shards see the same specs).
#[derive(Debug, Default)]
pub struct PreparedMemo {
    map: HashMap<WorkflowSpec, Rc<Prepared>>,
    /// Activations over all of `map`, ≤ [`MEMO_BUDGET_ACTIVATIONS`].
    held: usize,
}

impl PreparedMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The prepared workflow for `spec`: remembered, or built now — and
    /// then remembered if it is a generated spec that fits the budget,
    /// emptying the memo first when the rest of it is in the way. A
    /// workflow larger than the whole budget is used and dropped.
    fn prepare(&mut self, spec: &WorkflowSpec) -> Result<Rc<Prepared>> {
        if let Some(known) = self.map.get(spec) {
            return Ok(Rc::clone(known));
        }
        let workflow = spec.build()?;
        let cache = WorkflowCache::new(&workflow)?;
        let prepared = Rc::new(Prepared { workflow, cache });
        let size = prepared.workflow.len();
        if matches!(spec, WorkflowSpec::Generated { .. }) && size <= MEMO_BUDGET_ACTIVATIONS {
            if self.held + size > MEMO_BUDGET_ACTIVATIONS {
                self.map.clear();
                self.held = 0;
            }
            self.map.insert(spec.clone(), Rc::clone(&prepared));
            self.held += size;
        }
        Ok(prepared)
    }
}

/// Everything a worker hands back for one shard at drain time.
#[derive(Debug)]
pub struct ShardOutput {
    /// Shard id.
    pub shard: u32,
    /// The shard's binary trace (service events, plus full learn/sim
    /// streams when `trace_detail` is on) in processing order, as the
    /// fragments its [`BinFragSink`] filled: prelude-less frame
    /// streams that drain-time assembly writes out one after the other
    /// under one prelude, freeing each as it goes.
    pub trace: Vec<Vec<u8>>,
    /// Structured events in the trace.
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
    sink: BinFragSink,
    arena: SimArena,
    completed: Vec<Completed>,
}

impl ShardState {
    /// Fresh state for shard `id`.
    pub fn new(id: u32) -> Self {
        Self {
            id,
            cache: QCache::new(),
            sink: BinFragSink::new(),
            arena: SimArena::new(),
            completed: Vec::new(),
        }
    }

    /// Process one admitted submission end to end: prepare the
    /// workflow (through the worker's `memo`) → cache lookup → learn
    /// (full or fine-tune) → final plan simulation → record.
    /// Errors are captured on the [`Completed`] record — a bad
    /// submission must not kill the worker. Returns the record just
    /// pushed, so the worker loop can feed the live registry without
    /// re-deriving the outcome.
    pub fn process(
        &mut self,
        seq: u64,
        sub: &Submission,
        cfg: &ServiceConfig,
        memo: &mut PreparedMemo,
    ) -> &Completed {
        let family = sub.spec.family_label().to_string();
        let done = match self.try_process(seq, sub, cfg, &family, memo) {
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
        memo: &mut PreparedMemo,
    ) -> Result<Completed> {
        let prepared = memo.prepare(&sub.spec)?;
        let Prepared { workflow: wf, cache: wf_cache } = &*prepared;
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
                workflow_cache: Some(wf_cache),
                warm_q: warm.as_ref(),
                ..LearnRun::new(
                    wf,
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
                wf,
                wf_cache,
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
    pub fn into_output(self) -> ShardOutput {
        ShardOutput {
            shard: self.id,
            trace_events: self.sink.events(),
            trace: self.sink.into_fragments(),
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

    /// Decode a shard's prelude-less frame fragments to JSONL.
    fn fragment_jsonl(fragments: &[Vec<u8>]) -> String {
        let mut full = Vec::new();
        obs::frame::write_prelude(&mut full);
        full.extend(fragments.iter().flatten());
        obs::frame::frames_to_jsonl(&full).unwrap()
    }

    #[test]
    fn repeat_family_hits_cache_and_spends_fewer_episodes() {
        let cfg = quick_cfg();
        let mut shard = ShardState::new(0);
        let mut memo = PreparedMemo::new();
        shard.process(0, &sub("acme", "montage", 20, 1), &cfg, &mut memo);
        shard.process(1, &sub("acme", "montage", 20, 2), &cfg, &mut memo);
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
        let mut memo = PreparedMemo::new();
        // An unknown family and a size the generator rejects, each
        // twice: a failed build is not remembered, so the second time
        // fails like the first — with the builder's own text.
        let bad = [sub("acme", "not-a-family", 20, 1), sub("acme", "montage", 5, 1)];
        for (i, s) in bad.iter().chain(&bad).enumerate() {
            shard.process(i as u64, s, &cfg, &mut memo);
        }
        assert!(memo.map.is_empty() && memo.held == 0, "failed builds are not remembered");
        shard.process(4, &sub("acme", "montage", 20, 1), &cfg, &mut memo);
        let out = shard.into_output();
        for (done, s) in out.completed.iter().zip(bad.iter().chain(&bad)) {
            assert_eq!(done.error, Some(s.spec.build().unwrap_err().to_string()));
            assert!(done.prov.is_none());
        }
        assert_eq!(
            out.completed[0].error.as_deref(),
            Some("configuration error: unknown family 'not-a-family'")
        );
        assert_eq!(
            out.completed[1].error.as_deref(),
            Some("configuration error: Montage needs at least 11 activations, got 5")
        );
        assert!(out.completed[4].error.is_none(), "worker survived the bad jobs");
        assert_eq!((out.cache_hits, out.cache_misses), (0, 1), "a failed build looks nothing up");
    }

    #[test]
    fn processing_is_deterministic() {
        let cfg = quick_cfg();
        let run = || {
            let mut shard = ShardState::new(0);
            let mut memo = PreparedMemo::new();
            for (i, s) in
                [sub("a", "montage", 20, 1), sub("a", "montage", 20, 2), sub("b", "sipht", 20, 3)]
                    .iter()
                    .enumerate()
            {
                shard.process(i as u64, s, &cfg, &mut memo);
            }
            shard.into_output()
        };
        let x = run();
        let y = run();
        assert_eq!(x.trace, y.trace, "shard traces must be byte-identical");
        assert_same_plans(&x, &y);
    }

    fn assert_same_plans(x: &ShardOutput, y: &ShardOutput) {
        assert_eq!(x.completed.len(), y.completed.len());
        for (a, b) in x.completed.iter().zip(&y.completed) {
            assert_eq!(a.error, b.error);
            assert_eq!(a.assignments, b.assignments);
            assert_eq!(a.makespan.as_secs().to_bits(), b.makespan.as_secs().to_bits());
            assert_eq!(a.retries, b.retries);
        }
    }

    /// The memo against building everything every time (a fresh memo
    /// per submission): no output may tell the two apart.
    #[test]
    fn memo_changes_no_output_and_stays_within_budget() {
        let mut cfg = quick_cfg();
        cfg.episodes_full = 2;
        cfg.trace_detail = true;
        cfg.faults = cloud::FaultConfig::mild();
        let subs = [
            // Two specs that differ only in seed, alternating and revisited.
            sub("a", "montage", 20, 1),
            sub("a", "montage", 20, 2),
            sub("b", "montage", 20, 1),
            sub("a", "montage", 20, 2),
            // 40 + 3 × 400 activations: the third does not fit.
            sub("a", "cybershake", 400, 1),
            sub("a", "epigenomics", 400, 1),
            sub("a", "sipht", 400, 1),
            // Forgotten by that overflow, built again.
            sub("a", "montage", 20, 1),
            // Larger than the whole budget: used, never held.
            sub("a", "montage", 1100, 1),
            sub("a", "montage", 20, 1),
            // A second overflow.
            sub("a", "inspiral", 400, 1),
            sub("b", "cybershake", 400, 2),
            sub("a", "sipht", 400, 1),
            sub("a", "montage", 20, 2),
        ];
        assert_ne!(subs[0].spec.build().unwrap(), subs[1].spec.build().unwrap());
        let mut memo = PreparedMemo::new();
        let mut overflows = 0;
        // One worker's two shards share its memo; the reference builds
        // every workflow afresh.
        let mut with_memo = [ShardState::new(0), ShardState::new(1)];
        let mut without = [ShardState::new(0), ShardState::new(1)];
        for (i, s) in subs.iter().enumerate() {
            let held_before = memo.held;
            with_memo[i % 2].process(i as u64, s, &cfg, &mut memo);
            without[i % 2].process(i as u64, s, &cfg, &mut PreparedMemo::new());
            assert!(memo.held <= MEMO_BUDGET_ACTIVATIONS, "after submission {i}: {}", memo.held);
            let held: usize = memo.map.values().map(|p| p.workflow.len()).sum();
            assert_eq!(memo.held, held, "after submission {i}");
            overflows += usize::from(memo.held < held_before);
        }
        assert!(overflows >= 2, "the list overflows the budget twice, saw {overflows}");
        assert!(!memo.map.contains_key(&subs[8].spec), "an oversized workflow is not held");
        for (x, y) in with_memo.into_iter().zip(without) {
            let (x, y) = (x.into_output(), y.into_output());
            assert_eq!(x.trace, y.trace, "shard {} trace", x.shard);
            assert_same_plans(&x, &y);
            assert_eq!((x.cache_hits, x.cache_misses), (y.cache_hits, y.cache_misses));
            assert!(x.completed.iter().all(|c| c.error.is_none()));
        }
    }

    #[test]
    fn a_dax_file_is_read_again_for_every_submission() {
        let cfg = quick_cfg();
        let path = std::env::temp_dir().join(format!("svc-shard-dax-{}.xml", std::process::id()));
        let dax = Submission {
            spec: WorkflowSpec::Dax { path: path.to_str().unwrap().into() },
            ..sub("acme", "", 0, 1)
        };
        let mut shard = ShardState::new(0);
        let mut memo = PreparedMemo::new();
        let mut lens = Vec::new();
        for (seq, size) in [20, 30].into_iter().enumerate() {
            let wf = sub("acme", "montage", size, 1).spec.build().unwrap();
            std::fs::write(&path, workflow::dax::write(&wf)).unwrap();
            lens.push(wf.len() as u32);
            shard.process(seq as u64, &dax, &cfg, &mut memo);
        }
        std::fs::remove_file(&path).unwrap();
        assert!(memo.map.is_empty(), "a DAX spec is never remembered");
        let out = shard.into_output();
        assert_ne!(lens[0], lens[1]);
        for (done, len) in out.completed.iter().zip(lens) {
            assert_eq!(done.error, None);
            assert_eq!(done.activations, len, "the file as it was when submitted");
            assert!(!done.cache_hit, "a different activation count is a different cache line");
        }
    }
}
