//! Side-by-side rounds: K exploration rollouts run on the rayon pool
//! and merged deterministically.
//!
//! The learning loop ([`crate::episodes::LearnRun`]) is inherently
//! sequential — episode `e+1` explores with the table episode `e`
//! produced. A round of `K ≥ 2` episodes trades a little of that
//! freshness for wall-clock: the `K` episodes all start from the
//! round-start table and carried history, and their results are folded
//! back into the shared agent **in episode order**, so the outcome
//! never depends on worker scheduling.
//!
//! Each worker drives one episode as a [`DeltaRollout`] in a persistent
//! [`Slot`] (own [`SimArena`], trace buffer and scratch vectors)
//! against a **read-only view** of the shared Q-table, reading values
//! through a `base + delta` overlay and accumulating its TD increments
//! into a flat `f64` buffer. The merge is a dense element-wise add
//! ([`qlearn::DenseQTable::add_flat`]) per episode. Nothing per-agent
//! is cloned and a steady-state round performs no rollout-side
//! allocations.
//!
//! Only the Q-learning backend can run this way: the coupled backends
//! bootstrap through a second table or a policy expectation, which a
//! flat additive buffer cannot represent, so the loop gives them
//! single-episode rounds only.
//!
//! # Determinism contract
//!
//! * The outcome is a pure function of `(config, sim_config, rollouts)`
//!   — re-running with the same inputs is bitwise identical, and the
//!   number of rayon worker threads is irrelevant because rollouts
//!   write to disjoint per-slot buffers and the merge order is the
//!   episode order, not the completion order.
//! * The `K` rollouts of a round do not chain through each other — a
//!   standard parallel-RL semantics change (results differ from
//!   `rollouts = 1`, but deterministically so). A Q-cell updated once
//!   per episode (the common case — every activation completes exactly
//!   once when no faults fire) merges to bitwise the value an in-place
//!   update would leave, while a cell updated several times within one
//!   episode (failure retries) can differ in the last ulps; see
//!   [`DeltaRollout`].

use crate::agent::{DeltaRollout, EpisodeState, ReassignScheduler, Sample};
use crate::episodes::{emit_episode_end, q_values, Episode, EpisodeEnv, Ledger};
use obs::{MemSink, TraceEvent, Tracer};
use rayon::prelude::*;
use std::ops::Range;
use wfcommon::Result;
use wfsim::{simulate_cached_traced, ExecHistory, SimArena, SimConfig};

/// A persistent per-rollout workspace: slot `i` of a round always runs
/// episode `round_start + i`, so merging the slots in order *is*
/// episode order. Everything here survives across rounds — capacities
/// grow to the episode's high-water mark once and are reused
/// thereafter, which is what makes steady-state rounds allocation-free
/// on the rollout side.
struct Slot {
    arena: SimArena,
    /// Flat row-major TD-increment buffer (`rows × cols` of the shared
    /// Q-table); zeroed at episode start, dense-added at merge.
    delta: Vec<f64>,
    state: EpisodeState,
    samples: Vec<Sample>,
    sink: MemSink,
    /// The rollout's outcome, parked here by the worker for the
    /// coordinator to collect (always `Some` after a round).
    out: Option<Result<SlotRun>>,
}

/// What a delta rollout reports back (its TD increments live in the
/// slot's `delta` buffer, its trace in the slot's `sink`).
struct SlotRun {
    episode: Episode,
    /// The ε the rollout explored with (for its `episode_start` line).
    epsilon: f64,
}

impl Slot {
    /// Drive episode `ep` against the read-only shared `agent`. On return
    /// `delta` holds the episode's TD increments, `samples` its
    /// completion history, and `sink` its trace.
    fn run(
        &mut self,
        env: &EpisodeEnv<'_>,
        agent: &ReassignScheduler,
        sim_config: &SimConfig,
        ep: u32,
        history: Option<&ExecHistory>,
        trace_enabled: bool,
    ) -> Result<SlotRun> {
        self.sink.clear();
        let Slot { arena, delta, state, samples, sink, .. } = self;
        let backend = agent.q_backend().expect("side-by-side rounds are Q-learning only");
        let mut worker = DeltaRollout::begin(env.config, ep, backend, delta, state, samples);
        let mut tracer = if trace_enabled { Tracer::new(sink) } else { Tracer::disabled() };
        let result = simulate_cached_traced(
            env.workflow,
            env.cache,
            env.fleet,
            &mut worker,
            sim_config,
            env.episode_seeds(ep),
            history,
            arena,
            &mut tracer,
        )?;
        Ok(SlotRun {
            episode: Episode {
                ep,
                result,
                final_reward: state.reward(),
                td_updates: state.td_updates(),
            },
            epsilon: state.epsilon(),
        })
    }
}

/// The round workspaces of one learning run, grown to the widest round
/// on first use.
#[derive(Default)]
pub(crate) struct Slots(Vec<Slot>);

impl Slots {
    /// Fan the `episodes` of one round out over the rayon pool, slot
    /// `i` running the `i`-th. Results park in the slots for
    /// [`Self::merge_round`].
    pub(crate) fn run_round(
        &mut self,
        env: &EpisodeEnv<'_>,
        agent: &ReassignScheduler,
        sim_config: &SimConfig,
        episodes: Range<u32>,
        history: Option<&ExecHistory>,
        trace_enabled: bool,
    ) -> Result<()> {
        while self.0.len() < episodes.len() {
            self.0.push(Slot {
                arena: SimArena::new(),
                delta: vec![0.0; env.workflow.len() * env.fleet.len()],
                state: EpisodeState::new(env.workflow.len(), env.config)?,
                samples: Vec::new(),
                sink: MemSink::new(),
                out: None,
            });
        }
        self.0[..episodes.len()].par_iter_mut().enumerate().for_each(|(i, slot)| {
            let ep = episodes.start + i as u32;
            slot.out = Some(slot.run(env, agent, sim_config, ep, history, trace_enabled));
        });
        Ok(())
    }

    /// Sequential deterministic merge of the first `k` slots, in
    /// episode (= slot) order: replay the rollout's buffered trace
    /// between its `episode_start`/`episode_end`, dense-add its TD
    /// increments into `agent`, fold the episode into `ledger`. Returns
    /// the round's completion count. The per-rollout tracers
    /// deliberately do NOT inherit phase timing — worker-side `phase`
    /// lines would be replayed mid-stream and say nothing the
    /// coordinator totals don't.
    pub(crate) fn merge_round(
        &mut self,
        k: u32,
        agent: &mut ReassignScheduler,
        ledger: &mut Ledger<'_>,
        tracer: &mut Tracer<'_>,
    ) -> Result<u64> {
        let mut completions = 0u64;
        for slot in &mut self.0[..k as usize] {
            let SlotRun { episode, epsilon } =
                slot.out.take().expect("delta rollout always parks a result")?;
            tracer.emit_with(|| TraceEvent::EpisodeStart { episode: episode.ep, epsilon });
            tracer.append_raw(slot.sink.as_str());
            let q_before = tracer.enabled().then(|| q_values(agent));
            agent.apply_q_delta(&slot.delta)?;
            if let Some(before) = q_before {
                emit_episode_end(tracer, &episode, &before, agent);
            }
            completions += episode.td_updates;
            ledger.absorb(episode, Some(&slot.samples));
        }
        Ok(completions)
    }
}
