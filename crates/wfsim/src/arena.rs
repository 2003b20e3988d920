//! Reusable per-simulation scratch buffers.
//!
//! A learning run executes the same workflow thousands of times; most
//! of the engine's working memory (event queue, per-activation state,
//! per-VM counters, the ready set kept across the episode, the idle
//! slots listed at every consultation, the replication groups) has the
//! same shape every episode. A [`SimArena`] owns those buffers
//! so repeated [`crate::engine::simulate_cached_traced`] calls reset
//! them in place instead of reallocating; the engine borrows the whole
//! arena for the length of one run. Arenas are cheap to create and are
//! *not* shared between threads — in a parallel learner each worker
//! keeps its own.

use crate::engine::{AcState, Ev, PendingDecision, RepAttempt};
use simkit::Simulation;
use wfcommon::{ActivationId, VmId};

/// Scratch space for one simulation at a time (see module docs).
///
/// Every field is fully reinitialized by the engine before use, so a
/// reused arena produces bitwise-identical results to a fresh one.
/// `repl_groups` is the exception that proves it: a run with
/// replication [`cloud::ReplicationPolicy::Off`] never reads it and does
/// no per-activation work on it (no O(n) for a feature that is off), so
/// it holds whatever the last replicating run left until the next one
/// resets it, for its own `n`, before use.
#[derive(Default)]
pub struct SimArena {
    /// Simulation clock + event queue.
    pub(crate) sim: Simulation<Ev>,
    /// Per-activation lifecycle state.
    pub(crate) states: Vec<AcState>,
    /// Per-activation retry counters.
    pub(crate) retries: Vec<u32>,
    /// Which VM ran each finished activation (transfer locality).
    pub(crate) placed_on: Vec<Option<VmId>>,
    /// Which VM each *running* attempt occupies (fault orphaning and
    /// stale-completion detection).
    pub(crate) running_on: Vec<Option<VmId>>,
    /// Per-VM crash/timeout fault counters (blacklist threshold).
    pub(crate) vm_faults: Vec<u32>,
    /// Per-VM permanent-blacklist flags.
    pub(crate) blacklisted: Vec<bool>,
    /// Per-VM free processing elements.
    pub(crate) free_pes: Vec<u32>,
    /// Per-VM cumulative busy seconds.
    pub(crate) vm_busy_secs: Vec<f64>,
    /// The activations in `AcState::Ready`, sorted by id: what the
    /// scheduler sees as `SchedulerContext::ready`. Kept in step with
    /// `states` by the engine (sorted insert on becoming ready, removal
    /// on assignment) instead of being refilled from all `n` states at
    /// every consultation — O(log n) plus the shift, not O(n).
    pub(crate) ready: Vec<ActivationId>,
    /// Idle-slot buffer, refilled by an O(|VM|) scan of `free_pes` at
    /// every consultation.
    pub(crate) idle: Vec<(VmId, u32)>,
    /// Live attempts of each activation's replication group. Grows to
    /// the largest workflow run so far; the inner vectors are cleared,
    /// never dropped, so they stop allocating after the first episodes.
    pub(crate) repl_groups: Vec<Vec<RepAttempt>>,
    /// Per-activation replica launch ordinals.
    pub(crate) repl_seq: Vec<u32>,
    /// Per-activation replication decision awaiting its outcome.
    pub(crate) repl_pending: Vec<Option<PendingDecision>>,
}

impl SimArena {
    /// An empty arena; buffers grow on first use and stick around.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear every buffer, keeping allocations. The engine repopulates
    /// them to match the workflow/fleet it is asked to run.
    /// (`repl_groups` is not touched: clearing it would drop the inner
    /// vectors a replicating run keeps for their capacity. It is reset
    /// where such a run starts, in `simulate_cached_traced`.)
    pub(crate) fn reset(&mut self) {
        self.sim.reset();
        self.states.clear();
        self.retries.clear();
        self.placed_on.clear();
        self.running_on.clear();
        self.vm_faults.clear();
        self.blacklisted.clear();
        self.free_pes.clear();
        self.vm_busy_secs.clear();
        self.ready.clear();
        self.idle.clear();
        self.repl_seq.clear();
        self.repl_pending.clear();
    }
}
