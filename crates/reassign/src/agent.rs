//! The ReASSIgN scheduling agent (paper Algorithm 2).

use crate::config::{EpsilonConvention, ReassignConfig, RlAlgorithm};
use crate::reward::RewardTracker;
use qlearn::{
    DenseQTable, DoubleQLearner, EpsilonGreedy, ExpectedSarsa, PaperEpsilonGreedy, PendingMax,
    Policy as _, QLearner, QLearnerConfig,
};
use wfcommon::ids::Idx;
use wfcommon::rng::Rng;
use wfcommon::{ActivationId, SeedDerivation, VmId};
use wfsim::{CompletionInfo, Decision, ExecHistory, Scheduler, SchedulerContext};

/// `(vm, te, tf)` of one observed completion — what the engine feeds
/// [`ExecHistory::record`].
pub(crate) type Sample = (VmId, f64, f64);

/// The agent's action-selection policy (paper vs textbook ε reading).
#[derive(Clone)]
enum AgentPolicy {
    Paper(PaperEpsilonGreedy),
    Textbook(EpsilonGreedy),
}

impl AgentPolicy {
    fn epsilon(&self) -> f64 {
        match self {
            AgentPolicy::Paper(p) => p.epsilon,
            AgentPolicy::Textbook(p) => p.epsilon,
        }
    }

    fn set_epsilon(&mut self, epsilon: f64) {
        match self {
            AgentPolicy::Paper(p) => p.epsilon = epsilon,
            AgentPolicy::Textbook(p) => p.epsilon = epsilon,
        }
    }

    fn select(&mut self, allowed: &[usize], q_of: &dyn Fn(usize) -> f64, rng: &mut Rng) -> usize {
        match self {
            AgentPolicy::Paper(p) => p.select(allowed, q_of, rng),
            AgentPolicy::Textbook(p) => p.select(allowed, q_of, rng),
        }
    }
}

/// Everything one episode's decisions and TD steps need besides the
/// value table: the policy with this episode's ε, the episode's
/// exploration stream, the smoothed reward, the decision epoch, the
/// completed-activation mask and the TD bootstrap over the rows that
/// mask leaves pending. The in-place agent and the delta rollout both
/// drive their episode through this one type, so the two cannot drift
/// apart. The mask and the bootstrap are sized in [`Self::new`] and
/// the scratch vectors keep their capacity, so after the first episode
/// nothing here allocates.
#[derive(Clone)]
pub(crate) struct EpisodeState {
    policy: AgentPolicy,
    reward: RewardTracker,
    rng: Rng,
    failure_penalty: f64,
    /// Decision epoch `t` within the episode (== TD updates applied).
    t: u64,
    /// Activations that have completed successfully this episode.
    done: Vec<bool>,
    /// Scratch: idle VM indices, rebuilt by each [`Self::decide`].
    idle: Vec<usize>,
    /// `max Q` over the rows of the activations still pending — the
    /// successor state's action rows, so the Q-learning bootstrap
    /// ([`DenseQTable::max_over_rows`] is its definition). Kept up to
    /// date rather than rescanned: [`Self::reindex`] replays it from a
    /// table, [`Self::observe`] retires the row of a success,
    /// [`Self::refresh`] re-reads the one row a TD step wrote — a
    /// completion costs O(cols + log rows), not O(rows · cols). All
    /// `-inf` (never read) under the backends that bootstrap from
    /// [`Self::pending_rows`] instead.
    best: PendingMax,
    /// Scratch: the pending rows themselves, rebuilt by each
    /// [`Self::pending_rows`].
    pending: Vec<usize>,
}

impl EpisodeState {
    /// State for episodes of `n_activations` under `config`; call
    /// [`Self::begin`] before each one.
    pub(crate) fn new(n_activations: usize, config: &ReassignConfig) -> wfcommon::Result<Self> {
        Ok(Self {
            policy: match config.epsilon_convention {
                EpsilonConvention::Paper => {
                    AgentPolicy::Paper(PaperEpsilonGreedy::new(config.epsilon))
                }
                EpsilonConvention::Textbook => {
                    AgentPolicy::Textbook(EpsilonGreedy::new(config.epsilon))
                }
            },
            reward: RewardTracker::new(config.mu, config.rho)?,
            rng: SeedDerivation::new(config.seed).rng_for("reassign-exploration", 0),
            failure_penalty: config.failure_penalty,
            t: 0,
            done: vec![false; n_activations],
            idle: Vec::new(),
            best: PendingMax::new(n_activations),
            pending: Vec::new(),
        })
    }

    /// Algorithm 2's outer-loop reset (`t ← 1`, `r^t ← 0`) for the
    /// given 0-based `episode`: the exploration stream is re-derived
    /// from the master seed and the episode index — so any worker
    /// starting episode `e` draws exactly the stream the serial learner
    /// would — and ε is re-read from the schedule, when there is one.
    pub(crate) fn begin(&mut self, config: &ReassignConfig, episode: u32) {
        self.rng = SeedDerivation::new(config.seed).rng_for("reassign-exploration", episode as u64);
        if let Some(schedule) = &config.epsilon_schedule {
            self.policy.set_epsilon(schedule.at(episode as u64).clamp(0.0, 1.0));
        }
        self.reward.reset();
        self.t = 0;
        self.done.iter_mut().for_each(|d| *d = false);
    }

    /// Replay the bootstrap tournament from `view`, the values this
    /// episode's TD steps read, over the rows not yet done:
    /// O(rows · cols). Due after [`Self::begin`] and whenever `view` was
    /// written other than by a TD step followed by [`Self::refresh`].
    pub(crate) fn reindex(&mut self, view: &DenseQTable) {
        let done = &self.done;
        self.best.rebuild(|s| if done[s] { f64::NEG_INFINITY } else { view.row_max(s, None) });
    }

    /// The smoothed reward `r^t` right now.
    pub(crate) fn reward(&self) -> f64 {
        self.reward.current()
    }

    /// The exploration ε this episode runs with.
    pub(crate) fn epsilon(&self) -> f64 {
        self.policy.epsilon()
    }

    /// TD updates applied so far this episode.
    pub(crate) fn td_updates(&self) -> u64 {
        self.t
    }

    /// ReASSIgN "receives a list of activations available for
    /// execution, but not yet scheduled" and handles them in order: the
    /// first ready activation goes to a VM chosen among the idle ones
    /// by the ε-policy over `q_of(row, vm)`.
    fn decide(
        &mut self,
        ctx: &SchedulerContext<'_>,
        q_of: impl Fn(usize, usize) -> f64,
    ) -> Decision {
        let Some(&ac) = ctx.ready.first() else {
            return Decision::DoNothing;
        };
        if ctx.idle_slots.is_empty() {
            return Decision::DoNothing;
        }
        let row = ac.index();
        self.idle.clear();
        self.idle.extend(ctx.idle_slots.iter().map(|&(vm, _)| vm.index()));
        let choice = self.policy.select(&self.idle, &|a| q_of(row, a), &mut self.rng);
        Decision::Assign { activation: ac, vm: VmId::from_index(choice) }
    }

    /// Fold one completion in: smoothed reward `r^t`, minus the failure
    /// cost for a failed attempt (transient failure, timeout, crash
    /// orphan — worth strictly less than any success on the same
    /// state); a success marks its activation done and takes its row
    /// out of the bootstrap. Returns `(r^t, t)` for the caller's TD
    /// step, with the epoch already advanced.
    fn observe(&mut self, info: &CompletionInfo, history: &ExecHistory) -> (f64, u64) {
        let mut r_t = self.reward.observe(history, info.vm);
        if info.failed {
            r_t -= self.failure_penalty;
        } else {
            self.done[info.activation.index()] = true;
            self.best.retire(info.activation.index());
        }
        let t = self.t;
        self.t += 1;
        (r_t, t)
    }

    /// A TD step wrote row `s`: if its activation is still pending (a
    /// failed attempt, a replica that lost the race) the bootstrap
    /// takes the row's new maximum from `row_max`. O(cols + log rows).
    fn refresh(&mut self, s: usize, row_max: impl FnOnce() -> f64) {
        if !self.done[s] {
            self.best.set(s, row_max());
        }
    }

    /// The rows of the activations still pending, for the backends
    /// whose bootstrap needs the list itself. O(rows).
    fn pending_rows(&mut self) -> &[usize] {
        self.pending.clear();
        self.pending.extend(self.done.iter().enumerate().filter_map(|(i, &d)| (!d).then_some(i)));
        &self.pending
    }
}

/// Value-function backend: which TD update maintains the table(s).
#[allow(clippy::large_enum_variant)] // one Backend exists per agent
#[derive(Clone)]
enum Backend {
    /// Classical Q-learning over one table (the paper's algorithm).
    Q { table: DenseQTable, learner: QLearner },
    /// Double Q-learning (extension; selection/evaluation decoupled).
    Double { learner: DoubleQLearner, rng: Rng },
    /// Expected SARSA (extension; on-policy expectation bootstrap).
    Sarsa { table: DenseQTable, learner: ExpectedSarsa },
}

impl Backend {
    /// Behaviour value of scheduling activation-row `s` on VM-column `a`.
    fn value(&self, s: usize, a: usize) -> f64 {
        match self {
            Backend::Q { table, .. } | Backend::Sarsa { table, .. } => table.get(s, a),
            Backend::Double { learner, .. } => learner.combined(s, a),
        }
    }

    fn rows(&self) -> usize {
        match self {
            Backend::Q { table, .. } | Backend::Sarsa { table, .. } => table.rows(),
            Backend::Double { learner, .. } => learner.qa.rows(),
        }
    }

    fn argmax(&self, s: usize) -> Option<usize> {
        match self {
            Backend::Q { table, .. } | Backend::Sarsa { table, .. } => table.argmax_over(s, None),
            Backend::Double { learner, .. } => {
                let all: Vec<usize> = (0..learner.qa.cols()).collect();
                learner.argmax_combined(s, &all)
            }
        }
    }
}

/// A table handed to an agent must be `rows × cols`, its workflow × fleet.
fn check_shape(q: &DenseQTable, rows: usize, cols: usize) -> wfcommon::Result<()> {
    if q.rows() != rows || q.cols() != cols {
        return Err(wfcommon::Error::Config(format!(
            "snapshot is {}x{}, agent needs {rows}x{cols}",
            q.rows(),
            q.cols(),
        )));
    }
    Ok(())
}

/// Double Q-learning keeps two tables; one plain matrix cannot seed it.
fn double_q_takes_no_table() -> wfcommon::Error {
    wfcommon::Error::Config("double-Q agents load snapshots via load_q_snapshot".into())
}

/// Q-learning activation scheduler.
///
/// The value table follows the paper's representation: one row per
/// activation, one column per VM — Q(ac, vm) estimates the long-run
/// value of scheduling `ac` onto `vm`. The agent:
///
/// 1. at each *available* state takes the first ready activation
///    (dependency-free by construction) and selects a VM among the
///    *idle* ones — greedily w.r.t. the values with probability ε,
///    uniformly at random otherwise (the paper's inverted ε
///    convention; configurable);
/// 2. when the activation completes, folds its measured `te`/`tf` into
///    the smoothed reward `r^t` and applies the TD update for
///    `(ac, vm)`, bootstrapping from the activations still pending
///    (the successor state's action set).
///
/// The TD rule itself is pluggable ([`RlAlgorithm`]): the paper's
/// Q-learning, double Q-learning, or Expected SARSA.
///
/// Agents are `Clone`: a clone started on episode `e` with
/// [`Self::begin_episode_at`] reproduces what the original would do —
/// the reference the delta rollouts are tested against.
#[derive(Clone)]
pub struct ReassignScheduler {
    config: ReassignConfig,
    backend: Backend,
    state: EpisodeState,
    /// Episode counter (advanced by [`Self::begin_episode`]).
    episode: u32,
    name: String,
}

impl ReassignScheduler {
    /// Build an agent for a workflow of `n_activations` over `n_vms`,
    /// with a fresh value table (seeded random, or zeros at
    /// `q_init_scale = 0`).
    pub fn new(
        n_activations: usize,
        n_vms: usize,
        config: ReassignConfig,
    ) -> wfcommon::Result<Self> {
        Self::build(n_activations, n_vms, config, None)
    }

    /// Build an agent that starts from `table` — [`Self::new`] followed
    /// by [`Self::load_q_table`], without first drawing the table that
    /// call would replace. The fresh table's draws come from a stream of
    /// their own, so skipping them moves no other draw.
    pub fn with_q_table(
        n_activations: usize,
        n_vms: usize,
        config: ReassignConfig,
        table: DenseQTable,
    ) -> wfcommon::Result<Self> {
        Self::build(n_activations, n_vms, config, Some(table))
    }

    fn build(
        n_activations: usize,
        n_vms: usize,
        config: ReassignConfig,
        given: Option<DenseQTable>,
    ) -> wfcommon::Result<Self> {
        config.validate()?;
        let seeds = SeedDerivation::new(config.seed);
        let init_rng = || seeds.rng_for("reassign-q-init", 0);
        let learner_config = QLearnerConfig {
            alpha: config.alpha,
            gamma: config.gamma,
            discount_power_t: config.discount_power_t,
        };
        let start_table = |given: Option<DenseQTable>| match given {
            Some(q) => check_shape(&q, n_activations, n_vms).map(|()| q),
            None if config.q_init_scale > 0.0 => {
                Ok(DenseQTable::random(n_activations, n_vms, config.q_init_scale, &mut init_rng()))
            }
            None => Ok(DenseQTable::zeros(n_activations, n_vms)),
        };
        let backend = match config.algorithm {
            RlAlgorithm::QLearning => {
                Backend::Q { table: start_table(given)?, learner: QLearner::new(learner_config)? }
            }
            RlAlgorithm::DoubleQ if given.is_some() => return Err(double_q_takes_no_table()),
            RlAlgorithm::DoubleQ => Backend::Double {
                learner: DoubleQLearner::random(
                    n_activations,
                    n_vms,
                    config.q_init_scale,
                    learner_config,
                    &mut init_rng(),
                )?,
                rng: seeds.rng_for("reassign-doubleq", 0),
            },
            RlAlgorithm::ExpectedSarsa => Backend::Sarsa {
                table: start_table(given)?,
                learner: ExpectedSarsa::new(
                    learner_config,
                    match config.epsilon_convention {
                        EpsilonConvention::Paper => config.epsilon,
                        EpsilonConvention::Textbook => 1.0 - config.epsilon,
                    },
                )?,
            },
        };
        let mut agent = Self {
            backend,
            state: EpisodeState::new(n_activations, &config)?,
            episode: 0,
            name: config.label(),
            config,
        };
        agent.reindex();
        Ok(agent)
    }

    /// Bring the bootstrap tournament in line with the behaviour table.
    /// An agent can be handed completions at any time (`simulate`
    /// without [`Self::begin_episode`] is allowed), so this runs after
    /// everything that writes the table other than a TD step.
    fn reindex(&mut self) {
        if let Backend::Q { table, .. } = &self.backend {
            self.state.reindex(table);
        }
    }

    /// Reset per-episode state (`t ← 1`, `r^t ← 0`, Algorithm 2's outer
    /// loop body) while *keeping* the value tables — episodes are
    /// interconnected through them. Continues from the internal episode
    /// counter; see [`Self::begin_episode_at`].
    pub fn begin_episode(&mut self) {
        self.begin_episode_at(self.episode);
    }

    /// Start the given (0-based) `episode`. The exploration and
    /// double-Q RNG streams are re-derived from the master seed and the
    /// episode index, so an agent *cloned* at any point and started on
    /// episode `e` draws exactly the stream the original would.
    pub fn begin_episode_at(&mut self, episode: u32) {
        self.state.begin(&self.config, episode);
        self.reindex();
        if let Backend::Double { rng, .. } = &mut self.backend {
            *rng =
                SeedDerivation::new(self.config.seed).rng_for("reassign-doubleq", episode as u64);
        }
        self.episode = episode + 1;
    }

    /// Episodes started so far.
    pub fn episodes_started(&self) -> u32 {
        self.episode
    }

    /// Borrow the learned Q-table. For [`RlAlgorithm::DoubleQ`] this is
    /// table A (snapshots persist both tables separately via
    /// [`Self::q_snapshot_json`]).
    pub fn q_table(&self) -> &DenseQTable {
        match &self.backend {
            Backend::Q { table, .. } | Backend::Sarsa { table, .. } => table,
            Backend::Double { learner, .. } => &learner.qa,
        }
    }

    /// Give up the agent for its Q-table (the one [`Self::q_table`]
    /// borrows), without copying it.
    pub fn into_q_table(self) -> DenseQTable {
        match self.backend {
            Backend::Q { table, .. } | Backend::Sarsa { table, .. } => table,
            Backend::Double { learner, .. } => learner.qa,
        }
    }

    /// The table and learner a delta rollout reads, for the backend
    /// whose TD step a flat additive buffer can represent
    /// ([`RlAlgorithm::QLearning`]); `None` for the coupled backends,
    /// which bootstrap through a second table or a policy expectation.
    pub(crate) fn q_backend(&self) -> Option<(&DenseQTable, &QLearner)> {
        match &self.backend {
            Backend::Q { table, learner } => Some((table, learner)),
            _ => None,
        }
    }

    /// Serialize the full value state (all tables) as JSON.
    pub fn q_snapshot_json(&self) -> wfcommon::Result<String> {
        match &self.backend {
            Backend::Q { table, .. } | Backend::Sarsa { table, .. } => {
                qlearn::persist::to_json(table)
            }
            Backend::Double { learner, .. } => serde_json::to_string(learner)
                .map_err(|e| wfcommon::Error::Persistence(e.to_string())),
        }
    }

    /// Restore value state from a snapshot produced by
    /// [`Self::q_snapshot_json`] under the *same* algorithm.
    pub fn load_q_snapshot(&mut self, json: &str) -> wfcommon::Result<()> {
        match &mut self.backend {
            Backend::Q { table, .. } | Backend::Sarsa { table, .. } => {
                let q = qlearn::persist::from_json(json)?;
                check_shape(&q, table.rows(), table.cols())?;
                *table = q;
                self.reindex();
                Ok(())
            }
            Backend::Double { learner, .. } => {
                let loaded: DoubleQLearner = serde_json::from_str(json)
                    .map_err(|e| wfcommon::Error::Persistence(e.to_string()))?;
                if loaded.qa.rows() != learner.qa.rows() || loaded.qa.cols() != learner.qa.cols() {
                    return Err(wfcommon::Error::Config("double-Q snapshot shape mismatch".into()));
                }
                *learner = loaded;
                Ok(())
            }
        }
    }

    /// Replace the Q-table (loading a plain matrix snapshot; Q/SARSA
    /// backends only).
    pub fn load_q_table(&mut self, q: DenseQTable) -> wfcommon::Result<()> {
        match &mut self.backend {
            Backend::Q { table, .. } | Backend::Sarsa { table, .. } => {
                check_shape(&q, table.rows(), table.cols())?;
                *table = q;
                self.reindex();
                Ok(())
            }
            Backend::Double { .. } => Err(double_q_takes_no_table()),
        }
    }

    /// Warm-start from a demonstration plan (e.g. HEFT's): every
    /// `(activation, vm)` cell the plan uses is raised to
    /// `warm_start_bonus`, biasing early greedy choices toward the
    /// demonstrated schedule while leaving exploration free to improve
    /// on it.
    pub fn warm_start(&mut self, demonstration: &wfsim::Plan) -> wfcommon::Result<()> {
        if demonstration.len() != self.backend.rows() {
            return Err(wfcommon::Error::Config(format!(
                "demonstration covers {} activations, agent has {}",
                demonstration.len(),
                self.backend.rows()
            )));
        }
        let bonus = self.config.warm_start_bonus;
        for (ac, vm) in demonstration.iter() {
            let (s, a) = (ac.index(), vm.index());
            match &mut self.backend {
                Backend::Q { table, .. } | Backend::Sarsa { table, .. } => {
                    table.set(s, a, bonus);
                }
                Backend::Double { learner, .. } => {
                    learner.qa.set(s, a, bonus);
                    learner.qb.set(s, a, bonus);
                }
            }
        }
        self.reindex();
        Ok(())
    }

    /// The smoothed reward `r^t` right now.
    pub fn current_reward(&self) -> f64 {
        self.state.reward()
    }

    /// The exploration ε currently in force (after any schedule
    /// annealing applied by [`Self::begin_episode_at`]).
    pub fn current_epsilon(&self) -> f64 {
        self.state.epsilon()
    }

    /// TD updates applied so far this episode (the decision-epoch
    /// counter `t`; one update fires per observed completion).
    pub fn td_updates_this_episode(&self) -> u64 {
        self.state.td_updates()
    }

    /// The configuration in force.
    pub fn config(&self) -> &ReassignConfig {
        &self.config
    }

    /// Extract the greedy plan: for each activation, the argmax VM.
    /// This is the policy π the learned values encode.
    pub fn greedy_plan(&self) -> wfsim::Plan {
        let mut plan = wfsim::Plan::empty(self.backend.rows());
        for i in 0..self.backend.rows() {
            if let Some(vm) = self.backend.argmax(i) {
                plan.assign(ActivationId::from_index(i), VmId::from_index(vm));
            }
        }
        plan
    }

    /// Fold a rollout's flat TD-increment buffer into the behaviour
    /// table (`Q[i] += delta[i]`, row-major) — how a delta rollout's
    /// learning is merged. [`RlAlgorithm::QLearning`] only.
    pub fn apply_q_delta(&mut self, delta: &[f64]) -> wfcommon::Result<()> {
        match &mut self.backend {
            Backend::Q { table, .. } => {
                table.add_flat(delta);
                self.reindex();
                Ok(())
            }
            _ => Err(wfcommon::Error::Config(
                "flat delta merge supports the Q-learning backend only".into(),
            )),
        }
    }
}

impl Scheduler for ReassignScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        let Self { backend, state, .. } = self;
        state.decide(ctx, |row, a| backend.value(row, a))
    }

    /// Compute `r^t` and apply the TD update for `(ac, vm)`.
    fn on_completion(&mut self, info: &CompletionInfo, history: &ExecHistory) {
        let (r_t, t) = self.state.observe(info, history);
        let (s, a) = (info.activation.index(), info.vm.index());
        match &mut self.backend {
            Backend::Q { table, learner } => {
                learner.update(table, s, a, r_t, self.state.best.max(), t);
                self.state.refresh(s, || table.row_max(s, None));
            }
            Backend::Double { learner, rng } => {
                learner.update(s, a, r_t, self.state.pending_rows(), t, rng);
            }
            Backend::Sarsa { table, learner } => {
                learner.update(table, s, a, r_t, self.state.pending_rows(), t);
            }
        }
    }
}

/// One episode of Q-learning that leaves the shared table untouched.
///
/// A delta rollout reads the table through a `base + delta` overlay and
/// accumulates its TD increments into a flat row-major `f64` buffer:
///
/// * read:    `Q(s, a) = base[s·cols + a] + delta[s·cols + a]`
/// * TD step: `delta[s·cols + a] += α · (r + γ_t · next_best − Q(s, a))`
///
/// so several rollouts can explore from one round-start table at once
/// and the coordinator folds the finished buffers in with
/// [`ReassignScheduler::apply_q_delta`], in episode order. A cell
/// updated once per episode (the common case: each activation completes
/// once) ends the episode with bitwise the value an in-place agent
/// would compute; a cell updated more than once in one episode (retries
/// after failures) can differ in the last ulps, because the in-place
/// update adds to the cell while the overlay adds to its increment.
///
/// All mutable state is borrowed from the caller's persistent slot, so
/// a steady-state rollout performs no allocations of its own.
pub(crate) struct DeltaRollout<'a> {
    base: &'a DenseQTable,
    learner: &'a QLearner,
    delta: &'a mut [f64],
    state: &'a mut EpisodeState,
    /// Every completion observed, in engine order — what the
    /// coordinator replays into the carried history at merge time.
    samples: &'a mut Vec<Sample>,
}

impl<'a> DeltaRollout<'a> {
    /// Set the borrowed buffers up for `episode` against the shared
    /// agent's `(table, learner)`. Clears (never shrinks) `samples`.
    pub(crate) fn begin(
        config: &ReassignConfig,
        episode: u32,
        (base, learner): (&'a DenseQTable, &'a QLearner),
        delta: &'a mut [f64],
        state: &'a mut EpisodeState,
        samples: &'a mut Vec<Sample>,
    ) -> Self {
        assert_eq!(
            delta.len(),
            base.rows() * base.cols(),
            "delta buffer has {} cells, table has {}",
            delta.len(),
            base.rows() * base.cols()
        );
        delta.fill(0.0);
        state.begin(config, episode);
        // `delta` is all zeros here, so `base` alone is the view.
        state.reindex(base);
        samples.clear();
        Self { base, learner, delta, state, samples }
    }
}

impl Scheduler for DeltaRollout<'_> {
    fn name(&self) -> &str {
        "reassign-delta-rollout"
    }

    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        let Self { base, delta, state, .. } = self;
        let cols = base.cols();
        state.decide(ctx, |row, a| base.get(row, a) + delta[row * cols + a])
    }

    fn on_completion(&mut self, info: &CompletionInfo, history: &ExecHistory) {
        let (r_t, t) = self.state.observe(info, history);
        self.samples.push((info.vm, info.exec_secs, info.queue_secs));
        let (s, a) = (info.activation.index(), info.vm.index());
        let next_best = self.state.best.max();
        let idx = s * self.base.cols() + a;
        let td =
            r_t + self.learner.discount_at(t) * next_best - (self.base.get(s, a) + self.delta[idx]);
        self.delta[idx] += self.learner.config().alpha * td;
        self.state.refresh(s, || self.base.row_max(s, Some(&*self.delta)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud::Fleet;
    use wfsim::SimConfig;
    use workflow::montage50::montage50;

    fn agent_with(algorithm: RlAlgorithm) -> ReassignScheduler {
        let cfg = ReassignConfig { algorithm, episodes: 1, ..ReassignConfig::default() };
        ReassignScheduler::new(50, 9, cfg).unwrap()
    }

    #[test]
    fn all_backends_complete_an_episode() {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        for algorithm in [RlAlgorithm::QLearning, RlAlgorithm::DoubleQ, RlAlgorithm::ExpectedSarsa]
        {
            let mut agent = agent_with(algorithm);
            agent.begin_episode();
            let res = wfsim::simulate(
                &wf,
                &fleet,
                &mut agent,
                &SimConfig::deterministic(),
                SeedDerivation::new(1),
                None,
            )
            .unwrap();
            assert!(res.success, "{algorithm:?} failed to finish");
            assert!(agent.greedy_plan().is_complete());
        }
    }

    #[test]
    fn snapshots_round_trip_per_backend() {
        for algorithm in [RlAlgorithm::QLearning, RlAlgorithm::DoubleQ, RlAlgorithm::ExpectedSarsa]
        {
            let agent = agent_with(algorithm);
            let json = agent.q_snapshot_json().unwrap();
            let mut fresh = agent_with(algorithm);
            fresh.load_q_snapshot(&json).unwrap();
            assert_eq!(fresh.q_table(), agent.q_table(), "{algorithm:?}");
        }
    }

    #[test]
    fn double_q_rejects_plain_table_load() {
        let mut agent = agent_with(RlAlgorithm::DoubleQ);
        let err = agent.load_q_table(DenseQTable::zeros(50, 9)).unwrap_err();
        assert!(err.to_string().contains("load_q_snapshot"));
        let built =
            ReassignScheduler::with_q_table(50, 9, *agent.config(), DenseQTable::zeros(3, 2));
        assert_eq!(built.err().unwrap().to_string(), err.to_string());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut agent = agent_with(RlAlgorithm::QLearning);
        let err = agent.load_q_table(DenseQTable::zeros(10, 9)).unwrap_err();
        assert!(agent.load_q_snapshot("{\"rows\":1,\"cols\":1,\"q\":[0.0]}").is_err());
        let built =
            ReassignScheduler::with_q_table(50, 9, *agent.config(), DenseQTable::zeros(10, 9));
        assert_eq!(built.err().unwrap().to_string(), err.to_string());
    }

    /// An agent built around a table is the agent that was built fresh
    /// and then loaded it: same table, and the same episode from there.
    #[test]
    fn agent_built_around_a_table_matches_one_that_loaded_it() {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        for algorithm in [RlAlgorithm::QLearning, RlAlgorithm::ExpectedSarsa] {
            let mut trained = agent_with(algorithm);
            let run = |agent: &mut ReassignScheduler| {
                agent.begin_episode();
                let sim = SimConfig::deterministic();
                wfsim::simulate(&wf, &fleet, agent, &sim, SeedDerivation::new(1), None).unwrap()
            };
            run(&mut trained);
            let table = trained.q_table().clone();

            let mut loaded = agent_with(algorithm);
            loaded.load_q_table(table.clone()).unwrap();
            let mut built =
                ReassignScheduler::with_q_table(50, 9, *loaded.config(), table.clone()).unwrap();
            assert_eq!(built.q_table(), &table);
            let (a, b) = (run(&mut loaded), run(&mut built));
            assert_eq!(a.plan, b.plan, "{algorithm:?}");
            assert_eq!(a.makespan, b.makespan, "{algorithm:?}");
            assert_eq!(loaded.q_table(), built.q_table(), "{algorithm:?}");
        }
    }

    #[test]
    fn epsilon_schedule_anneals_across_episodes() {
        let cfg = ReassignConfig {
            episodes: 3,
            epsilon_schedule: Some(qlearn::Schedule::Linear { from: 0.0, to: 1.0, steps: 10 }),
            ..ReassignConfig::default()
        };
        let mut agent = ReassignScheduler::new(10, 3, cfg).unwrap();
        agent.begin_episode(); // episode 0 → ε = 0.0
        let eps0 = agent.state.policy.epsilon();
        assert_eq!(eps0, 0.0);
        for _ in 0..5 {
            agent.begin_episode();
        }
        let eps5 = agent.state.policy.epsilon();
        assert!((eps5 - 0.5).abs() < 1e-9, "eps {eps5}");
    }

    /// An agent plus a log of the `(vm, te, tf)` it was shown, to check
    /// a delta rollout's history samples against.
    struct Recording<'a> {
        agent: &'a mut ReassignScheduler,
        samples: Vec<Sample>,
    }

    impl Scheduler for Recording<'_> {
        fn name(&self) -> &str {
            self.agent.name()
        }
        fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
            self.agent.decide(ctx)
        }
        fn on_completion(&mut self, info: &CompletionInfo, history: &ExecHistory) {
            self.samples.push((info.vm, info.exec_secs, info.queue_secs));
            self.agent.on_completion(info, history);
        }
    }

    /// Run episode 3 once through a cloned agent (the in-place
    /// reference) and once through a [`DeltaRollout`] over the same
    /// base table, under identical seeds, and compare.
    fn compare_delta_vs_clone(cfg: ReassignConfig, sim: &SimConfig, bitwise: bool) {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        let agent = ReassignScheduler::new(wf.len(), fleet.len(), cfg).unwrap();
        let episode = 3u32;
        let seeds = SeedDerivation::new(cfg.seed);
        let episode_seeds = || SeedDerivation::new(seeds.seed_for("episode", episode as u64));

        let mut cloned = agent.clone();
        cloned.begin_episode_at(episode);
        let mut recording = Recording { agent: &mut cloned, samples: Vec::new() };
        let clone_result =
            wfsim::simulate(&wf, &fleet, &mut recording, sim, episode_seeds(), None).unwrap();
        let clone_samples = recording.samples;

        let mut delta = vec![0.0f64; wf.len() * fleet.len()];
        let mut state = EpisodeState::new(wf.len(), &cfg).unwrap();
        let mut samples = Vec::new();
        let mut worker = DeltaRollout::begin(
            &cfg,
            episode,
            agent.q_backend().unwrap(),
            &mut delta,
            &mut state,
            &mut samples,
        );
        let delta_result =
            wfsim::simulate(&wf, &fleet, &mut worker, sim, episode_seeds(), None).unwrap();

        assert_eq!(delta_result.plan, clone_result.plan, "same decisions, same plan");
        assert_eq!(delta_result.records, clone_result.records);
        assert_eq!(state.td_updates(), cloned.td_updates_this_episode());
        assert_eq!(state.epsilon(), cloned.current_epsilon());
        assert_eq!(
            state.reward().to_bits(),
            cloned.current_reward().to_bits(),
            "smoothed reward must be reproduced exactly"
        );
        assert_eq!(samples, clone_samples, "history samples in engine order");
        let (base, learned) = (agent.q_table(), cloned.q_table());
        for s in 0..base.rows() {
            for a in 0..base.cols() {
                let overlay = base.get(s, a) + delta[s * base.cols() + a];
                let direct = learned.get(s, a);
                if bitwise {
                    assert_eq!(
                        overlay.to_bits(),
                        direct.to_bits(),
                        "cell ({s},{a}): {overlay} vs {direct}"
                    );
                } else {
                    assert!(
                        (overlay - direct).abs() < 1e-9,
                        "cell ({s},{a}): {overlay} vs {direct}"
                    );
                }
            }
        }
    }

    #[test]
    fn delta_rollout_matches_cloned_agent_bitwise() {
        // Fault-free: every activation completes exactly once, so every
        // Q cell is updated at most once and `base + delta` must equal
        // the cloned agent's learned table bit for bit.
        let cfg = ReassignConfig { episodes: 1, ..ReassignConfig::default() };
        compare_delta_vs_clone(cfg, &SimConfig::deterministic(), true);
    }

    #[test]
    fn delta_rollout_matches_cloned_agent_under_faults() {
        // With retries a cell can be updated several times per episode;
        // the overlay then differs from sequential in-place updates
        // only by float association order — same trajectory, same
        // counts, tables equal to within ulps.
        let cfg = ReassignConfig { episodes: 1, failure_penalty: 5.0, ..ReassignConfig::default() };
        let sim = SimConfig {
            max_retries: 20,
            faults: cloud::FaultConfig {
                vm_mtbf_hours: 0.05,
                repair_secs: 15.0,
                straggler_prob: 0.1,
                straggler_factor: 2.0,
                backoff_base_secs: 1.0,
                ..cloud::FaultConfig::none()
            },
            ..SimConfig::default()
        };
        compare_delta_vs_clone(cfg, &sim, false);
    }

    #[test]
    fn delta_rollout_bootstrap_follows_rows_that_stay_pending() {
        // Without a failure penalty a failed attempt can raise its
        // cell, and with it the bootstrap of every later TD step: the
        // overlay has to re-read that row just as the in-place agent
        // does, or the two drift by far more than ulps.
        let cfg = ReassignConfig { episodes: 1, ..ReassignConfig::default() };
        compare_delta_vs_clone(cfg, &faulty_sim(), false);
    }

    #[test]
    fn apply_q_delta_is_a_dense_add_on_q_backend_only() {
        let mut agent = agent_with(RlAlgorithm::QLearning);
        let before = agent.q_table().clone();
        let mut delta = vec![0.0f64; 50 * 9];
        delta[7 * 9 + 2] = 0.25;
        agent.apply_q_delta(&delta).unwrap();
        assert_eq!(agent.q_table().get(7, 2).to_bits(), (before.get(7, 2) + 0.25).to_bits());
        assert_eq!(agent.q_table().get(0, 0).to_bits(), before.get(0, 0).to_bits());

        let mut double = agent_with(RlAlgorithm::DoubleQ);
        let err = double.apply_q_delta(&delta).unwrap_err();
        assert!(err.to_string().contains("Q-learning"), "{err}");
    }

    #[test]
    fn pending_rows_shrink_as_work_completes() {
        let mut agent = agent_with(RlAlgorithm::QLearning);
        assert_eq!(agent.state.pending_rows().len(), 50);
        agent.state.done[0] = true;
        agent.state.done[7] = true;
        assert_eq!(agent.state.pending_rows().len(), 48);
        agent.state.done.iter_mut().for_each(|d| *d = true);
        assert!(agent.state.pending_rows().is_empty());
    }

    /// The bootstrap as it is defined: every completion lists the
    /// pending rows and folds all of them
    /// ([`DenseQTable::max_over_rows`]). Decisions, reward and epoch go
    /// through the same [`EpisodeState`] as the agent's, so the
    /// bootstrap is the only thing the two can differ in.
    struct NaiveScan {
        table: DenseQTable,
        learner: QLearner,
        state: EpisodeState,
    }

    impl NaiveScan {
        /// What `agent` would be had it just been built around its
        /// current table.
        fn beside(agent: &ReassignScheduler) -> Self {
            let (table, learner) = agent.q_backend().unwrap();
            Self {
                table: table.clone(),
                learner: learner.clone(),
                state: EpisodeState::new(table.rows(), agent.config()).unwrap(),
            }
        }
    }

    impl Scheduler for NaiveScan {
        fn name(&self) -> &str {
            "naive-scan"
        }
        fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
            let Self { table, state, .. } = self;
            state.decide(ctx, |row, a| table.get(row, a))
        }
        fn on_completion(&mut self, info: &CompletionInfo, history: &ExecHistory) {
            let (r_t, t) = self.state.observe(info, history);
            let next_best = self.table.max_over_rows(self.state.pending_rows(), None);
            let (s, a) = (info.activation.index(), info.vm.index());
            self.learner.update(&mut self.table, s, a, r_t, next_best, t);
        }
    }

    /// Retries, crash orphans and replica losers: rows that take TD
    /// writes while still pending, and after they are done.
    fn faulty_sim() -> SimConfig {
        SimConfig {
            max_retries: 30,
            replication: cloud::ReplicationPolicy::Static { k: 2 },
            faults: cloud::FaultConfig {
                vm_mtbf_hours: 0.05,
                repair_secs: 15.0,
                straggler_prob: 0.1,
                straggler_factor: 2.0,
                backoff_base_secs: 1.0,
                ..cloud::FaultConfig::none()
            },
            failure_prob: 0.1,
            ..SimConfig::default()
        }
    }

    /// A table unlike any the agent initialises itself with.
    fn other_table(rows: usize, cols: usize) -> DenseQTable {
        DenseQTable::random(rows, cols, 2.0, &mut SeedDerivation::new(99).rng_for("other", 0))
    }

    fn assert_same_bits(agent: &ReassignScheduler, naive: &NaiveScan, what: &str) {
        let (got, want) = (agent.q_table().as_flat(), naive.table.as_flat());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: cell {i}: {g} vs {w}");
        }
    }

    /// An agent handed completions without `begin_episode` — right
    /// after construction, and after each way of writing its table from
    /// outside — bootstraps from the table it holds *now*: its learned
    /// table equals the naive scan's bit for bit.
    #[test]
    fn agent_that_skips_begin_episode_matches_naive_scan() {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        // No failure penalty, so a failed attempt's TD write can raise
        // its cell as well as lower it.
        let cfg = ReassignConfig { episodes: 1, failure_penalty: 0.0, ..ReassignConfig::default() };
        let other = other_table(wf.len(), fleet.len());
        let heft = sched::heft_plan(&wf, &fleet, SimConfig::default().bandwidth_bytes_per_sec)
            .unwrap()
            .plan;
        type Rewrite<'a> = (&'a str, Box<dyn Fn(&mut ReassignScheduler) + 'a>);
        let rewrites: [Rewrite<'_>; 4] = [
            ("fresh", Box::new(|_| {})),
            ("load_q_table", Box::new(|a| a.load_q_table(other.clone()).unwrap())),
            ("warm_start", Box::new(|a| a.warm_start(&heft).unwrap())),
            ("apply_q_delta", Box::new(|a| a.apply_q_delta(other.as_flat()).unwrap())),
        ];
        for (what, rewrite) in &rewrites {
            for sim in [SimConfig::deterministic(), faulty_sim()] {
                let mut agent = ReassignScheduler::new(wf.len(), fleet.len(), cfg).unwrap();
                rewrite(&mut agent);
                let mut naive = NaiveScan::beside(&agent);
                // Twice: the second run finds every row already done
                // (nothing reset the mask) and must bootstrap from 0.
                for run in 0..2 {
                    let seeds = SeedDerivation::new(11 + run);
                    let a = wfsim::simulate(&wf, &fleet, &mut agent, &sim, seeds, None).unwrap();
                    let n = wfsim::simulate(&wf, &fleet, &mut naive, &sim, seeds, None).unwrap();
                    assert_eq!(a.plan, n.plan, "{what}");
                    assert_same_bits(&agent, &naive, what);
                }
            }
        }
    }

    /// The table is replaced between two episodes that do call
    /// `begin_episode`: the second bootstraps from the new table.
    #[test]
    fn table_replaced_between_episodes_matches_naive_scan() {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        let cfg = ReassignConfig { episodes: 2, failure_penalty: 5.0, ..ReassignConfig::default() };
        let other = other_table(wf.len(), fleet.len());
        let sim = faulty_sim();
        let mut agent = ReassignScheduler::new(wf.len(), fleet.len(), cfg).unwrap();
        let mut naive = NaiveScan::beside(&agent);
        for ep in 0..2u32 {
            if ep == 1 {
                agent.load_q_table(other.clone()).unwrap();
                naive.table = other.clone();
            }
            agent.begin_episode_at(ep);
            naive.state.begin(&cfg, ep);
            let seeds = SeedDerivation::new(21 + ep as u64);
            wfsim::simulate(&wf, &fleet, &mut agent, &sim, seeds, None).unwrap();
            wfsim::simulate(&wf, &fleet, &mut naive, &sim, seeds, None).unwrap();
            assert_same_bits(&agent, &naive, "episode");
        }
    }
}
