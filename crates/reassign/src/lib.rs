//! ReASSIgN — **R**l-based **A**ctivation **S**cheduling of
//! **S**c**I**e**N**tific workflows (the paper's core contribution,
//! §III).
//!
//! ReASSIgN schedules workflow activations onto heterogeneous cloud VMs
//! with tabular Q-learning, *without* a cost model of the environment:
//!
//! * **States** (§III-A): the workflow is *available* (≥1 ready
//!   activation, ≥1 idle VM element), *unavailable*, or terminally
//!   *successfully finished* / *finished with failure*. Actions exist
//!   only in *available*: `schedule(ac, vm)` over the ready × idle
//!   cross-product, or *do nothing*.
//! * **Rewards** (§III-B): after an activation runs on `vm_j`, its
//!   execution/queue times update the per-VM index `P̄i_j` (Eq. 4) and
//!   the global index `P̄w` (Eq. 5); the crisp reward is −1 if
//!   `P̄i_j > P̄w + stdv` else +1 (Eq. 6), smoothed as
//!   `r^t = r^{t-1} + ρ·(r_i − r^{t-1})`.
//! * **Q-table** (§III-C): "an array containing all values of Q for
//!   each schedule action between the activation and a VM" — a dense
//!   `activations × VMs` matrix, carried across episodes.
//! * **Episodes** (§III-C/D): each complete simulated execution is one
//!   episode; after `maxIter` episodes the learned policy yields the
//!   scheduling plan submitted to the execution engine.
//!
//! One deliberate deviation from Algorithm 2's listing: the paper
//! updates Q immediately after allocation because WorkflowSim can read
//! a cloudlet's runtime the moment it is submitted. Our simulator keeps
//! schedulers honestly blind to the future, so the Q update for
//! `(ac, vm)` fires when the activation *completes* and its measured
//! `te`/`tf` exist. The information content of each update is
//! identical; only its timestamp shifts.

pub mod agent;
pub mod config;
pub mod episodes;
mod parallel;
mod replication;
pub mod reward;
pub mod state;
pub mod telemetry;

pub use agent::ReassignScheduler;
pub use config::{EpsilonConvention, ReassignConfig, RlAlgorithm};
pub use episodes::{
    learn, learn_traced, learn_tuned, EpisodeStats, LearnOutcome, LearnRun, TunedOutcome,
};
pub use reward::RewardTracker;
pub use state::WorkflowState;
pub use telemetry::LearnTelemetry;
