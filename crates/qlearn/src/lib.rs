//! Generic tabular reinforcement learning (paper §II).
//!
//! Implements the classical model-free, off-policy Q-learning algorithm
//! the paper builds ReASSIgN on: Q-tables ([`qtable`]), action-selection
//! policies ([`policy`]), parameter schedules ([`schedule`]), the update
//! rule ([`learner`]), the incrementally kept bootstrap maximum
//! ([`pending_max`]) and persistence ([`persist`]).
//!
//! One faithful quirk: the paper's Algorithm 1 *inverts* the usual
//! ε-greedy convention — "with probability ε choose a as the **best**
//! action … otherwise choose a at random". Under that reading ε = 0.1
//! explores 90 % of the time, which is consistent with the paper's
//! results (the best configurations all use ε = 0.1 *and* benefit from
//! long histories). [`policy::PaperEpsilonGreedy`] implements the
//! paper's convention; [`policy::EpsilonGreedy`] implements the
//! textbook one. ReASSIgN uses the paper's.

pub mod double_q;
pub mod inspect;
pub mod learner;
pub mod mdp;
pub mod pending_max;
pub mod persist;
pub mod policy;
pub mod qtable;
pub mod sarsa;
pub mod schedule;

pub use double_q::DoubleQLearner;
pub use learner::{QLearner, QLearnerConfig};
pub use pending_max::PendingMax;
pub use policy::{EpsilonGreedy, Greedy, PaperEpsilonGreedy, Policy, Softmax, Ucb1};
pub use qtable::DenseQTable;
pub use sarsa::ExpectedSarsa;
pub use schedule::Schedule;
