//! The Q-learning update rule (paper Eq. 3 / Algorithm 1).

use crate::qtable::DenseQTable;
use serde::{Deserialize, Serialize};

/// Q-learning hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct QLearnerConfig {
    /// Learning rate α ∈ (0, 1].
    pub alpha: f64,
    /// Discount factor γ ∈ [0, 1].
    pub gamma: f64,
    /// When true, apply the paper's literal `γ^t` discounting (the
    /// discount is raised to the decision-epoch index `t`, Algorithm
    /// 1/2) rather than the textbook constant `γ`.
    pub discount_power_t: bool,
}

impl QLearnerConfig {
    /// Validate ranges.
    pub fn validate(&self) -> wfcommon::Result<()> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(wfcommon::Error::Config(format!("alpha {} not in (0,1]", self.alpha)));
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err(wfcommon::Error::Config(format!("gamma {} not in [0,1]", self.gamma)));
        }
        Ok(())
    }
}

/// Applies temporal-difference updates to a [`DenseQTable`].
#[derive(Clone, Debug)]
pub struct QLearner {
    config: QLearnerConfig,
}

impl QLearner {
    /// Build a learner (validating the config).
    pub fn new(config: QLearnerConfig) -> wfcommon::Result<Self> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration in force.
    pub fn config(&self) -> &QLearnerConfig {
        &self.config
    }

    /// Effective discount at decision epoch `t`.
    pub fn discount_at(&self, t: u64) -> f64 {
        if self.config.discount_power_t {
            self.config.gamma.powf(t as f64)
        } else {
            self.config.gamma
        }
    }

    /// One update:
    /// `Q(s,a) ← Q(s,a) + α · (r + γ_t · max_a' Q(s', a') - Q(s,a))`.
    ///
    /// `next_best` is `max_a' Q(s', a')` over the actions available in
    /// the successor state (0 when the successor is terminal), computed
    /// by the caller because action availability is domain-specific.
    /// Returns the TD error δ.
    pub fn update(
        &self,
        table: &mut DenseQTable,
        s: usize,
        a: usize,
        reward: f64,
        next_best: f64,
        t: u64,
    ) -> f64 {
        let gamma_t = self.discount_at(t);
        let delta = reward + gamma_t * next_best - table.get(s, a);
        table.add(s, a, self.config.alpha * delta);
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn learner(alpha: f64, gamma: f64) -> QLearner {
        QLearner::new(QLearnerConfig { alpha, gamma, discount_power_t: false }).unwrap()
    }

    #[test]
    fn update_moves_toward_target() {
        let mut t = DenseQTable::zeros(1, 1);
        let l = learner(0.5, 0.9);
        let delta = l.update(&mut t, 0, 0, 1.0, 0.0, 0);
        assert!((delta - 1.0).abs() < 1e-12);
        assert!((t.get(0, 0) - 0.5).abs() < 1e-12);
        l.update(&mut t, 0, 0, 1.0, 0.0, 1);
        assert!((t.get(0, 0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn alpha_one_jumps_to_target() {
        let mut t = DenseQTable::zeros(1, 1);
        let l = learner(1.0, 0.0);
        l.update(&mut t, 0, 0, 3.0, 100.0, 0);
        assert!((t.get(0, 0) - 3.0).abs() < 1e-12, "gamma 0 ignores the future");
    }

    #[test]
    fn bootstrap_uses_next_best() {
        let mut t = DenseQTable::zeros(2, 1);
        t.set(1, 0, 10.0);
        let l = learner(1.0, 0.5);
        let nb = t.max_over(1, None);
        l.update(&mut t, 0, 0, 0.0, nb, 0);
        assert!((t.get(0, 0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn power_t_discount_decays() {
        let l = QLearner::new(QLearnerConfig { alpha: 1.0, gamma: 0.5, discount_power_t: true })
            .unwrap();
        assert_eq!(l.discount_at(0), 1.0);
        assert_eq!(l.discount_at(1), 0.5);
        assert_eq!(l.discount_at(2), 0.25);
        let fixed = learner(1.0, 0.5);
        assert_eq!(fixed.discount_at(7), 0.5);
    }

    #[test]
    fn repeated_updates_converge_to_fixed_point() {
        // r = 1 forever, single state/action, gamma 0.9:
        // fixed point Q* = 1 / (1 - 0.9) = 10.
        let mut t = DenseQTable::zeros(1, 1);
        let l = learner(0.1, 0.9);
        for step in 0..5000 {
            let nb = t.max_over(0, None);
            l.update(&mut t, 0, 0, 1.0, nb, step);
        }
        assert!((t.get(0, 0) - 10.0).abs() < 0.01, "Q = {}", t.get(0, 0));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(QLearner::new(QLearnerConfig { alpha: 0.0, gamma: 0.5, discount_power_t: false })
            .is_err());
        assert!(QLearner::new(QLearnerConfig { alpha: 0.5, gamma: 1.5, discount_power_t: false })
            .is_err());
    }
}
