//! The full algorithm × convention matrix: every combination learns,
//! produces valid plans, and keeps its internals within bounds.

use cloud::Fleet;
use obs::Tracer;
use proptest::prelude::*;
use reassign::{EpsilonConvention, LearnRun, ReassignConfig, RlAlgorithm};
use wfsim::SimConfig;
use workflow::montage50::montage50;

#[test]
fn every_algorithm_convention_combination_learns() {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    for algorithm in [RlAlgorithm::QLearning, RlAlgorithm::DoubleQ, RlAlgorithm::ExpectedSarsa] {
        for convention in [EpsilonConvention::Paper, EpsilonConvention::Textbook] {
            let cfg = ReassignConfig {
                episodes: 6,
                algorithm,
                epsilon_convention: convention,
                ..ReassignConfig::default()
            };
            let out = LearnRun::new(&wf, &fleet, "matrix", &cfg, &SimConfig::default())
                .run(&mut Tracer::disabled())
                .unwrap_or_else(|e| panic!("{algorithm:?}/{convention:?}: {e}"))
                .outcome;
            out.greedy_plan.validate(&wf, &fleet).unwrap();
            assert_eq!(out.episodes.len(), 6);
            assert!(out.episodes.iter().all(|e| e.success));
            assert!(
                out.episodes.iter().all(|e| e.final_reward.abs() <= 1.0 + 1e-9),
                "{algorithm:?}: smoothed reward escaped [-1, 1]"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary valid hyper-parameters never break the learning loop.
    #[test]
    fn random_hyperparameters_learn(
        alpha in 0.05f64..1.0,
        gamma in 0.0f64..1.0,
        epsilon in 0.0f64..1.0,
        mu in 0.0f64..1.0,
        rho in 0.0f64..1.0,
        seed in 0u64..1000,
        power_t in prop::bool::ANY,
        carry in prop::bool::ANY,
    ) {
        let wf = montage50();
        let fleet = Fleet::paper_16_vcpus();
        let cfg = ReassignConfig {
            alpha,
            gamma,
            epsilon,
            mu,
            rho,
            episodes: 3,
            discount_power_t: power_t,
            carry_history: carry,
            seed,
            ..ReassignConfig::default()
        };
        let out = LearnRun::new(&wf, &fleet, "prop", &cfg, &SimConfig::default())
            .run(&mut Tracer::disabled())
            .unwrap()
            .outcome;
        prop_assert!(out.greedy_plan.is_complete());
        prop_assert!(out.best_episode_makespan.as_secs() > 0.0);
        // Q values stay finite under any parameterization.
        for e in &out.episodes {
            prop_assert!(e.final_reward.is_finite());
        }
    }

    /// The smoothed reward tracker stays in [-1, 1] because it is a
    /// convex combination of ±1 observations.
    #[test]
    fn reward_bounded(mu in 0.0f64..1.0, rho in 0.0f64..1.0, n in 1usize..200) {
        use wfcommon::VmId;
        let mut tracker = reassign::RewardTracker::new(mu, rho).unwrap();
        let mut h = wfsim::ExecHistory::new(3);
        let mut x = 1.0f64;
        for i in 0..n {
            // Alternate cheap and expensive observations across VMs.
            x = -x;
            h.record(VmId::new((i % 3) as u32), 10.0 + 40.0 * (x + 1.0), 1.0);
            let r = tracker.observe(&h, VmId::new((i % 3) as u32));
            prop_assert!((-1.0..=1.0).contains(&r), "r = {r}");
        }
    }
}
