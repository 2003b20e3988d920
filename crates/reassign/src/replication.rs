//! Learned speculative-replication head (schema v1.6 policy layer).
//!
//! The scheduler's Q-table decides *where* activations run; this module
//! learns *how many* speculative replicas each dispatch hedges with.
//! The state space is the small fault-pressure bucket grid of
//! [`cloud::ReplFeatures`] (attempt count × blacklist pressure ×
//! critical-path slack) and the action is the extra-replica count
//! `0..=REPL_MAX_EXTRA`, so a contextual bandit over per-episode
//! [`wfsim::ReplDecision`] outcomes is enough — no bootstrapping.
//!
//! The bandit is **anchored to the structured prior**
//! ([`cloud::ReplTable::heuristic`], or whatever table the run was
//! configured with). Per-decision rewards — hedging benefit minus a
//! waste charge minus the learner's `failure_penalty` on group
//! failures — can price *local* outcomes, but they cannot see the two
//! effects that dominate replication value: queueing externalities
//! (a replica launched in the fan-out phase delays *other* tasks) and
//! tail insurance (a replica win on the critical chain saves makespan,
//! one on a slack-rich task saves nothing). Those live in the prior's
//! structure. Training therefore explores only the prior's immediate
//! neighborhood (±1 extra per bucket, the trust region) and deviates
//! from the prior only on decisive evidence: a neighbor action must
//! beat the prior's empirical mean by [`PRIOR_MARGIN`] reward units —
//! in practice, repeated group failures burning the failure penalty.
//!
//! Exploration is a pure function of the trainer's observation counts
//! (each bucket plays its prior first, then unsampled trust-region
//! neighbors, then the margin-greedy choice), so episodes depend only
//! on merge-order state: parallel learning stays worker-count
//! invariant and `rollouts = 1` bitwise identical to the serial loop.

use cloud::{ReplTable, ReplicationPolicy, REPL_MAX_EXTRA, REPL_STATES};
use wfsim::ReplDecision;

/// Price of one wasted (cancelled-replica) PE-second, in reward units
/// per second. Biases the head toward launching no more replicas than
/// the fault pressure justifies.
const WASTE_WEIGHT: f64 = 0.25;

/// How decisively a trust-region neighbor must beat the prior action's
/// empirical mean reward before the head deviates from the prior.
/// Sized above per-decision waste noise (a few reward units on
/// second-scale tasks) but below a single `failure_penalty`, so only
/// systematic failure evidence moves the policy.
const PRIOR_MARGIN: f64 = 8.0;

/// Contextual-bandit trainer for the replication head. Inactive (a
/// no-op that always returns the caller's policy) unless the learning
/// run was configured with [`ReplicationPolicy::Learned`].
pub(crate) struct ReplHeadTrainer {
    active: bool,
    failure_penalty: f64,
    /// The anchor table training is a trust region around.
    prior: ReplTable,
    /// Running mean reward per (bucket, extra-replica count).
    q: Vec<Vec<f64>>,
    /// Visit counts; `0` marks an unsampled action.
    n: Vec<Vec<u64>>,
}

impl ReplHeadTrainer {
    /// Build a trainer for a learning run configured with `policy`.
    pub fn new(policy: &ReplicationPolicy, failure_penalty: f64) -> Self {
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

    /// Whether the head is being trained this run.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Trust-region candidates for `bucket`, in play order: the prior
    /// action first, then its clamped ±1 neighbors.
    fn candidates(&self, bucket: usize) -> impl Iterator<Item = u32> {
        let p = self.prior.extra(bucket);
        [Some(p), p.checked_sub(1), (p < REPL_MAX_EXTRA).then_some(p + 1)].into_iter().flatten()
    }

    /// The table the *next* training episode should run under: per
    /// bucket, the first unsampled trust-region candidate (prior
    /// first), or the converged margin-greedy choice once every
    /// candidate carries evidence.
    pub fn policy_next(&self) -> ReplicationPolicy {
        let mut table = ReplTable::zeros();
        for b in 0..REPL_STATES {
            let explore = self.candidates(b).find(|&a| self.n[b][a as usize] == 0);
            table.set(b, explore.unwrap_or_else(|| self.converged_action(b)));
        }
        ReplicationPolicy::Learned { table }
    }

    /// The converged policy: the prior, overridden per bucket only
    /// where a sampled trust-region neighbor decisively beats the
    /// sampled prior action.
    pub fn policy(&self) -> ReplicationPolicy {
        let mut table = ReplTable::zeros();
        for b in 0..REPL_STATES {
            table.set(b, self.converged_action(b));
        }
        ReplicationPolicy::Learned { table }
    }

    fn converged_action(&self, bucket: usize) -> u32 {
        let prior_a = self.prior.extra(bucket);
        if self.n[bucket][prior_a as usize] == 0 {
            return prior_a;
        }
        let prior_q = self.q[bucket][prior_a as usize];
        let mut best = prior_a;
        let mut best_q = prior_q + PRIOR_MARGIN;
        for a in self.candidates(bucket) {
            if a != prior_a && self.n[bucket][a as usize] > 0 && self.q[bucket][a as usize] > best_q
            {
                best = a;
                best_q = self.q[bucket][a as usize];
            }
        }
        best
    }

    /// Fold one episode's realised replication decisions into the
    /// estimates. Must be called in episode (merge) order.
    pub fn observe(&mut self, decisions: &[ReplDecision]) {
        if !self.active {
            return;
        }
        for d in decisions {
            let b = d.bucket as usize;
            if b >= REPL_STATES {
                continue;
            }
            let a = (d.requested as usize).min(REPL_MAX_EXTRA as usize);
            let benefit = d.primary_secs - d.group_secs;
            let mut reward = benefit - WASTE_WEIGHT * d.waste_secs;
            if d.group_failed {
                reward -= self.failure_penalty;
            }
            self.n[b][a] += 1;
            let k = self.n[b][a] as f64;
            self.q[b][a] += (reward - self.q[b][a]) / k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(
        bucket: u8,
        requested: u32,
        benefit: f64,
        waste: f64,
        failed: bool,
    ) -> ReplDecision {
        ReplDecision {
            activation: 0,
            bucket,
            requested: requested as u8,
            launched: requested as u8,
            primary_secs: 10.0 + benefit,
            group_secs: 10.0,
            waste_secs: waste,
            replica_won: benefit > 0.0,
            group_failed: failed,
        }
    }

    fn extra_of(p: &ReplicationPolicy, bucket: usize) -> u32 {
        match p {
            ReplicationPolicy::Learned { table } => table.extra(bucket),
            _ => panic!("expected a learned policy"),
        }
    }

    /// A bucket whose heuristic prior is 1 (first attempt, clean
    /// fleet, mid-workflow slack band 2).
    const MID: u8 = 2;

    #[test]
    fn inactive_for_non_learned_policies() {
        let t = ReplHeadTrainer::new(&ReplicationPolicy::Off, 0.0);
        assert!(!t.is_active());
        let t = ReplHeadTrainer::new(&ReplicationPolicy::Static { k: 2 }, 0.0);
        assert!(!t.is_active());
        let t = ReplHeadTrainer::new(&ReplicationPolicy::learned_heuristic(), 0.0);
        assert!(t.is_active());
    }

    #[test]
    fn untrained_head_is_the_prior() {
        let t = ReplHeadTrainer::new(&ReplicationPolicy::learned_heuristic(), 0.0);
        assert_eq!(t.policy(), ReplicationPolicy::learned_heuristic());
    }

    #[test]
    fn exploration_plays_prior_then_trust_region_neighbors() {
        let mut t = ReplHeadTrainer::new(&ReplicationPolicy::learned_heuristic(), 0.0);
        let b = MID as usize;
        let p = ReplTable::heuristic().extra(b);
        assert_eq!(p, 1, "test assumes the mid-band prior hedges once");
        // Untouched buckets open at the prior.
        assert_eq!(extra_of(&t.policy_next(), b), p);
        // After the prior is sampled, the unsampled neighbors follow.
        t.observe(&[decision(MID, p, 0.0, 1.0, false)]);
        assert_eq!(extra_of(&t.policy_next(), b), p - 1);
        t.observe(&[decision(MID, p - 1, 0.0, 0.0, false)]);
        assert_eq!(extra_of(&t.policy_next(), b), p + 1);
        // All sampled: exploration collapses to the converged choice.
        t.observe(&[decision(MID, p + 1, 0.0, 2.0, false)]);
        assert_eq!(extra_of(&t.policy_next(), b), extra_of(&t.policy(), b));
    }

    #[test]
    fn small_advantages_do_not_move_the_head_off_the_prior() {
        let mut t = ReplHeadTrainer::new(&ReplicationPolicy::learned_heuristic(), 0.0);
        let b = MID as usize;
        let p = ReplTable::heuristic().extra(b);
        // The cheaper neighbor looks slightly better — within noise.
        t.observe(&[
            decision(MID, p, 0.0, 4.0, false),
            decision(MID, p - 1, 0.0, 0.0, false),
            decision(MID, p + 1, 0.0, 8.0, false),
        ]);
        assert_eq!(extra_of(&t.policy(), b), p, "sub-margin evidence keeps the prior");
    }

    #[test]
    fn decisive_failure_evidence_overrides_the_prior() {
        let mut t = ReplHeadTrainer::new(&ReplicationPolicy::learned_heuristic(), 100.0);
        let b = MID as usize;
        let p = ReplTable::heuristic().extra(b);
        // The prior action keeps failing outright; the deeper neighbor
        // never does.
        for _ in 0..3 {
            t.observe(&[decision(MID, p, 0.0, 0.0, true), decision(MID, p + 1, 0.0, 2.0, false)]);
        }
        assert_eq!(extra_of(&t.policy(), b), p + 1, "failure penalty moves the head");
    }

    /// `policy_next`/`policy` as they read when `candidates` built a
    /// `Vec` per call: the oracle for the allocation-free iterator.
    fn transcription(t: &ReplHeadTrainer) -> (ReplicationPolicy, ReplicationPolicy) {
        let candidates = |b: usize| {
            let p = t.prior.extra(b);
            let mut c = vec![p];
            if p > 0 {
                c.push(p - 1);
            }
            if p < REPL_MAX_EXTRA {
                c.push(p + 1);
            }
            c
        };
        let converged = |b: usize| {
            let prior_a = t.prior.extra(b);
            if t.n[b][prior_a as usize] == 0 {
                return prior_a;
            }
            let (mut best, mut best_q) = (prior_a, t.q[b][prior_a as usize] + PRIOR_MARGIN);
            for a in candidates(b) {
                if a != prior_a && t.n[b][a as usize] > 0 && t.q[b][a as usize] > best_q {
                    (best, best_q) = (a, t.q[b][a as usize]);
                }
            }
            best
        };
        let (mut next, mut settled) = (ReplTable::zeros(), ReplTable::zeros());
        for b in 0..REPL_STATES {
            let explore = candidates(b).into_iter().find(|&a| t.n[b][a as usize] == 0);
            next.set(b, explore.unwrap_or_else(|| converged(b)));
            settled.set(b, converged(b));
        }
        (ReplicationPolicy::Learned { table: next }, ReplicationPolicy::Learned { table: settled })
    }

    #[test]
    fn policies_match_the_vec_transcription_over_a_seeded_stream() {
        use rand::Rng as _;
        let mut rng = wfcommon::SeedDerivation::new(2019).rng_for("repl-head-test", 0);
        let mut t = ReplHeadTrainer::new(&ReplicationPolicy::learned_heuristic(), 10.0);
        let mut moved_off_prior = false;
        for call in 0..1000 {
            let decisions: Vec<ReplDecision> = (0..rng.gen_range(0..4usize))
                .map(|_| {
                    // One bucket past the grid: `observe` must skip it.
                    let bucket = rng.gen_range(0..REPL_STATES as u32 + 1) as u8;
                    let requested = rng.gen_range(0..REPL_MAX_EXTRA + 1);
                    let benefit = rng.gen_range(-5.0..20.0);
                    let waste = rng.gen_range(0.0..40.0);
                    decision(bucket, requested, benefit, waste, rng.gen_range(0..10u32) == 0)
                })
                .collect();
            t.observe(&decisions);
            assert_eq!((t.policy_next(), t.policy()), transcription(&t), "after call {call}");
            moved_off_prior |= t.policy() != ReplicationPolicy::learned_heuristic();
        }
        assert!(moved_off_prior, "the stream must carry evidence that moves some bucket");
    }
}
