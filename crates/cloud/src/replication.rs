//! Speculative task replication policy.
//!
//! Reactive recovery (retry/backoff/blacklist, [`crate::fault`]) pays
//! the full detection latency before it acts: a straggler on the
//! critical path stretches makespan by the whole timeout. Speculative
//! replication is the proactive complement — dispatch up to `k`
//! concurrent attempts of one task, keep the first finisher, cancel
//! the rest. This module holds the *policy*: given a task's fault
//! pressure, how many extra replicas to launch. The engines own the
//! mechanism (dispatch, first-finisher-wins, cancellation).
//!
//! Two policy families ship:
//!
//! * **Static-k** — every dispatch runs `k` concurrent attempts,
//!   the classical replication baseline.
//! * **Learned** — a compact table maps bucketed per-task
//!   fault-pressure features ([`ReplFeatures`]: attempt count, VM
//!   blacklist pressure, remaining critical-path slack) to an extra
//!   replica count. The table is trained by the ReASSIgN learning
//!   loop from per-decision outcomes (win/waste) under fault
//!   injection; [`ReplTable::heuristic`] gives an untrained but
//!   sensible policy for one-shot simulation.
//!
//! Replica *placement* — which VMs host the extra attempts — is policy
//! too, and lives here once ([`replica_targets`]) for both engines.
//!
//! Everything here is pure data: same features in, same replica count
//! and same targets out, so replication never perturbs the engines'
//! determinism contract.

use serde::{Deserialize, Serialize};

/// Number of feature buckets a [`ReplTable`] distinguishes:
/// 3 attempt × 2 blacklist-pressure × 6 slack buckets. The slack axis
/// is the finest because it is the only feature that discriminates on
/// a healthy fleet: attempt and pressure stay at zero until recovery
/// machinery engages, while every dispatch carries a slack fraction.
pub const REPL_STATES: usize = 36;

/// Most extra replicas any policy may request per dispatch.
pub const REPL_MAX_EXTRA: u32 = 3;

/// Per-task fault-pressure features at dispatch time, the learned
/// policy's state. All fields are derived from engine state that is
/// itself deterministic, so feature extraction is reproducible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplFeatures {
    /// Primary attempt counter (retries so far) of the task.
    pub attempt: u32,
    /// Fraction of the fleet currently blacklisted, in `[0, 1]`.
    pub blacklist_frac: f64,
    /// Remaining critical-path fraction: the task's downward rank over
    /// the workflow's total critical path, in `[0, 1]`. Near 1 means
    /// the task heads the critical chain — a straggler here costs the
    /// whole makespan.
    pub slack_frac: f64,
}

impl ReplFeatures {
    /// Map the features onto a table row in `0..REPL_STATES`.
    ///
    /// Slack bands are deliberately asymmetric: the low end (terminal
    /// tasks, where any delay lands directly on the makespan) and the
    /// high end (critical-chain heads) get their own bands, while the
    /// broad `[0.9, 0.95)` band isolates slack-rich fan-out tasks
    /// whose stragglers the DAG absorbs for free.
    pub fn bucket(&self) -> usize {
        let attempt = (self.attempt.min(2)) as usize;
        let pressure = usize::from(self.blacklist_frac >= 0.125);
        let slack = if self.slack_frac < 0.25 {
            0
        } else if self.slack_frac < 0.5 {
            1
        } else if self.slack_frac < 0.75 {
            2
        } else if self.slack_frac < 0.9 {
            3
        } else if self.slack_frac < 0.95 {
            4
        } else {
            5
        };
        attempt * 12 + pressure * 6 + slack
    }
}

/// A learned replication head: one extra-replica count per feature
/// bucket. Deliberately tiny (36 bytes of policy) so it serializes
/// into service submissions and svc warm-start caches for free.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplTable {
    /// Extra replicas per [`ReplFeatures::bucket`] row, each
    /// `<= REPL_MAX_EXTRA`.
    actions: Vec<u8>,
}

impl ReplTable {
    /// The all-zero table: never replicates until trained.
    pub fn zeros() -> Self {
        Self { actions: vec![0; REPL_STATES] }
    }

    /// The structured prior the learned head is anchored to.
    ///
    /// Shape (first-attempt, clean-fleet rows, by slack band):
    /// `[2, 2, 1, 1, 0, 2]` — hedge *terminal* tasks twice (the fleet
    /// is draining there, replicas are free, and a straggler lands
    /// directly on the makespan), hedge mid-workflow chains once,
    /// skip the slack-rich `[0.9, 0.95)` fan-out band entirely (the
    /// DAG absorbs its stragglers, and its replicas congest the
    /// busiest phase), and hedge critical-chain heads twice. Retry or
    /// blacklist-pressure rows hedge at the maximum: by the time the
    /// reactive machinery has engaged, duplicate work is cheaper than
    /// another timeout.
    pub fn heuristic() -> Self {
        let mut t = Self::zeros();
        for attempt in 0..3u32 {
            for pressure in 0..2usize {
                for (slack, band) in [0.1, 0.3, 0.6, 0.8, 0.92, 0.97].iter().enumerate() {
                    let f = ReplFeatures {
                        attempt,
                        blacklist_frac: [0.0, 0.25][pressure],
                        slack_frac: *band,
                    };
                    let extra =
                        if attempt >= 1 || pressure >= 1 { 3 } else { [2, 2, 1, 1, 0, 2][slack] };
                    t.set(f.bucket(), extra);
                }
            }
        }
        t
    }

    /// Extra replicas for table row `bucket`.
    pub fn extra(&self, bucket: usize) -> u32 {
        u32::from(self.actions[bucket])
    }

    /// Overwrite row `bucket` (clamped to [`REPL_MAX_EXTRA`]).
    pub fn set(&mut self, bucket: usize, extra: u32) {
        self.actions[bucket] = extra.min(REPL_MAX_EXTRA) as u8;
    }

    /// The raw per-bucket action row (for inspection/telemetry).
    pub fn actions(&self) -> &[u8] {
        &self.actions
    }

    /// Shape/range check after deserialization.
    pub fn validate(&self) -> Result<(), String> {
        if self.actions.len() != REPL_STATES {
            return Err(format!(
                "repl table has {} rows, expected {REPL_STATES}",
                self.actions.len()
            ));
        }
        if let Some(a) = self.actions.iter().find(|&&a| u32::from(a) > REPL_MAX_EXTRA) {
            return Err(format!("repl table action {a} exceeds max {REPL_MAX_EXTRA}"));
        }
        Ok(())
    }
}

impl Default for ReplTable {
    fn default() -> Self {
        Self::zeros()
    }
}

/// Which replication policy an engine runs.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicationPolicy {
    /// No replication — byte-identical legacy behavior.
    #[default]
    Off,
    /// Every dispatch runs `k` concurrent attempts (`k - 1` extras).
    Static {
        /// Total concurrent attempts per dispatch, `>= 2`.
        k: u32,
    },
    /// Feature-bucketed learned head.
    Learned {
        /// The trained (or heuristic) action table.
        table: ReplTable,
    },
}

impl ReplicationPolicy {
    /// A learned policy seeded with the heuristic prior.
    pub fn learned_heuristic() -> Self {
        Self::Learned { table: ReplTable::heuristic() }
    }

    /// Does this policy ever launch a replica?
    pub fn is_active(&self) -> bool {
        !matches!(self, Self::Off)
    }

    /// Extra replicas to launch alongside one primary dispatch.
    pub fn extra_replicas(&self, features: &ReplFeatures) -> u32 {
        match self {
            Self::Off => 0,
            Self::Static { k } => k.saturating_sub(1).min(REPL_MAX_EXTRA),
            Self::Learned { table } => table.extra(features.bucket()).min(REPL_MAX_EXTRA),
        }
    }

    /// Parse the CLI spelling: `off` | `static:K` | `learned`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(Self::Off),
            "learned" => Some(Self::learned_heuristic()),
            _ => {
                let k = s.strip_prefix("static:")?.parse().ok()?;
                Some(Self::Static { k })
            }
        }
    }

    /// Short label for tables and trace provenance.
    pub fn label(&self) -> String {
        match self {
            Self::Off => "off".into(),
            Self::Static { k } => format!("static:{k}"),
            Self::Learned { .. } => "learned".into(),
        }
    }

    /// Validate ranges (static `k` bounded, learned table well-formed).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Self::Off => Ok(()),
            Self::Static { k } => {
                if !(2..=1 + REPL_MAX_EXTRA).contains(k) {
                    Err(format!("static replication k={k} not in 2..={}", 1 + REPL_MAX_EXTRA))
                } else {
                    Ok(())
                }
            }
            Self::Learned { table } => table.validate(),
        }
    }
}

/// The VMs [`replica_targets`] picked, in scan order; at most
/// [`REPL_MAX_EXTRA`] of them, held inline so a dispatch allocates
/// nothing for its placement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaTargets {
    vms: [usize; REPL_MAX_EXTRA as usize],
    len: usize,
}

impl ReplicaTargets {
    /// The chosen VM indices, in launch order.
    pub fn as_slice(&self) -> &[usize] {
        &self.vms[..self.len]
    }
}

/// Where the replicas of one dispatch go: a round-robin scan outward
/// from the primary's VM (`primary + 1, primary + 2, …` modulo the
/// fleet size `nv`), taking the first `requested` VMs that `skip` does
/// not rule out (an engine passes what it cannot use: blacklisted or
/// full VMs). The scan never yields the primary's VM and visits every
/// other VM at most once, so a group never has two attempts on one VM
/// — co-located replicas share the fault domain and hedge nothing —
/// and it returns fewer than `requested` when the fleet runs out.
/// `requested` is what [`ReplicationPolicy::extra_replicas`] returned,
/// so never more than [`REPL_MAX_EXTRA`] (anything above is clamped).
pub fn replica_targets(
    primary: usize,
    nv: usize,
    requested: u32,
    mut skip: impl FnMut(usize) -> bool,
) -> ReplicaTargets {
    let mut targets = ReplicaTargets::default();
    let wanted = requested.min(REPL_MAX_EXTRA) as usize;
    let mut offset = 1;
    while targets.len < wanted && offset < nv {
        let vm = (primary + offset) % nv;
        offset += 1;
        if !skip(vm) {
            targets.vms[targets.len] = vm;
            targets.len += 1;
        }
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_table_exactly() {
        let mut seen = [false; REPL_STATES];
        for attempt in [0u32, 1, 2, 7] {
            for blacklist_frac in [0.0, 0.2] {
                for slack_frac in [0.1, 0.3, 0.6, 0.8, 0.92, 0.97] {
                    let b = ReplFeatures { attempt, blacklist_frac, slack_frac }.bucket();
                    assert!(b < REPL_STATES);
                    seen[b] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every bucket must be reachable");
    }

    #[test]
    fn static_k_launches_k_minus_one_extras() {
        let p = ReplicationPolicy::Static { k: 2 };
        let f = ReplFeatures { attempt: 0, blacklist_frac: 0.0, slack_frac: 0.0 };
        assert_eq!(p.extra_replicas(&f), 1);
        assert!(p.is_active());
        assert!(!ReplicationPolicy::Off.is_active());
        assert_eq!(ReplicationPolicy::Off.extra_replicas(&f), 0);
    }

    #[test]
    fn heuristic_is_selective() {
        let p = ReplicationPolicy::learned_heuristic();
        let fanout = ReplFeatures { attempt: 0, blacklist_frac: 0.0, slack_frac: 0.92 };
        assert_eq!(p.extra_replicas(&fanout), 0, "slack-rich fan-out tasks must not replicate");
        let hot = ReplFeatures { attempt: 2, blacklist_frac: 0.5, slack_frac: 0.9 };
        assert_eq!(p.extra_replicas(&hot), 3, "pressured retries hedge at the maximum");
        let critical = ReplFeatures { attempt: 0, blacklist_frac: 0.0, slack_frac: 0.97 };
        assert_eq!(p.extra_replicas(&critical), 2, "critical-chain heads hedge twice");
        let terminal = ReplFeatures { attempt: 0, blacklist_frac: 0.0, slack_frac: 0.1 };
        assert_eq!(p.extra_replicas(&terminal), 2, "terminal tasks hedge twice");
        let mid = ReplFeatures { attempt: 0, blacklist_frac: 0.0, slack_frac: 0.6 };
        assert_eq!(p.extra_replicas(&mid), 1, "mid-workflow chains hedge once");
    }

    #[test]
    fn parse_round_trips_labels() {
        for s in ["off", "static:2", "static:3", "learned"] {
            let p = ReplicationPolicy::parse(s).unwrap();
            assert_eq!(p.label(), s);
            p.validate().unwrap();
        }
        assert!(ReplicationPolicy::parse("static:0").unwrap().validate().is_err());
        assert!(ReplicationPolicy::parse("static:9").unwrap().validate().is_err());
        assert!(ReplicationPolicy::parse("bogus").is_none());
        assert!(ReplicationPolicy::parse("static:x").is_none());
    }

    #[test]
    fn table_validation_catches_shape_and_range() {
        ReplTable::zeros().validate().unwrap();
        ReplTable::heuristic().validate().unwrap();
        let short = ReplTable { actions: vec![0; 3] };
        assert!(short.validate().is_err());
        let wild = ReplTable { actions: vec![REPL_MAX_EXTRA as u8 + 1; REPL_STATES] };
        assert!(wild.validate().is_err());
    }

    /// The placement loop as both engines spelled it before it moved
    /// here, kept as the oracle.
    fn scan(primary: usize, nv: usize, requested: u32, skip: &[bool]) -> Vec<usize> {
        let mut out = Vec::new();
        let mut offset = 1;
        while (out.len() as u32) < requested && offset < nv {
            let cv = (primary + offset) % nv;
            offset += 1;
            if skip[cv] {
                continue;
            }
            out.push(cv);
        }
        out
    }

    #[test]
    fn replica_targets_scan_outward_from_the_primary() {
        // Scan order is primary + 1, primary + 2, … modulo the fleet.
        assert_eq!(replica_targets(6, 8, 3, |_| false).as_slice(), [7, 0, 1]);
        // Never the primary, never more than requested, fewer when the
        // fleet (or `skip`) leaves too few, none on a one-VM fleet.
        assert_eq!(replica_targets(1, 3, 3, |_| false).as_slice(), [2, 0]);
        assert_eq!(replica_targets(1, 3, 3, |vm| vm == 2).as_slice(), [0]);
        assert_eq!(replica_targets(1, 3, 3, |_| true).as_slice(), [] as [usize; 0]);
        assert_eq!(replica_targets(0, 1, 3, |_| false).as_slice(), [] as [usize; 0]);
        assert_eq!(replica_targets(2, 8, 0, |_| false).as_slice(), [] as [usize; 0]);
        // `skip` is asked about each candidate at most once, in scan order.
        let mut asked = Vec::new();
        let picked = replica_targets(2, 4, 1, |vm| {
            asked.push(vm);
            vm == 3
        });
        assert_eq!((picked.as_slice(), asked.as_slice()), (&[0][..], &[3, 0][..]));
    }

    #[test]
    fn replica_targets_match_the_loop_they_replaced() {
        // SplitMix64 over (primary, fleet size, requested, skip mask).
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..20_000 {
            let nv = 1 + (next() % 12) as usize;
            let primary = (next() % nv as u64) as usize;
            let requested = (next() % u64::from(REPL_MAX_EXTRA + 1)) as u32;
            let mask = next();
            let skip: Vec<bool> = (0..nv).map(|vm| mask >> vm & 1 == 1).collect();
            let picked = replica_targets(primary, nv, requested, |vm| skip[vm]);
            let picked = picked.as_slice();
            assert_eq!(picked, scan(primary, nv, requested, &skip), "{primary} {nv} {requested}");
            assert!(picked.len() <= requested as usize && !picked.contains(&primary));
            let mut distinct = picked.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), picked.len(), "a VM was picked twice");
        }
    }

    #[test]
    fn extras_are_always_bounded() {
        let f = ReplFeatures { attempt: 9, blacklist_frac: 1.0, slack_frac: 1.0 };
        for p in [
            ReplicationPolicy::Off,
            ReplicationPolicy::Static { k: 4 },
            ReplicationPolicy::learned_heuristic(),
        ] {
            assert!(p.extra_replicas(&f) <= REPL_MAX_EXTRA);
        }
    }
}
