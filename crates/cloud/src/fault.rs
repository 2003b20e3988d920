//! Fault taxonomy beyond transient attempt failures.
//!
//! The paper's activation state machine reaches *finished with
//! failure* "due to a problem in the hardware or other issues"
//! (§III-A). [`crate::FailureModel`] covers the transient per-attempt
//! case; this module adds the heavier hardware faults an RL scheduler
//! should learn around:
//!
//! * **VM crashes** — a VM dies, every activation in flight on it is
//!   lost, and the VM stays down for a repair interval before coming
//!   back. Each VM's crash instants are a Poisson process drawn from a
//!   stream of its own, so the schedule is a function of
//!   `(seed, vm, idx)` alone and never depends on simulation order;
//!   [`FaultModel::crash`] samples instant `idx` when a run reaches it,
//!   and [`FaultModel::crashes`] — the same step run to the horizon —
//!   is the definition.
//! * **Stragglers** — an attempt runs on degraded hardware and takes a
//!   multiple of its nominal time. Drawn as a pure counter-RNG
//!   function of `(seed, activation, vm, attempt)` in the
//!   [`crate::FailureModel`] style: re-asking never consumes a stream,
//!   so query order cannot change outcomes.
//! * **Lost acks** — the completion message for an attempt is dropped
//!   on the worker channel (used by the real-time `scirun` engine).
//!   Keyed on `(seed, activation, attempt)` only, because in `scirun`
//!   the channel — not the VM — loses the message.
//!
//! Recovery knobs (retry backoff, per-attempt timeout, blacklist
//! threshold) live here too so every engine shares one policy source.

use rand::Rng as _;
use serde::{Deserialize, Serialize};
use wfcommon::ids::Idx;
use wfcommon::rng::Rng;
use wfcommon::{ActivationId, SeedDerivation, SimTime, VmId};

use crate::failure::mix;

/// Fault-injection and recovery-policy knobs. The default is inert:
/// every probability/rate is zero, so engines behave exactly as they
/// did before the fault subsystem existed.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Mean time between crashes per VM, in hours. `0` disables
    /// crashes entirely.
    pub vm_mtbf_hours: f64,
    /// Seconds a crashed VM stays down before its PEs return.
    pub repair_secs: f64,
    /// Probability that one attempt is a straggler.
    pub straggler_prob: f64,
    /// Runtime multiplier applied to straggler attempts (≥ 1).
    pub straggler_factor: f64,
    /// Probability that one attempt's completion ack is lost
    /// (`scirun` only; the simulator has no lossy channel).
    pub lost_ack_prob: f64,
    /// Per-attempt timeout in simulated seconds: an attempt that would
    /// run longer is killed and re-dispatched. `0` disables timeouts.
    pub timeout_secs: f64,
    /// Base of the exponential retry backoff: retry `n` (1-based)
    /// waits `backoff_base_secs * 2^(n-1)` before re-entering the
    /// ready queue. `0` keeps the legacy immediate-retry path.
    pub backoff_base_secs: f64,
    /// Blacklist a VM permanently after this many crash/timeout faults
    /// (graceful degradation instead of livelock). `0` never
    /// blacklists.
    pub blacklist_after: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultConfig {
    /// No faults, no recovery policies — byte-identical legacy
    /// behavior.
    pub fn none() -> Self {
        Self {
            vm_mtbf_hours: 0.0,
            repair_secs: 0.0,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
            lost_ack_prob: 0.0,
            timeout_secs: 0.0,
            backoff_base_secs: 0.0,
            blacklist_after: 0,
        }
    }

    /// A gentle profile: rare crashes with quick repair, occasional
    /// stragglers, no blacklisting.
    pub fn mild() -> Self {
        Self {
            vm_mtbf_hours: 2.0,
            repair_secs: 30.0,
            straggler_prob: 0.05,
            straggler_factor: 2.0,
            lost_ack_prob: 0.02,
            timeout_secs: 0.0,
            backoff_base_secs: 1.0,
            blacklist_after: 0,
        }
    }

    /// A hostile profile: frequent crashes, slow repair, heavy
    /// stragglers, timeouts and blacklisting engaged.
    pub fn heavy() -> Self {
        Self {
            vm_mtbf_hours: 0.25,
            repair_secs: 120.0,
            straggler_prob: 0.15,
            straggler_factor: 4.0,
            lost_ack_prob: 0.05,
            timeout_secs: 600.0,
            backoff_base_secs: 2.0,
            blacklist_after: 3,
        }
    }

    /// Resolve a named profile (`none` | `mild` | `heavy`).
    pub fn from_profile(name: &str) -> Option<Self> {
        match name {
            "none" => Some(Self::none()),
            "mild" => Some(Self::mild()),
            "heavy" => Some(Self::heavy()),
            _ => None,
        }
    }

    /// Whether every fault channel is disabled (the config cannot
    /// change an engine's behavior).
    pub fn is_inert(&self) -> bool {
        self.vm_mtbf_hours == 0.0
            && self.straggler_prob == 0.0
            && self.lost_ack_prob == 0.0
            && self.timeout_secs == 0.0
            && self.backoff_base_secs == 0.0
    }

    /// Validate ranges; returns a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..).contains(&self.vm_mtbf_hours) {
            return Err(format!("vm_mtbf_hours must be >= 0, got {}", self.vm_mtbf_hours));
        }
        if !(0.0..).contains(&self.repair_secs) {
            return Err(format!("repair_secs must be >= 0, got {}", self.repair_secs));
        }
        if !(0.0..=1.0).contains(&self.straggler_prob) {
            return Err(format!("straggler_prob must be in [0, 1], got {}", self.straggler_prob));
        }
        if !(1.0..).contains(&self.straggler_factor) {
            return Err(format!("straggler_factor must be >= 1, got {}", self.straggler_factor));
        }
        if !(0.0..=1.0).contains(&self.lost_ack_prob) {
            return Err(format!("lost_ack_prob must be in [0, 1], got {}", self.lost_ack_prob));
        }
        if !(0.0..).contains(&self.timeout_secs) {
            return Err(format!("timeout_secs must be >= 0, got {}", self.timeout_secs));
        }
        if !(0.0..).contains(&self.backoff_base_secs) {
            return Err(format!("backoff_base_secs must be >= 0, got {}", self.backoff_base_secs));
        }
        Ok(())
    }

    /// Seconds retry `n` (1-based) waits before re-entering the ready
    /// queue: `backoff_base_secs * 2^(n-1)`, saturating on the shift.
    pub fn backoff_secs(&self, retry: u32) -> f64 {
        if self.backoff_base_secs <= 0.0 || retry == 0 {
            return 0.0;
        }
        self.backoff_base_secs * 2f64.powi((retry - 1).min(60) as i32)
    }
}

/// One VM's crash process: its `"faults-crash"` stream, and how far
/// [`FaultModel::crash`] has run it.
#[derive(Clone, Debug)]
struct CrashStream {
    rng: Rng,
    /// The process clock: the end of the last repair, from where the
    /// next time-to-crash is drawn.
    t: f64,
    /// How many instants have been sampled (the `idx` the next step
    /// yields).
    sampled: usize,
    /// Instant `sampled - 1`.
    last: SimTime,
}

impl CrashStream {
    fn start(seeds: SeedDerivation, vm: usize) -> Self {
        Self {
            rng: seeds.rng_for("faults-crash", vm as u64),
            t: 0.0,
            sampled: 0,
            last: SimTime::ZERO,
        }
    }

    /// The one sampling step: the next crash instant of this VM, or
    /// `None` once the process has run past `horizon` (and on every
    /// later call: the clock only moves forward).
    fn step(&mut self, config: &FaultConfig, horizon: SimTime) -> Option<SimTime> {
        let rate_per_sec = 1.0 / (config.vm_mtbf_hours * 3600.0);
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        self.t += -u.ln() / rate_per_sec;
        if self.t > horizon.as_secs() {
            return None;
        }
        let at = SimTime(self.t);
        // The VM is down (not exposed to crashes) while under repair.
        self.t += config.repair_secs;
        Some(at)
    }
}

/// Deterministic fault injector: per-VM crash schedules sampled as a
/// run reaches them, plus pure counter-RNG straggler / lost-ack draws.
#[derive(Clone, Debug)]
pub struct FaultModel {
    config: FaultConfig,
    seed: u64,
    seeds: SeedDerivation,
    horizon: SimTime,
    /// One crash process per VM; empty when crashes are disabled.
    /// Consecutive crashes on one VM are at least `repair_secs` apart
    /// (a VM cannot crash while it is already down).
    streams: Vec<CrashStream>,
}

impl FaultModel {
    /// Build the injector for `vm_count` VMs over `[0, horizon]`.
    /// Crash instants are fixed here, per VM, by the seed alone; none
    /// is drawn until [`Self::crash`] asks for it.
    pub fn new(
        config: FaultConfig,
        vm_count: usize,
        horizon: SimTime,
        seeds: SeedDerivation,
    ) -> Self {
        // Learning loops rebuild the model every episode, so the
        // crash-free path must not allocate: no streams at all, which
        // every query below reads as "no crashes".
        let streams = if config.vm_mtbf_hours > 0.0 {
            (0..vm_count).map(|vm| CrashStream::start(seeds, vm)).collect()
        } else {
            Vec::new()
        };
        Self { config, seed: seeds.seed_for("faults", 0), seeds, horizon, streams }
    }

    /// An injector that never faults.
    pub fn none() -> Self {
        Self {
            config: FaultConfig::none(),
            seed: 0,
            seeds: SeedDerivation::new(0),
            horizon: SimTime::ZERO,
            streams: Vec::new(),
        }
    }

    /// The config this model was built with.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Crash instant `idx` of `vm` — `crashes(vm)[idx]` — or `None`
    /// past the end of its schedule, for VMs beyond the fleet, and when
    /// crashes are disabled. Samples only up to `idx`, and remembers
    /// where it stopped: asking in ascending `idx` order, as the engines
    /// do, draws each instant once. Any other order gets the same
    /// answers by replaying the VM's stream from its seed.
    pub fn crash(&mut self, vm: VmId, idx: usize) -> Option<SimTime> {
        let stream = self.streams.get_mut(vm.index())?;
        if idx + 1 < stream.sampled {
            *stream = CrashStream::start(self.seeds, vm.index());
        }
        while stream.sampled <= idx {
            stream.last = stream.step(&self.config, self.horizon)?;
            stream.sampled += 1;
        }
        Some(stream.last)
    }

    /// The whole crash schedule of `vm` over the horizon, ascending:
    /// the sampling step run to exhaustion on a fresh copy of the VM's
    /// stream. This is the definition [`Self::crash`] answers from, and
    /// the tests' oracle; a run should ask for the instants it reaches
    /// instead. Empty for VMs beyond the fleet or when crashes are
    /// disabled.
    pub fn crashes(&self, vm: VmId) -> Vec<SimTime> {
        if vm.index() >= self.streams.len() {
            return Vec::new();
        }
        let mut stream = CrashStream::start(self.seeds, vm.index());
        std::iter::from_fn(|| stream.step(&self.config, self.horizon)).collect()
    }

    /// Total crash count across the fleet over the horizon.
    pub fn crash_count(&self) -> usize {
        (0..self.streams.len()).map(|vm| self.crashes(VmId::from_index(vm)).len()).sum()
    }

    /// The uniform variate in `[0, 1)` behind one salted draw.
    fn uniform(&self, salt: u64, a: u64, b: u64) -> f64 {
        let key = mix(mix(self.seed ^ salt)
            .wrapping_add((a << 1) | 1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b);
        (mix(key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Whether this attempt straggles (runs `straggler_factor` ×
    /// slower). Pure in `(seed, ac, vm, attempt)`.
    pub fn straggles(&self, ac: ActivationId, vm: VmId, attempt: u32) -> bool {
        self.config.straggler_prob > 0.0
            && self.uniform(
                0x7374_7261_6767_6c65, // "straggle"
                ac.index() as u64,
                ((vm.index() as u64) << 32) | u64::from(attempt),
            ) < self.config.straggler_prob
    }

    /// Runtime multiplier for this attempt (1.0 or the straggler
    /// factor).
    pub fn slowdown(&self, ac: ActivationId, vm: VmId, attempt: u32) -> f64 {
        if self.straggles(ac, vm, attempt) {
            self.config.straggler_factor
        } else {
            1.0
        }
    }

    /// Whether this attempt's completion ack is lost on the worker
    /// channel. Pure in `(seed, ac, attempt)`.
    pub fn ack_lost(&self, ac: ActivationId, attempt: u32) -> bool {
        self.config.lost_ack_prob > 0.0
            && self.uniform(
                0x6c6f_7374_2d61_636b, // "lost-ack"
                ac.index() as u64,
                u64::from(attempt),
            ) < self.config.lost_ack_prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(config: FaultConfig, seed: u64) -> FaultModel {
        FaultModel::new(config, 4, SimTime(3600.0 * 10.0), SeedDerivation::new(seed))
    }

    #[test]
    fn default_is_inert() {
        let c = FaultConfig::default();
        assert!(c.is_inert());
        assert!(c.validate().is_ok());
        let m = model(c, 1);
        assert_eq!(m.crash_count(), 0);
        assert!(!m.straggles(ActivationId::new(0), VmId::new(0), 0));
        assert!(!m.ack_lost(ActivationId::new(0), 0));
        assert_eq!(m.slowdown(ActivationId::new(0), VmId::new(0), 0), 1.0);
    }

    #[test]
    fn profiles_resolve_and_validate() {
        for name in ["none", "mild", "heavy"] {
            let c = FaultConfig::from_profile(name).unwrap();
            assert!(c.validate().is_ok(), "{name}");
        }
        assert!(FaultConfig::from_profile("bogus").is_none());
        assert!(!FaultConfig::mild().is_inert());
    }

    #[test]
    fn validate_rejects_bad_ranges() {
        for bad in [
            FaultConfig { vm_mtbf_hours: -1.0, ..FaultConfig::none() },
            FaultConfig { repair_secs: -1.0, ..FaultConfig::none() },
            FaultConfig { straggler_prob: 1.5, ..FaultConfig::none() },
            FaultConfig { straggler_factor: 0.5, ..FaultConfig::none() },
            FaultConfig { lost_ack_prob: -0.1, ..FaultConfig::none() },
            FaultConfig { timeout_secs: f64::NAN, ..FaultConfig::none() },
            FaultConfig { backoff_base_secs: -2.0, ..FaultConfig::none() },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn backoff_doubles_per_retry() {
        let c = FaultConfig { backoff_base_secs: 1.5, ..FaultConfig::none() };
        assert_eq!(c.backoff_secs(1), 1.5);
        assert_eq!(c.backoff_secs(2), 3.0);
        assert_eq!(c.backoff_secs(3), 6.0);
        assert_eq!(c.backoff_secs(0), 0.0);
        assert_eq!(FaultConfig::none().backoff_secs(5), 0.0);
        // Huge retry counts saturate instead of overflowing.
        assert!(c.backoff_secs(200).is_finite());
    }

    #[test]
    fn crash_rate_is_roughly_right() {
        let c = FaultConfig { vm_mtbf_hours: 1.0, ..FaultConfig::none() };
        let m = FaultModel::new(c, 1, SimTime(3600.0 * 200.0), SeedDerivation::new(5));
        let n = m.crashes(VmId::new(0)).len() as f64;
        assert!((150.0..250.0).contains(&n), "crashes {n}");
    }

    #[test]
    fn crashes_sorted_and_spaced_by_repair() {
        let c = FaultConfig { vm_mtbf_hours: 0.1, repair_secs: 60.0, ..FaultConfig::none() };
        let m = FaultModel::new(c, 3, SimTime(3600.0 * 20.0), SeedDerivation::new(6));
        assert!(m.crash_count() > 10);
        for vm in 0..3 {
            let list = m.crashes(VmId::new(vm));
            for pair in list.windows(2) {
                assert!(pair[1].as_secs() - pair[0].as_secs() >= 60.0, "{pair:?}");
            }
        }
        // Out-of-fleet VMs have no schedule.
        assert!(m.crashes(VmId::new(9)).is_empty());
    }

    #[test]
    fn crash_schedule_is_seed_deterministic() {
        let c = FaultConfig::heavy();
        let a = model(c, 42);
        let b = model(c, 42);
        for vm in 0..4 {
            assert_eq!(a.crashes(VmId::new(vm)), b.crashes(VmId::new(vm)));
        }
        let other = model(c, 43);
        assert_ne!(a.crashes(VmId::new(0)), other.crashes(VmId::new(0)));
    }

    #[test]
    fn crash_on_demand_is_the_schedule_in_any_vm_order() {
        for config in [FaultConfig::none(), FaultConfig::mild(), FaultConfig::heavy()] {
            for seed in 0..8 {
                for vms in [1, 9, 15] {
                    for horizon_secs in [0.0, 3600.0, 86_400.0] {
                        check_crash_on_demand(config, seed, vms, horizon_secs);
                    }
                }
            }
        }
    }

    fn check_crash_on_demand(config: FaultConfig, seed: u64, vms: usize, horizon_secs: f64) {
        let mtbf = config.vm_mtbf_hours;
        let case = format!("mtbf {mtbf} h, seed {seed}, {vms} VMs, horizon {horizon_secs} s");
        let seeds = SeedDerivation::new(seed);
        let horizon = SimTime(horizon_secs);
        let mut m = FaultModel::new(config, vms, horizon, seeds);
        let schedule: Vec<Vec<SimTime>> =
            (0..vms).map(|vm| m.crashes(VmId::from_index(vm))).collect();
        assert_eq!(m.crash_count(), schedule.iter().map(Vec::len).sum::<usize>(), "{case}");
        if config.vm_mtbf_hours == 0.0 || horizon_secs == 0.0 {
            assert_eq!(m.crash_count(), 0, "{case}");
        } else if horizon_secs > 3600.0 {
            assert!(schedule.iter().all(|list| !list.is_empty()), "{case}");
        }

        // Every VM in ascending `idx`, the VMs interleaved at random,
        // each until it has answered `None` twice.
        let mut next = vec![0usize; vms];
        let mut open: Vec<usize> = (0..vms).collect();
        let mut order = seeds.rng_for("test-ask-order", 0);
        while !open.is_empty() {
            let pick = order.gen_range(0..open.len());
            let vm = open[pick];
            let got = m.crash(VmId::from_index(vm), next[vm]);
            assert_eq!(got, schedule[vm].get(next[vm]).copied(), "{case}, vm {vm}");
            if next[vm] > schedule[vm].len() {
                open.swap_remove(pick);
            }
            next[vm] += 1;
        }
        // Asking did not move the definition.
        for (vm, list) in schedule.iter().enumerate() {
            assert_eq!(&m.crashes(VmId::from_index(vm)), list, "{case}, vm {vm}");
        }
        // Going back is answered by replaying the stream.
        let last_vm = VmId::from_index(vms - 1);
        assert_eq!(m.crash(last_vm, 0), schedule[vms - 1].first().copied(), "{case}");
        assert_eq!(m.crash(last_vm, 1), schedule[vms - 1].get(1).copied(), "{case}");

        // A VM's schedule does not depend on what the others were asked.
        if vms > 7 {
            let mut solo = FaultModel::new(config, vms, horizon, seeds);
            for idx in 0..schedule[7].len() + 2 {
                assert_eq!(
                    solo.crash(VmId::new(7), idx),
                    schedule[7].get(idx).copied(),
                    "{case}, idx {idx}"
                );
            }
        }
        // A VM the fleet does not have never crashes — and never panics.
        assert_eq!(m.crash(VmId::from_index(vms), 0), None, "{case}");
        assert_eq!(m.crash(VmId::new(u32::MAX), 3), None, "{case}");
        assert!(m.crashes(VmId::from_index(vms)).is_empty(), "{case}");
    }

    #[test]
    fn straggler_draws_are_pure_and_rate_matches() {
        let c = FaultConfig { straggler_prob: 0.2, straggler_factor: 3.0, ..FaultConfig::none() };
        let m = model(c, 7);
        let n = 50_000u32;
        let hits =
            (0..n).filter(|&i| m.straggles(ActivationId::new(i), VmId::new(i % 4), i % 3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "rate {rate}");
        for i in 0..200 {
            let (ac, vm) = (ActivationId::new(i), VmId::new(i % 4));
            assert_eq!(m.straggles(ac, vm, 0), m.straggles(ac, vm, 0));
            let f = m.slowdown(ac, vm, 0);
            assert!(f == 1.0 || f == 3.0);
        }
    }

    #[test]
    fn lost_ack_draws_are_pure_and_rate_matches() {
        let c = FaultConfig { lost_ack_prob: 0.1, ..FaultConfig::none() };
        let m = model(c, 8);
        let n = 50_000u32;
        let hits = (0..n).filter(|&i| m.ack_lost(ActivationId::new(i), i % 3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
        for i in 0..200 {
            assert_eq!(m.ack_lost(ActivationId::new(i), 1), m.ack_lost(ActivationId::new(i), 1));
        }
    }

    #[test]
    fn draws_depend_on_each_coordinate() {
        let c = FaultConfig { straggler_prob: 0.5, straggler_factor: 2.0, ..FaultConfig::none() };
        let m = model(c, 9);
        let n = 500u32;
        let mut ac_flips = 0;
        let mut vm_flips = 0;
        let mut attempt_flips = 0;
        for i in 0..n {
            let base = m.straggles(ActivationId::new(i), VmId::new(0), 0);
            ac_flips += (m.straggles(ActivationId::new(i + n), VmId::new(0), 0) != base) as u32;
            vm_flips += (m.straggles(ActivationId::new(i), VmId::new(1), 0) != base) as u32;
            attempt_flips += (m.straggles(ActivationId::new(i), VmId::new(0), 1) != base) as u32;
        }
        for (label, flips) in [("ac", ac_flips), ("vm", vm_flips), ("attempt", attempt_flips)] {
            assert!((n / 5..n).contains(&flips), "{label} barely affects draws: {flips}/{n}");
        }
    }

    #[test]
    fn straggler_and_lost_ack_streams_are_independent() {
        // Same (ac, attempt) coordinates must not produce correlated
        // outcomes across the two salted channels.
        let c = FaultConfig { straggler_prob: 0.5, lost_ack_prob: 0.5, ..FaultConfig::none() };
        let m = model(c, 10);
        let n = 1000u32;
        let agree = (0..n)
            .filter(|&i| {
                m.straggles(ActivationId::new(i), VmId::new(0), 0)
                    == m.ack_lost(ActivationId::new(i), 0)
            })
            .count();
        assert!((300..700).contains(&agree), "channels correlate: {agree}/{n} agree");
    }
}
