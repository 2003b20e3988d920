//! Simulation configuration.
//!
//! All stochastic behaviour is described by *value-typed* knobs here;
//! the engine instantiates the actual models from the config plus a
//! seed derivation, keeping every run reproducible from
//! `(workflow, fleet, scheduler, config, seed)`.

use cloud::{FaultConfig, ReplicationPolicy};
use serde::{Deserialize, Serialize};

/// Which performance-fluctuation model to apply (see
/// [`cloud::fluctuation`]).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FluctuationKind {
    /// Nominal speeds always.
    None,
    /// Mild jitter (default; a lightly loaded cloud).
    Mild,
    /// Heavy contention.
    Heavy,
    /// Custom AR(1) parameters.
    Custom {
        /// Per-step noise amplitude.
        sigma: f64,
        /// Mean-reversion rate in (0, 1].
        theta: f64,
    },
}

/// Which live-migration model to apply (see [`cloud::migration`]).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum MigrationKind {
    /// No migrations.
    None,
    /// Poisson migrations at `rate_per_hour`, each stalling the VM for
    /// a uniform downtime in `[min_downtime_secs, max_downtime_secs]`.
    Poisson {
        /// Migration events per VM-hour.
        rate_per_hour: f64,
        /// Minimum stall, seconds.
        min_downtime_secs: f64,
        /// Maximum stall, seconds.
        max_downtime_secs: f64,
    },
}

/// Full simulator configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Network bandwidth for inter-VM file transfers, bytes/second
    /// (default 125 MB/s ≈ 1 Gbps).
    pub bandwidth_bytes_per_sec: f64,
    /// When true, workflow *input* files (those no activation produces)
    /// are staged in from shared storage at the same bandwidth.
    pub stage_in_inputs: bool,
    /// Per-attempt failure probability (0 disables failure injection).
    pub failure_prob: f64,
    /// Retries allowed per activation before the workflow fails.
    pub max_retries: u32,
    /// Performance-fluctuation model.
    pub fluctuation: FluctuationKind,
    /// Live-migration model.
    pub migration: MigrationKind,
    /// Horizon (seconds) over which migration events are pre-sampled
    /// and VM crash schedules run. Must comfortably exceed the expected
    /// makespan.
    pub migration_horizon_secs: f64,
    /// Safety bound on processed events (runaway guard).
    pub max_events: u64,
    /// VM provisioning (boot) delay in seconds: processing elements
    /// become available only after their VM has booted. EC2 instances
    /// take tens of seconds to enter `running`; 0 disables the effect.
    pub vm_boot_secs: f64,
    /// Model t2 burst-credit exhaustion: once a VM has consumed its
    /// `burst_credit_secs_per_pe × pes × burst_credit_scale` of
    /// full-speed core time, further executions run at the type's
    /// `baseline_fraction` speed.
    pub burst_throttling: bool,
    /// Scales each VM's initial credit balance: 1.0 = freshly started
    /// instance, 0.0 = a drained instance that throttles immediately
    /// (a long experimental campaign on the same fleet).
    pub burst_credit_scale: f64,
    /// Fault taxonomy + recovery policy (crashes, stragglers,
    /// timeouts, backoff, blacklisting). The default is inert — see
    /// [`cloud::FaultConfig::none`] — so fault-free traces stay
    /// byte-identical to pre-fault builds.
    pub faults: FaultConfig,
    /// Speculative-replication policy (schema v1.6). The default is
    /// [`ReplicationPolicy::Off`], the one-attempt case of the engine's
    /// replication-aware arms — traces stay byte-identical to
    /// pre-replication builds. `serde(default)` keeps configs
    /// serialized before this field existed loadable.
    #[serde(default)]
    pub replication: ReplicationPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            bandwidth_bytes_per_sec: 125.0e6,
            stage_in_inputs: true,
            failure_prob: 0.0,
            max_retries: 2,
            fluctuation: FluctuationKind::Mild,
            migration: MigrationKind::None,
            migration_horizon_secs: 24.0 * 3600.0,
            max_events: 10_000_000,
            vm_boot_secs: 0.0,
            burst_throttling: false,
            burst_credit_scale: 1.0,
            faults: FaultConfig::none(),
            replication: ReplicationPolicy::Off,
        }
    }
}

impl SimConfig {
    /// A fully deterministic configuration (no noise, failures or
    /// migrations) — useful for tests and for HEFT's idealized world.
    pub fn deterministic() -> Self {
        Self {
            fluctuation: FluctuationKind::None,
            failure_prob: 0.0,
            migration: MigrationKind::None,
            ..Self::default()
        }
    }

    /// Validate ranges.
    pub fn validate(&self) -> wfcommon::Result<()> {
        use wfcommon::Error;
        if self.bandwidth_bytes_per_sec <= 0.0 {
            return Err(Error::Config("bandwidth must be positive".into()));
        }
        if !(0.0..=1.0).contains(&self.failure_prob) {
            return Err(Error::Config(format!("failure_prob {} out of [0,1]", self.failure_prob)));
        }
        if let FluctuationKind::Custom { sigma, theta } = self.fluctuation {
            if sigma < 0.0 || theta <= 0.0 || theta > 1.0 {
                return Err(Error::Config("invalid fluctuation parameters".into()));
            }
        }
        if let MigrationKind::Poisson { rate_per_hour, min_downtime_secs, max_downtime_secs } =
            self.migration
        {
            if rate_per_hour < 0.0
                || min_downtime_secs < 0.0
                || max_downtime_secs < min_downtime_secs
            {
                return Err(Error::Config("invalid migration parameters".into()));
            }
        }
        if self.max_events == 0 {
            return Err(Error::Config("max_events must be positive".into()));
        }
        if self.vm_boot_secs < 0.0 {
            return Err(Error::Config("vm_boot_secs must be non-negative".into()));
        }
        if self.burst_credit_scale < 0.0 {
            return Err(Error::Config("burst_credit_scale must be non-negative".into()));
        }
        self.faults.validate().map_err(Error::Config)?;
        self.replication.validate().map_err(Error::Config)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SimConfig::default().validate().unwrap();
        SimConfig::deterministic().validate().unwrap();
    }

    #[test]
    fn bad_configs_rejected() {
        let c = SimConfig { failure_prob: 2.0, ..SimConfig::default() };
        assert!(c.validate().is_err());

        let c = SimConfig { bandwidth_bytes_per_sec: 0.0, ..SimConfig::default() };
        assert!(c.validate().is_err());

        let c = SimConfig {
            fluctuation: FluctuationKind::Custom { sigma: -1.0, theta: 0.5 },
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig {
            migration: MigrationKind::Poisson {
                rate_per_hour: 1.0,
                min_downtime_secs: 5.0,
                max_downtime_secs: 1.0,
            },
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig { vm_boot_secs: -1.0, ..SimConfig::default() };
        assert!(c.validate().is_err());

        let c = SimConfig {
            faults: FaultConfig { straggler_prob: 2.0, ..FaultConfig::none() },
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let c = SimConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
