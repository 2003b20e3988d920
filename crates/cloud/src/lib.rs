//! Cloud resource model.
//!
//! Models the execution environment of the paper's evaluation (§IV):
//! heterogeneous Amazon-EC2-style virtual machines, the three fleet
//! configurations of Table I, pay-per-use pricing, and the *dynamic*
//! characteristics that motivate an RL scheduler in the first place —
//! performance fluctuation, transient failures and live migrations
//! (paper §I: "live migrations and/or performance fluctuations … are
//! far from trivial to model").

pub mod failure;
pub mod fault;
pub mod fleet;
pub mod fluctuation;
pub mod migration;
pub mod pricing;
pub mod replication;
pub mod vmtype;

pub use failure::{Attempt, FailureModel};
pub use fault::{FaultConfig, FaultModel};
pub use fleet::{Fleet, VmInstance};
pub use fluctuation::{FluctuationModel, PerfFluctuation};
pub use migration::MigrationModel;
pub use pricing::{execution_cost_usd, BillingGranularity};
pub use replication::{
    replica_targets, ReplFeatures, ReplTable, ReplicaTargets, ReplicationPolicy, REPL_MAX_EXTRA,
    REPL_STATES,
};
pub use vmtype::VmType;
