//! WorkflowSim substitute: a discrete-event workflow execution
//! simulator over the `cloud` resource model and the `simkit` kernel.
//!
//! The paper extends WorkflowSim with the ReASSIgN scheduler (§III-D);
//! this crate rebuilds the parts of WorkflowSim that extension touches:
//!
//! * a **workflow engine** that tracks each activation through the
//!   paper's state machine (*locked → ready → running → successfully
//!   finished / finished with failure*, §III-A) and releases dependents
//!   as producers finish;
//! * a **scheduler interface** ([`Scheduler`]) invoked exactly when the
//!   workflow is in the *available* state (≥ 1 ready activation and
//!   ≥ 1 idle processing element), choosing either a `schedule(ac, vm)`
//!   action or *do nothing*;
//! * a **queueing and timing model** that reports, per activation, the
//!   queue time `tf` (ready → start) and execution time `te`
//!   (start → finish, including stage-in transfers, performance
//!   fluctuation and migration stalls) — the two observables the
//!   ReASSIgN reward function consumes (§III-B);
//! * **plan capture and replay** ([`plan::Plan`]): every simulation
//!   yields the activation → VM mapping (Table V), which can be
//!   re-executed by the SciCumulus-substitute engine in `scirun`.

pub mod arena;
pub mod clustering;
pub mod config;
pub mod engine;
pub mod history;
pub mod metrics;
pub mod plan;
pub mod provisioning;
pub mod result;
pub mod scheduler;
pub mod timeshared;
pub mod trace;

pub use arena::SimArena;
pub use clustering::ClusteringPlan;
pub use config::{FluctuationKind, MigrationKind, SimConfig};
pub use engine::{simulate, simulate_cached_traced, simulate_traced};
pub use history::ExecHistory;
pub use metrics::Metrics;
pub use plan::{FixedPlanScheduler, Plan};
pub use result::{ActivationRecord, FaultStats, ReplDecision, ReplStats, SimResult};
pub use scheduler::{CompletionInfo, Decision, Scheduler, SchedulerContext};
