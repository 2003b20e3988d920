//! Structured observability for the ReASSIgN reproduction.
//!
//! Scheduling-RL debugging is impossible without per-event visibility
//! (DRAS-CQSim and VMAgent both ship trace layers for exactly this
//! reason), so this crate provides the three primitives the rest of the
//! workspace instruments itself with:
//!
//! * **[`Counter`] / [`Histogram`]** — cheap aggregate sinks whose
//!   `merge` is *exactly* associative and commutative (integer bucket
//!   counts, fixed-point sums, min/max folds), so per-worker telemetry
//!   folded in any order is bitwise identical to serial accumulation;
//! * **[`TraceEvent`] + [`TraceSink`]** — a stable, versioned JSONL
//!   event schema ([`SCHEMA_VERSION`]) with hand-rolled serialization
//!   (one line per event, fixed field order, shortest-round-trip float
//!   formatting) so traces are byte-comparable across runs;
//! * **[`trace_diff`]** — first-divergence comparison of two traces,
//!   turning the determinism contract into a *diagnosable* property
//!   instead of a pass/fail bit;
//! * **[`Registry`] + [`SloEngine`]** — the *live* plane: lock-free
//!   atomic counters/gauges/histograms updated on the hot path, and an
//!   SLO rule engine evaluated both live against registry snapshots and
//!   offline over schema-1.5 `snapshot` event streams.
//!
//! The [`Tracer`] handle is zero-cost when disabled: every emission
//! site passes a closure, and a disabled tracer is a single branch —
//! no event construction, no formatting, no allocation.

pub mod binsink;
pub mod counter;
pub mod diff;
pub mod event;
pub mod frame;
pub mod histogram;
pub mod registry;
pub mod sink;
pub mod slo;

pub use binsink::{BinFragSink, BinMemSink, BinSink, FRAGMENT_BYTES};
pub use counter::Counter;
pub use diff::{
    event_type_summary, is_phase_line, render_context, trace_diff, trace_diff_events, EventDiff,
    TraceDiff,
};
pub use event::{TraceEvent, REPLICA_ATTEMPT_BASE, SCHEMA_MINOR, SCHEMA_VERSION};
pub use frame::{FrameError, FrameReader, FrameRef};
pub use histogram::Histogram;
pub use registry::{AtomicHistogram, Gauge, Registry, ShardedCounter};
pub use sink::{JsonlSink, MemSink, TraceSink, Tracer};
pub use slo::{parse_rules, Breach, SloEngine, SloRule, SnapshotView};
