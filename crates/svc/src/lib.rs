//! `reassignd` — a long-running, multi-tenant scheduling service on
//! top of the ReASSIgN learner (ROADMAP north-star: serving heavy
//! workflow traffic, not one-shot episodes).
//!
//! # Architecture
//!
//! ```text
//!  submit(Submission)
//!        │  seq, shard = hash(tenant, family) % shards
//!        ▼
//!  WFQ admission (per-tenant bounded queues)
//!        │ full ──backpressure──▶ shed counter + trace events
//!        │ admit (enqueue)
//!        ▼
//!  deficit round robin ─▶ dequeue at `drain_rate`/tick + at drain
//!        │                (virtual-time order, weight-proportional)
//!        ▼  per-worker channels (pure transport)
//!  worker (shard % workers) { PreparedMemo: spec → Workflow + WorkflowCache }
//!        │   prepare: built once per generated spec, DAX files every time
//!        ▼
//!  ShardState { warm-start Q-cache }
//!        │   hit  → fine-tune  (LearnRun, warm table, reduced episodes)
//!        │   miss → full learn (LearnRun, full episodes)
//!        ▼
//!  simulate_cached_traced(greedy plan, optional FaultConfig)
//!        │   every frame → the shard's BinFragSink (1 MiB fragments,
//!        ▼   never reallocated; the submitter has one of its own)
//!  drain() → ServiceReport { per-tenant results + provenance,
//!        │                   counters, byte-deterministic binary trace }
//!        │   fragments written once in canonical order, each freed
//!        │   as it goes, into one buffer of the trace's exact length
//!  drain_to(w) → the same report, the trace written to `w` instead
//!                (`--trace-out x.bin`): nothing is concatenated
//! ```
//!
//! # Determinism
//!
//! Per-tenant outcomes (plans, makespans, retry sets) are
//! byte-identical across runs and **independent of the worker thread
//! count**, by construction:
//!
//! * the single submitter assigns global sequence numbers, makes every
//!   admission/backpressure decision at bounded per-tenant queues, and
//!   dispatches under deterministic deficit round robin ([`wfq`]) —
//!   all pure functions of the submission sequence;
//! * dispatched jobs route statically to worker *shard mod workers*
//!   through FIFO channels, so each shard's job stream arrives in
//!   dispatch order regardless of how many workers exist (a full
//!   channel parks jobs in a per-worker FIFO pending buffer — it
//!   delays hand-off, never reorders or sheds);
//! * every shard owns its state (Q-cache, arena) exclusively — a job's
//!   outcome is a pure function of the submission and the shard-local
//!   state left by the previous job of that shard;
//! * all per-job seeds derive from the submission's own seed, never
//!   from wall clock or thread identity;
//! * what a worker shares between its shards — the memo of prepared
//!   workflows ([`shard::PreparedMemo`]) — only saves rebuilding what a
//!   generated spec always builds identically, so which worker
//!   remembers a spec, or whether any does, changes no output;
//! * the assembled trace is a canonical concatenation of **binary
//!   frames** ([`obs::frame`]): prelude, header, submitter events in
//!   sequence order, then shard fragments in shard id order — so the
//!   determinism contract is *byte-identical binary traces across
//!   worker counts*, checked by the soak suite at every scale up to
//!   megasubmission runs.
//!
//! Wall-clock quantities (sojourn, throughput) are measured but kept
//! out of the deterministic surfaces (trace, per-tenant summaries).

pub mod config;
pub mod loadgen;
pub mod metrics_http;
pub mod report;
pub mod service;
pub mod shard;
pub mod submit;
pub mod wfq;

pub use config::{ServiceConfig, WfqConfig};
pub use loadgen::{generate_submissions, tenant_name, LoadgenSpec};
pub use metrics_http::{serve_metrics, METRICS_IO_TIMEOUT};
pub use report::{Completed, ServiceReport, WfqStats};
pub use service::{run_batch, run_batch_trace_out, Admission, Service};
pub use shard::{CacheKey, QCache};
pub use submit::{parse_submissions, shard_for, Submission, WorkflowSpec};
pub use wfq::{Dispatched, Offer, WfqState};
