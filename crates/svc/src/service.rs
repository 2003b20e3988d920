//! The service proper: submission intake, weighted-fair-queueing
//! admission, the sharded worker pool, and graceful drain.

use crate::config::ServiceConfig;
use crate::report::{assemble, Drained, MetricsPlane, ServiceReport};
use crate::shard::{PreparedMemo, ShardOutput, ShardState};
use crate::submit::{shard_for, Submission};
use crate::wfq::{Dispatched, Offer, WfqState};
use obs::slo::{SloEngine, SnapshotView};
use obs::{BinFragSink, BinMemSink, Registry, TraceEvent, Tracer};
use std::collections::HashMap;
use std::io::Write;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use wfcommon::{Error, Result};

/// One queued unit of work.
struct Job {
    seq: u64,
    sub: Submission,
    shard: u32,
    submitted: Instant,
}

/// Admission control's verdict on a submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Enqueued on its tenant's WFQ queue; will dispatch to its
    /// shard's worker under deficit round robin.
    Admitted {
        /// Global sequence number.
        seq: u64,
        /// Shard it hashed to.
        shard: u32,
    },
    /// Dropped: the tenant's bounded queue was full (backpressure).
    Shed {
        /// Global sequence number.
        seq: u64,
        /// Shard it hashed to.
        shard: u32,
    },
}

/// The in-process scheduling service. Create with [`Service::new`],
/// feed with [`Service::submit`], optionally overlap processing with
/// [`Service::start`], and finish with [`Service::drain`] — which
/// starts workers if needed, waits for every admitted job, and
/// returns the [`ServiceReport`].
///
/// Admission is weighted fair queueing ([`crate::wfq`]): submissions
/// enter per-tenant bounded queues and dispatch to workers under
/// deterministic deficit round robin, `wfq.drain_rate` jobs per
/// submission tick plus everything remaining at drain. The worker
/// channels are pure transport — a full channel parks jobs in a
/// per-worker pending buffer, it never sheds.
pub struct Service {
    cfg: Arc<ServiceConfig>,
    senders: Vec<SyncSender<Job>>,
    receivers: Vec<Option<Receiver<Job>>>,
    handles: Vec<JoinHandle<Vec<ShardOutput>>>,
    started: bool,
    next_seq: u64,
    admitted: u64,
    shed: u64,
    wfq: WfqState<Job>,
    /// Dispatched jobs waiting for channel room, per worker.
    pending: Vec<std::collections::VecDeque<Job>>,
    sink: BinFragSink,
    /// Live metrics plane: lock-free registry shared with the workers
    /// (lane 0 = submitter, lane `i + 1` = worker `i`).
    registry: Arc<Registry>,
    /// Sidecar sink for `snapshot`/`slo_breach` events — kept strictly
    /// apart from `sink` so the canonical trace stays byte-identical
    /// whether or not the metrics plane is on.
    sidecar: BinMemSink,
    /// Live SLO evaluator over the snapshot stream.
    slo: SloEngine,
    snap_tick: u64,
    slo_breaches: u64,
    /// Max `queued` seen across emitted snapshots (deterministic).
    snap_max_queued: u64,
    t0: Instant,
}

impl Service {
    /// Validate the config and set up the (not yet running) pool.
    pub fn new(cfg: ServiceConfig) -> Result<Self> {
        cfg.validate()?;
        let mut senders = Vec::with_capacity(cfg.workers);
        let mut receivers = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            let (tx, rx) = std::sync::mpsc::sync_channel(cfg.queue_capacity);
            senders.push(tx);
            receivers.push(Some(rx));
        }
        let wfq = WfqState::new(cfg.wfq.clone());
        let pending = (0..cfg.workers).map(|_| std::collections::VecDeque::new()).collect();
        let registry = Arc::new(Registry::new(cfg.workers + 1));
        let slo = SloEngine::new(cfg.slo.clone());
        Ok(Self {
            cfg: Arc::new(cfg),
            senders,
            receivers,
            handles: Vec::new(),
            started: false,
            next_seq: 0,
            admitted: 0,
            shed: 0,
            wfq,
            pending,
            sink: BinFragSink::new(),
            registry,
            sidecar: BinMemSink::new(),
            slo,
            snap_tick: 0,
            slo_breaches: 0,
            snap_max_queued: 0,
            t0: Instant::now(),
        })
    }

    /// The live metrics registry (share with an exposition endpoint).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Spawn the worker threads (idempotent). Before `start`, admitted
    /// submissions simply accumulate in the tenant queues — the
    /// batching mode `run_batch` uses; after it, processing overlaps
    /// submission.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.t0 = Instant::now();
        for (i, rx) in self.receivers.iter_mut().enumerate() {
            let rx = rx.take().expect("receiver present before start");
            let cfg = Arc::clone(&self.cfg);
            let registry = Arc::clone(&self.registry);
            self.handles.push(std::thread::spawn(move || worker_loop(rx, &cfg, &registry, i + 1)));
        }
    }

    /// Submit one workflow. Never blocks: a full tenant queue
    /// backpressures and sheds the submission (counted, traced,
    /// reported). Admission and dispatch order are pure functions of
    /// the submission sequence — independent of workers and wall
    /// clock.
    pub fn submit(&mut self, sub: Submission) -> Admission {
        let seq = self.next_seq;
        self.next_seq += 1;
        let shard = shard_for(&sub.tenant, sub.spec.family_label(), self.cfg.shards);
        Tracer::new(&mut self.sink).emit(&TraceEvent::Submit {
            seq,
            tenant: &sub.tenant,
            family: sub.spec.family_label(),
            size: sub.spec.requested_size(),
            shard,
        });
        let tenant = sub.tenant.clone();
        let job = Job { seq, sub, shard, submitted: Instant::now() };
        let verdict = match self.wfq.offer(&tenant, job) {
            Offer::Enqueued { depth } => {
                self.admitted += 1;
                let mut tracer = Tracer::new(&mut self.sink);
                tracer.emit(&TraceEvent::Admit { seq, shard });
                tracer.emit(&TraceEvent::Enqueue { seq, tenant: &tenant, shard, depth });
                self.registry.admitted.incr(0);
                Admission::Admitted { seq, shard }
            }
            Offer::Backpressure { depth } => {
                self.shed += 1;
                let mut tracer = Tracer::new(&mut self.sink);
                tracer.emit(&TraceEvent::Backpressure { seq, tenant: &tenant, depth });
                tracer.emit(&TraceEvent::Shed { seq, tenant: &tenant, shard });
                self.registry.backpressure.incr(0);
                self.registry.shed.incr(0);
                Admission::Shed { seq, shard }
            }
        };
        for _ in 0..self.cfg.wfq.drain_rate {
            if !self.dispatch_one() {
                break;
            }
        }
        self.flush_pending();
        self.registry.submissions.incr(0);
        self.registry.queued.set(self.wfq.queued() as u64);
        self.registry.vt.set(self.wfq.vt());
        self.registry.max_depth.raise(self.wfq.max_depth() as u64);
        if self.cfg.snapshot_every > 0 && self.next_seq.is_multiple_of(self.cfg.snapshot_every) {
            self.emit_snapshot();
        }
        verdict
    }

    /// Emit one schema-1.5 `snapshot` event onto the sidecar sink and
    /// run the SLO engine over it. The admission-plane fields (`tick`,
    /// `seq`, `queued`, `vt`, `backpressure`, `max_depth`, `admitted`,
    /// `shed`) are read on the submitter thread and are deterministic
    /// for a seeded run; the worker-side fields (`plans`, `hit_rate`,
    /// `plans_per_sec`, sojourn percentiles) are racy registry reads.
    fn emit_snapshot(&mut self) {
        self.snap_tick += 1;
        let elapsed = self.t0.elapsed().as_secs_f64();
        let sojourn = self.registry.sojourn.snapshot();
        let pctl = |q: f64| sojourn.quantile(q).map_or(0.0, |v| v * 1e3);
        let view = SnapshotView {
            tick: self.snap_tick,
            seq: self.next_seq,
            queued: self.wfq.queued() as u64,
            vt: self.wfq.vt(),
            backpressure: self.wfq.backpressure_count(),
            max_depth: self.wfq.max_depth(),
            admitted: self.admitted,
            shed: self.shed,
            plans: self.registry.plans.get(),
            hit_rate: self.registry.hit_rate(),
            plans_per_sec: self.registry.plans_per_sec(elapsed),
            p50_sojourn_ms: pctl(0.50),
            p99_sojourn_ms: pctl(0.99),
        };
        Tracer::new(&mut self.sidecar).emit(&TraceEvent::Snapshot {
            tick: view.tick,
            seq: view.seq,
            queued: view.queued,
            vt: view.vt,
            backpressure: view.backpressure,
            max_depth: view.max_depth,
            admitted: view.admitted,
            shed: view.shed,
            plans: view.plans,
            hit_rate: view.hit_rate,
            plans_per_sec: view.plans_per_sec,
            p50_sojourn_ms: view.p50_sojourn_ms,
            p99_sojourn_ms: view.p99_sojourn_ms,
        });
        self.registry.snapshots.incr(0);
        self.snap_max_queued = self.snap_max_queued.max(view.queued);
        for breach in self.slo.observe(view) {
            Tracer::new(&mut self.sidecar).emit(&breach.event());
            self.slo_breaches += 1;
        }
    }

    /// Pop one job from the WFQ and stage it for its worker. Returns
    /// `false` when the queues are empty.
    fn dispatch_one(&mut self) -> bool {
        let Some(Dispatched { tenant, vt, job }) = self.wfq.dispatch() else {
            return false;
        };
        Tracer::new(&mut self.sink).emit(&TraceEvent::Dequeue {
            seq: job.seq,
            tenant: &tenant,
            shard: job.shard,
            vt,
        });
        let worker = (job.shard as usize) % self.cfg.workers;
        self.pending[worker].push_back(job);
        true
    }

    /// Opportunistically move staged jobs into the worker channels.
    /// Channel fullness only delays hand-off — per-worker FIFO order
    /// (= dispatch order) is preserved, so determinism is unaffected.
    fn flush_pending(&mut self) {
        if self.senders.is_empty() {
            return;
        }
        for (worker, queue) in self.pending.iter_mut().enumerate() {
            while let Some(job) = queue.pop_front() {
                match self.senders[worker].try_send(job) {
                    Ok(()) => {}
                    Err(TrySendError::Full(job)) => {
                        queue.push_front(job);
                        break;
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        queue.clear();
                        break;
                    }
                }
            }
        }
    }

    /// Submissions shed so far.
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Submissions admitted so far.
    pub fn admitted_count(&self) -> u64 {
        self.admitted
    }

    /// Graceful drain: stop accepting (the service is consumed),
    /// dispatch everything still queued, let every admitted job
    /// finish, join the workers and assemble the report, its
    /// [`ServiceReport::trace`] one buffer of exactly the trace's
    /// length: until here the trace was held once, in the fragments
    /// the sinks filled, and each is freed as it is copied in.
    pub fn drain(self) -> Result<ServiceReport> {
        let drained = self.join()?;
        let mut trace = Vec::with_capacity(drained.trace_bytes() as usize);
        let mut report = assemble(drained, &mut trace).expect("a Vec accepts every write");
        report.trace = trace;
        Ok(report)
    }

    /// [`Service::drain`], with the canonical trace written to `w`
    /// fragment by fragment and never concatenated:
    /// [`ServiceReport::trace`] stays empty,
    /// [`ServiceReport::trace_bytes`] says how much went out. `w` is
    /// not flushed.
    pub fn drain_to(self, mut w: impl Write) -> Result<ServiceReport> {
        assemble(self.join()?, &mut w).map_err(|e| Error::Persistence(format!("trace: {e}")))
    }

    /// The drain behind a command line's `--trace-out PATH`. A path
    /// ending in `.bin` gets the canonical binary frames, streamed to
    /// the file by [`Service::drain_to`] — the run never holds its
    /// trace contiguously and [`ServiceReport::trace`] comes back
    /// empty; any other path gets the equivalent JSONL, rendered from
    /// a [`Service::drain`]; `None` is [`Service::drain`].
    pub fn drain_trace_out(self, path: Option<&str>) -> Result<ServiceReport> {
        let Some(path) = path else { return self.drain() };
        let io = |e: std::io::Error| Error::Persistence(format!("{path}: {e}"));
        if path.ends_with(".bin") {
            let drained = self.join()?;
            let mut file = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
            let report = assemble(drained, &mut file).map_err(io)?;
            file.flush().map_err(io)?;
            Ok(report)
        } else {
            let report = self.drain()?;
            std::fs::write(path, report.trace_jsonl()).map_err(io)?;
            Ok(report)
        }
    }

    /// The drain proper: everything up to the joined workers' outputs.
    fn join(mut self) -> Result<Drained> {
        self.start();
        // Final snapshot before the backlog dispatch, so the stream
        // always captures the drain-time queue state (and short runs
        // get at least one snapshot).
        if self.cfg.snapshot_every > 0 {
            self.emit_snapshot();
        }
        // Dispatch the remaining backlog in DRR order, then hand every
        // staged job over (blocking — workers are running, the
        // channels drain).
        while self.dispatch_one() {}
        for (worker, queue) in self.pending.iter_mut().enumerate() {
            for job in queue.drain(..) {
                self.senders[worker]
                    .send(job)
                    .map_err(|_| Error::Execution("service worker hung up".into()))?;
            }
        }
        // Closing the channels is the shutdown signal: workers exit
        // their receive loops once the backlog is empty.
        self.senders.clear();
        let mut shard_outputs: Vec<ShardOutput> = Vec::new();
        for h in self.handles.drain(..) {
            let outputs =
                h.join().map_err(|_| Error::Execution("service worker panicked".into()))?;
            shard_outputs.extend(outputs);
        }
        shard_outputs.sort_by_key(|o| o.shard);
        let wall_secs = self.t0.elapsed().as_secs_f64();
        let metrics = MetricsPlane {
            sidecar_events: self.sidecar.events(),
            sidecar: self.sidecar.take(),
            snapshot_count: self.snap_tick,
            slo_breaches: self.slo_breaches,
            max_queued: self.snap_max_queued,
            final_vt: self.wfq.vt(),
        };
        Ok(Drained {
            submitted: self.next_seq,
            admitted: self.admitted,
            shed: self.shed,
            submitter: self.sink,
            shards: shard_outputs,
            wfq: crate::report::WfqStats {
                backpressure: self.wfq.backpressure_count(),
                max_depth: self.wfq.max_depth(),
                rounds: self.wfq.vt(),
            },
            prov_keep_last: self.cfg.prov_keep_last,
            wall_secs,
            metrics,
        })
    }
}

/// One worker: owns every shard that maps to it and one memo of
/// prepared workflows for all of them, processes jobs in arrival order
/// (per shard = WFQ dispatch order), hands the shard outputs back at
/// drain, and keeps the live registry current (lane `lane`, so counter
/// increments never contend across workers).
fn worker_loop(
    rx: Receiver<Job>,
    cfg: &ServiceConfig,
    registry: &Registry,
    lane: usize,
) -> Vec<ShardOutput> {
    let mut shards: HashMap<u32, ShardState> = HashMap::new();
    let mut memo = PreparedMemo::new();
    for job in rx {
        let state = shards.entry(job.shard).or_insert_with(|| ShardState::new(job.shard));
        let done = state.process(job.seq, &job.sub, cfg, &mut memo);
        if done.error.is_none() {
            registry.plans.incr(lane);
            if done.cache_hit {
                registry.cache_hits.incr(lane);
            } else {
                registry.cache_misses.incr(lane);
            }
        }
        let sojourn = job.submitted.elapsed().as_secs_f64();
        state.set_last_sojourn(sojourn);
        registry.sojourn.record(sojourn);
    }
    let mut outputs: Vec<ShardOutput> = shards.into_values().map(ShardState::into_output).collect();
    outputs.sort_by_key(|o| o.shard);
    outputs
}

/// Batch convenience: submit everything, then drain. Workers start
/// up-front so processing overlaps submission.
pub fn run_batch(cfg: &ServiceConfig, subs: Vec<Submission>) -> Result<ServiceReport> {
    run_batch_trace_out(cfg, subs, None)
}

/// [`run_batch`], drained with [`Service::drain_trace_out`].
pub fn run_batch_trace_out(
    cfg: &ServiceConfig,
    subs: Vec<Submission>,
    trace_out: Option<&str>,
) -> Result<ServiceReport> {
    let mut svc = Service::new(cfg.clone())?;
    svc.start();
    for sub in subs {
        svc.submit(sub);
    }
    svc.drain_trace_out(trace_out)
}
