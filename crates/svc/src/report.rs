//! Drain-time report assembly: per-tenant results and provenance,
//! service counters, the canonical byte-deterministic summaries, and
//! the `BENCH_service.json` payload.

use crate::shard::ShardOutput;
use obs::event::json_f64;
use obs::{BinFragSink, Histogram};
use provenance::ProvenanceStore;
use std::collections::BTreeMap;
use std::io::Write;
use wfcommon::SimTime;

/// What the drain hands over from the live metrics plane: the sidecar
/// event stream (frame fragment, no prelude) plus its deterministic
/// aggregates.
#[derive(Debug, Default)]
pub(crate) struct MetricsPlane {
    /// Sidecar frames (`snapshot` / `slo_breach`), prelude-less.
    pub sidecar: Vec<u8>,
    /// Structured events in `sidecar`.
    pub sidecar_events: u64,
    /// Snapshots emitted (deterministic: a function of the submission
    /// count and `snapshot_every`).
    pub snapshot_count: u64,
    /// SLO breaches emitted live.
    pub slo_breaches: u64,
    /// Max `queued` over all snapshots (deterministic).
    pub max_queued: u64,
    /// WFQ virtual time at drain (deterministic).
    pub final_vt: u64,
}

/// Drain-time counters from the WFQ admission layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WfqStats {
    /// Offers rejected for a full tenant queue (each one shed).
    pub backpressure: u64,
    /// Deepest any tenant queue ever was.
    pub max_depth: u32,
    /// Virtual time at drain (exhausted DRR quanta).
    pub rounds: u64,
}

/// One completed (or failed) submission, as reported by its shard.
#[derive(Clone, Debug)]
pub struct Completed {
    /// Global submission sequence number.
    pub seq: u64,
    /// Tenant the result belongs to.
    pub tenant: String,
    /// Family label (generator family or DAX path).
    pub family: String,
    /// Shard that processed it.
    pub shard: u32,
    /// Actual workflow length.
    pub activations: u32,
    /// Whether the shard's Q-cache had a warm-start table.
    pub cache_hit: bool,
    /// Learning episodes actually spent.
    pub episodes: u32,
    /// Makespan of the final plan simulation.
    pub makespan: SimTime,
    /// Whether that simulation completed (can be `false` under
    /// injected faults).
    pub success: bool,
    /// Activation → VM assignments of the deployed plan.
    pub assignments: Vec<u32>,
    /// `(activation, retries)` pairs for activations that retried,
    /// sorted by activation.
    pub retries: Vec<(u32, u32)>,
    /// Wall-clock submit→completion latency. Deliberately excluded
    /// from every deterministic surface.
    pub sojourn_secs: f64,
    /// Present when the submission failed to process (bad family,
    /// unreadable DAX…).
    pub error: Option<String>,
    /// Provenance record to file under the tenant (absent on error).
    pub prov: Option<provenance::EpisodeRecord>,
}

impl Completed {
    /// This result's line of its tenant's summary.
    fn push_summary_line(&self, s: &mut String) {
        match &self.error {
            Some(e) => {
                s.push_str(&format!("seq={} family={} error={e}\n", self.seq, self.family));
            }
            None => {
                let plan: Vec<String> = self.assignments.iter().map(|v| v.to_string()).collect();
                let retries: Vec<String> =
                    self.retries.iter().map(|(a, r)| format!("{a}:{r}")).collect();
                s.push_str(&format!(
                    "seq={} family={} n={} hit={} episodes={} makespan={} success={} \
                     plan=[{}] retries=[{}]\n",
                    self.seq,
                    self.family,
                    self.activations,
                    self.cache_hit as u8,
                    self.episodes,
                    json_f64(self.makespan.as_secs()),
                    self.success,
                    plan.join(","),
                    retries.join(",")
                ));
            }
        }
    }
}

/// Everything a drained service hands back.
#[derive(Debug)]
pub struct ServiceReport {
    /// Total submissions seen (admitted + shed).
    pub submitted: u64,
    /// Submissions that passed admission control.
    pub admitted: u64,
    /// Submissions shed by admission control.
    pub shed: u64,
    /// Admitted submissions that produced a plan.
    pub completed: u64,
    /// Admitted submissions that errored.
    pub failed: u64,
    /// Warm-start cache hits across all shards.
    pub cache_hits: u64,
    /// Cache misses across all shards.
    pub cache_misses: u64,
    /// Episodes spent on cache hits (fine-tunes).
    pub hit_episodes: u64,
    /// Episodes spent on cache misses (full learning).
    pub miss_episodes: u64,
    /// All results in submission-sequence order.
    pub results: Vec<Completed>,
    /// Per-tenant provenance, partitioned strictly by tenant (already
    /// compacted when the config asked for it).
    pub tenants: BTreeMap<String, ProvenanceStore>,
    /// The assembled byte-deterministic **binary** trace: prelude,
    /// header frame, submitter frames in sequence order, shard frames
    /// in shard order. [`ServiceReport::trace_jsonl`] renders the
    /// equivalent JSONL. Empty after
    /// [`Service::drain_to`](crate::Service::drain_to), which wrote
    /// these bytes to the caller's writer instead.
    pub trace: Vec<u8>,
    /// Length of the canonical trace, wherever it went.
    pub trace_bytes: u64,
    /// Structured events in the canonical trace (header + submitter +
    /// shards).
    pub trace_events: u64,
    /// WFQ admission counters.
    pub wfq: WfqStats,
    /// Sum of all completed makespans — a cheap deterministic checksum
    /// of every plan the service produced.
    pub makespan_sum_secs: f64,
    /// Wall-clock seconds from service start to drain.
    pub wall_secs: f64,
    /// Submit→completion sojourn distribution (wall clock).
    pub sojourn: Histogram,
    /// The sidecar metrics stream as a standalone binary trace
    /// (prelude + header + `snapshot`/`slo_breach` frames). Empty when
    /// `snapshot_every` was 0. Never part of [`ServiceReport::trace`].
    pub snapshots: Vec<u8>,
    /// Structured events in `snapshots` (header + snapshots +
    /// breaches).
    pub snapshot_trace_events: u64,
    /// Snapshots emitted (deterministic).
    pub snapshot_count: u64,
    /// SLO breaches the live engine emitted.
    pub slo_breaches: u64,
    /// Max WFQ `queued` over all snapshots (deterministic).
    pub snapshot_max_queued: u64,
    /// WFQ virtual time at drain (deterministic).
    pub snapshot_final_vt: u64,
}

/// Everything [`Service::drain`](crate::Service::drain) has in hand
/// once the workers are joined: the submitter's view and the shard
/// outputs, the trace still in the fragments it was emitted into.
pub(crate) struct Drained {
    pub submitted: u64,
    pub admitted: u64,
    pub shed: u64,
    /// The submitter's frames, in sequence order.
    pub submitter: BinFragSink,
    /// Sorted by shard id.
    pub shards: Vec<ShardOutput>,
    pub wfq: WfqStats,
    pub prov_keep_last: Option<u32>,
    pub wall_secs: f64,
    pub metrics: MetricsPlane,
}

/// What every trace the service assembles starts with: the file
/// prelude and the header frame.
fn trace_head() -> Vec<u8> {
    let mut head = Vec::new();
    obs::frame::write_prelude(&mut head);
    obs::frame::encode_event(&obs::TraceEvent::Header { producer: "reassignd" }, &mut head);
    head
}

impl Drained {
    /// Exact byte length of the canonical trace [`assemble`] will
    /// write: known before a byte of it is, so a caller that wants it
    /// contiguous allocates it once.
    pub fn trace_bytes(&self) -> u64 {
        let shards = self.shards.iter().flat_map(|o| &o.trace).map(|f| f.len() as u64);
        trace_head().len() as u64 + self.submitter.bytes() + shards.sum::<u64>()
    }
}

/// Write the canonical trace — prelude, header, the submitter's
/// fragments, then every shard's in shard order. The only place that
/// order is spelled. Each fragment is freed as soon as it is written,
/// so with a writer that keeps nothing the trace is never held twice,
/// and with one that keeps everything the second copy grows only as
/// fast as the first shrinks.
fn write_trace(
    submitter: Vec<Vec<u8>>,
    shards: &mut [ShardOutput],
    w: &mut impl Write,
) -> std::io::Result<()> {
    w.write_all(&trace_head())?;
    let of_shards = shards.iter_mut().flat_map(|o| std::mem::take(&mut o.trace));
    for fragment in submitter.into_iter().chain(of_shards) {
        w.write_all(&fragment)?;
    }
    Ok(())
}

/// Assemble the report, writing the canonical trace to `trace_out`
/// ([`ServiceReport::trace`] is left empty: a caller that wants the
/// bytes there passes a buffer and installs it). Fails only when the
/// writer does.
pub(crate) fn assemble(
    drained: Drained,
    trace_out: &mut impl Write,
) -> std::io::Result<ServiceReport> {
    let trace_bytes = drained.trace_bytes();
    let Drained {
        submitted,
        admitted,
        shed,
        submitter,
        shards: mut shard_outputs,
        wfq,
        prov_keep_last,
        wall_secs,
        metrics,
    } = drained;
    let mut trace_events = 1 + submitter.events();
    write_trace(submitter.into_fragments(), &mut shard_outputs, trace_out)?;

    // The sidecar stream becomes its own standalone trace — decodable
    // by the same tooling, never concatenated into the canonical one.
    let (snapshots, snapshot_trace_events) = if metrics.sidecar.is_empty() {
        (Vec::new(), 0)
    } else {
        let mut s = trace_head();
        s.extend_from_slice(&metrics.sidecar);
        (s, 1 + metrics.sidecar_events)
    };

    let mut results: Vec<Completed> = Vec::new();
    let (mut cache_hits, mut cache_misses) = (0u64, 0u64);
    for out in shard_outputs {
        trace_events += out.trace_events;
        cache_hits += out.cache_hits;
        cache_misses += out.cache_misses;
        results.extend(out.completed);
    }
    results.sort_by_key(|c| c.seq);

    let mut tenants: BTreeMap<String, ProvenanceStore> = BTreeMap::new();
    let (mut completed, mut failed) = (0u64, 0u64);
    let (mut hit_episodes, mut miss_episodes) = (0u64, 0u64);
    let mut makespan_sum_secs = 0.0;
    let mut sojourn = Histogram::new();
    for c in &results {
        if c.error.is_some() {
            failed += 1;
            continue;
        }
        completed += 1;
        if c.cache_hit {
            hit_episodes += c.episodes as u64;
        } else {
            miss_episodes += c.episodes as u64;
        }
        makespan_sum_secs += c.makespan.as_secs();
        sojourn.record(c.sojourn_secs);
        if let Some(prov) = &c.prov {
            tenants.entry(c.tenant.clone()).or_default().log_episode(prov.clone());
        }
    }
    if let Some(keep) = prov_keep_last {
        for store in tenants.values_mut() {
            store.compact(keep as usize);
        }
    }

    Ok(ServiceReport {
        submitted,
        admitted,
        shed,
        completed,
        failed,
        cache_hits,
        cache_misses,
        hit_episodes,
        miss_episodes,
        results,
        tenants,
        trace: Vec::new(),
        trace_bytes,
        trace_events,
        wfq,
        makespan_sum_secs,
        wall_secs,
        sojourn,
        snapshots,
        snapshot_trace_events,
        snapshot_count: metrics.snapshot_count,
        slo_breaches: metrics.slo_breaches,
        snapshot_max_queued: metrics.max_queued,
        snapshot_final_vt: metrics.final_vt,
    })
}

impl ServiceReport {
    /// The assembled trace rendered as v1 JSONL — the diffable,
    /// golden-comparable view of [`ServiceReport::trace`]. The binary
    /// trace was produced by this process, so decoding cannot fail.
    pub fn trace_jsonl(&self) -> String {
        obs::frame::frames_to_jsonl(&self.trace)
            .expect("service-assembled binary trace must decode")
    }

    /// The sidecar metrics stream rendered as JSONL (empty string when
    /// the snapshotter was off).
    pub fn snapshots_jsonl(&self) -> String {
        if self.snapshots.is_empty() {
            String::new()
        } else {
            obs::frame::frames_to_jsonl(&self.snapshots)
                .expect("service-assembled sidecar trace must decode")
        }
    }

    /// Mean encoded bytes per structured trace event — the size side
    /// of the binary fast path, gated as `obs.frame_bytes_per_event`.
    pub fn frame_bytes_per_event(&self) -> f64 {
        if self.trace_events > 0 {
            self.trace_bytes as f64 / self.trace_events as f64
        } else {
            0.0
        }
    }

    /// Mean episodes spent per cache hit (0 when there were none).
    pub fn episodes_per_hit(&self) -> f64 {
        if self.cache_hits == 0 {
            0.0
        } else {
            self.hit_episodes as f64 / self.cache_hits as f64
        }
    }

    /// Mean episodes spent per cache miss (0 when there were none).
    pub fn episodes_per_miss(&self) -> f64 {
        if self.cache_misses == 0 {
            0.0
        } else {
            self.miss_episodes as f64 / self.cache_misses as f64
        }
    }

    /// Tenants that have at least one result, sorted.
    pub fn tenant_ids(&self) -> Vec<String> {
        let ids: std::collections::BTreeSet<&str> =
            self.results.iter().map(|c| c.tenant.as_str()).collect();
        ids.into_iter().map(String::from).collect()
    }

    /// The canonical, byte-deterministic summary of one tenant's
    /// outcomes: plans, makespans (shortest-round-trip floats — bit
    /// exact) and retry sets, in submission order. Two service runs
    /// with the same submissions and shard count must produce
    /// identical bytes here, for any worker count.
    pub fn tenant_summary(&self, tenant: &str) -> String {
        let mut s = String::new();
        for c in self.results.iter().filter(|c| c.tenant == tenant) {
            c.push_summary_line(&mut s);
        }
        s
    }

    /// All tenant summaries concatenated in tenant order — the whole
    /// deterministic result surface as one string. One pass over the
    /// results, however many tenants there are.
    pub fn all_tenant_summaries(&self) -> String {
        let mut by_tenant: BTreeMap<&str, Vec<&Completed>> = BTreeMap::new();
        for c in &self.results {
            by_tenant.entry(&c.tenant).or_default().push(c);
        }
        let mut s = String::new();
        for (tenant, of_tenant) in by_tenant {
            s.push_str(&format!("## tenant {tenant}\n"));
            for c in of_tenant {
                c.push_summary_line(&mut s);
            }
        }
        s
    }

    /// Completed plans per wall-clock second — the service's end-to-end
    /// throughput. Emitted twice in [`Self::bench_json`]: as the
    /// advisory `throughput_per_sec` (two-sided drift report) and as
    /// `plans_per_sec`, which the regression gate holds to a ratcheted
    /// one-sided floor.
    pub fn plans_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.completed as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Flat JSON for `BENCH_service.json`: deterministic counters plus
    /// wall-clock metrics (the latter gated only advisorily, except the
    /// ratcheted `plans_per_sec` floor).
    pub fn bench_json(&self) -> String {
        let ms = |q: f64| -> f64 { self.sojourn.quantile(q).unwrap_or(0.0) * 1e3 };
        let throughput = self.plans_per_sec();
        let shed_rate =
            if self.submitted > 0 { self.shed as f64 / self.submitted as f64 } else { 0.0 };
        let lookups = self.cache_hits + self.cache_misses;
        let hit_rate = if lookups > 0 { self.cache_hits as f64 / lookups as f64 } else { 0.0 };
        format!(
            "{{\n  \"submissions\": {},\n  \"admitted\": {},\n  \"shed\": {},\n  \
             \"completed\": {},\n  \"failed\": {},\n  \"cache_hits\": {},\n  \
             \"cache_misses\": {},\n  \"hit_rate\": {},\n  \"shed_rate\": {},\n  \
             \"episodes_per_hit\": {},\n  \"episodes_per_miss\": {},\n  \
             \"makespan_sum_secs\": {},\n  \"wfq_backpressure\": {},\n  \
             \"wfq_max_depth\": {},\n  \"wfq_rounds\": {},\n  \
             \"frame_bytes_per_event\": {},\n  \"snapshot_events\": {},\n  \
             \"snapshot_max_queued\": {},\n  \"snapshot_final_vt\": {},\n  \
             \"throughput_per_sec\": {},\n  \
             \"plans_per_sec\": {},\n  \
             \"p50_sojourn_ms\": {},\n  \"p99_sojourn_ms\": {},\n  \"wall_secs\": {}\n}}\n",
            self.submitted,
            self.admitted,
            self.shed,
            self.completed,
            self.failed,
            self.cache_hits,
            self.cache_misses,
            json_f64(hit_rate),
            json_f64(shed_rate),
            json_f64(self.episodes_per_hit()),
            json_f64(self.episodes_per_miss()),
            json_f64(self.makespan_sum_secs),
            self.wfq.backpressure,
            self.wfq.max_depth,
            self.wfq.rounds,
            json_f64(self.frame_bytes_per_event()),
            self.snapshot_count,
            self.snapshot_max_queued,
            self.snapshot_final_vt,
            json_f64(throughput),
            json_f64(throughput),
            json_f64(ms(0.5)),
            json_f64(ms(0.99)),
            json_f64(self.wall_secs)
        )
    }

    /// Short human-readable summary for CLI output.
    pub fn human_summary(&self) -> String {
        format!(
            "submissions {} (admitted {}, shed {}) · completed {} (failed {})\n\
             cache: {} hits / {} misses · episodes/hit {:.2} vs episodes/miss {:.2}\n\
             tenants {} · makespan sum {:.3}s · wall {:.3}s",
            self.submitted,
            self.admitted,
            self.shed,
            self.completed,
            self.failed,
            self.cache_hits,
            self.cache_misses,
            self.episodes_per_hit(),
            self.episodes_per_miss(),
            self.tenants.len(),
            self.makespan_sum_secs,
            self.wall_secs
        )
    }
}
