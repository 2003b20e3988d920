//! Service-level integration tests: the determinism contract (same
//! submissions + shard count ⇒ byte-identical per-tenant outcomes,
//! independent of worker count and of the run), deterministic
//! backpressure, and strict per-tenant provenance partitioning.

use svc::{
    generate_submissions, run_batch, run_batch_trace_out, Admission, LoadgenSpec, Service,
    ServiceConfig, Submission, WorkflowSpec,
};
use wfcommon::ids::Idx;

fn quick_cfg(shards: u32, workers: usize) -> ServiceConfig {
    let mut cfg = ServiceConfig::with_paper_fleet(16).unwrap();
    cfg.shards = shards;
    cfg.workers = workers;
    cfg.episodes_full = 2;
    cfg.episodes_finetune = 1;
    cfg
}

fn small_workload() -> Vec<Submission> {
    generate_submissions(&LoadgenSpec {
        submissions: 40,
        tenants: 4,
        seed: 11,
        families: ["montage", "sipht", "cybershake"].map(String::from).to_vec(),
        sizes: vec![20],
        workflow_seeds: 1,
    })
}

#[test]
fn outcomes_are_identical_across_runs_and_worker_counts() {
    let subs = small_workload();
    let mut reference: Option<(String, Vec<u8>, u64, u64)> = None;
    // Two runs at 2 workers (run-to-run determinism) plus 1- and
    // 4-worker runs (worker-count independence). Shard count is held
    // fixed — it is part of the determinism contract.
    for workers in [2, 2, 1, 4] {
        let report = run_batch(&quick_cfg(4, workers), subs.clone()).unwrap();
        assert_eq!(report.failed, 0, "no submission may fail");
        assert!(report.cache_hits > 0, "repeat families must warm-start");
        let summary = report.all_tenant_summaries();
        let trace = report.trace.clone();
        match &reference {
            None => reference = Some((summary, trace, report.cache_hits, report.cache_misses)),
            Some((ref_summary, ref_trace, hits, misses)) => {
                assert_eq!(
                    &summary, ref_summary,
                    "per-tenant outcomes changed at {workers} workers"
                );
                assert_eq!(
                    &trace, ref_trace,
                    "canonical binary trace changed at {workers} workers"
                );
                assert_eq!((report.cache_hits, report.cache_misses), (*hits, *misses));
            }
        }
    }
}

/// The replication axis of the determinism contract (schema v1.6):
/// hedged submissions must emit `replicate`/`cancel` events into the
/// canonical trace, every launch must close (wins + cancellations
/// balance), and the trace must stay byte-identical across reruns and
/// worker counts — the soak analogue of the simulator's serial ≡
/// parallel guarantee.
#[test]
fn replicated_submissions_stay_byte_identical_across_worker_counts() {
    let subs: Vec<Submission> = small_workload()
        .into_iter()
        .take(12)
        .map(|mut s| {
            s.replicate = cloud::ReplicationPolicy::Static { k: 2 };
            s
        })
        .collect();
    let mut reference: Option<(String, Vec<u8>)> = None;
    for workers in [2, 2, 1, 4] {
        let mut cfg = quick_cfg(4, workers);
        cfg.trace_detail = true;
        let report = run_batch(&cfg, subs.clone()).unwrap();
        assert_eq!(report.failed, 0, "no submission may fail");
        let trace = report.trace_jsonl();
        let replicates = trace.matches("\"ev\":\"replicate\"").count();
        let cancels = trace.matches("\"ev\":\"cancel\"").count();
        assert!(replicates > 0, "static-2 replay must hedge dispatches");
        assert!(cancels > 0, "winning finishes must cancel the losing replicas");
        assert!(cancels <= replicates, "only launched replicas can be cancelled");
        let summary = report.all_tenant_summaries();
        match &reference {
            None => reference = Some((summary, report.trace.clone())),
            Some((ref_summary, ref_trace)) => {
                assert_eq!(
                    &summary, ref_summary,
                    "replicated tenant outcomes changed at {workers} workers"
                );
                assert_eq!(
                    &report.trace, ref_trace,
                    "replicated canonical trace changed at {workers} workers"
                );
            }
        }
    }
}

#[test]
fn warm_starts_are_measurably_cheaper() {
    let report = run_batch(&quick_cfg(4, 2), small_workload()).unwrap();
    assert!(report.cache_hits > 0 && report.cache_misses > 0);
    assert!(
        report.episodes_per_hit() < report.episodes_per_miss(),
        "fine-tunes ({}) must spend fewer episodes than full learning ({})",
        report.episodes_per_hit(),
        report.episodes_per_miss()
    );
}

#[test]
fn full_queues_shed_deterministically() {
    let mut cfg = quick_cfg(1, 1);
    cfg.wfq.tenant_queue_cap = 2;
    // `drain_rate: 0` means nothing dispatches until drain, so exactly
    // `tenant_queue_cap` submissions fit — the shed pattern is a pure
    // function of the submission sequence.
    cfg.wfq.drain_rate = 0;
    let mut svc = Service::new(cfg).unwrap();
    let mut admissions = Vec::new();
    for i in 0..5u64 {
        admissions.push(svc.submit(Submission {
            tenant: "t".into(),
            spec: WorkflowSpec::Generated { family: "montage".into(), size: 20, seed: 0 },
            seed: i,
            replicate: cloud::ReplicationPolicy::Off,
        }));
    }
    assert_eq!(svc.admitted_count(), 2);
    assert_eq!(svc.shed_count(), 3);
    assert_eq!(admissions[0], Admission::Admitted { seq: 0, shard: 0 });
    assert_eq!(admissions[2], Admission::Shed { seq: 2, shard: 0 });

    let report = svc.drain().unwrap();
    assert_eq!((report.submitted, report.admitted, report.shed), (5, 2, 3));
    assert_eq!(report.results.len(), 2, "only admitted submissions produce results");
    assert_eq!((report.wfq.backpressure, report.wfq.max_depth), (3, 2));
    let trace = report.trace_jsonl();
    assert_eq!(trace.matches("\"ev\":\"shed\"").count(), 3);
    assert_eq!(trace.matches("\"ev\":\"backpressure\"").count(), 3);
    assert_eq!(trace.matches("\"ev\":\"admit\"").count(), 2);
    assert_eq!(trace.matches("\"ev\":\"enqueue\"").count(), 2);
    assert_eq!(trace.matches("\"ev\":\"dequeue\"").count(), 2);
}

#[test]
fn provenance_is_partitioned_strictly_by_tenant() {
    let tenants = ["alpha", "beta", "gamma", "delta", "epsilon"];
    let mut subs = Vec::new();
    for (i, t) in tenants.iter().cycle().take(20).enumerate() {
        subs.push(Submission {
            tenant: (*t).to_string(),
            spec: WorkflowSpec::Generated { family: "montage".into(), size: 20, seed: 0 },
            seed: i as u64,
            replicate: cloud::ReplicationPolicy::Off,
        });
    }
    let report = run_batch(&quick_cfg(4, 2), subs).unwrap();
    assert_eq!(report.failed, 0);
    assert_eq!(report.tenants.len(), tenants.len());

    let mut filed = 0usize;
    for (tenant, store) in &report.tenants {
        for key in store.keys() {
            // The config label embeds the owning tenant — and must
            // never mention any other tenant.
            assert!(
                key.config.starts_with(&format!("svc:{tenant}:")),
                "tenant {tenant} holds foreign key {key:?}"
            );
            for other in tenants.iter().filter(|o| *o != tenant) {
                assert!(
                    !key.config.contains(other),
                    "tenant {tenant} key leaks tenant {other}: {key:?}"
                );
            }
            filed += store.episodes(&key).len();
        }
    }
    assert_eq!(filed, 20, "every completed submission is filed exactly once");

    // Episode ids are dense per tenant (the store re-assigns them in
    // filing order).
    for store in report.tenants.values() {
        for key in store.keys() {
            for (i, rec) in store.episodes(&key).iter().enumerate() {
                assert_eq!(rec.episode.index(), i, "episode ids must be dense");
            }
        }
    }
}

/// The tentpole contract of the metrics plane: turning it on must not
/// perturb the canonical trace by a single byte, at any worker count,
/// and the admission-plane fields of every sidecar snapshot must be a
/// pure function of the submission sequence (the wall-clock-derived
/// tail — `plans`, `hit_rate`, rates, sojourns — is explicitly racy
/// and excluded from the comparison).
#[test]
fn metrics_plane_leaves_canonical_trace_byte_identical() {
    let subs = small_workload();
    let base = run_batch(&quick_cfg(4, 2), subs.clone()).unwrap();
    assert_eq!(base.snapshot_count, 0, "snapshots stay off by default");
    assert!(base.snapshots.is_empty(), "no sidecar bytes without a cadence");

    let mut reference: Option<(String, u64, u64, u64)> = None;
    for workers in [2, 2, 1, 4] {
        let mut cfg = quick_cfg(4, workers);
        cfg.snapshot_every = 10;
        let report = run_batch(&cfg, subs.clone()).unwrap();
        assert_eq!(
            report.trace, base.trace,
            "canonical trace changed with the metrics plane on at {workers} workers"
        );
        assert!(report.snapshot_count >= 4, "40 submissions at cadence 10 snapshot at least 4x");
        assert!(!report.snapshots.is_empty(), "sidecar stream must carry the snapshots");
        // Admission-plane spine: every snapshot line truncated before
        // its first racy field.
        let spine: String = report
            .snapshots_jsonl()
            .lines()
            .filter(|l| l.contains("\"ev\":\"snapshot\""))
            .map(|l| {
                let (deterministic, _racy) = l.split_once(",\"plans\":").unwrap();
                format!("{deterministic}\n")
            })
            .collect();
        let summary =
            (spine, report.snapshot_count, report.snapshot_max_queued, report.snapshot_final_vt);
        match &reference {
            None => reference = Some(summary),
            Some(reference) => assert_eq!(
                &summary, reference,
                "sidecar admission-plane fields changed at {workers} workers"
            ),
        }
    }
}

/// Acceptance: a seeded run with SLO rules embeds at least one
/// deterministic `slo_breach`, and `analyze slo`'s offline replay
/// (same engine, fed the snapshot stream) reproduces it identically —
/// run to run and worker count to worker count.
#[test]
fn slo_breaches_reproduce_identically_offline() {
    const RULES: &str = "first-admit admitted >= 1\nnever-sheds shed > 1000000\n";
    let subs = small_workload();
    let mut reference: Option<String> = None;
    for workers in [2, 2, 4] {
        let mut cfg = quick_cfg(4, workers);
        cfg.snapshot_every = 10;
        cfg.slo = obs::slo::parse_rules(RULES).unwrap();
        let report = run_batch(&cfg, subs.clone()).unwrap();
        assert_eq!(report.slo_breaches, 1, "edge-triggered rule fires exactly once");
        let stream = report.snapshots_jsonl();
        assert!(stream.contains("\"ev\":\"slo_breach\""), "{stream}");

        let replay = obs_analyze::replay_slo(&stream, obs::slo::parse_rules(RULES).unwrap());
        assert_eq!(replay.snapshots, report.snapshot_count);
        assert_eq!(replay.embedded.len() as u64, report.slo_breaches);
        assert!(replay.matches(), "offline replay must reproduce the live engine: {replay:?}");
        assert_eq!(replay.recomputed[0].rule, "first-admit");
        assert_eq!(replay.recomputed[0].metric, "admitted");

        let breach_lines: String = stream
            .lines()
            .filter(|l| l.contains("\"ev\":\"slo_breach\""))
            .map(|l| format!("{l}\n"))
            .collect();
        match &reference {
            None => reference = Some(breach_lines),
            Some(ref_lines) => assert_eq!(
                &breach_lines, ref_lines,
                "embedded breach lines changed at {workers} workers"
            ),
        }
    }
}

#[test]
fn bad_submissions_fail_without_poisoning_the_batch() {
    let mut subs = vec![
        Submission {
            tenant: "a".into(),
            spec: WorkflowSpec::Generated { family: "no-such-family".into(), size: 20, seed: 0 },
            seed: 0,
            replicate: cloud::ReplicationPolicy::Off,
        },
        Submission {
            tenant: "a".into(),
            spec: WorkflowSpec::Dax { path: "/nonexistent/wf.dax".into() },
            seed: 1,
            replicate: cloud::ReplicationPolicy::Off,
        },
    ];
    subs.push(Submission {
        tenant: "a".into(),
        spec: WorkflowSpec::Generated { family: "montage".into(), size: 20, seed: 0 },
        seed: 2,
        replicate: cloud::ReplicationPolicy::Off,
    });
    let report = run_batch(&quick_cfg(2, 1), subs).unwrap();
    assert_eq!((report.completed, report.failed), (1, 2));
    let summary = report.tenant_summary("a");
    assert!(summary.contains("error="), "{summary}");
    assert!(summary.contains("plan=["), "{summary}");
}

/// `drain_to` is `drain` with the trace sent elsewhere: the writer
/// receives exactly `drain().trace`, the report says how long it was,
/// and nothing derived from the length changes — at any worker count.
#[test]
fn drain_to_writes_the_bytes_drain_returns() {
    let subs = small_workload();
    for workers in [1, 2, 4] {
        let mut cfg = quick_cfg(4, workers);
        cfg.trace_detail = true;
        let held = run_batch(&cfg, subs.clone()).unwrap();
        assert_eq!(held.trace_bytes, held.trace.len() as u64);
        assert_eq!(held.trace.capacity(), held.trace.len(), "the buffer is sized once, exactly");

        let mut svc = Service::new(cfg).unwrap();
        svc.start();
        for sub in subs.clone() {
            svc.submit(sub);
        }
        let mut written = Vec::new();
        let streamed = svc.drain_to(&mut written).unwrap();
        assert!(streamed.trace.is_empty(), "drain_to keeps no copy");
        assert!(written == held.trace, "drain_to bytes differ from drain().trace at {workers}");
        assert_eq!(streamed.trace_bytes, written.len() as u64);
        assert_eq!(streamed.trace_events, held.trace_events);
        assert_eq!(streamed.frame_bytes_per_event(), held.frame_bytes_per_event());
        assert_eq!(streamed.all_tenant_summaries(), held.all_tenant_summaries());
    }

    // The command lines' `--trace-out`: a `.bin` path is that stream in
    // a file, any other path the JSONL of a held trace.
    let mut cfg = quick_cfg(4, 2);
    cfg.trace_detail = true;
    let held = run_batch(&cfg, subs.clone()).unwrap();
    let dir = std::env::temp_dir().join(format!("svc-trace-out-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (bin, jsonl) = (dir.join("t.trace.bin"), dir.join("t.trace.jsonl"));
    let streamed = run_batch_trace_out(&cfg, subs.clone(), bin.to_str()).unwrap();
    assert!(streamed.trace.is_empty());
    assert!(std::fs::read(&bin).unwrap() == held.trace);
    let rendered = run_batch_trace_out(&cfg, subs, jsonl.to_str()).unwrap();
    assert!(rendered.trace == held.trace);
    assert!(std::fs::read_to_string(&jsonl).unwrap() == held.trace_jsonl());
    std::fs::remove_dir_all(&dir).unwrap();
    let unwritable = dir.join("gone").join("t.trace.bin");
    let err = run_batch_trace_out(&cfg, small_workload(), unwritable.to_str()).unwrap_err();
    assert!(err.to_string().contains("t.trace.bin"), "{err}");
}

/// A writer that fails makes `drain_to` fail, with the writer's error.
#[test]
fn drain_to_surfaces_the_writers_error() {
    struct Full;
    impl std::io::Write for Full {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut svc = Service::new(quick_cfg(2, 1)).unwrap();
    for sub in small_workload().into_iter().take(3) {
        svc.submit(sub);
    }
    let err = svc.drain_to(Full).expect_err("the write error must surface");
    assert!(err.to_string().contains("disk full"), "{err}");
}

/// Draining with a backlog loses and duplicates nothing: workers never
/// started, nothing dispatched before `drain()` (`drain_rate: 0`), and
/// a one-slot worker channel, so the whole WFQ content goes through
/// the blocking hand-off at drain.
#[test]
fn drain_with_a_backlog_loses_and_duplicates_nothing() {
    let subs = generate_submissions(&LoadgenSpec {
        submissions: 300,
        tenants: 24,
        seed: 5,
        families: ["montage", "sipht"].map(String::from).to_vec(),
        sizes: vec![20],
        workflow_seeds: 2,
    });
    let mut cfg = quick_cfg(4, 2);
    cfg.queue_capacity = 1;
    cfg.wfq.drain_rate = 0;
    cfg.wfq.tenant_queue_cap = 10;
    let mut svc = Service::new(cfg).unwrap();
    let mut admitted = Vec::new();
    for sub in subs {
        if let Admission::Admitted { seq, .. } = svc.submit(sub) {
            admitted.push(seq);
        }
    }
    assert_eq!(svc.admitted_count(), admitted.len() as u64);
    assert!(svc.shed_count() > 0, "some tenant outruns its queue");
    assert!(admitted.len() > 100, "the backlog at drain is most of the batch");

    let report = svc.drain().unwrap();
    assert_eq!(report.admitted + report.shed, report.submitted);
    assert_eq!((report.submitted, report.admitted), (300, admitted.len() as u64));
    assert_eq!(report.failed, 0);
    let result_seqs: Vec<u64> = report.results.iter().map(|c| c.seq).collect();
    assert_eq!(result_seqs, admitted, "every admitted seq exactly once, in order");

    let trace = report.trace_jsonl();
    for kind in ["dequeue", "plan_done"] {
        let mut seqs: Vec<u64> = trace
            .lines()
            .filter(|l| l.starts_with(&format!("{{\"ev\":\"{kind}\"")))
            .map(|l| {
                let (_, rest) = l.split_once("\"seq\":").unwrap();
                rest[..rest.find(',').unwrap()].parse().unwrap()
            })
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, admitted, "one {kind} per admitted seq");
    }
}

/// `all_tenant_summaries` groups the results once; what it renders is
/// the per-tenant summaries in tenant order, as before.
#[test]
fn all_tenant_summaries_is_the_per_tenant_concatenation() {
    let subs = generate_submissions(&LoadgenSpec {
        submissions: 700,
        tenants: 260,
        seed: 3,
        families: ["montage", "sipht"].map(String::from).to_vec(),
        sizes: vec![20],
        workflow_seeds: 1,
    });
    let mut cfg = quick_cfg(4, 2);
    cfg.episodes_full = 1;
    let report = run_batch(&cfg, subs).unwrap();
    let tenants = report.tenant_ids();
    assert!(tenants.len() >= 200, "{} tenants", tenants.len());
    assert!(tenants.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
    let expected: String =
        tenants.iter().map(|t| format!("## tenant {t}\n{}", report.tenant_summary(t))).collect();
    assert_eq!(report.all_tenant_summaries(), expected);
}
