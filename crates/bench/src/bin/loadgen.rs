//! Service load generator: drive `reassignd`'s in-process service with
//! a seeded open-loop arrival sequence and write `BENCH_service.json`.
//!
//! ```text
//! cargo run --release -p bench --bin loadgen -- \
//!     [--submissions N] [--tenants N] [--seed N] [--shards N]
//!     [--workers N] [--episodes N] [--finetune N] [--fleet 16|32|64]
//!     [--tenant-cap N] [--drain-rate N] [--prov-keep N]
//!     [--sizes 20,30] [--out FILE] [--trace-out FILE] [--summary-out FILE]
//!     [--snapshot-every N] [--snapshots-out FILE] [--slo FILE]
//! ```
//!
//! The arrival sequence is a pure function of `--seed`, so the
//! deterministic counters in the report (submissions, shed,
//! cache hits/misses, episode split, WFQ counters, makespan checksum)
//! reproduce exactly run to run and across worker counts; throughput
//! and sojourn quantiles are wall clock and vary. `--trace-out` keeps
//! binary frames when the path ends in `.bin` (the soak suite diffs
//! these byte-for-byte), JSONL otherwise. `--snapshot-every N` turns on
//! the sidecar metrics plane (schema-1.5 `snapshot` events every N
//! submissions plus one at drain); `--snapshots-out` writes that stream
//! and `--slo FILE` evaluates SLO rules live, recording breaches as
//! `slo_breach` sidecar events. The snapshot count, max observed queue
//! depth and final virtual time land in the report as strict gate
//! metrics. Megasubmission soaks combine
//! `--submissions 1000000 --tenants 10000 --prov-keep N` so the
//! provenance snapshots stay compact. Defaults match the committed
//! `BENCH_service.json` shape — mixed Montage/CyberShake/Epigenomics/
//! SIPHT/Inspiral arrivals over 16 tenants.

use svc::{generate_submissions, run_batch_trace_out, LoadgenSpec, ServiceConfig};

struct Args {
    spec: LoadgenSpec,
    cfg: ServiceConfig,
    out: String,
    trace_out: Option<String>,
    summary_out: Option<String>,
    snapshots_out: Option<String>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut spec = LoadgenSpec::default();
    let mut fleet: u32 = 16;
    let mut shards = None;
    let mut workers = None;
    let mut tenant_cap = None;
    let mut drain_rate = None;
    let mut prov_keep = None;
    let mut episodes = None;
    let mut finetune = None;
    let mut out = "BENCH_service.json".to_string();
    let mut trace_out = None;
    let mut summary_out = None;
    let mut snapshot_every = None;
    let mut snapshots_out = None;
    let mut slo_path: Option<String> = None;

    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        let num = |s: String, name: &str| -> Result<u64, String> {
            s.parse().map_err(|_| format!("{name}: '{s}' is not a number"))
        };
        match a.as_str() {
            "--submissions" => spec.submissions = num(value("--submissions")?, a)? as u32,
            "--tenants" => spec.tenants = num(value("--tenants")?, a)? as u32,
            "--seed" => spec.seed = num(value("--seed")?, a)?,
            "--wf-seeds" => spec.workflow_seeds = num(value("--wf-seeds")?, a)?,
            "--sizes" => {
                spec.sizes = value("--sizes")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|_| format!("--sizes: bad entry '{s}'")))
                    .collect::<Result<_, _>>()?;
            }
            "--fleet" => fleet = num(value("--fleet")?, a)? as u32,
            "--shards" => shards = Some(num(value("--shards")?, a)? as u32),
            "--workers" => workers = Some(num(value("--workers")?, a)? as usize),
            "--tenant-cap" => tenant_cap = Some(num(value("--tenant-cap")?, a)? as usize),
            "--drain-rate" => drain_rate = Some(num(value("--drain-rate")?, a)? as u32),
            "--prov-keep" => prov_keep = Some(num(value("--prov-keep")?, a)? as u32),
            "--episodes" => episodes = Some(num(value("--episodes")?, a)? as u32),
            "--finetune" => finetune = Some(num(value("--finetune")?, a)? as u32),
            "--out" => out = value("--out")?,
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--summary-out" => summary_out = Some(value("--summary-out")?),
            "--snapshot-every" => snapshot_every = Some(num(value("--snapshot-every")?, a)?),
            "--snapshots-out" => snapshots_out = Some(value("--snapshots-out")?),
            "--slo" => slo_path = Some(value("--slo")?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }

    let mut cfg = ServiceConfig::with_paper_fleet(fleet).map_err(|e| e.to_string())?;
    if let Some(s) = shards {
        cfg.shards = s;
    }
    if let Some(w) = workers {
        cfg.workers = w;
    }
    if let Some(c) = tenant_cap {
        cfg.wfq.tenant_queue_cap = c;
    }
    if let Some(d) = drain_rate {
        cfg.wfq.drain_rate = d;
    }
    cfg.prov_keep_last = prov_keep;
    if let Some(e) = episodes {
        cfg.episodes_full = e;
    }
    if let Some(f) = finetune {
        cfg.episodes_finetune = f;
    }
    if let Some(n) = snapshot_every {
        cfg.snapshot_every = n;
    } else if snapshots_out.is_some() || slo_path.is_some() {
        // Sidecar output was asked for: default to a sensible cadence
        // instead of silently writing an empty stream.
        cfg.snapshot_every = 100;
    }
    if let Some(path) = &slo_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        cfg.slo = obs::slo::parse_rules(&text)?;
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(Args { spec, cfg, out, trace_out, summary_out, snapshots_out })
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv)?;
    let subs = generate_submissions(&args.spec);
    eprintln!(
        "loadgen: {} submissions, {} tenants, seed {}, {} shards × {} workers",
        args.spec.submissions, args.spec.tenants, args.spec.seed, args.cfg.shards, args.cfg.workers
    );
    // `.bin` streams the canonical binary frames (what the soak suite
    // byte-diffs across worker counts); any other path renders JSONL.
    let report = run_batch_trace_out(&args.cfg, subs, args.trace_out.as_deref())
        .map_err(|e| e.to_string())?;
    println!("{}", report.human_summary());
    std::fs::write(&args.out, report.bench_json()).map_err(|e| format!("{}: {e}", args.out))?;
    eprintln!("wrote {}", args.out);
    if let Some(path) = &args.summary_out {
        std::fs::write(path, report.all_tenant_summaries()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &args.snapshots_out {
        if path.ends_with(".bin") {
            std::fs::write(path, &report.snapshots).map_err(|e| format!("{path}: {e}"))?;
        } else {
            std::fs::write(path, report.snapshots_jsonl()).map_err(|e| format!("{path}: {e}"))?;
        }
        eprintln!(
            "wrote {path} ({} snapshots, {} slo breach(es))",
            report.snapshot_count, report.slo_breaches
        );
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("loadgen: {e}");
        std::process::exit(2);
    }
}
