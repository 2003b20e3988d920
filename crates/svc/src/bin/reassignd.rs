//! `reassignd` — run the scheduling service over a submission file.
//!
//! ```text
//! reassignd --submissions FILE [--shards N] [--workers N]
//!           [--queue-cap N] [--tenant-cap N] [--weight TENANT=W]
//!           [--quantum N] [--drain-rate N] [--prov-keep N]
//!           [--episodes N] [--finetune N]
//!           [--fleet 16|32|64] [--fault-profile none|mild|heavy]
//!           [--detail] [--trace-out FILE] [--report-out FILE]
//!           [--summary-out FILE]
//!           [--metrics-listen ADDR] [--snapshot-every N]
//!           [--snapshots-out FILE] [--slo FILE]
//! reassignd top ADDR
//! ```
//!
//! `FILE` is line-oriented (`-` reads stdin): see
//! [`svc::parse_submissions`] for the format. The human summary and
//! per-tenant results go to stdout; `--report-out` writes the
//! `BENCH_service.json` payload, `--trace-out` the byte-deterministic
//! service trace (binary frames when the path ends in `.bin`, JSONL
//! otherwise), `--summary-out` the canonical per-tenant summaries.
//!
//! The live metrics plane: `--metrics-listen ADDR` serves
//! Prometheus-style text on `/metrics` and a one-line JSON health view
//! on `/health` (plain std `TcpListener`, no dependencies);
//! `--snapshot-every N` emits a schema-1.5 `snapshot` event onto the
//! sidecar stream every N submissions (plus one at drain);
//! `--snapshots-out` writes that stream (binary for `.bin`, JSONL
//! otherwise); `--slo FILE` loads SLO rules (see `obs::slo`) evaluated
//! live against every snapshot, with breaches emitted as `slo_breach`
//! sidecar events. None of this touches the canonical trace.
//!
//! `reassignd top ADDR` is the one-shot ops view: it fetches `/health`
//! and `/metrics` from a running `reassignd` and renders a compact
//! table.

use std::io::{Read as _, Write as _};
use svc::{parse_submissions, serve_metrics, Service, ServiceConfig};
use wfcommon::{Error, Result};

const USAGE: &str = "usage: reassignd --submissions FILE [--shards N] [--workers N] \
[--queue-cap N] [--tenant-cap N] [--weight TENANT=W] [--quantum N] [--drain-rate N] \
[--prov-keep N] [--episodes N] [--finetune N] [--fleet 16|32|64] \
[--fault-profile none|mild|heavy] [--detail] [--trace-out FILE] \
[--report-out FILE] [--summary-out FILE] [--metrics-listen ADDR] \
[--snapshot-every N] [--snapshots-out FILE] [--slo FILE]\n       reassignd top ADDR";

struct Args {
    submissions: String,
    cfg: ServiceConfig,
    trace_out: Option<String>,
    report_out: Option<String>,
    summary_out: Option<String>,
    metrics_listen: Option<String>,
    snapshots_out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args> {
    let mut submissions: Option<String> = None;
    let mut fleet: u32 = 16;
    let mut shards: Option<u32> = None;
    let mut workers: Option<usize> = None;
    let mut queue_cap: Option<usize> = None;
    let mut tenant_cap: Option<usize> = None;
    let mut weights: Vec<(String, u32)> = Vec::new();
    let mut quantum: Option<u32> = None;
    let mut drain_rate: Option<u32> = None;
    let mut prov_keep: Option<u32> = None;
    let mut episodes: Option<u32> = None;
    let mut finetune: Option<u32> = None;
    let mut fault_profile = "none".to_string();
    let mut detail = false;
    let mut trace_out = None;
    let mut report_out = None;
    let mut summary_out = None;
    let mut metrics_listen = None;
    let mut snapshot_every: Option<u64> = None;
    let mut snapshots_out = None;
    let mut slo_path: Option<String> = None;

    let mut it = argv.iter();
    let missing = |flag: &str| Error::Config(format!("{flag} needs a value\n{USAGE}"));
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or_else(|| missing(flag));
        match arg.as_str() {
            "--submissions" => submissions = Some(value("--submissions")?),
            "--fleet" => fleet = parse_num(&value("--fleet")?, "--fleet")?,
            "--shards" => shards = Some(parse_num(&value("--shards")?, "--shards")?),
            "--workers" => workers = Some(parse_num(&value("--workers")?, "--workers")?),
            "--queue-cap" => queue_cap = Some(parse_num(&value("--queue-cap")?, "--queue-cap")?),
            "--tenant-cap" => {
                tenant_cap = Some(parse_num(&value("--tenant-cap")?, "--tenant-cap")?)
            }
            "--weight" => {
                let spec = value("--weight")?;
                let (tenant, w) = spec.split_once('=').ok_or_else(|| {
                    Error::Config(format!("--weight wants TENANT=W, got '{spec}'"))
                })?;
                weights.push((tenant.to_string(), parse_num(w, "--weight")?));
            }
            "--quantum" => quantum = Some(parse_num(&value("--quantum")?, "--quantum")?),
            "--drain-rate" => {
                drain_rate = Some(parse_num(&value("--drain-rate")?, "--drain-rate")?)
            }
            "--prov-keep" => prov_keep = Some(parse_num(&value("--prov-keep")?, "--prov-keep")?),
            "--episodes" => episodes = Some(parse_num(&value("--episodes")?, "--episodes")?),
            "--finetune" => finetune = Some(parse_num(&value("--finetune")?, "--finetune")?),
            "--fault-profile" => fault_profile = value("--fault-profile")?,
            "--detail" => detail = true,
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--report-out" => report_out = Some(value("--report-out")?),
            "--summary-out" => summary_out = Some(value("--summary-out")?),
            "--metrics-listen" => metrics_listen = Some(value("--metrics-listen")?),
            "--snapshot-every" => {
                snapshot_every = Some(parse_num(&value("--snapshot-every")?, "--snapshot-every")?)
            }
            "--snapshots-out" => snapshots_out = Some(value("--snapshots-out")?),
            "--slo" => slo_path = Some(value("--slo")?),
            "--help" | "-h" => return Err(Error::Config(USAGE.into())),
            other => return Err(Error::Config(format!("unknown flag '{other}'\n{USAGE}"))),
        }
    }
    let submissions =
        submissions.ok_or_else(|| Error::Config(format!("--submissions is required\n{USAGE}")))?;

    let mut cfg = ServiceConfig::with_paper_fleet(fleet)?;
    if let Some(s) = shards {
        cfg.shards = s;
    }
    if let Some(w) = workers {
        cfg.workers = w;
    }
    if let Some(q) = queue_cap {
        cfg.queue_capacity = q;
    }
    if let Some(c) = tenant_cap {
        cfg.wfq.tenant_queue_cap = c;
    }
    cfg.wfq.weights = weights;
    if let Some(q) = quantum {
        cfg.wfq.quantum = q;
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
    cfg.faults = cloud::FaultConfig::from_profile(&fault_profile).ok_or_else(|| {
        Error::Config(format!("unknown fault profile '{fault_profile}' (none|mild|heavy)"))
    })?;
    cfg.trace_detail = detail;
    if let Some(n) = snapshot_every {
        cfg.snapshot_every = n;
    } else if metrics_listen.is_some() || snapshots_out.is_some() || slo_path.is_some() {
        // The live plane was asked for without an explicit cadence —
        // pick a sensible one rather than silently emitting nothing.
        cfg.snapshot_every = 100;
    }
    if let Some(path) = &slo_path {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::Persistence(format!("{path}: {e}")))?;
        cfg.slo = obs::slo::parse_rules(&text).map_err(Error::Config)?;
    }
    cfg.validate()?;
    Ok(Args { submissions, cfg, trace_out, report_out, summary_out, metrics_listen, snapshots_out })
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T> {
    s.parse().map_err(|_| Error::Config(format!("{flag}: '{s}' is not a valid number")))
}

fn write_file(path: &str, contents: &str) -> Result<()> {
    std::fs::write(path, contents).map_err(|e| Error::Persistence(format!("{path}: {e}")))
}

/// One-shot `top`: fetch a path from a running exposition endpoint.
fn http_get(addr: &str, path: &str) -> Result<String> {
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| Error::Config(format!("connect {addr}: {e}")))?;
    // One write_all of the whole request: the server answers after a
    // single read, so trickling the header out in format-arg chunks
    // races its response (and an EPIPE on the tail chunks).
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).map_err(|e| Error::Persistence(format!("{addr}: {e}")))?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(|e| Error::Persistence(format!("{addr}: {e}")))?;
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    Ok(body.to_string())
}

/// `reassignd top ADDR` — render the live state of a running service.
fn run_top(addr: &str) -> Result<()> {
    let health = http_get(addr, "/health")?;
    let metrics = http_get(addr, "/metrics")?;
    println!("reassignd @ {addr}");
    println!("health: {}", health.trim());
    println!();
    // The counters and gauges, skipping comment lines and the verbose
    // histogram buckets.
    for line in metrics.lines() {
        if line.starts_with('#') || line.contains("_bucket{") {
            continue;
        }
        if let Some((name, value)) = line.rsplit_once(' ') {
            println!("  {name:<28} {value}");
        }
    }
    Ok(())
}

fn run() -> Result<()> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("top") {
        let addr =
            argv.get(1).ok_or_else(|| Error::Config(format!("top needs an ADDR\n{USAGE}")))?;
        return run_top(addr);
    }
    let args = parse_args(&argv)?;
    let text = if args.submissions == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| Error::Persistence(format!("stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(&args.submissions)
            .map_err(|e| Error::Persistence(format!("{}: {e}", args.submissions)))?
    };
    let subs = parse_submissions(&text)?;
    let mut svc = Service::new(args.cfg.clone())?;
    if let Some(addr) = &args.metrics_listen {
        let bound = serve_metrics(addr, svc.registry())?;
        eprintln!("reassignd: metrics on http://{bound}/metrics");
    }
    svc.start();
    for sub in subs {
        svc.submit(sub);
    }
    // Extension picks the trace format: `.bin` streams the binary
    // frames verbatim, anything else renders the equivalent JSONL.
    let report = svc.drain_trace_out(args.trace_out.as_deref())?;

    println!("{}", report.human_summary());
    print!("{}", report.all_tenant_summaries());
    if let Some(path) = &args.snapshots_out {
        if path.ends_with(".bin") {
            std::fs::write(path, &report.snapshots)
                .map_err(|e| Error::Persistence(format!("{path}: {e}")))?;
        } else {
            write_file(path, &report.snapshots_jsonl())?;
        }
    }
    if let Some(path) = &args.report_out {
        write_file(path, &report.bench_json())?;
    }
    if let Some(path) = &args.summary_out {
        write_file(path, &report.all_tenant_summaries())?;
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("reassignd: {e}");
        std::process::exit(2);
    }
}
