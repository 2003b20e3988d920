//! Command implementations.

use crate::args::{Command, USAGE};
use cloud::Fleet;
use obs::{
    event_type_summary, render_context, trace_diff_events, EventDiff, JsonlSink, TraceEvent, Tracer,
};
use reassign::{LearnRun, ReassignConfig};
use wfcommon::{Error, Result, SeedDerivation};
use wfsim::{
    simulate, simulate_traced, FixedPlanScheduler, FluctuationKind, Metrics, Plan, SimConfig,
};
use workflow::Workflow;

/// An optional JSONL file sink: open lazily, flush + surface IO errors
/// on close. `None` when tracing is off.
struct TraceFile {
    path: String,
    sink: JsonlSink<std::io::BufWriter<std::fs::File>>,
}

fn open_trace(path: Option<&String>) -> Result<Option<TraceFile>> {
    match path {
        None => Ok(None),
        Some(p) => Ok(Some(TraceFile {
            path: p.clone(),
            sink: JsonlSink::create(p).map_err(|e| Error::Persistence(format!("{p}: {e}")))?,
        })),
    }
}

fn close_trace(file: Option<TraceFile>) -> Result<()> {
    if let Some(f) = file {
        f.sink.finish().map_err(|e| Error::Persistence(format!("{}: {e}", f.path)))?;
    }
    Ok(())
}

/// Read a trace file as JSONL text, transparently decoding binary
/// frame files (sniffed by magic) so every trace consumer accepts
/// both formats.
fn read_trace_text(path: &str) -> Result<String> {
    let bytes = std::fs::read(path).map_err(|e| Error::Persistence(format!("{path}: {e}")))?;
    if obs::frame::is_binary(&bytes) {
        obs::frame::frames_to_jsonl(&bytes).map_err(|e| Error::Persistence(format!("{path}: {e}")))
    } else {
        String::from_utf8(bytes).map_err(|e| Error::Persistence(format!("{path}: {e}")))
    }
}

/// Execute a parsed command, writing human output to `out`.
pub fn run(cmd: Command, out: &mut dyn std::io::Write) -> Result<()> {
    let w = |out: &mut dyn std::io::Write, s: String| -> Result<()> {
        writeln!(out, "{s}").map_err(|e| Error::Execution(e.to_string()))
    };
    match cmd {
        Command::Help => w(out, USAGE.to_string()),
        Command::Gen { family, size, seed, out: file } => {
            let wf = generate(&family, size, seed)?;
            let xml = workflow::dax::write(&wf);
            match file {
                Some(path) => {
                    std::fs::write(&path, xml)
                        .map_err(|e| Error::Persistence(format!("{path}: {e}")))?;
                    w(out, format!("wrote {} ({} activations) to {path}", wf.name, wf.len()))
                }
                None => w(out, xml),
            }
        }
        Command::Info { workflow } => {
            let wf = load_workflow(&workflow)?;
            w(out, format!("name:        {}", wf.name))?;
            w(out, format!("activations: {}", wf.len()))?;
            w(out, format!("files:       {}", wf.files.len()))?;
            w(out, format!("edges:       {}", wf.dag.edge_count()))?;
            let data: u64 = wf.files.values().map(|f| f.size_bytes).sum();
            w(out, format!("data:        {}", wfcommon::fmt::bytes(data)))?;
            w(
                out,
                format!(
                    "work:        {:.1} reference-seconds (serial)",
                    wf.total_work_mi() / workflow::model::REFERENCE_MIPS
                ),
            )?;
            w(
                out,
                format!(
                    "critical path: {:.1} reference-seconds",
                    wf.reference_critical_path_secs()
                ),
            )?;
            for (name, count) in wf.activity_histogram() {
                w(out, format!("  {count:>4} × {name}"))?;
            }
            Ok(())
        }
        Command::Plan { workflow, scheduler, fleet, out: file } => {
            let wf = load_workflow(&workflow)?;
            let fleet = fleet_for(fleet)?;
            let plan = plan_with(&wf, &fleet, &scheduler)?;
            let json = serde_json::to_string_pretty(&plan)
                .map_err(|e| Error::Persistence(e.to_string()))?;
            match file {
                Some(path) => {
                    std::fs::write(&path, json)
                        .map_err(|e| Error::Persistence(format!("{path}: {e}")))?;
                    w(out, format!("wrote {scheduler} plan to {path}"))
                }
                None => w(out, json),
            }
        }
        Command::Learn {
            workflow,
            fleet,
            episodes,
            alpha,
            gamma,
            epsilon,
            seed,
            rollouts,
            out: file,
            provenance,
            trace_out,
            metrics_out,
            phase_timings,
            fault_profile,
            vm_mtbf,
            timeout,
            backoff,
            replicate,
        } => {
            if rollouts == 0 {
                return Err(Error::Config("--rollouts must be ≥ 1".into()));
            }
            let wf = load_workflow(&workflow)?;
            let fleet_vms = fleet_for(fleet)?;
            let sim_cfg = SimConfig {
                faults: fault_config(&fault_profile, vm_mtbf, timeout, backoff)?,
                replication: replication_policy(&replicate)?,
                ..SimConfig::default()
            };
            let config = ReassignConfig {
                episodes,
                seed,
                ..ReassignConfig::sweep_point(alpha, gamma, epsilon)
            };
            let mut store = match &provenance {
                Some(path) if std::path::Path::new(path).exists() => {
                    provenance::ProvenanceStore::load(std::path::Path::new(path))?
                }
                _ => provenance::ProvenanceStore::new(),
            };
            let mut trace_file = open_trace(trace_out.as_ref())?;
            let outcome = {
                let mut tracer = match trace_file.as_mut() {
                    Some(f) => Tracer::new(&mut f.sink).with_timing(phase_timings),
                    None => Tracer::disabled(),
                };
                let fleet_label = format!("{fleet}vcpus");
                let run = LearnRun {
                    rollouts,
                    provenance: Some(&mut store),
                    ..LearnRun::new(&wf, &fleet_vms, &fleet_label, &config, &sim_cfg)
                };
                tracer.emit_with(|| run.header());
                run.run(&mut tracer)?.outcome
            };
            close_trace(trace_file)?;
            if let Some(path) = &metrics_out {
                let json = format!(
                    "{{\"episodes\":{},\"greedy_makespan_secs\":{},\"best_makespan_secs\":{},\"telemetry\":{}}}\n",
                    episodes,
                    outcome.greedy_makespan.as_secs(),
                    outcome.best_episode_makespan.as_secs(),
                    outcome.telemetry.to_json()
                );
                std::fs::write(path, json)
                    .map_err(|e| Error::Persistence(format!("{path}: {e}")))?;
            }
            if let Some(path) = &provenance {
                store.save(std::path::Path::new(path))?;
            }
            w(
                out,
                format!(
                    "learned {} episodes in {:.1} ms; best plan {:.2} s, greedy {:.2} s",
                    episodes,
                    outcome.learning_wall_secs * 1e3,
                    outcome.best_episode_makespan.as_secs(),
                    outcome.greedy_makespan.as_secs()
                ),
            )?;
            if let Some(policy) = &outcome.repl_policy {
                w(out, format!("trained replication head: {}", policy.label()))?;
            }
            let json = serde_json::to_string_pretty(&outcome.best_episode_plan)
                .map_err(|e| Error::Persistence(e.to_string()))?;
            match file {
                Some(path) => {
                    std::fs::write(&path, json)
                        .map_err(|e| Error::Persistence(format!("{path}: {e}")))?;
                    w(out, format!("wrote plan to {path}"))
                }
                None => w(out, json),
            }
        }
        Command::Simulate {
            workflow,
            plan,
            fleet,
            noise,
            gantt,
            trace_out,
            metrics_out,
            phase_timings,
            fault_profile,
            vm_mtbf,
            timeout,
            backoff,
            replicate,
        } => {
            let wf = load_workflow(&workflow)?;
            let fleet = fleet_for(fleet)?;
            let plan = load_plan(&plan)?;
            plan.validate(&wf, &fleet)?;
            let cfg = SimConfig {
                fluctuation: match noise.as_str() {
                    "none" => FluctuationKind::None,
                    "mild" => FluctuationKind::Mild,
                    "heavy" => FluctuationKind::Heavy,
                    other => return Err(Error::Config(format!("unknown noise '{other}'"))),
                },
                faults: fault_config(&fault_profile, vm_mtbf, timeout, backoff)?,
                replication: replication_policy(&replicate)?,
                ..SimConfig::default()
            };
            let mut replay = FixedPlanScheduler::new(plan);
            let mut trace_file = open_trace(trace_out.as_ref())?;
            let res = {
                let mut tracer = match trace_file.as_mut() {
                    Some(f) => Tracer::new(&mut f.sink).with_timing(phase_timings),
                    None => Tracer::disabled(),
                };
                tracer.emit_with(|| TraceEvent::Header { producer: "wfsim.simulate" });
                simulate_traced(
                    &wf,
                    &fleet,
                    &mut replay,
                    &cfg,
                    SeedDerivation::new(0),
                    None,
                    &mut tracer,
                )?
            };
            close_trace(trace_file)?;
            let m = Metrics::compute(&wf, &fleet, &res);
            if let Some(path) = &metrics_out {
                let json = format!(
                    "{{\"success\":{},\"makespan_secs\":{},\"speedup\":{},\"efficiency\":{},\"slr\":{},\"mean_queue_secs\":{},\"mean_exec_secs\":{},\"utilization\":{},\"cost_usd\":{}}}\n",
                    res.success,
                    m.makespan_secs,
                    m.speedup,
                    m.efficiency,
                    m.slr,
                    m.mean_queue_secs,
                    m.mean_exec_secs,
                    m.utilization,
                    m.cost_usd
                );
                std::fs::write(path, json)
                    .map_err(|e| Error::Persistence(format!("{path}: {e}")))?;
            }
            w(out, format!("success: {}", res.success))?;
            w(out, format!("{m}"))?;
            if res.repl_stats.launched > 0 {
                w(
                    out,
                    format!(
                        "replication: {} launched, {} replica wins, {} cancelled, {:.1} PE-s wasted",
                        res.repl_stats.launched,
                        res.repl_stats.replica_wins,
                        res.repl_stats.cancelled,
                        res.repl_stats.waste_secs
                    ),
                )?;
            }
            if gantt {
                w(out, wfsim::trace::gantt(&res, &fleet, 72))?;
            }
            Ok(())
        }
        Command::TraceDiff { a, b, context } => {
            let left = read_trace_text(&a)?;
            let right = read_trace_text(&b)?;
            // Event-level diff: wall-clock `phase` lines are excluded,
            // so two seeded runs compare identical even when only one
            // was captured with --phase-timings.
            match trace_diff_events(&left, &right) {
                EventDiff::Identical { events } => w(out, format!("identical ({events} events)")),
                EventDiff::Diverged { event, left_line, right_line, .. } => {
                    w(out, format!("first divergence at event {event}:"))?;
                    w(
                        out,
                        format!("  left  {a} line {left_line}  [{}]", event_type_summary(&left)),
                    )?;
                    w(out, render_context(&left, left_line, context).trim_end().to_string())?;
                    w(
                        out,
                        format!("  right {b} line {right_line}  [{}]", event_type_summary(&right)),
                    )?;
                    w(out, render_context(&right, right_line, context).trim_end().to_string())?;
                    Err(Error::Execution(format!("traces diverge at line {left_line}")))
                }
            }
        }
        Command::TraceConvert { input, out: file } => {
            let bytes =
                std::fs::read(&input).map_err(|e| Error::Persistence(format!("{input}: {e}")))?;
            if obs::frame::is_binary(&bytes) {
                // binary → JSONL: stream frames back to text.
                let mut jsonl = Vec::new();
                let stats = obs_analyze::convert_bin_to_jsonl(&bytes[..], &mut jsonl)
                    .map_err(|e| Error::Persistence(format!("{input}: {e}")))?;
                match file {
                    Some(path) if path != "-" => {
                        std::fs::write(&path, &jsonl)
                            .map_err(|e| Error::Persistence(format!("{path}: {e}")))?;
                        w(
                            out,
                            format!(
                                "decoded {} frames ({} structured, {} raw) to {path}",
                                stats.total(),
                                stats.events,
                                stats.raw
                            ),
                        )
                    }
                    _ => {
                        out.write_all(&jsonl).map_err(|e| Error::Execution(e.to_string()))?;
                        Ok(())
                    }
                }
            } else {
                // JSONL → binary: frames only make sense in a file.
                let path = match file {
                    Some(p) if p != "-" => p,
                    _ => {
                        return Err(Error::Config(
                            "trace-convert: binary output requires --out FILE".into(),
                        ))
                    }
                };
                let text = String::from_utf8(bytes)
                    .map_err(|e| Error::Persistence(format!("{input}: {e}")))?;
                let (frames, stats) = obs_analyze::jsonl_to_frames(&text);
                std::fs::write(&path, &frames)
                    .map_err(|e| Error::Persistence(format!("{path}: {e}")))?;
                w(
                    out,
                    format!(
                        "encoded {} frames ({} structured, {} raw) to {path}",
                        stats.total(),
                        stats.events,
                        stats.raw
                    ),
                )
            }
        }
        Command::Analyze { mode, trace, json, gantt, rules } => {
            if mode == "slo" {
                // Offline SLO replay: re-run the rule engine over the
                // snapshot stream and diff against embedded breaches.
                // A mismatch is an integrity failure, not a report.
                let rules_path = rules
                    .as_deref()
                    .ok_or_else(|| Error::Config("analyze slo requires --rules".into()))?;
                let rule_text = std::fs::read_to_string(rules_path)
                    .map_err(|e| Error::Persistence(format!("{rules_path}: {e}")))?;
                let parsed = obs::slo::parse_rules(&rule_text).map_err(Error::Config)?;
                let text = read_trace_text(&trace)?;
                let replay = obs_analyze::replay_slo(&text, parsed);
                let report = if json {
                    obs_analyze::slo_report_json(&replay)
                } else {
                    obs_analyze::slo_report_human(&replay)
                };
                w(out, report.trim_end().to_string())?;
                return if replay.matches() {
                    Ok(())
                } else {
                    Err(Error::Execution(format!(
                        "slo replay mismatch: recomputed {} breach(es), stream embeds {}",
                        replay.recomputed.len(),
                        replay.embedded.len()
                    )))
                };
            }
            let bytes =
                std::fs::read(&trace).map_err(|e| Error::Persistence(format!("{trace}: {e}")))?;
            let analysis = if obs::frame::is_binary(&bytes) {
                // Streaming frame path: never materializes JSONL text.
                obs_analyze::analyze_frames(&bytes[..])
                    .map_err(|e| Error::Persistence(format!("{trace}: {e}")))?
            } else {
                let text = String::from_utf8(bytes)
                    .map_err(|e| Error::Persistence(format!("{trace}: {e}")))?;
                obs_analyze::analyze_str(&text)
            };
            // `mode` is validated at parse time ("trace" | "learn" | "slo").
            let report = match (mode.as_str(), json) {
                ("trace", true) => obs_analyze::trace_report_json(&analysis),
                ("trace", false) => obs_analyze::trace_report_human(&analysis, gantt),
                (_, true) => obs_analyze::learn_report_json(&analysis),
                (_, false) => obs_analyze::learn_report_human(&analysis),
            };
            w(out, report.trim_end().to_string())
        }
        Command::Cluster { workflow, mode, k, out: file } => {
            let wf = load_workflow(&workflow)?;
            let plan = match mode.as_str() {
                "horizontal" => wfsim::clustering::horizontal(&wf, k)?,
                "vertical" => wfsim::clustering::vertical(&wf)?,
                other => return Err(Error::Config(format!("unknown mode '{other}'"))),
            };
            let (clustered, _) = wfsim::clustering::apply(&wf, &plan)?;
            let xml = workflow::dax::write(&clustered);
            match file {
                Some(path) => {
                    std::fs::write(&path, xml)
                        .map_err(|e| Error::Persistence(format!("{path}: {e}")))?;
                    w(
                        out,
                        format!("clustered {} -> {} jobs, wrote {path}", wf.len(), clustered.len()),
                    )
                }
                None => w(out, xml),
            }
        }
        Command::Dot { workflow, out: file } => {
            let wf = load_workflow(&workflow)?;
            let dot = workflow::dot::to_dot(&wf);
            match file {
                Some(path) => {
                    std::fs::write(&path, dot)
                        .map_err(|e| Error::Persistence(format!("{path}: {e}")))?;
                    w(out, format!("wrote DOT graph to {path}"))
                }
                None => w(out, dot),
            }
        }
        Command::Serve {
            submissions,
            fleet,
            shards,
            workers,
            queue_cap,
            tenant_cap,
            weights,
            quantum,
            drain_rate,
            prov_keep,
            episodes,
            finetune,
            fault_profile,
            detail,
            trace_out,
            report_out,
            summary_out,
        } => {
            let text = if submissions == "-" {
                use std::io::Read as _;
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .map_err(|e| Error::Persistence(format!("stdin: {e}")))?;
                buf
            } else {
                std::fs::read_to_string(&submissions)
                    .map_err(|e| Error::Persistence(format!("{submissions}: {e}")))?
            };
            let subs = svc::parse_submissions(&text)?;
            let mut cfg = svc::ServiceConfig::with_paper_fleet(fleet)?;
            if let Some(s) = shards {
                cfg.shards = s;
            }
            if let Some(n) = workers {
                cfg.workers = n;
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
            cfg.faults = fault_config(&fault_profile, None, None, None)?;
            cfg.trace_detail = detail;
            // Extension picks the trace format: `.bin` streams the
            // canonical binary frames, anything else renders JSONL.
            let report = svc::run_batch_trace_out(&cfg, subs, trace_out.as_deref())?;
            if let Some(path) = &report_out {
                std::fs::write(path, report.bench_json())
                    .map_err(|e| Error::Persistence(format!("{path}: {e}")))?;
            }
            if let Some(path) = &summary_out {
                std::fs::write(path, report.all_tenant_summaries())
                    .map_err(|e| Error::Persistence(format!("{path}: {e}")))?;
            }
            w(out, format!("{}\n{}", report.human_summary(), report.all_tenant_summaries()))
        }
        Command::Execute { workflow, plan, fleet, compression } => {
            let wf = load_workflow(&workflow)?;
            let fleet = fleet_for(fleet)?;
            let plan = load_plan(&plan)?;
            let engine = scirun::ExecutionEngine::new(
                fleet,
                scirun::ExecConfig {
                    time_compression: compression,
                    jitter_cv: 0.03,
                    seed: 0,
                    ..scirun::ExecConfig::default()
                },
            )?;
            let report = engine.execute(&wf, &plan)?;
            w(
                out,
                format!(
                    "executed in {} virtual ({:.2} s wall), success: {}",
                    wfcommon::fmt::hms_millis(report.makespan),
                    report.wall_secs,
                    report.success
                ),
            )
        }
    }
}

fn generate(family: &str, size: usize, seed: u64) -> Result<Workflow> {
    use workflow::generators::*;
    match family {
        "montage" => {
            montage::generate(&montage::MontageParams::with_total_activations(size, seed)?)
        }
        "cybershake" => {
            cybershake::generate(&cybershake::CyberShakeParams::with_total_activations(size, seed)?)
        }
        "epigenomics" => epigenomics::generate(
            &epigenomics::EpigenomicsParams::with_total_activations(size, seed)?,
        ),
        "inspiral" => {
            inspiral::generate(&inspiral::InspiralParams::with_total_activations(size, seed)?)
        }
        "sipht" => sipht::generate(&sipht::SiphtParams::with_total_activations(size, seed)?),
        "layered" => layered::generate(&layered::LayeredParams {
            layers: (size / 10).max(2),
            width: 10.min(size).max(1),
            seed,
            ..layered::LayeredParams::default()
        }),
        other => Err(Error::Config(format!("unknown family '{other}'"))),
    }
}

fn load_workflow(path: &str) -> Result<Workflow> {
    let xml =
        std::fs::read_to_string(path).map_err(|e| Error::Persistence(format!("{path}: {e}")))?;
    workflow::dax::parse(&xml)
}

fn load_plan(path: &str) -> Result<Plan> {
    let json =
        std::fs::read_to_string(path).map_err(|e| Error::Persistence(format!("{path}: {e}")))?;
    serde_json::from_str(&json).map_err(|e| Error::Persistence(e.to_string()))
}

/// Resolve the `--fault-profile` name and overlay the scalar overrides
/// (`--vm-mtbf`, `--timeout`, `--backoff`) on top of it.
fn fault_config(
    profile: &str,
    vm_mtbf: Option<f64>,
    timeout: Option<f64>,
    backoff: Option<f64>,
) -> Result<cloud::FaultConfig> {
    let mut cfg = cloud::FaultConfig::from_profile(profile).ok_or_else(|| {
        Error::Config(format!("unknown fault profile '{profile}' (none|mild|heavy)"))
    })?;
    if let Some(h) = vm_mtbf {
        cfg.vm_mtbf_hours = h;
    }
    if let Some(s) = timeout {
        cfg.timeout_secs = s;
    }
    if let Some(s) = backoff {
        cfg.backoff_base_secs = s;
    }
    cfg.validate().map_err(Error::Config)?;
    Ok(cfg)
}

/// Resolve the `--replicate` spelling into a validated policy.
fn replication_policy(spec: &str) -> Result<cloud::ReplicationPolicy> {
    let p = cloud::ReplicationPolicy::parse(spec).ok_or_else(|| {
        Error::Config(format!("unknown replicate policy '{spec}' (off|static:K|learned)"))
    })?;
    p.validate().map_err(Error::Config)?;
    Ok(p)
}

fn fleet_for(vcpus: u32) -> Result<Fleet> {
    match vcpus {
        16 => Ok(Fleet::paper_16_vcpus()),
        32 => Ok(Fleet::paper_32_vcpus()),
        64 => Ok(Fleet::paper_64_vcpus()),
        other => Err(Error::Config(format!("--fleet must be 16, 32 or 64 (Table I); got {other}"))),
    }
}

fn plan_with(wf: &Workflow, fleet: &Fleet, scheduler: &str) -> Result<Plan> {
    if scheduler == "heft" {
        return Ok(sched::heft_plan(wf, fleet, 125.0e6)?.plan);
    }
    if scheduler == "peft" {
        return Ok(sched::peft_plan(wf, fleet, 125.0e6)?.plan);
    }
    if scheduler == "cpop" {
        return Ok(sched::cpop_plan(wf, fleet, 125.0e6)?.plan);
    }
    let mut boxed: Box<dyn wfsim::Scheduler> = match scheduler {
        "minmin" => Box::new(sched::MinMin),
        "maxmin" => Box::new(sched::MaxMin),
        "mct" => Box::new(sched::Mct),
        "dataaware" => Box::new(sched::DataAware::default()),
        "olb" => Box::new(sched::Olb::default()),
        "rr" => Box::new(sched::RoundRobin::default()),
        "random" => Box::new(sched::Random::new(SeedDerivation::new(0))),
        "fifo" => Box::new(sched::Fifo),
        other => return Err(Error::Config(format!("unknown scheduler '{other}'"))),
    };
    let res = simulate(
        wf,
        fleet,
        boxed.as_mut(),
        &SimConfig::deterministic(),
        SeedDerivation::new(0),
        None,
    )?;
    Ok(res.plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("reassign-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn run_str(cmd: Command) -> String {
        let mut buf = Vec::new();
        run(cmd, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    /// Run a command, tolerating the offline stub environment where
    /// serde_json cannot (de)serialize plans. Trace and metrics files
    /// are written *before* the plan serialization step, so the
    /// observability assertions stay valid either way. Returns whether
    /// the command fully succeeded.
    fn run_tolerating_stub_serde(cmd: Command) -> bool {
        match run(cmd, &mut Vec::new()) {
            Ok(()) => true,
            Err(e) if e.to_string().contains("stub") => false,
            Err(e) => panic!("unexpected CLI error: {e}"),
        }
    }

    #[test]
    fn serve_round_trip() {
        let dir = tmpdir();
        let subs_path = dir.join("subs.txt");
        let trace_path = dir.join("service.jsonl");
        std::fs::write(&subs_path, "alice montage 20 1\nbob montage 20 2\nalice cybershake 20 3\n")
            .unwrap();
        let serve_cmd = |trace_out: String| Command::Serve {
            submissions: subs_path.to_string_lossy().into_owned(),
            fleet: 16,
            shards: Some(2),
            workers: Some(1),
            queue_cap: None,
            tenant_cap: None,
            weights: Vec::new(),
            quantum: None,
            drain_rate: None,
            prov_keep: None,
            episodes: Some(2),
            finetune: Some(1),
            fault_profile: "none".into(),
            detail: false,
            trace_out: Some(trace_out),
            report_out: None,
            summary_out: None,
        };
        let out = run_str(serve_cmd(trace_path.to_string_lossy().into_owned()));
        assert!(out.contains("## tenant alice"), "summary has alice: {out}");
        assert!(out.contains("## tenant bob"), "summary has bob: {out}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"ev\":\"submit\""), "trace has submits: {trace}");
        assert!(trace.contains("\"ev\":\"enqueue\""), "trace has enqueues: {trace}");
        assert!(trace.contains("\"ev\":\"plan_done\""), "trace has plan_done: {trace}");

        // A `.bin` trace-out keeps the canonical binary frames, and
        // `trace-convert` recovers exactly the JSONL rendering.
        let bin_path = dir.join("service.trace.bin");
        run_str(serve_cmd(bin_path.to_string_lossy().into_owned()));
        let bin = std::fs::read(&bin_path).unwrap();
        assert!(obs::frame::is_binary(&bin), "binary trace-out starts with the magic");
        let jsonl_path = dir.join("service.decoded.jsonl");
        let converted = run_str(Command::TraceConvert {
            input: bin_path.to_string_lossy().into_owned(),
            out: Some(jsonl_path.to_string_lossy().into_owned()),
        });
        assert!(converted.contains("decoded"), "{converted}");
        assert_eq!(std::fs::read_to_string(&jsonl_path).unwrap(), trace);

        // trace-diff accepts mixed formats and sees the same events.
        let diffed = run_str(Command::TraceDiff {
            a: bin_path.to_string_lossy().into_owned(),
            b: trace_path.to_string_lossy().into_owned(),
            context: 2,
        });
        assert!(diffed.contains("identical"), "{diffed}");
    }

    #[test]
    fn trace_convert_round_trips_jsonl() {
        let dir = std::env::temp_dir().join(format!("reassign-cli-conv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wf_path = dir.join("wf6.dax");
        run_str(Command::Gen {
            family: "montage".into(),
            size: 50,
            seed: 12,
            out: Some(wf_path.to_string_lossy().into_owned()),
        });
        let trace_path = dir.join("learn.jsonl");
        run_tolerating_stub_serde(Command::Learn {
            workflow: wf_path.to_string_lossy().into_owned(),
            fleet: 16,
            episodes: 3,
            alpha: 0.5,
            gamma: 1.0,
            epsilon: 0.1,
            seed: 13,
            rollouts: 1,
            out: None,
            provenance: None,
            trace_out: Some(trace_path.to_string_lossy().into_owned()),
            metrics_out: None,
            phase_timings: false,
            fault_profile: "none".into(),
            vm_mtbf: None,
            timeout: None,
            backoff: None,
            replicate: "off".into(),
        });
        let original = std::fs::read_to_string(&trace_path).unwrap();
        assert!(original.contains("\"ev\":"), "learn wrote a real trace: {original}");

        let bin_path = dir.join("learn.trace.bin");
        let encoded = run_str(Command::TraceConvert {
            input: trace_path.to_string_lossy().into_owned(),
            out: Some(bin_path.to_string_lossy().into_owned()),
        });
        assert!(encoded.contains("encoded"), "{encoded}");
        assert!(obs::frame::is_binary(&std::fs::read(&bin_path).unwrap()));

        let back_path = dir.join("learn.back.jsonl");
        run_str(Command::TraceConvert {
            input: bin_path.to_string_lossy().into_owned(),
            out: Some(back_path.to_string_lossy().into_owned()),
        });
        assert_eq!(
            std::fs::read_to_string(&back_path).unwrap(),
            original,
            "JSONL → binary → JSONL must be byte identity"
        );

        // JSONL input without an output path cannot produce binary.
        let err = run(
            Command::TraceConvert { input: trace_path.to_string_lossy().into_owned(), out: None },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--out"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_info_plan_simulate_pipeline() {
        let dir = tmpdir();
        let wf_path = dir.join("wf.dax");
        let plan_path = dir.join("plan.json");

        let out = run_str(Command::Gen {
            family: "montage".into(),
            size: 50,
            seed: 1,
            out: Some(wf_path.to_string_lossy().into_owned()),
        });
        assert!(out.contains("50 activations"), "{out}");

        let info = run_str(Command::Info { workflow: wf_path.to_string_lossy().into_owned() });
        assert!(info.contains("activations: 50"));
        assert!(info.contains("mProjectPP"));

        let planned = run_str(Command::Plan {
            workflow: wf_path.to_string_lossy().into_owned(),
            scheduler: "heft".into(),
            fleet: 16,
            out: Some(plan_path.to_string_lossy().into_owned()),
        });
        assert!(planned.contains("heft plan"));

        let simulated = run_str(Command::Simulate {
            workflow: wf_path.to_string_lossy().into_owned(),
            plan: plan_path.to_string_lossy().into_owned(),
            fleet: 16,
            noise: "none".into(),
            gantt: true,
            trace_out: None,
            metrics_out: None,
            phase_timings: false,
            fault_profile: "none".into(),
            vm_mtbf: None,
            timeout: None,
            backoff: None,
            replicate: "off".into(),
        });
        assert!(simulated.contains("success: true"));
        assert!(simulated.contains("SLR"));
        assert!(simulated.contains("t2.micro-0"), "gantt missing: {simulated}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn learn_and_execute_pipeline() {
        let dir = tmpdir();
        let wf_path = dir.join("wf2.dax");
        let plan_path = dir.join("plan2.json");
        let prov_path = dir.join("prov.json");
        run_str(Command::Gen {
            family: "montage".into(),
            size: 50,
            seed: 2,
            out: Some(wf_path.to_string_lossy().into_owned()),
        });
        let learned = run_str(Command::Learn {
            workflow: wf_path.to_string_lossy().into_owned(),
            fleet: 16,
            episodes: 4,
            alpha: 0.5,
            gamma: 1.0,
            epsilon: 0.1,
            seed: 3,
            rollouts: 2,
            out: Some(plan_path.to_string_lossy().into_owned()),
            provenance: Some(prov_path.to_string_lossy().into_owned()),
            trace_out: None,
            metrics_out: None,
            phase_timings: false,
            fault_profile: "none".into(),
            vm_mtbf: None,
            timeout: None,
            backoff: None,
            replicate: "off".into(),
        });
        assert!(learned.contains("learned 4 episodes"), "{learned}");
        assert!(prov_path.exists());

        let executed = run_str(Command::Execute {
            workflow: wf_path.to_string_lossy().into_owned(),
            plan: plan_path.to_string_lossy().into_owned(),
            fleet: 16,
            compression: 50_000.0,
        });
        assert!(executed.contains("success: true"), "{executed}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn learn_rejects_zero_rollouts() {
        let err = run(
            Command::Learn {
                workflow: "unused.dax".into(),
                fleet: 16,
                episodes: 4,
                alpha: 0.5,
                gamma: 1.0,
                epsilon: 0.1,
                seed: 3,
                rollouts: 0,
                out: None,
                provenance: None,
                trace_out: None,
                metrics_out: None,
                phase_timings: false,
                fault_profile: "none".into(),
                vm_mtbf: None,
                timeout: None,
                backoff: None,
                replicate: "off".into(),
            },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--rollouts"), "{err}");
    }

    #[test]
    fn learn_traces_are_reproducible_and_diffable() {
        // The acceptance bar from the observability layer: `learn
        // --rollouts 4 --trace-out` run twice at the same seed yields
        // byte-identical traces, and `trace-diff` reports zero
        // divergence (and a nonzero error when they differ).
        // Own directory: concurrent tests remove the shared one.
        let dir = std::env::temp_dir().join(format!("reassign-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wf_path = dir.join("wf4.dax");
        run_str(Command::Gen {
            family: "montage".into(),
            size: 50,
            seed: 6,
            out: Some(wf_path.to_string_lossy().into_owned()),
        });
        let learn_cmd =
            |trace: &std::path::Path, metrics: Option<&std::path::Path>| Command::Learn {
                workflow: wf_path.to_string_lossy().into_owned(),
                fleet: 16,
                episodes: 4,
                alpha: 0.5,
                gamma: 1.0,
                epsilon: 0.1,
                seed: 7,
                rollouts: 4,
                out: None,
                provenance: None,
                trace_out: Some(trace.to_string_lossy().into_owned()),
                metrics_out: metrics.map(|m| m.to_string_lossy().into_owned()),
                phase_timings: false,
                fault_profile: "none".into(),
                vm_mtbf: None,
                timeout: None,
                backoff: None,
                replicate: "off".into(),
            };
        let trace_a = dir.join("a.jsonl");
        let trace_b = dir.join("b.jsonl");
        let metrics_path = dir.join("m.json");
        let full = run_tolerating_stub_serde(learn_cmd(&trace_a, Some(&metrics_path)));
        run_tolerating_stub_serde(learn_cmd(&trace_b, None));

        let diffed = run_str(Command::TraceDiff {
            a: trace_a.to_string_lossy().into_owned(),
            b: trace_b.to_string_lossy().into_owned(),
            context: 3,
        });
        assert!(diffed.contains("identical"), "{diffed}");

        // Metrics are written after the learn completes; in the offline
        // stub environment the run aborts at Q-snapshot serialization,
        // so only assert them when the command fully succeeded.
        if full {
            let metrics = std::fs::read_to_string(&metrics_path).unwrap();
            assert!(metrics.contains("\"episodes\":4"), "{metrics}");
            assert!(metrics.contains("\"td_updates\":200"), "{metrics}");
        }

        // A diverging pair is reported as an error naming the line.
        let trace_c = dir.join("c.jsonl");
        let mut differing = learn_cmd(&trace_c, None);
        if let Command::Learn { seed, .. } = &mut differing {
            *seed = 8;
        }
        run_tolerating_stub_serde(differing);
        let mut buf = Vec::new();
        let err = run(
            Command::TraceDiff {
                a: trace_a.to_string_lossy().into_owned(),
                b: trace_c.to_string_lossy().into_owned(),
                context: 2,
            },
            &mut buf,
        )
        .unwrap_err();
        assert!(err.to_string().contains("diverge"), "{err}");
        // The divergence report carries context windows and per-file
        // event summaries so the user can see *what kind* of event broke.
        let report = String::from_utf8(buf).unwrap();
        assert!(report.contains("first divergence at event"), "{report}");
        assert!(report.contains("header:1"), "{report}");
        assert!(report.contains('>'), "missing focal-line marker: {report}");

        // The same traces drive the analyze subcommands end to end.
        let analyzed = run_str(Command::Analyze {
            mode: "trace".into(),
            trace: trace_a.to_string_lossy().into_owned(),
            json: false,
            gantt: true,
            rules: None,
        });
        assert!(analyzed.contains("critical path"), "{analyzed}");
        assert!(analyzed.contains("vm utilization"), "{analyzed}");
        let learned = run_str(Command::Analyze {
            mode: "learn".into(),
            trace: trace_a.to_string_lossy().into_owned(),
            json: false,
            gantt: false,
            rules: None,
        });
        assert!(learned.contains("episodes"), "{learned}");
        let json_report = run_str(Command::Analyze {
            mode: "trace".into(),
            trace: trace_a.to_string_lossy().into_owned(),
            json: true,
            gantt: false,
            rules: None,
        });
        assert!(json_report.contains("\"critical_path\""), "{json_report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_slo_replays_snapshot_streams() {
        let dir = std::env::temp_dir().join(format!("reassign-cli-slo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snaps = dir.join("snaps.jsonl");
        let rules = dir.join("rules.slo");
        std::fs::write(
            &snaps,
            "{\"ev\":\"header\",\"v\":1,\"producer\":\"reassignd\"}\n\
             {\"ev\":\"snapshot\",\"tick\":1,\"seq\":10,\"queued\":2,\"vt\":1,\"backpressure\":0,\
             \"max_depth\":2,\"admitted\":10,\"shed\":0,\"plans\":9,\"hit_rate\":0.5,\
             \"plans_per_sec\":50,\"p50_sojourn_ms\":1,\"p99_sojourn_ms\":2}\n\
             {\"ev\":\"snapshot\",\"tick\":2,\"seq\":20,\"queued\":7,\"vt\":2,\"backpressure\":1,\
             \"max_depth\":7,\"admitted\":19,\"shed\":1,\"plans\":17,\"hit_rate\":0.6,\
             \"plans_per_sec\":45,\"p50_sojourn_ms\":1,\"p99_sojourn_ms\":3}\n\
             {\"ev\":\"slo_breach\",\"rule\":\"depth\",\"metric\":\"queued\",\"value\":7,\
             \"threshold\":5,\"tick\":2}\n",
        )
        .unwrap();
        std::fs::write(&rules, "# admission depth bound\ndepth queued > 5\n").unwrap();
        let replayed = run_str(Command::Analyze {
            mode: "slo".into(),
            trace: snaps.to_string_lossy().into_owned(),
            json: false,
            gantt: false,
            rules: Some(rules.to_string_lossy().into_owned()),
        });
        assert!(replayed.contains("BREACH depth"), "{replayed}");
        assert!(replayed.contains("offline replay matches the live engine"), "{replayed}");

        // Replaying with different rules than the live run fails loudly.
        let loose = dir.join("loose.slo");
        std::fs::write(&loose, "depth queued > 100\n").unwrap();
        let err = run(
            Command::Analyze {
                mode: "slo".into(),
                trace: snaps.to_string_lossy().into_owned(),
                json: false,
                gantt: false,
                rules: Some(loose.to_string_lossy().into_owned()),
            },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_writes_trace_and_metrics() {
        let dir =
            std::env::temp_dir().join(format!("reassign-cli-simtrace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wf_path = dir.join("wf5.dax");
        let plan_path = dir.join("plan5.json");
        run_str(Command::Gen {
            family: "montage".into(),
            size: 50,
            seed: 9,
            out: Some(wf_path.to_string_lossy().into_owned()),
        });
        run_tolerating_stub_serde(Command::Plan {
            workflow: wf_path.to_string_lossy().into_owned(),
            scheduler: "heft".into(),
            fleet: 16,
            out: Some(plan_path.to_string_lossy().into_owned()),
        });
        if !plan_path.exists() {
            // Offline stub environment: plan JSON needs real serde_json.
            // The simulate trace path is still covered end-to-end by
            // tests/golden_trace.rs, which bypasses plan files.
            std::fs::remove_dir_all(&dir).ok();
            return;
        }
        let trace_path = dir.join("sim.jsonl");
        let metrics_path = dir.join("sim.json");
        run_str(Command::Simulate {
            workflow: wf_path.to_string_lossy().into_owned(),
            plan: plan_path.to_string_lossy().into_owned(),
            fleet: 16,
            noise: "none".into(),
            gantt: false,
            trace_out: Some(trace_path.to_string_lossy().into_owned()),
            metrics_out: Some(metrics_path.to_string_lossy().into_owned()),
            phase_timings: true,
            fault_profile: "none".into(),
            vm_mtbf: None,
            timeout: None,
            backoff: None,
            replicate: "off".into(),
        });
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.starts_with("{\"ev\":\"header\""), "{trace}");
        assert!(trace.contains("\"ev\":\"sim_end\""));
        assert_eq!(trace.lines().filter(|l| l.contains("\"ev\":\"finish\"")).count(), 50);
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(metrics.contains("\"success\":true"), "{metrics}");
        assert!(metrics.contains("\"makespan_secs\":"), "{metrics}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_and_dot_commands() {
        let dir = tmpdir();
        let wf_path = dir.join("wf3.dax");
        run_str(Command::Gen {
            family: "montage".into(),
            size: 50,
            seed: 4,
            out: Some(wf_path.to_string_lossy().into_owned()),
        });
        let clustered = run_str(Command::Cluster {
            workflow: wf_path.to_string_lossy().into_owned(),
            mode: "horizontal".into(),
            k: 3,
            out: None,
        });
        assert!(clustered.contains("<adag"), "{clustered}");
        let dot =
            run_str(Command::Dot { workflow: wf_path.to_string_lossy().into_owned(), out: None });
        assert!(dot.starts_with("digraph"));
        let mut buf = Vec::new();
        assert!(run(
            Command::Cluster {
                workflow: wf_path.to_string_lossy().into_owned(),
                mode: "bogus".into(),
                k: 1,
                out: None,
            },
            &mut buf
        )
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_generator_families_work() {
        for family in ["montage", "cybershake", "epigenomics", "inspiral", "sipht", "layered"] {
            let out = run_str(Command::Gen { family: family.into(), size: 40, seed: 1, out: None });
            assert!(out.contains("<adag"), "{family}: {out}");
        }
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut buf = Vec::new();
        assert!(run(Command::Info { workflow: "/nonexistent.dax".into() }, &mut buf).is_err());
        assert!(run(
            Command::Gen { family: "bogus".into(), size: 10, seed: 0, out: None },
            &mut buf
        )
        .is_err());
        let err = run(
            Command::Plan {
                workflow: "/nonexistent.dax".into(),
                scheduler: "heft".into(),
                fleet: 48,
                out: None,
            },
            &mut buf,
        )
        .unwrap_err();
        // Fleet validation happens after workflow load; path error first.
        assert!(matches!(err, Error::Persistence(_)));
    }

    #[test]
    fn help_prints_usage() {
        let out = run_str(parse_args(&[]).unwrap());
        assert!(out.contains("USAGE"));
    }
}
