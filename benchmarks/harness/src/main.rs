//! The repository's benchmark: five seeded workloads over the public
//! functions of `reassign`, `svc`, `wfsim`, `sched`, `workflow` and the
//! crates beneath them. See `benchmarks/README.md`.
//!
//! `reassign-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//! prints one `workload metric value unit` line per metric and, last,
//! the result object the driver reads.

mod micro;
mod run;
mod stats;
mod trace;
mod workload;

use run::{learn_block, mirror_block, svc_block, Block, LearnMode};
use std::fmt::Write as _;
use std::process::ExitCode;
use trace::{Counts, Spans};
use wfcommon::Result;
use workload::{setup_learn, setup_svc, SvcShape, Workload};

/// End-to-end metrics, in `BENCHMARK.json`'s order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("plans_per_s", "1/s"),
    ("plan_ms_p50", "ms"),
    ("makespan_vs_heft", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in `BENCHMARK.json`'s order: `(name, unit)`. A
/// layer that is not on a workload's path reports 0 there.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("wfcommon.rng_stream_ns", "ns"),
    ("wfcommon.rng_draw_ns", "ns"),
    ("workflow.build_us", "us"),
    ("workflow.cache_us", "us"),
    ("workflow.dax_parse_us", "us"),
    ("sched.heft_us", "us"),
    ("cloud.fault_model_us", "us"),
    ("simkit.push_pop_ns", "ns"),
    ("wfsim.kernel_ns_per_event", "ns"),
    ("wfsim.events_per_episode", "count"),
    ("wfsim.replay_us", "us"),
    ("wfsim.replay_events_per_s", "1/s"),
    ("wfsim.retries_per_episode", "count"),
    ("wfsim.replicas_per_episode", "count"),
    ("qlearn.update_ns", "ns"),
    ("qlearn.argmax_ns", "ns"),
    ("qlearn.table_clone_us", "us"),
    ("reassign.decide_ns", "ns"),
    ("reassign.decides_per_episode", "count"),
    ("reassign.observe_ns", "ns"),
    ("reassign.td_updates_per_episode", "count"),
    ("reassign.agent_new_us", "us"),
    ("reassign.greedy_plan_us", "us"),
    ("reassign.episode_us", "us"),
    ("reassign.episodes_per_s", "1/s"),
    ("provenance.log_us", "us"),
    ("provenance.compact_us", "us"),
    ("obs.emit_ns", "ns"),
    ("obs.events_per_plan", "count"),
    ("obs.bytes_per_event", "B"),
    ("obs-analyze.frames_per_s", "1/s"),
    ("svc.submit_ns", "ns"),
    ("svc.wfq_offer_ns", "ns"),
    ("svc.wfq_dispatch_ns", "ns"),
    ("svc.qcache_lookup_us", "us"),
    ("svc.qcache_insert_us", "us"),
    ("svc.process_hit_us", "us"),
    ("svc.process_miss_us", "us"),
    ("svc.hit_rate", "ratio"),
    ("svc.episodes_per_plan", "count"),
    ("svc.drain_s", "s"),
    ("svc.shed", "count"),
    ("svc.sojourn_ms_tail", "ms"),
    ("harness.residual_frac", "ratio"),
    ("harness.trace_overhead_frac", "ratio"),
    ("harness.block_spread", "ratio"),
    ("harness.cpu_ms_per_plan", "ms"),
    ("harness.late_ms_p99", "ms"),
    ("harness.backlog_end", "count"),
    ("harness.plan_ms_tail", "ms"),
    ("harness.plan_ms_tail_q", "ratio"),
    ("harness.checksum", "count"),
    ("harness.failed_frac", "ratio"),
    ("harness.timer_ns", "ns"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (2019, 16.0_f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or_else(|| format!("--workload is one of {}", names.join(", ")))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn untraced_block(args: &Args, spans: &mut Spans) -> Result<Block> {
    if args.workload.is_svc() {
        svc_block(args.workload, args.seed, spans)
    } else {
        learn_block(args.workload, args.seed, LearnMode::Direct)
    }
}

/// What a run reports: its metrics by name, the operations attempted
/// and failed, and the output checks that were violated.
struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn fastest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// Per unit — the same index in every repetition — its fastest
/// repetition.
fn fastest_each<'a>(repetitions: impl Iterator<Item = &'a Vec<f64>> + Clone) -> Vec<f64> {
    let units = repetitions.clone().next().map_or(0, Vec::len);
    (0..units).map(|i| fastest(repetitions.clone().filter_map(|r| r.get(i).copied()))).collect()
}

/// The numbers a set of untraced blocks yields, end-to-end and about
/// the benchmark's own health.
///
/// Every block repeats the same operations, and on a shared machine
/// interference only ever slows one down (identical 2 s blocks ranged
/// over ±25% here, in spells of tens of milliseconds to seconds). So
/// each unit of work is judged by its fastest repetition across blocks:
/// a `learn` call, a saturated submission's service time on its worker,
/// a paced submission's sojourn, a set-up. Anything the program does on
/// every repetition is in the fastest one too.
///
/// Also returns the fastest-repetition seconds per plan of the timed
/// segment.
fn summarize(blocks: &[Block], warmup: &Block, burst: u64) -> (Outcome, f64) {
    let timed: Vec<f64> = blocks.iter().map(|b| b.timed_s).collect();
    let plans_per_block = blocks[0].plans;
    let best = |of: fn(&Block) -> &Vec<f64>| fastest_each(blocks.iter().map(of));
    let best_ms: Vec<f64> = best(|b| &b.plan_ms).into_iter().filter(|ms| ms.is_finite()).collect();
    // The timed segment at its fastest: its longest lane, then what
    // runs after the lanes.
    let mut lane_ms = [0.0f64; 256];
    for (ms, &lane) in best(|b| &b.units_ms).iter().zip(&blocks[0].lanes) {
        if ms.is_finite() {
            lane_ms[lane as usize] += ms;
        }
    }
    let timed_s = (lane_ms.iter().copied().fold(0.0, f64::max)
        + fastest(blocks.iter().map(|b| b.serial_ms)))
        / 1e3;
    let every_ms: Vec<f64> =
        blocks.iter().flat_map(|b| b.plan_ms.iter().copied()).filter(|ms| ms.is_finite()).collect();
    let (ratio_sum, ratio_n) =
        blocks.iter().fold((0.0, 0), |(s, n), b| (s + b.ratio_sum, n + b.ratio_n));
    let attempted: u64 = blocks.iter().map(|b| b.attempted).sum();
    let failed: u64 = blocks.iter().map(|b| b.failed).sum();
    let mut errors: Vec<String> = blocks.iter().flat_map(|b| b.errors.iter().cloned()).collect();
    let warmup_checksum = warmup.checksum;
    if blocks.iter().any(|b| b.checksum != warmup_checksum) {
        errors.push("blocks of one run disagree on their makespan checksum".into());
    }
    if best_ms.is_empty() || ratio_n == 0 {
        errors.push("no plan completed".into());
    }
    let (tail_q, tail_ms) = if every_ms.is_empty() { (0.0, 0.0) } else { stats::tail(&every_ms) };
    let cpu_s: f64 = blocks.iter().map(|b| b.cpu_s).sum();
    let cpu_plans: u64 = blocks.iter().map(|b| b.cpu_plans).sum();
    let mut metrics = vec![
        ("setup_s", fastest(blocks.iter().map(|b| b.setup_s))),
        ("plans_per_s", plans_per_block as f64 / timed_s),
        ("plan_ms_p50", if best_ms.is_empty() { 0.0 } else { stats::median(&best_ms) }),
        ("makespan_vs_heft", ratio_sum / ratio_n.max(1) as f64),
        ("peak_rss_mb", warmup.rss_mb),
        ("harness.block_spread", stats::spread(&timed)),
        ("harness.cpu_ms_per_plan", cpu_s * 1e3 / cpu_plans.max(1) as f64),
        ("harness.plan_ms_tail", tail_ms),
        ("harness.plan_ms_tail_q", tail_q),
        ("harness.checksum", (warmup_checksum % (1 << 32)) as f64),
        ("harness.failed_frac", failed as f64 / attempted.max(1) as f64),
    ];
    let svc: Vec<&run::SvcBlock> = blocks.iter().filter_map(|b| b.svc.as_ref()).collect();
    if !svc.is_empty() {
        let mut late: Vec<f64> = svc.iter().flat_map(|s| s.late_ms.iter().copied()).collect();
        late.sort_by(f64::total_cmp);
        let sum = |f: fn(&run::SvcBlock) -> u64| svc.iter().map(|s| f(s)).sum::<u64>() as f64;
        // The offered rate is sustained if the typical block ends with
        // no more than four bursts in flight (a slow spell of the
        // machine can leave more in any one block).
        let backlog_end =
            stats::median(&svc.iter().map(|s| s.backlog_end as f64).collect::<Vec<_>>());
        if backlog_end > 4.0 * burst as f64 {
            errors.push(format!(
                "offered rate not sustained: {backlog_end} submissions in flight after the last burst"
            ));
        }
        let plans = sum(|s| s.completed).max(1.0);
        let mean_of = |f: fn(&run::SvcBlock) -> f64| {
            stats::mean(&svc.iter().map(|s| f(s)).collect::<Vec<_>>())
        };
        metrics.extend([
            ("harness.late_ms_p99", late[(late.len() * 99 / 100).min(late.len() - 1)]),
            ("harness.backlog_end", backlog_end),
            ("svc.submit_ns", mean_of(|s| s.submit_ns)),
            ("svc.hit_rate", sum(|s| s.cache_hits) / sum(|s| s.cache_lookups).max(1.0)),
            ("svc.episodes_per_plan", sum(|s| s.episodes) / plans),
            ("svc.drain_s", mean_of(|s| s.drain_s)),
            ("svc.shed", sum(|s| s.shed)),
            ("svc.sojourn_ms_tail", tail_ms),
            ("obs.events_per_plan", sum(|s| s.trace_events) / plans),
            ("obs.bytes_per_event", sum(|s| s.trace_bytes) / sum(|s| s.trace_events).max(1.0)),
        ]);
    }
    (Outcome { metrics, attempted, failed, errors }, timed_s / plans_per_block as f64)
}

/// The traced run's per-layer numbers from spans, counts and
/// micro-drives.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    spans: &Spans,
    counts: &Counts,
    timer_ns: f64,
    traced_s_per_plan: f64,
    untraced_s_per_plan: f64,
    last: &Block,
) -> Result<Vec<(&'static str, f64)>> {
    let names = spans.by_name();
    let get = |name: &str| names.get(name).copied().unwrap_or_default();
    let mean_us = |name: &str| {
        let t = get(name);
        t.total_ns as f64 / 1e3 / t.spans.max(1) as f64
    };
    let per_call_ns = |name: &str| {
        let t = get(name);
        (t.total_ns as f64 / t.calls.max(1) as f64 - timer_ns).max(0.0)
    };
    let episodes = counts.episodes.max(1) as f64;
    let (decide, observe, simulate) =
        (get("reassign.decide"), get("reassign.observe"), get("wfsim.simulate"));
    let kernel_ns = simulate.self_ns as f64 - timer_ns * (decide.calls + observe.calls) as f64;
    let plan_span = if args.workload.is_svc() { "svc.process" } else { "reassign.learn" };
    // Glue: time inside the harness's grouping spans that no call into
    // a layer accounts for.
    let glue: i64 =
        ["svc.process", "reassign.learn", "reassign.episode"].iter().map(|n| get(n).self_ns).sum();
    let mut out = vec![
        ("wfcommon.rng_stream_ns", micro::rng_stream_ns(args.seed)),
        ("wfcommon.rng_draw_ns", micro::rng_draw_ns(args.seed)),
        ("workflow.build_us", mean_us("workflow.build")),
        ("workflow.cache_us", mean_us("workflow.cache")),
        ("sched.heft_us", mean_us("sched.heft")),
        ("wfsim.kernel_ns_per_event", kernel_ns.max(0.0) / counts.sim_events.max(1) as f64),
        ("wfsim.events_per_episode", counts.sim_events as f64 / episodes),
        ("wfsim.replay_us", mean_us("wfsim.replay")),
        (
            "wfsim.replay_events_per_s",
            counts.replay_events as f64 / (get("wfsim.replay").total_ns.max(1) as f64 / 1e9),
        ),
        ("wfsim.retries_per_episode", counts.retries as f64 / episodes),
        ("wfsim.replicas_per_episode", counts.replicas as f64 / episodes),
        ("reassign.decide_ns", per_call_ns("reassign.decide")),
        ("reassign.decides_per_episode", decide.calls as f64 / episodes),
        ("reassign.observe_ns", per_call_ns("reassign.observe")),
        ("reassign.td_updates_per_episode", counts.td_updates as f64 / episodes),
        ("reassign.agent_new_us", mean_us("reassign.agent_new")),
        ("reassign.greedy_plan_us", mean_us("reassign.greedy_plan")),
        ("reassign.episode_us", mean_us("reassign.episode")),
        (
            "reassign.episodes_per_s",
            counts.episodes as f64 / (get("reassign.episode").total_ns.max(1) as f64 / 1e9),
        ),
        ("harness.residual_frac", glue as f64 / get(plan_span).total_ns.max(1) as f64),
        ("harness.trace_overhead_frac", traced_s_per_plan / untraced_s_per_plan - 1.0),
        ("harness.timer_ns", timer_ns),
    ];

    // Micro-drives at this workload's shapes.
    let (rows, cols, depth, faults, sim, dax_us);
    if args.workload.is_svc() {
        let inputs = setup_svc(args.workload, args.seed, &mut Spans::disabled())?;
        let largest = inputs.inputs.iter().max_by_key(|i| i.wf.len()).expect("has workflows");
        (rows, cols) = (largest.wf.len(), inputs.config.fleet.len());
        sim = wfsim::SimConfig::deterministic();
        faults = inputs.config.faults;
        depth = micro::max_queue_depth(&largest.wf, &inputs.config.fleet, &largest.heft, &sim)?;
        dax_us = micro::dax_parse_us(inputs.inputs.iter().map(|i| &i.wf))?;
        let svc = last.svc.as_ref().expect("service block");
        let (saturated, _) = svc.reports.as_ref().expect("traced runs keep the reports");
        let (offer, dispatch) = micro::wfq(&inputs.config, &saturated.results);
        let (log, compact) = micro::provenance(&inputs.config, &saturated.results);
        let mean_of = |ns: u64, n: u64| ns as f64 / 1e3 / n.max(1) as f64;
        out.extend([
            ("svc.wfq_offer_ns", offer),
            ("svc.wfq_dispatch_ns", dispatch),
            ("provenance.log_us", log),
            ("provenance.compact_us", compact),
            ("obs.emit_ns", micro::emit_ns(saturated)),
            ("obs-analyze.frames_per_s", micro::analyze_frames_per_s(saturated)),
            ("svc.qcache_lookup_us", mean_us("svc.qcache_lookup")),
            ("svc.qcache_insert_us", mean_us("svc.qcache_insert")),
            ("svc.process_hit_us", mean_of(counts.hit_ns, counts.hits)),
            ("svc.process_miss_us", mean_of(counts.miss_ns, counts.misses)),
        ]);
        inputs.discard()?;
    } else {
        let inputs = setup_learn(args.workload, args.seed, &mut Spans::disabled())?;
        let largest = inputs.inputs.iter().max_by_key(|i| i.wf.len()).expect("has workflows");
        let fleet = &inputs.fleets.last().expect("has fleets").1;
        (rows, cols) = (largest.wf.len(), fleet.len());
        sim = inputs.sim.clone();
        faults = sim.faults;
        depth = micro::max_queue_depth(&largest.wf, fleet, &largest.heft, &sim)?;
        dax_us = mean_us("workflow.dax_parse");
    }
    let (update, argmax, clone) = micro::qtable(rows, cols, args.seed)?;
    out.extend([
        ("workflow.dax_parse_us", dax_us),
        ("cloud.fault_model_us", micro::fault_model_us(faults, cols, &sim, args.seed)),
        ("simkit.push_pop_ns", micro::push_pop_ns((depth / 2).max(1) as usize, args.seed)),
        ("qlearn.update_ns", update),
        ("qlearn.argmax_ns", argmax),
        ("qlearn.table_clone_us", clone),
    ]);
    Ok(out)
}

/// One traced block: the workload's plans through the re-compositions.
/// Returns each plan's wall, milliseconds, and what differed from
/// `reference`, the untraced block before it.
fn traced_block(
    args: &Args,
    reference: &Block,
    spans: &mut Spans,
    counts: &mut Counts,
) -> Result<(Vec<f64>, Vec<String>)> {
    if !args.workload.is_svc() {
        let block = learn_block(args.workload, args.seed, LearnMode::Traced(spans, counts))?;
        let mut errors = block.errors;
        if block.checksum != reference.checksum {
            errors.push("re-composed learning loop does not reproduce `learn` bit for bit".into());
        }
        return Ok((block.plan_ms, errors));
    }
    let svc = reference.svc.as_ref().expect("service block");
    let (saturated, paced) = svc.reports.as_ref().expect("traced runs keep the reports");
    let (plan_ms, mut errors) =
        mirror_block(args.workload, args.seed, [saturated, paced], spans, counts)?;
    errors.truncate(8);
    Ok((plan_ms, errors))
}

fn run(args: &Args) -> Result<Outcome> {
    let total_blocks = (args.seconds / args.workload.block_seconds()).round().max(2.0) as usize;
    let mut spans = if args.trace { Spans::enabled() } else { Spans::disabled() };
    let mut warmup = untraced_block(args, &mut spans)?;
    // Memory is read once, after the first block of a fresh process:
    // later blocks repeat it and only add what the allocator retains.
    warmup.rss_mb = peak_rss_mb();
    if let Some(svc) = &mut warmup.svc {
        svc.reports = None;
    }
    let burst = if args.workload.is_svc() { SvcShape::of(args.workload).burst as u64 } else { 0 };
    if !args.trace {
        let mut blocks = Vec::new();
        for _ in 1..total_blocks {
            let mut block = untraced_block(args, &mut spans)?;
            if let Some(svc) = &mut block.svc {
                svc.reports = None;
            }
            blocks.push(block);
        }
        return Ok(summarize(&blocks, &warmup, burst).0);
    }

    // Traced run: untraced and traced blocks alternate, so the two see
    // the same machine; a traced block costs about 1.5 untraced ones.
    let pairs = ((total_blocks - 1) * 2 / 5).max(1);
    let timer_ns = micro::timer_ns();
    let mut counts = Counts::default();
    let (mut untraced, mut traced_ms, mut errors) = (Vec::<Block>::new(), Vec::new(), Vec::new());
    let mut spans_to_write = None;
    for _ in 0..pairs {
        // Only the latest block's service reports are still needed.
        if let Some(svc) = untraced.last_mut().and_then(|b| b.svc.as_mut()) {
            svc.reports = None;
        }
        let block = untraced_block(args, &mut spans)?;
        let (plan_ms, diffs) = traced_block(args, &block, &mut spans, &mut counts)?;
        // The spans file holds the first pair; the metrics use them all.
        spans_to_write.get_or_insert(spans.spans.len());
        traced_ms.push(plan_ms);
        errors.extend(diffs);
        untraced.push(block);
    }
    // Traced cost per plan, by each plan's fastest traced repetition.
    let traced_best_ms = fastest_each(traced_ms.iter());
    let traced_s_per_plan = traced_best_ms.iter().sum::<f64>() / 1e3 / traced_best_ms.len() as f64;
    let (s, s_per_plan) = summarize(&untraced, &warmup, burst);
    errors.extend(s.errors);
    // Untraced cost per plan: wall for the serial learner, CPU for the
    // two-worker service (its re-composition runs on one thread).
    let untraced_s_per_plan = if args.workload.is_svc() {
        untraced.iter().map(|b| b.cpu_s).sum::<f64>()
            / untraced.iter().map(|b| b.cpu_plans).sum::<u64>() as f64
    } else {
        s_per_plan
    };
    let last = untraced.last().expect("at least one pair");
    let mut metrics =
        per_layer(args, &spans, &counts, timer_ns, traced_s_per_plan, untraced_s_per_plan, last)?;
    metrics.extend(s.metrics);
    let out = std::path::Path::new("benchmarks/out");
    let written = std::fs::create_dir_all(out).and_then(|_| {
        let path = out.join(format!("{}.spans.jsonl", args.workload.name()));
        spans.write_jsonl(&path, spans_to_write.unwrap_or(0))
    });
    if let Err(e) = written {
        errors.push(format!("cannot write spans: {e}"));
    }
    Ok(Outcome { metrics, attempted: s.attempted, failed: s.failed, errors })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("reassign-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Outcome { metrics, attempted, failed, errors } = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("reassign-benchmark: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for e in &errors {
        eprintln!("reassign-benchmark: check failed: {e}");
    }
    let unit_of = |name: &str| {
        END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map(|(_, u)| *u)
    };
    for (name, value) in &metrics {
        let unit = unit_of(name).expect("every reported metric is declared");
        println!("{} {name} {value} {unit}", args.workload.name());
    }
    // The driver's line: exactly the declared set for this kind of run;
    // a layer not on this workload's path reads 0.
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        errors.is_empty()
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = metrics.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    let kind = if args.trace { ".traced" } else { "" };
    let path = format!("benchmarks/out/{}{kind}.json", args.workload.name());
    if let Err(e) =
        std::fs::create_dir_all("benchmarks/out").and_then(|_| std::fs::write(&path, &line))
    {
        eprintln!("reassign-benchmark: cannot write {path}: {e}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// `BENCHMARK.json` declares exactly the metrics this binary prints,
    /// with the same units, in the same order.
    #[test]
    fn benchmark_json_declares_the_metrics_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let json: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json at the repository root")
            .split_whitespace()
            .collect();
        // Each section runs from its key to the array's closing bracket.
        let section = |key: &str| {
            let from = json.find(&format!("\"{key}\":[")).expect("section present");
            let to = from + json[from..].find(']').expect("array closes");
            json[from..to].to_string()
        };
        for (metrics, text) in
            [(&END_TO_END[..], section("end_to_end")), (&PER_LAYER[..], section("per_layer"))]
        {
            assert_eq!(text.matches("\"name\":").count(), metrics.len());
            let mut at = 0;
            for (name, unit) in metrics {
                let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
                at += text[at..]
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{entry} missing or out of order"));
            }
        }
    }
}
