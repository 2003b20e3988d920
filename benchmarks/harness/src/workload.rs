//! The five workloads: their fixed operation counts and their set-up
//! segments (inputs, fleets, HEFT reference plans and replays).
//!
//! Counts were calibrated once on the reference machine (2 cores) so
//! that one block — set-up plus timed segment — lasts about
//! [`Workload::block_seconds`], then frozen: a run's length follows `--seconds`
//! through the number of blocks only, never through how fast a block
//! went. The README's calibration table lists what each count measured.

use crate::trace::Spans;
use cloud::{FaultConfig, Fleet, ReplicationPolicy};
use rand::seq::SliceRandom as _;
use rand::Rng as _;
use reassign::ReassignConfig;
use std::collections::HashMap;
use svc::{
    generate_submissions, tenant_name, LoadgenSpec, Service, ServiceConfig, Submission,
    WorkflowSpec,
};
use wfcommon::{Error, Result, SeedDerivation};
use wfsim::{simulate, FixedPlanScheduler, FluctuationKind, Plan, SimConfig};
use workflow::generators::{cybershake, epigenomics, montage};
use workflow::Workflow;

/// The paper's sweep grid: α, γ, ε ∈ {0.1, 0.5, 1.0}.
const GRID: [f64; 3] = [0.1, 0.5, 1.0];

/// learn-large: workflow instances per family per block.
const LARGE_INSTANCES: u64 = 2;
const LARGE_ACTIVATIONS: usize = 1000;
const LARGE_EPISODES: u32 = 6;
/// learn-faulty: learner seeds per block for montage50 and for the
/// 100-activation CyberShake. Unequal on purpose: the two workflows'
/// plan times form two modes, and with a 1:2 split the pooled median
/// sits inside the larger mode instead of on the gap between them.
const FAULTY_MONTAGE_SEEDS: u64 = 15;
const FAULTY_CYBERSHAKE_SEEDS: u64 = 30;
/// Set-up repetitions per block (the set-up segment is timed as a whole
/// and divided by this), so that a millisecond set-up is resolved.
const PAPER_SETUP_REPS: u32 = 16;
const LARGE_SETUP_REPS: u32 = 1;
const FAULTY_SETUP_REPS: u32 = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LearnPaper,
    LearnLarge,
    LearnFaulty,
    SvcWarm,
    SvcChurn,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::LearnPaper,
        Workload::LearnLarge,
        Workload::LearnFaulty,
        Workload::SvcWarm,
        Workload::SvcChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LearnPaper => "learn-paper",
            Workload::LearnLarge => "learn-large",
            Workload::LearnFaulty => "learn-faulty",
            Workload::SvcWarm => "svc-warm",
            Workload::SvcChurn => "svc-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_svc(self) -> bool {
        matches!(self, Workload::SvcWarm | Workload::SvcChurn)
    }

    /// Nominal wall time of one block — set-up, timed segment and
    /// checks — on the reference machine; `--seconds` ÷ this is the
    /// number of blocks a run makes.
    pub fn block_seconds(self) -> f64 {
        match self {
            Workload::LearnPaper => 0.5,
            Workload::LearnLarge => 0.5,
            Workload::LearnFaulty => 0.7,
            Workload::SvcWarm => 0.8,
            Workload::SvcChurn => 1.3,
        }
    }

    /// How many times a block repeats its set-up (see the constants).
    pub fn setup_reps(self) -> u32 {
        match self {
            Workload::LearnPaper => PAPER_SETUP_REPS,
            Workload::LearnLarge => LARGE_SETUP_REPS,
            Workload::LearnFaulty => FAULTY_SETUP_REPS,
            Workload::SvcWarm => SVC_WARM.setup_reps,
            Workload::SvcChurn => SVC_CHURN.setup_reps,
        }
    }
}

/// Lower bound on any makespan of `wf` on `fleet`: the critical path
/// with every activation on the fastest processing element and all
/// transfers free.
pub fn critical_path_bound(wf: &Workflow, fleet: &Fleet) -> Result<f64> {
    let fastest = fleet.iter().map(|(_, vm)| vm.vm_type.mips_per_pe).fold(0.0, f64::max);
    let weights: Vec<f64> = wf.activations.values().map(|a| a.length_mi / fastest).collect();
    dag::critical_path(&wf.dag, &weights)
        .map(|cp| cp.length)
        .map_err(|e| Error::InvalidWorkflow(e.to_string()))
}

/// A workflow as the program receives it, with what the checks and the
/// reference plan need.
pub struct Input {
    pub wf: Workflow,
    pub heft: Plan,
    pub cp_bound_secs: f64,
}

/// Generate → serialize → parse, the way a scientist's DAX file reaches
/// `reassign-cli learn`, then plan the HEFT reference.
fn dax_input(
    generated: Workflow,
    fleet: &Fleet,
    bandwidth: f64,
    spans: &mut Spans,
) -> Result<Input> {
    let xml = workflow::dax::write(&generated);
    let wf = spans.time("workflow.dax_parse", |_| workflow::dax::parse(&xml))?;
    let heft = spans.time("sched.heft", |_| sched::heft_plan(&wf, fleet, bandwidth))?.plan;
    let cp_bound_secs = critical_path_bound(&wf, fleet)?;
    Ok(Input { wf, heft, cp_bound_secs })
}

/// One `reassign::learn` call of a learn workload.
pub struct LearnCase {
    pub input: usize,
    pub fleet: usize,
    pub config: ReassignConfig,
    /// HEFT's plan replayed under the configuration and seed `learn`
    /// replays its greedy plan with; `None` when that replay did not
    /// complete (possible under injected faults only).
    pub heft_makespan_secs: Option<f64>,
}

pub struct LearnInputs {
    pub inputs: Vec<Input>,
    pub fleets: Vec<(String, Fleet)>,
    pub sim: SimConfig,
    pub cases: Vec<LearnCase>,
}

/// The configuration `learn` evaluates its greedy plan under.
pub fn greedy_eval_config(sim: &SimConfig) -> SimConfig {
    SimConfig { fluctuation: FluctuationKind::None, ..sim.clone() }
}

/// The seeds `learn` evaluates its greedy plan with.
pub fn greedy_eval_seeds(learner_seed: u64) -> SeedDerivation {
    SeedDerivation::new(SeedDerivation::new(learner_seed).seed_for("greedy-eval", 0))
}

/// The set-up segment of a learn workload for `seed`.
pub fn setup_learn(workload: Workload, seed: u64, spans: &mut Spans) -> Result<LearnInputs> {
    let seeds = SeedDerivation::new(seed);
    let mut sim = SimConfig::default();
    let bandwidth = sim.bandwidth_bytes_per_sec;
    let label = |vcpus: u32| format!("{vcpus}vcpus");
    let mut inputs = Vec::new();
    let mut cases = Vec::new();
    let fleets: Vec<(String, Fleet)>;
    match workload {
        Workload::LearnPaper => {
            fleets = Fleet::paper_fleets().into_iter().map(|(v, f)| (label(v), f)).collect();
            let generated = spans.time("workflow.build", |_| workflow::montage50::montage50());
            // One parsed workflow, one HEFT reference per fleet.
            for (_, fleet) in &fleets {
                inputs.push(dax_input(generated.clone(), fleet, bandwidth, spans)?);
            }
            let learner_seed = seeds.seed_for("learn-paper", 0);
            for fleet in 0..fleets.len() {
                for alpha in GRID {
                    for gamma in GRID {
                        for epsilon in GRID {
                            let config = ReassignConfig {
                                episodes: 100,
                                seed: learner_seed,
                                ..ReassignConfig::sweep_point(alpha, gamma, epsilon)
                            };
                            cases.push((fleet, fleet, config));
                        }
                    }
                }
            }
        }
        Workload::LearnLarge => {
            fleets = vec![(label(64), Fleet::paper_64_vcpus())];
            for instance in 0..LARGE_INSTANCES {
                let wf_seed = seeds.seed_for("learn-large-workflow", instance);
                let n = LARGE_ACTIVATIONS;
                let generated = spans.time("workflow.build", |_| -> Result<_> {
                    Ok([
                        montage::generate(&montage::MontageParams::with_total_activations(
                            n, wf_seed,
                        )?)?,
                        cybershake::generate(
                            &cybershake::CyberShakeParams::with_total_activations(n, wf_seed)?,
                        )?,
                        epigenomics::generate(
                            &epigenomics::EpigenomicsParams::with_total_activations(n, wf_seed)?,
                        )?,
                    ])
                })?;
                for wf in generated {
                    let config = ReassignConfig {
                        episodes: LARGE_EPISODES,
                        seed: seeds.seed_for("learn-large", instance),
                        ..ReassignConfig::default()
                    };
                    cases.push((inputs.len(), 0, config));
                    inputs.push(dax_input(wf, &fleets[0].1, bandwidth, spans)?);
                }
            }
        }
        Workload::LearnFaulty => {
            fleets = vec![(label(16), Fleet::paper_16_vcpus())];
            sim = SimConfig {
                faults: FaultConfig::heavy(),
                max_retries: 30,
                replication: ReplicationPolicy::learned_heuristic(),
                ..sim
            };
            let generated = spans.time("workflow.build", |_| -> Result<_> {
                let wf_seed = seeds.seed_for("learn-faulty-workflow", 0);
                Ok([
                    workflow::montage50::montage50(),
                    cybershake::generate(&cybershake::CyberShakeParams::with_total_activations(
                        100, wf_seed,
                    )?)?,
                ])
            })?;
            for (wf, count) in
                generated.into_iter().zip([FAULTY_MONTAGE_SEEDS, FAULTY_CYBERSHAKE_SEEDS])
            {
                for i in 0..count {
                    let config = ReassignConfig {
                        episodes: 100,
                        failure_penalty: 10.0,
                        seed: seeds.seed_for("learn-faulty", i),
                        ..ReassignConfig::default()
                    };
                    cases.push((inputs.len(), 0, config));
                }
                inputs.push(dax_input(wf, &fleets[0].1, bandwidth, spans)?);
            }
        }
        Workload::SvcWarm | Workload::SvcChurn => unreachable!("not a learn workload"),
    }
    let eval = greedy_eval_config(&sim);
    let cases = cases
        .into_iter()
        .map(|(input, fleet, config)| {
            let replay = spans.time("wfsim.heft_replay", |_| {
                simulate(
                    &inputs[input].wf,
                    &fleets[fleet].1,
                    &mut FixedPlanScheduler::new(inputs[input].heft.clone()),
                    &eval,
                    greedy_eval_seeds(config.seed),
                    None,
                )
            })?;
            let heft_makespan_secs = replay.success.then(|| replay.makespan.as_secs());
            Ok(LearnCase { input, fleet, config, heft_makespan_secs })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(LearnInputs { inputs, fleets, sim, cases })
}

/// Shape of a service workload.
pub struct SvcShape {
    pub tenants: u32,
    pub sizes: &'static [usize],
    pub workflow_seeds: u64,
    /// Submissions of the saturated phase (closed: all offered at once).
    pub saturated: u32,
    /// Open-loop phase: `bursts` bursts of `burst` submissions, one burst
    /// every `gap_ms`.
    pub bursts: u32,
    pub burst: u32,
    pub gap_ms: u64,
    pub churn: bool,
    pub setup_reps: u32,
}

/// svc-warm: the shipped loadgen mix, where the Q-cache almost always
/// hits. 2500 submissions/s offered in the paced phase, about a seventh
/// of what two workers complete.
pub const SVC_WARM: SvcShape = SvcShape {
    tenants: 16,
    sizes: &[20, 30],
    workflow_seeds: 2,
    saturated: 4000,
    bursts: 40,
    burst: 25,
    gap_ms: 10,
    churn: false,
    setup_reps: 4,
};

/// svc-churn: 24 sizes × 5 families × 64 workflow seeds × 1000 tenants,
/// so most submissions miss the Q-cache (120 keys × 4 shards against 600
/// submissions); detailed traces, mild faults, static:2 replication and
/// provenance compaction all on. 600 submissions/s offered in the paced
/// phase, about a third of capacity.
pub const SVC_CHURN: SvcShape = SvcShape {
    tenants: 1000,
    sizes: &CHURN_SIZES,
    workflow_seeds: 64,
    saturated: 600,
    bursts: 60,
    burst: 6,
    gap_ms: 10,
    churn: true,
    setup_reps: 1,
};

/// 60, 64, …, 152: every family's `with_total_activations` accepts
/// each. A plan's cost grows about with the square of its size, so the
/// range is kept to 2.5× — with 20…176 the draw of sizes alone moved a
/// block's throughput by ±10% from one seed to the next.
const CHURN_SIZES: [usize; 24] = {
    let mut sizes = [0; 24];
    let mut i = 0;
    while i < 24 {
        sizes[i] = 60 + 4 * i;
        i += 1;
    }
    sizes
};

impl SvcShape {
    pub fn of(workload: Workload) -> &'static SvcShape {
        match workload {
            Workload::SvcWarm => &SVC_WARM,
            Workload::SvcChurn => &SVC_CHURN,
            _ => unreachable!("not a service workload"),
        }
    }

    pub fn paced(&self) -> u32 {
        self.bursts * self.burst
    }

    pub fn config(&self) -> Result<ServiceConfig> {
        let mut cfg = ServiceConfig::with_paper_fleet(16)?;
        if self.churn {
            cfg.trace_detail = true;
            cfg.faults = FaultConfig::mild();
            cfg.prov_keep_last = Some(4);
        }
        Ok(cfg)
    }
}

/// One phase of a service block: a started, idle service and what to
/// submit to it.
pub struct SvcPhase {
    pub service: Service,
    pub submissions: Vec<Submission>,
    /// Per submission: its workflow in [`SvcInputs::inputs`].
    pub input_of: Vec<usize>,
    /// Per submission: HEFT's plan replayed under the configuration and
    /// seeds the service replays its plan with (`None`: did not
    /// complete).
    pub heft_makespan_secs: Vec<Option<f64>>,
}

pub struct SvcInputs {
    pub config: ServiceConfig,
    /// The distinct workflows the submissions ask for.
    pub inputs: Vec<Input>,
    pub saturated: SvcPhase,
    pub paced: SvcPhase,
}

impl SvcInputs {
    /// Stop the idle services of a set-up that will not be used.
    pub fn discard(self) -> Result<()> {
        self.saturated.service.drain()?;
        self.paced.service.drain()?;
        Ok(())
    }
}

/// The configuration and seeds `svc::ShardState::process` replays a
/// submission's plan with.
pub fn service_replay(cfg: &ServiceConfig, sub: &Submission) -> (SimConfig, SeedDerivation) {
    let sim = SimConfig {
        faults: cfg.faults,
        replication: sub.replicate.clone(),
        ..SimConfig::deterministic()
    };
    (sim, SeedDerivation::new(SeedDerivation::new(sub.seed).seed_for("svc-replay", 0)))
}

/// What makes two submissions ask for the same workflow.
type SpecKey = (String, usize, u64);

fn spec_key(spec: &WorkflowSpec) -> SpecKey {
    match spec {
        WorkflowSpec::Generated { family, size, seed } => (family.clone(), *size, *seed),
        WorkflowSpec::Dax { path } => (path.clone(), 0, 0),
    }
}

/// svc-churn's submissions: every (family, size) pair equally often,
/// shuffled; tenants, workflow seeds, learner seeds and the order come
/// from the seed. `svc::generate_submissions` draws family and size
/// independently per submission, and as a plan costs about the square
/// of its size, a few hundred such draws differ in total work by ±7%
/// from seed to seed — which a driver that runs each seed once reads as
/// noise. Balancing keeps what the seed varies to what a change cannot
/// be tuned to.
fn balanced_submissions(spec: &LoadgenSpec, count: u32, phase: u64) -> Vec<Submission> {
    let seeds = SeedDerivation::new(spec.seed);
    let mut rng = seeds.rng_for("balanced-arrivals", phase);
    let pairs: Vec<(&String, usize)> =
        spec.families.iter().flat_map(|f| spec.sizes.iter().map(move |&s| (f, s))).collect();
    assert_eq!(count as usize % pairs.len(), 0, "count is a whole number of passes over the pairs");
    let mut submissions: Vec<Submission> = (0..count as usize)
        .map(|i| {
            let (family, size) = pairs[i % pairs.len()];
            Submission {
                tenant: tenant_name(rng.gen_range(0..spec.tenants), spec.tenants),
                spec: WorkflowSpec::Generated {
                    family: family.clone(),
                    size,
                    seed: rng.gen_range(0..spec.workflow_seeds),
                },
                seed: seeds.seed_for("balanced-submission", phase << 32 | i as u64),
                replicate: ReplicationPolicy::Static { k: 2 },
            }
        })
        .collect();
    submissions.shuffle(&mut rng);
    submissions
}

/// The set-up segment of a service workload for `seed`.
pub fn setup_svc(workload: Workload, seed: u64, spans: &mut Spans) -> Result<SvcInputs> {
    let shape = SvcShape::of(workload);
    let config = shape.config()?;
    let spec = LoadgenSpec {
        submissions: shape.saturated + shape.paced(),
        tenants: shape.tenants,
        seed,
        sizes: shape.sizes.to_vec(),
        workflow_seeds: shape.workflow_seeds,
        ..LoadgenSpec::default()
    };
    let (submissions, paced) = if shape.churn {
        (
            balanced_submissions(&spec, shape.saturated, 0),
            balanced_submissions(&spec, shape.paced(), 1),
        )
    } else {
        let mut submissions = generate_submissions(&spec);
        let paced = submissions.split_off(shape.saturated as usize);
        (submissions, paced)
    };
    // HEFT plans are per distinct workflow; a fault-free replay is too
    // (it draws nothing from the submission's seed).
    let mut inputs: Vec<Input> = Vec::new();
    let mut fault_free: Vec<Option<Option<f64>>> = Vec::new();
    let mut index: HashMap<SpecKey, usize> = HashMap::new();
    let bandwidth = SimConfig::deterministic().bandwidth_bytes_per_sec;
    let mut phase = |submissions: Vec<Submission>| -> Result<SvcPhase> {
        let mut input_of = Vec::with_capacity(submissions.len());
        let mut heft_makespan_secs = Vec::with_capacity(submissions.len());
        for sub in &submissions {
            let key = spec_key(&sub.spec);
            let i = match index.get(&key) {
                Some(&i) => i,
                None => {
                    let wf = spans.time("workflow.build", |_| sub.spec.build())?;
                    let heft = spans
                        .time("sched.heft", |_| sched::heft_plan(&wf, &config.fleet, bandwidth))?;
                    let cp_bound_secs = critical_path_bound(&wf, &config.fleet)?;
                    inputs.push(Input { wf, heft: heft.plan, cp_bound_secs });
                    fault_free.push(None);
                    index.insert(key, inputs.len() - 1);
                    inputs.len() - 1
                }
            };
            let (sim, seeds) = service_replay(&config, sub);
            let seed_free = sim.faults.is_inert() && !sim.replication.is_active();
            let makespan = match (fault_free[i], seed_free) {
                (Some(known), true) => known,
                _ => {
                    let replay = spans.time("wfsim.heft_replay", |_| {
                        simulate(
                            &inputs[i].wf,
                            &config.fleet,
                            &mut FixedPlanScheduler::new(inputs[i].heft.clone()),
                            &sim,
                            seeds,
                            None,
                        )
                    })?;
                    let makespan = replay.success.then(|| replay.makespan.as_secs());
                    if seed_free {
                        fault_free[i] = Some(makespan);
                    }
                    makespan
                }
            };
            input_of.push(i);
            heft_makespan_secs.push(makespan);
        }
        let mut service = spans.time("svc.service_new", |_| Service::new(config.clone()))?;
        service.start();
        Ok(SvcPhase { service, submissions, input_of, heft_makespan_secs })
    };
    let saturated = phase(submissions)?;
    let paced = phase(paced)?;
    Ok(SvcInputs { config, inputs, saturated, paced })
}
