//! Wall-clock of the same episode budget at different rollout fan-outs
//! (`rollouts/1` is the serial learner). On a multi-core machine the
//! K > 1 variants should approach `serial / min(K, cores)`; on a single
//! core they stay within rayon's overhead of the serial time.
//!
//! The `learning_threads` group pins the rollout fan-out at 8 and
//! varies only the rayon pool size (1/2/4/8 worker threads), so the
//! scaling curve of the batched delta-rollout path can be read
//! directly against a known thread count instead of whatever the host
//! happens to provide. The detected core count is printed once so a
//! flat curve on a small machine isn't mistaken for a regression.

use cloud::Fleet;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use obs::Tracer;
use rayon::ThreadPoolBuilder;
use reassign::{LearnRun, ReassignConfig};
use wfsim::SimConfig;
use workflow::montage50::montage50;

const EPISODES: u32 = 32;
const MATRIX_ROLLOUTS: u32 = 8;

fn rollout_fanout(c: &mut Criterion) {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let sim = SimConfig::default();
    let config = ReassignConfig { episodes: EPISODES, ..ReassignConfig::default() };
    let mut group = c.benchmark_group("learning_rollouts");
    group.sample_size(10);
    for rollouts in [1u32, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("rollouts", rollouts),
            &rollouts,
            |b, &rollouts| {
                b.iter(|| {
                    LearnRun { rollouts, ..LearnRun::new(&wf, &fleet, "bench", &config, &sim) }
                        .run(&mut Tracer::disabled())
                        .unwrap()
                        .outcome
                        .greedy_makespan
                })
            },
        );
    }
    group.finish();
}

fn thread_matrix(c: &mut Criterion) {
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let sim = SimConfig::default();
    let config = ReassignConfig { episodes: EPISODES, ..ReassignConfig::default() };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!(
        "learning_threads: {cores} cores detected; pools above that \
         oversubscribe and should plateau, not regress"
    );
    let mut group = c.benchmark_group("learning_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        // A dedicated pool per data point pins the worker count exactly
        // — results must be identical across pools (worker-count
        // invariance), only the wall clock may move.
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().expect("rayon pool");
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| {
                pool.install(|| {
                    LearnRun {
                        rollouts: MATRIX_ROLLOUTS,
                        ..LearnRun::new(&wf, &fleet, "bench", &config, &sim)
                    }
                    .run(&mut Tracer::disabled())
                    .unwrap()
                    .outcome
                    .greedy_makespan
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, rollout_fanout, thread_matrix);
criterion_main!(benches);
