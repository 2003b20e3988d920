//! Steady-state allocation discipline for the learner.
//!
//! The agent's own callbacks — `begin_episode_at`, `decide`,
//! `on_completion` — allocate nothing of their own once the first
//! episode has grown the scratch vectors: the mask of done activations
//! and the bootstrap tournament over the pending rows
//! (`qlearn::PendingMax`) are sized once, when the agent is built, and a
//! TD step neither lists the pending rows nor rescans them, and the
//! history statistics the reward reads are computed in place.
//!
//! The delta-rollout path reuses one persistent slot (arena, flat delta
//! buffer, scratch vectors, trace sink) per concurrent rollout, so once
//! capacities reach their high-water mark a round must not allocate
//! anything the *serial* learner wouldn't for the same episodes — the
//! simulation engine's inherent per-episode work (result records, plan,
//! seeded history clone) is common to both, and the historical
//! clone-the-agent path's extra cost (a full Q-matrix clone plus ~one
//! `pending` Vec per TD update, hundreds of allocations per episode)
//! must be gone.
//!
//! Measured with a counting `#[global_allocator]`: the callbacks by
//! the allocations of the calling thread alone, the rounds as a
//! *marginal* comparison over all threads — allocations of a long run
//! minus a short run, which cancels one-time setup (workflow cache,
//! agent construction, rayon pool) — with a small slack for rayon's
//! per-round job boxing. The two tests take turns, so neither counts
//! the other's set-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cloud::Fleet;
use obs::Tracer;
use reassign::{learn, LearnRun, ReassignConfig, ReassignScheduler};
use wfcommon::SeedDerivation;
use wfsim::{CompletionInfo, Decision, ExecHistory, Scheduler, SchedulerContext, SimConfig};
use workflow::montage50::montage50;

struct CountingAlloc;

/// Allocations on every thread.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations on this thread (const-initialised and without a
    /// destructor, so touching it from the allocator allocates nothing).
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Held by whichever test is counting.
static TURN: Mutex<()> = Mutex::new(());

fn count_one() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during<F: FnOnce()>(f: F) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

/// Allocations `f` makes on the calling thread.
fn thread_allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let out = f();
    (out, THREAD_ALLOCS.with(Cell::get) - before)
}

/// The agent as the engine sees it, counting what its callbacks
/// allocate.
struct Counted<'a> {
    agent: &'a mut ReassignScheduler,
    decide: u64,
    on_completion: u64,
}

impl Scheduler for Counted<'_> {
    fn name(&self) -> &str {
        self.agent.name()
    }
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        let (decision, allocs) = thread_allocs_during(|| self.agent.decide(ctx));
        self.decide += allocs;
        decision
    }
    fn on_completion(&mut self, info: &CompletionInfo, history: &ExecHistory) {
        let ((), allocs) = thread_allocs_during(|| self.agent.on_completion(info, history));
        self.on_completion += allocs;
    }
}

#[test]
fn agent_callbacks_allocate_nothing_of_their_own_after_the_first_episode() {
    let _turn = TURN.lock().unwrap();
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    // Failed attempts and crash orphans keep rows pending across TD
    // writes: the tournament's refresh path, beside retire and rebuild.
    let faulty = SimConfig {
        max_retries: 30,
        failure_prob: 0.1,
        faults: cloud::FaultConfig {
            vm_mtbf_hours: 0.05,
            repair_secs: 15.0,
            backoff_base_secs: 1.0,
            ..cloud::FaultConfig::none()
        },
        ..SimConfig::default()
    };
    for sim in [SimConfig::deterministic(), faulty] {
        let cfg = ReassignConfig { episodes: 3, ..ReassignConfig::default() };
        let mut agent = ReassignScheduler::new(wf.len(), fleet.len(), cfg).unwrap();
        for ep in 0..cfg.episodes {
            let ((), begin) = thread_allocs_during(|| agent.begin_episode_at(ep));
            let mut counted = Counted { agent: &mut agent, decide: 0, on_completion: 0 };
            let seeds = SeedDerivation::new(ep as u64);
            wfsim::simulate(&wf, &fleet, &mut counted, &sim, seeds, None).unwrap();
            if ep > 0 {
                assert_eq!(
                    (begin, counted.decide, counted.on_completion),
                    (0, 0, 0),
                    "episode {ep}: allocations in (begin_episode_at, decide, on_completion)"
                );
            }
        }
    }
}

#[test]
fn parallel_steady_state_rounds_allocate_no_more_than_serial() {
    let _turn = TURN.lock().unwrap();
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    let sim = SimConfig::deterministic();
    let cfg = |episodes: u32| ReassignConfig { episodes, ..ReassignConfig::default() };
    let learn_4_rollouts = |episodes: u32| {
        LearnRun { rollouts: 4, ..LearnRun::new(&wf, &fleet, "16vcpus", &cfg(episodes), &sim) }
            .run(&mut Tracer::disabled())
            .unwrap();
    };

    // Warm everything one-time: rayon's global pool and thread stacks,
    // lazily grown scratch capacities, the workflow's interned strings.
    learn_4_rollouts(8);
    learn(&wf, &fleet, "16vcpus", &cfg(8), &sim, None).unwrap();

    let serial_short = allocs_during(|| {
        learn(&wf, &fleet, "16vcpus", &cfg(8), &sim, None).unwrap();
    });
    let serial_long = allocs_during(|| {
        learn(&wf, &fleet, "16vcpus", &cfg(16), &sim, None).unwrap();
    });
    let par_short = allocs_during(|| learn_4_rollouts(8));
    let par_long = allocs_during(|| learn_4_rollouts(16));

    // 8 extra episodes (2 extra K=4 rounds) each. The engine's inherent
    // per-episode allocations appear in both marginals; the rollout
    // side must add nothing beyond rayon's per-round task boxing. The
    // retired clone-and-replay path cost hundreds of allocations per
    // extra episode (Q-matrix clone + one pending-rows Vec per TD
    // update) and fails this bound by an order of magnitude.
    let serial_marginal = serial_long.saturating_sub(serial_short);
    let par_marginal = par_long.saturating_sub(par_short);
    assert!(
        par_marginal <= serial_marginal + 150,
        "parallel marginal {par_marginal} allocs vs serial marginal {serial_marginal} \
         (short/long: serial {serial_short}/{serial_long}, parallel {par_short}/{par_long})"
    );
}

#[test]
fn a_faulty_replicated_episode_allocates_little_more_than_a_fault_free_one() {
    let _turn = TURN.lock().unwrap();
    let wf = montage50();
    let fleet = Fleet::paper_16_vcpus();
    // The benchmark's `learn-faulty` configuration.
    let faulty = SimConfig {
        faults: cloud::FaultConfig::heavy(),
        max_retries: 30,
        replication: cloud::ReplicationPolicy::learned_heuristic(),
        ..SimConfig::default()
    };
    let cfg = |episodes: u32| ReassignConfig {
        episodes,
        failure_penalty: 10.0,
        ..ReassignConfig::default()
    };
    // Long run minus short run: set-up, the final greedy replay and the
    // capacities the first episodes grow cancel; what is left is what
    // one more episode allocates.
    let per_episode = |sim: &SimConfig| {
        learn(&wf, &fleet, "16vcpus", &cfg(40), sim, None).unwrap();
        let short = allocs_during(|| {
            learn(&wf, &fleet, "16vcpus", &cfg(40), sim, None).unwrap();
        });
        let long = allocs_during(|| {
            learn(&wf, &fleet, "16vcpus", &cfg(140), sim, None).unwrap();
        });
        long.saturating_sub(short) as f64 / 100.0
    };
    // Fault-free, an episode's allocations are the engine's own: the
    // fluctuation model, the history it starts from, and the plan,
    // records and busy-time vectors that leave in the `SimResult`.
    let fault_free = per_episode(&SimConfig::default());
    assert!(fault_free <= 8.0, "fault-free episodes allocate {fault_free} times each");
    // Crashes and the learned replication head add the crash streams
    // (one vector), the decision list that leaves in the `SimResult`
    // (one vector, regrown in the episodes whose retries push it past
    // one decision per activation) and the next episode's replication
    // table. Before crash instants were sampled on demand and the
    // replication groups moved into the arena this read 228: a schedule
    // vector per VM, a group vector per dispatch, a candidate list per
    // bucket per episode.
    let faulty = per_episode(&faulty);
    assert!(faulty <= 16.0, "faulty, replicated episodes allocate {faulty} times each");
}
