//! Steady-state allocation discipline for the parallel learner.
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
//! Measured with a counting `#[global_allocator]` as a *marginal*
//! comparison — allocations of a long run minus a short run, which
//! cancels one-time setup (workflow cache, agent construction, rayon
//! pool) — with a small slack for rayon's per-round job boxing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cloud::Fleet;
use obs::Tracer;
use reassign::{learn, LearnRun, ReassignConfig};
use wfsim::SimConfig;
use workflow::montage50::montage50;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

#[test]
fn parallel_steady_state_rounds_allocate_no_more_than_serial() {
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
