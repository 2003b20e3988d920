//! Live-byte regression for the service's trace: it is held once.
//!
//! While a batch runs, every sink keeps its frames in fixed-size
//! fragments ([`obs::BinFragSink`]) that are never reallocated;
//! `drain()` copies them into one buffer of exactly the trace's length
//! and frees each fragment as it goes, and `drain_to(w)` writes them
//! out without concatenating anything. So above what the same batch
//! peaks at *without* its detailed trace, a service may hold the trace
//! twice (`drain()`: the fragments and the one buffer) or once
//! (`drain_to`), and when `drain_to`'s writer is handed the last
//! fragment the others are already gone. Buffers that double for a
//! whole run, on both sides of the copy — what this replaced — peak
//! at 3.2x the trace on this batch.
//!
//! Measured with a counting `#[global_allocator]` (live bytes and
//! their high-water mark, as `obs-analyze/tests/stream_memory.rs`), so
//! it does not depend on what the system allocator does with freed
//! memory. One test in its own binary: the counters are global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};

use obs::FRAGMENT_BYTES;
use svc::{generate_submissions, LoadgenSpec, Service, ServiceConfig, ServiceReport, Submission};

struct LiveAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::SeqCst) + size;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveAlloc = LiveAlloc;

fn config(trace_detail: bool) -> ServiceConfig {
    let mut cfg = ServiceConfig::with_paper_fleet(16).unwrap();
    cfg.shards = 4;
    cfg.workers = 2;
    cfg.faults = cloud::FaultConfig::mild();
    // Most submissions hit the Q-cache; a hit that learns as long as a
    // miss traces as much, which is what this test is after.
    cfg.episodes_finetune = cfg.episodes_full;
    cfg.trace_detail = trace_detail;
    cfg
}

/// A few hundred 60–150-activation workflows, replayed `static:2`:
/// with `trace_detail` ~70 KB of frames a plan, ~28 MB over the batch.
fn submissions() -> Vec<Submission> {
    let mut subs = generate_submissions(&LoadgenSpec {
        submissions: 400,
        tenants: 50,
        seed: 2019,
        families: ["montage", "cybershake", "epigenomics"].map(String::from).to_vec(),
        sizes: vec![60, 90, 120, 150],
        workflow_seeds: 8,
    });
    for sub in &mut subs {
        sub.replicate = cloud::ReplicationPolicy::Static { k: 2 };
    }
    subs
}

/// Run the batch on a fresh service and drain it with `drain`; returns
/// the report and the peak of live bytes over the whole run, from
/// `Service::new` to the drain's return, above the waterline before.
fn peak_of_run(
    cfg: ServiceConfig,
    subs: Vec<Submission>,
    drain: impl FnOnce(Service) -> ServiceReport,
) -> (ServiceReport, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let mut service = Service::new(cfg).unwrap();
    service.start();
    for sub in subs {
        service.submit(sub);
    }
    let report = drain(service);
    (report, PEAK.load(Ordering::SeqCst) - base)
}

/// A writer that keeps nothing but a checksum, and notes how many
/// bytes were live each time it was handed some.
struct Probe {
    bytes: u64,
    fnv: u64,
    live_at_last_write: usize,
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

impl Write for Probe {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.live_at_last_write = LIVE.load(Ordering::SeqCst);
        self.bytes += buf.len() as u64;
        self.fnv = fnv(self.fnv, buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_drained_service_holds_its_trace_once() {
    let subs = submissions();

    // What the batch needs besides its detailed trace — results and
    // provenance, Q-caches, arenas, queues, and one open fragment per
    // sink — plus one fragment of leeway for the headroom each full
    // fragment reserves and for how two workers happen to interleave.
    let (plain, without_detail) =
        peak_of_run(config(false), subs.clone(), |s| s.drain().expect("drain"));
    assert_eq!(plain.failed, 0);
    let slack = without_detail + FRAGMENT_BYTES;

    let (held, peak_drain) = peak_of_run(config(true), subs.clone(), |s| s.drain().expect("drain"));
    let trace_len = held.trace.len();
    assert_eq!(held.failed, 0);
    assert_eq!(held.trace_bytes, trace_len as u64);
    assert_eq!(held.trace.capacity(), trace_len, "the one buffer is reserved exactly");
    assert!(
        trace_len > 2 * slack,
        "a {trace_len} B trace is too short beside {slack} B of slack to tell one copy from two"
    );
    assert!(
        peak_drain <= 2 * trace_len + slack,
        "drain(): {peak_drain} B live at peak for a {trace_len} B trace (slack {slack} B): \
         more than the fragments plus one exact buffer"
    );

    let base = LIVE.load(Ordering::SeqCst);
    let mut probe = Probe { bytes: 0, fnv: FNV_OFFSET, live_at_last_write: 0 };
    let (streamed, peak_drain_to) =
        peak_of_run(config(true), subs, |s| s.drain_to(&mut probe).expect("drain_to"));
    assert!(streamed.trace.is_empty());
    assert_eq!(streamed.trace_bytes, trace_len as u64);
    assert_eq!((probe.bytes, probe.fnv), (trace_len as u64, fnv(FNV_OFFSET, &held.trace)));
    assert_eq!(streamed.trace_events, held.trace_events);
    assert!(
        peak_drain_to <= trace_len + slack,
        "drain_to(): {peak_drain_to} B live at peak for a {trace_len} B trace (slack {slack} B): \
         the trace was held more than once"
    );
    // Every fragment before the last was freed once written.
    let left = probe.live_at_last_write - base;
    assert!(
        left <= slack + FRAGMENT_BYTES,
        "{left} B still live when the last fragment was written (slack {slack} B)"
    );
}
