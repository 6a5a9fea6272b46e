//! Heap-peak fence: a diagnosis holds about one replay at a time.
//!
//! DiffProv replays the reference execution, the bad execution and, per
//! UPDATETREE round, a patched clone of the bad one. None of them is read
//! after the next one is built, so a diagnosis should need little more
//! live heap than one classical provenance query (replay the bad
//! execution, extract one tree). A counting global allocator measures the
//! peak of live bytes during each; the fence allows the diagnosis 1.5x the
//! query, where keeping every replay alive costs 2x (one shared log: SDN,
//! campus) or 3x (separate reference execution: MapReduce).
//!
//! The file holds a single test so nothing else allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use diffprov_core::{DiffProv, Scenario};

/// `System`, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(n: usize) {
    let now = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the peak of live heap bytes it
/// added on top of what was live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

#[test]
fn diagnosis_peak_stays_near_one_replay() {
    let cases: [(&str, Scenario); 2] = [
        ("MR1-D", dp_mapreduce::mr1_d()),
        (
            "campus",
            dp_sdn::campus(&dp_sdn::CampusConfig::default()).scenario,
        ),
    ];
    for (name, s) in cases {
        let (tree, query) = peak_of(|| {
            let r = s.bad_exec.replay().unwrap();
            r.query_at(&s.bad_event.tref, s.bad_event.at)
        });
        assert!(tree.is_some(), "{name}: the bad event has no provenance");
        let (report, diagnosis) = peak_of(|| {
            DiffProv::default().diagnose(&s.good_exec, &s.good_event, &s.bad_exec, &s.bad_event)
        });
        let report = report.unwrap();
        assert!(report.succeeded() && report.verified, "{name}: {report}");
        let ratio = diagnosis as f64 / query as f64;
        assert!(
            ratio <= 1.5,
            "{name}: diagnosis peaked at {diagnosis} live heap bytes, {ratio:.2}x the \
             {query} of one replay plus query"
        );
    }
}
