//! The SWF writer's transient memory is its output.
//!
//! `write_swf_trace` runs where the replay set-up reaches its peak RSS, so
//! it must not hold the trace a second time on the way to the text (as a
//! `Vec<SwfRecord>`, a comment list or a `String` per field). A counting
//! global allocator sees every allocation of this binary, on every thread,
//! which is why this test has a binary of its own and is its only test.

use dynsched_cluster::Job;
use dynsched_simkit::Rng;
use dynsched_workload::swf::write_swf_trace;
use dynsched_workload::Trace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// `System`, counting the bytes live now and the most live since the last
/// [`Counting::reset_peak`]. A `realloc` counts as its size change only:
/// whether the block moved is the system allocator's business, and the
/// bytes the program holds are what this measures.
struct Counting {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl Counting {
    fn grew(&self, by: usize) {
        let now = self.live.fetch_add(by, Relaxed) + by;
        self.peak.fetch_max(now, Relaxed);
    }

    fn reset_peak(&self) -> usize {
        let now = self.live.load(Relaxed);
        self.peak.store(now, Relaxed);
        now
    }
}

// SAFETY: every call forwards to `System` with the caller's own arguments,
// so the `GlobalAlloc` contract holds exactly as it does for `System`; the
// counters are atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.live.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                self.grew(new_size - layout.size());
            } else {
                self.live.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

#[test]
fn writing_a_trace_holds_nothing_but_the_text() {
    let mut rng = Rng::new(0x5F3);
    let jobs: Vec<Job> = (0..20_000u32)
        .map(|i| {
            let runtime = rng.range_f64(1.0, 50_000.0);
            let estimate = runtime * rng.range_f64(1.0, 3.0);
            let cores = rng.range_u64(1, 1024) as u32;
            Job::new(i, rng.range_f64(0.0, 3e7), runtime, estimate, cores)
        })
        .collect();
    let trace = Trace::from_jobs(jobs);

    let before = ALLOC.reset_peak();
    let text = write_swf_trace(&trace, 1024);
    let transient = ALLOC.peak.load(Relaxed) - before;

    let slack = 64 << 10;
    assert!(
        text.len() > 1 << 20,
        "the trace is {} bytes of text",
        text.len()
    );
    assert!(
        transient <= text.capacity() + slack,
        "write_swf_trace peaked at {transient} live bytes for {} of text capacity \
         (+{slack} allowed)",
        text.capacity()
    );
}
