//! Allocation budget: heap allocations per certificate on the survey path.
//!
//! A machine-independent work count for the lint layer. A counting global
//! allocator tallies the calls made on this test's thread while a serial
//! `run_bytes` surveys a seeded 2 000-certificate corpus from raw DER
//! (metrics off, after one warm-up pass so one-time set-up is excluded).
//! The count per certificate must stay within 5% of the figure measured
//! when the budget was set: a change that brings back a per-value decode
//! `String`, a per-extension `Vec`, or a `clone` on every dictionary OID
//! shows here on any machine.
//!
//! Allocation calls are `alloc`, `alloc_zeroed` and `realloc`; frees are
//! not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use unicert::asn1::ParseBudget;
use unicert::corpus::{CorpusConfig, CorpusGenerator};
use unicert::lint::{RunOptions, DEFAULT_PROFILE};
use unicert::survey::{run_bytes, SurveyOptions};

thread_local! {
    /// Allocation calls made by this thread while counting is on.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc() {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

/// The system allocator, counting allocation calls per thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from this allocator (so from `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls `f` makes on this thread.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get))
}

/// Allocation calls per certificate measured when this budget was set
/// (serial `run_bytes`, 2 000 certificates, seed 7).
const MEASURED_PER_CERT: f64 = 43.06;

#[test]
fn survey_allocations_per_certificate_stay_within_budget() {
    let config = CorpusConfig {
        size: 2_000,
        seed: 7,
        precert_fraction: 0.0,
        latent_defects: true,
    };
    let ders: Vec<Vec<u8>> = CorpusGenerator::new(config).map(|e| e.cert.raw).collect();
    let opts = SurveyOptions {
        lint: RunOptions {
            enforce_effective_dates: true,
            threads: Some(1),
            profile: Some(DEFAULT_PROFILE),
            evidence: false,
            ..RunOptions::default()
        },
        field_matrix: true,
    };
    let budget = ParseBudget::default();
    let warm = run_bytes(&ders, opts, &budget);
    let (report, allocs) = count_allocs(|| run_bytes(&ders, opts, &budget));
    assert_eq!(
        report.fingerprint(),
        warm.fingerprint(),
        "warm-up and counted runs differ"
    );
    assert_eq!(report.entries, ders.len());
    let per_cert = allocs as f64 / ders.len() as f64;
    let ceiling = MEASURED_PER_CERT * 1.05;
    println!(
        "allocation calls: {allocs} total, {per_cert:.2} per certificate (ceiling {ceiling:.2})"
    );
    assert!(
        per_cert <= ceiling,
        "{per_cert:.2} allocation calls per certificate exceeds the budget of {ceiling:.2} \
         (measured {MEASURED_PER_CERT} + 5%)"
    );
}
