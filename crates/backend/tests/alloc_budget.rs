//! The steady-state allocation budget of the software hot path: after a
//! session's [`MapScratch`](gx_core::MapScratch) arena is warmed up by the
//! first batch, mapping a pair must be (almost) allocation-free. The only
//! tolerated heap traffic is the per-*batch* results `Vec` the backend
//! returns — everything per-pair (reverse complements, seed codes, SeedMap
//! merges, PA candidates, light-aligner masks, reference windows, DP rows,
//! CIGARs) must come out of reused capacity.
//!
//! The check is a counting `#[global_allocator]` wrapping the system
//! allocator, gated on a thread-local flag so that only the measured
//! region on the test thread counts — the libtest harness's own threads
//! allocate concurrently (progress output, timers) and must not bleed
//! into the tally.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use gx_backend::{MapBackend, MapSession, SoftwareBackend};
use gx_core::{FallbackStage, GenPairConfig, GenPairMapper, ReadPair};
use gx_genome::random::RandomGenomeBuilder;
use gx_genome::DnaSeq;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` so allocation during TLS teardown stays safe.
        if TRACKING.try_with(|t| t.get()).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    TRACKING.with(|t| t.set(true));
    f();
    TRACKING.with(|t| t.set(false));
    ALLOCS.load(Ordering::SeqCst) - before
}

/// A workload that exercises every stage the scratch arena backs: clean
/// light-path pairs, mismatched reads (deeper light masks), and mixed-edit
/// reads (a deletion plus a mismatch) that no single-edit-type light
/// alignment fits, so they take the banded-DP fallback at their candidates
/// (window buffers, DP rows and traceback matrix).
fn build_pairs(seq: &DnaSeq, n: usize) -> Vec<ReadPair> {
    (0..n)
        .map(|i| {
            let s = 1_000 + (i % 40) * 1_800;
            let mut r1 = seq.subseq(s..s + 150);
            let mut r2 = seq.subseq(s + 250..s + 400).revcomp();
            match i % 5 {
                2 => {
                    // Flip a base so the light aligner sees mismatches.
                    let flipped = r2.get(70).complement();
                    r2.set(70, flipped);
                }
                4 => {
                    // A 3 bp deletion at read position 40 plus a mismatch at
                    // 10; the last seed stays intact so candidates exist.
                    r1 = seq.subseq(s..s + 40);
                    r1.extend_from_seq(&seq.subseq(s + 43..s + 153));
                    let flipped = r1.get(10).complement();
                    r1.set(10, flipped);
                }
                _ => {}
            }
            ReadPair::new(format!("p{i}"), r1, r2)
        })
        .collect()
}

#[test]
fn warm_session_maps_pairs_without_per_pair_allocation() {
    let genome = RandomGenomeBuilder::new(90_000).seed(23).build();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let seq = genome.chromosome(0).seq();
    let pairs = build_pairs(seq, 64);

    let backend = SoftwareBackend::new(&mapper);
    let mut session = backend.session(0);

    // Warm-up: the first batch grows every scratch buffer to its
    // steady-state high-water mark.
    let warm = session.map_batch(&pairs);
    assert!(warm.results.iter().filter(|r| r.is_mapped()).count() > 48);
    let dp_pairs = warm
        .results
        .iter()
        .filter(|r| r.fallback == Some(FallbackStage::LightAlign) && r.work.dp_cells > 0)
        .count();
    assert!(
        dp_pairs >= 8,
        "only {dp_pairs} pairs reached the DP fallback; the budget must cover it"
    );

    // Steady state: the only allowed allocations are the per-batch results
    // Vec (and a bounded sliver of collection overhead) — nothing that
    // scales with the number of pairs.
    const BATCHES: u64 = 4;
    let mut mapped = 0usize;
    let allocs = allocations(|| {
        for _ in 0..BATCHES {
            let out = session.map_batch(&pairs);
            mapped += out.results.iter().filter(|r| r.is_mapped()).count();
        }
    });
    assert!(mapped > 48 * BATCHES as usize);

    let per_batch_budget = 4u64;
    assert!(
        allocs <= BATCHES * per_batch_budget,
        "warm software session allocated {allocs} times over {BATCHES} batches \
         of {} pairs (budget: {per_batch_budget}/batch)",
        pairs.len(),
    );
    let per_pair = allocs as f64 / (BATCHES as f64 * pairs.len() as f64);
    assert!(
        per_pair < 0.25,
        "allocations per pair {per_pair:.3} exceeds the ~0 steady-state budget"
    );
}

#[test]
fn fresh_scratch_wrapper_still_allocates() {
    // Sanity check on the harness itself: the unscratched `map_pair`
    // wrapper allocates per call, so a zero reading above is the arena
    // working — not a broken counter.
    let genome = RandomGenomeBuilder::new(60_000).seed(24).build();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    let seq = genome.chromosome(0).seq();
    let r1 = seq.subseq(2_000..2_150);
    let r2 = seq.subseq(2_250..2_400).revcomp();
    let allocs = allocations(|| {
        let res = mapper.map_pair(&r1, &r2);
        assert!(res.is_mapped());
    });
    assert!(allocs > 0, "map_pair with a fresh scratch must allocate");
}
