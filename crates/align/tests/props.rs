//! Property-based tests for the DP aligners.

use gx_align::{
    align, banded_align, banded_align_reference, banded_align_with, AlignMode, AlignScratch,
    Scoring,
};
use gx_genome::{CigarOp, DnaSeq};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::cell::RefCell;

fn arb_dna(min: usize, max: usize) -> impl Strategy<Value = DnaSeq> {
    prop::collection::vec(0u8..4, min..=max).prop_map(|codes| DnaSeq::from_codes(&codes))
}

/// Recomputes an alignment score from its CIGAR (each gap run pays one
/// open + per-base extension).
fn score_from_cigar(cigar: &gx_genome::Cigar, s: &Scoring) -> i32 {
    cigar
        .runs()
        .iter()
        .map(|&(n, op)| match op {
            CigarOp::Equal => s.match_score * n as i32,
            CigarOp::Diff => -s.mismatch * n as i32,
            CigarOp::Ins | CigarOp::Del => -s.gap_cost(n),
            _ => 0,
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn global_score_matches_cigar(q in arb_dna(4, 60), t in arb_dna(4, 60)) {
        let s = Scoring::short_read();
        let a = align(&q, &t, &s, AlignMode::Global);
        prop_assert_eq!(a.score, score_from_cigar(&a.cigar, &s));
        prop_assert_eq!(a.cigar.query_len() as usize, q.len());
        prop_assert_eq!(a.cigar.ref_len() as usize, t.len());
    }

    #[test]
    fn fit_consumes_whole_query(q in arb_dna(4, 50), t in arb_dna(20, 120)) {
        let s = Scoring::short_read();
        let a = align(&q, &t, &s, AlignMode::Fit);
        prop_assert_eq!(a.cigar.query_len() as usize, q.len());
        prop_assert_eq!(a.target_end - a.target_start, a.cigar.ref_len() as usize);
        prop_assert_eq!(a.score, score_from_cigar(&a.cigar, &s));
    }

    #[test]
    fn fit_score_bounded_by_perfect(q in arb_dna(4, 60), t in arb_dna(4, 120)) {
        let s = Scoring::short_read();
        let a = align(&q, &t, &s, AlignMode::Fit);
        prop_assert!(a.score <= s.perfect(q.len()));
    }

    #[test]
    fn local_score_non_negative_and_geq_fit(q in arb_dna(4, 40), t in arb_dna(4, 80)) {
        let s = Scoring::short_read();
        let local = align(&q, &t, &s, AlignMode::Local);
        let fit = align(&q, &t, &s, AlignMode::Fit);
        prop_assert!(local.score >= 0);
        prop_assert!(local.score >= fit.score, "local {} < fit {}", local.score, fit.score);
    }

    #[test]
    fn identity_alignment_is_perfect(q in arb_dna(4, 80)) {
        let s = Scoring::short_read();
        let a = align(&q, &q, &s, AlignMode::Global);
        prop_assert_eq!(a.score, s.perfect(q.len()));
        prop_assert_eq!(a.cigar.runs().len(), 1);
    }

    #[test]
    fn wide_band_equals_full_dp(q in arb_dna(8, 50), t in arb_dna(8, 60)) {
        let s = Scoring::short_read();
        let full = align(&q, &t, &s, AlignMode::Fit);
        let band = banded_align(&q, &t, &s, q.len().max(t.len()), AlignMode::Fit);
        prop_assert_eq!(full.score, band.score);
    }

    #[test]
    fn banded_never_beats_full(q in arb_dna(8, 50), t in arb_dna(8, 70)) {
        let s = Scoring::short_read();
        let full = align(&q, &t, &s, AlignMode::Fit);
        let band = banded_align(&q, &t, &s, 4, AlignMode::Fit);
        prop_assert!(band.score <= full.score);
    }

    #[test]
    fn alignment_is_symmetric_under_revcomp(q in arb_dna(8, 40), t in arb_dna(8, 80)) {
        // Aligning rc(q) against rc(t) must give the same score as q vs t.
        let s = Scoring::short_read();
        let fwd = align(&q, &t, &s, AlignMode::Fit);
        let rev = align(&q.revcomp(), &t.revcomp(), &s, AlignMode::Fit);
        prop_assert_eq!(fwd.score, rev.score);
    }
}

/// Differential tests: the band-coordinate kernel behind `banded_align_with`
/// against the column-indexed oracle `banded_align_reference`.
mod banded_kernel {
    use super::*;

    thread_local! {
        /// One workspace reused across every case, as a mapping session
        /// reuses its own across pairs.
        static SCRATCH: RefCell<AlignScratch> = RefCell::new(AlignScratch::new());
    }

    /// `n` bases read cyclically from `target` at `start` (so `n` may exceed
    /// the target's length), then edited: `(kind, pos, base)` substitutes,
    /// inserts 1–3 bases or deletes 1–3 bases, so optimal paths take in-band
    /// gaps rather than crossing random noise.
    fn derive_query(target: &[u8], start: usize, n: usize, edits: &[(u8, usize, u8)]) -> DnaSeq {
        let mut q: Vec<u8> = (0..n).map(|x| target[(start + x) % target.len()]).collect();
        for &(kind, pos, base) in edits {
            let run = 1 + base as usize % 3;
            match kind {
                0 => {
                    let p = pos % q.len();
                    q[p] = (q[p] + 1 + base % 3) % 4;
                }
                1 => {
                    let p = pos % (q.len() + 1);
                    q.splice(p..p, (0..run).map(|r| (base + r as u8) % 4));
                }
                _ if q.len() > 1 => {
                    let p = pos % q.len();
                    q.drain(p..p + run.min(q.len() - p).min(q.len() - 1));
                }
                _ => {}
            }
        }
        DnaSeq::from_codes(&q)
    }

    fn fast_matches_reference(
        q: &DnaSeq,
        t: &DnaSeq,
        band: usize,
        mode: AlignMode,
    ) -> Result<(), TestCaseError> {
        let s = Scoring::short_read();
        let slow = banded_align_reference(q, t, &s, band, mode);
        let fast = SCRATCH
            .with(|scratch| banded_align_with(q, t, &s, band, mode, &mut scratch.borrow_mut()));
        let shape = format!("{}x{} band {band} {mode:?}", q.len(), t.len());
        prop_assert_eq!(fast.score, slow.score, "{}", shape);
        prop_assert_eq!(fast.cigar.to_string(), slow.cigar.to_string(), "{}", shape);
        prop_assert_eq!(fast.query_start, slow.query_start, "{}", shape);
        prop_assert_eq!(fast.query_end, slow.query_end, "{}", shape);
        prop_assert_eq!(fast.target_start, slow.target_start, "{}", shape);
        prop_assert_eq!(fast.target_end, slow.target_end, "{}", shape);
        prop_assert_eq!(fast.cells, slow.cells, "{}", shape);
        // Hand long CIGARs back so later cases also build theirs in
        // recycled storage.
        SCRATCH.with(|scratch| scratch.borrow_mut().recycle(fast.cigar));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn fast_kernel_matches_reference(
            target in prop::collection::vec(0u8..4, 1..=220),
            (n, start, noise) in (1usize..=160, 0usize..220, prop::collection::vec(0u8..4, 160)),
            edits in prop::collection::vec((0u8..3, 0usize..1_000, 0u8..4), 0..=6),
            (band, shape, global) in (1usize..=40, 0u8..8, 0u8..2),
        ) {
            // Shape 0: an unrelated query; 1: a band wider than both
            // sequences; otherwise a query edited from the target.
            let q = match shape {
                0 => DnaSeq::from_codes(&noise[..n]),
                _ => derive_query(&target, start, n, &edits),
            };
            let t = DnaSeq::from_codes(&target);
            let band = if shape == 1 { band + q.len().max(t.len()) } else { band };
            let mode = if global == 1 { AlignMode::Global } else { AlignMode::Fit };
            fast_matches_reference(&q, &t, band, mode)?;
        }

        #[test]
        fn fast_kernel_matches_reference_on_mapper_shape(
            window in prop::collection::vec(0u8..4, 198),
            offset in 0usize..=48,
            edits in prop::collection::vec((0u8..3, 0usize..1_000, 0u8..4), 0..=4),
        ) {
            // The DP fallback's own shape: a 150 bp read against its 198 bp
            // window (24-base margin each side), band 16, fit mode.
            let q = derive_query(&window, offset, 150, &edits);
            fast_matches_reference(&q, &DnaSeq::from_codes(&window), 16, AlignMode::Fit)?;
        }
    }
}

mod chain_props {
    use super::*;
    use gx_align::chain::{chain_anchors, Anchor, ChainParams};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn chains_are_colinear(
            anchors in prop::collection::vec((0u32..500, 0u64..5_000), 1..80)
        ) {
            let mut anchors: Vec<Anchor> = anchors
                .into_iter()
                .map(|(read_pos, ref_pos)| Anchor { read_pos, ref_pos })
                .collect();
            let res = chain_anchors(&mut anchors, &ChainParams::default());
            for chain in &res.chains {
                for w in chain.anchors.windows(2) {
                    let a = anchors[w[0]];
                    let b = anchors[w[1]];
                    prop_assert!(b.read_pos > a.read_pos, "read positions not increasing");
                    prop_assert!(b.ref_pos > a.ref_pos, "ref positions not increasing");
                }
            }
        }

        #[test]
        fn anchors_used_at_most_once(
            anchors in prop::collection::vec((0u32..300, 0u64..3_000), 1..60)
        ) {
            let mut anchors: Vec<Anchor> = anchors
                .into_iter()
                .map(|(read_pos, ref_pos)| Anchor { read_pos, ref_pos })
                .collect();
            let res = chain_anchors(&mut anchors, &ChainParams::default());
            let mut seen = std::collections::HashSet::new();
            for chain in &res.chains {
                for &i in &chain.anchors {
                    prop_assert!(seen.insert(i), "anchor {i} in two chains");
                }
            }
        }
    }
}
