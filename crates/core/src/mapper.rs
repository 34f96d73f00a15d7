//! The GenPair online mapping pipeline (paper §4.1, Fig. 3):
//! Partitioned Seeding → SeedMap Query → Paired-Adjacency Filtering →
//! Light Alignment, with the three DP fallback arrows of Fig. 10.

use crate::light::{light_align_with, LightAlignment, LightScratch};
use crate::pafilter::{paired_adjacency_filter_into, PairCandidate};
use crate::scratch::MapScratch;
use crate::seeding::query_read_into;
use crate::GenPairConfig;
use gx_align::{banded_align_with, AlignMode, AlignScratch};
use gx_genome::{flags, Cigar, DnaSeq, GlobalPos, ReferenceGenome, SamRecord};
use gx_seedmap::{SeedHasher, SeedMap, Xxh32Builder};

/// Band half-width of the DP fallback aligner: the banded DP allows
/// `DP_BAND` diagonals of drift on each side of the read's corridor through
/// its window.
pub const DP_BAND: usize = 16;

/// Reference bases the DP fallback adds on each side of a candidate, so a
/// 150 bp read is aligned in a `150 + 2 × 24 = 198` bp window.
pub const DP_WINDOW_MARGIN: usize = 24;

/// Where a pair left the GenPair fast path (paper Fig. 10).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FallbackStage {
    /// No SeedMap entry matched for one of the reads (2.09% in the paper):
    /// the pair needs the full traditional pipeline (seeding + chaining +
    /// alignment).
    SeedMapMiss,
    /// The paired-adjacency filter left no candidate (8.79%): full
    /// traditional pipeline.
    PaFilter,
    /// Light alignment failed (13.06%): DP *alignment only*, at the already
    /// identified candidate locations (seeding and chaining are bypassed).
    LightAlign,
}

/// A mapped pair.
#[derive(Clone, Debug)]
pub struct PairMapping {
    /// Chromosome index.
    pub chrom: u32,
    /// Leftmost reference position of read 1's alignment.
    pub pos1: u64,
    /// Leftmost reference position of read 2's alignment.
    pub pos2: u64,
    /// Whether read 1 aligned forward (read 2 is then reverse).
    pub r1_forward: bool,
    /// CIGAR of read 1 (in its aligned orientation).
    pub cigar1: Cigar,
    /// CIGAR of read 2.
    pub cigar2: Cigar,
    /// Alignment score of read 1.
    pub score1: i32,
    /// Alignment score of read 2.
    pub score2: i32,
    /// Mapping quality (60 = confidently unique).
    pub mapq: u8,
}

impl PairMapping {
    /// Combined pair score.
    pub fn pair_score(&self) -> i32 {
        self.score1 + self.score2
    }

    /// The smaller of the two read scores (the paper's Fig. 2 statistic).
    pub fn min_score(&self) -> i32 {
        self.score1.min(self.score2)
    }
}

/// Per-pair work counters, aggregated by
/// [`PipelineStats`](crate::PipelineStats).
#[derive(Clone, Copy, Debug, Default)]
pub struct PairWork {
    /// Location Table entries fetched (NMSL traffic).
    pub seed_locations: u64,
    /// Seed Table lookups issued.
    pub seed_lookups: u64,
    /// Paired-adjacency comparator iterations.
    pub pa_iterations: u64,
    /// Candidates surviving the PA filter.
    pub candidates: u64,
    /// Light alignments attempted (two per candidate; Table 3's
    /// "11.6 alignments per pair" statistic).
    pub light_attempts: u64,
    /// DP cells computed by the fallback aligner.
    pub dp_cells: u64,
}

/// Result of mapping one pair.
#[derive(Clone, Debug)]
pub struct PairMapResult {
    /// The mapping, when GenPair produced one (always for the light path and
    /// the [`FallbackStage::LightAlign`] DP path; `None` for full-pipeline
    /// fallbacks, which the caller routes to the traditional mapper).
    pub mapping: Option<PairMapping>,
    /// `None` when the pair completed on the pure light path.
    pub fallback: Option<FallbackStage>,
    /// Work counters.
    pub work: PairWork,
}

impl PairMapResult {
    /// Whether GenPair produced a mapping for this pair.
    pub fn is_mapped(&self) -> bool {
        self.mapping.is_some()
    }
}

/// The GenPair mapper: SeedMap plus the online pipeline.
///
/// ```
/// use gx_genome::random::RandomGenomeBuilder;
/// use gx_core::{GenPairConfig, GenPairMapper};
///
/// let genome = RandomGenomeBuilder::new(60_000).seed(5).build();
/// let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
/// let r1 = genome.chromosome(0).seq().subseq(2_000..2_150);
/// let r2 = genome.chromosome(0).seq().subseq(2_250..2_400).revcomp();
/// let res = mapper.map_pair(&r1, &r2);
/// assert!(res.is_mapped());
/// assert_eq!(res.mapping.unwrap().pos1, 2_000);
/// ```
///
/// Like the [`SeedMap`] it wraps, the mapper is generic over the index's
/// seed-hash family `H` (default: the paper's xxh32 via [`Xxh32Builder`]),
/// so end-to-end mapping behaviour can be A/B'd per hash family through
/// the *real* pipeline — build an alternative-hash mapper with
/// [`GenPairMapper::build_with`]:
///
/// ```
/// use gx_genome::random::RandomGenomeBuilder;
/// use gx_core::{GenPairConfig, GenPairMapper};
/// use gx_seedmap::Murmur3Builder;
///
/// let genome = RandomGenomeBuilder::new(60_000).seed(5).build();
/// let mapper =
///     GenPairMapper::<Murmur3Builder>::build_with(&genome, &GenPairConfig::default());
/// let r1 = genome.chromosome(0).seq().subseq(2_000..2_150);
/// let r2 = genome.chromosome(0).seq().subseq(2_250..2_400).revcomp();
/// assert!(mapper.map_pair(&r1, &r2).is_mapped());
/// ```
#[derive(Debug)]
pub struct GenPairMapper<'g, H: SeedHasher = Xxh32Builder> {
    genome: &'g ReferenceGenome,
    seedmap: SeedMap<H>,
    config: GenPairConfig,
}

// The mapper is shared read-only across worker threads by `gx-pipeline`
// (`map_pair` takes `&self` and touches no interior mutability). Keep that
// contract explicit: losing `Send + Sync` here breaks the whole throughput
// engine at a distance.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GenPairMapper<'static>>();
    assert_send_sync::<crate::PipelineStats>();
    assert_send_sync::<PairMapResult>();
};

impl<'g> GenPairMapper<'g> {
    /// Builds the default (xxh32) SeedMap (offline stage) and returns a
    /// mapper — the paper's configuration. Equivalent to
    /// [`GenPairMapper::<Xxh32Builder>::build_with`](GenPairMapper::build_with).
    pub fn build(genome: &'g ReferenceGenome, config: &GenPairConfig) -> GenPairMapper<'g> {
        GenPairMapper::build_with(genome, config)
    }
}

impl<'g, H: SeedHasher> GenPairMapper<'g, H> {
    /// Builds the SeedMap with seed-hash family `H` (offline stage) and
    /// returns a mapper over it. The whole online pipeline — seeding,
    /// query, PA filtering, light alignment, fallbacks — then runs against
    /// that index, so differences between two `build_with` mappers measure
    /// the hash family end to end.
    pub fn build_with(genome: &'g ReferenceGenome, config: &GenPairConfig) -> GenPairMapper<'g, H> {
        let seedmap = SeedMap::<H>::build_with(genome, &config.seedmap);
        GenPairMapper {
            genome,
            seedmap,
            config: *config,
        }
    }

    /// Wraps an existing SeedMap (e.g. deserialized) in a mapper.
    ///
    /// # Panics
    ///
    /// Panics if the SeedMap's seed length differs from the config's.
    pub fn with_seedmap(
        genome: &'g ReferenceGenome,
        seedmap: SeedMap<H>,
        config: &GenPairConfig,
    ) -> GenPairMapper<'g, H> {
        assert_eq!(
            seedmap.config().seed_len,
            config.seedmap.seed_len,
            "seed length mismatch between SeedMap and config"
        );
        GenPairMapper {
            genome,
            seedmap,
            config: *config,
        }
    }

    /// The underlying SeedMap.
    pub fn seedmap(&self) -> &SeedMap<H> {
        &self.seedmap
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &GenPairConfig {
        &self.config
    }

    /// The reference genome.
    pub fn genome(&self) -> &ReferenceGenome {
        self.genome
    }

    /// Maps one pair through the GenPair pipeline.
    ///
    /// Allocates a fresh [`MapScratch`] per call; batch loops (the backend
    /// sessions) thread a session-owned scratch through
    /// [`map_pair_with`](GenPairMapper::map_pair_with) instead.
    pub fn map_pair(&self, r1: &DnaSeq, r2: &DnaSeq) -> PairMapResult {
        self.map_pair_with(&mut MapScratch::new(), r1, r2)
    }

    /// Maps one pair through the GenPair pipeline, reusing the buffers in
    /// `scratch` (identical results to [`map_pair`](GenPairMapper::map_pair);
    /// no steady-state allocation once the scratch has warmed up).
    pub fn map_pair_with(
        &self,
        scratch: &mut MapScratch,
        r1: &DnaSeq,
        r2: &DnaSeq,
    ) -> PairMapResult {
        let MapScratch {
            r1_rc,
            r2_rc,
            codes,
            c1,
            c2,
            pa,
            dp_cands,
            window,
            light,
            align,
        } = scratch;
        let mut work = PairWork::default();
        r1.revcomp_into(r1_rc);
        r2.revcomp_into(r2_rc);
        dp_cands.clear();

        // Orientation A: read1 forward, read2 reverse-complemented.
        // Orientation B: the mirror (read2 forward).
        let orientations: [(&DnaSeq, &DnaSeq, bool); 2] = [(r1, r2_rc, true), (r1_rc, r2, false)];

        let mut any_hits1 = false;
        let mut any_hits2 = false;
        let mut any_candidates = false;
        let mut best_light: Option<(PairMapping, i32, u32)> = None; // (mapping, score, ties)

        for (seq1, seq2, r1_forward) in orientations {
            query_read_into(seq1, &self.seedmap, codes, c1);
            query_read_into(seq2, &self.seedmap, codes, c2);
            work.seed_lookups += (c1.seeds_total + c2.seeds_total) as u64;
            work.seed_locations += c1.locations_fetched + c2.locations_fetched;
            any_hits1 |= c1.seeds_hit > 0;
            any_hits2 |= c2.seeds_hit > 0;

            paired_adjacency_filter_into(
                &c1.starts,
                &c2.starts,
                self.config.delta,
                self.config.max_candidates,
                pa,
            );
            work.pa_iterations += pa.iterations;
            work.candidates += pa.candidates.len() as u64;

            for cand in &pa.candidates {
                // Both ends must land on one chromosome.
                let l1 = self.genome.locate(cand.start1);
                let l2 = self.genome.locate(cand.start2);
                if l1.chrom != l2.chrom {
                    continue;
                }
                any_candidates = true;
                work.light_attempts += 2;
                let a1 = self.light_at(seq1, cand.start1, window, light);
                let a2 = self.light_at(seq2, cand.start2, window, light);
                match (a1, a2) {
                    (Some(a1), Some(a2)) => {
                        let score = a1.score + a2.score;
                        let mapping = self.mapping_from_light(cand, a1, a2, r1_forward);
                        match &mut best_light {
                            Some((best, bs, ties)) => {
                                if score > *bs {
                                    *best = mapping;
                                    *bs = score;
                                    *ties = 0;
                                } else if score == *bs
                                    && (mapping.pos1 != best.pos1 || mapping.pos2 != best.pos2)
                                {
                                    *ties += 1;
                                }
                            }
                            None => best_light = Some((mapping, score, 0)),
                        }
                    }
                    _ => {
                        if dp_cands.len() < self.config.max_dp_candidates {
                            dp_cands.push((*cand, r1_forward));
                        }
                    }
                }
            }
        }

        if let Some((mut mapping, _, ties)) = best_light {
            mapping.mapq = if ties == 0 { 60 } else { 3 };
            return PairMapResult {
                mapping: Some(mapping),
                fallback: None,
                work,
            };
        }

        if !any_hits1 || !any_hits2 {
            return PairMapResult {
                mapping: None,
                fallback: Some(FallbackStage::SeedMapMiss),
                work,
            };
        }
        if !any_candidates {
            return PairMapResult {
                mapping: None,
                fallback: Some(FallbackStage::PaFilter),
                work,
            };
        }

        // Light alignment failed: DP-align at the candidate locations
        // (bypassing seeding and chaining, paper Fig. 10).
        let mut best_dp: Option<(PairMapping, i32)> = None;
        for &(cand, r1_forward) in dp_cands.iter() {
            let (seq1, seq2): (&DnaSeq, &DnaSeq) =
                if r1_forward { (r1, r2_rc) } else { (r1_rc, r2) };
            let Some((pos1, cigar1, score1, cells1)) = self.dp_at(seq1, cand.start1, window, align)
            else {
                continue;
            };
            let Some((pos2, cigar2, score2, cells2)) = self.dp_at(seq2, cand.start2, window, align)
            else {
                align.recycle(cigar1);
                continue;
            };
            work.dp_cells += cells1 + cells2;
            let l1 = self.genome.locate(cand.start1);
            let score = score1 + score2;
            let mapping = PairMapping {
                chrom: l1.chrom,
                pos1,
                pos2,
                r1_forward,
                cigar1,
                cigar2,
                score1,
                score2,
                mapq: 40,
            };
            // Losing alignments hand their CIGARs back, so the long CIGARs
            // of poor candidates reuse heap storage instead of allocating.
            let loser = if best_dp.as_ref().is_none_or(|(_, bs)| score > *bs) {
                best_dp.replace((mapping, score)).map(|(m, _)| m)
            } else {
                Some(mapping)
            };
            if let Some(loser) = loser {
                align.recycle(loser.cigar1);
                align.recycle(loser.cigar2);
            }
        }
        PairMapResult {
            mapping: best_dp.map(|(m, _)| m),
            fallback: Some(FallbackStage::LightAlign),
            work,
        }
    }

    /// Light-aligns `seq` at global candidate `start`, borrowing the window
    /// and mask buffers from the caller's scratch.
    fn light_at(
        &self,
        seq: &DnaSeq,
        start: GlobalPos,
        window: &mut DnaSeq,
        light: &mut LightScratch,
    ) -> Option<LightAlignment> {
        let e = self.config.light.max_indel_run as i64;
        let locus = self.genome.locate(start);
        let win_start = self.genome.clamped_window_into(
            locus.chrom,
            locus.pos as i64 - e,
            seq.len() + 2 * e as usize,
            window,
        );
        let anchor = (locus.pos - win_start) as usize;
        light_align_with(
            seq,
            window,
            anchor,
            &self.config.light,
            &self.config.scoring,
            light,
        )
    }

    /// Banded-DP-aligns `seq` near global candidate `start`, borrowing the
    /// window and DP-row buffers from the caller's scratch; returns
    /// (chromosome position, cigar, score, cells).
    fn dp_at(
        &self,
        seq: &DnaSeq,
        start: GlobalPos,
        window: &mut DnaSeq,
        align: &mut AlignScratch,
    ) -> Option<(u64, Cigar, i32, u64)> {
        let locus = self.genome.locate(start);
        let win_start = self.genome.clamped_window_into(
            locus.chrom,
            locus.pos as i64 - DP_WINDOW_MARGIN as i64,
            seq.len() + 2 * DP_WINDOW_MARGIN,
            window,
        );
        if window.len() < seq.len() / 2 {
            return None;
        }
        let a = banded_align_with(
            seq,
            window,
            &self.config.scoring,
            DP_BAND,
            AlignMode::Fit,
            align,
        );
        Some((win_start + a.target_start as u64, a.cigar, a.score, a.cells))
    }

    /// Builds the pair mapping, *moving* the light alignments' CIGARs (no
    /// clone on the hot path).
    fn mapping_from_light(
        &self,
        cand: &PairCandidate,
        a1: LightAlignment,
        a2: LightAlignment,
        r1_forward: bool,
    ) -> PairMapping {
        let l1 = self.genome.locate(cand.start1);
        let l2 = self.genome.locate(cand.start2);
        PairMapping {
            chrom: l1.chrom,
            pos1: (l1.pos as i64 + a1.shift as i64).max(0) as u64,
            pos2: (l2.pos as i64 + a2.shift as i64).max(0) as u64,
            r1_forward,
            cigar1: a1.cigar,
            cigar2: a2.cigar,
            score1: a1.score,
            score2: a2.score,
            mapq: 60,
        }
    }
}

/// Converts a [`PairMapping`] into two SAM records. Read sequences are
/// stored in reference orientation, as SAM requires.
pub fn pair_mapping_to_sam(
    mapping: &PairMapping,
    qname: &str,
    r1: &DnaSeq,
    r2: &DnaSeq,
) -> (SamRecord, SamRecord) {
    let base = flags::PAIRED | flags::PROPER_PAIR;
    let (f1, f2) = if mapping.r1_forward {
        (
            base | flags::FIRST_IN_PAIR | flags::MATE_REVERSE,
            base | flags::SECOND_IN_PAIR | flags::REVERSE,
        )
    } else {
        (
            base | flags::FIRST_IN_PAIR | flags::REVERSE,
            base | flags::SECOND_IN_PAIR | flags::MATE_REVERSE,
        )
    };
    let seq1 = if mapping.r1_forward {
        r1.clone()
    } else {
        r1.revcomp()
    };
    let seq2 = if mapping.r1_forward {
        r2.revcomp()
    } else {
        r2.clone()
    };
    (
        SamRecord {
            qname: format!("{qname}/1"),
            flags: f1,
            chrom: mapping.chrom,
            pos: mapping.pos1,
            mapq: mapping.mapq,
            cigar: mapping.cigar1.clone(),
            seq: seq1,
            score: mapping.score1,
        },
        SamRecord {
            qname: format!("{qname}/2"),
            flags: f2,
            chrom: mapping.chrom,
            pos: mapping.pos2,
            mapq: mapping.mapq,
            cigar: mapping.cigar2.clone(),
            seq: seq2,
            score: mapping.score2,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_genome::random::RandomGenomeBuilder;

    fn setup() -> (ReferenceGenome, GenPairConfig) {
        (
            RandomGenomeBuilder::new(80_000).seed(9).build(),
            GenPairConfig::default(),
        )
    }

    #[test]
    fn perfect_pair_maps_exactly() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        let r1 = seq.subseq(10_000..10_150);
        let r2 = seq.subseq(10_250..10_400).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        assert!(res.fallback.is_none(), "fallback: {:?}", res.fallback);
        let m = res.mapping.unwrap();
        assert_eq!(m.pos1, 10_000);
        assert_eq!(m.pos2, 10_250);
        assert!(m.r1_forward);
        assert_eq!(m.pair_score(), 600);
    }

    #[test]
    fn murmur_backed_mapper_maps_end_to_end() {
        // The full pipeline over a murmur3-hashed index: same algorithm,
        // different bucket layout, same mapping for an exact pair.
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::<gx_seedmap::Murmur3Builder>::build_with(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        let r1 = seq.subseq(10_000..10_150);
        let r2 = seq.subseq(10_250..10_400).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        assert!(res.fallback.is_none(), "fallback: {:?}", res.fallback);
        let m = res.mapping.unwrap();
        assert_eq!((m.pos1, m.pos2), (10_000, 10_250));
    }

    #[test]
    fn mirrored_orientation_maps() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        // read2 is the forward read here.
        let r2 = seq.subseq(20_000..20_150);
        let r1 = seq.subseq(20_250..20_400).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        let m = res.mapping.unwrap();
        assert!(!m.r1_forward);
        assert_eq!(m.pos2, 20_000);
        assert_eq!(m.pos1, 20_250);
    }

    #[test]
    fn pair_with_few_mismatches_stays_on_light_path() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        let mut r1 = seq.subseq(30_000..30_150);
        r1.set(75, r1.get(75).complement());
        let r2 = seq.subseq(30_280..30_430).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        assert!(res.fallback.is_none());
        let m = res.mapping.unwrap();
        assert_eq!(m.min_score(), 290);
    }

    #[test]
    fn random_read_takes_full_fallback() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        // Reads from a different random genome: no true 50-mer matches. Hash
        // collisions may still land seeds in occupied buckets (the paper's
        // design tolerates this), so the exit is either SeedMapMiss or
        // PaFilter — both full-pipeline fallbacks with no mapping.
        let other = RandomGenomeBuilder::new(10_000).seed(777).build();
        let r1 = other.chromosome(0).seq().subseq(100..250);
        let r2 = other.chromosome(0).seq().subseq(400..550).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        assert!(matches!(
            res.fallback,
            Some(FallbackStage::SeedMapMiss) | Some(FallbackStage::PaFilter)
        ));
        assert!(res.mapping.is_none());
    }

    #[test]
    fn seedmap_miss_when_buckets_empty() {
        // A genome small enough that most hash buckets stay empty: a foreign
        // read's seeds then miss outright.
        let genome = RandomGenomeBuilder::new(2_000).seed(9).build();
        let cfg = GenPairConfig::default();
        let mut smcfg = cfg;
        smcfg.seedmap.bucket_bits = Some(22); // 4M buckets for 2k seeds
        let mapper = GenPairMapper::build(&genome, &smcfg);
        let other = RandomGenomeBuilder::new(10_000).seed(778).build();
        let r1 = other.chromosome(0).seq().subseq(100..250);
        let r2 = other.chromosome(0).seq().subseq(400..550).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        assert_eq!(res.fallback, Some(FallbackStage::SeedMapMiss));
    }

    #[test]
    fn distant_ends_fall_back_at_pa_filter() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        // Two reads >40kb apart: both have seed hits, no adjacency.
        let r1 = seq.subseq(1_000..1_150);
        let r2 = seq.subseq(45_000..45_150).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        assert_eq!(res.fallback, Some(FallbackStage::PaFilter));
    }

    #[test]
    fn complex_read_takes_dp_fallback_with_mapping() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        // Read 1 carries both a mismatch and an indel (two edit types), but
        // its last seed is intact so candidates exist.
        let mut r1 = gx_genome::DnaSeq::new();
        r1.extend_from_seq(&seq.subseq(50_000..50_040));
        r1.extend_from_seq(&seq.subseq(50_043..50_153)); // 3bp deletion
        r1.set(10, r1.get(10).complement()); // plus a mismatch
        let r2 = seq.subseq(50_300..50_450).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        assert_eq!(res.fallback, Some(FallbackStage::LightAlign));
        let m = res.mapping.expect("DP fallback should map");
        assert_eq!(m.pos1, 50_000);
        assert!(res.work.dp_cells > 0);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        // A shared scratch driven across pairs of every pipeline outcome
        // (light path, DP fallback, full-pipeline fallbacks) must reproduce
        // fresh-scratch results exactly.
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        let other = RandomGenomeBuilder::new(10_000).seed(777).build();

        let mut pairs: Vec<(DnaSeq, DnaSeq)> = Vec::new();
        for pos in [10_000usize, 20_000, 30_000, 60_000] {
            pairs.push((
                seq.subseq(pos..pos + 150),
                seq.subseq(pos + 250..pos + 400).revcomp(),
            ));
        }
        // Mismatches on the light path.
        let mut noisy = seq.subseq(30_000..30_150);
        noisy.set(75, noisy.get(75).complement());
        pairs.push((noisy, seq.subseq(30_280..30_430).revcomp()));
        // A pair that exits at the DP fallback.
        let mut indel = gx_genome::DnaSeq::new();
        indel.extend_from_seq(&seq.subseq(50_000..50_040));
        indel.extend_from_seq(&seq.subseq(50_043..50_153));
        indel.set(10, indel.get(10).complement());
        pairs.push((indel, seq.subseq(50_300..50_450).revcomp()));
        // Full-pipeline fallbacks (foreign reads).
        pairs.push((
            other.chromosome(0).seq().subseq(100..250),
            other.chromosome(0).seq().subseq(400..550).revcomp(),
        ));

        let mut scratch = MapScratch::new();
        for (r1, r2) in &pairs {
            let fresh = mapper.map_pair(r1, r2);
            let reused = mapper.map_pair_with(&mut scratch, r1, r2);
            assert_eq!(fresh.fallback, reused.fallback);
            assert_eq!(fresh.mapping.is_some(), reused.mapping.is_some());
            if let (Some(a), Some(b)) = (&fresh.mapping, &reused.mapping) {
                assert_eq!((a.chrom, a.pos1, a.pos2), (b.chrom, b.pos1, b.pos2));
                assert_eq!(a.cigar1, b.cigar1);
                assert_eq!(a.cigar2, b.cigar2);
                assert_eq!((a.score1, a.score2, a.mapq), (b.score1, b.score2, b.mapq));
                assert_eq!(a.r1_forward, b.r1_forward);
            }
            assert_eq!(fresh.work.seed_lookups, reused.work.seed_lookups);
            assert_eq!(fresh.work.candidates, reused.work.candidates);
            assert_eq!(fresh.work.dp_cells, reused.work.dp_cells);
        }
    }

    #[test]
    fn work_counters_populated() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        let r1 = seq.subseq(60_000..60_150);
        let r2 = seq.subseq(60_200..60_350).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        assert!(res.work.seed_lookups >= 12); // 6 seeds x 2 orientations
        assert!(res.work.light_attempts >= 2);
        assert!(res.work.pa_iterations > 0);
    }

    #[test]
    fn sam_conversion_sets_flags() {
        let (genome, cfg) = setup();
        let mapper = GenPairMapper::build(&genome, &cfg);
        let seq = genome.chromosome(0).seq();
        let r1 = seq.subseq(15_000..15_150);
        let r2 = seq.subseq(15_200..15_350).revcomp();
        let res = mapper.map_pair(&r1, &r2);
        let m = res.mapping.unwrap();
        let (s1, s2) = pair_mapping_to_sam(&m, "p0", &r1, &r2);
        assert!(s1.flags & flags::FIRST_IN_PAIR != 0);
        assert!(s2.flags & flags::SECOND_IN_PAIR != 0);
        assert!(s2.is_reverse());
        assert!(!s1.is_reverse());
        // Both sequences in reference orientation -> read2's stored seq is
        // the forward-strand window.
        assert_eq!(s2.seq, seq.subseq(15_200..15_350));
    }
}
