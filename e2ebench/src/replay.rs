//! Serial replay of one slice through the public stage functions, with a
//! span around every call: FASTQ parse, SeedMap query, paired-adjacency
//! filter, light alignment, DP fallback and SAM formatting.
//!
//! The replay follows `GenPairMapper::map_pair_with` step by step. It is
//! checked against the real thing on every pair: the work counters and the
//! fallback stage must match `map_pair_with`, and the replayed SAM digest
//! must match the `map_serial` oracle.

use crate::sinks::{DigestSink, SamDigest};
use crate::trace::Tracer;
use gx_align::{banded_align_with, AlignMode, AlignScratch};
use gx_core::light::{light_align_with, LightAlignment, LightScratch};
use gx_core::pafilter::{paired_adjacency_filter_into, PaFilterResult, PairCandidate};
use gx_core::seeding::{query_read_into, ReadCandidates};
use gx_core::{
    pair_mapping_to_sam, FallbackStage, GenPairMapper, MapScratch, PairMapping, PairWork,
};
use gx_genome::{flags, Cigar, DnaSeq, GlobalPos, SamRecord};
use gx_pipeline::{ReadPairStream, RecordSink};

/// Work counted by the replay, summed over pairs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayCounts {
    /// Pairs replayed.
    pub pairs: u64,
    /// SeedMap locations fetched.
    pub locations: u64,
    /// PA-filter comparator iterations.
    pub pa_iterations: u64,
    /// PA-filter candidates.
    pub candidates: u64,
    /// Light alignments attempted.
    pub light_attempts: u64,
    /// Light alignments that produced an alignment.
    pub light_successes: u64,
    /// Pairs finished on the light path.
    pub light_path_pairs: u64,
    /// Pairs that fell back to DP alignment.
    pub dp_pairs: u64,
    /// DP cells computed.
    pub dp_cells: u64,
    /// SAM records written.
    pub records: u64,
    /// Pairs whose replayed work or fallback differed from `map_pair_with`.
    pub mismatches: u64,
}

/// Buffers the replay reuses across pairs, as `MapScratch` does.
#[derive(Default)]
struct Buffers {
    r1_rc: DnaSeq,
    r2_rc: DnaSeq,
    codes: Vec<u8>,
    c1: ReadCandidates,
    c2: ReadCandidates,
    pa: PaFilterResult,
    dp_cands: Vec<(PairCandidate, bool)>,
    window: DnaSeq,
    light: LightScratch,
    align: AlignScratch,
}

/// Replays every pair of the FASTQ slice `(r1, r2)`, recording spans into
/// `tracer` (pair ids start at `first_id`) and counts into `counts`.
/// Returns the digest of the SAM text the replay produced.
pub fn replay_slice(
    mapper: &GenPairMapper<'_>,
    r1: &[u8],
    r2: &[u8],
    first_id: u64,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> SamDigest {
    let mut sink = DigestSink::new(mapper.genome(), false);
    let mut stream = ReadPairStream::new(r1, r2);
    let mut b = Buffers::default();
    let mut real = MapScratch::new();
    let mut records = Vec::with_capacity(2);
    for id in first_id.. {
        let pair_span = tracer.begin("pair", id, None, 1);
        let Some(Ok(pair)) = tracer.time("fastq.parse", id, Some(pair_span), || stream.next())
        else {
            tracer.end(pair_span);
            break;
        };
        // The real mapper on the same pair, on its own root span: the
        // denominator of stage coverage, and the check on the replay. It
        // goes first on every other pair, so neither side always runs on
        // caches the other warmed.
        let mut real_map = |tracer: &mut Tracer| {
            tracer.time("map_pair_with", id, None, || {
                mapper.map_pair_with(&mut real, &pair.r1, &pair.r2)
            })
        };
        let early = (id % 2 == 0).then(|| real_map(tracer));
        let map_span = tracer.begin("map_pair", id, Some(pair_span), 1);
        let (mapping, fallback, work) = map_pair(
            mapper, &pair.r1, &pair.r2, &mut b, tracer, id, map_span, counts,
        );
        tracer.end(map_span);

        records.clear();
        match &mapping {
            Some(m) => {
                let (s1, s2) = pair_mapping_to_sam(m, &pair.id, &pair.r1, &pair.r2);
                records.push(s1);
                records.push(s2);
            }
            None => {
                let base = flags::PAIRED | flags::MATE_UNMAPPED;
                records.push(SamRecord::unmapped(
                    format!("{}/1", pair.id),
                    base | flags::FIRST_IN_PAIR,
                    pair.r1.clone(),
                ));
                records.push(SamRecord::unmapped(
                    format!("{}/2", pair.id),
                    base | flags::SECOND_IN_PAIR,
                    pair.r2.clone(),
                ));
            }
        }
        tracer.time("sam", id, Some(pair_span), || {
            for rec in &records {
                sink.write_record(rec).expect("a digest sink cannot fail");
            }
        });
        counts.records += records.len() as u64;
        tracer.end(pair_span);

        let res = match early {
            Some(res) => res,
            None => real_map(tracer),
        };
        let same_work = res.work.seed_locations == work.seed_locations
            && res.work.pa_iterations == work.pa_iterations
            && res.work.candidates == work.candidates
            && res.work.light_attempts == work.light_attempts
            && res.work.dp_cells == work.dp_cells;
        if !same_work || res.fallback != fallback {
            counts.mismatches += 1;
        }
        counts.pairs += 1;
    }
    sink.finish()
}

/// `map_pair_with`, one public stage call at a time.
#[allow(clippy::too_many_arguments)]
fn map_pair(
    mapper: &GenPairMapper<'_>,
    r1: &DnaSeq,
    r2: &DnaSeq,
    b: &mut Buffers,
    tracer: &mut Tracer,
    id: u64,
    parent: usize,
    counts: &mut ReplayCounts,
) -> (Option<PairMapping>, Option<FallbackStage>, PairWork) {
    let cfg = mapper.config();
    let genome = mapper.genome();
    let mut work = PairWork::default();
    r1.revcomp_into(&mut b.r1_rc);
    r2.revcomp_into(&mut b.r2_rc);
    b.dp_cands.clear();
    let Buffers {
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
    } = b;
    let orientations: [(&DnaSeq, &DnaSeq, bool); 2] = [(r1, r2_rc, true), (r1_rc, r2, false)];
    let (mut any_hits1, mut any_hits2, mut any_candidates) = (false, false, false);
    let mut best_light: Option<(PairMapping, i32, u32)> = None;

    for (seq1, seq2, r1_forward) in orientations {
        tracer.time("seed_query", id, Some(parent), || {
            query_read_into(seq1, mapper.seedmap(), codes, c1)
        });
        tracer.time("seed_query", id, Some(parent), || {
            query_read_into(seq2, mapper.seedmap(), codes, c2)
        });
        work.seed_locations += c1.locations_fetched + c2.locations_fetched;
        any_hits1 |= c1.seeds_hit > 0;
        any_hits2 |= c2.seeds_hit > 0;

        tracer.time("pa_filter", id, Some(parent), || {
            paired_adjacency_filter_into(&c1.starts, &c2.starts, cfg.delta, cfg.max_candidates, pa)
        });
        work.pa_iterations += pa.iterations;
        work.candidates += pa.candidates.len() as u64;

        for cand in &pa.candidates {
            let l1 = genome.locate(cand.start1);
            let l2 = genome.locate(cand.start2);
            if l1.chrom != l2.chrom {
                continue;
            }
            any_candidates = true;
            work.light_attempts += 2;
            let a1 = tracer.time("light", id, Some(parent), || {
                light_at(mapper, seq1, cand.start1, window, light)
            });
            let a2 = tracer.time("light", id, Some(parent), || {
                light_at(mapper, seq2, cand.start2, window, light)
            });
            counts.light_successes += a1.is_some() as u64 + a2.is_some() as u64;
            match (a1, a2) {
                (Some(a1), Some(a2)) => {
                    let score = a1.score + a2.score;
                    let mapping = PairMapping {
                        chrom: l1.chrom,
                        pos1: (l1.pos as i64 + a1.shift as i64).max(0) as u64,
                        pos2: (l2.pos as i64 + a2.shift as i64).max(0) as u64,
                        r1_forward,
                        cigar1: a1.cigar,
                        cigar2: a2.cigar,
                        score1: a1.score,
                        score2: a2.score,
                        mapq: 60,
                    };
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
                    if dp_cands.len() < cfg.max_dp_candidates {
                        dp_cands.push((*cand, r1_forward));
                    }
                }
            }
        }
    }
    counts.locations += work.seed_locations;
    counts.pa_iterations += work.pa_iterations;
    counts.candidates += work.candidates;
    counts.light_attempts += work.light_attempts;

    if let Some((mut mapping, _, ties)) = best_light {
        mapping.mapq = if ties == 0 { 60 } else { 3 };
        counts.light_path_pairs += 1;
        return (Some(mapping), None, work);
    }
    if !any_hits1 || !any_hits2 {
        return (None, Some(FallbackStage::SeedMapMiss), work);
    }
    if !any_candidates {
        return (None, Some(FallbackStage::PaFilter), work);
    }

    counts.dp_pairs += 1;
    let mut best_dp: Option<(PairMapping, i32)> = None;
    for &(cand, r1_forward) in dp_cands.iter() {
        let (seq1, seq2): (&DnaSeq, &DnaSeq) = if r1_forward { (r1, r2_rc) } else { (r1_rc, r2) };
        let Some((pos1, cigar1, score1, cells1)) = tracer.time("dp", id, Some(parent), || {
            dp_at(mapper, seq1, cand.start1, window, align)
        }) else {
            continue;
        };
        let Some((pos2, cigar2, score2, cells2)) = tracer.time("dp", id, Some(parent), || {
            dp_at(mapper, seq2, cand.start2, window, align)
        }) else {
            continue;
        };
        work.dp_cells += cells1 + cells2;
        let score = score1 + score2;
        let mapping = PairMapping {
            chrom: genome.locate(cand.start1).chrom,
            pos1,
            pos2,
            r1_forward,
            cigar1,
            cigar2,
            score1,
            score2,
            mapq: 40,
        };
        if best_dp.as_ref().is_none_or(|(_, bs)| score > *bs) {
            best_dp = Some((mapping, score));
        }
    }
    counts.dp_cells += work.dp_cells;
    (
        best_dp.map(|(m, _)| m),
        Some(FallbackStage::LightAlign),
        work,
    )
}

/// Light alignment of `seq` at candidate `start`: window extraction plus
/// `light_align_with`.
fn light_at(
    mapper: &GenPairMapper<'_>,
    seq: &DnaSeq,
    start: GlobalPos,
    window: &mut DnaSeq,
    light: &mut LightScratch,
) -> Option<LightAlignment> {
    let cfg = mapper.config();
    let genome = mapper.genome();
    let e = cfg.light.max_indel_run as i64;
    let locus = genome.locate(start);
    let win_start = genome.clamped_window_into(
        locus.chrom,
        locus.pos as i64 - e,
        seq.len() + 2 * e as usize,
        window,
    );
    let anchor = (locus.pos - win_start) as usize;
    light_align_with(seq, window, anchor, &cfg.light, &cfg.scoring, light)
}

/// Banded DP of `seq` near candidate `start`: window extraction plus
/// `banded_align_with`. Returns (position, CIGAR, score, cells).
fn dp_at(
    mapper: &GenPairMapper<'_>,
    seq: &DnaSeq,
    start: GlobalPos,
    window: &mut DnaSeq,
    align: &mut AlignScratch,
) -> Option<(u64, Cigar, i32, u64)> {
    let margin = 24i64;
    let genome = mapper.genome();
    let locus = genome.locate(start);
    let win_start = genome.clamped_window_into(
        locus.chrom,
        locus.pos as i64 - margin,
        seq.len() + 2 * margin as usize,
        window,
    );
    if window.len() < seq.len() / 2 {
        return None;
    }
    let a = banded_align_with(
        seq,
        window,
        &mapper.config().scoring,
        16,
        AlignMode::Fit,
        align,
    );
    Some((win_start + a.target_start as u64, a.cigar, a.score, a.cells))
}
