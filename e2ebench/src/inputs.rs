//! Workload definitions and their seeded inputs: a reference genome and
//! mate-paired FASTQ bytes cut into equal slices, with simulation truth
//! kept on the benchmark's side only.

use gx_genome::fastq::write_fastq;
use gx_genome::random::RandomGenomeBuilder;
use gx_genome::{Locus, ReadRecord, ReferenceGenome};
use gx_readsim::dataset::{simulate_variant_dataset, standard_genome, DatasetSpec, DATASETS};
use gx_readsim::{ErrorModel, PairedEndSimulator, SimulatedPair};
use std::sync::Arc;

/// Reference length of every workload (bp).
pub const GENOME_LEN: u64 = 2_000_000;
/// Seed of the reference genomes. The reference stays fixed while `--seed`
/// varies the reads, as users map many read sets against one reference.
/// This also keeps the repeat structure, and with it the DP share, from
/// changing between seeds.
const GENOME_SEED: u64 = 0xC0FFEE;

/// The three workloads; see `README.md` for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Engine + software backend on repeat-free, substitution-only reads:
    /// nearly every pair on the light path, no DP.
    LightStream,
    /// Engine + warm NMSL backend on variant reads from the repeat-rich
    /// genome: DP fallback dominates mapping time.
    DpStream,
    /// Multi-job service over a warm NMSL device, closed loop.
    JobsNmsl,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "light_stream" => Some(Workload::LightStream),
            "dp_stream" => Some(Workload::DpStream),
            "jobs_nmsl" => Some(Workload::JobsNmsl),
            _ => None,
        }
    }

    /// Pairs per input slice: one `engine.run` per slice, or one job.
    pub fn slice_pairs(self) -> usize {
        match self {
            Workload::LightStream => 2048,
            Workload::DpStream => 2048,
            Workload::JobsNmsl => 256,
        }
    }

    /// Slices (engine runs or jobs) the reference host completes per
    /// second. A run's work is `seconds` times this, rounded up to whole
    /// passes over the distinct slices: a fixed amount of work, never a
    /// fixed duration, so every count repeats exactly.
    pub fn slices_per_second(self) -> usize {
        match self {
            Workload::LightStream => 38,
            Workload::DpStream => 7,
            Workload::JobsNmsl => 190,
        }
    }

    /// Distinct input slices; timed work cycles through them.
    pub fn distinct_slices(self) -> usize {
        match self {
            Workload::LightStream => 8,
            Workload::DpStream => 8,
            Workload::JobsNmsl => 32,
        }
    }
}

/// Simulated origin of one pair, in reference coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truth {
    /// Chromosome.
    pub chrom: u32,
    /// Leftmost position of read 1.
    pub pos1: u64,
    /// Leftmost position of read 2.
    pub pos2: u64,
}

/// One slice of input: R1 and R2 FASTQ bytes for `pairs` pairs.
#[derive(Clone, Debug)]
pub struct Slice {
    /// R1 FASTQ bytes.
    pub r1: Arc<[u8]>,
    /// R2 FASTQ bytes.
    pub r2: Arc<[u8]>,
    /// Pairs in the slice.
    pub pairs: u64,
    /// Per-pair truth (never given to the program).
    pub truth: Vec<Truth>,
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The reference genome the mapper indexes.
    pub genome: ReferenceGenome,
    /// Distinct input slices.
    pub slices: Vec<Slice>,
}

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates the inputs of `workload` from `seed`. The same seed gives
/// byte-identical inputs.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let n = workload.slice_pairs() * workload.distinct_slices();
    let (genome, pairs, truth): (ReferenceGenome, Vec<SimulatedPair>, Vec<Truth>) = match workload {
        Workload::LightStream | Workload::JobsNmsl => {
            let genome = RandomGenomeBuilder::new(GENOME_LEN)
                .chromosomes(4)
                .seed(GENOME_SEED)
                .build();
            let substitutions = ErrorModel {
                sub_rate: 0.002,
                ins_rate: 0.0,
                del_rate: 0.0,
            };
            let pairs = PairedEndSimulator::new(&genome)
                .seed(mix(seed, 2))
                .error_model(substitutions)
                .simulate(n);
            let truth = pairs
                .iter()
                .map(|p| Truth {
                    chrom: p.truth.chrom,
                    pos1: p.truth.start1,
                    pos2: p.truth.start2,
                })
                .collect();
            (genome, pairs, truth)
        }
        Workload::DpStream => {
            let genome = standard_genome(GENOME_LEN, GENOME_SEED);
            let spec = DatasetSpec {
                seed: mix(seed, 2),
                ..DATASETS[2]
            };
            let ds = simulate_variant_dataset(&genome, &spec, n);
            // Reads come from the variant-carrying donor: lift their
            // origin to reference coordinates.
            let truth = ds
                .pairs
                .iter()
                .map(|p| {
                    let at = |pos| {
                        ds.donor
                            .donor_to_ref(Locus {
                                chrom: p.truth.chrom,
                                pos,
                            })
                            .pos
                    };
                    Truth {
                        chrom: p.truth.chrom,
                        pos1: at(p.truth.start1),
                        pos2: at(p.truth.start2),
                    }
                })
                .collect();
            (genome, ds.pairs, truth)
        }
    };
    let slices = pairs
        .chunks(workload.slice_pairs())
        .zip(truth.chunks(workload.slice_pairs()))
        .map(|(chunk, truth)| {
            let (r1, r2): (Vec<ReadRecord>, Vec<ReadRecord>) =
                chunk.iter().map(|p| (p.r1.clone(), p.r2.clone())).unzip();
            Slice {
                r1: fastq_bytes(&r1),
                r2: fastq_bytes(&r2),
                pairs: chunk.len() as u64,
                truth: truth.to_vec(),
            }
        })
        .collect();
    Inputs { genome, slices }
}

fn fastq_bytes(records: &[ReadRecord]) -> Arc<[u8]> {
    let mut out = Vec::new();
    write_fastq(records, &mut out).expect("writing to a Vec cannot fail");
    out.into()
}
