//! Golden-fixture regression: checked-in paired FASTQ plus its expected
//! SAM, byte-compared on every run.
//!
//! The serial-reference oracle (`tests/e2e_pipeline.rs`) proves the engine
//! agrees with *itself* — parallel output equals what this build's
//! `map_pair` produces serially. It cannot see cross-PR drift: if a change
//! silently alters mapping decisions, both sides of that comparison move
//! together. This suite closes that hole with fixtures under
//! `tests/fixtures/`: the golden SAM was produced by a past build, so any
//! PR that changes output bytes — mapper behavior, SAM formatting, genome
//! synthesis, the vendored RNG stream — fails here and has to regenerate
//! the fixture *explicitly* (`cargo test --release regenerate_golden_fixture
//! -- --ignored`), turning silent drift into a reviewed diff.
//!
//! There are two fixtures. `golden` is the D1 preset on the reference
//! itself and almost all of it maps on the light path. `golden_dp` maps D3
//! reads from a variant-carrying donor, so dozens of its pairs take the
//! banded-DP fallback: it pins the DP kernel's CIGARs and positions, not
//! just the light aligner's.
//!
//! Both backends are checked against the same golden bytes, so the
//! cross-backend identity contract is pinned to a durable artifact too.

use genpairx::backend::NmslBackend;
use genpairx::core::{GenPairConfig, GenPairMapper};
use genpairx::genome::ReferenceGenome;
use genpairx::pipeline::{read_pairs_from_fastq, PipelineBuilder, ReadPair, SamTextSink};
use genpairx::readsim::dataset::{
    simulate_dataset, simulate_variant_dataset, standard_genome, DATASETS,
};
use genpairx::readsim::SimulatedPair;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Fixture genome: must stay byte-for-byte what produced the checked-in
/// files (the genome is rebuilt here, not checked in — its synthesis is
/// part of what the golden guards).
const GENOME_SIZE: u64 = 120_000;
const GENOME_SEED: u64 = 0x601D;

/// One checked-in FASTQ → SAM fixture: `{name}_R1.fastq`,
/// `{name}_R2.fastq` and `{name}.sam` under `tests/fixtures/`.
struct Fixture {
    name: &'static str,
    pairs: usize,
    /// Minimum number of DP-fallback pairs (MAPQ 40) the SAM must hold, so
    /// a generator change cannot quietly drop the DP coverage.
    min_dp_pairs: usize,
    simulate: fn(&ReferenceGenome, usize) -> Vec<SimulatedPair>,
}

const FIXTURES: [Fixture; 2] = [
    Fixture {
        name: "golden",
        pairs: 48,
        min_dp_pairs: 0,
        simulate: |genome, n| simulate_dataset(genome, &DATASETS[0], n),
    },
    Fixture {
        name: "golden_dp",
        pairs: 160,
        min_dp_pairs: 20,
        simulate: |genome, n| simulate_variant_dataset(genome, &DATASETS[2], n).pairs,
    },
];

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

fn fixture_genome() -> ReferenceGenome {
    standard_genome(GENOME_SIZE, GENOME_SEED)
}

fn read_fixture(name: &str, suffix: &str) -> Vec<u8> {
    let file = format!("{name}{suffix}");
    std::fs::read(fixture_dir().join(&file)).unwrap_or_else(|e| panic!("fixture {file}: {e}"))
}

/// Renders the fixture dataset as mate-paired FASTQ text (constant quality:
/// the mapper ignores qualities and SAM output carries the sequence only).
fn render_fastq(pairs: &[ReadPair]) -> (String, String) {
    let mut r1 = String::new();
    let mut r2 = String::new();
    for p in pairs {
        writeln!(r1, "@{}/1\n{}\n+\n{}", p.id, p.r1, "I".repeat(p.r1.len())).unwrap();
        writeln!(r2, "@{}/2\n{}\n+\n{}", p.id, p.r2, "I".repeat(p.r2.len())).unwrap();
    }
    (r1, r2)
}

fn simulate_fixture_pairs(fixture: &Fixture, genome: &ReferenceGenome) -> Vec<ReadPair> {
    (fixture.simulate)(genome, fixture.pairs)
        .into_iter()
        .map(|p| ReadPair::new(p.id, p.r1.seq, p.r2.seq))
        .collect()
}

fn map_to_sam<B: genpairx::backend::MapBackend>(
    genome: &ReferenceGenome,
    backend: B,
    pairs: Vec<ReadPair>,
) -> Vec<u8> {
    let engine = PipelineBuilder::new()
        .threads(2)
        .batch_size(16)
        .backend(backend);
    let mut sink = SamTextSink::with_header(genome, Vec::new()).unwrap();
    engine.run(pairs, &mut sink).unwrap();
    sink.into_inner().unwrap()
}

/// Pairs whose two records carry the DP-fallback MAPQ of 40.
fn dp_fallback_pairs(sam: &[u8]) -> usize {
    let records = std::str::from_utf8(sam)
        .unwrap()
        .lines()
        .filter(|l| !l.starts_with('@'))
        .filter(|l| l.split('\t').nth(4) == Some("40"))
        .count();
    records / 2
}

#[test]
fn golden_fastq_maps_to_golden_sam_on_both_backends() {
    let genome = fixture_genome();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    for fixture in &FIXTURES {
        let name = fixture.name;
        let r1 = read_fixture(name, "_R1.fastq");
        let r2 = read_fixture(name, "_R2.fastq");
        let golden_sam = read_fixture(name, ".sam");

        let pairs = read_pairs_from_fastq(&r1[..], &r2[..]).expect("fixture FASTQ must parse");
        assert_eq!(
            pairs.len(),
            fixture.pairs,
            "{name}: fixture pair count drifted"
        );
        let dp_pairs = dp_fallback_pairs(&golden_sam);
        assert!(
            dp_pairs >= fixture.min_dp_pairs,
            "{name}: {dp_pairs} DP-fallback pairs, want at least {}",
            fixture.min_dp_pairs
        );

        let software = map_to_sam(
            &genome,
            genpairx::backend::SoftwareBackend::new(&mapper),
            pairs.clone(),
        );
        assert!(
            software == golden_sam,
            "{name}: software backend SAM drifted from the checked-in golden \
             (intentional change? regenerate with \
             `cargo test --release regenerate_golden_fixture -- --ignored`)"
        );

        let nmsl = map_to_sam(&genome, NmslBackend::new(&mapper), pairs.clone());
        assert!(
            nmsl == golden_sam,
            "{name}: NMSL backend SAM drifted from the checked-in golden"
        );

        // Telemetry is accounting-inert all the way down to the durable
        // artifact: a fully traced NMSL run must still hit the golden bytes.
        let telemetry = genpairx::telemetry::Telemetry::enabled();
        let engine = PipelineBuilder::new()
            .threads(2)
            .batch_size(16)
            .telemetry(telemetry.clone())
            .backend(NmslBackend::new(&mapper).telemetry(telemetry.clone()));
        let mut sink = SamTextSink::with_header(&genome, Vec::new()).unwrap();
        engine.run(pairs, &mut sink).unwrap();
        let traced = sink.into_inner().unwrap();
        assert!(
            traced == golden_sam,
            "{name}: tracing changed the NMSL backend's SAM bytes"
        );
        assert!(telemetry.chrome_trace().unwrap().contains("map_batch"));
    }
}

#[test]
fn fixture_fastq_matches_its_generator() {
    // The FASTQ files themselves are fixtures too: if read simulation or
    // the vendored RNG stream changes, the *inputs* drift silently even if
    // mapping does not. Re-derive them and compare.
    let genome = fixture_genome();
    for fixture in &FIXTURES {
        let name = fixture.name;
        let (r1, r2) = render_fastq(&simulate_fixture_pairs(fixture, &genome));
        assert!(
            r1.as_bytes() == read_fixture(name, "_R1.fastq"),
            "{name}_R1.fastq drifted"
        );
        assert!(
            r2.as_bytes() == read_fixture(name, "_R2.fastq"),
            "{name}_R2.fastq drifted"
        );
    }
}

/// Regenerates the fixtures from the current build. Run explicitly after an
/// *intentional* output change, then review the fixture diff in the PR:
///
/// ```text
/// cargo test --release regenerate_golden_fixture -- --ignored
/// ```
#[test]
#[ignore = "writes tests/fixtures/; run explicitly after intentional output changes"]
fn regenerate_golden_fixture() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let genome = fixture_genome();
    let mapper = GenPairMapper::build(&genome, &GenPairConfig::default());
    for fixture in &FIXTURES {
        let pairs = simulate_fixture_pairs(fixture, &genome);
        let (r1, r2) = render_fastq(&pairs);
        let sam = map_to_sam(
            &genome,
            genpairx::backend::SoftwareBackend::new(&mapper),
            pairs,
        );
        let name = fixture.name;
        std::fs::write(dir.join(format!("{name}_R1.fastq")), r1).unwrap();
        std::fs::write(dir.join(format!("{name}_R2.fastq")), r2).unwrap();
        std::fs::write(dir.join(format!("{name}.sam")), sam).unwrap();
    }
}
