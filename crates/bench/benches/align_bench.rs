//! Criterion micro-benchmarks: the alignment substrate — light alignment vs
//! banded DP vs full DP (the core speedup claim of §4.6), xxh32 hashing and
//! chaining.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gx_align::chain::{chain_anchors, Anchor, ChainParams};
use gx_align::{align, banded_align, banded_align_reference, AlignMode, Scoring};
use gx_core::light::{light_align, LightConfig};
use gx_genome::random::RandomGenomeBuilder;
use gx_seedmap::xxh32;
use std::hint::black_box;

fn bench_aligners(c: &mut Criterion) {
    let genome = RandomGenomeBuilder::new(10_000).seed(1).build();
    let window = genome.chromosome(0).seq().subseq(1_000..1_160);
    // Read with a 3-base deletion: single-edit-type, light-alignable.
    let mut read = window.subseq(5..65);
    read.extend_from_seq(&window.subseq(68..158));
    let scoring = Scoring::short_read();
    let light_cfg = LightConfig::default();

    let mut g = c.benchmark_group("aligners_150bp");
    g.bench_function("light_align", |b| {
        b.iter(|| black_box(light_align(&read, &window, 5, &light_cfg, &scoring)))
    });
    g.bench_function("banded_dp_fit_b16", |b| {
        b.iter(|| black_box(banded_align(&read, &window, &scoring, 16, AlignMode::Fit)).score)
    });
    g.bench_function("banded_dp_fit_b16_reference", |b| {
        b.iter(|| {
            black_box(banded_align_reference(
                &read,
                &window,
                &scoring,
                16,
                AlignMode::Fit,
            ))
            .score
        })
    });
    g.bench_function("full_dp_fit", |b| {
        b.iter(|| black_box(align(&read, &window, &scoring, AlignMode::Fit)).score)
    });
    g.finish();
}

fn bench_xxh32(c: &mut Criterion) {
    let codes: Vec<u8> = (0..50u8).map(|i| i % 4).collect();
    c.bench_function("xxh32_50bp_seed", |b| {
        b.iter(|| black_box(xxh32(black_box(&codes), 0)))
    });
}

fn bench_chaining(c: &mut Criterion) {
    // 60 colinear anchors + 60 noise anchors, the shape of a repeat-heavy
    // short-read seeding.
    let mut anchors: Vec<Anchor> = (0..60)
        .map(|i| Anchor {
            read_pos: i * 2,
            ref_pos: 10_000 + (i as u64) * 2,
        })
        .chain((0..60).map(|i| Anchor {
            read_pos: (i * 7) % 150,
            ref_pos: 50_000 + (i as u64) * 997,
        }))
        .collect();
    let params = ChainParams::default();
    c.bench_function("chain_120_anchors", |b| {
        b.iter_batched(
            || anchors.clone(),
            |mut a| black_box(chain_anchors(&mut a, &params).chains.len()),
            BatchSize::SmallInput,
        )
    });
    anchors.clear();
}

criterion_group!(benches, bench_aligners, bench_xxh32, bench_chaining);
criterion_main!(benches);
