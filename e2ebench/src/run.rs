//! The timed workloads, the correctness gate and the metric report.

use crate::inputs::{generate, Slice, Workload};
use crate::replay::{replay_slice, ReplayCounts};
use crate::sinks::{DigestSink, SamDigest};
use crate::stats::{
    fast_decile_reads_per_s, mean_reads_per_s, median, pct, quantile, ratio, SampleGroup,
};
use crate::trace::{self, Tracer};
use gx_backend::{
    BackendStats, DeviceCounters, MapBackend, MapSession, NmslBackend, SoftwareBackend,
};
use gx_core::{GenPairConfig, GenPairMapper, ReadPair};
use gx_genome::{GenomeError, ReferenceGenome};
use gx_pipeline::{
    map_serial, FallbackPolicy, JobOutcome, JobSpec, MappingEngine, PipelineBuilder,
    PipelineReport, Priority, ReadPairStream, RecordSink, ServiceBuilder, VecSink,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

/// Worker threads of the engine and the service (= cores of the host the
/// benchmark was sized on).
pub const THREADS: usize = 2;
/// Set-ups timed before the workload, and again after it; `setup_s` is
/// the fast decile of all of them.
const SETUP_REPS: usize = 5;
/// Jobs the `jobs_nmsl` client keeps outstanding (closed loop).
const OUTSTANDING: usize = 2;
/// Pairs per batch inside a service job.
const JOB_BATCH: usize = 64;
/// Service priorities, cycled per job.
const PRIORITIES: [Priority; 3] = [Priority::Normal, Priority::High, Priority::Low];
/// Jobs per throughput window of `jobs_nmsl`.
const WINDOW_JOBS: usize = 8;
/// Service passes per `jobs_nmsl` run; each pass is its own service over
/// its own device, and all passes must account bit-identically.
const JOB_PASSES: usize = 4;
/// A read maps correctly within this many bases of its simulated origin.
const TOLERANCE: u64 = 25;
/// Replayed pairs whose spans are written to the Chrome trace.
const TRACE_WRITE_PAIRS: u64 = 1024;

/// Command-line settings of one run.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Nominal measuring time; sets a fixed amount of work, never a deadline.
    pub seconds: u64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

/// A run's result line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output matched its oracle and every repeat was bit-identical.
    pub correct: bool,
    /// Slices or jobs mapped, the untimed warm-up pass included.
    pub attempted: u64,
    /// Those that errored, were cancelled, or whose SAM digest differed.
    pub failed: u64,
    /// (name, value, unit).
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The result as one JSON line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Per-slice truth from the `map_serial` oracle.
struct Oracle {
    digest: SamDigest,
    correct_pairs: u64,
}

/// The bit-exact fields of a backend's accounting, floats as bits.
fn fingerprint(b: &BackendStats) -> [u64; 11] {
    [
        b.pairs,
        b.sim_cycles,
        b.seed_cycles,
        b.fallback_cycles,
        b.dram_bytes,
        b.dram_requests,
        b.energy_pj.to_bits(),
        b.sim_seconds.to_bits(),
        b.fallback_seconds.to_bits(),
        b.transfer_seconds.to_bits(),
        b.exposed_transfer_seconds.to_bits(),
    ]
}

fn parse_slice(s: &Slice) -> Result<Vec<ReadPair>, GenomeError> {
    ReadPairStream::new(&s.r1[..], &s.r2[..]).collect()
}

fn oracle(mapper: &GenPairMapper<'_>, s: &Slice) -> Result<Oracle, String> {
    let pairs = parse_slice(s).map_err(|e| e.to_string())?;
    let mut records = VecSink::new();
    map_serial(mapper, FallbackPolicy::EmitUnmapped, pairs, &mut records)
        .map_err(|e| e.to_string())?;
    let mut sink = DigestSink::new(mapper.genome(), false);
    for rec in &records.records {
        sink.write_record(rec).map_err(|e| e.to_string())?;
    }
    let correct_pairs = s
        .truth
        .iter()
        .zip(records.records.chunks(2))
        .filter(|(t, recs)| {
            let near = |r: &gx_genome::SamRecord, pos: u64| {
                r.is_mapped() && r.chrom == t.chrom && r.pos.abs_diff(pos) <= TOLERANCE
            };
            recs.len() == 2 && near(&recs[0], t.pos1) && near(&recs[1], t.pos2)
        })
        .count() as u64;
    Ok(Oracle {
        digest: sink.finish(),
        correct_pairs,
    })
}

/// A size field of `/proc/self/status` (`VmRSS`, `VmHWM`), MiB.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One engine run over one slice.
struct SliceSample {
    slice: usize,
    secs: f64,
    first_record_secs: f64,
    ok: bool,
    report: Option<PipelineReport>,
}

/// Maps `slice` through `engine` once: FASTQ bytes in, digested SAM out.
fn engine_slice<B: MapBackend>(
    engine: &MappingEngine<B>,
    genome: &ReferenceGenome,
    slices: &[Slice],
    oracles: &[Oracle],
    slice: usize,
    traced: Option<(&mut Tracer, u64)>,
) -> SliceSample {
    let s = &slices[slice];
    let mut sink = DigestSink::new(genome, traced.is_some());
    let mut parse_error = None;
    let started = Instant::now();
    let stream = ReadPairStream::new(&s.r1[..], &s.r2[..])
        .map_while(|r| r.map_err(|e| parse_error = Some(e)).ok());
    let report = engine.run(stream, &mut sink);
    let (first, last) = (sink.first_record, sink.last_record);
    let digest = sink.finish();
    let done = Instant::now();
    if let Some((tracer, id)) = traced {
        let root = tracer.push(
            "slice",
            id,
            None,
            2,
            tracer.at_ns(started),
            tracer.at_ns(done),
        );
        if let Some(first) = first {
            let f = tracer.at_ns(first);
            tracer.push(
                "first_record_wait",
                id,
                Some(root),
                2,
                tracer.at_ns(started),
                f,
            );
            let l = last.map_or(f, |l| tracer.at_ns(l));
            tracer.push("emit", id, Some(root), 2, f, l);
        }
    }
    if let Some(e) = &parse_error {
        eprintln!("# slice {slice}: FASTQ error: {e}");
    }
    let ok = report.is_ok() && parse_error.is_none() && digest == oracles[slice].digest;
    SliceSample {
        slice,
        secs: (done - started).as_secs_f64(),
        first_record_secs: first.map_or(f64::NAN, |f| (f - started).as_secs_f64()),
        ok,
        report: report.ok(),
    }
}

/// Samples of the engine workloads' loop.
struct EngineRounds {
    /// The untimed warm-up pass; checked, not timed.
    warm_up: Vec<SliceSample>,
    untraced: Vec<SliceSample>,
    traced: Vec<SliceSample>,
}

/// The engine workloads' timed loop: one untimed warm-up pass, then
/// `rounds` passes over every distinct slice. With a tracer, odd rounds
/// carry sink-side timestamps and spans.
fn engine_rounds<B: MapBackend>(
    engine: &MappingEngine<B>,
    genome: &ReferenceGenome,
    slices: &[Slice],
    oracles: &[Oracle],
    rounds: usize,
    tracer: Option<&mut Tracer>,
) -> EngineRounds {
    let warm_up = (0..slices.len())
        .map(|slice| engine_slice(engine, genome, slices, oracles, slice, None))
        .collect();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = tracer;
    for round in 0..rounds {
        for slice in 0..slices.len() {
            match tracer.as_deref_mut() {
                Some(t) if round % 2 == 1 => {
                    let id = traced.len() as u64;
                    traced.push(engine_slice(
                        engine,
                        genome,
                        slices,
                        oracles,
                        slice,
                        Some((t, id)),
                    ))
                }
                _ => untraced.push(engine_slice(engine, genome, slices, oracles, slice, None)),
            }
        }
    }
    EngineRounds {
        warm_up,
        untraced,
        traced,
    }
}

fn slice_groups(samples: &[SliceSample], slices: &[Slice]) -> Vec<SampleGroup> {
    let mut groups: Vec<SampleGroup> = slices
        .iter()
        .map(|s| SampleGroup {
            pairs: s.pairs,
            secs: Vec::new(),
        })
        .collect();
    for s in samples {
        groups[s.slice].secs.push(s.secs);
    }
    groups
}

/// Per-slice backend accounting must repeat bit-exactly in every round.
fn engine_repeats_exactly<'a>(
    samples: impl IntoIterator<Item = &'a SliceSample>,
    n_slices: usize,
) -> bool {
    let mut first: Vec<Option<[u64; 11]>> = vec![None; n_slices];
    samples.into_iter().all(|s| {
        let Some(r) = &s.report else { return false };
        let fp = fingerprint(&r.backend);
        *first[s.slice].get_or_insert(fp) == fp
    })
}

/// Backend totals over the first occurrence of each slice.
fn first_round_backend(samples: &[SliceSample], n_slices: usize) -> BackendStats {
    let mut total = BackendStats::new();
    let mut seen = vec![false; n_slices];
    for s in samples {
        if !seen[s.slice] {
            seen[s.slice] = true;
            if let Some(r) = &s.report {
                total.merge(&r.backend);
            }
        }
    }
    total
}

/// Device counters summed over several warm runs.
#[derive(Default)]
struct CounterTotals {
    lane_busy: u64,
    lane_cycles: u64,
    dram_stall: u64,
    row_conflicts: u64,
    activations: u64,
}

impl CounterTotals {
    fn add(&mut self, c: &DeviceCounters) {
        let device = c.device_cycles();
        for (i, l) in c.lanes.iter().enumerate() {
            self.lane_busy += c.lane_busy_cycles(i);
            self.lane_cycles += device;
            self.dram_stall += l.breakdown.dram_stall;
            self.row_conflicts += l.dram.row_conflicts;
            self.activations += l.dram.activations;
        }
    }
}

/// What [`nmsl_runs`] measured.
struct NmslRuns {
    backend: BackendStats,
    counters: CounterTotals,
    wall_secs: f64,
    steals: u64,
    batches: u64,
    first_record_secs: Vec<f64>,
}

/// Maps each group of slices through one warm NMSL engine run (outside
/// the timed loop): the modeled totals and device counters of exactly
/// that input, plus the engine's own report.
fn nmsl_runs(mapper: &GenPairMapper<'_>, slices: &[Slice], runs: &[Vec<usize>]) -> NmslRuns {
    let engine = PipelineBuilder::new()
        .threads(THREADS)
        .backend(NmslBackend::new(mapper));
    let mut out = NmslRuns {
        backend: BackendStats::new(),
        counters: CounterTotals::default(),
        wall_secs: 0.0,
        steals: 0,
        batches: 0,
        first_record_secs: Vec::new(),
    };
    for run in runs {
        let pairs = run
            .iter()
            .flat_map(|&i| parse_slice(&slices[i]).expect("generated FASTQ parses"));
        let mut sink = DigestSink::new(mapper.genome(), false);
        let started = Instant::now();
        let report = engine
            .run(pairs, &mut sink)
            .expect("a digest sink cannot fail");
        if let Some(f) = sink.first_record {
            out.first_record_secs.push((f - started).as_secs_f64());
        }
        out.backend.merge(&report.backend);
        out.wall_secs += report.elapsed.as_secs_f64();
        out.steals += report.steals;
        out.batches += report.batches;
        if let Some(c) = engine.backend().device_counters() {
            out.counters.add(&c);
        }
    }
    out
}

/// Wall time of the NMSL session's `map_batch` minus the software
/// session's, over the same batches, in µs per pair: the cost of running
/// the accelerator model itself.
fn nmsl_model_us_per_pair(mapper: &GenPairMapper<'_>, slices: &[Slice]) -> f64 {
    let nmsl = NmslBackend::new(mapper);
    let software = SoftwareBackend::new(mapper);
    let mut ns = nmsl.session(0);
    let mut ss = software.session(0);
    let (mut nmsl_ns, mut sw_ns, mut pairs) = (0u128, 0u128, 0u64);
    for (k, s) in slices.iter().enumerate() {
        let parsed = parse_slice(s).expect("generated FASTQ parses");
        for (j, batch) in parsed.chunks(JOB_BATCH).enumerate() {
            // Alternate which session goes first so neither always runs on
            // caches the other warmed.
            for nmsl_turn in if (k + j) % 2 == 0 {
                [true, false]
            } else {
                [false, true]
            } {
                let t = Instant::now();
                if nmsl_turn {
                    black_box(ns.map_batch(batch));
                    nmsl_ns += t.elapsed().as_nanos();
                } else {
                    black_box(ss.map_batch(batch));
                    sw_ns += t.elapsed().as_nanos();
                }
            }
            pairs += batch.len() as u64;
        }
    }
    ns.finish();
    ss.finish();
    nmsl.flush();
    (nmsl_ns as f64 - sw_ns as f64) / pairs as f64 / 1e3
}

/// One closed-loop service job.
struct JobSample {
    submit: Instant,
    submit_returned: Instant,
    done: Instant,
    first_record: Option<Instant>,
    last_record: Option<Instant>,
    busy_ns: u64,
    /// `None` when the submit was refused.
    outcome: Option<JobOutcome>,
    /// Completed, with the oracle's SAM digest.
    ok: bool,
}

/// One service pass: `jobs` closed-loop jobs over a fresh warm device.
fn service_pass(
    mapper: &GenPairMapper<'_>,
    slices: &[Slice],
    oracles: &[Oracle],
    jobs: usize,
    traced: bool,
) -> (Vec<JobSample>, gx_pipeline::ServiceReport) {
    let genome = mapper.genome();
    ServiceBuilder::new()
        .threads(THREADS)
        .serve(NmslBackend::new(mapper), |svc| {
            let mut out: Vec<JobSample> = Vec::with_capacity(jobs);
            let mut outstanding = VecDeque::with_capacity(OUTSTANDING);
            let finish = |(slice, submit, submit_returned, handle): (
                usize,
                Instant,
                Instant,
                gx_pipeline::JobHandle<'_, DigestSink>,
            )| {
                let (report, sink) = handle.join();
                let done = Instant::now();
                let (first_record, last_record) = (sink.first_record, sink.last_record);
                let digest = sink.finish();
                JobSample {
                    submit,
                    submit_returned,
                    done,
                    first_record,
                    last_record,
                    busy_ns: report.report.backend.busy_ns,
                    outcome: Some(report.outcome),
                    ok: report.outcome == JobOutcome::Completed && digest == oracles[slice].digest,
                }
            };
            for j in 0..jobs {
                if outstanding.len() == OUTSTANDING {
                    out.push(finish(outstanding.pop_front().expect("non-empty")));
                }
                let slice = j % slices.len();
                let s = &slices[slice];
                let spec = JobSpec::new()
                    .batch_size(JOB_BATCH)
                    .priority(PRIORITIES[j % PRIORITIES.len()]);
                let sink = DigestSink::new(genome, traced);
                let submit = Instant::now();
                let handle = svc.submit_fastq(
                    spec,
                    Cursor::new(s.r1.clone()),
                    Cursor::new(s.r2.clone()),
                    sink,
                );
                let submit_returned = Instant::now();
                match handle {
                    Ok(h) => outstanding.push_back((slice, submit, submit_returned, h)),
                    Err(e) => {
                        eprintln!("# job {j}: submit failed: {e:?}");
                        out.push(JobSample {
                            submit,
                            submit_returned,
                            done: submit_returned,
                            first_record: None,
                            last_record: None,
                            busy_ns: 0,
                            outcome: None,
                            ok: false,
                        });
                    }
                }
            }
            while let Some(o) = outstanding.pop_front() {
                out.push(finish(o));
            }
            out
        })
}

/// The service's own job counts must match the outcomes its clients saw.
fn report_agrees(jobs: &[JobSample], r: &gx_pipeline::ServiceReport) -> bool {
    let count = |o: JobOutcome| jobs.iter().filter(|j| j.outcome == Some(o)).count() as u64;
    r.jobs_completed == count(JobOutcome::Completed)
        && r.jobs_cancelled == count(JobOutcome::Cancelled)
        && r.jobs_failed == count(JobOutcome::Failed)
}

/// Throughput windows of `WINDOW_JOBS` consecutive jobs, timed between
/// join returns (the first window starts at the pass's first submit).
fn job_windows(samples: &[JobSample]) -> Vec<f64> {
    let Some(first) = samples.first() else {
        return Vec::new();
    };
    let mut prev = first.submit;
    samples
        .chunks_exact(WINDOW_JOBS)
        .map(|w| {
            let end = w[WINDOW_JOBS - 1].done;
            let secs = (end - prev).as_secs_f64();
            prev = end;
            secs
        })
        .collect()
}

/// Timed slices or jobs for a run of nominal length `seconds`: never fewer
/// than 100, so a 90th percentile has at least 10 samples beyond it.
fn timed_samples(w: Workload, seconds: u64) -> usize {
    (seconds as usize * w.slices_per_second()).max(100)
}

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

/// Everything a workload shares once set up.
struct Bench<'a, 'g> {
    settings: Settings,
    mapper: &'a GenPairMapper<'g>,
    slices: &'a [Slice],
    oracles: &'a [Oracle],
    mapped_correct_pct: f64,
}

/// The engine layer's traced numbers.
struct EngineLayer {
    busy_pct: f64,
    first_record_ms: f64,
    steals_per_batch: f64,
}

/// The service layer's traced numbers (`jobs_nmsl` only).
#[derive(Default)]
struct ServiceLayer {
    submit_wait_ms_p50: f64,
    map_busy_pct: f64,
    non_map_ms_p50: f64,
    first_record_ms_p50: f64,
}

/// Times `SETUP_REPS` set-ups into `secs`: each is `GenPairMapper::build`
/// plus the workload's backend (and service) construction. Only the
/// returned mapper, the last one built, stays resident.
fn set_up<'g>(
    w: Workload,
    genome: &'g ReferenceGenome,
    cfg: &GenPairConfig,
    secs: &mut Vec<f64>,
) -> GenPairMapper<'g> {
    let mut mapper = None;
    for _ in 0..SETUP_REPS {
        drop(mapper.take());
        let started = Instant::now();
        let m = GenPairMapper::build(genome, cfg);
        match w {
            Workload::LightStream => drop(black_box(SoftwareBackend::new(&m))),
            Workload::DpStream => drop(black_box(NmslBackend::new(&m))),
            Workload::JobsNmsl => {
                ServiceBuilder::new()
                    .threads(THREADS)
                    .serve(NmslBackend::new(&m), |_| ());
            }
        }
        secs.push(started.elapsed().as_secs_f64());
        mapper = Some(black_box(m));
    }
    mapper.expect("SETUP_REPS > 0")
}

/// Runs one workload and reports its metrics.
pub fn run(settings: Settings) -> Outcome {
    let w = settings.workload;
    let inputs = generate(w, settings.seed);
    let genome = &inputs.genome;
    let cfg = GenPairConfig::default();

    let input_rss = status_mib("VmRSS:");
    let mut setup_secs = Vec::with_capacity(2 * SETUP_REPS);
    let mapper = set_up(w, genome, &cfg, &mut setup_secs);

    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let oracles: Vec<Oracle> = match inputs.slices.iter().map(|s| oracle(&mapper, s)).collect() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("# oracle failed: {e}");
            return out_failed(out);
        }
    };
    let total_pairs: u64 = inputs.slices.iter().map(|s| s.pairs).sum();
    let correct_pairs: u64 = oracles.iter().map(|o| o.correct_pairs).sum();
    let bench = Bench {
        settings,
        mapper: &mapper,
        slices: &inputs.slices,
        oracles: &oracles,
        mapped_correct_pct: pct(correct_pairs as f64, total_pairs as f64),
    };

    let mut tracer = settings.trace.then(Tracer::new);
    match w {
        Workload::LightStream | Workload::DpStream => {
            engine_workload(&bench, &mut out, tracer.as_mut())
        }
        Workload::JobsNmsl => jobs_workload(&bench, &mut out, tracer.as_mut()),
    }
    match &tracer {
        Some(t) => write_trace(t, settings),
        None => {
            // Resident growth over the inputs, up to the end of the timed
            // work.
            let growth = status_mib("VmHWM:") - input_rss;
            out.put("peak_rss_growth_mib", growth, "MiB");
            // More set-ups at the end of the run, so `setup_s` samples the
            // host at both ends of it, one index resident at a time.
            drop(mapper);
            drop(set_up(w, genome, &cfg, &mut setup_secs));
            eprintln!("# setup_s samples {setup_secs:?}");
            out.put("setup_s", quantile(&setup_secs, 0.10), "s");
        }
    }
    out.correct &= out.failed == 0 && out.metrics.iter().all(|(_, v, _)| v.is_finite());
    out
}

/// `light_stream` and `dp_stream`: one `engine.run` per slice.
fn engine_workload(b: &Bench<'_, '_>, out: &mut Outcome, mut tracer: Option<&mut Tracer>) {
    let w = b.settings.workload;
    let (genome, slices, oracles) = (b.mapper.genome(), b.slices, b.oracles);
    let rounds = timed_samples(w, b.settings.seconds).div_ceil(slices.len());
    let EngineRounds {
        warm_up,
        untraced,
        traced,
    } = if w == Workload::LightStream {
        let engine = PipelineBuilder::new()
            .threads(THREADS)
            .backend(SoftwareBackend::new(b.mapper));
        engine_rounds(
            &engine,
            genome,
            slices,
            oracles,
            rounds,
            tracer.as_deref_mut(),
        )
    } else {
        let engine = PipelineBuilder::new()
            .threads(THREADS)
            .backend(NmslBackend::new(b.mapper));
        engine_rounds(
            &engine,
            genome,
            slices,
            oracles,
            rounds,
            tracer.as_deref_mut(),
        )
    };
    let timed: Vec<&SliceSample> = untraced.iter().chain(traced.iter()).collect();
    let all = || warm_up.iter().chain(timed.iter().copied());
    out.attempted = all().count() as u64;
    out.failed = all().filter(|s| !s.ok).count() as u64;
    if !engine_repeats_exactly(timed, slices.len()) {
        eprintln!("# backend accounting differed between rounds of one slice");
        out.correct = false;
    }

    // Modeled metrics: the timed NMSL runs themselves on dp_stream; on
    // light_stream (software backend) one warm NMSL run per distinct slice,
    // outside the timed loop, prices the same input.
    let runs_each: Vec<Vec<usize>> = (0..slices.len()).map(|i| vec![i]).collect();
    let reference = (w == Workload::LightStream || b.settings.trace)
        .then(|| nmsl_runs(b.mapper, slices, &runs_each));
    let modeled = match (&reference, w) {
        (Some(r), Workload::LightStream) => r.backend,
        _ => first_round_backend(&untraced, slices.len()),
    };
    if let (Some(r), Workload::DpStream) = (&reference, w) {
        if fingerprint(&r.backend) != fingerprint(&modeled) {
            eprintln!("# timed NMSL accounting differs from the reference NMSL runs");
            out.correct = false;
        }
    }

    let groups = slice_groups(&untraced, slices);
    let Some(t) = tracer else {
        let lat: Vec<f64> = untraced.iter().map(|s| s.secs).collect();
        let rate = fast_decile_reads_per_s(&groups);
        end_to_end(out, b, rate, &lat, &modeled);
        eprintln!("# mean rate {:.0} reads/s", mean_reads_per_s(&groups));
        return;
    };
    let traced_groups = slice_groups(&traced, slices);
    let reports: Vec<&PipelineReport> = traced.iter().filter_map(|s| s.report.as_ref()).collect();
    let busy: u64 = reports.iter().map(|r| r.backend.busy_ns).sum();
    let wall: f64 = traced.iter().map(|s| s.secs).sum();
    let steals: u64 = reports.iter().map(|r| r.steals).sum();
    let batches: u64 = reports.iter().map(|r| r.batches).sum();
    let first: Vec<f64> = traced.iter().map(|s| s.first_record_secs).collect();
    let engine = EngineLayer {
        busy_pct: pct(busy as f64 / 1e9, THREADS as f64 * wall),
        first_record_ms: ms(quantile(&first, 0.5)),
        steals_per_batch: ratio(steals as f64, batches as f64),
    };
    let overhead = pct(
        mean_reads_per_s(&groups) - mean_reads_per_s(&traced_groups),
        mean_reads_per_s(&traced_groups),
    );
    let counters = reference.as_ref().map(|r| &r.counters);
    layer_metrics(out, b, t, &modeled, counters, engine, None, overhead);
}

/// `jobs_nmsl`: closed-loop jobs through the service, in passes.
fn jobs_workload(b: &Bench<'_, '_>, out: &mut Outcome, tracer: Option<&mut Tracer>) {
    let (slices, oracles) = (b.slices, b.oracles);
    let n_distinct = slices.len();
    let jobs_per_pass = timed_samples(Workload::JobsNmsl, b.settings.seconds)
        .div_ceil(JOB_PASSES * n_distinct)
        * n_distinct;
    // The warm-up pass is checked like the timed ones but not timed.
    let (warm_up, warm_up_report) = service_pass(b.mapper, slices, oracles, n_distinct, false);
    let mut agrees = report_agrees(&warm_up, &warm_up_report);
    let mut untraced: Vec<Vec<JobSample>> = Vec::new();
    let mut traced: Vec<Vec<JobSample>> = Vec::new();
    let mut reports = Vec::new();
    for pass in 0..JOB_PASSES {
        let trace_pass = tracer.is_some() && pass % 2 == 1;
        let (jobs, report) = service_pass(b.mapper, slices, oracles, jobs_per_pass, trace_pass);
        agrees &= report_agrees(&jobs, &report);
        reports.push(report);
        if trace_pass {
            traced.push(jobs);
        } else {
            untraced.push(jobs);
        }
    }
    if !agrees {
        eprintln!("# service job counts disagree with the job outcomes");
        out.correct = false;
    }
    let all = || {
        warm_up
            .iter()
            .chain(untraced.iter().chain(traced.iter()).flatten())
    };
    out.attempted = all().count() as u64;
    out.failed = all().filter(|j| !j.ok).count() as u64;
    let modeled = reports[0].backend;
    if !reports
        .iter()
        .all(|r| fingerprint(&r.backend) == fingerprint(&modeled))
    {
        eprintln!("# service accounting differed between passes");
        out.correct = false;
    }

    let window_group = |passes: &[Vec<JobSample>]| SampleGroup {
        pairs: (WINDOW_JOBS * Workload::JobsNmsl.slice_pairs()) as u64,
        secs: passes.iter().flat_map(|p| job_windows(p)).collect(),
    };
    let latency = |j: &JobSample| (j.done - j.submit).as_secs_f64();
    let Some(t) = tracer else {
        let lat: Vec<f64> = untraced.iter().flatten().map(latency).collect();
        let group = window_group(&untraced);
        let rate = fast_decile_reads_per_s(std::slice::from_ref(&group));
        end_to_end(out, b, rate, &lat, &modeled);
        eprintln!("# mean rate {:.0} reads/s", mean_reads_per_s(&[group]));
        return;
    };

    // Device counters of one pass, from a single engine run over the
    // pass's jobs back to back; the service's warm totals must equal that
    // run's bit for bit.
    let order: Vec<usize> = (0..jobs_per_pass).map(|j| j % n_distinct).collect();
    let concat = nmsl_runs(b.mapper, slices, &[order]);
    if fingerprint(&concat.backend) != fingerprint(&modeled) {
        eprintln!("# service accounting differs from the back-to-back engine run");
        out.correct = false;
    }
    let engine = EngineLayer {
        busy_pct: pct(
            concat.backend.busy_ns as f64 / 1e9,
            THREADS as f64 * concat.wall_secs,
        ),
        first_record_ms: ms(quantile(&concat.first_record_secs, 0.5)),
        steals_per_batch: ratio(concat.steals as f64, concat.batches as f64),
    };
    let traced_jobs: Vec<&JobSample> = traced.iter().flatten().collect();
    for (id, j) in traced_jobs.iter().enumerate() {
        let id = id as u64;
        let (submit, returned) = (t.at_ns(j.submit), t.at_ns(j.submit_returned));
        let root = t.push("job", id, None, 2, submit, t.at_ns(j.done));
        t.push("submit", id, Some(root), 2, submit, returned);
        if let Some(f) = j.first_record {
            let f = t.at_ns(f);
            t.push("first_record_wait", id, Some(root), 2, returned, f);
            let last = j.last_record.map_or(f, |l| t.at_ns(l));
            t.push("emit", id, Some(root), 2, f, last);
        }
    }
    let per_job =
        |f: &dyn Fn(&JobSample) -> f64| -> Vec<f64> { traced_jobs.iter().map(|j| f(j)).collect() };
    let first_record = |j: &JobSample| {
        j.first_record
            .map_or(f64::NAN, |f| (f - j.submit).as_secs_f64())
    };
    let non_map = |j: &JobSample| latency(j) - j.busy_ns as f64 / 1e9 / THREADS as f64;
    let busy: f64 = reports.iter().map(|r| r.backend.busy_ns as f64 / 1e9).sum();
    let wall: f64 = reports.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    let service = ServiceLayer {
        submit_wait_ms_p50: ms(median(&per_job(&|j| {
            (j.submit_returned - j.submit).as_secs_f64()
        }))),
        map_busy_pct: pct(busy, THREADS as f64 * wall),
        non_map_ms_p50: ms(median(&per_job(&non_map))),
        first_record_ms_p50: ms(median(&per_job(&first_record))),
    };
    let traced_rate = mean_reads_per_s(&[window_group(&traced)]);
    let overhead = pct(
        mean_reads_per_s(&[window_group(&untraced)]) - traced_rate,
        traced_rate,
    );
    layer_metrics(
        out,
        b,
        t,
        &modeled,
        Some(&concat.counters),
        engine,
        Some(service),
        overhead,
    );
}

fn out_failed(mut out: Outcome) -> Outcome {
    out.correct = false;
    out.attempted = out.attempted.max(1);
    out.failed = out.failed.max(1);
    out
}

fn end_to_end(
    out: &mut Outcome,
    b: &Bench<'_, '_>,
    reads_per_s: f64,
    latency_secs: &[f64],
    modeled: &BackendStats,
) {
    out.put("reads_per_s", reads_per_s, "reads/s");
    out.put("job_latency_p50_ms", ms(quantile(latency_secs, 0.5)), "ms");
    out.put("job_latency_p90_ms", ms(quantile(latency_secs, 0.9)), "ms");
    out.put(
        "modeled_system_reads_per_s",
        modeled.system_reads_per_sec(),
        "reads/s",
    );
    out.put(
        "modeled_energy_pj_per_pair",
        modeled.energy_pj_per_pair(),
        "pJ/pair",
    );
    out.put("mapped_correct_pct", b.mapped_correct_pct, "%");
}

/// The traced run's per-layer metrics. Layers a workload does not run
/// report 0.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    out: &mut Outcome,
    b: &Bench<'_, '_>,
    tracer: &mut Tracer,
    modeled: &BackendStats,
    counters: Option<&CounterTotals>,
    engine: EngineLayer,
    service: Option<ServiceLayer>,
    overhead_pct: f64,
) {
    let (mapper, slices, oracles) = (b.mapper, b.slices, b.oracles);
    // Serial replay through the stage functions.
    let mut counts = ReplayCounts::default();
    let first_span = tracer.spans().len();
    let mut first_id = 0u64;
    for (s, o) in slices.iter().zip(oracles) {
        let digest = replay_slice(mapper, &s.r1, &s.r2, first_id, tracer, &mut counts);
        if digest != o.digest {
            eprintln!("# replayed SAM differs from the map_serial oracle");
            out.correct = false;
        }
        first_id += s.pairs;
    }
    if counts.mismatches > 0 {
        eprintln!(
            "# replay work differs from map_pair_with on {} pairs",
            counts.mismatches
        );
        out.correct = false;
    }
    let times = trace::time_by_name(tracer.spans(), first_span);
    let self_of = |k: &str| times.get(k).map_or(0.0, |t| t.0 as f64);
    let total_of = |k: &str| times.get(k).map_or(0.0, |t| t.1 as f64);
    let pairs = counts.pairs as f64;
    let stage_self: f64 = ["seed_query", "pa_filter", "light", "dp"]
        .iter()
        .map(|k| self_of(k))
        .sum();
    let map_pair_with = total_of("map_pair_with");
    let sam_bytes: f64 = oracles.iter().map(|o| o.digest.bytes as f64).sum::<f64>();
    let header_bytes = DigestSink::new(mapper.genome(), false).finish().bytes as f64;
    let sam_bytes = sam_bytes - header_bytes * oracles.len() as f64;

    out.put(
        "fastq.parse_ns_per_pair",
        self_of("fastq.parse") / pairs,
        "ns/pair",
    );
    out.put(
        "seed_query.ns_per_read",
        self_of("seed_query") / (2.0 * pairs),
        "ns/read",
    );
    out.put(
        "seed_query.locations_per_pair",
        counts.locations as f64 / pairs,
        "count",
    );
    out.put(
        "pa_filter.ns_per_pair",
        self_of("pa_filter") / pairs,
        "ns/pair",
    );
    out.put(
        "pa_filter.candidates_per_pair",
        counts.candidates as f64 / pairs,
        "count",
    );
    out.put(
        "pa_filter.iterations_per_pair",
        counts.pa_iterations as f64 / pairs,
        "count",
    );
    out.put(
        "light.ns_per_attempt",
        ratio(self_of("light"), counts.light_attempts as f64),
        "ns/attempt",
    );
    out.put(
        "light.attempts_per_pair",
        counts.light_attempts as f64 / pairs,
        "count",
    );
    out.put(
        "light.success_pct",
        pct(counts.light_successes as f64, counts.light_attempts as f64),
        "%",
    );
    out.put(
        "light.path_pct",
        pct(counts.light_path_pairs as f64, pairs),
        "%",
    );
    out.put("dp.pair_pct", pct(counts.dp_pairs as f64, pairs), "%");
    out.put(
        "dp.us_per_fallback_pair",
        ratio(self_of("dp") / 1e3, counts.dp_pairs as f64),
        "us/pair",
    );
    out.put(
        "dp.cells_per_fallback_pair",
        ratio(counts.dp_cells as f64, counts.dp_pairs as f64),
        "count",
    );
    out.put(
        "dp.ns_per_cell",
        ratio(self_of("dp"), counts.dp_cells as f64),
        "ns/cell",
    );
    out.put("dp.time_pct", pct(self_of("dp"), total_of("map_pair")), "%");
    out.put(
        "map_pair.us_per_pair",
        map_pair_with / 1e3 / pairs,
        "us/pair",
    );
    out.put(
        "map_pair.stage_coverage_pct",
        pct(stage_self, map_pair_with),
        "%",
    );
    out.put(
        "sam.format_ns_per_record",
        ratio(self_of("sam"), counts.records as f64),
        "ns/record",
    );
    out.put("sam.bytes_per_pair", sam_bytes / pairs, "bytes/pair");

    out.put(
        "nmsl.model_us_per_pair",
        nmsl_model_us_per_pair(mapper, slices),
        "us/pair",
    );
    out.put(
        "nmsl.sim_cycles_per_pair",
        ratio(modeled.sim_cycles as f64, modeled.pairs as f64),
        "cycles/pair",
    );
    let c = counters;
    out.put(
        "nmsl.lane_utilization",
        c.map_or(0.0, |c| ratio(c.lane_busy as f64, c.lane_cycles as f64)),
        "ratio",
    );
    out.put(
        "nmsl.row_conflict_rate",
        c.map_or(0.0, |c| ratio(c.row_conflicts as f64, c.activations as f64)),
        "ratio",
    );
    out.put(
        "nmsl.dram_stall_pct",
        c.map_or(0.0, |c| pct(c.dram_stall as f64, c.lane_cycles as f64)),
        "%",
    );
    out.put(
        "nmsl.exposed_transfer_pct",
        pct(
            modeled.exposed_transfer_seconds,
            modeled.modeled_system_seconds(),
        ),
        "%",
    );

    out.put("engine.worker_busy_pct", engine.busy_pct, "%");
    out.put("engine.first_record_ms", engine.first_record_ms, "ms");
    out.put("engine.steals_per_batch", engine.steals_per_batch, "count");
    let s = service.unwrap_or_default();
    out.put("service.submit_wait_ms_p50", s.submit_wait_ms_p50, "ms");
    out.put("service.map_busy_pct", s.map_busy_pct, "%");
    out.put("service.non_map_ms_p50", s.non_map_ms_p50, "ms");
    out.put("service.first_record_ms_p50", s.first_record_ms_p50, "ms");
    out.put("trace.overhead_pct", overhead_pct, "%");
}

/// Writes the run's spans as Chrome-trace JSON under `traces/` in the
/// benchmark's directory (replay spans of the first pairs only).
fn write_trace(t: &Tracer, settings: Settings) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let name = match settings.workload {
        Workload::LightStream => "light_stream",
        Workload::DpStream => "dp_stream",
        Workload::JobsNmsl => "jobs_nmsl",
    };
    let keep = |s: &trace::Span| s.lane != 1 || s.id < TRACE_WRITE_PAIRS;
    let path = dir.join(format!("{name}-seed{}.json", settings.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|f| trace::write_chrome(t.spans(), keep, std::io::BufWriter::new(f)));
    match written {
        Ok(()) => eprintln!("# trace: {}", path.display()),
        Err(e) => eprintln!("# trace not written: {e}"),
    }
}
