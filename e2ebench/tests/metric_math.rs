//! The benchmark's arithmetic: quantiles, rates, the fast-decile rate,
//! span self times and the SAM digest.

use gx_e2ebench::sinks::DigestWriter;
use gx_e2ebench::stats::{
    fast_decile_reads_per_s, mean_reads_per_s, median, pct, quantile, ratio, reads_per_s,
    SampleGroup,
};
use gx_e2ebench::trace::{self_times, time_by_name, write_chrome, Span, Tracer};
use std::io::Write;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

#[test]
fn quantiles_interpolate_between_order_statistics() {
    let v = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(quantile(&v, 0.0), 1.0);
    assert_eq!(quantile(&v, 1.0), 5.0);
    assert_eq!(median(&v), 3.0);
    assert!(close(quantile(&v, 0.1), 1.4));
    assert!(close(quantile(&v, 0.9), 4.6));
    assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    assert_eq!(quantile(&[7.0], 0.9), 7.0);
    assert!(quantile(&[], 0.5).is_nan());
}

#[test]
fn a_pair_counts_as_two_reads() {
    assert_eq!(reads_per_s(1_000, 2.0), 1_000.0);
    assert_eq!(pct(1.0, 4.0), 25.0);
    assert_eq!(pct(1.0, 0.0), 0.0);
    assert_eq!(ratio(3.0, 0.0), 0.0);
}

#[test]
fn fast_decile_rate_uses_each_groups_tenth_percentile_time() {
    // Eleven samples: the 10th percentile is the second-fastest exactly.
    let slow_tail: Vec<f64> = (0..11).map(|i| 1.0 + i as f64 * 0.1).collect();
    let groups = [
        SampleGroup {
            pairs: 100,
            secs: slow_tail.clone(),
        },
        SampleGroup {
            pairs: 300,
            secs: slow_tail.iter().map(|s| 2.0 * s).collect(),
        },
    ];
    // 400 pairs = 800 reads over 1.1 s + 2.2 s.
    assert!(close(fast_decile_reads_per_s(&groups), 800.0 / 3.3));
    // The mean rate divides all reads by all time.
    let all_secs: f64 = slow_tail.iter().sum::<f64>() * 3.0;
    assert!(close(
        mean_reads_per_s(&groups),
        2.0 * 11.0 * 400.0 / all_secs
    ));
    // One very slow sample moves the mean rate but not the fast decile.
    let mut stalled = groups.clone();
    stalled[0].secs[5] = 100.0;
    assert!(close(fast_decile_reads_per_s(&stalled), 800.0 / 3.3));
    assert!(mean_reads_per_s(&stalled) < mean_reads_per_s(&groups));
}

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        id: 0,
        parent,
        start_ns,
        end_ns,
        lane: 1,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
    let spans = [
        span("pair", None, 0, 100),
        span("seed_query", Some(0), 10, 30),
        // Overlaps the previous child: counted once.
        span("seed_query", Some(0), 20, 40),
        span("light", Some(0), 50, 60),
        // Runs past the parent's end: clipped at 100.
        span("sam", Some(0), 90, 120),
        // A grandchild only reduces its own parent's self time.
        span("dp", Some(3), 52, 55),
    ];
    let own = self_times(&spans);
    assert_eq!(own, vec![100 - 30 - 10 - 10, 20, 20, 10 - 3, 30, 3]);
    let by_name = time_by_name(&spans, 0);
    assert_eq!(by_name["seed_query"], (40, 40));
    assert_eq!(by_name["pair"], (50, 100));
    // Skipping the root still subtracts grandchildren from their parent.
    let tail = time_by_name(&spans, 3);
    assert!(!tail.contains_key("pair"));
    assert_eq!(tail["light"], (7, 10));
}

#[test]
fn tracer_spans_nest_and_export_as_chrome_json() {
    let mut t = Tracer::new();
    let root = t.begin("pair", 7, None, 1);
    let x = t.time("seed_query", 7, Some(root), || 41 + 1);
    t.end(root);
    assert_eq!(x, 42);
    let spans = t.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    let mut out = Vec::new();
    write_chrome(spans, |_| true, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.starts_with("{\"traceEvents\":["));
    assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
    assert!(text.contains("\"parent\":0"));
}

#[test]
fn digest_ignores_how_the_stream_is_split() {
    let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
    let mut whole = DigestWriter::default();
    whole.write_all(&bytes).unwrap();
    let mut pieces = DigestWriter::default();
    for chunk in bytes.chunks(3) {
        pieces.write_all(chunk).unwrap();
    }
    assert_eq!(whole.finish(), pieces.finish());
    let mut other = DigestWriter::default();
    other.write_all(&bytes[1..]).unwrap();
    assert_ne!(whole.finish(), other.finish());
}
