//! The benchmark's own helpers: the percentile rule, failure accounting,
//! span self time and the result line.

use sbrl_benchmark::report::{result_json, Metric};
use sbrl_benchmark::stats::{beyond, percentile, tail_permille, Summary, Tally};
use sbrl_benchmark::trace::{self_time_by_layer, self_times_ns, Span, Tracer};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_permille(10_000), Some(999));
    assert_eq!(tail_permille(9_999), Some(990));
    assert_eq!(tail_permille(1_000), Some(990));
    assert_eq!(tail_permille(999), Some(950));
    assert_eq!(tail_permille(200), Some(950));
    assert_eq!(tail_permille(199), Some(900));
    assert_eq!(tail_permille(20), Some(500));
    assert_eq!(tail_permille(19), None);
    assert_eq!(tail_permille(0), None);
    assert_eq!(beyond(1_000, 990), 10);
    assert_eq!(beyond(0, 500), 0);
}

#[test]
fn percentile_is_nearest_rank() {
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 500), 50.0);
    assert_eq!(percentile(&sorted, 990), 99.0);
    assert_eq!(percentile(&sorted, 999), 100.0);
    assert!(percentile(&[], 500).is_nan());
}

#[test]
fn summary_reports_median_tail_and_count() {
    let s = Summary::of((1..=1000).rev().map(f64::from).collect());
    assert_eq!(s.samples, 1000);
    assert_eq!(s.p50, 500.0);
    assert_eq!(s.tail_permille, Some(990));
    assert_eq!(s.tail, 990.0);
    assert_eq!(s.tail_label(), "p99");
    let few = Summary::of(vec![1.0, 2.0, 3.0]);
    assert_eq!((few.tail_permille, few.tail_label()), (None, "p-".to_string()));
    assert!(few.tail.is_nan());
}

#[test]
fn failures_stay_in_the_sample_and_miss_every_limit() {
    // 989 answered requests and 11 failed ones: the failures are not left
    // out, so the p99 is a miss.
    let mut samples = vec![100.0; 989];
    samples.extend([f64::INFINITY; 11]);
    let s = Summary::of(samples);
    assert_eq!(s.samples, 1000);
    assert_eq!(s.p50, 100.0);
    assert_eq!(s.tail, f64::INFINITY);
}

#[test]
fn tally_counts_errors_and_wrong_answers_against_attempts() {
    let mut t = Tally::default();
    assert_eq!(t.failed_share(), 0.0);
    for _ in 0..7 {
        t.ok();
    }
    t.error();
    t.wrong();
    t.wrong();
    assert_eq!((t.attempted, t.errors, t.wrong, t.failed()), (10, 1, 2, 3));
    assert!((t.failed_share() - 0.3).abs() < 1e-12);
    let mut total = Tally::default();
    total.add(t);
    total.add(t);
    assert_eq!((total.attempted, total.failed()), (20, 6));
}

fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span { id, parent, request: 0, name, start_ns, end_ns }
}

#[test]
fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
    let spans = [
        span(1, 0, "serve.request", 0, 100),
        span(2, 1, "serve.submit", 10, 30),
        span(3, 1, "serve.wait", 20, 50),
        span(4, 1, "wire.reply", 90, 120),
        span(5, 0, "kernels.gemm", 0, 7),
    ];
    // Children cover [10, 50) and [90, 100) of the parent: 50 ns.
    assert_eq!(self_times_ns(&spans), vec![50, 20, 30, 30, 7]);
    let by_layer = self_time_by_layer(&spans);
    assert_eq!(by_layer["serve"], (3, 100));
    assert_eq!(by_layer["wire"], (1, 30));
    assert_eq!(by_layer["kernels"], (1, 7));
}

#[test]
fn tracer_records_nested_spans_only_when_on() {
    let off = Tracer::new(false);
    assert_eq!(off.span("trainer.fit", 0, 0, |id| id + 41), 41);
    assert!(off.spans().is_empty());

    let on = Tracer::new(true);
    on.span("harness.setup", 0, 7, |parent| {
        on.span("data.generate", parent, 7, |_| ());
    });
    let spans = on.spans();
    assert_eq!(spans.len(), 2);
    let (child, parent) = (spans[0], spans[1]);
    assert_eq!((child.name, parent.name), ("data.generate", "harness.setup"));
    assert_eq!((child.parent, parent.parent, child.request), (parent.id, 0, 7));
    assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
    assert_eq!(on.durations_us("data.generate").len(), 1);
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let mut t = Tally::default();
    t.ok();
    t.error();
    let line = result_json(
        false,
        &t,
        &[Metric::new("setup_s", 0.25, "s"), Metric::new("inproc_p99_us", f64::NAN, "us")],
    );
    assert_eq!(
        line,
        "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"setup_s\": \
         {\"value\": 0.25, \"unit\": \"s\"}, \"inproc_p99_us\": {\"value\": null, \"unit\": \"us\"}}}"
    );
}
