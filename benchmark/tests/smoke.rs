//! Each workload end to end at a tiny size: every answer is checked, every
//! metric is reported, and `BENCHMARK.json` names exactly what is reported.

use std::path::PathBuf;

use sbrl_benchmark::workload::{self, Outcome, RunConfig, GATED};

fn run(name: &str, seed: u64, trace: bool) -> Outcome {
    let w = workload::find(name).expect("a known workload").smoke();
    let workdir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{name}-{seed}-{trace}-{}", std::process::id()));
    let cfg = RunConfig { seed, seconds: 0.4, trace, clients: 2, workdir };
    let out = workload::run(&w, &cfg).expect("the smoke run completes");
    let _ = std::fs::remove_dir_all(&cfg.workdir);
    out
}

fn names(metrics: &[sbrl_benchmark::report::Metric]) -> Vec<&'static str> {
    metrics.iter().map(|m| m.name).collect()
}

/// The metric names listed under `section` in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits next to the benchmark directory");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"").skip(1).filter_map(|s| s.split('"').nth(1).map(String::from)).collect()
}

fn assert_served_everything(out: &Outcome) {
    assert!(out.tally.attempted > 0);
    assert_eq!(
        out.tally.failed(),
        0,
        "failed operations: {:?}\n{}",
        out.tally,
        out.lines.join("\n")
    );
}

#[test]
fn every_workload_runs_untraced_with_all_answers_correct() {
    for w in workload::workloads() {
        let out = run(w.name, 5, false);
        assert_served_everything(&out);
        let reported = names(&out.end_to_end);
        for gated in GATED {
            assert!(reported.contains(&gated), "{} lacks {gated}", w.name);
        }
        for m in &out.end_to_end {
            assert!(m.value.is_finite() || m.name.ends_with("p99_us"), "{}: {m:?}", w.name);
        }
        assert!(out.per_layer.is_empty() && out.spans.is_empty());
    }
}

#[test]
fn traced_runs_report_every_listed_layer_metric_from_spans() {
    let per_layer = listed("per_layer");
    for w in workload::workloads() {
        let out = run(w.name, 6, true);
        assert_served_everything(&out);
        let reported = names(&out.per_layer);
        for name in &per_layer {
            assert!(reported.contains(&name.as_str()), "{} lacks {name}", w.name);
        }
        assert_eq!(reported.len(), per_layer.len(), "{}: {reported:?}", w.name);
        for layer in ["data", "trainer", "kernels", "stats", "persist", "serve", "wire"] {
            assert!(out.spans.iter().any(|s| s.layer() == layer), "{}: no {layer} span", w.name);
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_the_gated_metrics() {
    assert_eq!(listed("end_to_end"), GATED.map(String::from).to_vec());
}

#[test]
fn the_same_seed_gives_the_same_quality_figures() {
    let figure = |out: &Outcome, name: &str| {
        out.end_to_end.iter().find(|m| m.name == name).map(|m| m.value.to_bits())
    };
    let a = run("fit_syn16", 9, false);
    let b = run("fit_syn16", 9, false);
    for name in ["pehe_ood", "pehe_ood_std"] {
        assert_eq!(figure(&a, name), figure(&b, name), "{name}");
    }
}
