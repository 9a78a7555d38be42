//! `sbrl-benchmark --workload <name|all> [--seed N] [--seconds N] [--trace 0|1]`
//!
//! Runs one workload (or all three) and prints its metrics by name with
//! their units. The last line of a single-workload run is a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Results, and
//! the spans of a traced run, are also written under `.bench_out/`. Exits 1
//! when any correctness check fails and 2 on bad arguments.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sbrl_benchmark::report::{result_json, table, Metric};
use sbrl_benchmark::stats::Tally;
use sbrl_benchmark::trace::{self_time_by_layer, to_jsonl};
use sbrl_benchmark::workload::{self, Outcome, RunConfig, Workload};
use sbrl_tensor::kernels::{available_cores, NumericsMode, Parallelism};

/// A seed kept out of every tuning run, for checking a later claim on
/// inputs its change was not written against.
const HOLDOUT_SEED: u64 = 90_001;

const USAGE: &str = "usage: sbrl-benchmark --workload <fit_syn16|serve_small|serve_large|all> \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workloads: Vec::new(), seed: 1, seconds: 20.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = workload::workloads().to_vec(),
            "--workload" => {
                parsed.workloads = vec![workload::find(value).ok_or_else(bad)?];
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// The git revision of the working directory, when it is a git checkout.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn metric_rows(metrics: &[Metric]) -> String {
    let header = ["metric", "value", "unit"].map(String::from);
    let rows: Vec<Vec<String>> = metrics
        .iter()
        .map(|m| vec![m.name.to_string(), format!("{:.4}", m.value), m.unit.to_string()])
        .collect();
    table(&header, &rows)
}

fn layer_self_times(out: &Outcome) -> String {
    let header = ["layer", "spans", "self_ms"].map(String::from);
    let rows: Vec<Vec<String>> = self_time_by_layer(&out.spans)
        .into_iter()
        .map(|(layer, (n, ns))| {
            vec![layer.to_string(), n.to_string(), format!("{:.3}", ns as f64 / 1e6)]
        })
        .collect();
    table(&header, &rows)
}

fn write_file(path: &Path, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Pin both knobs before any library code reads them, then record what
    // is actually in effect.
    let nproc = available_cores();
    std::env::set_var("SBRL_THREADS", nproc.to_string());
    std::env::set_var("SBRL_NUMERICS", "bitexact");
    Parallelism::from_env().set_global();
    NumericsMode::from_env().set_global();
    let provenance = format!(
        "nproc={nproc} SBRL_THREADS={} SBRL_NUMERICS={} git_rev={} seed={} holdout_seed={HOLDOUT_SEED} \
         seconds={} trace={}",
        Parallelism::global().workers(),
        NumericsMode::global().as_str(),
        git_rev(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    let mut all_correct = true;
    let mut summary: Vec<(Workload, Tally, Vec<Metric>)> = Vec::new();
    let mut last_json = String::new();
    for w in &args.workloads {
        println!(
            "# workload {} ({}): {}",
            w.name,
            if args.trace { "traced" } else { "untraced" },
            w.why
        );
        println!("# provenance: workload={} {provenance}", w.name);
        let cfg = RunConfig {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            clients: nproc,
            workdir: out_dir.join(format!("work-{}-{}", w.name, std::process::id())),
        };
        let result = workload::run(w, &cfg);
        let _ = std::fs::remove_dir_all(&cfg.workdir);
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                eprintln!("error: workload {} failed: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        for line in &out.lines {
            println!("# {line}");
        }
        let metrics: Vec<Metric> = if args.trace {
            out.per_layer.clone()
        } else {
            out.end_to_end.iter().filter(|m| workload::GATED.contains(&m.name)).cloned().collect()
        };
        let correct = out.tally.attempted > 0
            && out.tally.failed() == 0
            && metrics.iter().all(|m| m.value.is_finite());
        all_correct &= correct;
        println!(
            "# failed_share={:.6} ({} failed of {} attempted: {} typed errors, {} wrong answers)",
            out.tally.failed_share(),
            out.tally.failed(),
            out.tally.attempted,
            out.tally.errors,
            out.tally.wrong
        );
        println!("{}", metric_rows(&out.end_to_end));
        let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
        if args.trace {
            println!("{}", metric_rows(&out.per_layer));
            println!("{}", layer_self_times(&out));
            let spans = out_dir.join(format!("{stem}.spans.jsonl"));
            write_file(&spans, &to_jsonl(&out.spans));
            println!("# spans: {}", spans.display());
        }
        last_json = result_json(correct, &out.tally, &metrics);
        write_file(
            &out_dir.join(format!("{stem}.json")),
            &format!(
                "{{\"provenance\": \"workload={} {provenance}\", \"result\": {last_json}}}\n",
                w.name
            ),
        );
        summary.push((*w, out.tally, out.end_to_end));
    }

    if summary.len() > 1 {
        let mut header = vec!["workload".to_string()];
        header.extend(summary[0].2.iter().map(|m| format!("{} [{}]", m.name, m.unit)));
        header.push("failed_share [ratio]".into());
        let rows: Vec<Vec<String>> = summary
            .iter()
            .map(|(w, tally, metrics)| {
                let mut row = vec![w.name.to_string()];
                row.extend(metrics.iter().map(|m| format!("{:.4}", m.value)));
                row.push(format!(
                    "{:.4} ({}/{})",
                    tally.failed_share(),
                    tally.failed(),
                    tally.attempted
                ));
                row
            })
            .collect();
        println!("{}", table(&header, &rows));
    } else {
        println!("{last_json}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a correctness check failed");
        ExitCode::FAILURE
    }
}
