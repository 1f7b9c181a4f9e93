//! `mc3-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --mc3 <path>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of the traced run with
//! `--trace 1`. Exits non-zero on any wrong answer. `run.py` in this
//! directory builds the binaries and passes `--mc3`.

use mc3_core::json::Json;
use mc3_perfbench::e2e::{self, client_count, Outcome, SETUPS};
use mc3_perfbench::stats::percentile;
use mc3_perfbench::streams::{Stream, Workload};
use mc3_perfbench::trace;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    mc3: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut mc3 = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                })
            }
            "--mc3" => mc3 = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        mc3: mc3.ok_or("--mc3 is required")?,
    })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::object([
        ("value", Json::Float(value)),
        ("unit", Json::Str(unit.to_owned())),
    ])
}

/// The result line, and whether every answer was correct.
fn result_line(attempted: u64, failed: u64, correct: bool, metrics: Vec<(&str, Json)>) -> String {
    let metrics = Json::Object(
        metrics
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    );
    Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(i128::from(attempted))),
        ("failed", Json::Int(i128::from(failed))),
        ("metrics", metrics),
    ])
    .to_string()
}

fn report_errors(errors: &[String]) {
    for e in errors {
        eprintln!("perfbench: wrong or failed answer: {e}");
    }
}

/// Whether the verification set cost what the benchmark recorded.
fn cost_as_recorded(workload: Workload, cost: u64) -> bool {
    let expected = workload.expected_solution_cost();
    if cost != expected {
        eprintln!("perfbench: verification set cost {cost} differs from the recorded {expected}");
    }
    cost == expected
}

fn end_to_end(args: &Args) -> Result<(String, bool), String> {
    let workload = args.workload;
    let stream = Stream::new(workload, args.seed);
    let prepared = e2e::prepare(workload, &args.mc3, SETUPS)?;
    let (out, peak_rss_mb): (Outcome, f64) = match &prepared.server {
        Some(server) => {
            let out = e2e::closed_loop(server.addr(), &stream, client_count(), args.seconds);
            (out, server.peak_rss_mb()?)
        }
        None => {
            let out = e2e::offline_loop(&stream, client_count(), args.seconds);
            (out, e2e::own_peak_rss_mb()?)
        }
    };
    drop(prepared.server);
    report_errors(&out.errors);
    let failed = out.sent - out.correct;
    let correct = failed == 0 && out.sent > 0 && cost_as_recorded(workload, prepared.solution_cost);
    let sent = out.sent.max(1) as f64;
    println!(
        "{}: {} samples in {:.3} s; latency limit {} ms",
        workload.name(),
        out.latencies_ms.len(),
        out.elapsed_s,
        workload.latency_limit_ms()
    );
    let metrics = vec![
        ("setup_s", metric(prepared.setup_s, "s")),
        (
            "throughput_per_s",
            metric(out.latencies_ms.len() as f64 / out.elapsed_s, "1/s"),
        ),
        (
            "latency_p50_ms",
            metric(percentile(&out.latencies_ms, 50.0), "ms"),
        ),
        (
            "latency_p90_ms",
            metric(percentile(&out.latencies_ms, 90.0), "ms"),
        ),
        (
            "slo_attainment",
            metric(out.within_limit as f64 / sent, "ratio"),
        ),
        ("success_ratio", metric(out.correct as f64 / sent, "ratio")),
        (
            "solution_cost",
            metric(prepared.solution_cost as f64, "cost"),
        ),
        ("peak_rss_mb", metric(peak_rss_mb, "MiB")),
    ];
    Ok((result_line(out.sent, failed, correct, metrics), correct))
}

fn traced(args: &Args) -> Result<(String, bool), String> {
    let r = trace::traced_run(args.workload, args.seed, &args.mc3, args.seconds)?;
    print!("{}", trace::render(args.workload, &r));
    report_errors(&r.e2e.errors);
    report_errors(&r.replay_errors);
    let attempted = r.e2e.sent + r.replayed as u64;
    let failed = r.e2e.sent - r.e2e.correct + r.replay_errors.len() as u64;
    let correct = failed == 0 && cost_as_recorded(args.workload, r.solution_cost);
    let metrics = trace::LAYERS
        .iter()
        .flat_map(|l| l.metrics.iter())
        .map(|&name| {
            let unit = if name.ends_with("ms") {
                "ms"
            } else if name.ends_with("_mb") {
                "MiB"
            } else if name.ends_with("ratio") {
                "ratio"
            } else {
                "count"
            };
            (name, metric(r.metrics[name], unit))
        })
        .collect();
    Ok((result_line(attempted, failed, correct, metrics), correct))
}

fn main() -> ExitCode {
    let run = parse_args().and_then(|args| {
        if args.trace {
            traced(&args)
        } else {
            end_to_end(&args)
        }
    });
    match run {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
