//! `steady [--workloads a,b] [--trace-overhead]`
//!
//! The steadiness command: runs each workload [`RUNS`] times (seeds
//! [`FIRST_SEED`] onwards, one process at a time, each for
//! `BENCHMARK.json`'s `run_seconds`) and prints, for every end-to-end
//! metric, the median, the quartiles (as Python's
//! `statistics.quantiles(values, n=4)` computes them) and the spread —
//! the interquartile distance as a share of the median — flagging any
//! spread above the metric's bound in `BENCHMARK.json` (that of
//! `setup_s` is flagged but not counted as a problem). It also checks
//! that every run was correct and that the failed share of attempted
//! operations is the same in every run, and lists every run's value
//! (and the failed checks of any run that is not correct).
//! With `--trace-overhead` each seed is also run traced, and the traced
//! minus untraced medians are printed: the tracing overhead.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use perfbench::json::{self, Value};
use perfbench::stats;

/// Runs per workload.
const RUNS: u64 = 10;
/// Seed of the first run; each further run takes the next seed.
const FIRST_SEED: u64 = 1;

struct Bound {
    name: String,
    bound: f64,
}

struct Run {
    correct: bool,
    attempted: f64,
    failed: f64,
    e2e: Value,
}

fn die(msg: &str) -> ! {
    eprintln!("steady: {msg}");
    std::process::exit(2)
}

fn run_once(bin: &PathBuf, workload: &str, seed: u64, seconds: f64, trace: bool) -> Run {
    let out = Command::new(bin)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .output()
        .unwrap_or_else(|e| die(&format!("cannot run {}: {e}", bin.display())));
    if !out.status.success() {
        die(&format!(
            "{workload} seed {seed} exited with {}",
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let last = lines.last().copied().unwrap_or("");
    let doc = json::parse(last).unwrap_or_else(|e| die(&format!("bad result line: {e}")));
    // A traced run prints its end-to-end figures on the line before.
    let e2e_doc = if trace {
        lines
            .iter()
            .rev()
            .find_map(|l| l.strip_prefix("# e2e "))
            .and_then(|l| json::parse(l).ok())
            .unwrap_or_else(|| die("traced run printed no end-to-end line"))
    } else {
        doc.clone()
    };
    let num = |k: &str| doc.get(k).and_then(Value::num).unwrap_or(f64::NAN);
    let correct = doc.get("correct") == Some(&Value::Bool(true));
    if !correct {
        println!("  {workload} seed {seed} (trace {trace}) is not correct:");
        for line in String::from_utf8_lossy(&out.stderr)
            .lines()
            .filter(|l| l.starts_with("check failed"))
        {
            println!("    {line}");
        }
    }
    Run {
        correct,
        attempted: num("attempted"),
        failed: num("failed"),
        e2e: e2e_doc.get("metrics").cloned().unwrap_or(Value::Null),
    }
}

fn value(run: &Run, metric: &str) -> f64 {
    run.e2e
        .get(metric)
        .and_then(|m| m.get("value"))
        .and_then(Value::num)
        .unwrap_or(f64::NAN)
}

fn main() {
    let mut only: Option<Vec<String>> = None;
    let mut overhead = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut next = || {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workloads" => only = Some(next().split(',').map(str::to_string).collect()),
            "--trace-overhead" => overhead = true,
            other => die(&format!("unknown flag {other}")),
        }
    }

    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(spec_path)
        .ok()
        .and_then(|t| json::parse(&t).ok())
        .unwrap_or_else(|| die("cannot read BENCHMARK.json"));
    let seconds = spec
        .get("run_seconds")
        .and_then(Value::num)
        .unwrap_or_else(|| die("BENCHMARK.json has no run_seconds"));
    let bounds: Vec<Bound> = spec
        .get("end_to_end")
        .map(Value::arr)
        .unwrap_or(&[])
        .iter()
        .map(|m| Bound {
            name: m.get("name").and_then(Value::str).unwrap_or("").to_string(),
            bound: m.get("bound").and_then(Value::num).unwrap_or(f64::NAN),
        })
        .collect();
    let workloads: Vec<String> = only.unwrap_or_else(|| {
        spec.get("workloads")
            .map(Value::arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::str).map(str::to_string))
            .collect()
    });
    let bin = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("perfbench")))
        .unwrap_or_else(|| die("cannot locate the perfbench binary"));

    let mut over = 0;
    for workload in &workloads {
        let plain: Vec<Run> = (FIRST_SEED..FIRST_SEED + RUNS)
            .map(|s| run_once(&bin, workload, s, seconds, false))
            .collect();
        let traced: Vec<Run> = if overhead {
            (FIRST_SEED..FIRST_SEED + RUNS)
                .map(|s| run_once(&bin, workload, s, seconds, true))
                .collect()
        } else {
            Vec::new()
        };
        let shares: Vec<f64> = plain.iter().map(|r| r.failed / r.attempted).collect();
        let same_share = shares.windows(2).all(|p| p[0] == p[1]);
        let all_correct = plain.iter().chain(&traced).all(|r| r.correct);
        println!(
            "{workload}: {RUNS} runs x {seconds} s, seeds {FIRST_SEED}..{}; correct {all_correct}; failed share {} ({})",
            FIRST_SEED + RUNS - 1,
            shares.first().copied().unwrap_or(f64::NAN),
            if same_share { "same in every run" } else { "DIFFERS between runs" }
        );
        println!(
            "  {:<16} {:>12} {:>12} {:>12} {:>8} {:>6}  {}",
            "metric",
            "q1",
            "median",
            "q3",
            "spread",
            "bound",
            if overhead { "traced-untraced" } else { "" }
        );
        for b in &bounds {
            let vals: Vec<f64> = plain.iter().map(|r| value(r, &b.name)).collect();
            let Some([q1, q2, q3]) = stats::quartiles(&vals) else {
                continue;
            };
            let spread = stats::relative_spread(&vals).unwrap_or(f64::NAN);
            // Set-up time is bounded on its median, not on its spread.
            let flag = if spread > b.bound && b.name == "setup_s" {
                "  over bound (not gated)"
            } else if spread > b.bound {
                over += 1;
                "  OVER BOUND"
            } else {
                ""
            };
            let extra = if overhead {
                let t: Vec<f64> = traced.iter().map(|r| value(r, &b.name)).collect();
                let tm = stats::median(&t).unwrap_or(f64::NAN);
                format!("{:+.4} ({:+.1}%)", tm - q2, (tm - q2) / q2 * 100.0)
            } else {
                String::new()
            };
            println!(
                "  {:<16} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.1}% {:>5.0}%  {extra}{flag}",
                b.name,
                spread * 100.0,
                b.bound * 100.0
            );
            let runs: Vec<String> = vals.iter().map(|v| format!("{v:.4}")).collect();
            println!("  {:<16} runs: {}", "", runs.join(" "));
        }
        if !all_correct || !same_share {
            over += 1;
        }
    }
    if over > 0 {
        println!("steady: {over} problem(s)");
        std::process::exit(1);
    }
}
