//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics traced (a traced run also
//! prints its end-to-end figures on the line before, prefixed `# e2e`).
//! Diagnostics — sample counts, tails, the span table, the blocking-path
//! reconciliation, check results — go to stderr.

use std::process::ExitCode;

use perfbench::{json, Opts};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse() -> Option<Opts> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next()?;
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().ok()?,
            "--seconds" => opts.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => opts.trace = value.parse::<u8>().ok()? != 0,
            _ => return None,
        }
    }
    (!opts.workload.is_empty()).then_some(opts)
}

fn main() -> ExitCode {
    let Some(opts) = parse() else {
        return usage();
    };
    // The kernel worker count is part of the workload: one rayon worker
    // per forward, so the two pool threads are the only parallelism and
    // runs compare across hosts with different core counts. Set before
    // any parallel region starts the pool.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let out = match perfbench::run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    if opts.trace {
        println!(
            "# e2e {}",
            json::result_line(out.correct, out.attempted, out.failed, &out.e2e)
        );
    }
    let metrics = if opts.trace { &out.layers } else { &out.e2e };
    println!(
        "{}",
        json::result_line(out.correct, out.attempted, out.failed, metrics)
    );
    ExitCode::SUCCESS
}
