//! Command line of the simulator's host-performance benchmark.
//!
//! ```text
//! elsc-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints each metric on its own line (`name = value unit`), then, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. Exits 0 when
//! the run completed (check `correct`), 2 on a usage error.

use std::process::ExitCode;
use std::time::Duration;

use elsc_perfbench::{run, Options, Workload};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// The measuring time used when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 50;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: elsc-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<(Workload, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: DEFAULT_SEED,
        budget: Duration::from_secs(DEFAULT_SECONDS),
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(bad)?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                opts.budget = Duration::try_from_secs_f64(s).map_err(|_| bad())?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out = run(workload, opts);
    for note in &out.notes {
        println!("{note}");
    }
    let metrics = out.metrics(opts.trace);
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "fail_ratio = {} ({} of {} operations failed)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        fields.join(",")
    );
    ExitCode::SUCCESS
}
