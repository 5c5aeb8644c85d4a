//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 --server PATH
//! --root DIR` — normally started by `run.py`, which builds this binary and
//! `oasis-serve` first.
//!
//! Prints a report, one metric per line with its unit, and as its last line
//! one JSON object: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.

use perfbench::inputs::Workload;
use perfbench::ladder::run_ladder;
use perfbench::workloads::{run_simulate, run_wire, rust_line_count, RunContext};
use std::path::PathBuf;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut root = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            "--root" => root = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        server: server.ok_or("--server is required")?,
        root: root.unwrap_or_else(|| PathBuf::from(".")),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let work = args
        .root
        .join(".perfbench_tmp")
        .join(std::process::id().to_string());
    if let Err(error) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {error}", work.display());
        std::process::exit(1);
    }
    let context = RunContext {
        seed: args.seed,
        seconds: args.seconds,
        server: args.server,
        work: work.clone(),
    };
    let outcome = match (args.workload, args.trace) {
        (workload, true) => run_ladder(workload, &context),
        (Workload::Simulate, false) => run_simulate(&context),
        (workload, false) => run_wire(workload, &context),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(args.root.join(".perfbench_tmp"));
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {} run failed: {error}", args.workload.name());
            std::process::exit(1);
        }
    };

    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "context: crates/engine {} lines of Rust, vendor/ {} lines of Rust, {} CPUs available",
        rust_line_count(&args.root.join("crates/engine")),
        rust_line_count(&args.root.join("vendor")),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for line in outcome.report_lines() {
        println!("{line}");
    }
    println!("{}", outcome.json_line());
}
