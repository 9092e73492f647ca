//! kdom's end-to-end benchmark.
//!
//! ```text
//! kdom-perfbench --workload mst_gnm|mst_path|serve_mixed --seed N \
//!                --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Each invocation runs one workload in this process, certifies every
//! output against the sequential oracle, prints human-readable lines,
//! and ends with one JSON object on the last line of standard output:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A run with any failed operation still prints its
//! metrics, then exits with code 1. Spans of a traced run and the
//! server's Unix socket go to `--out` (default: the current directory).
//! `perfbench/run.py` builds this binary and launches it; see
//! `perfbench/README.md`.

mod mst;
mod report;
mod serve;
mod spans;
mod stats;

use std::process::ExitCode;

/// Set-ups per batch. A run times one batch before its measured work
/// and at least one after it; `setup_s` is the median of all of them.
pub const SETUP_BATCH: usize = 8;

/// The knobs the workloads read, pinned to the values the benchmark
/// measures: one engine thread, one oracle thread, the default
/// scheduler, fast-forward, shard and dense thresholds, wire-exact
/// execution, the in-process transport, and no JSONL trace.
const PINNED_KNOBS: [(&str, &str); 8] = [
    ("KDOM_THREADS", "1"),
    ("KDOM_ORACLE_THREADS", "1"),
    ("KDOM_SCHED", "active"),
    ("KDOM_FASTFWD", "1"),
    ("KDOM_DENSE_PCT", "75"),
    ("KDOM_SHARD_MIN", "1024"),
    ("KDOM_WIRE", "exact"),
    ("KDOM_TRANSPORT", "local"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = std::path::PathBuf::from(".");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is not 0 or 1")),
                }
            }
            "--out" => out = value()?.into(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
    })
}

/// Replaces every `KDOM_*` variable of the caller's environment with the
/// pinned set. Runs first in `main`, before any thread exists.
fn pin_knobs() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("KDOM_") {
            std::env::remove_var(&key);
        }
    }
    for (key, value) in PINNED_KNOBS {
        std::env::set_var(key, value);
    }
}

fn main() -> ExitCode {
    pin_knobs();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kdom-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let knobs: Vec<String> = PINNED_KNOBS
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("knobs: {} (KDOM_TRACE unset)", knobs.join(" "));
    println!(
        "workload {} seed {} seconds {} trace {}; host CPUs {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let tracer = std::sync::Arc::new(spans::Tracer::new(args.trace));
    let outcome = match args.workload.as_str() {
        "mst_gnm" => mst::run(mst::Shape::Gnm, args.seed, args.seconds, &tracer),
        "mst_path" => mst::run(mst::Shape::Path, args.seed, args.seconds, &tracer),
        "serve_mixed" => serve::run(args.seed, args.seconds, &tracer, &args.out),
        other => {
            eprintln!("kdom-perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if tracer.enabled() {
        let path = args
            .out
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("kdom-perfbench: writing spans to {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("spans written to {}", path.display());
    }
    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    metrics.print_table();
    let ledger = &outcome.ledger;
    for f in &ledger.failures {
        println!("FAILED: {f}");
    }
    let correct = ledger.failed == 0;
    println!(
        "certified: {} of {} operations passed",
        ledger.attempted - ledger.failed,
        ledger.attempted
    );
    println!(
        "{}",
        metrics.result_line(correct, ledger.attempted, ledger.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
