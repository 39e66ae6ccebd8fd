//! The polymem benchmark.
//!
//! ```text
//! polymem-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one pass of one workload; the last line of stdout is the result
//!     object (`correct`, `attempted`, `failed`, `metrics`)
//! polymem-benchmark run    [--seed N] [--seconds S] [--workload NAME]
//!     both passes of every workload, each in a fresh child process,
//!     with the sum-checks; writes benchmark/out/results.json
//! polymem-benchmark repeat [K] [--seed N] [--seconds S] [--workload NAME]
//!     `run` K times (default 2) and an agreement table
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod api;
mod metrics;
mod mix;
mod report;
mod stats;
mod trace;
mod workloads;

use api::Json;
use std::process::ExitCode;
use workloads::Args;

/// Exit code for a bad command line.
const EXIT_USAGE: u8 = 2;

fn usage(msg: &str) -> ExitCode {
    eprintln!("polymem-benchmark: {msg}");
    eprintln!(
        "usage: polymem-benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
         polymem-benchmark run    [--seed N] [--seconds S] [--workload NAME]\n       \
         polymem-benchmark repeat [K] [--seed N] [--seconds S] [--workload NAME]\n\
         workloads: {}",
        workloads::NAMES.join(", ")
    );
    ExitCode::from(EXIT_USAGE)
}

/// Parsed `--flag value` pairs.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !workloads::NAMES.contains(&value.as_str()) {
                    return Err(format!("unknown workload `{value}`"));
                }
                f.workload = Some(value.clone());
            }
            "--seed" => {
                f.seed = value
                    .parse()
                    .map_err(|_| format!("--seed `{value}` is not a whole number"))?;
            }
            "--seconds" => {
                f.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds `{value}` is not in (0, 600]"))?;
            }
            "--trace" => {
                f.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace `{value}` is neither 0 nor 1")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(f)
}

/// One pass of one workload: the mode the driver (and `run`) invokes.
fn child(args: &Args) -> ExitCode {
    println!(
        "polymem benchmark: workload {}, seed {}, {} s window, trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let out = match workloads::run(args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("polymem-benchmark: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    out.report.print();
    if args.trace {
        if let Err(e) = report::write_trace(&args.workload, &out.spans) {
            eprintln!("polymem-benchmark: trace file: {e}");
            return ExitCode::FAILURE;
        }
    }
    let set = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    println!("{}{}", report::DETAIL_PREFIX, out.report.detail_json());
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(out.failed == 0)),
            ("attempted".into(), Json::Num(out.attempted as f64)),
            ("failed".into(), Json::Num(out.failed as f64)),
            ("metrics".into(), out.report.contract_json(set)),
        ])
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some("run") => ("run", &args[1..]),
        Some("repeat") => ("repeat", &args[1..]),
        _ => ("child", &args[..]),
    };
    // `repeat` takes its count as an optional positional.
    let (times, rest) = match (mode, rest.first().and_then(|s| s.parse::<usize>().ok())) {
        ("repeat", Some(k)) if k >= 2 => (k, &rest[1..]),
        ("repeat", Some(_)) => return usage("repeat needs at least 2 runs"),
        ("repeat", None) => (2, rest),
        _ => (1, rest),
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => return usage(&e),
    };
    if mode == "child" {
        let (Some(workload), Some(trace)) = (flags.workload, flags.trace) else {
            return usage("a pass needs --workload and --trace (or use `run`)");
        };
        return child(&Args {
            workload,
            seed: flags.seed,
            seconds: flags.seconds,
            trace,
        });
    }
    if flags.trace.is_some() {
        return usage("`run` and `repeat` always make both passes; drop --trace");
    }
    let names: Vec<&str> = match &flags.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    match report::run_many(times, &names, flags.seed, flags.seconds) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("polymem-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
