//! The repository benchmark: end-to-end metrics of four workloads, or,
//! with `--trace 1`, the per-layer metrics of a traced run.
//!
//! ```text
//! faithful-benchmark --workload <serve_hot|serve_cold|sweep|characterize>
//!                    --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. See `README.md` next to this crate.

mod client;
mod gen;
mod host;
mod inproc;
mod report;
mod served;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use trace::Tracer;

const USAGE: &str =
    "usage: faithful-benchmark --workload <serve_hot|serve_cold|sweep|characterize> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("faithful-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = host::forbidden_env() {
        eprintln!(
            "faithful-benchmark: {name} is set; it changes the program under test, unset it \
             (refused: {})",
            host::FORBIDDEN_ENV.join(", ")
        );
        return ExitCode::from(2);
    }
    let mut tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "serve_hot" => served::run(served::Mode::Hot, args.seed, args.seconds, &mut tracer),
        "serve_cold" => served::run(served::Mode::Cold, args.seed, args.seconds, &mut tracer),
        "sweep" => inproc::run(inproc::Mode::Sweep, args.seed, args.seconds, &mut tracer),
        "characterize" => inproc::run(
            inproc::Mode::Characterize,
            args.seed,
            args.seconds,
            &mut tracer,
        ),
        other => {
            eprintln!("faithful-benchmark: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("faithful-benchmark: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{} seed {} on {} cpus",
        args.workload,
        args.seed,
        host::cpus()
    );
    let host_metrics = outcome.timed.host();
    let metrics = if args.trace {
        let path =
            PathBuf::from(".bench_trace").join(format!("{}-seed{}.tsv", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
        }
        let mut metrics = outcome.layers.metrics();
        metrics.extend(host_metrics);
        metrics
    } else {
        let (bounded, wall_clock) = outcome.timed.end_to_end();
        report::print_metrics(&wall_clock);
        report::print_metrics(&host_metrics);
        bounded
    };
    report::print_result(outcome.attempted, outcome.failed, &metrics);
    ExitCode::SUCCESS
}
