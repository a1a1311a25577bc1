//! Pacon end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <create_durable|stat_hot|churn_faults> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Each run repeats *trials* until `--seconds` have passed (at least
//! four). A trial deploys a fresh DFS and Pacon region (set-up), runs
//! the workload's closed loop of 160 virtual clients in the qsim engine
//! on this thread, then checks the outputs. Virtual metrics are a pure
//! function of the seed and must repeat exactly across the trials of a
//! run; wall-clock metrics are calibrated against a reference kernel
//! (`calib.rs`) and are medians over the trials after the first. The
//! last line of stdout is the JSON result; the human-readable report
//! goes to stderr.
//! See `perfbench/README.md` for every metric.

mod calib;
mod checks;
mod metrics;
mod procs;
mod spec;
mod trial;

use std::time::Instant;

use metrics::Metrics;
use spec::{Shape, Workload};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_none() && !args.self_test {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Minimum untraced trials per run: a warm-up and a few measured ones.
const MIN_TRIALS: usize = 4;

/// Run trials until `seconds` have passed; in trace mode alternate
/// untraced and traced trials so the tracing overhead is measured on the
/// same run.
fn run(w: Workload, shape: Shape, seed: u64, seconds: f64, trace: bool) -> Metrics {
    let started = Instant::now();
    let mut trials = Vec::new();
    loop {
        let traced = trace && trials.len() % 2 == 1;
        let t = trial::run_trial(w, shape, seed, traced, trials.len());
        eprintln!(
            "[{}] trial {} ({}): setup {:.3}s, phase {:.3}s wall, {:.0} ops/s p50 {} p99 {}, kernel {:.1}us, {} ops, {} failed{}",
            w.name(),
            trials.len(),
            if traced { "traced" } else { "untraced" },
            t.setup_s,
            t.wall_s,
            t.wall["wall_ops_per_s"].0,
            t.wall["wall_op_p50_ns"].0,
            t.wall["wall_op_p99_ns"].0,
            t.host["host.kernel_us"].0,
            t.attempted,
            t.failed,
            if t.errors.is_empty() {
                String::new()
            } else {
                format!(", errors: {:?}", t.errors)
            }
        );
        let failed_checks = !t.errors.is_empty();
        trials.push(t);
        if failed_checks {
            break;
        }
        let min = if trace { MIN_TRIALS + 1 } else { MIN_TRIALS };
        if trials.len() >= min && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    metrics::summarize(w, seed, &trials, trace)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.self_test {
        let ok = checks::self_test();
        std::process::exit(if ok { 0 } else { 1 });
    }
    let w = args.workload.expect("checked in parse_args");
    let m = run(w, Shape::FULL, args.seed, args.seconds, args.trace);
    m.print_report();
    println!("{}", m.to_json(args.trace));
    if !m.correct {
        std::process::exit(1);
    }
}
