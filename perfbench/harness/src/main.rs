//! `soteria-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds` and prints, as its last stdout line,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! untraced, the per-layer ledger traced. A provenance line precedes it.
//! `soteria-perfbench record-golden` prints the golden verdict file instead.

use soteria::JsonValue;
use soteria_perfbench::batch;
use soteria_perfbench::clock::REFERENCE_MS;
use soteria_perfbench::golden::{self, Golden};
use soteria_perfbench::inputs::{Corpus, Inputs};
use soteria_perfbench::report::Outcome;
use soteria_perfbench::serve::{self, References, ServeEdit};
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        if flag == "record-golden" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => trace = value != "0",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", golden::record(&soteria::Soteria::new()));
            return;
        }
        Err(error) => {
            eprintln!("soteria-perfbench: {error}");
            std::process::exit(2);
        }
    };
    let corpus = match args.workload.as_str() {
        "market-batch" | "serve-edit" => Corpus::Market,
        "maliot-batch" => Corpus::Maliot,
        other => {
            eprintln!("soteria-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let exe = std::env::current_exe().expect("own executable path");
    let dir = exe.parent().expect("executable directory").to_path_buf();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = Outcome::default();

    if args.workload == "serve-edit" {
        let (bin, work) = (dir.join("soteria-serve"), dir.join("perfbench-work"));
        let setup = || -> Result<(Inputs, Golden), String> {
            let inputs = Inputs::new(corpus, args.seed);
            let golden = Golden::load()?;
            serve::probe(&bin, &work, workers)?;
            Ok((inputs, golden))
        };
        let (inputs, golden) = timed_setup(&setup, &mut out);
        let refs = References::compute(&soteria::Soteria::new(), &inputs);
        let serve = ServeEdit {
            bin,
            work,
            workers,
            inputs: &inputs,
            golden: &golden,
        };
        out.clock.calibrate();
        serve.run(&refs, args.seed, args.seconds, args.trace, &mut out);
        let _ = std::fs::remove_dir_all(&serve.work);
    } else {
        let setup = || -> Result<(Inputs, Golden), String> {
            let inputs = Inputs::new(corpus, args.seed);
            let golden = Golden::load()?;
            let warm: Vec<(&str, &str)> = soteria_corpus::running_apps();
            if batch::analyzer()
                .analyze_apps(&warm)
                .iter()
                .any(Result::is_err)
            {
                return Err("running examples do not parse".into());
            }
            Ok((inputs, golden))
        };
        let (inputs, golden) = timed_setup(&setup, &mut out);
        batch::run(
            &inputs,
            &golden,
            args.seed,
            args.seconds,
            args.trace,
            &mut out,
        );
    }
    out.clock.calibrate();
    let raw = JsonValue::Object(
        out.end_to_end(false)
            .into_iter()
            .map(|(name, _, value)| (name.to_string(), JsonValue::Number(value)))
            .collect(),
    );

    let provenance = JsonValue::object([
        ("workload", JsonValue::string(args.workload.clone())),
        ("seed", JsonValue::Number(args.seed as f64)),
        ("trace", JsonValue::Bool(args.trace)),
        ("nproc", JsonValue::uint(workers)),
        (
            "analyzer_threads",
            JsonValue::uint(if args.workload == "serve-edit" {
                soteria::Soteria::new().threads()
            } else {
                batch::analyzer().threads()
            }),
        ),
        (
            "serve_workers",
            JsonValue::uint(if args.workload == "serve-edit" {
                workers
            } else {
                0
            }),
        ),
        (
            "git_rev",
            JsonValue::string(env_or("PERFBENCH_GIT_REV", "unknown")),
        ),
        (
            "rustc",
            JsonValue::string(env_or("PERFBENCH_RUSTC", "unknown")),
        ),
        ("iterations", JsonValue::uint(out.count("sweep_ms"))),
        ("reference_kernel_ms", JsonValue::Number(REFERENCE_MS)),
        (
            "host_kernel_ms",
            JsonValue::Number(out.clock.median_kernel_ms()),
        ),
        ("unscaled", raw),
    ]);
    for error in &out.errors {
        eprintln!("soteria-perfbench: FAILED {error}");
    }
    let metrics = if args.trace {
        out.per_layer()
    } else {
        out.end_to_end(true)
    };
    for (name, unit, value) in &metrics {
        eprintln!("{name:32} {value:>14.4} {unit}");
    }
    println!(
        "{}",
        JsonValue::object([("provenance", provenance)]).render()
    );
    println!("{}", out.result_line(args.trace));
}

/// Runs `setup` [`SETUP_REPS`] times, recording each duration, and keeps the
/// last result. A failing set-up ends the run without a result line.
fn timed_setup<T>(setup: &dyn Fn() -> Result<T, String>, out: &mut Outcome) -> T {
    out.clock.calibrate();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        match setup() {
            Ok(value) => last = Some(value),
            Err(error) => {
                eprintln!("soteria-perfbench: set-up failed: {error}");
                std::process::exit(1);
            }
        }
        out.setup(started.elapsed().as_secs_f64());
    }
    out.clock.calibrate();
    last.expect("at least one set-up")
}

fn env_or(key: &str, default: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| default.to_string())
}
