//! `perfbench` — the DiffProv diagnosis benchmark.
//!
//! One run builds one workload from a seed and issues diagnoses and
//! classical provenance queries in a closed loop for `--seconds`, checking
//! every answer. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! runs the traced loop and prints the per-layer metrics. The last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campus --seed 1 --seconds 25 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest
//! ```
//!
//! The run refuses to start when any `DP_*` variable is set: those steer
//! the engine's defaults, and every number here measures the default path.

mod manifest;
mod measure;
mod workload;

use std::process::ExitCode;

use workload::{Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <campus|campus_churn|mapreduce> --seed <n> \
                     --seconds <n> --trace <0|1> [--scale full|tiny]\n       perfbench --manifest";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Full;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--manifest"] {
        print!("{}", manifest::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let steering: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DP_"))
        .collect();
    if !steering.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: DP_* variables change the engine's \
             defaults, and the benchmark measures the default path",
            steering.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let (w, scale, seed, seconds) = (args.workload, args.scale, args.seed, args.seconds);
    println!(
        "perfbench: workload={} seed={seed} seconds={seconds} trace={} scale={scale:?}",
        w.name(),
        args.trace as u8
    );
    let out = if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{seed}.jsonl", w.name()));
        let out = measure::per_layer(w, scale, seed, seconds, &path);
        println!("spans: {}", path.display());
        out
    } else {
        measure::end_to_end(w, scale, seed, seconds)
    };
    println!("config: {}", out.config);
    println!("iterations: {}", out.iterations);
    for note in &out.notes {
        println!("{note}");
    }
    for e in &out.errors {
        println!("FAILED: {e}");
    }

    let mut json = Vec::new();
    let mut finite = true;
    for (name, value) in &out.metrics {
        let unit = manifest::unit_of(name);
        let moves = manifest::PER_LAYER
            .iter()
            .find(|m| m.name == *name)
            .map_or(String::new(), |m| format!("  [{}]", m.moves));
        println!("{name} = {value} {unit}{moves}");
        finite &= value.is_finite();
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let diagnoses_failed = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "diagnoses_failed = {diagnoses_failed} ratio ({} of {})",
        out.failed, out.attempted
    );
    let correct = out.failed == 0 && out.attempted > 0 && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
