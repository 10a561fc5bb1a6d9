//! `perfbench` — the repository's wall-clock benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-mix|stream-ed|serve-open --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it stamps the machine, toolchain, commit
//! and seed. A correctness mismatch exits 1; a usage or build error exits
//! 2. Details (per-phase accounting, span folds) land in
//! `.perfbench/results/`, spans as JSONL beside them. See README.md.

mod batch;
mod layers;
mod pinned;
mod pins;
mod probe;
mod report;
mod runner;
mod serve;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::process::Command;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper-mix", "stream-ed", "serve-open"];

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scale factor for smoke runs (1.0 = the benchmark's real sizes).
    pub size: f64,
}

/// Where scratch files and results go, relative to the checkout root.
pub const WORK_DIR: &str = ".perfbench";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("child") => runner::child_main(&argv[1..]),
        Some("pin") => runner::pin_main(&argv[1..]),
        _ => match parse(&argv) {
            Ok(settings) => run(&settings),
            Err(e) => {
                eprintln!("perfbench: {e}");
                2
            }
        },
    };
    std::process::exit(code);
}

fn parse(argv: &[String]) -> Result<Settings, String> {
    let mut settings = Settings {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: 1.0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = |what: &str| -> Result<f64, String> {
            value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("{what} expects a non-negative number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => settings.workload = value.to_string(),
            "--seed" => {
                settings.seed = value
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got {value:?}"))?
            }
            "--seconds" => settings.seconds = number("--seconds")?,
            "--trace" => {
                settings.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            "--size" => settings.size = number("--size")?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&settings.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            settings.workload
        ));
    }
    if settings.size <= 0.0 || settings.size > 1.0 {
        return Err("--size must be in (0, 1]".into());
    }
    Ok(settings)
}

fn run(settings: &Settings) -> i32 {
    let results = Path::new(WORK_DIR).join("results");
    if let Err(e) = std::fs::create_dir_all(&results) {
        eprintln!("perfbench: cannot create {}: {e}", results.display());
        return 2;
    }
    let stamp = report::machine_stamp(settings);
    let outcome = match settings.workload.as_str() {
        "serve-open" => runner::serve_open(settings),
        workload => runner::batch(settings, workload),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: MISMATCH: {problem}");
    }
    let file = results.join(format!(
        "{}-seed{}-trace{}.json",
        settings.workload,
        settings.seed,
        u8::from(settings.trace)
    ));
    let detail = report::detail_json(&stamp, &outcome);
    if let Err(e) = std::fs::write(&file, detail.to_json() + "\n") {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    eprint!("{}", report::summary(&outcome));
    println!("perfbench: {}", stamp.to_json());
    println!("{}", report::result_line(&outcome));
    if outcome.correct() {
        0
    } else {
        1
    }
}

/// Builds the `dprep` binary from the checkout's workspace (a no-op when
/// it is up to date) and returns its path.
pub fn build_dprep() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "dprep-cli",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building dprep failed ({status})"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let path = PathBuf::from(target).join("release").join("dprep");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("no dprep binary at {}", path.display()))
    }
}
