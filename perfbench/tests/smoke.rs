//! Tiny-size smoke of every workload: each must finish, check its own
//! outputs, and print the four-key result line with every metric of its
//! mode. Run from the repository root's `perfbench` package:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use dprep_obs::Json;

const END_TO_END: [&str; 11] = [
    "rows_per_s",
    "overhead_us_per_row",
    "peak_rss_mb",
    "setup_s",
    "job_p50_ms.low",
    "job_p50_ms.mid",
    "job_p50_ms.high",
    "job_p95_ms.low",
    "job_p95_ms.mid",
    "job_p95_ms.high",
    "jobs_per_s_at_slo",
];

fn run(workload: &str, trace: u8) -> Json {
    // The benchmark runs from the repository root, where the workspace
    // it builds the daemon from lives.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&root)
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--size", "0.02"])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON result");
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert!(line.get("attempted").and_then(Json::as_usize).unwrap_or(0) >= 1);
    assert_eq!(line.get("failed").and_then(Json::as_usize), Some(0));
    line
}

fn metric(line: &Json, name: &str) -> f64 {
    line.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for workload in ["paper-mix", "stream-ed", "serve-open"] {
        let line = run(workload, 0);
        for name in END_TO_END {
            let value = metric(&line, name);
            assert!(value.is_finite(), "{workload} {name} = {value}");
        }
        assert!(metric(&line, "rows_per_s") > 0.0, "{workload}");
    }
}

#[test]
fn traced_runs_report_layer_metrics() {
    for workload in ["stream-ed", "serve-open"] {
        let line = run(workload, 1);
        assert!(metric(&line, "sim.us_per_call") > 0.0, "{workload}");
        assert!(
            metric(&line, "journal.append_us_per_entry") > 0.0,
            "{workload}"
        );
        assert!(metric(&line, "trace.overhead_ratio") > 0.0, "{workload}");
        if workload == "serve-open" {
            assert!(metric(&line, "serve.ping_p50_ms") > 0.0);
        }
    }
}
