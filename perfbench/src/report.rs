//! Results: metrics with units, operation accounting, the machine stamp,
//! and the final result line.

use std::process::Command;

use dprep_obs::Json;

use crate::Settings;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Operation counts of one workload phase (a rate phase of `serve-open`,
/// or the whole run of a batch workload).
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    pub phase: String,
    pub attempted: usize,
    pub succeeded: usize,
    pub failed: usize,
    pub shed: usize,
    /// Further per-phase facts (rate, backlog, lag, sample counts).
    pub facts: Vec<(String, f64)>,
}

/// Everything one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub accounting: Vec<Accounting>,
    pub problems: Vec<String>,
    /// Span folds: (name, count, total seconds, self seconds).
    pub folds: Vec<(String, f64, f64, f64)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    pub fn attempted(&self) -> usize {
        self.accounting.iter().map(|a| a.attempted).sum()
    }

    pub fn failed(&self) -> usize {
        self.accounting
            .iter()
            .map(|a| a.failed + a.shed)
            .sum::<usize>()
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed() == 0 && self.attempted() > 0
    }
}

/// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted().max(1),
        outcome.failed(),
        metrics.join(", ")
    )
}

/// A human-readable summary for standard error.
pub fn summary(outcome: &Outcome) -> String {
    let mut out = String::new();
    for a in &outcome.accounting {
        out.push_str(&format!(
            "perfbench: {:<10} attempted {:>5}  succeeded {:>5}  failed {:>3}  shed {:>3}",
            a.phase, a.attempted, a.succeeded, a.failed, a.shed
        ));
        for (k, v) in &a.facts {
            out.push_str(&format!("  {k} {v:.3}"));
        }
        out.push('\n');
    }
    for m in &outcome.metrics {
        out.push_str(&format!(
            "perfbench: {:<38} {:>14.4} {}\n",
            m.name, m.value, m.unit
        ));
    }
    out
}

/// nproc, CPU model, `rustc -V`, commit, workload and seed.
pub fn machine_stamp(settings: &Settings) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let command = |program: &str, args: &[&str]| -> Option<String> {
        let out = Command::new(program).args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
    };
    let commit = std::env::var("PERFBENCH_COMMIT")
        .ok()
        .or_else(|| command("git", &["rev-parse", "--short=12", "HEAD"]))
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        (
            "nproc".into(),
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu".into(), Json::Str(cpu)),
        (
            "rustc".into(),
            Json::Str(command("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("commit".into(), Json::Str(commit)),
        ("workload".into(), Json::Str(settings.workload.clone())),
        ("seed".into(), Json::Num(settings.seed as f64)),
        ("seconds".into(), Json::Num(settings.seconds)),
        ("trace".into(), Json::Bool(settings.trace)),
        ("size".into(), Json::Num(settings.size)),
    ])
}

/// The detail file: stamp, accounting, metrics, problems and span folds.
pub fn detail_json(stamp: &Json, outcome: &Outcome) -> Json {
    let accounting = outcome
        .accounting
        .iter()
        .map(|a| {
            let mut fields = vec![
                ("phase".to_string(), Json::Str(a.phase.clone())),
                ("attempted".to_string(), Json::Num(a.attempted as f64)),
                ("succeeded".to_string(), Json::Num(a.succeeded as f64)),
                ("failed".to_string(), Json::Num(a.failed as f64)),
                ("shed".to_string(), Json::Num(a.shed as f64)),
            ];
            fields.extend(a.facts.iter().map(|(k, v)| (k.clone(), Json::Num(*v))));
            Json::Obj(fields)
        })
        .collect();
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let folds = outcome
        .folds
        .iter()
        .map(|(name, count, total, own)| {
            Json::Obj(vec![
                ("span".into(), Json::Str(name.clone())),
                ("count".into(), Json::Num(*count)),
                ("total_s".into(), Json::Num(*total)),
                ("self_s".into(), Json::Num(*own)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("machine".into(), stamp.clone()),
        ("accounting".into(), Json::Arr(accounting)),
        ("metrics".into(), Json::Obj(metrics)),
        (
            "problems".into(),
            Json::Arr(outcome.problems.iter().cloned().map(Json::Str).collect()),
        ),
        ("span_folds".into(), Json::Arr(folds)),
    ])
}

/// Linear-interpolated quantile `q` of `values` (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi || sorted[hi] == sorted[lo] {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_failed_jobs_count_as_infinite() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        // A failed job is an infinite latency: it can only raise a
        // percentile, never hide under it.
        assert_eq!(quantile(&[1.0, f64::INFINITY], 1.0), f64::INFINITY);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut outcome = Outcome::default();
        outcome.accounting.push(Accounting {
            attempted: 3,
            succeeded: 3,
            ..Accounting::default()
        });
        outcome.metric("rows_per_s", 1234.5678, "rows/s");
        let line = Json::parse(&result_line(&outcome)).unwrap();
        let Json::Obj(fields) = &line else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics")
                .and_then(|m| m.get("rows_per_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(1234.5678)
        );
    }
}
