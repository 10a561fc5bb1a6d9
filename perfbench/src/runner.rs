//! The workload runners: batch workloads measured in child processes,
//! `serve-open` against a `dprep serve` child, and the `pin` command that
//! regenerates the pinned results.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dprep_core::PipelineConfig;
use dprep_datasets::dataset_by_name;
use dprep_obs::Json;

use crate::batch::{self, Job, JobRun};
use crate::layers::{decompose, LayerSums};
use crate::pins::{self, VARIANTS};
use crate::report::{median, quantile, Accounting, Outcome};
use crate::serve::{
    self, Backlog, Conn, Daemon, Outcome as JobOutcome, PhaseLog, Planned, Planner,
};
use crate::sys;
use crate::trace::{self, Spans};
use crate::{build_dprep, Settings, WORK_DIR};

/// Input set-ups per measurement child (`setup_s` is their median).
const SETUP_REPS: usize = 3;

/// `serve-open`'s fixed open-loop rates (jobs per second over both
/// tenants), set once from the daemon's capacity on the reference machine
/// and never tuned per run.
pub const RATES: [(&str, f64); 3] = [("low", 40.0), ("mid", 50.0), ("high", 100.0)];
/// The p95 job latency limit a rate must meet to count toward
/// `jobs_per_s_at_slo`.
pub const SLO_P95_MS: f64 = 100.0;
/// Jobs still unanswered at a phase's end above which its backlog counts
/// as growing (one in service plus one queued per connection).
pub const BACKLOG_LIMIT: usize = 2 * serve::TENANTS;
/// Closed-loop pings per tenant connection in the traced run.
const PINGS: usize = 15;

fn scratch_dir() -> Result<PathBuf, String> {
    let dir = Path::new(WORK_DIR).join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn variant_of(seed: u64) -> usize {
    (seed % VARIANTS as u64) as usize
}

// ---------------------------------------------------------------------------
// Batch workloads
// ---------------------------------------------------------------------------

/// Runs measurement children until `--seconds` have passed (with tracing,
/// in untraced/traced pairs), then folds their reports.
pub fn batch(settings: &Settings, workload: &str) -> Result<Outcome, String> {
    // Every workload builds the daemon too, so whichever runs first in a
    // fresh checkout pays the whole build.
    build_dprep()?;
    let scratch = scratch_dir()?;
    let result = batch_in(settings, workload, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn batch_in(settings: &Settings, workload: &str, scratch: &Path) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let variant = variant_of(settings.seed);
    let started = Instant::now();
    let mut children: Vec<Json> = Vec::new();
    loop {
        let index = children.len();
        // Pairs run untraced-traced, then traced-untraced, so neither side
        // always runs first.
        let traced = settings.trace && matches!(index % 4, 1 | 2);
        let spans_path = Path::new(WORK_DIR).join("results").join(format!(
            "{workload}-seed{}-child{index}.spans.jsonl",
            settings.seed
        ));
        let output = Command::new(&exe)
            .arg("child")
            .arg(workload)
            .args(["--variant", &variant.to_string()])
            .args(["--size", &settings.size.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--scratch")
            .arg(scratch)
            .arg("--spans")
            .arg(&spans_path)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start a measurement child: {e}"))?;
        if !output.status.success() {
            return Err(format!("measurement child failed ({})", output.status));
        }
        let text = String::from_utf8_lossy(&output.stdout);
        let report = Json::parse(text.lines().last().unwrap_or_default())
            .map_err(|e| format!("measurement child printed bad JSON: {e}"))?;
        children.push(report);
        // Stop at the child boundary nearest to `--seconds` (with tracing,
        // only after a traced child has its untraced partner).
        let paired = !settings.trace || children.len().is_multiple_of(2);
        let elapsed = started.elapsed().as_secs_f64();
        if paired && elapsed + 0.5 * elapsed / children.len() as f64 >= settings.seconds {
            break;
        }
    }
    Ok(fold_batch(settings, workload, variant, &children))
}

fn num(json: &Json, key: &str) -> f64 {
    json.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn jobs_of(child: &Json) -> &[Json] {
    child.get("jobs").and_then(Json::as_arr).unwrap_or(&[])
}

fn fold_batch(settings: &Settings, workload: &str, variant: usize, children: &[Json]) -> Outcome {
    let mut outcome = Outcome::default();
    let mut account = Accounting {
        phase: workload.to_string(),
        ..Accounting::default()
    };
    // Correctness: every run matches its pin (real sizes) and the first
    // child's result (any size).
    let first = jobs_of(&children[0]);
    for (c, child) in children.iter().enumerate() {
        for (k, job) in jobs_of(child).iter().enumerate() {
            account.attempted += 1;
            let got = (num(job, "checksum") as u64, num(job, "tokens") as usize);
            let name = job.get("name").and_then(Json::as_str).unwrap_or("?");
            let pinned = match workload {
                "paper-mix" => pins::PAPER_MIX[variant].get(k).copied(),
                _ => Some(pins::STREAM_ED[variant]),
            };
            let reference = first
                .get(k)
                .map(|j| (num(j, "checksum") as u64, num(j, "tokens") as usize));
            let mismatch = if settings.size >= 1.0 && pinned != Some(got) {
                Some(format!(
                    "{workload} {name} (variant {variant}, child {c}): checksum/tokens {got:?}, pinned {pinned:?}"
                ))
            } else if reference != Some(got) {
                Some(format!(
                    "{workload} {name} (child {c}): checksum/tokens {got:?} differ from child 0's {reference:?}"
                ))
            } else {
                None
            };
            match mismatch {
                Some(problem) => {
                    account.failed += 1;
                    outcome.problems.push(problem);
                }
                None => account.succeeded += 1,
            }
        }
    }
    account
        .facts
        .push(("children".into(), children.len() as f64));
    outcome.accounting.push(account);

    let (plain, traced): (Vec<&Json>, Vec<&Json>) = children
        .iter()
        .partition(|c| c.get("traced") != Some(&Json::Bool(true)));
    let sum = |set: &[&Json], key: &str| -> f64 {
        set.iter()
            .flat_map(|c| jobs_of(c).iter())
            .map(|j| num(j, key))
            .sum()
    };
    let rows_per_s = |set: &[&Json]| sum(set, "rows") / sum(set, "wall_s");

    if settings.trace {
        let setups: Vec<f64> = traced.iter().flat_map(|c| setup_times(c)).collect();
        let mut sums = LayerSums::default();
        for c in &traced {
            if let Some(layers) = c.get("layers") {
                sums.add(&LayerSums::from_json(layers));
            }
        }
        let jobs: Vec<&Json> = traced.iter().flat_map(|c| jobs_of(c).iter()).collect();
        let clocks = Clocks::of_jobs(&jobs, traced.len() as f64, 2.0);
        layer_metrics(&mut outcome, median(&setups), &sums, &clocks);
        serve_layer_metrics(&mut outcome, None);
        outcome.metric(
            "trace.overhead_ratio",
            rows_per_s(&traced) / rows_per_s(&plain),
            "ratio",
        );
        for c in &traced {
            outcome.folds.extend(folds_of(c));
        }
    } else {
        // Per-child figures, reported as medians: one disturbed child
        // moves a median less than a total.
        let per_child =
            |f: &dyn Fn(&[&Json]) -> f64| -> Vec<f64> { plain.iter().map(|c| f(&[*c])).collect() };
        let rates = per_child(&|c| rows_per_s(c));
        let overheads =
            per_child(&|c| (sum(c, "cpu_s") - sum(c, "sim_cpu_s")) / sum(c, "rows") * 1e6);
        let setups: Vec<f64> = plain.iter().flat_map(|c| setup_times(c)).collect();
        let rss: Vec<f64> = plain.iter().map(|c| num(c, "peak_rss_mb")).collect();
        // A batch job is one child's whole pass: the 12 datasets of
        // paper-mix, or the one stream-ed table.
        let job_ms: Vec<f64> = plain
            .iter()
            .map(|c| jobs_of(c).iter().map(|j| num(j, "wall_s")).sum::<f64>() * 1e3)
            .collect();
        outcome.metric("rows_per_s", median(&rates), "rows/s");
        outcome.metric("overhead_us_per_row", median(&overheads), "us");
        outcome.metric("peak_rss_mb", median(&rss), "MB");
        outcome.metric("setup_s", median(&setups), "s");
        // One-shot jobs run back to back, one at a time: no arrival rate
        // applies, so each rate level reports the same job latencies.
        let (p50, p95) = (quantile(&job_ms, 0.5), quantile(&job_ms, 0.95));
        for (rate, _) in RATES {
            outcome.metric(&format!("job_p50_ms.{rate}"), p50, "ms");
        }
        for (rate, _) in RATES {
            outcome.metric(&format!("job_p95_ms.{rate}"), p95, "ms");
        }
        outcome.metric("jobs_per_s_at_slo", 1e3 / median(&job_ms), "jobs/s");
        if let Some(a) = outcome.accounting.last_mut() {
            a.facts.push(("job_samples".into(), job_ms.len() as f64));
        }
    }
    outcome
}

fn setup_times(child: &Json) -> Vec<f64> {
    child
        .get("setup_s")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

fn folds_of(child: &Json) -> Vec<(String, f64, f64, f64)> {
    child
        .get("folds")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|f| {
            let row = f.as_arr()?;
            Some((
                row.first()?.as_str()?.to_string(),
                row.get(1)?.as_f64()?,
                row.get(2)?.as_f64()?,
                row.get(3)?.as_f64()?,
            ))
        })
        .collect()
}

/// Wrapper clocks and executor stage totals over the traced runs.
struct Clocks {
    cpu_s: f64,
    wall_s: f64,
    sim_calls: f64,
    sim_cpu_s: f64,
    stack_calls: f64,
    stack_cpu_s: f64,
    stack_wall_s: f64,
    hits: f64,
    misses: f64,
    stages: [f64; 4],
    /// Workload passes the totals cover (per-pass seconds divide by it).
    passes: f64,
    workers: f64,
}

impl Clocks {
    /// Totals over `jobs` (each a `JobRun::to_json` object) covering
    /// `passes` workload passes on `workers` executor workers.
    fn of_jobs(jobs: &[&Json], passes: f64, workers: f64) -> Clocks {
        let total = |key: &str| jobs.iter().map(|j| num(j, key)).sum::<f64>();
        Clocks {
            cpu_s: total("cpu_s"),
            wall_s: total("wall_s"),
            sim_calls: total("sim_calls"),
            sim_cpu_s: total("sim_cpu_s"),
            stack_calls: total("stack_calls"),
            stack_cpu_s: total("stack_cpu_s"),
            stack_wall_s: total("stack_wall_s"),
            hits: total("cache_hits"),
            misses: total("cache_misses"),
            stages: ["plan_s", "prompt_build_s", "dispatch_s", "parse_s"].map(total),
            passes,
            workers,
        }
    }
}

/// The per-layer metrics every workload reports from its traced runs.
fn layer_metrics(outcome: &mut Outcome, gen_s: f64, sums: &LayerSums, c: &Clocks) {
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    outcome.metric("datasets.gen_s", gen_s, "s");
    outcome.metric(
        "stream.survey_us_per_row",
        per(sums.survey_s, sums.rows) * 1e6,
        "us",
    );
    outcome.metric(
        "stream.render_us_per_row",
        per(sums.render_s, sums.rows) * 1e6,
        "us",
    );
    outcome.metric(
        "stream.unique_requests",
        per(sums.unique_requests, c.passes),
        "count",
    );
    outcome.metric(
        "stream.dedup_ratio",
        1.0 - per(sums.unique_requests, sums.batches),
        "ratio",
    );
    outcome.metric(
        "prompt.bytes_per_request",
        per(sums.request_bytes, sums.unique_requests),
        "bytes",
    );
    outcome.metric(
        "prompt.parse_us_per_response",
        per(sums.parse_s, sums.responses) * 1e6,
        "us",
    );
    outcome.metric(
        "middleware.fingerprint_us_per_request",
        per(sums.fingerprint_s, sums.unique_requests) * 1e6,
        "us",
    );
    outcome.metric(
        "middleware.self_us_per_call",
        per(c.stack_cpu_s - c.sim_cpu_s, c.stack_calls) * 1e6,
        "us",
    );
    outcome.metric(
        "middleware.cache_hit_ratio",
        per(c.hits, c.hits + c.misses),
        "ratio",
    );
    outcome.metric("sim.us_per_call", per(c.sim_cpu_s, c.sim_calls) * 1e6, "us");
    outcome.metric("sim.cpu_share", per(c.sim_cpu_s, c.cpu_s), "ratio");
    let [plan, build, dispatch, parse] = c.stages;
    outcome.metric("exec.plan_s", per(plan, c.passes), "s");
    outcome.metric("exec.prompt_build_s", per(build, c.passes), "s");
    outcome.metric("exec.dispatch_s", per(dispatch, c.passes), "s");
    outcome.metric("exec.parse_s", per(parse, c.passes), "s");
    outcome.metric(
        "exec.worker_idle_ratio",
        1.0 - per(c.stack_wall_s, c.workers * dispatch),
        "ratio",
    );
    outcome.metric(
        "exec.residual_s",
        per(c.wall_s - (plan + build + dispatch + parse), c.passes),
        "s",
    );
    outcome.metric(
        "journal.append_us_per_entry",
        per(sums.append_s, sums.entries) * 1e6,
        "us",
    );
    outcome.metric(
        "journal.bytes_per_entry",
        per(sums.journal_bytes, sums.entries),
        "bytes",
    );
    outcome.metric(
        "journal.resume_us_per_entry",
        per(sums.resume_s, sums.resumed) * 1e6,
        "us",
    );
    outcome.metric(
        "json.decode_us_per_frame",
        per(sums.decode_s, sums.frames) * 1e6,
        "us",
    );
    outcome.metric(
        "json.encode_us_per_frame",
        per(sums.encode_s, sums.frames) * 1e6,
        "us",
    );
}

/// The `core.serve` per-layer metrics; zero on workloads that never reach
/// the daemon.
fn serve_layer_metrics(outcome: &mut Outcome, serve: Option<&ServeLayer>) {
    let s = serve.cloned().unwrap_or_default();
    outcome.metric("serve.ping_p50_ms", s.ping_p50_ms, "ms");
    outcome.metric("serve.fresh_p50_ms", s.fresh_p50_ms, "ms");
    outcome.metric("serve.resubmit_p50_ms", s.resubmit_p50_ms, "ms");
    outcome.metric("serve.replayed_ratio", s.replayed_ratio, "ratio");
    outcome.metric("serve.backlog_max", s.backlog_max, "count");
    outcome.metric("serve.generator_lag_ms", s.generator_lag_ms, "ms");
}

#[derive(Debug, Clone, Default)]
struct ServeLayer {
    ping_p50_ms: f64,
    fresh_p50_ms: f64,
    resubmit_p50_ms: f64,
    replayed_ratio: f64,
    backlog_max: f64,
    generator_lag_ms: f64,
}

/// `perfbench child <workload> ...`: one measurement in its own process,
/// so its peak RSS is its own. Prints one JSON line.
pub fn child_main(argv: &[String]) -> i32 {
    match child(argv) {
        Ok(report) => {
            println!("{}", report.to_json());
            0
        }
        Err(e) => {
            eprintln!("perfbench child: {e}");
            2
        }
    }
}

fn child(argv: &[String]) -> Result<Json, String> {
    let workload = argv.first().ok_or("child needs a workload")?.clone();
    let flag = |name: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("child needs {name}"))
    };
    let variant: usize = flag("--variant")?.parse().map_err(|_| "bad --variant")?;
    let size: f64 = flag("--size")?.parse().map_err(|_| "bad --size")?;
    let traced = flag("--trace")? == "1";
    let scratch = PathBuf::from(flag("--scratch")?);
    let spans_path = PathBuf::from(flag("--spans")?);

    let make = || -> Vec<Job> {
        match workload.as_str() {
            "paper-mix" => {
                batch::paper_mix_jobs(pins::paper_seed(variant), size, pins::PAPER_SHARD)
            }
            _ => vec![batch::stream_ed_job(
                pins::stream_seed(variant),
                ((pins::STREAM_ROWS as f64 * size) as usize).max(1),
                pins::STREAM_SHARD,
            )],
        }
    };
    let mut setup_s = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut jobs));
        let started = Instant::now();
        jobs = make();
        setup_s.push(started.elapsed().as_secs_f64());
    }

    let spans = traced.then(|| Arc::new(Spans::new()));
    let mut runs = Vec::new();
    for (k, job) in jobs.iter().enumerate() {
        let journal = (workload == "stream-ed")
            .then(|| scratch.join(format!("stream-ed-{}-{k}.jsonl", std::process::id())));
        runs.push(batch::run_job(
            job,
            journal.as_deref(),
            spans.clone(),
            traced,
        )?);
    }
    let peak_rss_mb = sys::peak_rss_mb("self");

    let mut fields = vec![
        ("traced".to_string(), Json::Bool(traced)),
        (
            "setup_s".to_string(),
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("peak_rss_mb".to_string(), Json::Num(peak_rss_mb)),
        (
            "jobs".to_string(),
            Json::Arr(runs.iter().map(JobRun::to_json).collect()),
        ),
    ];
    if let Some(spans) = &spans {
        let mut sums = LayerSums::default();
        for (job, run) in jobs.iter().zip(&runs) {
            sums.add(&decompose(job, run, &scratch, spans)?);
        }
        fields.push(("layers".to_string(), sums.to_json()));
        fields.push(("folds".to_string(), dump_spans(spans, &spans_path)?));
    }
    for run in &runs {
        if let Some(path) = &run.journal {
            let _ = std::fs::remove_file(path);
        }
    }
    Ok(Json::Obj(fields))
}

/// Writes every span as JSONL and returns their fold as
/// `[[name, count, total_s, self_s], ...]`.
fn dump_spans(spans: &Spans, path: &Path) -> Result<Json, String> {
    let taken = spans.take();
    let mut text = String::with_capacity(taken.len() * 96);
    for span in &taken {
        text.push_str(&trace::to_jsonl(span));
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(Json::Arr(
        trace::fold(&taken)
            .into_iter()
            .map(|(name, f)| {
                Json::Arr(vec![
                    Json::Str(name.to_string()),
                    Json::Num(f.count as f64),
                    Json::Num(f.total_ns as f64 / 1e9),
                    Json::Num(f.self_ns as f64 / 1e9),
                ])
            })
            .collect(),
    ))
}

// ---------------------------------------------------------------------------
// serve-open
// ---------------------------------------------------------------------------

const PING: &str = "{\"op\":\"ping\"}";

pub fn serve_open(settings: &Settings) -> Result<Outcome, String> {
    let dprep = build_dprep()?;
    let scratch = scratch_dir()?;
    let result = serve_in(settings, &dprep, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// Spawns the daemon and waits for its first pong.
fn start_daemon(dprep: &Path, journals: &Path) -> Result<(Daemon, f64), String> {
    std::fs::create_dir_all(journals)
        .map_err(|e| format!("cannot create {}: {e}", journals.display()))?;
    let started = Instant::now();
    let daemon = Daemon::spawn(dprep, journals)?;
    let reply = Conn::open(&daemon.addr)?.roundtrip(PING)?;
    if !reply.contains("\"pong\":true") {
        return Err(format!("daemon answered ping with {reply}"));
    }
    Ok((daemon, started.elapsed().as_secs_f64()))
}

fn serve_in(settings: &Settings, dprep: &Path, scratch: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    // Set-up: start the daemon several times; the last one serves the run.
    let mut setups = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let (started, secs) = start_daemon(dprep, &scratch.join(format!("journals-{rep}")))?;
        setups.push(secs);
        if rep + 1 < SETUP_REPS {
            started.shutdown()?;
        } else {
            daemon = Some(started);
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let pid = daemon.pid();
    let mut conns = [Conn::open(&daemon.addr)?, Conn::open(&daemon.addr)?];
    let mut planners: Vec<Planner> = (0..serve::TENANTS)
        .map(|t| Planner::new(settings.seed, t))
        .collect();
    let spans = settings.trace.then(|| Arc::new(Spans::new()));

    // Warm-up: a few closed-loop first runs per tenant, checked like any
    // other job, so the measured phases start with keys to resubmit.
    let mut warm = Accounting {
        phase: "warmup".into(),
        ..Accounting::default()
    };
    for (tenant, conn) in conns.iter_mut().enumerate() {
        for _ in 0..serve::WARMUP_JOBS {
            let (key, body, resubmit) = planners[tenant].next(true);
            let job = Planned {
                tenant,
                key,
                body,
                resubmit,
                due: Duration::ZERO,
            };
            warm.attempted += 1;
            let reply = conn.roundtrip(&body.frame(tenant, key))?;
            match Json::parse(&reply)
                .map_err(|e| e.to_string())
                .and_then(|r| serve::check_reply(&job, &r))
            {
                Ok(_) => warm.succeeded += 1,
                Err(e) => {
                    warm.failed += 1;
                    outcome.problems.push(e);
                }
            }
        }
    }
    outcome.accounting.push(warm);

    // Traced only: closed-loop pings on both connections.
    let mut pings = Vec::new();
    if settings.trace {
        for conn in conns.iter_mut() {
            for _ in 0..PINGS {
                let started = Instant::now();
                conn.roundtrip(PING)?;
                pings.push(started.elapsed().as_secs_f64() * 1e3);
            }
        }
    }

    let phase_len = Duration::from_secs_f64(settings.seconds / RATES.len() as f64);
    let backlog = Backlog::default();
    let cpu_before = sys::process_cpu_secs_of(pid);
    let mut logs: Vec<(usize, Vec<PhaseLog>, usize)> = Vec::new();
    for (phase, &(_, rate)) in RATES.iter().enumerate() {
        // A fixed schedule: each tenant sends every `interval`, the two
        // tenants offset by half an interval.
        let interval = serve::TENANTS as f64 / rate;
        let per_tenant = (phase_len.as_secs_f64() / interval).floor().max(1.0) as usize;
        let schedules: Vec<Vec<Planned>> = (0..serve::TENANTS)
            .map(|tenant| {
                (0..per_tenant)
                    .map(|i| {
                        let (key, body, resubmit) = planners[tenant].next(false);
                        let offset = i as f64 + tenant as f64 / serve::TENANTS as f64;
                        Planned {
                            tenant,
                            key,
                            body,
                            resubmit,
                            due: Duration::from_secs_f64(offset * interval),
                        }
                    })
                    .collect()
            })
            .collect();
        let planned: usize = schedules.iter().map(Vec::len).sum();
        let [first, second] = &mut conns;
        let keep = settings.trace;
        let spans = spans.as_deref();
        let (log0, log1) = std::thread::scope(|scope| {
            let other = scope.spawn(|| {
                serve::run_phase(second, &schedules[1], phase_len, &backlog, keep, spans)
            });
            let mine = serve::run_phase(first, &schedules[0], phase_len, &backlog, keep, spans);
            (mine, other.join().expect("tenant thread"))
        });
        logs.push((phase, vec![log0, log1], planned));
    }
    let daemon_cpu_s = sys::process_cpu_secs_of(pid) - cpu_before;
    let daemon_rss = sys::peak_rss_mb(&pid.to_string());
    drop(conns);
    daemon.shutdown()?;

    // Per-phase accounting and latency.
    let mut all: Vec<JobOutcome> = Vec::new();
    let mut at_slo = 0.0;
    let mut rows = 0usize;
    let mut busy_s = 0.0;
    let mut frames: Vec<String> = Vec::new();
    let mut latency = Vec::new();
    for &(phase, ref tenant_logs, planned) in &logs {
        let (name, rate) = RATES[phase];
        let outcomes: Vec<&JobOutcome> = tenant_logs.iter().flat_map(|l| &l.outcomes).collect();
        let problems: Vec<&String> = tenant_logs.iter().flat_map(|l| &l.problems).collect();
        let sent = tenant_logs.iter().map(|l| l.outcomes.len()).sum::<usize>();
        // A failed or shed job misses every latency limit.
        let lat: Vec<f64> = outcomes
            .iter()
            .map(|o| if o.ok { o.latency_ms } else { f64::INFINITY })
            .chain(std::iter::repeat_n(
                f64::INFINITY,
                planned.saturating_sub(sent),
            ))
            .collect();
        let ok = outcomes.iter().filter(|o| o.ok).count();
        let shed = outcomes.iter().filter(|o| o.shed).count();
        let backlog_end: usize = tenant_logs.iter().map(|l| l.backlog_at_end).sum();
        let span_s = tenant_logs.iter().map(|l| l.span_s).fold(0.0, f64::max);
        let p50 = quantile(&lat, 0.5);
        let p95 = quantile(&lat, 0.95);
        let achieved = ok as f64 / span_s.max(1e-9);
        if p95 <= SLO_P95_MS && backlog_end <= BACKLOG_LIMIT {
            at_slo = achieved;
        }
        let lag_max = outcomes.iter().map(|o| o.lag_ms).fold(0.0, f64::max);
        outcome.accounting.push(Accounting {
            phase: name.to_string(),
            attempted: planned,
            succeeded: ok,
            failed: planned.saturating_sub(ok + shed),
            shed,
            facts: vec![
                ("rate".into(), rate),
                ("achieved_per_s".into(), achieved),
                ("samples".into(), lat.len() as f64),
                ("p50_ms".into(), p50),
                ("p95_ms".into(), p95),
                ("p90_ms".into(), quantile(&lat, 0.90)),
                ("p99_ms".into(), quantile(&lat, 0.99)),
                ("backlog_at_end".into(), backlog_end as f64),
                ("generator_lag_max_ms".into(), lag_max),
            ],
        });
        outcome.problems.extend(problems.into_iter().cloned());
        rows += outcomes
            .iter()
            .filter(|o| o.ok)
            .map(|o| o.rows)
            .sum::<usize>();
        busy_s += span_s;
        latency.push((name, p50, p95));
        all.extend(outcomes.into_iter().cloned());
        frames.extend(tenant_logs.iter().flat_map(|l| l.frames.iter().cloned()));
    }

    if settings.trace {
        let fresh: Vec<f64> = all
            .iter()
            .filter(|o| o.ok && !o.resubmit)
            .map(|o| o.latency_ms)
            .collect();
        let resub: Vec<f64> = all
            .iter()
            .filter(|o| o.ok && o.resubmit)
            .map(|o| o.latency_ms)
            .collect();
        let serve_layer = ServeLayer {
            ping_p50_ms: median(&pings),
            fresh_p50_ms: median(&fresh),
            resubmit_p50_ms: median(&resub),
            replayed_ratio: all.iter().filter(|o| o.replayed > 0).count() as f64
                / all.len().max(1) as f64,
            backlog_max: backlog.max.load(std::sync::atomic::Ordering::Relaxed) as f64,
            generator_lag_ms: all.iter().map(|o| o.lag_ms).fold(0.0, f64::max),
        };
        let spans = spans.expect("traced run has spans");
        in_process_layers(&mut outcome, &planners, &frames, scratch, &spans)?;
        serve_layer_metrics(&mut outcome, Some(&serve_layer));
        let taken_path = Path::new(WORK_DIR)
            .join("results")
            .join(format!("serve-open-seed{}.spans.jsonl", settings.seed));
        let folds = dump_spans(&spans, &taken_path)?;
        outcome.folds = folds_of(&Json::Obj(vec![("folds".into(), folds)]));
        // Keep the metric order of BENCHMARK.json: trace.overhead_ratio last.
        let ratio = outcome
            .metrics
            .iter()
            .position(|m| m.name == "trace.overhead_ratio")
            .map(|i| outcome.metrics.remove(i));
        outcome.metrics.extend(ratio);
    } else {
        outcome.metric("rows_per_s", rows as f64 / busy_s.max(1e-9), "rows/s");
        outcome.metric(
            "overhead_us_per_row",
            daemon_cpu_s / rows.max(1) as f64 * 1e6,
            "us",
        );
        outcome.metric("peak_rss_mb", daemon_rss, "MB");
        outcome.metric("setup_s", median(&setups), "s");
        for (name, p50, _) in &latency {
            outcome.metric(&format!("job_p50_ms.{name}"), *p50, "ms");
        }
        for (name, _, p95) in &latency {
            outcome.metric(&format!("job_p95_ms.{name}"), *p95, "ms");
        }
        outcome.metric("jobs_per_s_at_slo", at_slo, "jobs/s");
    }
    Ok(outcome)
}

/// The serve workload's layers measured in-process on its own inputs: the
/// catalog bodies it submitted as first runs, run through the same stack
/// the daemon builds (a traced pass that is then decomposed, between two
/// untraced ones), plus its wire frames through the JSON codec.
fn in_process_layers(
    outcome: &mut Outcome,
    planners: &[Planner],
    frames: &[String],
    scratch: &Path,
    spans: &Arc<Spans>,
) -> Result<(), String> {
    let mut bodies: Vec<(usize, usize)> = planners
        .iter()
        .flat_map(|p| p.bodies())
        .map(|b| (b.dataset, b.seed))
        .collect();
    bodies.sort_unstable();
    bodies.dedup();
    let mut gen = Vec::new();
    let jobs: Vec<Job> = bodies
        .iter()
        .map(|&(d, s)| {
            let started = Instant::now();
            let job = serve_job(d, s);
            gen.push(started.elapsed().as_secs_f64());
            job
        })
        .collect();
    let pass = |traced: bool| -> Result<Vec<JobRun>, String> {
        jobs.iter()
            .enumerate()
            .map(|(k, job)| {
                let journal = scratch.join(format!("inproc-{k}-{traced}.jsonl"));
                batch::run_job(
                    job,
                    Some(&journal),
                    traced.then(|| Arc::clone(spans)),
                    traced,
                )
            })
            .collect()
    };
    // Untraced passes on both sides of the traced one, so neither side
    // always runs first.
    let mut plain = pass(false)?;
    let traced = pass(true)?;
    plain.extend(pass(false)?);
    let mut sums = LayerSums::default();
    for (job, run) in jobs.iter().zip(&traced) {
        sums.add(&decompose(job, run, scratch, spans)?);
    }
    // The wire frames replace the journal lines as the JSON codec's input.
    sums.decode_s = 0.0;
    sums.encode_s = 0.0;
    sums.frames = 0.0;
    sums.time_json(frames.iter().map(String::as_str), spans);
    let json: Vec<Json> = traced.iter().map(JobRun::to_json).collect();
    let clocks = Clocks::of_jobs(&json.iter().collect::<Vec<_>>(), 1.0, 1.0);
    layer_metrics(outcome, median(&gen), &sums, &clocks);
    let rate = |runs: &[JobRun]| {
        runs.iter().map(|r| r.rows as f64).sum::<f64>() / runs.iter().map(|r| r.wall_s).sum::<f64>()
    };
    outcome.metric(
        "trace.overhead_ratio",
        rate(&traced) / rate(&plain),
        "ratio",
    );
    Ok(())
}

/// A catalog body as the daemon runs it: the dataset regenerated from its
/// seed, the paper's best configuration, shard 4, one worker.
fn serve_job(dataset: usize, seed: usize) -> Job {
    let seed = pins::serve_seed(seed);
    let ds = dataset_by_name(
        pins::SERVE_DATASETS[dataset],
        pins::SERVE_SCALE,
        seed as u64,
    )
    .expect("catalog dataset exists");
    let mut config = PipelineConfig::best(ds.task);
    config.plan_shard_size = Some(4);
    Job {
        name: format!("{}-{seed}", ds.name),
        config,
        instances: ds.instances,
        examples: ds.few_shot,
        kb: Arc::new(ds.kb),
        sim_seed: seed as u64,
    }
}

// ---------------------------------------------------------------------------
// pin
// ---------------------------------------------------------------------------

/// `perfbench pin`: recomputes every pinned result and prints `pinned.rs`.
pub fn pin_main(argv: &[String]) -> i32 {
    if !argv.is_empty() {
        eprintln!("perfbench pin: takes no arguments");
        return 2;
    }
    match pin() {
        Ok(source) => {
            print!("{source}");
            0
        }
        Err(e) => {
            eprintln!("perfbench pin: {e}");
            2
        }
    }
}

/// Recomputes every pinned table.
fn pin() -> Result<String, String> {
    let scratch = Path::new(WORK_DIR).join(format!("pin-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let mut out = String::from("// Generated by `perfbench pin`; do not edit.\n\n");
    out.push_str("/// `paper-mix`: per variant, per dataset (paper order): (prediction checksum, billed tokens).\n");
    out.push_str(&format!(
        "pub const PAPER_MIX: [[(u64, usize); 12]; {VARIANTS}] = [\n"
    ));
    for v in 0..VARIANTS {
        eprintln!("pin: paper-mix variant {v}");
        out.push_str("    [\n");
        for job in batch::paper_mix_jobs(pins::paper_seed(v), 1.0, pins::PAPER_SHARD) {
            let run = batch::run_job(&job, None, None, false)?;
            out.push_str(&format!("        ({}, {}),\n", run.checksum, run.tokens));
        }
        out.push_str("    ],\n");
    }
    out.push_str("];\n\n/// `stream-ed`: per variant: (prediction checksum, billed tokens).\n");
    out.push_str(&format!(
        "pub const STREAM_ED: [(u64, usize); {VARIANTS}] = [\n"
    ));
    for v in 0..VARIANTS {
        eprintln!("pin: stream-ed variant {v}");
        let job = batch::stream_ed_job(pins::stream_seed(v), pins::STREAM_ROWS, pins::STREAM_SHARD);
        let run = batch::run_job(&job, None, None, false)?;
        out.push_str(&format!("    ({}, {}),\n", run.checksum, run.tokens));
    }
    out.push_str(
        "];\n\n/// `serve-open`: per catalog dataset, per catalog seed: reply fingerprint.\n",
    );
    out.push_str(&format!(
        "pub const SERVE_FINGERPRINTS: [[&str; {}]; {}] = [\n",
        pins::SERVE_SEEDS,
        pins::SERVE_DATASETS.len()
    ));
    eprintln!("pin: serve-open catalog");
    let dprep = build_dprep()?;
    let (daemon, _) = start_daemon(&dprep, &scratch.join("journals"))?;
    let mut conn = Conn::open(&daemon.addr)?;
    for d in 0..pins::SERVE_DATASETS.len() {
        let mut quoted = Vec::with_capacity(pins::SERVE_SEEDS);
        for s in 0..pins::SERVE_SEEDS {
            let body = serve::Body {
                dataset: d,
                seed: s,
            };
            let reply = Json::parse(&conn.roundtrip(&body.frame(0, d * pins::SERVE_SEEDS + s))?)
                .map_err(|e| e.to_string())?;
            let fingerprint = reply
                .get("fingerprint")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("no fingerprint in {}", reply.to_json()))?;
            quoted.push(format!("\"{fingerprint}\""));
        }
        out.push_str(&format!("    [{}],\n", quoted.join(", ")));
    }
    drop(conn);
    daemon.shutdown()?;
    out.push_str("];\n");
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(out)
}
