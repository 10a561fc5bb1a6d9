//! One-shot pipeline runs through the production middleware stack, as the
//! batch workloads (`paper-mix`, `stream-ed`) and the serve workload's
//! in-process layer pass use them.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dprep_core::{Durability, PipelineConfig, Preprocessor};
use dprep_datasets::all_datasets;
use dprep_llm::{
    CacheLayer, FaultLayer, KnowledgeBase, MiddlewareStats, ModelProfile, RetryLayer, SimulatedLlm,
};
use dprep_obs::{DurableJournal, Json};
use dprep_prompt::{FewShotExample, Task, TaskInstance};
use dprep_tabular::{Record, Schema, Value};

use crate::probe::{LayerClock, StageTracer, Timed};
use crate::sys::process_cpu_ns;
use crate::trace::Spans;

/// Retry budget of the production stack (the daemon's default).
pub const RETRIES: u32 = 2;

/// One pipeline run's inputs.
pub struct Job {
    pub name: String,
    pub config: PipelineConfig,
    pub instances: Vec<TaskInstance>,
    pub examples: Vec<FewShotExample>,
    pub kb: Arc<KnowledgeBase>,
    pub sim_seed: u64,
}

/// The 12 paper datasets at their paper sizes, as one-shot jobs with the
/// paper's best configuration, streaming shards and two workers.
pub fn paper_mix_jobs(dataset_seed: u64, scale: f64, shard: usize) -> Vec<Job> {
    all_datasets(scale, dataset_seed)
        .into_iter()
        .map(|ds| {
            let mut config = PipelineConfig::best(ds.task);
            config.plan_shard_size = Some(shard);
            config.workers = 2;
            Job {
                name: ds.name.to_string(),
                config,
                instances: ds.instances,
                examples: ds.few_shot,
                kb: Arc::new(ds.kb),
                sim_seed: dataset_seed,
            }
        })
        .collect()
}

/// Synthetic error detection over `rows` unique rows with no few-shot, so
/// no two batch prompts are identical and dedup never hits.
pub fn stream_ed_job(variant_seed: u64, rows: usize, shard: usize) -> Job {
    let schema = Schema::all_text(&["name", "age", "city"])
        .expect("static schema")
        .shared();
    let cities = [
        "atlanta", "boston", "chicago", "denver", "el paso", "fresno", "houston",
    ];
    let surnames = [
        "ng", "smith", "garcia", "okafor", "kowalski", "ito", "silva",
    ];
    let instances = (0..rows)
        .map(|i| {
            let h = mix(variant_seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            // One age in 40 is out of range, so detection has work to do.
            let age = if h.is_multiple_of(40) {
                format!("{}", 150 + h % 50)
            } else {
                format!("{}", 18 + (h >> 8) % 80)
            };
            let record = Record::new(
                schema.clone(),
                vec![
                    Value::text(format!(
                        "person {i} {}",
                        surnames[(h >> 16) as usize % surnames.len()]
                    )),
                    Value::text(age),
                    Value::text(cities[(h >> 24) as usize % cities.len()]),
                ],
            )
            .expect("record matches schema");
            TaskInstance::ErrorDetection {
                record,
                attribute: "age".into(),
            }
        })
        .collect();
    let mut config = PipelineConfig::best(Task::ErrorDetection);
    config.components.few_shot = false;
    config.plan_shard_size = Some(shard);
    config.workers = 2;
    Job {
        name: "synthetic-ed".into(),
        config,
        instances,
        examples: Vec::new(),
        kb: Arc::new(KnowledgeBase::new()),
        sim_seed: variant_seed,
    }
}

/// splitmix64 finalizer: a cheap, well-mixed seeded hash.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What one run measured.
pub struct JobRun {
    pub name: String,
    pub rows: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub sim: (u64, f64),
    pub stack: (u64, f64, f64),
    pub checksum: u64,
    pub tokens: usize,
    pub cache_hits: usize,
    pub cache_misses: usize,
    /// Executor `Stage` wall seconds: plan, prompt-build, dispatch, parse.
    pub stages: [f64; 4],
    pub responses: Vec<String>,
    pub journal: Option<PathBuf>,
}

/// Runs `job` once through `Timed(Cache(Retry(Fault(Timed(sim)))))`,
/// journaling to `journal` when given. With `spans`, every layer call is
/// recorded; with `keep_responses`, the simulator's texts are kept.
pub fn run_job(
    job: &Job,
    journal: Option<&Path>,
    spans: Option<Arc<Spans>>,
    keep_responses: bool,
) -> Result<JobRun, String> {
    let sim_clock = Arc::new(LayerClock::default());
    let stack_clock = Arc::new(LayerClock::default());
    let stats = MiddlewareStats::shared();
    let responses = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Timed::new(
        SimulatedLlm::new(ModelProfile::gpt4(), Arc::clone(&job.kb)).with_seed(job.sim_seed),
        "llm.sim",
        Arc::clone(&sim_clock),
    )
    .with_spans(spans.clone());
    if keep_responses {
        sim = sim.keeping_responses(Arc::clone(&responses));
    }
    let faulty = FaultLayer::new(sim, 0.0, job.sim_seed).with_stats(Arc::clone(&stats));
    let retried = RetryLayer::new(faulty, RETRIES).with_stats(Arc::clone(&stats));
    let cached = CacheLayer::new(retried).with_stats(Arc::clone(&stats));
    let model =
        Timed::new(cached, "llm.middleware", Arc::clone(&stack_clock)).with_spans(spans.clone());

    let stages = Arc::new(StageTracer::default());
    let mut durability = Durability::new();
    if let Some(path) = journal {
        let file = DurableJournal::fresh(path, "sim-gpt-4", &job.config.descriptor(), job.sim_seed)
            .map_err(|e| format!("cannot journal to {}: {e}", path.display()))?;
        durability = durability.with_journal(Arc::new(file));
    }
    let preprocessor = Preprocessor::new(&model, job.config.clone())
        .with_tracer(Arc::clone(&stages) as Arc<dyn dprep_obs::Tracer>)
        .with_durability(durability);

    let run_span = spans.as_deref().map(|s| s.open_root("core.exec"));
    let cpu = process_cpu_ns();
    let wall = Instant::now();
    let result = preprocessor.try_run(&job.instances, &job.examples)?;
    let wall_s = wall.elapsed().as_secs_f64();
    let cpu_s = (process_cpu_ns() - cpu) as f64 / 1e9;
    drop(run_span);

    let snapshot = stats.snapshot();
    let responses = std::mem::take(&mut *responses.lock().expect("responses"));
    Ok(JobRun {
        name: job.name.clone(),
        rows: job.instances.len(),
        wall_s,
        cpu_s,
        sim: (sim_clock.calls(), sim_clock.cpu_secs()),
        stack: (
            stack_clock.calls(),
            stack_clock.cpu_secs(),
            stack_clock.wall_secs(),
        ),
        checksum: prediction_checksum(&result.predictions),
        tokens: result.usage.total_tokens(),
        cache_hits: snapshot.cache_hits,
        cache_misses: snapshot.cache_misses,
        stages: ["plan", "prompt-build", "dispatch", "parse"].map(|s| stages.secs(s)),
        responses,
        journal: journal.map(Path::to_path_buf),
    })
}

/// FNV-1a over every prediction's label (answer value, or failure kind),
/// in order, folded to 53 bits so it survives a JSON number.
pub fn prediction_checksum(predictions: &[dprep_core::Prediction]) -> u64 {
    let hash = predictions.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, p| {
        let label = p
            .value()
            .map(str::to_string)
            .or_else(|| p.failure().map(|f| f.label().to_string()))
            .unwrap_or_default();
        label.bytes().fold(acc ^ 0x9e37_79b9, |a, b| {
            (a ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    });
    hash >> 11
}

impl JobRun {
    /// The run's numbers as a JSON object (responses excluded).
    pub fn to_json(&self) -> Json {
        let num = |v: f64| Json::Num(v);
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("rows".into(), num(self.rows as f64)),
            ("wall_s".into(), num(self.wall_s)),
            ("cpu_s".into(), num(self.cpu_s)),
            ("sim_calls".into(), num(self.sim.0 as f64)),
            ("sim_cpu_s".into(), num(self.sim.1)),
            ("stack_calls".into(), num(self.stack.0 as f64)),
            ("stack_cpu_s".into(), num(self.stack.1)),
            ("stack_wall_s".into(), num(self.stack.2)),
            ("checksum".into(), num(self.checksum as f64)),
            ("tokens".into(), num(self.tokens as f64)),
            ("cache_hits".into(), num(self.cache_hits as f64)),
            ("cache_misses".into(), num(self.cache_misses as f64)),
            ("plan_s".into(), num(self.stages[0])),
            ("prompt_build_s".into(), num(self.stages[1])),
            ("dispatch_s".into(), num(self.stages[2])),
            ("parse_s".into(), num(self.stages[3])),
        ])
    }
}
