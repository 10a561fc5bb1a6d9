//! The streaming planner: bounded-memory plan shards for million-row runs.
//!
//! [`crate::exec::ExecutionPlan`] materializes every request, section array,
//! and fingerprint before the first dispatch — planner memory grows linearly
//! with the corpus. [`PlanStream`] yields the *same* plan in fixed-size
//! shards of batches instead, so the executor holds at most one shard of
//! rendered requests (plus the responses still referenced by a later batch)
//! at a time.
//!
//! ## Two passes
//!
//! The stream is built in a cheap **survey pass** and consumed in a
//! **render pass**:
//!
//! 1. **Survey** ([`PlanStream::new`]): walk every batch in plan order,
//!    render only its batch body into one reused buffer, and key it for
//!    dedup by hashing that body on top of a [`FingerprintPrefix`] — the
//!    hash state after the plan's invariant system and few-shot messages,
//!    computed once. No request is built and no token counted. What
//!    survives is O(batches) indices and O(unique) `u64`s:
//!    the batch→unique-request map, the unique fingerprint list (hence the
//!    global plan fingerprint, known **before** any dispatch — the journal
//!    header and resume check are byte-identical to the materialized path),
//!    per-unique batch/instance totals, and each unique request's last
//!    referencing batch (the executor's response-retention horizon).
//! 2. **Render** ([`PlanStream::next_shard`]): re-render only the requests
//!    *first seen* in the next `shard_size` batches and hand them to the
//!    executor as a [`PlanShard`]. A `debug_assert` checks each re-render
//!    against the surveyed fingerprint.
//!
//! Deduplication order, fingerprints, sections, and batch membership are
//! bit-identical to `ExecutionPlan::build` because both walk the same
//! `make_batches` output in the same order with the same dedup key (the
//! prefix-plus-body hash *is* `request_fingerprint` of the built request,
//! byte for byte; a `debug_assert` checks it per batch). The price of
//! bounded memory is one extra body render per *unique* request (once
//! surveyed, once sharded); the survey renders bodies only, never the
//! shared system or few-shot text, and reuses one body buffer and one
//! scratch buffer of instance refs per stream.

use std::collections::HashMap;

use dprep_llm::{request_fingerprint, ChatModel, ChatRequest, FingerprintPrefix};
use dprep_prompt::{make_batches, FewShotExample, PromptConfig, PromptContext, TaskInstance};

use crate::config::PipelineConfig;
use crate::exec::{effective_strategy, fold_plan_fingerprint, PlannedBatch};

/// One slice of a streamed plan: `shard_size` consecutive batches plus the
/// unique requests that first occur in them. Request indices in
/// [`batches`](Self::batches) are **global** (into the whole plan's unique
/// request sequence); requests already seen in an earlier shard are not
/// re-rendered — the executor still holds their responses.
#[derive(Debug)]
pub struct PlanShard {
    /// Global index of the first batch in this shard.
    pub first_batch: usize,
    /// The shard's batches, in plan order; `request_index` is global.
    pub batches: Vec<PlannedBatch>,
    /// Global index of the first request in `requests`.
    pub first_request: usize,
    /// Unique requests first seen in this shard (global indices
    /// `first_request..first_request + requests.len()`).
    pub requests: Vec<ChatRequest>,
    /// Prompt-component token counts, aligned with `requests`.
    pub sections: Vec<[usize; 5]>,
    /// Request fingerprints, aligned with `requests`.
    pub fingerprints: Vec<u64>,
}

/// A plan yielded incrementally as fixed-size shards (see the module docs).
pub struct PlanStream<'a> {
    shard_size: usize,
    /// Instance-index batches from `make_batches`; each inner vec is moved
    /// into its shard when yielded.
    batches: Vec<Vec<usize>>,
    /// Per batch: the global unique-request index serving it.
    batch_request: Vec<usize>,
    /// Per unique request: its dedup fingerprint, in first-occurrence order.
    fingerprints: Vec<u64>,
    /// Per unique request: the last batch referencing it — the executor
    /// drops a response once the plan cursor passes this batch.
    last_batch_of: Vec<usize>,
    /// Per unique request: how many batches it serves.
    batches_per: Vec<usize>,
    /// Per unique request: how many instances those batches cover.
    instances_per: Vec<usize>,
    /// Next batch to yield.
    cursor: usize,
    /// Next unique request to render (first-occurrence order).
    next_request: usize,
    n_instances: usize,
    prompt_config: PromptConfig,
    context: PromptContext,
    instances: &'a [TaskInstance],
    temperature: Option<f64>,
    /// Wall-clock seconds deciding batch membership and dedup, aggregated
    /// across the survey pass and every shard yielded so far.
    plan_wall_secs: f64,
    /// Wall-clock seconds rendering prompts, aggregated the same way.
    prompt_build_wall_secs: f64,
    /// Scratch buffer of instance refs, reused for every batch render.
    scratch_refs: Vec<&'a TaskInstance>,
}

impl<'a> PlanStream<'a> {
    /// Surveys the whole plan (batching, dedup, fingerprints) without
    /// retaining any rendered request, ready to yield shards of
    /// `shard_size` batches. `shard_size` is clamped to at least 1.
    pub fn new<M: ChatModel + ?Sized>(
        model: &M,
        config: &PipelineConfig,
        instances: &'a [TaskInstance],
        examples: &[FewShotExample],
        shard_size: usize,
    ) -> PlanStream<'a> {
        let shots: &[FewShotExample] = if config.components.few_shot {
            examples
        } else {
            &[]
        };
        let prompt_config = config.prompt_config();
        let strategy = effective_strategy(model, config, instances, shots);

        let plan_started = std::time::Instant::now();
        let context_started = std::time::Instant::now();
        let context = PromptContext::new(&prompt_config, shots);
        let mut prompt_build_wall_secs = context_started.elapsed().as_secs_f64();

        let batches = make_batches(instances, &strategy, config.seed);
        let mut batch_request = Vec::with_capacity(batches.len());
        let mut fingerprints: Vec<u64> = Vec::new();
        let mut last_batch_of: Vec<usize> = Vec::new();
        let mut batches_per: Vec<usize> = Vec::new();
        let mut instances_per: Vec<usize> = Vec::new();
        let mut seen: HashMap<u64, usize> = HashMap::new();
        let mut scratch_refs: Vec<&'a TaskInstance> = Vec::new();
        // Same dedup key as the materialized planner (and the cache layer):
        // everything that determines a deterministic model's response. The
        // leading messages are hashed once here; per batch only the body is
        // rendered (into one reused buffer) and hashed on top of them.
        let prefix = FingerprintPrefix::new(model, config.temperature, context.leading_messages());
        let mut body = String::new();
        for (batch_idx, batch) in batches.iter().enumerate() {
            scratch_refs.clear();
            scratch_refs.extend(batch.iter().map(|&i| &instances[i]));
            let build_started = std::time::Instant::now();
            body.clear();
            context.render_body(&scratch_refs, &mut body);
            prompt_build_wall_secs += build_started.elapsed().as_secs_f64();
            let key = prefix.finish_with_user(&body);
            debug_assert_eq!(
                key,
                {
                    let (mut request, _) = context.build(&scratch_refs);
                    if let Some(t) = config.temperature {
                        request = request.with_temperature(t);
                    }
                    request_fingerprint(model, &request)
                },
                "survey key diverged from the built request's fingerprint"
            );
            let request_index = *seen.entry(key).or_insert_with(|| {
                fingerprints.push(key);
                last_batch_of.push(batch_idx);
                batches_per.push(0);
                instances_per.push(0);
                fingerprints.len() - 1
            });
            last_batch_of[request_index] = batch_idx;
            batches_per[request_index] += 1;
            instances_per[request_index] += batch.len();
            batch_request.push(request_index);
        }

        PlanStream {
            shard_size: shard_size.max(1),
            batches,
            batch_request,
            fingerprints,
            last_batch_of,
            batches_per,
            instances_per,
            cursor: 0,
            next_request: 0,
            n_instances: instances.len(),
            prompt_config,
            context,
            instances,
            temperature: config.temperature,
            plan_wall_secs: (plan_started.elapsed().as_secs_f64() - prompt_build_wall_secs)
                .max(0.0),
            prompt_build_wall_secs,
            scratch_refs,
        }
    }

    /// Renders and yields the next shard, or `None` when the plan is
    /// exhausted. Timing accrues into
    /// [`plan_wall_secs`](Self::plan_wall_secs) /
    /// [`prompt_build_wall_secs`](Self::prompt_build_wall_secs) so the
    /// totals aggregate across every shard instead of reflecting only the
    /// last one.
    pub fn next_shard<M: ChatModel + ?Sized>(&mut self, model: &M) -> Option<PlanShard> {
        if self.cursor >= self.batches.len() {
            return None;
        }
        let shard_started = std::time::Instant::now();
        let first_batch = self.cursor;
        let end = self.batches.len().min(self.cursor + self.shard_size);
        let first_request = self.next_request;
        let mut shard_batches = Vec::with_capacity(end - first_batch);
        let mut requests: Vec<ChatRequest> = Vec::new();
        let mut sections: Vec<[usize; 5]> = Vec::new();
        let mut fingerprints: Vec<u64> = Vec::new();
        let mut render_secs = 0.0;
        for batch_idx in first_batch..end {
            let request_index = self.batch_request[batch_idx];
            let instance_indices = std::mem::take(&mut self.batches[batch_idx]);
            if request_index >= self.next_request {
                // First occurrence of this unique request: uniques are
                // numbered in first-occurrence order, so walking batches in
                // order reaches them contiguously.
                debug_assert_eq!(
                    request_index, self.next_request,
                    "unique order is contiguous"
                );
                self.scratch_refs.clear();
                self.scratch_refs
                    .extend(instance_indices.iter().map(|&i| &self.instances[i]));
                let build_started = std::time::Instant::now();
                let (mut request, request_sections) = self.context.build(&self.scratch_refs);
                render_secs += build_started.elapsed().as_secs_f64();
                if let Some(t) = self.temperature {
                    request = request.with_temperature(t);
                }
                debug_assert_eq!(
                    request_fingerprint(model, &request),
                    self.fingerprints[request_index],
                    "shard re-render diverged from the survey pass"
                );
                requests.push(request);
                sections.push(request_sections.as_array());
                fingerprints.push(self.fingerprints[request_index]);
                self.next_request = request_index + 1;
            }
            shard_batches.push(PlannedBatch {
                instance_indices,
                request_index,
            });
        }
        self.cursor = end;
        self.prompt_build_wall_secs += render_secs;
        self.plan_wall_secs += (shard_started.elapsed().as_secs_f64() - render_secs).max(0.0);
        Some(PlanShard {
            first_batch,
            batches: shard_batches,
            first_request,
            requests,
            sections,
            fingerprints,
        })
    }

    /// The global plan fingerprint — identical to
    /// [`crate::exec::ExecutionPlan::fingerprint`] on the same inputs, and
    /// known before any shard is yielded (the journal header and resume
    /// check don't wait for planning to finish).
    pub fn fingerprint(&self) -> u64 {
        fold_plan_fingerprint(&self.fingerprints)
    }

    /// Total batches in the plan.
    pub fn n_batches(&self) -> usize {
        self.batch_request.len()
    }

    /// Total unique requests in the plan.
    pub fn n_requests(&self) -> usize {
        self.fingerprints.len()
    }

    /// Instances covered by the plan.
    pub fn n_instances(&self) -> usize {
        self.n_instances
    }

    /// Batches served by deduplication against an earlier identical batch.
    pub fn deduped_batches(&self) -> usize {
        self.n_batches() - self.n_requests()
    }

    /// Batches the given unique request serves (global totals, matching the
    /// materialized planner's `Planned` event).
    pub fn batches_per(&self, request_index: usize) -> usize {
        self.batches_per[request_index]
    }

    /// Instances the given unique request covers (global totals).
    pub fn instances_per(&self, request_index: usize) -> usize {
        self.instances_per[request_index]
    }

    /// The last batch referencing the given unique request: once the plan
    /// cursor passes it, the response can be dropped.
    pub fn last_batch_of(&self, request_index: usize) -> usize {
        self.last_batch_of[request_index]
    }

    /// Whether prompts request the two-line reasoning format.
    pub fn reasoning(&self) -> bool {
        self.prompt_config.reasoning
    }

    /// The instance slice the plan covers (outlives the stream borrow).
    pub fn instances(&self) -> &'a [TaskInstance] {
        self.instances
    }

    /// The sampling temperature applied to every request.
    pub(crate) fn temperature(&self) -> Option<f64> {
        self.temperature
    }

    /// The shared prompt context (degradation ladder re-renders through it).
    pub(crate) fn context(&self) -> &PromptContext {
        &self.context
    }

    /// Wall-clock seconds spent deciding batch membership and dedup, across
    /// the survey and every shard yielded so far.
    pub fn plan_wall_secs(&self) -> f64 {
        self.plan_wall_secs
    }

    /// Wall-clock seconds spent rendering prompts, across the survey and
    /// every shard yielded so far.
    pub fn prompt_build_wall_secs(&self) -> f64 {
        self.prompt_build_wall_secs
    }
}

impl std::fmt::Debug for PlanStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanStream")
            .field("shard_size", &self.shard_size)
            .field("n_batches", &self.n_batches())
            .field("n_requests", &self.n_requests())
            .field("cursor", &self.cursor)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::exec::ExecutionPlan;
    use dprep_llm::{ChatModel, ChatResponse, Usage};
    use dprep_prompt::Task;
    use dprep_tabular::{Record, Schema, Value};

    struct EchoModel;

    impl ChatModel for EchoModel {
        fn name(&self) -> &str {
            "echo"
        }
        fn context_window(&self) -> usize {
            100_000
        }
        fn cost_usd(&self, usage: &Usage) -> f64 {
            usage.total_tokens() as f64 * 1e-6
        }
        fn chat(&self, request: &dprep_llm::ChatRequest) -> ChatResponse {
            let body = &request.messages.last().unwrap().content;
            let count = body.matches("Question ").count().max(1);
            let mut text = String::new();
            for i in 1..=count {
                text.push_str(&format!("Answer {i}: yes\n"));
            }
            ChatResponse::new(text, Usage::default(), 0.5)
        }
    }

    fn em_instances(n: usize, dup_every: usize) -> Vec<TaskInstance> {
        let schema = Schema::all_text(&["title"]).unwrap().shared();
        (0..n)
            .map(|i| {
                let label = if dup_every > 0 && i % dup_every == 0 {
                    "duplicate product".to_string()
                } else {
                    format!("product {i}")
                };
                let rec = Record::new(schema.clone(), vec![Value::text(label)]).unwrap();
                TaskInstance::EntityMatching {
                    a: rec.clone(),
                    b: rec,
                }
            })
            .collect()
    }

    fn config() -> PipelineConfig {
        let mut config = PipelineConfig::best(Task::EntityMatching);
        config.components.few_shot = false;
        config.batch_size = 3;
        config
    }

    /// Reassembling every shard must reproduce the materialized plan
    /// byte-for-byte: batches, requests, sections, fingerprints, and the
    /// global plan fingerprint.
    #[test]
    fn shards_reassemble_into_the_materialized_plan() {
        let model = EchoModel;
        let config = config();
        // batch_size 1 on duplicated instances also exercises dedup.
        for (n, dup_every, shard_size) in
            [(10, 0, 1), (10, 0, 2), (23, 0, 4), (23, 0, 100), (12, 3, 2)]
        {
            let mut config = config.clone();
            if dup_every > 0 {
                config.components.batching = false;
            }
            let instances = em_instances(n, dup_every);
            let plan = ExecutionPlan::build(&model, &config, &instances, &[]);
            let mut stream = PlanStream::new(&model, &config, &instances, &[], shard_size);
            assert_eq!(stream.fingerprint(), plan.fingerprint());
            assert_eq!(stream.n_batches(), plan.batches().len());
            assert_eq!(stream.n_requests(), plan.requests().len());
            assert_eq!(stream.deduped_batches(), plan.deduped_batches());

            let mut batches = Vec::new();
            let mut requests = Vec::new();
            let mut sections = Vec::new();
            let mut fingerprints = Vec::new();
            while let Some(shard) = stream.next_shard(&model) {
                assert_eq!(shard.first_batch, batches.len());
                assert_eq!(shard.first_request, requests.len());
                assert!(shard.batches.len() <= shard_size.max(1));
                batches.extend(shard.batches);
                requests.extend(shard.requests);
                sections.extend(shard.sections);
                fingerprints.extend(shard.fingerprints);
            }
            for (streamed, planned) in batches.iter().zip(plan.batches()) {
                assert_eq!(streamed.instance_indices, planned.instance_indices);
                assert_eq!(streamed.request_index, planned.request_index);
            }
            assert_eq!(batches.len(), plan.batches().len());
            assert_eq!(requests.len(), plan.requests().len());
            for (streamed, planned) in requests.iter().zip(plan.requests()) {
                assert_eq!(streamed.messages.len(), planned.messages.len());
                for (a, b) in streamed.messages.iter().zip(&planned.messages) {
                    assert_eq!(a.content, b.content);
                }
                assert_eq!(streamed.prompt_tokens_hint, planned.prompt_tokens_hint);
            }
            assert_eq!(sections, plan.sections());
            assert_eq!(fingerprints, plan.fingerprints());
        }
    }

    /// Per-unique totals must be global (all shards), matching what the
    /// materialized executor reports in `Planned` events.
    #[test]
    fn per_request_totals_are_global_across_shards() {
        let model = EchoModel;
        let mut config = config();
        config.components.batching = false;
        // Every instance identical -> one unique request serving all 7
        // batches, first seen in shard 0 but referenced by every shard.
        let instances = em_instances(7, 1);
        let mut stream = PlanStream::new(&model, &config, &instances, &[], 2);
        assert_eq!(stream.n_requests(), 1);
        assert_eq!(stream.batches_per(0), 7);
        assert_eq!(stream.instances_per(0), 7);
        assert_eq!(stream.last_batch_of(0), 6);
        let first = stream.next_shard(&model).expect("one shard");
        assert_eq!(first.requests.len(), 1);
        let mut rest = 0;
        while let Some(shard) = stream.next_shard(&model) {
            assert!(shard.requests.is_empty(), "request must not re-render");
            rest += shard.batches.len();
        }
        assert_eq!(rest, 5);
    }

    /// Timing aggregates across shards: each yielded shard can only grow
    /// the totals, never replace them with its own slice.
    #[test]
    fn stage_timing_accumulates_across_shards() {
        let model = EchoModel;
        let config = config();
        let instances = em_instances(30, 0);
        let mut stream = PlanStream::new(&model, &config, &instances, &[], 2);
        let survey_build = stream.prompt_build_wall_secs();
        assert!(survey_build > 0.0, "survey renders every batch");
        let mut last_build = survey_build;
        let mut last_plan = stream.plan_wall_secs();
        while let Some(shard) = stream.next_shard(&model) {
            assert!(
                stream.prompt_build_wall_secs() >= last_build,
                "prompt-build wall must be monotone across shards"
            );
            assert!(stream.plan_wall_secs() >= last_plan);
            if !shard.requests.is_empty() {
                assert!(stream.prompt_build_wall_secs() > last_build);
            }
            last_build = stream.prompt_build_wall_secs();
            last_plan = stream.plan_wall_secs();
        }
    }
}
