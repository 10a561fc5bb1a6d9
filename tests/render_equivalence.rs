//! Seeded equivalence of the append-style prompt renderer and the streamed
//! request fingerprint against the original string-building versions.
//!
//! The reference implementations below are private copies of the renderer
//! built on `format!`/`to_string` and of the fingerprint built on `format!`
//! plus `full_text()`. Prompt bytes are persisted identities (plan
//! fingerprints, journal entries, cache keys), so every case must match
//! byte for byte. Run this suite in `--release` too: the streaming
//! survey's own cross-check is a `debug_assert`.

use dprep_rng::{stable_hash, Rng};
use llm_data_preprocessors::core::exec::ExecutionPlan;
use llm_data_preprocessors::core::{PipelineConfig, PlanStream};
use llm_data_preprocessors::llm::{
    request_fingerprint, ChatModel, ChatRequest, ChatResponse, FaultLayer, FingerprintPrefix,
    Message, Usage,
};
use llm_data_preprocessors::prompt::template::{system_sections, TemplateOptions};
use llm_data_preprocessors::prompt::{
    AttrSpec, FewShotExample, PromptConfig, PromptContext, PromptSections, Task, TaskInstance,
};
use llm_data_preprocessors::tabular::{Record, Schema, Value};
use llm_data_preprocessors::text::count_tokens;

// ---------------------------------------------------------------------------
// Reference renderer and fingerprint (the string-building originals).
// ---------------------------------------------------------------------------

mod reference {
    use super::*;

    fn escape_into(out: &mut String, raw: &str) {
        for c in raw.chars() {
            match c {
                '"' | '\\' => {
                    out.push('\\');
                    out.push(c);
                }
                _ => out.push(c),
            }
        }
    }

    fn contextualize_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, Value)>) -> String {
        let mut out = String::from("[");
        for (i, (name, value)) in pairs.into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(name);
            out.push_str(": ");
            if value.is_missing() {
                out.push_str("???");
            } else {
                out.push('"');
                escape_into(&mut out, &value.to_string());
                out.push('"');
            }
        }
        out.push(']');
        out
    }

    fn contextualize(record: &Record) -> String {
        contextualize_pairs(record.named_values().map(|(n, v)| (n, v.clone())))
    }

    fn contextualize_selected(record: &Record, indices: &[usize]) -> String {
        let schema = record.schema();
        contextualize_pairs(indices.iter().filter_map(|&i| {
            let name = schema.attribute(i)?.name.as_str();
            let value = record.get(i)?.clone();
            Some((name, value))
        }))
    }

    fn attr_spec(spec: &AttrSpec) -> String {
        contextualize_pairs([
            ("name", Value::text(spec.name.clone())),
            ("description", Value::text(spec.description.clone())),
        ])
    }

    fn render_record(
        record: &Record,
        feature_indices: Option<&[usize]>,
        keep_attribute: Option<&str>,
    ) -> String {
        match feature_indices {
            None => contextualize(record),
            Some(indices) => {
                let mut indices = indices.to_vec();
                if let Some(keep) = keep_attribute {
                    if let Some(target_idx) = record.schema().index_of(keep) {
                        if !indices.contains(&target_idx) {
                            indices.push(target_idx);
                        }
                    }
                }
                indices.retain(|&i| i < record.schema().len());
                contextualize_selected(record, &indices)
            }
        }
    }

    pub fn question_text(instance: &TaskInstance, feature_indices: Option<&[usize]>) -> String {
        match instance {
            TaskInstance::ErrorDetection { record, attribute } => {
                let ctx = render_record(record, feature_indices, Some(attribute));
                format!("Record is {ctx}. Is there an error in the \"{attribute}\" attribute?")
            }
            TaskInstance::Imputation { record, attribute } => {
                let ctx = render_record(record, feature_indices, Some(attribute));
                format!("Record is {ctx}. What is the value of the \"{attribute}\" attribute?")
            }
            TaskInstance::SchemaMatching { a, b } => format!(
                "Attribute A is {}. Attribute B is {}. Do they refer to the same attribute?",
                attr_spec(a),
                attr_spec(b)
            ),
            TaskInstance::EntityMatching { a, b } => format!(
                "Record A is {}. Record B is {}. Do they refer to the same entity?",
                render_record(a, feature_indices, None),
                render_record(b, feature_indices, None)
            ),
        }
    }

    pub fn body(batch: &[&TaskInstance], feature_indices: Option<&[usize]>) -> String {
        let mut body = String::new();
        for (i, instance) in batch.iter().enumerate() {
            body.push_str(&format!(
                "Question {}: {}\n",
                i + 1,
                question_text(instance, feature_indices)
            ));
        }
        body
    }

    /// The full request, its sections and its prompt-token hint, built from
    /// scratch: system message, few-shot pair, batch body.
    pub fn build(
        config: &PromptConfig,
        examples: &[FewShotExample],
        batch: &[&TaskInstance],
    ) -> (ChatRequest, PromptSections) {
        let options = TemplateOptions {
            reasoning: config.reasoning,
            confirm_target: config.confirm_target,
            type_hint: config.type_hint.clone(),
        };
        let system = system_sections(config.task, &options);
        let mut sections = PromptSections {
            task_spec: system.task_spec_tokens,
            answer_format: system.answer_format_tokens,
            cot: system.cot_tokens,
            ..PromptSections::default()
        };
        let features = config.feature_indices.as_deref();
        let mut messages = vec![Message::system(system.text)];
        if !examples.is_empty() {
            let mut questions = String::new();
            let mut answers = String::new();
            for (i, ex) in examples.iter().enumerate() {
                let n = i + 1;
                questions.push_str(&format!(
                    "Question {n}: {}\n",
                    question_text(&ex.instance, features)
                ));
                if config.reasoning {
                    answers.push_str(&format!("Answer {n}: {}\n{}\n", ex.reason, ex.answer));
                } else {
                    answers.push_str(&format!("Answer {n}: {}\n", ex.answer));
                }
            }
            sections.few_shot = count_tokens(&questions) + count_tokens(&answers);
            messages.push(Message::user(questions));
            messages.push(Message::assistant(answers));
        }
        let body = body(batch, features);
        sections.instances = count_tokens(&body);
        messages.push(Message::user(body));
        let request = ChatRequest::new(messages);
        let hint = count_tokens(&request.full_text());
        (request.with_prompt_tokens_hint(hint), sections)
    }

    pub fn fingerprint<M: ChatModel + ?Sized>(model: &M, request: &ChatRequest) -> u64 {
        let temperature = request.temperature_or(model.default_temperature());
        let descriptor = format!(
            "{}|{temperature}|{}|{}",
            model.name(),
            request.retry_salt,
            request.full_text()
        );
        stable_hash(0x00ca_c4e0, descriptor.as_bytes())
    }

    /// Whether the uniform fault layer faults `request` (the roll over the
    /// materialized full text).
    pub fn uniform_fault_fires(seed: u64, rate: f64, request: &ChatRequest) -> bool {
        let h = stable_hash(seed ^ request.retry_salt, request.full_text().as_bytes());
        let roll = (h >> 11) as f64 / (1u64 << 53) as f64;
        roll < rate
    }
}

// ---------------------------------------------------------------------------
// Seeded cases.
// ---------------------------------------------------------------------------

/// Answers every question and never faults; a fixed default temperature so
/// `None` and `Some` resolve differently.
struct Echo;

impl ChatModel for Echo {
    fn name(&self) -> &str {
        "echo-\u{e9}"
    }
    fn default_temperature(&self) -> f64 {
        0.65
    }
    fn context_window(&self) -> usize {
        1_000_000
    }
    fn cost_usd(&self, _usage: &Usage) -> f64 {
        0.0
    }
    fn chat(&self, request: &ChatRequest) -> ChatResponse {
        let asked = llm_data_preprocessors::llm::middleware::expected_answers(request);
        let text: String = (1..=asked.max(1))
            .map(|i| format!("Answer {i}: yes\n"))
            .collect();
        ChatResponse::new(text, Usage::default(), 0.1)
    }
}

const NAMES: [&str; 6] = ["name", "addr", "city", "phone", "price", "t\u{ed}tulo"];
const TEXTS: [&str; 8] = [
    "carey's corner",
    "he said \"hi\"",
    "back\\slash \\\" both",
    "caf\u{e9} \u{2603} \u{65e5}\u{672c}",
    "",
    "Question 7: quoted marker",
    "[bracket: \"x\"]",
    "trailing \\",
];

fn value(rng: &mut Rng) -> Value {
    match rng.range_usize(0, 7) {
        0 => Value::Missing,
        1 => Value::Int(rng.range(-50_000i64, 50_000)),
        2 => Value::Float(rng.range(-500i64, 500) as f64),
        3 => Value::Float(rng.range(-500i64, 500) as f64 / 8.0 + 0.001),
        4 => Value::Float([1e15, -3e16, 1.5e300, 2.5e-7][rng.range_usize(0, 4)]),
        5 => Value::Bool(rng.bool(0.5)),
        _ => Value::text(*rng.choose(&TEXTS).expect("texts")),
    }
}

fn record(rng: &mut Rng, width: usize) -> Record {
    let schema = Schema::all_text(&NAMES[..width]).expect("schema").shared();
    Record::new(schema, (0..width).map(|_| value(rng)).collect()).expect("record")
}

fn instance(rng: &mut Rng, task: Task, width: usize) -> TaskInstance {
    let attribute = NAMES[rng.range_usize(0, width)].to_string();
    match task {
        Task::ErrorDetection => TaskInstance::ErrorDetection {
            record: record(rng, width),
            attribute,
        },
        Task::Imputation => TaskInstance::Imputation {
            record: record(rng, width),
            attribute,
        },
        Task::SchemaMatching => {
            let mut spec = || {
                AttrSpec::new(
                    *rng.choose(&TEXTS).expect("texts"),
                    *rng.choose(&TEXTS).expect("texts"),
                )
            };
            TaskInstance::SchemaMatching {
                a: spec(),
                b: spec(),
            }
        }
        Task::EntityMatching => TaskInstance::EntityMatching {
            a: record(rng, width),
            b: record(rng, width),
        },
    }
}

struct Case {
    config: PipelineConfig,
    instances: Vec<TaskInstance>,
    examples: Vec<FewShotExample>,
}

fn case(rng: &mut Rng, task: Task) -> Case {
    let width = rng.range_usize(2, NAMES.len() + 1);
    let mut config = PipelineConfig::best(task);
    config.seed = rng.next_u64();
    config.batch_size = rng.range_usize(1, 6);
    config.components.reasoning = rng.bool(0.5);
    config.components.few_shot = rng.bool(0.5);
    config.confirm_target = rng.bool(0.5);
    config.temperature = rng.bool(0.5).then(|| rng.range(0i64, 20) as f64 / 10.0);
    if rng.bool(0.5) {
        // Duplicates and an out-of-range index are legal and must render
        // the same way.
        let mut features: Vec<usize> = (0..rng.range_usize(1, 4))
            .map(|_| rng.range_usize(0, width))
            .collect();
        if rng.bool(0.3) {
            features.push(width + 2);
        }
        config.feature_indices = Some(features);
    }
    if task == Task::Imputation && rng.bool(0.5) {
        config.type_hint = Some((NAMES[0].to_string(), "a \"short\" name".to_string()));
    }
    let instances = (0..rng.range_usize(1, 12))
        .map(|_| instance(rng, task, width))
        .collect();
    let examples = (0..rng.range_usize(0, 3))
        .map(|_| {
            FewShotExample::new(
                instance(rng, task, width),
                *rng.choose(&TEXTS).expect("texts"),
                "yes",
            )
        })
        .collect();
    Case {
        config,
        instances,
        examples,
    }
}

const TASKS: [Task; 4] = [
    Task::ErrorDetection,
    Task::Imputation,
    Task::SchemaMatching,
    Task::EntityMatching,
];

#[test]
fn question_text_matches_the_reference_renderer() {
    let mut rng = Rng::seed_from_u64(0x5eed_0001);
    for task in TASKS {
        for _ in 0..300 {
            let width = rng.range_usize(2, NAMES.len() + 1);
            let inst = instance(&mut rng, task, width);
            let features: Vec<usize> = (0..rng.range_usize(0, 4))
                .map(|_| rng.range_usize(0, width + 2))
                .collect();
            for selection in [None, Some(features.as_slice())] {
                let want = reference::question_text(&inst, selection);
                assert_eq!(inst.question_text(selection), want);
                let mut out = String::from("kept ");
                inst.write_question(&mut out, selection);
                assert_eq!(out, format!("kept {want}"));
            }
        }
    }
}

#[test]
fn requests_sections_and_fingerprints_match_the_reference() {
    let model = Echo;
    let mut rng = Rng::seed_from_u64(0x5eed_0002);
    let mut checked = [0usize; 4];
    for round in 0..200 {
        let task = TASKS[round % TASKS.len()];
        let case = case(&mut rng, task);
        let shots: &[FewShotExample] = if case.config.components.few_shot {
            &case.examples
        } else {
            &[]
        };
        let prompt_config = case.config.prompt_config();
        let context = PromptContext::new(&prompt_config, shots);
        let prefix =
            FingerprintPrefix::new(&model, case.config.temperature, context.leading_messages());
        let mut body = String::new();
        for batch in case.instances.chunks(case.config.batch_size) {
            let batch: Vec<&TaskInstance> = batch.iter().collect();
            let (want, want_sections) = reference::build(&prompt_config, shots, &batch);
            let (mut got, got_sections) = context.build(&batch);

            body.clear();
            context.render_body(&batch, &mut body);
            assert_eq!(body, want.messages.last().expect("body").content);
            assert_eq!(got, want, "request bytes");
            assert_eq!(got_sections, want_sections);
            assert_eq!(got.prompt_tokens_hint, want.prompt_tokens_hint);

            if let Some(t) = case.config.temperature {
                got = got.with_temperature(t);
            }
            for salt in [0, 3] {
                let salted = got.clone().with_retry_salt(salt);
                assert_eq!(
                    request_fingerprint(&model, &salted),
                    reference::fingerprint(&model, &salted)
                );
            }
            assert_eq!(
                prefix.finish_with_user(&body),
                request_fingerprint(&model, &got)
            );
            checked[round % TASKS.len()] += 1;
        }

        let plan = ExecutionPlan::build(&model, &case.config, &case.instances, &case.examples);
        let stream = PlanStream::new(&model, &case.config, &case.instances, &case.examples, 2);
        assert_eq!(stream.fingerprint(), plan.fingerprint());
        for (request, &fingerprint) in plan.requests().iter().zip(plan.fingerprints()) {
            assert_eq!(reference::fingerprint(&model, request), fingerprint);
        }
    }
    assert!(checked.iter().all(|&n| n > 100), "{checked:?}");
}

#[test]
fn uniform_faults_fire_on_the_same_requests() {
    let model = Echo;
    let mut rng = Rng::seed_from_u64(0x5eed_0003);
    for (rate, seed) in [(0.0, 1), (0.3, 2), (0.7, 3), (1.0, 4)] {
        let layer = FaultLayer::new(&model, rate, seed);
        let mut fired = 0;
        for round in 0..60 {
            let case = case(&mut rng, TASKS[round % TASKS.len()]);
            let plan = ExecutionPlan::build(&model, &case.config, &case.instances, &case.examples);
            for request in plan.requests() {
                let request = request.clone().with_retry_salt(round as u64 % 3);
                let faulted = layer.chat(&request).meta.fault.is_some();
                assert_eq!(
                    faulted,
                    reference::uniform_fault_fires(seed, rate, &request)
                );
                fired += usize::from(faulted);
            }
        }
        assert_eq!(fired == 0, rate == 0.0, "rate {rate}");
    }
}
