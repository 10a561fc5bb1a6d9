//! Decomposed layer timing from outside the program: the layers' public
//! functions called directly on one run's own inputs — its instances, the
//! requests they render to, the simulator's responses, and its journal
//! entries — each call timed by wall clock.

use std::path::Path;
use std::time::Instant;

use dprep_core::PlanStream;
use dprep_llm::{request_fingerprint, ModelProfile, SimulatedLlm};
use dprep_obs::{DurableJournal, JournalEntry, Json, TerminalKind};
use dprep_prompt::parse_response;

use crate::batch::{Job, JobRun};
use crate::trace::{span, Spans};

/// Declares [`LayerSums`] with one `f64` per named sum, plus the
/// field-by-field addition and JSON round trip a measurement child needs.
macro_rules! layer_sums {
    ($($field:ident),* $(,)?) => {
        /// Sums over every decomposed run; ratios are taken at report time.
        #[derive(Debug, Default, Clone)]
        pub struct LayerSums {
            $(pub $field: f64,)*
        }

        impl LayerSums {
            pub fn add(&mut self, other: &LayerSums) {
                $(self.$field += other.$field;)*
            }

            pub fn to_json(&self) -> Json {
                Json::Obj(vec![$((stringify!($field).to_string(), Json::Num(self.$field)),)*])
            }

            pub fn from_json(json: &Json) -> LayerSums {
                LayerSums {
                    $($field: json.get(stringify!($field)).and_then(Json::as_f64).unwrap_or(0.0),)*
                }
            }
        }
    };
}

layer_sums!(
    rows,
    survey_s,
    render_s,
    batches,
    unique_requests,
    request_bytes,
    fingerprint_s,
    parse_s,
    responses,
    append_s,
    entries,
    journal_bytes,
    resume_s,
    resumed,
    decode_s,
    encode_s,
    frames,
);

impl LayerSums {
    /// Times `Json::parse` and `Json::to_json` over `frames`.
    pub fn time_json<'a>(&mut self, frames: impl Iterator<Item = &'a str>, spans: &Spans) {
        for frame in frames {
            let started = Instant::now();
            let parsed = {
                let _s = span(Some(spans), "obs.json.decode", 0);
                Json::parse(frame)
            };
            self.decode_s += started.elapsed().as_secs_f64();
            if let Ok(value) = parsed {
                let started = Instant::now();
                let encoded = {
                    let _s = span(Some(spans), "obs.json.encode", 0);
                    value.to_json()
                };
                self.encode_s += started.elapsed().as_secs_f64();
                std::hint::black_box(encoded);
            }
            self.frames += 1.0;
        }
    }
}

/// Decomposes one finished run: survey and render its plan, fingerprint
/// and measure every rendered request, parse every simulator response,
/// and append, resume and JSON-decode its journal. Runs without a journal
/// of their own get one written from their responses in `scratch`.
pub fn decompose(
    job: &Job,
    run: &JobRun,
    scratch: &Path,
    spans: &Spans,
) -> Result<LayerSums, String> {
    let mut sums = LayerSums {
        rows: job.instances.len() as f64,
        ..LayerSums::default()
    };
    let model = SimulatedLlm::new(ModelProfile::gpt4(), job.kb.clone()).with_seed(job.sim_seed);
    let shard = job.config.plan_shard_size.unwrap_or(usize::MAX);

    let started = Instant::now();
    let mut stream = {
        let _s = span(Some(spans), "core.stream.survey", 0);
        PlanStream::new(&model, &job.config, &job.instances, &job.examples, shard)
    };
    sums.survey_s = started.elapsed().as_secs_f64();
    sums.batches = stream.n_batches() as f64;
    sums.unique_requests = stream.n_requests() as f64;

    let mut requests = Vec::with_capacity(stream.n_requests());
    loop {
        let started = Instant::now();
        let shard = {
            let _s = span(Some(spans), "core.stream.render", 0);
            stream.next_shard(&model)
        };
        sums.render_s += started.elapsed().as_secs_f64();
        match shard {
            Some(shard) => requests.extend(shard.requests),
            None => break,
        }
    }
    let mut fingerprints = Vec::with_capacity(requests.len());
    for request in &requests {
        sums.request_bytes += request.full_text().len() as f64;
        let started = Instant::now();
        let fingerprint = {
            let _s = span(Some(spans), "llm.middleware.fingerprint", request.trace_id);
            request_fingerprint(&model, request)
        };
        sums.fingerprint_s += started.elapsed().as_secs_f64();
        fingerprints.push(fingerprint);
    }
    drop(requests);

    let reasoning = stream.reasoning();
    for text in &run.responses {
        let started = Instant::now();
        let parsed = {
            let _s = span(Some(spans), "prompt.parse", 0);
            parse_response(text, reasoning)
        };
        sums.parse_s += started.elapsed().as_secs_f64();
        std::hint::black_box(parsed);
        sums.responses += 1.0;
    }

    // The run's own journal when it kept one; otherwise one written from
    // its responses, so every workload exercises the same journal path.
    let source = scratch.join(format!("{}-source.jsonl", run.name));
    let journal_path = match &run.journal {
        Some(path) => path.clone(),
        None => {
            let journal =
                DurableJournal::fresh(&source, "sim-gpt-4", &job.config.descriptor(), job.sim_seed)
                    .map_err(|e| format!("cannot write {}: {e}", source.display()))?;
            journal
                .ensure_header(stream.fingerprint())
                .map_err(|e| format!("journal header: {e}"))?;
            for (i, text) in run.responses.iter().enumerate() {
                journal
                    .append(&completed_entry(
                        fingerprints.get(i).copied().unwrap_or(i as u64),
                        text,
                    ))
                    .map_err(|e| format!("journal append: {e}"))?;
            }
            source.clone()
        }
    };
    let started = Instant::now();
    let resumed = {
        let _s = span(Some(spans), "obs.journal.resume", 0);
        DurableJournal::resume(&journal_path)?
    };
    sums.resume_s = started.elapsed().as_secs_f64();
    sums.resumed = resumed.entries.len() as f64;
    let header = resumed.require_header()?.clone();
    drop(resumed.journal);

    let copy_path = scratch.join(format!("{}-copy.jsonl", run.name));
    let copy = DurableJournal::fresh(&copy_path, &header.model, &header.config, header.seed)
        .map_err(|e| format!("cannot write {}: {e}", copy_path.display()))?;
    copy.ensure_header(header.plan)
        .map_err(|e| format!("journal header: {e}"))?;
    for entry in &resumed.entries {
        let started = Instant::now();
        {
            let _s = span(Some(spans), "obs.journal.append", 0);
            copy.append(entry)
                .map_err(|e| format!("journal append: {e}"))?;
        }
        sums.append_s += started.elapsed().as_secs_f64();
    }
    sums.entries = resumed.entries.len() as f64;
    drop(copy);
    let text = std::fs::read_to_string(&copy_path)
        .map_err(|e| format!("cannot read {}: {e}", copy_path.display()))?;
    let mut lines = text.lines();
    let header_bytes = lines.next().map_or(0, |l| l.len() + 1);
    sums.journal_bytes = (text.len() - header_bytes) as f64;
    sums.time_json(lines, spans);

    for path in [&source, &copy_path] {
        let _ = std::fs::remove_file(path);
    }
    Ok(sums)
}

fn completed_entry(fingerprint: u64, text: &str) -> JournalEntry {
    JournalEntry {
        kind: TerminalKind::Completed,
        text: text.to_string(),
        complete: true,
        ..JournalEntry::cancelled(fingerprint)
    }
}
