//! Chat-transcript recording.
//!
//! Wrap any [`ChatModel`] in a [`Recorded`] adapter and every request/
//! response pair is captured — the audit trail a production preprocessing
//! run needs (the paper bills by the token; users will want receipts).
//! Transcripts export to JSON Lines for offline inspection.

use std::sync::Mutex;

use crate::chat::{ChatModel, ChatRequest, ChatResponse};
use crate::json::{Json, JsonError};
use crate::usage::Usage;

/// One recorded exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct TranscriptEntry {
    /// Model that served the request.
    pub model: String,
    /// Messages as `(role, content)` pairs.
    pub messages: Vec<(String, String)>,
    /// Sampling temperature the request was served at (the explicit setting
    /// when present, the model default otherwise).
    pub temperature: f64,
    /// Completion text.
    pub completion: String,
    /// Prompt tokens.
    pub prompt_tokens: usize,
    /// Completion tokens.
    pub completion_tokens: usize,
    /// Dollar cost of the request.
    pub cost_usd: f64,
    /// Virtual latency in seconds.
    pub latency_secs: f64,
}

impl TranscriptEntry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("model".into(), Json::Str(self.model.clone())),
            (
                "messages".into(),
                Json::Arr(
                    self.messages
                        .iter()
                        .map(|(role, content)| {
                            Json::Arr(vec![Json::Str(role.clone()), Json::Str(content.clone())])
                        })
                        .collect(),
                ),
            ),
            ("temperature".into(), Json::Num(self.temperature)),
            ("completion".into(), Json::Str(self.completion.clone())),
            ("prompt_tokens".into(), Json::Num(self.prompt_tokens as f64)),
            (
                "completion_tokens".into(),
                Json::Num(self.completion_tokens as f64),
            ),
            ("cost_usd".into(), Json::Num(self.cost_usd)),
            ("latency_secs".into(), Json::Num(self.latency_secs)),
        ])
    }

    fn from_json(value: &Json) -> Result<TranscriptEntry, JsonError> {
        let field = |key: &str| {
            value.get(key).ok_or_else(|| JsonError {
                at: 0,
                message: format!("missing field {key:?}"),
            })
        };
        let bad = |key: &str| JsonError {
            at: 0,
            message: format!("field {key:?} has the wrong type"),
        };
        let text = |key: &str| -> Result<String, JsonError> {
            Ok(field(key)?.as_str().ok_or_else(|| bad(key))?.to_string())
        };
        let number = |key: &str| field(key)?.as_f64().ok_or_else(|| bad(key));
        let count = |key: &str| field(key)?.as_usize().ok_or_else(|| bad(key));

        let messages = field("messages")?
            .as_arr()
            .ok_or_else(|| bad("messages"))?
            .iter()
            .map(|pair| {
                let items = pair.as_arr().filter(|a| a.len() == 2);
                match items {
                    Some([role, content]) => match (role.as_str(), content.as_str()) {
                        (Some(r), Some(c)) => Ok((r.to_string(), c.to_string())),
                        _ => Err(bad("messages")),
                    },
                    _ => Err(bad("messages")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;

        Ok(TranscriptEntry {
            model: text("model")?,
            messages,
            temperature: number("temperature")?,
            completion: text("completion")?,
            prompt_tokens: count("prompt_tokens")?,
            completion_tokens: count("completion_tokens")?,
            cost_usd: number("cost_usd")?,
            latency_secs: number("latency_secs")?,
        })
    }
}

/// Thread-safe transcript store.
#[derive(Debug, Default)]
pub struct TranscriptRecorder {
    entries: Mutex<Vec<TranscriptEntry>>,
}

impl TranscriptRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TranscriptRecorder::default()
    }

    /// Number of recorded exchanges.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("recorder poisoned").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all entries.
    pub fn entries(&self) -> Vec<TranscriptEntry> {
        self.entries.lock().expect("recorder poisoned").clone()
    }

    /// Drops all entries.
    pub fn clear(&self) {
        self.entries.lock().expect("recorder poisoned").clear();
    }

    /// Serializes the transcript as JSON Lines (one entry per line).
    pub fn to_jsonl(&self) -> String {
        let entries = self.entries.lock().expect("recorder poisoned");
        let mut out = String::new();
        for entry in entries.iter() {
            out.push_str(&entry.to_json().to_json());
            out.push('\n');
        }
        out
    }

    /// Parses a transcript back from JSON Lines.
    pub fn from_jsonl(text: &str) -> Result<Vec<TranscriptEntry>, JsonError> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| Json::parse(l).and_then(|v| TranscriptEntry::from_json(&v)))
            .collect()
    }

    fn record(
        &self,
        model: &str,
        request: &ChatRequest,
        temperature: f64,
        response: &ChatResponse,
        cost: f64,
    ) {
        let entry = TranscriptEntry {
            model: model.to_string(),
            messages: request
                .messages
                .iter()
                .map(|m| (m.role.tag().to_string(), m.content.clone()))
                .collect(),
            temperature,
            completion: response.text.clone(),
            prompt_tokens: response.usage.prompt_tokens,
            completion_tokens: response.usage.completion_tokens,
            cost_usd: cost,
            latency_secs: response.latency_secs,
        };
        self.entries.lock().expect("recorder poisoned").push(entry);
    }
}

/// A [`ChatModel`] adapter that records every exchange into a
/// [`TranscriptRecorder`].
pub struct Recorded<'a, M: ChatModel + ?Sized> {
    inner: &'a M,
    recorder: &'a TranscriptRecorder,
}

impl<'a, M: ChatModel + ?Sized> Recorded<'a, M> {
    /// Wraps `inner`, recording into `recorder`.
    pub fn new(inner: &'a M, recorder: &'a TranscriptRecorder) -> Self {
        Recorded { inner, recorder }
    }
}

impl<M: ChatModel + ?Sized> ChatModel for Recorded<'_, M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn default_temperature(&self) -> f64 {
        self.inner.default_temperature()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn cost_usd(&self, usage: &Usage) -> f64 {
        self.inner.cost_usd(usage)
    }

    fn chat(&self, request: &ChatRequest) -> ChatResponse {
        let response = self.inner.chat(request);
        let cost = self.inner.cost_usd(&response.usage);
        let temperature = request.temperature_or(self.inner.default_temperature());
        self.recorder
            .record(self.inner.name(), request, temperature, &response, cost);
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::Message;
    use crate::knowledge::KnowledgeBase;
    use crate::model::SimulatedLlm;
    use crate::profile::ModelProfile;
    use std::sync::Arc;

    fn request() -> ChatRequest {
        ChatRequest::new(vec![
            Message::system("Decide whether the two given records refer to the same entity."),
            Message::user("Question 1: Record A is [t: \"x\"]. Record B is [t: \"x\"]."),
        ])
        .with_temperature(0.5)
    }

    #[test]
    fn records_exchanges_with_usage() {
        let model = SimulatedLlm::new(ModelProfile::gpt35(), Arc::new(KnowledgeBase::new()));
        let recorder = TranscriptRecorder::new();
        let recorded = Recorded::new(&model, &recorder);
        let response = recorded.chat(&request());
        assert_eq!(recorder.len(), 1);
        let entry = &recorder.entries()[0];
        assert_eq!(entry.model, "sim-gpt-3.5");
        assert_eq!(entry.completion, response.text);
        assert_eq!(entry.prompt_tokens, response.usage.prompt_tokens);
        assert_eq!(entry.temperature, 0.5);
        assert_eq!(entry.messages.len(), 2);
        assert_eq!(entry.messages[0].0, "system");
    }

    #[test]
    fn unset_temperature_records_the_model_default() {
        let model = SimulatedLlm::new(ModelProfile::gpt4(), Arc::new(KnowledgeBase::new()));
        let recorder = TranscriptRecorder::new();
        let mut req = request();
        req.temperature = None;
        Recorded::new(&model, &recorder).chat(&req);
        let entry = &recorder.entries()[0];
        assert_eq!(entry.temperature, model.default_temperature());
    }

    #[test]
    fn jsonl_round_trips() {
        let model = SimulatedLlm::new(ModelProfile::gpt4(), Arc::new(KnowledgeBase::new()));
        let recorder = TranscriptRecorder::new();
        let recorded = Recorded::new(&model, &recorder);
        recorded.chat(&request());
        recorded.chat(&request());
        let jsonl = recorder.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        let parsed = TranscriptRecorder::from_jsonl(&jsonl).unwrap();
        for (a, b) in parsed.iter().zip(recorder.entries().iter()) {
            assert_eq!(a.model, b.model);
            assert_eq!(a.messages, b.messages);
            assert_eq!(a.completion, b.completion);
            assert_eq!(a.prompt_tokens, b.prompt_tokens);
            assert_eq!(a.completion_tokens, b.completion_tokens);
            // Floats go through a decimal representation.
            assert!((a.cost_usd - b.cost_usd).abs() < 1e-12);
            assert!((a.latency_secs - b.latency_secs).abs() < 1e-9);
        }
    }

    #[test]
    fn adapter_is_transparent() {
        let model = SimulatedLlm::new(ModelProfile::gpt35(), Arc::new(KnowledgeBase::new()));
        let recorder = TranscriptRecorder::new();
        let recorded = Recorded::new(&model, &recorder);
        assert_eq!(recorded.name(), model.name());
        assert_eq!(recorded.context_window(), model.context_window());
        // The wrapped response is byte-identical to the direct one.
        assert_eq!(recorded.chat(&request()), model.chat(&request()));
    }

    #[test]
    fn clear_empties_the_store() {
        let recorder = TranscriptRecorder::new();
        assert!(recorder.is_empty());
        let model = SimulatedLlm::new(ModelProfile::gpt35(), Arc::new(KnowledgeBase::new()));
        Recorded::new(&model, &recorder).chat(&request());
        assert!(!recorder.is_empty());
        recorder.clear();
        assert!(recorder.is_empty());
    }

    #[test]
    fn from_jsonl_rejects_garbage() {
        assert!(TranscriptRecorder::from_jsonl("not json\n").is_err());
        assert!(TranscriptRecorder::from_jsonl("{\"model\": 3}\n").is_err());
        assert!(TranscriptRecorder::from_jsonl("").unwrap().is_empty());
    }
}
