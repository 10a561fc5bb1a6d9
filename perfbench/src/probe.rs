//! The benchmark's own `ChatModel` and `Tracer` wrappers. They time the
//! calls that cross a layer boundary from outside the program: the whole
//! middleware stack (`llm.middleware`) and the simulator beneath it
//! (`llm.sim`), each by the calling thread's CPU clock and by wall clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dprep_llm::router::RoutePending;
use dprep_llm::{ChatModel, ChatRequest, ChatResponse, Usage};
use dprep_obs::{TraceEvent, Tracer};

use crate::sys::thread_cpu_ns;
use crate::trace::{span, Spans};

/// Call counters and time totals of one wrapped layer.
#[derive(Debug, Default)]
pub struct LayerClock {
    pub calls: AtomicU64,
    pub cpu_ns: AtomicU64,
    pub wall_ns: AtomicU64,
}

impl LayerClock {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
    pub fn cpu_secs(&self) -> f64 {
        self.cpu_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
    pub fn wall_secs(&self) -> f64 {
        self.wall_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// Times every `chat` call into a [`LayerClock`], records a span when
/// tracing is on, and optionally keeps each response text (the traced
/// run re-parses them outside the pipeline).
pub struct Timed<M> {
    inner: M,
    layer: &'static str,
    clock: Arc<LayerClock>,
    spans: Option<Arc<Spans>>,
    responses: Option<Arc<Mutex<Vec<String>>>>,
}

impl<M: ChatModel> Timed<M> {
    pub fn new(inner: M, layer: &'static str, clock: Arc<LayerClock>) -> Self {
        Timed {
            inner,
            layer,
            clock,
            spans: None,
            responses: None,
        }
    }

    pub fn with_spans(mut self, spans: Option<Arc<Spans>>) -> Self {
        self.spans = spans;
        self
    }

    pub fn keeping_responses(mut self, sink: Arc<Mutex<Vec<String>>>) -> Self {
        self.responses = Some(sink);
        self
    }
}

impl<M: ChatModel> ChatModel for Timed<M> {
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
    fn take_route_pending(&self, trace_id: u64) -> Option<RoutePending> {
        self.inner.take_route_pending(trace_id)
    }
    fn chat(&self, request: &ChatRequest) -> ChatResponse {
        let _span = span(self.spans.as_deref(), self.layer, request.trace_id);
        let wall = Instant::now();
        let cpu = thread_cpu_ns();
        let response = self.inner.chat(request);
        self.clock
            .cpu_ns
            .fetch_add(thread_cpu_ns() - cpu, Ordering::Relaxed);
        self.clock
            .wall_ns
            .fetch_add(wall.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = &self.responses {
            sink.lock()
                .expect("response sink")
                .push(response.text.clone());
        }
        response
    }
}

/// Wall seconds the executor reports per stage (`Stage` events), summed
/// over every run traced into it.
#[derive(Debug, Default)]
pub struct StageTracer {
    stages: Mutex<Vec<(&'static str, f64)>>,
}

impl StageTracer {
    /// Total wall seconds of `stage` across the traced runs.
    pub fn secs(&self, stage: &str) -> f64 {
        self.stages
            .lock()
            .expect("stage tracer")
            .iter()
            .filter(|(s, _)| *s == stage)
            .map(|(_, secs)| secs)
            .sum()
    }
}

impl Tracer for StageTracer {
    fn record(&self, event: &TraceEvent) {
        if let TraceEvent::Stage {
            stage, wall_secs, ..
        } = event
        {
            self.stages
                .lock()
                .expect("stage tracer")
                .push((stage, *wall_secs));
        }
    }
}
