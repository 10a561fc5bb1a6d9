//! Scenario-driven fault schedules and the circuit breaker.
//!
//! [`crate::FaultLayer`]'s original uniform coin flip models a benign,
//! memoryless network. Real serving failures cluster: a provider has a
//! burst outage, a rate limiter trips for everyone at once, a region's
//! latency spikes for minutes. A [`FaultScenario`] expresses those shapes
//! as an ordered list of seeded [`FaultRule`]s — each rule decides
//! deterministically, per request, whether it fires and what
//! [`FaultEffect`] it applies — so a chaos sweep replays the exact same
//! weather on every run and at any worker count.
//!
//! [`CircuitBreakerLayer`] is the serving-side response to that weather:
//! after a run of consecutive transport failures it opens and shorts
//! requests without touching the model (fast, unbilled
//! [`FaultKind::CircuitOpen`] responses), then lets a half-open probe
//! through after a cooldown to test recovery.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use dprep_obs::{NullTracer, TraceEvent, Tracer};
use dprep_rng::StableHasher;

use crate::chat::{ChatModel, ChatRequest, ChatResponse, FaultKind};
use crate::middleware::MiddlewareStats;
use crate::usage::Usage;

/// What a firing [`FaultRule`] does to the request or its response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEffect {
    /// The request times out: nothing comes back, the prompt is billed.
    Timeout,
    /// A transient transport error: nothing sent, nothing billed.
    Transient,
    /// The provider rate-limits the request and suggests waiting
    /// `base_ms × (1 + h mod 4)` milliseconds (seeded jitter).
    RateLimited {
        /// Base suggested wait in milliseconds.
        base_ms: u64,
    },
    /// The completion stream is cut off halfway.
    Truncate,
    /// The completion arrives with its `Answer N:` markers corrupted, so
    /// nothing parses.
    Garble,
    /// The model silently answers only a prefix of the batch — the
    /// misaligned-batch failure the paper's batch prompting risks. No
    /// transport fault is flagged; incompleteness is what the retry and
    /// degradation machinery must notice.
    PartialAnswers,
    /// The response arrives intact but `factor` times slower.
    LatencySpike {
        /// Latency multiplier.
        factor: f64,
    },
    /// The provider rejects the request outright; retrying cannot help.
    Reject,
}

impl FaultEffect {
    /// Stable label for `fault_injected` trace events and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultEffect::Timeout => "timeout",
            FaultEffect::Transient => "transient",
            FaultEffect::RateLimited { .. } => "rate-limited",
            FaultEffect::Truncate => "truncated-completion",
            FaultEffect::Garble => "garbled",
            FaultEffect::PartialAnswers => "partial-answers",
            FaultEffect::LatencySpike { .. } => "latency-spike",
            FaultEffect::Reject => "rejected",
        }
    }
}

/// One line of a fault schedule: fire on a seeded `rate` fraction of
/// requests and apply `effect`.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Fraction of requests this rule fires on, in `[0, 1]`.
    pub rate: f64,
    /// What happens when it fires.
    pub effect: FaultEffect,
    /// `0`: the decision re-rolls on every retry (a fresh salt usually
    /// clears it, like a flaky network). `n > 0`: the decision ignores the
    /// retry salt and the fault **persists** until the request has been
    /// retried `n` times — an outage that outlasts a small retry budget,
    /// which is what drives retries-exhausted failures and the executor's
    /// degradation ladder.
    pub persist_attempts: u32,
    /// Mixed into the hash so two rules with the same rate fire on
    /// different request subsets.
    pub tag: u64,
}

impl FaultRule {
    /// Decides whether this rule fires for `(scenario seed, request)`.
    /// Returns the decision hash (for effect jitter) when it does.
    ///
    /// The decision is a pure function of the seed, the rule tag, the
    /// prompt text, and — only for non-persistent rules — the retry salt.
    fn fire(&self, seed: u64, request: &ChatRequest) -> Option<u64> {
        let effective_salt = if self.persist_attempts > 0 {
            0
        } else {
            request.retry_salt
        };
        let mut hasher = StableHasher::new(seed ^ self.tag ^ effective_salt);
        request.hash_full_text(&mut hasher);
        let h = hasher.finish();
        let roll = (h >> 11) as f64 / (1u64 << 53) as f64;
        if roll >= self.rate.clamp(0.0, 1.0) {
            return None;
        }
        if self.persist_attempts > 0 && request.retry_salt >= u64::from(self.persist_attempts) {
            // The outage has passed by this attempt.
            return None;
        }
        Some(h)
    }
}

/// A named, seeded fault schedule: an ordered rule list where the first
/// firing rule wins. An empty rule list is a perfectly calm network.
#[derive(Debug, Clone)]
pub struct FaultScenario {
    /// Preset name (stable; used by `dprep chaos --scenario`).
    pub name: &'static str,
    /// Rules, checked in order; the first that fires is applied.
    pub rules: Vec<FaultRule>,
}

impl FaultScenario {
    /// The first rule that fires for this request, with its decision hash.
    pub(crate) fn decide(&self, seed: u64, request: &ChatRequest) -> Option<(&FaultRule, u64)> {
        self.rules
            .iter()
            .find_map(|rule| rule.fire(seed, request).map(|h| (rule, h)))
    }

    /// A calm network: no rules, no faults.
    pub fn calm() -> Self {
        FaultScenario {
            name: "calm",
            rules: Vec::new(),
        }
    }

    /// A mildly flaky network: occasional timeouts and truncations that a
    /// retry usually clears.
    pub fn flaky() -> Self {
        FaultScenario {
            name: "flaky",
            rules: vec![
                FaultRule {
                    rate: 0.06,
                    effect: FaultEffect::Timeout,
                    persist_attempts: 0,
                    tag: 0x01,
                },
                FaultRule {
                    rate: 0.06,
                    effect: FaultEffect::Truncate,
                    persist_attempts: 0,
                    tag: 0x02,
                },
                FaultRule {
                    rate: 0.04,
                    effect: FaultEffect::Transient,
                    persist_attempts: 0,
                    tag: 0x03,
                },
            ],
        }
    }

    /// A burst outage: ~30% of requests time out and keep timing out for
    /// three attempts — longer than the default retry budget, so these
    /// requests exhaust retries and exercise the degradation ladder.
    pub fn burst_outage() -> Self {
        FaultScenario {
            name: "burst-outage",
            rules: vec![FaultRule {
                rate: 0.30,
                effect: FaultEffect::Timeout,
                persist_attempts: 3,
                tag: 0x11,
            }],
        }
    }

    /// A rate-limit storm: half of all requests get throttled with a
    /// `retry_after` hint; a retry that honors the hint succeeds.
    pub fn rate_limit_storm() -> Self {
        FaultScenario {
            name: "rate-limit-storm",
            rules: vec![FaultRule {
                rate: 0.50,
                effect: FaultEffect::RateLimited { base_ms: 2000 },
                persist_attempts: 0,
                tag: 0x21,
            }],
        }
    }

    /// Latency spikes: a quarter of requests arrive intact but an order
    /// of magnitude slower — correctness unharmed, deadlines threatened.
    pub fn latency_spikes() -> Self {
        FaultScenario {
            name: "latency-spikes",
            rules: vec![FaultRule {
                rate: 0.25,
                effect: FaultEffect::LatencySpike { factor: 10.0 },
                persist_attempts: 0,
                tag: 0x31,
            }],
        }
    }

    /// Garbled completions: answer markers are corrupted in transit so
    /// nothing parses until a retry gets a clean copy.
    pub fn garbled() -> Self {
        FaultScenario {
            name: "garbled",
            rules: vec![FaultRule {
                rate: 0.30,
                effect: FaultEffect::Garble,
                persist_attempts: 0,
                tag: 0x41,
            }],
        }
    }

    /// Partial batch answers: the model silently answers only a prefix of
    /// large batches — the paper's batched-prompt misalignment, persisted
    /// past the retry budget so batch degradation has to split.
    pub fn partial_batch() -> Self {
        FaultScenario {
            name: "partial-batch",
            rules: vec![FaultRule {
                rate: 0.35,
                effect: FaultEffect::PartialAnswers,
                persist_attempts: 3,
                tag: 0x51,
            }],
        }
    }

    /// A route outage: every request times out, and keeps timing out no
    /// matter how often it is retried — a route that is hard-down for the
    /// whole run. Attach this to a cascade's primary route (secondary calm)
    /// to prove the router degrades to the secondary with zero unserved
    /// requests.
    pub fn route_outage() -> Self {
        FaultScenario {
            name: "route-outage",
            rules: vec![FaultRule {
                rate: 1.0,
                effect: FaultEffect::Timeout,
                // Outlasts any retry budget: the outage never clears.
                persist_attempts: u32::MAX,
                tag: 0x61,
            }],
        }
    }

    /// Every named preset, in sweep order.
    pub fn presets() -> Vec<FaultScenario> {
        vec![
            FaultScenario::calm(),
            FaultScenario::flaky(),
            FaultScenario::burst_outage(),
            FaultScenario::rate_limit_storm(),
            FaultScenario::latency_spikes(),
            FaultScenario::garbled(),
            FaultScenario::partial_batch(),
            FaultScenario::route_outage(),
        ]
    }

    /// Looks up a preset by its stable name.
    pub fn by_name(name: &str) -> Option<FaultScenario> {
        FaultScenario::presets()
            .into_iter()
            .find(|s| s.name == name)
    }
}

// ---------------------------------------------------------------------------
// CircuitBreakerLayer
// ---------------------------------------------------------------------------

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transport-faulted responses that trip the breaker open.
    pub failure_threshold: u32,
    /// Requests shorted while open before a half-open probe is admitted.
    pub cooldown_requests: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_requests: 2,
        }
    }
}

/// Breaker state labels, as emitted in `breaker_transition` trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Requests flow; `streak` consecutive faults seen so far.
    Closed { streak: u32 },
    /// Requests are shorted; `remaining` shorts until a probe is allowed.
    Open { remaining: u32 },
    /// One probe request is in flight; everything else is shorted.
    HalfOpen,
}

impl BreakerState {
    fn label(self) -> &'static str {
        match self {
            BreakerState::Closed { .. } => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

enum Admission {
    Pass,
    Probe,
    Short,
}

/// Stops hammering a failing upstream: after `failure_threshold`
/// consecutive transport-faulted responses the breaker opens and shorts
/// requests with an unbilled [`FaultKind::CircuitOpen`] response; after
/// `cooldown_requests` shorts one half-open probe is admitted, and its
/// outcome closes or re-opens the circuit.
///
/// Stack it *outside* the retry layer (`Cache ── Breaker ── Retry ──
/// Fault ── Model`): what it observes is then "this request failed even
/// after retries", the signal that the upstream is genuinely down rather
/// than momentarily flaky. State transitions are emitted as
/// [`TraceEvent::BreakerTransition`] events. The breaker is inherently
/// dispatch-order dependent, so deterministic runs should drive it from a
/// single worker.
pub struct CircuitBreakerLayer<M> {
    inner: M,
    config: BreakerConfig,
    state: Mutex<BreakerState>,
    stats: Arc<MiddlewareStats>,
    tracer: Arc<dyn Tracer>,
}

impl<M: ChatModel> CircuitBreakerLayer<M> {
    /// Wraps `inner` with default tuning.
    pub fn new(inner: M) -> Self {
        CircuitBreakerLayer {
            inner,
            config: BreakerConfig::default(),
            state: Mutex::new(BreakerState::Closed { streak: 0 }),
            stats: MiddlewareStats::shared(),
            tracer: Arc::new(NullTracer),
        }
    }

    /// Overrides the breaker tuning.
    pub fn with_config(mut self, config: BreakerConfig) -> Self {
        self.config = config;
        self
    }

    /// Emits [`TraceEvent::BreakerTransition`] events into `tracer`.
    pub fn with_tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Reports shorted requests into an externally owned counter set.
    pub fn with_stats(mut self, stats: Arc<MiddlewareStats>) -> Self {
        self.stats = stats;
        self
    }

    /// The breaker's current state label (`closed` / `open` / `half-open`).
    pub fn state_label(&self) -> &'static str {
        self.state.lock().expect("breaker poisoned").label()
    }

    fn transition(&self, request: u64, from: BreakerState, to: BreakerState) {
        self.tracer.record(&TraceEvent::BreakerTransition {
            request,
            from: from.label(),
            to: to.label(),
        });
    }

    /// Decides whether `request` may pass, without holding the lock
    /// across the inner call.
    fn admit(&self, request: u64) -> Admission {
        let mut state = self.state.lock().expect("breaker poisoned");
        match *state {
            BreakerState::Closed { .. } => Admission::Pass,
            BreakerState::Open { remaining } => {
                if remaining > 0 {
                    *state = BreakerState::Open {
                        remaining: remaining - 1,
                    };
                    Admission::Short
                } else {
                    let from = *state;
                    *state = BreakerState::HalfOpen;
                    drop(state);
                    self.transition(request, from, BreakerState::HalfOpen);
                    Admission::Probe
                }
            }
            BreakerState::HalfOpen => Admission::Short,
        }
    }

    /// Folds a completed request's outcome back into the breaker. `failed`
    /// means the response carried a *retryable* transport fault — the only
    /// class that signals upstream ill health. A non-retryable rejection
    /// (content filter, policy refusal) proves the upstream is alive and
    /// answering, so it closes a probe and never grows the failure streak.
    fn observe(&self, request: u64, failed: bool, was_probe: bool) {
        let mut state = self.state.lock().expect("breaker poisoned");
        let from = *state;
        let to = if was_probe {
            if failed {
                BreakerState::Open {
                    remaining: self.config.cooldown_requests,
                }
            } else {
                BreakerState::Closed { streak: 0 }
            }
        } else {
            match (*state, failed) {
                (BreakerState::Closed { streak }, true) => {
                    let streak = streak + 1;
                    if streak >= self.config.failure_threshold {
                        BreakerState::Open {
                            remaining: self.config.cooldown_requests,
                        }
                    } else {
                        BreakerState::Closed { streak }
                    }
                }
                (BreakerState::Closed { .. }, false) => BreakerState::Closed { streak: 0 },
                // A non-probe finishing while open/half-open (a stale
                // in-flight request under concurrency) leaves the state
                // alone.
                (other, _) => other,
            }
        };
        *state = to;
        drop(state);
        if from.label() != to.label() {
            self.transition(request, from, to);
        }
    }
}

impl<M: ChatModel> ChatModel for CircuitBreakerLayer<M> {
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
        let was_probe = match self.admit(request.trace_id) {
            Admission::Pass => false,
            Admission::Probe => true,
            Admission::Short => {
                // Shorted: the request never reaches the model, burns no
                // virtual time, and bills nothing.
                self.stats.faults_injected.fetch_add(1, Ordering::Relaxed);
                self.tracer.record(&TraceEvent::FaultInjected {
                    request: request.trace_id,
                    kind: FaultKind::CircuitOpen.label(),
                });
                let mut response = ChatResponse::new(String::new(), Usage::default(), 0.0);
                response.meta.fault = Some(FaultKind::CircuitOpen);
                response.meta.attempt_usage = Some(Usage::default());
                return response;
            }
        };
        let response = self.inner.chat(request);
        let failed = response.meta.fault.is_some_and(FaultKind::is_retryable);
        self.observe(request.trace_id, failed, was_probe);
        response
    }

    fn take_route_pending(&self, trace_id: u64) -> Option<crate::router::RoutePending> {
        self.inner.take_route_pending(trace_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::Message;
    use dprep_obs::CollectingTracer;

    /// Faults (Timeout) while `down` is true.
    struct Flaky {
        down: std::sync::atomic::AtomicBool,
    }
    impl Flaky {
        fn new(down: bool) -> Self {
            Flaky {
                down: std::sync::atomic::AtomicBool::new(down),
            }
        }
        fn set_down(&self, down: bool) {
            self.down.store(down, Ordering::Relaxed);
        }
    }
    impl ChatModel for Flaky {
        fn name(&self) -> &str {
            "flaky"
        }
        fn context_window(&self) -> usize {
            100_000
        }
        fn cost_usd(&self, usage: &Usage) -> f64 {
            usage.total_tokens() as f64 * 1e-6
        }
        fn chat(&self, _request: &ChatRequest) -> ChatResponse {
            if self.down.load(Ordering::Relaxed) {
                let mut r = ChatResponse::new(String::new(), Usage::default(), 30.0);
                r.meta.fault = Some(FaultKind::Timeout);
                r
            } else {
                ChatResponse::new("Answer 1: yes\n", Usage::default(), 1.0)
            }
        }
    }

    fn req(text: &str) -> ChatRequest {
        ChatRequest::new(vec![Message::user(format!("Question 1: {text}?\n"))])
    }

    #[test]
    fn presets_have_unique_names_and_by_name_resolves() {
        let presets = FaultScenario::presets();
        let names: std::collections::HashSet<_> = presets.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), presets.len());
        for preset in &presets {
            assert_eq!(
                FaultScenario::by_name(preset.name).expect("resolves").name,
                preset.name
            );
        }
        assert!(FaultScenario::by_name("no-such-weather").is_none());
        assert!(FaultScenario::calm().rules.is_empty());
    }

    /// The decision hash streams the request's messages; it must equal the
    /// hash of the materialized full text, or seeded chaos schedules (and
    /// the drills pinned on them) would shift.
    #[test]
    fn decision_hash_is_the_full_text_hash() {
        let scenario = FaultScenario::burst_outage();
        let rule = &scenario.rules[0];
        let mut fired = 0;
        for i in 0..200 {
            let r = req(&format!("case {i} caf\u{e9}")).with_retry_salt(i % 5);
            let salt = if rule.persist_attempts > 0 {
                0
            } else {
                r.retry_salt
            };
            let h = dprep_rng::stable_hash(9 ^ rule.tag ^ salt, r.full_text().as_bytes());
            let roll = (h >> 11) as f64 / (1u64 << 53) as f64;
            let expected = (roll < rule.rate
                && (rule.persist_attempts == 0 || r.retry_salt < u64::from(rule.persist_attempts)))
            .then_some(h);
            assert_eq!(rule.fire(9, &r), expected);
            fired += usize::from(expected.is_some());
        }
        assert!(fired > 0);
    }

    #[test]
    fn persistent_rules_clear_after_the_configured_attempts() {
        let scenario = FaultScenario::burst_outage();
        let rule = &scenario.rules[0];
        // Find a request the outage hits at salt 0.
        let hit = (0..200)
            .map(|i| req(&format!("case {i}")))
            .find(|r| rule.fire(9, r).is_some())
            .expect("a 30% rule hits within 200 requests");
        // Persistent: same decision for every salt below the horizon...
        for salt in 0..u64::from(rule.persist_attempts) {
            let salted = hit.clone().with_retry_salt(salt);
            assert!(rule.fire(9, &salted).is_some());
        }
        // ...and clear once the request has been retried past it.
        let cleared = hit
            .clone()
            .with_retry_salt(u64::from(rule.persist_attempts));
        assert!(rule.fire(9, &cleared).is_none());
    }

    #[test]
    fn breaker_cycles_closed_open_half_open_closed() {
        let model = Flaky::new(true);
        let tracer = Arc::new(CollectingTracer::new());
        let breaker = CircuitBreakerLayer::new(&model)
            .with_config(BreakerConfig {
                failure_threshold: 3,
                cooldown_requests: 2,
            })
            .with_tracer(tracer.clone() as Arc<dyn Tracer>);

        // Three consecutive faults trip it open.
        for i in 0..3 {
            let r = breaker.chat(&req(&format!("f{i}")).with_trace_id(i + 1));
            assert_eq!(r.meta.fault, Some(FaultKind::Timeout));
        }
        assert_eq!(breaker.state_label(), "open");

        // While open, requests are shorted without touching the model.
        for i in 0..2 {
            let r = breaker.chat(&req(&format!("s{i}")).with_trace_id(10 + i));
            assert_eq!(r.meta.fault, Some(FaultKind::CircuitOpen));
            assert_eq!(r.usage, Usage::default());
            assert_eq!(r.latency_secs, 0.0);
        }

        // Cooldown spent; upstream recovers; the probe closes the circuit.
        model.set_down(false);
        let probe = breaker.chat(&req("probe").with_trace_id(20));
        assert_eq!(probe.meta.fault, None);
        assert_eq!(breaker.state_label(), "closed");

        let labels: Vec<(String, String)> = tracer
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::BreakerTransition { from, to, .. } => {
                    Some((from.to_string(), to.to_string()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            labels,
            vec![
                ("closed".into(), "open".into()),
                ("open".into(), "half-open".into()),
                ("half-open".into(), "closed".into()),
            ]
        );
    }

    /// Answers with whatever fault is currently scripted (None = clean).
    struct Moody {
        fault: Mutex<Option<FaultKind>>,
    }
    impl Moody {
        fn new(fault: Option<FaultKind>) -> Self {
            Moody {
                fault: Mutex::new(fault),
            }
        }
        fn set_fault(&self, fault: Option<FaultKind>) {
            *self.fault.lock().unwrap() = fault;
        }
    }
    impl ChatModel for Moody {
        fn name(&self) -> &str {
            "moody"
        }
        fn context_window(&self) -> usize {
            100_000
        }
        fn cost_usd(&self, usage: &Usage) -> f64 {
            usage.total_tokens() as f64 * 1e-6
        }
        fn chat(&self, _request: &ChatRequest) -> ChatResponse {
            let mut r = ChatResponse::new("Answer 1: yes\n", Usage::default(), 1.0);
            r.meta.fault = *self.fault.lock().unwrap();
            r
        }
    }

    #[test]
    fn route_outage_preset_downs_every_request_at_every_salt() {
        let scenario = FaultScenario::route_outage();
        for i in 0..32 {
            for salt in [0u64, 1, 5, 100] {
                let r = req(&format!("case {i}")).with_retry_salt(salt);
                let (rule, _) = scenario.decide(9, &r).expect("always fires");
                assert_eq!(rule.effect, FaultEffect::Timeout);
            }
        }
        assert!(FaultScenario::by_name("route-outage").is_some());
    }

    #[test]
    fn non_retryable_probe_closes_instead_of_reopening() {
        // Regression: a half-open probe answered with a *non-retryable*
        // fault (content-filter rejection) proves the upstream is alive and
        // answering — it must close the circuit, not re-open it as a
        // retryable transport failure would.
        let model = Moody::new(Some(FaultKind::Timeout));
        let breaker = CircuitBreakerLayer::new(&model).with_config(BreakerConfig {
            failure_threshold: 2,
            cooldown_requests: 1,
        });
        for i in 0..2 {
            let _ = breaker.chat(&req(&format!("f{i}")));
        }
        assert_eq!(breaker.state_label(), "open");
        let _ = breaker.chat(&req("short"));
        model.set_fault(Some(FaultKind::Rejected));
        let probe = breaker.chat(&req("probe"));
        assert_eq!(probe.meta.fault, Some(FaultKind::Rejected));
        assert_eq!(breaker.state_label(), "closed");
    }

    #[test]
    fn rejections_never_grow_the_failure_streak() {
        // A rejecting upstream is healthy; any number of rejections leaves
        // the breaker closed, and they also reset nothing mid-streak.
        let model = Moody::new(Some(FaultKind::Rejected));
        let breaker = CircuitBreakerLayer::new(&model).with_config(BreakerConfig {
            failure_threshold: 2,
            cooldown_requests: 1,
        });
        for i in 0..6 {
            let r = breaker.chat(&req(&format!("r{i}")));
            assert_eq!(r.meta.fault, Some(FaultKind::Rejected));
        }
        assert_eq!(breaker.state_label(), "closed");
        // A rejection mid-streak is evidence the upstream answers: like a
        // success, it resets the consecutive-transport-failure count, so a
        // timeout/rejection/timeout sequence never reaches the threshold.
        model.set_fault(Some(FaultKind::Timeout));
        let _ = breaker.chat(&req("t0"));
        model.set_fault(Some(FaultKind::Rejected));
        let _ = breaker.chat(&req("r-between"));
        model.set_fault(Some(FaultKind::Timeout));
        let _ = breaker.chat(&req("t1"));
        assert_eq!(breaker.state_label(), "closed");
        // Two consecutive transport faults still trip it.
        let _ = breaker.chat(&req("t2"));
        assert_eq!(breaker.state_label(), "open");
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let model = Flaky::new(true);
        let breaker = CircuitBreakerLayer::new(&model).with_config(BreakerConfig {
            failure_threshold: 2,
            cooldown_requests: 1,
        });
        for i in 0..2 {
            let _ = breaker.chat(&req(&format!("f{i}")));
        }
        assert_eq!(breaker.state_label(), "open");
        let _ = breaker.chat(&req("short"));
        // The probe still fails: back to open for another cooldown.
        let probe = breaker.chat(&req("probe"));
        assert_eq!(probe.meta.fault, Some(FaultKind::Timeout));
        assert_eq!(breaker.state_label(), "open");
    }
}
