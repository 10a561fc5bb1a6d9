//! The `serve-open` client: drives a `dprep serve` child process at fixed
//! open-loop rates from two tenant connections, one thread each, and
//! times every job from when it was due to be sent.
//!
//! Each connection runs its frames one after another, so a tenant's jobs
//! queue behind each other in the daemon; the client never waits for a
//! reply before sending the next frame. Frames go out with one write each
//! on a default-option socket.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dprep_obs::Json;

use crate::batch::mix;
use crate::pins;
use crate::sys::wait_readable;
use crate::trace::Spans;

/// Tenants, one connection and one client thread each.
pub const TENANTS: usize = 2;
/// Closed-loop fresh jobs per tenant before the measured phases, so the
/// first phase already has keys to resubmit.
pub const WARMUP_JOBS: usize = 4;
/// How long a phase may take to drain its last replies.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// A running daemon child.
pub struct Daemon {
    child: Child,
    /// Held open for the daemon's lifetime: it prints after its listening
    /// line, and a closed pipe would make that print fail.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Spawns `dprep serve` on an ephemeral port and waits for its
    /// listening line.
    pub fn spawn(dprep: &Path, journal_dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(dprep)
            .args(["serve", "--port", "0", "--journal-dir"])
            .arg(journal_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", dprep.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .rsplit(' ')
                .next()
                .unwrap_or_default()
                .to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before listening".into());
            }
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down and waits for it; kills it if it does
    /// not exit within ten seconds.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut conn) = Conn::open(&self.addr) {
            let _ = conn.roundtrip("{\"op\":\"shutdown\"}");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not shut down; killed".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection with a line reassembly buffer.
pub struct Conn {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Conn {
            stream,
            pending: Vec::new(),
        })
    }

    /// Sends one frame with a single write.
    pub fn send(&mut self, frame: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(frame.len() + 1);
        bytes.extend_from_slice(frame.as_bytes());
        bytes.push(b'\n');
        self.stream
            .write_all(&bytes)
            .map_err(|e| format!("send failed: {e}"))
    }

    /// The next complete reply line, waiting at most `timeout`; `Ok(None)`
    /// when none arrived in time.
    pub fn recv(&mut self, timeout: Duration) -> Result<Option<String>, String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.pending.drain(..=pos).collect();
                return Ok(Some(String::from_utf8_lossy(&line).trim().to_string()));
            }
            let now = Instant::now();
            if now >= deadline || !wait_readable(&self.stream, deadline - now) {
                return Ok(None);
            }
            let mut buf = [0u8; 16 * 1024];
            match self.stream.read(&mut buf) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => self.pending.extend_from_slice(&buf[..n]),
                Err(e) => return Err(format!("read failed: {e}")),
            }
        }
    }

    /// Sends a frame and waits for its reply.
    pub fn roundtrip(&mut self, frame: &str) -> Result<String, String> {
        self.send(frame)?;
        self.recv(Duration::from_secs(60))?
            .ok_or_else(|| "no reply within 60 s".to_string())
    }
}

/// The job catalog entry a fresh job runs.
#[derive(Debug, Clone, Copy)]
pub struct Body {
    pub dataset: usize,
    pub seed: usize,
}

impl Body {
    pub fn frame(&self, tenant: usize, key: usize) -> String {
        format!(
            "{{\"op\":\"submit\",\"tenant\":\"t{tenant}\",\"dataset\":\"{}\",\"scale\":{},\"seed\":{},\"journal_key\":\"k{key}\"}}",
            pins::SERVE_DATASETS[self.dataset],
            pins::SERVE_SCALE,
            pins::serve_seed(self.seed),
        )
    }

    pub fn fingerprint(&self) -> &'static str {
        pins::SERVE_FINGERPRINTS[self.dataset][self.seed]
    }
}

/// One scheduled job.
#[derive(Debug, Clone)]
pub struct Planned {
    pub tenant: usize,
    pub key: usize,
    pub body: Body,
    pub resubmit: bool,
    /// Due time, from the start of its phase.
    pub due: Duration,
}

/// One job's outcome as the client saw it.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub resubmit: bool,
    pub latency_ms: f64,
    pub lag_ms: f64,
    pub ok: bool,
    pub shed: bool,
    pub rows: usize,
    pub replayed: usize,
}

/// Builds each tenant's seeded job sequence. The mix is the same for
/// every workload seed, so seeds vary only its order and catalog seeds:
/// jobs alternate between a first run under a new key and a resubmission
/// of a key the tenant already sent, and every six first runs cover the
/// six catalog datasets once each.
pub struct Planner {
    state: u64,
    jobs: usize,
    sent: Vec<(usize, Body)>,
    deck: Vec<usize>,
}

impl Planner {
    pub fn new(seed: u64, tenant: usize) -> Planner {
        Planner {
            state: mix(seed ^ (0x5e4e_0000 + tenant as u64)),
            jobs: 0,
            sent: Vec::new(),
            deck: Vec::new(),
        }
    }

    fn below(&mut self, n: usize) -> usize {
        self.state = mix(self.state);
        (self.state % n as u64) as usize
    }

    /// Every catalog body sent as a first run so far.
    pub fn bodies(&self) -> impl Iterator<Item = Body> + '_ {
        self.sent.iter().map(|&(_, body)| body)
    }

    /// The next job as (key, body, resubmit); `fresh_only` forces a first
    /// run.
    pub fn next(&mut self, fresh_only: bool) -> (usize, Body, bool) {
        let resubmit = !fresh_only && !self.sent.is_empty() && !self.jobs.is_multiple_of(2);
        self.jobs += 1;
        if resubmit {
            let pick = self.below(self.sent.len());
            let (key, body) = self.sent[pick];
            return (key, body, true);
        }
        if self.deck.is_empty() {
            self.deck = (0..pins::SERVE_DATASETS.len()).collect();
            for i in (1..self.deck.len()).rev() {
                let j = self.below(i + 1);
                self.deck.swap(i, j);
            }
        }
        let body = Body {
            dataset: self.deck.pop().expect("a refilled deck"),
            seed: self.below(pins::SERVE_SEEDS),
        };
        let key = self.sent.len();
        self.sent.push((key, body));
        (key, body, false)
    }
}

/// Checks one reply against its job; `Err` names the mismatch.
pub fn check_reply(job: &Planned, reply: &Json) -> Result<(usize, usize), String> {
    if reply.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("job k{} failed: {}", job.key, reply.to_json()));
    }
    let fingerprint = reply.get("fingerprint").and_then(Json::as_str);
    if fingerprint != Some(job.body.fingerprint()) {
        return Err(format!(
            "job k{} ({}): fingerprint {:?}, pinned {}",
            job.key,
            pins::SERVE_DATASETS[job.body.dataset],
            fingerprint,
            job.body.fingerprint()
        ));
    }
    let journal = reply.get("journal").and_then(Json::as_str);
    let expected = if job.resubmit { "resumed" } else { "fresh" };
    if journal != Some(expected) {
        return Err(format!(
            "job k{}: journal {journal:?}, expected {expected:?}",
            job.key
        ));
    }
    let rows = reply.get("answered").and_then(Json::as_usize).unwrap_or(0)
        + reply.get("failed").and_then(Json::as_usize).unwrap_or(0);
    let replayed = reply.get("replayed").and_then(Json::as_usize).unwrap_or(0);
    Ok((rows, replayed))
}

/// What one tenant thread saw in one phase.
#[derive(Debug, Default)]
pub struct PhaseLog {
    pub outcomes: Vec<Outcome>,
    pub problems: Vec<String>,
    /// Jobs sent but not yet answered when the phase's schedule ended.
    pub backlog_at_end: usize,
    /// Wall seconds from the phase start to the tenant's last reply.
    pub span_s: f64,
    /// Every frame sent and reply received, for the wire-format pass.
    pub frames: Vec<String>,
}

/// Shared across tenant threads: jobs in flight, and the most seen.
#[derive(Debug, Default)]
pub struct Backlog {
    pub now: AtomicUsize,
    pub max: AtomicUsize,
}

/// Runs one tenant's schedule for one phase open-loop on `conn`: send
/// each frame when due, read replies as they arrive, then wait for the
/// stragglers.
pub fn run_phase(
    conn: &mut Conn,
    jobs: &[Planned],
    length: Duration,
    backlog: &Backlog,
    keep_frames: bool,
    spans: Option<&Spans>,
) -> PhaseLog {
    let mut log = PhaseLog::default();
    let start = Instant::now();
    let mut in_flight: VecDeque<(Planned, Instant, Instant, f64)> = VecDeque::new();
    let mut next = 0;
    let mut end_counted = false;
    loop {
        let now = Instant::now();
        let elapsed = now - start;
        if !end_counted && elapsed >= length {
            log.backlog_at_end = in_flight.len();
            end_counted = true;
        }
        if next < jobs.len() && elapsed >= jobs[next].due {
            let job = jobs[next].clone();
            let due = start + job.due;
            let frame = job.body.frame(job.tenant, job.key);
            if let Err(e) = conn.send(&frame) {
                log.problems.push(e);
                break;
            }
            if keep_frames {
                log.frames.push(frame);
            }
            let sent = Instant::now();
            let lag_ms = (sent - due).as_secs_f64() * 1e3;
            in_flight.push_back((job, due, sent, lag_ms));
            let depth = backlog.now.fetch_add(1, Ordering::Relaxed) + 1;
            backlog.max.fetch_max(depth, Ordering::Relaxed);
            next += 1;
            continue;
        }
        if next >= jobs.len() && in_flight.is_empty() {
            break;
        }
        let wait = if next < jobs.len() {
            (start + jobs[next].due).saturating_duration_since(Instant::now())
        } else if elapsed < length + DRAIN_LIMIT {
            (start + length + DRAIN_LIMIT).saturating_duration_since(Instant::now())
        } else {
            for (job, ..) in in_flight.drain(..) {
                log.problems
                    .push(format!("job k{}: no reply within the drain limit", job.key));
            }
            break;
        };
        match conn.recv(wait) {
            Ok(Some(line)) => {
                let replied = Instant::now();
                backlog.now.fetch_sub(1, Ordering::Relaxed);
                let Some((job, due, sent, lag_ms)) = in_flight.pop_front() else {
                    log.problems.push(format!("unsolicited reply: {line}"));
                    continue;
                };
                if let Some(spans) = spans {
                    spans.record("core.serve.job", sent, replied, job.key as u64);
                }
                let mut outcome = Outcome {
                    resubmit: job.resubmit,
                    latency_ms: (replied - due).as_secs_f64() * 1e3,
                    lag_ms,
                    ok: false,
                    shed: false,
                    rows: 0,
                    replayed: 0,
                };
                match Json::parse(&line) {
                    Ok(reply) => {
                        outcome.shed = reply.get("rejected").is_some();
                        match check_reply(&job, &reply) {
                            Ok((rows, replayed)) => {
                                outcome.ok = true;
                                outcome.rows = rows;
                                outcome.replayed = replayed;
                            }
                            Err(e) => log.problems.push(e),
                        }
                    }
                    Err(e) => log.problems.push(format!("malformed reply {line:?}: {e}")),
                }
                if keep_frames {
                    log.frames.push(line);
                }
                log.outcomes.push(outcome);
                log.span_s = (replied - start).as_secs_f64();
            }
            Ok(None) => {}
            Err(e) => {
                log.problems.push(e);
                break;
            }
        }
    }
    log
}
