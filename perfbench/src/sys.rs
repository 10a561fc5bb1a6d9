//! Operating-system probes the standard library does not expose: per-thread
//! and per-process CPU clocks, readiness waits on a socket, and the
//! `/proc` counters of another process. Linux only.

use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const POLLIN: i16 = 0x1;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Blocks until `socket` has bytes to read or `timeout` passes; true when
/// readable (or hung up, which a read then reports).
///
/// The open-loop client waits here between sends, so the wait must end on
/// time. `TcpStream::set_read_timeout` is not used: the kernel keeps
/// `SO_RCVTIMEO` in scheduler ticks, each wait overshoots by a tick or
/// more, and sends then leave late enough to shift every job latency measured
/// from its due time. `ppoll` takes a nanosecond timeout.
pub fn wait_readable(socket: &impl AsRawFd, timeout: Duration) -> bool {
    let mut fd = PollFd {
        fd: socket.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: one valid pollfd, a valid timeout, and no signal mask.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    rc > 0
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MB; 0 when unavailable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds of process `pid`, from `/proc/<pid>/stat`
/// (clock-tick resolution); 0 when unavailable.
pub fn process_cpu_secs_of(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // `after` starts at field 3 (state), so utime (14) is index 11.
    (ticks(11) + ticks(12)) / 100.0
}
