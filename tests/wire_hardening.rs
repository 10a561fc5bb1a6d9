//! Hostile-wire tests: a daemon with tight [`WireLimits`] survives
//! oversized frames, binary garbage, torn frames, byte-at-a-time slow
//! loris writers, and silent clients — each violation costs the offending
//! connection only, and the daemon keeps serving everyone else. At the
//! default limits, a frame nested far past the JSON depth cap is a
//! structured error rather than a stack overflow, and replies never stall
//! on Nagle's algorithm against a client's delayed ACK.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use llm_data_preprocessors::core::serve::{roundtrip, Daemon, JobScheduler};
use llm_data_preprocessors::core::{JobOutcome, TenantLedger, WireLimits};
use llm_data_preprocessors::obs::Json;

/// A trivial handler — the hostile clients below never get far enough to
/// invoke it, and the sanity pings don't submit.
fn noop_daemon_with(wire: WireLimits) -> Daemon {
    Daemon::bind(
        "127.0.0.1:0",
        JobScheduler::new(TenantLedger::new()),
        Arc::new(|_body: &Json, _grant| Ok(JobOutcome::default())),
    )
    .expect("bind")
    .with_wire_limits(wire)
}

fn noop_daemon() -> Daemon {
    noop_daemon_with(WireLimits {
        max_frame_bytes: 1024,
        frame_secs: 1.0,
        idle_secs: 1.5,
        write_secs: 5.0,
    })
}

fn ping() -> Json {
    Json::Obj(vec![("op".to_string(), Json::Str("ping".to_string()))])
}

fn shutdown(addr: SocketAddr) {
    let (mut stream, mut reader) = connect(addr);
    roundtrip(
        &mut stream,
        &mut reader,
        &Json::Obj(vec![("op".to_string(), Json::Str("shutdown".to_string()))]),
    )
    .expect("shutdown");
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// The daemon is alive and answering: a fresh connection's ping succeeds.
fn assert_serving(addr: SocketAddr) {
    let (mut stream, mut reader) = connect(addr);
    let reply = roundtrip(&mut stream, &mut reader, &ping()).expect("ping roundtrip");
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        reply.to_json()
    );
}

/// Reads one reply line, tolerating the client-side poll timeout.
fn read_line(reader: &mut BufReader<TcpStream>, deadline_secs: f64) -> String {
    let deadline = Instant::now() + Duration::from_secs_f64(deadline_secs);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => panic!("connection closed before a reply arrived"),
            Ok(_) => return line,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                assert!(
                    Instant::now() < deadline,
                    "no reply within {deadline_secs}s"
                );
            }
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

/// Reads until EOF, asserting the peer closes within `deadline_secs`.
fn assert_closed(reader: &mut BufReader<TcpStream>, deadline_secs: f64) {
    let deadline = Instant::now() + Duration::from_secs_f64(deadline_secs);
    let mut buf = [0u8; 256];
    loop {
        match reader.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                assert!(
                    Instant::now() < deadline,
                    "connection not closed within {deadline_secs}s"
                );
            }
            Err(_) => return, // reset counts as closed
        }
    }
}

#[test]
fn hostile_clients_cost_their_own_connection_only() {
    let daemon = noop_daemon();
    let addr = daemon.local_addr();

    std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());
        assert_serving(addr);

        // 1. An oversized NDJSON line: answered with an error naming the
        // limit, then the connection closes.
        let (mut stream, mut reader) = connect(addr);
        let mut oversized = vec![b'a'; 4096];
        oversized.push(b'\n');
        stream.write_all(&oversized).expect("write oversized");
        let reply = read_line(&mut reader, 5.0);
        assert!(reply.contains("frame limit"), "{reply}");
        assert_closed(&mut reader, 5.0);
        assert_serving(addr);

        // 2. Binary garbage (invalid UTF-8): named error, then close.
        let (mut stream, mut reader) = connect(addr);
        stream
            .write_all(b"{\"op\"\xff\xfe\xfd\n")
            .expect("write garbage");
        let reply = read_line(&mut reader, 5.0);
        assert!(reply.contains("not valid UTF-8"), "{reply}");
        assert_closed(&mut reader, 5.0);
        assert_serving(addr);

        // 3. A half-written frame followed by a disconnect: no reply owed,
        // the connection thread just ends.
        let (mut stream, reader) = connect(addr);
        stream.write_all(b"{\"op\":\"pi").expect("write torn");
        drop(reader);
        drop(stream);
        assert_serving(addr);

        // 4. A slow loris: one byte every 250ms never completes a frame
        // within the 1s frame clock — which starts at the first byte and
        // never resets on progress.
        let (mut stream, mut reader) = connect(addr);
        for byte in b"{\"op\":\"ping\"}" {
            if stream.write_all(&[*byte]).is_err() {
                break; // the daemon already gave up on us, as it should
            }
            std::thread::sleep(Duration::from_millis(250));
        }
        let reply = read_line(&mut reader, 5.0);
        assert!(reply.contains("not completed within"), "{reply}");
        assert_closed(&mut reader, 5.0);
        assert_serving(addr);

        // 5. A silent client: connects, writes nothing. The idle clock
        // closes it without a reply.
        let (stream, mut reader) = connect(addr);
        assert_closed(&mut reader, 5.0);
        drop(stream);
        assert_serving(addr);

        // 6. Malformed JSON and empty lines are answered on the same
        // connection, which stays open for a well-formed follow-up.
        let (mut stream, mut reader) = connect(addr);
        stream.write_all(b"not json at all\n").expect("write junk");
        let reply = read_line(&mut reader, 5.0);
        assert!(reply.contains("malformed request"), "{reply}");
        let reply = roundtrip(&mut stream, &mut reader, &ping()).expect("recovered roundtrip");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));

        // Clean shutdown still works after all of the above.
        let reply = roundtrip(
            &mut stream,
            &mut reader,
            &Json::Obj(vec![("op".to_string(), Json::Str("shutdown".to_string()))]),
        )
        .expect("shutdown roundtrip");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
        server.join().unwrap().expect("daemon exits cleanly");
    });
}

/// A request that stays within the limits is unaffected by them: the
/// boundary case of a frame exactly at `max_frame_bytes` still parses.
#[test]
fn frames_at_the_limit_still_serve() {
    let daemon = noop_daemon();
    let addr = daemon.local_addr();

    std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());

        // Pad a ping up to exactly 1024 bytes (the limit, newline excluded).
        let base = "{\"op\":\"ping\",\"pad\":\"";
        let close = "\"}";
        let pad = 1024 - base.len() - close.len();
        let request = format!("{base}{}{close}", "x".repeat(pad));
        assert_eq!(request.len(), 1024);

        let (mut stream, mut reader) = connect(addr);
        stream.write_all(request.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("newline");
        let reply = read_line(&mut reader, 5.0);
        assert!(reply.contains("\"pong\""), "{reply}");

        // One byte more sheds.
        let (mut stream2, mut reader2) = connect(addr);
        let too_big = format!("{base}{}{close}", "x".repeat(pad + 1));
        stream2.write_all(too_big.as_bytes()).expect("write");
        stream2.write_all(b"\n").expect("newline");
        let reply = read_line(&mut reader2, 5.0);
        assert!(reply.contains("frame limit"), "{reply}");

        shutdown(addr);
        server.join().unwrap().expect("daemon exits cleanly");
    });
}

/// 200,000 `[` bytes fit under the default 256 KiB frame cap. Unbounded
/// recursion in the decoder would overflow the connection thread's stack
/// and abort the whole daemon; the depth cap turns the frame into the
/// usual "malformed request" reply, and the daemon keeps serving.
#[test]
fn deeply_nested_frame_is_a_structured_error() {
    let wire = WireLimits::default();
    let max_frame_bytes = wire.max_frame_bytes;
    let daemon = noop_daemon_with(wire);
    let addr = daemon.local_addr();

    std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());

        let mut frame = vec![b'['; 200_000];
        assert!(frame.len() <= max_frame_bytes);
        frame.push(b'\n');
        let (mut stream, mut reader) = connect(addr);
        stream.write_all(&frame).expect("write nested frame");
        let reply = Json::parse(read_line(&mut reader, 5.0).trim()).expect("structured reply");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
        let error = reply.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(
            error.starts_with("malformed request") && error.contains("nesting"),
            "{error}"
        );

        // Another connection is unaffected, and so is this one.
        assert_serving(addr);
        let reply = roundtrip(&mut stream, &mut reader, &ping()).expect("same connection");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));

        shutdown(addr);
        server.join().unwrap().expect("daemon exits cleanly");
    });
}

fn median_ms(mut samples: Vec<Duration>) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// Replies leave the daemon as soon as they are ready. A reply written in
/// two pieces, or held by Nagle's algorithm behind an unacknowledged
/// earlier reply, waits for the client's delayed ACK — about 40 ms on
/// Linux — while a loopback ping takes well under 1 ms. The client keeps
/// default socket options (no `TCP_NODELAY`, no quick-ack) and never splits
/// a frame across writes, like a plain NDJSON client.
#[test]
fn replies_do_not_stall_on_delayed_acks() {
    let daemon = noop_daemon_with(WireLimits::default());
    let addr = daemon.local_addr();
    let frame = format!("{}\n", ping().to_json());

    // Measure inside the scope, assert after it: a failed assertion while
    // the daemon still runs would leave the scope waiting on it forever.
    let (closed, pipelined) = std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());
        let (mut stream, mut reader) = connect(addr);

        // Closed loop: one frame outstanding.
        let mut closed = Vec::new();
        for _ in 0..21 {
            let sent = Instant::now();
            stream.write_all(frame.as_bytes()).expect("send ping");
            read_line(&mut reader, 5.0);
            closed.push(sent.elapsed());
        }

        // Pipelined: two frames in flight at once, sent together so both
        // reach the daemon before its first reply leaves. The second reply
        // is then written while the first is still unacknowledged, which
        // Nagle's algorithm holds back unless the socket is `TCP_NODELAY`.
        // (Sending each frame on the previous reply cannot show this: that
        // frame carries the ACK the held reply waits for.)
        let pair = frame.repeat(2);
        let mut pipelined = Vec::new();
        for _ in 0..10 {
            let sent = Instant::now();
            stream.write_all(pair.as_bytes()).expect("send pings");
            for _ in 0..2 {
                read_line(&mut reader, 5.0);
                pipelined.push(sent.elapsed());
            }
        }

        shutdown(addr);
        server.join().unwrap().expect("daemon exits cleanly");
        (closed, pipelined)
    });

    let (closed_ms, pipelined_ms) = (median_ms(closed), median_ms(pipelined));
    assert!(closed_ms < 20.0, "closed-loop median {closed_ms:.2} ms");
    assert!(pipelined_ms < 20.0, "pipelined median {pipelined_ms:.2} ms");
}
