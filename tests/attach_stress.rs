//! Attach-plane scale stress: one epoll event loop multiplexing a
//! thousand concurrent attach sessions (ISSUE acceptance gate).
//!
//! One kernel, the full four-engine matrix, one shared `Cntr` — hence
//! one shared attach plane. Every session runs its own container,
//! registers a pty pair, and forwards a socket from inside its nested
//! namespace to one shared host service. The test then streams over
//! every forwarded connection, injects the two classic per-session
//! faults — a dead upstream and a stalled reader — and asserts they
//! are invisible to the other sessions, that the plane's interest set
//! stays exactly proportional to live endpoints, that pipes and sockets
//! hold buffer memory only for the bytes in flight, and that teardown
//! returns the loop to empty.
//!
//! CI runs this in the release stress job under `--features lockdep`;
//! any lock-order violation or a lock held across the event-loop park
//! point panics the test. In debug (tier-1) the session count is
//! scaled down; the release run uses the full 1000.

use cntr::prelude::*;
use cntr::types::cost::PAGE_SIZE;
use std::sync::Arc;

/// Sessions per engine flavour. 250 × 4 = 1000 in release; debug
/// builds (tier-1's `cargo test -q`) run a reduced matrix.
const PER_ENGINE: usize = if cfg!(debug_assertions) { 25 } else { 250 };

const SVC_PATH: &str = "/run/stress-svc.sock";
const DEAD_PATH: &str = "/run/nobody-listens.sock";

fn host_with_tools() -> Kernel {
    let kernel = boot_host(SimClock::new());
    for tool in ["ls", "cat", "tee", "hostname"] {
        let path = format!("/usr/bin/{tool}");
        let fd = kernel
            .open(Pid::INIT, &path, OpenFlags::create(), Mode::RWXR_XR_X)
            .unwrap();
        kernel.write_fd(Pid::INIT, fd, b"tool").unwrap();
        kernel.close(Pid::INIT, fd).unwrap();
        kernel.chmod(Pid::INIT, &path, Mode::RWXR_XR_X).unwrap();
    }
    kernel.setenv(Pid::INIT, "PATH", "/usr/bin").unwrap();
    kernel
}

fn app_image() -> Arc<cntr::engine::Image> {
    ImageBuilder::new("app", "slim")
        .layer("app")
        .binary("/usr/local/bin/app", 500_000, &[])
        .text("/etc/app.conf", "socket=/tmp/app.sock\n")
        .entrypoint("/usr/local/bin/app")
        .build()
}

/// Segment memory held by every live pipe and socket direction
/// (`core.pipe.buffer-bytes`; this file's one test is the only user of
/// its process's gauge).
fn pipe_bytes() -> usize {
    cntr::obs::gauge_value("core.pipe.buffer-bytes").unwrap_or(0) as usize
}

/// Asserts the live buffers hold at least the bytes of `messages` (one
/// queued per connection) and at most each rounded up to whole pages.
fn assert_in_flight(messages: &[Vec<u8>], what: &str) {
    let queued: usize = messages.iter().map(Vec::len).sum();
    let bound: usize = messages
        .iter()
        .map(|m| m.len().div_ceil(PAGE_SIZE) * PAGE_SIZE)
        .sum();
    let held = pipe_bytes();
    assert!(
        (queued..=bound).contains(&held),
        "{what}: {held} bytes held for {queued} queued (bound {bound})"
    );
}

/// Reads everything currently buffered on `fd` (stops on EAGAIN/EOF).
fn drain(kernel: &Kernel, pid: Pid, fd: u32) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    while let Ok(n) = kernel.read_fd(pid, fd, &mut buf) {
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    out
}

#[test]
fn thousand_sessions_share_one_plane() {
    let kernel = host_with_tools();
    let registry = Registry::new();
    registry.push(app_image());
    let runtimes = ContainerRuntime::matrix(kernel.clone(), registry);
    let total = PER_ENGINE * runtimes.len();

    // The one shared host service every session forwards to.
    let svc = kernel.bind_listener(Pid::INIT, SVC_PATH).unwrap();

    // ---- Launch: container + attach + forwarded socket, per session. ----
    let cntr = Cntr::new(kernel.clone());
    let mut sessions = Vec::with_capacity(total);
    for i in 0..total {
        let rt = &runtimes[i % runtimes.len()];
        let name = format!("c{i}");
        let c = rt.run(&name, "app:slim").unwrap();
        let session = cntr.attach(c.pid, CntrOptions::default()).unwrap();
        let proxy = session
            .forward_socket("/var/lib/cntr/tmp/app.sock", SVC_PATH)
            .unwrap();
        sessions.push((c, session, proxy));
    }
    let plane = cntr.plane().unwrap();
    // Every session shares the single plane.
    for (_, session, _) in &sessions {
        assert!(Arc::ptr_eq(session.plane(), &plane));
    }
    // Exactly one listener + one pty pair (two pipe ends) per session.
    assert_eq!(plane.endpoints(), 3 * total);
    assert_eq!(plane.interest_len().unwrap(), 3 * total);

    // ---- Connect: every app dials its own container's socket. ----
    let mut clients = Vec::with_capacity(total);
    for (c, _, _) in &sessions {
        clients.push(kernel.connect(c.pid, "/tmp/app.sock").unwrap());
    }
    plane.pump_until_quiet().unwrap();
    let mut host_conns = Vec::new();
    while let Ok(conn) = kernel.accept(Pid::INIT, svc) {
        host_conns.push(conn);
    }
    assert_eq!(host_conns.len(), total, "every session's dial was accepted");
    assert_eq!(plane.endpoints(), 3 * total + 2 * total);
    for (_, _, proxy) in &sessions {
        assert_eq!((proxy.connections(), proxy.accepted()), (1, 1));
    }

    // ---- Stream: request/response over every forwarded connection. ----
    // Segments move by reference from the client's socket to the host's,
    // so at every step the live buffers hold at most the queued bytes
    // rounded up to pages, and nothing once a round is drained.
    assert_eq!(pipe_bytes(), 0, "set-up left bytes queued");
    for round in 0..3 {
        let requests: Vec<Vec<u8>> = (0..total)
            .map(|i| format!("sess-{i}-round-{round}").into_bytes())
            .collect();
        for (i, (c, _, _)) in sessions.iter().enumerate() {
            kernel.write_fd(c.pid, clients[i], &requests[i]).unwrap();
        }
        assert_in_flight(&requests, &format!("round {round} requests sent"));
        plane.pump_until_quiet().unwrap();
        assert_in_flight(&requests, &format!("round {round} requests spliced"));
        // The host answers on whichever conn carried which payload, so
        // replies route back to the right session by construction.
        let mut replies = Vec::with_capacity(total);
        for conn in &host_conns {
            let req = drain(&kernel, Pid::INIT, *conn);
            assert!(!req.is_empty(), "round {round}: host saw no request");
            let mut reply = b"ok:".to_vec();
            reply.extend_from_slice(&req);
            replies.push(reply);
        }
        assert_eq!(
            pipe_bytes(),
            0,
            "round {round}: drained requests hold memory"
        );
        for (conn, reply) in host_conns.iter().zip(&replies) {
            kernel.write_fd(Pid::INIT, *conn, reply).unwrap();
        }
        plane.pump_until_quiet().unwrap();
        assert_in_flight(&replies, &format!("round {round} replies spliced"));
        for (i, (c, _, _)) in sessions.iter().enumerate() {
            let got = drain(&kernel, c.pid, clients[i]);
            let want = format!("ok:sess-{i}-round-{round}");
            assert_eq!(got, want.as_bytes(), "session {i} round {round}");
        }
        assert_eq!(
            pipe_bytes(),
            0,
            "round {round}: drained replies hold memory"
        );
    }

    // ---- Fault 1: a dead upstream on one session hurts only itself. ----
    let (victim_c, victim_s, _) = &sessions[0];
    let dead = victim_s
        .forward_socket("/var/lib/cntr/tmp/dead.sock", DEAD_PATH)
        .unwrap();
    let doomed = kernel.connect(victim_c.pid, "/tmp/dead.sock").unwrap();
    plane.pump_until_quiet().unwrap();
    assert_eq!(dead.dial_errors(), 1);
    assert_eq!(dead.connections(), 0);
    // The doomed client observes a closed peer...
    let mut buf = [0u8; 8];
    assert!(matches!(
        kernel.read_fd(victim_c.pid, doomed, &mut buf),
        Ok(0) | Err(_)
    ));
    // ...while the same session's healthy connection still round-trips.
    kernel
        .write_fd(victim_c.pid, clients[0], b"still-alive")
        .unwrap();
    plane.pump_until_quiet().unwrap();
    assert_eq!(drain(&kernel, Pid::INIT, host_conns[0]), b"still-alive");
    dead.unregister();

    // ---- Fault 2: a stalled reader parks only its own direction. ----
    // Session 1's host peer stops reading; the client pushes far more
    // than any buffer holds. The plane must park that direction and
    // keep every other session streaming.
    let stalled = 1usize;
    let payload: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
    let mut sent = 0usize;
    while sent < payload.len() {
        match kernel.write_fd(sessions[stalled].0.pid, clients[stalled], &payload[sent..]) {
            Ok(n) => sent += n,
            Err(_) => {
                // Client-side buffer full: the plane must drain what it
                // can (up to the parked direction) before more fits.
                plane.pump_until_quiet().unwrap();
                break;
            }
        }
        plane.pump_until_quiet().unwrap();
    }
    // Other sessions are untouched by the parked neighbour.
    for probe in [2usize, total / 2, total - 1] {
        let (c, _, _) = &sessions[probe];
        kernel.write_fd(c.pid, clients[probe], b"ping").unwrap();
        plane.pump_until_quiet().unwrap();
        assert_eq!(
            drain(&kernel, Pid::INIT, host_conns[probe]),
            b"ping",
            "session {probe} blocked behind a stalled neighbour"
        );
    }
    // The stalled host peer wakes up and drains; every byte arrives
    // intact and in order once the parked direction resumes.
    let mut received = Vec::new();
    loop {
        let chunk = drain(&kernel, Pid::INIT, host_conns[stalled]);
        // Finish the client's send once room frees up.
        while sent < payload.len() {
            match kernel.write_fd(sessions[stalled].0.pid, clients[stalled], &payload[sent..]) {
                Ok(n) => sent += n,
                Err(_) => break,
            }
        }
        let moved = plane.pump_until_quiet().unwrap();
        if chunk.is_empty() && moved == 0 && sent == payload.len() {
            break;
        }
        received.extend_from_slice(&chunk);
    }
    received.extend_from_slice(&drain(&kernel, Pid::INIT, host_conns[stalled]));
    assert_eq!(received, payload, "stalled session lost or reordered bytes");
    assert_eq!(pipe_bytes(), 0, "drained streams hold memory");

    // ---- Interest set stays bounded: nothing accumulated. ----
    assert_eq!(plane.endpoints(), 3 * total + 2 * total);
    assert_eq!(plane.interest_len().unwrap(), plane.endpoints());

    // ---- Teardown: close conns, detach everything, plane is empty. ----
    for (i, (c, _, _)) in sessions.iter().enumerate() {
        kernel.close(c.pid, clients[i]).unwrap();
        kernel.close(Pid::INIT, host_conns[i]).unwrap();
    }
    plane.pump_until_quiet().unwrap();
    for (_, _, proxy) in &sessions {
        assert_eq!(proxy.connections(), 0);
    }
    assert_eq!(plane.endpoints(), 3 * total);
    for (c, session, _) in sessions {
        session.detach().unwrap();
        drop(c);
    }
    assert_eq!(plane.endpoints(), 0, "plane must be empty after teardown");
    assert_eq!(plane.interest_len().unwrap(), 0);
    assert_eq!(pipe_bytes(), 0, "teardown left pipe memory behind");

    // Under `--features lockdep` (the CI stress job) any ordering
    // violation above would have panicked; the plane's classes must
    // also have been exercised and ranked. A plain release build compiles
    // the checker out, so there is no report to read.
    if cfg!(any(debug_assertions, feature = "lockdep")) {
        let report = lockdep::report();
        for class in [
            "core.attach.plane",
            "core.attach.proxies",
            "core.attach.loop-state",
        ] {
            assert!(
                report.classes.iter().any(|c| c.name == class),
                "lock class {class} never registered"
            );
        }
    }
}
