//! Unix-socket forwarding (paper §3.2.4).
//!
//! A socket file served through CntrFS has different inode numbers than the
//! real socket, so "the kernel does not associate them with open sockets in
//! the system" — `connect(2)` through the FUSE view fails. CNTR therefore
//! runs a proxy: it listens on a socket *inside* the application container,
//! connects to the real server in the debug container or on the host, and
//! moves bytes with an epoll event loop and `splice`.
//!
//! [`SocketProxy`] is a thin handle: the actual accepting, splicing,
//! backpressure, and teardown live in the shared attach-plane
//! [`EventLoop`], which multiplexes every proxy (and pty) of a plane
//! through one epoll instance. A proxy joins its plane's loop via
//! [`SocketProxy::on_plane`].

use crate::event_loop::{EventLoop, ProxyCore};
use cntr_types::{Pid, SysResult};
use std::sync::Arc;

/// A bidirectional Unix-socket forwarder registered on an attach plane.
pub struct SocketProxy {
    plane: Arc<EventLoop>,
    core: Arc<ProxyCore>,
    /// Path the proxy listens on (inside the app container).
    pub listen_path: String,
    /// Path of the real server socket (in the server namespace).
    pub target_path: String,
}

impl SocketProxy {
    /// Registers a forwarder on an existing plane: the listener is bound
    /// in `bind_pid`'s mount namespace (so in-container clients resolve
    /// it) and its fd is moved into the plane process, which owns every
    /// endpoint.
    pub fn on_plane(
        plane: &Arc<EventLoop>,
        bind_pid: Pid,
        connect_pid: Pid,
        listen_path: &str,
        target_path: &str,
    ) -> SysResult<Arc<SocketProxy>> {
        let k = plane.kernel();
        let bound = k.bind_listener(bind_pid, listen_path)?;
        let listener_fd = if bind_pid == plane.pid() {
            bound
        } else {
            let moved = k.send_fd(bind_pid, bound, plane.pid())?;
            k.close(bind_pid, bound)?;
            moved
        };
        let core = plane.register_listener(listener_fd, connect_pid, target_path)?;
        Ok(Arc::new(SocketProxy {
            plane: Arc::clone(plane),
            core,
            listen_path: listen_path.to_string(),
            target_path: target_path.to_string(),
        }))
    }

    /// The event loop this proxy is registered on.
    pub fn plane(&self) -> &Arc<EventLoop> {
        &self.plane
    }

    /// Number of live forwarded connections.
    pub fn connections(&self) -> usize {
        self.core.live()
    }

    /// Connections accepted over the proxy's lifetime.
    pub fn accepted(&self) -> u64 {
        self.core.counters.accepted.value()
    }

    /// Upstream dials that failed. Each failure closes only the affected
    /// client; the proxy keeps serving.
    pub fn dial_errors(&self) -> u64 {
        self.core.counters.dial_errors.value()
    }

    /// One iteration of the plane's event loop. Returns progress made
    /// (across *all* endpoints of the plane, not just this proxy).
    pub fn pump(&self) -> SysResult<usize> {
        self.plane.poll_once()
    }

    /// Pumps until no more progress is made (quiesces in-flight data).
    pub fn pump_until_quiet(&self) -> SysResult<usize> {
        self.plane.pump_until_quiet()
    }

    /// Deregisters the proxy from its plane: the listener and every
    /// forwarded pair leave the epoll interest set and their fds close.
    pub fn unregister(&self) {
        self.plane.remove_proxy(&self.core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntr_engine::runtime::boot_host;
    use cntr_types::SimClock;

    #[test]
    fn forwards_both_directions() {
        let k = boot_host(SimClock::new());
        // The "X11 server" listens on the host.
        let x11 = k.bind_listener(Pid::INIT, "/run/x11.sock").unwrap();
        let connect_pid = k.fork(Pid::INIT).unwrap();
        k.mkdir(Pid::INIT, "/app-run", cntr_types::Mode::RWXR_XR_X)
            .unwrap();
        // The plane process stands in for the attached cntr process.
        let plane = EventLoop::new(k.clone()).unwrap();
        let proxy = SocketProxy::on_plane(
            &plane,
            plane.pid(),
            connect_pid,
            "/app-run/x11.sock",
            "/run/x11.sock",
        )
        .unwrap();

        // An application client connects to the proxied socket.
        let app = k.fork(Pid::INIT).unwrap();
        let client_fd = k.connect(app, "/app-run/x11.sock").unwrap();
        proxy.pump().unwrap();
        assert_eq!(proxy.connections(), 1);

        // App → X11 server.
        k.write_fd(app, client_fd, b"CreateWindow").unwrap();
        proxy.pump_until_quiet().unwrap();
        let server_conn = k.accept(Pid::INIT, x11).unwrap();
        let mut buf = [0u8; 32];
        let n = k.read_fd(Pid::INIT, server_conn, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"CreateWindow");

        // X11 server → app.
        k.write_fd(Pid::INIT, server_conn, b"Expose").unwrap();
        proxy.pump_until_quiet().unwrap();
        let n = k.read_fd(app, client_fd, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"Expose");
    }

    #[test]
    fn connect_refused_without_listener() {
        let k = boot_host(SimClock::new());
        let connect_pid = k.fork(Pid::INIT).unwrap();
        let plane = EventLoop::new(k.clone()).unwrap();
        let proxy = SocketProxy::on_plane(
            &plane,
            plane.pid(),
            connect_pid,
            "/run/dead.sock",
            "/run/nothing-there.sock",
        )
        .unwrap();
        let app = k.fork(Pid::INIT).unwrap();
        let fd = k.connect(app, "/run/dead.sock").unwrap();
        // The failed upstream dial is absorbed: the pump keeps running
        // (reporting only the accept as progress), the client is
        // closed, and the failure is counted.
        assert_eq!(proxy.pump().unwrap(), 1);
        assert_eq!(proxy.connections(), 0);
        assert_eq!(proxy.dial_errors(), 1);
        // The client observes the refusal as EOF (closed fd), not a
        // wedged connection.
        let mut buf = [0u8; 4];
        assert!(matches!(k.read_fd(app, fd, &mut buf), Ok(0) | Err(_)));
        // The listener endpoint itself survives the failure.
        assert_eq!(proxy.plane().endpoints(), 1);
    }

    #[test]
    fn upstream_dead_then_revived_mid_session() {
        let k = boot_host(SimClock::new());
        // Fork every participant BEFORE binding the upstream listener, so
        // closing the host fd really is the last reference.
        let connect_pid = k.fork(Pid::INIT).unwrap();
        let app = k.fork(Pid::INIT).unwrap();
        let srv = k.bind_listener(Pid::INIT, "/run/db.sock").unwrap();
        let plane = EventLoop::new(k.clone()).unwrap();
        let proxy = SocketProxy::on_plane(
            &plane,
            plane.pid(),
            connect_pid,
            "/run/app.sock",
            "/run/db.sock",
        )
        .unwrap();

        // A healthy session streams.
        let c1 = k.connect(app, "/run/app.sock").unwrap();
        proxy.pump().unwrap();
        k.write_fd(app, c1, b"before").unwrap();
        proxy.pump_until_quiet().unwrap();
        let s1 = k.accept(Pid::INIT, srv).unwrap();
        let mut buf = [0u8; 16];
        let n = k.read_fd(Pid::INIT, s1, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"before");

        // The upstream dies: its listener closes and unbinds.
        k.close(Pid::INIT, srv).unwrap();
        let c2 = k.connect(app, "/run/app.sock").unwrap();
        proxy.pump_until_quiet().unwrap();
        assert_eq!(proxy.dial_errors(), 1);
        let _ = c2;
        // The established session is NOT collateral damage.
        assert_eq!(proxy.connections(), 1);
        k.write_fd(Pid::INIT, s1, b"still-on").unwrap();
        proxy.pump_until_quiet().unwrap();
        let n = k.read_fd(app, c1, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"still-on");

        // The upstream revives (the stale socket file must go first).
        k.unlink(Pid::INIT, "/run/db.sock").unwrap();
        let srv2 = k.bind_listener(Pid::INIT, "/run/db.sock").unwrap();
        let c3 = k.connect(app, "/run/app.sock").unwrap();
        proxy.pump().unwrap();
        assert_eq!(proxy.connections(), 2);
        k.write_fd(app, c3, b"revived").unwrap();
        proxy.pump_until_quiet().unwrap();
        let s3 = k.accept(Pid::INIT, srv2).unwrap();
        let n = k.read_fd(Pid::INIT, s3, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"revived");
    }

    #[test]
    fn half_close_with_pending_server_data() {
        let k = boot_host(SimClock::new());
        let srv = k.bind_listener(Pid::INIT, "/run/svc.sock").unwrap();
        let connect_pid = k.fork(Pid::INIT).unwrap();
        let plane = EventLoop::new(k.clone()).unwrap();
        let proxy = SocketProxy::on_plane(
            &plane,
            plane.pid(),
            connect_pid,
            "/run/in.sock",
            "/run/svc.sock",
        )
        .unwrap();
        let app = k.fork(Pid::INIT).unwrap();
        let c = k.connect(app, "/run/in.sock").unwrap();
        proxy.pump().unwrap();
        k.write_fd(app, c, b"QUERY").unwrap();
        proxy.pump_until_quiet().unwrap();
        let s = k.accept(Pid::INIT, srv).unwrap();
        let mut buf = [0u8; 16];
        let n = k.read_fd(Pid::INIT, s, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"QUERY");

        // The server queues its answer, then the client half-closes.
        k.write_fd(Pid::INIT, s, b"ANSWER").unwrap();
        k.shutdown_write(app, c).unwrap();
        proxy.pump_until_quiet().unwrap();
        // Forward direction: the server sees EOF after draining.
        assert_eq!(k.read_fd(Pid::INIT, s, &mut buf), Ok(0));
        // Reverse direction survived the half-close: the pending answer
        // still reaches the client.
        let n = k.read_fd(app, c, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"ANSWER");
        assert_eq!(proxy.connections(), 1, "pair lives until both drain");

        // Now the server closes too: the pair is torn down fully.
        k.close(Pid::INIT, s).unwrap();
        proxy.pump_until_quiet().unwrap();
        assert_eq!(k.read_fd(app, c, &mut buf), Ok(0));
        proxy.pump_until_quiet().unwrap();
        assert_eq!(proxy.connections(), 0);
    }

    #[test]
    fn connect_close_cycles_stay_bounded() {
        let k = boot_host(SimClock::new());
        let srv = k.bind_listener(Pid::INIT, "/run/cycle.sock").unwrap();
        let connect_pid = k.fork(Pid::INIT).unwrap();
        let plane = EventLoop::new(k.clone()).unwrap();
        let proxy = SocketProxy::on_plane(
            &plane,
            plane.pid(),
            connect_pid,
            "/run/cycle-in.sock",
            "/run/cycle.sock",
        )
        .unwrap();
        let app = k.fork(Pid::INIT).unwrap();
        for i in 0..64u32 {
            let c = k.connect(app, "/run/cycle-in.sock").unwrap();
            proxy.pump().unwrap();
            assert_eq!(proxy.connections(), 1, "cycle {i}");
            k.write_fd(app, c, b"ping").unwrap();
            proxy.pump_until_quiet().unwrap();
            let s = k.accept(Pid::INIT, srv).unwrap();
            let mut buf = [0u8; 8];
            assert_eq!(k.read_fd(Pid::INIT, s, &mut buf).unwrap(), 4);
            // Both application ends close; the loop must fully reclaim
            // the pair.
            k.close(Pid::INIT, s).unwrap();
            k.close(app, c).unwrap();
            proxy.pump_until_quiet().unwrap();
            assert_eq!(proxy.connections(), 0, "cycle {i}");
        }
        assert_eq!(proxy.accepted(), 64);
        // No leaked endpoints and no leaked epoll interest: just the
        // listener remains, regardless of how many pairs came and went.
        assert_eq!(proxy.plane().endpoints(), 1);
        assert_eq!(proxy.plane().interest_len().unwrap(), 1);
        // Fresh connections still work after all that churn.
        let _c = k.connect(app, "/run/cycle-in.sock").unwrap();
        proxy.pump().unwrap();
        assert_eq!(proxy.connections(), 1);
    }

    #[test]
    fn stalled_reader_parks_only_its_own_direction() {
        let k = boot_host(SimClock::new());
        let srv = k.bind_listener(Pid::INIT, "/run/slow.sock").unwrap();
        let connect_pid = k.fork(Pid::INIT).unwrap();
        let plane = EventLoop::new(k.clone()).unwrap();
        let proxy = SocketProxy::on_plane(
            &plane,
            plane.pid(),
            connect_pid,
            "/run/slow-in.sock",
            "/run/slow.sock",
        )
        .unwrap();
        let app = k.fork(Pid::INIT).unwrap();
        let c = k.connect(app, "/run/slow-in.sock").unwrap();
        proxy.pump().unwrap();
        let s = k.accept(Pid::INIT, srv).unwrap();

        // The server never reads. Push far more than one socket buffer
        // through: the proxy forwards what fits, parks, and resumes as
        // the reader drains — without dropping a byte.
        let payload: Vec<u8> = (0..400_000u32).map(|i| (i % 251) as u8).collect();
        let mut sent = 0;
        let mut received = Vec::new();
        let mut buf = vec![0u8; 64 * 1024];
        while sent < payload.len() || received.len() < payload.len() {
            if sent < payload.len() {
                if let Ok(n) = k.write_fd(app, c, &payload[sent..]) {
                    sent += n;
                }
            }
            proxy.pump_until_quiet().unwrap();
            // Drain slowly: one read per round trip.
            if let Ok(n) = k.read_fd(Pid::INIT, s, &mut buf) {
                received.extend_from_slice(&buf[..n]);
            }
        }
        assert_eq!(received, payload, "no bytes dropped or reordered");
    }
}
