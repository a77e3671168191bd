//! Unix domain stream sockets.
//!
//! CNTR's socket proxy (paper §3.2.4, "Unix socket forwarding") exists
//! because a Unix socket *file* visible through CntrFS has a different inode
//! than the real socket, so the kernel will not associate `connect()` on it
//! with the listening server. The proxy accepts connections inside the
//! application container and splices the bytes to the real server socket in
//! the debug container or on the host. These are the sockets it proxies.

use crate::pipe::{Pipe, Pollable};
use cntr_types::{Errno, SysResult};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// One established connection: a pair of directional byte streams.
#[derive(Debug)]
pub struct SocketConn {
    a_to_b: Arc<Pipe>,
    b_to_a: Arc<Pipe>,
}

/// Which side of a connection an endpoint holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    A,
    B,
}

/// One endpoint of an established Unix stream connection.
#[derive(Debug, Clone)]
pub struct SocketEnd {
    conn: Arc<SocketConn>,
    side: Side,
}

impl SocketEnd {
    /// Creates a connected socket pair (`socketpair(2)`).
    pub fn pair() -> (SocketEnd, SocketEnd) {
        let conn = Arc::new(SocketConn {
            a_to_b: Pipe::new(),
            b_to_a: Pipe::new(),
        });
        (
            SocketEnd {
                conn: Arc::clone(&conn),
                side: Side::A,
            },
            SocketEnd {
                conn,
                side: Side::B,
            },
        )
    }

    fn out_pipe(&self) -> &Arc<Pipe> {
        match self.side {
            Side::A => &self.conn.a_to_b,
            Side::B => &self.conn.b_to_a,
        }
    }

    fn in_pipe(&self) -> &Arc<Pipe> {
        match self.side {
            Side::A => &self.conn.b_to_a,
            Side::B => &self.conn.a_to_b,
        }
    }

    /// Sends bytes to the peer.
    pub fn send(&self, data: &[u8]) -> SysResult<usize> {
        self.out_pipe().write(data).map_err(|e| {
            if e == Errno::EPIPE {
                Errno::ECONNRESET
            } else {
                e
            }
        })
    }

    /// Receives bytes from the peer (0 = orderly shutdown).
    pub fn recv(&self, buf: &mut [u8]) -> SysResult<usize> {
        self.in_pipe().read(buf)
    }

    /// Receives up to `max` bytes into a buffer sized to what was queued
    /// (empty = orderly shutdown); see [`Pipe::read_up_to`].
    pub fn recv_up_to(&self, max: usize) -> SysResult<Vec<u8>> {
        self.in_pipe().read_up_to(max)
    }

    /// Shuts down this endpoint (both directions).
    pub fn shutdown(&self) {
        self.out_pipe().close_write();
        self.in_pipe().close_read();
    }

    /// `shutdown(SHUT_WR)`: closes the outbound direction only. The peer
    /// drains whatever is in flight and then reads EOF; this endpoint can
    /// still receive. This is how the attach plane propagates a
    /// half-close across a forwarded pair.
    pub fn shutdown_write(&self) {
        self.out_pipe().close_write();
    }

    /// Puts bytes back at the front of the receive queue, undoing a
    /// `recv` (the `splice` push-back path).
    pub fn unrecv(&self, data: &[u8]) {
        self.in_pipe().unread(data);
    }

    /// Bytes queued for reading.
    pub fn pending(&self) -> usize {
        self.in_pipe().len()
    }
}

impl Pollable for SocketEnd {
    fn poll_readable(&self) -> bool {
        self.in_pipe().poll_readable()
    }

    fn poll_writable(&self) -> bool {
        self.out_pipe().poll_writable()
    }

    fn poll_hangup(&self) -> bool {
        self.in_pipe().write_closed() && self.in_pipe().is_empty()
    }
}

/// A listening Unix socket bound to a filesystem path.
#[derive(Debug)]
pub struct SocketListener {
    /// The address it was bound to (diagnostics).
    pub path: String,
    backlog: Mutex<VecDeque<SocketEnd>>,
    closed: Mutex<bool>,
}

impl SocketListener {
    /// Creates a listener (the VFS creates the socket inode separately).
    pub fn new(path: &str) -> Arc<SocketListener> {
        Arc::new(SocketListener {
            path: path.to_string(),
            backlog: Mutex::new_class("kernel.socket.backlog", VecDeque::new()),
            closed: Mutex::new_class("kernel.socket.closed", false),
        })
    }

    /// Client side of `connect(2)`: enqueues one end, returns the other.
    pub fn connect(&self) -> SysResult<SocketEnd> {
        if *self.closed.lock() {
            return Err(Errno::ECONNREFUSED);
        }
        let (server, client) = SocketEnd::pair();
        self.backlog.lock().push_back(server);
        Ok(client)
    }

    /// Server side of `accept(2)`; `EAGAIN` when the backlog is empty.
    pub fn accept(&self) -> SysResult<SocketEnd> {
        self.backlog.lock().pop_front().ok_or(Errno::EAGAIN)
    }

    /// Stops accepting connections.
    pub fn close(&self) {
        *self.closed.lock() = true;
    }
}

impl Pollable for SocketListener {
    fn poll_readable(&self) -> bool {
        !self.backlog.lock().is_empty()
    }

    fn poll_writable(&self) -> bool {
        false
    }

    fn poll_hangup(&self) -> bool {
        *self.closed.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_talks_both_ways() {
        let (a, b) = SocketEnd::pair();
        a.send(b"ping").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(b.recv(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        b.send(b"pong").unwrap();
        assert_eq!(a.recv(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"pong");
    }

    #[test]
    fn listener_connect_accept() {
        let l = SocketListener::new("/run/x11.sock");
        assert_eq!(l.accept().map(|_| ()), Err(Errno::EAGAIN));
        let client = l.connect().unwrap();
        assert!(l.poll_readable());
        let server = l.accept().unwrap();
        client.send(b"hello x11").unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(server.recv(&mut buf).unwrap(), 9);
    }

    #[test]
    fn closed_listener_refuses() {
        let l = SocketListener::new("/sock");
        l.close();
        assert_eq!(l.connect().map(|_| ()), Err(Errno::ECONNREFUSED));
    }

    #[test]
    fn shutdown_propagates_to_peer() {
        let (a, b) = SocketEnd::pair();
        a.send(b"bye").unwrap();
        a.shutdown();
        let mut buf = [0u8; 8];
        assert_eq!(b.recv(&mut buf).unwrap(), 3);
        assert_eq!(b.recv(&mut buf).unwrap(), 0, "EOF after shutdown");
        assert!(b.poll_hangup());
        assert_eq!(b.send(b"x"), Err(Errno::ECONNRESET));
    }
}
