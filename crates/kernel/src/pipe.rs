//! Pipes: the kernel buffer behind `pipe(2)` and the `splice(2)` fast path.
//!
//! CNTR uses pipes twice: the pseudo-TTY forwards shell I/O through them
//! (paper §3.2.4) and the splice-read optimization moves file data "from the
//! source file descriptor into a kernel pipe buffer and then to the
//! destination file descriptor" without copying through userspace (§3.3).

use cntr_types::{Errno, SysResult};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Default pipe capacity (64 KiB, as on Linux).
pub const PIPE_CAPACITY: usize = 64 * 1024;

#[derive(Debug)]
struct PipeState {
    buf: VecDeque<u8>,
    read_closed: bool,
    write_closed: bool,
}

impl PipeState {
    /// How many bytes a read of up to `max` takes now: 0 at EOF, `EAGAIN`
    /// while empty with the write end open.
    fn readable(&self, max: usize) -> SysResult<usize> {
        if self.buf.is_empty() && !self.write_closed {
            return Err(Errno::EAGAIN);
        }
        Ok(self.buf.len().min(max))
    }

    /// Moves the first `out.len()` buffered bytes into `out`, a slice at a
    /// time (a byte-wise drain costs several times more host time).
    fn take_front(&mut self, out: &mut [u8]) {
        let n = out.len();
        let (front, back) = self.buf.as_slices();
        let k = front.len().min(n);
        out[..k].copy_from_slice(&front[..k]);
        out[k..].copy_from_slice(&back[..n - k]);
        self.buf.drain(..n);
    }
}

/// A unidirectional in-kernel byte buffer.
///
/// Non-blocking semantics only: the simulation has no blocked threads, so a
/// full pipe returns `EAGAIN` and an empty one returns `EAGAIN` until the
/// write side closes (then reads return 0 = EOF). Event loops poll readiness
/// through [`Pollable`].
#[derive(Debug)]
pub struct Pipe {
    capacity: usize,
    state: Mutex<PipeState>,
}

impl Pipe {
    /// Creates a pipe with the default capacity.
    pub fn new() -> Arc<Pipe> {
        Pipe::with_capacity(PIPE_CAPACITY)
    }

    /// Creates a pipe with an explicit capacity.
    pub fn with_capacity(capacity: usize) -> Arc<Pipe> {
        Arc::new(Pipe {
            capacity,
            state: Mutex::new_class(
                "kernel.pipe",
                PipeState {
                    buf: VecDeque::new(),
                    read_closed: false,
                    write_closed: false,
                },
            ),
        })
    }

    /// Writes as many bytes as fit; `EPIPE` if the read end is gone,
    /// `EAGAIN` if full.
    pub fn write(&self, data: &[u8]) -> SysResult<usize> {
        let mut st = self.state.lock();
        if st.read_closed {
            return Err(Errno::EPIPE);
        }
        // `unread` push-back can leave the buffer transiently over capacity.
        let room = self.capacity.saturating_sub(st.buf.len());
        if room == 0 {
            return Err(Errno::EAGAIN);
        }
        let n = room.min(data.len());
        st.buf.extend(&data[..n]);
        Ok(n)
    }

    /// Puts bytes back at the *front* of the buffer, undoing a read. This
    /// is the `splice` push-back path: when the destination accepts fewer
    /// bytes than were staged out of the source, the remainder returns
    /// here instead of being dropped. May leave the buffer transiently
    /// over capacity (only ever with bytes that were just drained from
    /// it), which `write` tolerates.
    pub fn unread(&self, data: &[u8]) {
        let mut st = self.state.lock();
        for &b in data.iter().rev() {
            st.buf.push_front(b);
        }
    }

    /// Reads up to `buf.len()` bytes; 0 means EOF (write end closed and
    /// drained), `EAGAIN` means nothing available yet.
    pub fn read(&self, buf: &mut [u8]) -> SysResult<usize> {
        let mut st = self.state.lock();
        let n = st.readable(buf.len())?;
        st.take_front(&mut buf[..n]);
        Ok(n)
    }

    /// Drains up to `max` bytes into a buffer sized to what was queued
    /// (the `splice` staging path); an empty vector means EOF, `EAGAIN`
    /// means nothing available yet.
    pub fn read_up_to(&self, max: usize) -> SysResult<Vec<u8>> {
        let mut st = self.state.lock();
        let mut out = vec![0u8; st.readable(max)?];
        st.take_front(&mut out);
        Ok(out)
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.state.lock().buf.len()
    }

    /// True if no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free space.
    pub fn room(&self) -> usize {
        self.capacity.saturating_sub(self.len())
    }

    /// Nominal capacity (`F_GETPIPE_SZ`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Closes the write end.
    pub fn close_write(&self) {
        self.state.lock().write_closed = true;
    }

    /// Closes the read end.
    pub fn close_read(&self) {
        self.state.lock().read_closed = true;
    }

    /// True once the write end is closed.
    pub fn write_closed(&self) -> bool {
        self.state.lock().write_closed
    }
}

/// Readiness interface used by [`crate::epoll`].
pub trait Pollable: Send + Sync {
    /// Data can be read (or EOF/peer-hangup is observable).
    fn poll_readable(&self) -> bool;
    /// A write would not block: it would take at least one byte, or
    /// fail at once because the reading side is gone (Linux reports
    /// `EPOLLOUT` for a Unix socket whose peer closed, `EPOLLERR` for a
    /// pipe without readers), so a writer parked on it wakes to its
    /// error.
    fn poll_writable(&self) -> bool;
    /// The other side is gone.
    fn poll_hangup(&self) -> bool;
}

impl Pollable for Pipe {
    fn poll_readable(&self) -> bool {
        let st = self.state.lock();
        !st.buf.is_empty() || st.write_closed
    }

    fn poll_writable(&self) -> bool {
        let st = self.state.lock();
        st.read_closed || st.buf.len() < self.capacity
    }

    fn poll_hangup(&self) -> bool {
        let st = self.state.lock();
        st.read_closed || (st.write_closed && st.buf.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read() {
        let p = Pipe::new();
        assert_eq!(p.write(b"hello").unwrap(), 5);
        let mut buf = [0u8; 8];
        assert_eq!(p.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(p.read(&mut buf), Err(Errno::EAGAIN));
    }

    #[test]
    fn capacity_limits_writes() {
        let p = Pipe::with_capacity(4);
        assert_eq!(p.write(b"abcdef").unwrap(), 4);
        assert_eq!(p.write(b"x"), Err(Errno::EAGAIN));
        let mut buf = [0u8; 2];
        p.read(&mut buf).unwrap();
        assert_eq!(p.write(b"xy").unwrap(), 2);
    }

    #[test]
    fn eof_after_write_close() {
        let p = Pipe::new();
        p.write(b"last").unwrap();
        p.close_write();
        let mut buf = [0u8; 8];
        assert_eq!(p.read(&mut buf).unwrap(), 4);
        assert_eq!(p.read(&mut buf).unwrap(), 0, "EOF");
    }

    #[test]
    fn reads_keep_order_across_the_ring_wrap() {
        // Pushing bytes back in front of a fresh buffer wraps the ring,
        // so the queued bytes sit in two slices; both read paths must
        // return them in order.
        for staged in [false, true] {
            let p = Pipe::new();
            p.write(b"cdefg").unwrap();
            p.unread(b"ab");
            let got = if staged {
                p.read_up_to(5).unwrap()
            } else {
                let mut buf = [0u8; 5];
                let n = p.read(&mut buf).unwrap();
                buf[..n].to_vec()
            };
            assert_eq!(got, b"abcde");
            p.close_write();
            assert_eq!(p.read_up_to(64).unwrap(), b"fg");
            assert_eq!(p.read_up_to(64), Ok(Vec::new()), "EOF");
        }
        assert_eq!(Pipe::new().read_up_to(64), Err(Errno::EAGAIN));
    }

    #[test]
    fn epipe_after_read_close() {
        let p = Pipe::new();
        p.close_read();
        assert_eq!(p.write(b"x"), Err(Errno::EPIPE));
    }

    #[test]
    fn pollable_states() {
        let p = Pipe::with_capacity(2);
        assert!(!p.poll_readable());
        assert!(p.poll_writable());
        p.write(b"ab").unwrap();
        assert!(p.poll_readable());
        assert!(!p.poll_writable(), "full pipe is not writable");
        p.close_write();
        assert!(p.poll_readable(), "EOF counts as readable");
        p.close_read();
        assert!(p.poll_writable(), "a write without readers fails at once");
    }
}
