//! Pipes: the kernel buffer behind `pipe(2)` and the `splice(2)` fast path.
//!
//! CNTR uses pipes twice: the pseudo-TTY forwards shell I/O through them
//! (paper §3.2.4) and the splice-read optimization moves file data "from the
//! source file descriptor into a kernel pipe buffer and then to the
//! destination file descriptor" without copying through userspace (§3.3).
//! Each direction of a Unix stream socket is a pipe too.
//!
//! # Segments
//!
//! A pipe queues its bytes as owned segments of at most one page each, as
//! Linux queues a pipe's bytes in its `pipe_buffer` ring and an AF_UNIX
//! stream's in a queue of `skb`s. A write first fills the tail segment's
//! spare room (growing it, never past a page) and then appends new
//! segments; a read copies out of the head and frees every segment it
//! empties. A pipe therefore holds memory only for the bytes in flight: an
//! empty pipe holds no segment, so an idle connection pins nothing of its
//! largest message. The `core.pipe.buffer-bytes` gauge sums the segment
//! memory of all live pipes.
//!
//! `splice` moves whole segments by reference, in three steps that each
//! take one pipe lock, never two at once: `Pipe::take` detaches them
//! from the source, `Pipe::put` links what fits onto the destination,
//! and `Pipe::push_front` returns the rest to the source. Only the
//! segment that runs past the byte limit or the destination's room is
//! split, by copying the part in front of the cut.

use cntr_types::cost::PAGE_SIZE;
use cntr_types::{Errno, SysResult};
use obs::{LazyGauge, Subsystem};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Default pipe capacity (64 KiB, as on Linux).
pub const PIPE_CAPACITY: usize = 64 * 1024;

// Segment memory (allocated capacity, not queued length) of all live pipes.
static OBS_BUFFER_BYTES: LazyGauge = LazyGauge::new(Subsystem::Core, "core.pipe.buffer-bytes");

/// At most one page of queued bytes: `buf[head..]`; the bytes before
/// `head` have been read.
#[derive(Debug)]
struct Segment {
    buf: Vec<u8>,
    head: usize,
}

impl Segment {
    /// A segment holding a copy of `data` (at most a page), sized to it.
    fn copy_of(data: &[u8]) -> Segment {
        let buf = data.to_vec();
        OBS_BUFFER_BYTES.add(buf.capacity() as i64);
        Segment { buf, head: 0 }
    }

    fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[self.head..]
    }

    /// Appends as much of `data` as fits below a page and returns how
    /// much it took. The allocation grows geometrically up to a page, so
    /// a run of small writes fills one segment per page.
    fn fill(&mut self, data: &[u8]) -> usize {
        let k = data.len().min(PAGE_SIZE - self.buf.len());
        let cap = self.buf.capacity();
        let need = self.buf.len() + k;
        if need > cap {
            self.buf
                .reserve_exact(need.max(2 * cap).min(PAGE_SIZE) - self.buf.len());
            OBS_BUFFER_BYTES.add((self.buf.capacity() - cap) as i64);
        }
        self.buf.extend_from_slice(&data[..k]);
        k
    }

    /// Splits off the first `n` (fewer than `len`) bytes as a segment of
    /// their own; this one keeps the rest and its allocation.
    fn split_front(&mut self, n: usize) -> Segment {
        let front = Segment::copy_of(&self.bytes()[..n]);
        self.head += n;
        front
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        OBS_BUFFER_BYTES.add(-(self.buf.capacity() as i64));
    }
}

/// Queued bytes as segments, in order: a pipe's buffer, and a splice's
/// bytes between [`Pipe::take`] and [`Pipe::put`].
#[derive(Debug, Default)]
pub(crate) struct Segments {
    queue: VecDeque<Segment>,
    len: usize,
}

impl Segments {
    /// Bytes queued.
    fn len(&self) -> usize {
        self.len
    }

    /// True if no bytes are queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a copy of `data`: the tail's spare room first, then new
    /// segments.
    fn write(&mut self, mut data: &[u8]) {
        self.len += data.len();
        if let Some(tail) = self.queue.back_mut() {
            data = &data[tail.fill(data)..];
        }
        self.queue
            .extend(data.chunks(PAGE_SIZE).map(Segment::copy_of));
    }

    /// Fills `out` from the front (`out.len()` is at most `len`), freeing
    /// each segment it empties.
    fn read(&mut self, out: &mut [u8]) {
        let mut done = 0;
        while done < out.len() {
            let head = self.queue.front_mut().expect("a read stays within len");
            let k = head.len().min(out.len() - done);
            out[done..done + k].copy_from_slice(&head.bytes()[..k]);
            head.head += k;
            done += k;
            if head.len() == 0 {
                self.queue.pop_front();
            }
        }
        self.len -= done;
        if self.queue.is_empty() {
            // Not even the segment ring outlives the last byte.
            self.queue = VecDeque::new();
        }
    }

    /// Detaches the segments that hold the first `n` (at most `len`)
    /// bytes, splitting the one that runs past `n`.
    fn split_to(&mut self, n: usize) -> Segments {
        if n == self.len {
            return std::mem::take(self);
        }
        let mut front = Segments::default();
        while front.len < n {
            let head = self.queue.front_mut().expect("a split stays within len");
            let seg = if head.len() <= n - front.len {
                self.queue.pop_front().expect("head exists")
            } else {
                head.split_front(n - front.len)
            };
            front.len += seg.len();
            front.queue.push_back(seg);
        }
        self.len -= n;
        front
    }

    /// Links `back`'s segments after this queue's tail.
    fn append(&mut self, mut back: Segments) {
        if self.queue.is_empty() {
            *self = back;
        } else {
            self.len += back.len;
            self.queue.append(&mut back.queue);
        }
    }
}

#[derive(Debug)]
struct PipeState {
    buf: Segments,
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

    /// How many bytes a write of `n` places now: `EPIPE` if the read end
    /// is gone, `EAGAIN` if full. A push-back can leave the buffer
    /// transiently over capacity, which counts as full.
    fn writable(&self, capacity: usize, n: usize) -> SysResult<usize> {
        if self.read_closed {
            return Err(Errno::EPIPE);
        }
        match capacity.saturating_sub(self.buf.len()) {
            0 => Err(Errno::EAGAIN),
            room => Ok(room.min(n)),
        }
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
                    buf: Segments::default(),
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
        let n = st.writable(self.capacity, data.len())?;
        st.buf.write(&data[..n]);
        Ok(n)
    }

    /// Reads up to `buf.len()` bytes; 0 means EOF (write end closed and
    /// drained), `EAGAIN` means nothing available yet.
    pub fn read(&self, buf: &mut [u8]) -> SysResult<usize> {
        let mut st = self.state.lock();
        let n = st.readable(buf.len())?;
        st.buf.read(&mut buf[..n]);
        Ok(n)
    }

    /// Splice, step one: detaches the segments holding up to `max` queued
    /// bytes, splitting the one that runs past `max`. Empty at EOF,
    /// `EAGAIN` while empty with the write end open.
    pub(crate) fn take(&self, max: usize) -> SysResult<Segments> {
        let mut st = self.state.lock();
        let n = st.readable(max)?;
        Ok(st.buf.split_to(n))
    }

    /// Splice, step two: links as many of `segs`' bytes as there is room
    /// for onto the tail, splitting the segment that runs past the room;
    /// the rest stays in `segs`. Fails as [`write`](Pipe::write) does.
    pub(crate) fn put(&self, segs: &mut Segments) -> SysResult<usize> {
        let mut st = self.state.lock();
        let n = st.writable(self.capacity, segs.len())?;
        st.buf.append(segs.split_to(n));
        Ok(n)
    }

    /// Splice, step three: returns segments that were taken from this
    /// pipe but not placed back to its front, in order, so a destination
    /// that accepts less drops nothing. May leave the buffer transiently
    /// over capacity (only ever with bytes just taken from it), which
    /// writes treat as full.
    pub(crate) fn push_front(&self, mut segs: Segments) {
        let mut st = self.state.lock();
        segs.append(std::mem::take(&mut st.buf));
        st.buf = segs;
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
    use proptest::prelude::*;

    impl Pipe {
        /// Segment memory this pipe holds (capacity of its segments).
        fn held(&self) -> usize {
            let st = self.state.lock();
            st.buf.queue.iter().map(|s| s.buf.capacity()).sum()
        }

        /// Number of segments queued.
        fn segments(&self) -> usize {
            self.state.lock().buf.queue.len()
        }

        /// Address of the head segment's allocation.
        fn head_ptr(&self) -> Option<*const u8> {
            self.state.lock().buf.queue.front().map(|s| s.buf.as_ptr())
        }
    }

    /// One `splice` step as `Kernel::splice_body` runs it: take, put,
    /// push back the rest.
    fn splice(src: &Pipe, dst: &Pipe, max: usize) -> SysResult<usize> {
        let mut segs = src.take(max)?;
        if segs.is_empty() {
            return Ok(0);
        }
        let put = dst.put(&mut segs);
        if !segs.is_empty() {
            src.push_front(segs);
        }
        put
    }

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
    fn pushed_back_segments_read_in_order() {
        // Segments taken off the front and pushed back come out first,
        // in order, through both read paths.
        for spliced in [false, true] {
            let p = Pipe::new();
            p.write(b"abcdefg").unwrap();
            let segs = p.take(2).unwrap();
            assert_eq!(segs.len(), 2);
            p.push_front(segs);
            let got = if spliced {
                let q = Pipe::new();
                assert_eq!(splice(&p, &q, 5), Ok(5));
                let mut buf = [0u8; 8];
                let n = q.read(&mut buf).unwrap();
                buf[..n].to_vec()
            } else {
                let mut buf = [0u8; 5];
                let n = p.read(&mut buf).unwrap();
                buf[..n].to_vec()
            };
            assert_eq!(got, b"abcde");
            p.close_write();
            let mut buf = [0u8; 64];
            assert_eq!(p.read(&mut buf), Ok(2));
            assert_eq!(&buf[..2], b"fg");
            assert!(p.take(64).unwrap().is_empty(), "EOF");
        }
        assert_eq!(Pipe::new().take(64).map(|s| s.len()), Err(Errno::EAGAIN));
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

    #[test]
    fn memory_is_held_only_for_bytes_in_flight() {
        let p = Pipe::new();
        assert_eq!(p.held(), 0);
        let msg = vec![7u8; 6000];
        p.write(&msg).unwrap();
        assert_eq!((p.segments(), p.held()), (2, 6000), "a page, then the rest");
        let mut buf = vec![0u8; 5000];
        p.read(&mut buf).unwrap();
        assert_eq!(p.segments(), 1, "the emptied head page is freed");
        p.read(&mut buf).unwrap();
        assert_eq!(
            (p.segments(), p.held()),
            (0, 0),
            "an empty pipe holds nothing"
        );
    }

    #[test]
    fn small_writes_fill_one_segment_per_page() {
        let p = Pipe::new();
        for i in 0..3 * PAGE_SIZE + 1 {
            p.write(&[i as u8]).unwrap();
        }
        assert_eq!(p.segments(), 4);
        assert!(p.held() <= 4 * PAGE_SIZE);
    }

    #[test]
    fn splice_moves_segments_by_reference() {
        let (a, b) = (Pipe::new(), Pipe::new());
        a.write(&[1u8; 3000]).unwrap();
        let page = a.head_ptr().unwrap();
        assert_eq!(splice(&a, &b, PIPE_CAPACITY), Ok(3000));
        assert_eq!(
            b.head_ptr(),
            Some(page),
            "the spliced segment kept its allocation"
        );
        assert_eq!((a.held(), b.held()), (0, 3000));

        // Into a destination with room for 1000 bytes: the segment is cut
        // there; the part after the cut goes back to the source in its
        // own allocation.
        let c = Pipe::with_capacity(1000);
        assert_eq!(splice(&b, &c, PIPE_CAPACITY), Ok(1000));
        assert_eq!(b.head_ptr(), Some(page));
        assert_eq!((b.len(), c.len()), (2000, 1000));
        assert_eq!(splice(&b, &c, PIPE_CAPACITY), Err(Errno::EAGAIN));
        assert_eq!(b.len(), 2000, "a refused splice drops nothing");
    }

    /// The pipe as it was before segments: one byte queue, kept here as
    /// the reference the segment pipe must match result for result.
    struct RefPipe {
        capacity: usize,
        buf: VecDeque<u8>,
        read_closed: bool,
        write_closed: bool,
    }

    impl RefPipe {
        fn new(capacity: usize) -> RefPipe {
            RefPipe {
                capacity,
                buf: VecDeque::new(),
                read_closed: false,
                write_closed: false,
            }
        }

        fn write(&mut self, data: &[u8]) -> SysResult<usize> {
            if self.read_closed {
                return Err(Errno::EPIPE);
            }
            let room = self.capacity.saturating_sub(self.buf.len());
            if room == 0 {
                return Err(Errno::EAGAIN);
            }
            let n = room.min(data.len());
            self.buf.extend(&data[..n]);
            Ok(n)
        }

        fn read_up_to(&mut self, max: usize) -> SysResult<Vec<u8>> {
            if self.buf.is_empty() && !self.write_closed {
                return Err(Errno::EAGAIN);
            }
            let n = self.buf.len().min(max);
            Ok(self.buf.drain(..n).collect())
        }

        fn unread(&mut self, data: &[u8]) {
            for &b in data.iter().rev() {
                self.buf.push_front(b);
            }
        }

        /// Splice as a staged copy: read, write, push back the rest.
        fn splice_to(&mut self, dst: &mut RefPipe, max: usize) -> SysResult<usize> {
            let staged = self.read_up_to(max)?;
            if staged.is_empty() {
                return Ok(0);
            }
            match dst.write(&staged) {
                Ok(w) => {
                    self.unread(&staged[w..]);
                    Ok(w)
                }
                Err(e) => {
                    self.unread(&staged);
                    Err(e)
                }
            }
        }

        fn readiness(&self) -> (usize, usize, bool, bool, bool) {
            let empty = self.buf.is_empty();
            (
                self.buf.len(),
                self.capacity.saturating_sub(self.buf.len()),
                !empty || self.write_closed,
                self.read_closed || self.buf.len() < self.capacity,
                self.read_closed || (self.write_closed && empty),
            )
        }
    }

    fn readiness(p: &Pipe) -> (usize, usize, bool, bool, bool) {
        (
            p.len(),
            p.room(),
            p.poll_readable(),
            p.poll_writable(),
            p.poll_hangup(),
        )
    }

    #[derive(Debug, Clone)]
    enum Op {
        Write { pipe: usize, len: usize },
        Read { pipe: usize, max: usize },
        Splice { from: usize, max: usize },
        CloseWrite { pipe: usize },
        CloseRead { pipe: usize },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..2, 1usize..=70 * 1024).prop_map(|(pipe, len)| Op::Write { pipe, len }),
            (0usize..2, 1usize..=300).prop_map(|(pipe, len)| Op::Write { pipe, len }),
            (0usize..2, 1usize..=70 * 1024).prop_map(|(pipe, max)| Op::Read { pipe, max }),
            // The pty's line reader takes one byte at a time.
            (0usize..2, 1usize..=1).prop_map(|(pipe, max)| Op::Read { pipe, max }),
            (0usize..2, 1usize..=70 * 1024).prop_map(|(from, max)| Op::Splice { from, max }),
            (0usize..2, 1usize..=5000).prop_map(|(from, max)| Op::Splice { from, max }),
            (0usize..2).prop_map(|pipe| Op::CloseWrite { pipe }),
            (0usize..2).prop_map(|pipe| Op::CloseRead { pipe }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn segment_pipe_matches_a_byte_queue(
            caps in (0usize..4, 0usize..4),
            ops in proptest::collection::vec(op_strategy(), 1..80),
        ) {
            // Small capacities make full destinations (push-back) common;
            // the 64 KiB default is the socket's.
            let sizes = [1usize, 7, 5000, PIPE_CAPACITY];
            let caps = [sizes[caps.0], sizes[caps.1]];
            let pipes = [Pipe::with_capacity(caps[0]), Pipe::with_capacity(caps[1])];
            let mut refs = [RefPipe::new(caps[0]), RefPipe::new(caps[1])];
            let mut next = 0u8;
            for op in &ops {
                match *op {
                    Op::Write { pipe, len } => {
                        let data: Vec<u8> = (0..len)
                            .map(|_| {
                                next = next.wrapping_add(1);
                                next
                            })
                            .collect();
                        let want = refs[pipe].write(&data);
                        prop_assert_eq!(pipes[pipe].write(&data), want, "{:?}", op);
                    }
                    Op::Read { pipe, max } => {
                        let want = refs[pipe].read_up_to(max);
                        let mut buf = vec![0u8; max];
                        let got = pipes[pipe].read(&mut buf).map(|n| buf[..n].to_vec());
                        prop_assert_eq!(got, want, "{:?}", op);
                    }
                    Op::Splice { from, max } => {
                        let (src, dst) = (from, 1 - from);
                        let [r0, r1] = &mut refs;
                        let want = if src == 0 {
                            r0.splice_to(r1, max)
                        } else {
                            r1.splice_to(r0, max)
                        };
                        prop_assert_eq!(splice(&pipes[src], &pipes[dst], max), want, "{:?}", op);
                    }
                    Op::CloseWrite { pipe } => {
                        refs[pipe].write_closed = true;
                        pipes[pipe].close_write();
                    }
                    Op::CloseRead { pipe } => {
                        refs[pipe].read_closed = true;
                        pipes[pipe].close_read();
                    }
                }
                for (p, r) in pipes.iter().zip(&refs) {
                    prop_assert_eq!(readiness(p), r.readiness(), "after {:?}", op);
                    prop_assert_eq!(p.segments() == 0, p.is_empty());
                    if p.is_empty() {
                        prop_assert_eq!(p.held(), 0, "an empty pipe holds memory after {:?}", op);
                    }
                }
            }
            // Whatever is queued reads back in the reference's order.
            for (p, r) in pipes.iter().zip(refs.iter_mut()) {
                let want = r.read_up_to(usize::MAX).unwrap_or_default();
                let mut buf = vec![0u8; p.len()];
                let n = p.read(&mut buf).unwrap_or(0);
                prop_assert_eq!(&buf[..n], &want[..]);
            }
        }
    }
}
