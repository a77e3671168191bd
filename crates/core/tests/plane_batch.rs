//! The attach plane's batched forwarding against random schedules.
//!
//! The plane submits every forwarded direction a wait makes ready as one
//! splice SQE of one `io_uring_enter`, then applies each completion. The
//! property test drives 1–64 forwarded lanes through random schedules —
//! writes of 1 B to 200 KiB (a full 64 KiB completion is resubmitted),
//! partial drains that fill destinations and park directions,
//! `shutdown(SHUT_WR)` on either side, and upstream resets — and checks
//! that every byte arrives in order, that a half-close reaches the other
//! side, that the epoll interest set tracks the plane's endpoints after
//! every step, and that the plane is empty after teardown.
//!
//! Two fixed schedules pin the batch edges: both directions of one pair in
//! one submission, and a pair torn down by one completion while its
//! peer's completion is in the same batch.

use cntr_core::{EventLoop, SocketProxy};
use cntr_engine::runtime::boot_host;
use cntr_kernel::Kernel;
use cntr_types::{Errno, Pid, SimClock, COST};
use proptest::prelude::*;
use std::sync::Arc;

const APP: usize = 0;
const SVC: usize = 1;

/// Byte `i` of what `side` of lane `lane` sends: it depends on its
/// position, so a dropped, duplicated or reordered byte shows.
fn byte(lane: usize, side: usize, i: usize) -> u8 {
    ((i * 31 + lane * 7 + side * 3) % 251) as u8
}

fn stream(lane: usize, side: usize, from: usize, len: usize) -> Vec<u8> {
    (from..from + len).map(|i| byte(lane, side, i)).collect()
}

/// One end of a forwarded lane: the app's client socket or the service's
/// accepted one.
struct End {
    pid: Pid,
    fd: u32,
    /// Bytes this end has written.
    sent: usize,
    /// Bytes this end has read.
    got: Vec<u8>,
    /// This end shut its writing side down.
    shut: bool,
    /// A read returned end-of-stream.
    eof: bool,
    /// The fd is closed.
    closed: bool,
}

struct Lane {
    ends: [End; 2],
    /// The service closed its end outright.
    reset: bool,
}

struct World {
    k: Kernel,
    plane: Arc<EventLoop>,
    proxy: Arc<SocketProxy>,
    lanes: Vec<Lane>,
}

impl World {
    fn new(lanes: usize) -> World {
        let k = boot_host(SimClock::new());
        let srv = k.bind_listener(Pid::INIT, "/run/svc.sock").unwrap();
        let connect_pid = k.fork(Pid::INIT).unwrap();
        let app = k.fork(Pid::INIT).unwrap();
        let plane = EventLoop::new(k.clone()).unwrap();
        let proxy = SocketProxy::on_plane(
            &plane,
            plane.pid(),
            connect_pid,
            "/run/in.sock",
            "/run/svc.sock",
        )
        .unwrap();
        let clients: Vec<u32> = (0..lanes)
            .map(|_| k.connect(app, "/run/in.sock").unwrap())
            .collect();
        plane.pump_until_quiet().unwrap();
        let end = |pid, fd| End {
            pid,
            fd,
            sent: 0,
            got: Vec::new(),
            shut: false,
            eof: false,
            closed: false,
        };
        let lanes: Vec<Lane> = clients
            .into_iter()
            .map(|c| Lane {
                ends: [
                    end(app, c),
                    end(Pid::INIT, k.accept(Pid::INIT, srv).unwrap()),
                ],
                reset: false,
            })
            .collect();
        assert_eq!(proxy.connections(), lanes.len());
        World {
            k,
            plane,
            proxy,
            lanes,
        }
    }

    /// Writes up to `len` more bytes of `side`'s stream, turning the
    /// plane whenever the socket is full, until the plane stalls.
    fn write(&mut self, lane: usize, side: usize, len: usize) {
        let l = &self.lanes[lane];
        if l.reset || l.ends[side].shut {
            return;
        }
        let (pid, fd, from) = (l.ends[side].pid, l.ends[side].fd, l.ends[side].sent);
        let data = stream(lane, side, from, len);
        let mut done = 0;
        for _ in 0..64 {
            match self.k.write_fd(pid, fd, &data[done..]) {
                Ok(n) => done += n,
                Err(Errno::EAGAIN) => {}
                Err(e) => panic!("lane {lane} side {side}: write: {e:?}"),
            }
            if done == data.len() || self.plane.poll_once().unwrap() == 0 {
                break;
            }
        }
        self.lanes[lane].ends[side].sent += done;
    }

    /// Reads up to `max` bytes at `side`; `None` drains everything.
    fn drain(&mut self, lane: usize, side: usize, max: Option<usize>) -> usize {
        let end = &mut self.lanes[lane].ends[side];
        if end.closed || end.eof {
            return 0;
        }
        let mut buf = vec![0u8; 16 * 1024];
        let mut read = 0;
        while max.is_none_or(|m| read < m) {
            let want = max.map_or(buf.len(), |m| (m - read).min(buf.len()));
            match self.k.read_fd(end.pid, end.fd, &mut buf[..want]) {
                Ok(0) => {
                    end.eof = true;
                    break;
                }
                Ok(n) => {
                    end.got.extend_from_slice(&buf[..n]);
                    read += n;
                }
                Err(Errno::EAGAIN) => break,
                Err(e) => panic!("lane {lane} side {side}: read: {e:?}"),
            }
        }
        read
    }

    fn shutdown(&mut self, lane: usize, side: usize) {
        let l = &mut self.lanes[lane];
        if l.reset || l.ends[side].shut {
            return;
        }
        self.k
            .shutdown_write(l.ends[side].pid, l.ends[side].fd)
            .unwrap();
        l.ends[side].shut = true;
    }

    /// The service closes its end: the upstream connection resets.
    fn reset(&mut self, lane: usize) {
        let l = &mut self.lanes[lane];
        if l.reset {
            return;
        }
        self.k.close(Pid::INIT, l.ends[SVC].fd).unwrap();
        l.ends[SVC].closed = true;
        l.reset = true;
    }

    /// Pumps and drains every open end until nothing moves.
    fn settle(&mut self) {
        loop {
            let moved = self.plane.pump_until_quiet().unwrap();
            let mut read = 0;
            for lane in 0..self.lanes.len() {
                read += self.drain(lane, APP, None) + self.drain(lane, SVC, None);
            }
            if moved == 0 && read == 0 {
                return;
            }
        }
    }

    fn assert_interest_tracks_endpoints(&self) {
        assert_eq!(self.plane.interest_len().unwrap(), self.plane.endpoints());
    }

    /// Every byte sent arrived, in order; a half-close arrived as EOF.
    /// On a reset lane what arrived is a prefix of what was sent, and the
    /// app sees EOF.
    fn check_streams(&self) {
        for (i, l) in self.lanes.iter().enumerate() {
            for (from, to) in [(APP, SVC), (SVC, APP)] {
                let want = stream(i, from, 0, l.ends[from].sent);
                let got = &l.ends[to].got;
                if l.reset {
                    assert!(
                        want.starts_with(got),
                        "lane {i}: {from} → {to} out of order"
                    );
                } else {
                    assert_eq!(got.len(), want.len(), "lane {i}: {from} → {to} length");
                    assert!(*got == want, "lane {i}: {from} → {to} bytes differ");
                    assert_eq!(
                        l.ends[to].eof, l.ends[from].shut,
                        "lane {i}: {from} → {to} EOF"
                    );
                }
            }
            if l.reset {
                assert!(l.ends[APP].eof, "lane {i}: the app sees the reset as EOF");
            }
        }
    }

    /// Closes every end; the plane tears each pair down, then the proxy
    /// leaves it empty.
    fn teardown(mut self) {
        for l in &mut self.lanes {
            for end in l.ends.iter_mut().filter(|e| !e.closed) {
                self.k.close(end.pid, end.fd).unwrap();
                end.closed = true;
            }
        }
        self.plane.pump_until_quiet().unwrap();
        assert_eq!(self.proxy.connections(), 0);
        assert_eq!(self.plane.endpoints(), 1, "only the listener is left");
        self.assert_interest_tracks_endpoints();
        self.proxy.unregister();
        assert_eq!(self.plane.endpoints(), 0);
        assert_eq!(self.plane.interest_len().unwrap(), 0);
    }
}

#[derive(Debug, Clone)]
enum Op {
    Write {
        lane: usize,
        side: usize,
        len: usize,
    },
    Drain {
        lane: usize,
        side: usize,
        max: usize,
    },
    Poll,
    Quiet,
    Shutdown {
        lane: usize,
        side: usize,
    },
    Reset {
        lane: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let lane = 0usize..64;
    let side = 0usize..2;
    prop_oneof![
        (lane.clone(), side.clone(), 1usize..=200 * 1024).prop_map(|(lane, side, len)| Op::Write {
            lane,
            side,
            len
        }),
        // Small writes keep most rounds short of the 64 KiB chunk.
        (lane.clone(), side.clone(), 1usize..=6 * 1024).prop_map(|(lane, side, len)| Op::Write {
            lane,
            side,
            len
        }),
        (lane.clone(), side.clone(), 1usize..=96 * 1024).prop_map(|(lane, side, max)| Op::Drain {
            lane,
            side,
            max
        }),
        Just(Op::Poll),
        Just(Op::Quiet),
        (lane.clone(), side).prop_map(|(lane, side)| Op::Shutdown { lane, side }),
        lane.prop_map(|lane| Op::Reset { lane }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_byte_arrives_in_order_through_batched_splices(
        lanes in 1usize..=64,
        ops in proptest::collection::vec(op_strategy(), 1..48),
    ) {
        let mut w = World::new(lanes);
        for op in &ops {
            match *op {
                Op::Write { lane, side, len } => w.write(lane % lanes, side, len),
                Op::Drain { lane, side, max } => {
                    w.drain(lane % lanes, side, Some(max));
                }
                Op::Poll => {
                    w.plane.poll_once().unwrap();
                }
                Op::Quiet => {
                    w.plane.pump_until_quiet().unwrap();
                }
                Op::Shutdown { lane, side } => w.shutdown(lane % lanes, side),
                Op::Reset { lane } => w.reset(lane % lanes),
            }
            w.assert_interest_tracks_endpoints();
        }
        w.settle();
        w.check_streams();
        w.assert_interest_tracks_endpoints();
        w.teardown();
    }
}

/// Both directions of one pair are ready in one wait: one enter carries
/// both SQEs, so the round costs one wait, one enter and the two
/// messages' page remaps.
#[test]
fn both_directions_of_one_pair_share_one_enter() {
    let mut w = World::new(1);
    let (up, down) = (3000, 5000);
    let ends = &w.lanes[0].ends;
    w.k.write_fd(ends[APP].pid, ends[APP].fd, &stream(0, APP, 0, up))
        .unwrap();
    w.k.write_fd(ends[SVC].pid, ends[SVC].fd, &stream(0, SVC, 0, down))
        .unwrap();
    w.lanes[0].ends[APP].sent = up;
    w.lanes[0].ends[SVC].sent = down;
    let before = w.k.clock().now();
    assert_eq!(w.plane.poll_once().unwrap(), up + down);
    let (waits, enters) = (1, 1);
    assert_eq!(
        (w.k.clock().now() - before).as_nanos(),
        (waits + enters) * COST.syscall_ns + COST.splice(up as u64) + COST.splice(down as u64)
    );
    w.settle();
    w.check_streams();
    w.teardown();
}

/// One completion of a batch resets a pair (the upstream is gone) while
/// the same batch spliced the service's last words the other way: the
/// pair is torn down once, the peer's completion is ignored, and the
/// bytes already handed to the app still arrive, then EOF.
#[test]
fn a_pair_torn_down_mid_batch_ignores_its_peers_completion() {
    let mut w = World::new(3);
    let last_words = stream(1, SVC, 0, 700);
    {
        let ends = &w.lanes[1].ends;
        w.k.write_fd(ends[SVC].pid, ends[SVC].fd, &last_words)
            .unwrap();
    }
    w.lanes[1].ends[SVC].sent = last_words.len();
    // The app's bytes will meet a closed upstream in the same submission.
    w.write(1, APP, 900);
    w.reset(1);
    // The neighbours stream on in the same batches.
    w.write(0, APP, 4000);
    w.write(2, SVC, 4000);
    w.settle();
    w.check_streams();
    assert_eq!(w.lanes[1].ends[APP].got, last_words);
    assert_eq!(w.proxy.connections(), 2, "only the reset pair is gone");
    w.assert_interest_tracks_endpoints();
    w.teardown();
}

/// A direction parked on a full destination whose reader then closes
/// wakes (the destination reports writable: a write would fail at once),
/// gets `ECONNRESET` and takes the pair down, instead of keeping it
/// registered forever.
#[test]
fn a_parked_direction_whose_reader_leaves_is_torn_down() {
    let mut w = World::new(1);
    // The service never reads: the direction fills both socket buffers
    // and parks.
    w.write(0, APP, 200 * 1024);
    assert_eq!(w.lanes[0].ends[APP].sent, 128 * 1024);
    assert_eq!(w.proxy.connections(), 1);
    w.reset(0);
    w.plane.pump_until_quiet().unwrap();
    assert_eq!(w.proxy.connections(), 0);
    w.assert_interest_tracks_endpoints();
    w.teardown();
}
