//! A minimal `io_uring`: one `io_uring_enter` submits a batch of splices.
//!
//! An epoll loop that forwards with `splice(2)` pays one system call per
//! forwarded message. Linux's answer to per-operation syscall cost is
//! io_uring, and since Linux 5.7 it carries `IORING_OP_SPLICE`: a loop
//! fills one submission-queue entry per ready connection and enters the
//! kernel once for all of them. The attach plane
//! (`cntr_core::EventLoop`) forwards that way.
//!
//! Only what the plane uses is modelled:
//!
//! * [`Kernel::io_uring_setup`] installs a ring descriptor
//!   ([`FileKind::IoUring`]) in the
//!   caller's fd table, its submission queue rounded up to a power of two
//!   as Linux does;
//! * [`Kernel::io_uring_enter`] runs every [`Sqe`] in submission order and
//!   returns each completion in the same order. Virtual time never
//!   blocks, so an enter completes its whole batch before it returns:
//!   there is no SQPOLL thread, no linked or drained SQEs, no fixed files
//!   and no completion queue to reap separately.
//!
//! [`Sqe::Splice`] is the one operation. It runs the very body of
//! [`Kernel::splice`] with `SPLICE_F_NONBLOCK` semantics: `EAGAIN` on an
//! empty source or a full destination, short counts, and `0` at EOF are
//! the results `splice` returns.
//!
//! # Cost
//!
//! An enter charges one `syscall_ns`; each SQE charges what its splice
//! moved (`COST.splice(n)`), as `splice` does. A batch of one therefore
//! costs exactly one `splice`. The ring's per-SQE bookkeeping (filling an
//! SQE, posting a CQE, moving the ring heads) is unmodelled.

use crate::kernel::Kernel;
use crate::process::{FdEntry, FileKind, OpenFile};
use cntr_types::{Errno, OpenFlags, Pid, SysResult};
use parking_lot::Mutex;
use std::sync::Arc;

/// Most submission-queue entries a ring may have (Linux's
/// `IORING_MAX_ENTRIES`).
pub const MAX_ENTRIES: u32 = 32768;

/// One submission-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sqe {
    /// `IORING_OP_SPLICE`: moves up to `len` bytes from `fd_in` to
    /// `fd_out`, both descriptors of the entering process.
    Splice {
        /// Source descriptor.
        fd_in: u32,
        /// Destination descriptor.
        fd_out: u32,
        /// Most bytes to move.
        len: usize,
    },
}

impl Kernel {
    /// `io_uring_setup(2)`: creates a ring whose submission queue holds
    /// `entries` SQEs, rounded up to a power of two, and returns its
    /// descriptor. `EINVAL` for 0 or more than [`MAX_ENTRIES`].
    pub fn io_uring_setup(&self, pid: Pid, entries: u32) -> SysResult<u32> {
        self.charge_syscall();
        if entries == 0 || entries > MAX_ENTRIES {
            return Err(Errno::EINVAL);
        }
        let entries = entries.next_power_of_two() as usize;
        self.with_proc_mut(pid, |p| {
            Ok(p.install_fd(FdEntry {
                file: Arc::new(OpenFile {
                    kind: FileKind::IoUring { entries },
                    flags: OpenFlags::RDWR,
                    offset: Mutex::new_class("kernel.fd_offset", 0),
                }),
                cloexec: false,
            }))
        })
    }

    /// `io_uring_enter(2)`: submits `sqes` on `ring` and waits for all of
    /// them, returning one completion per SQE in submission order. One
    /// system call, however many SQEs. `EBADF` if `ring` is not open,
    /// `EOPNOTSUPP` if it is not a ring, `EINVAL` if the batch is larger
    /// than the ring's submission queue.
    pub fn io_uring_enter(
        &self,
        pid: Pid,
        ring: u32,
        sqes: &[Sqe],
    ) -> SysResult<Vec<SysResult<usize>>> {
        self.charge_syscall();
        let entries = self.with_proc(pid, |p| {
            match &p.fds.get(&ring).ok_or(Errno::EBADF)?.file.kind {
                FileKind::IoUring { entries } => Ok(*entries),
                _ => Err(Errno::EOPNOTSUPP),
            }
        })?;
        if sqes.len() > entries {
            return Err(Errno::EINVAL);
        }
        Ok(sqes
            .iter()
            .map(|sqe| match *sqe {
                Sqe::Splice { fd_in, fd_out, len } => self.splice_body(pid, fd_in, fd_out, len),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelConfig;
    use cntr_fs::memfs::memfs;
    use cntr_types::{DevId, SimClock, COST};

    fn kernel() -> Kernel {
        let clock = SimClock::new();
        let fs = memfs(DevId(1), clock.clone());
        Kernel::with_clock(clock, fs, KernelConfig::default())
    }

    fn splice(fd_in: u32, fd_out: u32) -> Sqe {
        Sqe::Splice {
            fd_in,
            fd_out,
            len: 64 * 1024,
        }
    }

    #[test]
    fn setup_rounds_entries_up_and_refuses_zero() {
        let k = kernel();
        assert_eq!(k.io_uring_setup(Pid::INIT, 0), Err(Errno::EINVAL));
        assert_eq!(
            k.io_uring_setup(Pid::INIT, MAX_ENTRIES + 1),
            Err(Errno::EINVAL)
        );
        let ring = k.io_uring_setup(Pid::INIT, 3).unwrap();
        let (a, _b) = k.socketpair(Pid::INIT).unwrap();
        let (c, _d) = k.socketpair(Pid::INIT).unwrap();
        // Three entries round up to four.
        let four = [splice(a, c); 4];
        assert_eq!(k.io_uring_enter(Pid::INIT, ring, &four).unwrap().len(), 4);
        assert_eq!(
            k.io_uring_enter(Pid::INIT, ring, &[splice(a, c); 5]),
            Err(Errno::EINVAL)
        );
        // A descriptor that is not a ring.
        assert_eq!(k.io_uring_enter(Pid::INIT, a, &[]), Err(Errno::EOPNOTSUPP));
        assert_eq!(k.io_uring_enter(Pid::INIT, 999, &[]), Err(Errno::EBADF));
        // A ring does no I/O of its own.
        let mut buf = [0u8; 4];
        assert_eq!(k.read_fd(Pid::INIT, ring, &mut buf), Err(Errno::EINVAL));
    }

    #[test]
    fn one_enter_charges_one_syscall_and_what_each_sqe_moved() {
        let k = kernel();
        let ring = k.io_uring_setup(Pid::INIT, 8).unwrap();
        let (a, b) = k.socketpair(Pid::INIT).unwrap();
        let (c, d) = k.socketpair(Pid::INIT).unwrap();
        let (e, f) = k.socketpair(Pid::INIT).unwrap();
        k.write_fd(Pid::INIT, a, &[1u8; 5000]).unwrap();
        k.write_fd(Pid::INIT, c, &[2u8; 100]).unwrap();
        k.write_fd(Pid::INIT, e, b"bye").unwrap();
        k.shutdown_write(Pid::INIT, e).unwrap();
        let (g, _h) = k.socketpair(Pid::INIT).unwrap();
        let before = k.clock().now();
        // b → g moves 5000 bytes, d → g 100, f → g the three bytes queued
        // ahead of EOF; b, now empty, gives EAGAIN.
        let got = k
            .io_uring_enter(
                Pid::INIT,
                ring,
                &[splice(b, g), splice(d, g), splice(f, g), splice(b, g)],
            )
            .unwrap();
        assert_eq!(got, vec![Ok(5000), Ok(100), Ok(3), Err(Errno::EAGAIN)]);
        assert_eq!(
            (k.clock().now() - before).as_nanos(),
            COST.syscall_ns + COST.splice(5000) + COST.splice(100) + COST.splice(3)
        );
        // The source at EOF now reads 0, as `splice` returns.
        assert_eq!(
            k.io_uring_enter(Pid::INIT, ring, &[splice(f, g)]).unwrap(),
            vec![Ok(0)]
        );
    }

    #[test]
    fn a_batch_of_one_costs_what_splice_costs() {
        for batched in [false, true] {
            let k = kernel();
            let ring = k.io_uring_setup(Pid::INIT, 1).unwrap();
            let (a, b) = k.socketpair(Pid::INIT).unwrap();
            let (c, d) = k.socketpair(Pid::INIT).unwrap();
            k.write_fd(Pid::INIT, a, &[9u8; 4096]).unwrap();
            let before = k.clock().now();
            let moved = if batched {
                k.io_uring_enter(Pid::INIT, ring, &[splice(b, c)]).unwrap()[0]
            } else {
                k.splice(Pid::INIT, b, c, 64 * 1024)
            };
            assert_eq!(moved, Ok(4096));
            assert_eq!(
                (k.clock().now() - before).as_nanos(),
                COST.syscall_ns + COST.splice(4096),
                "batched: {batched}"
            );
            let mut buf = [0u8; 8192];
            assert_eq!(k.read_fd(Pid::INIT, d, &mut buf), Ok(4096));
        }
    }

    #[test]
    fn a_full_destination_pushes_the_rest_back() {
        let k = kernel();
        let ring = k.io_uring_setup(Pid::INIT, 2).unwrap();
        let (a, b) = k.socketpair(Pid::INIT).unwrap();
        let (c, d) = k.socketpair(Pid::INIT).unwrap();
        // Fill c's send buffer so the splice into it is short, then EAGAIN.
        let mut filled = 0;
        while let Ok(n) = k.write_fd(Pid::INIT, c, &[0u8; 4096]) {
            filled += n;
        }
        k.write_fd(Pid::INIT, a, b"stays queued").unwrap();
        assert_eq!(
            k.io_uring_enter(Pid::INIT, ring, &[splice(b, c)]).unwrap(),
            vec![Err(Errno::EAGAIN)]
        );
        // Nothing was lost: the source still holds every byte.
        assert!(k.poll_fd(Pid::INIT, b).unwrap().readable);
        let mut buf = vec![0u8; filled];
        assert_eq!(k.read_fd(Pid::INIT, d, &mut buf), Ok(filled));
        assert_eq!(
            k.io_uring_enter(Pid::INIT, ring, &[splice(b, c)]).unwrap(),
            vec![Ok(12)]
        );
    }
}
