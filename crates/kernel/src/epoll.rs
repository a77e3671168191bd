//! `epoll`: readiness notification for event loops.
//!
//! CNTR's socket proxy "runs an efficient event loop based on epoll"
//! (paper §3.2.4). The simulation's epoll polls [`Pollable`] sources; since
//! virtual time never blocks, `wait` returns the currently-ready set.

use crate::pipe::Pollable;
use cntr_types::{Errno, IdMap, SysResult};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Event interest / readiness bits (subset of `EPOLLIN`/`EPOLLOUT`/...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Events {
    /// Readable (`EPOLLIN`).
    pub readable: bool,
    /// Writable (`EPOLLOUT`).
    pub writable: bool,
    /// Peer hangup (`EPOLLHUP`; always reported, as in Linux).
    pub hangup: bool,
}

impl Events {
    /// Interest in readability only.
    pub const IN: Events = Events {
        readable: true,
        writable: false,
        hangup: false,
    };

    /// Interest in writability only.
    pub const OUT: Events = Events {
        readable: false,
        writable: true,
        hangup: false,
    };

    /// Interest in both directions.
    pub const INOUT: Events = Events {
        readable: true,
        writable: true,
        hangup: false,
    };

    /// True if any bit is set.
    pub fn any(self) -> bool {
        self.readable || self.writable || self.hangup
    }
}

struct Watch {
    source: Arc<dyn Pollable>,
    interest: Events,
}

/// An epoll instance.
///
/// Readiness is level-triggered and computed on demand: there is no
/// ready list fed by wake-ups. [`Epoll::wait`] polls every watch, so a
/// wait costs O(watches) host time however few sources are ready.
///
/// Only the budgeted rotation matches Linux's `rdllist`: under a
/// `maxevents` budget, [`Epoll::wait_budget`] starts each sweep just past
/// the last token it served, so a hot low-numbered endpoint cannot starve
/// higher tokens when more sources are ready than the caller's per-wait
/// budget.
pub struct Epoll {
    watches: Mutex<IdMap<u64, Watch>>,
    /// Rotation cursor of the budgeted wait: the token after which the
    /// next sweep starts (wrapping). Relaxed is fine — it only steers
    /// fairness, never correctness.
    cursor: AtomicU64,
}

impl Default for Epoll {
    fn default() -> Epoll {
        Epoll {
            watches: Mutex::new_class("kernel.epoll.watches", IdMap::default()),
            cursor: AtomicU64::new(0),
        }
    }
}

impl Epoll {
    /// Creates an empty instance (`epoll_create1`).
    pub fn new() -> Arc<Epoll> {
        Arc::new(Epoll::default())
    }

    /// Registers a source under `token` (`EPOLL_CTL_ADD`).
    pub fn add(&self, token: u64, source: Arc<dyn Pollable>, interest: Events) -> SysResult<()> {
        let mut w = self.watches.lock();
        if w.contains_key(&token) {
            return Err(Errno::EEXIST);
        }
        w.insert(token, Watch { source, interest });
        Ok(())
    }

    /// Changes interest (`EPOLL_CTL_MOD`).
    pub fn modify(&self, token: u64, interest: Events) -> SysResult<()> {
        self.watches
            .lock()
            .get_mut(&token)
            .map(|w| w.interest = interest)
            .ok_or(Errno::ENOENT)
    }

    /// Unregisters (`EPOLL_CTL_DEL`).
    pub fn remove(&self, token: u64) -> SysResult<()> {
        self.watches
            .lock()
            .remove(&token)
            .map(|_| ())
            .ok_or(Errno::ENOENT)
    }

    /// Returns the tokens whose sources are ready, with their readiness.
    /// Hangup is reported regardless of interest, as in Linux.
    pub fn wait(&self) -> Vec<(u64, Events)> {
        let w = self.watches.lock();
        let mut ready: Vec<(u64, Events)> = w
            .iter()
            .filter_map(|(&token, watch)| {
                let ev = Events {
                    readable: watch.interest.readable && watch.source.poll_readable(),
                    writable: watch.interest.writable && watch.source.poll_writable(),
                    hangup: watch.source.poll_hangup(),
                };
                ev.any().then_some((token, ev))
            })
            .collect();
        ready.sort_unstable_by_key(|(t, _)| *t);
        ready
    }

    /// Budgeted wait (`epoll_wait` with `maxevents`): returns at most
    /// `max` ready events, serving the ready set round-robin across calls.
    /// The sweep starts just past the last token served by the previous
    /// budgeted wait and wraps, so every ready endpoint is reached within
    /// `ceil(ready / max)` sweeps no matter how hot its neighbours are.
    pub fn wait_budget(&self, max: usize) -> Vec<(u64, Events)> {
        let mut ready = self.wait();
        if ready.is_empty() || max == 0 {
            return Vec::new();
        }
        let cursor = self.cursor.load(Ordering::Relaxed);
        // First ready token strictly past the cursor (wrapping rotation).
        let start = ready.partition_point(|&(t, _)| t <= cursor) % ready.len();
        ready.rotate_left(start);
        ready.truncate(max);
        let last = ready.last().expect("non-empty checked").0;
        self.cursor.store(last, Ordering::Relaxed);
        ready
    }

    /// Number of registered watches.
    pub fn len(&self) -> usize {
        self.watches.lock().len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipe::Pipe;

    #[test]
    fn reports_readable_pipes() {
        let ep = Epoll::new();
        let p1 = Pipe::new();
        let p2 = Pipe::new();
        ep.add(1, p1.clone(), Events::IN).unwrap();
        ep.add(2, p2.clone(), Events::IN).unwrap();
        assert!(ep.wait().is_empty());
        p2.write(b"data").unwrap();
        let ready = ep.wait();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].0, 2);
        assert!(ready[0].1.readable);
    }

    #[test]
    fn interest_filtering() {
        let ep = Epoll::new();
        let p = Pipe::new();
        p.write(b"x").unwrap();
        ep.add(7, p.clone(), Events::OUT).unwrap();
        // Readable but we only asked for OUT: reported as writable only.
        let ready = ep.wait();
        assert_eq!(ready.len(), 1);
        assert!(!ready[0].1.readable);
        assert!(ready[0].1.writable);
        ep.modify(7, Events::INOUT).unwrap();
        assert!(ep.wait()[0].1.readable);
    }

    #[test]
    fn hangup_reported_without_interest() {
        let ep = Epoll::new();
        let p = Pipe::new();
        ep.add(1, p.clone(), Events::IN).unwrap();
        p.close_write();
        let ready = ep.wait();
        assert!(ready[0].1.hangup || ready[0].1.readable);
    }

    #[test]
    fn budgeted_wait_rotates_fairly() {
        let ep = Epoll::new();
        let pipes: Vec<_> = (0..4).map(|_| Pipe::new()).collect();
        for (i, p) in pipes.iter().enumerate() {
            p.write(b"x").unwrap();
            ep.add(i as u64, p.clone(), Events::IN).unwrap();
        }
        // Budget of 2 over 4 ready tokens: two sweeps cover everything,
        // and the second sweep starts where the first stopped.
        let first: Vec<u64> = ep.wait_budget(2).iter().map(|(t, _)| *t).collect();
        let second: Vec<u64> = ep.wait_budget(2).iter().map(|(t, _)| *t).collect();
        let mut all = [first, second].concat();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3], "every ready token served");
        // A third sweep wraps around rather than stalling.
        assert_eq!(ep.wait_budget(4).len(), 4);
    }

    #[test]
    fn add_remove_errors() {
        let ep = Epoll::new();
        let p = Pipe::new();
        ep.add(1, p.clone(), Events::IN).unwrap();
        assert_eq!(ep.add(1, p.clone(), Events::IN), Err(Errno::EEXIST));
        ep.remove(1).unwrap();
        assert_eq!(ep.remove(1), Err(Errno::ENOENT));
        assert!(ep.is_empty());
    }
}
