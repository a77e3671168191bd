//! The `core.cntrfs.anchors` and `core.cntrfs.name-hints` gauges against
//! the server they describe.
//!
//! Each remembered inode holds one `O_PATH` descriptor in the server
//! process, and at most one name hint points at it. After random LOOKUP /
//! FORGET / RENAME schedules, with renames by the host between them, the
//! anchors gauge, the server's live inodes and the descriptors the kernel
//! sees in the server process must all agree, and every hint must point at
//! a distinct live inode; once the server is gone both gauges are back to
//! zero. The gauges are machine-wide, so this binary holds this one test.

use cntr_core::CntrfsServer;
use cntr_engine::runtime::boot_host;
use cntr_fuse::proto::{Reply, Request, RequestCtx};
use cntr_fuse::server::FuseHandler;
use cntr_types::{Ino, Mode, OpenFlags, Pid, RenameFlags, SimClock};
use proptest::prelude::*;

const NAMES: [&str; 4] = ["a", "b", "c", "d"];

#[derive(Debug, Clone)]
enum Op {
    /// Look a name up under the root or under a remembered inode.
    Lookup(usize, usize),
    /// Forget some lookups of a remembered inode.
    Forget(usize, u64),
    /// RENAME a name under the root or a remembered inode to another.
    Rename(usize, usize, usize, usize),
    /// The host renames `/<a>/<b>` to `/<c>/<d>` behind the server.
    HostRename(usize, usize, usize, usize),
}

fn anchors() -> i64 {
    obs::gauge_value("core.cntrfs.anchors").unwrap_or(0)
}

fn hints() -> i64 {
    obs::gauge_value("core.cntrfs.name-hints").unwrap_or(0)
}

fn name() -> impl Strategy<Value = usize> {
    0usize..NAMES.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn anchors_gauge_tracks_live_inodes(
        ops in proptest::collection::vec(
            prop_oneof![
                (0usize..8, name()).prop_map(|(p, n)| Op::Lookup(p, n)),
                (0usize..8, 1u64..3).prop_map(|(i, n)| Op::Forget(i, n)),
                (0usize..8, name(), 0usize..8, name())
                    .prop_map(|(p, n, q, m)| Op::Rename(p, n, q, m)),
                (name(), name(), name(), name())
                    .prop_map(|(a, b, c, d)| Op::HostRename(a, b, c, d)),
            ],
            1..64,
        )
    ) {
        prop_assert_eq!(anchors(), 0, "no server alive");
        prop_assert_eq!(hints(), 0, "no server alive");
        let k = boot_host(SimClock::new());
        for dir in NAMES {
            let top = format!("/{dir}");
            k.mkdir(Pid::INIT, &top, Mode::RWXR_XR_X).unwrap();
            for name in NAMES {
                let path = format!("{top}/{name}");
                let fd = k
                    .open(Pid::INIT, &path, OpenFlags::create(), Mode::RW_R__R__)
                    .unwrap();
                k.close(Pid::INIT, fd).unwrap();
            }
        }
        let server_pid = k.fork(Pid::INIT).unwrap();
        let base = k.fd_count(server_pid).unwrap();
        let server = CntrfsServer::new(k.clone(), server_pid, false).unwrap();
        // Remembered FUSE inodes with the lookups the kernel holds on them.
        let mut known: Vec<(Ino, u64)> = Vec::new();
        for op in &ops {
            let dir = |i: usize| known.get(i).map_or(Ino(1), |&(ino, _)| ino);
            match *op {
                Op::Lookup(p, n) => {
                    let req = Request::Lookup {
                        parent: dir(p),
                        name: NAMES[n].to_string(),
                        ctx: RequestCtx::default(),
                    };
                    if let Reply::Entry(st) = server.handle(req) {
                        match known.iter_mut().find(|(ino, _)| *ino == st.ino) {
                            Some(entry) => entry.1 += 1,
                            None => known.push((st.ino, 1)),
                        }
                    }
                }
                Op::Forget(i, n) => {
                    if i < known.len() {
                        let n = n.min(known[i].1);
                        server.handle(Request::Forget { ino: known[i].0, nlookup: n });
                        known[i].1 -= n;
                        if known[i].1 == 0 {
                            known.remove(i);
                        }
                    }
                }
                Op::Rename(p, n, q, m) => {
                    server.handle(Request::Rename {
                        parent: dir(p),
                        name: NAMES[n].to_string(),
                        newparent: dir(q),
                        newname: NAMES[m].to_string(),
                        flags: RenameFlags::NONE,
                    });
                }
                Op::HostRename(a, b, c, d) => {
                    let path = |x: usize, y: usize| format!("/{}/{}", NAMES[x], NAMES[y]);
                    let _ = k.rename(Pid::INIT, &path(a, b), &path(c, d), RenameFlags::NONE);
                }
            }
            let live = server.live_inodes();
            prop_assert_eq!(live, known.len() + 1, "the root is always live");
            prop_assert_eq!(anchors(), live as i64);
            prop_assert_eq!(k.fd_count(server_pid).unwrap(), base + live);
            // No hint outlives its inode, and no inode has two.
            let hinted = server.hinted_inodes();
            prop_assert!(hinted.iter().all(|h| known.iter().any(|(ino, _)| ino == h)));
            prop_assert!(hinted.windows(2).all(|w| w[0] != w[1]));
            prop_assert_eq!(hints(), hinted.len() as i64);
        }
        drop(server);
        prop_assert_eq!(anchors(), 0, "a dropped server's anchors leave the gauge");
        prop_assert_eq!(hints(), 0, "and so do its hints");
    }
}
