//! The userspace half: request handlers.
//!
//! [`FuseHandler`] is what a FUSE daemon implements. [`FsHandler`] adapts
//! any [`Filesystem`] into a handler — the moral equivalent of serving a
//! directory tree 1:1. CNTR's passthrough server (which holds one `O_PATH`
//! descriptor per inode in *another mount namespace*, with the open+stat
//! hardlink detection the paper describes) lives in `cntr-core` and
//! implements this same trait.

use crate::proto::{InitFlags, Reply, Request, RequestCtx};
use cntr_fs::{Filesystem, FilesystemExt, FsContext};
use cntr_types::{Gid, IdMap, Ino, SysResult, Uid};
use parking_lot::Mutex;
use std::sync::Arc;

/// A FUSE request handler (the userspace daemon).
pub trait FuseHandler: Send + Sync + 'static {
    /// Serves one request.
    fn handle(&self, req: Request) -> Reply;
}

fn ctx_of(ctx: RequestCtx) -> FsContext {
    FsContext {
        uid: Uid(ctx.uid),
        gid: Gid(ctx.gid),
        groups: Vec::new(),
        cap_fsetid: ctx.uid == 0,
    }
}

fn reply<T>(r: SysResult<T>, f: impl FnOnce(T) -> Reply) -> Reply {
    match r {
        Ok(v) => f(v),
        Err(e) => Reply::Err(e),
    }
}

/// Serves a [`Filesystem`] over FUSE.
///
/// Tracks per-inode `nlookup` counts and forwards forgets to the backing
/// filesystem once they reach zero, as the kernel protocol requires.
pub struct FsHandler {
    fs: Arc<dyn Filesystem>,
    supported: InitFlags,
    nlookup: Mutex<IdMap<Ino, u64>>,
}

impl FsHandler {
    /// Creates a handler advertising full optimization support.
    pub fn new(fs: Arc<dyn Filesystem>) -> FsHandler {
        FsHandler {
            fs,
            supported: InitFlags::cntr_default(),
            nlookup: Mutex::new_class("fuse.server.nlookup", IdMap::default()),
        }
    }

    /// Restricts the advertised INIT flags (negotiation tests).
    #[must_use]
    pub fn with_supported(mut self, flags: InitFlags) -> FsHandler {
        self.supported = flags;
        self
    }

    /// The backing filesystem.
    pub fn fs(&self) -> &Arc<dyn Filesystem> {
        &self.fs
    }

    /// Live inodes the kernel still references.
    pub fn live_inodes(&self) -> usize {
        self.nlookup.lock().len()
    }

    fn remember(&self, ino: Ino) {
        *self.nlookup.lock().entry(ino).or_insert(0) += 1;
    }

    fn forget(&self, ino: Ino, n: u64) {
        let mut map = self.nlookup.lock();
        if let Some(count) = map.get_mut(&ino) {
            *count = count.saturating_sub(n);
            if *count == 0 {
                map.remove(&ino);
                self.fs.forget(ino, n);
            }
        }
    }

    /// Builds a READ reply. The common case — the filesystem answers the
    /// whole request in one `read_bytes` call — forwards that buffer as the
    /// reply with no copy; a filesystem that returns short (a chunk
    /// boundary) gets its pieces gathered into one reply buffer, the same
    /// single copy a real FUSE server pays assembling its reply from
    /// backing-store reads.
    fn read_reply(
        &self,
        ino: Ino,
        fh: cntr_fs::Fh,
        offset: u64,
        size: usize,
    ) -> cntr_types::SysResult<bytes::Bytes> {
        // The storage span: time the backing filesystem spends producing
        // the reply, attributed to the request's trace (current on this
        // thread since the client sent the request).
        let _span = obs::trace::Span::start("storage");
        self.fs.read_bytes_gather(ino, fh, offset, size)
    }
}

impl FuseHandler for FsHandler {
    fn handle(&self, req: Request) -> Reply {
        match req {
            Request::Init { wanted, .. } => Reply::Init {
                granted: wanted.intersect(self.supported),
            },
            Request::Lookup { parent, name, .. } => reply(self.fs.lookup(parent, &name), |st| {
                self.remember(st.ino);
                Reply::Entry(st)
            }),
            Request::Forget { ino, nlookup } => {
                self.forget(ino, nlookup);
                Reply::Ok
            }
            Request::BatchForget { items } => {
                for (ino, n) in items {
                    self.forget(ino, n);
                }
                Reply::Ok
            }
            Request::Getattr { ino } => reply(self.fs.getattr(ino), Reply::Attr),
            Request::Setattr { ino, attr, ctx } => {
                reply(self.fs.setattr(ino, &attr, &ctx_of(ctx)), Reply::Attr)
            }
            Request::Readlink { ino } => reply(self.fs.readlink(ino), Reply::Target),
            Request::Symlink {
                parent,
                name,
                target,
                ctx,
            } => reply(
                self.fs.symlink(parent, &name, &target, &ctx_of(ctx)),
                |st| {
                    self.remember(st.ino);
                    Reply::Entry(st)
                },
            ),
            Request::Mknod {
                parent,
                name,
                ftype,
                mode,
                rdev,
                ctx,
            } => reply(
                self.fs
                    .mknod(parent, &name, ftype, mode, rdev, &ctx_of(ctx)),
                |st| {
                    self.remember(st.ino);
                    Reply::Entry(st)
                },
            ),
            Request::Mkdir {
                parent,
                name,
                mode,
                ctx,
            } => reply(self.fs.mkdir(parent, &name, mode, &ctx_of(ctx)), |st| {
                self.remember(st.ino);
                Reply::Entry(st)
            }),
            Request::Unlink { parent, name } => {
                reply(self.fs.unlink(parent, &name), |()| Reply::Ok)
            }
            Request::Rmdir { parent, name } => reply(self.fs.rmdir(parent, &name), |()| Reply::Ok),
            Request::Rename {
                parent,
                name,
                newparent,
                newname,
                flags,
            } => reply(
                self.fs.rename(parent, &name, newparent, &newname, flags),
                |()| Reply::Ok,
            ),
            Request::Link {
                ino,
                newparent,
                newname,
            } => reply(self.fs.link(ino, newparent, &newname), |st| {
                self.remember(st.ino);
                Reply::Entry(st)
            }),
            // A `Filesystem` has no kernel descriptor to register as a
            // backing file: its opens are never passthrough.
            Request::Open { ino, flags } => reply(self.fs.open(ino, flags), |fh| Reply::Opened {
                fh: fh.0,
                keep_cache: self.supported.keep_cache,
                passthrough: None,
            }),
            Request::Read {
                ino,
                fh,
                offset,
                size,
            } => match self.read_reply(ino, cntr_fs::Fh(fh), offset, size as usize) {
                Ok(data) => Reply::Data(data),
                Err(e) => Reply::Err(e),
            },
            Request::Write {
                ino,
                fh,
                offset,
                data,
            } => reply(
                {
                    let _span = obs::trace::Span::start("storage");
                    // The payload Bytes moves into the filesystem by
                    // reference: blob-backed stores retain slices of it
                    // (zero copy).
                    self.fs.write_bytes(ino, cntr_fs::Fh(fh), offset, &[data])
                },
                |n| Reply::Written(n as u32),
            ),
            Request::Statfs => reply(self.fs.statfs(), Reply::Statfs),
            Request::Release { ino, fh } => {
                reply(self.fs.release(ino, cntr_fs::Fh(fh)), |()| Reply::Ok)
            }
            Request::Fsync { ino, fh, datasync } => {
                reply(self.fs.fsync(ino, cntr_fs::Fh(fh), datasync), |()| {
                    Reply::Ok
                })
            }
            Request::Readdir { ino } => reply(self.fs.readdir(ino), Reply::Dirents),
            Request::Getxattr { ino, name } => reply(self.fs.getxattr(ino, &name), Reply::Xattr),
            Request::Setxattr {
                ino,
                name,
                value,
                flags,
            } => reply(self.fs.setxattr(ino, &name, &value, flags), |()| Reply::Ok),
            Request::Listxattr { ino } => reply(self.fs.listxattr(ino), Reply::XattrNames),
            Request::Removexattr { ino, name } => {
                reply(self.fs.removexattr(ino, &name), |()| Reply::Ok)
            }
            Request::Create {
                parent,
                name,
                mode,
                flags,
                ctx,
            } => {
                let created = self.fs.mknod(
                    parent,
                    &name,
                    cntr_types::FileType::Regular,
                    mode,
                    0,
                    &ctx_of(ctx),
                );
                match created {
                    Ok(st) => match self.fs.open(st.ino, flags) {
                        Ok(fh) => {
                            self.remember(st.ino);
                            Reply::Created { stat: st, fh: fh.0 }
                        }
                        Err(e) => Reply::Err(e),
                    },
                    Err(e) => Reply::Err(e),
                }
            }
            Request::Fallocate {
                ino,
                fh,
                offset,
                len,
                mode,
            } => reply(
                self.fs.fallocate(ino, cntr_fs::Fh(fh), offset, len, mode),
                |()| Reply::Ok,
            ),
            Request::Destroy => Reply::Ok,
        }
    }
}

impl FuseHandler for Arc<dyn FuseHandler> {
    fn handle(&self, req: Request) -> Reply {
        (**self).handle(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntr_fs::memfs::memfs;
    use cntr_types::Errno;
    use cntr_types::{DevId, Mode, OpenFlags, SimClock};

    fn handler() -> FsHandler {
        FsHandler::new(memfs(DevId(1), SimClock::new()))
    }

    #[test]
    fn init_negotiation_intersects() {
        let h = handler().with_supported(InitFlags::none());
        let r = h.handle(Request::Init {
            wanted: InitFlags::cntr_default(),
            conn: DevId(100),
        });
        match r {
            Reply::Init { granted } => assert_eq!(granted, InitFlags::none()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn create_then_read_roundtrip() {
        let h = handler();
        let ctx = RequestCtx::default();
        let (ino, fh) = match h.handle(Request::Create {
            parent: Ino::ROOT,
            name: "f".into(),
            mode: Mode::RW_R__R__,
            flags: OpenFlags::RDWR,
            ctx,
        }) {
            Reply::Created { stat, fh } => (stat.ino, fh),
            other => panic!("unexpected {other:?}"),
        };
        assert!(matches!(
            h.handle(Request::Write {
                ino,
                fh,
                offset: 0,
                data: bytes::Bytes::from_static(b"served"),
            }),
            Reply::Written(6)
        ));
        match h.handle(Request::Read {
            ino,
            fh,
            offset: 0,
            size: 16,
        }) {
            Reply::Data(d) => assert_eq!(&d[..], b"served"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nlookup_counts_and_forget() {
        let h = handler();
        let ctx = RequestCtx::default();
        h.handle(Request::Mkdir {
            parent: Ino::ROOT,
            name: "d".into(),
            mode: Mode::RWXR_XR_X,
            ctx,
        });
        // Look it up twice: nlookup = 3 (1 from mkdir + 2 lookups).
        for _ in 0..2 {
            h.handle(Request::Lookup {
                parent: Ino::ROOT,
                name: "d".into(),
                ctx,
            });
        }
        assert_eq!(h.live_inodes(), 1);
        h.handle(Request::Forget {
            ino: Ino(2),
            nlookup: 3,
        });
        assert_eq!(h.live_inodes(), 0);
    }

    #[test]
    fn batch_forget_drops_many() {
        let h = handler();
        let ctx = RequestCtx::default();
        for i in 0..10 {
            h.handle(Request::Mkdir {
                parent: Ino::ROOT,
                name: format!("d{i}"),
                mode: Mode::RWXR_XR_X,
                ctx,
            });
        }
        assert_eq!(h.live_inodes(), 10);
        let items: Vec<(Ino, u64)> = (2..12).map(|i| (Ino(i), 1)).collect();
        h.handle(Request::BatchForget { items });
        assert_eq!(h.live_inodes(), 0);
    }

    #[test]
    fn errors_are_replies_not_panics() {
        let h = handler();
        assert!(matches!(
            h.handle(Request::Getattr { ino: Ino(999) }),
            Reply::Err(Errno::ENOENT)
        ));
        assert!(matches!(
            h.handle(Request::Unlink {
                parent: Ino::ROOT,
                name: "missing".into()
            }),
            Reply::Err(Errno::ENOENT)
        ));
    }
}
