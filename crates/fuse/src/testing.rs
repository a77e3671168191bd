//! Instrumentation for the zero-copy (splice) proofs.
//!
//! The splice data path claims that a payload buffer crosses the whole
//! stack — storage, FUSE server, `/dev/fuse`, client — as one allocation.
//! Virtual-time charges cannot prove that (they are bookkeeping); these
//! wrappers do, by recording the *pointer identity* of every payload at
//! every hop:
//!
//! * [`PayloadLog`] — the shared trace of `(hop, ptr, len)` observations;
//! * [`CountingTransport`] — a [`Transport`] middlebox recording payload
//!   pointers as requests/replies cross the protocol boundary;
//! * [`InstrumentedFs`] — a [`Filesystem`] wrapper recording the pointers
//!   the server-side storage produces (reads) and receives (writes);
//! * [`copies_along`] — folds a pointer chain into a copy count: every
//!   pointer change between adjacent hops is one memcpy.
//!
//! The wrappers are shipped (not `#[cfg(test)]`) so the integration tests
//! (`splice_zero_copy`) can reuse them; they are inert unless constructed.

use crate::conn::{ConnSnapshot, Transport};
use crate::proto::{Reply, Request};
use bytes::Bytes;
use cntr_fs::{FallocateMode, Fh, Filesystem, FsContext, FsFeatures, XattrFlags};
use cntr_types::{
    DevId, Dirent, FileType, Ino, Mode, OpenFlags, RenameFlags, SetAttr, Stat, Statfs, SysResult,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// One payload observation: which hop saw it, where it lived, how long it
/// was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadHop {
    /// Hop label, e.g. `"fs-read"`, `"wire-reply"`.
    pub hop: &'static str,
    /// Address of the first payload byte.
    pub ptr: usize,
    /// Payload length in bytes.
    pub len: usize,
}

/// A shared, ordered trace of payload observations.
pub struct PayloadLog {
    hops: Mutex<Vec<PayloadHop>>,
}

impl Default for PayloadLog {
    fn default() -> PayloadLog {
        PayloadLog {
            hops: Mutex::new_class("fuse.testing.payload_log", Vec::new()),
        }
    }
}

impl PayloadLog {
    /// An empty log.
    pub fn new() -> Arc<PayloadLog> {
        Arc::new(PayloadLog::default())
    }

    /// Records one observation.
    pub fn record(&self, hop: &'static str, data: &Bytes) {
        self.hops.lock().push(PayloadHop {
            hop,
            ptr: data.as_ptr() as usize,
            len: data.len(),
        });
    }

    /// The most recent observation at `hop`.
    pub fn last(&self, hop: &str) -> Option<PayloadHop> {
        self.hops
            .lock()
            .iter()
            .rev()
            .find(|h| h.hop == hop)
            .cloned()
    }

    /// Every recorded observation, in order.
    pub fn all(&self) -> Vec<PayloadHop> {
        self.hops.lock().clone()
    }

    /// Drops all observations.
    pub fn clear(&self) {
        self.hops.lock().clear();
    }
}

/// Counts the memcpys along a pointer chain: adjacent hops disagreeing on
/// the payload address mean the bytes moved by copy, not by reference.
pub fn copies_along(chain: &[usize]) -> usize {
    chain.windows(2).filter(|w| w[0] != w[1]).count()
}

/// A transport middlebox that records payload pointers as they cross the
/// protocol boundary, then forwards to the wrapped transport.
pub struct CountingTransport {
    inner: Arc<dyn Transport>,
    log: Arc<PayloadLog>,
}

impl CountingTransport {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: Arc<dyn Transport>, log: Arc<PayloadLog>) -> Arc<CountingTransport> {
        Arc::new(CountingTransport { inner, log })
    }
}

impl Transport for CountingTransport {
    fn call(&self, req: Request) -> Reply {
        if let Request::Write { data, .. } = &req {
            self.log.record("wire-request", data);
        }
        let reply = self.inner.call(req);
        if let Reply::Data(data) = &reply {
            self.log.record("wire-reply", data);
        }
        reply
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn is_alive(&self) -> bool {
        self.inner.is_alive()
    }

    fn stats(&self) -> ConnSnapshot {
        self.inner.stats()
    }
}

/// A [`Filesystem`] wrapper recording the payload pointers the server-side
/// storage produces (`read_bytes` results, hop `"fs-read"`) and receives
/// (each buffer of a `write_bytes` input, hop `"fs-write"`). All other
/// operations delegate untouched.
pub struct InstrumentedFs {
    inner: Arc<dyn Filesystem>,
    log: Arc<PayloadLog>,
}

impl InstrumentedFs {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: Arc<dyn Filesystem>, log: Arc<PayloadLog>) -> Arc<InstrumentedFs> {
        Arc::new(InstrumentedFs { inner, log })
    }
}

impl Filesystem for InstrumentedFs {
    fn fs_id(&self) -> DevId {
        self.inner.fs_id()
    }

    fn fs_type(&self) -> &'static str {
        self.inner.fs_type()
    }

    fn fs_options(&self) -> String {
        self.inner.fs_options()
    }

    fn features(&self) -> FsFeatures {
        self.inner.features()
    }

    fn lookup(&self, parent: Ino, name: &str) -> SysResult<Stat> {
        self.inner.lookup(parent, name)
    }

    fn getattr(&self, ino: Ino) -> SysResult<Stat> {
        self.inner.getattr(ino)
    }

    fn setattr(&self, ino: Ino, attr: &SetAttr, ctx: &FsContext) -> SysResult<Stat> {
        self.inner.setattr(ino, attr, ctx)
    }

    fn mknod(
        &self,
        parent: Ino,
        name: &str,
        ftype: FileType,
        mode: Mode,
        rdev: u64,
        ctx: &FsContext,
    ) -> SysResult<Stat> {
        self.inner.mknod(parent, name, ftype, mode, rdev, ctx)
    }

    fn mkdir(&self, parent: Ino, name: &str, mode: Mode, ctx: &FsContext) -> SysResult<Stat> {
        self.inner.mkdir(parent, name, mode, ctx)
    }

    fn unlink(&self, parent: Ino, name: &str) -> SysResult<()> {
        self.inner.unlink(parent, name)
    }

    fn rmdir(&self, parent: Ino, name: &str) -> SysResult<()> {
        self.inner.rmdir(parent, name)
    }

    fn symlink(&self, parent: Ino, name: &str, target: &str, ctx: &FsContext) -> SysResult<Stat> {
        self.inner.symlink(parent, name, target, ctx)
    }

    fn readlink(&self, ino: Ino) -> SysResult<String> {
        self.inner.readlink(ino)
    }

    fn link(&self, ino: Ino, newparent: Ino, newname: &str) -> SysResult<Stat> {
        self.inner.link(ino, newparent, newname)
    }

    fn rename(
        &self,
        parent: Ino,
        name: &str,
        newparent: Ino,
        newname: &str,
        flags: RenameFlags,
    ) -> SysResult<()> {
        self.inner.rename(parent, name, newparent, newname, flags)
    }

    fn open(&self, ino: Ino, flags: OpenFlags) -> SysResult<Fh> {
        self.inner.open(ino, flags)
    }

    fn release(&self, ino: Ino, fh: Fh) -> SysResult<()> {
        self.inner.release(ino, fh)
    }

    fn read_bytes(&self, ino: Ino, fh: Fh, offset: u64, len: usize) -> SysResult<Bytes> {
        let out = self.inner.read_bytes(ino, fh, offset, len)?;
        self.log.record("fs-read", &out);
        Ok(out)
    }

    fn write_bytes(&self, ino: Ino, fh: Fh, offset: u64, data: &[Bytes]) -> SysResult<usize> {
        for seg in data {
            self.log.record("fs-write", seg);
        }
        self.inner.write_bytes(ino, fh, offset, data)
    }

    fn fsync(&self, ino: Ino, fh: Fh, datasync: bool) -> SysResult<()> {
        self.inner.fsync(ino, fh, datasync)
    }

    fn readdir(&self, ino: Ino) -> SysResult<Vec<Dirent>> {
        self.inner.readdir(ino)
    }

    fn statfs(&self) -> SysResult<Statfs> {
        self.inner.statfs()
    }

    fn getxattr(&self, ino: Ino, name: &str) -> SysResult<Vec<u8>> {
        self.inner.getxattr(ino, name)
    }

    fn setxattr(&self, ino: Ino, name: &str, value: &[u8], flags: XattrFlags) -> SysResult<()> {
        self.inner.setxattr(ino, name, value, flags)
    }

    fn listxattr(&self, ino: Ino) -> SysResult<Vec<String>> {
        self.inner.listxattr(ino)
    }

    fn removexattr(&self, ino: Ino, name: &str) -> SysResult<()> {
        self.inner.removexattr(ino, name)
    }

    fn fallocate(
        &self,
        ino: Ino,
        fh: Fh,
        offset: u64,
        len: u64,
        mode: FallocateMode,
    ) -> SysResult<()> {
        self.inner.fallocate(ino, fh, offset, len, mode)
    }

    fn forget(&self, ino: Ino, nlookup: u64) {
        self.inner.forget(ino, nlookup);
    }

    fn export_handle(&self, ino: Ino) -> SysResult<u64> {
        self.inner.export_handle(ino)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_counting_over_pointer_chains() {
        let p = 0x1000usize;
        assert_eq!(copies_along(&[p, p, p]), 0);
        assert_eq!(copies_along(&[p, p + 8, p + 8]), 1);
        assert_eq!(copies_along(&[p, p + 8, p]), 2);
        assert_eq!(copies_along(&[p]), 0);
    }

    #[test]
    fn log_records_and_recalls() {
        let log = PayloadLog::new();
        let b = Bytes::from(vec![1u8; 16]);
        log.record("fs-read", &b);
        log.record("wire-reply", &b.slice(4..));
        let fs = log.last("fs-read").unwrap();
        assert_eq!(fs.ptr, b.as_ptr() as usize);
        assert_eq!(fs.len, 16);
        let wire = log.last("wire-reply").unwrap();
        assert_eq!(wire.ptr, fs.ptr + 4);
        assert_eq!(log.all().len(), 2);
        log.clear();
        assert!(log.last("fs-read").is_none());
    }
}
