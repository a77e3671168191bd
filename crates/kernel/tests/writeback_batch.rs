//! Write-back batching: contiguous dirty runs flush as single large
//! writes, observable in `flush_batches`/`flushed_pages` — plus the
//! ring-transport write-back deadlock regression re-run with batching.

use cntr_fs::memfs::memfs;
use cntr_fs::{Filesystem, FsContext};
use cntr_fuse::proto::{Reply, Request};
use cntr_fuse::{FsHandler, FuseClientFs, FuseConfig, FuseHandler, RingTransport, Transport};
use cntr_kernel::pagecache::{FileRef, PageCache};
use cntr_kernel::CacheMode;
use cntr_types::{DevId, FileType, Ino, Mode, OpenFlags, SimClock};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

const PAGE: usize = 4096;

fn cache_with(dirty_limit: u64) -> (Arc<PageCache>, Arc<FileRef>, DevId) {
    let clock = SimClock::new();
    let fs = memfs(DevId(1), clock.clone());
    let st = fs
        .mknod(
            Ino::ROOT,
            "f",
            FileType::Regular,
            Mode::RW_R__R__,
            0,
            &FsContext::root(),
        )
        .unwrap();
    let fh = fs.open(st.ino, OpenFlags::RDWR).unwrap();
    let file = Arc::new(FileRef {
        fs: fs as Arc<dyn Filesystem>,
        ino: st.ino,
        fh,
    });
    let cache = Arc::new(PageCache::new(
        clock,
        256 << 20,
        dirty_limit,
        dirty_limit / 2,
        false,
    ));
    (cache, file, DevId(1))
}

/// 256 contiguous dirty pages must flush as exactly one batched write.
#[test]
fn contiguous_run_flushes_as_one_batch() {
    let (cache, file, dev) = cache_with(1 << 30);
    let mode = CacheMode::native();
    cache
        .write(dev, mode, &file, 0, &vec![7u8; 256 * PAGE])
        .unwrap();
    cache.flush_file(dev, file.ino).unwrap();
    let stats = cache.stats();
    assert_eq!(stats.flushed_pages, 256, "all dirty pages written back");
    assert_eq!(stats.flush_batches, 1, "one contiguous run = one write");
    // The data really landed.
    assert_eq!(file.fs.getattr(file.ino).unwrap().size, 256 * PAGE as u64);
}

/// A one-page hole splits the dirty set into exactly two batches.
#[test]
fn a_hole_splits_the_run_into_two_batches() {
    let (cache, file, dev) = cache_with(1 << 30);
    let mode = CacheMode::native();
    // Pages 0..128 dirty, page 128 clean (hole), pages 129..256 dirty.
    cache
        .write(dev, mode, &file, 0, &vec![1u8; 128 * PAGE])
        .unwrap();
    cache
        .write(dev, mode, &file, 129 * PAGE as u64, &vec![2u8; 127 * PAGE])
        .unwrap();
    cache.flush_file(dev, file.ino).unwrap();
    let stats = cache.stats();
    assert_eq!(stats.flushed_pages, 255);
    assert_eq!(stats.flush_batches, 2, "the hole forces exactly two runs");
}

/// A server handler whose request handling *re-enters the transport it is
/// served by* — the shape of a FUSE server whose backing I/O trips
/// write-back of pages belonging to the very mount it serves. With one
/// worker, the re-entrant request deadlocks unless the transport executes
/// worker-originated requests inline (the PR 3 fix, re-proven here with
/// batched write-back issuing large spliced WRITE requests).
#[derive(Clone)]
struct ReentrantHandler {
    inner: FsHandler,
    transport: Arc<Mutex<Option<Arc<dyn Transport>>>>,
}

impl FuseHandler for ReentrantHandler {
    fn handle(&self, req: Request) -> Reply {
        if matches!(req, Request::Write { .. }) {
            let t = self.transport.lock().clone();
            if let Some(t) = t {
                // The server's backing write re-enters its own mount.
                let reply = t.call(Request::Getattr { ino: Ino::ROOT });
                assert!(
                    !matches!(reply, Reply::Err(_)),
                    "re-entrant request must be served"
                );
            }
        }
        self.inner.handle(req)
    }
}

/// The re-entrancy trap over the io_uring-style ring transport: a single
/// reaper with a depth-8 SQ and batched doorbells. A worker whose handler
/// re-enters `call` would queue the request on its own ring and park
/// behind it forever — the ring must execute worker-originated requests
/// inline.
#[test]
fn batched_writeback_survives_ring_reentrancy() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let clock = SimClock::new();
        let backing = memfs(DevId(6), clock.clone());
        let transport_slot = Arc::new(Mutex::new(None));
        let handler = ReentrantHandler {
            inner: FsHandler::new(backing),
            transport: Arc::clone(&transport_slot),
        };
        // One reaper: a queued re-entrant request can never be served.
        let transport = Arc::new(RingTransport::new(handler, 1, 8, 4));
        *transport_slot.lock() = Some(Arc::clone(&transport) as Arc<dyn Transport>);
        let client = FuseClientFs::mount(
            DevId(0xC2),
            clock.clone(),
            FuseConfig::optimized(),
            transport,
        )
        .unwrap();
        let st = client
            .mknod(
                Ino::ROOT,
                "wb",
                FileType::Regular,
                Mode::RW_R__R__,
                0,
                &FsContext::root(),
            )
            .unwrap();
        let fh = client.open(st.ino, OpenFlags::RDWR).unwrap();
        let cache = Arc::new(PageCache::new(
            clock,
            64 << 20,
            8 * PAGE as u64,
            4 * PAGE as u64,
            false,
        ));
        let dev = DevId(0xC2);
        let fref = Arc::new(FileRef {
            fs: Arc::clone(&client) as Arc<dyn Filesystem>,
            ino: st.ino,
            fh,
        });
        let mode = CacheMode::native();
        let payload = vec![0xCDu8; 16 * PAGE];
        for round in 0..8u64 {
            cache
                .write(dev, mode, &fref, round * payload.len() as u64, &payload)
                .unwrap();
        }
        cache.fsync(dev, &fref, false).unwrap();
        assert_eq!(cache.dirty_bytes(), 0);
        assert_eq!(
            client.getattr(st.ino).unwrap().size,
            8 * 16 * PAGE as u64,
            "batched write-back must deliver every run over the ring"
        );
        let mut buf = vec![0u8; PAGE];
        cache.read(dev, mode, &fref, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xCD));
        let stats = cache.stats();
        assert!(stats.flush_batches > 0);
        assert!(
            stats.flush_batches < stats.flushed_pages,
            "write-back stayed batched under the ring transport: \
             batches={} pages={}",
            stats.flush_batches,
            stats.flushed_pages
        );
        tx.send(()).unwrap();
    });
    rx.recv_timeout(Duration::from_secs(60)).expect(
        "deadlock: a reaper-originated (re-entrant) write-back request \
         was queued on its own submission ring instead of executing inline",
    );
}
