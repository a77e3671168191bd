//! The machine-wide residency gauges (`pagecache.resident-pages`,
//! `pagecache.dirty-pages`, ...) are exact sums over *live* caches: a
//! dropped cache takes its pages back out, as `drop_clean` does.
//!
//! One `#[test]` in this binary on purpose: the gauges are process-global,
//! so a concurrent test would perturb them.

use cntr_fs::memfs::memfs;
use cntr_fs::{Filesystem, FilesystemExt, FsContext};
use cntr_kernel::pagecache::{FileRef, PageCache};
use cntr_kernel::CacheMode;
use cntr_types::{DevId, FileType, Ino, Mode, OpenFlags, SimClock};
use std::sync::Arc;

const PAGE: usize = 4096;

const GAUGES: [&str; 4] = [
    "pagecache.resident-pages",
    "pagecache.active-pages",
    "pagecache.inactive-pages",
    "pagecache.dirty-pages",
];

fn gauges() -> [i64; 4] {
    GAUGES.map(|g| obs::gauge_value(g).unwrap_or(0))
}

#[test]
fn dropped_caches_leave_the_gauges() {
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
    let new_cache = || PageCache::new(clock.clone(), 256 << 20, 1 << 30);
    let baseline = gauges();

    // Eight dirty pages, then the cache goes away with them still dirty.
    let cache = new_cache();
    cache
        .write(DevId(1), CacheMode::native(), &file, 0, &[7u8; 8 * PAGE])
        .unwrap();
    let [resident, _, _, dirty] = gauges();
    assert_eq!((resident, dirty), (baseline[0] + 8, baseline[3] + 8));
    drop(cache);
    assert_eq!(gauges(), baseline, "a dropped dirty cache left its pages");

    // A clean, partly promoted cache, dropped the same way.
    file.fs
        .write(file.ino, file.fh, 0, &[5u8; 4 * PAGE])
        .unwrap();
    let cache = new_cache();
    let mut buf = [0u8; 4 * PAGE];
    for _ in 0..2 {
        cache
            .read(DevId(1), CacheMode::native(), &file, 0, &mut buf)
            .unwrap();
    }
    assert_eq!(gauges()[0], baseline[0] + 4);
    drop(cache);
    assert_eq!(gauges(), baseline, "a dropped clean cache left its pages");

    // `drop_clean` and a later drop together unwind exactly once.
    let cache = new_cache();
    cache
        .write(DevId(1), CacheMode::native(), &file, 0, &[9u8; 3 * PAGE])
        .unwrap();
    cache.drop_clean().unwrap();
    assert_eq!(gauges(), baseline);
    cache
        .write(DevId(1), CacheMode::native(), &file, 0, &[9u8; PAGE])
        .unwrap();
    drop(cache);
    assert_eq!(gauges(), baseline);
}
