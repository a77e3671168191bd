//! io-fit and io-spill: file data through CntrFS, inside and beyond the
//! page cache.
//!
//! Both read a working set of blob-backed files with seeded bytes that
//! live in the fat image. io-fit keeps it inside the default 256 MiB page
//! cache, warmed before timing: every read is a client page-cache hit, so
//! FUSE, overlay and blob store sit idle — the control that shows a
//! FUSE-side change leaves the hit path alone. io-spill halves the cache
//! below the working set (the §5.2.2 double-buffering regime: client and
//! server copies compete for one ceiling) and adds writes, so reclaim,
//! dirty throttling, batched FUSE WRITE, overlay copy-up and blob ingest
//! all run.

use crate::measure::Tracer;
use crate::probe::Probe;
use crate::rng::{Deck, Rng};
use crate::runner::{Extras, Kind, Sizes, Workload};
use crate::world::{app_image, fat_image, FsWorld};
use cntr_kernel::KernelConfig;
use cntr_types::{Mode, OpenFlags};
use std::sync::Arc;

const PAGE: usize = 4096;
/// Reads start on any sector, so seven in eight span two pages.
const SECTOR: usize = 512;

/// The working set's seeded bytes, one buffer per file.
pub type Inputs = Arc<Vec<Vec<u8>>>;

pub struct Io<const SPILL: bool> {
    world: FsWorld,
    /// Read-only descriptors, one per file, opened at set-up.
    fds: Vec<u32>,
    /// Read-write descriptors, opened by a file's first write (io-spill).
    /// Opening for write is what copies a file up out of the image's
    /// lower layer, so copy-up happens in the measured phase. A file's
    /// reads move to this descriptor with its first write: the read-only
    /// one still refers to the lower copy, as on Linux overlayfs.
    rw: Vec<Option<u32>>,
    /// What every file must read back as; updated on every write.
    shadow: Inputs,
    rng: Rng,
    mix: Deck<Mix>,
    epoch: u64,
    buf: Vec<u8>,
    /// The file the last write went to: the one each epoch fsyncs.
    written: Option<usize>,
}

#[derive(Clone, Copy)]
enum Mix {
    /// A 4 KiB `pread` at a random sector.
    Page,
    /// A sequential `pread` of a whole file.
    Whole,
    /// A random page-aligned 4 KiB `pwrite`.
    Write,
}

/// io-fit: 90% 4 KiB reads, 10% whole-file reads.
const FIT_MIX: [(Mix, usize); 2] = [(Mix::Page, 9), (Mix::Whole, 1)];
/// io-spill: 75% 4 KiB reads, 25% 4 KiB writes.
const SPILL_MIX: [(Mix, usize); 2] = [(Mix::Page, 3), (Mix::Write, 1)];

pub type IoFit = Io<false>;
pub type IoSpill = Io<true>;

fn path(i: usize) -> String {
    format!("/data/f{i:02}.bin")
}

impl<const SPILL: bool> Io<SPILL> {
    fn fd(&self, file: usize) -> u32 {
        self.rw[file].unwrap_or(self.fds[file])
    }

    /// io-spill's write: one page of fresh seeded bytes. A file's first
    /// write opens it for writing.
    fn write(
        &mut self,
        tr: &mut Tracer,
        x: &mut Extras,
        file: usize,
        off: usize,
    ) -> Result<Kind, String> {
        let (k, pid) = (&self.world.kernel, self.world.pid());
        if self.rw[file].is_none() {
            let fd = tr
                .sys("kernel.open", || {
                    k.open(pid, &path(file), OpenFlags::RDWR, Mode::RW_R__R__)
                })
                .map_err(|e| format!("open {} for writing: {e:?}", path(file)))?;
            self.rw[file] = Some(fd);
        }
        let fd = self.fd(file);
        let mut data = [0u8; PAGE];
        tr.bench("bench.gen", || self.rng.fill(&mut data));
        let n = tr
            .sys("kernel.pwrite", || k.pwrite(pid, fd, off as u64, &data))
            .map_err(|e| format!("pwrite {}@{off}: {e:?}", path(file)))?;
        tr.bench("bench.check", || {
            let shadow = Arc::get_mut(&mut self.shadow).expect("io-spill owns its model");
            shadow[file][off..off + n].copy_from_slice(&data[..n]);
        });
        self.written = Some(file);
        x.bytes += n as u64;
        x.written += n as u64;
        if n == PAGE {
            Ok(Kind::Tools)
        } else {
            Err(format!("pwrite {}@{off}: short write of {n}", path(file)))
        }
    }

    /// Reads every file whole and compares it with the shadow.
    fn reread_all(&mut self) -> Result<(), String> {
        let k = &self.world.kernel;
        let pid = self.world.pid();
        for i in 0..self.fds.len() {
            let fd = self.fd(i);
            let want = &self.shadow[i];
            let n = k
                .pread(pid, fd, 0, &mut self.buf[..want.len()])
                .map_err(|e| format!("{}: {e:?}", path(i)))?;
            if n != want.len() || self.buf[..n] != want[..] {
                return Err(format!("{}: content differs from the model", path(i)));
            }
        }
        Ok(())
    }
}

impl<const SPILL: bool> Workload for Io<SPILL> {
    type Inputs = Inputs;
    const OPS_PER_S: u64 = if SPILL { 20_000 } else { 30_000 };
    // Set-up reads every file whole, which warms the cache; the first
    // write to each file (its copy-up) belongs to the measured phase.
    const WARM_EPOCH: bool = false;

    fn inputs(seed: u64, sizes: &Sizes) -> Inputs {
        let mut rng = Rng::derive(seed, 40);
        Arc::new(
            (0..sizes.io_files)
                .map(|_| {
                    let mut data = vec![0u8; sizes.io_file_bytes];
                    rng.fill(&mut data);
                    data
                })
                .collect(),
        )
    }

    fn setup(inputs: &Inputs, seed: u64, sizes: &Sizes) -> Result<Self, String> {
        let working_set = (sizes.io_files * sizes.io_file_bytes) as u64;
        let config = if SPILL {
            KernelConfig {
                page_cache_limit: working_set / 2,
                // Write-back runs inline in the writer, not on the flusher
                // thread: with the flusher on, a read can return stale data
                // (README.md, "A race the oracle caught"), and no run may
                // fail. Single-threaded, io-spill also repeats exactly.
                background_writeback: false,
                ..KernelConfig::default()
            }
        } else {
            KernelConfig::default()
        };
        let world = FsWorld::boot(
            config,
            |store| {
                inputs
                    .iter()
                    .enumerate()
                    .fold(fat_image(), |img, (i, data)| {
                        img.blob(&path(i), store.ingest(data))
                    })
                    .build()
            },
            app_image().build(),
        )
        .map_err(|e| format!("set-up: {e:?}"))?;
        let fds = (0..inputs.len())
            .map(|i| {
                world
                    .kernel
                    .open(world.pid(), &path(i), OpenFlags::RDONLY, Mode::RW_R__R__)
                    .map_err(|e| format!("open {}: {e:?}", path(i)))
            })
            .collect::<Result<Vec<u32>, String>>()?;
        let mut io = Io {
            world,
            rw: vec![None; fds.len()],
            fds,
            // io-spill writes: give it a private model to update.
            shadow: if SPILL {
                Arc::new((**inputs).clone())
            } else {
                Arc::clone(inputs)
            },
            rng: Rng::derive(seed, 41),
            mix: Deck::new(if SPILL { &SPILL_MIX } else { &FIT_MIX }),
            epoch: sizes.io_epoch,
            buf: vec![0u8; sizes.io_file_bytes],
            written: None,
        };
        io.reread_all()?;
        Ok(io)
    }

    fn epoch_ops(&self) -> u64 {
        self.epoch
    }

    fn op(&mut self, tr: &mut Tracer, x: &mut Extras) -> Result<Kind, String> {
        let file_len = self.buf.len();
        let (file, kind, off) = tr.bench("bench.gen", || {
            let file = self.rng.below(self.fds.len() as u64) as usize;
            let kind = self.mix.draw(&mut self.rng);
            let off = match kind {
                Mix::Page => {
                    self.rng.below(((file_len - PAGE) / SECTOR + 1) as u64) as usize * SECTOR
                }
                Mix::Whole => 0,
                Mix::Write => self.rng.below((file_len / PAGE) as u64) as usize * PAGE,
            };
            (file, kind, off)
        });
        let len = match kind {
            Mix::Write => return self.write(tr, x, file, off),
            Mix::Whole => file_len,
            Mix::Page => PAGE,
        };
        let (k, pid, fd) = (&self.world.kernel, self.world.pid(), self.fd(file));
        let buf = &mut self.buf[..len];
        let n = tr
            .sys("kernel.pread", || k.pread(pid, fd, off as u64, buf))
            .map_err(|e| format!("pread {}@{off}: {e:?}", path(file)))?;
        x.bytes += n as u64;
        let want = &self.shadow[file][off..off + len];
        tr.bench("bench.check", || {
            if n == len && self.buf[..len] == *want {
                Ok(Kind::Tools)
            } else {
                Err(format!(
                    "pread {}@{off}: {n} bytes differ from the model",
                    path(file)
                ))
            }
        })
    }

    fn epoch_end(&mut self, tr: &mut Tracer) -> Result<(), String> {
        if let Some(file) = self.written.take() {
            let (k, pid, fd) = (&self.world.kernel, self.world.pid(), self.fd(file));
            tr.sys("kernel.fsync", || k.fsync(pid, fd, false))
                .map_err(|e| format!("fsync {}: {e:?}", path(file)))?;
        }
        Ok(())
    }

    fn probe(&self) -> Probe {
        self.world.probe()
    }

    fn finish(&mut self) -> Result<(), String> {
        // Everything written must be durable on the tools side and read
        // back exactly, through caches that have since been churned.
        for (i, fd) in self.rw.iter().enumerate() {
            let Some(fd) = *fd else { continue };
            self.world
                .kernel
                .fsync(self.world.pid(), fd, false)
                .map_err(|e| format!("fsync {}: {e:?}", path(i)))?;
        }
        self.reread_all()
    }

    fn teardown(self) -> Result<(), String> {
        for fd in self.fds.iter().chain(self.rw.iter().flatten()) {
            let _ = self.world.kernel.close(self.world.pid(), *fd);
        }
        self.world.teardown()
    }
}
