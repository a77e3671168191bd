//! meta-walk: tool start-up resolving many paths — the paper's worst case.
//!
//! CntrFS pays an `open`+`stat` per LOOKUP (§5.2.2), so metadata-heavy
//! start-up is where attaching costs most. The mix (Zipf(0.9) over a
//! seeded fat-image tree): 60% `stat`, 15% `open`+`close`, 10% `readdir`,
//! 5% `readlink`, and 10% `stat` on the app's own tree under
//! `/var/lib/cntr`, which never leaves the native mount. The client's
//! entry/attr caches are dropped every epoch, modelling a fresh attach.
//! No file data moves.

use crate::measure::Tracer;
use crate::probe::Probe;
use crate::rng::{Deck, Rng, Zipf};
use crate::runner::{Extras, Kind, Sizes, Workload};
use crate::tree::Tree;
use crate::world::{app_image, fat_image, FsWorld, APP_ROOT};
use cntr_kernel::KernelConfig;
use cntr_types::{FileType, Mode, OpenFlags};
use std::sync::Arc;

const TOOLS_PREFIX: &str = "/usr/tools";
const APP_PREFIX: &str = "/srv/app";
const ZIPF_S: f64 = 0.9;

pub struct Inputs {
    tools: Tree,
    native: Tree,
    /// The native tree's paths as the attached shell sees them.
    native_paths: Vec<String>,
}

pub struct MetaWalk {
    world: FsWorld,
    epoch: u64,
    rng: Rng,
    mix: Deck<Mix>,
    files: Zipf,
    links: Zipf,
    natives: Zipf,
    /// Ranks of the tools tree that are symlinks, hottest first.
    link_ranks: Vec<usize>,
    inputs: Arc<Inputs>,
}

/// The mix, in twentieths: 60% stat, 15% open+close, 10% readdir, 5%
/// readlink, 10% stat of the app's own tree.
const MIX: [(Mix, usize); 5] = [
    (Mix::Stat, 12),
    (Mix::OpenClose, 3),
    (Mix::Readdir, 2),
    (Mix::Readlink, 1),
    (Mix::NativeStat, 2),
];

#[derive(Clone, Copy)]
enum Mix {
    Stat,
    OpenClose,
    Readdir,
    Readlink,
    NativeStat,
}

enum Op {
    Stat(usize),
    OpenClose(usize),
    Readdir(usize),
    Readlink(usize),
    NativeStat(usize),
}

impl Workload for MetaWalk {
    type Inputs = Arc<Inputs>;
    const OPS_PER_S: u64 = 30_000;

    fn inputs(seed: u64, sizes: &Sizes) -> Self::Inputs {
        let native = Tree::generate(seed, 20, APP_PREFIX, sizes.native_files, false);
        Arc::new(Inputs {
            tools: Tree::generate(seed, 10, TOOLS_PREFIX, sizes.tree_files, true),
            native_paths: native
                .nodes
                .iter()
                .map(|n| format!("{APP_ROOT}{}", n.path))
                .collect(),
            native,
        })
    }

    fn setup(inputs: &Self::Inputs, seed: u64, sizes: &Sizes) -> Result<Self, String> {
        let world = FsWorld::boot(
            KernelConfig::default(),
            |_| inputs.tools.add_to(fat_image()).build(),
            inputs.native.add_to(app_image()).build(),
        )
        .map_err(|e| format!("set-up: {e:?}"))?;
        // Walk the whole tree once: the fat container's overlay and the
        // CntrFS server then hold every entry, and each epoch starts from
        // the same state — a fresh client cache in front of a warm server.
        let (k, pid) = (&world.kernel, world.pid());
        for dir in inputs.tools.dirs.keys() {
            k.readdir(pid, dir)
                .map_err(|e| format!("warming {dir}: {e:?}"))?;
        }
        for node in &inputs.tools.nodes {
            k.lstat(pid, &node.path)
                .map_err(|e| format!("warming {}: {e:?}", node.path))?;
        }
        for path in &inputs.native_paths {
            k.stat(pid, path)
                .map_err(|e| format!("warming {path}: {e:?}"))?;
        }
        world.session.client.drop_caches();
        let link_ranks: Vec<usize> = inputs.tools.symlink_ranks().collect();
        Ok(MetaWalk {
            world,
            epoch: sizes.meta_epoch,
            rng: Rng::derive(seed, 30),
            mix: Deck::new(&MIX),
            files: Zipf::new(inputs.tools.nodes.len(), ZIPF_S),
            links: Zipf::new(link_ranks.len(), ZIPF_S),
            natives: Zipf::new(inputs.native.nodes.len(), ZIPF_S),
            link_ranks,
            inputs: Arc::clone(inputs),
        })
    }

    fn epoch_ops(&self) -> u64 {
        self.epoch
    }

    fn op(&mut self, tr: &mut Tracer, _x: &mut Extras) -> Result<Kind, String> {
        let op = tr.bench("bench.gen", || {
            let rng = &mut self.rng;
            match self.mix.draw(rng) {
                Mix::Stat => Op::Stat(self.files.sample(rng)),
                Mix::OpenClose => Op::OpenClose(self.files.sample(rng)),
                Mix::Readdir => Op::Readdir(self.files.sample(rng)),
                Mix::Readlink => Op::Readlink(self.link_ranks[self.links.sample(rng)]),
                Mix::NativeStat => Op::NativeStat(self.natives.sample(rng)),
            }
        });
        let k = &self.world.kernel;
        let pid = self.world.pid();
        let inputs = &*self.inputs;
        let tools = &inputs.tools;
        let e = |what: &str, err: cntr_types::Errno| format!("{what}: {err:?}");
        match op {
            Op::Stat(rank) => {
                let path = &tools.nodes[rank].path;
                let st = tr
                    .sys("kernel.stat", || k.stat(pid, path))
                    .map_err(|err| e(path, err))?;
                tr.bench("bench.check", || {
                    check_file(path, st.ftype, st.size, tools.followed_size(rank))
                })?;
                Ok(Kind::Tools)
            }
            Op::OpenClose(rank) => {
                let path = &tools.nodes[rank].path;
                let fd = tr
                    .sys("kernel.open", || {
                        k.open(pid, path, OpenFlags::RDONLY, Mode::RW_R__R__)
                    })
                    .map_err(|err| e(path, err))?;
                tr.sys("kernel.close", || k.close(pid, fd))
                    .map_err(|err| e(path, err))?;
                Ok(Kind::Tools)
            }
            Op::Readdir(rank) => {
                let dir = tools.parent(rank);
                let entries = tr
                    .sys("kernel.readdir", || k.readdir(pid, dir))
                    .map_err(|err| e(dir, err))?;
                tr.bench("bench.check", || {
                    let mut names: Vec<&str> = entries
                        .iter()
                        .map(|d| d.name.as_str())
                        .filter(|n| *n != "." && *n != "..")
                        .collect();
                    names.sort_unstable();
                    let want = &tools.dirs[dir];
                    if names.iter().copied().eq(want.iter().map(String::as_str)) {
                        Ok(())
                    } else {
                        Err(format!("{dir}: listed {names:?}, expected {want:?}"))
                    }
                })?;
                Ok(Kind::Tools)
            }
            Op::Readlink(rank) => {
                let node = &tools.nodes[rank];
                let target = tr
                    .sys("kernel.readlink", || k.readlink(pid, &node.path))
                    .map_err(|err| e(&node.path, err))?;
                tr.bench("bench.check", || {
                    let want = &tools.nodes[node.link.expect("link rank")].path;
                    if &target == want {
                        Ok(())
                    } else {
                        Err(format!("{}: link to {target}, expected {want}", node.path))
                    }
                })?;
                Ok(Kind::Tools)
            }
            Op::NativeStat(rank) => {
                let path = &inputs.native_paths[rank];
                let st = tr
                    .sys("kernel.stat", || k.stat(pid, path))
                    .map_err(|err| e(path, err))?;
                let want = inputs.native.nodes[rank].size;
                tr.bench("bench.check", || check_file(path, st.ftype, st.size, want))?;
                Ok(Kind::Native)
            }
        }
    }

    fn epoch_end(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let client = &self.world.session.client;
        tr.sys("fuse.drop_caches", || client.drop_caches());
        Ok(())
    }

    fn probe(&self) -> Probe {
        self.world.probe()
    }

    fn teardown(self) -> Result<(), String> {
        self.world.teardown()
    }
}

fn check_file(path: &str, ftype: FileType, size: u64, want: u64) -> Result<(), String> {
    if ftype == FileType::Regular && size == want {
        Ok(())
    } else {
        Err(format!(
            "{path}: {ftype:?} of {size} bytes, expected a {want}-byte file"
        ))
    }
}
