//! The `*at` system calls against a reference model of path resolution.
//!
//! Every path system call is its `*at` form started at `AT_FDCWD`, so the
//! kernel has one walker. The property test pins that, two ways, over
//! random trees and paths that use symlinks (relative, absolute, looping),
//! `..`, trailing slashes and a mount crossing:
//!
//! * a path call's result and the virtual nanoseconds it charges match a
//!   reference walker written here from the resolution rules: one
//!   `dcache_hit_ns` per component looked up (symlink targets included),
//!   a relative path walked from the cwd and the `..` stack `chdir` left
//!   (nothing walked to reach the cwd), and the extra walks of
//!   `O_CREAT`, `rename` and `link`, on top of one `syscall_ns`
//!   (`truncate`, which has no `*at` form, walks its path once), and
//!   a trailing slash naming a directory as Linux has it: the last
//!   component followed and `ENOTDIR` unless it is one, `EISDIR` for
//!   `O_CREAT` and `unlink`, `EEXIST`/`ENOENT` for the other creates
//!   (`mkdir` aside), `ENOTDIR` for `rename` of a non-directory; and a
//!   last `.` or `..` walked to its parent and then refused as each call
//!   refuses it (`EEXIST` for the creates, `EISDIR` for `unlink`,
//!   `EINVAL`/`ENOTEMPTY` for `rmdir`, `EBUSY` for `rename` once both
//!   parents are walked);
//! * the same call issued on a twin kernel as an `*at` call from an
//!   `O_PATH` anchor returns what the path call returned and charges only
//!   the walk beneath the anchor — or fails with `EXDEV` exactly when the
//!   reference walker says the path climbs above the anchor (the
//!   `RESOLVE_BENEATH` rule). When it does not, it charges what the path
//!   call charged: a relative path call walks from the cwd as the `*at`
//!   call walks from the cwd anchor.
//!
//! Unit tests below pin the `RESOLVE_BENEATH` rule and what an `O_PATH`
//! descriptor can and cannot do.

use cntr_fs::memfs::memfs;
use cntr_fs::{Filesystem, XattrFlags};
use cntr_kernel::{Kernel, KernelConfig, MountFlags};
use cntr_types::{
    AtFlags, DevId, Errno, FileType, Gid, Ino, Mode, OpenFlags, Pid, RenameFlags, SimClock, Stat,
    Uid, COST,
};
use proptest::prelude::*;
use std::sync::Arc;

const P: Pid = Pid::INIT;

/// One simulated machine: the root tmpfs, a second tmpfs mounted at `/m`,
/// the process's cwd at `/w`, and `O_PATH` anchors on `/` and `/w`.
struct World {
    k: Kernel,
    root_fs: Arc<dyn Filesystem>,
    sub_fs: Arc<dyn Filesystem>,
    /// The root-fs directory the sub mount covers.
    mount_point: Ino,
    root_fd: u32,
    cwd_fd: u32,
}

fn file(k: &Kernel, path: &str, body: &[u8]) {
    let fd = k
        .open(P, path, OpenFlags::create(), Mode::RW_R__R__)
        .unwrap();
    k.write_fd(P, fd, body).unwrap();
    k.close(P, fd).unwrap();
}

impl World {
    fn new() -> World {
        let clock = SimClock::new();
        let root_fs: Arc<dyn Filesystem> = memfs(DevId(1), clock.clone());
        let sub_fs: Arc<dyn Filesystem> = memfs(DevId(2), clock.clone());
        let k = Kernel::with_clock(clock, Arc::clone(&root_fs), KernelConfig::default());
        for dir in ["/a", "/a/b", "/m", "/w", "/w/x"] {
            k.mkdir(P, dir, Mode::RWXR_XR_X).unwrap();
        }
        k.mount_fs(P, "/m", Arc::clone(&sub_fs), MountFlags::default())
            .unwrap();
        k.mkdir(P, "/m/a", Mode::RWXR_XR_X).unwrap();
        file(&k, "/a/f", b"root-a-f");
        file(&k, "/a/b/f", b"root-a-b-f");
        file(&k, "/m/f", b"sub-f");
        file(&k, "/w/f", b"cwd-f");
        k.symlink(P, "a", "/l").unwrap();
        k.symlink(P, "/a/b", "/a/l").unwrap();
        k.symlink(P, "../a", "/w/l").unwrap();
        k.symlink(P, "l", "/a/b/l").unwrap();
        k.symlink(P, "../../m", "/a/b/b").unwrap();
        k.chdir(P, "/w").unwrap();
        let anchor = OpenFlags::RDONLY.with(OpenFlags::PATH);
        let root_fd = k.open(P, "/", anchor, Mode::RW_R__R__).unwrap();
        let cwd_fd = k.open(P, ".", anchor, Mode::RW_R__R__).unwrap();
        let mount_point = root_fs.lookup(Ino::ROOT, "m").unwrap().ino;
        World {
            k,
            root_fs,
            sub_fs,
            mount_point,
            root_fd,
            cwd_fd,
        }
    }

    fn now(&self) -> u64 {
        self.k.clock().now().as_nanos()
    }
}

// ---------------------------------------------------------------------
// The reference walker
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Root,
    Sub,
}

type Loc = (Layer, Ino);

/// A resolved parent directory and the last component's name.
type Parent = (Loc, String);

/// Where a reference walk starts: the process root, its cwd (with the
/// `..` stack `chdir("/w")` left), or a descriptor it may not climb above.
#[derive(Clone, Copy)]
enum Start {
    Fdcwd,
    Beneath(Loc),
}

struct Walk {
    cur: Loc,
    stack: Vec<Loc>,
    symlinks: u32,
    components: u64,
    /// `cur` is a directory: any component after anything else, `.` and
    /// `..` included, is `ENOTDIR` before it is looked up.
    at_dir: bool,
    beneath: bool,
    /// A `/` followed the last component: it must be a directory.
    dir_only: bool,
}

impl World {
    fn layer(&self, l: Layer) -> &Arc<dyn Filesystem> {
        match l {
            Layer::Root => &self.root_fs,
            Layer::Sub => &self.sub_fs,
        }
    }

    fn cross(&self, loc: Loc) -> Loc {
        if loc == (Layer::Root, self.mount_point) {
            (Layer::Sub, Ino::ROOT)
        } else {
            loc
        }
    }

    fn to_root(&self, w: &mut Walk) -> Result<(), Errno> {
        if w.beneath {
            return Err(Errno::EXDEV);
        }
        w.cur = self.cross((Layer::Root, Ino::ROOT));
        w.stack.clear();
        w.at_dir = true;
        Ok(())
    }

    fn walk(&self, w: &mut Walk, path: &str, follow_last: bool) -> Result<(), Errno> {
        if path.starts_with('/') {
            self.to_root(w)?;
        }
        w.dir_only = path.ends_with('/');
        let mut names: Vec<String> = path
            .split('/')
            .filter(|c| !c.is_empty())
            .map(String::from)
            .collect();
        let mut i = 0;
        while i < names.len() {
            let name = names[i].clone();
            if !w.at_dir {
                return Err(Errno::ENOTDIR);
            }
            if name == "." || name == ".." {
                if name == ".." {
                    match w.stack.pop() {
                        Some(prev) => w.cur = prev,
                        None if w.beneath => return Err(Errno::EXDEV),
                        None => {}
                    }
                }
                i += 1;
                continue;
            }
            w.components += 1;
            let fs = self.layer(w.cur.0);
            let st = fs.lookup(w.cur.1, &name)?;
            let is_last = i + 1 == names.len();
            if st.is_symlink() && (!is_last || follow_last || w.dir_only) {
                w.symlinks += 1;
                if w.symlinks > 40 {
                    return Err(Errno::ELOOP);
                }
                let target = fs.readlink(st.ino)?;
                if target.starts_with('/') {
                    self.to_root(w)?;
                }
                w.dir_only |= is_last && target.ends_with('/');
                let mut spliced: Vec<String> = target
                    .split('/')
                    .filter(|c| !c.is_empty())
                    .map(String::from)
                    .collect();
                spliced.extend(names.drain(i + 1..));
                names.truncate(i);
                names.append(&mut spliced);
                continue;
            }
            w.stack.push(w.cur);
            w.cur = self.cross((w.cur.0, st.ino));
            w.at_dir = st.is_dir();
            i += 1;
        }
        Ok(())
    }

    /// Resolves `path` from `start`: the location reached and the number
    /// of components looked up on the way.
    fn resolve(&self, start: Start, path: &str, follow: bool) -> (Result<Loc, Errno>, u64) {
        let mut w = Walk {
            cur: self.cross((Layer::Root, Ino::ROOT)),
            stack: Vec::new(),
            symlinks: 0,
            components: 0,
            at_dir: true,
            beneath: false,
            dir_only: false,
        };
        let r = match start {
            Start::Fdcwd if !path.starts_with('/') => {
                w.cur = (Layer::Root, self.cwd_ino());
                w.stack = vec![(Layer::Root, Ino::ROOT)];
                self.walk(&mut w, path, follow)
            }
            Start::Fdcwd => self.walk(&mut w, path, follow),
            // A walk starts with its anchor's type: beneath anything but
            // a directory even `.` and `..` are `ENOTDIR`.
            Start::Beneath(anchor) => self.layer(anchor.0).getattr(anchor.1).and_then(|st| {
                w.cur = anchor;
                w.beneath = true;
                w.at_dir = st.is_dir();
                self.walk(&mut w, path, follow)
            }),
        };
        let r = r.and_then(|()| {
            let st = self.layer(w.cur.0).getattr(w.cur.1)?;
            if w.dir_only && !st.is_dir() {
                return Err(Errno::ENOTDIR);
            }
            Ok(w.cur)
        });
        (r, w.components)
    }

    /// `resolve_parent`: the directory part is walked unless the path is
    /// rejected first. A last `.` or `..` comes back as the name, for the
    /// call to refuse.
    fn resolve_parent(&self, start: Start, path: &str) -> (Result<Parent, Errno>, u64) {
        let trimmed = path.trim_end_matches('/');
        if trimmed.is_empty() {
            return (Err(Errno::EEXIST), 0);
        }
        let (dir, name) = match trimmed.rsplit_once('/') {
            Some(("", n)) => ("/", n),
            Some((d, n)) => (d, n),
            None => (".", trimmed),
        };
        let (r, n) = self.resolve(start, dir, true);
        let r = r.and_then(|loc| {
            let st = self.layer(loc.0).getattr(loc.1)?;
            if !st.is_dir() {
                return Err(Errno::ENOTDIR);
            }
            Ok((loc, name.to_string()))
        });
        (r, n)
    }

    /// What the last component of a resolved parent names, unfollowed.
    fn child(&self, (loc, name): &Parent) -> Result<Stat, Errno> {
        self.layer(loc.0).lookup(loc.1, name)
    }
}

// ---------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Stat(String),
    Lstat(String),
    OpenRead(String),
    OpenCreate(String),
    Readlink(String),
    Readdir(String),
    Mkdir(String),
    Mknod(String),
    Symlink(String, String),
    Unlink(String),
    Rmdir(String),
    Rename(String, String),
    Link(String, String),
    Chmod(String),
    Chown(String),
    Utimens(String),
    Truncate(String),
    Setxattr(String),
    Getxattr(String),
    Listxattr(String),
    Removexattr(String),
}

const NAMES: [&str; 9] = ["a", "b", "f", "l", "m", "x", "..", ".", "n"];

fn path_strategy() -> impl Strategy<Value = String> {
    (
        any::<bool>(),
        proptest::collection::vec(0usize..NAMES.len(), 1..5),
        0u8..8,
    )
        .prop_map(|(absolute, comps, tail)| {
            let body: Vec<&str> = comps.iter().map(|&i| NAMES[i]).collect();
            let mut p = body.join("/");
            if absolute {
                p.insert(0, '/');
            }
            if tail == 0 {
                p.push('/');
            }
            p
        })
}

const TARGETS: [&str; 6] = ["a", "/a/b", "../a", "f", "/m", "f/"];

fn op_strategy() -> impl Strategy<Value = Op> {
    let p = path_strategy;
    prop_oneof![
        p().prop_map(Op::Stat),
        p().prop_map(Op::Lstat),
        p().prop_map(Op::OpenRead),
        p().prop_map(Op::OpenCreate),
        p().prop_map(Op::Readlink),
        p().prop_map(Op::Readdir),
        p().prop_map(Op::Mkdir),
        p().prop_map(Op::Mknod),
        (0usize..TARGETS.len(), p()).prop_map(|(t, q)| Op::Symlink(TARGETS[t].to_string(), q)),
        p().prop_map(Op::Unlink),
        p().prop_map(Op::Rmdir),
        (p(), p()).prop_map(|(a, b)| Op::Rename(a, b)),
        (p(), p()).prop_map(|(a, b)| Op::Link(a, b)),
        p().prop_map(Op::Chmod),
        p().prop_map(Op::Chown),
        p().prop_map(Op::Utimens),
        p().prop_map(Op::Truncate),
        p().prop_map(Op::Setxattr),
        p().prop_map(Op::Getxattr),
        p().prop_map(Op::Listxattr),
        p().prop_map(Op::Removexattr),
    ]
}

/// What an operation returned, minus timestamps (the twin's clock runs
/// ahead: a call it refuses with `EXDEV` is charged, and then the path
/// call that keeps its tree in step).
#[derive(Debug, PartialEq)]
enum Out {
    Unit,
    /// An opened descriptor, until [`settle`] swaps it for its attributes.
    Fd(u32),
    Attrs(DevId, Ino, FileType, u64, Mode, u32),
    Text(String),
    Names(Vec<String>),
    Bytes(Vec<u8>),
}

fn attrs(st: Stat) -> Out {
    Out::Attrs(st.dev, st.ino, st.ftype, st.size, st.mode, st.nlink)
}

/// Once the call's charge is measured: an opened descriptor becomes the
/// attributes of what it opened, and is closed.
fn settle(w: &World, out: Result<Out, Errno>) -> Result<Out, Errno> {
    match out {
        Ok(Out::Fd(fd)) => {
            let st = w.k.fstat(P, fd).unwrap();
            w.k.close(P, fd).unwrap();
            Ok(attrs(st))
        }
        other => other,
    }
}

/// How an operation is issued: as the path call, or as the `*at` call
/// from an anchor ([`run_anchored`]).
#[derive(Clone, Copy)]
enum Via {
    Path,
    Anchor,
}

/// The `*at` call from the root anchor (absolute paths) or the cwd anchor
/// (relative ones).
fn run_anchored(w: &World, op: &Op) -> Result<Out, Errno> {
    let (k, none, nofollow) = (&w.k, AtFlags::NONE, AtFlags::SYMLINK_NOFOLLOW);
    let a = |p: &str| match p.strip_prefix('/') {
        Some(rest) => (w.root_fd, rest.to_string()),
        None => (w.cwd_fd, p.to_string()),
    };
    Ok(match op {
        Op::Stat(p) => {
            let (fd, p) = a(p);
            attrs(k.fstatat(P, fd, &p, none)?)
        }
        Op::Lstat(p) => {
            let (fd, p) = a(p);
            attrs(k.fstatat(P, fd, &p, nofollow)?)
        }
        Op::OpenRead(p) | Op::OpenCreate(p) => {
            let (fd, p) = a(p);
            let flags = match op {
                Op::OpenRead(_) => OpenFlags::RDONLY,
                _ => OpenFlags::WRONLY.with(OpenFlags::CREAT),
            };
            Out::Fd(k.openat(P, fd, &p, flags, Mode::RW_R__R__)?)
        }
        Op::Readlink(p) => {
            let (fd, p) = a(p);
            Out::Text(k.readlinkat(P, fd, &p)?)
        }
        Op::Readdir(p) => {
            let (fd, p) = a(p);
            Out::Names(
                k.readdirat(P, fd, &p, none)?
                    .into_iter()
                    .map(|d| d.name)
                    .collect(),
            )
        }
        Op::Mkdir(p) => {
            let (fd, p) = a(p);
            k.mkdirat(P, fd, &p, Mode::RWXR_XR_X)?;
            Out::Unit
        }
        Op::Mknod(p) => {
            let (fd, p) = a(p);
            k.mknodat(P, fd, &p, FileType::Fifo, Mode::RW_R__R__, 0)?;
            Out::Unit
        }
        Op::Symlink(target, p) => {
            let (fd, p) = a(p);
            k.symlinkat(P, target, fd, &p)?;
            Out::Unit
        }
        Op::Unlink(p) | Op::Rmdir(p) => {
            let (fd, p) = a(p);
            let flags = match op {
                Op::Rmdir(_) => AtFlags::REMOVEDIR,
                _ => none,
            };
            k.unlinkat(P, fd, &p, flags)?;
            Out::Unit
        }
        Op::Rename(from, to) => {
            let ((ffd, from), (tfd, to)) = (a(from), a(to));
            k.renameat2(P, ffd, &from, tfd, &to, RenameFlags::NONE)?;
            Out::Unit
        }
        Op::Link(from, to) => {
            let ((ffd, from), (tfd, to)) = (a(from), a(to));
            k.linkat(P, ffd, &from, tfd, &to, none)?;
            Out::Unit
        }
        Op::Chmod(p) => {
            let (fd, p) = a(p);
            k.fchmodat(P, fd, &p, Mode::new(0o640), none)?;
            Out::Unit
        }
        Op::Chown(p) => {
            let (fd, p) = a(p);
            k.fchownat(P, fd, &p, Uid(7), Gid(8), none)?;
            Out::Unit
        }
        Op::Utimens(p) => {
            let (fd, p) = a(p);
            let t = Some(cntr_types::Timespec::from_nanos(5_000_000_000));
            k.utimensat(P, fd, &p, t, t, none)?;
            Out::Unit
        }
        // `truncate(2)` has no `*at` form: the twin issues the path call
        // too, and [`reference`] walks it as one.
        Op::Truncate(_) => return run_plain(w, op),
        Op::Setxattr(p) => {
            let (fd, p) = a(p);
            k.setxattrat(P, fd, &p, none, "user.k", b"v", XattrFlags::Any)?;
            Out::Unit
        }
        Op::Getxattr(p) => {
            let (fd, p) = a(p);
            Out::Bytes(k.getxattrat(P, fd, &p, none, "user.k")?)
        }
        Op::Listxattr(p) => {
            let (fd, p) = a(p);
            Out::Names(k.listxattrat(P, fd, &p, none)?)
        }
        Op::Removexattr(p) => {
            let (fd, p) = a(p);
            k.removexattrat(P, fd, &p, none, "user.k")?;
            Out::Unit
        }
    })
}

/// The plain path system call: each is its `*at` form at `AT_FDCWD`.
fn run_plain(w: &World, op: &Op) -> Result<Out, Errno> {
    let k = &w.k;
    Ok(match op {
        Op::Stat(p) => attrs(k.stat(P, p)?),
        Op::Lstat(p) => attrs(k.lstat(P, p)?),
        Op::OpenRead(p) => Out::Fd(k.open(P, p, OpenFlags::RDONLY, Mode::RW_R__R__)?),
        Op::OpenCreate(p) => {
            let flags = OpenFlags::WRONLY.with(OpenFlags::CREAT);
            Out::Fd(k.open(P, p, flags, Mode::RW_R__R__)?)
        }
        Op::Readlink(p) => Out::Text(k.readlink(P, p)?),
        Op::Readdir(p) => Out::Names(k.readdir(P, p)?.into_iter().map(|d| d.name).collect()),
        Op::Mkdir(p) => {
            k.mkdir(P, p, Mode::RWXR_XR_X)?;
            Out::Unit
        }
        Op::Mknod(p) => {
            k.mknod(P, p, FileType::Fifo, Mode::RW_R__R__, 0)?;
            Out::Unit
        }
        Op::Symlink(target, p) => {
            k.symlink(P, target, p)?;
            Out::Unit
        }
        Op::Unlink(p) => {
            k.unlink(P, p)?;
            Out::Unit
        }
        Op::Rmdir(p) => {
            k.rmdir(P, p)?;
            Out::Unit
        }
        Op::Rename(a, b) => {
            k.rename(P, a, b, RenameFlags::NONE)?;
            Out::Unit
        }
        Op::Link(a, b) => {
            k.link(P, a, b)?;
            Out::Unit
        }
        Op::Chmod(p) => {
            k.chmod(P, p, Mode::new(0o640))?;
            Out::Unit
        }
        Op::Chown(p) => {
            k.chown(P, p, Uid(7), Gid(8))?;
            Out::Unit
        }
        Op::Utimens(p) => {
            let t = Some(cntr_types::Timespec::from_nanos(5_000_000_000));
            k.utimens(P, p, t, t)?;
            Out::Unit
        }
        Op::Truncate(p) => {
            k.truncate(P, p, 3)?;
            Out::Unit
        }
        Op::Setxattr(p) => {
            k.setxattr(P, p, "user.k", b"v", XattrFlags::Any)?;
            Out::Unit
        }
        Op::Getxattr(p) => Out::Bytes(k.getxattr(P, p, "user.k")?),
        Op::Listxattr(p) => Out::Names(k.listxattr(P, p)?),
        Op::Removexattr(p) => {
            k.removexattr(P, p, "user.k")?;
            Out::Unit
        }
    })
}

/// The walks an operation makes via `via`, as the reference walker sees
/// them: the components looked up, and how resolution ended — an error
/// there is the call's result.
fn reference(w: &World, via: Via, op: &Op) -> (u64, Result<(), Errno>) {
    let via = match op {
        Op::Truncate(_) => Via::Path,
        _ => via,
    };
    let path = |p: &str| -> String {
        match via {
            Via::Anchor => p.strip_prefix('/').unwrap_or(p).to_string(),
            Via::Path => p.to_string(),
        }
    };
    let start_of = |p: &str| match via {
        Via::Path => Start::Fdcwd,
        Via::Anchor if p.starts_with('/') => Start::Beneath((Layer::Root, Ino::ROOT)),
        Via::Anchor => Start::Beneath((Layer::Root, w.cwd_ino())),
    };
    let resolve = |p: &str, follow: bool| {
        let (r, n) = w.resolve(start_of(p), &path(p), follow);
        (n, r.map(|_| ()))
    };
    let walk_parent = |p: &str| {
        let (r, n) = w.resolve_parent(start_of(p), &path(p));
        (n, r)
    };
    let parent_of = |p: &str, dots: [Errno; 2]| {
        let (n, r) = walk_parent(p);
        let r = r.and_then(|at| match at.1.as_str() {
            "." => Err(dots[0]),
            ".." => Err(dots[1]),
            _ => Ok(at),
        });
        (n, r)
    };
    let parent = |p: &str, dots: [Errno; 2]| {
        let (n, r) = parent_of(p, dots);
        (n, r.map(|_| ()))
    };
    // What a last `.` or `..` answers once the parent walk succeeded, per
    // call: Linux's `filename_create`, `do_unlinkat` and `do_rmdir`; open
    // names a directory it does not create. `renamed` has
    // `do_renameat2`'s answer, after both parent walks.
    let exists = [Errno::EEXIST; 2];
    let is_dir = [Errno::EISDIR; 2];
    let rmdir = [Errno::EINVAL, Errno::ENOTEMPTY];
    // A create other than `mkdir` through a trailing slash: EEXIST if the
    // name exists, else ENOENT.
    let create = |p: &str| match parent_of(p, exists) {
        (n, Ok(at)) if p.ends_with('/') => (n, Err(w.child(&at).err().unwrap_or(Errno::EEXIST))),
        (n, r) => (n, r.map(|_| ())),
    };
    match op {
        Op::Stat(p) | Op::OpenRead(p) | Op::Readdir(p) => resolve(p, true),
        Op::Chmod(p) | Op::Chown(p) | Op::Utimens(p) | Op::Truncate(p) => resolve(p, true),
        Op::Setxattr(p) | Op::Getxattr(p) | Op::Listxattr(p) | Op::Removexattr(p) => {
            resolve(p, true)
        }
        Op::Lstat(p) | Op::Readlink(p) => resolve(p, false),
        // O_CREAT through a trailing slash: EISDIR once the parent walk
        // succeeds; a last `.` or `..` is walked with it.
        Op::OpenCreate(p) if p.ends_with('/') => {
            let last = p.trim_end_matches('/').rsplit('/').next();
            let (n, r) = if matches!(last, Some("" | "." | "..")) {
                resolve(p, true)
            } else {
                parent(p, is_dir)
            };
            (n, r.and(Err(Errno::EISDIR)))
        }
        Op::OpenCreate(p) => match resolve(p, true) {
            (n, Err(Errno::ENOENT)) => {
                let (m, r) = parent(p, is_dir);
                (n + m, r)
            }
            done => done,
        },
        Op::Mkdir(p) => parent(p, exists),
        Op::Rmdir(p) => parent(p, rmdir),
        Op::Mknod(p) | Op::Symlink(_, p) => create(p),
        // unlink through a trailing slash: what the name is decides.
        Op::Unlink(p) => match parent_of(p, is_dir) {
            (n, Ok(at)) if p.ends_with('/') => match w.child(&at) {
                Ok(st) if st.is_dir() => (n, Err(Errno::EISDIR)),
                Ok(_) => (n, Err(Errno::ENOTDIR)),
                Err(e) => (n, Err(e)),
            },
            (n, r) => (n, r.map(|_| ())),
        },
        Op::Rename(a, b) => match walk_parent(a) {
            (n, Ok(from)) => match walk_parent(b) {
                (m, Ok(to)) => (n + m, renamed(w, &from, &to, a, b)),
                (m, Err(e)) => (n + m, Err(e)),
            },
            (n, Err(e)) => (n, Err(e)),
        },
        Op::Link(a, b) => match resolve(a, false) {
            (n, Ok(())) => {
                let (m, r) = create(b);
                (n + m, r)
            }
            failed => failed,
        },
    }
}

/// How `rename(a, b)` ends once both parents resolved: `EXDEV` across
/// mounts, `EBUSY` for a last `.` or `..` on either side, and `ENOTDIR`
/// for a non-directory source with a trailing slash on either side.
fn renamed(w: &World, from: &Parent, to: &Parent, a: &str, b: &str) -> Result<(), Errno> {
    if from.0 .0 != to.0 .0 {
        return Err(Errno::EXDEV);
    }
    if [&from.1, &to.1].iter().any(|n| *n == "." || *n == "..") {
        return Err(Errno::EBUSY);
    }
    if (a.ends_with('/') || b.ends_with('/')) && !w.child(from)?.is_dir() {
        return Err(Errno::ENOTDIR);
    }
    Ok(())
}

impl World {
    fn cwd_ino(&self) -> Ino {
        self.root_fs.lookup(Ino::ROOT, "w").unwrap().ino
    }
}

fn charge(components: u64) -> u64 {
    COST.syscall_ns + components * COST.dcache_hit_ns
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn path_calls_and_anchored_calls_walk_as_the_reference(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        // `plain` issues the path calls; `twin` the same calls as `*at`
        // calls from its anchors. Both start from the same tree.
        let plain = World::new();
        let twin = World::new();
        for op in &ops {
            let (n, resolved) = reference(&plain, Via::Path, op);
            let t0 = plain.now();
            let got = run_plain(&plain, op);
            let path_charged = plain.now() - t0;
            let got = settle(&plain, got);
            prop_assert_eq!(
                path_charged, charge(n),
                "{:?}: a path call charges one syscall and its walks", op
            );
            if let Err(e) = resolved {
                prop_assert_eq!(got.as_ref().err(), Some(&e), "{:?}", op);
            }
            if let (Op::Stat(p) | Op::Lstat(p), Ok(Out::Attrs(dev, ino, ..))) = (op, &got) {
                let follow = matches!(op, Op::Stat(_));
                let (want, _) = plain.resolve(Start::Fdcwd, p, follow);
                let (layer, want_ino) = want.expect("resolved");
                prop_assert_eq!(*dev, plain.layer(layer).fs_id(), "{:?}", op);
                prop_assert_eq!(*ino, want_ino, "{:?}", op);
            }

            let (m, beneath) = reference(&twin, Via::Anchor, op);
            let t0 = twin.now();
            let anchored = run_anchored(&twin, op);
            let charged = twin.now() - t0;
            let anchored = settle(&twin, anchored);
            prop_assert_eq!(
                charged, charge(m),
                "{:?}: an anchored call charges only the walk beneath its anchor", op
            );
            if beneath == Err(Errno::EXDEV) {
                prop_assert_eq!(anchored.as_ref().err(), Some(&Errno::EXDEV), "{:?}", op);
                // Keep the twin's tree in step with the plain one.
                let _ = settle(&twin, run_plain(&twin, op));
            } else {
                prop_assert_eq!(&anchored, &got, "{:?}", op);
                prop_assert_eq!(
                    charged, path_charged,
                    "{:?}: the path call walks what the anchored call walks", op
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// RESOLVE_BENEATH
// ---------------------------------------------------------------------

fn anchor(w: &World, path: &str) -> u32 {
    w.k.open(
        P,
        path,
        OpenFlags::RDONLY.with(OpenFlags::PATH | OpenFlags::NOFOLLOW),
        Mode::RW_R__R__,
    )
    .unwrap()
}

#[test]
fn dotdot_at_the_anchor_is_exdev() {
    let w = World::new();
    let a = anchor(&w, "/a");
    let none = AtFlags::NONE;
    assert_eq!(w.k.fstatat(P, a, "..", none), Err(Errno::EXDEV));
    assert_eq!(w.k.fstatat(P, a, "b/../../a", none), Err(Errno::EXDEV));
    // `..` that stays beneath the anchor is an ordinary step back.
    let f = w.k.fstatat(P, a, "b/../f", none).unwrap();
    assert_eq!(f.size, 8);
    // Crossing into a mount and back out stays beneath the root anchor.
    let top = w.k.fstatat(P, w.root_fd, "m/../a/f", none).unwrap();
    assert_eq!(top.ino, f.ino);
}

#[test]
fn absolute_paths_and_symlinks_are_exdev_beneath_an_anchor() {
    let w = World::new();
    let a = anchor(&w, "/a");
    let none = AtFlags::NONE;
    assert_eq!(w.k.fstatat(P, a, "/a/f", none), Err(Errno::EXDEV));
    // `/a/l` points at `/a/b`: absolute, so refused even though the
    // target lies beneath the anchor.
    assert_eq!(w.k.fstatat(P, a, "l/f", none), Err(Errno::EXDEV));
    // Not following it is fine, and so is a relative symlink.
    let l = w.k.fstatat(P, a, "l", AtFlags::SYMLINK_NOFOLLOW).unwrap();
    assert_eq!(l.ftype, FileType::Symlink);
    let b = anchor(&w, "/a/b");
    assert_eq!(
        w.k.fstatat(P, b, "b", none),
        Err(Errno::EXDEV),
        "`../../m` climbs above `/a/b`"
    );
    // The same walks from AT_FDCWD are unrestricted.
    assert_eq!(w.k.stat(P, "/a/l/f").unwrap().size, 10);
}

#[test]
fn empty_paths_need_empty_path() {
    let w = World::new();
    let f = anchor(&w, "/a/f");
    assert_eq!(
        w.k.fstatat(P, f, "", AtFlags::NONE),
        Err(Errno::ENOENT),
        "an empty path names nothing without AT_EMPTY_PATH"
    );
    let st = w.k.fstatat(P, f, "", AtFlags::EMPTY_PATH).unwrap();
    assert_eq!(st, w.k.fstat(P, f).unwrap());
    assert_eq!(st.size, 8);
    for path in ["x", ".", "..", "./"] {
        assert_eq!(
            w.k.fstatat(P, f, path, AtFlags::NONE),
            Err(Errno::ENOTDIR),
            "a file anchors only itself: {path:?}"
        );
    }
}

// ---------------------------------------------------------------------
// O_PATH descriptors
// ---------------------------------------------------------------------

#[test]
fn o_path_descriptors_do_no_io() {
    let w = World::new();
    let (k, f) = (&w.k, anchor(&w, "/a/f"));
    let mut buf = [0u8; 8];
    assert_eq!(k.read_fd(P, f, &mut buf), Err(Errno::EBADF));
    assert_eq!(k.pread(P, f, 0, &mut buf), Err(Errno::EBADF));
    assert_eq!(k.write_fd(P, f, b"x"), Err(Errno::EBADF));
    assert_eq!(k.pwrite(P, f, 0, b"x"), Err(Errno::EBADF));
    assert_eq!(k.fsync(P, f, false), Err(Errno::EBADF));
    assert_eq!(k.ftruncate(P, f, 0), Err(Errno::EBADF));
    assert_eq!(
        k.lseek(P, f, 0, cntr_kernel::vfs::Whence::Set),
        Err(Errno::EBADF)
    );
    // fstat works, and the file is untouched.
    assert_eq!(k.fstat(P, f).unwrap().size, 8);
    // Reopening gives a descriptor that can read.
    let r = k.reopen(P, f, OpenFlags::RDONLY).unwrap();
    assert_eq!(k.read_fd(P, r, &mut buf), Ok(8));
    assert_eq!(&buf, b"root-a-f");
    k.close(P, r).unwrap();
    k.close(P, f).unwrap();
}

#[test]
fn o_path_anchors_every_at_call() {
    let w = World::new();
    let k = &w.k;
    let a = anchor(&w, "/a");
    let none = AtFlags::NONE;
    k.mkdirat(P, a, "d", Mode::RWXR_XR_X).unwrap();
    k.symlinkat(P, "f", a, "s").unwrap();
    k.linkat(P, a, "f", a, "d/g", none).unwrap();
    k.renameat2(P, a, "d/g", a, "h", RenameFlags::NONE).unwrap();
    k.fchmodat(P, a, "h", Mode::new(0o600), none).unwrap();
    k.fchownat(P, a, "h", Uid(5), Gid(6), none).unwrap();
    k.setxattrat(P, a, "h", none, "user.t", b"1", XattrFlags::Any)
        .unwrap();
    assert_eq!(k.getxattrat(P, a, "h", none, "user.t").unwrap(), b"1");
    assert_eq!(
        k.listxattrat(P, a, "h", none).unwrap(),
        vec!["user.t".to_string()]
    );
    k.removexattrat(P, a, "h", none, "user.t").unwrap();
    let st = k.stat(P, "/a/h").unwrap();
    assert_eq!(
        (st.mode.bits() & 0o777, st.uid, st.gid, st.nlink),
        (0o600, Uid(5), Gid(6), 2)
    );
    // A symlink held by an O_PATH | O_NOFOLLOW descriptor is the link itself.
    let s = anchor(&w, "/a/s");
    assert!(k.fstat(P, s).unwrap().is_symlink());
    assert_eq!(k.readlinkat(P, s, "").unwrap(), "f");
    assert_eq!(k.reopen(P, s, OpenFlags::RDONLY), Err(Errno::ELOOP));
    // The anchor itself answers with AT_EMPTY_PATH.
    let names: Vec<String> = k
        .readdirat(P, a, "", AtFlags::EMPTY_PATH)
        .unwrap()
        .into_iter()
        .map(|d| d.name)
        .collect();
    assert!(names.contains(&"h".to_string()) && names.contains(&"d".to_string()));
    k.linkat(P, anchor(&w, "/a/h"), "", a, "i", AtFlags::EMPTY_PATH)
        .unwrap();
    assert_eq!(k.stat(P, "/a/i").unwrap().nlink, 3);
    k.unlinkat(P, a, "i", none).unwrap();
    k.unlinkat(P, a, "h", none).unwrap();
    k.unlinkat(P, a, "d", AtFlags::REMOVEDIR).unwrap();
    assert_eq!(k.stat(P, "/a/d"), Err(Errno::ENOENT));
}

#[test]
fn an_anchor_follows_its_inode_across_renames() {
    let w = World::new();
    let k = &w.k;
    let b = anchor(&w, "/a/b");
    k.rename(P, "/a/b", "/a/moved", RenameFlags::NONE).unwrap();
    k.mkdir(P, "/a/b", Mode::RWXR_XR_X).unwrap();
    // The anchor still names the directory it was opened on.
    assert_eq!(k.fstatat(P, b, "f", AtFlags::NONE).unwrap().size, 10);
    assert_eq!(k.stat(P, "/a/b/f"), Err(Errno::ENOENT));
}

#[test]
fn reopen_costs_one_syscall_and_one_component() {
    let w = World::new();
    let f = anchor(&w, "/a/f");
    let t0 = w.now();
    let r = w.k.reopen(P, f, OpenFlags::RDONLY).unwrap();
    assert_eq!(w.now() - t0, charge(1));
    w.k.close(P, r).unwrap();
}
