//! Container lifecycle and the four engine flavours.
//!
//! `run()` performs what Docker/LXC/rkt/systemd-nspawn do on the real
//! kernel: materialize a rootfs, fork, unshare all seven namespaces, mark
//! mounts private, mount the rootfs plus `/proc` and `/dev`, chroot, set
//! the image environment, confine credentials (Docker's default bounding
//! set + an AppArmor profile), and hand the pid back. CNTR only ever needs
//! the *name → pid* mapping from an engine (paper §3.2.1) — everything
//! else it reads from the kernel.

use crate::image::{mkdir_p as fs_mkdir_p, Image, Layer, ROOTFS_SKELETON};
use crate::registry::Registry;
use cntr_fs::memfs::memfs;
use cntr_fs::{Filesystem, FsContext};
use cntr_kernel::cred::Credentials;
use cntr_kernel::devfs;
use cntr_kernel::{CgroupPath, Kernel, MountFlags, NamespaceKind};
use cntr_overlay::{blobfs, BlobFs, BlobStore, OverlayFs};
use cntr_types::{DevId, Errno, Mode, Pid, SysResult};
use obs::{LazyCounter, LazyGauge, LazyHistogram, Subsystem, Timed};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// Lifecycle observability, aggregated over every runtime instance. Spawn
// covers the whole `run()` path (rootfs assembly through creds); reap
// covers `stop()` (exit, reap, cgroup and bookkeeping teardown).
static OBS_SPAWNS: LazyCounter = LazyCounter::new(Subsystem::Engine, "engine.spawn.count");
static OBS_SPAWN_NS: LazyHistogram =
    LazyHistogram::new(Subsystem::Engine, "engine.spawn.latency-ns");
static OBS_REAPS: LazyCounter = LazyCounter::new(Subsystem::Engine, "engine.reap.count");
static OBS_REAP_NS: LazyHistogram = LazyHistogram::new(Subsystem::Engine, "engine.reap.latency-ns");
static OBS_RUNNING: LazyGauge = LazyGauge::new(Subsystem::Engine, "engine.containers.running");

// Device-number allocator for every filesystem an engine assembles
// (lowers, uppers, overlay roots). Process-global, not per-runtime: the
// kernel's socket-node registry keys on `(fs_id, ino)`, so two engines
// on one machine handing out the same `DevId` would alias unrelated
// inodes — with the four-engine matrix, container N of one engine could
// steal Unix-socket connections bound in container N of another.
static NEXT_DEV: AtomicU64 = AtomicU64::new(1000);

/// The supported container engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Docker: containers named, ids are 64 hex chars.
    Docker,
    /// LXC: containers are plain names.
    Lxc,
    /// rkt: pod UUIDs.
    Rkt,
    /// systemd-nspawn: machine names.
    SystemdNspawn,
}

impl EngineKind {
    /// Every supported engine, in matrix order — the four flavours the
    /// paper's evaluation covers.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Docker,
        EngineKind::Lxc,
        EngineKind::Rkt,
        EngineKind::SystemdNspawn,
    ];

    /// The engine's name as a path component (`/var/lib/<engine>`).
    pub const fn dir_name(self) -> &'static str {
        match self {
            EngineKind::Docker => "docker",
            EngineKind::Lxc => "lxc",
            EngineKind::Rkt => "rkt",
            EngineKind::SystemdNspawn => "machines",
        }
    }

    /// Formats an engine-specific container id from a sequence number —
    /// the per-engine difference CNTR has to understand (~70 LoC each in
    /// the paper's implementation).
    pub fn format_id(self, seq: u64, name: &str) -> String {
        match self {
            EngineKind::Docker => {
                // 64 hex chars derived from the sequence number.
                let mut id = format!("{seq:016x}");
                while id.len() < 64 {
                    let next = format!(
                        "{:016x}",
                        seq.wrapping_mul(0x9E3779B97F4A7C15) ^ id.len() as u64
                    );
                    id.push_str(&next);
                }
                id.truncate(64);
                id
            }
            EngineKind::Lxc => name.to_string(),
            EngineKind::Rkt => format!(
                "{:08x}-{:04x}-{:04x}-{:04x}-{:012x}",
                seq,
                seq & 0xFFFF,
                0x4000 | (seq & 0xFFF),
                0x8000 | (seq & 0xFFF),
                seq
            ),
            EngineKind::SystemdNspawn => format!("{name}.machine"),
        }
    }
}

/// A running (or exited) container.
#[derive(Debug, Clone)]
pub struct Container {
    /// Engine-specific id.
    pub id: String,
    /// User-supplied name.
    pub name: String,
    /// Image reference it was created from.
    pub image: String,
    /// Pid of the main process.
    pub pid: Pid,
    /// Cgroup the container runs in.
    pub cgroup: String,
    /// Engine managing it.
    pub engine: EngineKind,
}

/// A container engine instance over a simulated kernel.
///
/// Storage model: every image layer materializes **once** as a shared
/// read-only [`BlobFs`] (content-addressed against the runtime's
/// [`BlobStore`]); each container mounts a cheap [`OverlayFs`] — those
/// shared lowers plus a private writable upper — so N containers of one
/// image cost O(upper writes), not O(N × image size).
pub struct ContainerRuntime {
    kind: EngineKind,
    kernel: Kernel,
    registry: Arc<Registry>,
    containers: Mutex<HashMap<String, Container>>,
    store: Arc<BlobStore>,
    /// `(layer id, content digest)` → shared read-only lower filesystem.
    layers: Mutex<HashMap<(String, u64), Arc<BlobFs>>>,
    /// Container name → its overlay root (for slimming and diagnostics).
    overlays: Mutex<HashMap<String, Arc<OverlayFs>>>,
    next_seq: AtomicU64,
}

impl ContainerRuntime {
    /// Creates an engine of `kind` on `kernel`, pulling from `registry`,
    /// with a private blob store.
    pub fn new(kind: EngineKind, kernel: Kernel, registry: Arc<Registry>) -> ContainerRuntime {
        Self::with_store(kind, kernel, registry, BlobStore::new())
    }

    /// Creates an engine sharing `store` — engines on one machine share
    /// one store so identical layers dedup across engine flavours too.
    pub fn with_store(
        kind: EngineKind,
        kernel: Kernel,
        registry: Arc<Registry>,
        store: Arc<BlobStore>,
    ) -> ContainerRuntime {
        ContainerRuntime {
            kind,
            kernel,
            registry,
            containers: Mutex::new_class("engine.containers", HashMap::new()),
            store,
            layers: Mutex::new_class("engine.layers", HashMap::new()),
            overlays: Mutex::new_class("engine.overlays", HashMap::new()),
            next_seq: AtomicU64::new(1),
        }
    }

    /// The full engine matrix on one machine: one runtime per
    /// [`EngineKind`], all driving `kernel` and pulling from `registry`
    /// through a single shared blob store (identical layers dedup
    /// across engine flavours, as on a real host).
    pub fn matrix(kernel: Kernel, registry: Arc<Registry>) -> Vec<ContainerRuntime> {
        let store = BlobStore::new();
        EngineKind::ALL
            .iter()
            .map(|&kind| {
                ContainerRuntime::with_store(
                    kind,
                    kernel.clone(),
                    Arc::clone(&registry),
                    Arc::clone(&store),
                )
            })
            .collect()
    }

    /// The engine flavour.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The kernel this engine drives.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The content-addressed store backing every layer and upper.
    pub fn blob_store(&self) -> &Arc<BlobStore> {
        &self.store
    }

    /// The overlay root filesystem of a running container.
    pub fn overlay_of(&self, name: &str) -> SysResult<Arc<OverlayFs>> {
        self.overlays.lock().get(name).cloned().ok_or(Errno::ESRCH)
    }

    /// Returns the shared read-only filesystem of `layer`, materializing
    /// it on first use. All containers (of all images) referencing the
    /// same layer content share one instance. The lock is held across
    /// materialization so a concurrent first use neither duplicates the
    /// work nor races the insertion.
    fn lower_for(&self, layer: &Layer) -> SysResult<Arc<BlobFs>> {
        let key = (layer.id.clone(), layer.content_digest());
        let mut layers = self.layers.lock();
        if let Some(fs) = layers.get(&key) {
            return Ok(Arc::clone(fs));
        }
        let dev = DevId(NEXT_DEV.fetch_add(1, Ordering::Relaxed));
        let fs = blobfs(dev, self.kernel.clock().clone(), Arc::clone(&self.store));
        layer.materialize_into(fs.as_ref())?;
        layers.insert(key, Arc::clone(&fs));
        Ok(fs)
    }

    /// Assembles a fresh overlay rootfs for one container of `image`:
    /// shared lowers (topmost layer first), private blob-backed upper.
    fn overlay_rootfs(&self, image: &Image) -> SysResult<Arc<OverlayFs>> {
        let mut lowers: Vec<Arc<dyn Filesystem>> = Vec::with_capacity(image.layers.len());
        for layer in image.layers.iter().rev() {
            lowers.push(self.lower_for(layer)?);
        }
        let clock = self.kernel.clock().clone();
        let upper = blobfs(
            DevId(NEXT_DEV.fetch_add(1, Ordering::Relaxed)),
            clock,
            Arc::clone(&self.store),
        );
        let rootfs = OverlayFs::new(
            DevId(NEXT_DEV.fetch_add(1, Ordering::Relaxed)),
            lowers,
            upper,
        );
        // Mountpoint/runtime skeleton lives in the upper layer.
        let ctx = FsContext::root();
        for dir in ROOTFS_SKELETON {
            fs_mkdir_p(rootfs.as_ref(), dir, &ctx)?;
        }
        Ok(rootfs)
    }

    /// Creates and starts a container from `image_ref`.
    pub fn run(&self, name: &str, image_ref: &str) -> SysResult<Container> {
        self.run_from(Pid::INIT, name, image_ref)
    }

    /// Starts a container **inside** an existing container (nested
    /// container-in-container): the child forks from the parent
    /// container's init and its rootfs/bookkeeping live in the parent's
    /// mount namespace.
    pub fn run_nested(&self, parent: &str, name: &str, image_ref: &str) -> SysResult<Container> {
        let parent_pid = self.resolve(parent)?;
        self.run_from(parent_pid, name, image_ref)
    }

    fn run_from(&self, parent_pid: Pid, name: &str, image_ref: &str) -> SysResult<Container> {
        let _timed = Timed::new(OBS_SPAWN_NS.get());
        if self.containers.lock().contains_key(name) {
            return Err(Errno::EEXIST);
        }
        let image = self.registry.get(image_ref)?;
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let id = self.kind.format_id(seq, name);
        let k = &self.kernel;

        // Assemble the copy-on-write rootfs over shared image layers.
        let rootfs = self.overlay_rootfs(&image)?;
        let dev = DevId(NEXT_DEV.fetch_add(1, Ordering::Relaxed));

        // Host-side bookkeeping directory (in the parent's namespace).
        let host_dir = format!("/var/lib/{}/{}", self.kind.dir_name(), id);
        mkdir_p(k, parent_pid, &host_dir)?;

        // Fork and isolate. The setup phase (unshare, mounts, pivot_root)
        // needs full privileges even when the parent is a confined
        // container init — the nested-engine equivalent of running the
        // inner daemon privileged; the final `set_creds` below re-confines
        // the container to its bounding set.
        let pid = k.fork(parent_pid)?;
        k.set_creds(pid, Credentials::host_root())?;
        k.unshare(
            pid,
            &[
                NamespaceKind::Mount,
                NamespaceKind::Pid,
                NamespaceKind::Net,
                NamespaceKind::Ipc,
                NamespaceKind::Uts,
                NamespaceKind::Cgroup,
            ],
        )?;
        // Container runtimes mount everything private so host mounts do not
        // leak in and container mounts do not leak out (paper §2.3).
        k.make_rprivate(pid)?;
        k.mount_fs(
            pid,
            &host_dir,
            Arc::clone(&rootfs) as Arc<dyn Filesystem>,
            MountFlags::default(),
        )?;
        k.pivot_root(pid, &host_dir)?;
        k.mount_procfs(pid, "/proc")?;
        devfs::mount_devfs(k, pid, "/dev", DevId(dev.0 + 500_000))?;

        // Cgroup: /<engine>/<id>.
        let engine_root = format!("/{}", self.kind.dir_name());
        let _ = k.cgroup_create(&engine_root);
        let cg = k.cgroup_create(&format!("{engine_root}/{id}"))?;
        k.cgroup_attach(pid, &cg)?;

        // Identity: container hostname, image env, entrypoint name,
        // confined credentials.
        let short: String = id.chars().take(12).collect();
        k.sethostname(pid, &short)?;
        let mut env = image.config.env.clone();
        env.entry("PATH".to_string())
            .or_insert_with(|| "/usr/local/bin:/usr/bin:/bin:/usr/sbin:/sbin".to_string());
        env.insert("HOSTNAME".to_string(), short);
        k.set_environ(pid, env)?;
        let entry_name = image
            .config
            .entrypoint
            .rsplit('/')
            .next()
            .unwrap_or("app")
            .to_string();
        k.set_name(pid, &entry_name)?;
        if !image.config.workdir.is_empty() {
            let _ = k.chdir(pid, &image.config.workdir);
        }
        let profile = format!("{}-default", self.kind.dir_name());
        k.set_creds(pid, Credentials::container_root(&profile))?;

        let container = Container {
            id: id.clone(),
            name: name.to_string(),
            image: image.reference(),
            pid,
            cgroup: cg.0.clone(),
            engine: self.kind,
        };
        self.containers
            .lock()
            .insert(name.to_string(), container.clone());
        self.overlays.lock().insert(name.to_string(), rootfs);
        OBS_SPAWNS.inc();
        OBS_RUNNING.inc();
        Ok(container)
    }

    /// Resolves a container *name or id* to its main pid — the only
    /// engine-specific operation CNTR needs.
    pub fn resolve(&self, name_or_id: &str) -> SysResult<Pid> {
        let containers = self.containers.lock();
        if let Some(c) = containers.get(name_or_id) {
            return Ok(c.pid);
        }
        containers
            .values()
            .find(|c| c.id == name_or_id || c.id.starts_with(name_or_id))
            .map(|c| c.pid)
            .ok_or(Errno::ESRCH)
    }

    /// Looks a container up by name.
    pub fn get(&self, name: &str) -> SysResult<Container> {
        self.containers
            .lock()
            .get(name)
            .cloned()
            .ok_or(Errno::ESRCH)
    }

    /// Lists containers (sorted by name).
    pub fn list(&self) -> Vec<Container> {
        let mut v: Vec<Container> = self.containers.lock().values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Stops and removes a container. Reaping the container's init is what
    /// actually frees its namespaces: the kernel's refcount-driven GC
    /// drops the mount table (and the rootfs `Arc` it pinned), the
    /// hostname, and any sockets bound inside — the engine only cleans up
    /// what it created *outside* the container: the cgroup node and the
    /// host-side bookkeeping directory. The shared lower layers stay
    /// cached for future containers; only the private upper is dropped.
    pub fn stop(&self, name: &str) -> SysResult<()> {
        let container = self.containers.lock().remove(name).ok_or(Errno::ESRCH)?;
        let _timed = Timed::new(OBS_REAP_NS.get());
        OBS_REAPS.inc();
        OBS_RUNNING.dec();
        self.overlays.lock().remove(name);
        self.kernel.exit(container.pid)?;
        self.kernel.reap(container.pid)?;
        // Purge the dead container from cgroup bookkeeping (members were
        // detached at exit; EBUSY only if someone attached a foreign pid).
        let _ = self
            .kernel
            .cgroup_remove(&CgroupPath(container.cgroup.clone()));
        // The bookkeeping dir lives in the *parent's* namespace — for a
        // nested container that namespace may already be gone; best-effort.
        let host_dir = format!("/var/lib/{}/{}", self.kind.dir_name(), container.id);
        let _ = self.kernel.rmdir(Pid::INIT, &host_dir);
        Ok(())
    }
}

fn mkdir_p(k: &Kernel, pid: Pid, path: &str) -> SysResult<()> {
    let mut cur = String::new();
    for comp in path.split('/').filter(|c| !c.is_empty()) {
        cur.push('/');
        cur.push_str(comp);
        match k.mkdir(pid, &cur, Mode::RWXR_XR_X) {
            Ok(()) | Err(Errno::EEXIST) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Builds a host kernel suitable for container workloads: a tmpfs root with
/// the standard directory skeleton and mounted `/proc`.
pub fn boot_host(clock: cntr_types::SimClock) -> Kernel {
    boot_host_with(clock, cntr_kernel::kernel::KernelConfig::default())
}

/// [`boot_host`] with an explicit [`cntr_kernel::kernel::KernelConfig`] —
/// the memory-bound stress tests shrink `page_cache_limit` and flip
/// `background_writeback` through here.
pub fn boot_host_with(
    clock: cntr_types::SimClock,
    config: cntr_kernel::kernel::KernelConfig,
) -> Kernel {
    let root = memfs(DevId(1), clock.clone());
    let k = Kernel::with_clock(clock, root, config);
    for d in [
        "/proc", "/dev", "/etc", "/var", "/var/lib", "/tmp", "/usr", "/usr/bin", "/run",
    ] {
        k.mkdir(Pid::INIT, d, Mode::RWXR_XR_X).expect("fresh root");
    }
    k.mount_procfs(Pid::INIT, "/proc").expect("fresh root");
    devfs::populate_dev(&k, Pid::INIT, "/dev").expect("fresh root");
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageBuilder;
    use cntr_types::{OpenFlags, SimClock};

    fn setup(kind: EngineKind) -> (ContainerRuntime, Kernel) {
        let clock = SimClock::new();
        let k = boot_host(clock);
        let registry = Registry::new();
        registry.push(
            ImageBuilder::new("mysql", "8.0")
                .layer("base")
                .binary("/bin/sh", 100_000, &[])
                .layer("app")
                .binary("/usr/sbin/mysqld", 5_000_000, &[])
                .text("/etc/my.cnf", "[mysqld]\n")
                .env("MYSQL_HOST", "db")
                .entrypoint("/usr/sbin/mysqld")
                .build(),
        );
        (ContainerRuntime::new(kind, k.clone(), registry), k)
    }

    #[test]
    fn run_isolates_and_populates() {
        let (rt, k) = setup(EngineKind::Docker);
        let c = rt.run("db", "mysql:8.0").unwrap();
        // Namespaces differ from the host in every unshared kind.
        let host_ns = k.proc_info(Pid::INIT).unwrap().ns;
        let cont_ns = k.proc_info(c.pid).unwrap().ns;
        assert!(host_ns.diff(&cont_ns).len() >= 6);
        // The container sees its image as /, with /proc and /dev mounted.
        assert!(k.stat(c.pid, "/usr/sbin/mysqld").unwrap().is_file());
        assert!(k.stat(c.pid, "/proc/1/status").is_ok());
        assert!(k.stat(c.pid, "/dev/null").is_ok());
        // The host does not see the container root at its own /.
        assert_eq!(k.stat(Pid::INIT, "/usr/sbin/mysqld"), Err(Errno::ENOENT));
        // Environment and identity applied.
        assert_eq!(
            k.getenv(c.pid, "MYSQL_HOST").unwrap().as_deref(),
            Some("db")
        );
        assert!(k.getenv(c.pid, "PATH").unwrap().is_some());
        let info = k.proc_info(c.pid).unwrap();
        assert_eq!(info.name, "mysqld");
        assert!(!info.creds.caps.has(cntr_types::Capability::SysAdmin));
        assert!(info.creds.lsm_profile.is_some());
        assert!(info.cgroup.0.starts_with("/docker/"));
    }

    #[test]
    fn container_writes_stay_inside() {
        let (rt, k) = setup(EngineKind::Lxc);
        let c = rt.run("web", "mysql:8.0").unwrap();
        let fd = k
            .open(c.pid, "/tmp/state", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.write_fd(c.pid, fd, b"container data").unwrap();
        k.close(c.pid, fd).unwrap();
        assert!(k.stat(c.pid, "/tmp/state").unwrap().is_file());
        assert_eq!(k.stat(Pid::INIT, "/tmp/state"), Err(Errno::ENOENT));
    }

    #[test]
    fn id_formats_differ_per_engine() {
        let docker = EngineKind::Docker.format_id(1, "db");
        assert_eq!(docker.len(), 64);
        assert!(docker.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(EngineKind::Lxc.format_id(1, "db"), "db");
        let rkt = EngineKind::Rkt.format_id(1, "db");
        assert_eq!(rkt.split('-').count(), 5);
        assert_eq!(EngineKind::SystemdNspawn.format_id(1, "db"), "db.machine");
    }

    #[test]
    fn resolve_by_name_and_id_prefix() {
        let (rt, _) = setup(EngineKind::Docker);
        let c = rt.run("db", "mysql:8.0").unwrap();
        assert_eq!(rt.resolve("db").unwrap(), c.pid);
        assert_eq!(rt.resolve(&c.id).unwrap(), c.pid);
        assert_eq!(rt.resolve(&c.id[..12]).unwrap(), c.pid);
        assert_eq!(rt.resolve("ghost"), Err(Errno::ESRCH));
    }

    #[test]
    fn stop_removes_and_reaps() {
        let (rt, k) = setup(EngineKind::Rkt);
        let c = rt.run("tmp", "mysql:8.0").unwrap();
        assert!(k.is_alive(c.pid));
        rt.stop("tmp").unwrap();
        assert!(!k.is_alive(c.pid));
        assert_eq!(rt.resolve("tmp"), Err(Errno::ESRCH));
        assert_eq!(rt.stop("tmp"), Err(Errno::ESRCH));
        // Name can be reused.
        rt.run("tmp", "mysql:8.0").unwrap();
    }

    #[test]
    fn duplicate_name_rejected() {
        let (rt, _) = setup(EngineKind::SystemdNspawn);
        rt.run("a", "mysql:8.0").unwrap();
        assert_eq!(rt.run("a", "mysql:8.0").map(|_| ()), Err(Errno::EEXIST));
    }

    #[test]
    fn missing_image_is_enoent() {
        let (rt, _) = setup(EngineKind::Docker);
        assert_eq!(rt.run("x", "nope:1").map(|_| ()), Err(Errno::ENOENT));
    }
}
