//! The CNTR attach workflow (paper §3.1–§3.2): the four steps that merge a
//! slim application container with a fat tools container (or the host).
//!
//! 1. **Resolve container name and obtain container context** — engine
//!    name→pid resolution plus `/proc` inspection ([`ContainerContext`]).
//! 2. **Launch the CntrFS server** — a forked process, `setns`ed into the
//!    fat container's mount namespace when tools come from an image.
//! 3. **Initialize the tools namespace** — join the application container's
//!    namespaces and cgroup, `unshare` a **nested mount namespace**, mark
//!    everything private, mount CntrFS at a temporary root, bind the
//!    application's `/` to `/var/lib/cntr`, bind its `/proc`, `/dev` and
//!    selected `/etc` files over the tools view, and `chroot` into it.
//! 4. **Start the interactive shell** — environment from the application
//!    (except `PATH`, which comes from the tools side), credentials dropped
//!    to the container's bounding set and LSM profile, I/O over a pseudo-TTY.

use crate::cntrfs::CntrfsServer;
use crate::context::ContainerContext;
use crate::event_loop::{lock_class, EventLoop, PtyHandles};
use crate::proxy::SocketProxy;
use crate::pty::Pty;
use crate::shell::Shell;
use cntr_engine::ContainerRuntime;
use cntr_fuse::{FuseClientFs, FuseConfig, InlineTransport};
use cntr_kernel::{Kernel, MountFlags, NamespaceKind};
use cntr_types::{DevId, Errno, Mode, OpenFlags, Pid, SysResult};
use obs::{LazyCounter, LazyHistogram, Subsystem, Timed};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// Attach is the third leg of the container lifecycle (after spawn and
// before reap, both metered in `cntr-engine`); it shares their subsystem.
static OBS_ATTACHES: LazyCounter = LazyCounter::new(Subsystem::Engine, "engine.attach.count");
static OBS_ATTACH_NS: LazyHistogram =
    LazyHistogram::new(Subsystem::Engine, "engine.attach.latency-ns");

/// Where the tools come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToolsLocation {
    /// Serve the host's root filesystem.
    Host,
    /// Serve the root filesystem of a running fat container (by pid; use
    /// [`Cntr::attach_with_engine`] to resolve names).
    FatContainer(Pid),
}

/// Attach options.
#[derive(Debug, Clone, Copy)]
pub struct CntrOptions {
    /// FUSE mount configuration (the §3.3 optimizations).
    pub fuse: FuseConfig,
    /// Tools source.
    pub tools: ToolsLocation,
}

impl Default for CntrOptions {
    fn default() -> CntrOptions {
        CntrOptions {
            fuse: FuseConfig::optimized(),
            tools: ToolsLocation::Host,
        }
    }
}

static NEXT_FUSE_DEV: AtomicU64 = AtomicU64::new(0xF000);
static NEXT_TMP: AtomicU64 = AtomicU64::new(1);

/// The CNTR tool.
pub struct Cntr {
    kernel: Kernel,
    /// The shared attach plane: one epoll event loop multiplexing every
    /// session's proxies and ptys. Created lazily on first attach.
    plane: Mutex<Option<Arc<EventLoop>>>,
}

impl Cntr {
    /// Creates the tool on a machine.
    pub fn new(kernel: Kernel) -> Cntr {
        Cntr {
            kernel,
            plane: Mutex::new_class(lock_class::PLANE_SLOT, None),
        }
    }

    /// The shared attach plane, created on first use. The loop (and its
    /// plane process) is built *outside* the slot lock; a racing loser's
    /// loop is dropped, which reaps its process.
    pub fn plane(&self) -> SysResult<Arc<EventLoop>> {
        if let Some(p) = self.plane.lock().as_ref() {
            return Ok(Arc::clone(p));
        }
        let fresh = EventLoop::new(self.kernel.clone())?;
        let mut slot = self.plane.lock();
        Ok(Arc::clone(slot.get_or_insert(fresh)))
    }

    /// Attaches to the container running as `target`.
    pub fn attach(&self, target: Pid, opts: CntrOptions) -> SysResult<AttachSession> {
        let _timed = Timed::new(OBS_ATTACH_NS.get());
        OBS_ATTACHES.inc();
        // ------------------------------------------------------------------
        // Step #1: resolve and gather the container context via /proc.
        // ------------------------------------------------------------------
        let k = &self.kernel;
        let cntr_pid = k.fork(Pid::INIT)?;
        k.set_name(cntr_pid, "cntr")?;
        let context = ContainerContext::gather(k, cntr_pid, target)?;

        // The FUSE "control socket" is opened before attaching (paper
        // §3.2.1: "the CNTR process opens the FUSE control socket
        // (/dev/fuse). This file descriptor is required to mount the CNTRFS
        // filesystem, after attaching").
        let fuse_fd = k.open(cntr_pid, "/dev/fuse", OpenFlags::RDWR, Mode::RW_R__R__)?;

        // ------------------------------------------------------------------
        // Step #2: launch the CntrFS server (host or fat container).
        // ------------------------------------------------------------------
        let server_pid = k.fork(cntr_pid)?;
        k.set_name(server_pid, "cntrfs")?;
        if let ToolsLocation::FatContainer(fat_pid) = opts.tools {
            // The server joins the fat container's mount namespace; its
            // path resolution now happens inside the fat image.
            k.setns(server_pid, fat_pid, &[NamespaceKind::Mount])?;
        }
        let server = CntrfsServer::new(k.clone(), server_pid, opts.fuse.published_lookup)?;
        let transport = InlineTransport::new(server.clone());
        let dev = DevId(NEXT_FUSE_DEV.fetch_add(1, Ordering::Relaxed));
        let client = FuseClientFs::mount(dev, k.clock().clone(), opts.fuse, transport)?;

        // ------------------------------------------------------------------
        // Step #3: initialize the tools namespace.
        // ------------------------------------------------------------------
        let attached = k.fork(cntr_pid)?;
        k.set_name(attached, "cntr-shell")?;
        // Join every namespace of the application container and its cgroup.
        k.setns(
            attached,
            target,
            &[
                NamespaceKind::Mount,
                NamespaceKind::Pid,
                NamespaceKind::Net,
                NamespaceKind::Ipc,
                NamespaceKind::Uts,
                NamespaceKind::Cgroup,
                NamespaceKind::User,
            ],
        )?;
        k.cgroup_attach(attached, &cntr_kernel::CgroupPath(context.cgroup.clone()))?;
        // `setns` lands at the mount namespace root; adopt the target's
        // (possibly chrooted) root — `chroot("/proc/<pid>/root")` — so a
        // nested attach sees the same world the target does.
        k.adopt_root(attached, target)?;
        // The nested namespace: unshare and make private so nothing
        // propagates back into the application container.
        k.unshare(attached, &[NamespaceKind::Mount])?;
        k.make_rprivate(attached)?;

        // Mount CntrFS on a temporary mountpoint inside the container.
        let tmp = format!("/tmp/.cntr-{}", NEXT_TMP.fetch_add(1, Ordering::Relaxed));
        match k.mkdir(attached, &tmp, Mode::new(0o700)) {
            Ok(()) | Err(Errno::EEXIST) => {}
            Err(e) => return Err(e),
        }
        k.mount_fs(attached, &tmp, client.clone(), MountFlags::default())?;

        // Re-mount the application's tree under TMP/var/lib/cntr. The
        // directory is created *through CntrFS* (i.e. on the tools side).
        for dir in ["var", "var/lib", "var/lib/cntr"] {
            match k.mkdir(attached, &format!("{tmp}/{dir}"), Mode::RWXR_XR_X) {
                Ok(()) | Err(Errno::EEXIST) => {}
                Err(e) => return Err(e),
            }
        }
        k.bind_mount_recursive(
            attached,
            "/",
            &format!("{tmp}/var/lib/cntr"),
            MountFlags::default(),
        )?;

        // Bind the application's /proc and /dev over the tools view, so
        // tools observe the application's processes and devices.
        for special in ["proc", "dev"] {
            match k.mkdir(attached, &format!("{tmp}/{special}"), Mode::RWXR_XR_X) {
                Ok(()) | Err(Errno::EEXIST) => {}
                Err(e) => return Err(e),
            }
            k.bind_mount(
                attached,
                &format!("/{special}"),
                &format!("{tmp}/{special}"),
                MountFlags::default(),
            )?;
        }
        // Bind selected /etc configuration files from the application.
        for file in ["passwd", "hostname", "resolv.conf", "hosts"] {
            let src = format!("/etc/{file}");
            if k.stat(attached, &src).is_err() {
                continue;
            }
            let dst = format!("{tmp}/etc/{file}");
            // The target must exist on the tools side before a file bind.
            if k.stat(attached, &dst).is_err() {
                match k.open(
                    attached,
                    &dst,
                    OpenFlags::WRONLY.with(OpenFlags::CREAT),
                    Mode::RW_R__R__,
                ) {
                    Ok(fd) => k.close(attached, fd)?,
                    Err(_) => continue,
                }
            }
            k.bind_mount(attached, &src, &dst, MountFlags::default())?;
        }

        // Atomically swap the root: chroot into TMP.
        k.chroot(attached, &tmp)?;

        // ------------------------------------------------------------------
        // Step #4: prepare identity and start the interactive shell.
        // ------------------------------------------------------------------
        // Environment from the application container — except PATH, which
        // is inherited from the tools side (§3.2.3).
        let tools_path = match opts.tools {
            ToolsLocation::Host => k
                .getenv(Pid::INIT, "PATH")?
                .unwrap_or_else(|| "/usr/local/bin:/usr/bin:/bin:/usr/sbin:/sbin".to_string()),
            ToolsLocation::FatContainer(fat_pid) => k
                .getenv(fat_pid, "PATH")?
                .unwrap_or_else(|| "/usr/local/bin:/usr/bin:/bin".to_string()),
        };
        let mut env = context.env.clone();
        env.insert("PATH".to_string(), tools_path);
        k.set_environ(attached, env)?;
        // Drop privileges: intersect with the container's bounding set and
        // apply its LSM profile.
        let container_creds = k.creds(target)?;
        let mut attached_creds = k.creds(attached)?;
        attached_creds.confine_to(&container_creds);
        k.set_creds(attached, attached_creds)?;

        k.close(cntr_pid, fuse_fd)?;

        let pty = Pty::new();
        let shell = Arc::new(Shell::new(k.clone(), attached, Arc::clone(&pty)));
        // Join the shared attach plane: the session's pty (and later any
        // forwarded sockets) become endpoints of the one event loop.
        let plane = self.plane()?;
        let pty_handles = plane.register_pty(&pty, &shell)?;
        Ok(AttachSession {
            kernel: k.clone(),
            target,
            cntr_pid,
            server_pid,
            attached,
            context,
            client,
            server,
            plane,
            pty_handles,
            pty,
            shell,
            proxies: Mutex::new_class(lock_class::SESSION_PROXIES, Vec::new()),
        })
    }

    /// Resolves `name` with a container engine, then attaches. The fat
    /// container (if any) is resolved with the same engine.
    pub fn attach_with_engine(
        &self,
        engine: &ContainerRuntime,
        name: &str,
        fat_name: Option<&str>,
        fuse: FuseConfig,
    ) -> SysResult<AttachSession> {
        let target = engine.resolve(name)?;
        let tools = match fat_name {
            Some(fat) => ToolsLocation::FatContainer(engine.resolve(fat)?),
            None => ToolsLocation::Host,
        };
        self.attach(target, CntrOptions { fuse, tools })
    }
}

/// A live CNTR attachment.
pub struct AttachSession {
    kernel: Kernel,
    /// The application container's main process.
    pub target: Pid,
    /// The coordinator process on the host.
    pub cntr_pid: Pid,
    /// The CntrFS server process.
    pub server_pid: Pid,
    /// The attached process inside the nested namespace.
    pub attached: Pid,
    /// The gathered container context.
    pub context: ContainerContext,
    /// The FUSE client (kernel side of CntrFS).
    pub client: Arc<FuseClientFs>,
    /// The CntrFS server object.
    pub server: CntrfsServer,
    plane: Arc<EventLoop>,
    pty_handles: PtyHandles,
    pty: Arc<Pty>,
    shell: Arc<Shell>,
    proxies: Mutex<Vec<Arc<SocketProxy>>>,
}

impl AttachSession {
    /// The kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The interactive shell.
    pub fn shell(&self) -> &Shell {
        &self.shell
    }

    /// The user-facing pty master.
    pub fn pty(&self) -> &Arc<Pty> {
        &self.pty
    }

    /// Runs one command in the nested namespace and returns its output.
    pub fn run(&self, command: &str) -> String {
        self.shell.run(command)
    }

    /// The attach plane this session's endpoints are registered on.
    pub fn plane(&self) -> &Arc<EventLoop> {
        &self.plane
    }

    /// Registers a socket forwarder on the session's plane: it listens
    /// at `nested_path` (bound in the attached process's namespace, so
    /// in-container clients resolve it) and forwards to `target_path`
    /// on the tools side. The listener fd moves into the plane process.
    pub fn add_proxy(&self, nested_path: &str, target_path: &str) -> SysResult<Arc<SocketProxy>> {
        let proxy = SocketProxy::on_plane(
            &self.plane,
            self.attached,
            self.server_pid,
            nested_path,
            target_path,
        )?;
        self.proxies.lock().push(Arc::clone(&proxy));
        Ok(proxy)
    }

    /// Forwards a Unix socket (alias of [`add_proxy`]).
    ///
    /// [`add_proxy`]: AttachSession::add_proxy
    pub fn forward_socket(
        &self,
        nested_path: &str,
        target_path: &str,
    ) -> SysResult<Arc<SocketProxy>> {
        self.add_proxy(nested_path, target_path)
    }

    /// Pumps the session's plane until quiet. All of the plane's
    /// endpoints advance — a session cannot be pumped in isolation, by
    /// design.
    pub fn pump_proxies(&self) -> SysResult<usize> {
        self.plane.pump_until_quiet()
    }

    /// Kills the CntrFS server (failure injection): subsequent filesystem
    /// access in the nested namespace fails with `ENOTCONN`.
    pub fn kill_server(&self) {
        self.client.kill_connection();
    }

    /// Deregisters the session's endpoints from the live event loop
    /// (proxies first, then the pty pair), then tears down the session
    /// processes. The plane and every other session keep running; the
    /// application container is left untouched.
    pub fn teardown(&self) -> SysResult<()> {
        // Snapshot-and-clear under the lock, deregister outside it: the
        // plane takes kernel locks, which rank below the proxy list.
        let proxies: Vec<Arc<SocketProxy>> = std::mem::take(&mut *self.proxies.lock());
        for proxy in proxies {
            proxy.unregister();
        }
        self.plane.remove_pty(self.pty_handles);
        let k = &self.kernel;
        for pid in [self.attached, self.server_pid, self.cntr_pid] {
            let _ = k.exit(pid);
            let _ = k.reap(pid);
        }
        Ok(())
    }

    /// Detaches: [`teardown`], consuming the session.
    ///
    /// [`teardown`]: AttachSession::teardown
    pub fn detach(self) -> SysResult<()> {
        self.teardown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntr_engine::image::ImageBuilder;
    use cntr_engine::runtime::boot_host;
    use cntr_engine::{EngineKind, Registry};
    use cntr_types::SimClock;

    fn host_with_tools() -> Kernel {
        let k = boot_host(SimClock::new());
        for tool in [
            "ls", "cat", "ps", "gdb", "strace", "env", "stat", "tee", "hostname",
        ] {
            let path = format!("/usr/bin/{tool}");
            let fd = k
                .open(Pid::INIT, &path, OpenFlags::create(), Mode::RWXR_XR_X)
                .unwrap();
            k.write_fd(Pid::INIT, fd, b"HOST-TOOL").unwrap();
            k.close(Pid::INIT, fd).unwrap();
            k.chmod(Pid::INIT, &path, Mode::RWXR_XR_X).unwrap();
        }
        k.setenv(Pid::INIT, "PATH", "/usr/bin:/bin").unwrap();
        k
    }

    fn slim_mysql() -> Arc<cntr_engine::Image> {
        // The slim image: the app and its config, no tools at all.
        ImageBuilder::new("mysql", "slim")
            .layer("mysql-app")
            .binary("/usr/sbin/mysqld", 40_000_000, &[])
            .text("/etc/my.cnf", "[mysqld]\nmax_connections=100\n")
            .text(
                "/etc/passwd",
                "root:x:0:0::/:/bin/sh\nmysql:x:999:999::/var/lib/mysql:\n",
            )
            .text("/etc/hostname", "db\n")
            .dir("/var/lib/mysql")
            .env("MYSQL_DATABASE", "prod")
            .entrypoint("/usr/sbin/mysqld")
            .build()
    }

    fn setup() -> (Kernel, ContainerRuntime) {
        let k = host_with_tools();
        let registry = Registry::new();
        registry.push(slim_mysql());
        registry.push(
            ImageBuilder::new("debug-tools", "latest")
                .layer("toolbox")
                .binary("/usr/bin/gdb", 80_000_000, &[])
                .binary("/usr/bin/strace", 2_000_000, &[])
                .binary("/usr/bin/ls", 150_000, &[])
                .binary("/usr/bin/cat", 50_000, &[])
                .binary("/usr/bin/ps", 120_000, &[])
                .env("PATH", "/usr/bin")
                .entrypoint("/usr/bin/gdb")
                .build(),
        );
        let rt = ContainerRuntime::new(EngineKind::Docker, k.clone(), registry);
        (k, rt)
    }

    #[test]
    fn host_to_container_attach_full_workflow() {
        let (k, rt) = setup();
        let c = rt.run("db", "mysql:slim").unwrap();
        // The slim container has NO tools.
        assert!(k.stat(c.pid, "/usr/bin/gdb").is_err());

        let cntr = Cntr::new(k.clone());
        let session = cntr
            .attach(c.pid, CntrOptions::default())
            .expect("attach succeeds");

        // Tools from the host are visible at / in the nested namespace.
        assert!(k.stat(session.attached, "/usr/bin/gdb").unwrap().is_file());
        // The application's filesystem is at /var/lib/cntr.
        assert!(k
            .stat(session.attached, "/var/lib/cntr/usr/sbin/mysqld")
            .unwrap()
            .is_file());
        assert!(k
            .stat(session.attached, "/var/lib/cntr/etc/my.cnf")
            .unwrap()
            .is_file());
        // The app's /proc is bound over the tools view: the container's
        // processes are visible.
        assert!(k
            .stat(session.attached, &format!("/proc/{}/status", c.pid))
            .is_ok());
        // Environment: app values kept, PATH from the host.
        assert_eq!(
            k.getenv(session.attached, "MYSQL_DATABASE")
                .unwrap()
                .as_deref(),
            Some("prod")
        );
        assert_eq!(
            k.getenv(session.attached, "PATH").unwrap().as_deref(),
            Some("/usr/bin:/bin")
        );
        // Credentials dropped to the container's bounding set.
        let creds = k.creds(session.attached).unwrap();
        assert!(!creds.caps.has(cntr_types::Capability::SysAdmin));
        assert!(creds.lsm_profile.is_some());
        // Same cgroup as the container.
        assert_eq!(
            k.proc_info(session.attached).unwrap().cgroup.0,
            session.context.cgroup
        );

        // The shell runs tools (loaded over CntrFS) against the app.
        let out = session.run("gdb -p 1");
        // Note: inside the container's pid namespace the app is still
        // /proc/<global pid> in our simulation; attach via the visible pid.
        let out2 = session.run(&format!("gdb -p {}", c.pid));
        assert!(
            out.contains("gdb") || out2.contains("Attaching"),
            "{out}{out2}"
        );
        let cat = session.run("cat /var/lib/cntr/etc/my.cnf");
        assert!(cat.contains("max_connections=100"));

        // The application container itself is untouched: no tools at its /.
        assert!(k.stat(c.pid, "/usr/bin/gdb").is_err());
        assert!(k.stat(c.pid, "/usr/sbin/mysqld").unwrap().is_file());

        session.detach().unwrap();
    }

    #[test]
    fn container_to_container_attach_uses_fat_image_tools() {
        let (k, rt) = setup();
        let app = rt.run("db", "mysql:slim").unwrap();
        let fat = rt.run("toolbox", "debug-tools:latest").unwrap();

        let cntr = Cntr::new(k.clone());
        let session = cntr
            .attach_with_engine(&rt, "db", Some("toolbox"), FuseConfig::optimized())
            .expect("attach with fat container");

        // Tools resolve from the FAT container's image, not the host:
        // /usr/bin/gdb exists (toolbox) and /usr/sbin/mysqld does not at /.
        assert!(k.stat(session.attached, "/usr/bin/gdb").unwrap().is_file());
        assert!(k.stat(session.attached, "/usr/sbin/mysqld").is_err());
        // The fat container's gdb is 80 MB; the host one is 9 bytes.
        assert_eq!(
            k.stat(session.attached, "/usr/bin/gdb").unwrap().size,
            80_000_000
        );
        // The app is reachable under /var/lib/cntr.
        assert!(k
            .stat(session.attached, "/var/lib/cntr/usr/sbin/mysqld")
            .unwrap()
            .is_file());
        // Fat container is unaffected by the attachment.
        assert!(k.stat(fat.pid, "/usr/bin/gdb").unwrap().is_file());
        assert!(k.stat(fat.pid, "/var/lib/cntr/usr/sbin/mysqld").is_err());
        let _ = app;
        session.detach().unwrap();
    }

    /// A LOOKUP reply leaves its parent's attributes cached, so a second
    /// `stat` of a deep tools path crosses no FUSE round trip: two stats of
    /// seven components send seven LOOKUPs.
    #[test]
    fn repeated_stat_of_a_deep_path_looks_up_each_component_once() {
        let (k, rt) = setup();
        let mut dir = String::new();
        for name in ["opt", "a", "b", "c", "d", "e"] {
            dir = format!("{dir}/{name}");
            k.mkdir(Pid::INIT, &dir, Mode::RWXR_XR_X).unwrap();
        }
        let path = format!("{dir}/tool");
        let fd = k
            .open(Pid::INIT, &path, OpenFlags::create(), Mode::RWXR_XR_X)
            .unwrap();
        k.close(Pid::INIT, fd).unwrap();
        let c = rt.run("db", "mysql:slim").unwrap();
        let cntr = Cntr::new(k.clone());
        let session = cntr.attach(c.pid, CntrOptions::default()).unwrap();
        let before = session.client.conn_stats();
        for _ in 0..2 {
            assert!(k.stat(session.attached, &path).unwrap().is_file());
        }
        let after = session.client.conn_stats();
        assert_eq!(after.lookups - before.lookups, 7);
        assert_eq!(after.getattrs, before.getattrs);
        session.detach().unwrap();
    }

    /// A name after a tools file is `ENOTDIR` before the walk asks CntrFS
    /// about it: the `stat` crosses no FUSE round trip once the file's
    /// own path is cached.
    #[test]
    fn a_name_after_a_tools_file_sends_no_lookup() {
        let (k, rt) = setup();
        let fd = k
            .open(
                Pid::INIT,
                "/usr/bin/tool",
                OpenFlags::create(),
                Mode::RWXR_XR_X,
            )
            .unwrap();
        k.close(Pid::INIT, fd).unwrap();
        let c = rt.run("db", "mysql:slim").unwrap();
        let cntr = Cntr::new(k.clone());
        let session = cntr.attach(c.pid, CntrOptions::default()).unwrap();
        assert!(k.stat(session.attached, "/usr/bin/tool").unwrap().is_file());
        let before = session.client.conn_stats();
        assert_eq!(
            k.stat(session.attached, "/usr/bin/tool/x"),
            Err(Errno::ENOTDIR)
        );
        assert_eq!(session.client.conn_stats().total(), before.total());
        session.detach().unwrap();
    }

    /// A cold 4 KiB `pread` straddling two pages of a tools file is one
    /// 8 KiB READ: the client page cache fills the run it misses with one
    /// request, and a read that does not continue the last reply opens no
    /// readahead window. (The shipping profile less passthrough, which
    /// would send no READ at all.)
    #[test]
    fn cold_pread_across_two_pages_is_one_8k_read() {
        let (k, rt) = setup();
        let fd = k
            .open(
                Pid::INIT,
                "/usr/bin/big",
                OpenFlags::create(),
                Mode::RW_R__R__,
            )
            .unwrap();
        k.write_fd(Pid::INIT, fd, &vec![7u8; 64 * 1024]).unwrap();
        k.close(Pid::INIT, fd).unwrap();
        let c = rt.run("db", "mysql:slim").unwrap();
        let cntr = Cntr::new(k.clone());
        let cached = cntr_fuse::InitFlags {
            passthrough: false,
            ..cntr_fuse::InitFlags::cntr_default()
        };
        let opts = CntrOptions {
            fuse: FuseConfig::optimized().with_flags(cached),
            ..CntrOptions::default()
        };
        let session = cntr.attach(c.pid, opts).unwrap();
        let fd = k
            .open(
                session.attached,
                "/usr/bin/big",
                OpenFlags::RDONLY,
                Mode::RW_R__R__,
            )
            .unwrap();
        let before = session.client.conn_stats();
        let mut buf = [0u8; 4096];
        let n = k
            .pread(session.attached, fd, 16384 + 2048, &mut buf)
            .unwrap();
        assert_eq!((n, buf), (4096, [7u8; 4096]));
        let after = session.client.conn_stats();
        assert_eq!(after.total() - before.total(), 1, "one request");
        assert_eq!(after.reads - before.reads, 1, "and it is a READ");
        let reply = cntr_fuse::Reply::Data(vec![0u8; 8192].into());
        assert_eq!(
            after.bytes_out - before.bytes_out,
            reply.wire_bytes() as u64,
            "of 8 KiB"
        );
        k.close(session.attached, fd).unwrap();
        session.detach().unwrap();
    }

    #[test]
    fn etc_files_bound_from_application() {
        let (k, rt) = setup();
        let c = rt.run("db", "mysql:slim").unwrap();
        let cntr = Cntr::new(k.clone());
        let session = cntr.attach(c.pid, CntrOptions::default()).unwrap();
        // /etc/passwd in the nested namespace is the app's, not the host's.
        let out = session.run("cat /etc/passwd");
        assert!(out.contains("mysql:x:999"), "{out}");
        session.detach().unwrap();
    }

    #[test]
    fn writes_through_var_lib_cntr_reach_the_app() {
        let (k, rt) = setup();
        let c = rt.run("db", "mysql:slim").unwrap();
        let cntr = Cntr::new(k.clone());
        let session = cntr.attach(c.pid, CntrOptions::default()).unwrap();
        // Edit the app's config in place (the §7 workflow).
        session.run("tee /var/lib/cntr/etc/my.cnf [mysqld] max_connections=500");
        // The application sees the new config immediately.
        let fd = k
            .open(c.pid, "/etc/my.cnf", OpenFlags::RDONLY, Mode::RW_R__R__)
            .unwrap();
        let mut buf = [0u8; 128];
        let n = k.read_fd(c.pid, fd, &mut buf).unwrap();
        let content = String::from_utf8_lossy(&buf[..n]).to_string();
        assert!(content.contains("max_connections=500"), "{content}");
        k.close(c.pid, fd).unwrap();
        session.detach().unwrap();
    }

    #[test]
    fn server_crash_yields_enotconn_in_nested_ns() {
        let (k, rt) = setup();
        let c = rt.run("db", "mysql:slim").unwrap();
        let cntr = Cntr::new(k.clone());
        let session = cntr.attach(c.pid, CntrOptions::default()).unwrap();
        assert!(k.stat(session.attached, "/usr/bin/gdb").is_ok());
        session.kill_server();
        // Uncached paths now fail with ENOTCONN; the app container is fine.
        assert_eq!(
            k.stat(session.attached, "/usr/bin/never-looked-up"),
            Err(Errno::ENOTCONN)
        );
        assert!(k.stat(c.pid, "/etc/my.cnf").is_ok());
    }

    #[test]
    fn nested_attach_cntrfs_over_cntrfs() {
        // Paper §7: "We plan to further extend our evaluation to include
        // the nested container design." Attach to the attached process.
        let (k, rt) = setup();
        let c = rt.run("db", "mysql:slim").unwrap();
        let cntr = Cntr::new(k.clone());
        let outer = cntr.attach(c.pid, CntrOptions::default()).unwrap();
        let inner = cntr
            .attach(outer.attached, CntrOptions::default())
            .expect("nested attach");
        // The inner session sees the outer session's world under
        // /var/lib/cntr: tools at /var/lib/cntr/usr/bin/gdb, and the app
        // two levels deep.
        assert!(k
            .stat(inner.attached, "/var/lib/cntr/usr/bin/gdb")
            .unwrap()
            .is_file());
        assert!(k
            .stat(inner.attached, "/var/lib/cntr/var/lib/cntr/usr/sbin/mysqld")
            .unwrap()
            .is_file());
        inner.detach().unwrap();
        outer.detach().unwrap();
    }

    #[test]
    fn socket_forwarding_through_session() {
        let (k, rt) = setup();
        let c = rt.run("db", "mysql:slim").unwrap();
        // An "X11 server" on the host.
        let x11 = k.bind_listener(Pid::INIT, "/run/x11.sock").unwrap();
        let cntr = Cntr::new(k.clone());
        let session = cntr.attach(c.pid, CntrOptions::default()).unwrap();
        // Forward /tmp/x11.sock (nested view) → host /run/x11.sock.
        let proxy = session
            .forward_socket("/var/lib/cntr/tmp/x11.sock", "/run/x11.sock")
            .unwrap();
        // The application connects to the socket inside its own container.
        let app_fd = k.connect(c.pid, "/tmp/x11.sock").unwrap();
        proxy.pump().unwrap();
        k.write_fd(c.pid, app_fd, b"DRAW").unwrap();
        session.pump_proxies().unwrap();
        let conn = k.accept(Pid::INIT, x11).unwrap();
        let mut buf = [0u8; 8];
        let n = k.read_fd(Pid::INIT, conn, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"DRAW");
        session.detach().unwrap();
    }
}
