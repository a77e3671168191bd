//! Multithreaded stress of the sharded kernel: 8 OS threads fork, exec,
//! attach (setns + adopt_root), mount and umount across 64 containers.
//!
//! The assertions are the invariants the giant-lock kernel enforced by
//! construction and the sharded kernel must preserve under real
//! concurrency:
//!
//! * the test terminates (no deadlock between shard / mount / subsystem
//!   locks — any ordering bug hangs the suite),
//! * every pid handed out is unique,
//! * `/proc` snapshots are never torn (a child observed via `/proc` always
//!   has a live parent at snapshot time),
//! * refcounts hold: an umounted filesystem drops back to a single `Arc`
//!   reference, the process table returns to exactly the survivors, and
//!   the root cgroup tracks the live pid set,
//! * namespace GC holds: once every container is exited and reaped, the
//!   mount-namespace registry, the hostname map, the socket-node map and
//!   the per-namespace refcount table all return to the boot baseline —
//!   no transition under 8-thread churn leaks or double-frees a
//!   namespace.

use cntr_fs::memfs::memfs;
use cntr_kernel::kernel::KernelConfig;
use cntr_kernel::{Kernel, MountFlags, NamespaceKind};
use cntr_types::{DevId, Mode, OpenFlags, Pid, SimClock};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

const THREADS: usize = 8;
const CONTAINERS: usize = 64;
const ROUNDS: usize = 25;

struct Harness {
    kernel: Kernel,
    clock: SimClock,
    /// Every pid ever returned by `fork`, for the uniqueness assertion.
    all_pids: Mutex<HashSet<Pid>>,
}

impl Harness {
    fn fork(&self, parent: Pid) -> Pid {
        let pid = self.kernel.fork(parent).expect("fork");
        assert!(
            self.all_pids.lock().insert(pid),
            "duplicate pid {pid} handed out"
        );
        pid
    }
}

fn read_to_string(kernel: &Kernel, pid: Pid, path: &str) -> String {
    let fd = kernel
        .open(pid, path, OpenFlags::RDONLY, Mode::RW_R__R__)
        .expect("open");
    let mut out = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = kernel.read_fd(pid, fd, &mut buf).expect("read");
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    kernel.close(pid, fd).expect("close");
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn stress_fork_exec_attach_umount_across_containers() {
    let clock = SimClock::new();
    let root = memfs(DevId(1), clock.clone());
    let kernel = Kernel::with_clock(clock.clone(), root, KernelConfig::default());
    kernel.mkdir(Pid::INIT, "/proc", Mode::RWXR_XR_X).unwrap();
    kernel.mount_procfs(Pid::INIT, "/proc").unwrap();

    // The boot baseline the namespace GC must restore at the end.
    let baseline = (
        kernel.mount_ns_ids(),
        kernel.hostname_count(),
        kernel.socket_node_count(),
        kernel.ns_ref_entries(),
    );
    assert_eq!(baseline.0.len(), 1);
    assert_eq!((baseline.1, baseline.2, baseline.3), (1, 0, 7));

    let harness = Arc::new(Harness {
        kernel: kernel.clone(),
        clock: clock.clone(),
        all_pids: Mutex::new_class("kernel.test.all_pids", HashSet::new()),
    });

    // 64 containers: own mount + UTS namespaces, private propagation, a
    // private working directory and an executable "binary".
    let mut containers = Vec::with_capacity(CONTAINERS);
    for i in 0..CONTAINERS {
        let pid = harness.fork(Pid::INIT);
        kernel
            .unshare(
                pid,
                &[NamespaceKind::Mount, NamespaceKind::Uts, NamespaceKind::Pid],
            )
            .expect("unshare");
        kernel.make_rprivate(pid).expect("make_rprivate");
        kernel.sethostname(pid, &format!("c{i}")).expect("hostname");
        let dir = format!("/c{i}");
        kernel.mkdir(pid, &dir, Mode::RWXR_XR_X).expect("mkdir");
        let bin = format!("{dir}/tool");
        let fd = kernel
            .open(pid, &bin, OpenFlags::create(), Mode::RWXR_XR_X)
            .expect("create tool");
        kernel.write_fd(pid, fd, b"#!tool").expect("write tool");
        kernel.close(pid, fd).expect("close tool");
        containers.push((pid, dir));
    }

    let mut handles = Vec::new();
    let per_thread = CONTAINERS / THREADS;
    for t in 0..THREADS {
        let harness = Arc::clone(&harness);
        let own: Vec<(Pid, String)> = containers[t * per_thread..(t + 1) * per_thread].to_vec();
        handles.push(std::thread::spawn(move || {
            let kernel = &harness.kernel;
            for round in 0..ROUNDS {
                for (cpid, dir) in &own {
                    let (cpid, idx) = (*cpid, round % 4);

                    // fork + /proc snapshot consistency: the child's status
                    // file must name a live parent the instant it exists.
                    let child = harness.fork(cpid);
                    let status = read_to_string(kernel, cpid, &format!("/proc/{child}/status"));
                    assert!(status.contains(&format!("PPid:\t{cpid}")), "{status}");

                    // exec: read the container's tool binary.
                    let image = kernel
                        .exec_read(child, &format!("{dir}/tool"))
                        .expect("exec");
                    assert_eq!(image, b"#!tool");

                    // attach (the CNTR protocol kernel steps): a host tool
                    // joins the container's namespaces and adopts its root.
                    let tool = harness.fork(Pid::INIT);
                    kernel
                        .setns(tool, cpid, &[NamespaceKind::Mount, NamespaceKind::Uts])
                        .expect("setns");
                    kernel.adopt_root(tool, cpid).expect("adopt_root");
                    // Joined the container's UTS namespace: same hostname.
                    assert_eq!(
                        kernel.gethostname(tool).expect("tool hostname"),
                        kernel.gethostname(cpid).expect("container hostname"),
                    );

                    // mount/umount churn in the container's namespace; the
                    // filesystem must be fully released afterwards.
                    let sub = memfs(DevId(10_000 + child.raw() as u64), harness.clock.clone());
                    let at = format!("{dir}/m{idx}");
                    let _ = kernel.mkdir(cpid, &at, Mode::RWXR_XR_X);
                    kernel
                        .mount_fs(
                            cpid,
                            &at,
                            Arc::clone(&sub) as Arc<dyn cntr_fs::Filesystem>,
                            MountFlags::default(),
                        )
                        .expect("mount");
                    let fd = kernel
                        .open(
                            cpid,
                            &format!("{at}/x"),
                            OpenFlags::create(),
                            Mode::RW_R__R__,
                        )
                        .expect("create in mount");
                    kernel.close(cpid, fd).expect("close");
                    kernel.umount(cpid, &at).expect("umount");
                    assert_eq!(
                        Arc::strong_count(&sub),
                        1,
                        "umounted filesystem must drop to one reference"
                    );

                    // Socket churn in the container's namespace: bind,
                    // connect, close everything, unlink — the node must
                    // fully unbind every round.
                    let sock = format!("{dir}/round.sock");
                    let lfd = kernel.bind_listener(cpid, &sock).expect("bind");
                    let cfd = kernel.connect(cpid, &sock).expect("connect");
                    let sfd = kernel.accept(cpid, lfd).expect("accept");
                    kernel.close(cpid, cfd).expect("close client");
                    kernel.close(cpid, sfd).expect("close server");
                    kernel.close(cpid, lfd).expect("close listener");
                    kernel.unlink(cpid, &sock).expect("unlink sock");

                    // Environment churn on the container (shard-local).
                    kernel
                        .setenv(cpid, "ROUND", &round.to_string())
                        .expect("setenv");

                    // Tear down this round's processes.
                    kernel.exit(tool).expect("exit tool");
                    kernel.reap(tool).expect("reap tool");
                    kernel.exit(child).expect("exit child");
                    kernel.reap(child).expect("reap child");
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("stress thread must not panic");
    }

    // Survivors: init + the 64 containers, exactly.
    let mut expected: Vec<Pid> = vec![Pid::INIT];
    expected.extend(containers.iter().map(|(p, _)| *p));
    expected.sort_unstable();
    assert_eq!(kernel.pids(), expected);

    // The root cgroup tracks exactly the live pid set (every transient
    // process was detached on exit).
    let members = kernel
        .cgroup_members(&cntr_kernel::CgroupPath::root())
        .expect("members");
    let mut members = members;
    members.sort_unstable();
    assert_eq!(members, expected);

    // Hostname isolation survived the churn.
    for (i, (pid, _)) in containers.iter().enumerate() {
        assert_eq!(kernel.gethostname(*pid).unwrap(), format!("c{i}"));
    }
    assert_eq!(kernel.gethostname(Pid::INIT).unwrap(), "host");

    // Total forks: setup + 2 per container-round, all unique.
    let total = harness.all_pids.lock().len();
    assert_eq!(total, CONTAINERS + CONTAINERS * ROUNDS * 2);

    // While the containers live, their namespaces do: 64 mount namespaces
    // + the root, 64 hostnames + the host's.
    assert_eq!(kernel.mount_ns_ids().len(), 1 + CONTAINERS);
    assert_eq!(kernel.hostname_count(), 1 + CONTAINERS);

    // Namespace-GC invariant: exit + reap every container and the machine
    // must return to the boot baseline — registry, hostnames, socket
    // nodes and refcount entries all reclaimed, nothing double-freed.
    for (pid, _) in &containers {
        kernel.exit(*pid).expect("exit container");
        kernel.reap(*pid).expect("reap container");
    }
    assert_eq!(kernel.pids(), vec![Pid::INIT]);
    assert_eq!(
        (
            kernel.mount_ns_ids(),
            kernel.hostname_count(),
            kernel.socket_node_count(),
            kernel.ns_ref_entries(),
        ),
        baseline,
        "namespace GC must restore the boot baseline"
    );

    // Observability invariants at quiescence (this binary holds exactly one
    // test, so no concurrent test is mutating the process-global metrics).
    // Every page-cache lookup resolved to exactly one hit or miss — the
    // RAII/accounting symmetry satellite of the obs PR.
    let lookups = obs::counter_value("pagecache.lookups").unwrap_or(0);
    let hits = obs::counter_value("pagecache.hits").unwrap_or(0);
    let misses = obs::counter_value("pagecache.misses").unwrap_or(0);
    assert!(lookups > 0, "stress must have exercised the page cache");
    assert_eq!(
        hits + misses,
        lookups,
        "every lookup is exactly one hit or one miss"
    );

    // A ring-FUSE bout after the stress: request accounting must be
    // symmetric (started == completed) and the in-flight gauge must drain
    // back to zero once every worker went home.
    fuse_ring_accounting_bout();
    let started = obs::counter_value("fuse.req.started").unwrap_or(0);
    let completed = obs::counter_value("fuse.req.completed").unwrap_or(0);
    assert!(started > 0, "the FUSE bout must have issued requests");
    assert_eq!(started, completed, "every request started must complete");
    assert_eq!(
        obs::gauge_value("fuse.req.in-flight").unwrap_or(0),
        0,
        "queue depth must return to zero at quiescence"
    );
    assert_eq!(
        obs::gauge_value("fuse.ring.queue-depth").unwrap_or(0),
        0,
        "submission rings must drain back to empty at quiescence"
    );
}

/// Hammers a FUSE mount over the io_uring-style ring transport from
/// several threads, then tears it down: batched doorbells and multi-reap
/// must preserve exact request accounting, under the lockdep checkpoints
/// at the ring's park/reap points.
fn fuse_ring_accounting_bout() {
    use cntr_fs::Filesystem;
    use cntr_fuse::{FsHandler, FuseClientFs, FuseConfig, RingTransport};
    use cntr_types::{CostModel, FileType, Ino};

    let clock = SimClock::new();
    let backing = memfs(DevId(7_001), clock.clone());
    let transport = Arc::new(RingTransport::new(FsHandler::new(backing), 4, 64, 8));
    let client = FuseClientFs::mount(
        DevId(0xF1),
        clock,
        CostModel::calibrated(),
        FuseConfig::optimized(),
        transport,
    )
    .expect("fuse mount over ring");

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let client = Arc::clone(&client);
        handles.push(std::thread::spawn(move || {
            let ctx = cntr_fs::FsContext::root();
            let st = client
                .mknod(
                    Ino::ROOT,
                    &format!("r{t}"),
                    FileType::Regular,
                    Mode::RW_R__R__,
                    0,
                    &ctx,
                )
                .expect("mknod");
            let fh = client.open(st.ino, OpenFlags::RDWR).expect("open");
            let payload = vec![t as u8; 4096];
            for i in 0..32u64 {
                client.write(st.ino, fh, i * 4096, &payload).expect("write");
                let mut buf = [0u8; 4096];
                client.read(st.ino, fh, i * 4096, &mut buf).expect("read");
            }
            client.release(st.ino, fh).expect("release");
        }));
    }
    for h in handles {
        h.join().expect("ring bout thread must not panic");
    }
}
