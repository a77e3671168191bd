//! End-to-end checks of the observability surface: `/proc/cntrstats`
//! rendered through the full stack, and request tracing across the
//! client → transport → handler → storage pipeline.
//!
//! Both checks live in one `#[test]` binary on purpose: the metrics
//! registry and the span rings are process-global, so a single test per
//! binary means no concurrent test can perturb the assertions.

use cntr::core::{EventLoop, SocketProxy};
use cntr::prelude::*;
use cntr_fuse::{
    FsHandler, FuseClientFs, FuseConfig, FuseHandler, InlineTransport, Reply, Request, Transport,
};
use cntr_kernel::MountFlags;
use cntr_types::{DevId, Errno, FileType, Ino, RenameFlags};

/// Reads `/proc/cntrstats` in one 64 KiB read. The report renders at that
/// read and never passes through the page cache, so the page-cache counters
/// it shows are the ones `page_cache_stats` reads after it.
fn read_proc_cntrstats(kernel: &Kernel) -> String {
    let fd = kernel
        .open(
            Pid::INIT,
            "/proc/cntrstats",
            OpenFlags::RDONLY,
            Mode::RW_R__R__,
        )
        .expect("open /proc/cntrstats");
    let mut buf = vec![0u8; 64 << 10];
    let n = kernel
        .read_fd(Pid::INIT, fd, &mut buf)
        .expect("read /proc/cntrstats");
    assert!(n > 0 && n < buf.len(), "report of {n} bytes");
    kernel.close(Pid::INIT, fd).expect("close");
    buf.truncate(n);
    String::from_utf8(buf).expect("cntrstats is utf-8")
}

#[test]
fn cntrstats_and_tracing_cover_the_stack() {
    // ---- Drive every subsystem once: boot, run, attach, shell, reap. ----
    let kernel = boot_host(SimClock::new());
    let registry = Registry::new();
    registry.push(
        ImageBuilder::new("app", "slim")
            .layer("app")
            .binary("/usr/local/bin/app", 1_000_000, &[])
            .entrypoint("/usr/local/bin/app")
            .build(),
    );
    let docker = ContainerRuntime::new(EngineKind::Docker, kernel.clone(), registry);
    let container = docker.run("probe", "app:slim").unwrap();
    let tool = kernel
        .open(
            Pid::INIT,
            "/usr/bin/obs-tool",
            OpenFlags::create(),
            Mode::RWXR_XR_X,
        )
        .unwrap();
    kernel.write_fd(Pid::INIT, tool, &[9u8; 8192]).unwrap();
    kernel.close(Pid::INIT, tool).unwrap();
    let cntr = Cntr::new(kernel.clone());
    let session = cntr.attach(container.pid, CntrOptions::default()).unwrap();
    session.run("ls /var/lib/cntr/usr/local/bin");
    // The shipping profile reads a tools file through its backing file:
    // one passthrough open, one live backing id, no refusal.
    let opens_before = obs::counter_value("fuse.passthrough.opens").unwrap();
    let (attached, reads) = (session.attached, session.client.conn_stats().reads);
    let fd = kernel
        .open(
            attached,
            "/usr/bin/obs-tool",
            OpenFlags::RDONLY,
            Mode::RW_R__R__,
        )
        .unwrap();
    assert_eq!(kernel.pread(attached, fd, 0, &mut [0u8; 4096]), Ok(4096));
    kernel.close(attached, fd).unwrap();
    assert_eq!(session.client.conn_stats().reads, reads, "no FUSE READ");
    let live = read_proc_cntrstats(&kernel);
    let live_line = |name: &str| -> Option<i64> {
        live.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .map(|v| v.parse().unwrap())
    };
    assert_eq!(
        live_line("fuse.passthrough.opens"),
        Some(opens_before as i64 + 1),
        "{live}"
    );
    assert_eq!(live_line("fuse.passthrough.backing-ids"), Some(1), "{live}");
    assert_eq!(live_line("fuse.passthrough.refused"), Some(0), "{live}");
    // The blob store's memory reads from cntrstats: its chunk bytes and
    // its digest index's slots, one per live chunk unless digests collide
    // (the gauges sum every live store, so other tests' stores may add).
    let held = docker
        .blob_store()
        .ingest(&[[7u8; 4096], [8u8; 4096]].concat());
    let blobs = docker.blob_store().stats();
    assert!(blobs.unique_chunks >= 2, "{blobs:?}");
    let text = read_proc_cntrstats(&kernel);
    let gauge = |name: &str| -> i64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .map_or(-1, |v| v.parse().unwrap())
    };
    assert!(
        gauge("overlay.blob.physical-bytes") >= blobs.physical_bytes as i64,
        "{text}"
    );
    assert!(
        gauge("overlay.blob.index-slots") >= blobs.unique_chunks as i64,
        "{text}"
    );
    drop(held);
    // Once the entries time out, each name of the path is revalidated by
    // one fstatat. After the host replaces the file, its name's hint is
    // stale and the server opens the name again.
    let counts = || {
        let c = |name| obs::counter_value(name).unwrap_or(0);
        (
            c("core.cntrfs.lookup-revalidated"),
            c("core.cntrfs.lookup-stale-hints"),
        )
    };
    let (revalidated, stale) = counts();
    session.client.drop_caches();
    kernel.stat(attached, "/usr/bin/obs-tool").unwrap();
    assert_eq!(counts(), (revalidated + 3, stale));
    kernel
        .rename(
            Pid::INIT,
            "/usr/bin/obs-tool",
            "/usr/bin/obs-tool.old",
            RenameFlags::NONE,
        )
        .unwrap();
    let tool = kernel
        .open(
            Pid::INIT,
            "/usr/bin/obs-tool",
            OpenFlags::create(),
            Mode::RWXR_XR_X,
        )
        .unwrap();
    kernel.close(Pid::INIT, tool).unwrap();
    session.client.drop_caches();
    assert_eq!(kernel.stat(attached, "/usr/bin/obs-tool").unwrap().size, 0);
    assert_eq!(counts(), (revalidated + 5, stale + 1));
    session.detach().unwrap();
    docker.stop("probe").unwrap();

    // ---- Forwarded messages, both ways, through a socket proxy. ----
    let splices_before = obs::counter_value("core.proxy.splices").unwrap_or(0);
    let submissions_before = obs::counter_value("core.proxy.submissions").unwrap_or(0);
    let srv = kernel
        .bind_listener(Pid::INIT, "/run/obs-svc.sock")
        .unwrap();
    let connect_pid = kernel.fork(Pid::INIT).unwrap();
    let plane = EventLoop::new(kernel.clone()).unwrap();
    let proxy = SocketProxy::on_plane(
        &plane,
        plane.pid(),
        connect_pid,
        "/run/obs-in.sock",
        "/run/obs-svc.sock",
    )
    .unwrap();
    let app = kernel.fork(Pid::INIT).unwrap();
    let client = kernel.connect(app, "/run/obs-in.sock").unwrap();
    proxy.pump_until_quiet().unwrap();
    let conn = kernel.accept(Pid::INIT, srv).unwrap();
    let messages = 16u64;
    let mut buf = vec![0u8; 8192];
    for i in 0..messages {
        let msg = vec![i as u8; 1024 + 256 * i as usize];
        let ((from_pid, from), (to_pid, to)) = if i % 2 == 0 {
            ((app, client), (Pid::INIT, conn))
        } else {
            ((Pid::INIT, conn), (app, client))
        };
        kernel.write_fd(from_pid, from, &msg).unwrap();
        proxy.pump_until_quiet().unwrap();
        assert_eq!(kernel.read_fd(to_pid, to, &mut buf), Ok(msg.len()));
    }
    proxy.unregister();

    // Read one host file twice: misses, then page-cache hits. The file is
    // sized, not written, so no write leaves its pages cached.
    let fd = kernel
        .open(
            Pid::INIT,
            "/run/obs-probe",
            OpenFlags::create(),
            Mode::RW_R__R__,
        )
        .unwrap();
    kernel.ftruncate(Pid::INIT, fd, 16 << 10).unwrap();
    kernel.close(Pid::INIT, fd).unwrap();
    for _ in 0..2 {
        let fd = kernel
            .open(
                Pid::INIT,
                "/run/obs-probe",
                OpenFlags::RDONLY,
                Mode::RW_R__R__,
            )
            .unwrap();
        assert_eq!(kernel.read_fd(Pid::INIT, fd, &mut buf), Ok(8192));
        kernel.close(Pid::INIT, fd).unwrap();
    }

    let text = read_proc_cntrstats(&kernel);
    let line = |name: &str| -> Option<u64> {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .map(|v| v.parse().unwrap())
    };

    // One recording per event: this binary runs one kernel, so its page
    // cache's own counters and the cntrstats totals are the same numbers.
    let pc = kernel.page_cache_stats();
    assert!(pc.hits > 0 && pc.misses > 0, "{pc:?}");
    assert_eq!(line("pagecache.hits"), Some(pc.hits), "{text}");
    assert_eq!(line("pagecache.misses"), Some(pc.misses), "{text}");
    // The CntrFS clients' cache counters reach cntrstats through their
    // scopes with no code of their own.
    for name in ["fuse.client.entry-hits", "fuse.client.attr-hits"] {
        assert!(
            line(name).is_some_and(|n| n > 0),
            "missing {name} in:\n{text}"
        );
    }

    // The session's CntrFS server counted its lookups; its anchors left
    // the gauge with it.
    assert!(
        line("core.cntrfs.lookups").is_some_and(|n| n > 0),
        "missing core.cntrfs.lookups in:\n{text}"
    );
    assert_eq!(line("core.cntrfs.anchors"), Some(0), "{text}");
    assert_eq!(line("core.cntrfs.name-hints"), Some(0), "{text}");
    for name in [
        "core.cntrfs.lookup-revalidated",
        "core.cntrfs.lookup-stale-hints",
    ] {
        assert!(
            line(name).is_some_and(|n| n > 0),
            "missing {name} in:\n{text}"
        );
    }
    // The session's backing ids ended with its connection.
    assert_eq!(line("fuse.passthrough.backing-ids"), Some(0), "{text}");

    // One splice per forwarded message, readable from cntrstats.
    assert_eq!(
        line("core.proxy.splices"),
        Some(splices_before + messages),
        "expected {messages} splices past {splices_before} in:\n{text}"
    );
    // Each wait found one message: a submission of one SQE apiece.
    assert_eq!(
        line("core.proxy.submissions"),
        Some(submissions_before + messages),
        "{text}"
    );

    // ---- One round over 16 connections: one submission of 16 SQEs. ----
    let proxy = SocketProxy::on_plane(
        &plane,
        plane.pid(),
        connect_pid,
        "/run/obs-fan.sock",
        "/run/obs-svc.sock",
    )
    .unwrap();
    let lanes = 16;
    let clients: Vec<u32> = (0..lanes)
        .map(|_| kernel.connect(app, "/run/obs-fan.sock").unwrap())
        .collect();
    proxy.pump_until_quiet().unwrap();
    let conns: Vec<u32> = (0..lanes)
        .map(|_| kernel.accept(Pid::INIT, srv).unwrap())
        .collect();
    let (splices, submissions, batches) = (
        line("core.proxy.splices").unwrap(),
        line("core.proxy.submissions").unwrap(),
        line("core.proxy.sqes-per-submission.count").unwrap(),
    );
    for (i, &c) in clients.iter().enumerate() {
        kernel.write_fd(app, c, &vec![i as u8; 512 + i]).unwrap();
    }
    proxy.pump_until_quiet().unwrap();
    for (i, &s) in conns.iter().enumerate() {
        assert_eq!(kernel.read_fd(Pid::INIT, s, &mut buf), Ok(512 + i));
    }
    proxy.unregister();
    let text = read_proc_cntrstats(&kernel);
    let line = |name: &str| -> Option<u64> {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .map(|v| v.parse().unwrap())
    };
    assert_eq!(line("core.proxy.splices"), Some(splices + lanes as u64));
    assert_eq!(line("core.proxy.submissions"), Some(submissions + 1));
    assert_eq!(
        line("core.proxy.sqes-per-submission.count"),
        Some(batches + 1)
    );
    assert_eq!(
        line("core.proxy.sqes-per-submission.max"),
        Some(16),
        "{text}"
    );
    // The segment memory of every live pipe and socket direction is one
    // gauge (other tests of this binary may have bytes in flight, so only
    // its presence is checked here; `attach_stress` checks its values).
    assert!(
        line("core.pipe.buffer-bytes").is_some(),
        "missing core.pipe.buffer-bytes in:\n{text}"
    );

    // vmstat shape: every line is exactly `name value`.
    for line in text.lines() {
        let mut parts = line.split(' ');
        let (name, value) = (parts.next().unwrap(), parts.next().unwrap());
        assert!(parts.next().is_none(), "extra column in {line:?}");
        assert!(!name.is_empty());
        value.parse::<i64>().unwrap_or_else(|_| panic!("{line:?}"));
    }

    // Live counters from at least six subsystems.
    for prefix in [
        "fuse.",
        "pagecache.",
        "overlay.",
        "engine.",
        "lockdep.",
        "core.",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(prefix)),
            "missing {prefix}* lines in:\n{text}"
        );
    }

    // Histogram families render their quantile lines with nonzero counts.
    for metric in ["engine.spawn.latency-ns", "engine.attach.latency-ns"] {
        for q in ["count", "p50", "p95", "p99", "max"] {
            assert!(
                text.lines()
                    .any(|l| l.starts_with(&format!("{metric}.{q} "))),
                "missing {metric}.{q} in:\n{text}"
            );
        }
        let count: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{metric}.count ")))
            .unwrap()
            .parse()
            .unwrap();
        assert!(count > 0, "{metric} must have recorded samples");
    }

    // Request accounting is symmetric once the session is torn down.
    let started = obs::counter_value("fuse.req.started").unwrap();
    let completed = obs::counter_value("fuse.req.completed").unwrap();
    assert!(started > 0);
    assert_eq!(started, completed);
    assert_eq!(obs::gauge_value("fuse.req.in-flight").unwrap(), 0);

    // ---- A spliced 1 MiB read carries a full trace. ----
    let clock = SimClock::new();
    let backing = cntr::fs::memfs::memfs(DevId(900), clock.clone());
    let client = FuseClientFs::mount(
        DevId(0xAB),
        clock,
        FuseConfig::optimized(),
        InlineTransport::new(FsHandler::new(backing)),
    )
    .unwrap();
    let st = client
        .mknod(
            Ino::ROOT,
            "big",
            FileType::Regular,
            Mode::RW_R__R__,
            0,
            &cntr::fs::FsContext::root(),
        )
        .unwrap();
    use cntr::fs::{Filesystem, FilesystemExt};
    let fh = client.open(st.ino, OpenFlags::RDWR).unwrap();
    let payload = vec![0x5Au8; 1 << 20];
    client.write(st.ino, fh, 0, &payload).unwrap();

    let data = client.read_bytes_gather(st.ino, fh, 0, 1 << 20).unwrap();
    assert_eq!(data.len(), 1 << 20);
    assert!(data.iter().all(|&b| b == 0x5A));

    // Some trace of that read crossed all four pipeline stages.
    let bound = obs::trace::next_trace_id();
    let full = (1..bound)
        .filter(|&trace| {
            let stages: Vec<&str> = obs::trace::spans_for(trace)
                .iter()
                .map(|r| r.stage)
                .collect();
            ["client", "transport", "handler", "storage"]
                .iter()
                .all(|s| stages.contains(s))
        })
        .count();
    assert!(
        full > 0,
        "no trace crossed client/transport/handler/storage"
    );

    // The chrome-trace export is well-formed and carries those stages.
    let json = obs::trace::chrome_json();
    assert!(json.trim_start().starts_with('[') && json.trim_end().ends_with(']'));
    for stage in ["client", "transport", "handler", "storage"] {
        assert!(json.contains(&format!("\"name\":\"{stage}\"")), "{stage}");
    }

    client.release(st.ino, fh).unwrap();

    // ---- A handler panic aborts its connection (`fuse_abort_conn`), and
    // the request it was serving still completes in the accounting. ----
    struct Dies;
    impl FuseHandler for Dies {
        fn handle(&self, _: Request) -> Reply {
            panic!("the daemon dies")
        }
    }
    let dead = InlineTransport::new(Dies);
    let reply = dead.call(Request::Getattr { ino: Ino::ROOT });
    assert!(matches!(reply, Reply::Err(Errno::ENOTCONN)), "{reply:?}");
    assert!(!dead.is_alive());
    assert_eq!(
        obs::counter_value("fuse.req.started").unwrap(),
        obs::counter_value("fuse.req.completed").unwrap()
    );
    assert_eq!(obs::gauge_value("fuse.req.in-flight").unwrap(), 0);

    // ---- The shipping mount checks a written file's capability once:
    // the first write sends the GETXATTR and marks the inode S_NOSEC. ----
    kernel
        .mkdir(Pid::INIT, "/run/obs-fuse", Mode::RWXR_XR_X)
        .unwrap();
    kernel
        .mount_fs(
            Pid::INIT,
            "/run/obs-fuse",
            client.clone(),
            MountFlags::default(),
        )
        .unwrap();
    let fd = kernel
        .open(
            Pid::INIT,
            "/run/obs-fuse/log",
            OpenFlags::create(),
            Mode::RW_R__R__,
        )
        .unwrap();
    let killpriv = |text: &str| {
        ["fuse.client.killpriv-checks", "fuse.client.nosec-hits"].map(|name| {
            text.lines()
                .find_map(|l| l.strip_prefix(&format!("{name} ")))
                .map_or(0, |v| v.parse::<u64>().unwrap())
        })
    };
    let [checks, hits] = killpriv(&read_proc_cntrstats(&kernel));
    let writes = 16;
    for i in 0..writes {
        assert_eq!(kernel.pwrite(Pid::INIT, fd, i * 90, &[b'x'; 90]), Ok(90));
    }
    let text = read_proc_cntrstats(&kernel);
    assert_eq!(
        killpriv(&text),
        [checks + 1, hits + writes - 1],
        "{writes} writes: one check, the rest S_NOSEC hits, in:\n{text}"
    );
    assert!(text.lines().any(|l| l == "fuse.conn.aborts 1"), "{text}");
    kernel.close(Pid::INIT, fd).unwrap();
}
