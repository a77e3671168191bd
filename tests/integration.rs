//! End-to-end integration tests spanning every crate: registry → engines →
//! slimming → deployment → attach → tools → failure injection.

use cntr::fs::Filesystem;
use cntr::prelude::*;
use cntr::slim::DockerSlim;
use cntr::types::{Errno, RenameFlags};
use std::sync::Arc;

fn host_with_tools() -> Kernel {
    let kernel = boot_host(SimClock::new());
    for tool in [
        "gdb", "ls", "cat", "ps", "strace", "tee", "stat", "env", "hostname",
    ] {
        let path = format!("/usr/bin/{tool}");
        let fd = kernel
            .open(Pid::INIT, &path, OpenFlags::create(), Mode::RWXR_XR_X)
            .unwrap();
        kernel.write_fd(Pid::INIT, fd, b"tool").unwrap();
        kernel.close(Pid::INIT, fd).unwrap();
        kernel.chmod(Pid::INIT, &path, Mode::RWXR_XR_X).unwrap();
    }
    kernel.setenv(Pid::INIT, "PATH", "/usr/bin").unwrap();
    kernel
}

fn fat_nginx() -> Arc<cntr::engine::Image> {
    ImageBuilder::new("nginx", "fat")
        .layer("debian")
        .binary("/bin/bash", 1_100_000, &["/lib/libc.so"])
        .binary("/usr/bin/apt", 4_000_000, &["/lib/libc.so"])
        .file("/usr/share/doc/everything", 40_000_000)
        .layer("nginx")
        .binary(
            "/usr/sbin/nginx",
            1_500_000,
            &["/lib/libc.so", "/lib/libssl.so"],
        )
        .file("/lib/libc.so", 2_000_000)
        .file("/lib/libssl.so", 700_000)
        .text("/etc/nginx.conf", "worker_processes auto;\n")
        .entrypoint("/usr/sbin/nginx")
        .build()
}

/// The paper's whole story in one test: build a fat image, slim it with
/// Docker Slim, show the slim image deploys faster, then recover the missing
/// tooling at runtime by attaching with CNTR.
#[test]
fn slim_deploy_attach_pipeline() {
    let kernel = host_with_tools();
    let registry = Registry::new();
    registry.push(fat_nginx());
    let docker = ContainerRuntime::new(EngineKind::Docker, kernel.clone(), registry.clone());

    // 1. Profile and slim the fat image.
    docker.run("profile", "nginx:fat").unwrap();
    let fat = registry.get("nginx:fat").unwrap();
    let report = DockerSlim::new().slim(&docker, "profile", &fat).unwrap();
    assert!(report.reduction_percent() > 50.0);
    registry.push(Arc::clone(&report.slim_image));
    docker.stop("profile").unwrap();

    // 2. The slim image deploys faster onto a fresh host.
    let fat_deploy = registry.deploy("host-a", "nginx:fat").unwrap();
    let slim_deploy = registry.deploy("host-b", "nginx:fat-slim").unwrap();
    assert!(slim_deploy.total_time < fat_deploy.total_time);
    assert!(
        fat_deploy.download_fraction() > 0.5,
        "downloads dominate deployment"
    );

    // 3. The slim container runs, but has no tools at all.
    let web = docker.run("web", "nginx:fat-slim").unwrap();
    assert!(kernel.stat(web.pid, "/usr/sbin/nginx").unwrap().is_file());
    assert!(kernel.stat(web.pid, "/bin/bash").is_err());

    // 4. CNTR restores full tooling at runtime, from the host.
    let cntr = Cntr::new(kernel.clone());
    let session = cntr.attach(web.pid, CntrOptions::default()).unwrap();
    let out = session.run(&format!("gdb -p {}", web.pid));
    assert!(out.contains("Attaching to process"), "{out}");
    let conf = session.run("cat /var/lib/cntr/etc/nginx.conf");
    assert!(conf.contains("worker_processes"), "{conf}");
    session.detach().unwrap();

    // 5. The container itself was never polluted.
    assert!(kernel.stat(web.pid, "/usr/bin/gdb").is_err());
}

/// CNTR works identically across all four engine flavours (paper §4).
#[test]
fn attach_works_on_every_engine() {
    for kind in EngineKind::ALL {
        let kernel = host_with_tools();
        let registry = Registry::new();
        registry.push(fat_nginx());
        let rt = ContainerRuntime::new(kind, kernel.clone(), registry);
        let _started = rt.run("app", "nginx:fat").unwrap();
        let cntr = Cntr::new(kernel.clone());
        let session = cntr
            .attach_with_engine(&rt, "app", None, FuseConfig::optimized())
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert!(
            kernel
                .stat(session.attached, "/var/lib/cntr/usr/sbin/nginx")
                .unwrap()
                .is_file(),
            "{kind:?}"
        );
        session.detach().unwrap();
    }
}

/// Killing the CntrFS server must not harm the application container.
#[test]
fn server_crash_leaves_application_intact() {
    let kernel = host_with_tools();
    let registry = Registry::new();
    registry.push(fat_nginx());
    let docker = ContainerRuntime::new(EngineKind::Docker, kernel.clone(), registry);
    let c = docker.run("app", "nginx:fat").unwrap();
    let cntr = Cntr::new(kernel.clone());
    let session = cntr.attach(c.pid, CntrOptions::default()).unwrap();
    assert!(kernel.stat(session.attached, "/usr/bin/gdb").is_ok());

    session.kill_server();
    assert_eq!(
        kernel.stat(session.attached, "/usr/bin/never-seen"),
        Err(Errno::ENOTCONN)
    );
    // The application is unaffected: its filesystem is not behind FUSE.
    assert!(kernel.stat(c.pid, "/usr/sbin/nginx").unwrap().is_file());
    let fd = kernel
        .open(c.pid, "/etc/nginx.conf", OpenFlags::RDONLY, Mode::RW_R__R__)
        .unwrap();
    kernel.close(c.pid, fd).unwrap();
}

/// Attach sessions are isolated: two concurrent sessions on different
/// containers do not interfere.
#[test]
fn concurrent_sessions_are_isolated() {
    let kernel = host_with_tools();
    let registry = Registry::new();
    registry.push(fat_nginx());
    let docker = ContainerRuntime::new(EngineKind::Docker, kernel.clone(), registry);
    let a = docker.run("a", "nginx:fat").unwrap();
    let b = docker.run("b", "nginx:fat").unwrap();
    let cntr = Cntr::new(kernel.clone());
    let sa = cntr.attach(a.pid, CntrOptions::default()).unwrap();
    let sb = cntr.attach(b.pid, CntrOptions::default()).unwrap();
    // Write through session A's /var/lib/cntr; session B must not see it.
    sa.run("tee /var/lib/cntr/tmp/marker from-session-a");
    assert!(kernel.stat(a.pid, "/tmp/marker").unwrap().is_file());
    assert!(kernel.stat(b.pid, "/tmp/marker").is_err());
    sa.detach().unwrap();
    // Session B still works after A detached.
    assert!(kernel.stat(sb.attached, "/usr/bin/gdb").unwrap().is_file());
    sb.detach().unwrap();
}

/// The per-engine container ids resolve, and resolution drives attach.
#[test]
fn engine_name_resolution_end_to_end() {
    let kernel = host_with_tools();
    let registry = Registry::new();
    registry.push(fat_nginx());
    let docker = ContainerRuntime::new(EngineKind::Docker, kernel.clone(), registry);
    let c = docker.run("named", "nginx:fat").unwrap();
    assert_eq!(docker.resolve("named").unwrap(), c.pid);
    assert_eq!(docker.resolve(&c.id[..12]).unwrap(), c.pid);
    let cntr = Cntr::new(kernel.clone());
    let by_id = cntr
        .attach_with_engine(&docker, &c.id[..12], None, FuseConfig::optimized())
        .unwrap();
    assert_eq!(by_id.target, c.pid);
    by_id.detach().unwrap();
}

/// Engine-matrix smoke over the overlay subsystem (ROADMAP's engine-matrix
/// item): each of the four engine flavours runs containers on an
/// OverlayFs-backed rootfs — observable in the kernel mount table via
/// `/proc/<pid>/mounts` — CNTR attaches over it, and a **nested
/// container-in-container** started with `run_nested` can be attached to as
/// well.
#[test]
fn engine_matrix_attach_over_overlayfs_including_nested() {
    for kind in EngineKind::ALL {
        let kernel = host_with_tools();
        let registry = Registry::new();
        registry.push(fat_nginx());
        let rt = ContainerRuntime::new(kind, kernel.clone(), registry);
        let outer = rt.run("outer", "nginx:fat").unwrap();

        // The rootfs is a real overlay registered in the mount table.
        let overlay = rt
            .overlay_of("outer")
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(overlay.fs_type(), "overlay");
        let fd = kernel
            .open(
                Pid::INIT,
                &format!("/proc/{}/mounts", outer.pid.raw()),
                OpenFlags::RDONLY,
                Mode::RW_R__R__,
            )
            .unwrap();
        let mut buf = [0u8; 4096];
        let n = kernel.read_fd(Pid::INIT, fd, &mut buf).unwrap();
        kernel.close(Pid::INIT, fd).unwrap();
        let mounts = String::from_utf8_lossy(&buf[..n]).to_string();
        assert!(
            mounts.contains("overlay") && mounts.contains("lowerdir="),
            "{kind:?}: {mounts}"
        );

        let physical_after_outer = rt.blob_store().stats().physical_bytes;

        // CNTR attach works over the overlay rootfs.
        let cntr = Cntr::new(kernel.clone());
        let session = cntr
            .attach_with_engine(&rt, "outer", None, FuseConfig::optimized())
            .unwrap_or_else(|e| panic!("{kind:?}: attach failed: {e}"));
        assert!(
            kernel
                .stat(session.attached, "/var/lib/cntr/usr/sbin/nginx")
                .unwrap()
                .is_file(),
            "{kind:?}"
        );
        session.detach().unwrap();

        // Nested container-in-container: the inner rootfs lives in the
        // outer container's namespace, shares the same image layers, and
        // accepts an attach of its own.
        let inner = rt.run_nested("outer", "inner", "nginx:fat").unwrap();
        assert!(kernel.stat(inner.pid, "/usr/sbin/nginx").unwrap().is_file());
        let fd = kernel
            .open(
                inner.pid,
                "/tmp/nested-marker",
                OpenFlags::create(),
                Mode::RW_R__R__,
            )
            .unwrap();
        kernel.write_fd(inner.pid, fd, b"inner").unwrap();
        kernel.close(inner.pid, fd).unwrap();
        assert!(kernel
            .stat(inner.pid, "/tmp/nested-marker")
            .unwrap()
            .is_file());
        assert!(
            kernel.stat(outer.pid, "/tmp/nested-marker").is_err(),
            "{kind:?}: nested writes must not leak into the outer container"
        );
        assert!(kernel.stat(Pid::INIT, "/tmp/nested-marker").is_err());

        let nested_session = cntr.attach(inner.pid, CntrOptions::default()).unwrap();
        assert!(
            kernel
                .stat(nested_session.attached, "/var/lib/cntr/usr/sbin/nginx")
                .unwrap()
                .is_file(),
            "{kind:?}: attach into the nested container sees its rootfs"
        );
        nested_session.detach().unwrap();

        // Outer and inner shared every lower blob: the nested container's
        // image content added no physical bytes (only its small upper
        // writes — /tmp/nested-marker — could).
        let stats = rt.blob_store().stats();
        assert!(
            stats.physical_bytes <= physical_after_outer + 8192,
            "{kind:?}: nested container duplicated image bytes: {} -> {}",
            physical_after_outer,
            stats.physical_bytes
        );
    }
}

/// Escape probes after Reshetova et al. and Bui: from a shell attached
/// with a fat container's tools, no `..`, absolute path, planted symlink
/// or moved cwd reaches a file that exists only in the host root.
#[test]
fn escape_probes_never_reach_the_host() {
    let kernel = host_with_tools();
    let fd = kernel
        .open(Pid::INIT, "/marker", OpenFlags::create(), Mode::RW_R__R__)
        .unwrap();
    kernel.write_fd(Pid::INIT, fd, b"host-only").unwrap();
    kernel.close(Pid::INIT, fd).unwrap();
    let registry = Registry::new();
    registry.push(fat_nginx());
    let docker = ContainerRuntime::new(EngineKind::Docker, kernel.clone(), registry);
    let tools = docker.run("tools", "nginx:fat").unwrap();
    let app = docker.run("app", "nginx:fat").unwrap();
    let cntr = Cntr::new(kernel.clone());
    let opts = CntrOptions {
        fuse: FuseConfig::optimized(),
        tools: ToolsLocation::FatContainer(tools.pid),
    };
    let session = cntr.attach(app.pid, opts).unwrap();
    let shell = session.attached;
    assert!(kernel.stat(Pid::INIT, "/marker").unwrap().is_file());
    let escapes = |what: &str, path: &str| {
        assert_eq!(kernel.stat(shell, path), Err(Errno::ENOENT), "{what}");
    };

    kernel.chdir(shell, "/var/lib/cntr").unwrap();
    escapes("`..` past the root from the cwd", "../../../../marker");
    escapes("`..` past the root of an absolute path", "/../../marker");

    // Symlinks the application plants in its own tree.
    kernel
        .symlink(app.pid, "../../../../../../marker", "/tmp/rel")
        .unwrap();
    kernel.symlink(app.pid, "/marker", "/tmp/abs").unwrap();
    assert!(kernel
        .lstat(shell, "/var/lib/cntr/tmp/rel")
        .unwrap()
        .is_symlink());
    escapes("a relative symlink", "/var/lib/cntr/tmp/rel");
    escapes("an absolute symlink", "/var/lib/cntr/tmp/abs");
    escapes("a relative symlink from the cwd", "tmp/rel");

    // The application renames the cwd's parent, then moves the cwd itself
    // under another parent.
    for dir in ["/tmp/d", "/tmp/d/e"] {
        kernel.mkdir(app.pid, dir, Mode::RWXR_XR_X).unwrap();
    }
    kernel.chdir(shell, "/var/lib/cntr/tmp/d/e").unwrap();
    let deep = "../../../../../../../../marker";
    kernel
        .rename(app.pid, "/tmp/d", "/tmp/moved", RenameFlags::NONE)
        .unwrap();
    assert!(kernel.stat(shell, ".").unwrap().is_dir());
    escapes("`..` from a cwd whose parent was renamed", deep);
    kernel
        .rename(app.pid, "/tmp/moved/e", "/e", RenameFlags::NONE)
        .unwrap();
    assert!(kernel.stat(shell, ".").unwrap().is_dir());
    escapes("`..` from a cwd moved under another parent", deep);
    session.detach().unwrap();
}
