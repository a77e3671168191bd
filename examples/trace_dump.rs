//! Dumps a chrome-trace of a representative workload.
//!
//! ```text
//! cargo run --release --example trace_dump > trace.json 2> cntrstats.txt
//! ```
//!
//! Stdout is a chrome-trace event array (load it in `chrome://tracing` or
//! Perfetto); stderr is the `/proc/cntrstats` snapshot taken after the
//! workload, so one run yields both CI artifacts. The workload exercises
//! the full stack — boot, image pull, container start, attach, shell
//! traffic, teardown — and finishes with a spliced 1 MiB read over FUSE,
//! so the dump contains complete client → transport → handler → storage
//! request pipelines.

use cntr::fs::{Filesystem, FilesystemExt};
use cntr::prelude::*;
use cntr_fuse::{FsHandler, FuseClientFs, InlineTransport};
use cntr_types::{DevId, FileType, Ino};

fn main() {
    // Exercise every subsystem once: boot, image pull, container start,
    // attach, shell traffic over CntrFS, detach, teardown.
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

    let cntr = Cntr::new(kernel.clone());
    let session = cntr.attach(container.pid, CntrOptions::default()).unwrap();
    session.run("ls /var/lib/cntr/usr/local/bin");
    session.detach().unwrap();
    docker.stop("probe").unwrap();

    // A spliced read over FUSE: its trace records spans from all four
    // pipeline stages.
    let clock = SimClock::new();
    let backing = cntr::fs::memfs::memfs(DevId(901), clock.clone());
    let client = FuseClientFs::mount(
        DevId(0xAC),
        clock,
        FuseConfig::optimized(),
        InlineTransport::new(FsHandler::new(backing)),
    )
    .unwrap();
    let st = client
        .mknod(
            Ino::ROOT,
            "spliced",
            FileType::Regular,
            Mode::RW_R__R__,
            0,
            &cntr::fs::FsContext::root(),
        )
        .unwrap();
    let fh = client.open(st.ino, OpenFlags::RDWR).unwrap();
    client.write(st.ino, fh, 0, &vec![0xA5; 1 << 20]).unwrap();
    let data = client.read_bytes_gather(st.ino, fh, 0, 1 << 20).unwrap();
    assert_eq!(data.len(), 1 << 20);
    client.release(st.ino, fh).unwrap();

    // Stdout: the trace. Stderr: the metrics snapshot as the kernel
    // serves it (registry metrics plus the bridged lockdep section).
    println!("{}", cntr::obs::trace::chrome_json());

    let fd = kernel
        .open(
            Pid::INIT,
            "/proc/cntrstats",
            OpenFlags::RDONLY,
            Mode::RW_R__R__,
        )
        .expect("open /proc/cntrstats");
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = kernel.read_fd(Pid::INIT, fd, &mut buf).expect("read");
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    kernel.close(Pid::INIT, fd).expect("close");
    eprint!("{}", String::from_utf8(out).expect("cntrstats is utf-8"));
}
