//! Building the system under test through its public entry points:
//! `boot_host` → `ContainerRuntime` → `Cntr::attach` with the tools served
//! from a fat container.

use crate::probe::Probe;
use cntr_core::{AttachSession, Cntr, CntrOptions, ToolsLocation};
use cntr_engine::runtime::boot_host_with;
use cntr_engine::{Container, ContainerRuntime, EngineKind, Image, ImageBuilder, Registry};
use cntr_fuse::FuseConfig;
use cntr_kernel::{Kernel, KernelConfig};
use cntr_overlay::BlobStore;
use cntr_types::{SimClock, SysResult};
use std::sync::Arc;

/// Where the application's own root appears inside the attached shell.
pub const APP_ROOT: &str = "/var/lib/cntr";

/// An application container with a shell attached to it, whose tools are
/// served over CntrFS from a fat container on the same machine.
pub struct FsWorld {
    pub kernel: Kernel,
    pub runtime: ContainerRuntime,
    pub session: AttachSession,
    // Kept alive for the session's lifetime: the plane lives in `Cntr`.
    _cntr: Cntr,
}

impl FsWorld {
    /// Boots a host with `config`, starts the fat container built by
    /// `fat` (given the runtime's blob store, so blob-backed files are
    /// ingested where the layers live) and the slim `app`, and attaches.
    pub fn boot(
        config: KernelConfig,
        fat: impl FnOnce(&Arc<BlobStore>) -> Arc<Image>,
        app: Arc<Image>,
    ) -> SysResult<FsWorld> {
        let kernel = boot_host_with(SimClock::new(), config);
        let registry = Registry::new();
        let runtime = ContainerRuntime::new(EngineKind::Docker, kernel.clone(), registry.clone());
        registry.push(fat(runtime.blob_store()));
        registry.push(app);
        let fat = runtime.run("toolbox", "tools:fat")?;
        let app = runtime.run("app", "app:slim")?;
        let cntr = Cntr::new(kernel.clone());
        let session = cntr.attach(app.pid, fat_tools(&fat))?;
        Ok(FsWorld {
            kernel,
            runtime,
            session,
            _cntr: cntr,
        })
    }

    /// The process every measured syscall is issued as.
    pub fn pid(&self) -> cntr_types::Pid {
        self.session.attached
    }

    pub fn probe(&self) -> Probe {
        Probe::take(
            &self.kernel,
            self.runtime.blob_store(),
            self.session.server.live_inodes() as u64,
            self.session.plane().endpoints() as u64,
        )
    }

    /// Detaches and stops both containers. Without it the machine stays
    /// alive: its mount tables hold the FUSE client, whose server holds
    /// the kernel.
    pub fn teardown(self) -> Result<(), String> {
        self.session
            .detach()
            .map_err(|e| format!("detach: {e:?}"))?;
        for name in ["app", "toolbox"] {
            self.runtime
                .stop(name)
                .map_err(|e| format!("stop {name}: {e:?}"))?;
        }
        Ok(())
    }
}

/// Attach options of the product path: shipping FUSE profile, tools from
/// the fat container.
pub fn fat_tools(fat: &Container) -> CntrOptions {
    CntrOptions {
        fuse: FuseConfig::optimized(),
        tools: ToolsLocation::FatContainer(fat.pid),
    }
}

/// The fat tools image's fixed part; callers add their payload.
pub fn fat_image() -> ImageBuilder {
    ImageBuilder::new("tools", "fat")
        .layer("toolbox")
        .binary("/usr/bin/toolbox", 2_000_000, &[])
        .dir("/run")
        .env("PATH", "/usr/bin")
        .entrypoint("/usr/bin/toolbox")
}

/// The slim application image's fixed part; callers add their payload.
pub fn app_image() -> ImageBuilder {
    ImageBuilder::new("app", "slim")
        .layer("app")
        .binary("/usr/local/bin/app", 500_000, &[])
        .text("/etc/hostname", "app\n")
        .entrypoint("/usr/local/bin/app")
}
