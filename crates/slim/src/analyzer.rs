//! The Docker Slim analyses and slim-image builder.

use cntr_engine::image::{FileEntry, Image, ImageConfig, Layer, NodeSpec};
use cntr_engine::ContainerRuntime;
use cntr_kernel::Kernel;
use cntr_types::{Mode, OpenFlags, SysResult};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Result of slimming one image.
#[derive(Debug, Clone)]
pub struct SlimReport {
    /// Image reference analyzed.
    pub reference: String,
    /// Original size in bytes.
    pub original_bytes: u64,
    /// Slim size in bytes.
    pub slim_bytes: u64,
    /// Paths kept.
    pub kept_files: usize,
    /// Paths dropped.
    pub dropped_files: usize,
    /// The built slim image.
    pub slim_image: Arc<Image>,
}

impl SlimReport {
    /// Size reduction in percent (the quantity Figure 5 plots).
    pub fn reduction_percent(&self) -> f64 {
        if self.original_bytes == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.slim_bytes as f64 / self.original_bytes as f64)
    }
}

/// The Docker Slim tool.
pub struct DockerSlim {
    /// Paths always kept regardless of analysis (Docker Slim's defaults).
    keep_always: Vec<String>,
}

impl Default for DockerSlim {
    fn default() -> DockerSlim {
        DockerSlim {
            keep_always: vec![
                "/etc/passwd".to_string(),
                "/etc/group".to_string(),
                "/etc/hostname".to_string(),
                "/etc/hosts".to_string(),
                "/etc/resolv.conf".to_string(),
            ],
        }
    }
}

impl DockerSlim {
    /// Creates the tool with default keep-lists.
    pub fn new() -> DockerSlim {
        DockerSlim::default()
    }

    /// **Static analysis**: the entrypoint binary, its transitive library
    /// dependency closure, and the targets of symlinks along the way.
    pub fn static_analysis(&self, image: &Image) -> BTreeSet<String> {
        let files = image.effective_files();
        let mut keep: BTreeSet<String> = BTreeSet::new();
        let mut queue: Vec<String> = vec![image.config.entrypoint.clone()];
        while let Some(path) = queue.pop() {
            if path.is_empty() || !keep.insert(path.clone()) {
                continue;
            }
            match files.get(path.as_str()) {
                Some(NodeSpec::File { deps, .. }) => {
                    for d in deps {
                        queue.push(d.clone());
                    }
                }
                Some(NodeSpec::Symlink { target }) => {
                    queue.push(target.clone());
                }
                _ => {}
            }
        }
        keep
    }

    /// **Dynamic analysis**: runs the profiling workload (the "manually ran
    /// the application so it would load all the required files" step of
    /// §5.3) under fanotify recording and returns the set of accessed
    /// paths.
    pub fn dynamic_analysis(
        &self,
        rt: &ContainerRuntime,
        container: &str,
        image: &Image,
    ) -> SysResult<BTreeSet<String>> {
        let k = rt.kernel();
        let pid = rt.resolve(container)?;
        // Recording is scoped to the container's mount namespace, so two
        // concurrent slim analyses never see each other's events; this
        // drain returns only this container's accesses.
        k.fanotify_start(pid)?;
        profile_workload(k, pid, image);
        let events = k.fanotify_stop(pid)?;
        // Paths are container paths because the recorder stores the
        // accessor's view.
        Ok(events.into_iter().map(|e| e.path).collect())
    }

    /// Runs both analyses and builds the slim image.
    pub fn slim(
        &self,
        rt: &ContainerRuntime,
        container: &str,
        image: &Arc<Image>,
    ) -> SysResult<SlimReport> {
        let mut keep = self.static_analysis(image);
        keep.extend(self.dynamic_analysis(rt, container, image)?);
        for p in &self.keep_always {
            keep.insert(p.clone());
        }
        // Keep directories leading to kept files.
        let files = image.effective_files();
        let mut entries: Vec<FileEntry> = Vec::new();
        let mut slim_bytes = 0u64;
        let mut kept_files = 0usize;
        let mut dropped = 0usize;
        for (path, node) in &files {
            let keep_this = match node {
                NodeSpec::Dir { .. } => keep
                    .iter()
                    .any(|k| k.starts_with(&format!("{path}/")) || k == path),
                _ => keep.contains(*path),
            };
            if keep_this {
                if let NodeSpec::File { content, .. } = node {
                    slim_bytes += content.len();
                    kept_files += 1;
                }
                entries.push(FileEntry {
                    path: (*path).to_string(),
                    node: (*node).clone(),
                });
            } else if !matches!(node, NodeSpec::Dir { .. }) {
                dropped += 1;
            }
        }
        let slim_image = Arc::new(Image {
            name: image.name.clone(),
            tag: format!("{}-slim", image.tag),
            layers: vec![Layer {
                id: format!("{}-{}-slim", image.name, image.tag),
                entries,
            }],
            config: ImageConfig {
                env: image.config.env.clone(),
                entrypoint: image.config.entrypoint.clone(),
                workdir: image.config.workdir.clone(),
            },
        });
        Ok(SlimReport {
            reference: image.reference(),
            original_bytes: image.size_bytes(),
            slim_bytes,
            kept_files,
            dropped_files: dropped,
            slim_image,
        })
    }

    /// Validates that the slim image still serves the workload: every path
    /// the profiling run touches must exist with identical size.
    pub fn validate(&self, original: &Image, report: &SlimReport) -> bool {
        let slim_files = report.slim_image.effective_files();
        let needed = self.static_analysis(original);
        needed.iter().all(|p| slim_files.contains_key(p.as_str()))
    }
}

/// The profiling workload: what "manually running the application" touches.
///
/// The simulated application run opens its entrypoint (exec), the loader
/// pulls in the dependency closure, and the app reads its configuration
/// files under `/etc` — exactly the footprint the paper found to be ~6.4%
/// of image content in the common case (§1, citing Slacker).
fn profile_workload(k: &Kernel, pid: cntr_types::Pid, image: &Image) {
    let files = image.effective_files();
    // Exec the entrypoint.
    let _ = k.exec_read(pid, &image.config.entrypoint);
    // The dynamic loader maps every library in the closure.
    let mut queue: Vec<String> = vec![image.config.entrypoint.clone()];
    let mut seen = BTreeSet::new();
    while let Some(path) = queue.pop() {
        if !seen.insert(path.clone()) {
            continue;
        }
        match files.get(path.as_str()) {
            Some(NodeSpec::File { deps, .. }) => {
                if let Ok(fd) = k.open(pid, &path, OpenFlags::RDONLY, Mode::RW_R__R__) {
                    let _ = k.close(pid, fd);
                }
                for d in deps {
                    queue.push(d.clone());
                }
            }
            Some(NodeSpec::Symlink { target }) => queue.push(target.clone()),
            _ => {}
        }
    }
    // The application reads its configuration files.
    for (path, node) in &files {
        if path.starts_with("/etc/") {
            if let NodeSpec::File { content, .. } = node {
                let _ = content;
                if let Ok(fd) = k.open(pid, path, OpenFlags::RDONLY, Mode::RW_R__R__) {
                    let _ = k.close(pid, fd);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntr_engine::image::ImageBuilder;
    use cntr_engine::runtime::boot_host;
    use cntr_engine::{EngineKind, Registry};
    use cntr_types::SimClock;

    fn fat_nginx() -> Arc<Image> {
        ImageBuilder::new("nginx", "1.25")
            .layer("debian-base")
            .binary("/bin/bash", 1_100_000, &["/lib/libc.so"])
            .binary("/usr/bin/apt", 4_000_000, &["/lib/libc.so"])
            .file("/usr/share/doc/readme", 20_000_000)
            .file("/usr/share/locale/all", 15_000_000)
            .binary("/usr/bin/ls", 140_000, &["/lib/libc.so"])
            .binary("/usr/bin/grep", 200_000, &["/lib/libc.so"])
            .layer("nginx-app")
            .binary(
                "/usr/sbin/nginx",
                1_500_000,
                &["/lib/libc.so", "/lib/libssl.so", "/lib/libpcre.so"],
            )
            .file("/lib/libc.so", 2_000_000)
            .file("/lib/libssl.so", 700_000)
            .file("/lib/libpcre.so", 500_000)
            .text("/etc/nginx.conf", "worker_processes auto;\n")
            .text("/etc/passwd", "root:x:0:0::/:/bin/sh\n")
            .symlink("/usr/bin/nginx", "/usr/sbin/nginx")
            .entrypoint("/usr/sbin/nginx")
            .build()
    }

    fn setup() -> (ContainerRuntime, Arc<Image>) {
        let k = boot_host(SimClock::new());
        let registry = Registry::new();
        let img = fat_nginx();
        registry.push(Arc::clone(&img));
        (ContainerRuntime::new(EngineKind::Docker, k, registry), img)
    }

    #[test]
    fn static_analysis_follows_dependency_closure() {
        let (_rt, img) = setup();
        let slim = DockerSlim::new();
        let keep = slim.static_analysis(&img);
        assert!(keep.contains("/usr/sbin/nginx"));
        assert!(keep.contains("/lib/libc.so"));
        assert!(keep.contains("/lib/libssl.so"));
        assert!(keep.contains("/lib/libpcre.so"));
        assert!(!keep.contains("/usr/bin/apt"));
        assert!(!keep.contains("/usr/share/doc/readme"));
    }

    #[test]
    fn dynamic_analysis_records_accessed_files() {
        let (rt, img) = setup();
        rt.run("web", "nginx:1.25").unwrap();
        let slim = DockerSlim::new();
        let accessed = slim.dynamic_analysis(&rt, "web", &img).unwrap();
        assert!(accessed.contains("/usr/sbin/nginx"));
        assert!(accessed.contains("/etc/nginx.conf"), "{accessed:?}");
        assert!(!accessed.iter().any(|p| p.contains("doc")));
    }

    #[test]
    fn slim_build_drops_baggage_and_validates() {
        let (rt, img) = setup();
        rt.run("web", "nginx:1.25").unwrap();
        let slim = DockerSlim::new();
        let report = slim.slim(&rt, "web", &img).unwrap();
        // The doc/locale/package-manager baggage dominates the image; the
        // slim build must shed it.
        assert!(
            report.reduction_percent() > 80.0,
            "reduction {:.1}%",
            report.reduction_percent()
        );
        assert!(report.slim_bytes >= 1_500_000 + 2_000_000 + 700_000 + 500_000);
        assert!(report.dropped_files >= 5);
        assert!(slim.validate(&img, &report));
        // The slim image still has the entrypoint and config.
        assert!(report.slim_image.entry("/usr/sbin/nginx").is_some());
        assert!(report.slim_image.entry("/etc/nginx.conf").is_some());
        assert!(report.slim_image.entry("/usr/bin/apt").is_none());
        assert_eq!(report.slim_image.tag, "1.25-slim");
    }

    #[test]
    fn slim_image_still_runs() {
        let (rt, img) = setup();
        rt.run("web", "nginx:1.25").unwrap();
        let report = DockerSlim::new().slim(&rt, "web", &img).unwrap();
        rt.registry().push(Arc::clone(&report.slim_image));
        let c = rt.run("web-slim", "nginx:1.25-slim").unwrap();
        let k = rt.kernel();
        // The app binary and config are present and loadable.
        assert!(k.stat(c.pid, "/usr/sbin/nginx").unwrap().is_file());
        assert!(k.exec_read(c.pid, "/usr/sbin/nginx").is_ok());
        assert!(k.stat(c.pid, "/etc/nginx.conf").unwrap().is_file());
        // The baggage is gone.
        assert!(k.stat(c.pid, "/usr/share/doc/readme").is_err());
    }
}
