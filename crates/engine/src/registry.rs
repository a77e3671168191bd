//! The image registry and the deployment-time model.
//!
//! The paper's motivation (§1) rests on deployment cost: "downloading
//! container images account\[s\] for 92% of the deployment time", so every
//! byte shaved off an image translates into startup latency. The registry
//! tracks which layers a host already has (Docker's layer cache) and
//! charges virtual time for the rest.

use crate::image::Image;
use cntr_types::{Errno, SysResult, Timespec};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Network/IO parameters of a deployment.
#[derive(Debug, Clone, Copy)]
pub struct DeploymentModel {
    /// Registry download bandwidth (bytes/second).
    pub bandwidth_bps: u64,
    /// Per-layer round trip (manifest + blob request).
    pub layer_rtt_ns: u64,
    /// Fixed container start cost after the image is local (namespace
    /// setup, runtime init).
    pub start_ns: u64,
}

/// The one deployment every [`Registry::deploy`] charges: a typical
/// datacenter link, 1 Gbit/s, 20 ms per layer fetch, 300 ms runtime start.
pub const DATACENTER: DeploymentModel = DeploymentModel {
    bandwidth_bps: 125_000_000,
    layer_rtt_ns: 20_000_000,
    start_ns: 300_000_000,
};

/// What one deployment cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeployReport {
    /// Bytes actually transferred (missing layers only).
    pub bytes_pulled: u64,
    /// Layers transferred.
    pub layers_pulled: usize,
    /// Layers served from the local cache.
    pub layers_cached: usize,
    /// Total virtual time: download + start.
    pub total_time: Timespec,
    /// Download portion.
    pub download_time: Timespec,
}

impl DeployReport {
    /// Fraction of deployment time spent downloading (the paper's 92%).
    pub fn download_fraction(&self) -> f64 {
        if self.total_time.as_nanos() == 0 {
            return 0.0;
        }
        self.download_time.as_nanos() as f64 / self.total_time.as_nanos() as f64
    }
}

/// An image registry plus per-host layer caches.
pub struct Registry {
    images: Mutex<HashMap<String, Arc<Image>>>,
    /// Layers already present per host.
    host_layers: Mutex<HashMap<String, HashSet<String>>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry {
            images: Mutex::new_class("engine.registry.images", HashMap::new()),
            host_layers: Mutex::new_class("engine.registry.host_layers", HashMap::new()),
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry::default())
    }

    /// Publishes an image under `name:tag`.
    pub fn push(&self, image: Arc<Image>) {
        self.images.lock().insert(image.reference(), image);
    }

    /// Fetches an image manifest.
    pub fn get(&self, reference: &str) -> SysResult<Arc<Image>> {
        self.images
            .lock()
            .get(reference)
            .cloned()
            .ok_or(Errno::ENOENT)
    }

    /// Lists published references (sorted).
    pub fn list(&self) -> Vec<String> {
        let mut v: Vec<String> = self.images.lock().keys().cloned().collect();
        v.sort();
        v
    }

    /// Simulates pulling `reference` onto `host`, reusing cached layers.
    pub fn deploy(&self, host: &str, reference: &str) -> SysResult<DeployReport> {
        let image = self.get(reference)?;
        let mut hosts = self.host_layers.lock();
        let cache = hosts.entry(host.to_string()).or_default();
        let mut bytes = 0u64;
        let mut pulled = 0usize;
        let mut cached = 0usize;
        for layer in &image.layers {
            if cache.contains(&layer.id) {
                cached += 1;
            } else {
                bytes += layer.size_bytes();
                pulled += 1;
                cache.insert(layer.id.clone());
            }
        }
        let download_ns = pulled as u64 * DATACENTER.layer_rtt_ns
            + bytes.saturating_mul(1_000_000_000) / DATACENTER.bandwidth_bps;
        let total_ns = download_ns + DATACENTER.start_ns;
        Ok(DeployReport {
            bytes_pulled: bytes,
            layers_pulled: pulled,
            layers_cached: cached,
            total_time: Timespec::from_nanos(total_ns),
            download_time: Timespec::from_nanos(download_ns),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageBuilder;

    fn fat_image() -> Arc<Image> {
        ImageBuilder::new("app", "fat")
            .layer("base")
            .file("/lib/libc.so", 2_000_000)
            .layer("tools")
            .binary("/usr/bin/gdb", 80_000_000, &[])
            .binary("/usr/bin/strace", 1_500_000, &[])
            .layer("app")
            .binary("/usr/bin/app", 10_000_000, &[])
            .build()
    }

    fn slim_image() -> Arc<Image> {
        ImageBuilder::new("app", "slim")
            .layer("base")
            .file("/lib/libc.so", 2_000_000)
            .layer("app-slim")
            .binary("/usr/bin/app", 10_000_000, &[])
            .build()
    }

    #[test]
    fn push_get_list() {
        let r = Registry::new();
        r.push(fat_image());
        r.push(slim_image());
        assert_eq!(r.list(), vec!["app:fat", "app:slim"]);
        assert!(r.get("app:fat").is_ok());
        assert_eq!(r.get("nope:latest").map(|_| ()), Err(Errno::ENOENT));
    }

    #[test]
    fn slim_deploys_faster_than_fat() {
        let r = Registry::new();
        r.push(fat_image());
        r.push(slim_image());
        let fat = r.deploy("host-a", "app:fat").unwrap();
        let slim = r.deploy("host-b", "app:slim").unwrap();
        assert!(slim.total_time < fat.total_time);
        assert!(fat.bytes_pulled > slim.bytes_pulled);
        // Downloads dominate deployment (the paper's 92% motivation).
        assert!(fat.download_fraction() > 0.5, "{}", fat.download_fraction());
    }

    #[test]
    fn layer_cache_deduplicates() {
        let r = Registry::new();
        r.push(fat_image());
        r.push(slim_image());
        let first = r.deploy("host", "app:fat").unwrap();
        assert_eq!(first.layers_pulled, 3);
        // The slim image shares the base layer: only the app layer moves...
        let second = r.deploy("host", "app:slim").unwrap();
        assert_eq!(second.layers_cached, 1, "base layer reused");
        assert_eq!(second.layers_pulled, 1);
        // Re-deploying is nearly free.
        let third = r.deploy("host", "app:fat").unwrap();
        assert_eq!(third.bytes_pulled, 0);
        assert_eq!(third.layers_cached, 3);
    }
}
