//! A deterministic synthetic Top-50 Docker Hub corpus.
//!
//! The paper evaluates Docker Slim on "the Top-50 popular official container
//! images hosted on Docker Hub ... maintained by Docker and contain\[ing\]
//! commonly used applications such as web servers, databases and web
//! applications" (§5.3). The images themselves are not redistributable, so
//! this corpus reproduces their *structure*: an application binary plus its
//! library closure and configuration (what the app touches at runtime), and
//! distro baggage — shells, coreutils, package managers, docs, locales —
//! that ships in the image but is never accessed. Six images mirror the
//! paper's finding that 6/50 contain "only single executables written in Go
//! and a few configuration files" and therefore reduce by <10%.
//!
//! Generation is seeded and deterministic: the same corpus is produced on
//! every run, so Figure 5 regenerates identically.

use crate::analyzer::{DockerSlim, SlimReport};
use cntr_engine::image::{Image, ImageBuilder};
use cntr_engine::runtime::boot_host;
use cntr_engine::{ContainerRuntime, EngineKind, Registry};
use cntr_types::SimClock;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One corpus entry.
pub struct CorpusImage {
    /// The image.
    pub image: Arc<Image>,
    /// True for the Go-style single-binary images (expected reduction <10%).
    pub go_single_binary: bool,
}

/// The 44 application images (web servers, databases, web applications).
const APPS: [&str; 44] = [
    "nginx",
    "httpd",
    "redis",
    "memcached",
    "mysql",
    "mariadb",
    "postgres",
    "mongo",
    "cassandra",
    "couchdb",
    "rabbitmq",
    "kafka",
    "zookeeper",
    "elasticsearch",
    "kibana",
    "logstash",
    "solr",
    "influxdb",
    "telegraf",
    "neo4j",
    "wordpress",
    "drupal",
    "joomla",
    "ghost",
    "nextcloud",
    "owncloud",
    "phpmyadmin",
    "adminer",
    "mediawiki",
    "redmine",
    "jenkins",
    "sonarqube",
    "nexus",
    "teamcity",
    "gitea",
    "haproxy",
    "varnish",
    "squid",
    "tomcat",
    "jetty",
    "node-app",
    "rails-app",
    "django-app",
    "flask-app",
];

/// The 6 Go-style single-binary images (the paper's <10% group).
const GO_APPS: [&str; 6] = [
    "traefik",
    "consul",
    "vault",
    "etcd",
    "prometheus",
    "registry",
];

/// Builds the Top-50 corpus.
pub fn top50_corpus() -> Vec<CorpusImage> {
    let mut rng = SmallRng::seed_from_u64(0x00C1_47E0_2018);
    let mut corpus = Vec::with_capacity(50);
    for (i, name) in APPS.iter().enumerate() {
        // Target reduction spread over [0.55, 0.95]: together with the six
        // Go images this lands the corpus mean near the paper's 66.6%.
        let target = 0.55 + 0.40 * (i as f64 / (APPS.len() - 1) as f64);
        corpus.push(CorpusImage {
            image: build_app_image(&mut rng, name, target),
            go_single_binary: false,
        });
    }
    for name in GO_APPS {
        corpus.push(CorpusImage {
            image: build_go_image(&mut rng, name),
            go_single_binary: true,
        });
    }
    corpus
}

/// An application image: app + libs + configs, wrapped in distro baggage
/// sized to yield the target reduction.
fn build_app_image(rng: &mut SmallRng, name: &str, target_reduction: f64) -> Arc<Image> {
    let app_size = rng.gen_range(5_000_000u64..60_000_000);
    let nlibs = rng.gen_range(3usize..8);
    let lib_sizes: Vec<u64> = (0..nlibs)
        .map(|_| rng.gen_range(300_000u64..4_000_000))
        .collect();
    let needed: u64 = app_size + lib_sizes.iter().sum::<u64>();
    // baggage / (baggage + needed) = target → baggage = needed * t/(1-t).
    let baggage = (needed as f64 * target_reduction / (1.0 - target_reduction)) as u64;

    let lib_paths: Vec<String> = (0..nlibs)
        .map(|j| format!("/usr/lib/lib{name}{j}.so"))
        .collect();
    let dep_refs: Vec<&str> = lib_paths.iter().map(String::as_str).collect();

    let mut b = ImageBuilder::new(name, "latest")
        .layer(&format!("{name}-base"))
        // Distro baggage: shell, package manager, coreutils.
        .binary("/bin/bash", 1_100_000, &[])
        .binary("/usr/bin/apt", 4_000_000, &[])
        .binary("/usr/bin/dpkg", 2_500_000, &[]);
    for util in [
        "ls", "cp", "mv", "rm", "cat", "grep", "sed", "awk", "find", "tar", "gzip", "ps", "top",
        "less", "vi", "curl", "wget", "ping", "ss", "mount",
    ] {
        b = b.binary(&format!("/usr/bin/{util}"), 150_000, &[]);
    }
    let fixed_baggage: u64 = 1_100_000 + 4_000_000 + 2_500_000 + 20 * 150_000;
    let leftover = baggage.saturating_sub(fixed_baggage);
    // Remaining baggage split between docs, locales and man pages.
    b = b
        .file(&format!("/usr/share/doc/{name}/docs.tar"), leftover / 2)
        .file("/usr/share/locale/locales.db", leftover / 4)
        .file(
            "/usr/share/man/manpages.db",
            leftover - leftover / 2 - leftover / 4,
        );

    b = b.layer(&format!("{name}-app"));
    for (path, size) in lib_paths.iter().zip(&lib_sizes) {
        b = b.file(path, *size);
    }
    let entry = format!("/usr/sbin/{name}");
    b = b
        .binary(&entry, app_size, &dep_refs)
        .text(
            &format!("/etc/{name}.conf"),
            &format!("# {name} configuration\nlisten=0.0.0.0\n"),
        )
        .text("/etc/passwd", "root:x:0:0::/:/bin/bash\n")
        .env("APP_NAME", name)
        .entrypoint(&entry);
    b.build()
}

/// A Go-style image: one static binary, a config, and only a sliver of
/// extras — nearly nothing to remove.
fn build_go_image(rng: &mut SmallRng, name: &str) -> Arc<Image> {
    let app_size = rng.gen_range(15_000_000u64..80_000_000);
    // 2–8% of the image is removable (licenses, sample configs).
    let extra = (app_size as f64 * rng.gen_range(0.02..0.08)) as u64;
    let entry = format!("/usr/bin/{name}");
    ImageBuilder::new(name, "latest")
        .layer(&format!("{name}-binary"))
        .binary(&entry, app_size, &[])
        .text(&format!("/etc/{name}/config.yml"), "log_level: info\n")
        .file("/usr/share/LICENSES.tar", extra)
        .env("APP_NAME", name)
        .entrypoint(&entry)
        .build()
}

/// Runs the whole Figure-5 experiment: boots a host, starts each corpus
/// container, profiles it, and slims it. Returns one report per image.
pub fn run_figure5() -> Vec<SlimReport> {
    run_figure5_detailed().0
}

/// [`run_figure5`] plus the blob-store statistics of the run: all 50
/// corpus containers execute over shared overlay layers, so the stats
/// capture how much the content-addressed store deduplicated across the
/// whole Top-50 (the distro base layers repeat across images).
pub fn run_figure5_detailed() -> (Vec<SlimReport>, cntr_overlay::BlobStoreStats) {
    let corpus = top50_corpus();
    let k = boot_host(SimClock::new());
    let registry = Registry::new();
    for c in &corpus {
        registry.push(Arc::clone(&c.image));
    }
    let rt = ContainerRuntime::new(EngineKind::Docker, k, registry);
    let slim = DockerSlim::new();
    let reports = corpus
        .iter()
        .map(|c| {
            let cname = format!("c-{}", c.image.name);
            rt.run(&cname, &c.image.reference())
                .expect("corpus container starts");
            let report = slim.slim(&rt, &cname, &c.image).expect("slimming succeeds");
            rt.stop(&cname).expect("container stops");
            report
        })
        .collect();
    (reports, rt.blob_store().stats())
}

/// Summary statistics over Figure-5 reports.
#[derive(Debug, Clone, Copy)]
pub struct Figure5Stats {
    /// Mean reduction in percent (paper: 66.6%).
    pub mean_reduction: f64,
    /// Images reduced by less than 10% (paper: 6).
    pub below_10: usize,
    /// Fraction of images reduced by 60–97% (paper: >75%).
    pub frac_60_to_97: f64,
}

/// Computes the paper's headline statistics from per-image reports.
pub fn figure5_stats(reports: &[SlimReport]) -> Figure5Stats {
    let n = reports.len().max(1) as f64;
    let mean = reports
        .iter()
        .map(SlimReport::reduction_percent)
        .sum::<f64>()
        / n;
    let below_10 = reports
        .iter()
        .filter(|r| r.reduction_percent() < 10.0)
        .count();
    let in_band = reports
        .iter()
        .filter(|r| {
            let p = r.reduction_percent();
            (60.0..=97.0).contains(&p)
        })
        .count();
    Figure5Stats {
        mean_reduction: mean,
        below_10,
        frac_60_to_97: in_band as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_complete() {
        let a = top50_corpus();
        let b = top50_corpus();
        assert_eq!(a.len(), 50);
        assert_eq!(a.iter().filter(|c| c.go_single_binary).count(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.image.reference(), y.image.reference());
            assert_eq!(x.image.size_bytes(), y.image.size_bytes());
        }
        // All references are distinct.
        let mut refs: Vec<String> = a.iter().map(|c| c.image.reference()).collect();
        refs.sort();
        refs.dedup();
        assert_eq!(refs.len(), 50);
    }

    #[test]
    fn figure5_matches_paper_shape() {
        let reports = run_figure5();
        assert_eq!(reports.len(), 50);
        let stats = figure5_stats(&reports);
        // Paper: 66.6% average reduction.
        assert!(
            (60.0..=72.0).contains(&stats.mean_reduction),
            "mean reduction {:.1}% out of band",
            stats.mean_reduction
        );
        // Paper: 6 of 50 images below 10%.
        assert_eq!(stats.below_10, 6, "exactly the Go images reduce <10%");
        // Paper: over 75% of containers reduced by 60–97%.
        assert!(
            stats.frac_60_to_97 > 0.6,
            "frac in 60-97 band: {:.2}",
            stats.frac_60_to_97
        );
    }

    /// Figure 5 as recorded: `(reference, slim_bytes, kept_files,
    /// dropped_files)` per corpus image, in corpus order.
    const FIGURE5_PIN: [(&str, u64, usize, usize); 50] = [
        ("nginx:latest", 51444754, 8, 26),
        ("httpd:latest", 20752397, 9, 26),
        ("redis:latest", 16400124, 7, 26),
        ("memcached:latest", 46027855, 10, 26),
        ("mysql:latest", 59779932, 10, 26),
        ("mariadb:latest", 50883230, 6, 26),
        ("postgres:latest", 44513709, 10, 26),
        ("mongo:latest", 50960201, 8, 26),
        ("cassandra:latest", 61036062, 9, 26),
        ("couchdb:latest", 17261229, 7, 26),
        ("rabbitmq:latest", 39444290, 10, 26),
        ("kafka:latest", 23854242, 8, 26),
        ("zookeeper:latest", 30012539, 6, 26),
        ("elasticsearch:latest", 59044078, 8, 26),
        ("kibana:latest", 37618935, 7, 26),
        ("logstash:latest", 57354182, 7, 26),
        ("solr:latest", 70690959, 7, 26),
        ("influxdb:latest", 33932470, 6, 26),
        ("telegraf:latest", 47524743, 9, 26),
        ("neo4j:latest", 21396884, 10, 26),
        ("wordpress:latest", 66287032, 9, 26),
        ("drupal:latest", 60954416, 10, 26),
        ("joomla:latest", 41439748, 7, 26),
        ("ghost:latest", 43941819, 10, 26),
        ("nextcloud:latest", 14238412, 7, 26),
        ("owncloud:latest", 13611559, 7, 26),
        ("phpmyadmin:latest", 58154995, 7, 26),
        ("adminer:latest", 65250724, 8, 26),
        ("mediawiki:latest", 68174692, 7, 26),
        ("redmine:latest", 44891792, 8, 26),
        ("jenkins:latest", 42891209, 8, 26),
        ("sonarqube:latest", 34251306, 8, 26),
        ("nexus:latest", 70210059, 10, 26),
        ("teamcity:latest", 55735175, 9, 26),
        ("gitea:latest", 38438776, 8, 26),
        ("haproxy:latest", 33505640, 6, 26),
        ("varnish:latest", 64627608, 7, 26),
        ("squid:latest", 61947606, 6, 26),
        ("tomcat:latest", 58345113, 8, 26),
        ("jetty:latest", 66776386, 7, 26),
        ("node-app:latest", 67296811, 8, 26),
        ("rails-app:latest", 55763658, 7, 26),
        ("django-app:latest", 39435254, 7, 26),
        ("flask-app:latest", 22308131, 7, 26),
        ("traefik:latest", 40317109, 2, 1),
        ("consul:latest", 46710433, 2, 1),
        ("vault:latest", 47585810, 2, 1),
        ("etcd:latest", 29048377, 2, 1),
        ("prometheus:latest", 63769429, 2, 1),
        ("registry:latest", 26058677, 2, 1),
    ];

    #[test]
    fn figure5_pinned_exactly() {
        let (reports, blobs) = run_figure5_detailed();
        let got: Vec<(&str, u64, usize, usize)> = reports
            .iter()
            .map(|r| {
                (
                    r.reference.as_str(),
                    r.slim_bytes,
                    r.kept_files,
                    r.dropped_files,
                )
            })
            .collect();
        assert_eq!(got, FIGURE5_PIN);
        assert_eq!(
            blobs,
            cntr_overlay::BlobStoreStats {
                physical_bytes: 188_416,
                ingested_bytes: 385_024,
                unique_chunks: 46,
                dedup_hits: 48,
            }
        );
    }

    #[test]
    fn go_images_are_single_binary_shaped() {
        let corpus = top50_corpus();
        for c in corpus.iter().filter(|c| c.go_single_binary) {
            let files = c.image.effective_files();
            let binaries = files
                .iter()
                .filter(|(p, n)| {
                    matches!(n, cntr_engine::NodeSpec::File { mode, .. } if mode.bits() & 0o111 != 0)
                        && !p.starts_with("/etc")
                })
                .count();
            assert_eq!(binaries, 1, "{} must ship one binary", c.image.name);
        }
    }
}
