//! Container images: ordered layers of file entries.
//!
//! Layers materialize in two ways: flattened into one filesystem (the
//! legacy path, still used as the oracle in equivalence tests) or **one
//! filesystem per layer** ([`Layer::materialize_into`]) so the runtime can
//! stack them read-only under a per-container `OverlayFs` and share them
//! across every container of the image.

use cntr_fs::{Filesystem, FilesystemExt, FsContext, MemFs};
use cntr_overlay::backend::clone_file;
use cntr_overlay::{BlobHandle, CHUNK_SIZE};
use cntr_types::{Errno, FileType, Ino, Mode, OpenFlags, SysResult};
use std::collections::BTreeMap;
use std::sync::Arc;

/// File content specification.
///
/// Large synthetic files use [`Content::Sparse`] so a 500 MB "binary"
/// costs no real memory: the size is metadata, reads return zeroes.
/// Real payloads live in a content-addressed blob store and are referenced
/// by a [`Content::Blob`] handle — the bytes are not inlined in the image
/// manifest, and identical content across layers and images is stored once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Content {
    /// Literal bytes (small configs, scripts).
    Bytes(Vec<u8>),
    /// `size` bytes of zeroes, stored sparsely.
    Sparse(u64),
    /// Content-addressed data in a shared `BlobStore`.
    Blob(BlobHandle),
}

impl Content {
    /// Logical size in bytes. Blob content reports its handle's length —
    /// never the physically stored (deduplicated) size, so sparse and
    /// shared files keep their apparent size everywhere this is summed.
    pub fn len(&self) -> u64 {
        match self {
            Content::Bytes(b) => b.len() as u64,
            Content::Sparse(n) => *n,
            Content::Blob(h) => h.len(),
        }
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What one image entry creates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeSpec {
    /// A directory.
    Dir {
        /// Permissions.
        mode: Mode,
    },
    /// A regular file.
    File {
        /// Permissions (executables carry the x bits).
        mode: Mode,
        /// Content.
        content: Content,
        /// Paths of shared libraries this binary needs (Docker Slim's
        /// static analysis follows these).
        deps: Vec<String>,
    },
    /// A symbolic link.
    Symlink {
        /// Link target.
        target: String,
    },
}

/// One path in a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// Absolute path inside the image.
    pub path: String,
    /// What to create there.
    pub node: NodeSpec,
}

/// One image layer: an ordered set of entries (later layers win).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Content-address-ish identity (shared base layers deduplicate in the
    /// registry).
    pub id: String,
    /// The files.
    pub entries: Vec<FileEntry>,
}

impl Layer {
    /// Total logical bytes in this layer.
    pub fn size_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| match &e.node {
                NodeSpec::File { content, .. } => content.len(),
                _ => 0,
            })
            .sum()
    }
}

/// Image-level configuration (a slice of the OCI config).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImageConfig {
    /// Environment variables.
    pub env: BTreeMap<String, String>,
    /// Path of the entrypoint binary.
    pub entrypoint: String,
    /// Working directory.
    pub workdir: String,
}

/// A container image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Repository name, e.g. `"mysql"`.
    pub name: String,
    /// Tag, e.g. `"8.0"`.
    pub tag: String,
    /// Ordered layers, base first.
    pub layers: Vec<Layer>,
    /// Runtime configuration.
    pub config: ImageConfig,
}

impl Image {
    /// `name:tag`.
    pub fn reference(&self) -> String {
        format!("{}:{}", self.name, self.tag)
    }

    /// Total logical size across layers.
    pub fn size_bytes(&self) -> u64 {
        self.layers.iter().map(Layer::size_bytes).sum()
    }

    /// Every file entry, in application order (base layer first).
    pub fn all_entries(&self) -> impl Iterator<Item = &FileEntry> {
        self.layers.iter().flat_map(|l| l.entries.iter())
    }

    /// The effective file set after layering (later layers shadow earlier
    /// ones at the same path).
    pub fn effective_files(&self) -> BTreeMap<&str, &NodeSpec> {
        let mut map = BTreeMap::new();
        for e in self.all_entries() {
            map.insert(e.path.as_str(), &e.node);
        }
        map
    }

    /// Looks up one effective entry.
    pub fn entry(&self, path: &str) -> Option<&NodeSpec> {
        self.effective_files().get(path).copied()
    }

    /// Materializes the image **flattened** into a fresh rootfs (the
    /// pre-overlay representation; still the oracle for the overlay
    /// equivalence property tests).
    ///
    /// Parent directories are created implicitly; `/proc`, `/dev`, `/etc`
    /// and `/tmp` always exist so the runtime can mount over them.
    pub fn materialize(&self, fs: &MemFs) -> SysResult<()> {
        let ctx = FsContext::root();
        for dir in ROOTFS_SKELETON {
            mkdir_p(fs, dir, &ctx)?;
        }
        for e in self.all_entries() {
            apply_entry(fs, e, &ctx)?;
        }
        Ok(())
    }
}

/// Directories every container rootfs must have so the runtime can mount
/// over them (`/proc`, `/dev`) and CNTR can bind under them
/// (`/var/lib/cntr`).
pub const ROOTFS_SKELETON: &[&str] = &[
    "/proc",
    "/dev",
    "/etc",
    "/tmp",
    "/var",
    "/var/lib",
    "/var/lib/cntr",
];

impl Layer {
    /// Content digest over everything that affects materialization (paths,
    /// node kinds, modes, data identity, symlink targets, deps). The
    /// runtime's layer cache keys on this **in addition to the id**, so an
    /// id reused across images with different content can never serve the
    /// wrong rootfs.
    pub fn content_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for e in &self.entries {
            e.path.hash(&mut h);
            match &e.node {
                NodeSpec::Dir { mode } => {
                    0u8.hash(&mut h);
                    mode.bits().hash(&mut h);
                }
                NodeSpec::File {
                    mode,
                    content,
                    deps,
                } => {
                    1u8.hash(&mut h);
                    mode.bits().hash(&mut h);
                    deps.hash(&mut h);
                    match content {
                        Content::Bytes(b) => {
                            0u8.hash(&mut h);
                            b.hash(&mut h);
                        }
                        Content::Sparse(n) => {
                            1u8.hash(&mut h);
                            n.hash(&mut h);
                        }
                        Content::Blob(handle) => {
                            2u8.hash(&mut h);
                            handle.len().hash(&mut h);
                            handle.chunks().hash(&mut h);
                        }
                    }
                }
                NodeSpec::Symlink { target } => {
                    2u8.hash(&mut h);
                    target.hash(&mut h);
                }
            }
        }
        h.finish()
    }

    /// Materializes **this layer alone** into `fs` — the read-only lower
    /// filesystem the runtime shares across all containers of the image.
    /// Parent directories are created implicitly (as the directory entries
    /// of an OCI layer tar would); shadowing across layers is the
    /// overlay's job, not performed here.
    pub fn materialize_into(&self, fs: &dyn Filesystem) -> SysResult<()> {
        let ctx = FsContext::root();
        for e in &self.entries {
            apply_entry(fs, e, &ctx)?;
        }
        Ok(())
    }
}

/// Creates one image entry (and its parent directories) in `fs`, replacing
/// an existing entry at the same path.
fn apply_entry(fs: &dyn Filesystem, e: &FileEntry, ctx: &FsContext) -> SysResult<()> {
    match &e.node {
        NodeSpec::Dir { mode } => {
            let ino = mkdir_p(fs, &e.path, ctx)?;
            // The root keeps its mode.
            if split_parent(&e.path).is_ok() {
                let _ = fs.setattr(ino, &cntr_types::SetAttr::chmod(*mode), ctx);
            }
        }
        NodeSpec::File { mode, content, .. } => {
            let (parent, name) = split_parent(&e.path)?;
            let pino = mkdir_p(fs, parent, ctx)?;
            // Later entries replace earlier files at the same path.
            let _ = fs.unlink(pino, name);
            let st = fs.mknod(pino, name, FileType::Regular, *mode, 0, ctx)?;
            write_content(fs, st.ino, content, ctx)?;
            // Restore the mode: writes strip setuid/setgid.
            fs.setattr(st.ino, &cntr_types::SetAttr::chmod(*mode), ctx)?;
        }
        NodeSpec::Symlink { target } => {
            let (parent, name) = split_parent(&e.path)?;
            let pino = mkdir_p(fs, parent, ctx)?;
            let _ = fs.unlink(pino, name);
            fs.symlink(pino, name, target, ctx)?;
        }
    }
    Ok(())
}

/// Writes a [`Content`] into a freshly created file.
///
/// Sparse content is a bare truncate (no pages are allocated). Blob content
/// on a blob-backed filesystem over the handle's own store is a reference
/// copy ([`clone_file`]): the file takes the handle's chunk map whole, one
/// refcount per chunk, so materializing a layer neither reads, hashes nor
/// compares a byte the store already holds. Anywhere else (the flattened
/// [`Image::materialize`] oracle into `MemFs`, a filesystem on another
/// store) `clone_file` answers `EXDEV` and the chunks are written out.
fn write_content(
    fs: &dyn Filesystem,
    ino: Ino,
    content: &Content,
    ctx: &FsContext,
) -> SysResult<()> {
    match content {
        Content::Bytes(b) if !b.is_empty() => {
            let fh = fs.open(ino, OpenFlags::WRONLY)?;
            fs.write(ino, fh, 0, b)?;
            fs.release(ino, fh)?;
        }
        Content::Bytes(_) => {}
        Content::Sparse(n) => {
            fs.setattr(ino, &cntr_types::SetAttr::truncate(*n), ctx)?;
        }
        Content::Blob(h) => match clone_file(fs, ino, h) {
            Err(Errno::EXDEV) => write_blob(fs, ino, h, ctx)?,
            cloned => cloned?,
        },
    }
    Ok(())
}

/// Writes a blob's chunks into a file that cannot share them: each stored
/// chunk goes to `write_bytes` as a slice, and sizing the file last
/// restores holes and a sparse tail.
fn write_blob(fs: &dyn Filesystem, ino: Ino, h: &BlobHandle, ctx: &FsContext) -> SysResult<()> {
    let fh = fs.open(ino, OpenFlags::WRONLY)?;
    for &(page, id) in h.chunks() {
        let bytes = h.store().chunk_bytes(id);
        let off = page * CHUNK_SIZE as u64;
        let end = (off + bytes.len() as u64).min(h.len());
        let take = (end.saturating_sub(off)) as usize;
        if take > 0 {
            fs.write_bytes(ino, fh, off, &[bytes.slice(..take)])?;
        }
    }
    fs.release(ino, fh)?;
    fs.setattr(ino, &cntr_types::SetAttr::truncate(h.len()), ctx)?;
    Ok(())
}

fn split_parent(path: &str) -> SysResult<(&str, &str)> {
    let path = path.trim_end_matches('/');
    match path.rsplit_once('/') {
        Some(("", name)) => Ok(("/", name)),
        Some((dir, name)) => Ok((dir, name)),
        None => Err(cntr_types::Errno::EINVAL),
    }
}

/// Resolves an absolute directory path component-wise.
pub fn resolve_dir(fs: &dyn Filesystem, path: &str) -> SysResult<Ino> {
    let mut ino = Ino::ROOT;
    for comp in path.split('/').filter(|c| !c.is_empty()) {
        ino = fs.lookup(ino, comp)?.ino;
    }
    Ok(ino)
}

/// Creates a directory chain (`mkdir -p`) and returns the inode of its
/// last directory.
pub fn mkdir_p(fs: &dyn Filesystem, path: &str, ctx: &FsContext) -> SysResult<Ino> {
    let mut ino = Ino::ROOT;
    for comp in path.split('/').filter(|c| !c.is_empty()) {
        ino = match fs.lookup(ino, comp) {
            Ok(st) => st.ino,
            Err(cntr_types::Errno::ENOENT) => fs.mkdir(ino, comp, Mode::RWXR_XR_X, ctx)?.ino,
            Err(e) => return Err(e),
        };
    }
    Ok(ino)
}

/// Fluent image construction.
pub struct ImageBuilder {
    image: Image,
    current: Layer,
}

impl ImageBuilder {
    /// Starts an image `name:tag` with one open layer.
    pub fn new(name: &str, tag: &str) -> ImageBuilder {
        ImageBuilder {
            image: Image {
                name: name.to_string(),
                tag: tag.to_string(),
                layers: Vec::new(),
                config: ImageConfig::default(),
            },
            current: Layer {
                id: format!("{name}-{tag}-l0"),
                entries: Vec::new(),
            },
        }
    }

    /// Seals the current layer and opens a new one with the given id.
    /// Layers with equal ids deduplicate in the registry.
    #[must_use]
    pub fn layer(mut self, id: &str) -> ImageBuilder {
        if !self.current.entries.is_empty() {
            self.image.layers.push(self.current);
        }
        self.current = Layer {
            id: id.to_string(),
            entries: Vec::new(),
        };
        self
    }

    /// Adds a directory.
    #[must_use]
    pub fn dir(mut self, path: &str) -> ImageBuilder {
        self.current.entries.push(FileEntry {
            path: path.to_string(),
            node: NodeSpec::Dir {
                mode: Mode::RWXR_XR_X,
            },
        });
        self
    }

    /// Adds a sparse (size-only) regular file.
    #[must_use]
    pub fn file(mut self, path: &str, size: u64) -> ImageBuilder {
        self.current.entries.push(FileEntry {
            path: path.to_string(),
            node: NodeSpec::File {
                mode: Mode::RW_R__R__,
                content: Content::Sparse(size),
                deps: Vec::new(),
            },
        });
        self
    }

    /// Adds an executable with a dependency closure.
    #[must_use]
    pub fn binary(mut self, path: &str, size: u64, deps: &[&str]) -> ImageBuilder {
        self.current.entries.push(FileEntry {
            path: path.to_string(),
            node: NodeSpec::File {
                mode: Mode::RWXR_XR_X,
                content: Content::Sparse(size),
                deps: deps.iter().map(|s| s.to_string()).collect(),
            },
        });
        self
    }

    /// Adds a file with literal bytes (configs).
    #[must_use]
    pub fn text(mut self, path: &str, content: &str) -> ImageBuilder {
        self.current.entries.push(FileEntry {
            path: path.to_string(),
            node: NodeSpec::File {
                mode: Mode::RW_R__R__,
                content: Content::Bytes(content.as_bytes().to_vec()),
                deps: Vec::new(),
            },
        });
        self
    }

    /// Adds a file whose data lives in a content-addressed blob store.
    /// Identical payloads across layers and images share physical chunks.
    #[must_use]
    pub fn blob(mut self, path: &str, content: BlobHandle) -> ImageBuilder {
        self.current.entries.push(FileEntry {
            path: path.to_string(),
            node: NodeSpec::File {
                mode: Mode::RW_R__R__,
                content: Content::Blob(content),
                deps: Vec::new(),
            },
        });
        self
    }

    /// Adds a symlink.
    #[must_use]
    pub fn symlink(mut self, path: &str, target: &str) -> ImageBuilder {
        self.current.entries.push(FileEntry {
            path: path.to_string(),
            node: NodeSpec::Symlink {
                target: target.to_string(),
            },
        });
        self
    }

    /// Sets an environment variable.
    #[must_use]
    pub fn env(mut self, key: &str, value: &str) -> ImageBuilder {
        self.image
            .config
            .env
            .insert(key.to_string(), value.to_string());
        self
    }

    /// Sets the entrypoint binary path.
    #[must_use]
    pub fn entrypoint(mut self, path: &str) -> ImageBuilder {
        self.image.config.entrypoint = path.to_string();
        self
    }

    /// Sets the working directory.
    #[must_use]
    pub fn workdir(mut self, path: &str) -> ImageBuilder {
        self.image.config.workdir = path.to_string();
        self
    }

    /// Finishes the image.
    pub fn build(mut self) -> Arc<Image> {
        if !self.current.entries.is_empty() {
            self.image.layers.push(self.current);
        }
        Arc::new(self.image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntr_fs::memfs::memfs;
    use cntr_types::{DevId, SimClock};

    fn sample() -> Arc<Image> {
        ImageBuilder::new("mysql", "8.0")
            .layer("base-debian")
            .dir("/usr/bin")
            .binary("/bin/sh", 100_000, &["/lib/libc.so"])
            .file("/lib/libc.so", 2_000_000)
            .layer("mysql-app")
            .binary("/usr/sbin/mysqld", 50_000_000, &["/lib/libc.so"])
            .text("/etc/my.cnf", "[mysqld]\ndatadir=/var/lib/mysql\n")
            .symlink("/usr/bin/mysqld", "/usr/sbin/mysqld")
            .env("MYSQL_ROOT_PASSWORD", "secret")
            .entrypoint("/usr/sbin/mysqld")
            .build()
    }

    #[test]
    fn builder_structure() {
        let img = sample();
        assert_eq!(img.reference(), "mysql:8.0");
        assert_eq!(img.layers.len(), 2);
        assert_eq!(img.layers[0].id, "base-debian");
        assert_eq!(img.size_bytes(), 100_000 + 2_000_000 + 50_000_000 + 32);
        assert!(img.entry("/usr/sbin/mysqld").is_some());
    }

    #[test]
    fn later_layers_shadow_earlier() {
        let img = ImageBuilder::new("t", "1")
            .layer("a")
            .text("/etc/conf", "old")
            .layer("b")
            .text("/etc/conf", "new")
            .build();
        match img.entry("/etc/conf").unwrap() {
            NodeSpec::File { content, .. } => {
                assert_eq!(content, &Content::Bytes(b"new".to_vec()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn materialize_creates_tree() {
        let img = sample();
        let fs = memfs(DevId(5), SimClock::new());
        img.materialize(&fs).unwrap();
        let bin = resolve_dir(fs.as_ref(), "/usr/sbin").unwrap();
        let st = fs.lookup(bin, "mysqld").unwrap();
        assert_eq!(st.size, 50_000_000);
        assert!(st.mode.bits() & 0o111 != 0, "binary is executable");
        // Sparse: no real pages allocated for the 50 MB binary.
        assert!(fs.used_bytes() < 1 << 20);
        // Config has literal content.
        let etc = resolve_dir(fs.as_ref(), "/etc").unwrap();
        let conf = fs.lookup(etc, "my.cnf").unwrap();
        assert_eq!(conf.size, 32);
        // Standard mountpoint dirs exist.
        assert!(resolve_dir(fs.as_ref(), "/proc").is_ok());
        assert!(resolve_dir(fs.as_ref(), "/dev").is_ok());
        assert!(resolve_dir(fs.as_ref(), "/var/lib/cntr").is_ok());
    }

    #[test]
    fn materialize_overwrites_shadowed_files() {
        let img = ImageBuilder::new("t", "1")
            .layer("a")
            .text("/etc/conf", "old-longer-content")
            .layer("b")
            .text("/etc/conf", "new")
            .build();
        let fs = memfs(DevId(5), SimClock::new());
        img.materialize(&fs).unwrap();
        let etc = resolve_dir(fs.as_ref(), "/etc").unwrap();
        assert_eq!(fs.lookup(etc, "conf").unwrap().size, 3);
    }

    #[test]
    fn cloning_across_stores_is_exdev_and_the_fallback_matches_the_clone() {
        use cntr_overlay::{blobfs, BlobStore};
        // Data, a hole, data, and a 1000-byte tail chunk.
        let mut payload: Vec<u8> = (0..3 * 4096 + 1000).map(|i| (i % 249 + 1) as u8).collect();
        payload[4096..2 * 4096].fill(0);
        let (store_a, store_b) = (BlobStore::new(), BlobStore::new());
        let (handle_a, handle_b) = (store_a.ingest(&payload), store_b.ingest(&payload));
        assert_eq!(store_a.stats(), store_b.stats());
        let ctx = FsContext::root();
        let clock = SimClock::new();
        let new_file = |fs: &dyn Filesystem, name: &str| {
            fs.mknod(Ino::ROOT, name, FileType::Regular, Mode::RW_R__R__, 0, &ctx)
                .unwrap()
                .ino
        };
        let read_back = |fs: &dyn Filesystem, ino: Ino| {
            let st = fs.getattr(ino).unwrap();
            let fh = fs.open(ino, OpenFlags::RDONLY).unwrap();
            let mut buf = vec![0u8; st.size as usize];
            assert_eq!(fs.read(ino, fh, 0, &mut buf).unwrap(), buf.len());
            buf
        };

        // Same store: the file is a reference copy.
        let fs_a = blobfs(DevId(110), clock.clone(), Arc::clone(&store_a));
        let cloned = new_file(fs_a.as_ref(), "cloned");
        write_content(
            fs_a.as_ref(),
            cloned,
            &Content::Blob(handle_a.clone()),
            &ctx,
        )
        .unwrap();

        // The chunk-write path on store B, as the fallback runs it, leaves
        // the same bytes and the same store statistics.
        let fs_b = blobfs(DevId(111), clock, Arc::clone(&store_b));
        let written = new_file(fs_b.as_ref(), "written");
        write_blob(fs_b.as_ref(), written, &handle_b, &ctx).unwrap();
        assert_eq!(store_a.stats(), store_b.stats());
        assert_eq!(read_back(fs_a.as_ref(), cloned), payload);
        assert_eq!(read_back(fs_b.as_ref(), written), payload);

        // Across stores the clone is refused and the content is copied.
        let foreign = new_file(fs_b.as_ref(), "foreign");
        assert_eq!(
            clone_file(fs_b.as_ref(), foreign, &handle_a),
            Err(Errno::EXDEV)
        );
        let stats_a = store_a.stats();
        write_content(
            fs_b.as_ref(),
            foreign,
            &Content::Blob(handle_a.clone()),
            &ctx,
        )
        .unwrap();
        assert_eq!(read_back(fs_b.as_ref(), foreign), payload);
        assert_eq!(store_a.stats(), stats_a, "store A only lent its bytes");
    }

    #[test]
    fn blob_content_reports_length_and_dedups_across_images() {
        use cntr_overlay::{blobfs, BlobStore};
        let store = BlobStore::new();
        // 3 chunks of data followed by a 2-chunk hole: the handle keeps the
        // sparse tail as a hole, and `len` reports the logical size.
        let mut payload = vec![0u8; 5 * 4096];
        for (i, b) in payload.iter_mut().take(3 * 4096).enumerate() {
            // Mix in the chunk number so the three chunks are distinct.
            *b = (i * 17 + i / 4096 * 31) as u8;
        }
        let handle = store.ingest(&payload);
        assert_eq!(handle.len(), 5 * 4096);
        assert!(!handle.is_empty());

        let img_a = ImageBuilder::new("a", "1")
            .layer("a-data")
            .blob("/opt/data.bin", handle.clone())
            .build();
        let img_b = ImageBuilder::new("b", "1")
            .layer("b-data")
            .blob("/srv/copy.bin", handle)
            .build();
        // Content::len goes through the handle, so layer accounting sees
        // the logical size.
        assert_eq!(img_a.size_bytes(), 5 * 4096);

        // Materializing both images into blob-backed layers stores the
        // shared chunks once.
        let clock = SimClock::new();
        let before = store.stats().physical_bytes;
        assert_eq!(before, 3 * 4096, "ingest stored only the data chunks");
        for (img, dev) in [(&img_a, 101), (&img_b, 102)] {
            let fs = blobfs(DevId(dev), clock.clone(), store.clone());
            img.layers[0].materialize_into(fs.as_ref()).unwrap();
            let root = resolve_dir(fs.as_ref(), "/").unwrap();
            let dir = fs.readdir(root).unwrap();
            assert_eq!(dir.len(), 1);
        }
        assert_eq!(
            store.stats().physical_bytes,
            before,
            "materializing blob content is refcount bumps, not copies"
        );
        // The materialized file reads back with the hole intact.
        let fs = blobfs(DevId(103), clock, store.clone());
        img_a.layers[0].materialize_into(fs.as_ref()).unwrap();
        let opt = resolve_dir(fs.as_ref(), "/opt").unwrap();
        let st = fs.lookup(opt, "data.bin").unwrap();
        assert_eq!(st.size, 5 * 4096);
        let fh = fs.open(st.ino, OpenFlags::RDONLY).unwrap();
        let mut buf = vec![1u8; 4096];
        fs.read(st.ino, fh, 4 * 4096, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "sparse tail reads zero");
    }
}
