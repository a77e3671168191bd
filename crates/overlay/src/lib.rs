//! Content-addressed storage and copy-on-write layering for container
//! root filesystems.
//!
//! The paper's workflow (§3.2.3) merges a slim application container with a
//! fat "tools" image; production engines do the same thing at the *storage*
//! level by stacking read-only image layers under one writable layer. This
//! crate provides that substrate for the simulation:
//!
//! * [`blob`] — a [`BlobStore`]: content-addressed, chunked, refcounted
//!   storage for file data. Identical chunks are stored once no matter how
//!   many layers, images, or containers reference them, and all-zero chunks
//!   are never materialized (a sparse 500 MB binary costs no memory).
//! * [`backend`] — [`BlobBackend`], a `cntr_fs::store::FileStore` whose
//!   file contents are chunk references into a shared [`BlobStore`];
//!   [`BlobFs`] (`NodeFs<BlobBackend>`) is a full POSIX filesystem whose
//!   data dedups against every other `BlobFs` on the same store.
//! * [`overlay`] — [`OverlayFs`]: a union filesystem over N read-only lower
//!   layers plus one writable upper, with POSIX-correct copy-up on
//!   write/setattr, whiteouts and opaque directories on unlink/rmdir
//!   (Linux overlayfs conventions: a 0/0 character device is a whiteout,
//!   `trusted.overlay.opaque` marks an opaque directory), and merged
//!   readdir. Because upper and lowers are blob-backed on one store,
//!   copy-up hands the lower's chunk map to the upper by reference: one
//!   refcount per chunk, no byte copied or hashed.
//!
//! `cntr-engine` materializes each image layer **once** as a shared
//! read-only [`BlobFs`] and gives every container a cheap [`OverlayFs`]
//! over those shared lowers, so N containers of one image cost
//! O(upper writes), not O(N × image size).

pub mod backend;
pub mod blob;
pub mod overlay;

pub use backend::{blobfs, blobfs_with_capacity, BlobBackend, BlobFs};
pub use blob::{BlobHandle, BlobId, BlobStore, BlobStoreStats, CHUNK_SIZE};
pub use overlay::OverlayFs;
