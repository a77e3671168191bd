//! A model of the FUSE protocol and its kernel/userspace halves.
//!
//! CNTR is built on FUSE (paper §3.1): the slim container's kernel forwards
//! VFS requests through `/dev/fuse` to the CntrFS server, which may live in a
//! different mount namespace (the fat container or the host). This crate
//! reproduces that machinery:
//!
//! * [`proto`] — the request/reply protocol with real FUSE opcode numbers
//!   and the INIT negotiation flags behind the §3.3 optimizations that a
//!   profile varies (`FUSE_WRITEBACK_CACHE`, `FOPEN_KEEP_CACHE`,
//!   `FUSE_PARALLEL_DIROPS`, splice). Readahead and batched `FORGET` are
//!   on in every profile, so they are not flags,
//! * [`conn`] — the `/dev/fuse` queue with the [`conn::Transport`] trait
//!   and the deterministic same-thread **inline** transport,
//! * [`ring`] — the threaded transport, FUSE-over-io_uring style: real
//!   worker threads behind per-worker submission/completion ring pairs,
//!   batched doorbells, multi-reap completions — one worker wakeup serves
//!   many requests — with FUSE-writeback re-entrancy avoidance; used by
//!   the Figure 4 runner and the concurrency stress tests,
//! * [`client`] — the kernel half: a [`cntr_fs::Filesystem`] implementation
//!   that turns VFS calls into FUSE requests, with entry/attr caches,
//!   readahead, forget batching and the cost accounting that makes the
//!   paper's Figure 2/3/4 shapes reproducible,
//! * [`server`] — the userspace half: a handler trait plus [`FsHandler`],
//!   which serves any `Filesystem` over FUSE (CNTR's own passthrough
//!   handler lives in `cntr-core`),
//! * [`testing`] — payload-pointer instrumentation ([`CountingTransport`],
//!   [`InstrumentedFs`]) proving the splice path really moves buffers by
//!   reference: zero memcpys from storage to caller when splice is
//!   negotiated.

pub mod client;
pub mod config;
pub mod conn;
pub mod proto;
pub mod ring;
pub mod server;
pub mod testing;

pub use client::FuseClientFs;
pub use config::FuseConfig;
pub use conn::{InlineTransport, Transport};
pub use proto::{InitFlags, Opcode, Reply, Request};
pub use ring::RingTransport;
pub use server::{FsHandler, FuseHandler};
pub use testing::{copies_along, CountingTransport, InstrumentedFs, PayloadLog};
