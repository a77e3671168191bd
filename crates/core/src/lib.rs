//! CNTR: lightweight OS containers via split images.
//!
//! This crate is the paper's primary contribution (§3): attach to a running
//! "slim" application container and expand it, at runtime, with the tools of
//! a "fat" container or of the host — without modifying the application, the
//! container manager, or the operating system.
//!
//! The four components match the paper's implementation section (§4):
//!
//! * [`attach`] — the container-engine logic: resolve the container, gather
//!   its context, build the **nested mount namespace** (CntrFS at `/`, the
//!   application's old root at `/var/lib/cntr`, the app's `/proc`, `/dev`
//!   and selected `/etc` files bound over the tools view), drop privileges,
//!   and start the interactive shell (paper: 1549 LoC),
//! * [`cntrfs`] — the CntrFS server: a FUSE passthrough filesystem that
//!   holds one `O_PATH` descriptor per inode *in the server's mount
//!   namespace* (host or fat container) and answers with `*at` calls from
//!   it, with the open+stat hardlink detection the paper describes
//!   (paper: 1481 LoC),
//! * [`pty`] — the pseudo-TTY connecting the user's terminal to the shell
//!   (paper: 221 LoC),
//! * [`proxy`] — the Unix-socket forwarder with its epoll+splice event loop,
//!   enabling X11/D-Bus applications (paper: 400 LoC).
//!
//! [`context`] implements step #1's `/proc` inspection and [`shell`] the
//! interactive shell plus a toolbox of simulated debugging tools.
//! [`event_loop`] is the attach plane itself: the single epoll event loop
//! that multiplexes every session's proxies and ptys.

pub mod attach;
pub mod cntrfs;
pub mod context;
pub mod event_loop;
pub mod proxy;
pub mod pty;
pub mod shell;

pub use attach::{AttachSession, Cntr, CntrOptions, ToolsLocation};
pub use cntrfs::CntrfsServer;
pub use context::ContainerContext;
pub use event_loop::EventLoop;
pub use proxy::SocketProxy;
pub use pty::Pty;
pub use shell::Shell;
