//! The event-driven networking core: epoll wrapper, timer wheel,
//! connection state machine, and the reactor that runs them.
//!
//! Layering, bottom up:
//!
//! - [`epoll`] — the raw `epoll(7)` + socket syscall shim, the only
//!   `unsafe` code in this tree (allowlisted alongside `signals.rs` by
//!   camp-lint). Besides the epoll family it wraps the
//!   `socket`/`setsockopt`/`bind`/`listen`/`accept4` calls behind
//!   [`epoll::ReusePortListener`], the per-worker `SO_REUSEPORT` accept
//!   socket.
//! - [`timer`] — a hashed timer wheel; idle eviction, chaos delay
//!   resumes and the drain sweep are all wheel entries.
//! - `conn` (crate-private) — the per-connection protocol state machine:
//!   buffers in, a segmented output rope flushed with scatter-gather
//!   `writev`, no sockets, fully unit-testable.
//! - `reactor` (crate-private) — N worker event loops, each owning its
//!   own listener (connections pinned to the accepting worker), batched
//!   event processing with one clock read per wakeup, drain/sever
//!   orchestration.
//!
//! `server::Server` is the only driver of this machinery: every
//! connection is served by a reactor worker.

pub mod epoll;
pub mod timer;

pub(crate) mod conn;
pub(crate) mod reactor;
