//! Fleet supervision primitives: cooperative cancellation, deadlines,
//! watchdogs, signal-driven graceful shutdown, and the typed degradation
//! report every campaign emits.
//!
//! Long tuning campaigns fail partially: a device dies mid-cell, a worker
//! hangs, an operator hits Ctrl-C, a per-cell deadline expires. This crate
//! holds the *mechanisms* that let the rest of the workspace absorb those
//! events without giving up determinism:
//!
//! * [`cancel::CancelToken`] — a shared, lock-free flag checked at
//!   deterministic points only (trial and SA-round boundaries), so a
//!   cancelled run's journal is a byte-identical prefix of the
//!   uninterrupted run's.
//! * [`watchdog`] — the one sanctioned real-wall-clock consumer (rule D1
//!   exemption): a [`watchdog::Heartbeat`] beaten at trial boundaries
//!   plus a background [`watchdog::Watchdog`] that trips the token with
//!   [`cancel::CancelReason::Stalled`] when the beat stops.
//! * [`signal`] — SIGINT/SIGTERM installation (the workspace's one
//!   sanctioned `unsafe`, rule U1): the first signal trips the
//!   process-wide token for a graceful drain, the second hard-exits.
//! * [`report`] — the degradation taxonomy ([`report::CellStatus`]) and the
//!   `degradation.json` schema ([`report::DegradationReport`]).
//! * [`health`] — per-component health: each learned component runs
//!   learned or on its one fallback ([`health::HealthReport`]), which lets
//!   a run with damaged learned artifacts complete degraded instead of
//!   aborting.
//!
//! The crate is a DAG leaf (it imports no `glimpse_*` crate), so every
//! layer — `mlkit`'s fan-outs included — may depend on it.

#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cancel;
pub mod health;
pub mod report;
pub mod signal;
pub mod watchdog;

pub use cancel::{CancelReason, CancelToken};
pub use health::{Component, ComponentReport, HealthCause, HealthReport};
pub use report::{Abandonment, CellReport, CellStatus, Degradation, DegradationReport};
pub use watchdog::{Heartbeat, Watchdog};
