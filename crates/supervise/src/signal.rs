//! Signal-driven graceful shutdown — the sanctioned U1 exemption.
//!
//! The first SIGINT/SIGTERM trips the process-wide [`CancelToken`] with
//! [`CancelReason::Interrupted`]; the run drains at the next trial
//! boundary, flushes its snapshot, prints the resume command, and exits 0.
//! A second signal means the operator is done waiting: the handler calls
//! `_exit(130)` immediately (no unwinding, no flushing — the WAL is
//! already durable per frame, so this is exactly the SIGKILL story the
//! resume tests cover).
//!
//! The handler body is async-signal-safe by construction: it touches only
//! lock-free atomics (`OnceLock::get` after initialization is an atomic
//! load) and `_exit`. No allocation, no locks, no stdio.
//!
//! The `extern` bindings below are why this file is U1-exempt: the
//! workspace forbids `unsafe` everywhere else, and no signal-handling
//! crate is vendored, so we declare the two libc symbols we need
//! ourselves. On non-unix targets installation is a no-op and the token
//! is only ever tripped by deadlines or the watchdog.

#![allow(unsafe_code, reason = "U1: the two hand-declared libc bindings for signal handling")]

use crate::cancel::{CancelReason, CancelToken};
use std::sync::OnceLock;

static TOKEN: OnceLock<CancelToken> = OnceLock::new();

/// The process-wide token, if [`install`] has run.
pub fn token() -> Option<CancelToken> {
    TOKEN.get().cloned()
}

/// Installs SIGINT/SIGTERM handlers and returns the process-wide token
/// they trip. Idempotent; later calls return the same token.
pub fn install() -> CancelToken {
    let token = TOKEN.get_or_init(CancelToken::new).clone();
    #[cfg(unix)]
    platform::install_handlers();
    token
}

#[cfg(unix)]
mod platform {
    use super::{CancelReason, TOKEN};
    use std::sync::atomic::{AtomicU32, Ordering};

    /// How many shutdown signals have been received.
    static SIGNALS: AtomicU32 = AtomicU32::new(0);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    /// Conventional exit status for death-by-SIGINT (128 + 2).
    const EXIT_INTERRUPTED: i32 = 130;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(status: i32) -> !;
    }

    extern "C" fn handle_signal(_signum: i32) {
        // First signal: request a graceful drain. A deadline may already
        // have tripped the token — SIGNALS, not cancel()'s return value,
        // decides escalation, so the first signal never hard-exits.
        if SIGNALS.fetch_add(1, Ordering::AcqRel) == 0 {
            if let Some(token) = TOKEN.get() {
                token.cancel(CancelReason::Interrupted);
            }
        } else {
            unsafe { _exit(EXIT_INTERRUPTED) };
        }
    }

    pub(super) fn install_handlers() {
        unsafe {
            signal(SIGINT, handle_signal as *const () as usize);
            signal(SIGTERM, handle_signal as *const () as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_idempotent_and_returns_the_shared_token() {
        let a = install();
        let b = install();
        a.cancel(CancelReason::Interrupted);
        assert!(b.is_cancelled(), "both handles must observe the same token");
        assert_eq!(token().map(|t| t.is_cancelled()), Some(true));
    }
}
