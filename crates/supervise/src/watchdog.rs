//! Real-wall-clock stall detection — the sanctioned D1 exemption.
//!
//! Everything else in the workspace runs on the simulated clock; a hung
//! worker by definition stops advancing it, so stall detection is the one
//! job that *must* consult real time. The contract that keeps determinism
//! intact: the watchdog never touches run state directly — it only trips a
//! [`CancelToken`] with [`CancelReason::Stalled`], and the run drains at
//! the next trial boundary like any other cancellation.
//!
//! Workers call [`Heartbeat::beat`] at every trial boundary. The
//! [`Watchdog`] polls from a background thread and trips the token when
//! the beat count has not moved for the configured stall window.

use crate::cancel::{CancelReason, CancelToken};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A clonable liveness counter beaten at trial boundaries.
#[derive(Debug, Clone, Default)]
pub struct Heartbeat {
    beats: Arc<AtomicU64>,
}

impl Heartbeat {
    /// A fresh heartbeat with zero beats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one unit of forward progress.
    pub fn beat(&self) {
        self.beats.fetch_add(1, Ordering::Relaxed);
    }

    /// Total beats so far.
    pub fn count(&self) -> u64 {
        self.beats.load(Ordering::Relaxed)
    }
}

/// Background stall detector. Trips the token with
/// [`CancelReason::Stalled`] when the heartbeat stops for `stall`; joins
/// its thread on drop.
#[derive(Debug)]
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Spawns the detector. `stall` is how long the beat count may stay
    /// flat before the token is tripped; polling runs at roughly a quarter
    /// of that (capped at one second) so a stall is caught within ~1.25×
    /// the window.
    #[allow(clippy::disallowed_methods, reason = "D1 exemption: stall detection is the sanctioned real-clock consumer")]
    pub fn spawn(heartbeat: Heartbeat, token: CancelToken, stall: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let poll = (stall / 4).min(Duration::from_secs(1)).max(Duration::from_millis(1));
            let mut last_count = heartbeat.count();
            let mut last_progress = Instant::now();
            while !stop_flag.load(Ordering::Acquire) {
                std::thread::sleep(poll);
                let count = heartbeat.count();
                if count != last_count {
                    last_count = count;
                    last_progress = Instant::now();
                } else if last_progress.elapsed() >= stall {
                    token.cancel(CancelReason::Stalled);
                    return;
                }
            }
        });
        Self {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::disallowed_methods, reason = "D1 exemption: bounding a real-clock wait in the real-clock crate's own test")]
    fn silent_heartbeat_trips_stalled() {
        let hb = Heartbeat::new();
        let token = CancelToken::new();
        let dog = Watchdog::spawn(hb, token.clone(), Duration::from_millis(20));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !token.is_cancelled() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(token.reason(), Some(CancelReason::Stalled));
        drop(dog);
    }

    #[test]
    fn steady_heartbeat_keeps_the_run_alive() {
        let hb = Heartbeat::new();
        let token = CancelToken::new();
        let dog = Watchdog::spawn(hb.clone(), token.clone(), Duration::from_millis(80));
        for _ in 0..10 {
            hb.beat();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(!token.is_cancelled(), "beating heartbeat must not trip the watchdog");
        drop(dog);
    }

    #[test]
    fn drop_joins_the_thread() {
        let hb = Heartbeat::new();
        let token = CancelToken::new();
        let dog = Watchdog::spawn(hb, token.clone(), Duration::from_secs(60));
        drop(dog); // must not hang
        assert!(!token.is_cancelled());
    }
}
