//! Wall-clock timing for the benchmark harnesses.

use std::time::Instant;

/// Wall-clock seconds of the fastest of `reps` runs of `f` (best-of to
/// shave scheduler noise; the first run warms caches), with the last
/// run's result.
#[allow(clippy::disallowed_methods, reason = "D1 does not apply: crates/bench is the sanctioned home of wall-clock timing")]
pub fn time_best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("at least one rep"))
}
