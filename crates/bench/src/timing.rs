//! Shared wall-clock measurement discipline for the bench crate.

use std::time::Instant;

/// Repetitions per timed cell. The runs are deterministic, so the
/// minimum over repetitions is the least-noise estimate.
const REPS: usize = 3;

/// Runs `run` [`REPS`] times and returns the last result with the
/// minimum wall-clock in seconds.
pub(crate) fn timed<T>(mut run: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let r = run();
        best = best.min(start.elapsed().as_secs_f64());
        result = Some(r);
    }
    (result.expect("REPS >= 1"), best)
}
