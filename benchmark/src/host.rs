//! Host-speed calibration for the end-to-end times.
//!
//! The reference box is a shared VM whose speed drifts with its
//! neighbours: the same join took 100 ms, then 137 ms for three quarters
//! of an hour, then 100 ms again, with no code change (`BENCH_pr8.json`
//! is the same effect at 2×). A fixed kernel that runs none of the
//! repository's code — half dependent arithmetic, half pointer chasing in
//! an L2-sized ring — slows down with it; over 45 minutes of one-minute
//! windows, dividing join times by the kernel's time in the same window
//! cut their run-to-run variation from 6.4 % to 2.8 %.
//!
//! So each run times the kernel between its operations, and reports its
//! end-to-end times at reference speed: measured time ÷ slowdown, where
//! slowdown is the kernel's median in that phase of the run over
//! [`REFERENCE_MS`]. The measured values and the slowdown are printed
//! beside them. Per-layer metrics are left as measured.

use crate::stats::median;
use std::time::Instant;

/// The kernel's duration on the reference box in a quiet phase. It only
/// fixes the scale of the reported times; comparisons do not depend on it.
pub const REFERENCE_MS: f64 = 2.5;

const COMPUTE_STEPS: u64 = 300_000;
const CHASE_STEPS: u64 = 240_000;
/// 256 KiB of `u32` links: beyond L1, inside L2.
const RING_LEN: usize = 64 << 10;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Samples of the calibration kernel over one phase of a run.
pub struct HostSpeed {
    /// One random cycle through every slot (Sattolo's shuffle), so the
    /// chase cannot be predicted or prefetched.
    ring: Vec<u32>,
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut order: Vec<u32> = (0..RING_LEN as u32).collect();
        let mut state = 88_172_645_463_325_252u64;
        for i in (1..RING_LEN).rev() {
            order.swap(i, (xorshift(&mut state) % i as u64) as usize);
        }
        let mut ring = vec![0u32; RING_LEN];
        for k in 0..RING_LEN {
            ring[order[k] as usize] = order[(k + 1) % RING_LEN];
        }
        HostSpeed {
            ring,
            samples_ms: Vec::new(),
        }
    }

    /// Runs the kernel once (~3 ms) and records how long it took.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut x = 1.000_001f64;
        for _ in 0..COMPUTE_STEPS {
            x = x * 1.000_000_1 + (xorshift(&mut state) & 0xff) as f64 * 1e-9;
        }
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.ring[at as usize];
        }
        std::hint::black_box((x, at));
        self.samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    /// `n` samples back to back.
    pub fn sample_n(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// How much slower than reference speed the host ran in this phase.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples_ms) / REFERENCE_MS
    }
}
