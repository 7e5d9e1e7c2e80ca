//! A fixed reference computation timed between the program's reps, so
//! the end-to-end times can be rescaled to a nominal host speed.
//!
//! Shared hosts change speed by tens of percent over minutes (other
//! tenants, frequency), which moves every wall time of a run together.
//! The fastest reference pass of a run, which the program's code cannot
//! change, follows that drift; dividing by it keeps any change in the
//! program's own cost. The fastest pass, not the median, because
//! interference from other tenants comes in sub-second bursts that only
//! ever add time.

use std::hint::black_box;
use std::time::Instant;

/// Floats in the reference buffer: 2 MiB, past the L1 and L2 caches of
/// small hosts. Allocated per sample and freed before the program runs
/// again.
const FLOATS: usize = 1 << 19;
/// Row width of the reference scan.
const DIM: usize = 64;
/// Passes per sample.
const PASSES: usize = 40;

/// The fastest reference pass of the nominal host, seconds. End-to-end
/// times are reported as if the run's fastest pass had taken this long.
pub const NOMINAL_PASS_S: f64 = 0.15e-3;

/// The fastest reference pass seen so far.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    fastest_s: f64,
}

impl Reference {
    /// No samples yet.
    pub fn new() -> Self {
        Self {
            fastest_s: f64::INFINITY,
        }
    }

    /// Times [`PASSES`] reference passes (dot products of a fixed query
    /// against every 64-float row of a fixed buffer) and keeps the
    /// fastest.
    pub fn sample(&mut self) {
        let mut x = 0x9E37_79B9_u32;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        };
        let rows: Vec<f32> = (0..FLOATS).map(|_| next()).collect();
        let query: Vec<f32> = (0..DIM).map(|_| next()).collect();
        for _ in 0..PASSES {
            let start = Instant::now();
            let mut best = f32::MIN;
            for row in black_box(&rows).chunks_exact(DIM) {
                let dot: f32 = row.iter().zip(&query).map(|(a, b)| a * b).sum();
                best = best.max(dot);
            }
            black_box(best);
            self.fastest_s = self.fastest_s.min(start.elapsed().as_secs_f64());
        }
    }

    /// The fastest pass, seconds (infinite before any sample).
    pub fn fastest_s(&self) -> f64 {
        self.fastest_s
    }

    /// Host slowness against the nominal host: > 1 on a slower host.
    pub fn host_factor(&self) -> f64 {
        self.fastest_s / NOMINAL_PASS_S
    }
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}
