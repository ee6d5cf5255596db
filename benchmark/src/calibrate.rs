//! A fixed, deterministic calibration kernel that shares no code with the
//! simulator: a dependent walk over a random cyclic permutation of a
//! working set larger than a core's L2, with integer mixing at each hop.
//! Its speed tracks how fast this host runs memory-bound code right now.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Entries of the permutation (4 bytes each: 8 MiB).
const ENTRIES: usize = 1 << 21;

pub struct Calibrator {
    next: Vec<u32>,
    pos: u32,
}

impl Calibrator {
    pub fn new() -> Self {
        // Sattolo's algorithm with a fixed LCG: one cycle through every entry
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..ENTRIES).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = ((state >> 33) as usize) % i;
            next.swap(i, j);
        }
        Calibrator { next, pos: 0 }
    }

    /// Host nanoseconds per hop over `hops` hops.
    pub fn ns_per_hop(&mut self, hops: u32) -> f64 {
        let t0 = Instant::now();
        let mut p = self.pos;
        let mut acc = 0u64;
        for _ in 0..hops {
            p = self.next[p as usize];
            for _ in 0..8 {
                acc = acc.rotate_left(7).wrapping_mul(0x2545_f491_4f6c_dd1d) ^ p as u64;
            }
        }
        black_box(acc);
        self.pos = p;
        t0.elapsed().as_nanos() as f64 / hops as f64
    }
}

/// Hops per calibration slice (about 8 ms on the reference host).
const SLICE_HOPS: u32 = 50_000;
/// Nanoseconds per hop of the calibration walk on the reference host (the
/// typical reading on the 2-vCPU host this benchmark was written on).
/// Calibrated durations are host durations scaled to that speed.
pub const REFERENCE_NS_PER_HOP: f64 = 160.0;
/// How much faster the simulator's host time moves than the walk's. Over
/// ten runs of each workload on that host, log(simulator time) rose 1.6 to
/// 2.6 times as fast as log(walk time); one exponent serves every workload.
pub const SENSITIVITY: i32 = 2;
/// Longest a calibration reading is used before the next slice runs.
const PERIOD: Duration = Duration::from_millis(200);

/// Converts raw host durations into calibrated ones: each raw duration is
/// scaled by `(REFERENCE_NS_PER_HOP / current)^SENSITIVITY`, where
/// `current` is the calibration walk's speed measured at most [`PERIOD`]
/// earlier. Slices run only between timed regions, never inside one.
pub struct Timebase {
    calibrator: Calibrator,
    current: f64,
    taken: Instant,
    readings: Vec<f64>,
}

impl Timebase {
    pub fn new() -> Self {
        let mut calibrator = Calibrator::new();
        // one untimed pass brings the walk's working set into memory
        calibrator.ns_per_hop(ENTRIES as u32);
        let mut tb = Timebase {
            calibrator,
            current: REFERENCE_NS_PER_HOP,
            taken: Instant::now(),
            readings: Vec::new(),
        };
        tb.recalibrate();
        tb
    }

    pub fn recalibrate(&mut self) {
        self.current = self.calibrator.ns_per_hop(SLICE_HOPS);
        self.readings.push(self.current);
        self.taken = Instant::now();
    }

    /// Recalibrate when the current reading is older than [`PERIOD`].
    pub fn refresh(&mut self) {
        if self.taken.elapsed() >= PERIOD {
            self.recalibrate();
        }
    }

    /// `raw` host seconds, calibrated.
    pub fn scale(&self, raw: f64) -> f64 {
        raw * Self::factor_at(self.current)
    }

    /// The scale factor for a walk speed of `ns_per_hop`.
    pub fn factor_at(ns_per_hop: f64) -> f64 {
        (REFERENCE_NS_PER_HOP / ns_per_hop).powi(SENSITIVITY)
    }

    /// Every calibration reading so far (ns per hop).
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}
