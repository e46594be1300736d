//! Machine-speed calibration for the CPU-bound workload.
//!
//! Benchmark hosts are often shared: on a 2-vCPU virtual machine the
//! same compile sweep ran up to 25% slower for minutes at a time, so raw
//! wall time cannot resolve a change the size of one pass. A fixed task that uses only the standard library
//! (hashing, string formatting, a B-tree, sorting and a pointer chase),
//! interleaved with the timed compiles, slows down with the machine and
//! never with the program. Timing metrics are scaled by its median
//! duration relative to [`NOMINAL_S`].
//!
//! Only the in-process matrix is scaled, its set-ups each by a factor
//! measured right after them and its timed run window by window. The
//! serve workloads' requests, set-up included, wait on the kernel's
//! delayed-ACK timer, which does not run faster on a faster machine.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The calibration task's duration on the reference machine speed.
pub const NOMINAL_S: f64 = 0.002;

/// Runs the calibration task once and returns its duration, seconds.
pub fn task(seed: u64) -> f64 {
    let start = Instant::now();
    let mut x = seed | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut names: HashMap<String, Vec<u32>> = HashMap::new();
    for i in 0..3000u32 {
        names.entry(format!("k{}", next() % 1500)).or_default().push(i);
    }
    let mut tree = BTreeMap::new();
    for _ in 0..3000 {
        tree.insert(next() % 4096, next());
    }
    let mut sorted: Vec<u64> = (0..20_000).map(|_| next()).collect();
    sorted.sort_unstable();
    let n = 1 << 16;
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let mut p = 0;
    for _ in 0..n {
        p = perm[p];
    }
    std::hint::black_box((names.len(), tree.len(), sorted[0], p));
    start.elapsed().as_secs_f64()
}

/// The machine's current time scale: median of three task runs over
/// [`NOMINAL_S`] (above 1 means slower than the reference).
pub fn factor(seed: u64) -> f64 {
    crate::stats::median(&[task(seed), task(seed + 1), task(seed + 2)]) / NOMINAL_S
}

/// One set-up's duration: raw seconds and the machine's time scale
/// measured right after it.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    pub raw_s: f64,
    pub factor: f64,
}

impl Setup {
    pub fn measured(raw_s: f64, seed: u64) -> Setup {
        Setup { raw_s, factor: factor(seed) }
    }

    pub fn unscaled(raw_s: f64) -> Setup {
        Setup { raw_s, factor: 1.0 }
    }
}
