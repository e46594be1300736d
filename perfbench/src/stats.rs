//! Order statistics over latency samples.

use record_prop::Rng;

/// Percentiles a tail report may name, highest last.
const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// A sample set reduced to what the report prints.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub p99: f64,
    /// The highest percentile with at least ten samples beyond it.
    pub tail_pct: f64,
}

/// Linear-interpolated quantile `q` (0..=1) of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let tail_pct = TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    Summary { median: quantile(&v, 0.5), p99: quantile(&v, 0.99), tail_pct }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// A uniform sample of at most `cap` items out of everything pushed,
/// in memory allocated and written once up front, so the benchmark's
/// own footprint does not grow with the program's throughput.
pub struct Reservoir<T> {
    items: Vec<T>,
    filled: usize,
    seen: u64,
    rng: Rng,
}

impl<T: Copy> Reservoir<T> {
    pub fn new(cap: usize, fill: T, seed: u64) -> Self {
        let mut items = Vec::with_capacity(cap);
        // `resize` writes every slot, so the pages are resident from now on
        items.resize(cap, fill);
        Reservoir { items, filled: 0, seen: 0, rng: Rng::new(seed) }
    }

    pub fn push(&mut self, x: T) {
        if self.filled < self.items.len() {
            self.items[self.filled] = x;
            self.filled += 1;
        } else {
            let j = self.rng.next_u64() % (self.seen + 1);
            if let Some(slot) = self.items.get_mut(j as usize) {
                *slot = x;
            }
        }
        self.seen += 1;
    }

    pub fn items(&self) -> &[T] {
        &self.items[..self.filled]
    }

    pub fn seen(&self) -> u64 {
        self.seen
    }
}
