//! The calibration kernel: a fixed piece of work shaped like the program's
//! own (a hash join that boxes its rows), run before, between and after the
//! measured rounds. It makes a drifting machine show in the result, and it
//! is the yardstick the end-to-end times are stated against.

use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const ROWS: u32 = 60_000;

/// Runs the kernel once; returns its wall time in milliseconds. The work is
/// a small hash join written here, not in the program under test: build a
/// multimap over one relation, probe it with another, box every joined row.
pub fn kernel() -> f64 {
    let t = Instant::now();
    // xorshift64: fixed inputs, so the work is the same every time.
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % u64::from(ROWS)) as u32
    };
    let left: Vec<(u32, u32)> = (0..ROWS).map(|_| (next(), next())).collect();
    let right: Vec<(u32, u32)> = (0..ROWS).map(|_| (next(), next())).collect();
    let mut by_key: HashMap<u32, Vec<u32>> = HashMap::new();
    for &(k, v) in &right {
        by_key.entry(k).or_default().push(v);
    }
    let mut joined: Vec<Box<[u32]>> = Vec::new();
    for &(a, k) in &left {
        if let Some(vs) = by_key.get(&k) {
            for &v in vs {
                joined.push(Box::new([a, k, v]));
            }
        }
    }
    black_box(joined.len());
    drop(joined);
    drop(by_key);
    t.elapsed().as_secs_f64() * 1e3
}

/// The kernel's time on a quiet machine of the kind this benchmark was set
/// up on. Times are reported at the speed at which the kernel takes this
/// long.
pub const NOMINAL_MS: f64 = 12.0;

/// The kernel times of one run, in the order taken.
#[derive(Clone, Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    /// Runs the kernel and returns its time in milliseconds.
    pub fn sample(&mut self) -> f64 {
        if self.samples.is_empty() {
            // The first run pays for the pages the later ones reuse.
            kernel();
        }
        // The quicker of two: a burst that hits one of them is not the
        // machine's speed.
        let ms = kernel().min(kernel());
        self.samples.push(ms);
        ms
    }

    /// Reference speed over the machine's speed across an interval with the
    /// kernel times `before` and `after` at its ends. A time measured in the
    /// interval, multiplied by this, is the time at reference speed: a
    /// neighbour that slows the machine slows the kernel as well, and the
    /// two cancel.
    pub fn speed(before: f64, after: f64) -> f64 {
        NOMINAL_MS / ((before + after) / 2.0)
    }

    pub fn median_ms(&self) -> f64 {
        median(&mut self.samples.clone())
    }

    /// `(max − min) / median` over the run's kernel times.
    pub fn spread(&self) -> f64 {
        let max = self.samples.iter().copied().fold(f64::MIN, f64::max);
        let min = self.samples.iter().copied().fold(f64::MAX, f64::min);
        (max - min) / self.median_ms()
    }

    /// Prints the two numbers, and a warning when the machine moved by more
    /// than a tenth while the run was measuring.
    pub fn report(&self) {
        println!("bench.calib_ms {} ms", self.median_ms());
        println!("bench.calib_spread {} fraction", self.spread());
        if self.spread() > 0.10 {
            println!(
                "warning: the calibration kernel spread {:.0}% over this run: the machine's \
                 speed moved while it measured",
                self.spread() * 100.0
            );
        }
    }
}
