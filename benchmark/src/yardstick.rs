//! A yardstick for the host's speed. The hosts this benchmark runs on are
//! shared: for seconds to minutes at a time everything on them runs 1.2× to
//! 2× slower, whole runs included, which no statistic over a run's own
//! latencies can see through. So a fixed piece of work — hashing and
//! counting into a table that stays in cache — is timed after every
//! operation and around every cold build, and the timed end-to-end metrics
//! are reported at the yardstick's nominal speed: a latency is divided by
//! how much slower than nominal the yardstick ran around it, raised to
//! [`SENSITIVITY`]. `README.md` has the spreads with and without.
//!
//! What the sizing runs showed about the interference: a pointer chase
//! over 64 MiB, which misses every cache anyway, does not slow down with
//! the engine at all, and work that hits in cache does, so it is the
//! processor and its caches that are being shared, not memory bandwidth. A
//! yardstick that allocates follows the allocation-heavy workloads a little
//! more closely, but its own speed depends on the state of the heap — three
//! to one between two workloads' processes — so a change to the engine's
//! allocation pattern would move the ruler. This one owns its buffers.

use crate::stats::median;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// What one run of the yardstick takes on the sizing host when nothing
/// disturbs it; normalized times are times at this speed.
pub const NOMINAL_MS: f64 = 0.81;

/// How much more than the yardstick an operation slows down: latency goes
/// with the yardstick's slowness to this power. The engine's operations
/// miss caches and the yardstick does not, so they feel a shared cache
/// more. Fitted over 1 000 slices of 50 runs on the sizing host, where
/// the slowness ranged from 1.0 to 1.8: the exponent that leaves the
/// least variation is 1.2 to 1.4 on four workloads and 1.0 on
/// `xref_clust`; one value serves all five.
pub const SENSITIVITY: f64 = 1.25;

const KEYS: usize = 65_536;
const GROUPS: u64 = 2_048;
/// Slots of the open-addressed table the keys are counted into: a power
/// of two, four times the groups.
const SLOTS: usize = 8_192;

/// The fixed work: count 65 536 pseudo-random keys into 2 048 groups, in an
/// open-addressed table hashed with the standard library's SipHash. Both
/// buffers are allocated once, here, so that a run neither depends on the
/// state of the heap nor changes it under the engine's feet.
pub struct Yardstick {
    keys: Vec<u64>,
    slots: Vec<(u64, u32)>,
}

impl Yardstick {
    pub fn new() -> Self {
        // xorshift64 from a fixed state: the same keys in every process.
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let keys = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Yardstick { keys, slots: vec![(0, 0); SLOTS] }
    }

    /// Does the fixed work once; its wall time in ms.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        self.slots.fill((0, 0));
        for key in &self.keys {
            let group = key % GROUPS;
            let mut hasher = DefaultHasher::new();
            group.hash(&mut hasher);
            let mut at = hasher.finish() as usize % SLOTS;
            loop {
                let slot = &mut self.slots[at];
                if slot.1 == 0 || slot.0 == group {
                    *slot = (group, slot.1 + 1);
                    break;
                }
                at = (at + 1) % SLOTS;
            }
        }
        black_box(&self.slots);
        start.elapsed().as_secs_f64() * 1e3
    }

    /// The host's slowness around one longer piece of work: the median of
    /// a few runs, as a multiple of nominal.
    pub fn slowness_now(&mut self) -> f64 {
        slowness(&[self.run(), self.run(), self.run()])
    }
}

/// How much slower than nominal the yardstick ran: above 1 on a disturbed
/// or slower host, below 1 on a faster one.
pub fn slowness(yard_ms: &[f64]) -> f64 {
    median(yard_ms) / NOMINAL_MS
}

/// Latencies at nominal speed. The window is cut into `slices`
/// consecutive, equal slices — a slow phase outlasts a slice — and each
/// latency is divided by its slice's [`slowness`] to the power
/// [`SENSITIVITY`]. `yard_ms[i]` is the yardstick run right after
/// operation `i`.
pub fn at_nominal_speed(op_ms: &[f64], yard_ms: &[f64], slices: usize) -> Vec<f64> {
    assert_eq!(op_ms.len(), yard_ms.len(), "one yardstick run per operation");
    let n = op_ms.len();
    let slices = slices.clamp(1, n.max(1));
    (0..slices)
        .flat_map(|s| {
            let (from, to) = (s * n / slices, (s + 1) * n / slices);
            let factor = slowness(&yard_ms[from..to]).powf(SENSITIVITY);
            op_ms[from..to].iter().map(move |ms| ms / factor)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_phase_the_yardstick_shares_normalizes_away() {
        // Ten ops at nominal speed, then ten while the yardstick runs 1.5×
        // slower and the ops, which feel it more, 1.5^SENSITIVITY× slower.
        let slow = 20.0 * 1.5_f64.powf(SENSITIVITY);
        let op: Vec<f64> = (0..20).map(|i| if i < 10 { 20.0 } else { slow }).collect();
        let yard: Vec<f64> =
            (0..20).map(|i| if i < 10 { NOMINAL_MS } else { 1.5 * NOMINAL_MS }).collect();
        let flat = at_nominal_speed(&op, &yard, 4);
        assert!(flat.iter().all(|ms| (ms - 20.0).abs() < 1e-9), "{flat:?}");
        // One slice over the whole window cannot tell the phases apart.
        let blurred = at_nominal_speed(&op, &yard, 1);
        assert!(blurred[0] < 20.0 && blurred[19] > 20.0);
    }

    #[test]
    fn a_slowdown_the_yardstick_does_not_share_stays_visible() {
        let yard = [NOMINAL_MS; 8];
        let normalized =
            at_nominal_speed(&[10.0, 10.0, 10.0, 10.0, 15.0, 15.0, 15.0, 15.0], &yard, 2);
        assert_eq!(normalized, [10.0, 10.0, 10.0, 10.0, 15.0, 15.0, 15.0, 15.0]);
        assert_eq!(slowness(&[2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS]), 2.0);
        assert!(at_nominal_speed(&[], &[], 10).is_empty());
    }

    #[test]
    fn the_yardstick_does_the_same_work_every_time() {
        let mut y = Yardstick::new();
        assert!(y.run() > 0.0 && y.slowness_now() > 0.0);
        let counted = y.slots.clone();
        y.run();
        assert_eq!(y.slots, counted);
        assert_eq!(y.slots.iter().map(|s| s.1 as usize).sum::<usize>(), KEYS);
        assert!(y.slots.iter().filter(|s| s.1 > 0).count() <= GROUPS as usize);
    }
}
