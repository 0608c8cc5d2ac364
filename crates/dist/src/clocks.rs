//! Per-site simulated wall clocks — the §III-B parallel cost model.
//!
//! Every site owns a clock. Local work ([`SiteClocks::advance`]) moves
//! one clock; a transfer makes each receiver wait for its senders
//! ([`SiteClocks::transfer`], [`SiteClocks::wait_until`]) — a barrier
//! among the statistics exchange's participants is `wait_until` the
//! latest of them. The run's *response time* is then the maximum over per-site clocks
//! ([`SiteClocks::response_time`]): sites work in parallel, so the
//! slowest chain of dependent work determines the elapsed time.
//!
//! Clocks are stored as atomics (f64 bits in `AtomicU64`), so the
//! per-fragment phases can charge sites from pool threads through a
//! shared `&SiteClocks` (the type is `Sync`, like `ShipmentLedger`).
//! Determinism contract: within one parallel phase each site's clock is
//! advanced only by the task that owns that site, and phases are
//! separated by the pool's join — so every clock sees the same sequence
//! of f64 additions regardless of pool size, and the final values are
//! bit-identical to a sequential run. [`SiteClocks::transfer`] is a
//! whole-vector synchronization step and must be called from the
//! coordinating thread between phases, never from inside one.
//!
//! # Atomics audit
//!
//! Unlike the `Relaxed` meters of [`ShipmentLedger`](crate::ledger::ShipmentLedger),
//! the clocks *are* read mid-phase (a task re-reads the clock of the
//! site it owns, and [`SiteClocks::wait_until`] compares against a
//! sender's clock), so the orderings here are deliberately
//! acquire/release:
//!
//! * **Loads** (`now`, `response_time`, `snapshot`, `Clone`) use
//!   `Acquire`, so a value observed from another thread is one that
//!   thread fully published.
//! * **RMW loops** (`advance`, `wait_until`) use
//!   `compare_exchange_weak(.., AcqRel, Acquire)`: the success
//!   ordering publishes the new time, the failure ordering re-reads
//!   an up-to-date value for the retry.
//! * **Stores** (`transfer`) use `Release`; it is a between-phases
//!   step on the coordinating thread, where the pool join already
//!   ordered prior phase work, so `Release` is aimed at the next
//!   phase's `Acquire` readers.
//!
//! Under the single-writer-per-phase contract these edges are
//! belt-and-braces — the pool's scope join would order the accesses
//! anyway — but they make the type safe to read concurrently without
//! leaning on that contract, at no measurable cost on the coarse
//! per-site phases. `tests/workspace_invariants.rs` keeps
//! `Ordering::Relaxed` from creeping in here: this file is *not* one of
//! the two that may spell it.
#![expect(
    clippy::disallowed_types,
    reason = "atomics audit: Acquire/Release clocks, one writer per site per phase, see the module doc"
)]

use crate::cost::CostModel;
use crate::site::SiteId;
use std::sync::atomic::{AtomicU64, Ordering};

/// The per-site clock vector of one simulated detection run.
#[derive(Debug)]
pub struct SiteClocks {
    /// f64 seconds, stored as bits so advancing is lock-free.
    clocks: Vec<AtomicU64>,
}

impl Clone for SiteClocks {
    fn clone(&self) -> Self {
        SiteClocks {
            clocks: self.clocks.iter().map(|c| AtomicU64::new(c.load(Ordering::Acquire))).collect(),
        }
    }
}

impl SiteClocks {
    /// All clocks at zero.
    pub fn new(n: usize) -> Self {
        SiteClocks { clocks: (0..n).map(|_| AtomicU64::new(0.0_f64.to_bits())).collect() }
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.clocks.len()
    }

    /// The current time at one site.
    pub fn now(&self, site: SiteId) -> f64 {
        f64::from_bits(self.clocks[site.index()].load(Ordering::Acquire))
    }

    /// Charges `secs` of local work to one site. Callable from pool
    /// threads; see the module docs for the single-writer-per-phase
    /// determinism contract.
    pub fn advance(&self, site: SiteId, secs: f64) {
        debug_assert!(secs >= 0.0, "cannot advance a clock backwards");
        let clock = &self.clocks[site.index()];
        let mut current = clock.load(Ordering::Acquire);
        loop {
            let updated = (f64::from_bits(current) + secs).to_bits();
            match clock.compare_exchange_weak(current, updated, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Makes a site wait (at least) until an absolute time — the
    /// receiving half of a point-to-point transfer.
    pub fn wait_until(&self, site: SiteId, time: f64) {
        let clock = &self.clocks[site.index()];
        let mut current = clock.load(Ordering::Acquire);
        while f64::from_bits(current) < time {
            match clock.compare_exchange_weak(
                current,
                time.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Executes a bulk transfer round. `matrix[to][from]` is the number
    /// of tuples shipped from `from` to `to`. Each sender serializes its
    /// outgoing tuples ([`CostModel::send_time`] of its total); each
    /// receiver then waits for every site it receives from. A
    /// between-phases step — not for pool threads.
    pub fn transfer(&self, matrix: &[Vec<usize>], cost: &CostModel) {
        let n = self.clocks.len();
        debug_assert_eq!(matrix.len(), n);
        debug_assert!(
            (0..n).all(|i| matrix[i][i] == 0),
            "self-to-self entries are not transfers (same rule as ShipmentLedger::ship)"
        );
        let sent: Vec<usize> = (0..n).map(|i| (0..n).map(|c| matrix[c][i]).sum()).collect();
        // Send completion times, from pre-transfer clocks.
        let done: Vec<f64> = (0..n)
            .map(|i| {
                let now = self.now(SiteId(i as u32));
                if sent[i] > 0 {
                    now + cost.send_time(sent[i])
                } else {
                    now
                }
            })
            .collect();
        for i in 0..n {
            if sent[i] > 0 {
                self.clocks[i].store(done[i].to_bits(), Ordering::Release);
            }
        }
        for (to, row) in matrix.iter().enumerate() {
            for (from, &tuples) in row.iter().enumerate() {
                if tuples > 0 {
                    self.wait_until(SiteId(to as u32), done[from]);
                }
            }
        }
    }

    /// The simulated response time so far: the maximum per-site clock.
    pub fn response_time(&self) -> f64 {
        self.clocks.iter().map(|c| f64::from_bits(c.load(Ordering::Acquire))).fold(0.0, f64::max)
    }

    /// A point-in-time copy of every site's clock, in site order (what
    /// detection reports carry so pool-size determinism can be checked
    /// clock by clock).
    pub fn snapshot(&self) -> Vec<f64> {
        self.clocks.iter().map(|c| f64::from_bits(c.load(Ordering::Acquire))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_cost() -> CostModel {
        CostModel {
            transfer_rate: 1.0,
            packet_tuples: 1.0,
            scan_coeff: 0.0,
            check_coeff: 0.0,
            match_coeff: 0.0,
        }
    }

    #[test]
    fn response_time_is_max_per_site_clock() {
        let clocks = SiteClocks::new(3);
        clocks.advance(SiteId(0), 1.0);
        clocks.advance(SiteId(1), 4.0);
        clocks.advance(SiteId(2), 2.5);
        assert_eq!(clocks.response_time(), 4.0);
        // Work at a site behind the maximum extends only its own clock.
        clocks.advance(SiteId(0), 1.0);
        assert_eq!(clocks.response_time(), 4.0);
        assert_eq!(clocks.now(SiteId(0)), 2.0);
    }

    #[test]
    fn receivers_wait_for_the_slowest_sender() {
        let clocks = SiteClocks::new(3);
        clocks.advance(SiteId(0), 1.0); // fast sender
        clocks.advance(SiteId(1), 5.0); // slow sender
                                        // Both ship 2 tuples to site 2 (1 tuple/sec).
        let matrix = vec![vec![0, 0, 0], vec![0, 0, 0], vec![2, 2, 0]];
        clocks.transfer(&matrix, &unit_cost());
        assert_eq!(clocks.now(SiteId(0)), 3.0);
        assert_eq!(clocks.now(SiteId(1)), 7.0);
        assert_eq!(clocks.now(SiteId(2)), 7.0, "receiver waits for the slow sender");
    }

    #[test]
    fn senders_without_traffic_do_not_move() {
        let clocks = SiteClocks::new(2);
        clocks.transfer(&[vec![0, 0], vec![0, 0]], &unit_cost());
        assert_eq!(clocks.response_time(), 0.0);
    }

    #[test]
    fn wait_until_never_rewinds() {
        let clocks = SiteClocks::new(1);
        clocks.advance(SiteId(0), 3.0);
        clocks.wait_until(SiteId(0), 1.0);
        assert_eq!(clocks.now(SiteId(0)), 3.0);
        clocks.wait_until(SiteId(0), 6.0);
        assert_eq!(clocks.now(SiteId(0)), 6.0);
    }

    #[test]
    fn a_sender_serializes_its_outgoing_batches() {
        // Site 0 ships to both others; its send time covers the total.
        let clocks = SiteClocks::new(3);
        let matrix = vec![vec![0, 0, 0], vec![3, 0, 0], vec![4, 0, 0]];
        clocks.transfer(&matrix, &unit_cost());
        assert_eq!(clocks.now(SiteId(0)), 7.0);
        assert_eq!(clocks.now(SiteId(1)), 7.0);
        assert_eq!(clocks.now(SiteId(2)), 7.0);
    }

    /// Clocks accept concurrent charging from scoped pool threads (one
    /// site per task — the phases' single-writer discipline), and the
    /// result equals the sequential sum.
    #[test]
    fn concurrent_single_writer_advances_are_exact() {
        let clocks = SiteClocks::new(8);
        crate::pool::scoped_map(8, 8, |i| {
            for _ in 0..1000 {
                clocks.advance(SiteId(i as u32), 0.001);
            }
        });
        let expect = (0..1000).fold(0.0_f64, |acc, _| acc + 0.001);
        for s in 0..8 {
            assert_eq!(clocks.now(SiteId(s)).to_bits(), expect.to_bits(), "site {s}");
        }
    }

    #[test]
    fn clone_copies_current_values() {
        let clocks = SiteClocks::new(2);
        clocks.advance(SiteId(0), 2.0);
        let copy = clocks.clone();
        clocks.advance(SiteId(0), 1.0);
        assert_eq!(copy.now(SiteId(0)), 2.0);
        assert_eq!(clocks.now(SiteId(0)), 3.0);
        assert_eq!(copy.snapshot(), vec![2.0, 0.0]);
    }
}
