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
//! The clocks are plain `f64`s behind `&mut self`: one thread owns them.
//! Pool tasks return what they would charge and the coordinating thread
//! applies it after the join, in site order, so every clock sees the
//! same sequence of f64 additions whatever the pool width.

use crate::cost::CostModel;
use crate::site::SiteId;

/// The per-site clock vector of one simulated detection run.
#[derive(Debug)]
pub struct SiteClocks {
    /// Seconds, indexed by site.
    clocks: Vec<f64>,
}

impl SiteClocks {
    /// All clocks at zero.
    pub fn new(n: usize) -> Self {
        SiteClocks { clocks: vec![0.0; n] }
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.clocks.len()
    }

    /// The current time at one site.
    pub fn now(&self, site: SiteId) -> f64 {
        self.clocks[site.index()]
    }

    /// Charges `secs` of local work to one site.
    pub fn advance(&mut self, site: SiteId, secs: f64) {
        debug_assert!(secs >= 0.0, "cannot advance a clock backwards");
        self.clocks[site.index()] += secs;
    }

    /// Makes a site wait (at least) until an absolute time — the
    /// receiving half of a point-to-point transfer.
    pub fn wait_until(&mut self, site: SiteId, time: f64) {
        let clock = &mut self.clocks[site.index()];
        if *clock < time {
            *clock = time;
        }
    }

    /// Executes a bulk transfer round. `matrix[to][from]` is the number
    /// of tuples shipped from `from` to `to`. Each sender serializes its
    /// outgoing tuples ([`CostModel::send_time`] of its total); each
    /// receiver then waits for every site it receives from.
    pub fn transfer(&mut self, matrix: &[Vec<usize>], cost: &CostModel) {
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
                let now = self.clocks[i];
                if sent[i] > 0 {
                    now + cost.send_time(sent[i])
                } else {
                    now
                }
            })
            .collect();
        for i in 0..n {
            if sent[i] > 0 {
                self.clocks[i] = done[i];
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
        self.clocks.iter().copied().fold(0.0, f64::max)
    }

    /// A point-in-time copy of every site's clock, in site order (what
    /// detection reports carry, and compare by bits).
    pub fn snapshot(&self) -> Vec<f64> {
        self.clocks.clone()
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
        let mut clocks = SiteClocks::new(3);
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
        let mut clocks = SiteClocks::new(3);
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
        let mut clocks = SiteClocks::new(2);
        clocks.transfer(&[vec![0, 0], vec![0, 0]], &unit_cost());
        assert_eq!(clocks.response_time(), 0.0);
    }

    #[test]
    fn wait_until_never_rewinds() {
        let mut clocks = SiteClocks::new(1);
        clocks.advance(SiteId(0), 3.0);
        clocks.wait_until(SiteId(0), 1.0);
        assert_eq!(clocks.now(SiteId(0)), 3.0);
        clocks.wait_until(SiteId(0), 6.0);
        assert_eq!(clocks.now(SiteId(0)), 6.0);
    }

    #[test]
    fn a_sender_serializes_its_outgoing_batches() {
        // Site 0 ships to both others; its send time covers the total.
        let mut clocks = SiteClocks::new(3);
        let matrix = vec![vec![0, 0, 0], vec![3, 0, 0], vec![4, 0, 0]];
        clocks.transfer(&matrix, &unit_cost());
        assert_eq!(clocks.now(SiteId(0)), 7.0);
        assert_eq!(clocks.now(SiteId(1)), 7.0);
        assert_eq!(clocks.now(SiteId(2)), 7.0);
    }
}
