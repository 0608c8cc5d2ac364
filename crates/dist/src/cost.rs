//! The analytic cost model of §III-B.
//!
//! The paper estimates a detection round's response time as the maximum
//! shipping time plus the maximum local-computation time over all sites
//! (both phases run in parallel across sites, so each phase costs its
//! slowest participant). Local computation is approximated analytically:
//! a scan is linear in the fragment, a detection check is `n·log n`
//! (hash aggregation with sort-order tie-breaking), pattern matching is
//! linear in the number of comparisons. Transfers are packetized.

use dcd_relation::RelationError;

/// Cost parameters of the simulated environment.
///
/// The defaults approximate the paper's 2009 testbed — commodity LAN,
/// per-site MySQL — scaled so that the `cust8` workloads land in the
/// paper's "tens to hundreds of seconds" regime at full scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Network packets per second.
    pub transfer_rate: f64,
    /// Tuples per packet.
    pub packet_tuples: f64,
    /// Seconds per scanned tuple.
    pub scan_coeff: f64,
    /// Seconds per checked tuple (× `log2` of the batch).
    pub check_coeff: f64,
    /// Seconds per pattern comparison.
    pub match_coeff: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            transfer_rate: 1250.0,
            packet_tuples: 64.0,
            scan_coeff: 2e-6,
            check_coeff: 5e-7,
            match_coeff: 1e-7,
        }
    }
}

impl CostModel {
    /// Checks that the model can drive the simulated clocks: every field
    /// finite, every coefficient `≥ 0`, and the two rates a send time
    /// divides by (`transfer_rate`, `packet_tuples`) `> 0`. The public
    /// front doors call it before any clock moves.
    pub fn check(&self) -> Result<(), RelationError> {
        let fields = [
            ("transfer_rate", self.transfer_rate, true),
            ("packet_tuples", self.packet_tuples, true),
            ("scan_coeff", self.scan_coeff, false),
            ("check_coeff", self.check_coeff, false),
            ("match_coeff", self.match_coeff, false),
        ];
        for (name, value, divides) in fields {
            let (ok, bound) = if divides { (value > 0.0, "> 0") } else { (value >= 0.0, ">= 0") };
            if !(ok && value.is_finite()) {
                return Err(RelationError::InvalidCostModel {
                    detail: format!("`{name}` is {value}; it must be finite and {bound}"),
                });
            }
        }
        Ok(())
    }

    /// Time to scan `n` tuples at one site.
    pub fn scan_time(&self, n: usize) -> f64 {
        self.scan_coeff * n as f64
    }

    /// Time to run a detection check over a batch of `n` tuples
    /// (`≈ c·n·log n`, the paper's estimate for the local SQL query).
    pub fn check_time(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        self.check_coeff * n as f64 * ((n + 1) as f64).log2()
    }

    /// Time for one site to serialize and send `n` tuples.
    pub fn send_time(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        (n as f64 / self.packet_tuples).ceil() / self.transfer_rate
    }

    /// Time for one site to send `msgs` control messages (the §IV-B
    /// statistics exchange). Each control message — a vector of lstat
    /// counts, a few bytes — rides its own network packet, so the send
    /// time is one packet slot per message.
    pub fn control_time(&self, msgs: usize) -> f64 {
        msgs as f64 / self.transfer_rate
    }

    /// The literal §III-B two-phase formula for one round:
    /// `max_i t_ship(S_i) + max_j t_local(S_j)`, with `sent[i]` the
    /// tuples site `i` shipped and `local_secs[j]` the local computation
    /// charged to site `j` this round.
    pub fn paper_cost(&self, sent: &[usize], local_secs: &[f64]) -> f64 {
        let max_ship = sent.iter().map(|&n| self.send_time(n)).fold(0.0, f64::max);
        let max_local = local_secs.iter().copied().fold(0.0, f64::max);
        max_ship + max_local
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> CostModel {
        CostModel {
            transfer_rate: 1.0,
            packet_tuples: 1.0,
            scan_coeff: 1.0,
            check_coeff: 1.0,
            match_coeff: 1.0,
        }
    }

    #[test]
    fn zero_work_costs_nothing() {
        let c = CostModel::default();
        assert_eq!(c.scan_time(0), 0.0);
        assert_eq!(c.check_time(0), 0.0);
        assert_eq!(c.send_time(0), 0.0);
        assert_eq!(c.paper_cost(&[0], &[0.0]), 0.0);
    }

    #[test]
    fn send_time_rounds_up_to_whole_packets() {
        let c = CostModel { packet_tuples: 64.0, transfer_rate: 10.0, ..unit() };
        assert_eq!(c.send_time(1), 0.1); // one packet
        assert_eq!(c.send_time(64), 0.1); // still one packet
        assert_eq!(c.send_time(65), 0.2); // two packets
    }

    #[test]
    fn control_time_is_one_packet_per_message() {
        let c = CostModel { packet_tuples: 64.0, transfer_rate: 10.0, ..unit() };
        assert_eq!(c.control_time(0), 0.0);
        assert_eq!(c.control_time(1), 0.1);
        assert_eq!(c.control_time(7), 0.7);
    }

    #[test]
    fn check_time_is_superlinear() {
        let c = unit();
        // n log n: doubling the batch more than doubles the cost.
        assert!(c.check_time(2000) > 2.0 * c.check_time(1000));
        assert!(c.scan_time(2000) == 2.0 * c.scan_time(1000));
    }

    #[test]
    fn paper_cost_takes_max_sender_plus_max_local() {
        let c = unit();
        // Site 0 sends 5 tuples, site 1 sends 4, site 2 none.
        let local = [1.0, 7.0, 2.0];
        assert_eq!(c.paper_cost(&[5, 4, 0], &local), 5.0 + 7.0);
    }

    #[test]
    fn check_names_the_first_field_a_simulation_cannot_run_on() {
        assert_eq!(CostModel::default().check(), Ok(()));
        assert_eq!(CostModel { scan_coeff: 0.0, ..unit() }.check(), Ok(()));
        for (bad, field) in [
            (CostModel { scan_coeff: -1.0, ..unit() }, "`scan_coeff` is -1"),
            (CostModel { check_coeff: f64::NAN, ..unit() }, "`check_coeff` is NaN"),
            (CostModel { match_coeff: f64::INFINITY, ..unit() }, "`match_coeff` is inf"),
            (CostModel { transfer_rate: 0.0, ..unit() }, "`transfer_rate` is 0"),
            (CostModel { packet_tuples: -5.0, ..unit() }, "`packet_tuples` is -5"),
        ] {
            match bad.check() {
                Err(RelationError::InvalidCostModel { detail }) => {
                    assert!(detail.starts_with(field), "{detail}")
                }
                other => panic!("{field}: {other:?}"),
            }
        }
    }

    #[test]
    fn default_is_positive_everywhere() {
        let c = CostModel::default();
        assert!(c.scan_time(1) > 0.0);
        assert!(c.check_time(1) > 0.0);
        assert!(c.send_time(1) > 0.0);
        assert!(c.match_coeff > 0.0);
    }
}
