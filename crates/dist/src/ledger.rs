//! Data-shipment accounting (the §III-A minimality objective's meter).

use crate::site::SiteId;

/// Bytes per dictionary code on the wire. Code-shipped protocols move
/// dense `u32` codes instead of string payloads, so their traffic is
/// byte-accurate at `CODE_BYTES · cells` — the point of shipping codes.
pub const CODE_BYTES: usize = 4;

/// Wire cells occupied by one 8-byte tuple id in a code-shipped row
/// (two `u32` cells). Every `(tid, codes)` row — batch coordinator
/// gathers and incremental deltas alike — pays this on top of its
/// attribute cells, so shipment accounting stays byte-accurate.
pub const TID_CELLS: usize = 2;

/// Records every transfer between sites during a detection run: data
/// shipments (tuples / cells / bytes) and control messages (the
/// statistics exchange of §IV-B).
///
/// Plain totals behind `&mut self`: the run's coordinating thread is
/// the only one that charges the ledger.
#[derive(Debug)]
pub struct ShipmentLedger {
    n_sites: usize,
    tuples: usize,
    cells: usize,
    bytes: usize,
    control_msgs: usize,
    control_bytes: usize,
    /// The per-site-pair metric mirror (see [`Self::observed`]).
    mirror: LedgerMirror,
}

/// Pre-registered per-site-pair counter handles mirroring the ledger
/// into a [`MetricsRegistry`](dcd_obs::MetricsRegistry). Handles are
/// built once at [`ShipmentLedger::observed`] time (registration locks
/// the registry; the hot `ship`/`control` paths only bump the handles),
/// indexed `from · n + to`.
#[derive(Debug)]
struct LedgerMirror {
    tuples: Vec<dcd_obs::Counter>,
    cells: Vec<dcd_obs::Counter>,
    bytes: Vec<dcd_obs::Counter>,
    control_msgs: Vec<dcd_obs::Counter>,
    control_bytes: Vec<dcd_obs::Counter>,
}

impl LedgerMirror {
    fn register(n: usize, registry: &dcd_obs::MetricsRegistry) -> Self {
        let family = |name: &str, help: &str| -> Vec<dcd_obs::Counter> {
            let mut v = Vec::with_capacity(n * n);
            for from in 0..n {
                for to in 0..n {
                    let (from, to) = (from.to_string(), to.to_string());
                    v.push(registry.counter(name, help, &[("from", &from), ("to", &to)]));
                }
            }
            v
        };
        LedgerMirror {
            tuples: family("dcd_shipped_tuples_total", "Tuples shipped between sites"),
            cells: family("dcd_shipped_cells_total", "Attribute cells shipped between sites"),
            bytes: family("dcd_shipped_bytes_total", "Data bytes on the simulated wire"),
            control_msgs: family(
                "dcd_control_messages_total",
                "Control messages exchanged (statistics, coordination)",
            ),
            control_bytes: family("dcd_control_bytes_total", "Control bytes exchanged"),
        }
    }
}

impl ShipmentLedger {
    /// An empty ledger over `n` sites that mirrors every transfer into
    /// per-site-pair counters of `registry`
    /// (`dcd_shipped_{tuples,cells,bytes}_total{from,to}` and
    /// `dcd_control_{messages,bytes}_total{from,to}`). The mirror rides
    /// inside the two mutation authorities (`charge_codes`/`control`),
    /// so registry totals always equal the ledger totals — the
    /// cross-layer consistency `tests/fuzz_smoke.rs` asserts.
    pub fn observed(n: usize, registry: &dcd_obs::MetricsRegistry) -> Self {
        ShipmentLedger {
            n_sites: n,
            tuples: 0,
            cells: 0,
            bytes: 0,
            control_msgs: 0,
            control_bytes: 0,
            mirror: LedgerMirror::register(n, registry),
        }
    }

    /// Number of sites this ledger covers.
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Records a data shipment of `tuples` tuples (`cells` projected
    /// attribute cells, `bytes` on the wire) from `from` to `to`.
    /// Private: the only wire is the code wire, so the only way in is
    /// [`Self::charge_codes`], which owns the byte math.
    fn ship(&mut self, to: SiteId, from: SiteId, tuples: usize, cells: usize, bytes: usize) {
        debug_assert!(to.index() < self.n_sites && from.index() < self.n_sites);
        debug_assert_ne!(to, from, "shipping to self is not a transfer");
        self.tuples += tuples;
        self.cells += cells;
        self.bytes += bytes;
        let pair = from.index() * self.n_sites + to.index();
        self.mirror.tuples[pair].inc(tuples as u64);
        self.mirror.cells[pair].inc(cells as u64);
        self.mirror.bytes[pair].inc(bytes as u64);
    }

    /// Records a *code-shipped* transfer of `tuples` rows totalling
    /// `cells` `u32` cells from `from` to `to`, charged byte-accurately
    /// at [`CODE_BYTES`] per cell. This is the single place wire bytes
    /// are computed — callers pass cell counts, never byte math — and,
    /// `ship` being private, the only way to record a data shipment.
    /// Engines reach it through `dcd_core::ctx::Transfer::send`, which
    /// pairs the charge with the clocks' transfer matrix.
    pub fn charge_codes(&mut self, to: SiteId, from: SiteId, tuples: usize, cells: usize) {
        self.ship(to, from, tuples, cells, cells * CODE_BYTES);
    }

    /// Records one control message of `bytes` bytes from `from` to `to`
    /// (statistics exchange, coordination).
    pub fn control(&mut self, to: SiteId, from: SiteId, bytes: usize) {
        debug_assert!(to.index() < self.n_sites && from.index() < self.n_sites);
        self.control_msgs += 1;
        self.control_bytes += bytes;
        let pair = from.index() * self.n_sites + to.index();
        self.mirror.control_msgs[pair].inc(1);
        self.mirror.control_bytes[pair].inc(bytes as u64);
    }

    /// Total tuples shipped — the paper's `|M|`.
    pub fn total_tuples(&self) -> usize {
        self.tuples
    }

    /// Total attribute cells shipped (tuples × projected width).
    pub fn total_cells(&self) -> usize {
        self.cells
    }

    /// Approximate data bytes on the wire.
    pub fn total_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of control messages exchanged.
    pub fn control_messages(&self) -> usize {
        self.control_msgs
    }

    /// Control bytes exchanged.
    pub fn control_bytes(&self) -> usize {
        self.control_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_obs::{MetricsRegistry, SampleValue};

    /// The `{from, to}` series of `name`, 0 when it never moved.
    fn pair(registry: &MetricsRegistry, name: &str, from: usize, to: usize) -> u64 {
        match registry.snapshot().value(name, &format!("{{from=\"{from}\",to=\"{to}\"}}")) {
            Some(&SampleValue::Counter(v)) => v,
            other => panic!("{name} {from}->{to}: {other:?}"),
        }
    }

    #[test]
    fn totals_are_additive_over_ship_calls() {
        let registry = MetricsRegistry::new();
        let mut ledger = ShipmentLedger::observed(3, &registry);
        let shipments = [
            (1usize, 0usize, 4usize, 12usize, 100usize),
            (2, 0, 3, 9, 75),
            (0, 1, 5, 15, 120),
            (2, 1, 1, 3, 20),
        ];
        let (mut t, mut c, mut b) = (0, 0, 0);
        for &(to, from, tuples, cells, bytes) in &shipments {
            ledger.ship(SiteId(to as u32), SiteId(from as u32), tuples, cells, bytes);
            t += tuples;
            c += cells;
            b += bytes;
            assert_eq!(ledger.total_tuples(), t);
            assert_eq!(ledger.total_cells(), c);
            assert_eq!(ledger.total_bytes(), b);
        }
        // The per-pair series decompose the same totals, by sender and
        // by receiver.
        let tuples = |from, to| pair(&registry, "dcd_shipped_tuples_total", from, to);
        assert_eq!(registry.counter_total("dcd_shipped_tuples_total"), t as u64);
        assert_eq!((0..3).map(|to| tuples(0, to)).sum::<u64>(), 7, "sent by site 0");
        assert_eq!((0..3).map(|from| tuples(from, 2)).sum::<u64>(), 4, "received by site 2");
    }

    #[test]
    fn charge_codes_is_byte_accurate_at_four_bytes_per_cell() {
        let registry = MetricsRegistry::new();
        let mut ledger = ShipmentLedger::observed(2, &registry);
        ledger.charge_codes(SiteId(1), SiteId(0), 3, 36);
        assert_eq!(ledger.total_tuples(), 3);
        assert_eq!(ledger.total_cells(), 36);
        assert_eq!(ledger.total_bytes(), 36 * CODE_BYTES);
        assert_eq!(pair(&registry, "dcd_shipped_tuples_total", 0, 1), 3);
        assert_eq!(pair(&registry, "dcd_shipped_tuples_total", 1, 0), 0);
    }

    #[test]
    fn control_messages_count_messages_not_bytes() {
        let mut ledger = ShipmentLedger::observed(2, &MetricsRegistry::new());
        ledger.control(SiteId(0), SiteId(1), 16);
        ledger.control(SiteId(1), SiteId(0), 24);
        assert_eq!(ledger.control_messages(), 2);
        assert_eq!(ledger.control_bytes(), 40);
        assert_eq!(ledger.total_tuples(), 0, "control traffic is not data shipment");
    }

    #[test]
    fn the_ledger_mirrors_every_transfer_into_the_registry() {
        let registry = MetricsRegistry::new();
        let mut ledger = ShipmentLedger::observed(3, &registry);
        ledger.ship(SiteId(1), SiteId(0), 4, 12, 100);
        ledger.charge_codes(SiteId(2), SiteId(1), 3, 9);
        ledger.control(SiteId(0), SiteId(2), 16);
        assert_eq!(registry.counter_total("dcd_shipped_tuples_total"), 7);
        assert_eq!(registry.counter_total("dcd_shipped_cells_total"), 21);
        assert_eq!(registry.counter_total("dcd_shipped_bytes_total"), ledger.total_bytes() as u64);
        assert_eq!(registry.counter_total("dcd_control_messages_total"), 1);
        assert_eq!(registry.counter_total("dcd_control_bytes_total"), 16);
        assert_eq!(pair(&registry, "dcd_shipped_tuples_total", 0, 1), 4);
        assert_eq!(pair(&registry, "dcd_shipped_tuples_total", 1, 2), 3);
    }
}
