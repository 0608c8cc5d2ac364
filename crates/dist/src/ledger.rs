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
/// statistics exchange of §IV-B), per ordered site pair.
///
/// Plain tallies behind `&mut self`: the run's coordinating thread is
/// the only one that charges the ledger. The totals are the pairs'
/// sums, and [`Self::record`] writes the pairs into a metrics registry.
#[derive(Debug)]
pub struct ShipmentLedger {
    n_sites: usize,
    /// Indexed `from · n + to`; one tally per [`FAMILIES`] entry.
    pairs: Vec<[u64; 5]>,
}

/// The metric family of each per-pair tally: name and help.
const FAMILIES: [(&str, &str); 5] = [
    ("dcd_shipped_tuples_total", "Tuples shipped between sites"),
    ("dcd_shipped_cells_total", "Attribute cells shipped between sites"),
    ("dcd_shipped_bytes_total", "Data bytes on the simulated wire"),
    ("dcd_control_messages_total", "Control messages exchanged (statistics, coordination)"),
    ("dcd_control_bytes_total", "Control bytes exchanged"),
];
const TUPLES: usize = 0;
const CELLS: usize = 1;
const BYTES: usize = 2;
const CONTROL_MSGS: usize = 3;
const CONTROL_BYTES: usize = 4;

impl ShipmentLedger {
    /// An empty ledger over `n` sites.
    pub fn new(n: usize) -> Self {
        ShipmentLedger { n_sites: n, pairs: vec![[0; 5]; n * n] }
    }

    /// Number of sites this ledger covers.
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    fn pair(&mut self, to: SiteId, from: SiteId) -> &mut [u64; 5] {
        debug_assert!(to.index() < self.n_sites && from.index() < self.n_sites);
        &mut self.pairs[from.index() * self.n_sites + to.index()]
    }

    /// Records a data shipment of `tuples` tuples (`cells` projected
    /// attribute cells, `bytes` on the wire) from `from` to `to`.
    /// Private: the only wire is the code wire, so the only way in is
    /// [`Self::charge_codes`], which owns the byte math.
    fn ship(&mut self, to: SiteId, from: SiteId, tuples: usize, cells: usize, bytes: usize) {
        debug_assert_ne!(to, from, "shipping to self is not a transfer");
        let pair = self.pair(to, from);
        pair[TUPLES] += tuples as u64;
        pair[CELLS] += cells as u64;
        pair[BYTES] += bytes as u64;
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
        let pair = self.pair(to, from);
        pair[CONTROL_MSGS] += 1;
        pair[CONTROL_BYTES] += bytes as u64;
    }

    fn total(&self, tally: usize) -> usize {
        self.pairs.iter().map(|pair| pair[tally]).sum::<u64>() as usize
    }

    /// Total tuples shipped — the paper's `|M|`.
    pub fn total_tuples(&self) -> usize {
        self.total(TUPLES)
    }

    /// Total attribute cells shipped (tuples × projected width).
    pub fn total_cells(&self) -> usize {
        self.total(CELLS)
    }

    /// Approximate data bytes on the wire.
    pub fn total_bytes(&self) -> usize {
        self.total(BYTES)
    }

    /// Number of control messages exchanged.
    pub fn control_messages(&self) -> usize {
        self.total(CONTROL_MSGS)
    }

    /// Control bytes exchanged.
    pub fn control_bytes(&self) -> usize {
        self.total(CONTROL_BYTES)
    }

    /// Adds every site pair's tallies to `registry`, zeros included, as
    /// `dcd_shipped_{tuples,cells,bytes}_total{from,to}` and
    /// `dcd_control_{messages,bytes}_total{from,to}`: each family's
    /// series sum to the matching total — the cross-layer consistency
    /// `tests/fuzz_smoke.rs` asserts.
    pub fn record(&self, registry: &mut dcd_obs::MetricsRegistry) {
        for (i, pair) in self.pairs.iter().enumerate() {
            let (from, to) = ((i / self.n_sites).to_string(), (i % self.n_sites).to_string());
            let labels = [("from", from.as_str()), ("to", to.as_str())];
            for ((name, help), &n) in FAMILIES.iter().zip(pair) {
                registry.add(name, help, &labels, n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_obs::{MetricsRegistry, SampleValue};

    /// The ledger's per-pair tallies, recorded into a fresh registry.
    fn recorded(ledger: &ShipmentLedger) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        ledger.record(&mut registry);
        registry
    }

    /// The `{from, to}` series of `name`, 0 when it never moved.
    fn pair(registry: &MetricsRegistry, name: &str, from: usize, to: usize) -> u64 {
        match registry.value(name, &format!("{{from=\"{from}\",to=\"{to}\"}}")) {
            Some(&SampleValue::Counter(v)) => v,
            other => panic!("{name} {from}->{to}: {other:?}"),
        }
    }

    #[test]
    fn totals_are_additive_over_ship_calls() {
        let mut ledger = ShipmentLedger::new(3);
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
        let registry = recorded(&ledger);
        let tuples = |from, to| pair(&registry, "dcd_shipped_tuples_total", from, to);
        assert_eq!(registry.counter_total("dcd_shipped_tuples_total"), t as u64);
        assert_eq!((0..3).map(|to| tuples(0, to)).sum::<u64>(), 7, "sent by site 0");
        assert_eq!((0..3).map(|from| tuples(from, 2)).sum::<u64>(), 4, "received by site 2");
    }

    #[test]
    fn charge_codes_is_byte_accurate_at_four_bytes_per_cell() {
        let mut ledger = ShipmentLedger::new(2);
        ledger.charge_codes(SiteId(1), SiteId(0), 3, 36);
        assert_eq!(ledger.total_tuples(), 3);
        assert_eq!(ledger.total_cells(), 36);
        assert_eq!(ledger.total_bytes(), 36 * CODE_BYTES);
        let registry = recorded(&ledger);
        assert_eq!(pair(&registry, "dcd_shipped_tuples_total", 0, 1), 3);
        assert_eq!(pair(&registry, "dcd_shipped_tuples_total", 1, 0), 0);
    }

    #[test]
    fn control_messages_count_messages_not_bytes() {
        let mut ledger = ShipmentLedger::new(2);
        ledger.control(SiteId(0), SiteId(1), 16);
        ledger.control(SiteId(1), SiteId(0), 24);
        assert_eq!(ledger.control_messages(), 2);
        assert_eq!(ledger.control_bytes(), 40);
        assert_eq!(ledger.total_tuples(), 0, "control traffic is not data shipment");
    }

    #[test]
    fn the_ledger_records_every_transfer_into_a_registry() {
        let mut ledger = ShipmentLedger::new(3);
        ledger.ship(SiteId(1), SiteId(0), 4, 12, 100);
        ledger.charge_codes(SiteId(2), SiteId(1), 3, 9);
        ledger.control(SiteId(0), SiteId(2), 16);
        let registry = recorded(&ledger);
        assert_eq!(registry.counter_total("dcd_shipped_tuples_total"), 7);
        assert_eq!(registry.counter_total("dcd_shipped_cells_total"), 21);
        assert_eq!(registry.counter_total("dcd_shipped_bytes_total"), ledger.total_bytes() as u64);
        assert_eq!(registry.counter_total("dcd_control_messages_total"), 1);
        assert_eq!(registry.counter_total("dcd_control_bytes_total"), 16);
        assert_eq!(pair(&registry, "dcd_shipped_tuples_total", 0, 1), 4);
        assert_eq!(pair(&registry, "dcd_shipped_tuples_total", 1, 2), 3);
        // Every pair is a series, the ones that never moved included.
        assert_eq!(pair(&registry, "dcd_control_bytes_total", 1, 1), 0);
        assert_eq!(registry.expose().lines().filter(|l| !l.starts_with('#')).count(), 5 * 9);
    }
}
