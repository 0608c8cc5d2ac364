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

/// Bytes per count in a control message: a statistics vector or a
/// delta manifest carries one `u64` per CFD.
const COUNT_BYTES: usize = 8;

/// Records every transfer between sites during a detection run: data
/// shipments (rows of the code wire) and control messages (the
/// statistics exchange of §IV-B, delta manifests), per ordered site
/// pair. It alone prices the wire: callers say how many rows of which
/// attribute width, or how many counts, and the ledger turns that into
/// cells and bytes.
///
/// Plain tallies behind `&mut self`: the run's coordinating thread is
/// the only one that charges the ledger. The totals are the pairs'
/// sums, and [`Self::record`] writes the pairs into a metrics registry.
#[derive(Debug)]
pub struct ShipmentLedger {
    n_sites: usize,
    /// Indexed `from · n + to`: rows, cells, messages, counts. Both byte
    /// tallies are derived from cells and counts.
    pairs: Vec<[u64; 4]>,
}

/// The metric family of each per-pair series, name and help, in the
/// order [`ShipmentLedger::record`] derives them.
const FAMILIES: [(&str, &str); 5] = [
    ("dcd_shipped_tuples_total", "Tuples shipped between sites"),
    ("dcd_shipped_cells_total", "Attribute cells shipped between sites"),
    ("dcd_shipped_bytes_total", "Data bytes on the simulated wire"),
    ("dcd_control_messages_total", "Control messages exchanged (statistics, coordination)"),
    ("dcd_control_bytes_total", "Control bytes exchanged"),
];
const ROWS: usize = 0;
const CELLS: usize = 1;
const MESSAGES: usize = 2;
const COUNTS: usize = 3;

impl ShipmentLedger {
    /// An empty ledger over `n` sites.
    pub fn new(n: usize) -> Self {
        ShipmentLedger { n_sites: n, pairs: vec![[0; 4]; n * n] }
    }

    /// Number of sites this ledger covers.
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    fn pair(&mut self, to: SiteId, from: SiteId) -> &mut [u64; 4] {
        debug_assert!(to.index() < self.n_sites && from.index() < self.n_sites);
        &mut self.pairs[from.index() * self.n_sites + to.index()]
    }

    /// Records `rows` code-wire rows of `width` attribute codes each
    /// from `from` to `to`. A `(tid, codes)` row is `width + TID_CELLS`
    /// `u32` cells at [`CODE_BYTES`] each — the one place the row format
    /// is priced, and the only way to record a data shipment. A delete
    /// row carries its id alone: width 0. Engines reach it through
    /// `dcd_core::ctx::Transfer::send`, which pairs the charge with the
    /// clocks' transfer matrix.
    pub fn ship_rows(&mut self, to: SiteId, from: SiteId, rows: usize, width: usize) {
        debug_assert_ne!(to, from, "shipping to self is not a transfer");
        let pair = self.pair(to, from);
        pair[ROWS] += rows as u64;
        pair[CELLS] += (rows * (width + TID_CELLS)) as u64;
    }

    /// Records one control message of `counts` 8-byte counts from
    /// `from` to `to` (statistics exchange, delta manifest).
    pub fn control(&mut self, to: SiteId, from: SiteId, counts: usize) {
        let pair = self.pair(to, from);
        pair[MESSAGES] += 1;
        pair[COUNTS] += counts as u64;
    }

    fn total(&self, tally: usize) -> usize {
        self.pairs.iter().map(|pair| pair[tally]).sum::<u64>() as usize
    }

    /// Total tuples shipped — the paper's `|M|`.
    pub fn total_tuples(&self) -> usize {
        self.total(ROWS)
    }

    /// Total code cells shipped, tuple ids included.
    pub fn total_cells(&self) -> usize {
        self.total(CELLS)
    }

    /// Data bytes on the wire.
    pub fn total_bytes(&self) -> usize {
        self.total_cells() * CODE_BYTES
    }

    /// Number of control messages exchanged.
    pub fn control_messages(&self) -> usize {
        self.total(MESSAGES)
    }

    /// Control bytes exchanged.
    pub fn control_bytes(&self) -> usize {
        self.total(COUNTS) * COUNT_BYTES
    }

    /// Adds every site pair's tallies to `registry`, zeros included, as
    /// `dcd_shipped_{tuples,cells,bytes}_total{from,to}` and
    /// `dcd_control_{messages,bytes}_total{from,to}`: each family's
    /// series sum to the matching total — the cross-layer consistency
    /// `tests/fuzz_smoke.rs` asserts. Each pair's label set is rendered
    /// once and added to all five families.
    pub fn record(&self, registry: &mut dcd_obs::MetricsRegistry) {
        for (i, &[rows, cells, messages, counts]) in self.pairs.iter().enumerate() {
            let (from, to) = ((i / self.n_sites).to_string(), (i % self.n_sites).to_string());
            let labels = dcd_obs::LabelSet::new(&[("from", &from), ("to", &to)]);
            let series =
                [rows, cells, cells * CODE_BYTES as u64, messages, counts * COUNT_BYTES as u64];
            for ((name, help), n) in FAMILIES.iter().zip(series) {
                registry.add_with(name, help, &labels, n);
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
        // (to, from, rows, width)
        let shipments = [(1u32, 0u32, 4, 3), (2, 0, 3, 1), (0, 1, 5, 0), (2, 1, 1, 7)];
        let (mut t, mut c) = (0, 0);
        for &(to, from, rows, width) in &shipments {
            ledger.ship_rows(SiteId(to), SiteId(from), rows, width);
            t += rows;
            c += rows * (width + TID_CELLS);
            assert_eq!(ledger.total_tuples(), t);
            assert_eq!(ledger.total_cells(), c);
            assert_eq!(ledger.total_bytes(), c * CODE_BYTES);
        }
        // The per-pair series decompose the same totals, by sender and
        // by receiver.
        let registry = recorded(&ledger);
        let tuples = |from, to| pair(&registry, "dcd_shipped_tuples_total", from, to);
        assert_eq!(registry.counter_total("dcd_shipped_tuples_total"), t as u64);
        assert_eq!((0..3).map(|to| tuples(0, to)).sum::<u64>(), 7, "sent by site 0");
        assert_eq!((0..3).map(|from| tuples(from, 2)).sum::<u64>(), 4, "received by site 2");
    }

    /// A row is its attribute codes plus the id's two cells, at four
    /// bytes a cell; a delete row (width 0) is the id alone.
    #[test]
    fn ship_rows_prices_a_row_at_its_width_plus_the_id() {
        let mut ledger = ShipmentLedger::new(2);
        ledger.ship_rows(SiteId(1), SiteId(0), 3, 10);
        assert_eq!(ledger.total_tuples(), 3);
        assert_eq!(ledger.total_cells(), 3 * 12);
        assert_eq!(ledger.total_bytes(), 3 * 12 * 4);
        ledger.ship_rows(SiteId(1), SiteId(0), 2, 0);
        assert_eq!(ledger.total_tuples(), 5);
        assert_eq!(ledger.total_cells(), 3 * 12 + 2 * 2);
        assert_eq!(ledger.total_bytes(), (3 * 12 + 2 * 2) * 4);
        let registry = recorded(&ledger);
        assert_eq!(pair(&registry, "dcd_shipped_tuples_total", 0, 1), 5);
        assert_eq!(pair(&registry, "dcd_shipped_tuples_total", 1, 0), 0);
        assert_eq!(pair(&registry, "dcd_shipped_bytes_total", 0, 1), 160);
    }

    #[test]
    fn control_messages_count_messages_not_bytes() {
        let mut ledger = ShipmentLedger::new(2);
        ledger.control(SiteId(0), SiteId(1), 2);
        ledger.control(SiteId(1), SiteId(0), 3);
        assert_eq!(ledger.control_messages(), 2);
        assert_eq!(ledger.control_bytes(), 40);
        assert_eq!(ledger.total_tuples(), 0, "control traffic is not data shipment");
    }

    #[test]
    fn the_ledger_records_every_transfer_into_a_registry() {
        let mut ledger = ShipmentLedger::new(3);
        ledger.ship_rows(SiteId(1), SiteId(0), 4, 1);
        ledger.ship_rows(SiteId(2), SiteId(1), 3, 1);
        ledger.control(SiteId(0), SiteId(2), 2);
        let registry = recorded(&ledger);
        assert_eq!(registry.counter_total("dcd_shipped_tuples_total"), 7);
        assert_eq!(registry.counter_total("dcd_shipped_cells_total"), 21);
        assert_eq!(registry.counter_total("dcd_shipped_bytes_total"), 84);
        assert_eq!(registry.counter_total("dcd_control_messages_total"), 1);
        assert_eq!(registry.counter_total("dcd_control_bytes_total"), 16);
        assert_eq!(pair(&registry, "dcd_shipped_tuples_total", 0, 1), 4);
        assert_eq!(pair(&registry, "dcd_shipped_tuples_total", 1, 2), 3);
        assert_eq!(pair(&registry, "dcd_shipped_cells_total", 1, 2), 9);
        // Every pair is a series, the ones that never moved included.
        assert_eq!(pair(&registry, "dcd_control_bytes_total", 1, 1), 0);
        assert_eq!(registry.expose().lines().filter(|l| !l.starts_with('#')).count(), 5 * 9);
    }
}
