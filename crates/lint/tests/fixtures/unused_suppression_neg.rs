//! Negative fixture: a live, reasoned suppression excusing a real
//! finding on the next line. Tokenized, never compiled.

pub fn tally(rows: &std::sync::atomic::AtomicU64) {
    // dcd-lint: allow(relaxed-atomic) — a statistic, read once after the pool has joined
    rows.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}
