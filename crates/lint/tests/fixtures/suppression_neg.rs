use std::sync::atomic::{AtomicU64, Ordering};

pub fn tally(rows: &AtomicU64, n: u64) {
    // dcd-lint: allow(relaxed-atomic) — a statistic that publishes no
    // other data; it is read once, after the pool has joined.
    rows.fetch_add(n, Ordering::Relaxed);
}
