use std::sync::atomic::{AtomicU64, Ordering};

pub fn tally(rows: &AtomicU64, n: u64) {
    // dcd-lint: allow(relaxed-atomic)
    rows.fetch_add(n, Ordering::Relaxed);
}
