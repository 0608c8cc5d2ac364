//! An open-addressing hash table that stores only where an entry lives.
//!
//! [`ViolationIndex`](crate::ViolationIndex) finds a member by its tuple
//! id and a key by its LHS codes, and it stores both already: the tids in
//! its member lists, the codes in its `slot_keys`. A [`PositionTable`]
//! keeps only the position of each — a `(slot, at)` pair, or a slot — and
//! its caller compares a probe and re-hashes an entry through that
//! position, so neither a tid nor a key is held twice.
//!
//! Linear probing over a power-of-two bucket array at load ≤ 7/8. A
//! hash's home bucket is its upper bits: callers hash with [`spread`],
//! whose last multiply moves the entropy of the Fx hash up there (the
//! dictionary index in `dcd_relation::store` multiplies for the same
//! reason). A removal shifts the later entries of its probe run back, so
//! no tombstone is ever left and a run is no longer than its entries.

use dcd_relation::FxBuildHasher;
use std::hash::{BuildHasher, Hash};

/// What a bucket holds: a position, or [`Position::EMPTY`], which marks a
/// free bucket and is never stored as an entry.
pub(crate) trait Position: Copy + Eq {
    /// The free bucket's mark.
    const EMPTY: Self;
}

impl Position for u32 {
    const EMPTY: u32 = u32::MAX;
}

impl Position for (u32, u32) {
    const EMPTY: (u32, u32) = (u32::MAX, u32::MAX);
}

/// The hash a [`PositionTable`] buckets on: the Fx hash of `v`, folded
/// and multiplied once more (by 2⁶⁴/φ), so that its upper bits, which
/// pick the bucket, depend on every bit of the Fx hash.
#[inline]
pub(crate) fn spread<T: Hash + ?Sized>(v: &T) -> u64 {
    let h = FxBuildHasher::default().hash_one(v);
    (h ^ (h >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A set of positions, each found by the hash of what it points at.
///
/// The table never reads what an entry points at: a lookup takes the
/// probe's hash and a predicate that compares an entry through its
/// position, and growth or removal takes `hash_of`, which hashes an
/// entry through its position the way the lookup hashed its probe.
#[derive(Debug)]
pub(crate) struct PositionTable<E> {
    /// Empty, or a power of two of at least 8.
    buckets: Vec<E>,
    len: usize,
    /// 64 − log₂ of the bucket count: `hash >> shift` is the home bucket.
    shift: u32,
}

impl<E: Position> PositionTable<E> {
    /// An empty table; it allocates at its first insert.
    pub(crate) fn new() -> Self {
        PositionTable { buckets: Vec::new(), len: 0, shift: u64::BITS }
    }

    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Buckets allocated: 0, or a power of two of at least 8.
    #[cfg(test)]
    pub(crate) fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Bytes the table holds on the heap, from its capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.buckets.capacity() * size_of::<E>()
    }

    /// The bucket of the entry `is` accepts, probing from `hash`'s home.
    fn find(&self, hash: u64, mut is: impl FnMut(E) -> bool) -> Option<usize> {
        let mask = self.buckets.len().checked_sub(1)?;
        let mut at = (hash >> self.shift) as usize;
        loop {
            let e = self.buckets[at];
            if e == E::EMPTY {
                return None;
            }
            if is(e) {
                return Some(at);
            }
            at = (at + 1) & mask;
        }
    }

    /// The entry `is` accepts among those hashed to `hash`.
    pub(crate) fn get(&self, hash: u64, is: impl FnMut(E) -> bool) -> Option<E> {
        self.find(hash, is).map(|at| self.buckets[at])
    }

    /// The entry `is` accepts among those hashed to `hash`, to re-point.
    /// A new position must hash as the old one did.
    pub(crate) fn get_mut(&mut self, hash: u64, is: impl FnMut(E) -> bool) -> Option<&mut E> {
        self.find(hash, is).map(|at| &mut self.buckets[at])
    }

    /// Adds `e`, hashed to `hash`, growing the table first if it is full.
    /// The caller makes sure no entry points where `e` does.
    pub(crate) fn insert(&mut self, hash: u64, e: E, hash_of: impl Fn(E) -> u64) {
        debug_assert!(e != E::EMPTY, "the empty mark is no entry");
        self.reserve(1, hash_of);
        self.place(hash, e);
        self.len += 1;
    }

    /// Removes and returns the entry `is` accepts among those hashed to
    /// `hash`. Each later entry of the probe run moves back into the hole
    /// if the hole lies between its home bucket and where it sits.
    pub(crate) fn remove(
        &mut self,
        hash: u64,
        is: impl FnMut(E) -> bool,
        hash_of: impl Fn(E) -> u64,
    ) -> Option<E> {
        let mut hole = self.find(hash, is)?;
        let removed = self.buckets[hole];
        let mask = self.buckets.len() - 1;
        let mut at = (hole + 1) & mask;
        loop {
            let e = self.buckets[at];
            if e == E::EMPTY {
                break;
            }
            let home = (hash_of(e) >> self.shift) as usize;
            // Cyclic distances back from `at`: the hole is on the way from
            // home to `at` iff it is no farther back than home.
            if at.wrapping_sub(hole) & mask <= at.wrapping_sub(home) & mask {
                self.buckets[hole] = e;
                hole = at;
            }
            at = (at + 1) & mask;
        }
        self.buckets[hole] = E::EMPTY;
        self.len -= 1;
        Some(removed)
    }

    /// Makes room for `additional` more entries at load ≤ 7/8. Growth
    /// re-places every entry at `hash_of` it, into the bucket count
    /// growth from empty would reach for `len + additional`: the smallest
    /// power of two at least `max(8, ⌈8 · n / 7⌉)`.
    pub(crate) fn reserve(&mut self, additional: usize, hash_of: impl Fn(E) -> u64) {
        let need = self.len + additional;
        if need * 8 <= self.buckets.len() * 7 {
            return;
        }
        self.rebuild(Self::buckets_for(need), hash_of);
    }

    /// Rebuilds the table at the bucket count growth from empty reaches
    /// for its length, if it holds more than twice that — a
    /// [`reserve`](Self::reserve) for rows that mostly did not arrive.
    /// Between twice and the growth point nothing moves, so a table that
    /// reserves and fills a batch at a time does not swing back and
    /// forth.
    pub(crate) fn shrink(&mut self, hash_of: impl Fn(E) -> u64) {
        let fit = Self::buckets_for(self.len);
        if self.buckets.len() > 2 * fit {
            self.rebuild(fit, hash_of);
        }
    }

    fn buckets_for(entries: usize) -> usize {
        (entries * 8).div_ceil(7).max(8).next_power_of_two()
    }

    fn rebuild(&mut self, buckets: usize, hash_of: impl Fn(E) -> u64) {
        let old = std::mem::replace(&mut self.buckets, vec![E::EMPTY; buckets]);
        self.shift = u64::BITS - buckets.trailing_zeros();
        for e in old.into_iter().filter(|&e| e != E::EMPTY) {
            self.place(hash_of(e), e);
        }
    }

    /// Puts `e` at the first free bucket of its probe. The table has one.
    fn place(&mut self, hash: u64, e: E) {
        let mask = self.buckets.len() - 1;
        let mut at = (hash >> self.shift) as usize;
        while self.buckets[at] != E::EMPTY {
            at = (at + 1) & mask;
        }
        self.buckets[at] = e;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashMap;

    /// SplitMix64: a random stream derives from its seed.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// A table of ids into `values`, where `values[id]` is the key an
    /// entry is found by — as the index finds a member by its tid — held
    /// against a `HashMap` from key to id.
    struct Model<H> {
        table: PositionTable<u32>,
        values: Vec<u64>,
        map: HashMap<u64, u32>,
        hash: H,
    }

    impl<H: Fn(u64) -> u64> Model<H> {
        fn new(hash: H) -> Self {
            Model { table: PositionTable::new(), values: Vec::new(), map: HashMap::new(), hash }
        }

        fn get(&self, key: u64) -> Option<u32> {
            let values = &self.values;
            self.table.get((self.hash)(key), |id| values[id as usize] == key)
        }

        fn insert(&mut self, key: u64) {
            let id = self.values.len() as u32;
            self.values.push(key);
            let (values, hash) = (&self.values, &self.hash);
            self.table.insert(hash(key), id, |id| hash(values[id as usize]));
            self.map.insert(key, id);
        }

        fn remove(&mut self, key: u64) {
            let (values, hash) = (&self.values, &self.hash);
            let removed = self.table.remove(
                hash(key),
                |id| values[id as usize] == key,
                |id| hash(values[id as usize]),
            );
            assert_eq!(removed, self.map.remove(&key), "remove {key}");
        }

        /// Every key of the model is found at its id, no other key of the
        /// stream is found, and the load is at most 7/8.
        fn check(&self, keys: u64, label: &str) {
            assert_eq!(self.table.len(), self.map.len(), "{label}");
            for key in 0..keys {
                assert_eq!(self.get(key), self.map.get(&key).copied(), "key {key} {label}");
            }
            assert!(self.table.len() * 8 <= self.table.bucket_count() * 7, "{label}");
        }
    }

    /// Random inserts and removes over `keys` keys, `steps` times,
    /// checking against the model after each.
    fn stream(hash: impl Fn(u64) -> u64, keys: u64, steps: usize, seed: u64) -> Vec<usize> {
        let mut model = Model::new(hash);
        let mut rng = Rng(seed);
        let mut sizes = Vec::new();
        for step in 0..steps {
            // Fill past growth points, then drain, then fill again.
            let insert_odds = if (step / 300) % 2 == 0 { 4 } else { 1 };
            let key = rng.below(keys);
            if model.map.contains_key(&key) {
                if rng.below(5) >= insert_odds {
                    model.remove(key);
                }
            } else if rng.below(5) < insert_odds {
                model.insert(key);
            }
            model.check(keys, &format!("seed {seed}, step {step}"));
            sizes.push(model.table.bucket_count());
        }
        sizes
    }

    #[test]
    fn random_streams_match_a_hash_map_across_growth() {
        for seed in 0..4 {
            let sizes = stream(|k| spread(&k), 200, 1200, seed);
            // The stream crosses the 7/8 growth point of 8 up to 128
            // buckets, and its removes leave the grown table in place.
            for grown in [16, 32, 64, 128, 256] {
                assert!(sizes.contains(&grown), "seed {seed}: never {grown} buckets");
            }
            assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "seed {seed}: removes never shrink");
        }
    }

    #[test]
    fn removal_shifts_runs_back_across_the_wrap_around() {
        // Four homes in the last eighth of the table at any bucket count
        // (7, 6, 5, 4 of 8; 63, 55, 47, 39 of 64): runs start near the end
        // and wrap to the front, so removals shift entries from the front
        // back across the end.
        let low = |k: u64| u64::MAX - ((k % 4) << 61);
        for seed in 0..4 {
            stream(low, 40, 800, seed);
        }
        let mut model = Model::new(low);
        for key in 0..6 {
            model.insert(key);
        }
        assert_eq!(model.table.bucket_count(), 8);
        // Keys 0–3 sit at their homes 7, 6, 5, 4; key 4 (home 7) wrapped
        // to 0, key 5 (home 6) to 1. Removing key 0 moves both back.
        assert_eq!(model.table.buckets, [4, 5, u32::EMPTY, u32::EMPTY, 3, 2, 1, 0]);
        model.remove(0);
        model.check(6, "after removing the head of the wrapped run");
        assert_eq!(model.table.buckets, [5, u32::EMPTY, u32::EMPTY, u32::EMPTY, 3, 2, 1, 4]);
        // Key 4 at its home stays; key 5 moves back across the end.
        model.remove(1);
        model.check(6, "after removing a key homed before the wrap");
        assert_eq!(
            model.table.buckets,
            [u32::EMPTY, u32::EMPTY, u32::EMPTY, u32::EMPTY, 3, 2, 5, 4]
        );
    }

    #[test]
    fn reserve_sizes_like_growth_and_shrink_undoes_an_unused_reserve() {
        let hash_of = |id: u32| spread(&id);
        for (n, buckets) in [(1, 8), (7, 8), (8, 16), (14, 16), (15, 32), (135_762, 262_144)] {
            let mut table: PositionTable<u32> = PositionTable::new();
            table.reserve(n, hash_of);
            assert_eq!(table.bucket_count(), buckets, "reserve({n})");
        }
        let mut table: PositionTable<u32> = PositionTable::new();
        table.reserve(10_000, hash_of);
        for id in 0..200 {
            table.insert(spread(&id), id, hash_of);
        }
        assert_eq!(table.bucket_count(), 16_384, "inserts within a reserve do not grow it");
        table.shrink(hash_of);
        assert_eq!(table.bucket_count(), 256, "the growth-from-empty count for 200");
        for id in 100..200 {
            assert_eq!(table.remove(spread(&id), |e| e == id, hash_of), Some(id));
        }
        table.shrink(hash_of);
        assert_eq!(table.bucket_count(), 256, "within twice the fit for 100: nothing moves");
        for id in 0..200 {
            assert_eq!(table.get(spread(&id), |e| e == id), (id < 100).then_some(id));
        }
        assert_eq!(table.heap_bytes(), 256 * size_of::<u32>());
    }
}
