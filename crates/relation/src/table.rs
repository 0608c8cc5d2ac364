//! The workspace's one open-addressing hash table, [`PositionTable`]:
//! small fixed-size entries, each found by the hash of what it points at.
//!
//! Two owners use it, and neither stores what it looks up twice:
//!
//! * a [`Dictionary`](crate::Dictionary)'s value → code index. An Int
//!   index holds a code per value, compares a probe through the code's
//!   value in the dictionary's table, and re-hashes each code from its
//!   value on growth. A Str index holds a `(hash, code)` entry per value
//!   and compares a probe through the stored hash first, then through the
//!   string's bytes; growth re-places entries from their stored hashes
//!   and reads no string;
//! * `dcd_incr`'s violation index holds a `(slot, at)` per indexed row,
//!   compared through the member's tuple id, and a slot per key,
//!   compared through the key's codes.
//!
//! Linear probing over a power-of-two bucket array at load ≤ 7/8. A
//! hash's home bucket is its upper bits; callers hash with [`spread`],
//! whose last multiply moves the entropy of the Fx hash up there. A
//! removal shifts the later entries of its probe run back, so no
//! tombstone is ever left and a run is no longer than its entries.
//!
//! An insert probes once: [`PositionTable::find`] returns either the
//! entry the caller's predicate accepts or the free bucket where the
//! probe stopped, and [`PositionTable::fill`] puts the new entry there —
//! unless the table has to grow first, when it is placed afresh. The
//! units `probes_match_linear_probing_theory` and
//! `code_only_probes_match_linear_probing_theory` pin the probe lengths.

use crate::fxhash::FxBuildHasher;
use std::hash::{BuildHasher, Hash};

/// What a bucket holds: a position, or [`Position::EMPTY`], which marks a
/// free bucket and is never stored as an entry.
pub trait Position: Copy + Eq {
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
pub fn spread<T: Hash + ?Sized>(v: &T) -> u64 {
    let h = FxBuildHasher::default().hash_one(v);
    (h ^ (h >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The free bucket a [`PositionTable::find`] stopped at, to be
/// [filled](PositionTable::fill) with the entry it did not find. It is
/// only good for the table it came from, before any other change to it.
#[derive(Debug, PartialEq, Eq)]
pub struct Vacant(usize);

/// A set of positions, each found by the hash of what it points at.
///
/// The table never reads what an entry points at: a lookup takes the
/// probe's hash and a predicate that compares an entry through its
/// position, and growth or removal takes `hash_of`, which hashes an
/// entry through its position the way the lookup hashed its probe.
#[derive(Debug, Clone)]
pub struct PositionTable<E> {
    /// Empty, or a power of two of at least 8. A boxed slice: with `len`
    /// the table is three words, the size of one `Vec`.
    buckets: Box<[E]>,
    len: usize,
}

impl<E: Position> Default for PositionTable<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Position> PositionTable<E> {
    /// An empty table; it allocates at its first insert.
    pub fn new() -> Self {
        PositionTable { buckets: Box::default(), len: 0 }
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buckets allocated: 0, or a power of two of at least 8.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Bytes the table holds on the heap: its buckets.
    pub fn heap_bytes(&self) -> usize {
        size_of_val(&*self.buckets)
    }

    /// 64 − log₂ of the bucket count: `hash >> shift` is the home bucket.
    #[inline]
    fn shift(&self) -> u32 {
        u64::BITS - self.buckets.len().trailing_zeros()
    }

    /// Probes from `hash`'s home: the bucket of the entry `is` accepts,
    /// or the free bucket that ended the probe (bucket 0 of a table with
    /// none).
    fn probe(&self, hash: u64, mut is: impl FnMut(E) -> bool) -> Result<usize, Vacant> {
        let Some(mask) = self.buckets.len().checked_sub(1) else { return Err(Vacant(0)) };
        let mut at = (hash >> self.shift()) as usize;
        loop {
            let e = self.buckets[at];
            if e == E::EMPTY {
                return Err(Vacant(at));
            }
            if is(e) {
                return Ok(at);
            }
            at = (at + 1) & mask;
        }
    }

    /// The entry `is` accepts among those hashed to `hash`, or the free
    /// bucket where an entry hashed to `hash` goes: the one probe of a
    /// find-or-insert.
    #[inline]
    pub fn find(&self, hash: u64, is: impl FnMut(E) -> bool) -> Result<E, Vacant> {
        self.probe(hash, is).map(|at| self.buckets[at])
    }

    /// The entry `is` accepts among those hashed to `hash`.
    pub fn get(&self, hash: u64, is: impl FnMut(E) -> bool) -> Option<E> {
        self.find(hash, is).ok()
    }

    /// The entry `is` accepts among those hashed to `hash`, to re-point.
    /// A new position must hash as the old one did.
    pub fn get_mut(&mut self, hash: u64, is: impl FnMut(E) -> bool) -> Option<&mut E> {
        self.probe(hash, is).ok().map(|at| &mut self.buckets[at])
    }

    /// Adds `e`, hashed to `hash`, at the bucket a [`find`](Self::find)
    /// for it stopped at, or, if the table has to grow first, as
    /// [`insert`](Self::insert) does.
    pub fn fill(&mut self, free: Vacant, hash: u64, e: E, hash_of: impl Fn(E) -> u64) {
        if !self.fits(self.len + 1) {
            return self.insert(hash, e, hash_of);
        }
        debug_assert!(e != E::EMPTY, "the empty mark is no entry");
        debug_assert!(self.buckets[free.0] == E::EMPTY, "a vacancy from this table, as it is");
        self.buckets[free.0] = e;
        self.len += 1;
    }

    /// Adds `e`, hashed to `hash`, growing the table first if it is full.
    /// The caller makes sure no entry points where `e` does.
    pub fn insert(&mut self, hash: u64, e: E, hash_of: impl Fn(E) -> u64) {
        debug_assert!(e != E::EMPTY, "the empty mark is no entry");
        self.reserve(1, hash_of);
        self.place(hash, e);
        self.len += 1;
    }

    /// Removes and returns the entry `is` accepts among those hashed to
    /// `hash`. Each later entry of the probe run moves back into the hole
    /// if the hole lies between its home bucket and where it sits.
    pub fn remove(
        &mut self,
        hash: u64,
        is: impl FnMut(E) -> bool,
        hash_of: impl Fn(E) -> u64,
    ) -> Option<E> {
        let mut hole = self.probe(hash, is).ok()?;
        let removed = self.buckets[hole];
        let (mask, shift) = (self.buckets.len() - 1, self.shift());
        let mut at = (hole + 1) & mask;
        loop {
            let e = self.buckets[at];
            if e == E::EMPTY {
                break;
            }
            let home = (hash_of(e) >> shift) as usize;
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

    /// Whether `entries` entries fit at load ≤ 7/8.
    fn fits(&self, entries: usize) -> bool {
        entries * 8 <= self.buckets.len() * 7
    }

    /// Makes room for `additional` more entries at load ≤ 7/8. Growth
    /// re-places every entry at `hash_of` it, into the bucket count
    /// growth from empty would reach for `len + additional`: the smallest
    /// power of two at least `max(8, ⌈8 · n / 7⌉)`.
    pub fn reserve(&mut self, additional: usize, hash_of: impl Fn(E) -> u64) {
        let need = self.len + additional;
        if !self.fits(need) {
            self.rebuild(Self::buckets_for(need), hash_of);
        }
    }

    /// Rebuilds the table at the bucket count growth from empty reaches
    /// for its length, if it holds more than twice that — a
    /// [`reserve`](Self::reserve) for rows that mostly did not arrive.
    /// Between twice and the growth point nothing moves, so a table that
    /// reserves and fills a batch at a time does not swing back and
    /// forth.
    pub fn shrink(&mut self, hash_of: impl Fn(E) -> u64) {
        let fit = Self::buckets_for(self.len);
        if self.buckets.len() > 2 * fit {
            self.rebuild(fit, hash_of);
        }
    }

    fn buckets_for(entries: usize) -> usize {
        (entries * 8).div_ceil(7).max(8).next_power_of_two()
    }

    fn rebuild(&mut self, buckets: usize, hash_of: impl Fn(E) -> u64) {
        let old = std::mem::replace(&mut self.buckets, vec![E::EMPTY; buckets].into());
        for &e in old.iter().filter(|&&e| e != E::EMPTY) {
            self.place(hash_of(e), e);
        }
    }

    /// Puts `e` at the first free bucket of its probe. The table has one.
    fn place(&mut self, hash: u64, e: E) {
        // A probe that accepts nothing ends at a free bucket.
        let (Ok(at) | Err(Vacant(at))) = self.probe(hash, |_| false);
        self.buckets[at] = e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// SplitMix64: a random stream derives from its seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
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
        assert_eq!(*model.table.buckets, [4, 5, u32::EMPTY, u32::EMPTY, 3, 2, 1, 0]);
        model.remove(0);
        model.check(6, "after removing the head of the wrapped run");
        assert_eq!(*model.table.buckets, [5, u32::EMPTY, u32::EMPTY, u32::EMPTY, 3, 2, 1, 4]);
        // Key 4 at its home stays; key 5 moves back across the end.
        model.remove(1);
        model.check(6, "after removing a key homed before the wrap");
        assert_eq!(
            *model.table.buckets,
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

    /// What a dictionary entry buckets on: its stored 32-bit hash as the
    /// upper half of the table's hash.
    fn stored(h: u32) -> u64 {
        u64::from(h) << 32
    }

    /// A dictionary's index in miniature: `(hash, code)` entries over
    /// `values`, compared through the stored hash first and then
    /// `values[code]`, and interned by one find-or-insert probe.
    struct Dict<V, H> {
        table: PositionTable<(u32, u32)>,
        values: Vec<V>,
        hash: H,
    }

    impl<V: PartialEq, H: Fn(&V) -> u32> Dict<V, H> {
        fn new(hash: H) -> Self {
            Dict { table: PositionTable::new(), values: Vec::new(), hash }
        }

        /// The code of `v` and how many entries its probe compared.
        fn find(&self, v: &V) -> (Result<u32, Vacant>, usize) {
            let (h, values) = ((self.hash)(v), &self.values);
            let mut compared = 0;
            let found = self.table.find(stored(h), |(eh, code)| {
                compared += 1;
                eh == h && values[code as usize] == *v
            });
            (found.map(|(_, code)| code), compared)
        }

        /// The code of `v`, assigned next if `v` is new: the dictionary's
        /// `find_or_insert`.
        fn intern(&mut self, v: V) -> u32 {
            match self.find(&v).0 {
                Ok(code) => code,
                Err(free) => {
                    let (h, code) = ((self.hash)(&v), self.values.len() as u32);
                    self.values.push(v);
                    self.table.fill(free, stored(h), (h, code), |(h, _)| stored(h));
                    code
                }
            }
        }
    }

    #[test]
    fn find_or_insert_streams_match_a_hash_map_across_growth() {
        // The dictionary's own hash, and one that gives every fifth key
        // the same stored hash, so that a probe compares values behind
        // equal hashes.
        let hashes: [fn(&u64) -> u32; 2] =
            [|k| (spread(k) >> 32) as u32, |k| ((*k % 5) as u32) << 29];
        for (which, hash) in hashes.into_iter().enumerate() {
            for seed in 0..4 {
                let label = |step| format!("hash {which}, seed {seed}, step {step}");
                let (mut dict, mut map) = (Dict::new(hash), HashMap::new());
                let (mut rng, mut sizes, mut grown_fills) = (Rng(seed), vec![0], 0);
                for step in 0..600 {
                    let key = rng.below(200);
                    let before = (dict.table.len(), dict.table.bucket_count());
                    if rng.below(3) == 0 {
                        // A lookup alone inserts nothing.
                        assert_eq!(
                            dict.find(&key).0.ok(),
                            map.get(&key).copied(),
                            "{}",
                            label(step)
                        );
                        continue;
                    }
                    let code = dict.intern(key);
                    let after = (dict.table.len(), dict.table.bucket_count());
                    match map.get(&key) {
                        Some(&known) => {
                            assert_eq!(code, known, "{}", label(step));
                            assert_eq!(
                                after,
                                before,
                                "a found entry moves nothing: {}",
                                label(step)
                            );
                        }
                        None => {
                            map.insert(key, code);
                            assert_eq!(after.0, before.0 + 1, "{}", label(step));
                            if after.1 != before.1 {
                                // The vacancy was dropped for a growth: the
                                // entry still lands where a lookup finds it.
                                grown_fills += 1;
                                assert_eq!(dict.find(&key).0, Ok(code), "{}", label(step));
                            }
                        }
                    }
                    assert!(after.0 * 8 <= after.1 * 7, "load ≤ 7/8: {}", label(step));
                    sizes.push(after.1);
                }
                for key in 0..200 {
                    assert_eq!(dict.find(&key).0.ok(), map.get(&key).copied(), "key {key}");
                }
                // Every 7/8 growth point from empty up to 256 buckets.
                sizes.dedup();
                assert_eq!(sizes, [0, 8, 16, 32, 64, 128, 256], "hash {which}, seed {seed}");
                assert_eq!(grown_fills, 6, "hash {which}, seed {seed}");
            }
        }
    }

    /// Probe lengths at linear-probing theory. `Name{i}` for i < 80 000,
    /// interned one at a time, end at 2¹⁷ buckets (load 0.61). A hit then
    /// compares a mean of ½(1 + 1/(1−α)) entries, and a miss reads
    /// ½(1 + 1/(1−α)²) buckets, its free one included (Knuth, TAOCP
    /// §6.4): both are held within 1.25× of that, and read 1.03×. A home
    /// bucket taken from the low bits of the raw Fx hash, with no second
    /// multiply, reads ≈ 29 compares a hit, 16× Knuth's.
    #[test]
    fn probes_match_linear_probing_theory() {
        let mut dict = Dict::new(|s: &String| (spread(s.as_str()) >> 32) as u32);
        for i in 0..80_000 {
            assert_eq!(dict.intern(format!("Name{i}")), i);
        }
        assert_eq!(dict.table.bucket_count(), 1 << 17);
        let alpha = dict.table.len() as f64 / dict.table.bucket_count() as f64;
        let mean = |range: std::ops::Range<u32>, hit: bool| {
            let compared: usize = range
                .clone()
                .map(|i| {
                    let (found, compared) = dict.find(&format!("Name{i}"));
                    assert_eq!(found.is_ok(), hit, "Name{i}");
                    // A miss also reads the free bucket that ends it.
                    compared + usize::from(!hit)
                })
                .sum();
            compared as f64 / range.len() as f64
        };
        let (hits, misses) = (mean(0..80_000, true), mean(80_000..130_000, false));
        let knuth_hit = 0.5 * (1.0 + 1.0 / (1.0 - alpha));
        let knuth_miss = 0.5 * (1.0 + 1.0 / ((1.0 - alpha) * (1.0 - alpha)));
        for (what, mean, knuth) in [("hit", hits, knuth_hit), ("miss", misses, knuth_miss)] {
            let ratio = mean / knuth;
            assert!((0.8..=1.25).contains(&ratio), "{what}: {mean:.2} probes, Knuth {knuth:.2}");
        }
    }

    /// What an Int dictionary entry buckets on: the upper half of its
    /// value's `spread`, recomputed, as the upper half of the table's hash.
    fn recomputed(v: i64) -> u64 {
        stored((spread(&v) >> 32) as u32)
    }

    /// An Int dictionary's index in miniature: code-only entries over
    /// `values`, each compared through `values[code]` and re-hashed from
    /// it on growth, interned by one find-or-insert probe.
    struct Codes {
        table: PositionTable<u32>,
        values: Vec<i64>,
    }

    impl Codes {
        /// The code of `v` and how many entries its probe compared.
        fn find(&self, v: i64) -> (Result<u32, Vacant>, usize) {
            let mut compared = 0;
            let found = self.table.find(recomputed(v), |code| {
                compared += 1;
                self.values[code as usize] == v
            });
            (found, compared)
        }

        fn intern(&mut self, v: i64) -> u32 {
            match self.find(v).0 {
                Ok(code) => code,
                Err(free) => {
                    let code = self.values.len() as u32;
                    self.values.push(v);
                    let values = &self.values;
                    self.table.fill(free, recomputed(v), code, |c| recomputed(values[c as usize]));
                    code
                }
            }
        }
    }

    /// `probes_match_linear_probing_theory` for code-only entries, where
    /// every compared bucket is a table read: 80 000 distinct random
    /// 7-digit values (the shape of a phone-number column) end at 2¹⁷
    /// buckets, load 0.61, and 50 000 other 7-digit values miss. Mean
    /// compares per hit and buckets read per miss are held within 1.25×
    /// of Knuth's.
    #[test]
    fn code_only_probes_match_linear_probing_theory() {
        let mut rng = Rng(7);
        let mut draw = || 1_000_000 + rng.below(9_000_000) as i64;
        let mut dict = Codes { table: PositionTable::new(), values: Vec::new() };
        while dict.values.len() < 80_000 {
            dict.intern(draw());
        }
        assert_eq!(dict.table.bucket_count(), 1 << 17);
        let held: std::collections::HashSet<i64> = dict.values.iter().copied().collect();
        let mut absent = Vec::new();
        while absent.len() < 50_000 {
            absent.extend(Some(draw()).filter(|v| !held.contains(v)));
        }
        let alpha = dict.table.len() as f64 / dict.table.bucket_count() as f64;
        let mean = |values: &[i64], hit: bool| {
            let compared: usize = values
                .iter()
                .map(|&v| {
                    let (found, compared) = dict.find(v);
                    assert_eq!(found.is_ok(), hit, "{v}");
                    compared + usize::from(!hit)
                })
                .sum();
            compared as f64 / values.len() as f64
        };
        let (hits, misses) = (mean(&dict.values, true), mean(&absent, false));
        let knuth_hit = 0.5 * (1.0 + 1.0 / (1.0 - alpha));
        let knuth_miss = 0.5 * (1.0 + 1.0 / ((1.0 - alpha) * (1.0 - alpha)));
        for (what, mean, knuth) in [("hit", hits, knuth_hit), ("miss", misses, knuth_miss)] {
            let ratio = mean / knuth;
            assert!((0.8..=1.25).contains(&ratio), "{what}: {mean:.2} probes, Knuth {knuth:.2}");
        }
    }
}
