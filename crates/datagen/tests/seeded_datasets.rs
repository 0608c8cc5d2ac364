//! Every seeded dataset is a fixed byte stream: the Fig. 3 tables, the
//! benchmark workloads and the delta streams are all the output of one
//! generator at one seed. These digests pin that stream end to end, so a
//! change to the generator, a draw site or the order of draws fails here
//! instead of silently moving every recorded figure.

use dcd_datagen::{inject_errors, update_stream, CustConfig, UpdateStreamConfig, XrefConfig};
use dcd_dist::HorizontalPartition;
use dcd_relation::{Relation, Tuple, Value};

/// FNV-1a over an explicit encoding of tuples: order-sensitive, and
/// independent of any `Debug` or `Hash` implementation.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn tuple(&mut self, t: &Tuple) {
        self.bytes(&t.tid.0.to_le_bytes());
        for v in t.values() {
            match v {
                Value::Null => self.bytes(b"n"),
                Value::Int(i) => {
                    self.bytes(b"i");
                    self.bytes(&i.to_le_bytes());
                }
                Value::Str(s) => {
                    self.bytes(b"s");
                    self.bytes(s.as_bytes());
                    self.bytes(&[0]);
                }
            }
        }
    }

    fn relation(rel: &Relation) -> u64 {
        let mut d = Digest::new();
        for t in rel.iter() {
            d.tuple(&t);
        }
        d.0
    }
}

fn cust() -> Relation {
    CustConfig { n_tuples: 2_000, ..CustConfig::default() }.generate()
}

fn xref() -> Relation {
    XrefConfig { n_tuples: 2_000, ..XrefConfig::default() }.generate()
}

#[test]
fn cust_is_pinned() {
    assert_eq!(Digest::relation(&cust()), 3638553943626675228);
}

#[test]
fn xref_is_pinned() {
    assert_eq!(Digest::relation(&xref()), 15700301415974658456);
}

#[test]
fn injected_errors_are_pinned() {
    let (rel, n) = inject_errors(&cust(), "street", 0.05, 7);
    assert_eq!((Digest::relation(&rel), n), (14545858368634998325, 94));
    let (rel, n) = inject_errors(&cust(), "item_price", 0.05, 7);
    assert_eq!((Digest::relation(&rel), n), (13992264496980713547, 94));
    let (rel, n) = inject_errors(&xref(), "source", 0.1, 11);
    assert_eq!((Digest::relation(&rel), n), (8169290450555973105, 215));
}

#[test]
fn update_stream_is_pinned() {
    let partition = HorizontalPartition::round_robin(&cust(), 3).expect("three sites");
    let cfg =
        UpdateStreamConfig { n_batches: 4, ops_per_batch: 300, ..UpdateStreamConfig::default() };
    let digests: Vec<u64> = update_stream(&partition, &cfg)
        .iter()
        .map(|batch| {
            let mut d = Digest::new();
            for delta in batch {
                d.bytes(b"deletes");
                for tid in &delta.deletes {
                    d.bytes(&tid.0.to_le_bytes());
                }
                d.bytes(b"inserts");
                for t in &delta.inserts {
                    d.tuple(t);
                }
            }
            d.0
        })
        .collect();
    assert_eq!(
        digests,
        [16729757854493033557, 5729367482001061126, 1968755317028413455, 12138894576183476080]
    );
}
