//! Controlled error injection.
//!
//! Clean generated data satisfies its CFDs by construction; detection
//! experiments need violations to find. [`inject_errors`] corrupts the
//! value of one attribute in a seeded random fraction of tuples, which
//! breaks both variable CFDs (the corrupted tuple disagrees with its
//! group) and constant CFDs (the value no longer matches the pinned
//! constant).

use dcd_relation::{Dictionary, Relation, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Corrupts `attr` in roughly `rate · |rel|` tuples (seeded, in place on
/// a copy over fresh dictionaries, at `rel`'s chunk size): string values
/// get an `ERR-k` marker, integers get an offset. Returns the corrupted
/// relation and the number of corrupted tuples.
pub fn inject_errors(rel: &Relation, attr: &str, rate: f64, seed: u64) -> (Relation, usize) {
    assert!((0.0..=1.0).contains(&rate), "rate must be within [0, 1]");
    let a = rel.schema().require(attr).expect("attribute exists");
    let mut rng = StdRng::seed_from_u64(seed);
    let fresh = (0..rel.schema().arity()).map(|_| Arc::new(Dictionary::new())).collect();
    let mut out =
        Relation::with_dictionaries(rel.schema().clone(), fresh, rel.len(), rel.chunk_rows())
            .expect("one dictionary per attribute");
    let mut corrupted = 0usize;
    for t in rel.iter() {
        if rng.gen::<f64>() < rate {
            let mut values = t.values().to_vec();
            values[a.index()] = match &values[a.index()] {
                Value::Int(i) => Value::Int(i + 1 + rng.gen_range(0..7)),
                Value::Str(_) => Value::str(format!("ERR-{}", rng.gen_range(0..1000))),
                Value::Null => Value::str("ERR"),
            };
            corrupted += 1;
            out.push_tuple(Tuple::new(t.tid, values)).expect("schema unchanged");
        } else {
            out.push_tuple(t).expect("schema unchanged");
        }
    }
    (out, corrupted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_relation::{vals, Schema, ValueType};

    fn rel() -> Relation {
        let schema = Schema::builder("r")
            .attr("k", ValueType::Int)
            .attr("v", ValueType::Str)
            .build()
            .unwrap();
        Relation::from_rows(schema, (0..200).map(|i| vals![i, "ok"]).collect()).unwrap()
    }

    #[test]
    fn rate_zero_is_identity() {
        let r = rel();
        let (out, n) = inject_errors(&r, "v", 0.0, 1);
        assert_eq!(n, 0);
        assert!(out.iter().eq(r.iter()));
    }

    #[test]
    fn rate_one_corrupts_everything() {
        let r = rel();
        let (out, n) = inject_errors(&r, "v", 1.0, 1);
        assert_eq!(n, 200);
        let v = r.schema().require("v").unwrap();
        assert!(out.iter().all(|t| t.get(v).as_str().unwrap().starts_with("ERR-")));
    }

    #[test]
    fn intermediate_rate_is_approximate_and_seeded() {
        let r = rel();
        let (a, na) = inject_errors(&r, "v", 0.25, 42);
        let (b, nb) = inject_errors(&r, "v", 0.25, 42);
        assert_eq!(na, nb);
        assert!(a.iter().eq(b.iter()));
        assert!((20..=80).contains(&na), "expected ≈50 corruptions, got {na}");
        // A different seed corrupts different tuples.
        let (_, nc) = inject_errors(&r, "v", 0.25, 43);
        assert!((20..=80).contains(&nc));
    }

    #[test]
    fn integers_are_shifted_not_stringified() {
        let r = rel();
        let (out, _) = inject_errors(&r, "k", 1.0, 5);
        let k = r.schema().require("k").unwrap();
        for (orig, new) in r.iter().zip(out.iter()) {
            let (o, n) = (orig.get(k).as_int().unwrap(), new.get(k).as_int().unwrap());
            assert!(n > o);
        }
    }

    #[test]
    fn tids_are_preserved() {
        let r = rel();
        let (out, _) = inject_errors(&r, "v", 0.5, 9);
        for (orig, new) in r.iter().zip(out.iter()) {
            assert_eq!(orig.tid, new.tid);
        }
    }
}
