//! The paper-definition oracle: `Vio(φ, D)` and `Vioπ(φ, D)` of §II-C,
//! transcribed pair by pair.
//!
//! `t ∈ Vio(φ, D)` iff there are a pattern `tp ∈ Tp` and a partner
//! `t' ∈ D` (possibly `t` itself) with `t[X] = t'[X] ≍ tp[X]` and either
//! `t[A] ≠ t'[A]` or `t[A] = t'[A] ≭ tp[A]`; `Vioπ` is the set of `t[X]`
//! over those tuples. That sentence is the whole file: a triple loop over
//! tuples × patterns × partners on plain [`Value`](dcd_relation::Value)
//! equality, `O(|D|² · |Tp|)`.
//!
//! It is deliberately slow and deliberately shares nothing with the
//! detection engine — no dictionaries, no packed keys, no grouping, no
//! pattern index, no kernel — so that a bug in any of those cannot hide
//! in the reference too. Every detector, topology and incremental prefix
//! is pinned against it (`tests/prop_oracle.rs`), and the tiny-instance
//! companions to the NP-hardness results (`min_shipment_exhaustive`,
//! `mhd_reduction`) call it directly. It is the one
//! sanctioned second spelling of the detection semantics.
//!
//! Both readings of constant patterns are provided (see
//! [`violation`](crate::violation) for why there are two): [`vio`] is the
//! algorithmic one — a constant pattern is a single-tuple check, pairs
//! matter for variable patterns only — and [`vio_strict`] the literal
//! definition.

use crate::cfd::SimpleCfd;
use crate::pattern::tuple_matches;
use crate::violation::ViolationSet;
use dcd_relation::Tuple;

/// `Vio`/`Vioπ` of `cfd` among `tuples` under the algorithmic reading —
/// what [`detect_simple`](crate::detect_simple) and every distributed
/// detector must report.
pub fn vio(tuples: &[&Tuple], cfd: &SimpleCfd) -> ViolationSet {
    vio_with(tuples, cfd, false)
}

/// `Vio`/`Vioπ` under the literal §II-C definition — what
/// [`detect_simple_strict`](crate::detect_simple_strict) must report.
pub fn vio_strict(tuples: &[&Tuple], cfd: &SimpleCfd) -> ViolationSet {
    vio_with(tuples, cfd, true)
}

fn vio_with(tuples: &[&Tuple], cfd: &SimpleCfd, strict: bool) -> ViolationSet {
    let a = cfd.rhs;
    let mut out = ViolationSet::default();
    for t in tuples {
        let violates = cfd.tableau.iter().any(|tp| {
            // t[X] ≍ tp[X] …
            tuple_matches(t, &cfd.lhs, &tp.lhs)
                && tuples.iter().any(|u| {
                    // … = t'[X], and then t[A] ≠ t'[A] (which the
                    // algorithmic reading asks of variable patterns
                    // only) or t[A] = t'[A] ≭ tp[A].
                    let partners = cfd.lhs.iter().all(|&x| t.get(x) == u.get(x));
                    let differ = t.get(a) != u.get(a);
                    let pair = differ && (strict || tp.rhs.is_wild());
                    let single = !differ && !tp.rhs.matches(t.get(a));
                    partners && (pair || single)
                })
        });
        if violates {
            out.insert(t.tid);
            out.insert_pattern(t.project(&cfd.lhs));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_cfd;
    use crate::violation::tests::{d0, emp_schema};

    fn tids(v: &ViolationSet) -> Vec<u64> {
        v.tids().iter().map(|t| t.0).collect()
    }

    /// Example 1 of the paper on Fig. 1's D0, under both readings.
    #[test]
    fn reproduces_example1() {
        let s = emp_schema();
        let decoded: Vec<Tuple> = d0().iter().collect();
        let d: Vec<&Tuple> = decoded.iter().collect();
        let simple =
            |txt: &str| parse_cfd(&s, "phi", txt).unwrap().simplify().pop().expect("one RHS");
        // cfd1: t2–t5 share (44, EH4 8LE) over three streets.
        let v = vio(&d, &simple("([CC=44, zip] -> [street])"));
        assert_eq!(tids(&v), vec![1, 2, 3, 4]);
        assert_eq!(v.pattern_count(), 1);
        // cfd3 (a plain FD) holds.
        assert!(vio(&d, &simple("([CC, title] -> [salary])")).is_empty());
        // cfd4: Example 1 reports t2, t3; the literal definition adds
        // their partners t1, t4, t5.
        let cfd4 = simple("([CC=44, AC=131] -> [city=EDI])");
        assert_eq!(tids(&vio(&d, &cfd4)), vec![1, 2]);
        assert_eq!(tids(&vio_strict(&d, &cfd4)), vec![0, 1, 2, 3, 4]);
    }
}
