//! The vertical gather plan against its optimum.
//!
//! `VerticalPartition::gather_plan` is this repository's own rule (§V
//! leaves vertical detection algorithms open): the fragment holding the
//! most needed attributes coordinates, and every other fragment, in site
//! order, supplies what no fragment before it did. Nothing in the engine
//! compares it with the cheapest gather. `min_gather_exhaustive` here
//! shares no code with it: it tries every coordinator and every choice
//! of supplier per attribute the coordinator lacks, and prices each row
//! as the ledger prices a `(tid, codes)` row: `|attrs| + TID_CELLS` cells
//! per supplier other than the coordinator.
//!
//! The plan is never cheaper than the optimum (the optimum tries the
//! plan's own choice), so the property below checks the pricing as much
//! as the rule; the ratio says how far first fit is from the optimum.

use dcd_dist::{GatherPlan, VerticalPartition, TID_CELLS};
use dcd_relation::{vals, AttrId, Relation, Schema, ValueType};
use proptest::prelude::*;
use std::sync::Arc;

/// The non-key attributes, bit `i` of a layout mask standing for
/// `ATTRS[i]`.
const ATTRS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

fn schema() -> Arc<Schema> {
    let mut builder = Schema::builder("r").attr("id", ValueType::Int);
    for name in ATTRS {
        builder = builder.attr(name, ValueType::Int);
    }
    builder.key(&["id"]).build().unwrap()
}

/// The attribute ids of `mask`, ascending (`id` is attribute 0).
fn attrs_of(mask: u8) -> Vec<AttrId> {
    (0..ATTRS.len()).filter(|&i| mask >> i & 1 == 1).map(|i| AttrId(i as u16 + 1)).collect()
}

/// The vertical partition with one fragment per mask, each also holding
/// the key. Attributes no mask names join the first fragment, so every
/// layout is a valid partition.
fn partition(masks: &[u8]) -> VerticalPartition {
    let all = (1u8 << ATTRS.len()) - 1;
    let stray = all & !masks.iter().fold(0, |acc, m| acc | m);
    let groups: Vec<Vec<&str>> = masks
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let m = if i == 0 { m | stray } else { m };
            (0..ATTRS.len()).filter(|&a| m >> a & 1 == 1).map(|a| ATTRS[a]).collect()
        })
        .collect();
    let groups: Vec<&[&str]> = groups.iter().map(Vec::as_slice).collect();
    let rel = Relation::from_rows(schema(), vec![vals![0, 0, 0, 0, 0, 0, 0]]).unwrap();
    VerticalPartition::by_attribute_groups(&rel, &groups).unwrap()
}

/// The cells per row `plan` ships.
fn plan_cells(plan: &GatherPlan) -> usize {
    plan.supplies[1..].iter().map(|(_, attrs)| attrs.len() + TID_CELLS).sum()
}

/// The fewest cells per row any gather of `needed` ships over the
/// fragments holding `held` (one attribute mask each): every
/// coordinator, and for every needed attribute it lacks, every fragment
/// that holds it as the supplier.
fn min_gather_exhaustive(held: &[u8], needed: u8) -> usize {
    let mut best = usize::MAX;
    for (c, &home) in held.iter().enumerate() {
        let missing: Vec<usize> =
            (0..ATTRS.len()).filter(|&a| (needed & !home) >> a & 1 == 1).collect();
        let holders: Vec<Vec<usize>> = missing
            .iter()
            .map(|&a| (0..held.len()).filter(|&f| f != c && held[f] >> a & 1 == 1).collect())
            .collect();
        // One odometer digit per missing attribute: which holder ships it.
        let mut pick = vec![0usize; missing.len()];
        loop {
            let mut shipped = vec![0usize; held.len()];
            for (a, &p) in pick.iter().enumerate() {
                shipped[holders[a][p]] += 1;
            }
            let cells = shipped.iter().filter(|&&k| k > 0).map(|&k| k + TID_CELLS).sum();
            best = best.min(cells);
            let Some(digit) = (0..pick.len()).find(|&d| pick[d] + 1 < holders[d].len()) else {
                break;
            };
            pick[digit] += 1;
            pick[..digit].fill(0);
        }
    }
    best
}

/// What a layout's fragments hold once [`partition`] has placed it: the
/// masks as the partition reads them back, key aside.
fn held_masks(partition: &VerticalPartition) -> Vec<u8> {
    let groups = partition.attr_groups();
    let bit = |a: &AttrId| 1u8 << (a.index() - 1);
    groups
        .iter()
        .map(|g| g.iter().filter(|a| a.index() > 0).map(bit).fold(0, |m, b| m | b))
        .collect()
}

/// `(plan, optimum)` cells per row for gathering `needed` over `masks`.
fn both(masks: &[u8], needed: u8) -> (usize, usize) {
    let partition = partition(masks);
    let plan = partition.gather_plan(&attrs_of(needed));
    (plan_cells(&plan), min_gather_exhaustive(&held_masks(&partition), needed))
}

/// The layout the rule was first probed on: `[a,b] [c] [d] [c,d]`,
/// gathering `a..d`. S0 coordinates and first fit takes `c` from S1
/// and `d` from S2, two suppliers at `1 + TID_CELLS` each; S3 alone
/// holds both, one supplier at `2 + TID_CELLS`.
#[test]
fn the_probe_layout_ships_six_cells_where_four_suffice() {
    let (plan, optimum) = both(&[0b0011, 0b0100, 0b1000, 0b1100], 0b1111);
    assert_eq!((plan, optimum), (2 * (1 + TID_CELLS), 2 + TID_CELLS));
    assert_eq!((plan, optimum), (6, 4));
}

/// Wider layouts go past 3 : 2. Over `[a,b,c] [d] [e] [f] [d,e,f]`, S0
/// and S4 tie, S0 coordinates, and first fit takes `d`, `e` and `f` from
/// three suppliers where S4 alone holds all three.
#[test]
fn five_fragments_over_six_attributes_reach_nine_fifths() {
    let masks = [0b00_0111, 0b00_1000, 0b01_0000, 0b10_0000, 0b11_1000];
    assert_eq!(both(&masks, 0b11_1111), (3 * (1 + TID_CELLS), 3 + TID_CELLS));
}

/// Every layout of one to four fragments covering `a..d` (each fragment
/// a non-empty subset, in every site order), gathering all four: the
/// plan never beats the optimum, and its worst ratio to it is the
/// probe's 3 : 2. It is first met at three fragments, `[c,d] [a] [a,b]`:
/// S0 and S2 tie on two attributes, S0 coordinates, and first fit takes
/// `a` from S1 before S2 could ship `a` and `b` together.
#[test]
fn first_fit_is_at_most_three_halves_of_the_optimum_over_four_attributes() {
    let (mut worst, mut witness) = ((0, 1), Vec::new());
    for n in 1..=4u32 {
        for code in 0..15usize.pow(n) {
            let masks: Vec<u8> = (0..n).map(|i| 1 + (code / 15usize.pow(i) % 15) as u8).collect();
            if masks.iter().fold(0, |acc, m| acc | m) != 0b1111 {
                continue;
            }
            let (plan, optimum) = both(&masks, 0b1111);
            assert!(optimum <= plan, "{masks:?}: optimum {optimum} > plan {plan}");
            // plan / optimum > worst.0 / worst.1, cross-multiplied.
            if optimum > 0 && plan * worst.1 > worst.0 * optimum {
                (worst, witness) = ((plan, optimum), masks);
            }
        }
    }
    assert_eq!(worst, (6, 4), "worst at {witness:?}");
    assert_eq!(witness, [0b1100, 0b0001, 0b0011]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random layouts of up to five fragments over six attributes, and a
    /// random needed set: the plan ships no fewer cells than the
    /// exhaustive optimum, and nothing when one fragment holds it all.
    #[test]
    fn the_plan_never_beats_the_exhaustive_optimum(
        masks in prop::collection::vec(1u8..64, 1..6),
        needed in 1u8..64,
    ) {
        let (plan, optimum) = both(&masks, needed);
        prop_assert!(optimum <= plan, "{:?} needing {:06b}: {} > {}", masks, needed, optimum, plan);
        prop_assert_eq!(optimum == 0, plan == 0, "{:?} needing {:06b}", masks, needed);
    }
}
