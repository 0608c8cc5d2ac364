//! Pattern values, pattern tuples and the match operator `≍`.
//!
//! Patterns exist in two forms: the symbolic [`PatternValue`] cells used
//! for parsing, display and implication reasoning, and the
//! [`CompiledPattern`] form used by the detection hot loops — pattern
//! constants resolved *once* against a relation's dictionaries into `u32`
//! codes (wildcard = [`WILDCARD_CODE`]), after which the match operator
//! `≍` is a per-attribute integer compare over the relation's code
//! columns.

use crate::kernel::RhsSpec;
use dcd_relation::{
    Atom, AttrId, Conjunction, Dictionary, Relation, Tuple, Value, NO_CODE, WILDCARD_CODE,
};
use std::fmt;
use std::sync::Arc;

/// One cell of a pattern tuple: either a constant from the attribute's
/// domain or the unnamed variable `_` (wildcard).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PatternValue {
    /// A constant `a ∈ dom(A)`.
    Const(Value),
    /// The unnamed variable `_`, drawing values from `dom(A)`.
    Wild,
}

impl PatternValue {
    /// Constant shorthand.
    pub fn constant(v: impl Into<Value>) -> Self {
        PatternValue::Const(v.into())
    }

    /// The match operator `≍` between a data value and a pattern value:
    /// `v ≍ _` always holds, `v ≍ a` holds iff `v = a`.
    #[inline]
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            PatternValue::Wild => true,
            PatternValue::Const(c) => c == v,
        }
    }

    /// Whether this is the wildcard.
    pub const fn is_wild(&self) -> bool {
        matches!(self, PatternValue::Wild)
    }

    /// The constant payload, if any.
    pub const fn as_const(&self) -> Option<&Value> {
        match self {
            PatternValue::Const(v) => Some(v),
            PatternValue::Wild => None,
        }
    }
}

impl fmt::Display for PatternValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternValue::Wild => write!(f, "_"),
            PatternValue::Const(v) => write!(f, "{v}"),
        }
    }
}

/// Tests `t[X] ≍ tp[X]` for aligned attribute and pattern slices.
#[inline]
pub fn tuple_matches(t: &Tuple, attrs: &[AttrId], pats: &[PatternValue]) -> bool {
    debug_assert_eq!(attrs.len(), pats.len());
    attrs.iter().zip(pats).all(|(&a, p)| p.matches(t.get(a)))
}

/// A pattern tuple of a general CFD `(X → Y, Tp)`: LHS and RHS pattern
/// cells, aligned with the CFD's `X` and `Y` attribute lists.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PatternTuple {
    /// Pattern cells for `X`, in `X` order.
    pub lhs: Vec<PatternValue>,
    /// Pattern cells for `Y`, in `Y` order.
    pub rhs: Vec<PatternValue>,
}

impl PatternTuple {
    /// Creates a pattern tuple.
    pub fn new(lhs: Vec<PatternValue>, rhs: Vec<PatternValue>) -> Self {
        PatternTuple { lhs, rhs }
    }

    /// Number of wildcards in the LHS — the "generality" measure used to
    /// sort tableaux for the σ partition function (§IV-B, Lemma 6).
    pub fn lhs_wildcards(&self) -> usize {
        self.lhs.iter().filter(|p| p.is_wild()).count()
    }
}

impl fmt::Display for PatternTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.lhs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, " ‖ ")?;
        for (i, p) in self.rhs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ")")
    }
}

/// A pattern tuple of a *normalized* CFD `(X → A, tp)`: LHS cells plus a
/// single RHS cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NormalPattern {
    /// Pattern cells for `X`, in `X` order.
    pub lhs: Vec<PatternValue>,
    /// The single RHS pattern cell for `A`.
    pub rhs: PatternValue,
}

impl NormalPattern {
    /// Creates a normalized pattern.
    pub fn new(lhs: Vec<PatternValue>, rhs: PatternValue) -> Self {
        NormalPattern { lhs, rhs }
    }

    /// Number of wildcards in the LHS (generality measure).
    pub fn lhs_wildcards(&self) -> usize {
        self.lhs.iter().filter(|p| p.is_wild()).count()
    }

    /// The conjunction `Fφ` of equality atoms for the constants in the
    /// LHS (used for the §IV-A partitioning condition: a fragment with
    /// predicate `Fi` is irrelevant to this pattern if `Fi ∧ Fφ` is
    /// unsatisfiable).
    pub fn lhs_condition(&self, attrs: &[AttrId]) -> Conjunction {
        let atoms = attrs
            .iter()
            .zip(&self.lhs)
            .filter_map(|(&a, p)| p.as_const().map(|c| Atom::eq(a, c.clone())))
            .collect();
        Conjunction::of(atoms)
    }

    /// Whether this pattern makes a *constant* CFD (`tp[A]` is a
    /// constant) as opposed to a *variable* CFD (`tp[A] = _`), §IV-A.
    pub fn is_constant(&self) -> bool {
        !self.rhs.is_wild()
    }
}

impl fmt::Display for NormalPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.lhs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, " ‖ {})", self.rhs)
    }
}

/// A [`NormalPattern`] compiled against one relation's dictionaries: one
/// code per LHS cell plus the RHS code. Compilation costs one dictionary
/// lookup per constant; matching a tuple afterwards is pure `u32`
/// comparison over the relation's code columns.
///
/// Sentinels: [`WILDCARD_CODE`] marks a wildcard cell (matches every
/// code); [`NO_CODE`] marks a constant the dictionary has never seen —
/// such a cell matches *no* tuple of the relation, so a pattern with a
/// `NO_CODE` LHS cell is infeasible there ([`CompiledPattern::feasible`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPattern {
    /// LHS cell codes, aligned with the CFD's `X` attribute list.
    pub lhs: Vec<u32>,
    /// RHS cell code (`WILDCARD_CODE` for variable patterns, `NO_CODE`
    /// for a constant absent from the relation — then *every* tuple's
    /// RHS differs from it).
    pub rhs: u32,
    /// Whether any tuple of the compiled-against relation can match the
    /// LHS (false iff some LHS constant is absent from its dictionary).
    pub feasible: bool,
}

impl CompiledPattern {
    /// Compiles `pattern` against `rel`'s dictionaries. `lhs`/`rhs` name
    /// the CFD's attribute lists in `rel`'s schema.
    pub fn compile(pattern: &NormalPattern, rel: &Relation, lhs: &[AttrId], rhs: AttrId) -> Self {
        Self::compile_with(pattern, &rel.dictionaries_of(lhs), rel.dictionary(rhs))
    }

    /// Compiles `pattern` against explicit dictionaries — one per LHS
    /// cell (in the CFD's `X` order) plus the RHS dictionary. This is
    /// the coordinator-side entry point: a cross-site violation index
    /// holds the shared dictionaries but no relation, and recompiles its
    /// tableau per delta batch (dictionaries are append-only, so a
    /// previously-`NO_CODE` constant can gain a code when an insert
    /// interns it).
    pub fn compile_with(
        pattern: &NormalPattern,
        lhs_dicts: &[Arc<Dictionary>],
        rhs_dict: &Dictionary,
    ) -> Self {
        debug_assert_eq!(lhs_dicts.len(), pattern.lhs.len());
        let cell = |dict: &Dictionary, p: &PatternValue| match p {
            PatternValue::Wild => WILDCARD_CODE,
            PatternValue::Const(c) => dict.code_of(c).unwrap_or(NO_CODE),
        };
        let lhs_codes: Vec<u32> =
            lhs_dicts.iter().zip(&pattern.lhs).map(|(d, p)| cell(d, p)).collect();
        let feasible = lhs_codes.iter().all(|&c| c != NO_CODE);
        CompiledPattern { lhs: lhs_codes, rhs: cell(rhs_dict, &pattern.rhs), feasible }
    }

    /// `t[X] ≍ tp[X]` for row `i` of the code columns the pattern was
    /// compiled against (`cols[j]` = codes of LHS attribute `j`).
    #[inline]
    pub fn matches_row(&self, cols: &[&[u32]], i: usize) -> bool {
        self.lhs.iter().zip(cols).all(|(&pc, col)| pc == WILDCARD_CODE || pc == col[i])
    }

    /// `key ≍ tp[X]` for a materialized group key of codes.
    #[inline]
    pub fn matches_codes(&self, key: &[u32]) -> bool {
        debug_assert_eq!(self.lhs.len(), key.len());
        self.lhs.iter().zip(key).all(|(&pc, &kc)| pc == WILDCARD_CODE || pc == kc)
    }

    /// Whether this compiled pattern's RHS is the wildcard.
    #[inline]
    pub fn rhs_is_wild(&self) -> bool {
        self.rhs == WILDCARD_CODE
    }

    /// The RHS cell as the detection kernel reads it.
    #[inline]
    pub fn rhs_spec(&self) -> RhsSpec {
        if self.rhs_is_wild() {
            RhsSpec::Wild
        } else {
            RhsSpec::Const(self.rhs)
        }
    }
}

/// Compiles a whole tableau against one relation (order preserved).
pub fn compile_tableau(
    tableau: &[NormalPattern],
    rel: &Relation,
    lhs: &[AttrId],
    rhs: AttrId,
) -> Vec<CompiledPattern> {
    tableau.iter().map(|p| CompiledPattern::compile(p, rel, lhs, rhs)).collect()
}

/// The dictionary filter of a compiled tableau: for every LHS position
/// that *no* feasible pattern leaves wild, the set of constant codes the
/// patterns carry there. A row whose code at such a position is outside
/// the set matches no pattern, so a scan can drop it on one bit test per
/// position — before any pattern is compared, any key packed or hashed.
///
/// Built from the feasible patterns only, so [`NO_CODE`] is never
/// admitted, and sized by the largest constant code, so no dictionary
/// length is consulted. A tableau without a feasible pattern admits
/// nothing at any position; a position some feasible pattern leaves wild
/// carries no test.
#[derive(Debug, Clone, Default)]
pub struct Admission {
    /// `(LHS position, bitmap over codes)`, ascending by position.
    filters: Vec<(usize, Vec<u64>)>,
}

impl Admission {
    /// The filter of `patterns` (all compiled against one relation, so
    /// all of one LHS width).
    pub fn of_patterns<'a>(patterns: impl IntoIterator<Item = &'a CompiledPattern>) -> Self {
        let all: Vec<&CompiledPattern> = patterns.into_iter().collect();
        let width = all.first().map_or(0, |p| p.lhs.len());
        let feasible: Vec<&[u32]> = all.iter().filter(|p| p.feasible).map(|p| &p.lhs[..]).collect();
        let filters = (0..width)
            .filter(|&j| feasible.iter().all(|lhs| lhs[j] != WILDCARD_CODE))
            .map(|j| {
                let words = feasible.iter().map(|lhs| lhs[j] as usize / 64 + 1).max().unwrap_or(0);
                let mut bits = vec![0u64; words];
                for lhs in &feasible {
                    bits[lhs[j] as usize / 64] |= 1 << (lhs[j] % 64);
                }
                (j, bits)
            })
            .collect();
        Admission { filters }
    }

    /// Whether row `i` of the code slices `cols` (`cols[j]` = codes of
    /// LHS attribute `j`) passes every position's test. `false` means
    /// the row matches no pattern; `true` promises nothing.
    #[inline]
    pub fn admits_row(&self, cols: &[&[u32]], i: usize) -> bool {
        self.filters.iter().all(|(j, bits)| {
            let code = cols[*j][i];
            bits.get(code as usize / 64).is_some_and(|word| word >> (code % 64) & 1 == 1)
        })
    }
}

/// Sorts pattern indices most-specific-first: ascending by number of LHS
/// wildcards (the order required by Lemma 6's σ function). Ties keep the
/// original tableau order, making the sort deterministic.
pub fn generality_order(patterns: &[NormalPattern]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..patterns.len()).collect();
    idx.sort_by_key(|&i| (patterns[i].lhs_wildcards(), i));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_relation::{vals, TupleId};

    fn t(vs: Vec<Value>) -> Tuple {
        Tuple::new(TupleId(0), vs)
    }

    #[test]
    fn match_operator() {
        let w = PatternValue::Wild;
        let c44 = PatternValue::constant(44);
        assert!(w.matches(&Value::Int(5)));
        assert!(w.matches(&Value::Null));
        assert!(c44.matches(&Value::Int(44)));
        assert!(!c44.matches(&Value::Int(31)));
        assert!(!c44.matches(&Value::Null));
    }

    #[test]
    fn tuple_matching_on_attr_lists() {
        // Paper Example: (Mayfield, EDI) ≍ (_, EDI) but ≭ (_, NYC).
        let tup = t(vals!["Mayfield", "EDI"]);
        let attrs = [AttrId(0), AttrId(1)];
        let p1 = vec![PatternValue::Wild, PatternValue::constant("EDI")];
        let p2 = vec![PatternValue::Wild, PatternValue::constant("NYC")];
        assert!(tuple_matches(&tup, &attrs, &p1));
        assert!(!tuple_matches(&tup, &attrs, &p2));
    }

    #[test]
    fn wildcard_counting_and_classification() {
        let p = NormalPattern::new(
            vec![PatternValue::constant(44), PatternValue::Wild],
            PatternValue::Wild,
        );
        assert_eq!(p.lhs_wildcards(), 1);
        assert!(!p.is_constant());
        let c = NormalPattern::new(vec![PatternValue::constant(44)], PatternValue::constant("EDI"));
        assert!(c.is_constant());
    }

    #[test]
    fn lhs_condition_collects_constants_only() {
        let p = NormalPattern::new(
            vec![PatternValue::constant(44), PatternValue::Wild],
            PatternValue::Wild,
        );
        let c = p.lhs_condition(&[AttrId(3), AttrId(8)]);
        assert_eq!(c.atoms().len(), 1);
        assert_eq!(c.atoms()[0].attr, AttrId(3));
    }

    #[test]
    fn generality_order_most_specific_first() {
        let w = PatternValue::Wild;
        let c = PatternValue::constant(1);
        let pats = vec![
            NormalPattern::new(vec![w.clone(), w.clone()], w.clone()), // 2 wildcards
            NormalPattern::new(vec![c.clone(), c.clone()], w.clone()), // 0
            NormalPattern::new(vec![c.clone(), w.clone()], w.clone()), // 1
            NormalPattern::new(vec![w.clone(), c.clone()], w.clone()), // 1 (tie → original order)
        ];
        assert_eq!(generality_order(&pats), vec![1, 2, 3, 0]);
    }

    /// The filter never rejects a row some feasible pattern matches,
    /// tests only positions no feasible pattern leaves wild, and admits
    /// neither `NO_CODE` nor a code past its largest constant.
    #[test]
    fn admission_is_sound_and_tests_only_always_pinned_positions() {
        let w = WILDCARD_CODE;
        let pat = |lhs: &[u32]| CompiledPattern {
            lhs: lhs.to_vec(),
            rhs: w,
            feasible: !lhs.contains(&NO_CODE),
        };
        let pats = [pat(&[3, w, 70]), pat(&[5, 1, 2]), pat(&[NO_CODE, w, w])];
        let admission = Admission::of_patterns(&pats);
        let cols: [&[u32]; 3] =
            [&[3, 5, 4, 3, 5, NO_CODE, 900], &[9, 1, 1, 9, 9, 1, 1], &[70, 2, 2, 2, 71, 2, 2]];
        let admitted: Vec<bool> = (0..7).map(|i| admission.admits_row(&cols, i)).collect();
        // Row 3 (3, 9, 2) matches nothing yet passes: each cell is some
        // pattern's constant. Position 1 is wild in a feasible pattern.
        assert_eq!(admitted, [true, true, false, true, false, false, false]);
        for (i, &admitted) in admitted.iter().enumerate() {
            let matched = pats.iter().any(|p| p.feasible && p.matches_row(&cols, i));
            assert!(admitted || !matched, "row {i} rejected but matched");
        }
        // No feasible pattern: nothing is admitted at any position.
        let none = Admission::of_patterns(&pats[2..]);
        assert!((0..7).all(|i| !none.admits_row(&cols, i)));
        // An all-wild pattern (or an empty LHS) leaves nothing to test.
        let fd = Admission::of_patterns(&[pat(&[w, w, w]), pat(&[3, 1, 2])]);
        assert!((0..7).all(|i| fd.admits_row(&cols, i)));
        assert!(Admission::of_patterns(&[pat(&[])]).admits_row(&[], 0));
    }

    #[test]
    fn compiled_pattern_matches_like_symbolic() {
        use dcd_relation::{vals, Schema, ValueType};
        let schema = Schema::builder("r")
            .attr("cc", ValueType::Int)
            .attr("city", ValueType::Str)
            .attr("street", ValueType::Str)
            .build()
            .unwrap();
        let rel = Relation::from_rows(
            schema,
            vec![vals![44, "EDI", "a"], vals![31, "NYC", "b"], vals![44, "NYC", "c"]],
        )
        .unwrap();
        let lhs = [AttrId(0), AttrId(1)];
        let rhs = AttrId(2);
        let pat = NormalPattern::new(
            vec![PatternValue::constant(44), PatternValue::Wild],
            PatternValue::Wild,
        );
        let compiled = CompiledPattern::compile(&pat, &rel, &lhs, rhs);
        assert!(compiled.feasible);
        assert!(compiled.rhs_is_wild());
        let cols = rel.code_views(&lhs);
        for (i, t) in rel.iter().enumerate() {
            assert_eq!(
                compiled.matches_row(&cols, i),
                tuple_matches(&t, &lhs, &pat.lhs),
                "row {i}"
            );
        }
        // A constant the relation never saw → infeasible.
        let missing = NormalPattern::new(
            vec![PatternValue::constant(999), PatternValue::Wild],
            PatternValue::Wild,
        );
        let compiled = CompiledPattern::compile(&missing, &rel, &lhs, rhs);
        assert!(!compiled.feasible);
        for i in 0..rel.len() {
            assert!(!compiled.matches_row(&cols, i), "NO_CODE must match nothing");
        }
        // A missing RHS constant stays representable (every tuple differs).
        let rhs_missing =
            NormalPattern::new(vec![PatternValue::Wild; 2], PatternValue::constant("nope"));
        let compiled = CompiledPattern::compile(&rhs_missing, &rel, &lhs, rhs);
        assert!(compiled.feasible);
        assert_eq!(compiled.rhs, dcd_relation::NO_CODE);
        assert!(rel.column(rhs).codes().iter().all(|&c| c != compiled.rhs));
    }

    #[test]
    fn compile_with_sees_late_interned_constants() {
        use dcd_relation::{vals, Schema, ValueType};
        let schema = Schema::builder("r")
            .attr("cc", ValueType::Int)
            .attr("street", ValueType::Str)
            .build()
            .unwrap();
        let mut rel = Relation::from_rows(schema, vec![vals![44, "a"]]).unwrap();
        let lhs = [AttrId(0)];
        let pat = NormalPattern::new(vec![PatternValue::constant(31)], PatternValue::Wild);
        let dicts = rel.dictionaries_of(&lhs);
        let before = CompiledPattern::compile_with(&pat, &dicts, rel.dictionary(AttrId(1)));
        assert!(!before.feasible, "31 is not interned yet");
        // Interning 31 (e.g. a delta insert) makes the same pattern
        // feasible on recompilation — dictionaries are shared Arcs.
        rel.push(vals![31, "b"]).unwrap();
        let after = CompiledPattern::compile_with(&pat, &dicts, rel.dictionary(AttrId(1)));
        assert!(after.feasible);
        assert_eq!(after.lhs, vec![rel.dictionary(AttrId(0)).code_of(&Value::Int(31)).unwrap()]);
        // And it agrees with the relation-level compile.
        assert_eq!(after, CompiledPattern::compile(&pat, &rel, &lhs, AttrId(1)));
    }

    #[test]
    fn display_forms() {
        let p = NormalPattern::new(
            vec![PatternValue::constant(44), PatternValue::Wild],
            PatternValue::constant("EDI"),
        );
        assert_eq!(p.to_string(), "(44, _ ‖ EDI)");
        let g = PatternTuple::new(vec![PatternValue::Wild], vec![PatternValue::Wild]);
        assert_eq!(g.to_string(), "(_ ‖ _)");
    }
}
