//! Provenance semirings.
//!
//! Following the provenance-semiring framework (Green, Karvounarakis,
//! Tannen; surveyed in the paper's reference \[21\]): each source row is a
//! variable; alternative derivations add (`+`), joint derivations multiply
//! (`×`). Specializing the polynomial recovers the classical notions:
//! dropping coefficients/exponents gives why-provenance (witness sets);
//! evaluating under `x ↦ 1` gives the counting semiring (derivation counts);
//! evaluating under `x ↦ value(x)` lets an aggregate be *recomputed from its
//! provenance* — the basis of the invertibility check.

use cda_dataframe::RowId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A monomial: coefficient × product of row-variables (with exponents).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Monomial {
    /// Variable → exponent, sorted (BTreeMap keeps canonical form).
    pub vars: BTreeMap<RowId, u32>,
    /// Natural coefficient.
    pub coefficient: u64,
}

impl Monomial {
    /// The monomial `1` (empty product).
    pub fn one() -> Self {
        Self { vars: BTreeMap::new(), coefficient: 1 }
    }

    /// A single variable `x`.
    pub fn var(x: RowId) -> Self {
        let mut vars = BTreeMap::new();
        vars.insert(x, 1);
        Self { vars, coefficient: 1 }
    }

    /// Product of two monomials (coefficients multiply, exponents add).
    pub fn times(&self, other: &Monomial) -> Monomial {
        let mut vars = self.vars.clone();
        for (&v, &e) in &other.vars {
            *vars.entry(v).or_insert(0) += e;
        }
        Monomial { vars, coefficient: self.coefficient * other.coefficient }
    }

    /// The witness set (variables, exponents dropped).
    pub fn witness(&self) -> BTreeSet<RowId> {
        self.vars.keys().copied().collect()
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.coefficient != 1 || self.vars.is_empty() {
            write!(f, "{}", self.coefficient)?;
            if !self.vars.is_empty() {
                f.write_str("·")?;
            }
        }
        let parts: Vec<String> = self
            .vars
            .iter()
            .map(|(v, e)| if *e == 1 { format!("{v}") } else { format!("{v}^{e}") })
            .collect();
        f.write_str(&parts.join("·"))
    }
}

/// A how-provenance polynomial: a sum of monomials in canonical form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HowPolynomial {
    monomials: Vec<Monomial>,
}

impl HowPolynomial {
    /// The zero polynomial (no derivations).
    pub fn zero() -> Self {
        Self { monomials: Vec::new() }
    }

    /// The unit polynomial.
    pub fn one() -> Self {
        Self { monomials: vec![Monomial::one()] }
    }

    /// A single source-row variable.
    pub fn var(x: RowId) -> Self {
        Self { monomials: vec![Monomial::var(x)] }
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.monomials.is_empty()
    }

    /// Sum (alternative derivations). Like monomials merge coefficients.
    pub fn plus(&self, other: &HowPolynomial) -> HowPolynomial {
        let mut merged: BTreeMap<BTreeMap<RowId, u32>, u64> = BTreeMap::new();
        for m in self.monomials.iter().chain(&other.monomials) {
            *merged.entry(m.vars.clone()).or_insert(0) += m.coefficient;
        }
        HowPolynomial {
            monomials: merged
                .into_iter()
                .filter(|(_, c)| *c > 0)
                .map(|(vars, coefficient)| Monomial { vars, coefficient })
                .collect(),
        }
    }

    /// Product (joint derivation).
    ///
    /// Merges like monomials once at the end rather than re-normalising the
    /// accumulator per product term (the latter is quadratic in the output
    /// size, which made large aggregate products intractable).
    pub fn times(&self, other: &HowPolynomial) -> HowPolynomial {
        let mut merged: BTreeMap<BTreeMap<RowId, u32>, u64> = BTreeMap::new();
        for a in &self.monomials {
            for b in &other.monomials {
                let m = a.times(b);
                *merged.entry(m.vars).or_insert(0) += m.coefficient;
            }
        }
        HowPolynomial {
            monomials: merged
                .into_iter()
                .filter(|(_, c)| *c > 0)
                .map(|(vars, coefficient)| Monomial { vars, coefficient })
                .collect(),
        }
    }

    /// Why-provenance: the set of minimal witness sets (each monomial's
    /// variable set, with supersets of other witnesses removed).
    pub fn why(&self) -> Vec<BTreeSet<RowId>> {
        let mut sets: Vec<BTreeSet<RowId>> = self.monomials.iter().map(Monomial::witness).collect();
        sets.sort_by_key(BTreeSet::len);
        let mut minimal: Vec<BTreeSet<RowId>> = Vec::new();
        for s in sets {
            if !minimal.iter().any(|m| m.is_subset(&s)) {
                minimal.push(s);
            }
        }
        minimal
    }

    /// Counting semiring: number of derivations (evaluate at `x ↦ 1`).
    pub fn count(&self) -> u64 {
        self.monomials.iter().map(|m| m.coefficient).sum()
    }

    /// Evaluate under a valuation `x ↦ value(x)` (invertibility: recompute a
    /// result from its provenance). Missing variables evaluate as 0.
    pub fn evaluate(&self, valuation: &impl Fn(RowId) -> f64) -> f64 {
        self.monomials
            .iter()
            .map(|m| {
                let prod: f64 = m
                    .vars
                    .iter()
                    .map(|(&v, &e)| valuation(v).powi(e as i32))
                    .product();
                m.coefficient as f64 * prod
            })
            .sum()
    }

    /// All source rows mentioned anywhere in the polynomial.
    pub fn support(&self) -> BTreeSet<RowId> {
        self.monomials.iter().flat_map(Monomial::witness).collect()
    }
}

impl fmt::Display for HowPolynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.monomials.is_empty() {
            return f.write_str("0");
        }
        let parts: Vec<String> = self.monomials.iter().map(|m| m.to_string()).collect();
        f.write_str(&parts.join(" + "))
    }
}

/// A lazily-expanded how-provenance: witness **spans** attached per
/// execution morsel, with the polynomial itself materialized only on
/// demand.
///
/// The vectorized engine produces lineage in per-morsel segments; the
/// numeric provenance checks (counting, invertibility evaluation, support)
/// only need folds over the witnesses, so attaching spans and folding
/// directly skips building `O(group)` BTreeMap monomials per check. The
/// folds agree with the canonical [`HowPolynomial`] of the same witnesses
/// (pinned by the `span_*` tests).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct HowSpan {
    segments: Vec<Vec<RowId>>,
    aggregated: bool,
}

impl HowSpan {
    /// An empty span set; `aggregated` chooses sum (`true`) or product
    /// semantics.
    pub fn new(aggregated: bool) -> Self {
        Self { segments: Vec::new(), aggregated }
    }

    /// Attach one morsel's witnesses as a span (no expansion happens).
    pub fn attach(&mut self, witnesses: &[RowId]) {
        if !witnesses.is_empty() {
            self.segments.push(witnesses.to_vec());
        }
    }

    /// Number of attached (non-empty) spans.
    #[cfg(test)]
    pub(crate) fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total witnesses across all spans.
    pub(crate) fn num_witnesses(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }

    /// Derivation count without expanding: total witnesses for a sum, 1 for
    /// a product (and 1 for the empty span set, whose expansion is `one()`).
    pub fn count(&self) -> u64 {
        if self.aggregated {
            let n = self.num_witnesses() as u64;
            if n == 0 {
                1
            } else {
                n
            }
        } else {
            1
        }
    }

    /// Evaluate under a valuation without expanding: a straight sum (or
    /// product) fold over the spans in attach order — numerically identical
    /// to evaluating the canonical polynomial.
    pub fn evaluate(&self, valuation: &impl Fn(RowId) -> f64) -> f64 {
        if self.num_witnesses() == 0 {
            return 1.0; // the unit polynomial
        }
        let flat = self.segments.iter().flatten();
        if self.aggregated {
            flat.map(|&w| valuation(w)).sum()
        } else {
            flat.map(|&w| valuation(w)).product()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u64) -> RowId {
        RowId::new(1, i)
    }

    /// The definitional how-provenance of an aggregate: one `plus` per witness.
    fn sum(ws: &[RowId]) -> HowPolynomial {
        ws.iter().fold(HowPolynomial::zero(), |acc, &w| acc.plus(&HowPolynomial::var(w)))
    }

    /// The definitional how-provenance of a joint derivation: one `times` per witness.
    fn product(ws: &[RowId]) -> HowPolynomial {
        ws.iter().fold(HowPolynomial::one(), |acc, &w| acc.times(&HowPolynomial::var(w)))
    }

    #[test]
    fn monomial_product_merges_exponents() {
        let m = Monomial::var(r(1)).times(&Monomial::var(r(1))).times(&Monomial::var(r(2)));
        assert_eq!(m.vars.get(&r(1)), Some(&2));
        assert_eq!(m.vars.get(&r(2)), Some(&1));
        assert_eq!(m.to_string(), "t1:r1^2·t1:r2");
    }

    #[test]
    fn plus_merges_like_terms() {
        let p = HowPolynomial::var(r(1)).plus(&HowPolynomial::var(r(1)));
        assert_eq!(p.monomials.len(), 1);
        assert_eq!(p.monomials[0].coefficient, 2);
        assert_eq!(p.to_string(), "2·t1:r1");
    }

    #[test]
    fn distributive_law() {
        // (x + y) * z = xz + yz
        let x = HowPolynomial::var(r(1));
        let y = HowPolynomial::var(r(2));
        let z = HowPolynomial::var(r(3));
        let lhs = x.plus(&y).times(&z);
        let rhs = x.times(&z).plus(&y.times(&z));
        assert_eq!(lhs, rhs);
        assert_eq!(lhs.monomials.len(), 2);
    }

    #[test]
    fn zero_and_one_laws() {
        let x = HowPolynomial::var(r(1));
        assert_eq!(x.plus(&HowPolynomial::zero()), x);
        assert_eq!(x.times(&HowPolynomial::one()), x);
        assert!(x.times(&HowPolynomial::zero()).is_zero());
        assert_eq!(HowPolynomial::zero().to_string(), "0");
    }

    #[test]
    fn why_provenance_is_minimal() {
        // x + x·y: witness {x} subsumes {x, y}
        let x = HowPolynomial::var(r(1));
        let xy = x.times(&HowPolynomial::var(r(2)));
        let p = x.plus(&xy);
        let why = p.why();
        assert_eq!(why.len(), 1);
        assert!(why[0].contains(&r(1)));
        assert_eq!(why[0].len(), 1);
    }

    #[test]
    fn counting_evaluation() {
        let p = HowPolynomial::var(r(1))
            .plus(&HowPolynomial::var(r(2)))
            .plus(&HowPolynomial::var(r(2)));
        assert_eq!(p.count(), 3);
    }

    #[test]
    fn numeric_evaluation_recovers_sum() {
        // SUM over rows 0..3 with values 10, 20, 30
        let p = sum(&[r(0), r(1), r(2)]);
        let value = p.evaluate(&|id: RowId| (id.row as f64 + 1.0) * 10.0);
        assert_eq!(value, 60.0);
    }

    #[test]
    fn support_collects_all_vars() {
        let p = sum(&[r(0), r(1)]);
        let s = p.support();
        assert_eq!(s.len(), 2);
        assert!(s.contains(&r(0)));
    }

    #[test]
    fn span_expansion_is_canonical_and_folds_match() {
        // The lazy folds over spans attached per morsel agree exactly with
        // the polynomial of the concatenated witnesses.
        let m0 = [r(0), r(1), r(1)];
        let m1 = [r(2)];
        let m2 = [r(0), r(3)];
        for aggregated in [true, false] {
            let mut span = HowSpan::new(aggregated);
            span.attach(&m0);
            span.attach(&[]);
            span.attach(&m1);
            span.attach(&m2);
            assert_eq!(span.num_segments(), 3);
            assert_eq!(span.num_witnesses(), 6);
            let all: Vec<RowId> = m0.iter().chain(&m1).chain(&m2).copied().collect();
            let expanded = if aggregated { sum(&all) } else { product(&all) };
            assert_eq!(span.count(), expanded.count());
            let val = |id: RowId| id.row as f64 + 2.0;
            assert_eq!(span.evaluate(&val), expanded.evaluate(&val));
        }
        // empty span set = unit polynomial
        let empty = HowSpan::new(true);
        assert_eq!(empty.count(), HowPolynomial::one().count());
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.evaluate(&|_| 42.0), 1.0);
    }
}
