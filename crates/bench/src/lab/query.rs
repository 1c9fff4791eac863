//! Basic graph pattern (BGP) queries — a small SPARQL core.
//!
//! A [`Bgp`] is a conjunction of triple patterns over variables and IRIs.
//! Evaluation orders patterns greedily by estimated selectivity given the
//! bindings accumulated so far (the standard heuristic of native RDF
//! engines), then backtracks. Experiment E12 runs it over `cda_kg`'s
//! [`TripleStore`], with and without materialized inference.
//!
//! ```
//! use cda_bench::query::{Bgp, Pattern, Term};
//! use cda_kg::store::TripleStore;
//!
//! let mut kg = TripleStore::new();
//! kg.insert("barometer", "type", "Indicator");
//! kg.insert("barometer", "measures", "labour_market");
//! let bgp = Bgp::new(vec![
//!     Pattern::new(Term::var("x"), Term::iri("type"), Term::iri("Indicator")),
//!     Pattern::new(Term::var("x"), Term::iri("measures"), Term::var("what")),
//! ]);
//! let rows = bgp.evaluate(&kg);
//! assert_eq!(rows.len(), 1);
//! assert_eq!(rows[0].get("what"), Some("labour_market"));
//! ```

use cda_kg::store::{Id, TripleStore};
use std::collections::HashMap;

/// A term in a pattern: either a variable or a concrete IRI/literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A named variable.
    Var(String),
    /// A concrete value (IRI or literal, both interned the same way).
    Iri(String),
}

impl Term {
    /// Variable constructor.
    pub fn var(name: impl Into<String>) -> Self {
        Term::Var(name.into())
    }

    /// Concrete-term constructor.
    pub fn iri(value: impl Into<String>) -> Self {
        Term::Iri(value.into())
    }

    /// The variable name, if this is a variable.
    pub(crate) fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            Term::Iri(_) => None,
        }
    }
}

/// A triple pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// Subject position.
    pub s: Term,
    /// Predicate position.
    pub p: Term,
    /// Object position.
    pub o: Term,
}

impl Pattern {
    /// Construct a pattern.
    pub fn new(s: Term, p: Term, o: Term) -> Self {
        Self { s, p, o }
    }

    fn resolve(&self, kg: &TripleStore, bindings: &HashMap<String, Id>) -> [Option<Id>; 3] {
        let lookup = |t: &Term| -> Option<Id> {
            match t {
                Term::Iri(v) => kg.dict().id(v),
                Term::Var(v) => bindings.get(v).copied(),
            }
        };
        [lookup(&self.s), lookup(&self.p), lookup(&self.o)]
    }

    /// Whether a concrete term of this pattern is missing from the
    /// dictionary (pattern can never match).
    fn has_unknown_iri(&self, kg: &TripleStore) -> bool {
        let unknown = |t: &Term| matches!(t, Term::Iri(v) if kg.dict().id(v).is_none());
        unknown(&self.s) || unknown(&self.p) || unknown(&self.o)
    }
}

/// One solution: variable name → bound value (decoded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    bindings: Vec<(String, String)>,
}

impl Row {
    /// The value bound to `var`, if any.
    pub fn get(&self, var: &str) -> Option<&str> {
        self.bindings.iter().find(|(k, _)| k == var).map(|(_, v)| v.as_str())
    }
}

/// A basic graph pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bgp {
    patterns: Vec<Pattern>,
}

impl Bgp {
    /// Construct from patterns.
    pub fn new(patterns: Vec<Pattern>) -> Self {
        Self { patterns }
    }

    /// The patterns.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Evaluate against a store, returning all solutions.
    pub fn evaluate(&self, kg: &TripleStore) -> Vec<Row> {
        if self.patterns.is_empty() {
            return Vec::new();
        }
        // If any pattern mentions an IRI the store has never seen, no match.
        if self.patterns.iter().any(|p| p.has_unknown_iri(kg)) {
            return Vec::new();
        }
        let mut results = Vec::new();
        let mut bindings: HashMap<String, Id> = HashMap::new();
        let mut order: Vec<usize> = Vec::new();
        let mut remaining: Vec<usize> = (0..self.patterns.len()).collect();
        self.backtrack(kg, &mut bindings, &mut order, &mut remaining, &mut results);
        results
    }

    fn backtrack(
        &self,
        kg: &TripleStore,
        bindings: &mut HashMap<String, Id>,
        order: &mut Vec<usize>,
        remaining: &mut Vec<usize>,
        results: &mut Vec<Row>,
    ) {
        if remaining.is_empty() {
            let mut out = Vec::with_capacity(bindings.len());
            // deterministic order: first appearance across patterns
            for idx in order.iter() {
                let p = &self.patterns[*idx];
                for t in [&p.s, &p.p, &p.o] {
                    if let Some(v) = t.as_var() {
                        if !out.iter().any(|(k, _): &(String, String)| k == v) {
                            if let Some(&id) = bindings.get(v) {
                                out.push((
                                    v.to_owned(),
                                    kg.dict().resolve(id).unwrap_or_default().to_owned(),
                                ));
                            }
                        }
                    }
                }
            }
            results.push(Row { bindings: out });
            return;
        }
        // Pick the most selective remaining pattern under current bindings.
        // Counting is capped: only the relative order matters, and uncapped
        // counting at every backtrack node would be quadratic.
        const SELECTIVITY_CAP: usize = 64;
        let Some((pick_pos, _)) = remaining
            .iter()
            .enumerate()
            .map(|(pos, &idx)| {
                let [s, p, o] = self.patterns[idx].resolve(kg, bindings);
                (pos, kg.count_capped(s, p, o, SELECTIVITY_CAP))
            })
            .min_by_key(|&(_, count)| count)
        else {
            return; // no remaining patterns (guarded above; defensive)
        };
        let idx = remaining.swap_remove(pick_pos);
        order.push(idx);
        let pattern = &self.patterns[idx];
        let [s, p, o] = pattern.resolve(kg, bindings);
        for (ts, tp, to) in kg.scan(s, p, o) {
            let mut added: Vec<String> = Vec::new();
            let mut ok = true;
            for (term, value) in [(&pattern.s, ts), (&pattern.p, tp), (&pattern.o, to)] {
                if let Some(v) = term.as_var() {
                    match bindings.get(v) {
                        Some(&bound) if bound != value => {
                            ok = false;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            bindings.insert(v.to_owned(), value);
                            added.push(v.to_owned());
                        }
                    }
                }
            }
            if ok {
                self.backtrack(kg, bindings, order, remaining, results);
            }
            for v in added {
                bindings.remove(&v);
            }
        }
        order.pop();
        remaining.push(idx);
        let last = remaining.len() - 1;
        remaining.swap(pick_pos.min(last), last);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TripleStore {
        let mut kg = TripleStore::new();
        for (s, p, o) in [
            ("zurich", "type", "Canton"),
            ("geneva", "type", "Canton"),
            ("zurich", "partOf", "switzerland"),
            ("geneva", "partOf", "switzerland"),
            ("barometer", "type", "Indicator"),
            ("barometer", "measures", "labour_market"),
            ("unemployment_rate", "type", "Indicator"),
            ("unemployment_rate", "measures", "labour_market"),
            ("gdp", "type", "Indicator"),
            ("gdp", "measures", "economy"),
        ] {
            kg.insert(s, p, o);
        }
        kg
    }

    #[test]
    fn single_pattern_query() {
        let kg = sample();
        let bgp = Bgp::new(vec![Pattern::new(
            Term::var("x"),
            Term::iri("type"),
            Term::iri("Canton"),
        )]);
        let mut got: Vec<String> =
            bgp.evaluate(&kg).iter().map(|r| r.get("x").unwrap().to_owned()).collect();
        got.sort();
        assert_eq!(got, vec!["geneva", "zurich"]);
    }

    #[test]
    fn join_across_patterns() {
        let kg = sample();
        let bgp = Bgp::new(vec![
            Pattern::new(Term::var("i"), Term::iri("type"), Term::iri("Indicator")),
            Pattern::new(Term::var("i"), Term::iri("measures"), Term::iri("labour_market")),
        ]);
        let mut got: Vec<String> =
            bgp.evaluate(&kg).iter().map(|r| r.get("i").unwrap().to_owned()).collect();
        got.sort();
        assert_eq!(got, vec!["barometer", "unemployment_rate"]);
    }

    #[test]
    fn variable_in_predicate_position() {
        let kg = sample();
        let bgp = Bgp::new(vec![Pattern::new(
            Term::iri("barometer"),
            Term::var("p"),
            Term::var("o"),
        )]);
        let rows = bgp.evaluate(&kg);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn shared_variable_must_unify() {
        let kg = sample();
        // ?x partOf ?y and ?x type Indicator: no indicator is partOf anything
        let bgp = Bgp::new(vec![
            Pattern::new(Term::var("x"), Term::iri("partOf"), Term::var("y")),
            Pattern::new(Term::var("x"), Term::iri("type"), Term::iri("Indicator")),
        ]);
        assert!(bgp.evaluate(&kg).is_empty());
    }

    #[test]
    fn three_pattern_chain() {
        let kg = sample();
        let bgp = Bgp::new(vec![
            Pattern::new(Term::var("c"), Term::iri("type"), Term::iri("Canton")),
            Pattern::new(Term::var("c"), Term::iri("partOf"), Term::var("country")),
            Pattern::new(Term::var("i"), Term::iri("measures"), Term::var("domain")),
        ]);
        // 2 cantons × 3 indicator-measure pairs = 6 solutions (cross product)
        assert_eq!(bgp.evaluate(&kg).len(), 6);
    }

    #[test]
    fn unknown_iri_yields_empty() {
        let kg = sample();
        let bgp = Bgp::new(vec![Pattern::new(
            Term::var("x"),
            Term::iri("type"),
            Term::iri("Dragon"),
        )]);
        assert!(bgp.evaluate(&kg).is_empty());
    }

    #[test]
    fn empty_bgp_is_empty() {
        let kg = sample();
        assert!(Bgp::new(vec![]).evaluate(&kg).is_empty());
        // an all-variable pattern over an empty store matches nothing
        let any = Bgp::new(vec![Pattern::new(Term::var("s"), Term::var("p"), Term::var("o"))]);
        assert!(any.evaluate(&TripleStore::new()).is_empty());
    }

    #[test]
    fn row_accessors() {
        let kg = sample();
        let bgp = Bgp::new(vec![Pattern::new(
            Term::iri("gdp"),
            Term::iri("measures"),
            Term::var("what"),
        )]);
        let rows = bgp.evaluate(&kg);
        assert_eq!(rows[0].get("what"), Some("economy"));
        assert_eq!(rows[0].get("missing"), None);
        assert_eq!(rows[0].bindings.len(), 1);
    }

    #[test]
    fn repeated_variable_within_one_pattern() {
        let mut kg = sample();
        kg.insert("self", "sameAs", "self");
        let bgp = Bgp::new(vec![Pattern::new(
            Term::var("x"),
            Term::iri("sameAs"),
            Term::var("x"),
        )]);
        let rows = bgp.evaluate(&kg);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("x"), Some("self"));
    }
}
