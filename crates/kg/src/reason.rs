//! RDFS-style inference.
//!
//! Supports the core entailment rules a grounding layer needs:
//!
//! * `subClassOf` transitivity and type inheritance
//!   (`x type C, C subClassOf D ⊢ x type D`),
//! * `subPropertyOf` transitivity and property inheritance
//!   (`x p y, p subPropertyOf q ⊢ x q y`),
//! * `domain` / `range` typing (`p domain C, x p y ⊢ x type C`).
//!
//! Two execution strategies, compared by experiment E12:
//! [`materialize`] computes the closure up front (fast queries, slow updates,
//! more memory) while [`Reasoner`] expands at query time (no storage
//! overhead, slower per query).

use crate::store::TripleStore;
use std::collections::{HashMap, HashSet, VecDeque};

/// Well-known predicate names (kept as plain strings for readability).
pub mod terms {
    /// `rdf:type`.
    pub const TYPE: &str = "type";
    /// `rdfs:subClassOf`.
    pub(crate) const SUBCLASS: &str = "subClassOf";
    /// `rdfs:subPropertyOf`.
    pub(crate) const SUBPROP: &str = "subPropertyOf";
    /// `rdfs:domain`.
    pub(crate) const DOMAIN: &str = "domain";
    /// `rdfs:range`.
    pub(crate) const RANGE: &str = "range";
}

/// Compute the transitive closure of a `child -> parents` relation.
fn transitive_parents(direct: &HashMap<String, Vec<String>>, start: &str) -> Vec<String> {
    let mut seen: HashSet<String> = HashSet::new();
    let mut queue: VecDeque<String> = VecDeque::new();
    queue.push_back(start.to_owned());
    let mut out = Vec::new();
    while let Some(cur) = queue.pop_front() {
        if let Some(parents) = direct.get(&cur) {
            for p in parents {
                if seen.insert(p.clone()) {
                    out.push(p.clone());
                    queue.push_back(p.clone());
                }
            }
        }
    }
    out
}

fn direct_map(kg: &TripleStore, pred: &str) -> HashMap<String, Vec<String>> {
    let mut map: HashMap<String, Vec<String>> = HashMap::new();
    for (s, _, o) in kg.scan_str(None, Some(pred), None) {
        map.entry(s).or_default().push(o);
    }
    map
}

/// Materialize the RDFS closure into the store (returns the number of
/// inferred triples added). Applies rules to a fixpoint.
pub fn materialize(kg: &mut TripleStore) -> usize {
    let mut added = 0usize;
    loop {
        let mut new_triples: Vec<(String, String, String)> = Vec::new();
        let subclass = direct_map(kg, terms::SUBCLASS);
        let subprop = direct_map(kg, terms::SUBPROP);
        // subClassOf transitivity
        for child in subclass.keys() {
            for ancestor in transitive_parents(&subclass, child) {
                if !kg.contains(child, terms::SUBCLASS, &ancestor) {
                    new_triples.push((child.clone(), terms::SUBCLASS.to_owned(), ancestor));
                }
            }
        }
        // subPropertyOf transitivity
        for child in subprop.keys() {
            for ancestor in transitive_parents(&subprop, child) {
                if !kg.contains(child, terms::SUBPROP, &ancestor) {
                    new_triples.push((child.clone(), terms::SUBPROP.to_owned(), ancestor));
                }
            }
        }
        // type inheritance
        for (x, _, c) in kg.scan_str(None, Some(terms::TYPE), None) {
            for ancestor in transitive_parents(&subclass, &c) {
                if !kg.contains(&x, terms::TYPE, &ancestor) {
                    new_triples.push((x.clone(), terms::TYPE.to_owned(), ancestor));
                }
            }
        }
        // property inheritance
        for (p, parents) in &subprop {
            for (s, _, o) in kg.scan_str(None, Some(p), None) {
                for q in parents {
                    if !kg.contains(&s, q, &o) {
                        new_triples.push((s.clone(), q.clone(), o.clone()));
                    }
                }
            }
        }
        // domain / range typing
        for (p, _, c) in kg.scan_str(None, Some(terms::DOMAIN), None) {
            for (s, _, _) in kg.scan_str(None, Some(&p), None) {
                if !kg.contains(&s, terms::TYPE, &c) {
                    new_triples.push((s.clone(), terms::TYPE.to_owned(), c.clone()));
                }
            }
        }
        for (p, _, c) in kg.scan_str(None, Some(terms::RANGE), None) {
            for (_, _, o) in kg.scan_str(None, Some(&p), None) {
                if !kg.contains(&o, terms::TYPE, &c) {
                    new_triples.push((o.clone(), terms::TYPE.to_owned(), c.clone()));
                }
            }
        }
        new_triples.sort();
        new_triples.dedup();
        if new_triples.is_empty() {
            return added;
        }
        for (s, p, o) in new_triples {
            if kg.insert(&s, &p, &o) {
                added += 1;
            }
        }
    }
}

/// Query-time reasoner over a base store (no materialization).
#[derive(Debug)]
pub struct Reasoner<'a> {
    kg: &'a TripleStore,
    subclass: HashMap<String, Vec<String>>,
    subprop: HashMap<String, Vec<String>>,
}

impl<'a> Reasoner<'a> {
    /// Wrap a store; the sub-class/property hierarchies are snapshotted.
    pub fn new(kg: &'a TripleStore) -> Self {
        Self {
            kg,
            subclass: direct_map(kg, terms::SUBCLASS),
            subprop: direct_map(kg, terms::SUBPROP),
        }
    }

    /// All classes of `x`, including inherited ones.
    pub fn types_of(&self, x: &str) -> Vec<String> {
        let mut out: Vec<String> = self.kg.objects(x, terms::TYPE);
        let direct = out.clone();
        for c in &direct {
            for ancestor in transitive_parents(&self.subclass, c) {
                if !out.contains(&ancestor) {
                    out.push(ancestor);
                }
            }
        }
        // domain/range typing
        for (p, _, c) in self.kg.scan_str(None, Some(terms::DOMAIN), None) {
            if !self.kg.objects(x, &p).is_empty() && !out.contains(&c) {
                out.push(c);
            }
        }
        for (p, _, c) in self.kg.scan_str(None, Some(terms::RANGE), None) {
            if !self.kg.subjects(&p, x).is_empty() && !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }

    /// Whether `x` is an instance of `class` under RDFS entailment.
    pub fn is_a(&self, x: &str, class: &str) -> bool {
        self.types_of(x).iter().any(|c| c == class)
    }

    /// All instances of `class`, including instances of subclasses.
    pub fn instances_of(&self, class: &str) -> Vec<String> {
        // collect class + all descendants
        let mut classes = vec![class.to_owned()];
        // build reverse map parent -> children
        let mut children: HashMap<&str, Vec<&str>> = HashMap::new();
        for (c, parents) in &self.subclass {
            for p in parents {
                children.entry(p.as_str()).or_default().push(c.as_str());
            }
        }
        let mut queue = vec![class];
        let mut seen: HashSet<&str> = HashSet::new();
        while let Some(cur) = queue.pop() {
            if let Some(kids) = children.get(cur) {
                for &k in kids {
                    if seen.insert(k) {
                        classes.push(k.to_owned());
                        queue.push(k);
                    }
                }
            }
        }
        let mut out: Vec<String> = Vec::new();
        for c in &classes {
            for x in self.kg.subjects(terms::TYPE, c) {
                if !out.contains(&x) {
                    out.push(x);
                }
            }
        }
        // domain/range-derived instances
        for (p, _, c) in self.kg.scan_str(None, Some(terms::DOMAIN), None) {
            if classes.contains(&c) {
                for (s, _, _) in self.kg.scan_str(None, Some(&p), None) {
                    if !out.contains(&s) {
                        out.push(s);
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// Objects of `x` under `p` or any sub-property of `p`.
    pub fn objects_via(&self, x: &str, p: &str) -> Vec<String> {
        // collect p + descendants in the subPropertyOf hierarchy
        let mut preds = vec![p.to_owned()];
        let mut children: HashMap<&str, Vec<&str>> = HashMap::new();
        for (c, parents) in &self.subprop {
            for parent in parents {
                children.entry(parent.as_str()).or_default().push(c.as_str());
            }
        }
        let mut queue = vec![p];
        let mut seen: HashSet<&str> = HashSet::new();
        while let Some(cur) = queue.pop() {
            if let Some(kids) = children.get(cur) {
                for &k in kids {
                    if seen.insert(k) {
                        preds.push(k.to_owned());
                        queue.push(k);
                    }
                }
            }
        }
        let mut out = Vec::new();
        for q in &preds {
            for o in self.kg.objects(x, q) {
                if !out.contains(&o) {
                    out.push(o);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn taxonomy() -> TripleStore {
        let mut kg = TripleStore::new();
        kg.insert("Canton", "subClassOf", "Region");
        kg.insert("Region", "subClassOf", "Place");
        kg.insert("zurich", "type", "Canton");
        kg.insert("employs", "subPropertyOf", "relatedTo");
        kg.insert("acme", "employs", "alice");
        kg.insert("locatedIn", "domain", "Organization");
        kg.insert("locatedIn", "range", "Place");
        kg.insert("acme", "locatedIn", "zurich");
        kg
    }

    #[test]
    fn materialization_adds_inferred_triples() {
        let mut kg = taxonomy();
        let before = kg.len();
        let added = materialize(&mut kg);
        assert!(added > 0);
        assert_eq!(kg.len(), before + added);
        assert!(kg.contains("zurich", "type", "Region"));
        assert!(kg.contains("zurich", "type", "Place"));
        assert!(kg.contains("Canton", "subClassOf", "Place"));
        assert!(kg.contains("acme", "relatedTo", "alice"));
        assert!(kg.contains("acme", "type", "Organization"));
    }

    #[test]
    fn materialization_reaches_fixpoint() {
        let mut kg = taxonomy();
        materialize(&mut kg);
        let again = materialize(&mut kg);
        assert_eq!(again, 0);
    }

    #[test]
    fn query_time_reasoner_matches_materialization() {
        let mut materialized = taxonomy();
        materialize(&mut materialized);
        let base = taxonomy();
        let r = Reasoner::new(&base);
        // types_of agrees with the materialized store
        let mut virt = r.types_of("zurich");
        virt.sort();
        let mut mat = materialized.objects("zurich", "type");
        mat.sort();
        assert_eq!(virt, mat);
        assert!(r.is_a("zurich", "Place"));
        assert!(!r.is_a("zurich", "Organization"));
    }

    #[test]
    fn instances_include_subclass_members() {
        let base = taxonomy();
        let r = Reasoner::new(&base);
        let insts = r.instances_of("Place");
        assert!(insts.contains(&"zurich".to_owned()));
        // acme is an Organization (domain rule), not a Place
        assert!(!insts.contains(&"acme".to_owned()));
        assert_eq!(r.instances_of("Organization"), vec!["acme".to_owned()]);
    }

    #[test]
    fn objects_via_subproperties() {
        let base = taxonomy();
        let r = Reasoner::new(&base);
        assert_eq!(r.objects_via("acme", "relatedTo"), vec!["alice".to_owned()]);
        assert_eq!(r.objects_via("acme", "employs"), vec!["alice".to_owned()]);
    }

    #[test]
    fn range_rule_types_objects() {
        let base = taxonomy();
        let r = Reasoner::new(&base);
        // zurich is typed Place also via range(locatedIn)
        assert!(r.types_of("zurich").contains(&"Place".to_owned()));
    }

    #[test]
    fn cycle_in_hierarchy_terminates() {
        let mut kg = TripleStore::new();
        kg.insert("A", "subClassOf", "B");
        kg.insert("B", "subClassOf", "A");
        kg.insert("x", "type", "A");
        let added = materialize(&mut kg);
        assert!(added >= 1);
        assert!(kg.contains("x", "type", "B"));
        let r = Reasoner::new(&kg);
        assert!(r.is_a("x", "B"));
    }
}
