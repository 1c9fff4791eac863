//! Dictionary-encoded triple store with three access-path indexes.
//!
//! Strings are interned once into `u32` ids; triples are stored in three
//! `BTreeSet` permutations (SPO, POS, OSP) so that any pattern with a bound
//! prefix can be answered by a range scan — the classic layout of native RDF
//! stores, at laptop scale.

use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;

/// Interned identifier.
pub type Id = u32;

/// A string dictionary with stable ids.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    to_id: HashMap<String, Id>,
    to_str: Vec<String>,
}

impl Dictionary {
    /// Intern a string, returning its id (existing id if already present).
    pub fn intern(&mut self, s: &str) -> Id {
        if let Some(&id) = self.to_id.get(s) {
            return id;
        }
        let id = self.to_str.len() as Id;
        self.to_id.insert(s.to_owned(), id);
        self.to_str.push(s.to_owned());
        id
    }

    /// Look up an existing string's id.
    pub fn id(&self, s: &str) -> Option<Id> {
        self.to_id.get(s).copied()
    }

    /// Resolve an id back to its string.
    pub fn resolve(&self, id: Id) -> Option<&str> {
        self.to_str.get(id as usize).map(String::as_str)
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.to_str.len()
    }

    /// True if no strings are interned.
    pub fn is_empty(&self) -> bool {
        self.to_str.is_empty()
    }

    /// All interned strings in id order (id `i` is the `i`-th item).
    /// Re-interning them in this order into a fresh dictionary reproduces
    /// the id assignment exactly — the durable-storage codec relies on
    /// this for byte-exact round trips.
    pub fn strings(&self) -> impl Iterator<Item = &str> {
        self.to_str.iter().map(String::as_str)
    }
}

/// An encoded triple.
pub(crate) type Triple = (Id, Id, Id);

/// The triple store.
#[derive(Debug, Clone, Default)]
pub struct TripleStore {
    dict: Dictionary,
    spo: BTreeSet<(Id, Id, Id)>,
    pos: BTreeSet<(Id, Id, Id)>,
    osp: BTreeSet<(Id, Id, Id)>,
}

impl TripleStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a triple of strings; returns `true` if it was new.
    pub fn insert(&mut self, s: &str, p: &str, o: &str) -> bool {
        let s = self.dict.intern(s);
        let p = self.dict.intern(p);
        let o = self.dict.intern(o);
        self.insert_ids((s, p, o))
    }

    /// Insert an already-encoded triple.
    pub fn insert_ids(&mut self, t: Triple) -> bool {
        let (s, p, o) = t;
        let added = self.spo.insert((s, p, o));
        if added {
            self.pos.insert((p, o, s));
            self.osp.insert((o, s, p));
        }
        added
    }

    /// Remove a triple; returns `true` if it was present.
    pub fn remove(&mut self, s: &str, p: &str, o: &str) -> bool {
        let (Some(s), Some(p), Some(o)) = (self.dict.id(s), self.dict.id(p), self.dict.id(o))
        else {
            return false;
        };
        let removed = self.spo.remove(&(s, p, o));
        if removed {
            self.pos.remove(&(p, o, s));
            self.osp.remove(&(o, s, p));
        }
        removed
    }

    /// Whether the triple is present.
    pub fn contains(&self, s: &str, p: &str, o: &str) -> bool {
        match (self.dict.id(s), self.dict.id(p), self.dict.id(o)) {
            (Some(s), Some(p), Some(o)) => self.spo.contains(&(s, p, o)),
            _ => false,
        }
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True if the store has no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// The dictionary (for id/str conversions).
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Mutable dictionary access (interning terms for encoded queries).
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        &mut self.dict
    }

    /// All triples in SPO id order, without materializing a `Vec` (unlike
    /// `scan(None, None, None)`). Replaying them through
    /// [`TripleStore::insert_ids`] against a dictionary rebuilt from
    /// [`Dictionary::strings`] reconstructs the store exactly, indexes
    /// included.
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter().copied()
    }

    /// Scan triples matching a pattern of optional ids, using the best index.
    /// Returns decoded `(s, p, o)` id triples.
    pub fn scan(&self, s: Option<Id>, p: Option<Id>, o: Option<Id>) -> Vec<Triple> {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                if self.spo.contains(&(s, p, o)) {
                    vec![(s, p, o)]
                } else {
                    vec![]
                }
            }
            (Some(s), Some(p), None) => self
                .range(&self.spo, (s, p))
                .map(|&(a, b, c)| (a, b, c))
                .collect(),
            (Some(s), None, None) => self
                .range1(&self.spo, s)
                .map(|&(a, b, c)| (a, b, c))
                .collect(),
            (None, Some(p), Some(o)) => self
                .range(&self.pos, (p, o))
                .map(|&(p, o, s)| (s, p, o))
                .collect(),
            (None, Some(p), None) => self
                .range1(&self.pos, p)
                .map(|&(p, o, s)| (s, p, o))
                .collect(),
            (Some(s), None, Some(o)) => self
                .range(&self.osp, (o, s))
                .map(|&(o, s, p)| (s, p, o))
                .collect(),
            (None, None, Some(o)) => self
                .range1(&self.osp, o)
                .map(|&(o, s, p)| (s, p, o))
                .collect(),
            (None, None, None) => self.spo.iter().copied().collect(),
        }
    }

    /// Count matches without materializing (used for selectivity ordering).
    pub fn count(&self, s: Option<Id>, p: Option<Id>, o: Option<Id>) -> usize {
        self.count_capped(s, p, o, usize::MAX)
    }

    /// Count matches, stopping once `cap` is reached. Query planning only
    /// needs *relative* selectivity, so a small cap keeps estimation O(cap)
    /// instead of O(matches) — without it, re-estimating per backtrack node
    /// is quadratic on large stores.
    pub fn count_capped(
        &self,
        s: Option<Id>,
        p: Option<Id>,
        o: Option<Id>,
        cap: usize,
    ) -> usize {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => usize::from(self.spo.contains(&(s, p, o))),
            (Some(s), Some(p), None) => self.range(&self.spo, (s, p)).take(cap).count(),
            (Some(s), None, None) => self.range1(&self.spo, s).take(cap).count(),
            (None, Some(p), Some(o)) => self.range(&self.pos, (p, o)).take(cap).count(),
            (None, Some(p), None) => self.range1(&self.pos, p).take(cap).count(),
            (Some(s), None, Some(o)) => self.range(&self.osp, (o, s)).take(cap).count(),
            (None, None, Some(o)) => self.range1(&self.osp, o).take(cap).count(),
            (None, None, None) => self.spo.len().min(cap),
        }
    }

    fn range<'a>(
        &self,
        index: &'a BTreeSet<Triple>,
        prefix: (Id, Id),
    ) -> impl Iterator<Item = &'a Triple> {
        index.range((
            Bound::Included((prefix.0, prefix.1, 0)),
            Bound::Included((prefix.0, prefix.1, Id::MAX)),
        ))
    }

    fn range1<'a>(&self, index: &'a BTreeSet<Triple>, first: Id) -> impl Iterator<Item = &'a Triple> {
        index.range((
            Bound::Included((first, 0, 0)),
            Bound::Included((first, Id::MAX, Id::MAX)),
        ))
    }

    /// Decode and scan by strings (unknown strings → empty result).
    pub fn scan_str(&self, s: Option<&str>, p: Option<&str>, o: Option<&str>) -> Vec<(String, String, String)> {
        let enc = |x: Option<&str>| -> Option<Option<Id>> {
            match x {
                None => Some(None),
                Some(v) => self.dict.id(v).map(Some),
            }
        };
        let (Some(s), Some(p), Some(o)) = (enc(s), enc(p), enc(o)) else {
            return Vec::new();
        };
        self.scan(s, p, o)
            .into_iter()
            .map(|(a, b, c)| {
                (
                    self.dict.resolve(a).unwrap_or_default().to_owned(),
                    self.dict.resolve(b).unwrap_or_default().to_owned(),
                    self.dict.resolve(c).unwrap_or_default().to_owned(),
                )
            })
            .collect()
    }

    /// All objects reachable from `s` via `p` (one hop).
    pub fn objects(&self, s: &str, p: &str) -> Vec<String> {
        self.scan_str(Some(s), Some(p), None).into_iter().map(|(_, _, o)| o).collect()
    }

    /// All subjects that reach `o` via `p` (one hop, inverse).
    pub(crate) fn subjects(&self, p: &str, o: &str) -> Vec<String> {
        self.scan_str(None, Some(p), Some(o)).into_iter().map(|(s, _, _)| s).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TripleStore {
        let mut kg = TripleStore::new();
        kg.insert("zurich", "type", "Canton");
        kg.insert("geneva", "type", "Canton");
        kg.insert("zurich", "partOf", "switzerland");
        kg.insert("geneva", "partOf", "switzerland");
        kg.insert("barometer", "type", "Indicator");
        kg
    }

    #[test]
    fn dictionary_interning_is_stable() {
        let mut d = Dictionary::default();
        let a = d.intern("x");
        let b = d.intern("y");
        let a2 = d.intern("x");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.resolve(a), Some("x"));
        assert_eq!(d.id("y"), Some(b));
        assert_eq!(d.id("z"), None);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut kg = TripleStore::new();
        assert!(kg.insert("a", "b", "c"));
        assert!(!kg.insert("a", "b", "c"));
        assert_eq!(kg.len(), 1);
    }

    #[test]
    fn contains_and_remove() {
        let mut kg = sample();
        assert!(kg.contains("zurich", "type", "Canton"));
        assert!(!kg.contains("zurich", "type", "Indicator"));
        assert!(kg.remove("zurich", "type", "Canton"));
        assert!(!kg.contains("zurich", "type", "Canton"));
        assert!(!kg.remove("zurich", "type", "Canton"));
        assert!(!kg.remove("missing", "type", "Canton"));
    }

    #[test]
    fn scans_cover_all_patterns() {
        let kg = sample();
        let d = kg.dict();
        let ty = d.id("type").unwrap();
        let canton = d.id("Canton").unwrap();
        let zurich = d.id("zurich").unwrap();
        assert_eq!(kg.scan(None, Some(ty), Some(canton)).len(), 2);
        assert_eq!(kg.scan(Some(zurich), None, None).len(), 2);
        assert_eq!(kg.scan(Some(zurich), Some(ty), None).len(), 1);
        assert_eq!(kg.scan(None, None, Some(canton)).len(), 2);
        assert_eq!(kg.scan(Some(zurich), None, Some(canton)).len(), 1);
        assert_eq!(kg.scan(None, Some(ty), None).len(), 3);
        assert_eq!(kg.scan(None, None, None).len(), 5);
        assert_eq!(kg.scan(Some(zurich), Some(ty), Some(canton)).len(), 1);
    }

    #[test]
    fn counts_match_scans() {
        let kg = sample();
        let d = kg.dict();
        let ty = d.id("type");
        let canton = d.id("Canton");
        assert_eq!(kg.count(None, ty, canton), kg.scan(None, ty, canton).len());
        assert_eq!(kg.count(None, None, None), 5);
    }

    #[test]
    fn scan_str_with_unknown_term_is_empty() {
        let kg = sample();
        assert!(kg.scan_str(Some("atlantis"), None, None).is_empty());
        let rows = kg.scan_str(None, Some("partOf"), None);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|(_, p, o)| p == "partOf" && o == "switzerland"));
    }

    #[test]
    fn objects_and_subjects_helpers() {
        let kg = sample();
        assert_eq!(kg.objects("zurich", "partOf"), vec!["switzerland".to_owned()]);
        let mut subs = kg.subjects("type", "Canton");
        subs.sort();
        assert_eq!(subs, vec!["geneva".to_owned(), "zurich".to_owned()]);
    }
}
