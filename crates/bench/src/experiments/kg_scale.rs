//! **E12** — KG query and reasoning latency at scale, materialization vs
//! query-time inference.
//!
//! Expected shape: BGP queries stay sub-millisecond up to 10^6 triples
//! thanks to the index range scans; materialization pays a large one-off
//! cost and extra triples but answers `type?` lookups fastest; the
//! query-time reasoner trades per-query overhead for zero storage.

use crate::query::{Bgp, Pattern, Term};
use crate::{clock, row, Budget, Experiment, Table};
use cda_kg::reason::{materialize, Reasoner};
use cda_kg::TripleStore;
use cda_testkit::rng::StdRng;

/// Generate a synthetic KG: `n` entities across `classes` classes arranged
/// in a 4-deep taxonomy, each entity with `links` random relations.
fn build_kg(n: usize, classes: usize, links: usize, seed: u64) -> TripleStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kg = TripleStore::new();
    // taxonomy: class_i subClassOf class_{i/2}
    for c in 1..classes {
        kg.insert(&format!("class_{c}"), "subClassOf", &format!("class_{}", c / 2));
    }
    for e in 0..n {
        let c = rng.gen_range(0..classes);
        let entity = format!("e{e}");
        kg.insert(&entity, "type", &format!("class_{c}"));
        for _ in 0..links {
            let other = rng.gen_range(0..n);
            kg.insert(&entity, "relatedTo", &format!("e{other}"));
        }
    }
    kg
}

/// Run E12.
pub fn run(_: &Budget) -> Experiment {
    let mut e =
        Experiment::new("E12", "KG scale: BGP latency + materialization vs query-time reasoning");
    let mut bgp = Table::new(
        "BGP queries (32-class taxonomy, 2 links per entity)",
        &["entities", "triples", "1-pattern rows", "2-pattern rows", "3-pattern rows", "1-pattern",
            "2-pattern join", "3-pattern join"],
    );
    for n in [10_000usize, 100_000, 300_000] {
        let kg = build_kg(n, 32, 2, 5);
        let q1 = Bgp::new(vec![Pattern::new(
            Term::var("x"),
            Term::iri("type"),
            Term::iri("class_3"),
        )]);
        let q2 = Bgp::new(vec![
            Pattern::new(Term::var("x"), Term::iri("type"), Term::iri("class_3")),
            Pattern::new(Term::var("x"), Term::iri("relatedTo"), Term::var("y")),
        ]);
        let q3 = Bgp::new(vec![
            Pattern::new(Term::var("x"), Term::iri("type"), Term::iri("class_3")),
            Pattern::new(Term::var("x"), Term::iri("relatedTo"), Term::var("y")),
            Pattern::new(Term::var("y"), Term::iri("type"), Term::var("c")),
        ]);
        let (r1, t1) = clock(3, || q1.evaluate(&kg));
        let (r2, t2) = clock(3, || q2.evaluate(&kg));
        let (r3, t3) = clock(3, || q3.evaluate(&kg));
        row!(bgp; n, kg.len(), r1.len(), r2.len(), r3.len(), t1, t2, t3);
    }

    let mut inference = Table::new(
        "inference strategies (100k entities, 32-class taxonomy)",
        &["strategy", "extra triples", "setup time", "per-query time"],
    );
    let base = build_kg(100_000, 32, 1, 9);
    // materialization
    let mut mat = base.clone();
    let before = mat.len();
    let (added, setup) = clock(1, || materialize(&mut mat));
    let (_, q_mat) = clock(5, || mat.objects("e42", "type"));
    let extra = format!("{added} (+{:.0}%)", 100.0 * added as f64 / before as f64);
    row!(inference; "materialize", extra, setup, q_mat);
    // query-time reasoning
    let (reasoner, setup) = clock(1, || Reasoner::new(&base));
    let (_, q_virt) = clock(5, || reasoner.types_of("e42"));
    row!(inference; "query-time", "0", setup, q_virt);
    e.tables = vec![bgp, inference];

    let mut a = mat.objects("e42", "type");
    let mut b = reasoner.types_of("e42");
    a.sort();
    b.sort();
    e.gate(
        "materialization and query-time reasoning infer the same types for e42",
        format!("{} vs {} types", a.len(), b.len()),
        a == b,
    );
    e
}
