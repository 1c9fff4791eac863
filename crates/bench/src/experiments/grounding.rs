//! **E3** — P2 grounding: entity-linking accuracy with/without each signal,
//! and terminology-disambiguation accuracy with/without context.
//!
//! Expected shape: lexical-only linking falls for popular-but-wrong senses;
//! adding embeddings recovers them; disambiguation accuracy rises with
//! context length. Metrics: top-1 accuracy and MRR.

use crate::eval::mrr;
use crate::{row, Budget, Experiment, Table};
use cda_kg::linking::{Entity, Linker, LinkerConfig};
use cda_kg::vocab::{Concept, Vocabulary};

/// A benchmark of ambiguous mentions with gold entities and contexts.
fn linking_benchmark() -> (Linker, Vec<(&'static str, &'static str, &'static str)>) {
    let linker = Linker::new(
        vec![
            Entity::new(
                "labour_barometer",
                "Swiss Labour Market Barometer",
                vec!["barometer", "labour market barometer"],
                "monthly leading indicator survey labour market experts employment",
                40.0,
            ),
            Entity::new(
                "weather_barometer",
                "Barometer",
                vec!["barometer"],
                "instrument measuring atmospheric pressure weather meteorology",
                400.0,
            ),
            Entity::new(
                "mercury_element",
                "Mercury",
                vec!["mercury"],
                "chemical element metal liquid thermometer instrument",
                300.0,
            ),
            Entity::new(
                "mercury_planet",
                "Mercury",
                vec!["mercury", "planet mercury"],
                "smallest planet solar system orbit astronomy",
                350.0,
            ),
            Entity::new(
                "jaguar_animal",
                "Jaguar",
                vec!["jaguar"],
                "big cat feline predator rainforest animal",
                150.0,
            ),
            Entity::new(
                "jaguar_car",
                "Jaguar Cars",
                vec!["jaguar"],
                "british luxury car manufacturer vehicle automobile",
                500.0,
            ),
        ],
        128,
    );
    let cases = vec![
        ("barometer", "the labour market survey indicator for employment", "labour_barometer"),
        ("barometer", "atmospheric pressure is falling before the storm", "weather_barometer"),
        ("mercury", "the thermometer contains a silvery liquid metal element", "mercury_element"),
        ("mercury", "the smallest planet orbits closest to the sun", "mercury_planet"),
        ("jaguar", "the predator stalked through the rainforest", "jaguar_animal"),
        ("jaguar", "the luxury vehicle accelerates smoothly on the motorway", "jaguar_car"),
        ("barometer", "employment experts answer the monthly survey", "labour_barometer"),
        ("mercury", "astronomy students observed the orbit at dawn", "mercury_planet"),
    ];
    (linker, cases)
}

/// Run E3.
pub fn run(_: &Budget) -> Experiment {
    let mut e =
        Experiment::new("E3", "grounding: entity linking ablation + disambiguation in context");
    let (linker, cases) = linking_benchmark();
    let mut linking = Table::new(
        format!("entity linking, {} ambiguous mentions", cases.len()),
        &["signals", "top-1 acc", "mrr"],
    );
    for (label, config) in [
        ("lexical only", LinkerConfig { use_lexical: true, use_embedding: false, use_popularity: false }),
        ("lexical+pop", LinkerConfig { use_lexical: true, use_embedding: false, use_popularity: true }),
        ("embedding only", LinkerConfig { use_lexical: false, use_embedding: true, use_popularity: false }),
        ("lex+embed", LinkerConfig { use_lexical: true, use_embedding: true, use_popularity: false }),
        ("all signals", LinkerConfig::default()),
    ] {
        let mut correct = 0usize;
        let mut rankings = Vec::new();
        for (mention, context, gold) in &cases {
            let ranked: Vec<String> =
                linker.link(mention, context, config).into_iter().map(|c| c.entity_id).collect();
            if ranked.first().map(String::as_str) == Some(*gold) {
                correct += 1;
            }
            rankings.push(ranked);
        }
        let golds: Vec<&str> = cases.iter().map(|(_, _, gold)| *gold).collect();
        row!(linking; label, correct as f64 / cases.len() as f64, mrr(&golds, &rankings));
    }

    let mut vocab = Vocabulary::new();
    vocab.register(
        "barometer",
        Concept::new("swiss_labour_barometer", "monthly labour market survey indicator employment", vec!["employment"]),
    );
    vocab.register(
        "barometer",
        Concept::new("weather_barometer", "atmospheric pressure instrument weather", vec!["meteorology"]),
    );
    let mut terms = Table::new(
        "terminology disambiguation of \"barometer\" (vocabulary, varying context)",
        &["context", "top concept", "confidence"],
    );
    for context in [
        "",
        "survey",
        "employment survey",
        "monthly employment survey of the labour market",
    ] {
        let d = vocab.disambiguate("barometer", context);
        row!(terms; format!("{:?}", &context[..context.len().min(14)]), d[0].concept.id.as_str(),
            d[0].confidence);
    }
    e.tables = vec![linking, terms];
    e
}
