//! The Figure-1 demo domain: Swiss labour-market datasets, vocabulary,
//! entities, and knowledge graph.
//!
//! The paper's running example cannot ship the real arbeit.swiss data, so
//! this module generates seeded synthetic stand-ins with the same *shape*:
//! an employment-type distribution table, the monthly Labour Market
//! Barometer as a time series with a genuine period-6 seasonal component
//! (the property the Figure-1 answer reports), a wage table, and an
//! off-topic distractor dataset that discovery must rank below the
//! labour-market sources.

use crate::catalog::{Dataset, DatasetCatalog};
use crate::reliability::CdaConfig;
use crate::rot::Freshness;
use crate::session::Session;
use crate::world::WorldSnapshot;
use std::sync::Arc;
use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_kg::linking::{Entity, Linker};
use cda_kg::vocab::{Concept, Vocabulary};
use cda_kg::TripleStore;
use cda_nlmodel::lm::SimLmConfig;
use cda_timeseries::TimeSeries;
use cda_testkit::rng::StdRng;

/// The four user turns of the Figure-1 conversation.
pub const FIGURE1_TURNS: [&str; 4] = [
    "Give me an overview of the working force in Switzerland",
    "What is the Swiss workforce barometer?",
    "I am interested in the barometer",
    "Can you please give me the seasonality insights, such as overall trend",
];

/// Swiss cantons used by the demo tables.
pub const CANTONS: [&str; 6] = ["ZH", "GE", "VD", "BE", "TI", "SG"];

/// Employment types of the distribution table.
pub const EMPLOYMENT_TYPES: [&str; 3] = ["full_time", "part_time", "self_employed"];

/// Economic sectors of the wage table.
pub(crate) const SECTORS: [&str; 4] = ["it", "finance", "health", "construction"];

/// Build the employment-type distribution table (`canton, type, year,
/// employees`).
#[expect(clippy::expect_used, reason = "literal data: the static schema matches its columns")]
pub fn employment_table(seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cantons = Vec::new();
    let mut types = Vec::new();
    let mut years = Vec::new();
    let mut employees = Vec::new();
    for canton in CANTONS {
        for ty in EMPLOYMENT_TYPES {
            for year in 2020..=2024 {
                cantons.push(canton);
                types.push(ty);
                years.push(year);
                let base = match ty {
                    "full_time" => 400_000,
                    "part_time" => 150_000,
                    _ => 60_000,
                };
                employees.push(base / 6 + rng.gen_range(-5_000..5_000));
            }
        }
    }
    Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str).with_description("two-letter canton code"),
            Field::new("type", DataType::Str).with_description("employment type"),
            Field::new("year", DataType::Int).with_description("reference year"),
            Field::new("employees", DataType::Int)
                .with_description("number of employees older than 15"),
        ]),
        vec![
            Column::from_strs(&cantons),
            Column::from_strs(&types),
            Column::from_ints(&years),
            Column::from_ints(&employees),
        ],
    )
    .expect("static schema matches columns")
}

/// Build the wage table (`canton, sector, median_wage`).
#[expect(clippy::expect_used, reason = "literal data: the static schema matches its columns")]
pub fn wage_table(seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFACE);
    let mut cantons = Vec::new();
    let mut sectors = Vec::new();
    let mut wages = Vec::new();
    for canton in CANTONS {
        for sector in SECTORS {
            cantons.push(canton);
            sectors.push(sector);
            let base = match sector {
                "it" => 9_200.0,
                "finance" => 10_100.0,
                "health" => 7_300.0,
                _ => 6_400.0,
            };
            wages.push(base + rng.gen_range(-600.0..600.0));
        }
    }
    Table::from_columns(
        Schema::new(vec![
            Field::new("canton", DataType::Str),
            Field::new("sector", DataType::Str),
            Field::new("median_wage", DataType::Float)
                .with_description("median gross monthly wage in CHF"),
        ]),
        vec![
            Column::from_strs(&cantons),
            Column::from_strs(&sectors),
            Column::from_floats(&wages),
        ],
    )
    .expect("static schema matches columns")
}

/// The barometer series: 13 years of monthly observations with a genuine
/// period-6 seasonal component (amplitude 5, slight upward trend).
pub fn barometer_series(seed: u64) -> TimeSeries {
    TimeSeries::synthetic_seasonal(156, 6, 5.0, 0.05, 0.5, seed ^ 0xBAB0)
}

/// The barometer as a SQL-visible table (`month, value`).
#[expect(clippy::expect_used, reason = "literal data: the static schema matches its columns")]
pub(crate) fn barometer_table(series: &TimeSeries) -> Table {
    Table::from_columns(
        Schema::new(vec![
            Field::new("month", DataType::Timestamp).with_description("month index"),
            Field::new("value", DataType::Float).with_description("barometer value"),
        ]),
        vec![
            Column::from_timestamps(series.timestamps()),
            Column::from_floats(series.values()),
        ],
    )
    .expect("static schema matches columns")
}

/// Build the demo dataset catalog.
pub fn demo_catalog(seed: u64) -> DatasetCatalog {
    let mut catalog = DatasetCatalog::new();
    #[expect(clippy::expect_used, reason = "a fresh catalog and unique literal names")]
    catalog
        .register(Dataset {
            name: "employment_by_type".into(),
            description: "the employment type distribution for the employees older than 15 \
                          years old"
                .into(),
            source_url: "https://www.bfs.admin.ch/bfs/en/home/statistics/work-income.html".into(),
            table: Some(employment_table(seed)),
            series: None,
            keywords: vec![
                "employment".into(),
                "workforce".into(),
                "labour".into(),
                "jobs".into(),
                "distribution".into(),
            ],
            freshness: Freshness::static_data(),
        })
        .expect("fresh catalog");
    let series = barometer_series(seed);
    #[expect(clippy::expect_used, reason = "a fresh catalog and unique literal names")]
    catalog
        .register(Dataset {
            name: "labour_barometer".into(),
            description: "the Swiss Labour Market Barometer, a monthly leading indicator based \
                          on a survey of labour market experts from selected employment centers \
                          in 22 cantons"
                .into(),
            source_url:
                "https://www.arbeit.swiss/secoalv/en/home/menue/institutionen-medien/schweizer-arbeitsmarktbarometer.html"
                    .into(),
            table: Some(barometer_table(&series)),
            series: Some(series),
            keywords: vec![
                "barometer".into(),
                "labour".into(),
                "indicator".into(),
                "monthly".into(),
                "survey".into(),
            ],
            freshness: Freshness::static_data(),
        })
        .expect("fresh catalog");
    #[expect(clippy::expect_used, reason = "a fresh catalog and unique literal names")]
    catalog
        .register(Dataset {
            name: "wage_stats".into(),
            description: "median gross monthly wages by canton and economic sector".into(),
            source_url: "https://www.bfs.admin.ch/bfs/en/home/statistics/wages.html".into(),
            table: Some(wage_table(seed)),
            series: None,
            keywords: vec!["wage".into(), "salary".into(), "income".into(), "sector".into()],
            freshness: Freshness::static_data(),
        })
        .expect("fresh catalog");
    #[expect(clippy::expect_used, reason = "a fresh catalog and unique literal names")]
    catalog
        .register(Dataset {
            name: "chocolate_exports".into(),
            description: "chocolate export volumes by destination country and year".into(),
            source_url: "https://www.chocosuisse.ch/en/statistics".into(),
            table: None,
            series: None,
            keywords: vec!["chocolate".into(), "export".into(), "trade".into()],
            freshness: Freshness::static_data(),
        })
        .expect("fresh catalog");
    catalog
}

/// Build the demo vocabulary (P2 grounding).
pub fn demo_vocabulary() -> Vocabulary {
    let mut vocab = Vocabulary::new();
    let labour = Concept::new(
        "labour_market",
        "people available for employment and the labour market of a country",
        vec!["employment", "labour"],
    );
    for term in ["working force", "workforce", "work force", "labour market", "labor market"] {
        vocab.register(term, labour.clone());
    }
    vocab.register(
        "barometer",
        Concept::new(
            "swiss_labour_barometer",
            "monthly leading indicator based on a survey of labour market experts",
            vec!["employment", "labour"],
        ),
    );
    vocab.register(
        "barometer",
        Concept::new(
            "weather_barometer",
            "instrument measuring atmospheric pressure for weather forecasting",
            vec!["meteorology", "weather"],
        ),
    );
    vocab.register(
        "wages",
        Concept::new("wage_level", "gross monthly pay of employees", vec!["income", "wage"]),
    );
    vocab
}

/// Build the demo entity linker (entity ids that match dataset names link
/// directly to the catalog).
pub fn demo_linker() -> Linker {
    Linker::new(
        vec![
            Entity::new(
                "labour_barometer",
                "Swiss Labour Market Barometer",
                vec!["barometer", "labour market barometer", "workforce barometer", "swiss barometer"],
                "monthly leading indicator survey labour market experts employment switzerland \
                 workforce cantons",
                60.0,
            ),
            Entity::new(
                "employment_by_type",
                "Employment by Type",
                vec!["employment statistics", "employment type distribution", "employment data"],
                "employment type distribution employees older than 15 labour workforce \
                 statistics switzerland",
                45.0,
            ),
            Entity::new(
                "wage_stats",
                "Wage Statistics",
                vec!["wages", "salary statistics", "wage data"],
                "median gross monthly wages canton sector income",
                30.0,
            ),
            Entity::new(
                "weather_barometer",
                "Barometer",
                vec![],
                "instrument measuring atmospheric pressure weather meteorology forecast",
                200.0,
            ),
        ],
        128,
    )
}

/// Build the demo knowledge graph (with an RDFS-ish taxonomy, so reasoning
/// experiments have structure to walk).
pub fn demo_kg() -> TripleStore {
    let mut kg = TripleStore::new();
    for (s, p, o) in [
        ("Indicator", "subClassOf", "Dataset"),
        ("Statistics", "subClassOf", "Dataset"),
        ("labour_barometer", "type", "Indicator"),
        ("employment_by_type", "type", "Statistics"),
        ("wage_stats", "type", "Statistics"),
        ("chocolate_exports", "type", "Statistics"),
        ("labour_barometer", "measures", "labour_market"),
        ("employment_by_type", "measures", "labour_market"),
        ("wage_stats", "measures", "labour_market"),
        ("chocolate_exports", "measures", "trade"),
        ("labour_barometer", "frequency", "monthly"),
        ("labour_barometer", "publishedBy", "seco"),
        ("Canton", "subClassOf", "Region"),
        ("zurich", "type", "Canton"),
        ("geneva", "type", "Canton"),
        ("measures", "subPropertyOf", "relatedTo"),
    ] {
        kg.insert(s, p, o);
    }
    kg
}

/// The Figure-1 demo world: catalog + KG + vocabulary + linker + LM config,
/// frozen at epoch 0 and shared across however many sessions open on it.
/// The simulated LM hallucinates at a mild 15% base rate (so soundness
/// mechanisms have real work) with the paper's overconfident
/// self-reporting.
pub fn demo_world(seed: u64) -> Arc<WorldSnapshot> {
    WorldSnapshot::builder()
        .catalog(demo_catalog(seed))
        .kg(demo_kg())
        .vocab(demo_vocabulary())
        .linker(demo_linker())
        .lm(SimLmConfig { hallucination_rate: 0.15, overconfidence: 0.8, seed })
        .build_shared()
}

/// Open a fully configured Figure-1 demo session (seed 0 — the legacy
/// single-session LM stream) over a fresh [`demo_world`].
pub fn demo_session(seed: u64) -> Session {
    Session::open(demo_world(seed), CdaConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_timeseries::seasonality::detect_seasonality;

    #[test]
    fn employment_table_shape() {
        let t = employment_table(1);
        assert_eq!(t.num_rows(), 6 * 3 * 5);
        assert_eq!(t.num_columns(), 4);
        // deterministic given the seed
        assert_eq!(employment_table(1), employment_table(1));
        assert_ne!(employment_table(1), employment_table(2));
    }

    #[test]
    fn barometer_series_has_period_six() {
        let s = barometer_series(3);
        assert_eq!(s.len(), 156);
        let r = detect_seasonality(&s, 24).unwrap();
        assert_eq!(r.period, 6);
        assert!(r.confidence > 0.5, "confidence {}", r.confidence);
    }

    #[test]
    fn barometer_table_mirrors_series() {
        let s = barometer_series(3);
        let t = barometer_table(&s);
        assert_eq!(t.num_rows(), s.len());
        assert_eq!(
            t.value(10, 1).unwrap().as_f64().unwrap(),
            s.values()[10]
        );
    }

    #[test]
    fn catalog_contains_all_demo_datasets() {
        let c = demo_catalog(1);
        assert_eq!(c.len(), 4);
        assert!(c.sql().get("employment_by_type").is_ok());
        assert!(c.sql().get("labour_barometer").is_ok());
        assert!(c.sql().get("wage_stats").is_ok());
        // the distractor has no table
        assert!(c.sql().get("chocolate_exports").is_err());
    }

    #[test]
    fn discovery_prefers_labour_datasets() {
        let c = demo_catalog(1);
        let hits = c.discover("employment labour market workforce overview", 2, true);
        assert!(hits.iter().all(|h| h.name != "chocolate_exports"), "{hits:?}");
    }

    #[test]
    fn vocabulary_grounds_figure1_terms() {
        let v = demo_vocabulary();
        let d = v.disambiguate("working force", "overview of switzerland employment");
        assert_eq!(d[0].concept.id, "labour_market");
        let d = v.disambiguate("barometer", "labour market survey");
        assert_eq!(d[0].concept.id, "swiss_labour_barometer");
    }

    #[test]
    fn linker_resolves_barometer_in_labour_context() {
        let l = demo_linker();
        let c = l.link("barometer", "swiss labour market employment survey", Default::default());
        assert_eq!(c[0].entity_id, "labour_barometer");
    }

    #[test]
    fn kg_reasoning_over_demo_taxonomy() {
        let kg = demo_kg();
        let r = cda_kg::reason::Reasoner::new(&kg);
        assert!(r.is_a("labour_barometer", "Dataset"));
        let datasets = r.instances_of("Dataset");
        assert!(datasets.len() >= 4);
        assert_eq!(
            r.objects_via("labour_barometer", "relatedTo"),
            vec!["labour_market".to_owned()]
        );
    }
}
