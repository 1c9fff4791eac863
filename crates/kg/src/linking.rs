//! Entity extraction and entity linking.
//!
//! The paper: "entity extraction and entity linking processes will enrich a
//! KG representation of both the schema and the contents of the data".
//! Extraction uses gazetteer maximal matching over token n-grams; linking
//! ranks candidate entities by a weighted combination of three signals that
//! experiment E3 ablates:
//!
//! * **lexical** — Jaccard similarity of character trigrams between mention
//!   and entity name/aliases,
//! * **embedding** — cosine similarity of hash embeddings of the mention's
//!   sentence context and the entity description,
//! * **popularity** — a log-scaled prior.

use crate::vocab::tokenize;
use std::collections::{BTreeSet, HashMap, HashSet};

/// A known entity.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    /// Canonical id (KG node name).
    pub id: String,
    /// Primary name.
    pub name: String,
    /// Alternative surface forms.
    pub aliases: Vec<String>,
    /// Short description used for context matching.
    pub description: String,
    /// Popularity prior (e.g. reference count), ≥ 0.
    pub popularity: f64,
}

impl Entity {
    /// Construct an entity.
    pub fn new(
        id: impl Into<String>,
        name: impl Into<String>,
        aliases: Vec<&str>,
        description: impl Into<String>,
        popularity: f64,
    ) -> Self {
        Self {
            id: id.into(),
            name: name.into(),
            aliases: aliases.into_iter().map(str::to_owned).collect(),
            description: description.into(),
            popularity,
        }
    }

    fn surface_forms(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.name.as_str()).chain(self.aliases.iter().map(String::as_str))
    }
}

/// A mention found in text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mention {
    /// The matched surface text (normalized tokens joined by spaces).
    pub surface: String,
    /// Token offset of the first token.
    pub start: usize,
    /// Number of tokens covered.
    pub len: usize,
}

/// A scored candidate link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkCandidate {
    /// Candidate entity id.
    pub entity_id: String,
    /// Combined score in `[0, 1]`-ish range (weighted signal sum).
    pub score: f64,
    /// Lexical component.
    pub lexical: f64,
    /// Embedding component.
    pub embedding: f64,
    /// Popularity component.
    pub popularity: f64,
}

/// Which linking signals are active (experiment E3's ablation knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkerConfig {
    /// Use character-trigram lexical similarity.
    pub use_lexical: bool,
    /// Use hash-embedding context similarity.
    pub use_embedding: bool,
    /// Use the popularity prior.
    pub use_popularity: bool,
}

impl Default for LinkerConfig {
    fn default() -> Self {
        Self { use_lexical: true, use_embedding: true, use_popularity: true }
    }
}

/// Character trigrams of a normalized string.
fn trigrams(s: &str) -> HashSet<[u8; 3]> {
    let norm: String = s.to_lowercase().chars().filter(|c| c.is_alphanumeric()).collect();
    let bytes = norm.as_bytes();
    let mut out = HashSet::new();
    if bytes.len() < 3 {
        if !bytes.is_empty() {
            let mut tri = [0u8; 3];
            for (i, &b) in bytes.iter().enumerate() {
                tri[i] = b;
            }
            out.insert(tri);
        }
        return out;
    }
    for w in bytes.windows(3) {
        out.insert([w[0], w[1], w[2]]);
    }
    out
}

/// Jaccard similarity of trigram sets.
pub(crate) fn lexical_similarity(a: &str, b: &str) -> f64 {
    let ta = trigrams(a);
    let tb = trigrams(b);
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    let inter = ta.intersection(&tb).count() as f64;
    let union = ta.union(&tb).count() as f64;
    if union == 0.0 {
        0.0
    } else {
        inter / union
    }
}

/// Feature-hashing text embedding over word unigrams + character trigrams
/// (deterministic; dimension `dim`). Normalized to unit length.
pub fn hash_embed(text: &str, dim: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; dim.max(1)];
    let mut add = |feature: &str| {
        let h = fxhash(feature.as_bytes());
        let idx = (h % dim as u64) as usize;
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        v[idx] += sign;
    };
    for token in tokenize(text) {
        add(&token);
        let bytes = token.as_bytes();
        if bytes.len() >= 3 {
            for w in bytes.windows(3) {
                add(std::str::from_utf8(w).unwrap_or(""));
            }
        }
    }
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

/// FNV-1a 64-bit hash (deterministic across runs/platforms).
fn fxhash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Cosine similarity of two equal-length embeddings.
fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    f64::from(dot)
}

/// The entity linker.
#[derive(Debug, Clone, Default)]
pub struct Linker {
    entities: Vec<Entity>,
    /// Normalized surface form → entity indexes (the gazetteer).
    gazetteer: HashMap<String, Vec<usize>>,
    /// Max surface length in tokens.
    max_tokens: usize,
    embed_dim: usize,
}

impl Linker {
    /// Build over an entity catalog with embedding dimension `embed_dim`.
    pub fn new(entities: Vec<Entity>, embed_dim: usize) -> Self {
        let mut gazetteer: HashMap<String, Vec<usize>> = HashMap::new();
        let mut max_tokens = 1;
        for (i, e) in entities.iter().enumerate() {
            for form in e.surface_forms() {
                let key = tokenize(form).join(" ");
                max_tokens = max_tokens.max(key.split(' ').count());
                gazetteer.entry(key).or_default().push(i);
            }
        }
        Self { entities, gazetteer, max_tokens, embed_dim: embed_dim.max(8) }
    }

    /// The catalog.
    pub fn entities(&self) -> &[Entity] {
        &self.entities
    }

    /// Extract mentions by greedy maximal matching over token n-grams.
    pub fn extract(&self, text: &str) -> Vec<Mention> {
        let tokens = tokenize(text);
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < tokens.len() {
            let mut matched = None;
            let max_n = self.max_tokens.min(tokens.len() - i);
            for n in (1..=max_n).rev() {
                let surface = tokens[i..i + n].join(" ");
                if self.gazetteer.contains_key(&surface) {
                    matched = Some((surface, n));
                    break;
                }
            }
            match matched {
                Some((surface, n)) => {
                    out.push(Mention { surface, start: i, len: n });
                    i += n;
                }
                None => i += 1,
            }
        }
        out
    }

    /// Link a mention given its sentence context; ranked candidates, best
    /// first. Scores each catalog entity whose gazetteer key shares a token
    /// with the mention (cheap candidate generation), then combines signals.
    /// Equal scores keep registration order, so the ranking is a pure
    /// function of the inputs.
    pub fn link(&self, mention: &str, context: &str, config: LinkerConfig) -> Vec<LinkCandidate> {
        let mention_norm = tokenize(mention).join(" ");
        let mention_tokens: HashSet<&str> = mention_norm.split(' ').collect();
        // candidate generation: any entity with a surface form sharing a
        // token, in registration order (the stable sort below keeps it for ties)
        let mut candidate_ids: BTreeSet<usize> = BTreeSet::new();
        for (key, ids) in &self.gazetteer {
            if key.split(' ').any(|t| mention_tokens.contains(t)) {
                candidate_ids.extend(ids.iter().copied());
            }
        }
        let ctx_embed = hash_embed(context, self.embed_dim);
        let mut out: Vec<LinkCandidate> = candidate_ids
            .into_iter()
            .map(|i| {
                let e = &self.entities[i];
                let lexical = e
                    .surface_forms()
                    .map(|f| lexical_similarity(&mention_norm, f))
                    .fold(0.0f64, f64::max);
                let embedding = if context.is_empty() {
                    0.0
                } else {
                    cosine(&ctx_embed, &hash_embed(&e.description, self.embed_dim)).max(0.0)
                };
                let popularity = (1.0 + e.popularity).ln() / 10.0;
                let mut score = 0.0;
                let mut weight = 0.0;
                if config.use_lexical {
                    score += 0.6 * lexical;
                    weight += 0.6;
                }
                if config.use_embedding {
                    score += 0.3 * embedding;
                    weight += 0.3;
                }
                if config.use_popularity {
                    score += 0.1 * popularity.min(1.0);
                    weight += 0.1;
                }
                if weight > 0.0 {
                    score /= weight;
                }
                LinkCandidate { entity_id: e.id.clone(), score, lexical, embedding, popularity }
            })
            .collect();
        out.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Linker {
        Linker::new(
            vec![
                Entity::new(
                    "swiss_labour_barometer",
                    "Swiss Labour Market Barometer",
                    vec!["labour market barometer", "barometer"],
                    "monthly leading indicator survey of labour market experts employment",
                    50.0,
                ),
                Entity::new(
                    "weather_barometer",
                    "Barometer",
                    vec![],
                    "instrument measuring atmospheric pressure weather meteorology",
                    500.0,
                ),
                Entity::new(
                    "canton_zurich",
                    "Zurich",
                    vec!["canton of zurich", "zh"],
                    "largest swiss canton by population employment hub",
                    300.0,
                ),
            ],
            64,
        )
    }

    #[test]
    fn extraction_prefers_longest_match() {
        let l = catalog();
        let mentions = l.extract("Show the labour market barometer for Zurich");
        let surfaces: Vec<&str> = mentions.iter().map(|m| m.surface.as_str()).collect();
        assert_eq!(surfaces, vec!["labour market barometer", "zurich"]);
        assert_eq!(mentions[0].start, 2);
        assert_eq!(mentions[0].len, 3);
    }

    #[test]
    fn extraction_finds_aliases() {
        let l = catalog();
        let mentions = l.extract("employment in ZH");
        assert_eq!(mentions.len(), 1);
        assert_eq!(mentions[0].surface, "zh");
    }

    #[test]
    fn context_disambiguates_barometer() {
        let l = catalog();
        let with_ctx = l.link(
            "barometer",
            "employment and labour market survey indicator",
            LinkerConfig::default(),
        );
        assert_eq!(with_ctx[0].entity_id, "swiss_labour_barometer");
        let weather = l.link(
            "barometer",
            "atmospheric pressure measurement for tomorrow's weather",
            LinkerConfig::default(),
        );
        assert_eq!(weather[0].entity_id, "weather_barometer");
    }

    #[test]
    fn lexical_only_falls_back_to_popular_reading() {
        let l = catalog();
        let cfg = LinkerConfig { use_lexical: true, use_embedding: false, use_popularity: true };
        let c = l.link("barometer", "employment survey", cfg);
        // without embeddings the lexically-identical, more popular weather
        // sense wins — the ablation E3 quantifies exactly this failure
        assert_eq!(c[0].entity_id, "weather_barometer");
    }

    #[test]
    fn lexical_similarity_properties() {
        assert!((lexical_similarity("zurich", "zurich") - 1.0).abs() < 1e-12);
        assert!(lexical_similarity("zurich", "zuerich") > 0.25);
        assert!(lexical_similarity("zurich", "geneva") < 0.1);
        assert_eq!(lexical_similarity("", ""), 1.0);
    }

    #[test]
    fn hash_embed_is_deterministic_and_normalized() {
        let a = hash_embed("labour market survey", 64);
        let b = hash_embed("labour market survey", 64);
        assert_eq!(a, b);
        let n: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-5);
        // related texts are closer than unrelated ones
        let rel = cosine(&a, &hash_embed("swiss labour market", 64));
        let unrel = cosine(&a, &hash_embed("chocolate cake recipe", 64));
        assert!(rel > unrel);
    }

    #[test]
    fn unknown_mention_yields_no_candidates() {
        let l = catalog();
        assert!(l.link("flux capacitor", "time travel", LinkerConfig::default()).is_empty());
        assert!(l.extract("nothing known here").is_empty());
    }

    #[test]
    fn ties_rank_in_registration_order_on_every_call() {
        let sense = |id: &str, popularity| Entity::new(id, id, vec!["barometer"], "", popularity);
        let l = Linker::new(
            vec![sense("labour_barometer", 40.0), sense("weather_barometer", 400.0)],
            64,
        );
        // Lexical only: both senses share the alias, so their scores tie.
        let cfg = LinkerConfig { use_lexical: true, use_embedding: false, use_popularity: false };
        for _ in 0..32 {
            let ranked = l.link("barometer", "", cfg);
            assert_eq!(ranked[0].score, ranked[1].score);
            let ids: Vec<&str> = ranked.iter().map(|c| c.entity_id.as_str()).collect();
            assert_eq!(ids, ["labour_barometer", "weather_barometer"]);
        }
    }

    #[test]
    fn candidates_are_sorted_by_score() {
        let l = catalog();
        let c = l.link("barometer", "labour market employment", LinkerConfig::default());
        assert!(c.len() >= 2);
        assert!(c[0].score >= c[1].score);
    }
}
