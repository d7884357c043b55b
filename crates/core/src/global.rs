//! The global model: pretrained once, "identically deployed across all
//! customers" (paper §1, Figure 2).

use crate::cache::StableHasher;
use crate::config::TrainingConfig;
use crate::embedstep::{train_embedding_model, TableEmbeddingModel};
use crate::headerstep::HeaderMatcher;
use crate::lookupstep::ValueLookup;
use crate::regexbank::RegexBank;
use std::sync::atomic::{AtomicU64, Ordering};
use tu_corpus::Corpus;
use tu_dp::{LabelingFunction, LfKind, LfSource};
use tu_embed::{Embedder, SkipGramConfig};
use tu_kb::KnowledgeBase;
use tu_ontology::Ontology;

/// The pretrained global model shared by all customers.
///
/// # Cache identity
///
/// Cache keys that customers share hash the model instead of an epoch.
/// Header entries hash
/// [`header_fingerprint`](GlobalModel::header_fingerprint), which
/// [`train_global`] computes once and nothing updates: replacing or
/// mutating the `ontology`, `embedder` or `header` field of a trained
/// model leaves it as it was, so such a model's header entries could be
/// taken for the trained model's. The global halves of split steps
/// (see [`SplitStep`](crate::step::SplitStep)) hash the model's
/// identity in this process instead, which `train_global` draws and
/// every `clone` draws afresh: a clone changed through a public field
/// (say, a shape added through `lookup.bank_mut()`) never reads the
/// original's halves. A model mutated in place after it answered
/// through a cache keeps its identity. Give a model changed after
/// training in either way a step cache of its own.
#[derive(Debug, Clone)]
pub struct GlobalModel {
    /// The semantic type ontology (DBpedia role, §4.1).
    pub ontology: Ontology,
    /// Trained word embedder (FastText role).
    pub embedder: Embedder,
    /// Step 1 matcher.
    pub header: HeaderMatcher,
    /// Step 2 lookup (KB + regex bank).
    pub lookup: ValueLookup,
    /// Global labeling functions (header-alias LFs, §4.3 source 1).
    pub global_lfs: Vec<LabelingFunction>,
    /// Step 3 model (TaBERT role) with background `unknown` class.
    pub embedding: TableEmbeddingModel,
    /// See [`GlobalModel::header_fingerprint`].
    header_fingerprint: [u64; 2],
    /// See [Cache identity](GlobalModel#cache-identity).
    id: ModelId,
}

impl GlobalModel {
    /// A fingerprint of what the header step reads of this model
    /// besides the header and the config: every ontology surface form
    /// with its type id, and the embedder's state
    /// ([`Embedder::absorb_state`]). Equal training inputs give equal
    /// fingerprints in every process, so the header step's cache
    /// entries survive restarts and are shared by every customer of one
    /// global model (see
    /// [`CacheScope::Header`](crate::step::CacheScope::Header)). See
    /// [Cache identity](GlobalModel#cache-identity) for what it does
    /// not track.
    #[must_use]
    pub fn header_fingerprint(&self) -> [u64; 2] {
        self.header_fingerprint
    }

    /// The model's identity in this process: what the keys of split
    /// steps' global halves hash (see
    /// [Cache identity](GlobalModel#cache-identity)).
    pub(crate) fn id(&self) -> u64 {
        self.id.0
    }
}

/// A [`GlobalModel`]'s identity in this process, unique among the
/// models [`train_global`] made and their clones. Keys that hash it are
/// never stored beyond the process.
#[derive(Debug)]
struct ModelId(u64);

impl ModelId {
    fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        ModelId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// A clone may be changed apart from its original, so it draws an
/// identity of its own.
impl Clone for ModelId {
    fn clone(&self) -> Self {
        ModelId::fresh()
    }
}

/// Domain tag of [`header_fingerprint`].
const HEADER_MODEL_DOMAIN: &str = "sigmatyper/global-header-model";

/// [`GlobalModel::header_fingerprint`] of a model with this ontology
/// and embedder.
fn header_fingerprint(ontology: &Ontology, embedder: &Embedder) -> [u64; 2] {
    let mut h = StableHasher::new();
    h.write_str(HEADER_MODEL_DOMAIN);
    let surfaces = ontology.all_surfaces();
    h.write_usize(surfaces.len());
    for (surface, ty) in surfaces {
        h.write_str(surface);
        h.write(&ty.0.to_le_bytes());
    }
    embedder.absorb_state(|bytes| h.write(bytes));
    h.finish128()
}

/// Build the token sequences the embedder trains on: for every corpus
/// column, its type's surface forms and the (tokenized) header co-occur;
/// additionally each type's alias set forms its own sequence. This is
/// what makes "income" land near "salary".
#[must_use]
pub fn embedding_sequences(ontology: &Ontology, corpus: &Corpus) -> Vec<Vec<String>> {
    let mut seqs: Vec<Vec<String>> = Vec::new();
    // One sequence per type holding the canonical name and every alias
    // together, repeated for weight. Skip-gram input vectors align only
    // through *shared contexts*, so synonyms must co-occur inside one
    // window rather than in isolated pairs.
    for def in ontology.defs() {
        if def.id.is_unknown() || def.aliases.is_empty() {
            continue;
        }
        let mut seq: Vec<String> = def.name.split(' ').map(str::to_owned).collect();
        for alias in &def.aliases {
            seq.extend(alias.split(' ').map(str::to_owned));
        }
        for _ in 0..6 {
            seqs.push(seq.clone());
        }
    }
    // Corpus sequences: header tokens + type tokens per column, plus one
    // table-level sequence of all type names (co-occurrence context).
    for at in &corpus.tables {
        let mut table_seq: Vec<String> = Vec::new();
        for (ci, col) in at.table.columns().iter().enumerate() {
            let label = at.labels[ci];
            if label.is_unknown() {
                continue;
            }
            let type_tokens: Vec<String> =
                ontology.name(label).split(' ').map(str::to_owned).collect();
            let mut seq = tu_text::header_tokens(&col.name);
            seq.extend(type_tokens.iter().cloned());
            seqs.push(seq);
            table_seq.extend(type_tokens);
        }
        if table_seq.len() >= 2 {
            seqs.push(table_seq);
        }
    }
    seqs
}

/// Build the global LF bank: one header-equality LF per ontology surface
/// form. These make alias knowledge available to the lookup step even
/// when the header matcher is bypassed.
#[must_use]
pub fn global_lf_bank(ontology: &Ontology) -> Vec<LabelingFunction> {
    ontology
        .all_surfaces()
        .into_iter()
        .map(|(surface, ty)| LabelingFunction {
            name: format!("global:header[{surface}]"),
            ty,
            source: LfSource::Global,
            kind: LfKind::HeaderEquals(surface.to_owned()),
        })
        .collect()
}

/// Train the full global model on a pretraining corpus (GitTables role).
#[must_use]
pub fn train_global(ontology: Ontology, corpus: &Corpus, config: &TrainingConfig) -> GlobalModel {
    let seqs = embedding_sequences(&ontology, corpus);
    let embedder = Embedder::train(
        &seqs,
        &SkipGramConfig {
            dim: config.embed_dim,
            epochs: config.embed_epochs,
            seed: config.seed,
            ..SkipGramConfig::default()
        },
    );
    let header = HeaderMatcher::new(&ontology, &embedder);
    let header_fingerprint = header_fingerprint(&ontology, &embedder);
    let kb = KnowledgeBase::builtin(&ontology);
    let bank = RegexBank::builtin(&ontology);
    let lookup = ValueLookup::new(kb, bank);
    let global_lfs = global_lf_bank(&ontology);
    let embedding = train_embedding_model(&ontology, corpus, &embedder, config);
    GlobalModel {
        ontology,
        embedder,
        header,
        lookup,
        global_lfs,
        embedding,
        header_fingerprint,
        id: ModelId::fresh(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_corpus::{generate_corpus, CorpusConfig};
    use tu_ontology::{builtin_id, builtin_ontology};

    #[test]
    fn sequences_tie_aliases_to_types() {
        let o = builtin_ontology();
        let corpus = generate_corpus(&o, &CorpusConfig::database_like(41, 10));
        let seqs = embedding_sequences(&o, &corpus);
        assert!(seqs.len() > 100);
        // Somewhere, "income" and "salary" co-occur.
        assert!(seqs
            .iter()
            .any(|s| s.contains(&"income".to_string()) && s.contains(&"salary".to_string())));
    }

    #[test]
    fn global_lf_bank_covers_all_surfaces() {
        let o = builtin_ontology();
        let bank = global_lf_bank(&o);
        assert_eq!(bank.len(), o.all_surfaces().len());
        assert!(bank.iter().all(|l| l.source == LfSource::Global));
    }

    #[test]
    fn trained_global_model_components_work_together() {
        let o = builtin_ontology();
        let mut cfg = CorpusConfig::database_like(42, 50);
        cfg.ood_column_rate = 0.2;
        let corpus = generate_corpus(&o, &cfg);
        let gm = train_global(builtin_ontology(), &corpus, &TrainingConfig::fast());
        // Embedder learned synonym geometry.
        let sim_syn = gm.embedder.similarity("income", "salary");
        let sim_far = gm.embedder.similarity("income", "city");
        assert!(
            sim_syn > sim_far,
            "income~salary {sim_syn} should beat income~city {sim_far}"
        );
        // Header matcher resolves an alias.
        let s = gm.header.match_header(
            "wage",
            &gm.embedder,
            &crate::config::SigmaTyperConfig::default(),
        );
        assert_eq!(s.best().unwrap().ty, builtin_id(&gm.ontology, "salary"));
    }
}
