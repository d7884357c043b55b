//! Pipeline step 3: the table-embedding model (paper §4.3).
//!
//! A substitute for TaBERT, the pretrained table-and-text language model
//! behind the paper's embedding step, small enough to train from scratch
//! on the generated corpus: a column is encoded from its own content
//! (Sherlock-style features + value/header embeddings) plus *table
//! context* (the mean embedding of the neighboring headers), and
//! classified by an MLP head whose class 0 is the background `unknown`
//! type — the out-of-distribution mechanism the paper adopts from
//! Dhamija et al. \[30\]. Supports incremental finetuning for local models.

use crate::config::TrainingConfig;
use crate::prediction::{Candidate, StepScores};
use std::sync::Arc;
use tu_corpus::Corpus;
use tu_embed::Embedder;
use tu_features::{FeatureConfig, FeatureExtractor};
use tu_ml::{fit_temperature, Dataset, Mlp, MlpConfig, StandardScaler, Temperature};
use tu_ontology::{Ontology, TypeId};
use tu_table::Column;

/// What turns a column and its neighbor context into the scaled
/// feature vector a head scores: the extractor and the scaler fit on
/// the training rows. Nothing trains it after fitting, so every model
/// holding the same one gives a column the same feature vector.
#[derive(Debug)]
struct Featurizer {
    extractor: FeatureExtractor,
    scaler: StandardScaler,
    embed_dim: usize,
}

/// The trained table-embedding classifier.
///
/// Its featurizer sits behind one [`Arc`]: a clone — the finetuned
/// copy [`LocalModel::add_training`] makes of the global model —
/// shares it and owns only its MLP head and calibration, and
/// [`TableEmbeddingModel::shares_featurizer`] tells two such models
/// apart from independently trained ones.
///
/// [`LocalModel::add_training`]: crate::local::LocalModel::add_training
#[derive(Debug, Clone)]
pub struct TableEmbeddingModel {
    featurizer: Arc<Featurizer>,
    mlp: Mlp,
    temperature: Temperature,
    n_classes: usize,
}

impl TableEmbeddingModel {
    /// Feature dimensionality: column features + neighbor-header context.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.featurizer.extractor.dim() + self.featurizer.embed_dim
    }

    /// Number of classes (ontology size, class 0 = `unknown`).
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Whether `self` and `other` featurize through the same extractor
    /// and scaler — always true of a model and its clones, so of the
    /// global model and the finetuned copy
    /// [`LocalModel::add_training`] clones from it. Models that share
    /// a featurizer give every column the same feature vector and every
    /// header the same phrase vector, so one featurization serves both.
    ///
    /// [`LocalModel::add_training`]: crate::local::LocalModel::add_training
    #[must_use]
    pub fn shares_featurizer(&self, other: &TableEmbeddingModel) -> bool {
        Arc::ptr_eq(&self.featurizer, &other.featurizer)
    }

    /// Encode one column with its neighbor headers: each neighbor
    /// header is encoded once ([`TableEmbeddingModel::header_vector`]),
    /// the vectors averaged ([`TableEmbeddingModel::context_of`]), and
    /// the column featurized with that context
    /// ([`TableEmbeddingModel::features_with_context`]) — the same
    /// calls, in the same order, as training and the embedding step's
    /// scorer, so the rows agree bit for bit.
    #[must_use]
    pub fn featurize(&self, column: &Column, neighbor_headers: &[&str]) -> Vec<f32> {
        let vecs: Vec<Vec<f32>> = neighbor_headers
            .iter()
            .map(|h| self.header_vector(h))
            .collect();
        let refs: Vec<&[f32]> = vecs.iter().map(Vec::as_slice).collect();
        self.features_with_context(column, &self.context_of(&refs))
    }

    /// Predict calibrated class probabilities.
    #[must_use]
    pub fn predict(&self, column: &Column, neighbor_headers: &[&str]) -> StepScores {
        let f = self.featurize(column, neighbor_headers);
        self.scores_from_logits(&self.mlp.logits(&f))
    }

    /// Phrase vector of one raw header under this model's embedder —
    /// the reusable unit of the neighbor-context encoding. The
    /// embedding step's per-table [`scorer`], training and
    /// [`TableEmbeddingModel::featurize`] encode each header of a table
    /// once and share the vectors across its columns.
    ///
    /// [`scorer`]: crate::step::AnnotationStep::scorer
    #[must_use]
    pub fn header_vector(&self, header: &str) -> Vec<f32> {
        header_vector(self.featurizer.extractor.embedder(), header)
    }

    /// Mean context vector over precomputed neighbor vectors (zero
    /// vector when there are none), accumulated in the order given.
    #[must_use]
    pub fn context_of(&self, neighbor_vectors: &[&[f32]]) -> Vec<f32> {
        mean_vectors(self.featurizer.embed_dim, neighbor_vectors)
    }

    /// The exact feature vector every predict path scores: column
    /// features, the precomputed neighbor context appended, scaled
    /// in place. The embedding step's per-table [`scorer`] calls it
    /// once per column and scores every head that shares this model's
    /// featurizer on that one vector.
    ///
    /// [`scorer`]: crate::step::AnnotationStep::scorer
    #[must_use]
    pub fn features_with_context(&self, column: &Column, context: &[f32]) -> Vec<f32> {
        let mut f = Vec::with_capacity(self.dim());
        self.featurizer.extractor.extract_into(column, &mut f);
        f.extend_from_slice(context);
        self.featurizer.scaler.transform_inplace(&mut f);
        f
    }

    /// The MLP head, read-only: the embedding step's [`scorer`] runs
    /// its [`Mlp::logits`] on a feature vector it computed once for
    /// both heads.
    ///
    /// [`scorer`]: crate::step::AnnotationStep::scorer
    #[must_use]
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// Calibrated candidate scores from raw logits: temperature
    /// scaling, the 0.01 probability floor, and top-8 truncation —
    /// the one tail [`TableEmbeddingModel::predict`] and the embedding
    /// step's [`scorer`] share, so their calibration and thresholding
    /// cannot drift apart.
    ///
    /// [`scorer`]: crate::step::AnnotationStep::scorer
    #[must_use]
    pub fn scores_from_logits(&self, logits: &[f32]) -> StepScores {
        let probs = self.temperature.apply(logits);
        let cands: Vec<Candidate> = probs
            .iter()
            .enumerate()
            .filter(|(_, p)| **p > 0.01)
            .map(|(i, p)| Candidate {
                ty: TypeId(i as u16),
                confidence: f64::from(*p),
            })
            .collect();
        let mut scores = StepScores::from_candidates(cands);
        scores.candidates.truncate(8);
        scores
    }

    /// Probability mass the model assigns to the background `unknown`
    /// class — the direct OOD score.
    #[must_use]
    pub fn unknown_probability(&self, column: &Column, neighbor_headers: &[&str]) -> f64 {
        let f = self.featurize(column, neighbor_headers);
        let probs = self.temperature.apply(&self.mlp.logits(&f));
        f64::from(probs[0])
    }

    /// Finetune the MLP head for `epochs` passes over `rows`: feature
    /// vectors from [`TableEmbeddingModel::featurize`] with class
    /// labels (weak labels from DPBD). Only the head trains — the
    /// featurizer never changes, and a clone keeps sharing it — so rows
    /// featurized once stay valid for every later call, and a call
    /// costs the epochs over the rows, never a featurization.
    pub fn partial_fit(&mut self, rows: &Dataset, epochs: usize) {
        self.mlp.partial_fit(rows, epochs);
    }
}

/// Phrase vector of a raw header's normalized form.
fn header_vector(embedder: &Embedder, header: &str) -> Vec<f32> {
    embedder.phrase_vector(&tu_text::normalize_header(header))
}

/// Element-wise mean of vectors (zero vector when none). The one
/// accumulation loop behind every neighbor context — training,
/// [`TableEmbeddingModel::featurize`] and the embedding step — so equal
/// vectors in equal order give equal bits.
fn mean_vectors(dim: usize, vecs: &[&[f32]]) -> Vec<f32> {
    let mut acc = vec![0.0f32; dim];
    if vecs.is_empty() {
        return acc;
    }
    for v in vecs {
        for (a, x) in acc.iter_mut().zip(*v) {
            *a += x;
        }
    }
    for a in &mut acc {
        *a /= vecs.len() as f32;
    }
    acc
}

/// Train the table-embedding model on an annotated corpus.
///
/// Columns labeled `unknown` (injected OOD columns) become background
/// training data. A calibration split fits the temperature. Each
/// table's headers are encoded once, and every column's context is the
/// mean of the other columns' vectors.
#[must_use]
pub fn train_embedding_model(
    ontology: &Ontology,
    corpus: &Corpus,
    embedder: &Embedder,
    config: &TrainingConfig,
) -> TableEmbeddingModel {
    let extractor = FeatureExtractor::new(embedder.clone(), FeatureConfig::default());
    let embed_dim = embedder.dim();
    // Reserved spare classes let customers register new types later and
    // teach them purely through local finetuning.
    let n_classes = ontology.len() + config.reserve_classes;

    // Featurize every column with its neighbor-header context.
    let mut x: Vec<Vec<f32>> = Vec::with_capacity(corpus.n_columns());
    let mut y: Vec<usize> = Vec::with_capacity(corpus.n_columns());
    for at in &corpus.tables {
        let header_vecs: Vec<Vec<f32>> = at
            .table
            .headers()
            .iter()
            .map(|h| header_vector(embedder, h))
            .collect();
        for (ci, col) in at.table.columns().iter().enumerate() {
            let neighbors: Vec<&[f32]> = header_vecs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != ci)
                .map(|(_, v)| v.as_slice())
                .collect();
            let mut f = Vec::with_capacity(extractor.dim() + embed_dim);
            extractor.extract_into(col, &mut f);
            f.extend(mean_vectors(embed_dim, &neighbors));
            x.push(f);
            y.push(at.labels[ci].index());
        }
    }
    let scaler = StandardScaler::fit(&x);
    for v in &mut x {
        scaler.transform_inplace(v);
    }
    let ds = Dataset::new(x, y, n_classes);
    let (train, cal) = ds.split(1.0 - config.calibration_fraction, config.seed);

    let mut mlp = Mlp::new(
        train.dim(),
        n_classes,
        MlpConfig {
            hidden: config.hidden,
            epochs: config.epochs,
            seed: config.seed,
            ..MlpConfig::default()
        },
    );
    mlp.fit(&train);

    let logits: Vec<Vec<f32>> = cal.x.iter().map(|v| mlp.logits(v)).collect();
    let temperature = fit_temperature(&logits, &cal.y);

    TableEmbeddingModel {
        featurizer: Arc::new(Featurizer {
            extractor,
            scaler,
            embed_dim,
        }),
        mlp,
        temperature,
        n_classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_corpus::{generate_corpus, CorpusConfig};
    use tu_ontology::{builtin_id, builtin_ontology};

    fn trained() -> (Ontology, Corpus, TableEmbeddingModel) {
        let o = builtin_ontology();
        let mut cfg = CorpusConfig::database_like(31, 60);
        cfg.ood_column_rate = 0.3;
        let corpus = generate_corpus(&o, &cfg);
        let embedder = Embedder::untrained(16);
        let model = train_embedding_model(&o, &corpus, &embedder, &TrainingConfig::fast());
        (o, corpus, model)
    }

    #[test]
    fn learns_to_classify_held_out_columns() {
        let (o, _, model) = trained();
        let mut test_cfg = CorpusConfig::database_like(99, 15);
        test_cfg.ood_column_rate = 0.0;
        let test = generate_corpus(&o, &test_cfg);
        let mut correct = 0usize;
        let mut total = 0usize;
        for at in &test.tables {
            let headers = at.table.headers();
            for (ci, col) in at.table.columns().iter().enumerate() {
                let neighbors: Vec<&str> = headers
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != ci)
                    .map(|(_, h)| *h)
                    .collect();
                let s = model.predict(col, &neighbors);
                if let Some(best) = s.best() {
                    total += 1;
                    if best.ty == at.labels[ci] {
                        correct += 1;
                    }
                }
            }
        }
        let acc = correct as f64 / total.max(1) as f64;
        assert!(
            acc > 0.5,
            "held-out accuracy too low: {acc} ({correct}/{total})"
        );
    }

    #[test]
    fn ood_columns_get_unknown_mass() {
        let (_, _, model) = trained();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        // Average unknown mass over several OOD kinds vs in-distribution.
        let mut ood_mass = 0.0;
        let mut n = 0;
        for &kind in tu_corpus::ood::ALL_OOD_KINDS {
            let vals = tu_corpus::ood::generate_ood_column(&mut rng, kind, 40);
            let col = Column::new(kind.header(), vals);
            ood_mass += model.unknown_probability(&col, &[]);
            n += 1;
        }
        ood_mass /= f64::from(n);
        let id_col = Column::from_raw(
            "city",
            &["Amsterdam", "Paris", "Tokyo", "Berlin", "Madrid", "Oslo"],
        );
        let id_mass = model.unknown_probability(&id_col, &[]);
        assert!(
            ood_mass > id_mass,
            "OOD columns should carry more unknown mass: ood {ood_mass} vs id {id_mass}"
        );
    }

    #[test]
    fn probabilities_are_valid() {
        let (_, corpus, model) = trained();
        let at = &corpus.tables[0];
        let col = at.table.column(0).unwrap();
        let s = model.predict(col, &[]);
        assert!(!s.candidates.is_empty());
        for c in &s.candidates {
            assert!((0.0..=1.0).contains(&c.confidence));
            assert!((c.ty.index()) < model.n_classes());
        }
    }

    #[test]
    fn partial_fit_shifts_predictions() {
        let (o, _, mut model) = trained();
        let phone = builtin_id(&o, "phone number");
        // Teach the model that 8-digit integers are phone numbers.
        let vals: Vec<String> = (0..40)
            .map(|i| format!("{}", 20_000_000 + i * 137))
            .collect();
        let col = Column::from_raw("contact", &vals);
        let before = model.predict(&col, &[]).confidence_for(phone);
        let rows = Dataset::new(
            vec![model.featurize(&col, &[]); 8],
            vec![phone.index(); 8],
            model.n_classes(),
        );
        model.partial_fit(&rows, 25);
        let after = model.predict(&col, &[]).confidence_for(phone);
        assert!(
            after > before,
            "finetuning must raise target confidence: {before} → {after}"
        );
        assert!(after > 0.3, "after {after}");
    }

    /// The embedding step scorer's three calls on a precomputed context.
    fn scored(model: &TableEmbeddingModel, col: &Column, ctx: &[f32]) -> StepScores {
        let f = model.features_with_context(col, ctx);
        model.scores_from_logits(&model.mlp().logits(&f))
    }

    #[test]
    fn predict_with_precomputed_context_is_bit_identical() {
        let (_, corpus, model) = trained();
        let at = &corpus.tables[0];
        let headers = at.table.headers();
        let vecs: Vec<Vec<f32>> = headers.iter().map(|h| model.header_vector(h)).collect();
        for (ci, col) in at.table.columns().iter().enumerate() {
            let neighbors: Vec<&str> = headers
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != ci)
                .map(|(_, h)| *h)
                .collect();
            let direct = model.predict(col, &neighbors);
            let neighbor_vecs: Vec<&[f32]> = vecs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != ci)
                .map(|(_, v)| v.as_slice())
                .collect();
            let ctx = model.context_of(&neighbor_vecs);
            let batched = scored(&model, col, &ctx);
            assert_eq!(direct.candidates.len(), batched.candidates.len());
            for (a, b) in direct.candidates.iter().zip(&batched.candidates) {
                assert_eq!(a.ty, b.ty);
                assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
            }
        }
        // No neighbors → zero context, still identical.
        let col = at.table.column(0).unwrap();
        let lonely = model.predict(col, &[]);
        let zero_ctx = model.context_of(&[]);
        let batched = scored(&model, col, &zero_ctx);
        assert_eq!(lonely.candidates, batched.candidates);
    }

    #[test]
    fn context_vector_shapes() {
        let (_, _, model) = trained();
        assert_eq!(model.context_of(&[]), vec![0.0; 16]);
        let (a, b) = (model.header_vector("salary"), model.header_vector("name"));
        let v = model.context_of(&[&a, &b]);
        assert_eq!(v.len(), 16);
        assert!(v.iter().any(|x| *x != 0.0));
    }

    #[test]
    fn clones_share_the_featurizer_and_retrained_models_do_not() {
        let (o, corpus, model) = trained();
        let mut finetuned = model.clone();
        let col = corpus.tables[0].table.column(0).unwrap();
        let rows = Dataset::new(
            vec![model.featurize(col, &[]); 2],
            vec![1, 1],
            model.n_classes(),
        );
        finetuned.partial_fit(&rows, 2);
        assert!(finetuned.shares_featurizer(&model));
        let retrained = train_embedding_model(
            &o,
            &corpus,
            &Embedder::untrained(16),
            &TrainingConfig::fast(),
        );
        assert!(!retrained.shares_featurizer(&model));
    }
}
