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
use tu_corpus::Corpus;
use tu_embed::Embedder;
use tu_features::{FeatureConfig, FeatureExtractor};
use tu_ml::{fit_temperature, Dataset, Mlp, MlpConfig, StandardScaler, Temperature};
use tu_ontology::{Ontology, TypeId};
use tu_table::Column;

/// The trained table-embedding classifier.
#[derive(Debug, Clone)]
pub struct TableEmbeddingModel {
    extractor: FeatureExtractor,
    scaler: StandardScaler,
    mlp: Mlp,
    temperature: Temperature,
    embed_dim: usize,
    n_classes: usize,
}

impl TableEmbeddingModel {
    /// Feature dimensionality: column features + neighbor-header context.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.extractor.dim() + self.embed_dim
    }

    /// Number of classes (ontology size, class 0 = `unknown`).
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Encode one column with its neighbor headers.
    #[must_use]
    pub fn featurize(&self, column: &Column, neighbor_headers: &[&str]) -> Vec<f32> {
        let mut f = self.extractor.extract(column);
        f.extend(context_vector(
            self.extractor.embedder(),
            self.embed_dim,
            neighbor_headers,
        ));
        self.scaler.transform_inplace(&mut f);
        f
    }

    /// Predict calibrated class probabilities.
    #[must_use]
    pub fn predict(&self, column: &Column, neighbor_headers: &[&str]) -> StepScores {
        let f = self.featurize(column, neighbor_headers);
        self.scores_from_features(&f)
    }

    /// Phrase vector of one raw header under this model's embedder —
    /// the reusable unit of the neighbor-context encoding. The
    /// embedding step's per-table [`scorer`] encodes each header of a
    /// table once and shares the vectors across columns instead of
    /// re-encoding every neighbor per column.
    ///
    /// [`scorer`]: crate::step::AnnotationStep::scorer
    #[must_use]
    pub fn header_vector(&self, header: &str) -> Vec<f32> {
        self.extractor
            .embedder()
            .phrase_vector(&tu_text::normalize_header(header))
    }

    /// Mean context vector over precomputed neighbor vectors (zero
    /// vector when there are none). The accumulation order matches the
    /// internal path of [`TableEmbeddingModel::predict`] exactly, so a
    /// context assembled from [`TableEmbeddingModel::header_vector`]
    /// results is bit-identical to the one `predict` would compute
    /// from the raw headers.
    #[must_use]
    pub fn context_of(&self, neighbor_vectors: &[&[f32]]) -> Vec<f32> {
        mean_vectors(self.embed_dim, neighbor_vectors)
    }

    /// [`TableEmbeddingModel::predict`] with a precomputed neighbor
    /// context (see [`TableEmbeddingModel::context_of`]).
    #[must_use]
    pub fn predict_with_context(&self, column: &Column, context: &[f32]) -> StepScores {
        let f = self.features_with_context(column, context);
        self.scores_from_features(&f)
    }

    /// The exact feature vector the predict paths score: column
    /// features, the precomputed neighbor context appended, scaled
    /// in place. Public so [`EmbeddingBackend`] implementations share
    /// the reference featurization bit for bit and differ only in how
    /// they run the MLP head.
    ///
    /// [`EmbeddingBackend`]: crate::backend::EmbeddingBackend
    #[must_use]
    pub fn features_with_context(&self, column: &Column, context: &[f32]) -> Vec<f32> {
        let mut f = self.extractor.extract(column);
        f.extend_from_slice(context);
        self.scaler.transform_inplace(&mut f);
        f
    }

    /// The MLP head. Read access for alternative inference backends
    /// (see [`crate::backend`]): they may evaluate these weights in a
    /// different order but never mutate them.
    #[must_use]
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// Shared tail of the predict paths: calibrated probabilities →
    /// thresholded, truncated candidate list.
    fn scores_from_features(&self, f: &[f32]) -> StepScores {
        self.scores_from_logits(&self.mlp.logits(f))
    }

    /// Calibrated candidate scores from raw logits: temperature
    /// scaling, the 0.01 probability floor, and top-8 truncation —
    /// every backend funnels its logits through this one tail so the
    /// calibration and thresholding rules cannot drift per backend.
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
    /// extractor and scaler never change — so rows featurized once
    /// stay valid for every later call, and a call costs the epochs
    /// over the rows, never a featurization.
    pub fn partial_fit(&mut self, rows: &Dataset, epochs: usize) {
        self.mlp.partial_fit(rows, epochs);
    }
}

/// Mean embedding of neighbor headers (zero vector when none).
fn context_vector(embedder: &Embedder, dim: usize, neighbor_headers: &[&str]) -> Vec<f32> {
    let vecs: Vec<Vec<f32>> = neighbor_headers
        .iter()
        .map(|h| embedder.phrase_vector(&tu_text::normalize_header(h)))
        .collect();
    let refs: Vec<&[f32]> = vecs.iter().map(Vec::as_slice).collect();
    mean_vectors(dim, &refs)
}

/// Element-wise mean of vectors (zero vector when none). One shared
/// accumulation loop for the per-column and batch paths — identical
/// operations in identical order is what makes the batch amortization
/// bit-identical.
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
/// training data. A calibration split fits the temperature.
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
        let headers = at.table.headers();
        for (ci, col) in at.table.columns().iter().enumerate() {
            let neighbors: Vec<&str> = headers
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != ci)
                .map(|(_, h)| *h)
                .collect();
            let mut f = extractor.extract(col);
            f.extend(context_vector(embedder, embed_dim, &neighbors));
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
        extractor,
        scaler,
        mlp,
        temperature,
        embed_dim,
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
            let batched = model.predict_with_context(col, &ctx);
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
        let batched = model.predict_with_context(col, &zero_ctx);
        assert_eq!(lonely.candidates, batched.candidates);
    }

    #[test]
    fn context_vector_shapes() {
        let e = Embedder::untrained(8);
        assert_eq!(context_vector(&e, 8, &[]), vec![0.0; 8]);
        let v = context_vector(&e, 8, &["salary", "name"]);
        assert_eq!(v.len(), 8);
        assert!(v.iter().any(|x| *x != 0.0));
    }
}
