//! The per-customer local model (paper §4.2, Figure 2).
//!
//! Holds the customer's inferred labeling functions, a lazily finetuned
//! copy of the global embedding model with the featurized examples it
//! trains on, and the per-type feedback counts that drive the `Wl`
//! weight vector: "the influence of the local model on the final
//! prediction increases over time".

use crate::cache::StableHasher;
use crate::embedstep::TableEmbeddingModel;
use std::collections::{BTreeMap, HashMap};
use tu_dp::LabelingFunction;
use tu_ml::Dataset;
use tu_ontology::TypeId;
use tu_table::Table;

/// Shrinkage constant: `wl = n / (n + K)` after `n` feedback events.
pub const WL_SHRINKAGE: f64 = 2.0;

/// Shrinkage constant for the global weight: `wg = K / (K + n)` after
/// the customer overrode `n` global predictions of a type.
pub const WG_SHRINKAGE: f64 = 2.0;

/// One customer's local model.
#[derive(Debug, Clone, Default)]
pub struct LocalModel {
    /// DPBD-inferred labeling functions.
    pub lfs: Vec<LabelingFunction>,
    /// Finetuned copy of the global embedding model, created by the
    /// first [`LocalModel::add_training`]. A copy made there shares the
    /// global model's featurizer (see
    /// [`TableEmbeddingModel::shares_featurizer`]), so the embedding
    /// step featurizes each column once for both heads; a model
    /// assigned here with a featurizer of its own is featurized through
    /// that one.
    pub finetuned: Option<TableEmbeddingModel>,
    feedback_counts: HashMap<TypeId, u32>,
    /// Per normalized header, how often the customer overrode a global
    /// prediction of each type on such columns: that header's `Wg`
    /// state, in `TypeId` order.
    overrides: HashMap<String, BTreeMap<TypeId, u32>>,
    /// Accumulated local training examples — "the entire table with its
    /// labels is then added to the training data" — as the feature rows
    /// the finetuned model trains on, one row and label per example in
    /// arrival order. Each example is featurized once, when
    /// [`LocalModel::add_training`] admits it; a refit runs 6 epochs
    /// over these rows and featurizes nothing.
    pub training: Dataset,
}

impl LocalModel {
    /// A fresh, empty local model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Local weight for a type: 0 before any feedback, approaching 1.
    #[must_use]
    pub fn wl(&self, ty: TypeId) -> f64 {
        let n = f64::from(self.feedback_counts.get(&ty).copied().unwrap_or(0));
        n / (n + WL_SHRINKAGE)
    }

    /// Record one feedback event for a type.
    pub fn record_feedback(&mut self, ty: TypeId) {
        *self.feedback_counts.entry(ty).or_insert(0) += 1;
    }

    /// Global weight for a type *in the context of a normalized header*:
    /// 1 before any contradiction, shrinking as the customer keeps
    /// overriding global predictions of that type on such columns — the
    /// `Wg` side of Figure 2. Keying on the header keeps the discount
    /// contextual: correcting one mislabeled `id` column must not damage
    /// correct predictions of `identifier` elsewhere.
    ///
    /// The value depends only on the override counts recorded under
    /// `normalized_header`, which is what lets the header step's cache
    /// entries (see [`CacheScope::Header`](crate::step::CacheScope::Header))
    /// outlive feedback on other headers.
    #[must_use]
    pub fn wg(&self, ty: TypeId, normalized_header: &str) -> f64 {
        let n = self
            .overrides
            .get(normalized_header)
            .and_then(|counts| counts.get(&ty))
            .copied()
            .unwrap_or(0);
        WG_SHRINKAGE / (WG_SHRINKAGE + f64::from(n))
    }

    /// Record that the customer corrected a global prediction of `ty` on
    /// a column with this normalized header. This changes
    /// [`wg`](LocalModel::wg) under this header only, so it retires the
    /// header step's cache entries for this header and no other.
    pub fn record_override(&mut self, ty: TypeId, normalized_header: &str) {
        *self
            .overrides
            .entry(normalized_header.to_owned())
            .or_default()
            .entry(ty)
            .or_insert(0) += 1;
    }

    /// Absorb the `Wg` state of one normalized header into `h`: the
    /// number of overridden types, then each `(type, count)` pair in
    /// `TypeId` order. Equal states hash the same bytes and different
    /// states different ones, so a key built on this moves exactly
    /// when [`wg`](LocalModel::wg) changes under the header.
    pub(crate) fn wg_state_into(&self, normalized_header: &str, h: &mut StableHasher) {
        let counts = self.overrides.get(normalized_header);
        h.write_usize(counts.map_or(0, BTreeMap::len));
        for (ty, n) in counts.into_iter().flatten() {
            h.write(&ty.0.to_le_bytes());
            h.write(&n.to_le_bytes());
        }
    }

    /// Total number of feedback events.
    #[must_use]
    pub fn total_feedback(&self) -> u32 {
        self.feedback_counts.values().sum()
    }

    /// Overall local-model influence: `n/(n+K)` over total feedback.
    /// Monotone in feedback, 0 for a fresh model — the scalar the
    /// adaptation curve (Fig. 2) reports.
    #[must_use]
    pub fn influence(&self) -> f64 {
        let n = f64::from(self.total_feedback());
        n / (n + WL_SHRINKAGE)
    }

    /// Number of distinct types that received feedback.
    #[must_use]
    pub fn types_with_feedback(&self) -> usize {
        self.feedback_counts.len()
    }

    /// Add local labeling functions (deduplicated by name).
    pub fn add_lfs(&mut self, lfs: Vec<LabelingFunction>) {
        for lf in lfs {
            if !self.lfs.iter().any(|l| l.name == lf.name) {
                self.lfs.push(lf);
            }
        }
    }

    /// Admit column `col_idx` of `table`, labeled `label`, into the
    /// local training set: featurize it once, with the other columns'
    /// headers as context, through the finetuned model — cloned from
    /// `global` on first use, sharing its featurizer (extractor and
    /// scaler) behind one `Arc` and owning only its MLP head — and
    /// append the row. The featurizer is never trained, so a stored row
    /// stays exactly what featurizing the column again would give.
    ///
    /// # Panics
    /// Panics when `col_idx` is out of range.
    pub fn add_training(
        &mut self,
        global: &TableEmbeddingModel,
        table: &Table,
        col_idx: usize,
        label: TypeId,
    ) {
        let column = table.column(col_idx).expect("column in range");
        let neighbors: Vec<&str> = table
            .headers()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i != col_idx)
            .map(|(_, h)| h)
            .collect();
        let model = self.finetuned.get_or_insert_with(|| global.clone());
        self.training.n_classes = model.n_classes();
        self.training.x.push(model.featurize(column, &neighbors));
        self.training.y.push(label.index());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_table::Column;

    #[test]
    fn wl_grows_with_feedback() {
        let mut m = LocalModel::new();
        let t = TypeId(3);
        assert_eq!(m.wl(t), 0.0);
        m.record_feedback(t);
        assert!((m.wl(t) - 1.0 / 3.0).abs() < 1e-12);
        m.record_feedback(t);
        assert!((m.wl(t) - 0.5).abs() < 1e-12);
        for _ in 0..20 {
            m.record_feedback(t);
        }
        assert!(m.wl(t) > 0.9);
        // Other types unaffected.
        assert_eq!(m.wl(TypeId(4)), 0.0);
        assert_eq!(m.total_feedback(), 22);
        assert_eq!(m.types_with_feedback(), 1);
    }

    #[test]
    fn wg_shrinks_per_type_and_header() {
        let mut m = LocalModel::new();
        let t = TypeId(5);
        assert_eq!(m.wg(t, "id"), 1.0);
        m.record_override(t, "id");
        assert!((m.wg(t, "id") - 2.0 / 3.0).abs() < 1e-12);
        m.record_override(t, "id");
        assert!((m.wg(t, "id") - 0.5).abs() < 1e-12);
        // Contextual: same type under a different header is untouched.
        assert_eq!(m.wg(t, "key"), 1.0);
        assert_eq!(m.wg(TypeId(6), "id"), 1.0);
    }

    #[test]
    fn wg_state_hash_moves_exactly_with_the_headers_overrides() {
        let state = |m: &LocalModel, header: &str| {
            let mut h = StableHasher::new();
            m.wg_state_into(header, &mut h);
            h.finish128()
        };
        let fresh = LocalModel::new();
        let mut a = LocalModel::new();
        a.record_override(TypeId(5), "id");
        a.record_override(TypeId(9), "id");
        a.record_override(TypeId(5), "key");
        // Recorded in another order, the same counts: the same state.
        let mut b = LocalModel::new();
        b.record_override(TypeId(5), "key");
        b.record_override(TypeId(9), "id");
        b.record_override(TypeId(5), "id");
        assert_eq!(state(&a, "id"), state(&b, "id"));
        assert_eq!(state(&a, "key"), state(&b, "key"));
        // An untouched header keeps the fresh state.
        assert_eq!(state(&a, "code"), state(&fresh, "code"));
        assert_ne!(state(&a, "id"), state(&fresh, "id"));
        // One more override on a header moves that header's state only.
        b.record_override(TypeId(9), "id");
        assert_ne!(state(&a, "id"), state(&b, "id"));
        assert_eq!(state(&a, "key"), state(&b, "key"));
        // A count on another type is a different state, not the same
        // number of overrides moved.
        let mut c = LocalModel::new();
        c.record_override(TypeId(5), "id");
        c.record_override(TypeId(5), "id");
        let mut d = LocalModel::new();
        d.record_override(TypeId(5), "id");
        d.record_override(TypeId(6), "id");
        assert_ne!(state(&c, "id"), state(&d, "id"));
    }

    #[test]
    fn lf_deduplication_by_name() {
        let mut m = LocalModel::new();
        let mk = |name: &str| LabelingFunction {
            name: name.into(),
            ty: TypeId(1),
            source: tu_dp::LfSource::Local,
            kind: tu_dp::LfKind::HeaderEquals("x".into()),
        };
        m.add_lfs(vec![mk("a"), mk("b")]);
        m.add_lfs(vec![mk("a"), mk("c")]);
        assert_eq!(m.lfs.len(), 3);
    }

    #[test]
    fn training_accumulates() {
        let o = tu_ontology::builtin_ontology();
        let corpus = tu_corpus::generate_corpus(&o, &tu_corpus::CorpusConfig::database_like(5, 6));
        let global = crate::embedstep::train_embedding_model(
            &o,
            &corpus,
            &tu_embed::Embedder::untrained(8),
            &crate::config::TrainingConfig::fast(),
        );
        let table = Table::new(
            "t",
            vec![Column::from_raw("c", &["1"]), Column::from_raw("d", &["2"])],
        )
        .unwrap();
        let mut m = LocalModel::new();
        m.add_training(&global, &table, 0, TypeId(1));
        let finetuned = m
            .finetuned
            .as_ref()
            .expect("first admission clones the model");
        assert!(finetuned.shares_featurizer(&global));
        m.add_training(&global, &table, 1, TypeId(2));
        assert_eq!(m.training.len(), 2);
        assert_eq!(m.training.y, vec![1, 2]);
        assert_eq!(m.training.n_classes, global.n_classes());
        // A stored row is what featurizing the column now would give.
        let d = table.column(1).unwrap();
        assert_eq!(m.training.x[1], global.featurize(d, &["c"]));
    }
}
