//! The combined feature extractor.
//!
//! Concatenates Sherlock's feature groups (character distributions +
//! global statistics) with embedding features (mean value embedding and,
//! optionally, a header embedding) from `tu-embed`. The Sherlock-like
//! baseline uses values-only features; SigmaTyper's table-embedding step
//! extends them with header and neighbor context.

use crate::chars::{char_feature_dim, char_features_into};
use crate::global::{global_features_into, Rendered, GLOBAL_FEATURE_DIM};
use tu_embed::{EmbedScratch, Embedder};
use tu_table::Column;

/// Feature extraction configuration.
#[derive(Debug, Clone, Copy)]
pub struct FeatureConfig {
    /// Cap on values sampled per column (features are O(sample)).
    pub max_values: usize,
    /// Include the mean embedding of value texts.
    pub value_embedding: bool,
    /// Include the header embedding (off for the values-only baseline).
    pub header_embedding: bool,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            max_values: 64,
            value_embedding: true,
            header_embedding: true,
        }
    }
}

/// Column → dense feature vector.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    embedder: Embedder,
    config: FeatureConfig,
}

impl FeatureExtractor {
    /// Build with a trained (or untrained) embedder.
    #[must_use]
    pub fn new(embedder: Embedder, config: FeatureConfig) -> Self {
        FeatureExtractor { embedder, config }
    }

    /// Output dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        let mut d = char_feature_dim() + GLOBAL_FEATURE_DIM;
        if self.config.value_embedding {
            d += self.embedder.dim();
        }
        if self.config.header_embedding {
            d += self.embedder.dim();
        }
        d
    }

    /// The embedder (shared with the header-matching step).
    #[must_use]
    pub fn embedder(&self) -> &Embedder {
        &self.embedder
    }

    /// Extract features for a column (header taken from the column):
    /// character-class statistics over a strided sample of up to
    /// `max_values` non-null values, [`global_features`] over the whole
    /// column, the mean phrase vector of the sample's first 16 values
    /// and the normalized header's phrase vector, in that order.
    ///
    /// The column is read once: every non-null value is rendered once
    /// (text cells borrowed, the others written into one buffer) and
    /// the sample and the global statistics both read that rendering.
    /// All phrase vectors are embedded through one set of scratch
    /// buffers, so the work allocates per column, not per value or per
    /// character n-gram (a non-ASCII word still allocates its
    /// lowercase form).
    ///
    /// [`global_features`]: crate::global_features
    #[must_use]
    pub fn extract(&self, column: &Column) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.dim());
        self.extract_into(column, &mut out);
        out
    }

    /// [`FeatureExtractor::extract`], appended to `out`: a caller that
    /// adds its own features after the column's (the table-embedding
    /// model appends the neighbor context) reserves room for them once.
    pub fn extract_into(&self, column: &Column, out: &mut Vec<f32>) {
        let first = out.len();
        let rendered = Rendered::of(column);
        let sample: Vec<&str> = Column::sample_positions(rendered.len(), self.config.max_values)
            .map(|i| rendered.get(i))
            .collect();
        char_features_into(&sample, out);
        global_features_into(column, &rendered, out);
        let dim = self.embedder.dim();
        let mut scratch = EmbedScratch::default();
        if self.config.value_embedding {
            // Embedding every value is wasteful; 16 is plenty for a centroid.
            let start = out.len();
            out.resize(start + dim, 0.0);
            let acc = &mut out[start..];
            let mut value = vec![0.0f32; dim];
            let mut n = 0;
            for v in sample.iter().take(16) {
                self.embedder.phrase_into(v, &mut scratch, &mut value);
                for (a, x) in acc.iter_mut().zip(&value) {
                    *a += x;
                }
                n += 1;
            }
            if n > 0 {
                for a in acc {
                    *a /= n as f32;
                }
            }
        }
        if self.config.header_embedding {
            let start = out.len();
            out.resize(start + dim, 0.0);
            self.embedder.phrase_into(
                &tu_text::normalize_header(&column.name),
                &mut scratch,
                &mut out[start..],
            );
        }
        debug_assert_eq!(out.len() - first, self.dim());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extractor(cfg: FeatureConfig) -> FeatureExtractor {
        FeatureExtractor::new(Embedder::untrained(16), cfg)
    }

    #[test]
    fn dims_reported_correctly() {
        let full = extractor(FeatureConfig::default());
        assert_eq!(full.dim(), char_feature_dim() + GLOBAL_FEATURE_DIM + 32);
        let bare = extractor(FeatureConfig {
            value_embedding: false,
            header_embedding: false,
            ..FeatureConfig::default()
        });
        assert_eq!(bare.dim(), char_feature_dim() + GLOBAL_FEATURE_DIM);
    }

    #[test]
    fn extraction_matches_dim_and_is_finite() {
        let ex = extractor(FeatureConfig::default());
        for vals in [vec!["a@b.com", "c@d.org"], vec![""], vec![]] {
            let c = Column::from_raw("email", &vals);
            let f = ex.extract(&c);
            assert_eq!(f.len(), ex.dim());
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn different_types_have_distant_features() {
        let ex = extractor(FeatureConfig::default());
        let emails = Column::from_raw("e", &["ann@x.com", "bob@y.org"]);
        let prices = Column::from_raw("p", &["12.99", "4.50"]);
        let fe = ex.extract(&emails);
        let fp = ex.extract(&prices);
        let dist: f32 = fe.iter().zip(&fp).map(|(a, b)| (a - b).abs()).sum();
        assert!(dist > 1.0);
    }

    #[test]
    fn header_embedding_changes_features() {
        let with = extractor(FeatureConfig::default());
        let a = with.extract(&Column::from_raw("salary", &["100"]));
        let b = with.extract(&Column::from_raw("quantity", &["100"]));
        assert_ne!(a, b, "same values, different headers must differ");
        let without = extractor(FeatureConfig {
            header_embedding: false,
            ..FeatureConfig::default()
        });
        let a = without.extract(&Column::from_raw("salary", &["100"]));
        let b = without.extract(&Column::from_raw("quantity", &["100"]));
        assert_eq!(a, b, "values-only features ignore the header");
    }

    #[test]
    fn deterministic() {
        let ex = extractor(FeatureConfig::default());
        let c = Column::from_raw("c", &["x", "y", "z"]);
        assert_eq!(ex.extract(&c), ex.extract(&c));
    }
}
