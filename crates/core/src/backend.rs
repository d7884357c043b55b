//! Pluggable embedding-inference backends: the [`EmbeddingBackend`]
//! trait and the two built-in implementations behind
//! [`EmbeddingBackendKind`].
//!
//! The table-embedding step is the dominant cold-path cost of the
//! cascade, and "run the MLP head" is the seam where an alternative
//! inference engine plugs in: the reference f32 forward pass and a
//! blocked (8-lane, SIMD-friendly) f32 matmul ship today. Long-range, a
//! remote model server is just another backend behind the same trait
//! (PAPERS.md's LLM line).
//!
//! # Contract
//!
//! Backends differ **only** in how they evaluate the MLP head: a
//! backend implements [`EmbeddingBackend::logits`], and
//! [`EmbeddingBackend::predict_with_context`] is provided over it.
//! Featurization ([`TableEmbeddingModel::features_with_context`]),
//! temperature calibration, and candidate thresholding
//! ([`TableEmbeddingModel::scores_from_logits`]) are shared, so every
//! backend scores the same feature vector through the same calibration
//! tail. [`EmbeddingBackend::encode_header`] must depend only on the
//! model's featurizer: the embedding step encodes a table's headers
//! once for two models that
//! [share one](TableEmbeddingModel::shares_featurizer), featurizes each
//! column once, and runs both heads' `logits` on that one vector. Each
//! backend declares an [`AccuracyClass`]:
//!
//! * [`BitExact`](AccuracyClass::BitExact) — produces the same bits as
//!   [`ReferenceF32`] (the reference itself).
//! * [`Approximate`](AccuracyClass::Approximate) — numerically close
//!   but not bit-identical ([`BlockedSimd`] reassociates the f32
//!   accumulation into 8 independent lanes). The golden-tolerance
//!   suite (`tests/embed_backends.rs`) holds it within tolerance on
//!   the e1–e8 eval corpora.
//!
//! Because approximate backends may change scores, the selected
//! backend is part of the cache fingerprint
//! ([`SigmaTyperConfig::fingerprint_into`]): cached step results from
//! one backend are never served to another. The default
//! ([`ReferenceF32`]) is fingerprinted as the *absence* of a backend
//! tag, so seed-era fingerprints — and any persisted cache tier built
//! before backends existed — stay valid.
//!
//! [`SigmaTyperConfig::fingerprint_into`]: crate::config::SigmaTyperConfig::fingerprint_into

use crate::embedstep::TableEmbeddingModel;
use crate::prediction::StepScores;
use std::fmt;
use tu_ml::Mlp;
use tu_table::Column;

/// How a backend's scores relate to the reference implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccuracyClass {
    /// Bit-identical to [`ReferenceF32`] on every input.
    BitExact,
    /// Numerically close, not bit-identical; held within a golden
    /// tolerance on the e1–e8 eval corpora.
    Approximate,
}

/// One embedding-inference strategy over a [`TableEmbeddingModel`].
///
/// Implementations are stateless values, shared by reference across
/// the executor's worker threads — hence `Send + Sync`.
pub trait EmbeddingBackend: fmt::Debug + Send + Sync {
    /// Stable wire name of this backend (what
    /// [`EmbeddingBackendKind::parse`] accepts and the server's
    /// `embedding_backend` option carries).
    fn name(&self) -> &'static str;

    /// Whether this backend reproduces [`ReferenceF32`]'s bits or only
    /// approximates them.
    fn accuracy_class(&self) -> AccuracyClass;

    /// Phrase vector of one raw header under `model`'s embedder — the
    /// unit of the neighbor-context encoding. The default delegates to
    /// [`TableEmbeddingModel::header_vector`]; a remote backend would
    /// encode through its own service here. It may read only the
    /// model's featurizer (see the [module docs](self)).
    fn encode_header(&self, model: &TableEmbeddingModel, header: &str) -> Vec<f32> {
        model.header_vector(header)
    }

    /// Raw logits of the MLP head `mlp` over one scaled feature vector
    /// ([`TableEmbeddingModel::features_with_context`]): the one thing
    /// backends differ in.
    fn logits(&self, mlp: &Mlp, features: &[f32]) -> Vec<f32>;

    /// Score one column with a precomputed neighbor context: the
    /// model's shared featurization, this backend's
    /// [`logits`](EmbeddingBackend::logits), and the shared calibration
    /// tail. Provided; the embedding step's scorer calls the same three
    /// pieces directly, so an override must return exactly this.
    fn predict_with_context(
        &self,
        model: &TableEmbeddingModel,
        column: &Column,
        context: &[f32],
    ) -> StepScores {
        let f = model.features_with_context(column, context);
        model.scores_from_logits(&self.logits(model.mlp(), &f))
    }
}

/// Selector for the built-in backends — the `Copy` value that rides
/// [`SigmaTyperConfig`](crate::config::SigmaTyperConfig),
/// [`RequestOptions`](crate::request::RequestOptions), and the server's
/// `embedding_backend` option. Resolve to the actual implementation
/// with [`EmbeddingBackendKind::backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmbeddingBackendKind {
    /// The reference f32 MLP forward pass — the default, bit-identical
    /// to the seed transcription.
    #[default]
    ReferenceF32,
    /// Blocked f32 matmul with 8 independent accumulator lanes (manual
    /// f32x8-style, no external deps).
    BlockedSimd,
}

impl EmbeddingBackendKind {
    /// Every built-in backend, in fingerprint-tag order.
    pub const ALL: [EmbeddingBackendKind; 2] = [
        EmbeddingBackendKind::ReferenceF32,
        EmbeddingBackendKind::BlockedSimd,
    ];

    /// The implementation behind this selector.
    #[must_use]
    pub fn backend(self) -> &'static dyn EmbeddingBackend {
        match self {
            EmbeddingBackendKind::ReferenceF32 => &ReferenceF32,
            EmbeddingBackendKind::BlockedSimd => &BlockedSimd,
        }
    }

    /// Stable wire name (`"reference_f32"`, `"blocked_simd"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        self.backend().name()
    }

    /// Parse a wire name back into a selector. Unknown names are a
    /// typed [`UnknownBackendError`] (never a panic) so servers can
    /// turn them into a 400 with the valid names listed.
    ///
    /// # Errors
    /// Returns [`UnknownBackendError`] when `name` matches no built-in
    /// backend.
    pub fn parse(name: &str) -> Result<Self, UnknownBackendError> {
        Self::ALL
            .into_iter()
            .find(|kind| kind.label() == name)
            .ok_or_else(|| UnknownBackendError {
                requested: name.to_owned(),
            })
    }

    /// Nonzero fingerprint tag for non-default backends (the default is
    /// fingerprinted as absence — see the [module docs](self)). Tags
    /// are part of persisted cache keys, so a backend's tag never
    /// changes: `BlockedSimd` entries written to a disk tier stay valid.
    #[must_use]
    pub(crate) fn fingerprint_tag(self) -> u8 {
        match self {
            EmbeddingBackendKind::ReferenceF32 => 0,
            EmbeddingBackendKind::BlockedSimd => 2,
        }
    }
}

/// A backend name that matches no built-in backend — the typed error
/// [`EmbeddingBackendKind::parse`] returns, rendered with the valid
/// names so a server 400 is self-explanatory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackendError {
    /// The name that failed to parse.
    pub requested: String,
}

impl fmt::Display for UnknownBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown embedding backend {:?}: expected one of ",
            self.requested
        )?;
        for (i, kind) in EmbeddingBackendKind::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{:?}", kind.label())?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownBackendError {}

/// The reference backend: the model's own f32 forward pass, bit for
/// bit. Always the default; every golden-equivalence suite runs
/// against it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceF32;

impl EmbeddingBackend for ReferenceF32 {
    fn name(&self) -> &'static str {
        "reference_f32"
    }

    fn accuracy_class(&self) -> AccuracyClass {
        AccuracyClass::BitExact
    }

    fn logits(&self, mlp: &Mlp, features: &[f32]) -> Vec<f32> {
        mlp.logits(features)
    }
}

/// Blocked f32 inference: each dot product runs over 8 independent
/// accumulator lanes (a manual f32x8), so the compiler can keep the
/// multiply-adds in vector registers instead of the reference path's
/// serial dependency chain. Reassociating f32 addition changes the
/// bits, hence [`Approximate`](AccuracyClass::Approximate).
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockedSimd;

/// 8-lane blocked dot product. The lane reduction tree is fixed
/// (pairwise over strides of 4 and 2) so results are deterministic
/// across calls and platforms — approximate relative to the reference,
/// but stable.
fn blocked_dot(row: &[f32], x: &[f32]) -> f32 {
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let blocks = row.len() / LANES;
    for i in 0..blocks {
        let r = &row[i * LANES..(i + 1) * LANES];
        let v = &x[i * LANES..(i + 1) * LANES];
        for l in 0..LANES {
            acc[l] += r[l] * v[l];
        }
    }
    let mut tail = 0.0f32;
    for i in blocks * LANES..row.len() {
        tail += row[i] * x[i];
    }
    let half = [
        acc[0] + acc[4],
        acc[1] + acc[5],
        acc[2] + acc[6],
        acc[3] + acc[7],
    ];
    ((half[0] + half[2]) + (half[1] + half[3])) + tail
}

impl EmbeddingBackend for BlockedSimd {
    fn name(&self) -> &'static str {
        "blocked_simd"
    }

    fn accuracy_class(&self) -> AccuracyClass {
        AccuracyClass::Approximate
    }

    /// The forward pass over the model's own f32 weights, every dot
    /// product over 8 accumulator lanes.
    fn logits(&self, mlp: &Mlp, features: &[f32]) -> Vec<f32> {
        let mut cur = features.to_vec();
        for li in 0..mlp.n_layers() {
            let (w, b) = mlp.layer_params(li);
            let mut z = vec![0.0f32; w.rows];
            for (r, zr) in z.iter_mut().enumerate() {
                *zr = blocked_dot(w.row(r), &cur) + b[r];
            }
            if li + 1 != mlp.n_layers() {
                for v in &mut z {
                    *v = v.max(0.0); // ReLU
                }
            }
            cur = z;
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_labels() {
        for kind in EmbeddingBackendKind::ALL {
            assert_eq!(EmbeddingBackendKind::parse(kind.label()), Ok(kind));
            assert_eq!(kind.backend().name(), kind.label());
        }
        assert_eq!(EmbeddingBackendKind::default().label(), "reference_f32");
    }

    #[test]
    fn unknown_backend_is_a_typed_listing_error() {
        let err = EmbeddingBackendKind::parse("warp_drive").unwrap_err();
        assert_eq!(err.requested, "warp_drive");
        let msg = err.to_string();
        for kind in EmbeddingBackendKind::ALL {
            assert!(msg.contains(kind.label()), "{msg}");
        }
        // It is a real std error, usable behind `dyn Error`.
        let dynamic: Box<dyn std::error::Error> = Box::new(err);
        assert!(dynamic.to_string().contains("warp_drive"));
    }

    #[test]
    fn accuracy_classes_are_declared() {
        use EmbeddingBackendKind as K;
        assert_eq!(
            K::ReferenceF32.backend().accuracy_class(),
            AccuracyClass::BitExact
        );
        assert_eq!(
            K::BlockedSimd.backend().accuracy_class(),
            AccuracyClass::Approximate
        );
    }

    #[test]
    fn fingerprint_tags_are_distinct_and_default_is_zero() {
        let mut seen = std::collections::HashSet::new();
        for kind in EmbeddingBackendKind::ALL {
            assert!(seen.insert(kind.fingerprint_tag()));
        }
        assert_eq!(EmbeddingBackendKind::default().fingerprint_tag(), 0);
        // Persisted cache keys carry the tag: deleting other backends
        // must not renumber this one.
        assert_eq!(EmbeddingBackendKind::BlockedSimd.fingerprint_tag(), 2);
    }

    #[test]
    fn blocked_dot_matches_reference_within_tolerance() {
        let row: Vec<f32> = (0..67)
            .map(|i| ((i * 37) % 19) as f32 * 0.13 - 1.1)
            .collect();
        let x: Vec<f32> = (0..67)
            .map(|i| ((i * 53) % 23) as f32 * 0.07 - 0.8)
            .collect();
        let reference: f32 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
        let blocked = blocked_dot(&row, &x);
        assert!(
            (reference - blocked).abs() <= reference.abs().max(1.0) * 1e-5,
            "blocked {blocked} vs reference {reference}"
        );
        // Degenerate shapes.
        assert_eq!(blocked_dot(&[], &[]), 0.0);
        assert_eq!(blocked_dot(&[2.0], &[3.0]), 6.0);
    }
}
