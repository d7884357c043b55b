//! System configuration: thresholds, step weights, and sizes.

use crate::backend::EmbeddingBackendKind;
use crate::cache::StableHasher;
use crate::executor::ParallelismPolicy;
use crate::prediction::StepId;

/// SigmaTyper configuration (paper §4.3).
#[derive(Debug, Clone, Copy)]
pub struct SigmaTyperConfig {
    /// Cascade confidence threshold `c`: a later (slower) step runs for a
    /// column only while its best confidence so far is below `c`.
    pub cascade_threshold: f64,
    /// Abstention threshold τ: final predictions below τ become `unknown`
    /// ("we infer a parameter τ and threshold predictions that are below
    /// τ such that the precision of the system is high").
    pub tau: f64,
    /// How many ranked candidates to report per column (top-k).
    pub top_k: usize,
    /// Vote weight of the header-matching step.
    pub weight_header: f64,
    /// Vote weight of the value-lookup step.
    pub weight_lookup: f64,
    /// Vote weight of the table-embedding step.
    pub weight_embedding: f64,
    /// Scale applied to lookup hits that come from numeric-range LFs
    /// only — ranges are inherently ambiguous, so they must not clear the
    /// cascade threshold unassisted.
    pub range_lf_scale: f64,
    /// Values sampled per column in the lookup step.
    pub lookup_sample: usize,
    /// Ablation: run the header-matching step.
    pub enable_header: bool,
    /// Ablation: run the value-lookup step.
    pub enable_lookup: bool,
    /// Ablation: run the table-embedding step.
    pub enable_embedding: bool,
    /// When the [`CascadeExecutor`](crate::executor::CascadeExecutor)
    /// may run a step's pending columns in parallel (execution
    /// strategy only — proven output-invariant by the golden
    /// parallel-vs-sequential suite, and therefore **not** part of the
    /// cache fingerprint). Requests cannot override it.
    pub parallelism: ParallelismPolicy,
    /// Worker budget for intra-table column chunks: the maximum number
    /// of scoped threads one table's step frontier may fan out to.
    /// `0` means "auto" (the machine's available parallelism). The
    /// [`AnnotationService`](crate::service::AnnotationService)
    /// replaces this per worker when splitting its shared budget;
    /// requests cannot override it.
    ///
    /// Latency *budgets* are deliberately **not** configuration: they
    /// are per-request quantities
    /// ([`RequestOptions::budget_nanos`](crate::request::RequestOptions::budget_nanos)),
    /// which also keeps them out of the cache fingerprint — a budget
    /// changes which steps run, never what an executed step scores.
    pub column_threads: usize,
    /// Inference backend of the table-embedding step (see
    /// [`crate::backend`]). The default,
    /// [`ReferenceF32`](crate::backend::ReferenceF32), is bit-identical
    /// to the seed transcription; the others trade bits for speed.
    /// Unlike the execution-strategy fields this **is** fingerprinted
    /// (when non-default): approximate backends score differently, so
    /// their cache entries must never cross-serve. A request may
    /// override it per call via
    /// [`RequestOptions::embedding_backend`](crate::request::RequestOptions::embedding_backend).
    pub embedding_backend: EmbeddingBackendKind,
    /// Base sensitivity threshold for delta-aware recrawls: when an
    /// annotation request carries a base table
    /// ([`AnnotationRequest::with_base`](crate::request::AnnotationRequest::with_base)),
    /// a column-scoped step reuses the base crawl's cached scores for a
    /// column whose [`movement`](tu_table::ColumnDelta::movement)
    /// stayed at or below this threshold scaled by the step's own
    /// [`sensitivity_factor`](crate::step::AnnotationStep::sensitivity_factor).
    /// `0.0` disables approximation entirely — any real change re-runs
    /// every step, so incremental recrawls are bit-identical to full
    /// recomputation. A request may override it per call via
    /// [`RequestOptions::delta_sensitivity`](crate::request::RequestOptions::delta_sensitivity).
    pub delta_sensitivity: f64,
}

impl SigmaTyperConfig {
    /// Default vote weight of a step: the three standard steps read
    /// their configured weights; every other step (including
    /// [`StepId::REGEX_ONLY`] and custom steps) defaults to 1.0. The
    /// cascade builder can override any step's weight per instance.
    #[must_use]
    pub fn step_weight(&self, step: StepId) -> f64 {
        match step {
            StepId::HEADER => self.weight_header,
            StepId::LOOKUP => self.weight_lookup,
            StepId::EMBEDDING => self.weight_embedding,
            _ => 1.0,
        }
    }

    /// Hash every step-relevant field into a column fingerprint (see
    /// [`crate::cache`]). All fields are included — steps receive the
    /// whole config through `StepContext`, so any field may influence a
    /// step's scores. Keeping this exhaustive is a correctness
    /// obligation: a config field that steps can read but fingerprints
    /// ignore would let the cache serve stale scores after a config
    /// change — hence the full destructuring below, which turns a
    /// forgotten new field into a compile error. (The vote weights are
    /// included too even though they act after the cascade: a spurious
    /// mismatch only costs a cache miss.)
    ///
    /// The execution-strategy fields (`parallelism`, `column_threads`)
    /// are the one deliberate exception: the golden equivalence suite
    /// proves column-parallel execution bit-identical to sequential,
    /// so hashing them would only split the cache between workers that
    /// carry different budget shares (and cold-start every policy
    /// flip) without ever guarding against a real divergence. Steps
    /// must not let these fields influence their scores.
    pub fn fingerprint_into(&self, h: &mut StableHasher) {
        let SigmaTyperConfig {
            cascade_threshold,
            tau,
            top_k,
            weight_header,
            weight_lookup,
            weight_embedding,
            range_lf_scale,
            lookup_sample,
            enable_header,
            enable_lookup,
            enable_embedding,
            // Execution strategy: output-invariant, deliberately not
            // fingerprinted (see above).
            parallelism: _,
            column_threads: _,
            embedding_backend,
            // Deliberately not fingerprinted: the sensitivity gate only
            // decides whether a step *re-runs* or *reuses the base
            // crawl's entry* — reused scores are never inserted under
            // the new fingerprint (the executor suppresses those
            // writes), so no cached entry ever depends on this value.
            // Hashing it would cold-start the cache on every threshold
            // tune without guarding anything.
            delta_sensitivity: _,
        } = *self;
        h.write_f64(cascade_threshold);
        h.write_f64(tau);
        h.write_usize(top_k);
        h.write_f64(weight_header);
        h.write_f64(weight_lookup);
        h.write_f64(weight_embedding);
        h.write_f64(range_lf_scale);
        h.write_usize(lookup_sample);
        h.write_u8(u8::from(enable_header));
        h.write_u8(u8::from(enable_lookup));
        h.write_u8(u8::from(enable_embedding));
        // The embedding backend is hashed only when non-default: the
        // default (`ReferenceF32`) is fingerprinted as *absence* so
        // seed-era fingerprints — and any persisted disk-cache tier
        // written before backends existed — remain valid verbatim.
        // Approximate backends score differently, so each non-default
        // backend contributes its own tag and never cross-serves.
        if embedding_backend != EmbeddingBackendKind::ReferenceF32 {
            h.write_u8(embedding_backend.fingerprint_tag());
        }
    }
}

impl Default for SigmaTyperConfig {
    fn default() -> Self {
        SigmaTyperConfig {
            cascade_threshold: 0.82,
            tau: 0.4,
            top_k: 3,
            weight_header: 1.0,
            weight_lookup: 1.0,
            weight_embedding: 1.2,
            range_lf_scale: 0.55,
            lookup_sample: 40,
            enable_header: true,
            enable_lookup: true,
            enable_embedding: true,
            parallelism: ParallelismPolicy::default(),
            column_threads: 0,
            embedding_backend: EmbeddingBackendKind::ReferenceF32,
            delta_sensitivity: 0.05,
        }
    }
}

/// Training-time configuration for the global model.
#[derive(Debug, Clone, Copy)]
pub struct TrainingConfig {
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// Skip-gram epochs.
    pub embed_epochs: usize,
    /// MLP hidden width.
    pub hidden: usize,
    /// MLP epochs.
    pub epochs: usize,
    /// Fraction of training columns held out for temperature calibration.
    pub calibration_fraction: f64,
    /// Seed for all training randomness.
    pub seed: u64,
    /// Spare MLP output classes reserved for customer-registered custom
    /// types (learned later via local finetuning).
    pub reserve_classes: usize,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            embed_dim: 32,
            embed_epochs: 6,
            hidden: 64,
            epochs: 25,
            calibration_fraction: 0.15,
            seed: 0x516,
            reserve_classes: 8,
        }
    }
}

impl TrainingConfig {
    /// A small configuration for fast unit tests.
    #[must_use]
    pub fn fast() -> Self {
        TrainingConfig {
            embed_dim: 16,
            embed_epochs: 2,
            hidden: 24,
            epochs: 8,
            calibration_fraction: 0.15,
            seed: 0x516,
            reserve_classes: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = SigmaTyperConfig::default();
        assert!(c.cascade_threshold > c.tau);
        assert!(c.top_k >= 1);
        assert!(c.range_lf_scale < c.cascade_threshold);
        // Strictly below 1.0: a fully rewritten column (movement ≥ 1)
        // must never slip through the default reuse gate.
        assert!(c.delta_sensitivity >= 0.0 && c.delta_sensitivity < 1.0);
        let t = TrainingConfig::default();
        assert!(t.calibration_fraction > 0.0 && t.calibration_fraction < 1.0);
        assert!(TrainingConfig::fast().epochs < t.epochs);
    }

    #[test]
    fn fingerprint_covers_every_field() {
        let finish = |c: &SigmaTyperConfig| {
            let mut h = StableHasher::new();
            c.fingerprint_into(&mut h);
            h.finish128()
        };
        let base = SigmaTyperConfig::default();
        assert_eq!(finish(&base), finish(&base), "deterministic");
        // Every field perturbation must move the fingerprint.
        let variants = [
            SigmaTyperConfig {
                cascade_threshold: 0.5,
                ..base
            },
            SigmaTyperConfig { tau: 0.9, ..base },
            SigmaTyperConfig { top_k: 7, ..base },
            SigmaTyperConfig {
                weight_header: 0.3,
                ..base
            },
            SigmaTyperConfig {
                weight_lookup: 0.3,
                ..base
            },
            SigmaTyperConfig {
                weight_embedding: 0.3,
                ..base
            },
            SigmaTyperConfig {
                range_lf_scale: 0.1,
                ..base
            },
            SigmaTyperConfig {
                lookup_sample: 3,
                ..base
            },
            SigmaTyperConfig {
                enable_header: false,
                ..base
            },
            SigmaTyperConfig {
                enable_lookup: false,
                ..base
            },
            SigmaTyperConfig {
                enable_embedding: false,
                ..base
            },
            SigmaTyperConfig {
                embedding_backend: EmbeddingBackendKind::BlockedSimd,
                ..base
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(finish(&base), finish(v), "variant {i} did not move");
        }
        // Execution strategy must NOT move the fingerprint: parallel
        // and sequential runs are bit-identical (golden suite), and
        // service workers carrying different budget shares must keep
        // hitting one shared cache.
        let strategies = [
            SigmaTyperConfig {
                parallelism: ParallelismPolicy::Off,
                ..base
            },
            SigmaTyperConfig {
                parallelism: ParallelismPolicy::FixedChunk { columns: 2 },
                ..base
            },
            SigmaTyperConfig {
                column_threads: 7,
                ..base
            },
            // The delta-reuse sensitivity gates reuse of *base-crawl*
            // entries; it never changes what an executed step scores
            // or what gets inserted, so tuning it must not cold-start
            // the cache.
            SigmaTyperConfig {
                delta_sensitivity: 0.4,
                ..base
            },
        ];
        for (i, v) in strategies.iter().enumerate() {
            assert_eq!(
                finish(&base),
                finish(v),
                "execution-strategy variant {i} moved the fingerprint"
            );
        }
    }

    /// `ReferenceF32` (the default) must keep seed-era fingerprints
    /// byte-stable: the backend field is hashed only when non-default,
    /// so configs written before backends existed — including every
    /// entry in a persisted disk-cache tier — hash to exactly the same
    /// value today. This replays the seed-era write sequence by hand
    /// and demands equality, not merely determinism.
    #[test]
    fn reference_backend_keeps_seed_era_fingerprints() {
        let base = SigmaTyperConfig::default();
        assert_eq!(base.embedding_backend, EmbeddingBackendKind::ReferenceF32);
        let mut h = StableHasher::new();
        base.fingerprint_into(&mut h);
        let today = h.finish128();

        let mut seed_era = StableHasher::new();
        seed_era.write_f64(base.cascade_threshold);
        seed_era.write_f64(base.tau);
        seed_era.write_usize(base.top_k);
        seed_era.write_f64(base.weight_header);
        seed_era.write_f64(base.weight_lookup);
        seed_era.write_f64(base.weight_embedding);
        seed_era.write_f64(base.range_lf_scale);
        seed_era.write_usize(base.lookup_sample);
        seed_era.write_u8(u8::from(base.enable_header));
        seed_era.write_u8(u8::from(base.enable_lookup));
        seed_era.write_u8(u8::from(base.enable_embedding));
        assert_eq!(
            today,
            seed_era.finish128(),
            "default-backend fingerprint diverged from the seed-era scheme"
        );
    }

    #[test]
    fn step_weights_resolve_per_step() {
        let c = SigmaTyperConfig {
            weight_header: 0.5,
            weight_lookup: 2.0,
            weight_embedding: 3.0,
            ..SigmaTyperConfig::default()
        };
        assert_eq!(c.step_weight(StepId::HEADER), 0.5);
        assert_eq!(c.step_weight(StepId::LOOKUP), 2.0);
        assert_eq!(c.step_weight(StepId::EMBEDDING), 3.0);
        assert_eq!(c.step_weight(StepId::REGEX_ONLY), 1.0);
        assert_eq!(c.step_weight(StepId::custom(0)), 1.0);
    }
}
