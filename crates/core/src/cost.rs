//! Per-step cost/yield telemetry: the [`CostModel`].
//!
//! The paper orders the cascade "in order of inference time" (§4.3) —
//! but inference time is a property of the deployment (table shapes,
//! adaptation state, custom steps), not of the code. The `CostModel`
//! learns it online: every annotation's
//! [`StepTiming`](crate::prediction::StepTiming) records feed an
//! exponentially weighted moving average of each step's measured
//! **cost** (nanoseconds per executed column, preferring the
//! [`parallel_nanos`](crate::prediction::StepTiming::parallel_nanos)
//! CPU proxy so column-parallel execution cannot make a step look
//! cheap) and **yield** (the fraction of executed columns the step
//! resolved, i.e. pushed past the cascade confidence threshold).
//!
//! Two consumers:
//!
//! * [`Cascade::reorder_by_cost`](crate::cascade::Cascade::reorder_by_cost)
//!   re-sorts the cascade by measured cost per unit yield — the
//!   cost-aware step ordering the ROADMAP called for;
//! * the [`CascadeExecutor`](crate::executor::CascadeExecutor) budget
//!   ledger consults step estimates to decide whether a pending
//!   frontier still fits the remaining budget of a
//!   [`DropTailSteps`](crate::request::DegradationPolicy::DropTailSteps)
//!   or [`BestEffort`](crate::request::DegradationPolicy::BestEffort)
//!   request (see [`crate::request`]).
//!
//! The model is observation-only telemetry: updating it never changes
//! any annotation. A [`SigmaTyper`](crate::system::SigmaTyper) carries
//! one behind an `Arc`, shared by its clones (and therefore by every
//! [`AnnotationService`](crate::service::AnnotationService) worker),
//! so batch serving keeps feeding a single model.

use crate::prediction::{StepId, TableAnnotation};
use std::collections::HashMap;
use std::sync::Mutex;

/// Smoothing factor of the EWMA: each observation contributes 20%,
/// history 80% — reactive enough to follow adaptation-driven cost
/// drift (a growing local LF bank makes lookup slower), damped enough
/// that one noisy table cannot reorder a cascade.
const EWMA_ALPHA: f64 = 0.2;

/// Yield floor used when ranking steps by cost per unit yield: a step
/// that never resolved anything still gets a finite (bad) rank instead
/// of a division by zero.
const YIELD_FLOOR: f64 = 1e-3;

/// One step's current cost/yield estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepCostEstimate {
    /// EWMA nanoseconds per executed column (CPU proxy: in-chunk time
    /// when the executor reports it, wall-clock otherwise).
    pub nanos_per_column: f64,
    /// EWMA fraction of executed columns the step resolved (best
    /// confidence reached the cascade threshold at this step).
    pub yield_rate: f64,
    /// How many annotation runs contributed to the averages.
    pub samples: u64,
}

impl StepCostEstimate {
    /// Measured cost per unit yield — the quantity cost-aware ordering
    /// sorts by (ascending). Yield is floored so resolve-nothing steps
    /// rank finite-but-last instead of dividing by zero.
    #[must_use]
    pub fn cost_per_yield(&self) -> f64 {
        self.nanos_per_column / self.yield_rate.max(YIELD_FLOOR)
    }
}

/// An online EWMA of per-step measured cost and yield (see the [module
/// docs](self)).
///
/// Thread-safe: observations from concurrent
/// [`AnnotationService`](crate::service::AnnotationService) workers
/// serialize on an internal mutex (the critical section is a handful
/// of float updates per table).
#[derive(Debug, Default)]
pub struct CostModel {
    steps: Mutex<HashMap<StepId, StepCostEstimate>>,
}

impl CostModel {
    /// An empty model (no estimates until the first observation).
    #[must_use]
    pub fn new() -> Self {
        CostModel::default()
    }

    /// Fold one annotation's telemetry into the model: per executed
    /// step, cost = `parallel_nanos / columns` (falling back to the
    /// wall-clock `nanos` when no in-chunk time was recorded) and
    /// yield = resolved columns / executed columns, where "executed"
    /// counts cache hits too (a cached resolution is still this step's
    /// yield) and "resolved" means the column's
    /// [`resolving_step`](crate::prediction::ColumnAnnotation::resolving_step)
    /// under `cascade_threshold` is this step. Steps that executed
    /// nothing this run are left untouched.
    pub fn observe(&self, annotation: &TableAnnotation, cascade_threshold: f64) {
        let mut resolved_at: HashMap<StepId, usize> = HashMap::new();
        for col in &annotation.columns {
            if let Some(step) = col.resolving_step(cascade_threshold) {
                *resolved_at.entry(step).or_insert(0) += 1;
            }
        }
        let mut steps = lock(&self.steps);
        for t in &annotation.timings {
            let executed = t.columns + t.cache_hits;
            if executed == 0 {
                continue;
            }
            // Cost is charged to columns the step actually ran; a
            // fully cache-served step contributes yield but no cost
            // sample (its measured nanos are memo traffic, not step
            // cost).
            let cost_sample = if t.columns > 0 {
                let busy = if t.parallel_nanos > 0 {
                    t.parallel_nanos
                } else {
                    t.nanos
                };
                Some(busy as f64 / t.columns as f64)
            } else {
                None
            };
            let yield_sample =
                resolved_at.get(&t.step).copied().unwrap_or(0) as f64 / executed as f64;
            let entry = steps.entry(t.step).or_insert(StepCostEstimate {
                nanos_per_column: 0.0,
                yield_rate: yield_sample,
                samples: 0,
            });
            if entry.samples == 0 {
                // Seed from the first observation instead of decaying
                // up from zero.
                entry.nanos_per_column = cost_sample.unwrap_or(0.0);
                entry.yield_rate = yield_sample;
            } else {
                if let Some(cost) = cost_sample {
                    entry.nanos_per_column =
                        (1.0 - EWMA_ALPHA) * entry.nanos_per_column + EWMA_ALPHA * cost;
                }
                entry.yield_rate =
                    (1.0 - EWMA_ALPHA) * entry.yield_rate + EWMA_ALPHA * yield_sample;
            }
            entry.samples += 1;
        }
    }

    /// Overwrite one step's estimate directly — for synthetic models
    /// in tests and for operators seeding a deployment with offline
    /// measurements.
    pub fn set(&self, step: StepId, nanos_per_column: f64, yield_rate: f64) {
        lock(&self.steps).insert(
            step,
            StepCostEstimate {
                nanos_per_column,
                yield_rate,
                samples: 1,
            },
        );
    }

    /// The current estimate for one step, if it has ever been observed.
    #[must_use]
    pub fn estimate(&self, step: StepId) -> Option<StepCostEstimate> {
        lock(&self.steps).get(&step).copied()
    }

    /// Snapshot of every step estimate, in unspecified order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(StepId, StepCostEstimate)> {
        lock(&self.steps).iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Drop every estimate (the model re-seeds from the next
    /// observation).
    pub fn clear(&self) {
        lock(&self.steps).clear();
    }
}

/// Lock the estimate map, tolerating poisoning: estimates are plain
/// floats, so a panic elsewhere can at worst leave a half-updated EWMA
/// — telemetry noise, never a correctness issue.
fn lock<'a>(
    m: &'a Mutex<HashMap<StepId, StepCostEstimate>>,
) -> std::sync::MutexGuard<'a, HashMap<StepId, StepCostEstimate>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prediction::{Candidate, ColumnAnnotation, StepScores, StepTiming};
    use tu_ontology::TypeId;

    fn timing(
        step: StepId,
        nanos: u128,
        parallel: u128,
        columns: usize,
        hits: usize,
    ) -> StepTiming {
        StepTiming {
            step,
            name: step.name().to_owned(),
            nanos,
            columns,
            cache_hits: hits,
            cache_misses: 0,
            cache_inserts: 0,
            chunks: usize::from(columns > 0),
            parallel_nanos: parallel,
            delta_reused: 0,
            global_hits: 0,
        }
    }

    fn resolved_column(step: StepId, conf: f64) -> ColumnAnnotation {
        ColumnAnnotation {
            col_idx: 0,
            top_k: vec![],
            predicted: TypeId(1),
            confidence: conf,
            steps_run: vec![step],
            step_scores: vec![StepScores::from_candidates(vec![Candidate {
                ty: TypeId(1),
                confidence: conf,
            }])],
        }
    }

    #[test]
    fn observe_seeds_then_smooths() {
        let model = CostModel::new();
        assert!(model.estimate(StepId::LOOKUP).is_none());
        let ann = TableAnnotation {
            columns: vec![resolved_column(StepId::LOOKUP, 0.9)],
            timings: vec![timing(StepId::LOOKUP, 1_000, 1_000, 1, 0)],
        };
        model.observe(&ann, 0.82);
        let e = model.estimate(StepId::LOOKUP).unwrap();
        assert!(
            (e.nanos_per_column - 1_000.0).abs() < 1e-9,
            "seeded from first sample"
        );
        assert!((e.yield_rate - 1.0).abs() < 1e-9);
        assert_eq!(e.samples, 1);
        // Second observation: EWMA toward the new sample.
        let ann2 = TableAnnotation {
            columns: vec![],
            timings: vec![timing(StepId::LOOKUP, 2_000, 2_000, 1, 0)],
        };
        model.observe(&ann2, 0.82);
        let e = model.estimate(StepId::LOOKUP).unwrap();
        assert!(
            (e.nanos_per_column - 1_200.0).abs() < 1e-9,
            "0.8*1000 + 0.2*2000"
        );
        assert!(
            (e.yield_rate - 0.8).abs() < 1e-9,
            "yield decays when nothing resolves"
        );
        assert_eq!(e.samples, 2);
    }

    #[test]
    fn cache_hits_count_toward_yield_but_not_cost() {
        let model = CostModel::new();
        // 2 columns resolved by lookup, both served from cache; the
        // step ran nothing, so no cost sample exists — but the yield
        // is real.
        let ann = TableAnnotation {
            columns: vec![resolved_column(StepId::LOOKUP, 0.9), {
                let mut c = resolved_column(StepId::LOOKUP, 0.95);
                c.col_idx = 1;
                c
            }],
            timings: vec![timing(StepId::LOOKUP, 500, 0, 0, 2)],
        };
        model.observe(&ann, 0.82);
        let e = model.estimate(StepId::LOOKUP).unwrap();
        assert!((e.yield_rate - 1.0).abs() < 1e-9);
        assert!(
            (e.nanos_per_column - 0.0).abs() < 1e-9,
            "memo traffic is not step cost"
        );
    }

    #[test]
    fn wall_clock_fallback_when_no_parallel_nanos() {
        let model = CostModel::new();
        let ann = TableAnnotation {
            columns: vec![],
            timings: vec![timing(StepId::EMBEDDING, 4_000, 0, 2, 0)],
        };
        model.observe(&ann, 0.82);
        let e = model.estimate(StepId::EMBEDDING).unwrap();
        assert!((e.nanos_per_column - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn untouched_steps_keep_no_estimate() {
        let model = CostModel::new();
        let ann = TableAnnotation {
            columns: vec![],
            timings: vec![timing(StepId::HEADER, 100, 0, 0, 0)],
        };
        model.observe(&ann, 0.82);
        assert!(model.estimate(StepId::HEADER).is_none(), "executed nothing");
        assert!(model.snapshot().is_empty());
    }

    #[test]
    fn set_and_ranking_helpers() {
        let model = CostModel::new();
        model.set(StepId::HEADER, 100.0, 0.5);
        model.set(StepId::EMBEDDING, 10_000.0, 0.0);
        let cheap = model.estimate(StepId::HEADER).unwrap();
        let dear = model.estimate(StepId::EMBEDDING).unwrap();
        assert!(cheap.cost_per_yield() < dear.cost_per_yield());
        // Zero yield is floored, not divided by.
        assert!(dear.cost_per_yield().is_finite());
        assert_eq!(model.snapshot().len(), 2);
        model.clear();
        assert!(model.estimate(StepId::HEADER).is_none());
    }
}
