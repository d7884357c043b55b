//! The [`Cascade`]: an ordered, pluggable pipeline of
//! [`AnnotationStep`]s with the paper's confidence-threshold early-exit
//! logic and per-step vote-weight overrides.
//!
//! "Each step in the pipeline is executed only if a preset confidence
//! threshold c is not met by the prior step. The steps are executed in
//! order of inference time." (§4.3) — the order is whatever the builder
//! configured, and the steps can be any mix of built-ins and
//! user-registered implementations.

use crate::config::SigmaTyperConfig;
use crate::executor::CascadeExecutor;
use crate::global::GlobalModel;
use crate::local::LocalModel;
use crate::prediction::{StepId, StepScores, StepTiming};
use crate::step::{AnnotationStep, EmbeddingStep, HeaderStep, LookupStep};
use std::collections::HashMap;
use std::sync::Arc;
use tu_table::Table;

/// An ordered list of annotation steps plus per-step weight overrides.
///
/// Steps are held behind `Arc` so a customer's [`SigmaTyper`] stays
/// cheaply cloneable (the batch service clones it per configuration,
/// and step implementations are stateless or read-only at inference
/// time).
///
/// [`SigmaTyper`]: crate::system::SigmaTyper
#[derive(Debug, Clone)]
pub struct Cascade {
    steps: Vec<Arc<dyn AnnotationStep>>,
    weight_overrides: HashMap<StepId, f64>,
}

/// What the cascade produced for one table: per-column `(step, scores)`
/// traces in execution order, plus one timing record per configured
/// step.
pub type CascadeTrace = (Vec<Vec<(StepId, StepScores)>>, Vec<StepTiming>);

impl Default for Cascade {
    fn default() -> Self {
        Cascade::standard()
    }
}

impl Cascade {
    /// The paper's standard three-step cascade: header → lookup →
    /// embedding.
    #[must_use]
    pub fn standard() -> Self {
        let mut c = Cascade::empty();
        c.push(HeaderStep);
        c.push(LookupStep);
        c.push(EmbeddingStep);
        c
    }

    /// A cascade with no steps (annotating with it abstains on every
    /// column); the starting point for fully custom pipelines.
    #[must_use]
    pub fn empty() -> Self {
        Cascade {
            steps: Vec::new(),
            weight_overrides: HashMap::new(),
        }
    }

    /// Number of configured steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Is the cascade empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Step ids in execution order.
    #[must_use]
    pub fn step_ids(&self) -> Vec<StepId> {
        self.steps.iter().map(|s| s.id()).collect()
    }

    /// The configured steps, in execution order — what the
    /// [`CascadeExecutor`] walks.
    #[must_use]
    pub fn steps(&self) -> &[Arc<dyn AnnotationStep>] {
        &self.steps
    }

    /// Is a step with this id configured?
    #[must_use]
    pub fn contains(&self, id: StepId) -> bool {
        self.steps.iter().any(|s| s.id() == id)
    }

    /// Append a step at the end of the cascade.
    ///
    /// # Panics
    /// Panics when a step with the same id is already configured — two
    /// steps must never share an id (telemetry, weights, and
    /// `steps_run` would become ambiguous).
    pub fn push(&mut self, step: impl AnnotationStep + 'static) {
        self.insert(self.steps.len(), step);
    }

    /// Insert a step at `index` (0 = runs first).
    ///
    /// # Panics
    /// Panics when `index > len()` or when a step with the same id is
    /// already configured.
    pub fn insert(&mut self, index: usize, step: impl AnnotationStep + 'static) {
        assert!(
            !self.contains(step.id()),
            "cascade already has a step with id {:?}",
            step.id()
        );
        self.steps.insert(index, Arc::new(step));
    }

    /// Remove the step with this id; returns whether one was removed.
    pub fn remove(&mut self, id: StepId) -> bool {
        let before = self.steps.len();
        self.steps.retain(|s| s.id() != id);
        self.weight_overrides.remove(&id);
        self.steps.len() != before
    }

    /// Reorder the cascade: steps listed in `order` run first, in that
    /// order; configured steps not listed keep their relative order and
    /// run after. Ids in `order` that are not configured are ignored.
    pub fn reorder(&mut self, order: &[StepId]) {
        let mut reordered: Vec<Arc<dyn AnnotationStep>> = Vec::with_capacity(self.steps.len());
        for id in order {
            if let Some(pos) = self.steps.iter().position(|s| s.id() == *id) {
                reordered.push(self.steps.remove(pos));
            }
        }
        reordered.append(&mut self.steps);
        self.steps = reordered;
    }

    /// Cost-aware step ordering (the paper's "executed in order of
    /// inference time", §4.3, measured instead of assumed): re-sort
    /// the steps the [`CostModel`](crate::cost::CostModel) has
    /// estimates for by ascending
    /// [`cost_per_yield`](crate::cost::StepCostEstimate::cost_per_yield),
    /// cheapest first. Steps without estimates keep their exact
    /// positions — only the ranked steps permute among the slots they
    /// already occupied, so an unobserved custom step is never flung
    /// to either end of the cascade. Ties keep the current relative
    /// order (the sort is stable), so repeated calls are idempotent.
    ///
    /// Returns `true` when the order actually changed. Reordering
    /// changes which steps run *first* — and therefore, through the
    /// early-exit gate, which steps run at all — but for columns no
    /// step resolves (no early exit) the soft majority vote is
    /// order-independent, which the golden suite pins down.
    ///
    /// Callers going through
    /// [`SigmaTyper::cascade_mut`](crate::system::SigmaTyper::cascade_mut)
    /// get the cache-epoch bump for free; the step order is part of
    /// every column fingerprint, so stale cached scores cannot
    /// survive a reorder either way.
    pub fn reorder_by_cost(&mut self, model: &crate::cost::CostModel) -> bool {
        let mut ranked: Vec<(usize, f64)> = self
            .steps
            .iter()
            .enumerate()
            .filter_map(|(i, s)| model.estimate(s.id()).map(|e| (i, e.cost_per_yield())))
            .collect();
        if ranked.len() < 2 {
            return false;
        }
        let slots: Vec<usize> = ranked.iter().map(|(i, _)| *i).collect();
        ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut changed = false;
        let mut reordered = self.steps.clone();
        for (slot, (from, _)) in slots.iter().zip(&ranked) {
            reordered[*slot] = self.steps[*from].clone();
            changed |= slot != from;
        }
        self.steps = reordered;
        changed
    }

    /// Override the vote weight of one step (by default a step weighs
    /// [`SigmaTyperConfig::step_weight`]).
    pub fn set_weight(&mut self, id: StepId, weight: f64) {
        self.weight_overrides.insert(id, weight);
    }

    /// Effective vote weight of a step: the override when one is set,
    /// else the config default.
    #[must_use]
    pub fn weight(&self, id: StepId, config: &SigmaTyperConfig) -> f64 {
        self.weight_overrides
            .get(&id)
            .copied()
            .unwrap_or_else(|| config.step_weight(id))
    }

    /// Run every configured step over every column of `table`, honoring
    /// each step's skip predicate (by default the cascade-threshold
    /// early exit), with no cache and no budget.
    ///
    /// Returns the per-column `(step, scores)` traces in execution
    /// order plus per-step timings. Aggregation (vote, specificity
    /// tie-break, τ) happens in [`SigmaTyper::annotate`]. Execution —
    /// the frontier loop and the (config-governed) column-parallel
    /// path — lives in [`CascadeExecutor`]; this method builds one
    /// from `config`.
    ///
    /// [`SigmaTyper::annotate`]: crate::system::SigmaTyper::annotate
    #[must_use]
    pub fn run(
        &self,
        table: &Table,
        global: &GlobalModel,
        local: &LocalModel,
        config: &SigmaTyperConfig,
    ) -> CascadeTrace {
        CascadeExecutor::from_config(config)
            .run_budgeted(self, table, global, local, config, None, None, None)
            .trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::RegexOnlyStep;

    #[test]
    fn standard_cascade_order() {
        let c = Cascade::standard();
        assert_eq!(
            c.step_ids(),
            vec![StepId::HEADER, StepId::LOOKUP, StepId::EMBEDDING]
        );
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(c.contains(StepId::LOOKUP));
        assert!(!c.contains(StepId::REGEX_ONLY));
    }

    #[test]
    fn insert_remove_reorder() {
        let mut c = Cascade::standard();
        c.insert(1, RegexOnlyStep);
        assert_eq!(
            c.step_ids(),
            vec![
                StepId::HEADER,
                StepId::REGEX_ONLY,
                StepId::LOOKUP,
                StepId::EMBEDDING
            ]
        );
        assert!(c.remove(StepId::EMBEDDING));
        assert!(!c.remove(StepId::EMBEDDING), "second removal is a no-op");
        c.reorder(&[StepId::LOOKUP]);
        // Listed step moves to the front; the rest keep relative order.
        assert_eq!(
            c.step_ids(),
            vec![StepId::LOOKUP, StepId::HEADER, StepId::REGEX_ONLY]
        );
        // Unknown ids in the order are ignored.
        c.reorder(&[StepId::EMBEDDING, StepId::REGEX_ONLY]);
        assert_eq!(
            c.step_ids(),
            vec![StepId::REGEX_ONLY, StepId::LOOKUP, StepId::HEADER]
        );
    }

    #[test]
    #[should_panic(expected = "already has a step")]
    fn duplicate_step_ids_rejected() {
        let mut c = Cascade::standard();
        c.push(LookupStep);
    }

    #[test]
    fn reorder_by_cost_sorts_ranked_steps_cheapest_first() {
        use crate::cost::CostModel;
        let model = CostModel::new();
        // Synthetic measurements: embedding is cheap per unit yield,
        // lookup expensive, header in between.
        model.set(StepId::HEADER, 500.0, 0.5); // 1000 per yield
        model.set(StepId::LOOKUP, 9_000.0, 0.3); // 30000 per yield
        model.set(StepId::EMBEDDING, 400.0, 0.8); // 500 per yield
        let mut c = Cascade::standard();
        assert!(c.reorder_by_cost(&model));
        assert_eq!(
            c.step_ids(),
            vec![StepId::EMBEDDING, StepId::HEADER, StepId::LOOKUP]
        );
        // Idempotent: a second call changes nothing.
        assert!(!c.reorder_by_cost(&model));
        assert_eq!(
            c.step_ids(),
            vec![StepId::EMBEDDING, StepId::HEADER, StepId::LOOKUP]
        );
    }

    #[test]
    fn reorder_by_cost_leaves_unobserved_steps_in_place() {
        use crate::cost::CostModel;
        let model = CostModel::new();
        // Only the outer two steps are ranked; lookup (middle) has no
        // estimate and must keep its slot exactly.
        model.set(StepId::HEADER, 10_000.0, 0.5);
        model.set(StepId::EMBEDDING, 100.0, 0.5);
        let mut c = Cascade::standard();
        c.push(RegexOnlyStep); // also unobserved
        assert!(c.reorder_by_cost(&model));
        assert_eq!(
            c.step_ids(),
            vec![
                StepId::EMBEDDING,
                StepId::LOOKUP,
                StepId::HEADER,
                StepId::REGEX_ONLY
            ]
        );
    }

    #[test]
    fn reorder_by_cost_needs_two_ranked_steps() {
        use crate::cost::CostModel;
        let model = CostModel::new();
        let mut c = Cascade::standard();
        // Empty model: nothing to rank.
        assert!(!c.reorder_by_cost(&model));
        assert_eq!(c.step_ids(), Cascade::standard().step_ids());
        // One estimate is still not a ranking.
        model.set(StepId::EMBEDDING, 1.0, 1.0);
        assert!(!c.reorder_by_cost(&model));
        assert_eq!(c.step_ids(), Cascade::standard().step_ids());
    }

    #[test]
    fn weight_overrides_fall_back_to_config() {
        let config = SigmaTyperConfig::default();
        let mut c = Cascade::standard();
        assert_eq!(
            c.weight(StepId::EMBEDDING, &config),
            config.weight_embedding
        );
        assert_eq!(c.weight(StepId::REGEX_ONLY, &config), 1.0);
        c.set_weight(StepId::EMBEDDING, 0.25);
        assert_eq!(c.weight(StepId::EMBEDDING, &config), 0.25);
        // Removing a step drops its override too.
        c.remove(StepId::EMBEDDING);
        c.push(EmbeddingStep);
        assert_eq!(
            c.weight(StepId::EMBEDDING, &config),
            config.weight_embedding
        );
    }
}
