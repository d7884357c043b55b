//! # tu-eval
//!
//! The experiment harness: operationalizes every figure and quantitative
//! claim of *Making Table Understanding Work in Practice* (CIDR'22) as a
//! measurable experiment over the synthetic GitTables substitute
//! (`tu_corpus`). The experiments are E1–E8, each in a module of its own
//! (`e1_covariate` … `e8_representativeness`) whose docs name the figure
//! or claim it measures; [`run_all`] runs them in order, and the
//! `reproduce` binary of `tu_bench` prints their tables.

#![warn(missing_docs)]

pub mod baselines;
pub mod e1_covariate;
pub mod e2_labelshift;
pub mod e3_ood;
pub mod e4_adaptation;
pub mod e5_dpbd;
pub mod e6_cascade;
pub mod e7_precision_coverage;
pub mod e8_representativeness;
pub mod lab;
pub mod report;

pub use lab::{evaluate, score_predictions, EvalStats, Lab, Scale};
pub use report::Report;

/// Run every experiment at the given scale, returning rendered reports
/// in order E1..E8.
#[must_use]
pub fn run_all(scale: Scale) -> Vec<Report> {
    let lab = Lab::new(scale);
    let mut reports = vec![
        e1_covariate::run(&lab).report,
        e2_labelshift::run(&lab).report,
        e3_ood::run(&lab).report,
        e4_adaptation::run(&lab).report,
        e5_dpbd::run(&lab).report,
    ];
    let e6 = e6_cascade::run(&lab);
    reports.push(e6.report);
    reports.push(e6.latency_report);
    let e7 = e7_precision_coverage::run(&lab);
    reports.push(e7.report);
    reports.push(e7.variant_report);
    reports.push(e8_representativeness::run(&lab).report);
    reports
}
