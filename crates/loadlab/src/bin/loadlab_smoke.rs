//! CI smoke leg for the load lab: generate a small seeded workload,
//! replay it in process through the shaped serving stack, validate the
//! report's accounting, and print the structured report JSON.
//!
//! ```text
//! loadlab-smoke [SEED]   # SEED: an unsigned integer, default 7
//! ```
//!
//! Exits non-zero if generation is non-deterministic or the report
//! violates its accounting contract — the cheap invariants that make
//! the rest of the lab trustworthy. Any other arguments print a usage
//! line and exit with code 2.

use std::process::ExitCode;
use std::sync::Arc;
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_loadlab::{generate_workload, run_in_process, TargetConfig, WorkloadConfig};
use tu_ontology::builtin_ontology;

/// The seed a run without arguments replays.
const DEFAULT_SEED: u64 = 7;

fn main() -> ExitCode {
    let args: Vec<_> = std::env::args_os().skip(1).collect();
    let seed = match args.as_slice() {
        [] => Some(DEFAULT_SEED),
        [seed] => seed.to_str().and_then(|s| s.parse().ok()),
        _ => None,
    };
    let Some(seed) = seed else {
        eprintln!(
            "usage: loadlab-smoke [SEED]  (SEED: an unsigned integer, default {DEFAULT_SEED})"
        );
        return ExitCode::from(2);
    };
    let ontology = builtin_ontology();
    let config = WorkloadConfig::smoke(seed);
    let workload = generate_workload(&ontology, &config);
    let replay = generate_workload(&ontology, &config);
    if workload.digest() != replay.digest() {
        eprintln!("FAIL: workload generation is not deterministic for seed {seed}");
        return ExitCode::FAILURE;
    }

    let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(seed, 16));
    let global = Arc::new(sigmatyper::train_global(
        builtin_ontology(),
        &corpus,
        &sigmatyper::TrainingConfig::fast(),
    ));
    let report = run_in_process(global, &workload, &TargetConfig::default());
    if let Err(why) = report.validate() {
        eprintln!("FAIL: load report accounting violated: {why}");
        return ExitCode::FAILURE;
    }
    if report.results.len() != workload.ops.len() {
        eprintln!(
            "FAIL: {} operations submitted, {} results reported",
            workload.ops.len(),
            report.results.len()
        );
        return ExitCode::FAILURE;
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
