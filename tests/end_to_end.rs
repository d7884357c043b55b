//! End-to-end integration tests spanning every crate: corpus → training
//! → annotation → feedback → re-annotation.

use sigmatyper::{train_global, GlobalModel, SigmaTyper, SigmaTyperConfig, TrainingConfig};
use std::sync::{Arc, OnceLock};
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_ontology::{builtin_id, builtin_ontology, TypeId, ValueKind};
use tu_table::{Column, Table};

/// One shared global model for the whole integration suite (training is
/// the expensive part; every test builds its own customer instance).
fn global() -> Arc<GlobalModel> {
    static GLOBAL: OnceLock<Arc<GlobalModel>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let ontology = builtin_ontology();
            let mut cfg = CorpusConfig::database_like(0x1917, 60);
            cfg.ood_column_rate = 0.25;
            let corpus = generate_corpus(&ontology, &cfg);
            Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()))
        })
        .clone()
}

fn customer() -> SigmaTyper {
    SigmaTyper::new(global(), SigmaTyperConfig::default())
}

#[test]
fn train_annotate_is_deterministic() {
    let t1 = customer();
    let t2 = customer();
    let o = builtin_ontology();
    let corpus = generate_corpus(&o, &CorpusConfig::database_like(0xDE7, 5));
    for at in &corpus.tables {
        let a = t1.annotate(&at.table);
        let b = t2.annotate(&at.table);
        assert_eq!(
            a.predictions(),
            b.predictions(),
            "annotation must be deterministic"
        );
    }
}

#[test]
fn held_out_accuracy_and_confidence_bounds() {
    let typer = customer();
    let o = builtin_ontology();
    let corpus = generate_corpus(&o, &CorpusConfig::database_like(0xACC, 15));
    let mut n = 0usize;
    let mut correct = 0usize;
    for at in &corpus.tables {
        let ann = typer.annotate(&at.table);
        assert_eq!(ann.columns.len(), at.table.n_cols());
        for (col, &truth) in ann.columns.iter().zip(&at.labels) {
            assert!((0.0..=1.0 + 1e-9).contains(&col.confidence));
            for c in &col.top_k {
                assert!((0.0..=1.0 + 1e-9).contains(&c.confidence));
                assert!(c.ty.index() < typer.ontology().len() + 8);
            }
            n += 1;
            if col.predicted == truth {
                correct += 1;
            }
        }
    }
    let acc = correct as f64 / n as f64;
    assert!(
        acc > 0.55,
        "held-out accuracy too low: {acc:.3} ({correct}/{n})"
    );
}

#[test]
fn feedback_then_reannotation_applies_correction() {
    let mut typer = customer();
    let o = typer.ontology().clone();
    let phone = builtin_id(&o, "phone number");
    let mk = |seed: u64| {
        let vals: Vec<String> = (0..30)
            .map(|i| format!("{}", 30_000_000 + seed * 1000 + i * 97))
            .collect();
        Table::new(
            format!("contacts_{seed}"),
            vec![
                Column::from_raw("contact", &vals),
                Column::from_raw("name", &vec!["Ada King"; 30]),
            ],
        )
        .unwrap()
    };
    for s in 1..=3 {
        typer.feedback(&mk(s), 0, phone, None);
    }
    let ann = typer.annotate(&mk(9));
    assert_eq!(ann.columns[0].predicted, phone);
    // The untouched neighbor column still resolves normally.
    assert_eq!(ann.columns[1].predicted, builtin_id(&o, "name"));
}

#[test]
fn implicit_approval_counts_as_feedback() {
    let mut typer = customer();
    let o = builtin_ontology();
    let corpus = generate_corpus(&o, &CorpusConfig::database_like(0x1A9, 2));
    let table = &corpus.tables[0].table;
    let ann = typer.annotate(table);
    assert_eq!(typer.local().total_feedback(), 0);
    typer.implicit_approve(table, &ann);
    assert!(typer.local().total_feedback() > 0);
    assert!(!typer.local().training.is_empty());
}

#[test]
fn custom_type_learned_end_to_end() {
    let mut typer = customer();
    let gene = typer
        .register_custom_type("gene id", ValueKind::Identifier, &["ensembl"])
        .expect("new type name");
    assert!(typer.ontology().lookup_exact("gene id").is_some());
    let mk = |seed: u64| {
        let vals: Vec<String> = (0..25)
            .map(|i| format!("ENSG{:08}", seed * 31 + i))
            .collect();
        Table::new(
            format!("genes_{seed}"),
            vec![Column::from_raw("gid", &vals)],
        )
        .unwrap()
    };
    for s in 1..=3 {
        typer.feedback(&mk(s), 0, gene, None);
    }
    assert_eq!(typer.annotate(&mk(10)).columns[0].predicted, gene);
}

#[test]
fn customers_are_isolated() {
    // Two customers share the global model; one adapts, the other must
    // be unaffected (the paper's "without occluding the model for other
    // customers", §4.2).
    let mut adapted = customer();
    let vanilla = customer();
    let o = builtin_ontology();
    let phone = builtin_id(&o, "phone number");
    let vals: Vec<String> = (0..30)
        .map(|i| format!("{}", 40_000_000 + i * 113))
        .collect();
    let table = Table::new("t", vec![Column::from_raw("contact", &vals)]).unwrap();
    let before_vanilla = vanilla.annotate(&table).columns[0].predicted;
    for _ in 0..3 {
        adapted.feedback(&table, 0, phone, None);
    }
    assert_eq!(adapted.annotate(&table).columns[0].predicted, phone);
    assert_eq!(
        vanilla.annotate(&table).columns[0].predicted,
        before_vanilla,
        "other customers must not see the adaptation"
    );
    assert_eq!(vanilla.local().total_feedback(), 0);
}

#[test]
fn tau_sweep_monotone_coverage() {
    let o = builtin_ontology();
    let corpus = generate_corpus(&o, &CorpusConfig::database_like(0x7A0, 8));
    let mut last_cov = f64::INFINITY;
    for tau in [0.0, 0.3, 0.6, 0.9] {
        let mut typer = customer();
        typer.config_mut().tau = tau;
        let mut covered = 0usize;
        let mut n = 0usize;
        for at in &corpus.tables {
            for col in &typer.annotate(&at.table).columns {
                n += 1;
                if !col.abstained() {
                    covered += 1;
                }
            }
        }
        let cov = covered as f64 / n as f64;
        assert!(cov <= last_cov + 1e-9, "coverage must fall with τ");
        last_cov = cov;
    }
}

#[test]
fn unknown_is_never_a_custom_prediction_above_tau() {
    // τ-thresholded predictions are either real types or UNKNOWN, never a
    // reserved-but-unregistered class.
    let typer = customer();
    let o = builtin_ontology();
    let corpus = generate_corpus(&o, &CorpusConfig::database_like(0x99, 6));
    for at in &corpus.tables {
        for col in &typer.annotate(&at.table).columns {
            if !col.abstained() {
                assert!(
                    col.predicted.index() < typer.ontology().len(),
                    "prediction {:?} outside registered ontology",
                    col.predicted
                );
            }
        }
    }
    let _ = TypeId::UNKNOWN;
}
