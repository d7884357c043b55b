//! Golden-equivalence suite for the local refit.
//!
//! The local model used to keep every training example as a
//! `(column, neighbor headers, label)` triple and re-featurize all of
//! them at every refit. It now featurizes each example once, when
//! `feedback`/`implicit_approve` admits it, and refits on the stored
//! rows. This suite keeps a literal transcription of the old refit
//! ([`SeedRefit`]), replays the event stream a customer produces —
//! explicit feedback with and without a history corpus to mine,
//! implicit approvals with and without confident columns, and a custom
//! type taught through feedback — and asserts after every event that
//! each layer of the finetuned MLP is bit-identical to the
//! transcription's. At the end, the cascade's per-column step scores on
//! held-out tables (what the vote and τ turn into annotations) must be
//! bit-identical too.

use sigmatyper::{
    train_global, GlobalModel, SigmaTyper, StepId, StepScores, TableEmbeddingModel, TrainingConfig,
};
use std::sync::{Arc, OnceLock};
use tu_corpus::{generate_corpus, Corpus, CorpusConfig};
use tu_dp::{mine_weak_labels, MiningConfig};
use tu_ml::Dataset;
use tu_ontology::{TypeId, ValueKind};
use tu_table::{Column, Table};

fn global() -> Arc<GlobalModel> {
    static GLOBAL: OnceLock<Arc<GlobalModel>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let ontology = tu_ontology::builtin_ontology();
            let mut cfg = CorpusConfig::database_like(0x2EF1, 40);
            cfg.ood_column_rate = 0.2;
            let corpus = generate_corpus(&ontology, &cfg);
            Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()))
        })
        .clone()
}

/// The old local training state and refit, transcribed.
#[derive(Default)]
struct SeedRefit {
    finetuned: Option<TableEmbeddingModel>,
    training: Vec<(Column, Vec<String>, TypeId)>,
}

impl SeedRefit {
    /// The old example construction: the column and the other
    /// columns' headers, cloned.
    fn add(&mut self, table: &Table, col_idx: usize, ty: TypeId) {
        let neighbors: Vec<String> = table
            .headers()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != col_idx)
            .map(|(_, h)| (*h).to_owned())
            .collect();
        let column = table.column(col_idx).expect("column in range");
        self.training.push((column.clone(), neighbors, ty));
    }

    /// The old `SigmaTyper::refit_local` with the old
    /// `TableEmbeddingModel::partial_fit` inlined: clone the global
    /// model on first use, featurize every accumulated example, and
    /// run 6 epochs over them.
    fn refit(&mut self, global: &TableEmbeddingModel) {
        if self.training.is_empty() {
            return;
        }
        let model = self.finetuned.get_or_insert_with(|| global.clone());
        let examples: Vec<(&Column, Vec<&str>, TypeId)> = self
            .training
            .iter()
            .map(|(c, n, t)| (c, n.iter().map(String::as_str).collect(), *t))
            .collect();
        let x: Vec<Vec<f32>> = examples
            .iter()
            .map(|(c, n, _)| model.featurize(c, n))
            .collect();
        let y: Vec<usize> = examples.iter().map(|(_, _, t)| t.index()).collect();
        let ds = Dataset::new(x, y, model.n_classes());
        model.partial_fit(&ds, 6);
    }
}

/// Both sides of the comparison, fed the same events.
struct Replay {
    typer: SigmaTyper,
    seed: SeedRefit,
    events: usize,
}

impl Replay {
    fn new() -> Self {
        Replay {
            typer: SigmaTyper::builder(global()).build(),
            seed: SeedRefit::default(),
            events: 0,
        }
    }

    fn feedback(&mut self, table: &Table, col_idx: usize, ty: TypeId, history: Option<&Corpus>) {
        self.typer.feedback(table, col_idx, ty, history);
        self.seed.add(table, col_idx, ty);
        if let Some(history) = history {
            // `feedback` mines with the LF bank it just extended, which
            // is the bank the customer holds now.
            let mined =
                mine_weak_labels(history, &self.typer.local().lfs, &MiningConfig::default());
            for m in mined {
                self.seed
                    .add(&history.tables[m.table_idx].table, m.col_idx, m.label.ty);
            }
        }
        self.seed.refit(&self.typer.global().embedding);
        self.check("feedback");
    }

    /// Approve `table` under the customer's own annotation, or, with
    /// `abstain_all`, under one made with τ above any confidence.
    /// Returns how many columns were confident (and so admitted).
    fn implicit_approve(&mut self, table: &Table, abstain_all: bool) -> usize {
        let annotation = if abstain_all {
            let mut strict = self.typer.clone();
            strict.config_mut().tau = 2.0;
            strict.annotate(table)
        } else {
            self.typer.annotate(table)
        };
        self.typer.implicit_approve(table, &annotation);
        let mut admitted = 0;
        for col in annotation.columns.iter().filter(|c| !c.abstained()) {
            self.seed.add(table, col.col_idx, col.predicted);
            admitted += 1;
        }
        if admitted > 0 {
            self.seed.refit(&self.typer.global().embedding);
        }
        self.check("implicit_approve");
        admitted
    }

    /// Every MLP layer's weights and biases match the transcription's
    /// bit for bit, and both hold the same number of examples.
    fn check(&mut self, event: &str) {
        self.events += 1;
        let at = format!("event {} ({event})", self.events);
        let local = self.typer.local();
        assert_eq!(local.training.len(), self.seed.training.len(), "{at}: rows");
        let (ours, theirs) = match (&local.finetuned, &self.seed.finetuned) {
            (None, None) => return,
            (Some(a), Some(b)) => (a.mlp(), b.mlp()),
            _ => panic!("{at}: only one side has a finetuned model"),
        };
        assert_eq!(ours.n_layers(), theirs.n_layers(), "{at}: layers");
        for i in 0..ours.n_layers() {
            let (w, b) = ours.layer_params(i);
            let (seed_w, seed_b) = theirs.layer_params(i);
            assert_same_bits(w.data(), seed_w.data(), &format!("{at}: layer {i} weights"));
            assert_same_bits(b, seed_b, &format!("{at}: layer {i} biases"));
        }
    }
}

/// Panic at the first parameter whose bits differ.
fn assert_same_bits(ours: &[f32], theirs: &[f32], what: &str) {
    assert_eq!(ours.len(), theirs.len(), "{what}: lengths");
    if let Some(i) = (0..ours.len()).find(|&i| ours[i].to_bits() != theirs[i].to_bits()) {
        panic!("{what}: first differ at {i}: {} vs {}", ours[i], theirs[i]);
    }
}

/// One column's cascade trace with confidences as bits.
fn trace_bits(steps: &[(StepId, StepScores)]) -> Vec<(StepId, Vec<(TypeId, u64)>)> {
    steps
        .iter()
        .map(|(id, scores)| {
            let candidates = scores
                .candidates
                .iter()
                .map(|c| (c.ty, c.confidence.to_bits()))
                .collect();
            (*id, candidates)
        })
        .collect()
}

fn ticket_table(seed: u64) -> Table {
    let vals: Vec<String> = (0..24)
        .map(|i| format!("TKT-{:05}", seed * 100 + i))
        .collect();
    let owners: Vec<String> = (0..24).map(|i| format!("agent {}", i % 5)).collect();
    Table::new(
        format!("tickets_{seed}"),
        vec![
            Column::from_raw("ref", &vals),
            Column::from_raw("owner", &owners),
        ],
    )
    .unwrap()
}

#[test]
fn featurize_once_refit_is_bit_identical_to_the_old_refit() {
    let mut replay = Replay::new();
    let ontology = replay.typer.ontology().clone();
    let tables = generate_corpus(&ontology, &CorpusConfig::database_like(0x2EF2, 14));
    let history = generate_corpus(&ontology, &CorpusConfig::database_like(0x2EF3, 3));

    // Nothing admitted yet: an approval with no confident column keeps
    // both sides without a finetuned model.
    assert_eq!(replay.implicit_approve(&tables.tables[0].table, true), 0);
    assert!(replay.typer.local().finetuned.is_none());

    // 42 explicit feedbacks rotating over tables and columns, labeled
    // with the generator's truth (a correction when the customer got it
    // wrong, a confirmation otherwise); every sixth mines the history.
    let mut mined_any = false;
    for k in 0..42 {
        let at = &tables.tables[k % tables.tables.len()];
        let col_idx = (k * 7 + k / tables.tables.len()) % at.table.n_cols();
        let history = (k % 6 == 5).then_some(&history);
        let before = replay.seed.training.len();
        replay.feedback(&at.table, col_idx, at.labels[col_idx], history);
        mined_any |= history.is_some() && replay.seed.training.len() > before + 1;
        if k % 8 == 7 {
            let approve = &tables.tables[(k + 3) % tables.tables.len()].table;
            replay.implicit_approve(approve, false);
            replay.implicit_approve(approve, true);
        }
    }
    assert!(mined_any, "some feedback must admit mined history columns");

    // A customer type taught through feedback, on a reserved class.
    let ticket = replay
        .typer
        .register_custom_type("ticket id", ValueKind::Identifier, &[])
        .expect("new type name");
    assert!(ticket.index() >= replay.typer.global().ontology.len());
    for s in 1..=3 {
        replay.feedback(&ticket_table(s), 0, ticket, None);
    }
    assert!(replay.implicit_approve(&ticket_table(4), false) > 0);
    assert!(replay.events >= 50, "{} events", replay.events);

    // Held-out tables: the cascade over the customer's local model and
    // over the transcription's finetuned model scores every column of
    // every step identically.
    let mut seed_local = replay.typer.local().clone();
    seed_local.finetuned = replay.seed.finetuned.take();
    let typer = &replay.typer;
    let held_out = generate_corpus(&ontology, &CorpusConfig::database_like(0x2EF4, 8));
    let held_out = held_out
        .tables
        .iter()
        .map(|at| at.table.clone())
        .chain([ticket_table(9)]);
    for table in held_out {
        let (ours, _) = typer
            .cascade()
            .run(&table, typer.global(), typer.local(), typer.config());
        let (theirs, _) = typer
            .cascade()
            .run(&table, typer.global(), &seed_local, typer.config());
        assert_eq!(ours.len(), theirs.len());
        // The annotation is the vote over exactly these traces.
        let annotation = typer.annotate(&table);
        for (ci, (a, b)) in ours.iter().zip(&theirs).enumerate() {
            let at = format!("{} column {ci}", table.name);
            assert_eq!(trace_bits(a), trace_bits(b), "{at}");
            let col = &annotation.columns[ci];
            let annotated: Vec<(StepId, StepScores)> = col
                .steps_run
                .iter()
                .copied()
                .zip(col.step_scores.iter().cloned())
                .collect();
            assert_eq!(trace_bits(&annotated), trace_bits(a), "{at}: annotate");
        }
    }
}
