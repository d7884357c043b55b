//! Golden suite for the value-lookup step (paper §4.3) and the labeling
//! functions it consults.
//!
//! The reference below is a literal transcription of the lookup as it
//! stood before LF votes shared one per-column context: `lookup_with_lfs`,
//! the regex bank's `score_shapes` and `score_ranges`, and
//! `LabelingFunction::vote`, in which every dictionary and pattern LF
//! samples and renders the column itself. Every regex match in it runs
//! through the backtracking oracle on the parsed pattern, so the reference
//! shares no code with the Pike VM.
//!
//! Over corpora mirroring the e1–e8 eval shapes, the live
//! `ValueLookup::lookup_weighted` must give bit-identical `StepScores`,
//! and every LF of the global and local banks the same vote, for a fresh
//! customer and for customers grown by 64 true-label corrections, with
//! and without a history corpus to mine. Lookup sample sizes other than
//! the LFs' own (3 and 64) cover the path where the lookup and the LF
//! context each render their own sample.

use sigmatyper::{
    train_global, Candidate, GlobalModel, RegexBank, SigmaTyper, SigmaTyperConfig, StepScores,
    TrainingConfig,
};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};
use tu_corpus::{generate_corpus, Corpus, CorpusConfig, GenParams};
use tu_dp::lf::{DICT_PASS, SAMPLE, VALUE_PASS};
use tu_dp::{LabelingFunction, LfKind, LfSource};
use tu_ontology::{builtin_ontology, TypeId};
use tu_regex::oracle::backtrack_full_match;
use tu_regex::{Ast, CharMatcher, Regex};
use tu_table::{Column, Value};

fn global() -> Arc<GlobalModel> {
    static GLOBAL: OnceLock<Arc<GlobalModel>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let ontology = builtin_ontology();
            let mut cfg = CorpusConfig::database_like(0x601D, 40);
            cfg.ood_column_rate = 0.2;
            let corpus = generate_corpus(&ontology, &cfg);
            Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()))
        })
        .clone()
}

/// Corpora mirroring the shapes of the e1–e8 experiments.
fn eval_corpora() -> &'static [(&'static str, Corpus)] {
    static CORPORA: OnceLock<Vec<(&'static str, Corpus)>> = OnceLock::new();
    CORPORA.get_or_init(|| {
        let global = global();
        let n = 10;
        let mut shapes: Vec<(&'static str, CorpusConfig)> = Vec::new();
        let mut e1 = CorpusConfig::database_like(0xE1_70, n);
        e1.params = GenParams::shifted(0.5);
        e1.opaque_header_rate = 0.6;
        shapes.push(("e1_covariate", e1));
        shapes.push(("e2_labelshift", CorpusConfig::database_like(0xE2_01, n)));
        let mut e3 = CorpusConfig::database_like(0xE3_01, n);
        e3.ood_column_rate = 0.9;
        shapes.push(("e3_ood", e3));
        let mut e4 = CorpusConfig::database_like(0xE4_01, n);
        e4.params = GenParams::shifted(0.7);
        e4.opaque_header_rate = 0.5;
        shapes.push(("e4_adaptation", e4));
        shapes.push(("e5_dpbd", CorpusConfig::database_like(0xE5_01, n)));
        let mut e6 = CorpusConfig::database_like(0xE6_01, n);
        e6.opaque_header_rate = 0.45;
        e6.params = GenParams::shifted(0.2);
        shapes.push(("e6_cascade", e6));
        let mut e7 = CorpusConfig::database_like(0xE7_01, n);
        e7.ood_column_rate = 0.25;
        e7.opaque_header_rate = 0.45;
        e7.params = GenParams::shifted(0.2);
        shapes.push(("e7_precision", e7));
        let mut e8_web = CorpusConfig::web_like(0xE8_11, n);
        e8_web.opaque_header_rate = 0.7;
        shapes.push(("e8_web", e8_web));
        let mut e8_db = CorpusConfig::database_like(0xE8_12, n);
        e8_db.opaque_header_rate = 0.7;
        shapes.push(("e8_database", e8_db));
        shapes
            .into_iter()
            .map(|(name, cfg)| (name, generate_corpus(&global.ontology, &cfg)))
            .collect()
    })
}

/// A customer after 64 true-label corrections in rotation over its own
/// tables, mining `history` on every feedback when one is given.
fn grown(history: Option<&Corpus>) -> SigmaTyper {
    let global = global();
    let tables =
        generate_corpus(&global.ontology, &CorpusConfig::database_like(0x6_0C0F, 16)).tables;
    let mut typer = SigmaTyper::new(global, SigmaTyperConfig::default());
    let mut k = 0;
    let mut corrections = 0;
    while corrections < 64 {
        let at = &tables[k % tables.len()];
        let col = (k / tables.len() + 3 * k) % at.table.n_cols();
        k += 1;
        if at.labels[col].is_unknown() {
            continue;
        }
        typer.feedback(&at.table, col, at.labels[col], history);
        corrections += 1;
    }
    typer
}

fn grown_plain() -> &'static SigmaTyper {
    static TYPER: OnceLock<SigmaTyper> = OnceLock::new();
    TYPER.get_or_init(|| grown(None))
}

fn grown_with_history() -> &'static SigmaTyper {
    static TYPER: OnceLock<SigmaTyper> = OnceLock::new();
    TYPER.get_or_init(|| {
        let history = generate_corpus(
            &global().ontology,
            &CorpusConfig::database_like(0x41_5701, 1),
        );
        grown(Some(&history))
    })
}

thread_local! {
    static ASTS: RefCell<HashMap<String, Ast>> = RefCell::new(HashMap::new());
}

/// Full match through the backtracking oracle on the parsed pattern.
fn oracle_full_match(re: &Regex, input: &str) -> bool {
    ASTS.with(|asts| {
        let mut asts = asts.borrow_mut();
        if !asts.contains_key(re.pattern()) {
            let ast = tu_regex::parse(re.pattern()).expect("every bank pattern re-parses");
            asts.insert(re.pattern().to_owned(), ast);
        }
        backtrack_full_match(&asts[re.pattern()], input)
    })
}

// ---- Seed transcription ---------------------------------------------

/// Seed `ValueLookup::lookup_weighted` → `lookup_with_lfs`, verbatim but
/// for the oracle matches.
fn seed_lookup(
    global: &GlobalModel,
    column: &Column,
    normalized_header: &str,
    neighbor_types: &[TypeId],
    lf_banks: &[&[LabelingFunction]],
    config: &SigmaTyperConfig,
    global_weight: &dyn Fn(TypeId) -> f64,
) -> StepScores {
    let identity_lfs: Vec<&LabelingFunction> = lf_banks
        .iter()
        .flat_map(|bank| bank.iter())
        .filter(|lf| {
            matches!(
                lf.kind,
                LfKind::HeaderEquals(_) | LfKind::Dictionary(_) | LfKind::Pattern(_)
            )
        })
        .collect();
    let mut cands: Vec<Candidate> = Vec::new();
    let sample: Vec<String> = column
        .sample(config.lookup_sample)
        .into_iter()
        .map(Value::render)
        .collect();

    if !sample.is_empty() {
        for (ty, fraction) in global.lookup.kb().coverage(&sample) {
            if fraction > 0.3 {
                cands.push(Candidate {
                    ty,
                    confidence: fraction * global_weight(ty),
                });
            }
        }
        let bank = global.lookup.bank();
        cands.extend(seed_score_shapes(bank, &sample, global_weight));
        cands.extend(seed_score_ranges(
            bank,
            &column.numeric_values(),
            config.range_lf_scale,
            global_weight,
        ));
    }

    for lf in identity_lfs {
        if let Some(ty) = seed_vote(lf, column, normalized_header, neighbor_types) {
            let mut confidence = 0.95;
            if lf.source == LfSource::Global {
                confidence *= global_weight(ty);
            }
            cands.push(Candidate { ty, confidence });
        }
    }

    let mut scores = StepScores::from_candidates(cands);
    scores.candidates.truncate(config.top_k.max(8));
    scores
}

/// Seed `RegexBank::score_shapes`.
fn seed_score_shapes(
    bank: &RegexBank,
    sample: &[String],
    weight: &dyn Fn(TypeId) -> f64,
) -> Vec<Candidate> {
    let mut cands = Vec::new();
    if sample.is_empty() {
        return cands;
    }
    for rule in &bank.shapes {
        let hits = sample
            .iter()
            .filter(|v| oracle_full_match(&rule.regex, v))
            .count();
        let fraction = hits as f64 / sample.len() as f64;
        if fraction > 0.5 {
            cands.push(Candidate {
                ty: rule.ty,
                confidence: fraction * weight(rule.ty),
            });
        }
    }
    cands
}

/// Seed `RegexBank::score_ranges`.
fn seed_score_ranges(
    bank: &RegexBank,
    nums: &[f64],
    scale: f64,
    weight: &dyn Fn(TypeId) -> f64,
) -> Vec<Candidate> {
    let mut cands = Vec::new();
    if nums.is_empty() {
        return cands;
    }
    for rule in &bank.ranges {
        let hits = nums
            .iter()
            .filter(|v| **v >= rule.min && **v <= rule.max)
            .count();
        let fraction = hits as f64 / nums.len() as f64;
        if fraction > 0.9 {
            cands.push(Candidate {
                ty: rule.ty,
                confidence: fraction * scale * weight(rule.ty),
            });
        }
    }
    cands
}

/// Seed `LabelingFunction::vote`: every LF reads the column itself.
fn seed_vote(
    lf: &LabelingFunction,
    column: &Column,
    header: &str,
    neighbor_types: &[TypeId],
) -> Option<TypeId> {
    let fires = match &lf.kind {
        LfKind::ValueRange { min, max } => {
            let nums = column.numeric_values();
            if nums.is_empty() {
                false
            } else {
                let hits = nums.iter().filter(|v| **v >= *min && **v <= *max).count();
                hits as f64 / nums.len() as f64 >= VALUE_PASS
            }
        }
        LfKind::MeanRange { min, max } => {
            let nums = column.numeric_values();
            if nums.is_empty() {
                false
            } else {
                let m = tu_table::stats::mean(&nums);
                m >= *min && m <= *max
            }
        }
        LfKind::CoOccurrence { required } => {
            !required.is_empty() && required.iter().all(|t| neighbor_types.contains(t))
        }
        LfKind::HeaderEquals(h) => header == h,
        LfKind::Dictionary(set) => {
            let sample = column.sample(SAMPLE);
            if sample.is_empty() {
                false
            } else {
                let hits = sample
                    .iter()
                    .filter(|v| set.contains(&v.render().to_lowercase()))
                    .count();
                hits as f64 / sample.len() as f64 >= DICT_PASS
            }
        }
        LfKind::Pattern(re) => {
            let sample = column.sample(SAMPLE);
            if sample.is_empty() {
                false
            } else {
                let hits = sample
                    .iter()
                    .filter(|v| oracle_full_match(re, &v.render()))
                    .count();
                hits as f64 / sample.len() as f64 >= VALUE_PASS
            }
        }
    };
    fires.then_some(lf.ty)
}

// ---- Checks -----------------------------------------------------------

/// Position of an LF kind in `[range, mean, cooccur, header, dict, pattern]`.
fn kind_index(kind: &LfKind) -> usize {
    match kind {
        LfKind::ValueRange { .. } => 0,
        LfKind::MeanRange { .. } => 1,
        LfKind::CoOccurrence { .. } => 2,
        LfKind::HeaderEquals(_) => 3,
        LfKind::Dictionary(_) => 4,
        LfKind::Pattern(_) => 5,
    }
}

fn assert_same_scores(live: &StepScores, seed: &StepScores, what: &dyn Fn() -> String) {
    assert_eq!(
        live.candidates.len(),
        seed.candidates.len(),
        "{}: {live:?} vs {seed:?}",
        what()
    );
    for (a, b) in live.candidates.iter().zip(&seed.candidates) {
        assert_eq!(a.ty, b.ty, "{}", what());
        assert_eq!(
            a.confidence.to_bits(),
            b.confidence.to_bits(),
            "{}: {a:?} vs {b:?}",
            what()
        );
    }
}

/// Check every column of every eval corpus: the live lookup against the
/// seed to the bit, and, when `votes` is set, every LF of both banks
/// against the seed vote. Returns how many votes fired per LF kind.
fn check_customer(typer: &SigmaTyper, lookup_sample: usize, votes: bool) -> [usize; 6] {
    let global = typer.global();
    let local = typer.local();
    let mut config = *typer.config();
    config.lookup_sample = lookup_sample;
    let banks: [&[LabelingFunction]; 2] = [&global.global_lfs, &local.lfs];
    let mut fired = [0usize; 6];
    for (name, corpus) in eval_corpora() {
        for (ti, at) in corpus.tables.iter().enumerate() {
            for (ci, column) in at.table.columns().iter().enumerate() {
                let header = tu_text::normalize_header(&column.name);
                let neighbors: Vec<TypeId> = at
                    .labels
                    .iter()
                    .enumerate()
                    .filter(|(i, l)| *i != ci && !l.is_unknown())
                    .map(|(_, l)| *l)
                    .collect();
                let weight = |t: TypeId| local.wg(t, &header);
                let live = global
                    .lookup
                    .lookup_weighted(column, &header, &neighbors, &banks, &config, &weight);
                let seed = seed_lookup(
                    global, column, &header, &neighbors, &banks, &config, &weight,
                );
                let what = || format!("{name} table {ti} column {ci} (sample {lookup_sample})");
                assert_same_scores(&live, &seed, &what);
                if votes {
                    let ctx = tu_dp::context(column, &header, &neighbors);
                    for lf in banks.iter().flat_map(|b| b.iter()) {
                        let vote = lf.vote(&ctx);
                        assert_eq!(
                            vote,
                            seed_vote(lf, column, &header, &neighbors),
                            "{}: LF {}",
                            what(),
                            lf.name
                        );
                        if vote.is_some() {
                            fired[kind_index(&lf.kind)] += 1;
                        }
                    }
                }
            }
        }
    }
    fired
}

/// LFs per kind in a bank.
fn bank_kinds(lfs: &[LabelingFunction]) -> [usize; 6] {
    let mut counts = [0usize; 6];
    for lf in lfs {
        counts[kind_index(&lf.kind)] += 1;
    }
    counts
}

/// A grown bank must hold every kind, with several dictionaries and
/// patterns, and those must fire somewhere, or the check is vacuous.
fn assert_grown_bank_checked(typer: &SigmaTyper, fired: [usize; 6]) {
    let kinds = bank_kinds(&typer.local().lfs);
    assert!(kinds.iter().all(|&n| n > 0), "every LF kind: {kinds:?}");
    assert!(kinds[4] >= 3, "several Dictionary LFs: {kinds:?}");
    assert!(kinds[5] >= 3, "several Pattern LFs: {kinds:?}");
    assert!(fired[4] > 0 && fired[5] > 0, "votes fired: {fired:?}");
}

#[test]
fn fresh_customer_lookup_and_votes_match_seed() {
    let typer = SigmaTyper::new(global(), SigmaTyperConfig::default());
    assert!(typer.local().lfs.is_empty());
    let fired = check_customer(&typer, SAMPLE, true);
    assert!(fired[3] > 0, "global header LFs fired: {fired:?}");
}

#[test]
fn grown_customer_lookup_and_votes_match_seed() {
    let typer = grown_plain();
    let fired = check_customer(typer, SAMPLE, true);
    assert_grown_bank_checked(typer, fired);
}

#[test]
fn grown_customer_with_history_lookup_and_votes_match_seed() {
    let typer = grown_with_history();
    assert!(
        typer.local().training.len() > 64,
        "mining admitted history columns"
    );
    let fired = check_customer(typer, SAMPLE, true);
    assert_grown_bank_checked(typer, fired);
}

#[test]
fn unshared_lookup_samples_match_seed() {
    assert_ne!(SigmaTyperConfig::default().lookup_sample, 3);
    assert_ne!(SigmaTyperConfig::default().lookup_sample, 64);
    let fresh = SigmaTyper::new(global(), SigmaTyperConfig::default());
    for lookup_sample in [3, 64] {
        check_customer(&fresh, lookup_sample, false);
        check_customer(grown_plain(), lookup_sample, false);
        check_customer(grown_with_history(), lookup_sample, false);
    }
}

/// One-character mutations of a cell: a deletion, a class-changing and
/// a class-keeping substitution, and an insertion.
fn mutations(cell: &str) -> Vec<String> {
    let chars: Vec<char> = cell.chars().collect();
    if chars.is_empty() {
        return vec!["a".into()];
    }
    let mid = chars.len() / 2;
    let with = |i: usize, c: Option<char>, insert: bool| -> String {
        let mut out = chars.clone();
        match (c, insert) {
            (Some(c), true) => out.insert(i, c),
            (Some(c), false) => out[i] = c,
            (None, _) => {
                out.remove(i);
            }
        }
        out.into_iter().collect()
    };
    let other_class = |c: char| {
        if c.is_ascii_digit() {
            'x'
        } else if c.is_alphabetic() {
            '7'
        } else {
            'a'
        }
    };
    let same_class = |c: char| match c {
        '0'..='8' | 'a'..='y' | 'A'..='Y' => char::from(c as u8 + 1),
        '9' => '0',
        'z' => 'a',
        'Z' => 'A',
        c => c,
    };
    vec![
        with(mid, None, false),
        with(mid, Some(other_class(chars[mid])), false),
        with(0, Some(same_class(chars[0])), false),
        with(chars.len() / 3, Some('-'), true),
    ]
}

/// `.*(ast).*`: unanchored search as a full match, for the oracle.
fn search_ast(ast: &Ast) -> Ast {
    let any = || Ast::Repeat {
        node: Box::new(Ast::Char(CharMatcher::Any)),
        min: 0,
        max: None,
    };
    Ast::Concat(vec![any(), ast.clone(), any()])
}

#[test]
fn vm_agrees_with_oracle_on_bank_patterns() {
    let global = global();
    let mut regexes: Vec<&Regex> = global
        .lookup
        .bank()
        .shapes
        .iter()
        .map(|r| &r.regex)
        .collect();
    let shapes = regexes.len();
    for typer in [grown_plain(), grown_with_history()] {
        regexes.extend(typer.local().lfs.iter().filter_map(|lf| match &lf.kind {
            LfKind::Pattern(re) => Some(re),
            _ => None,
        }));
    }
    assert!(regexes.len() >= shapes + 6, "grown banks add patterns");

    let mut cells: BTreeSet<String> = BTreeSet::new();
    for (_, corpus) in eval_corpora() {
        for at in &corpus.tables {
            for column in at.table.columns() {
                for v in column.sample(4) {
                    cells.insert(v.render());
                }
            }
        }
    }
    let mut inputs: BTreeSet<String> = BTreeSet::from([String::new()]);
    for cell in &cells {
        inputs.extend(mutations(cell));
        inputs.insert(cell.clone());
    }

    let mut full_hits = 0;
    for re in regexes {
        let ast = tu_regex::parse(re.pattern()).expect("pattern re-parses");
        let search = search_ast(&ast);
        for input in &inputs {
            let full = backtrack_full_match(&ast, input);
            assert_eq!(
                re.is_full_match(input),
                full,
                "{} on {input:?}",
                re.pattern()
            );
            assert_eq!(
                re.is_match(input),
                backtrack_full_match(&search, input),
                "search {} on {input:?}",
                re.pattern()
            );
            full_hits += usize::from(full);
        }
    }
    assert!(full_hits > 100, "inputs exercise matches: {full_hits}");
}
