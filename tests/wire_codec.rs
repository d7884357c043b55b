//! The server's streaming codec against the reference codec that builds
//! a `Json` tree (`crates/server/src/wire.rs`):
//!
//! * on generated untidy bodies and byte-mutated copies of them, each
//!   streaming decoder accepts exactly the bodies the reference
//!   accepts, with equal tables and options;
//! * the direct encoder writes the bytes `outcome_to_json(..)
//!   .to_string()` prints, on e1–e8 outcomes — degraded, abstained and
//!   non-finite ones included;
//! * over HTTP, the untidy table shapes of Bartram et al., *Untidy
//!   Data* (empty and duplicate headers, ragged and all-null columns,
//!   giant cells, escapes, non-string cells, unknown and duplicate keys,
//!   truncated bodies) get the status and body the reference path
//!   gives, and no request panics or hangs the server;
//! * a number RFC 8259 forbids (`01`) gets the same 400 from both
//!   codecs, and `Value::infer`, which types every decoded cell, equals
//!   a transcription of its earlier rules on generated cells.

use httpshim::HttpClient;
use jsonshim::Json;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use sigmatyper::{
    AnnotationOutcome, AnnotationRequest, DegradationPolicy, RequestOptions, SigmaTyper, StepId,
};
use std::sync::mpsc;
use std::sync::OnceLock;
use std::time::Duration;
use tu_corpus::{generate_corpus, CorpusConfig, GenParams};
use tu_eval::{Lab, Scale};
use tu_server::wire::{
    encode_outcome, encode_outcomes, outcome_to_json, AnnotateBody, BatchBody, FeedbackBody,
};
use tu_server::{AnnotationServer, ServerConfig};
use tu_table::{Date, Value};

fn lab() -> &'static Lab {
    static LAB: OnceLock<Lab> = OnceLock::new();
    LAB.get_or_init(|| Lab::new(Scale::Test))
}

// ---- Untidy body generation -------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Endpoint {
    Annotate,
    Batch,
    Feedback,
}

impl Endpoint {
    fn path(self) -> &'static str {
        match self {
            Endpoint::Annotate => "/annotate",
            Endpoint::Batch => "/annotate_batch",
            Endpoint::Feedback => "/feedback",
        }
    }
}

/// Raw JSON text of one untidy request body for an endpoint. Every
/// generated body is valid UTF-8; many are not valid requests.
struct UntidyBody(Endpoint);

impl Strategy for UntidyBody {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let body = match self.0 {
            Endpoint::Annotate => annotate_body(rng),
            Endpoint::Batch => batch_body(rng),
            Endpoint::Feedback => feedback_body(rng),
        };
        if rng.usize_in(0, 6) == 0 {
            body.replace(',', ",\n  ").replace(':', " : ")
        } else {
            body
        }
    }
}

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[rng.usize_in(0, items.len())]
}

fn cell(rng: &mut TestRng) -> String {
    match rng.usize_in(0, 12) {
        0 => "null".into(),
        1 => pick(rng, &["1", "-2.5e3", "true", "{\"v\":[1]}", "[null]"]).into(),
        2 if rng.usize_in(0, 8) == 0 => format!("\"{}\"", "x".repeat(rng.usize_in(1_000, 12_000))),
        3 => pick(
            rng,
            &[
                r#""a\"b""#,
                r#""tab\there""#,
                r#""été""#,
                r#""😀""#,
                r#""\/x\\y""#,
                r#""line\nbreak""#,
            ],
        )
        .into(),
        4 => pick(rng, &["\"Größe\"", "\"名前\"", "\"été \""]).into(),
        5 | 6 => pick(
            rng,
            &[
                "\"42\"",
                "\"-7.5\"",
                "\"00156\"",
                "\"TRUE\"",
                "\"2021-03-04\"",
                "\"  NA \"",
                "\"\"",
                "\"-0.0\"",
                "\"0.0\"",
                "\"1e999\"",
            ],
        )
        .into(),
        _ => format!(
            "\"{}{}\"",
            pick(rng, &["oslo", "lima", "id-", "a b", "x@y.org"]),
            rng.usize_in(0, 100)
        ),
    }
}

fn header(rng: &mut TestRng) -> &'static str {
    pick(
        rng,
        &[
            "\"\"",
            "\"a\"",
            "\"a\"",
            "\"b\"",
            "\"city\"",
            "\"email\"",
            "\"Ünïcode \\\"h\\\"\"",
            "\"c\\u0041\"",
            "\"cA\"",
        ],
    )
}

fn column(rng: &mut TestRng, rows: usize) -> String {
    let n = if rng.usize_in(0, 10) == 0 {
        rows + 1
    } else {
        rows
    };
    let all_null = rng.usize_in(0, 10) == 0;
    let values: Vec<String> = (0..n)
        .map(|_| {
            if all_null {
                "null".to_owned()
            } else {
                cell(rng)
            }
        })
        .collect();
    let values = values.join(",");
    let h = header(rng);
    match rng.usize_in(0, 14) {
        0 => format!("{{\"values\":[{values}]}}"),
        1 => format!("{{\"header\":{h}}}"),
        2 => format!("{{\"header\":7,\"values\":[{values}]}}"),
        3 => format!("{{\"header\":{h},\"values\":[{values}],\"header\":\"dup\",\"values\":5}}"),
        4 => format!("{{\"extra\":{{\"k\":[1,2]}},\"values\":[{values}],\"header\":{h}}}"),
        5 => "\"not a column\"".into(),
        6 => format!("{{\"header\":{h},\"values\":\"junk\"}}"),
        _ => format!("{{\"header\":{h},\"values\":[{values}]}}"),
    }
}

fn table(rng: &mut TestRng) -> String {
    let rows = rng.usize_in(0, 5);
    let n_cols = rng.usize_in(0, 4);
    let columns: Vec<String> = (0..n_cols).map(|_| column(rng, rows)).collect();
    let columns = columns.join(",");
    let name = pick(
        rng,
        &[
            "",
            "\"name\":\"t\",",
            "\"name\":7,",
            "\"name\":\"Größe\\n\",",
        ],
    );
    match rng.usize_in(0, 12) {
        0 => format!("{{{name}\"cols\":[{columns}]}}"),
        1 => format!("{{{name}\"columns\":{{}}}}"),
        2 => format!("{{\"columns\":[{columns}],{name}\"columns\":\"dup\"}}"),
        3 => "null".into(),
        _ => format!("{{{name}\"columns\":[{columns}]}}"),
    }
}

/// A table every decoder accepts, so bodies that need one (feedback)
/// reach their other checks.
fn tidy_table(rng: &mut TestRng) -> String {
    let rows = rng.usize_in(1, 4);
    let columns: Vec<String> = ["city", "email", "id"][..rng.usize_in(1, 4)]
        .iter()
        .map(|h| {
            let values: Vec<&str> = (0..rows)
                .map(|_| pick(rng, &["\"oslo\"", "\"a@b.org\"", "\"17\"", "null", "\"\""]))
                .collect();
            format!("{{\"header\":\"{h}\",\"values\":[{}]}}", values.join(","))
        })
        .collect();
    format!("{{\"columns\":[{}]}}", columns.join(","))
}

/// Options whose answers do not depend on timing (no numeric budget).
fn options(rng: &mut TestRng) -> &'static str {
    pick(
        rng,
        &[
            "null",
            "{}",
            "{\"policy\":\"drop_tail\"}",
            "{\"policy\":\"fastest\"}",
            "{\"bypass_cache\":true}",
            "{\"bypass_cache\":1}",
            "{\"telemetry\":\"minimal\"}",
            "{\"embedding_backend\":\"blocked_simd\"}",
            "{\"embedding_backend\":\"warp_drive\"}",
            "{\"delta_sensitivity\":-1}",
            "{\"delta_sensitivity\":0.25}",
            "{\"budget_nanos\":\"x\"}",
            "[]",
        ],
    )
}

fn annotate_body(rng: &mut TestRng) -> String {
    let t = table(rng);
    let o = options(rng);
    match rng.usize_in(0, 12) {
        // The bare-table form, carrying base and options beside its
        // own members.
        0 | 1 => match t.strip_prefix('{') {
            Some(rest) => {
                let b = table(rng);
                format!("{{\"options\":{o},\"base\":{b},{rest}")
            }
            None => t,
        },
        2 => format!("{{\"table\":{t},\"base\":{}}}", table(rng)),
        3 => format!("{{\"options\":{o},\"table\":{t},\"base\":null}}"),
        4 => format!("{{\"table\":{t},\"table\":{}}}", table(rng)),
        5 => format!("{{\"columns\":\"junk\",\"name\":3,\"table\":{t}}}"),
        6 => format!("{{\"table\":{t},\"base\":5}}"),
        7 => format!("{{\"zzz\":[{{\"a\":null}},1.5e2,\"q\"],\"table\":{t},\"options\":{o}}}"),
        8 => format!("{{\"table\":{t},\"options\":{o},\"options\":{{\"policy\":7}}}}"),
        9 => format!("[{t}]"),
        _ => format!("{{\"table\":{t}}}"),
    }
}

fn batch_body(rng: &mut TestRng) -> String {
    let n = rng.usize_in(0, 4);
    let tables: Vec<String> = (0..n).map(|_| table(rng)).collect();
    let tables = tables.join(",");
    let o = options(rng);
    match rng.usize_in(0, 8) {
        0 => format!("{{\"options\":{o}}}"),
        1 => format!("{{\"tables\":{{}},\"options\":{o}}}"),
        2 => format!("{{\"tables\":[{tables}],\"tables\":5}}"),
        3 => format!("{{\"x\":1,\"tables\":[{tables}],\"options\":{o}}}"),
        _ => format!("{{\"tables\":[{tables}],\"options\":{o}}}"),
    }
}

fn feedback_body(rng: &mut TestRng) -> String {
    let t = if rng.usize_in(0, 4) == 0 {
        table(rng)
    } else {
        tidy_table(rng)
    };
    let col = pick(
        rng,
        &["0", "0", "1", "3", "-1", "1.0", "\"0\"", "99", "null"],
    );
    let ty = pick(
        rng,
        &["\"email\"", "\"city\"", "\"no such type\"", "7", "null"],
    );
    match rng.usize_in(0, 8) {
        0 => format!("{{\"col_idx\":{col},\"type\":{ty}}}"),
        1 => format!("{{\"table\":{t},\"type\":{ty}}}"),
        2 => format!("{{\"table\":{t},\"col_idx\":{col}}}"),
        3 => format!("{{\"type\":{ty},\"col_idx\":{col},\"table\":{t},\"type\":\"dup\"}}"),
        _ => format!("{{\"table\":{t},\"col_idx\":{col},\"type\":{ty}}}"),
    }
}

/// A byte-level mutation that keeps the text UTF-8: truncate, drop a
/// character, or put a JSON-significant character somewhere.
fn mutate(body: &str, rng: &mut TestRng) -> String {
    let mut chars: Vec<char> = body.chars().collect();
    if chars.is_empty() {
        return "{".into();
    }
    let at = rng.usize_in(0, chars.len());
    match rng.usize_in(0, 4) {
        0 => chars.truncate(at),
        1 => {
            chars.remove(at);
        }
        2 => {
            chars[at] = pick(
                rng,
                &["{", "}", "[", "]", "\"", ",", ":", "\\", "0", "n", " "],
            )
            .chars()
            .next()
            .expect("one char")
        }
        _ => chars.insert(at, if rng.usize_in(0, 2) == 0 { ',' } else { '"' }),
    }
    chars.into_iter().collect()
}

// ---- Decoder equivalence ------------------------------------------------

/// Feed one body to the streaming decoder and to the reference
/// (`Json::parse` then `from_json`); they must agree on acceptance and,
/// when both accept, on the decoded value. Returns whether they
/// accepted.
fn check_decoders(endpoint: Endpoint, body: &str) -> bool {
    fn agree<T: PartialEq + std::fmt::Debug>(
        body: &str,
        streamed: Option<T>,
        reference: fn(&Json) -> Result<T, String>,
    ) -> bool {
        let reference = Json::parse(body)
            .map_err(|e| e.to_string())
            .and_then(|tree| reference(&tree));
        match (streamed, reference) {
            (Some(s), Ok(r)) => {
                assert_eq!(s, r, "decoders disagree on {body}");
                true
            }
            (None, Err(_)) => false,
            (s, r) => panic!(
                "streaming {} but reference {r:?} on {body}",
                if s.is_some() { "accepted" } else { "declined" }
            ),
        }
    }
    match endpoint {
        Endpoint::Annotate => agree(body, AnnotateBody::stream(body), AnnotateBody::from_json),
        Endpoint::Batch => agree(body, BatchBody::stream(body), BatchBody::from_json),
        Endpoint::Feedback => agree(body, FeedbackBody::stream(body), FeedbackBody::from_json),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn streaming_decoders_accept_exactly_what_the_reference_accepts(
        annotate in UntidyBody(Endpoint::Annotate),
        batch in UntidyBody(Endpoint::Batch),
        feedback in UntidyBody(Endpoint::Feedback),
        mutation_seed in 0u64..u64::MAX
    ) {
        let mut rng = TestRng::from_name(&mutation_seed.to_string());
        for (endpoint, body) in [
            (Endpoint::Annotate, annotate),
            (Endpoint::Batch, batch),
            (Endpoint::Feedback, feedback),
        ] {
            check_decoders(endpoint, &body);
            for _ in 0..3 {
                check_decoders(endpoint, &mutate(&body, &mut rng));
            }
        }
    }
}

/// The generator is not vacuous: a fair share of untouched bodies are
/// valid requests, and the well-formed shapes the crawl sends decode
/// through the streaming path.
#[test]
fn generated_bodies_exercise_both_outcomes() {
    let mut rng = TestRng::from_name("generated_bodies_exercise_both_outcomes");
    for endpoint in [Endpoint::Annotate, Endpoint::Batch, Endpoint::Feedback] {
        let accepted = (0..600)
            .filter(|_| check_decoders(endpoint, &UntidyBody(endpoint).generate(&mut rng)))
            .count();
        assert!(
            (60..540).contains(&accepted),
            "{endpoint:?}: {accepted} of 600 accepted"
        );
    }
    let crawl = r#"{"table":{"name":"t","columns":[{"header":"a","values":["1","x",null]}]},
        "base":{"name":"t","columns":[{"header":"a","values":["1","x"]}]},"options":{"delta_sensitivity":0}}"#;
    assert!(check_decoders(Endpoint::Annotate, crawl));
}

/// RFC 8259 has no leading zeros: an `"options"` budget of `01` is not
/// JSON, so both codecs refuse the body, and the server answers with
/// the reference parse error.
#[test]
fn a_number_with_a_leading_zero_is_refused_by_both_codecs() {
    let body =
        r#"{"table":{"columns":[{"header":"a","values":["1"]}]},"options":{"budget_nanos":01}}"#;
    assert!(!check_decoders(Endpoint::Annotate, body));
    let legal = body.replace(":01}", ":1}");
    assert!(check_decoders(Endpoint::Annotate, &legal));

    let typer = lab().customer();
    let server = AnnotationServer::start(
        "127.0.0.1:0",
        typer.clone(),
        &ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let resp = client
        .post_json("/annotate", body, &[])
        .expect("the server answers");
    let (status, expected) =
        reference_answer(&typer, Endpoint::Annotate, body).expect("an annotate answer");
    assert_eq!((resp.status, resp.body_str()), (status, expected));
    assert_eq!(status, 400);
    server.shutdown().expect("graceful shutdown");
}

// ---- Cell typing ----------------------------------------------------------

/// `Value::infer` as it stood before the one-pass number shape and the
/// trim fast path, transcribed.
fn infer_reference(raw: &str) -> Value {
    fn looks_like_number(s: &str) -> bool {
        let mut chars = s.chars().peekable();
        if matches!(chars.peek(), Some('+' | '-')) {
            chars.next();
        }
        let mut digits = 0usize;
        let mut dots = 0usize;
        let mut exp = false;
        while let Some(c) = chars.next() {
            match c {
                '0'..='9' => digits += 1,
                '.' if dots == 0 && !exp => dots += 1,
                'e' | 'E' if digits > 0 && !exp => {
                    exp = true;
                    if matches!(chars.peek(), Some('+' | '-')) {
                        chars.next();
                    }
                }
                _ => return false,
            }
        }
        digits > 0
    }
    let t = raw.trim();
    if let Some(&first) = t.as_bytes().first() {
        let letter = first.is_ascii_alphabetic()
            && !matches!(first.to_ascii_lowercase(), b'n' | b't' | b'f');
        if letter || !first.is_ascii() {
            return Value::Text(t.to_owned());
        }
    }
    if t.is_empty()
        || t.eq_ignore_ascii_case("null")
        || t.eq_ignore_ascii_case("na")
        || t.eq_ignore_ascii_case("n/a")
        || t.eq_ignore_ascii_case("none")
    {
        return Value::Null;
    }
    let has_leading_zero = {
        let digits = t.strip_prefix(['+', '-']).unwrap_or(t);
        digits.len() > 1 && digits.starts_with('0') && !digits.contains('.')
    };
    if !has_leading_zero {
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if looks_like_number(t) {
            if let Ok(f) = t.parse::<f64>() {
                return Value::Float(f);
            }
        }
    }
    if t.eq_ignore_ascii_case("true") {
        return Value::Bool(true);
    }
    if t.eq_ignore_ascii_case("false") {
        return Value::Bool(false);
    }
    if let Some(d) = Date::parse(t) {
        return Value::Date(d);
    }
    Value::Text(t.to_owned())
}

/// Cells built from what `Value::infer`'s rules turn on: digits, signs,
/// `.`, exponents, `/`, the letters of its null and boolean words, every
/// whitespace `str::trim` strips at the ASCII end and two it strips
/// beyond it, a non-ASCII letter, and the `i64` edges.
struct CellText;

impl Strategy for CellText {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        const PIECES: &[&str] = &[
            "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "+", "-", ".", "e", "E", "/", "n",
            "u", "l", "t", "r", "f", "a", "s", "N", "U", "L", "T", "\t", "\n", "\u{b}", "\u{c}",
            "\r", " ", "\u{a0}", "\u{3000}", "é",
        ];
        const WHOLE: &[&str] = &[
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "null",
            "n/a",
            "true",
            "FALSE",
            "2021-03-04",
            "1e999",
        ];
        let mut cell = String::new();
        for _ in 0..rng.usize_in(0, 9) {
            if rng.usize_in(0, 8) == 0 {
                cell.push_str(WHOLE[rng.usize_in(0, WHOLE.len())]);
            } else {
                cell.push_str(PIECES[rng.usize_in(0, PIECES.len())]);
            }
        }
        cell
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50_000))]

    #[test]
    fn infer_types_every_cell_as_it_always_has(cell in CellText) {
        let (got, want) = (Value::infer(&cell), infer_reference(&cell));
        match (&got, &want) {
            (Value::Float(a), Value::Float(b)) => prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?}", cell),
            _ => prop_assert_eq!(got, want, "{:?}", cell),
        }
    }
}

/// The generator reaches every branch of the rules it checks.
#[test]
fn cell_text_reaches_every_value_kind() {
    let mut rng = TestRng::from_name("cell_text_reaches_every_value_kind");
    let mut kinds = std::collections::BTreeSet::new();
    for _ in 0..50_000 {
        kinds.insert(
            infer_reference(&CellText.generate(&mut rng))
                .data_type()
                .name(),
        );
    }
    assert_eq!(kinds.len(), 6, "{kinds:?}");
    for edge in [
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775809",
        " \u{b}12\u{3000}",
    ] {
        assert_eq!(Value::infer(edge), infer_reference(edge), "{edge:?}");
    }
}

// ---- Encoder equivalence ------------------------------------------------

/// Corpora mirroring the shapes of the e1–e8 experiments.
fn eval_corpora() -> Vec<tu_corpus::Corpus> {
    let ontology = &lab().global.ontology;
    let n = 6;
    let mut shapes = Vec::new();
    let mut e1 = CorpusConfig::database_like(0xE1_70, n);
    e1.params = GenParams::shifted(0.5);
    e1.opaque_header_rate = 0.6;
    shapes.push(e1);
    shapes.push(CorpusConfig::database_like(0xE2_01, n));
    let mut e3 = CorpusConfig::database_like(0xE3_01, n);
    e3.ood_column_rate = 0.9;
    shapes.push(e3);
    let mut e4 = CorpusConfig::database_like(0xE4_01, n);
    e4.params = GenParams::shifted(0.7);
    e4.opaque_header_rate = 0.5;
    shapes.push(e4);
    shapes.push(CorpusConfig::database_like(0xE5_01, n));
    let mut e6 = CorpusConfig::database_like(0xE6_01, n);
    e6.opaque_header_rate = 0.45;
    e6.params = GenParams::shifted(0.2);
    shapes.push(e6);
    let mut e7 = CorpusConfig::database_like(0xE7_01, n);
    e7.ood_column_rate = 0.25;
    e7.opaque_header_rate = 0.45;
    e7.params = GenParams::shifted(0.2);
    shapes.push(e7);
    let mut e8_web = CorpusConfig::web_like(0xE8_11, n);
    e8_web.opaque_header_rate = 0.7;
    shapes.push(e8_web);
    let mut e8_db = CorpusConfig::database_like(0xE8_12, n);
    e8_db.opaque_header_rate = 0.7;
    shapes.push(e8_db);
    shapes
        .iter()
        .map(|cfg| generate_corpus(ontology, cfg))
        .collect()
}

/// The same outcome with every float the wire prints pushed to the
/// forms `write_float` special-cases, and names that need escaping.
fn with_awkward_numbers(mut outcome: AnnotationOutcome) -> AnnotationOutcome {
    let awkward = [f64::NAN, f64::INFINITY, -0.0, 1e15, 3.0, 1e-300];
    for (i, col) in outcome.annotation.columns.iter_mut().enumerate() {
        col.confidence = awkward[i % awkward.len()];
        for (j, c) in col.top_k.iter_mut().enumerate() {
            c.confidence = awkward[(i + j + 1) % awkward.len()];
        }
        for scores in &mut col.step_scores {
            for c in &mut scores.candidates {
                c.confidence = f64::NEG_INFINITY;
            }
        }
    }
    for s in &mut outcome.degradation.skipped {
        s.name = format!("cust\"om\\\n\u{1}{}", s.name);
    }
    outcome
}

#[test]
fn direct_encoder_matches_the_reference_encoder_on_e1_to_e8() {
    let typer = lab().customer();
    let ontology = typer.ontology();
    let degrade = RequestOptions::default()
        .with_budget_nanos(1)
        .with_policy(DegradationPolicy::DropTailSteps);
    let (mut abstained, mut degraded, mut steps_seen) = (0, 0, 0);
    for corpus in eval_corpora() {
        let mut outcomes = Vec::new();
        for at in &corpus.tables {
            for options in [RequestOptions::default(), degrade] {
                let outcome =
                    typer.annotate_request(&AnnotationRequest::with_options(&at.table, options));
                abstained += outcome
                    .annotation
                    .columns
                    .iter()
                    .filter(|c| c.abstained())
                    .count();
                degraded += usize::from(outcome.degraded());
                steps_seen += outcome
                    .annotation
                    .columns
                    .iter()
                    .filter(|c| c.steps_run.contains(&StepId::EMBEDDING))
                    .count();
                outcomes.push(with_awkward_numbers(outcome.clone()));
                outcomes.push(outcome);
            }
        }
        for outcome in &outcomes {
            assert_eq!(
                encode_outcome(outcome, ontology),
                outcome_to_json(outcome, ontology).to_string()
            );
        }
        let reference = Json::object(vec![(
            "outcomes",
            Json::Arr(
                outcomes
                    .iter()
                    .map(|o| outcome_to_json(o, ontology))
                    .collect(),
            ),
        )]);
        assert_eq!(encode_outcomes(&outcomes, ontology), reference.to_string());
    }
    assert_eq!(encode_outcomes(&[], ontology), "{\"outcomes\":[]}");
    assert!(abstained > 0 && degraded > 0 && steps_seen > 0);
}

// ---- Untidy bodies over HTTP --------------------------------------------

fn error_body(message: &str) -> String {
    Json::object(vec![("error", Json::from(message))]).to_string()
}

/// Spend is wall-clock: zero it before comparing outcomes.
fn normalize(outcome: &Json) -> Json {
    let mut v = outcome.clone();
    if let Json::Obj(fields) = &mut v {
        for (key, value) in fields.iter_mut() {
            if key == "degradation" {
                if let Json::Obj(report) = value {
                    for (rk, rv) in report.iter_mut() {
                        if rk == "spent_nanos" {
                            *rv = Json::from(0u64);
                        }
                    }
                }
            } else if key == "outcomes" {
                if let Json::Arr(items) = value {
                    for item in items.iter_mut() {
                        *item = normalize(item);
                    }
                }
            }
        }
    }
    v
}

/// What the server answered before the streaming codec, computed in
/// process: the reference decode, then the direct call and the
/// reference encoder. `None` for a feedback the server accepts (its
/// answer carries the server's own epoch).
fn reference_answer(typer: &SigmaTyper, endpoint: Endpoint, body: &str) -> Option<(u16, String)> {
    let tree = match Json::parse(body) {
        Ok(tree) => tree,
        Err(e) => return Some((400, error_body(&format!("invalid JSON body: {e}")))),
    };
    let ontology = typer.ontology();
    let annotate = |table, base: Option<&tu_table::Table>, options| {
        let mut request = AnnotationRequest::with_options(table, options);
        if let Some(base) = base {
            request = request.with_base(base);
        }
        outcome_to_json(&typer.annotate_request(&request), ontology)
    };
    Some(match endpoint {
        Endpoint::Annotate => match AnnotateBody::from_json(&tree) {
            Ok(b) => (
                200,
                normalize(&annotate(&b.table, b.base.as_ref(), b.options)).to_string(),
            ),
            Err(e) => (400, error_body(&e)),
        },
        Endpoint::Batch => match BatchBody::from_json(&tree) {
            Ok(b) => {
                let outcomes = b
                    .tables
                    .iter()
                    .map(|t| annotate(t, None, b.options))
                    .collect();
                (
                    200,
                    normalize(&Json::object(vec![("outcomes", Json::Arr(outcomes))])).to_string(),
                )
            }
            Err(e) => (400, error_body(&e)),
        },
        Endpoint::Feedback => match FeedbackBody::from_json(&tree) {
            Ok(b) if ontology.lookup_exact(&b.type_name).is_some() => return None,
            Ok(b) => (400, error_body(&format!("unknown type {:?}", b.type_name))),
            Err(e) => (400, error_body(&e)),
        },
    })
}

/// Post `cases` generated bodies (and a truncated copy of each) to a
/// fresh server and hold every answer to the reference. Runs on its own
/// thread so a hung request fails the test instead of stalling it.
fn untidy_bodies_over_http(endpoint: Endpoint, cases: usize) {
    let (done_tx, done_rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let typer = lab().customer();
        let server = AnnotationServer::start(
            "127.0.0.1:0",
            typer.clone(),
            &ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("start server");
        let mut client = HttpClient::connect(server.local_addr()).expect("connect");
        let mut rng = TestRng::from_name(&format!("untidy_bodies_over_http::{endpoint:?}"));
        let strategy = UntidyBody(endpoint);
        let mut statuses = [0usize; 2];
        for _ in 0..cases {
            let body = strategy.generate(&mut rng);
            let cut = body
                .char_indices()
                .map(|(i, _)| i)
                .nth(rng.usize_in(0, body.chars().count()))
                .unwrap_or(0);
            for body in [body.as_str(), &body[..cut]] {
                let resp = client
                    .post_json(endpoint.path(), body, &[])
                    .expect("the server answers");
                statuses[usize::from(resp.status == 200)] += 1;
                match reference_answer(&typer, endpoint, body) {
                    Some((status, expected)) => {
                        assert_eq!(resp.status, status, "{body}");
                        let got = if status == 200 {
                            normalize(&Json::parse(&resp.body_str()).expect("outcome json"))
                                .to_string()
                        } else {
                            resp.body_str()
                        };
                        assert_eq!(got, expected, "{body}");
                    }
                    None => {
                        assert_eq!(resp.status, 200, "{body}");
                        let ack = Json::parse(&resp.body_str()).expect("feedback json");
                        assert_eq!(ack.get("ok"), Some(&Json::from(true)), "{body}");
                        assert!(ack.get("epoch").and_then(Json::as_u64).is_some());
                    }
                }
            }
        }
        let metrics = Json::parse(&client.get("/metrics").expect("metrics").body_str())
            .expect("metrics json");
        assert_eq!(metrics.get("panics").and_then(Json::as_u64), Some(0));
        server.shutdown().expect("graceful shutdown");
        done_tx.send(statuses).expect("report");
    });
    let statuses = done_rx
        .recv_timeout(Duration::from_secs(300))
        .unwrap_or_else(|_| match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => panic!("untidy {endpoint:?} bodies hung the server"),
        });
    assert!(
        statuses[0] > 0 && statuses[1] > 0,
        "{endpoint:?}: 400s and 200s {statuses:?}"
    );
}

#[test]
fn untidy_annotate_bodies_get_the_reference_answer_over_http() {
    untidy_bodies_over_http(Endpoint::Annotate, 120);
}

#[test]
fn untidy_batch_bodies_get_the_reference_answer_over_http() {
    untidy_bodies_over_http(Endpoint::Batch, 80);
}

#[test]
fn untidy_feedback_bodies_get_the_reference_answer_over_http() {
    untidy_bodies_over_http(Endpoint::Feedback, 80);
}
