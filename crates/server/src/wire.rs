//! JSON wire format of the annotation server.
//!
//! One module owns every encode/decode between HTTP bodies and the
//! core types, so the format is specified in exactly one place:
//!
//! * **Table in**: `{"name": "...", "columns": [{"header": "...",
//!   "values": ["...", ...]}, ...]}` — values are strings (`null`
//!   becomes the empty cell); typing them is the *server's* job.
//! * **Options in** (all fields optional; `null` means absent):
//!   `{"budget_nanos": u64, "policy":
//!   "strict"|"drop_tail"|"best_effort", "bypass_cache": bool,
//!   "telemetry": "full"|"timings_only"|"minimal",
//!   "embedding_backend": "reference_f32"|"blocked_simd",
//!   "delta_sensitivity": f64 ≥ 0}`.
//! * **Base table in**: `POST /annotate` additionally accepts a
//!   `"base"` table (same shape as `"table"`) — the previously crawled
//!   version, turning the request into an incremental recrawl with
//!   delta-aware cache reuse.
//! * **Outcome out**: per-column decisions (predicted type *name* or
//!   `null` on abstention, confidence, top-k, steps run) plus the full
//!   [`DegradationReport`].
//!
//! Numbers are lossless end to end: nanosecond budgets ride jsonshim's
//! integer variant (`u64::MAX` survives), confidences ride Rust's
//! shortest-round-trip `f64` formatting — so an HTTP round trip is
//! **bit-identical** to the in-process call, which the E2E golden
//! suite asserts.
//!
//! # Two codecs, one format
//!
//! The server decodes bodies with a **streaming** codec:
//! [`AnnotateBody::stream`], [`BatchBody::stream`] and
//! [`FeedbackBody::stream`] walk the body with jsonshim's
//! [`JsonReader`] and type each cell through [`Value::infer`] straight
//! from its slice of the body — one allocation per text cell, none per
//! JSON node. Responses are written straight into one `String`
//! ([`encode_outcome`], [`encode_outcomes`]) through jsonshim's own
//! escape and float writers.
//!
//! The **reference** codec builds a [`Json`] tree: [`table_from_json`],
//! [`options_from_json`], the `from_json` decoders and
//! [`outcome_to_json`]. The streaming decoders accept exactly the
//! bodies the reference accepts, with equal results; a body they
//! decline is answered through the reference, whose error text is the
//! 400 body. The encoders are byte-identical to
//! `outcome_to_json(..).to_string()`.

use jsonshim::{Json, JsonError, JsonReader, ValueKind};
use sigmatyper::backend::EmbeddingBackendKind;
use sigmatyper::request::{
    AnnotationOutcome, DegradationPolicy, DegradationReport, RequestOptions, SkipReason,
    TelemetryVerbosity,
};
use sigmatyper::ColumnAnnotation;
use std::fmt::{self, Write as _};
use tu_ontology::Ontology;
use tu_table::{Column, Table, Value};

/// Decode a request table. Errors are human-readable and become the
/// 400 response body verbatim.
pub fn table_from_json(v: &Json) -> Result<Table, String> {
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("request-table");
    let columns_json = v
        .get("columns")
        .and_then(Json::as_array)
        .ok_or("table must have a \"columns\" array")?;
    let mut columns = Vec::with_capacity(columns_json.len());
    for (i, col) in columns_json.iter().enumerate() {
        let header = col
            .get("header")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("column {i} must have a string \"header\""))?;
        let values_json = col
            .get("values")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("column {i} must have a \"values\" array"))?;
        // Each cell is typed straight from the parsed string, exactly
        // as `Column::from_raw` would type it (`null` is the empty
        // cell, which infers to `Value::Null`).
        let mut values = Vec::with_capacity(values_json.len());
        for (j, cell) in values_json.iter().enumerate() {
            if cell.is_null() {
                values.push(Value::Null);
            } else if let Some(s) = cell.as_str() {
                values.push(Value::infer(s));
            } else {
                return Err(format!(
                    "column {i} value {j} must be a string or null (send numbers as strings; \
                     typing cells is the server's job)"
                ));
            }
        }
        columns.push(Column::new(header, values));
    }
    Table::new(name, columns).map_err(|e| format!("invalid table: {e:?}"))
}

/// Decode the optional `"options"` object of a request body. A `null`
/// object, and a `null` field inside it, mean the same as leaving it
/// out.
pub fn options_from_json(v: Option<&Json>) -> Result<RequestOptions, String> {
    let mut options = RequestOptions::default();
    let Some(v) = v.filter(|v| !v.is_null()) else {
        return Ok(options);
    };
    let field = |name: &str| v.get(name).filter(|f| !f.is_null());
    if let Some(budget) = field("budget_nanos") {
        let nanos = budget
            .as_u64()
            .ok_or("\"budget_nanos\" must be an unsigned integer")?;
        options = options.with_budget_nanos(nanos);
    }
    if let Some(policy) = field("policy") {
        let label = policy.as_str().ok_or("\"policy\" must be a string")?;
        options = options.with_policy(match label {
            "strict" => DegradationPolicy::Strict,
            "drop_tail" => DegradationPolicy::DropTailSteps,
            "best_effort" => DegradationPolicy::BestEffort,
            other => {
                return Err(format!(
                    "unknown policy {other:?}: expected \"strict\", \"drop_tail\", \
                     or \"best_effort\""
                ))
            }
        });
    }
    if let Some(bypass) = field("bypass_cache") {
        if bypass
            .as_bool()
            .ok_or("\"bypass_cache\" must be a boolean")?
        {
            options = options.with_cache_bypassed();
        }
    }
    if let Some(telemetry) = field("telemetry") {
        let label = telemetry.as_str().ok_or("\"telemetry\" must be a string")?;
        options = options.with_telemetry(match label {
            "full" => TelemetryVerbosity::Full,
            "timings_only" => TelemetryVerbosity::TimingsOnly,
            "minimal" => TelemetryVerbosity::Minimal,
            other => {
                return Err(format!(
                    "unknown telemetry {other:?}: expected \"full\", \"timings_only\", \
                     or \"minimal\""
                ))
            }
        });
    }
    if let Some(backend) = field("embedding_backend") {
        let label = backend
            .as_str()
            .ok_or("\"embedding_backend\" must be a string")?;
        // `parse` is the typed-error path: an unknown name becomes an
        // `UnknownBackendError` listing the valid names, which we
        // surface verbatim as the 400 body — never a panic.
        let kind = EmbeddingBackendKind::parse(label).map_err(|e| e.to_string())?;
        options = options.with_embedding_backend(kind);
    }
    if let Some(sensitivity) = field("delta_sensitivity") {
        let s = sensitivity
            .as_f64()
            .ok_or("\"delta_sensitivity\" must be a number")?;
        if !s.is_finite() || s < 0.0 {
            return Err(format!(
                "\"delta_sensitivity\" must be a finite number >= 0, got {s}"
            ));
        }
        options = options.with_delta_sensitivity(s);
    }
    Ok(options)
}

fn policy_label(policy: DegradationPolicy) -> &'static str {
    match policy {
        DegradationPolicy::Strict => "strict",
        DegradationPolicy::DropTailSteps => "drop_tail",
        DegradationPolicy::BestEffort => "best_effort",
    }
}

fn skip_reason_label(reason: SkipReason) -> &'static str {
    match reason {
        SkipReason::BudgetExhausted => "budget_exhausted",
        SkipReason::PredictedOverBudget => "predicted_over_budget",
        SkipReason::FrontierTruncated => "frontier_truncated",
    }
}

fn candidates_to_json(candidates: &[sigmatyper::Candidate], ontology: &Ontology) -> Json {
    Json::Arr(
        candidates
            .iter()
            .map(|c| {
                Json::object(vec![
                    ("type", Json::from(ontology.name(c.ty))),
                    ("confidence", Json::from(c.confidence)),
                ])
            })
            .collect(),
    )
}

fn column_to_json(col: &ColumnAnnotation, ontology: &Ontology) -> Json {
    let predicted = if col.abstained() {
        Json::Null
    } else {
        Json::from(ontology.name(col.predicted))
    };
    Json::object(vec![
        ("col_idx", Json::from(col.col_idx)),
        ("predicted", predicted),
        ("confidence", Json::from(col.confidence)),
        ("abstained", Json::from(col.abstained())),
        ("top_k", candidates_to_json(&col.top_k, ontology)),
        (
            "steps_run",
            Json::Arr(col.steps_run.iter().map(|s| Json::from(s.name())).collect()),
        ),
        (
            "step_scores",
            Json::Arr(
                col.step_scores
                    .iter()
                    .map(|s| candidates_to_json(&s.candidates, ontology))
                    .collect(),
            ),
        ),
    ])
}

fn report_to_json(report: &DegradationReport) -> Json {
    Json::object(vec![
        ("policy", Json::from(policy_label(report.policy))),
        ("budget_nanos", Json::from(report.budget_nanos)),
        ("spent_nanos", Json::from(report.spent_nanos)),
        ("remaining_nanos", Json::from(report.remaining_nanos)),
        ("delta_reused", Json::from(report.delta_reused)),
        (
            "skipped",
            Json::Arr(
                report
                    .skipped
                    .iter()
                    .map(|s| {
                        Json::object(vec![
                            ("step", Json::from(s.name.as_str())),
                            ("reason", Json::from(skip_reason_label(s.reason))),
                            ("pending", Json::from(s.pending)),
                            ("ran", Json::from(s.ran)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Encode one [`AnnotationOutcome`] — the `POST /annotate` response
/// body and one element of the `/annotate_batch` response.
pub fn outcome_to_json(outcome: &AnnotationOutcome, ontology: &Ontology) -> Json {
    Json::object(vec![
        (
            "columns",
            Json::Arr(
                outcome
                    .annotation
                    .columns
                    .iter()
                    .map(|c| column_to_json(c, ontology))
                    .collect(),
            ),
        ),
        ("degraded", Json::from(outcome.degraded())),
        ("degradation", report_to_json(&outcome.degradation)),
    ])
}

/// A `POST /annotate` body: `{"table": …, "base"?: …, "options"?: …}`,
/// or the bare table itself (`{"name"?: …, "columns": […]}`, which may
/// carry `"base"` and `"options"` beside its own members).
#[derive(Debug, PartialEq)]
pub struct AnnotateBody {
    /// The table to annotate.
    pub table: Table,
    /// The previously crawled version, when the client sent one (a
    /// `null` base is no base).
    pub base: Option<Table>,
    /// The request options.
    pub options: RequestOptions,
}

impl AnnotateBody {
    /// Decode with the streaming codec. `None` exactly when
    /// [`AnnotateBody::from_json`] would reject the parsed body (or it
    /// does not parse).
    #[must_use]
    pub fn stream(body: &str) -> Option<AnnotateBody> {
        let mut reader = JsonReader::new(body);
        let mut table = None;
        let mut base = None;
        let mut options = None;
        let mut bare = TableParts::default();
        reader
            .object(|r, key| {
                match key {
                    "table" if table.is_none() => table = Some(stream_table(r)?),
                    "base" if base.is_none() => {
                        base = Some(if r.peek_kind()? == ValueKind::Null {
                            r.value()?;
                            None
                        } else {
                            Some(stream_table(r)?)
                        });
                    }
                    "options" if options.is_none() => options = Some(r.value()?),
                    _ => bare.member_or_skip(r, key)?,
                }
                Ok(())
            })
            .ok()?;
        reader.finish().ok()?;
        let table = match table {
            Some(table) => table?,
            None => bare.finish()?,
        };
        let base = match base {
            Some(Some(base)) => Some(base?),
            _ => None,
        };
        let options = options_from_json(options.as_ref()).ok()?;
        Some(AnnotateBody {
            table,
            base,
            options,
        })
    }

    /// Decode with the reference codec; the error is the 400 body.
    pub fn from_json(body: &Json) -> Result<AnnotateBody, String> {
        let table = table_from_json(body.get("table").unwrap_or(body))?;
        // Optional previously-crawled version: its presence turns the
        // request into an incremental recrawl (delta-aware cache reuse
        // under the options' `delta_sensitivity`).
        let base = match body.get("base") {
            None => None,
            Some(v) if v.is_null() => None,
            Some(v) => Some(table_from_json(v).map_err(|e| format!("base: {e}"))?),
        };
        let options = options_from_json(body.get("options"))?;
        Ok(AnnotateBody {
            table,
            base,
            options,
        })
    }
}

/// A `POST /annotate_batch` body: `{"tables": […], "options"?: …}`.
#[derive(Debug, PartialEq)]
pub struct BatchBody {
    /// The tables, in request order.
    pub tables: Vec<Table>,
    /// Options shared by the whole batch.
    pub options: RequestOptions,
}

impl BatchBody {
    /// Decode with the streaming codec. `None` exactly when
    /// [`BatchBody::from_json`] would reject the parsed body (or it
    /// does not parse).
    #[must_use]
    pub fn stream(body: &str) -> Option<BatchBody> {
        let mut reader = JsonReader::new(body);
        let mut tables: Option<Option<Vec<Table>>> = None;
        let mut options = None;
        reader
            .object(|r, key| {
                match key {
                    "tables" if tables.is_none() => tables = Some(stream_tables(r)?),
                    "options" if options.is_none() => options = Some(r.value()?),
                    _ => {
                        r.value()?;
                    }
                }
                Ok(())
            })
            .ok()?;
        reader.finish().ok()?;
        let tables = tables??;
        let options = options_from_json(options.as_ref()).ok()?;
        Some(BatchBody { tables, options })
    }

    /// Decode with the reference codec; the error is the 400 body.
    pub fn from_json(body: &Json) -> Result<BatchBody, String> {
        let tables_json = body
            .get("tables")
            .and_then(Json::as_array)
            .ok_or("batch body must have a \"tables\" array")?;
        let mut tables = Vec::with_capacity(tables_json.len());
        for (i, t) in tables_json.iter().enumerate() {
            tables.push(table_from_json(t).map_err(|e| format!("table {i}: {e}"))?);
        }
        let options = options_from_json(body.get("options"))?;
        Ok(BatchBody { tables, options })
    }
}

/// A `POST /feedback` body: `{"table": …, "col_idx": n, "type":
/// "name"}`, with `col_idx` in range for the table. Whether `type`
/// names a type of the customer's ontology is the server's check.
#[derive(Debug, PartialEq)]
pub struct FeedbackBody {
    /// The table the correction is about.
    pub table: Table,
    /// The corrected column.
    pub col_idx: usize,
    /// The type name the customer says the column has.
    pub type_name: String,
}

impl FeedbackBody {
    /// Decode with the streaming codec. `None` exactly when
    /// [`FeedbackBody::from_json`] would reject the parsed body (or it
    /// does not parse).
    #[must_use]
    pub fn stream(body: &str) -> Option<FeedbackBody> {
        let mut reader = JsonReader::new(body);
        let mut table = None;
        let mut col_idx = None;
        let mut type_name = None;
        reader
            .object(|r, key| {
                match key {
                    "table" if table.is_none() => table = Some(stream_table(r)?),
                    "col_idx" if col_idx.is_none() => col_idx = Some(r.value()?),
                    "type" if type_name.is_none() => type_name = Some(r.value()?),
                    _ => {
                        r.value()?;
                    }
                }
                Ok(())
            })
            .ok()?;
        reader.finish().ok()?;
        let table = table??;
        let col_idx = col_idx?.as_usize().filter(|&c| c < table.n_cols())?;
        let Json::Str(type_name) = type_name? else {
            return None;
        };
        Some(FeedbackBody {
            table,
            col_idx,
            type_name,
        })
    }

    /// Decode with the reference codec; the error is the 400 body.
    pub fn from_json(body: &Json) -> Result<FeedbackBody, String> {
        let table_json = body
            .get("table")
            .ok_or("feedback body must have a \"table\"")?;
        let table = table_from_json(table_json)?;
        let col_idx = body
            .get("col_idx")
            .and_then(Json::as_usize)
            .ok_or("feedback body must have an integer \"col_idx\"")?;
        if col_idx >= table.n_cols() {
            return Err(format!(
                "col_idx {col_idx} out of range for a {}-column table",
                table.n_cols()
            ));
        }
        let type_name = body
            .get("type")
            .and_then(Json::as_str)
            .ok_or("feedback body must have a string \"type\"")?;
        Ok(FeedbackBody {
            table,
            col_idx,
            type_name: type_name.to_owned(),
        })
    }
}

// Streaming decode. Each reader returns `Err` only for a body that is
// not JSON; a well-formed value of the wrong shape is read to its end
// and comes back as `None`, because a member the reference ignores
// (say, top-level `"columns"` beside a `"table"`) must not make the
// body fail. Repeated keys: the first occurrence wins, as in
// `Json::get`.

/// The members of one table object as they arrive.
#[derive(Default)]
struct TableParts {
    /// `None` until seen; then the name, if it was a string.
    name: Option<Option<String>>,
    /// `None` until seen; then the columns, if well-formed.
    columns: Option<Option<Vec<Column>>>,
}

impl TableParts {
    /// Read `key`'s value into the parts if it is the first `"name"` or
    /// `"columns"`; skip it otherwise.
    fn member_or_skip(&mut self, r: &mut JsonReader<'_>, key: &str) -> Result<(), JsonError> {
        match key {
            "name" if self.name.is_none() => {
                self.name = Some(match r.value()? {
                    Json::Str(name) => Some(name),
                    _ => None,
                });
            }
            "columns" if self.columns.is_none() => self.columns = Some(stream_columns(r)?),
            _ => {
                r.value()?;
            }
        }
        Ok(())
    }

    fn finish(self) -> Option<Table> {
        let name = self.name.flatten();
        let columns = self.columns??;
        Table::new(name.as_deref().unwrap_or("request-table"), columns).ok()
    }
}

/// `true` when the next value is of `kind`; otherwise reads past it
/// and returns `false`.
fn next_is(r: &mut JsonReader<'_>, kind: ValueKind) -> Result<bool, JsonError> {
    if r.peek_kind()? == kind {
        return Ok(true);
    }
    r.value()?;
    Ok(false)
}

/// Push a valid `item`; an invalid one spoils `items` for good.
fn push_valid<T>(items: &mut Option<Vec<T>>, item: Option<T>) {
    match (items.as_mut(), item) {
        (Some(items), Some(item)) => items.push(item),
        _ => *items = None,
    }
}

fn stream_table(r: &mut JsonReader<'_>) -> Result<Option<Table>, JsonError> {
    if !next_is(r, ValueKind::Object)? {
        return Ok(None);
    }
    let mut parts = TableParts::default();
    r.object(|r, key| parts.member_or_skip(r, key))?;
    Ok(parts.finish())
}

fn stream_tables(r: &mut JsonReader<'_>) -> Result<Option<Vec<Table>>, JsonError> {
    if !next_is(r, ValueKind::Array)? {
        return Ok(None);
    }
    let mut tables = Some(Vec::new());
    r.array(|r| {
        push_valid(&mut tables, stream_table(r)?);
        Ok(())
    })?;
    Ok(tables)
}

fn stream_columns(r: &mut JsonReader<'_>) -> Result<Option<Vec<Column>>, JsonError> {
    if !next_is(r, ValueKind::Array)? {
        return Ok(None);
    }
    let mut columns = Some(Vec::new());
    // Unescaped text of a cell that held escapes, reused across cells.
    let mut escaped = String::new();
    r.array(|r| {
        push_valid(&mut columns, stream_column(r, &mut escaped)?);
        Ok(())
    })?;
    Ok(columns)
}

fn stream_column(
    r: &mut JsonReader<'_>,
    escaped: &mut String,
) -> Result<Option<Column>, JsonError> {
    if !next_is(r, ValueKind::Object)? {
        return Ok(None);
    }
    let mut header = None;
    let mut values = None;
    r.object(|r, key| {
        match key {
            "header" if header.is_none() => header = Some(r.value()?),
            "values" if values.is_none() => values = Some(stream_values(r, escaped)?),
            _ => {
                r.value()?;
            }
        }
        Ok(())
    })?;
    Ok(match (header, values) {
        (Some(Json::Str(header)), Some(Some(values))) => Some(Column::new(header, values)),
        _ => None,
    })
}

/// Type each cell as [`table_from_json`] does: `null` is the empty
/// cell, a string goes through [`Value::infer`], anything else makes
/// the column invalid.
fn stream_values(
    r: &mut JsonReader<'_>,
    escaped: &mut String,
) -> Result<Option<Vec<Value>>, JsonError> {
    if !next_is(r, ValueKind::Array)? {
        return Ok(None);
    }
    let mut values = Some(Vec::new());
    r.array(|r| {
        let cell = match r.peek_kind()? {
            ValueKind::Str => Some(Value::infer(r.str(escaped)?)),
            ValueKind::Null => {
                r.value()?;
                Some(Value::Null)
            }
            _ => {
                r.value()?;
                None
            }
        };
        push_valid(&mut values, cell);
        Ok(())
    })?;
    Ok(values)
}

/// The `POST /annotate` response body: byte-identical to
/// `outcome_to_json(outcome, ontology).to_string()`, written straight
/// into one `String`.
#[must_use]
pub fn encode_outcome(outcome: &AnnotationOutcome, ontology: &Ontology) -> String {
    let mut out = String::new();
    write_outcome(&mut out, outcome, ontology).expect("writing into a String cannot fail");
    out
}

/// The `POST /annotate_batch` response body, `{"outcomes":[…]}`:
/// byte-identical to the same object built around
/// [`outcome_to_json`] and printed.
#[must_use]
pub fn encode_outcomes(outcomes: &[AnnotationOutcome], ontology: &Ontology) -> String {
    let mut out = String::from("{\"outcomes\":[");
    for (i, outcome) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_outcome(&mut out, outcome, ontology).expect("writing into a String cannot fail");
    }
    out.push_str("]}");
    out
}

fn write_outcome(
    out: &mut String,
    outcome: &AnnotationOutcome,
    ontology: &Ontology,
) -> fmt::Result {
    out.push_str("{\"columns\":[");
    for (i, col) in outcome.annotation.columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_column(out, col, ontology)?;
    }
    write!(
        out,
        "],\"degraded\":{},\"degradation\":",
        outcome.degraded()
    )?;
    write_report(out, &outcome.degradation)?;
    out.push('}');
    Ok(())
}

fn write_column(out: &mut String, col: &ColumnAnnotation, ontology: &Ontology) -> fmt::Result {
    write!(out, "{{\"col_idx\":{},\"predicted\":", col.col_idx)?;
    if col.abstained() {
        out.push_str("null");
    } else {
        jsonshim::write_string(out, ontology.name(col.predicted))?;
    }
    out.push_str(",\"confidence\":");
    jsonshim::write_float(out, col.confidence)?;
    write!(out, ",\"abstained\":{},\"top_k\":", col.abstained())?;
    write_candidates(out, &col.top_k, ontology)?;
    out.push_str(",\"steps_run\":[");
    for (i, step) in col.steps_run.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        jsonshim::write_string(out, step.name())?;
    }
    out.push_str("],\"step_scores\":[");
    for (i, scores) in col.step_scores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_candidates(out, &scores.candidates, ontology)?;
    }
    out.push_str("]}");
    Ok(())
}

fn write_candidates(
    out: &mut String,
    candidates: &[sigmatyper::Candidate],
    ontology: &Ontology,
) -> fmt::Result {
    out.push('[');
    for (i, c) in candidates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"type\":");
        jsonshim::write_string(out, ontology.name(c.ty))?;
        out.push_str(",\"confidence\":");
        jsonshim::write_float(out, c.confidence)?;
        out.push('}');
    }
    out.push(']');
    Ok(())
}

fn write_report(out: &mut String, report: &DegradationReport) -> fmt::Result {
    out.push_str("{\"policy\":");
    jsonshim::write_string(out, policy_label(report.policy))?;
    out.push_str(",\"budget_nanos\":");
    write_opt_u64(out, report.budget_nanos)?;
    write!(out, ",\"spent_nanos\":{}", report.spent_nanos)?;
    out.push_str(",\"remaining_nanos\":");
    write_opt_u64(out, report.remaining_nanos)?;
    write!(
        out,
        ",\"delta_reused\":{},\"skipped\":[",
        report.delta_reused
    )?;
    for (i, s) in report.skipped.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"step\":");
        jsonshim::write_string(out, &s.name)?;
        out.push_str(",\"reason\":");
        jsonshim::write_string(out, skip_reason_label(s.reason))?;
        write!(out, ",\"pending\":{},\"ran\":{}}}", s.pending, s.ran)?;
    }
    out.push_str("]}");
    Ok(())
}

fn write_opt_u64(out: &mut String, n: Option<u64>) -> fmt::Result {
    match n {
        Some(n) => write!(out, "{n}"),
        None => {
            out.push_str("null");
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_decodes_and_rejects_precisely() {
        let doc = r#"{"name":"t","columns":[
            {"header":"email","values":["a@x.com",null,"b@y.org"]},
            {"header":"city","values":["nyc","",null]}
        ]}"#;
        let table = table_from_json(&Json::parse(doc).unwrap()).unwrap();
        assert_eq!(table.n_cols(), 2);
        assert_eq!(table.headers(), vec!["email", "city"]);
        assert_eq!(table.n_rows(), 3);

        // Ragged columns are refused by the core table constructor and
        // surface as a 400, not a panic.
        let ragged = r#"{"columns":[
            {"header":"a","values":["x"]},
            {"header":"b","values":[]}
        ]}"#;
        let err = table_from_json(&Json::parse(ragged).unwrap()).unwrap_err();
        assert!(err.contains("invalid table"), "{err}");

        for (doc, needle) in [
            (r#"{"name":"t"}"#, "columns"),
            (r#"{"columns":[{"values":[]}]}"#, "header"),
            (r#"{"columns":[{"header":"h"}]}"#, "values"),
            (
                r#"{"columns":[{"header":"h","values":[1]}]}"#,
                "string or null",
            ),
        ] {
            let err = table_from_json(&Json::parse(doc).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{doc} -> {err}");
        }
    }

    /// Decoding types each cell straight from the parsed string; the
    /// result must equal `Column::from_raw` over the same cells, with
    /// `null` as the empty cell.
    #[test]
    fn decoded_cells_type_like_from_raw() {
        let doc = r#"{"name":"t","columns":[
            {"header":"mixed","values":[null,"","  x ","NA","00156","1e3",
                "42","-7.5","TRUE","2021-03-04","say \"hi\"\n","tab\there",
                "\u00e9t\u00e9","Größe","名前","\ud83d\ude00"]},
            {"header":"Ünïcode \"h\"","values":["a","b","c","d","e","f","g","h",
                "i","j","k","l","m","n","o","p"]}
        ]}"#;
        let table = table_from_json(&Json::parse(doc).unwrap()).unwrap();
        let raw = [
            "",
            "",
            "  x ",
            "NA",
            "00156",
            "1e3",
            "42",
            "-7.5",
            "TRUE",
            "2021-03-04",
            "say \"hi\"\n",
            "tab\there",
            "été",
            "Größe",
            "名前",
            "\u{1F600}",
        ];
        let letters: Vec<String> = ('a'..='p').map(String::from).collect();
        let expected = Table::new(
            "t",
            vec![
                Column::from_raw("mixed", &raw),
                Column::from_raw("Ünïcode \"h\"", &letters),
            ],
        )
        .unwrap();
        assert_eq!(table, expected);
    }

    #[test]
    fn options_decode_with_lossless_budget() {
        assert_eq!(options_from_json(None).unwrap(), RequestOptions::default());
        let doc = format!(
            r#"{{"budget_nanos":{},"policy":"drop_tail","bypass_cache":true,"telemetry":"minimal","embedding_backend":"blocked_simd","delta_sensitivity":0.125}}"#,
            u64::MAX
        );
        let options = options_from_json(Some(&Json::parse(&doc).unwrap())).unwrap();
        assert_eq!(options.budget_nanos, Some(u64::MAX));
        assert_eq!(options.policy, DegradationPolicy::DropTailSteps);
        assert!(options.bypass_cache);
        assert_eq!(options.telemetry, TelemetryVerbosity::Minimal);
        assert_eq!(
            options.embedding_backend,
            Some(EmbeddingBackendKind::BlockedSimd)
        );
        assert_eq!(options.delta_sensitivity, Some(0.125));

        let bad = Json::parse(r#"{"policy":"fastest"}"#).unwrap();
        assert!(options_from_json(Some(&bad))
            .unwrap_err()
            .contains("fastest"));
        let frac = Json::parse(r#"{"budget_nanos":1.5}"#).unwrap();
        assert!(options_from_json(Some(&frac)).is_err());
        for doc in [
            r#"{"delta_sensitivity":"high"}"#,
            r#"{"delta_sensitivity":-0.1}"#,
        ] {
            let err = options_from_json(Some(&Json::parse(doc).unwrap())).unwrap_err();
            assert!(err.contains("delta_sensitivity"), "{doc} -> {err}");
        }
        // A `null` field means absent, for every field.
        for field in [
            "budget_nanos",
            "policy",
            "bypass_cache",
            "telemetry",
            "embedding_backend",
            "delta_sensitivity",
        ] {
            let doc = Json::parse(&format!(r#"{{"{field}":null}}"#)).unwrap();
            assert_eq!(
                options_from_json(Some(&doc)),
                Ok(RequestOptions::default()),
                "{field}: null"
            );
        }
        assert_eq!(
            options_from_json(Some(&Json::Null)),
            Ok(RequestOptions::default())
        );
    }

    /// An unknown backend name is a typed parse error surfaced as the
    /// 400 body — it names the rejected value and every valid name,
    /// and the server never panics on it.
    #[test]
    fn unknown_embedding_backend_is_a_listing_error() {
        for kind in EmbeddingBackendKind::ALL {
            let doc = format!(r#"{{"embedding_backend":"{}"}}"#, kind.label());
            let options = options_from_json(Some(&Json::parse(&doc).unwrap())).unwrap();
            assert_eq!(options.embedding_backend, Some(kind));
        }
        let bad = Json::parse(r#"{"embedding_backend":"warp_drive"}"#).unwrap();
        let err = options_from_json(Some(&bad)).unwrap_err();
        assert!(err.contains("warp_drive"), "{err}");
        for kind in EmbeddingBackendKind::ALL {
            assert!(err.contains(kind.label()), "{err}");
        }
        let not_a_string = Json::parse(r#"{"embedding_backend":7}"#).unwrap();
        assert!(options_from_json(Some(&not_a_string)).is_err());
    }
}
