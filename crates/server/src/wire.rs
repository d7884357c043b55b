//! JSON wire format of the annotation server.
//!
//! One module owns every encode/decode between HTTP bodies and the
//! core types, so the format is specified in exactly one place:
//!
//! * **Table in**: `{"name": "...", "columns": [{"header": "...",
//!   "values": ["...", ...]}, ...]}` — values are strings (`null`
//!   becomes the empty cell); typing them is the *server's* job.
//! * **Options in** (all fields optional): `{"budget_nanos": u64,
//!   "policy": "strict"|"drop_tail"|"best_effort", "bypass_cache":
//!   bool, "telemetry": "full"|"timings_only"|"minimal",
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

use jsonshim::Json;
use sigmatyper::backend::EmbeddingBackendKind;
use sigmatyper::request::{
    AnnotationOutcome, DegradationPolicy, DegradationReport, RequestOptions, SkipReason,
    TelemetryVerbosity,
};
use sigmatyper::ColumnAnnotation;
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

/// Decode the optional `"options"` object of a request body.
pub fn options_from_json(v: Option<&Json>) -> Result<RequestOptions, String> {
    let mut options = RequestOptions::default();
    let Some(v) = v else { return Ok(options) };
    if v.is_null() {
        return Ok(options);
    }
    if let Some(budget) = v.get("budget_nanos") {
        if !budget.is_null() {
            let nanos = budget
                .as_u64()
                .ok_or("\"budget_nanos\" must be an unsigned integer")?;
            options = options.with_budget_nanos(nanos);
        }
    }
    if let Some(policy) = v.get("policy") {
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
    if let Some(bypass) = v.get("bypass_cache") {
        if bypass
            .as_bool()
            .ok_or("\"bypass_cache\" must be a boolean")?
        {
            options = options.with_cache_bypassed();
        }
    }
    if let Some(telemetry) = v.get("telemetry") {
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
    if let Some(backend) = v.get("embedding_backend") {
        let label = backend
            .as_str()
            .ok_or("\"embedding_backend\" must be a string")?;
        // `parse` is the typed-error path: an unknown name becomes an
        // `UnknownBackendError` listing the valid names, which we
        // surface verbatim as the 400 body — never a panic.
        let kind = EmbeddingBackendKind::parse(label).map_err(|e| e.to_string())?;
        options = options.with_embedding_backend(kind);
    }
    if let Some(sensitivity) = v.get("delta_sensitivity") {
        if !sensitivity.is_null() {
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
