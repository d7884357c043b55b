//! HTTP replay driver: the same workload, over the wire.
//!
//! Replays a [`Workload`] against a live annotation server (any
//! process speaking `tu_server`'s endpoints), tagging each request
//! with its `x-sigma-lane` and `x-sigma-tenant` headers. A 503 is a
//! shed; a 200 is parsed for degradation, spend, and the result
//! fingerprint. Result digests are computed over the wire outcome with
//! timing fields zeroed, so two wire replays of one workload on an
//! unsaturated, unbudgeted server digest identically — but wire
//! digests are *not* comparable to in-process digests, which hash the
//! typed annotation directly.

use crate::report::{LoadReport, OpResult};
use crate::workload::{LabOp, Workload};
use httpshim::HttpClient;
use jsonshim::Json;
use sigmatyper::StableHasher;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tu_table::Table;

/// Encode a table into the server's request wire format.
fn table_json(table: &Table) -> Json {
    let columns: Vec<Json> = table
        .columns()
        .iter()
        .map(|col| {
            let values: Vec<Json> = col.values.iter().map(|v| Json::from(v.render())).collect();
            Json::object(vec![
                ("header", Json::from(col.name.as_str())),
                ("values", Json::Arr(values)),
            ])
        })
        .collect();
    Json::object(vec![
        ("name", Json::from(table.name.as_str())),
        ("columns", Json::Arr(columns)),
    ])
}

fn op_body(op: &LabOp) -> String {
    let mut fields = vec![
        ("table", table_json(&op.table)),
        (
            "options",
            // The in-process driver's options: BestEffort degradation,
            // recrawls pinned to the bit-exact sensitivity-0 path.
            Json::object(vec![
                ("policy", Json::from("best_effort")),
                ("delta_sensitivity", Json::from(0.0)),
            ]),
        ),
    ];
    if let Some(base) = &op.base {
        fields.insert(1, ("base", table_json(base)));
    }
    Json::object(fields).to_string()
}

/// Zero the timing fields of a wire outcome (`degradation.spent_nanos`
/// and `degradation.remaining_nanos`) and hash the rest.
fn wire_digest(outcome: &Json) -> [u64; 2] {
    let mut v = outcome.clone();
    if let Json::Obj(fields) = &mut v {
        for (key, value) in fields.iter_mut() {
            if key == "degradation" {
                if let Json::Obj(report) = value {
                    for (rk, rv) in report.iter_mut() {
                        if rk == "spent_nanos" || rk == "remaining_nanos" {
                            *rv = Json::from(0u64);
                        }
                    }
                }
            }
        }
    }
    let mut h = StableHasher::new();
    h.write_str(&v.to_string());
    h.finish128()
}

fn degradation_field(outcome: &Json, field: &str) -> u64 {
    outcome
        .get("degradation")
        .and_then(|d| d.get(field))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Replay `workload` against the annotation server at `addr` with
/// `clients` closed-loop connections. Panics on transport errors or
/// unexpected statuses — a load-lab run against a dead or misbehaving
/// server is a harness bug, not a data point.
#[must_use]
pub fn run_http(addr: SocketAddr, workload: &Workload, clients: usize) -> LoadReport {
    let results: Mutex<Vec<OpResult>> = Mutex::new(Vec::with_capacity(workload.ops.len()));
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            let results = &results;
            let cursor = &cursor;
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect to annotation server");
                loop {
                    let idx = cursor.fetch_add(1, Ordering::SeqCst);
                    let Some(op) = workload.ops.get(idx) else {
                        break;
                    };
                    let tenant_name = workload.tenants[op.tenant].0.as_str();
                    let headers = [
                        ("x-sigma-lane", op.lane.label()),
                        ("x-sigma-tenant", tenant_name),
                    ];
                    let submitted = Instant::now();
                    let resp = client
                        .post_json("/annotate", &op_body(op), &headers)
                        .expect("annotate request");
                    let latency_nanos = submitted.elapsed().as_nanos() as u64;
                    let result = match resp.status {
                        200 => {
                            let outcome = Json::parse(&resp.body_str()).expect("outcome json");
                            let degraded = outcome
                                .get("degradation")
                                .and_then(|d| d.get("skipped"))
                                .and_then(Json::as_array)
                                .is_some_and(|s| !s.is_empty());
                            OpResult {
                                op: op.id,
                                tenant: op.tenant,
                                lane: op.lane,
                                served: true,
                                degraded,
                                delta_reused: degradation_field(&outcome, "delta_reused"),
                                spent_nanos: degradation_field(&outcome, "spent_nanos"),
                                latency_nanos,
                                digest: (!degraded).then(|| wire_digest(&outcome)),
                            }
                        }
                        503 => OpResult::unserved(op, latency_nanos),
                        status => {
                            panic!("op {idx}: unexpected status {status}: {}", resp.body_str())
                        }
                    };
                    results
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(result);
                }
            });
        }
    });

    let mut results = results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    results.sort_by_key(|r| r.op);
    LoadReport {
        tenants: workload.tenants.iter().map(|(n, _)| n.clone()).collect(),
        results,
        wall_nanos: started.elapsed().as_nanos() as u64,
        cache: None,
    }
}
