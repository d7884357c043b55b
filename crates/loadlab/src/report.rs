//! Structured load-lab results.
//!
//! A [`LoadReport`] is the flat per-operation record of a replay plus
//! the roster it ran against; every aggregate (per-lane, per-tenant,
//! percentile latency) is derived on demand so the raw data stays
//! inspectable. [`validate`](LoadReport::validate) enforces the
//! accounting contract — every submitted operation lands in exactly
//! one of served, shed or panicked — and
//! [`deterministic_digest`](LoadReport::deterministic_digest) is the
//! timing-free fingerprint replays are compared by.

use jsonshim::Json;
use sigmatyper::cache::CacheStats;
use sigmatyper::service::TrafficLane;
use sigmatyper::StableHasher;

/// The outcome of one replayed operation.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// [`LabOp::id`](crate::workload::LabOp::id) this result belongs to.
    pub op: usize,
    /// Tenant index of the operation.
    pub tenant: usize,
    /// Lane the operation targeted.
    pub lane: TrafficLane,
    /// Admitted and annotated.
    pub served: bool,
    /// Admitted, but a step panicked while serving it: the worker
    /// pool's job returned no answer in process, or the server
    /// answered `500` over the wire. An operation neither served nor
    /// panicked was shed at admission.
    pub panicked: bool,
    /// Did the annotation degrade (steps skipped or truncated)?
    pub degraded: bool,
    /// Per-column step evaluations reused from the base crawl.
    pub delta_reused: u64,
    /// Step work charged by this operation.
    pub spent_nanos: u64,
    /// Client-observed wall clock, submission to reply (or to shed).
    pub latency_nanos: u64,
    /// Result fingerprint (predicted types + confidences), present
    /// exactly when the operation was served **without** degradation —
    /// the bit-identity comparison surface between shaped and unshapen
    /// runs.
    pub digest: Option<[u64; 2]>,
}

impl OpResult {
    /// The result of `op` when it was not served: shed at admission,
    /// or, with `panicked`, admitted and panicked.
    pub(crate) fn unserved(
        op: &crate::workload::LabOp,
        panicked: bool,
        latency_nanos: u64,
    ) -> OpResult {
        OpResult {
            op: op.id,
            tenant: op.tenant,
            lane: op.lane,
            served: false,
            panicked,
            degraded: false,
            delta_reused: 0,
            spent_nanos: 0,
            latency_nanos,
            digest: None,
        }
    }
}

/// Aggregated counters for one slice of a report (a lane, a tenant, a
/// tenant×lane cell, or everything).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BucketStats {
    /// Operations submitted into this slice.
    pub submitted: u64,
    /// Operations annotated.
    pub served: u64,
    /// Operations refused at admission.
    pub shed: u64,
    /// Operations admitted whose run panicked.
    pub panicked: u64,
    /// Served operations that degraded.
    pub degraded: u64,
    /// Summed delta reuse across served operations.
    pub delta_reused: u64,
    /// Summed charged step work.
    pub spent_nanos: u64,
    /// Median served latency (0 when nothing was served).
    pub p50_latency_nanos: u64,
    /// 99th-percentile served latency (0 when nothing was served).
    pub p99_latency_nanos: u64,
}

impl BucketStats {
    /// `shed / submitted` (0 on an empty slice): admission sheds only.
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        rate(self.shed, self.submitted)
    }

    /// `degraded / submitted` (0 on an empty slice). Degradation is
    /// measured against *submitted* so that shedding cannot launder a
    /// slice's service quality.
    #[must_use]
    pub fn degradation_rate(&self) -> f64 {
        rate(self.degraded, self.submitted)
    }

    /// `degraded + shed + panicked` over submitted: the fraction of
    /// this slice's traffic that did not get a full-fidelity answer.
    #[must_use]
    pub fn impact_rate(&self) -> f64 {
        rate(self.degraded + self.shed + self.panicked, self.submitted)
    }
}

fn rate(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The result of one workload replay.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Tenant names, indexed by [`OpResult::tenant`].
    pub tenants: Vec<String>,
    /// One record per submitted operation, in operation order.
    pub results: Vec<OpResult>,
    /// Wall clock of the whole replay.
    pub wall_nanos: u64,
    /// Step-cache stats at the end of the run, when the target had a
    /// cache.
    pub cache: Option<CacheStats>,
}

impl LoadReport {
    /// Aggregate the slice selected by `tenant` and/or `lane`
    /// (`None` = no filter on that axis).
    #[must_use]
    pub fn bucket(&self, tenant: Option<usize>, lane: Option<TrafficLane>) -> BucketStats {
        let mut stats = BucketStats::default();
        let mut latencies: Vec<u64> = Vec::new();
        for r in &self.results {
            if tenant.is_some_and(|t| t != r.tenant) || lane.is_some_and(|l| l != r.lane) {
                continue;
            }
            stats.submitted += 1;
            if r.served {
                stats.served += 1;
                stats.degraded += u64::from(r.degraded);
                stats.delta_reused += r.delta_reused;
                stats.spent_nanos += r.spent_nanos;
                latencies.push(r.latency_nanos);
            } else if r.panicked {
                stats.panicked += 1;
            } else {
                stats.shed += 1;
            }
        }
        latencies.sort_unstable();
        stats.p50_latency_nanos = percentile(&latencies, 0.50);
        stats.p99_latency_nanos = percentile(&latencies, 0.99);
        stats
    }

    /// The accounting contract: operation ids are unique and in order,
    /// every result is exactly one of served, shed or panicked, and a
    /// result fingerprint is present exactly on un-degraded served
    /// operations.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (i, r) in self.results.iter().enumerate() {
            if r.op != i {
                return Err(format!("result {i} carries op id {} (out of order)", r.op));
            }
            if r.tenant >= self.tenants.len() {
                return Err(format!("result {i} names unknown tenant {}", r.tenant));
            }
            if r.served && r.panicked {
                return Err(format!("op {i} is marked both served and panicked"));
            }
            if !r.served && (r.degraded || r.digest.is_some() || r.spent_nanos != 0) {
                return Err(format!("unserved op {i} carries served-only fields"));
            }
            if r.served && r.digest.is_some() == r.degraded {
                return Err(format!(
                    "op {i}: digest must be present exactly when un-degraded \
                     (served, degraded={}, digest={})",
                    r.degraded,
                    r.digest.is_some()
                ));
            }
        }
        Ok(())
    }

    /// Timing-free fingerprint of the replay: per operation, whether
    /// it was served, shed or panicked, whether it degraded, and its
    /// result digest. Latency, spend, and cache stats are deliberately
    /// excluded, so two replays of one workload on an unbudgeted,
    /// unsaturated target digest identically. On a budgeted target,
    /// degradation depends on measured step cost and the digest will
    /// legitimately vary.
    #[must_use]
    pub fn deterministic_digest(&self) -> [u64; 2] {
        let mut h = StableHasher::new();
        h.write_usize(self.results.len());
        for r in &self.results {
            h.write_usize(r.op);
            h.write_usize(r.tenant);
            h.write_str(r.lane.label());
            // 1 served, 0 shed, 2 panicked: served and shed ops keep
            // their bytes, so digests of panic-free replays stay
            // comparable with ones recorded earlier.
            h.write_u8(if r.panicked { 2 } else { u8::from(r.served) });
            h.write_u8(u8::from(r.degraded));
            match r.digest {
                None => h.write_u8(0),
                Some([a, b]) => {
                    h.write_u8(1);
                    h.write_u64(a);
                    h.write_u64(b);
                }
            }
        }
        h.finish128()
    }

    /// The structured report: totals, per-lane and per-tenant buckets
    /// (each with both a lane split and a rollup), cache hit rate, and
    /// wall clock.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let lanes = Json::object(
            TrafficLane::ALL
                .iter()
                .map(|&lane| (lane.label(), bucket_json(&self.bucket(None, Some(lane)))))
                .collect(),
        );
        let tenants = Json::object(
            self.tenants
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let per_lane = TrafficLane::ALL
                        .iter()
                        .map(|&lane| (lane.label(), bucket_json(&self.bucket(Some(i), Some(lane)))))
                        .collect();
                    (
                        name.as_str(),
                        Json::object(vec![
                            ("total", bucket_json(&self.bucket(Some(i), None))),
                            ("lanes", Json::object(per_lane)),
                        ]),
                    )
                })
                .collect(),
        );
        let cache = match &self.cache {
            None => Json::Null,
            Some(stats) => Json::object(vec![
                ("hits", Json::from(stats.hits)),
                ("misses", Json::from(stats.misses)),
                (
                    "hit_rate",
                    Json::from(rate(stats.hits, stats.hits + stats.misses)),
                ),
            ]),
        };
        Json::object(vec![
            ("operations", Json::from(self.results.len())),
            ("wall_nanos", Json::from(self.wall_nanos)),
            ("total", bucket_json(&self.bucket(None, None))),
            ("lanes", lanes),
            ("tenants", tenants),
            ("cache", cache),
        ])
    }
}

fn bucket_json(b: &BucketStats) -> Json {
    Json::object(vec![
        ("submitted", Json::from(b.submitted)),
        ("served", Json::from(b.served)),
        ("shed", Json::from(b.shed)),
        ("panicked", Json::from(b.panicked)),
        ("degraded", Json::from(b.degraded)),
        ("delta_reused", Json::from(b.delta_reused)),
        ("spent_nanos", Json::from(b.spent_nanos)),
        ("shed_rate", Json::from(b.shed_rate())),
        ("degradation_rate", Json::from(b.degradation_rate())),
        ("p50_latency_nanos", Json::from(b.p50_latency_nanos)),
        ("p99_latency_nanos", Json::from(b.p99_latency_nanos)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(op: usize, tenant: usize, lane: TrafficLane, latency: u64) -> OpResult {
        OpResult {
            op,
            tenant,
            lane,
            served: true,
            panicked: false,
            degraded: false,
            delta_reused: 0,
            spent_nanos: 10,
            latency_nanos: latency,
            digest: Some([1, 2]),
        }
    }

    fn shed(op: usize, tenant: usize, lane: TrafficLane) -> OpResult {
        OpResult {
            op,
            tenant,
            lane,
            served: false,
            panicked: false,
            degraded: false,
            delta_reused: 0,
            spent_nanos: 0,
            latency_nanos: 5,
            digest: None,
        }
    }

    fn panicked(op: usize, tenant: usize, lane: TrafficLane) -> OpResult {
        OpResult {
            panicked: true,
            ..shed(op, tenant, lane)
        }
    }

    fn report(results: Vec<OpResult>) -> LoadReport {
        LoadReport {
            tenants: vec!["a".into(), "b".into()],
            results,
            wall_nanos: 100,
            cache: None,
        }
    }

    #[test]
    fn buckets_slice_by_tenant_and_lane_and_rates_add_up() {
        let r = report(vec![
            served(0, 0, TrafficLane::Interactive, 100),
            served(1, 0, TrafficLane::Crawl, 300),
            shed(2, 1, TrafficLane::Crawl),
            served(3, 1, TrafficLane::Interactive, 200),
        ]);
        r.validate().expect("valid report");
        let total = r.bucket(None, None);
        assert_eq!((total.submitted, total.served, total.shed), (4, 3, 1));
        assert_eq!(total.p50_latency_nanos, 200);
        assert_eq!(total.p99_latency_nanos, 300);
        let crawl = r.bucket(None, Some(TrafficLane::Crawl));
        assert_eq!((crawl.submitted, crawl.shed), (2, 1));
        assert_eq!(crawl.shed_rate(), 0.5);
        let b_interactive = r.bucket(Some(1), Some(TrafficLane::Interactive));
        assert_eq!(b_interactive.submitted, 1);
        assert_eq!(b_interactive.shed_rate(), 0.0);
        let json = r.to_json().to_string();
        assert!(json.contains("\"tenants\"") && json.contains("\"lanes\""));
    }

    #[test]
    fn validate_rejects_broken_accounting() {
        let mut bad_digest = served(0, 0, TrafficLane::Interactive, 1);
        bad_digest.degraded = true; // digest must be absent when degraded
        assert!(report(vec![bad_digest]).validate().is_err());

        let mut shed_with_spend = shed(0, 0, TrafficLane::Crawl);
        shed_with_spend.spent_nanos = 7;
        assert!(report(vec![shed_with_spend]).validate().is_err());

        let out_of_order = vec![served(1, 0, TrafficLane::Interactive, 1)];
        assert!(report(out_of_order).validate().is_err());
    }

    #[test]
    fn panics_are_counted_apart_from_sheds() {
        let r = report(vec![
            served(0, 0, TrafficLane::Interactive, 100),
            shed(1, 0, TrafficLane::Crawl),
            panicked(2, 1, TrafficLane::Crawl),
            served(3, 1, TrafficLane::Crawl, 200),
        ]);
        r.validate().expect("a panicked op is valid accounting");
        let total = r.bucket(None, None);
        assert_eq!(
            (total.submitted, total.served, total.shed, total.panicked),
            (4, 2, 1, 1)
        );
        assert_eq!(
            total.shed_rate(),
            0.25,
            "sheds count admission refusals only"
        );
        assert_eq!(total.impact_rate(), 0.5, "a panic is still an impacted op");
        let b = r.bucket(Some(1), None);
        assert_eq!(
            (b.shed, b.panicked, b.shed_rate(), b.impact_rate()),
            (0, 1, 0.0, 0.5)
        );
        let json = r.to_json();
        let count = |field: &str| {
            json.get("total")
                .and_then(|t| t.get(field))
                .and_then(Json::as_u64)
        };
        assert_eq!((count("shed"), count("panicked")), (Some(1), Some(1)));

        // A panic digests apart from a shed of the same operation.
        let mut as_shed = r.clone();
        as_shed.results[2].panicked = false;
        as_shed.validate().expect("valid report");
        assert_ne!(r.deterministic_digest(), as_shed.deterministic_digest());

        // Served and panicked at once is broken accounting, and so is a
        // panicked op that carries served-only fields.
        let mut both = served(0, 0, TrafficLane::Interactive, 1);
        both.panicked = true;
        assert!(report(vec![both]).validate().is_err());
        let mut spent = panicked(0, 0, TrafficLane::Crawl);
        spent.spent_nanos = 3;
        assert!(report(vec![spent]).validate().is_err());
    }

    /// A panic-free replay hashes the same byte sequence it hashed
    /// before panics were told apart from sheds, so digests recorded
    /// earlier stay comparable. Replays that sequence by hand.
    #[test]
    fn panic_free_digest_keeps_its_write_sequence() {
        let r = report(vec![
            served(0, 0, TrafficLane::Interactive, 100),
            shed(1, 1, TrafficLane::Crawl),
        ]);
        let mut h = StableHasher::new();
        h.write_usize(2);
        for (op, tenant, lane, served, digest) in [
            (0, 0, TrafficLane::Interactive, 1, Some([1, 2])),
            (1, 1, TrafficLane::Crawl, 0, None),
        ] {
            h.write_usize(op);
            h.write_usize(tenant);
            h.write_str(lane.label());
            h.write_u8(served);
            h.write_u8(0);
            match digest {
                None => h.write_u8(0),
                Some([a, b]) => {
                    h.write_u8(1);
                    h.write_u64(a);
                    h.write_u64(b);
                }
            }
        }
        assert_eq!(r.deterministic_digest(), h.finish128());
    }

    #[test]
    fn digest_ignores_timing_but_sees_results() {
        let a = report(vec![served(0, 0, TrafficLane::Interactive, 100)]);
        let mut b = a.clone();
        b.results[0].latency_nanos = 999_999;
        b.results[0].spent_nanos = 42;
        b.wall_nanos = 7;
        assert_eq!(a.deterministic_digest(), b.deterministic_digest());
        let mut c = a.clone();
        c.results[0].digest = Some([9, 9]);
        assert_ne!(a.deterministic_digest(), c.deterministic_digest());
    }
}
