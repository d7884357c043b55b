//! Load-lab invariants: seeded replays are deterministic end to end,
//! the HTTP driver agrees with the server's accounting, and — the
//! tentpole claim — per-tenant traffic shaping bounds how much a
//! zipfian heavy hitter can hurt equal-weight light tenants, without
//! changing any un-degraded annotation and without costing aggregate
//! throughput.

use sigmatyper::service::TrafficLane;
use sigmatyper::{train_global, GlobalModel, TrainingConfig};
use std::sync::Arc;
use std::time::Duration;
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_loadlab::{
    generate_workload, run_http, run_in_process, TargetConfig, Workload, WorkloadConfig,
};
use tu_ontology::builtin_ontology;
use tu_server::{AnnotationServer, ServerConfig};

fn demo_global(seed: u64) -> Arc<GlobalModel> {
    let ontology = builtin_ontology();
    let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(seed, 16));
    Arc::new(train_global(
        builtin_ontology(),
        &corpus,
        &TrainingConfig::fast(),
    ))
}

#[test]
fn seeded_replay_is_deterministic_end_to_end() {
    let global = demo_global(51);
    let ontology = builtin_ontology();
    let workload = generate_workload(&ontology, &WorkloadConfig::smoke(11));
    assert_eq!(
        workload.digest(),
        generate_workload(&ontology, &WorkloadConfig::smoke(11)).digest(),
        "workload generation must replay bit-identically"
    );

    // Unbudgeted, unsaturated target: nothing degrades, nothing sheds,
    // so the timing-free digest must be identical across replays even
    // though thread interleaving differs.
    let target = TargetConfig::default();
    let a = run_in_process(Arc::clone(&global), &workload, &target);
    let b = run_in_process(global, &workload, &target);
    a.validate().expect("report a accounts every op");
    b.validate().expect("report b accounts every op");
    let total = a.bucket(None, None);
    assert_eq!(total.submitted, workload.ops.len() as u64);
    assert_eq!(
        total.served, total.submitted,
        "unsaturated target serves all"
    );
    assert_eq!(total.degraded, 0, "unbudgeted target degrades nothing");
    assert_eq!(
        a.deterministic_digest(),
        b.deterministic_digest(),
        "same workload, same target, same results"
    );
}

#[test]
fn http_driver_replays_against_a_live_server() {
    let global = demo_global(52);
    let ontology = builtin_ontology();
    let workload = generate_workload(&ontology, &WorkloadConfig::smoke(12));
    let typer = sigmatyper::SigmaTyper::builder(global).build();
    let server = AnnotationServer::start(
        "127.0.0.1:0",
        typer,
        &ServerConfig {
            workers: 2,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .expect("start server");

    let a = run_http(server.local_addr(), &workload, 3);
    let b = run_http(server.local_addr(), &workload, 3);
    a.validate().expect("http report accounts every op");
    b.validate().expect("http report accounts every op");
    let total = a.bucket(None, None);
    assert_eq!(total.submitted, workload.ops.len() as u64);
    assert_eq!(
        total.served, total.submitted,
        "unsaturated server serves all"
    );
    assert_eq!(
        a.deterministic_digest(),
        b.deterministic_digest(),
        "wire replays of one workload must agree (cold or warm cache)"
    );
    server.shutdown().expect("shutdown");
}

/// Keep only `tenant`'s operations, re-numbered — the isolated
/// baseline: the same tenant roster (so fairness quanta are
/// identical), with nobody else on the wire.
fn isolate(workload: &Workload, tenant: usize) -> Workload {
    let mut ops: Vec<_> = workload
        .ops
        .iter()
        .filter(|op| op.tenant == tenant)
        .cloned()
        .collect();
    for (i, op) in ops.iter_mut().enumerate() {
        op.id = i;
    }
    Workload {
        tenants: workload.tenants.clone(),
        ops,
    }
}

/// The tentpole invariant, per ISSUE acceptance criteria: under
/// zipfian skew (tenant-0 sends ~9–16x the traffic of tenants 2/3),
/// with lane budgets sized so the heavy tenant alone overruns its
/// entitlement:
///
/// 1. every light tenant's degradation+shed impact stays within 2x its
///    *isolated* baseline (same stack, same roster, that tenant alone),
/// 2. the heavy tenant is the one that degrades,
/// 3. aggregate throughput (operations served) stays within 10% of the
///    unshapen run under the same budgets,
/// 4. every operation un-degraded in both the shaped and unshapen runs
///    produced the bit-identical annotation — shaping changes
///    scheduling and shedding, never results.
#[test]
fn shaping_bounds_light_tenant_impact_under_zipf_flood() {
    let global = demo_global(53);
    let ontology = builtin_ontology();
    let workload = generate_workload(
        &ontology,
        &WorkloadConfig {
            seed: 13,
            operations: 72,
            tenants: 4,
            zipf_s: 2.0,
            ..WorkloadConfig::default()
        },
    );
    let heavy = 0usize;
    let lights = [2usize, 3usize];
    let heavy_ops = workload.ops.iter().filter(|o| o.tenant == heavy).count();
    for light in lights {
        let light_ops = workload.ops.iter().filter(|o| o.tenant == light).count();
        assert!(
            heavy_ops >= 8 * light_ops.max(1),
            "zipf premise: tenant-0 must flood ({heavy_ops} vs {light_ops})"
        );
    }

    // Calibrate: measure what the whole mix spends per lane with no
    // budgets, then size each lane's window at 60% of that — tight
    // enough that the heavy tenant (≳70% of spend, 50% burst
    // entitlement of its lane) must overrun, loose enough that a light
    // tenant (≲10% of spend) fits comfortably inside its entitlement.
    // Every replay runs without a step cache: a cache shared across
    // tenants makes the heavy tenant's repeated tables nearly free, and
    // spend then stops following the tenant mix this scenario is about.
    // Spend is wall-clock, so one replay's split between tenants moves
    // with how their tables happened to overlap on the workers; the
    // calibration averages three replays.
    let unbudgeted = TargetConfig {
        cache_capacity: 0,
        ..TargetConfig::default()
    };
    const CALIBRATION_REPLAYS: u64 = 3;
    let calibrations: Vec<_> = (0..CALIBRATION_REPLAYS)
        .map(|_| run_in_process(Arc::clone(&global), &workload, &unbudgeted))
        .collect();
    for calibration in &calibrations {
        calibration.validate().expect("calibration run accounts");
    }
    let calibrated = |tenant: Option<usize>, lane| {
        calibrations
            .iter()
            .map(|c| c.bucket(tenant, Some(lane)).spent_nanos)
            .sum::<u64>()
            / CALIBRATION_REPLAYS
    };
    let lane_budget = |lane| {
        let spent = calibrated(None, lane);
        assert!(spent > 0, "calibration must measure real {lane:?} spend");
        Some(spent * 6 / 10)
    };
    // The premise, on the calibration spend: in each lane the heavy
    // tenant spends more than its quantum (the lane window split by
    // weight) and each light tenant less.
    let total_weight: f64 = workload.tenants.iter().map(|(_, w)| w).sum();
    for lane in [TrafficLane::Interactive, TrafficLane::Crawl] {
        let window = lane_budget(lane).expect("budgeted lane") as f64;
        let quantum = |t: usize| window * workload.tenants[t].1 / total_weight;
        let spent = |t: usize| calibrated(Some(t), lane) as f64;
        let lane_spent = calibrated(None, lane) as f64;
        println!(
            "calibration {lane:?} (share of lane spend / quantum): {:?}",
            (0..workload.tenants.len())
                .map(|t| format!(
                    "tenant-{t} {:.3}/{:.3}",
                    spent(t) / lane_spent,
                    quantum(t) / lane_spent
                ))
                .collect::<Vec<_>>()
        );
        assert!(
            spent(heavy) > quantum(heavy),
            "premise: tenant-{heavy} must overrun its {lane:?} quantum \
             ({:.0} vs {:.0} ns)",
            spent(heavy),
            quantum(heavy)
        );
        for light in lights {
            assert!(
                spent(light) < quantum(light),
                "premise: tenant-{light} must fit its {lane:?} quantum \
                 ({:.0} vs {:.0} ns)",
                spent(light),
                quantum(light)
            );
        }
    }
    // One hour-long window: the whole replay happens inside a single
    // budget window, so standings depend on spend, not on wall-clock
    // races with the refill timer.
    let budgeted = |shaping| TargetConfig {
        interactive_budget_nanos: lane_budget(TrafficLane::Interactive),
        crawl_budget_nanos: lane_budget(TrafficLane::Crawl),
        budget_window: Duration::from_secs(3600),
        shaping,
        cache_capacity: 0,
        ..TargetConfig::default()
    };

    let shaped = run_in_process(Arc::clone(&global), &workload, &budgeted(true));
    let unshapen = run_in_process(Arc::clone(&global), &workload, &budgeted(false));
    shaped.validate().expect("shaped run accounts");
    unshapen.validate().expect("unshapen run accounts");

    // (1) Light tenants: impact bounded by 2x their isolated baseline
    // (plus a small absolute floor for zero baselines — one op in 5
    // degrading on measurement noise must not fail the build).
    for light in lights {
        let isolated_run = run_in_process(
            Arc::clone(&global),
            &isolate(&workload, light),
            &budgeted(true),
        );
        isolated_run.validate().expect("isolated run accounts");
        let isolated = isolated_run.bucket(Some(light), None).impact_rate();
        let mixed = shaped.bucket(Some(light), None).impact_rate();
        assert!(
            mixed <= (2.0 * isolated).max(0.21),
            "tenant-{light}: shaped impact {mixed:.3} exceeds 2x isolated \
             baseline {isolated:.3}"
        );
    }

    // (2) The heavy tenant is the one paying: it overran its
    // entitlement several times over, so a substantial fraction of its
    // traffic must degrade — and it must degrade harder than any light
    // tenant.
    let heavy_impact = shaped.bucket(Some(heavy), None).impact_rate();
    assert!(
        heavy_impact >= 0.25,
        "the flooding tenant must degrade under shaping, got {heavy_impact:.3}"
    );
    for light in lights {
        let light_impact = shaped.bucket(Some(light), None).impact_rate();
        assert!(
            heavy_impact > light_impact,
            "heavy tenant ({heavy_impact:.3}) must degrade before light \
             tenant-{light} ({light_impact:.3})"
        );
    }

    // (3) Shaping redistributes degradation; it must not shed or stall
    // aggregate service. Closed-loop clients never saturate the queue
    // here, so served counts must match within 10%.
    let shaped_served = shaped.bucket(None, None).served as f64;
    let unshapen_served = unshapen.bucket(None, None).served as f64;
    assert!(
        (shaped_served - unshapen_served).abs() <= 0.10 * unshapen_served,
        "aggregate throughput moved more than 10%: shaped {shaped_served}, \
         unshapen {unshapen_served}"
    );

    // (4) Bit-identity: any op un-degraded in both runs has the same
    // result digest — shaping never changes what an annotation says.
    let mut compared = 0;
    for (s, u) in shaped.results.iter().zip(&unshapen.results) {
        if let (Some(sd), Some(ud)) = (s.digest, u.digest) {
            assert_eq!(
                sd, ud,
                "op {}: un-degraded annotation differs between shaped and \
                 unshapen runs",
                s.op
            );
            compared += 1;
        }
    }
    assert!(
        compared > 0,
        "bit-identity check must compare at least one un-degraded op"
    );
}
