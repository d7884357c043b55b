//! Multi-tenant traffic shaping: per-tenant spend accounting with
//! configurable fairness weights and a weighted deficit-style
//! scheduler.
//!
//! The paper's deployment serves **many customers** from one shared
//! engine; nothing in PRs 5–9 stopped a single abusive tenant from
//! draining a whole lane window and starving everyone else. This
//! module adds the demand-side controls:
//!
//! * [`TenantRegistry`] — interns tenant names to cheap [`TenantId`]s
//!   and tracks, per tenant and per [`TrafficLane`], cumulative spend,
//!   serving counters, and a **deficit counter** in the style of
//!   weighted deficit round-robin: every lane window grants each
//!   tenant a quantum proportional to its fairness weight (with a
//!   bounded burst carryover), and every request charge drains it.
//!   These are the serving books: a lane's counts and spend are the
//!   sums over its tenants.
//! * [`TrafficShaper`] — the two [`LaneLedger`]s plus the registry,
//!   consulted by both the server's admission path and the
//!   [`AnnotationService`](crate::service::AnnotationService) batch
//!   scheduler. An **in-quota** tenant (deficit remaining) draws on
//!   the lane window like any request today, bounded by its deficit,
//!   until it has spent its quantum of the current window. Past that,
//!   its remaining (burst) credit is only spent from what the window
//!   holds beyond the quanta other in-quota tenants have not yet spent
//!   in it, so one tenant's burst cannot starve another's share. An
//!   **over-quota** tenant is capped at its weight share of the
//!   lane's *unreserved* remainder — the remainder minus the deficits
//!   still owed to in-quota tenants — so heavy tenants degrade first
//!   while light tenants keep finding their entitlement in the
//!   window. Shedding order under queue pressure follows the same
//!   story: over-quota crawl traffic is refused at a quarter of queue
//!   capacity, in-quota crawl and over-quota interactive at half, and
//!   in-quota interactive only when the queue is genuinely full.
//!
//! Shaping changes **scheduling and shedding, never results**: a step
//! that runs computes exactly what it would have computed unshapen;
//! tighter caps only make degradation (which removes votes, never
//! fabricates) engage earlier for the tenants that earned it.

use crate::request::{AnnotationOutcome, BudgetLedger};
use crate::service::{BoundedQueue, LaneLedger, QueueRejection, TrafficLane};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The tenant name assumed when a request does not identify itself
/// (e.g. no `x-sigma-tenant` header): all anonymous traffic shares one
/// account with weight [`DEFAULT_WEIGHT`].
pub const ANONYMOUS_TENANT: &str = "anonymous";

/// Fairness weight assigned to tenants interned without an explicit
/// [`TenantRegistry::register`] call.
pub const DEFAULT_WEIGHT: f64 = 1.0;

/// How many window quanta a tenant's deficit may accumulate: a briefly
/// idle tenant can burst up to this many windows' worth of entitlement
/// before the cap bites.
pub const BURST_WINDOWS: f64 = 2.0;

/// A registry-scoped tenant handle: a dense index into the
/// [`TenantRegistry`] that interned it. `Copy` so it rides inside
/// [`RequestOptions`](crate::request::RequestOptions) without
/// disturbing that struct's `Copy` contract. Ids are only meaningful
/// against the registry that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(u32);

impl TenantId {
    /// The dense registry slot this id names.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-lane accounting of one tenant.
#[derive(Debug, Default)]
struct TenantLaneAccount {
    /// Deficit-round-robin credit remaining in the current window
    /// regime (replenished by `quantum × weight-share` per window roll,
    /// capped at [`BURST_WINDOWS`] quanta, drained by charges).
    deficit_nanos: u64,
    /// Cumulative nanoseconds of step work charged to this tenant on
    /// this lane, across all windows. Monotone, for metrics.
    spent_nanos: u64,
    /// Nanoseconds charged since the window last rolled: how much of
    /// its quantum the tenant has used in the current window.
    window_spent_nanos: u64,
    served: u64,
    shed: u64,
    degraded: u64,
    delta_reused: u64,
}

impl TenantLaneAccount {
    /// Drain the deficit (saturating) and grow the window's and the
    /// cumulative spend by `nanos`.
    fn charge(&mut self, nanos: u64) {
        self.spent_nanos = self.spent_nanos.saturating_add(nanos);
        self.window_spent_nanos = self.window_spent_nanos.saturating_add(nanos);
        self.deficit_nanos = self.deficit_nanos.saturating_sub(nanos);
    }
}

#[derive(Debug)]
struct TenantAccount {
    name: String,
    weight: f64,
    lanes: [TenantLaneAccount; 2],
}

/// Per-lane shaping state: which [`LaneLedger`] window the registry
/// last replenished deficits for, and that window's budget.
#[derive(Debug, Default)]
struct LaneShapingState {
    /// `None` until the lane is first observed.
    last_seq: Option<u64>,
    window_budget: Option<u64>,
}

#[derive(Debug)]
struct RegistryInner {
    names: HashMap<String, u32>,
    accounts: Vec<TenantAccount>,
    lanes: [LaneShapingState; 2],
    total_weight: f64,
}

/// A point-in-time view of one tenant's per-lane accounting, for
/// metrics endpoints and load-lab reports.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantLaneSnapshot {
    /// Which lane the counters belong to.
    pub lane: TrafficLane,
    /// Cumulative step work charged by settled requests.
    pub spent_nanos: u64,
    /// Deficit credit remaining.
    pub deficit_nanos: u64,
    /// Requests served (a batch counts once).
    pub served: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Outcomes that degraded (skipped or truncated steps).
    pub degraded: u64,
    /// `(step, column)` pairs the served requests answered from the
    /// base crawl's cached scores (the sum of their
    /// [`DegradationReport::delta_reused`](crate::request::DegradationReport::delta_reused)).
    pub delta_reused: u64,
    /// Whether the tenant is currently over quota on this lane.
    pub over_quota: bool,
}

/// A point-in-time view of one tenant, for metrics and reports.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// The tenant's registry handle.
    pub id: TenantId,
    /// The interned name.
    pub name: String,
    /// The fairness weight.
    pub weight: f64,
    /// Per-lane counters, in [`TrafficLane::ALL`] order.
    pub lanes: [TenantLaneSnapshot; 2],
}

/// Interns tenant names, holds fairness weights, and runs the
/// weighted deficit bookkeeping described in the [module docs](self).
///
/// With `fairness` disabled (see
/// [`accounting_only`](TenantRegistry::accounting_only)) the registry
/// still tracks per-tenant spend and counters — the load lab's
/// *unshapen baseline* — but never declares anyone over quota and
/// never caps a budget.
#[derive(Debug)]
pub struct TenantRegistry {
    inner: Mutex<RegistryInner>,
    fairness: bool,
}

impl Default for TenantRegistry {
    fn default() -> Self {
        TenantRegistry::new()
    }
}

impl TenantRegistry {
    /// A registry with fairness shaping enabled and the default burst
    /// allowance.
    #[must_use]
    pub fn new() -> Self {
        TenantRegistry::with_fairness(true)
    }

    /// A registry that tracks spend and counters but never shapes:
    /// [`over_quota`](TenantRegistry::over_quota) is always `false`
    /// and [`effective_cap`](TenantRegistry::effective_cap) never
    /// tightens a budget. The load lab's unshapen baseline runs on
    /// this so its per-tenant report comes from the same bookkeeping.
    #[must_use]
    pub fn accounting_only() -> Self {
        TenantRegistry::with_fairness(false)
    }

    fn with_fairness(fairness: bool) -> Self {
        TenantRegistry {
            inner: Mutex::new(RegistryInner {
                names: HashMap::new(),
                accounts: Vec::new(),
                lanes: [LaneShapingState::default(), LaneShapingState::default()],
                total_weight: 0.0,
            }),
            fairness,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Intern `name`, creating the tenant with [`DEFAULT_WEIGHT`] on
    /// first sight. New tenants start with a full burst of deficit on
    /// every budgeted lane, so a newcomer is never over quota before
    /// it has spent anything.
    pub fn intern(&self, name: &str) -> TenantId {
        self.intern_bounded(name, usize::MAX)
            .expect("no registry holds usize::MAX tenants")
    }

    /// [`intern`](TenantRegistry::intern), unless `name` is new and the
    /// registry already holds `max_tenants` tenants: then `None`, and
    /// nothing is interned. The check and the insert share one lock,
    /// so concurrent new names cannot overshoot the bound.
    pub fn intern_bounded(&self, name: &str, max_tenants: usize) -> Option<TenantId> {
        let mut inner = self.lock();
        if let Some(&idx) = inner.names.get(name) {
            return Some(TenantId(idx));
        }
        (inner.accounts.len() < max_tenants)
            .then(|| self.insert_locked(&mut inner, name, DEFAULT_WEIGHT))
    }

    /// Intern `name` with an explicit fairness weight (clamped to a
    /// small positive minimum; weights are relative, not absolute).
    /// Re-registering an existing tenant updates its weight.
    pub fn register(&self, name: &str, weight: f64) -> TenantId {
        let weight = sanitize_weight(weight);
        let mut inner = self.lock();
        if let Some(&idx) = inner.names.get(name) {
            let old = inner.accounts[idx as usize].weight;
            inner.accounts[idx as usize].weight = weight;
            inner.total_weight += weight - old;
            return TenantId(idx);
        }
        self.insert_locked(&mut inner, name, weight)
    }

    fn insert_locked(&self, inner: &mut RegistryInner, name: &str, weight: f64) -> TenantId {
        let idx = u32::try_from(inner.accounts.len()).expect("tenant count fits u32");
        inner.names.insert(name.to_owned(), idx);
        inner.total_weight += weight;
        let mut account = TenantAccount {
            name: name.to_owned(),
            weight,
            lanes: [TenantLaneAccount::default(), TenantLaneAccount::default()],
        };
        // Full burst grant on every already-observed budgeted lane: a
        // tenant's first request must never be treated as over quota.
        let total = inner.total_weight;
        for lane in TrafficLane::ALL {
            if let Some(budget) = inner.lanes[lane_index(lane)].window_budget {
                let quantum = quantum_nanos(budget, weight, total);
                account.lanes[lane_index(lane)].deficit_nanos = scale_nanos(quantum, BURST_WINDOWS);
            }
        }
        inner.accounts.push(account);
        TenantId(idx)
    }

    /// Look up an already-interned tenant.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<TenantId> {
        self.lock().names.get(name).copied().map(TenantId)
    }

    /// The interned name of `id` (`None` for a foreign id).
    #[must_use]
    pub fn name(&self, id: TenantId) -> Option<String> {
        self.lock().accounts.get(id.index()).map(|a| a.name.clone())
    }

    /// The fairness weight of `id` (`None` for a foreign id).
    #[must_use]
    pub fn weight(&self, id: TenantId) -> Option<f64> {
        self.lock().accounts.get(id.index()).map(|a| a.weight)
    }

    /// Number of interned tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().accounts.len()
    }

    /// Whether no tenant has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sync the registry with a lane's live window: when the
    /// [`LaneLedger`] has rolled since the last observation (or its
    /// budget is seen for the first time), every tenant's deficit on
    /// that lane is replenished by one weight-share quantum per rolled
    /// window, capped at the burst allowance. Cheap no-op when the
    /// window is unchanged.
    pub fn observe_window(&self, lane: TrafficLane, seq: u64, window_budget: Option<u64>) {
        let mut inner = self.lock();
        let li = lane_index(lane);
        let state = &inner.lanes[li];
        let first = state.last_seq.is_none() || state.window_budget != window_budget;
        let rolled = state.last_seq.map_or(0, |last| seq.saturating_sub(last));
        if !first && rolled == 0 {
            return;
        }
        inner.lanes[li].last_seq = Some(seq);
        inner.lanes[li].window_budget = window_budget;
        let Some(budget) = window_budget else { return };
        // A first observation (or a budget change) grants the full
        // burst; later rolls add one quantum per elapsed window. The
        // cap makes the distinction soft: nobody can hoard more than
        // `BURST_WINDOWS` quanta either way.
        let grants = if first {
            BURST_WINDOWS
        } else {
            (rolled as f64).min(BURST_WINDOWS)
        };
        let total = inner.total_weight;
        for account in &mut inner.accounts {
            let quantum = quantum_nanos(budget, account.weight, total);
            let cap = scale_nanos(quantum, BURST_WINDOWS);
            let grant = scale_nanos(quantum, grants);
            let lane_acct = &mut account.lanes[li];
            lane_acct.deficit_nanos = lane_acct.deficit_nanos.saturating_add(grant).min(cap);
            lane_acct.window_spent_nanos = 0;
        }
    }

    /// Charge `nanos` of step work to `id` on `lane`: drains the
    /// deficit (saturating) and grows the window's and the cumulative
    /// spend.
    pub fn charge(&self, id: TenantId, lane: TrafficLane, nanos: u64) {
        self.with_lane(id, lane, |acct| acct.charge(nanos));
    }

    /// Run `f` on `id`'s books for `lane` under the registry lock (a
    /// no-op for a foreign id).
    fn with_lane(&self, id: TenantId, lane: TrafficLane, f: impl FnOnce(&mut TenantLaneAccount)) {
        if let Some(account) = self.lock().accounts.get_mut(id.index()) {
            f(&mut account.lanes[lane_index(lane)]);
        }
    }

    /// Is `id` over quota on `lane` — deficit fully drained on a
    /// budgeted lane? Always `false` with fairness disabled, on
    /// unbudgeted lanes, and for foreign ids.
    #[must_use]
    pub fn over_quota(&self, id: TenantId, lane: TrafficLane) -> bool {
        if !self.fairness {
            return false;
        }
        let inner = self.lock();
        if inner.lanes[lane_index(lane)].window_budget.is_none() {
            return false;
        }
        inner
            .accounts
            .get(id.index())
            .is_some_and(|a| a.lanes[lane_index(lane)].deficit_nanos == 0)
    }

    /// The per-request budget cap shaping imposes on `id` given the
    /// lane window's remainder — `None` means *no cap* (share the lane
    /// ledger exactly as an unshapen request would):
    ///
    /// * unbudgeted lane, fairness disabled, or foreign id → no cap;
    /// * **in quota** (deficit left) → capped at the deficit, but only
    ///   when the deficit is actually tighter than the lane remainder.
    ///   Once the tenant has spent its own quantum this window, the cap
    ///   also leaves the other in-quota tenants the part of their
    ///   quanta they have not spent yet (their claim): burst credit can
    ///   be held while the rest of the window is claimed, and the cap
    ///   is then 0;
    /// * **over quota** → weight share of the lane remainder *minus*
    ///   the deficits still owed to in-quota tenants (their
    ///   reservation), which can be 0: the request runs fully
    ///   degraded and cheap instead of eating reserved budget.
    #[must_use]
    pub fn effective_cap(
        &self,
        id: TenantId,
        lane: TrafficLane,
        lane_remaining: Option<u64>,
    ) -> Option<u64> {
        if !self.fairness {
            return None;
        }
        let remaining = lane_remaining?;
        let inner = self.lock();
        let li = lane_index(lane);
        let budget = inner.lanes[li].window_budget?;
        let account = inner.accounts.get(id.index())?;
        let in_quota_others = || {
            inner
                .accounts
                .iter()
                .enumerate()
                .filter(|(i, a)| *i != id.index() && a.lanes[li].deficit_nanos > 0)
                .map(|(_, a)| a)
        };
        let deficit = account.lanes[li].deficit_nanos;
        if deficit > 0 {
            let quantum = |a: &TenantAccount| quantum_nanos(budget, a.weight, inner.total_weight);
            let cap = if account.lanes[li].window_spent_nanos < quantum(account) {
                deficit
            } else {
                // Bursting: leave every other in-quota tenant the part
                // of its quantum it has not spent yet this window.
                let claimed: u64 = in_quota_others()
                    .map(|a| {
                        let lane_acct = &a.lanes[li];
                        lane_acct
                            .deficit_nanos
                            .min(quantum(a).saturating_sub(lane_acct.window_spent_nanos))
                    })
                    .fold(0u64, u64::saturating_add);
                deficit.min(remaining.saturating_sub(claimed))
            };
            // When the lane window is the tighter bound, behave exactly
            // like an unshapen request.
            return (cap < remaining).then_some(cap);
        }
        // Over quota: leave the in-quota tenants' outstanding deficits
        // alone and take only a weight share of what is left over.
        let reserved: u64 = in_quota_others()
            .map(|a| a.lanes[li].deficit_nanos)
            .fold(0u64, u64::saturating_add);
        let unreserved = remaining.saturating_sub(reserved);
        let share = if inner.total_weight > 0.0 {
            account.weight / inner.total_weight
        } else {
            0.0
        };
        Some(scale_nanos(unreserved, share))
    }

    /// Book one served request for `id` on `lane`: charge its
    /// `spent_nanos` as [`charge`](TenantRegistry::charge) does, and
    /// count it with how many of its outcomes degraded and how many
    /// `(step, column)` pairs it answered from base-crawl scores. One
    /// lock holds all of it, so a [`snapshot`](TenantRegistry::snapshot)
    /// sees the whole request or none of it.
    pub fn record_served(
        &self,
        id: TenantId,
        lane: TrafficLane,
        spent_nanos: u64,
        degraded_outcomes: u64,
        delta_reused: u64,
    ) {
        self.with_lane(id, lane, |acct| {
            acct.charge(spent_nanos);
            acct.served += 1;
            acct.degraded += degraded_outcomes;
            acct.delta_reused = acct.delta_reused.saturating_add(delta_reused);
        });
    }

    /// Count one shed (refused at admission) request for `id` on
    /// `lane`.
    pub fn record_shed(&self, id: TenantId, lane: TrafficLane) {
        self.with_lane(id, lane, |acct| acct.shed += 1);
    }

    /// Point-in-time snapshots of every tenant, in intern order — the
    /// `/metrics` and load-lab reporting surface.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TenantSnapshot> {
        let inner = self.lock();
        inner
            .accounts
            .iter()
            .enumerate()
            .map(|(idx, account)| TenantSnapshot {
                id: TenantId(idx as u32),
                name: account.name.clone(),
                weight: account.weight,
                lanes: TrafficLane::ALL.map(|lane| {
                    let li = lane_index(lane);
                    let a = &account.lanes[li];
                    TenantLaneSnapshot {
                        lane,
                        spent_nanos: a.spent_nanos,
                        deficit_nanos: a.deficit_nanos,
                        served: a.served,
                        shed: a.shed,
                        degraded: a.degraded,
                        delta_reused: a.delta_reused,
                        over_quota: self.fairness
                            && inner.lanes[li].window_budget.is_some()
                            && a.deficit_nanos == 0,
                    }
                }),
            })
            .collect()
    }
}

/// The admission cutoff for a request class, as a fraction of queue
/// capacity: the request is shed once the queue is at least this full.
/// Encodes the degradation order — *crawl before interactive, heavy
/// tenants before light ones*:
///
/// | lane        | over quota | cutoff |
/// |-------------|------------|--------|
/// | crawl       | yes        | 0.25   |
/// | crawl       | no         | 0.5    |
/// | interactive | yes        | 0.5    |
/// | interactive | no         | 1.0    |
#[must_use]
pub fn admission_cutoff(lane: TrafficLane, over_quota: bool) -> f64 {
    match (lane, over_quota) {
        (TrafficLane::Crawl, true) => 0.25,
        (TrafficLane::Crawl, false) | (TrafficLane::Interactive, true) => 0.5,
        (TrafficLane::Interactive, false) => 1.0,
    }
}

/// How one shaped request should source its budget (see
/// [`TrafficShaper::request_budget`]).
#[derive(Debug)]
pub enum ShapedBudget {
    /// Charge the lane's shared window ledger directly — the unshapen
    /// path: concurrent lane traffic collectively drains one budget.
    Shared(Arc<BudgetLedger>),
    /// Run under a private ledger of `cap_nanos` and charge the spend
    /// back to `lane` afterwards (via
    /// [`TrafficShaper::settle`]) — the path of explicit request
    /// budgets and of tenant caps.
    Local {
        /// The request's private allowance.
        cap_nanos: u64,
        /// The lane window ledger to charge the spend back to.
        lane: Arc<BudgetLedger>,
    },
}

/// The two lane ledgers and the tenant registry — one shaping
/// decision surface, consulted by the serve loop the HTTP server and
/// the load lab's in-process driver share (`tu_server::WorkerPool`),
/// so both enforce the same policy. The ledgers budget each lane's
/// window; the registry keeps the books.
#[derive(Debug)]
pub struct TrafficShaper {
    lanes: [LaneLedger; 2],
    registry: Arc<TenantRegistry>,
}

impl TrafficShaper {
    /// A shaper over `registry` with the given per-lane window budgets
    /// (`None` = unbudgeted) and window length.
    #[must_use]
    pub fn new(
        registry: Arc<TenantRegistry>,
        interactive_budget_nanos: Option<u64>,
        crawl_budget_nanos: Option<u64>,
        window: Duration,
    ) -> Self {
        TrafficShaper {
            lanes: [
                LaneLedger::new(TrafficLane::Interactive, interactive_budget_nanos, window),
                LaneLedger::new(TrafficLane::Crawl, crawl_budget_nanos, window),
            ],
            registry,
        }
    }

    /// The tenant registry behind this shaper.
    #[must_use]
    pub fn registry(&self) -> &Arc<TenantRegistry> {
        &self.registry
    }

    /// The window ledger of `lane`.
    #[must_use]
    pub fn lane_ledger(&self, lane: TrafficLane) -> &LaneLedger {
        &self.lanes[lane_index(lane)]
    }

    /// Sync the registry's deficits with `lane`'s live window and
    /// return that window's shared ledger.
    fn synced_ledger(&self, lane: TrafficLane) -> Arc<BudgetLedger> {
        let lane_ledger = self.lane_ledger(lane);
        let (ledger, seq) = lane_ledger.ledger_with_seq();
        self.registry
            .observe_window(lane, seq, lane_ledger.window_budget());
        ledger
    }

    /// Is `tenant` currently over quota on `lane` (deficits synced to
    /// the live window first)?
    #[must_use]
    pub fn over_quota(&self, lane: TrafficLane, tenant: TenantId) -> bool {
        let _ = self.synced_ledger(lane);
        self.registry.over_quota(tenant, lane)
    }

    /// Lane- and tenant-aware admission: shed once the queue is at
    /// least [`admission_cutoff`] full for this request class (the
    /// push itself backstops genuinely-full and closed queues). A shed
    /// is booked once, as the tenant's
    /// ([`TenantRegistry::record_shed`]), which is where the lane's
    /// shed count comes from too; an admitted job is not counted until
    /// it settles.
    pub fn admit<T>(
        &self,
        queue: &BoundedQueue<T>,
        lane: TrafficLane,
        tenant: TenantId,
        job: T,
    ) -> Result<(), QueueRejection> {
        let cutoff = admission_cutoff(lane, self.over_quota(lane, tenant));
        let threshold = scale_capacity(queue.capacity(), cutoff);
        let result = if cutoff < 1.0 && queue.len() >= threshold {
            Err(QueueRejection::Full)
        } else {
            queue.push(job).map_err(|(_, why)| why)
        };
        if result.is_err() {
            self.registry.record_shed(tenant, lane);
        }
        result
    }

    /// Resolve how a request from `tenant` on `lane` with an optional
    /// explicit budget should source its allowance. The decision
    /// composes three bounds — lane window remainder, tenant shaping
    /// cap, explicit request budget — and preserves the unshapen
    /// contract exactly when shaping imposes nothing: an unbudgeted
    /// request on an uncapped tenant shares the lane window ledger.
    #[must_use]
    pub fn request_budget(
        &self,
        lane: TrafficLane,
        tenant: TenantId,
        request_budget: Option<u64>,
    ) -> ShapedBudget {
        let lane_ledger = self.synced_ledger(lane);
        let tenant_cap = self
            .registry
            .effective_cap(tenant, lane, lane_ledger.remaining());
        match (request_budget, tenant_cap) {
            (None, None) => ShapedBudget::Shared(lane_ledger),
            (request, cap) => {
                let lane_left = lane_ledger.remaining().unwrap_or(u64::MAX);
                let bound = request
                    .unwrap_or(u64::MAX)
                    .min(cap.unwrap_or(u64::MAX))
                    .min(lane_left);
                ShapedBudget::Local {
                    cap_nanos: bound,
                    lane: lane_ledger,
                }
            }
        }
    }

    /// Serve one request from `tenant` on `lane` — the grant → run →
    /// settle sequence every serving front-end shares. The grant comes
    /// from [`request_budget`](TrafficShaper::request_budget); `run`
    /// annotates against the ledger it is handed (the lane's shared
    /// window ledger, or a private [`BudgetLedger::bounded`] at the
    /// granted cap), and [`settle`](TrafficShaper::settle) then
    /// accounts the sums of spend, degraded outcomes and base-crawl
    /// reuses over the outcomes `run` returned. A batch counts as one
    /// served request; a single request is a batch of one.
    pub fn serve(
        &self,
        lane: TrafficLane,
        tenant: TenantId,
        request_budget: Option<u64>,
        run: impl FnOnce(&BudgetLedger) -> Vec<AnnotationOutcome>,
    ) -> Vec<AnnotationOutcome> {
        let grant = self.request_budget(lane, tenant, request_budget);
        let outcomes = match &grant {
            ShapedBudget::Shared(ledger) => run(ledger),
            ShapedBudget::Local { cap_nanos, .. } => run(&BudgetLedger::bounded(*cap_nanos)),
        };
        let sum = |of: fn(&AnnotationOutcome) -> u64| {
            outcomes.iter().map(of).fold(0, u64::saturating_add)
        };
        self.settle(
            lane,
            tenant,
            &grant,
            sum(|o| o.degradation.spent_nanos),
            sum(|o| u64::from(o.degraded())),
            sum(|o| o.degradation.delta_reused as u64),
        );
        outcomes
    }

    /// Account one served request: charge `spent_nanos` back to the
    /// lane window (only for [`ShapedBudget::Local`] runs — shared
    /// runs charged the window ledger directly), then book it once in
    /// the tenant's books ([`TenantRegistry::record_served`]): spend,
    /// deficit, served, degraded and reused counts. Those books are the
    /// lane's too, so spend charged to a window that has since rolled
    /// still counts, and a request that never settles (its run
    /// panicked) counts in no lane or tenant.
    pub fn settle(
        &self,
        lane: TrafficLane,
        tenant: TenantId,
        budget: &ShapedBudget,
        spent_nanos: u64,
        degraded_outcomes: u64,
        delta_reused: u64,
    ) {
        if let ShapedBudget::Local { lane: ledger, .. } = budget {
            ledger.charge(spent_nanos);
        }
        self.registry
            .record_served(tenant, lane, spent_nanos, degraded_outcomes, delta_reused);
    }
}

/// Dense index of a lane into per-lane arrays ([`TrafficLane::ALL`]
/// order).
#[must_use]
pub fn lane_index(lane: TrafficLane) -> usize {
    match lane {
        TrafficLane::Interactive => 0,
        TrafficLane::Crawl => 1,
    }
}

fn sanitize_weight(weight: f64) -> f64 {
    if weight.is_finite() {
        weight.max(1e-6)
    } else {
        DEFAULT_WEIGHT
    }
}

fn quantum_nanos(window_budget: u64, weight: f64, total_weight: f64) -> u64 {
    if total_weight <= 0.0 {
        return window_budget;
    }
    scale_nanos(window_budget, weight / total_weight)
}

/// `nanos × factor`, saturating, with non-finite factors clamped away.
fn scale_nanos(nanos: u64, factor: f64) -> u64 {
    let scaled = nanos as f64 * factor.max(0.0);
    if !scaled.is_finite() || scaled >= u64::MAX as f64 {
        u64::MAX
    } else {
        scaled as u64
    }
}

fn scale_capacity(capacity: usize, fraction: f64) -> usize {
    let scaled = capacity as f64 * fraction.clamp(0.0, 1.0);
    scaled.floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let reg = TenantRegistry::new();
        let a = reg.intern("acme");
        let b = reg.intern("beta");
        assert_eq!(reg.intern("acme"), a);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.name(a).as_deref(), Some("acme"));
        assert_eq!(reg.lookup("beta"), Some(b));
        assert_eq!(reg.lookup("gamma"), None);
        assert_eq!(reg.weight(a), Some(DEFAULT_WEIGHT));
    }

    #[test]
    fn bounded_interning_stops_at_the_cap_under_contention() {
        let reg = TenantRegistry::new();
        let known = reg.register("known", 2.0);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let reg = &reg;
                scope.spawn(move || {
                    for i in 0..8 {
                        let _ = reg.intern_bounded(&format!("t{t}-{i}"), 8);
                    }
                });
            }
        });
        assert_eq!(reg.len(), 8, "racing new names never overshoot the cap");
        assert_eq!(reg.intern_bounded("fresh", 8), None);
        assert_eq!(reg.lookup("fresh"), None, "a refused name is not interned");
        assert_eq!(reg.intern_bounded("known", 8), Some(known));
        assert_eq!(reg.weight(known), Some(2.0));
        assert_eq!(reg.len(), 8);
    }

    #[test]
    fn register_sets_and_updates_weights() {
        let reg = TenantRegistry::new();
        let a = reg.register("acme", 3.0);
        assert_eq!(reg.weight(a), Some(3.0));
        let same = reg.register("acme", 5.0);
        assert_eq!(same, a);
        assert_eq!(reg.weight(a), Some(5.0));
        // Degenerate weights are clamped, never zero or negative.
        let b = reg.register("beta", -1.0);
        assert!(reg.weight(b).unwrap() > 0.0);
        let c = reg.register("gamma", f64::NAN);
        assert_eq!(reg.weight(c), Some(DEFAULT_WEIGHT));
    }

    #[test]
    fn deficits_replenish_per_window_and_cap_at_burst() {
        let reg = TenantRegistry::new();
        let a = reg.register("a", 1.0);
        let b = reg.register("b", 1.0);
        // First observation grants the full burst: budget 1000, two
        // equal tenants → quantum 500, burst cap 1000.
        reg.observe_window(TrafficLane::Interactive, 0, Some(1_000));
        assert!(!reg.over_quota(a, TrafficLane::Interactive));
        reg.charge(a, TrafficLane::Interactive, 1_000);
        assert!(reg.over_quota(a, TrafficLane::Interactive));
        assert!(!reg.over_quota(b, TrafficLane::Interactive));
        // Same window: no replenish.
        reg.observe_window(TrafficLane::Interactive, 0, Some(1_000));
        assert!(reg.over_quota(a, TrafficLane::Interactive));
        // Rolled window: one quantum back.
        reg.observe_window(TrafficLane::Interactive, 1, Some(1_000));
        assert!(!reg.over_quota(a, TrafficLane::Interactive));
        // b never spent: capped at the burst, not unbounded.
        let snap = reg.snapshot();
        let b_lane = &snap[b.index()].lanes[lane_index(TrafficLane::Interactive)];
        assert_eq!(b_lane.deficit_nanos, 1_000, "burst cap = 2 quanta");
    }

    #[test]
    fn over_quota_needs_fairness_and_a_budgeted_lane() {
        let reg = TenantRegistry::accounting_only();
        let a = reg.intern("a");
        reg.observe_window(TrafficLane::Crawl, 0, Some(100));
        reg.charge(a, TrafficLane::Crawl, 10_000);
        assert!(!reg.over_quota(a, TrafficLane::Crawl), "accounting only");
        assert_eq!(reg.effective_cap(a, TrafficLane::Crawl, Some(100)), None);

        let fair = TenantRegistry::new();
        let b = fair.intern("b");
        // Unbudgeted lane: never over quota, never capped.
        fair.observe_window(TrafficLane::Crawl, 0, None);
        fair.charge(b, TrafficLane::Crawl, 10_000);
        assert!(!fair.over_quota(b, TrafficLane::Crawl));
        assert_eq!(fair.effective_cap(b, TrafficLane::Crawl, None), None);
    }

    #[test]
    fn effective_cap_reserves_in_quota_deficits() {
        let reg = TenantRegistry::new();
        let heavy = reg.register("heavy", 1.0);
        let light = reg.register("light", 1.0);
        reg.observe_window(TrafficLane::Interactive, 0, Some(1_000));
        // In quota with deficit (1000 burst) ≥ remaining (1000): no cap
        // — indistinguishable from unshapen.
        assert_eq!(
            reg.effective_cap(heavy, TrafficLane::Interactive, Some(1_000)),
            None
        );
        // Drain heavy partially: deficit 300 < remaining 800 → capped
        // at the deficit.
        reg.charge(heavy, TrafficLane::Interactive, 700);
        assert_eq!(
            reg.effective_cap(heavy, TrafficLane::Interactive, Some(800)),
            Some(300)
        );
        // Fully drained: over quota. Light still holds a 1000 deficit
        // (reserved); remaining 800 − min(reserved, …) leaves nothing.
        reg.charge(heavy, TrafficLane::Interactive, 300);
        assert!(reg.over_quota(heavy, TrafficLane::Interactive));
        assert_eq!(
            reg.effective_cap(heavy, TrafficLane::Interactive, Some(800)),
            Some(0)
        );
        // With light mostly drained too, the unreserved remainder is
        // shared by weight: light deficit 100 reserved, remaining 800
        // → unreserved 700, heavy's half share = 350.
        reg.charge(light, TrafficLane::Interactive, 900);
        assert_eq!(
            reg.effective_cap(heavy, TrafficLane::Interactive, Some(800)),
            Some(350)
        );
    }

    #[test]
    fn in_quota_bursts_leave_other_tenants_unspent_quanta() {
        let reg = TenantRegistry::new();
        let heavy = reg.register("heavy", 1.0);
        let light = reg.register("light", 1.0);
        let cap = |t, remaining| reg.effective_cap(t, TrafficLane::Interactive, Some(remaining));
        // Budget 1000, two equal tenants: quantum 500, burst credit 1000.
        reg.observe_window(TrafficLane::Interactive, 0, Some(1_000));
        // Within its quantum, heavy draws on the window like any
        // request.
        assert_eq!(cap(heavy, 1_000), None);
        // Light spends part of its quantum, heavy all of it. Heavy
        // still holds burst credit, but the 200 left in the window are
        // light's.
        reg.charge(light, TrafficLane::Interactive, 300);
        reg.charge(heavy, TrafficLane::Interactive, 500);
        assert!(!reg.over_quota(heavy, TrafficLane::Interactive));
        assert_eq!(cap(heavy, 200), Some(0));
        assert_eq!(
            cap(light, 200),
            None,
            "a late light request finds its share"
        );
        // Once light has used its quantum too, what is left of the
        // window is open to either tenant's burst credit.
        reg.charge(light, TrafficLane::Interactive, 200);
        assert_eq!(cap(heavy, 300), None);
        assert_eq!(cap(light, 300), None);
        // A rolled window renews every claim: light's fresh quantum is
        // reserved against heavy's burst again.
        reg.observe_window(TrafficLane::Interactive, 1, Some(1_000));
        reg.charge(heavy, TrafficLane::Interactive, 500);
        assert_eq!(cap(heavy, 500), Some(0));
    }

    #[test]
    fn admission_cutoffs_order_sheds() {
        assert!(
            admission_cutoff(TrafficLane::Crawl, true)
                < admission_cutoff(TrafficLane::Crawl, false)
        );
        assert!(
            admission_cutoff(TrafficLane::Crawl, false)
                < admission_cutoff(TrafficLane::Interactive, false)
        );
        assert_eq!(
            admission_cutoff(TrafficLane::Crawl, false),
            admission_cutoff(TrafficLane::Interactive, true)
        );
        assert_eq!(admission_cutoff(TrafficLane::Interactive, false), 1.0);
    }

    #[test]
    fn shaper_admission_consults_quota_and_counts_sheds() {
        let registry = Arc::new(TenantRegistry::new());
        let shaper = TrafficShaper::new(
            Arc::clone(&registry),
            Some(1_000),
            Some(1_000),
            Duration::from_secs(600),
        );
        let heavy = registry.register("heavy", 1.0);
        let light = registry.register("light", 1.0);
        let queue: BoundedQueue<u32> = BoundedQueue::new(8);
        // Fill to 2 (≥ 8×0.25): over-quota crawl sheds, in-quota crawl
        // still admitted.
        queue.push(0).unwrap();
        queue.push(1).unwrap();
        // Drain heavy's whole deficit so it goes over quota.
        let _ = shaper.synced_ledger(TrafficLane::Crawl);
        registry.charge(heavy, TrafficLane::Crawl, u64::MAX / 2);
        assert_eq!(
            shaper.admit(&queue, TrafficLane::Crawl, heavy, 2),
            Err(QueueRejection::Full)
        );
        assert_eq!(shaper.admit(&queue, TrafficLane::Crawl, light, 2), Ok(()));
        // At half capacity every crawl request sheds; interactive
        // in-quota still goes through.
        queue.push(3).unwrap();
        assert_eq!(
            shaper.admit(&queue, TrafficLane::Crawl, light, 4),
            Err(QueueRejection::Full)
        );
        // Quota is per lane: heavy drained only its crawl deficit, so
        // interactive still admits it...
        assert!(!shaper.over_quota(TrafficLane::Interactive, heavy));
        // ...until the interactive deficit is drained too.
        registry.charge(heavy, TrafficLane::Interactive, u64::MAX / 2);
        assert_eq!(
            shaper.admit(&queue, TrafficLane::Interactive, heavy, 4),
            Err(QueueRejection::Full),
            "over-quota interactive sheds at the crawl cutoff"
        );
        assert_eq!(
            shaper.admit(&queue, TrafficLane::Interactive, light, 4),
            Ok(())
        );
        // Each shed is booked once, against its tenant and lane.
        let snap = registry.snapshot();
        assert_eq!(snap[heavy.index()].lanes[1].shed, 1);
        assert_eq!(snap[heavy.index()].lanes[0].shed, 1);
        assert_eq!(snap[light.index()].lanes[1].shed, 1);
        assert_eq!(snap[light.index()].lanes[0].shed, 0);
        let lane_sheds = |li: usize| snap.iter().map(|t| t.lanes[li].shed).sum::<u64>();
        assert_eq!((lane_sheds(0), lane_sheds(1)), (1, 2));
    }

    #[test]
    fn request_budget_composes_lane_tenant_and_request_bounds() {
        let (registry, shaper, t) = budgeted_shaper();
        // Unbudgeted request, in-quota tenant with burst ≥ window:
        // shares the lane ledger (the unshapen path).
        match shaper.request_budget(TrafficLane::Interactive, t, None) {
            ShapedBudget::Shared(ledger) => {
                assert_eq!(ledger.remaining(), Some(10_000));
            }
            other => panic!("expected shared lane ledger, got {other:?}"),
        }
        // Explicit request budget: local, capped at min(budget, lane).
        match shaper.request_budget(TrafficLane::Interactive, t, Some(3_000)) {
            ShapedBudget::Local { cap_nanos, .. } => assert_eq!(cap_nanos, 3_000),
            other => panic!("expected local ledger, got {other:?}"),
        }
        // Unbudgeted lane: explicit budget passes through verbatim.
        match shaper.request_budget(TrafficLane::Crawl, t, Some(42)) {
            ShapedBudget::Local { cap_nanos, .. } => assert_eq!(cap_nanos, 42),
            other => panic!("expected local ledger, got {other:?}"),
        }
        // Drained sole tenant: work conserving — with nobody else's
        // deficit to reserve, the over-quota share is the full lane
        // remainder, so the request budget still binds.
        registry.charge(t, TrafficLane::Interactive, u64::MAX / 2);
        match shaper.request_budget(TrafficLane::Interactive, t, Some(3_000)) {
            ShapedBudget::Local { cap_nanos, .. } => assert_eq!(cap_nanos, 3_000),
            other => panic!("expected local ledger, got {other:?}"),
        }
        // A second in-quota tenant changes that: its burst deficit
        // (2 quanta = the whole window) is reserved, so the drained
        // tenant's cap collapses to 0 — fully degraded, not starved of
        // admission.
        let _ = registry.register("other", 1.0);
        match shaper.request_budget(TrafficLane::Interactive, t, Some(3_000)) {
            ShapedBudget::Local { cap_nanos, .. } => assert_eq!(cap_nanos, 0),
            other => panic!("expected local ledger, got {other:?}"),
        }
    }

    #[test]
    fn settle_charges_lane_tenant_and_counters() {
        let (registry, shaper, t) = budgeted_shaper();
        let grant = shaper.request_budget(TrafficLane::Interactive, t, Some(4_000));
        shaper.settle(TrafficLane::Interactive, t, &grant, 2_500, 1, 3);
        let window = shaper.lane_ledger(TrafficLane::Interactive).ledger();
        assert_eq!(window.remaining(), Some(7_500));
        assert_eq!(window.spent(), 2_500);
        let snap = registry.snapshot();
        let lane0 = &snap[t.index()].lanes[0];
        assert_eq!(lane0.spent_nanos, 2_500);
        assert_eq!(lane0.served, 1);
        assert_eq!(lane0.degraded, 1);
        assert_eq!(lane0.delta_reused, 3);
    }

    /// An outcome that charged `ledger` `spent` nanoseconds, reused
    /// `delta_reused` base-crawl scores, and degraded when `degraded`.
    fn outcome(
        ledger: &BudgetLedger,
        spent: u64,
        degraded: bool,
        delta_reused: usize,
    ) -> AnnotationOutcome {
        use crate::prediction::{StepId, TableAnnotation};
        use crate::request::{DegradationPolicy, DegradationReport, SkipReason, SkippedStep};
        ledger.charge(spent);
        let skipped = degraded.then(|| SkippedStep {
            step: StepId::EMBEDDING,
            name: "embedding".into(),
            reason: SkipReason::BudgetExhausted,
            pending: 1,
            ran: 0,
        });
        AnnotationOutcome {
            annotation: TableAnnotation {
                columns: Vec::new(),
                timings: Vec::new(),
            },
            degradation: DegradationReport {
                policy: DegradationPolicy::BestEffort,
                budget_nanos: ledger.budget(),
                spent_nanos: spent,
                remaining_nanos: ledger.remaining(),
                skipped: skipped.into_iter().collect(),
                delta_reused,
                tenant: None,
            },
        }
    }

    /// A shaper whose interactive lane grants 10 µs of step work per
    /// 10-minute window and whose crawl lane is unbudgeted, plus one
    /// interned tenant.
    fn budgeted_shaper() -> (Arc<TenantRegistry>, TrafficShaper, TenantId) {
        let registry = Arc::new(TenantRegistry::new());
        let shaper = TrafficShaper::new(
            Arc::clone(&registry),
            Some(10_000),
            None,
            Duration::from_secs(600),
        );
        let tenant = registry.intern("t");
        (registry, shaper, tenant)
    }

    #[test]
    fn serve_charges_a_local_grant_back_to_the_lane_exactly_once() {
        let (registry, shaper, t) = budgeted_shaper();
        let lane = TrafficLane::Interactive;
        // An explicit request budget runs on a private ledger capped at
        // the grant, never on the lane window itself.
        let outcomes = shaper.serve(lane, t, Some(4_000), |ledger| {
            assert_eq!(ledger.budget(), Some(4_000), "private capped ledger");
            vec![outcome(ledger, 2_500, false, 0)]
        });
        assert_eq!(outcomes.len(), 1);
        assert_eq!(shaper.lane_ledger(lane).remaining_nanos(), Some(7_500));
        assert_eq!(shaper.lane_ledger(lane).ledger().spent(), 2_500);
        let snap = registry.snapshot();
        assert_eq!(snap[t.index()].lanes[lane_index(lane)].spent_nanos, 2_500);
    }

    #[test]
    fn serve_does_not_charge_a_shared_grant_twice() {
        let (registry, shaper, t) = budgeted_shaper();
        let lane = TrafficLane::Interactive;
        // Unbudgeted request from an in-quota tenant: `run` charges the
        // lane window ledger itself, so settling must not charge it
        // again.
        let _ = shaper.serve(lane, t, None, |ledger| {
            assert_eq!(ledger.budget(), Some(10_000), "the lane window ledger");
            vec![outcome(ledger, 1_200, false, 0)]
        });
        assert_eq!(shaper.lane_ledger(lane).remaining_nanos(), Some(8_800));
        assert_eq!(shaper.lane_ledger(lane).ledger().spent(), 1_200);
        // The tenant is charged either way.
        let snap = registry.snapshot();
        assert_eq!(snap[t.index()].lanes[lane_index(lane)].spent_nanos, 1_200);
    }

    #[test]
    fn serve_counts_one_request_and_sums_the_outcomes() {
        let (registry, shaper, t) = budgeted_shaper();
        let lane = TrafficLane::Interactive;
        let outcomes = shaper.serve(lane, t, Some(9_000), |ledger| {
            vec![
                outcome(ledger, 100, true, 2),
                outcome(ledger, 200, false, 3),
                outcome(ledger, 300, true, 0),
            ]
        });
        assert_eq!(outcomes.len(), 3, "every outcome comes back");
        assert_eq!(shaper.lane_ledger(lane).ledger().spent(), 600);
        let snap = registry.snapshot();
        let account = &snap[t.index()].lanes[lane_index(lane)];
        assert_eq!(account.served, 1, "a batch is one served request");
        assert_eq!((account.degraded, account.delta_reused), (2, 5));
        assert_eq!(account.spent_nanos, 600);
    }
}
