//! The service engine: a controller lane plus executor lanes on the
//! sharded DES.
//!
//! Lane 0 holds *all* decision state — tenant queues, DRR deficits,
//! breakers, the artifact store, the user log — so every admission,
//! shedding, degradation and store decision is made by one lane in one
//! deterministic event order. Executor lanes only turn a dispatched
//! campaign into a `Finish` message after its work time; their lane
//! assignment never influences delivery timestamps (the DES `send`
//! clamp is a pure function of the send time), so outcomes are
//! invariant across thread counts *and* executor-shard counts.
//!
//! Two details keep the exec-shard invariance byte-exact even when two
//! campaigns finish at the same instant on different executor lanes:
//! completion records fold into the decision digest through a
//! *commutative* accumulator, and the user log is sorted post-run, in
//! place, into `(time, job, kind_rank)` order rather than raw handling
//! order.

use std::collections::{BTreeMap, VecDeque};

use fdw_obs::digest::{digest_fold, DIGEST_INIT};
use htcsim::des::{LaneModel, ShardedEngine};
use htcsim::job::{JobEvent, JobEventKind, JobId, OwnerId};
use htcsim::service::{ArtifactKind, DegradeMode, RejectReason, ServiceDetail, ShedReason};
use htcsim::time::SimTime;
use htcsim::userlog::UserLog;

use crate::breaker::TenantBreaker;
use crate::config::ServiceConfig;
use crate::fairshare::DeficitRoundRobin;
use crate::request::{
    artifact_costs_s, full_work_s, CampaignRequest, Disposition, RequestOutcome, WorkloadConfig,
    REPLICA_COST_S,
};
use crate::store::{artifact_bytes, content_digest, ArtifactStore, Lookup, StoreStats};

/// Events on the service lanes.
#[derive(Debug, Clone, Copy)]
enum ServiceEv {
    /// A tenant request reaches the front-end (lane 0).
    Arrive(CampaignRequest),
    /// Controller → executor: run this campaign for `work_s` seconds.
    Start { id: u64, work_s: u64, ok: bool },
    /// Executor → controller: the campaign terminated.
    Finish { id: u64, ok: bool },
}

/// Aggregate decision counters; every field is mode- and
/// thread-invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests that entered a tenant queue.
    pub admitted: u64,
    /// Rejected: per-tenant quota exceeded.
    pub rejected_quota: u64,
    /// Rejected: tenant queue full.
    pub rejected_queue: u64,
    /// Rejected: tenant breaker open.
    pub rejected_breaker: u64,
    /// Shed: global backlog overflow at arrival.
    pub shed_backlog: u64,
    /// Shed: deadline unreachable at dispatch.
    pub shed_deadline: u64,
    /// Campaigns started under truncated Karhunen–Loève.
    pub degraded_kl: u64,
    /// Campaigns started with reduced replicas (and truncated KL).
    pub degraded_replicas: u64,
    /// Campaigns completed with exit 0.
    pub completed: u64,
    /// Completions that missed their deadline.
    pub completed_late: u64,
    /// Campaigns that terminated with a non-zero exit code.
    pub failed: u64,
    /// Breaker-open transitions across all tenants.
    pub breaker_opens: u64,
    /// Work-seconds of in-deadline successful campaigns.
    pub goodput_s: u64,
    /// Work-seconds burned on failed or late campaigns.
    pub badput_s: u64,
}

/// Per-tenant slice of the outcome set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantReport {
    /// Requests this tenant submitted.
    pub submitted: u64,
    /// Completions with exit 0.
    pub completed: u64,
    /// Non-zero exits.
    pub failed: u64,
    /// Admission rejections (all reasons).
    pub rejected: u64,
    /// Shed requests (all reasons).
    pub shed: u64,
    /// Campaigns run degraded.
    pub degraded: u64,
    /// Work-seconds of in-deadline successes.
    pub goodput_s: u64,
    /// p99 of completed-campaign latency (finish − submit), seconds.
    pub p99_latency_s: u64,
}

/// Everything one service run produces.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Events handled / makespan / full engine digest (thread-invariant
    /// for a fixed lane count).
    pub events: u64,
    /// Time of the last handled event.
    pub makespan: SimTime,
    /// Engine digest (lane-structure dependent; compare across thread
    /// counts at fixed `exec_shards`).
    pub engine_digest: u64,
    /// Decision digest: every admission/shed/degrade/store/start
    /// decision plus a commutative fold of completions — invariant
    /// across threads *and* executor shard counts.
    pub decision_digest: u64,
    /// Terminal disposition of every request, in request-id order.
    pub outcomes: Vec<RequestOutcome>,
    /// Aggregate counters.
    pub stats: ServiceStats,
    /// Artifact-store counters.
    pub store: StoreStats,
    /// Per-tenant rollups, keyed by tenant id.
    pub per_tenant: BTreeMap<u32, TenantReport>,
    /// Requests that never reached a terminal disposition — must be 0;
    /// surfaced (rather than asserted) so benches can gate on it.
    pub unaccounted: usize,
    /// The service user log (codes 000/001/005 plus 033–038).
    pub log: UserLog,
}

impl ServiceReport {
    /// Goodput fraction: delivered campaign value over all offered work
    /// (the ablation's headline metric). An in-deadline completion
    /// delivers its campaign — its *offered* (undegraded) work counts,
    /// same as the per-tenant rollups — so graceful degradation reads as
    /// what it is: keeping deliverables flowing under overload, not as a
    /// goodput loss for computing fewer seconds. `stats.goodput_s` keeps
    /// the stricter actual-work-seconds accounting.
    pub fn goodput_fraction(&self) -> f64 {
        let mut offered = 0u64;
        let mut delivered = 0u64;
        for o in &self.outcomes {
            let work = full_work_s(o.request.class, o.request.replicas);
            offered += work;
            if let Disposition::Completed {
                in_deadline: true, ..
            } = o.disposition
            {
                delivered += work;
            }
        }
        if offered == 0 {
            return 0.0;
        }
        delivered as f64 / offered as f64
    }
}

/// In-flight bookkeeping the controller needs back at `Finish` time.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    request: CampaignRequest,
    degraded: Option<DegradeMode>,
    replicas: u32,
    work_s: u64,
}

struct Controller {
    cfg: ServiceConfig,
    exec_shards: u32,
    store: Option<ArtifactStore>,
    queues: BTreeMap<u32, VecDeque<CampaignRequest>>,
    drr: DeficitRoundRobin,
    breakers: BTreeMap<u32, TenantBreaker>,
    /// In-flight campaigns per tenant; `inflight.len()` is the total.
    running_of: BTreeMap<u32, u32>,
    inflight: BTreeMap<u64, InFlight>,
    outcomes: BTreeMap<u64, RequestOutcome>,
    stats: ServiceStats,
    /// User-log events in handling order, which is time order; sorted
    /// within each instant once, post-run.
    log: Vec<JobEvent>,
    /// Ordered fold of arrival + dispatch decisions.
    digest: u64,
    /// Commutative fold of completion records (exec-shard invariant).
    finish_acc: u64,
}

/// Stable-sort rank of an event kind within one `(time, job)` group.
fn kind_rank(kind: JobEventKind) -> u8 {
    match kind {
        JobEventKind::Submitted => 0,
        JobEventKind::ServiceRejected => 1,
        JobEventKind::ServiceAdmitted => 2,
        JobEventKind::ServiceShed => 3,
        JobEventKind::ServiceDegraded => 4,
        JobEventKind::ArtifactQuarantined => 5,
        JobEventKind::ArtifactHit => 6,
        JobEventKind::ExecuteStarted => 7,
        _ => 8,
    }
}

impl Controller {
    fn fold(&mut self, tag: u64, a: u64, b: u64) {
        self.digest = digest_fold(self.digest, tag);
        self.digest = digest_fold(self.digest, a);
        self.digest = digest_fold(self.digest, b);
    }

    fn outstanding(&self, tenant: u32) -> u32 {
        let queued = self.queues.get(&tenant).map_or(0, |q| q.len() as u32);
        queued + self.running_of.get(&tenant).copied().unwrap_or(0)
    }

    fn backlog(&self) -> u32 {
        self.queues.values().map(|q| q.len() as u32).sum()
    }

    fn terminal(&mut self, req: CampaignRequest, disposition: Disposition) {
        self.outcomes.insert(
            req.id,
            RequestOutcome {
                request: req,
                disposition,
            },
        );
    }

    fn arrive(
        &mut self,
        now: SimTime,
        req: CampaignRequest,
        fx: &mut htcsim::des::Effects<'_, ServiceEv>,
    ) {
        let ev = JobEvent::new(
            now,
            JobId(req.id),
            OwnerId(req.tenant),
            JobEventKind::Submitted,
        );
        let protections = self.cfg.enabled;
        // Admission ladder: breaker → quota → queue depth → backlog.
        if protections && self.cfg.breaker_threshold > 0 {
            let open = self
                .breakers
                .get(&req.tenant)
                .is_some_and(|b| b.is_open(now, self.cfg.breaker_threshold));
            if open {
                self.reject(now, req, RejectReason::CircuitOpen);
                return;
            }
        }
        if protections
            && self.cfg.tenant_quota > 0
            && self.outstanding(req.tenant) >= self.cfg.tenant_quota
        {
            self.reject(now, req, RejectReason::QuotaExceeded);
            return;
        }
        if protections && self.cfg.tenant_queue_depth > 0 {
            let depth = self.queues.get(&req.tenant).map_or(0, |q| q.len() as u32);
            if depth >= self.cfg.tenant_queue_depth {
                self.reject(now, req, RejectReason::QueueFull);
                return;
            }
        }
        if protections && self.cfg.shed_backlog > 0 && self.backlog() >= self.cfg.shed_backlog {
            self.log.push(ev);
            self.log.push(
                JobEvent::new(
                    now,
                    JobId(req.id),
                    OwnerId(req.tenant),
                    JobEventKind::ServiceShed,
                )
                .with_service(ServiceDetail::Shed(ShedReason::BacklogOverflow)),
            );
            self.stats.shed_backlog += 1;
            self.fold(3, req.id, ShedReason::BacklogOverflow as u64);
            self.terminal(req, Disposition::Shed(ShedReason::BacklogOverflow));
            return;
        }
        self.log.push(ev);
        self.log.push(JobEvent::new(
            now,
            JobId(req.id),
            OwnerId(req.tenant),
            JobEventKind::ServiceAdmitted,
        ));
        self.stats.admitted += 1;
        self.fold(1, req.id, now.as_secs());
        self.queues.entry(req.tenant).or_default().push_back(req);
        self.dispatch(now, fx);
    }

    fn reject(&mut self, now: SimTime, req: CampaignRequest, reason: RejectReason) {
        self.log.push(
            JobEvent::new(
                now,
                JobId(req.id),
                OwnerId(req.tenant),
                JobEventKind::ServiceRejected,
            )
            .with_service(ServiceDetail::Reject(reason)),
        );
        match reason {
            RejectReason::QuotaExceeded => self.stats.rejected_quota += 1,
            RejectReason::QueueFull => self.stats.rejected_queue += 1,
            RejectReason::CircuitOpen => self.stats.rejected_breaker += 1,
        }
        self.fold(2, req.id, reason as u64);
        self.terminal(req, Disposition::Rejected(reason));
    }

    /// Fill free slots from the queues. The pick sequence is a pure
    /// function of queue + DRR state, never of which event triggered
    /// the call — that is what makes simultaneous finishes on
    /// different executor lanes order-insensitive.
    fn dispatch(&mut self, now: SimTime, fx: &mut htcsim::des::Effects<'_, ServiceEv>) {
        let cap = self.cfg.max_concurrent.max(1) as usize;
        while self.inflight.len() < cap {
            let heads: BTreeMap<u32, u64> = self
                .queues
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(t, q)| {
                    let head = q.front().expect("nonempty queue");
                    (*t, full_work_s(head.class, head.replicas))
                })
                .collect();
            if heads.is_empty() {
                break;
            }
            let tenant = if self.cfg.enabled && self.cfg.fair_share > 0 {
                match self.drr.pick(&heads, self.cfg.fair_share as u64) {
                    Some(t) => t,
                    None => break,
                }
            } else {
                // Global FIFO: the tenant whose head arrived first.
                *self
                    .queues
                    .iter()
                    .filter(|(_, q)| !q.is_empty())
                    .min_by_key(|(_, q)| {
                        let h = q.front().expect("nonempty queue");
                        (h.submit, h.id)
                    })
                    .map(|(t, _)| t)
                    .expect("heads nonempty")
            };
            let req = self
                .queues
                .get_mut(&tenant)
                .and_then(|q| q.pop_front())
                .expect("picked tenant has a head");
            if self.queues.get(&tenant).is_some_and(|q| q.is_empty()) {
                self.drr.reset(tenant);
            }
            self.start(now, req, fx);
        }
    }

    /// Degrade ladder → deadline shed → artifact store → executor send.
    fn start(
        &mut self,
        now: SimTime,
        req: CampaignRequest,
        fx: &mut htcsim::des::Effects<'_, ServiceEv>,
    ) {
        let jid = JobId(req.id);
        let owner = OwnerId(req.tenant);
        // Backlog including this campaign drives the degradation ladder.
        let backlog = self.backlog() + 1;
        let degraded = if self.cfg.enabled && self.cfg.degrade_depth > 0 {
            if backlog >= 2 * self.cfg.degrade_depth {
                Some(DegradeMode::ReducedReplicas)
            } else if backlog >= self.cfg.degrade_depth {
                Some(DegradeMode::TruncatedKl)
            } else {
                None
            }
        } else {
            None
        };
        let truncated = degraded.is_some();
        let replicas = match degraded {
            Some(DegradeMode::ReducedReplicas) => (req.replicas / 2).max(1),
            _ => req.replicas,
        };
        // Per-artifact recompute costs under the chosen mode.
        let (dist_s, gf_s, factor_full) = artifact_costs_s(req.class);
        let factor_s = if truncated {
            factor_full / 2
        } else {
            factor_full
        };
        let kinds = [
            (ArtifactKind::DistanceMatrix, dist_s, false),
            (ArtifactKind::GfLibrary, gf_s, false),
            (ArtifactKind::Factor, factor_s, truncated),
        ];
        // Deadline check against the cheapest possible execution (all
        // artifacts hit, degraded replicas): if even that cannot land by
        // the deadline, shed instead of burning slots.
        if self.cfg.enabled && self.cfg.tenant_deadline_shed {
            let floor = replicas as u64 * REPLICA_COST_S;
            if now + floor > req.deadline {
                self.log.push(
                    JobEvent::new(now, jid, owner, JobEventKind::ServiceShed)
                        .with_service(ServiceDetail::Shed(ShedReason::DeadlineUnreachable)),
                );
                self.stats.shed_deadline += 1;
                self.fold(3, req.id, ShedReason::DeadlineUnreachable as u64);
                self.terminal(req, Disposition::Shed(ShedReason::DeadlineUnreachable));
                return;
            }
        }
        if let Some(mode) = degraded {
            self.log.push(
                JobEvent::new(now, jid, owner, JobEventKind::ServiceDegraded)
                    .with_service(ServiceDetail::Degrade(mode)),
            );
            match mode {
                DegradeMode::TruncatedKl => self.stats.degraded_kl += 1,
                DegradeMode::ReducedReplicas => self.stats.degraded_replicas += 1,
            }
            self.fold(4, req.id, mode as u64);
        }
        // Artifact phase: store hits cost nothing; misses compute and
        // share; quarantines recompute. A corrupt artifact served with
        // verification off poisons the campaign.
        let mut work_s = replicas as u64 * REPLICA_COST_S;
        let mut poisoned = false;
        for (kind, cost_s, kl) in kinds {
            if !(self.cfg.enabled && self.cfg.store_enabled) {
                work_s += cost_s;
                continue;
            }
            let digest = content_digest(kind, req.class, kl);
            let store = self.store.as_mut().expect("store enabled implies store");
            match store.lookup(digest, req.tenant) {
                Lookup::Hit { .. } => {
                    self.log.push(
                        JobEvent::new(now, jid, owner, JobEventKind::ArtifactHit)
                            .with_service(ServiceDetail::Artifact(kind)),
                    );
                    self.fold(5, req.id, kind as u64);
                }
                Lookup::ServedCorrupt => {
                    // Indistinguishable from a hit at serve time; the
                    // poison surfaces as a failed campaign.
                    self.log.push(
                        JobEvent::new(now, jid, owner, JobEventKind::ArtifactHit)
                            .with_service(ServiceDetail::Artifact(kind)),
                    );
                    self.fold(5, req.id, kind as u64);
                    poisoned = true;
                }
                Lookup::Quarantined => {
                    self.log.push(
                        JobEvent::new(now, jid, owner, JobEventKind::ArtifactQuarantined)
                            .with_service(ServiceDetail::Artifact(kind)),
                    );
                    self.fold(6, req.id, kind as u64);
                    work_s += cost_s;
                    let store = self.store.as_mut().expect("store enabled implies store");
                    store.insert(digest, artifact_bytes(kind, req.class), req.tenant);
                }
                Lookup::Miss => {
                    work_s += cost_s;
                    store.insert(digest, artifact_bytes(kind, req.class), req.tenant);
                }
            }
        }
        let work_s = work_s.max(1);
        let ok = !req.fails && !poisoned;
        self.log
            .push(JobEvent::new(now, jid, owner, JobEventKind::ExecuteStarted));
        self.fold(7, req.id, work_s);
        self.inflight.insert(
            req.id,
            InFlight {
                request: req,
                degraded,
                replicas,
                work_s,
            },
        );
        *self.running_of.entry(req.tenant).or_insert(0) += 1;
        let lane = 1 + req.tenant % self.exec_shards.max(1);
        fx.send(
            lane,
            0,
            ServiceEv::Start {
                id: req.id,
                work_s,
                ok,
            },
        );
    }

    fn finish(
        &mut self,
        now: SimTime,
        id: u64,
        ok: bool,
        fx: &mut htcsim::des::Effects<'_, ServiceEv>,
    ) {
        let Some(fl) = self.inflight.remove(&id) else {
            return;
        };
        let req = fl.request;
        if let Some(r) = self.running_of.get_mut(&req.tenant) {
            *r = r.saturating_sub(1);
        }
        let in_deadline = now <= req.deadline;
        if ok {
            self.log.push(
                JobEvent::new(now, JobId(id), OwnerId(req.tenant), JobEventKind::Completed)
                    .with_exit(0),
            );
            self.stats.completed += 1;
            if in_deadline {
                self.stats.goodput_s += fl.work_s;
            } else {
                self.stats.completed_late += 1;
                self.stats.badput_s += fl.work_s;
            }
            self.terminal(
                req,
                Disposition::Completed {
                    finish: now,
                    degraded: fl.degraded,
                    replicas: fl.replicas,
                    in_deadline,
                },
            );
        } else {
            self.log.push(
                JobEvent::new(now, JobId(id), OwnerId(req.tenant), JobEventKind::Failed)
                    .with_exit(1),
            );
            self.stats.failed += 1;
            self.stats.badput_s += fl.work_s;
            self.terminal(req, Disposition::Failed { finish: now });
        }
        let opened = self.breakers.entry(req.tenant).or_default().record(
            now,
            ok,
            self.cfg.breaker_threshold,
            self.cfg.breaker_probe_s,
        );
        if self.cfg.enabled && opened {
            self.stats.breaker_opens += 1;
        }
        // Commutative completion fold: simultaneous finishes on
        // different executor lanes land in lane order, which varies
        // with exec_shards; a wrapping sum is order-blind.
        let mut h = DIGEST_INIT;
        h = digest_fold(h, id);
        h = digest_fold(h, now.as_secs());
        h = digest_fold(h, ok as u64 + 1);
        self.finish_acc = self.finish_acc.wrapping_add(h);
        self.dispatch(now, fx);
    }

    fn decision_digest(&self) -> u64 {
        let mut h = digest_fold(self.digest, self.finish_acc);
        if let Some(store) = &self.store {
            h = digest_fold(h, store.content_fingerprint());
        }
        h
    }
}

/// Executor lane: echoes `Finish` after the campaign's work time.
#[derive(Debug, Default)]
struct Executor {
    digest: u64,
}

/// The two lane flavours behind one [`LaneModel`] impl.
enum Lane {
    Controller(Box<Controller>),
    Executor(Executor),
}

impl LaneModel for Lane {
    type Ev = ServiceEv;

    fn handle(
        &mut self,
        now: SimTime,
        ev: ServiceEv,
        fx: &mut htcsim::des::Effects<'_, ServiceEv>,
    ) {
        match self {
            Lane::Controller(c) => match ev {
                ServiceEv::Arrive(req) => c.arrive(now, req, fx),
                ServiceEv::Finish { id, ok } => c.finish(now, id, ok, fx),
                ServiceEv::Start { .. } => {}
            },
            Lane::Executor(x) => {
                if let ServiceEv::Start { id, work_s, ok } = ev {
                    x.digest = digest_fold(x.digest, id);
                    x.digest = digest_fold(x.digest, work_s);
                    fx.send(0, work_s, ServiceEv::Finish { id, ok });
                }
            }
        }
    }

    fn digest(&self) -> u64 {
        match self {
            Lane::Controller(c) => c.decision_digest(),
            Lane::Executor(x) => x.digest,
        }
    }
}

/// Run one multi-tenant service campaign: generate the request stream,
/// drive it through the front-end on the sharded DES, and roll up the
/// report. `exec_shards` sets the number of executor lanes (≥ 1);
/// `threads` is the fork-join budget (1 = sequential). Decisions,
/// outcomes and the rendered user log are invariant across both.
pub fn run_service(
    cfg: &ServiceConfig,
    wl: &WorkloadConfig,
    exec_shards: u32,
    epoch_s: u64,
    threads: usize,
) -> ServiceReport {
    let exec_shards = exec_shards.max(1);
    let stream = crate::request::request_stream(wl, cfg.tenants, cfg.max_concurrent);
    let expected = stream.len();
    let store = (cfg.enabled && cfg.store_enabled).then(|| {
        ArtifactStore::new(
            cfg.store_budget_mb,
            cfg.store_verify,
            wl.corrupt_permille,
            wl.seed,
        )
    });
    let controller = Controller {
        cfg: cfg.clone(),
        exec_shards,
        store,
        queues: BTreeMap::new(),
        drr: DeficitRoundRobin::new(),
        breakers: BTreeMap::new(),
        running_of: BTreeMap::new(),
        inflight: BTreeMap::new(),
        outcomes: BTreeMap::new(),
        stats: ServiceStats::default(),
        log: Vec::new(),
        digest: DIGEST_INIT,
        finish_acc: 0,
    };
    let mut lanes = vec![Lane::Controller(Box::new(controller))];
    for _ in 0..exec_shards {
        lanes.push(Lane::Executor(Executor::default()));
    }
    let mut engine = ShardedEngine::new(lanes, epoch_s);
    for req in stream {
        engine.seed_event(0, req.submit, ServiceEv::Arrive(req));
    }
    let er = engine.run_sharded(threads.max(1));
    // Taking the controller drops every lane heap and the executor lanes.
    let controller = engine
        .into_models()
        .find_map(|l| match l {
            Lane::Controller(c) => Some(c),
            Lane::Executor(_) => None,
        })
        .expect("lane 0 is the controller");
    let decision_digest = controller.decision_digest();
    let Controller {
        mut log,
        outcomes,
        stats,
        store,
        ..
    } = *controller;

    // Put the one log buffer in the mode-invariant (time, job, kind_rank)
    // order, in place. Lane 0 handles its events in time order, so the
    // buffer is already sorted by time: a stable sort of each equal-time
    // run on (job, kind_rank) gives the order a stable sort of the whole
    // buffer on (time, job, kind_rank) would, without that sort's
    // log-sized scratch copy. `from_events` checks the time order in
    // debug builds.
    for same_time in log.chunk_by_mut(|a, b| a.time == b.time) {
        same_time.sort_by_key(|e| (e.job, kind_rank(e.kind)));
    }
    let log = UserLog::from_events(log);

    let outcomes: Vec<RequestOutcome> = outcomes.into_values().collect();
    let mut per_tenant: BTreeMap<u32, TenantReport> = BTreeMap::new();
    let mut latencies: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for o in &outcomes {
        let t = per_tenant.entry(o.request.tenant).or_default();
        t.submitted += 1;
        match o.disposition {
            Disposition::Completed {
                finish,
                degraded,
                in_deadline,
                ..
            } => {
                t.completed += 1;
                if degraded.is_some() {
                    t.degraded += 1;
                }
                let work = full_work_s(o.request.class, o.request.replicas);
                if in_deadline {
                    // Per-tenant goodput uses offered work so the
                    // degraded arm is not credited for doing less.
                    t.goodput_s += work;
                }
                latencies
                    .entry(o.request.tenant)
                    .or_default()
                    .push(finish.as_secs() - o.request.submit.as_secs());
            }
            Disposition::Failed { .. } => t.failed += 1,
            Disposition::Rejected(_) => t.rejected += 1,
            Disposition::Shed(_) => t.shed += 1,
        }
    }
    for (tenant, mut ls) in latencies {
        ls.sort_unstable();
        let idx = (ls.len() - 1) * 99 / 100;
        if let Some(t) = per_tenant.get_mut(&tenant) {
            t.p99_latency_s = ls[idx];
        }
    }
    let store_stats = store.as_ref().map(|s| s.stats()).unwrap_or_default();
    ServiceReport {
        events: er.events,
        makespan: er.makespan,
        engine_digest: er.digest,
        decision_digest,
        unaccounted: expected - outcomes.len(),
        outcomes,
        stats,
        store: store_stats,
        per_tenant,
        log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl(seed: u64, overload: f64) -> WorkloadConfig {
        WorkloadConfig {
            seed,
            overload_x: overload,
            ..Default::default()
        }
    }

    #[test]
    fn every_request_terminates() {
        for cfg in [ServiceConfig::undefended(4), ServiceConfig::defended(4)] {
            let r = run_service(&cfg, &wl(3, 4.0), 2, 60, 1);
            assert_eq!(r.unaccounted, 0, "dropped-then-forgotten requests");
            assert_eq!(r.outcomes.len(), 120);
            for (i, o) in r.outcomes.iter().enumerate() {
                assert_eq!(o.request.id, i as u64, "outcomes in id order");
            }
        }
    }

    #[test]
    fn undefended_arm_completes_everything_eventually() {
        let r = run_service(&ServiceConfig::undefended(4), &wl(1, 2.0), 1, 60, 1);
        assert_eq!(r.stats.completed as usize, r.outcomes.len());
        assert_eq!(r.stats.failed, 0);
        assert!(
            r.stats.completed_late > 0,
            "2x overload must cause lateness"
        );
    }

    #[test]
    fn defended_arm_exercises_every_mechanism() {
        let cfg = ServiceConfig::defended(4);
        let w = WorkloadConfig {
            seed: 5,
            campaigns: 300,
            overload_x: 6.0,
            fail_permille: 150,
            corrupt_permille: 300,
            ..Default::default()
        };
        let r = run_service(&cfg, &w, 2, 60, 1);
        assert_eq!(r.unaccounted, 0);
        let s = &r.stats;
        assert!(s.admitted > 0 && s.completed > 0);
        assert!(
            s.rejected_quota + s.rejected_queue + s.rejected_breaker > 0,
            "admission control never fired: {s:?}"
        );
        assert!(
            s.shed_backlog + s.shed_deadline > 0,
            "load shedding never fired: {s:?}"
        );
        assert!(
            s.degraded_kl + s.degraded_replicas > 0,
            "degradation never fired: {s:?}"
        );
        assert!(s.breaker_opens > 0, "breakers never opened: {s:?}");
        assert!(r.store.hits > 0 && r.store.cross_tenant_hits > 0);
        assert!(r.store.quarantines > 0, "corruption never quarantined");
    }

    #[test]
    fn decisions_invariant_across_threads_and_exec_shards() {
        let cfg = ServiceConfig::defended(5);
        let w = WorkloadConfig {
            seed: 9,
            campaigns: 200,
            overload_x: 4.0,
            fail_permille: 100,
            corrupt_permille: 30,
            ..Default::default()
        };
        let base = run_service(&cfg, &w, 1, 60, 1);
        let keys: Vec<_> = base
            .log
            .events()
            .iter()
            .map(|e| (e.time, e.job, kind_rank(e.kind)))
            .collect();
        assert!(
            keys.windows(2).all(|k| k[0] <= k[1]),
            "log out of (time, job, kind_rank) order"
        );
        for (shards, threads) in [(1, 2), (2, 1), (2, 4), (4, 2), (7, 3)] {
            let r = run_service(&cfg, &w, shards, 60, threads);
            assert_eq!(
                r.decision_digest, base.decision_digest,
                "decision digest drifted at shards={shards} threads={threads}"
            );
            assert_eq!(r.outcomes, base.outcomes);
            assert_eq!(r.stats, base.stats);
            assert_eq!(
                htcsim::condor_log::to_condor_log(&r.log),
                htcsim::condor_log::to_condor_log(&base.log),
                "ULOG bytes drifted at shards={shards} threads={threads}"
            );
        }
        // Full engine digest is thread-invariant at fixed lane count.
        let a = run_service(&cfg, &w, 3, 60, 1);
        let b = run_service(&cfg, &w, 3, 60, 8);
        assert_eq!(a.engine_digest, b.engine_digest);
    }

    #[test]
    fn store_halves_work_under_shared_classes() {
        let on = ServiceConfig::defended(4);
        let off = ServiceConfig {
            store_enabled: false,
            ..on.clone()
        };
        let w = wl(2, 3.0);
        let r_on = run_service(&on, &w, 2, 60, 1);
        let r_off = run_service(&off, &w, 2, 60, 1);
        assert!(r_on.store.hits > 0);
        assert_eq!(r_off.store, StoreStats::default());
        // Shared artifacts strictly reduce total computed work.
        let work = |r: &ServiceReport| r.stats.goodput_s + r.stats.badput_s;
        assert!(
            work(&r_on) < work(&r_off),
            "store must shed recompute work: {} vs {}",
            work(&r_on),
            work(&r_off)
        );
    }

    #[test]
    fn goodput_fraction_bounded() {
        let r = run_service(&ServiceConfig::defended(4), &wl(11, 2.0), 2, 60, 2);
        let f = r.goodput_fraction();
        assert!((0.0..=1.0).contains(&f), "goodput fraction {f}");
        assert!(f > 0.0);
    }
}
