//! The cluster: a deterministic discrete-event simulation of job execution
//! on the pool, tying together the event queue, matchmaker, transfers and
//! user log. Workloads (DAGMans) plug in through [`WorkloadDriver`].
//!
//! Lifecycle of one job: `Idle → (negotiation match) → TransferringInput →
//! Running → TransferringOutput → Completed`. When the glidein underneath
//! disappears the job is evicted straight back to `Idle`. Every forward step
//! goes through `Cluster::advance` and every end of an attempt through
//! `Cluster::vacate`; both bump the job's serial, and a job event acts
//! only while the job still has the serial it was scheduled under.

use std::collections::{BTreeMap, HashMap, VecDeque};

use fdw_obs::metrics::Histogram;
use fdw_obs::Obs;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::{Event, EventQueue, JobStep, LaneId};
use crate::fault::{
    FaultConfig, FaultPlan, HoldReason, BLACK_HOLE_FAIL_S, EXIT_BLACK_HOLE, EXIT_CORRUPT,
};
use crate::federation::{Checkpoint, Federation, FederationConfig, FederationStats};
use crate::job::{JobEvent, JobEventKind, JobId, JobSpec, JobState, OwnerId, SubmitRequest};
use crate::pool::{MachineId, Pool, PoolConfig};
use crate::rand_util::exponential;
use crate::scoreboard::{DefenseConfig, DefenseStats, Scoreboard, CHECKSUM_REQUEUE_S};
use crate::time::SimTime;
use crate::transfer::StashCache;
use crate::userlog::UserLog;

/// A workload that submits jobs in reaction to cluster events (a DAGMan,
/// a bag of tasks, …).
pub trait WorkloadDriver {
    /// Called once at simulation start and after every event batch.
    /// `events` holds the job events since the previous call. Return new
    /// submissions (possibly empty).
    fn poll(&mut self, now: SimTime, events: &[JobEvent]) -> Vec<SubmitRequest>;

    /// Notification of the id assigned to a submission, in the order the
    /// requests were returned from [`Self::poll`].
    fn on_assigned(&mut self, _job: JobId, _name: &str) {}

    /// True when the workload has nothing more to submit and considers
    /// itself finished.
    fn is_done(&self) -> bool;

    /// Jobs the workload wants removed from the queue (`condor_rm`),
    /// drained after every poll. Used by speculative re-execution to
    /// cancel the losing duplicate; the default workload cancels
    /// nothing.
    fn cancellations(&mut self) -> Vec<JobId> {
        Vec::new()
    }
}

/// Cluster-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct ClusterConfig {
    /// Pool behaviour.
    pub pool: PoolConfig,
    /// Whether the Stash cache is active (ablation switch).
    pub cache_enabled: bool,
    /// Injected fault mix (all-zero by default: a well-behaved pool).
    pub faults: FaultConfig,
    /// Self-healing defense switches (both off by default).
    pub defense: DefenseConfig,
    /// Federated multi-pool layer (disabled by default: one flat pool).
    pub federation: FederationConfig,
    /// Physical event-queue shards. Lanes (control + one per pool) map
    /// onto shards by `lane % shards`; 0 is treated as 1. The pop order
    /// is pinned by [`crate::event::EventKey`], so every shard count
    /// yields byte-identical runs — this knob only changes heap layout.
    pub shards: usize,
}

impl ClusterConfig {
    /// Default configuration with the cache enabled.
    pub fn with_cache() -> Self {
        Self {
            cache_enabled: true,
            ..Default::default()
        }
    }
}

struct JobRuntime {
    spec: JobSpec,
    owner: OwnerId,
    state: JobState,
    machine: Option<MachineId>,
    /// Bumped by every state change ([`Cluster::vacate`],
    /// [`Cluster::advance`]); each job event carries the serial it was
    /// scheduled under and is dropped unless the job still has it.
    serial: u64,
    /// Submission attempt index of this job's name under this owner
    /// (0 for the first submission, 1 for the first DAGMan retry, …) —
    /// the salt that lets transient faults differ across retries.
    attempt: u64,
    /// Exit code the current execution attempt is fated to fail with
    /// (decided at execute start, delivered at ExecDone).
    pending_exit: Option<i32>,
    /// The last stage-in detected (and quarantined) a corrupted cache
    /// entry: the job must be held with a checksum-mismatch reason.
    corrupt_detected: bool,
    /// The last stage-in silently delivered a corrupted file (checksum
    /// verification off): the attempt is fated to fail.
    poisoned_input: bool,
    /// When the current stage-in started (span bookkeeping).
    stage_in_at: SimTime,
    /// When the current execution attempt started.
    exec_at: SimTime,
    /// When the current stage-out started.
    stage_out_at: SimTime,
    /// Checkpoint saved by the last preemption/outage (federated runs
    /// with checkpointing on; the next attempt resumes here).
    checkpoint: Option<Checkpoint>,
    /// Total work of the current attempt, work-seconds at speed 1.0.
    work_total: f64,
    /// Displaced by a pool fault (preemption, outage, drain); the next
    /// match checks whether it lands in a different pool (= migration).
    displaced: bool,
    /// Pool of the last machine this job matched.
    last_pool: Option<u32>,
    /// The current transfer already emitted its partition-stall event.
    stall_flagged: bool,
}

/// One negotiation-cycle snapshot of pool state — the "OSG's variable
/// resources" the paper's discussion blames for runtime volatility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolSample {
    /// Cycle time.
    pub time: SimTime,
    /// Total slots in the pool.
    pub total_slots: usize,
    /// Slots running our jobs.
    pub busy_slots: usize,
    /// Background-contention available fraction this cycle.
    pub avail_frac: f64,
    /// Idle jobs waiting in the queue.
    pub idle_jobs: usize,
}

/// The run's own counts of pool events, the only tally: the report reads
/// its totals here, and [`Cluster::write_metrics`] writes them once.
#[derive(Debug, Default)]
struct Tally {
    matches: u64,
    /// Jobs a negotiation cycle could not place (requirements unmet).
    holdbacks: u64,
    /// Attempts fated to fail (black hole, poisoned input, planned exit).
    faults_injected: u64,
    exec_failures: u64,
    evictions: u64,
    holds: u64,
    /// Holds per [`HoldReason::key`].
    holds_by_reason: BTreeMap<&'static str, u64>,
    releases: u64,
    /// Jobs removed by the workload (`condor_rm`).
    removals: u64,
    stage_in_s: Histogram,
    stage_out_s: Histogram,
}

/// Result of a cluster run.
#[derive(Debug)]
pub struct RunReport {
    /// Full event log.
    pub log: UserLog,
    /// Final simulated time.
    pub makespan: SimTime,
    /// Jobs completed.
    pub completed: usize,
    /// Total evictions observed.
    pub evictions: u64,
    /// Total hold (012) events observed.
    pub holds: u64,
    /// Total non-zero-exit terminations observed.
    pub exec_failures: u64,
    /// Stash cache hit rate over the run.
    pub cache_hit_rate: f64,
    /// Job-id to job-name mapping (for phase attribution).
    pub job_names: HashMap<JobId, String>,
    /// True if the run hit the simulated-time safety cap before the
    /// workload finished.
    pub timed_out: bool,
    /// Per-negotiation-cycle pool telemetry.
    pub pool_series: Vec<PoolSample>,
    /// Defense-action totals (blacklists, paroles, quarantines).
    pub defense: DefenseStats,
    /// Federation event totals (all-zero when no federation runs).
    pub federation: FederationStats,
}

impl RunReport {
    /// Convenience: name lookup closure for [`UserLog::jobs_csv`].
    pub fn name_of(&self) -> impl Fn(JobId) -> String + '_ {
        move |j| {
            self.job_names
                .get(&j)
                .cloned()
                .unwrap_or_else(|| "?".into())
        }
    }
}

/// The simulator.
pub struct Cluster {
    config: ClusterConfig,
    rng: StdRng,
    pool: Pool,
    queue: EventQueue,
    log: UserLog,
    cache: StashCache,
    jobs: HashMap<JobId, JobRuntime>,
    job_names: HashMap<JobId, String>,
    /// Idle queues per owner, FIFO.
    idle: HashMap<OwnerId, VecDeque<JobId>>,
    /// Round-robin cursor over owners for fair share.
    owner_order: Vec<OwnerId>,
    next_job: u64,
    now: SimTime,
    pending_events: Vec<JobEvent>,
    /// Rotating index into the free-slot list (spreads jobs over sites).
    slot_cursor: usize,
    /// Origin transfers currently in flight (uplink contention).
    active_origin: usize,
    /// Jobs whose in-flight stage-in used the origin (so eviction and
    /// completion release the counter correctly).
    origin_users: std::collections::HashSet<JobId>,
    pool_series: Vec<PoolSample>,
    /// The realised fault schedule (a no-op unless faults are enabled).
    plan: FaultPlan,
    /// Submission counts per (owner, job name) — the attempt index.
    attempt_counts: HashMap<(OwnerId, String), u64>,
    /// Per-machine reliability scoreboard (inert when defenses are off).
    scoreboard: Scoreboard,
    /// Federated multi-pool layer (None: classic single-pool run).
    federation: Option<Federation>,
    tally: Tally,
    /// Telemetry handle (disabled by default: zero overhead).
    obs: Obs,
}

impl Cluster {
    /// Create a cluster with the given configuration and seed.
    pub fn new(config: ClusterConfig, seed: u64) -> Self {
        let pool = Pool::new(config.pool.clone());
        let cache = if config.cache_enabled {
            StashCache::new()
        } else {
            StashCache::disabled()
        };
        let plan = FaultPlan::new(config.faults);
        let scoreboard = Scoreboard::new(config.defense);
        let federation = config
            .federation
            .enabled
            .then(|| Federation::new(config.federation));
        let queue = EventQueue::with_shards(config.shards);
        Self {
            config,
            rng: StdRng::seed_from_u64(seed ^ 0x4854_434f_4e44_4f52),
            pool,
            queue,
            log: UserLog::new(),
            cache,
            jobs: HashMap::new(),
            job_names: HashMap::new(),
            idle: HashMap::new(),
            owner_order: Vec::new(),
            next_job: 0,
            now: SimTime::ZERO,
            pending_events: Vec::new(),
            slot_cursor: 0,
            active_origin: 0,
            origin_users: std::collections::HashSet::new(),
            pool_series: Vec::new(),
            plan,
            attempt_counts: HashMap::new(),
            scoreboard,
            federation,
            tally: Tally::default(),
            obs: Obs::disabled(),
        }
    }

    /// Attach a telemetry handle. Spans land in category `pool` as they
    /// happen; `pool.*`, `xfer.*` and `cache.*` metrics are written once
    /// per run, from the run's tallies, when [`Cluster::run`] ends.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Run `driver` to completion (or to the simulated-time cap). Consumes
    /// the cluster and returns the report.
    pub fn run(mut self, driver: &mut dyn WorkloadDriver) -> RunReport {
        self.bootstrap();
        self.drive(driver);
        let mut timed_out = false;
        while let Some((t, ev)) = self.queue.pop() {
            if t.as_secs() > self.config.pool.max_sim_time_s {
                timed_out = true;
                break;
            }
            self.now = t;
            self.handle(ev);
            // Batch events that share this timestamp before polling the
            // driver, so it sees a consistent snapshot.
            while self.queue.peek_time() == Some(self.now) {
                let (_, ev) = self.queue.pop().unwrap();
                self.handle(ev);
            }
            self.drive(driver);
            if driver.is_done() && self.all_jobs_settled() {
                break;
            }
        }
        // Settle trust state at campaign end: a machine blacklisted right
        // at the end must not read as still-blacklisted in final metrics
        // once its parole timer elapsed.
        self.scoreboard.reckon(self.now.as_secs() as f64);
        let federation = self.federation.as_ref().map(|f| f.stats());
        let completed = self.log.completed_count();
        self.write_metrics(completed, federation);
        RunReport {
            makespan: self.log.makespan(),
            completed,
            evictions: self.tally.evictions,
            holds: self.tally.holds,
            exec_failures: self.tally.exec_failures,
            cache_hit_rate: self.cache.hit_rate(),
            log: self.log,
            job_names: self.job_names,
            timed_out,
            pool_series: self.pool_series,
            defense: self.scoreboard.stats(),
            federation: federation.unwrap_or_default(),
        }
    }

    /// Write the run's tallies to the registry once, at its end, with the
    /// keys per-event writes would leave: an event count once non-zero;
    /// cache and federation totals and the last cycle's gauges always.
    /// Stage times are whole seconds, so the merged sums are exact.
    fn write_metrics(&self, completed: usize, federation: Option<FederationStats>) {
        let (obs, t) = (&self.obs, &self.tally);
        let joined = self.pool.machines_joined();
        let defense = self.scoreboard.stats();
        for (name, n) in [
            ("pool.machines_joined", joined),
            (
                "pool.machines_departed",
                joined - self.pool.machine_count() as u64,
            ),
            ("pool.negotiation_cycles", self.pool_series.len() as u64),
            ("pool.matches", t.matches),
            ("pool.holdbacks", t.holdbacks),
            ("pool.faults_injected", t.faults_injected),
            ("pool.exec_failures", t.exec_failures),
            ("pool.completions", completed as u64),
            ("pool.evictions", t.evictions),
            ("pool.holds", t.holds),
            ("pool.releases", t.releases),
            ("pool.removals", t.removals),
            ("pool.defense.blacklists", defense.blacklists),
            ("pool.defense.paroles", defense.paroles),
            ("pool.defense.quarantines", defense.quarantines),
        ] {
            if n > 0 {
                obs.inc(name, n);
            }
        }
        for (reason, n) in &t.holds_by_reason {
            obs.inc(&format!("pool.holds.{reason}"), *n);
        }
        obs.inc("cache.hits", self.cache.hits());
        obs.inc("cache.misses", self.cache.misses());
        obs.inc("cache.quarantines", self.cache.quarantines());
        for (name, n) in federation.iter().flat_map(|f| f.counters()) {
            obs.inc(name, n);
        }
        if let Some(last) = self.pool_series.last() {
            obs.gauge("pool.total_slots", last.total_slots as f64);
            obs.gauge("pool.busy_slots", last.busy_slots as f64);
            obs.gauge("pool.avail_frac", last.avail_frac);
            obs.gauge("pool.idle_jobs", last.idle_jobs as f64);
        }
        obs.merge_histogram("xfer.stage_in_s", &t.stage_in_s);
        obs.merge_histogram("xfer.stage_out_s", &t.stage_out_s);
    }

    fn bootstrap(&mut self) {
        // Seed the pool at its steady-state size with staggered lifetimes.
        let groups = self.config.pool.target_slots / self.config.pool.glidein_slots;
        for _ in 0..groups.max(1) {
            let (id, life) = self.pool.add_machine(&mut self.rng);
            if let Some(f) = self.federation.as_mut() {
                f.assign_machine(id);
            }
            self.queue
                .push(self.now + life as u64, Event::MachineDepart(id));
        }
        // Pool-granularity fault windows are scheduled up front: they are
        // part of the (deterministic) world, not reactions to it.
        if self.federation.is_some() {
            let pf = self.config.faults.pool;
            if pf.outage_duration_s > 0.0 {
                self.queue.push(
                    SimTime(pf.outage_start_s as u64),
                    Event::PoolOutageStart(pf.outage_pool),
                );
                self.queue.push(
                    SimTime((pf.outage_start_s + pf.outage_duration_s) as u64),
                    Event::PoolOutageEnd(pf.outage_pool),
                );
            }
            if pf.partition_duration_s > 0.0 {
                self.queue.push(
                    SimTime(pf.partition_start_s as u64),
                    Event::PartitionStart(pf.partition_pool),
                );
                self.queue.push(
                    SimTime((pf.partition_start_s + pf.partition_duration_s) as u64),
                    Event::PartitionEnd(pf.partition_pool),
                );
            }
        }
        let interval = self.pool.config().arrival_interval_s();
        let next = exponential(&mut self.rng, interval) as u64;
        self.queue
            .push(self.now + next.max(1), Event::MachineArrive);
        self.queue.push(
            self.now + self.config.pool.negotiation_period_s,
            Event::Negotiate,
        );
    }

    fn all_jobs_settled(&self) -> bool {
        self.jobs.values().all(|j| {
            matches!(
                j.state,
                JobState::Completed | JobState::Removed | JobState::Failed
            )
        })
    }

    fn drive(&mut self, driver: &mut dyn WorkloadDriver) {
        let events = std::mem::take(&mut self.pending_events);
        let submissions = driver.poll(self.now, &events);
        for req in submissions {
            let id = self.submit(req);
            let name = self.job_names[&id].clone();
            driver.on_assigned(id, &name);
        }
        for job in driver.cancellations() {
            self.remove_job(job);
        }
    }

    /// `condor_rm`: remove a job from the queue wherever it is. A
    /// non-terminal job releases its resources and emits a 009 Removed
    /// event; terminal jobs are left untouched.
    fn remove_job(&mut self, job: JobId) {
        let Some(j) = self.jobs.get(&job) else {
            return;
        };
        if matches!(
            j.state,
            JobState::Completed | JobState::Removed | JobState::Failed
        ) {
            return;
        }
        let owner = j.owner;
        self.vacate(job, JobState::Removed);
        self.tally.removals += 1;
        self.obs
            .instant("pool", "remove", job.0, self.now.as_secs());
        self.emit(job, owner, JobEventKind::Removed);
    }

    fn submit(&mut self, req: SubmitRequest) -> JobId {
        let id = JobId(self.next_job);
        self.next_job += 1;
        self.job_names.insert(id, req.spec.name.clone());
        let attempt = {
            let n = self
                .attempt_counts
                .entry((req.owner, req.spec.name.clone()))
                .or_insert(0);
            let a = *n;
            *n += 1;
            a
        };
        self.jobs.insert(
            id,
            JobRuntime {
                spec: req.spec,
                owner: req.owner,
                state: JobState::Idle,
                machine: None,
                serial: 0,
                attempt,
                pending_exit: None,
                corrupt_detected: false,
                poisoned_input: false,
                stage_in_at: SimTime::ZERO,
                exec_at: SimTime::ZERO,
                stage_out_at: SimTime::ZERO,
                checkpoint: None,
                work_total: 0.0,
                displaced: false,
                last_pool: None,
                stall_flagged: false,
            },
        );
        if !self.owner_order.contains(&req.owner) {
            self.owner_order.push(req.owner);
        }
        self.idle.entry(req.owner).or_default().push_back(id);
        self.emit(id, req.owner, JobEventKind::Submitted);
        id
    }

    fn emit(&mut self, job: JobId, owner: OwnerId, kind: JobEventKind) {
        self.emit_event(JobEvent::new(self.now, job, owner, kind));
    }

    fn emit_event(&mut self, ev: JobEvent) {
        self.log.record(ev);
        self.pending_events.push(ev);
    }

    /// Feed one execution outcome into the reliability scoreboard and
    /// surface any resulting blacklist in the telemetry.
    fn record_exec_outcome(&mut self, machine: MachineId, exec_at: SimTime, failed: bool) {
        let before = self.scoreboard.stats().blacklists;
        self.scoreboard.record_exec(
            machine,
            self.now.as_secs() as f64,
            self.now.since(exec_at) as f64,
            failed,
        );
        if self.scoreboard.stats().blacklists > before {
            self.obs
                .instant("pool", "blacklist", machine.0, self.now.as_secs());
        }
    }

    /// Per-execution-attempt fault salt: distinct across DAGMan retries
    /// (`attempt`) and across in-queue reruns of the same JobId after an
    /// eviction or release (`serial`).
    fn fault_salt(attempt: u64, serial: u64) -> u64 {
        attempt.wrapping_mul(1_000_003).wrapping_add(serial)
    }

    /// Release the origin-uplink share a job's stage-in holds, if any.
    fn release_origin(&mut self, job: JobId) {
        if self.origin_users.remove(&job) {
            self.active_origin = self.active_origin.saturating_sub(1);
        }
    }

    /// End the job's current attempt and put the job in `state`: free
    /// its origin transfer and its slot, bump the serial so no event of
    /// the attempt is acted on, and forget the attempt's fated exit code
    /// and partition stall. Returns the machine the attempt held.
    fn vacate(&mut self, job: JobId, state: JobState) -> Option<MachineId> {
        self.release_origin(job);
        let j = self.jobs.get_mut(&job).expect("vacated job exists");
        j.state = state;
        j.serial += 1;
        j.pending_exit = None;
        j.stall_flagged = false;
        let machine = j.machine.take();
        if let Some(m) = machine {
            self.pool.release_slot(m);
        }
        machine
    }

    /// Move the job forward to `state`, a step that has not stalled yet,
    /// and bump its serial: events scheduled before the move are stale.
    fn advance(&mut self, job: JobId, state: JobState) {
        let j = self.jobs.get_mut(&job).expect("advanced job exists");
        j.state = state;
        j.serial += 1;
        j.stall_flagged = false;
    }

    /// Put an idle job back on its owner's queue. `displaced` marks a
    /// pool fault: the next match may count as a migration.
    fn requeue(&mut self, job: JobId, displaced: bool) {
        let j = self.jobs.get_mut(&job).expect("requeued job exists");
        j.displaced |= displaced;
        self.idle.entry(j.owner).or_default().push_back(job);
    }

    /// Jobs whose attempt is in flight on a machine `on` accepts, in job
    /// order so every replay ends them alike. A job holds a machine
    /// exactly while its attempt is in flight: [`Self::vacate`] takes it.
    fn in_flight(&self, on: impl Fn(MachineId) -> bool) -> Vec<JobId> {
        let mut ids: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.machine.is_some_and(&on))
            .map(|(id, _)| *id)
            .collect();
        ids.sort();
        ids
    }

    /// Put a job on hold: release its slot, emit a 012 event, and
    /// schedule the automatic release back to Idle.
    fn hold_job(&mut self, job: JobId, reason: HoldReason) {
        let owner = self.jobs[&job].owner;
        self.vacate(job, JobState::Held);
        self.count_hold(job, reason);
        // Checksum holds are a defense-internal re-queue (release, then
        // re-fetch from origin), far shorter than an operator-scale hold.
        let wait = if reason == HoldReason::ChecksumMismatch {
            CHECKSUM_REQUEUE_S
        } else {
            (self.config.faults.hold_release_s as u64).max(1)
        };
        self.schedule(self.now + wait, job, JobStep::Release);
        self.emit_event(JobEvent::new(self.now, job, owner, JobEventKind::Held).with_hold(reason));
    }

    /// Count a hold in the tally and mark it in the trace.
    fn count_hold(&mut self, job: JobId, reason: HoldReason) {
        self.tally.holds += 1;
        *self.tally.holds_by_reason.entry(reason.key()).or_default() += 1;
        let hold = format_args!("hold:{}", reason.key());
        self.obs.instant("pool", hold, job.0, self.now.as_secs());
    }

    /// Schedule `step` of the job's current attempt, under the job's
    /// current serial, on the logical lane of the job's machine: lane
    /// `pool + 1` under federation, lane 1 when unmatched or not
    /// federated. Control events (negotiation, glidein churn, pool fault
    /// windows) stay on [`LaneId::CONTROL`]. The lane is a pure function
    /// of sim state — never of the shard count — so the event merge
    /// order (and with it every golden fixture) is shard-invariant.
    /// Cross-lane interactions (migration re-matches, federation
    /// displacement) always pass through the sequential k-way merge
    /// point, which acts as the epoch barrier: a lane never observes
    /// another lane's state except through an event popped under the
    /// total order.
    fn schedule(&mut self, time: SimTime, job: JobId, step: JobStep) {
        let j = &self.jobs[&job];
        let pool = self
            .federation
            .as_ref()
            .zip(j.machine)
            .and_then(|(f, m)| f.pool_of(m));
        let ev = Event::Job {
            job,
            serial: j.serial,
            step,
        };
        self.queue
            .push_lane(time, LaneId(pool.map_or(1, |p| p + 1)), ev);
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::MachineArrive => {
                let (id, life) = self.pool.add_machine(&mut self.rng);
                if let Some(f) = self.federation.as_mut() {
                    f.assign_machine(id);
                }
                self.obs
                    .instant("pool", "machine_join", id.0, self.now.as_secs());
                self.queue
                    .push(self.now + (life as u64).max(60), Event::MachineDepart(id));
                let interval = self.pool.config().arrival_interval_s();
                let next = exponential(&mut self.rng, interval) as u64;
                self.queue
                    .push(self.now + next.max(1), Event::MachineArrive);
            }
            Event::MachineDepart(mid) => {
                if self.pool.remove_machine(mid).is_some() {
                    if let Some(f) = self.federation.as_mut() {
                        f.forget_machine(mid);
                    }
                    self.obs
                        .instant("pool", "machine_depart", mid.0, self.now.as_secs());
                    self.evict_machine_jobs(mid);
                }
            }
            Event::Negotiate => {
                self.negotiate();
                self.queue.push(
                    self.now + self.config.pool.negotiation_period_s,
                    Event::Negotiate,
                );
            }
            Event::Job { job, serial, step } => {
                // The one staleness check: an event scheduled for an
                // attempt that has since ended or moved on is dropped.
                if self.jobs.get(&job).map(|j| j.serial) != Some(serial) {
                    return;
                }
                match step {
                    JobStep::StageInDone => self.stage_in_done(job),
                    JobStep::ExecDone => self.exec_done(job),
                    JobStep::StageOutDone => self.stage_out_done(job),
                    JobStep::Release => self.release_job(job),
                    JobStep::Timeout => self.timeout_job(job),
                    JobStep::Preempt => self.preempt_job(job),
                }
            }
            Event::PoolOutageStart(pool) => {
                let Some(f) = self.federation.as_mut() else {
                    return;
                };
                f.set_down(pool, true);
                self.obs
                    .instant("pool", "pool_outage", pool as u64, self.now.as_secs());
                self.displace_pool_jobs(pool);
            }
            Event::PoolOutageEnd(pool) => {
                if let Some(f) = self.federation.as_mut() {
                    f.set_down(pool, false);
                }
            }
            Event::PartitionStart(pool) => {
                if let Some(f) = self.federation.as_mut() {
                    f.set_partitioned(pool, true);
                    self.obs
                        .instant("pool", "partition", pool as u64, self.now.as_secs());
                }
            }
            Event::PartitionEnd(pool) => {
                if let Some(f) = self.federation.as_mut() {
                    f.set_partitioned(pool, false);
                }
            }
        }
    }

    /// Input staging finished: start executing, unless a partition stalls
    /// the transfer or the fault plan or checksum defense holds the job.
    fn stage_in_done(&mut self, job: JobId) {
        self.release_origin(job);
        let drain = self.config.federation.failover_enabled;
        if self.partition_stall(job, drain, JobStep::StageInDone) {
            return;
        }
        let j = &self.jobs[&job];
        let salt = Self::fault_salt(j.attempt, j.serial);
        if self.plan.any_enabled() {
            if self.plan.stage_in_fails(&j.spec.name, salt) {
                self.hold_job(job, HoldReason::TransferInputError);
                return;
            }
            if let Some(reason) = self.plan.hold(&j.spec.name, salt) {
                self.hold_job(job, reason);
                return;
            }
        }
        // Verify-on-read checksum defense: the corrupted cache entry was
        // detected (and quarantined) during transfer; the job is held and
        // its release re-fetches from origin.
        if self.jobs[&job].corrupt_detected {
            self.hold_job(job, HoldReason::ChecksumMismatch);
            return;
        }
        self.advance(job, JobState::Running);
        let j = self.jobs.get_mut(&job).expect("dispatched job exists");
        j.exec_at = self.now;
        let stage_in_at = j.stage_in_at;
        let machine = j.machine;
        let speed = machine
            .and_then(|m| self.pool.machine(m))
            .map(|m| m.speed)
            .unwrap_or(1.0);
        // Always draw the attempt's work from the rng so resumed attempts
        // do not shift the stream other jobs see — both ablation arms
        // consume identical rng sequences.
        let sampled = j.spec.exec.sample(&mut self.rng);
        let checkpointing =
            self.config.federation.enabled && self.config.federation.checkpoint_enabled;
        let resumed = if checkpointing { j.checkpoint } else { None };
        let (work_total, remaining) = match resumed {
            Some(ck) => (ck.work_total, (ck.work_total - ck.work_done).max(1.0)),
            None => (sampled, sampled),
        };
        j.work_total = work_total;
        if resumed.is_some() {
            if let Some(f) = self.federation.as_mut() {
                f.record_resume();
            }
            self.obs
                .instant("pool", "resume", job.0, self.now.as_secs());
        }
        let mut dur = (remaining / speed).max(1.0);
        // A black-hole machine kills the job fast; otherwise the attempt's
        // fate is drawn from the fault plan.
        if machine
            .map(|m| self.scoreboard.black_hole_kills(&self.plan, m))
            .unwrap_or(false)
        {
            j.pending_exit = Some(EXIT_BLACK_HOLE);
            dur = dur.min(BLACK_HOLE_FAIL_S);
        } else if j.poisoned_input {
            // A silently corrupted input (checksums off): the job burns its
            // full runtime, then fails when the bad payload surfaces.
            j.pending_exit = Some(EXIT_CORRUPT);
        } else {
            j.pending_exit = self.plan.exec_exit(&j.spec.name, salt);
        }
        self.tally.faults_injected += u64::from(j.pending_exit.is_some());
        let owner = j.owner;
        let timeout = j.spec.timeout_s;
        // Spot reclamation: attempts on the elastic cloud pool may be
        // preempted partway through. Drawn statelessly so both ablation
        // arms see the identical reclamation.
        let cloud = self.federation.as_ref().is_some_and(|f| {
            machine
                .and_then(|m| f.pool_of(m))
                .is_some_and(|p| f.is_cloud(p))
        });
        let preempt_after = (cloud && self.plan.preempts(&j.spec.name, salt))
            .then(|| (self.plan.preempt_frac(&j.spec.name, salt) * dur).max(1.0))
            .filter(|&delay| delay < dur);
        if timeout > 0.0 && dur > timeout {
            // The attempt will not finish in time: the wall-time policy
            // fires first (periodic_hold → periodic_remove).
            self.schedule(self.now + timeout as u64, job, JobStep::Timeout);
        } else {
            self.schedule(self.now + dur as u64, job, JobStep::ExecDone);
        }
        if let Some(delay) = preempt_after {
            self.schedule(self.now + delay as u64, job, JobStep::Preempt);
        }
        self.obs.span(
            "pool",
            "stage_in",
            job.0,
            stage_in_at.as_secs(),
            self.now.as_secs(),
        );
        let stage_in_s = self.now.since(stage_in_at) as f64;
        self.tally.stage_in_s.observe(stage_in_s);
        self.emit(job, owner, JobEventKind::ExecuteStarted);
    }

    /// The executable finished: fail the job with its fated exit code
    /// (no output to stage back), or start staging its output back.
    fn exec_done(&mut self, job: JobId) {
        let j = self.jobs.get_mut(&job).expect("dispatched job exists");
        let (owner, exec_at, machine) = (j.owner, j.exec_at, j.machine);
        if let Some(code) = j.pending_exit.take() {
            self.vacate(job, JobState::Failed);
            if let Some(m) = machine {
                self.record_exec_outcome(m, exec_at, true);
            }
            self.tally.exec_failures += 1;
            self.obs
                .span("pool", "exec", job.0, exec_at.as_secs(), self.now.as_secs());
            self.emit_event(
                JobEvent::new(self.now, job, owner, JobEventKind::Failed).with_exit(code),
            );
            return;
        }
        self.advance(job, JobState::TransferringOutput);
        let j = self.jobs.get_mut(&job).expect("dispatched job exists");
        j.stage_out_at = self.now;
        let dur = self.cache.stage_out_secs(&j.spec);
        if let Some(m) = machine {
            self.record_exec_outcome(m, exec_at, false);
        }
        self.schedule(self.now + (dur as u64).max(1), job, JobStep::StageOutDone);
        self.obs
            .span("pool", "exec", job.0, exec_at.as_secs(), self.now.as_secs());
    }

    /// Output staging finished: the job completes, unless the fault plan
    /// holds it or a partition stalls the transfer. The work is already
    /// done, so a stalled stage-out never drains: with or without
    /// failover it keeps its slot and retries once the partition heals.
    fn stage_out_done(&mut self, job: JobId) {
        if self.partition_stall(job, false, JobStep::StageOutDone) {
            return;
        }
        let j = &self.jobs[&job];
        let (owner, stage_out_at) = (j.owner, j.stage_out_at);
        let salt = Self::fault_salt(j.attempt, j.serial);
        if self.plan.any_enabled() && self.plan.stage_out_fails(&j.spec.name, salt) {
            self.hold_job(job, HoldReason::TransferOutputError);
            return;
        }
        let machine = self.vacate(job, JobState::Completed);
        // A completion on a pool closes (or keeps closed) its circuit
        // breaker.
        if let Some(f) = self.federation.as_mut() {
            if let Some(p) = machine.and_then(|m| f.pool_of(m)) {
                f.record_success(p);
            }
        }
        self.obs.span(
            "pool",
            "stage_out",
            job.0,
            stage_out_at.as_secs(),
            self.now.as_secs(),
        );
        let stage_out_s = self.now.since(stage_out_at) as f64;
        self.tally.stage_out_s.observe(stage_out_s);
        self.emit_event(JobEvent::new(self.now, job, owner, JobEventKind::Completed).with_exit(0));
    }

    /// The hold period expired: the job goes back to Idle.
    fn release_job(&mut self, job: JobId) {
        self.advance(job, JobState::Idle);
        self.requeue(job, false);
        let owner = self.jobs[&job].owner;
        self.tally.releases += 1;
        self.obs
            .instant("pool", "release", job.0, self.now.as_secs());
        self.emit(job, owner, JobEventKind::Released);
    }

    /// The attempt hit its wall-time limit: periodic_hold fires, then
    /// periodic_remove reaps the held job. The queue sees 012 followed by
    /// removal, and DAGMan decides whether the node retries.
    fn timeout_job(&mut self, job: JobId) {
        let j = &self.jobs[&job];
        let (owner, exec_at) = (j.owner, j.exec_at);
        self.vacate(job, JobState::Removed);
        self.obs
            .span("pool", "exec", job.0, exec_at.as_secs(), self.now.as_secs());
        self.count_hold(job, HoldReason::WallTimeExceeded);
        self.emit_event(
            JobEvent::new(self.now, job, owner, JobEventKind::Held)
                .with_hold(HoldReason::WallTimeExceeded),
        );
        self.emit(job, owner, JobEventKind::Removed);
    }

    /// Spot reclamation kills a running cloud-pool attempt. It consumes
    /// no DAGMan retry: the fault domain is the pool, not the job. Save a
    /// checkpoint (when enabled) and requeue for migration.
    fn preempt_job(&mut self, job: JobId) {
        self.checkpoint_job(job);
        let j = &self.jobs[&job];
        let (owner, exec_at) = (j.owner, j.exec_at);
        let machine = self.vacate(job, JobState::Idle);
        self.requeue(job, true);
        let now_s = self.now.as_secs() as f64;
        if let Some(f) = self.federation.as_mut() {
            f.record_preemption();
            if let Some(p) = machine.and_then(|m| f.pool_of(m)) {
                f.record_failure(p, now_s);
            }
        }
        self.obs
            .span("pool", "exec", job.0, exec_at.as_secs(), self.now.as_secs());
        self.obs
            .instant("pool", "preempt", job.0, self.now.as_secs());
        self.emit(job, owner, JobEventKind::Preempted);
    }

    /// Save a phase-aware checkpoint for a running job about to be
    /// displaced. Progress is quantized *down* to the checkpoint interval
    /// (only durably recorded phases survive, mirroring per-rupture-batch
    /// checkpoint files) and never regresses below a prior checkpoint.
    fn checkpoint_job(&mut self, job: JobId) {
        let fcfg = self.config.federation;
        if !(fcfg.enabled && fcfg.checkpoint_enabled) {
            return;
        }
        let Some(j) = self.jobs.get_mut(&job) else {
            return;
        };
        if j.state != JobState::Running {
            return;
        }
        let speed = j
            .machine
            .and_then(|m| self.pool.machine(m))
            .map(|m| m.speed)
            .unwrap_or(1.0);
        let prior = j.checkpoint.map(|c| c.work_done).unwrap_or(0.0);
        let raw = prior + self.now.since(j.exec_at) as f64 * speed;
        let interval = fcfg.checkpoint_interval_s.max(1.0);
        let saved = ((raw / interval).floor() * interval)
            .min(j.work_total)
            .max(prior);
        j.checkpoint = Some(Checkpoint {
            work_total: j.work_total,
            work_done: saved,
        });
        if saved > prior {
            if let Some(f) = self.federation.as_mut() {
                f.record_checkpoint();
            }
            self.obs
                .instant("pool", "checkpoint", job.0, self.now.as_secs());
        }
    }

    /// Stall the job's transfer when a network partition cuts its pool
    /// off from the submit node; false when it is not cut off. The first
    /// stall of a transfer counts as a failure of the pool and emits a
    /// 023 event. With `drain` (failover on) the job gives its slot back
    /// and re-queues to re-match in a healthy pool; otherwise `retry`
    /// fires once the partition heals and the transfer waits on its slot.
    fn partition_stall(&mut self, job: JobId, drain: bool, retry: JobStep) -> bool {
        let machine = self.jobs[&job].machine;
        let Some(pool) = self.federation.as_ref().and_then(|f| {
            machine
                .and_then(|m| f.pool_of(m))
                .filter(|&p| f.is_partitioned(p))
        }) else {
            return false;
        };
        let j = self.jobs.get_mut(&job).expect("stalled job exists");
        let owner = j.owner;
        if !std::mem::replace(&mut j.stall_flagged, true) {
            let f = self.federation.as_mut().expect("federated");
            f.record_partition_stall();
            f.record_failure(pool, self.now.as_secs() as f64);
            self.obs
                .instant("pool", "partition_stall", job.0, self.now.as_secs());
            self.emit(job, owner, JobEventKind::PartitionStalled);
        }
        if drain {
            self.vacate(job, JobState::Idle);
            self.requeue(job, true);
            self.federation.as_mut().expect("federated").record_drain();
        } else {
            let pf = self.config.faults.pool;
            let end = (pf.partition_start_s + pf.partition_duration_s) as u64 + 1;
            self.schedule(SimTime(end.max(self.now.as_secs() + 1)), job, retry);
        }
        true
    }

    /// Displace every in-flight job on `pool`'s machines when its outage
    /// window opens: running jobs checkpoint first (when enabled) and all
    /// victims return to Idle — the fault domain is the pool, not the job.
    fn displace_pool_jobs(&mut self, pool: u32) {
        let f = self.federation.as_ref().expect("outages are federated");
        let victims = self.in_flight(|m| f.pool_of(m) == Some(pool));
        let now_s = self.now.as_secs() as f64;
        for id in victims {
            self.checkpoint_job(id);
            self.vacate(id, JobState::Idle);
            self.requeue(id, true);
            if let Some(f) = self.federation.as_mut() {
                f.record_failure(pool, now_s);
            }
            self.obs
                .instant("pool", "outage_evict", id.0, self.now.as_secs());
            self.emit(id, self.jobs[&id].owner, JobEventKind::PoolOutage);
        }
    }

    /// Evict every in-flight job of a departed machine back to the queue.
    fn evict_machine_jobs(&mut self, mid: MachineId) {
        for id in self.in_flight(|m| m == mid) {
            let owner = self.jobs[&id].owner;
            self.tally.evictions += 1;
            self.obs
                .instant("pool", "eviction", id.0, self.now.as_secs());
            self.vacate(id, JobState::Idle);
            self.requeue(id, false);
            self.emit(id, owner, JobEventKind::Evicted);
        }
    }

    /// One negotiation cycle: advance background contention, then match
    /// idle jobs to free slots round-robin across owners (fair share),
    /// honouring per-slot memory/disk requirements (ClassAd matching).
    fn negotiate(&mut self) {
        self.pool.step_avail(&mut self.rng);
        let idle_jobs: usize = self.idle.values().map(|q| q.len()).sum();
        self.pool_series.push(PoolSample {
            time: self.now,
            total_slots: self.pool.total_slots(),
            busy_slots: self.pool.busy_slots(),
            avail_frac: self.pool.avail_frac(),
            idle_jobs,
        });
        // Federated burst gate: evaluated every cycle (even when the
        // budget is exhausted) so the elastic cloud's spin-up clock
        // advances deterministically with idle pressure.
        let gate = self
            .federation
            .as_mut()
            .map(|f| f.gate(self.now.as_secs() as f64, idle_jobs));
        let capacity = self.pool.user_capacity();
        let busy = self.pool.busy_slots();
        let mut budget = capacity.saturating_sub(busy);
        if budget == 0 {
            return;
        }
        let mut free = self.pool.free_slots();
        // Drop slots on pools the burst controller refuses this cycle
        // (outage, partition, open breaker, cloud not yet spun up).
        if let (Some(gate), Some(f)) = (&gate, self.federation.as_ref()) {
            free.retain(|e| f.pool_of(e.0).map(|p| gate[p as usize]).unwrap_or(true));
        }
        if free.is_empty() {
            return;
        }
        // Scoreboard matchmaking: blacklisted machines are filtered out,
        // suspect machines (paroled or over the EWMA threshold) fall to a
        // second tier matched only when no trusted machine fits. With the
        // scoreboard off this is the identity.
        let (mut good, split) = self
            .scoreboard
            .admit(self.now.as_secs() as f64, free, |e| e.0);
        let mut suspect = good.split_off(split);
        if good.is_empty() && suspect.is_empty() {
            return;
        }
        // Round-robin across owners that have idle jobs. Jobs whose
        // requirements no current slot satisfies go to a hold-back buffer
        // so the cycle terminates; they return to the queue afterwards.
        // BTreeMap, not HashMap: the buffer is drained back into the idle
        // queues below, and that walk must not depend on hasher state
        // (fdwlint `unordered-hash-iteration`).
        let owners: Vec<OwnerId> = self.owner_order.clone();
        let mut held: BTreeMap<OwnerId, Vec<JobId>> = BTreeMap::new();
        let mut progressed = true;
        while budget > 0 && progressed {
            progressed = false;
            for owner in &owners {
                if budget == 0 {
                    break;
                }
                let Some(q) = self.idle.get_mut(owner) else {
                    continue;
                };
                let Some(job) = q.pop_front() else { continue };
                // Stale entries (evicted jobs re-queued twice, removed
                // jobs) are skipped.
                let valid = self
                    .jobs
                    .get(&job)
                    .map(|j| j.state == JobState::Idle)
                    .unwrap_or(false);
                if !valid {
                    progressed = true;
                    continue;
                }
                // Pick the next machine with a free slot satisfying the
                // job's requirements (rotating cursor spreads jobs over
                // sites so the cache model is exercised).
                let (need_mem, need_disk) = {
                    let spec = &self.jobs[&job].spec;
                    (spec.memory_mb, spec.disk_mb)
                };
                let picked = self
                    .pick_slot(&mut good, need_mem, need_disk)
                    .or_else(|| self.pick_slot(&mut suspect, need_mem, need_disk));
                let Some((mid, site, ..)) = picked else {
                    // Requirements unmatched this cycle: hold the job back.
                    self.tally.holdbacks += 1;
                    held.entry(*owner).or_default().push(job);
                    progressed = true;
                    continue;
                };
                self.pool.claim_slot(mid);
                self.advance(job, JobState::TransferringInput);
                let j = self.jobs.get_mut(&job).expect("valid job");
                j.machine = Some(mid);
                j.stage_in_at = self.now;
                // A displaced job landing in a different pool than its
                // last attempt is a cross-pool migration.
                let mut migrated_to: Option<u32> = None;
                if let Some(f) = self.federation.as_mut() {
                    if let Some(pool) = f.pool_of(mid) {
                        if j.displaced && j.last_pool.is_some() && j.last_pool != Some(pool) {
                            f.record_migration();
                            migrated_to = Some(pool);
                        }
                        j.last_pool = Some(pool);
                    }
                    j.displaced = false;
                }
                let staged = self.cache.stage_in_verified(
                    site,
                    &j.spec,
                    self.active_origin + 1,
                    &self.plan,
                    self.config.defense.checksum_enabled,
                );
                j.corrupt_detected = staged.quarantined > 0;
                j.poisoned_input = staged.poisoned;
                if staged.used_origin {
                    self.active_origin += 1;
                    self.origin_users.insert(job);
                }
                let owner = j.owner;
                for _ in 0..staged.quarantined {
                    self.scoreboard.record_quarantine();
                }
                if staged.quarantined > 0 {
                    self.obs
                        .instant("pool", "quarantine", job.0, self.now.as_secs());
                }
                self.schedule(
                    self.now + (staged.secs as u64).max(1),
                    job,
                    JobStep::StageInDone,
                );
                if let Some(pool) = migrated_to {
                    self.obs
                        .instant("pool", "migrate", job.0, self.now.as_secs());
                    self.emit_event(
                        JobEvent::new(self.now, job, owner, JobEventKind::Migrated).with_pool(pool),
                    );
                }
                self.emit(job, owner, JobEventKind::Matched);
                self.tally.matches += 1;
                budget -= 1;
                progressed = true;
            }
        }
        // Held-back jobs return to the front of their queues in owner
        // order, preserving FIFO order within each owner for the next
        // cycle.
        for (owner, held_jobs) in held {
            let q = self.idle.entry(owner).or_default();
            for job in held_jobs.into_iter().rev() {
                q.push_front(job);
            }
        }
    }

    /// Take one free slot from `free` that satisfies the memory/disk
    /// requirements, decrementing its count; rotates the starting machine
    /// between calls.
    fn pick_slot(
        &mut self,
        free: &mut Vec<(MachineId, crate::transfer::SiteId, f64, usize, u32, u32)>,
        need_mem: u32,
        need_disk: u32,
    ) -> Option<(MachineId, crate::transfer::SiteId, f64, usize, u32, u32)> {
        // Drop exhausted entries eagerly.
        free.retain(|e| e.3 > 0);
        if free.is_empty() {
            return None;
        }
        let n = free.len();
        for probe in 0..n {
            let idx = (self.slot_cursor + probe) % n;
            if free[idx].4 >= need_mem && free[idx].5 >= need_disk {
                free[idx].3 -= 1;
                self.slot_cursor = self.slot_cursor.wrapping_add(probe + 1);
                return Some(free[idx]);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bag-of-tasks driver: submit `n` jobs at t=0, done when all
    /// completions observed.
    struct BagDriver {
        to_submit: Vec<JobSpec>,
        completed: usize,
        total: usize,
        assigned: Vec<(JobId, String)>,
    }

    impl BagDriver {
        fn new(specs: Vec<JobSpec>) -> Self {
            let total = specs.len();
            Self {
                to_submit: specs,
                completed: 0,
                total,
                assigned: Vec::new(),
            }
        }
    }

    impl WorkloadDriver for BagDriver {
        fn poll(&mut self, _now: SimTime, events: &[JobEvent]) -> Vec<SubmitRequest> {
            self.completed += events
                .iter()
                .filter(|e| e.kind == JobEventKind::Completed)
                .count();
            std::mem::take(&mut self.to_submit)
                .into_iter()
                .map(|spec| SubmitRequest {
                    owner: OwnerId(0),
                    spec,
                })
                .collect()
        }

        fn on_assigned(&mut self, job: JobId, name: &str) {
            self.assigned.push((job, name.to_string()));
        }

        fn is_done(&self) -> bool {
            self.to_submit.is_empty() && self.completed >= self.total
        }
    }

    fn quick_config() -> ClusterConfig {
        ClusterConfig {
            pool: PoolConfig {
                target_slots: 64,
                glidein_slots: 8,
                avail_mean: 0.9,
                avail_sigma: 0.05,
                ..Default::default()
            },
            ..ClusterConfig::with_cache()
        }
    }

    #[test]
    fn bag_of_tasks_completes() {
        let specs: Vec<JobSpec> = (0..40)
            .map(|i| JobSpec::fixed(format!("task.{i}"), 120.0))
            .collect();
        let mut driver = BagDriver::new(specs);
        let report = Cluster::new(quick_config(), 1).run(&mut driver);
        assert!(!report.timed_out);
        assert_eq!(report.completed, 40);
        assert_eq!(driver.assigned.len(), 40);
        assert_eq!(driver.assigned[0].1, "task.0");
        // Everything completed after t=0 with queueing + transfer overhead.
        assert!(report.makespan.as_secs() > 120);
    }

    #[test]
    fn runs_are_deterministic() {
        let mk = || {
            let specs: Vec<JobSpec> = (0..25)
                .map(|i| JobSpec::fixed(format!("t.{i}"), 200.0))
                .collect();
            let mut d = BagDriver::new(specs);
            Cluster::new(quick_config(), 99).run(&mut d).makespan
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            let specs: Vec<JobSpec> = (0..25)
                .map(|i| {
                    let mut s = JobSpec::fixed(format!("t.{i}"), 200.0);
                    s.exec = crate::job::ExecModel::LogNormalMedian {
                        median_s: 200.0,
                        sigma: 0.3,
                    };
                    s
                })
                .collect();
            let mut d = BagDriver::new(specs);
            Cluster::new(quick_config(), seed).run(&mut d).makespan
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn capacity_limits_parallelism() {
        // 100 jobs of 300 s on a 16-slot pool (avail ~1) takes at least
        // ceil(100/16)*300 s of pure execution.
        let cfg = ClusterConfig {
            pool: PoolConfig {
                target_slots: 16,
                glidein_slots: 8,
                avail_mean: 1.0,
                avail_sigma: 0.0,
                glidein_lifetime_s: 1e9, // no churn
                ..Default::default()
            },
            ..ClusterConfig::with_cache()
        };
        let specs: Vec<JobSpec> = (0..100)
            .map(|i| JobSpec::fixed(format!("t.{i}"), 300.0))
            .collect();
        let mut d = BagDriver::new(specs);
        let report = Cluster::new(cfg, 5).run(&mut d);
        assert_eq!(report.completed, 100);
        assert!(
            report.makespan.as_secs() >= 7 * 300,
            "makespan {} too fast for 16 slots",
            report.makespan
        );
    }

    #[test]
    fn evictions_occur_with_fast_churn_and_jobs_still_finish() {
        let cfg = ClusterConfig {
            pool: PoolConfig {
                target_slots: 32,
                glidein_slots: 4,
                glidein_lifetime_s: 600.0, // 10-minute glideins
                avail_mean: 1.0,
                avail_sigma: 0.0,
                ..Default::default()
            },
            ..ClusterConfig::with_cache()
        };
        let specs: Vec<JobSpec> = (0..60)
            .map(|i| JobSpec::fixed(format!("t.{i}"), 500.0))
            .collect();
        let mut d = BagDriver::new(specs);
        let report = Cluster::new(cfg, 3).run(&mut d);
        assert_eq!(report.completed, 60, "all jobs eventually complete");
        assert!(report.evictions > 0, "short glideins must evict some jobs");
        // Each eviction appears in the log.
        let evs = report
            .log
            .events()
            .iter()
            .filter(|e| e.kind == JobEventKind::Evicted)
            .count() as u64;
        assert_eq!(evs, report.evictions);
    }

    #[test]
    fn cache_hits_accumulate_for_shared_inputs() {
        use crate::job::InputFile;
        let mut specs = Vec::new();
        for i in 0..30 {
            let mut s = JobSpec::fixed(format!("w.{i}"), 60.0);
            s.inputs.push(InputFile {
                name: "gf.mseed".into(),
                size_mb: 900.0,
                cacheable: true,
            });
            specs.push(s);
        }
        let cfg = ClusterConfig {
            pool: PoolConfig {
                target_slots: 32,
                glidein_slots: 8,
                n_sites: 2, // few sites → high hit rate
                avail_mean: 1.0,
                avail_sigma: 0.0,
                glidein_lifetime_s: 1e9,
                ..Default::default()
            },
            ..ClusterConfig::with_cache()
        };
        let mut d = BagDriver::new(specs);
        let report = Cluster::new(cfg, 4).run(&mut d);
        assert!(
            report.cache_hit_rate > 0.5,
            "hit rate {}",
            report.cache_hit_rate
        );
    }

    #[test]
    fn fair_share_across_owners() {
        // Two owners, each with 40 jobs, on a tight pool: completions
        // should interleave rather than run owner 0 to exhaustion first.
        struct TwoOwner {
            submitted: bool,
            done: usize,
            first_30: Vec<OwnerId>,
        }
        impl WorkloadDriver for TwoOwner {
            fn poll(&mut self, _now: SimTime, events: &[JobEvent]) -> Vec<SubmitRequest> {
                for e in events {
                    if e.kind == JobEventKind::Completed {
                        self.done += 1;
                        if self.first_30.len() < 30 {
                            self.first_30.push(e.owner);
                        }
                    }
                }
                if self.submitted {
                    return Vec::new();
                }
                self.submitted = true;
                let mut v = Vec::new();
                for owner in [OwnerId(0), OwnerId(1)] {
                    for i in 0..40 {
                        v.push(SubmitRequest {
                            owner,
                            spec: JobSpec::fixed(format!("o{}.{i}", owner.0), 300.0),
                        });
                    }
                }
                v
            }
            fn is_done(&self) -> bool {
                self.submitted && self.done >= 80
            }
        }
        let cfg = ClusterConfig {
            pool: PoolConfig {
                target_slots: 8,
                glidein_slots: 8,
                avail_mean: 1.0,
                avail_sigma: 0.0,
                glidein_lifetime_s: 1e9,
                ..Default::default()
            },
            ..ClusterConfig::with_cache()
        };
        let mut d = TwoOwner {
            submitted: false,
            done: 0,
            first_30: Vec::new(),
        };
        let report = Cluster::new(cfg, 8).run(&mut d);
        assert_eq!(report.completed, 80);
        let owner1_share = d.first_30.iter().filter(|o| o.0 == 1).count();
        assert!(
            (10..=20).contains(&owner1_share),
            "fair share violated: owner 1 got {owner1_share}/30 of early completions"
        );
    }

    #[test]
    fn requirements_matching_gates_big_jobs() {
        // A 16 GB job can only match big slots; with none in the pool it
        // waits forever, with an all-big pool it completes.
        let mk_cfg = |big: f64| ClusterConfig {
            pool: PoolConfig {
                target_slots: 16,
                glidein_slots: 8,
                avail_mean: 1.0,
                avail_sigma: 0.0,
                glidein_lifetime_s: 1e9,
                big_slot_fraction: big,
                max_sim_time_s: 4 * 3600,
                ..Default::default()
            },
            ..ClusterConfig::with_cache()
        };
        let mk_spec = || {
            let mut s = JobSpec::fixed("matrix.0", 120.0);
            s.memory_mb = 16_384;
            s.disk_mb = 16_384;
            s
        };
        let mut d = BagDriver::new(vec![mk_spec()]);
        let starved = Cluster::new(mk_cfg(0.0), 1).run(&mut d);
        assert!(starved.timed_out, "no slot can ever match a 16 GB request");
        assert_eq!(starved.completed, 0);

        let mut d = BagDriver::new(vec![mk_spec()]);
        let served = Cluster::new(mk_cfg(1.0), 1).run(&mut d);
        assert!(!served.timed_out);
        assert_eq!(served.completed, 1);

        // Small jobs are unaffected by a big-slot-free pool.
        let mut d = BagDriver::new(vec![JobSpec::fixed("w.0", 120.0)]);
        let small = Cluster::new(mk_cfg(0.0), 1).run(&mut d);
        assert_eq!(small.completed, 1);
    }

    #[test]
    fn pool_series_records_cycles() {
        let specs: Vec<JobSpec> = (0..20)
            .map(|i| JobSpec::fixed(format!("t.{i}"), 300.0))
            .collect();
        let mut d = BagDriver::new(specs);
        let report = Cluster::new(quick_config(), 2).run(&mut d);
        assert!(!report.pool_series.is_empty());
        for pair in report.pool_series.windows(2) {
            assert!(pair[1].time > pair[0].time);
        }
        for s in &report.pool_series {
            assert!(s.busy_slots <= s.total_slots);
            assert!((0.0..=1.0).contains(&s.avail_frac));
        }
        // At least one cycle saw our jobs running.
        assert!(report.pool_series.iter().any(|s| s.busy_slots > 0));
    }

    /// Like BagDriver but done when every job reaches *any* terminal
    /// state (completed, failed, or removed) — what a chaos run needs.
    struct ChaosBag {
        to_submit: Vec<JobSpec>,
        settled: usize,
        total: usize,
    }

    impl ChaosBag {
        fn new(specs: Vec<JobSpec>) -> Self {
            let total = specs.len();
            Self {
                to_submit: specs,
                settled: 0,
                total,
            }
        }
    }

    impl WorkloadDriver for ChaosBag {
        fn poll(&mut self, _now: SimTime, events: &[JobEvent]) -> Vec<SubmitRequest> {
            self.settled += events
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        JobEventKind::Completed | JobEventKind::Failed | JobEventKind::Removed
                    )
                })
                .count();
            std::mem::take(&mut self.to_submit)
                .into_iter()
                .map(|spec| SubmitRequest {
                    owner: OwnerId(0),
                    spec,
                })
                .collect()
        }

        fn is_done(&self) -> bool {
            self.to_submit.is_empty() && self.settled >= self.total
        }
    }

    fn stable_config(faults: crate::fault::FaultConfig) -> ClusterConfig {
        ClusterConfig {
            pool: PoolConfig {
                target_slots: 32,
                glidein_slots: 8,
                avail_mean: 1.0,
                avail_sigma: 0.0,
                glidein_lifetime_s: 1e9,
                ..Default::default()
            },
            faults,
            ..ClusterConfig::with_cache()
        }
    }

    #[test]
    fn transient_faults_surface_as_failed_events() {
        let faults = crate::fault::FaultConfig {
            seed: 11,
            transient_exit_prob: 0.4,
            ..Default::default()
        };
        let specs: Vec<JobSpec> = (0..40)
            .map(|i| JobSpec::fixed(format!("t.{i}"), 120.0))
            .collect();
        let mut d = ChaosBag::new(specs);
        let report = Cluster::new(stable_config(faults), 1).run(&mut d);
        assert!(!report.timed_out);
        assert!(report.exec_failures > 0, "some attempts must fail");
        assert!(report.completed > 0, "some attempts must survive");
        assert_eq!(report.completed as u64 + report.exec_failures, 40);
        // Every Failed event carries the transient exit code.
        for e in report.log.events() {
            if e.kind == JobEventKind::Failed {
                assert_eq!(e.exit_code, Some(crate::fault::EXIT_TRANSIENT));
            }
        }
    }

    #[test]
    fn black_hole_pool_kills_everything_fast() {
        let faults = crate::fault::FaultConfig {
            seed: 5,
            black_hole_fraction: 1.0,
            ..Default::default()
        };
        let specs: Vec<JobSpec> = (0..20)
            .map(|i| JobSpec::fixed(format!("t.{i}"), 3000.0))
            .collect();
        let mut d = ChaosBag::new(specs);
        let report = Cluster::new(stable_config(faults), 2).run(&mut d);
        assert_eq!(report.completed, 0);
        assert_eq!(report.exec_failures, 20);
        for e in report.log.events() {
            if e.kind == JobEventKind::Failed {
                assert_eq!(e.exit_code, Some(EXIT_BLACK_HOLE));
            }
        }
        // Fail-fast: a 3000 s job dies within BLACK_HOLE_FAIL_S of its
        // execute start, so the whole run is much shorter than one job.
        assert!(report.makespan.as_secs() < 3000);
    }

    /// A bag that resubmits failed/removed jobs up to `max_attempts`
    /// times per name (a minimal retrying scheduler for defense tests).
    struct RetryBag {
        to_submit: Vec<JobSpec>,
        specs: HashMap<String, JobSpec>,
        names: HashMap<JobId, String>,
        attempts: HashMap<String, u32>,
        max_attempts: u32,
        settled: usize,
        completed: usize,
        total: usize,
    }

    impl RetryBag {
        fn new(specs: Vec<JobSpec>, max_attempts: u32) -> Self {
            let total = specs.len();
            let by_name = specs.iter().map(|s| (s.name.clone(), s.clone())).collect();
            Self {
                to_submit: specs,
                specs: by_name,
                names: HashMap::new(),
                attempts: HashMap::new(),
                max_attempts,
                settled: 0,
                completed: 0,
                total,
            }
        }
    }

    impl WorkloadDriver for RetryBag {
        fn poll(&mut self, _now: SimTime, events: &[JobEvent]) -> Vec<SubmitRequest> {
            let mut subs: Vec<SubmitRequest> = std::mem::take(&mut self.to_submit)
                .into_iter()
                .map(|spec| SubmitRequest {
                    owner: OwnerId(0),
                    spec,
                })
                .collect();
            for e in events {
                match e.kind {
                    JobEventKind::Completed => {
                        self.completed += 1;
                        self.settled += 1;
                    }
                    JobEventKind::Failed | JobEventKind::Removed => {
                        let name = self.names.get(&e.job).cloned().unwrap_or_default();
                        let tries = self.attempts.entry(name.clone()).or_insert(1);
                        if *tries < self.max_attempts {
                            *tries += 1;
                            subs.push(SubmitRequest {
                                owner: OwnerId(0),
                                spec: self.specs[&name].clone(),
                            });
                        } else {
                            self.settled += 1;
                        }
                    }
                    _ => {}
                }
            }
            subs
        }

        fn on_assigned(&mut self, job: JobId, name: &str) {
            self.names.insert(job, name.to_string());
            self.attempts.entry(name.to_string()).or_insert(1);
        }

        fn is_done(&self) -> bool {
            self.to_submit.is_empty() && self.settled >= self.total
        }
    }

    #[test]
    fn scoreboard_defense_starves_black_holes() {
        let faults = crate::fault::FaultConfig {
            seed: 5,
            black_hole_fraction: 0.3,
            ..Default::default()
        };
        let run = |defense: DefenseConfig| {
            let specs: Vec<JobSpec> = (0..40)
                .map(|i| JobSpec::fixed(format!("t.{i}"), 300.0))
                .collect();
            let mut d = RetryBag::new(specs, 50);
            let mut cfg = stable_config(faults);
            // One slot per glidein: 32 distinct machines, so a 0.3
            // black-hole fraction yields a meaningful offender set.
            cfg.pool.glidein_slots = 1;
            cfg.defense = defense;
            let r = Cluster::new(cfg, 2).run(&mut d);
            assert!(!r.timed_out);
            assert_eq!(d.completed, 40, "every job must eventually complete");
            r
        };
        let off = run(DefenseConfig::default());
        let on = run(DefenseConfig {
            scoreboard_enabled: true,
            ..Default::default()
        });
        assert_eq!(off.defense, DefenseStats::default());
        assert!(on.defense.blacklists > 0, "offenders must be blacklisted");
        assert!(
            on.exec_failures < off.exec_failures,
            "avoidance must cut black-hole kills: {} vs {}",
            on.exec_failures,
            off.exec_failures
        );
    }

    #[test]
    fn checksum_defense_quarantines_and_completes() {
        use crate::job::InputFile;
        let faults = crate::fault::FaultConfig {
            seed: 8,
            corrupt_prob: 1.0,
            ..Default::default()
        };
        let specs: Vec<JobSpec> = (0..20)
            .map(|i| {
                let mut s = JobSpec::fixed(format!("w.{i}"), 120.0);
                s.inputs.push(InputFile {
                    name: "gf.mseed".into(),
                    size_mb: 500.0,
                    cacheable: true,
                });
                s
            })
            .collect();
        let mut d = BagDriver::new(specs);
        let mut cfg = stable_config(faults);
        cfg.defense.checksum_enabled = true;
        let report = Cluster::new(cfg, 4).run(&mut d);
        assert_eq!(report.completed, 20, "verification must save every job");
        assert_eq!(report.exec_failures, 0, "no poisoned run reaches exec");
        assert!(report.defense.quarantines > 0, "p=1 must quarantine");
        let checksum_holds = report
            .log
            .events()
            .iter()
            .filter(|e| e.hold_reason == Some(HoldReason::ChecksumMismatch))
            .count() as u64;
        assert_eq!(checksum_holds, report.defense.quarantines);
    }

    #[test]
    fn unverified_corruption_fails_jobs_with_exit_corrupt() {
        use crate::job::InputFile;
        let faults = crate::fault::FaultConfig {
            seed: 8,
            corrupt_prob: 1.0,
            ..Default::default()
        };
        let specs: Vec<JobSpec> = (0..20)
            .map(|i| {
                let mut s = JobSpec::fixed(format!("w.{i}"), 120.0);
                s.inputs.push(InputFile {
                    name: "gf.mseed".into(),
                    size_mb: 500.0,
                    cacheable: true,
                });
                s
            })
            .collect();
        let mut d = ChaosBag::new(specs);
        let report = Cluster::new(stable_config(faults), 4).run(&mut d);
        assert!(report.exec_failures > 0, "cache hits deliver poison");
        assert!(report.completed > 0, "origin fetchers still succeed");
        assert_eq!(report.defense.quarantines, 0);
        for e in report.log.events() {
            if e.kind == JobEventKind::Failed {
                assert_eq!(e.exit_code, Some(EXIT_CORRUPT));
            }
        }
    }

    #[test]
    fn driver_cancellations_remove_jobs() {
        struct CancelSecond {
            to_submit: Vec<JobSpec>,
            jobs: Vec<JobId>,
            cancel_queued: bool,
            pending_cancel: Vec<JobId>,
            completed: usize,
            removed: usize,
        }
        impl WorkloadDriver for CancelSecond {
            fn poll(&mut self, _now: SimTime, events: &[JobEvent]) -> Vec<SubmitRequest> {
                for e in events {
                    match e.kind {
                        JobEventKind::Completed => self.completed += 1,
                        JobEventKind::Removed => self.removed += 1,
                        // Cancel the second job once the first runs.
                        JobEventKind::ExecuteStarted
                            if !self.cancel_queued && e.job == self.jobs[0] =>
                        {
                            self.cancel_queued = true;
                            self.pending_cancel.push(self.jobs[1]);
                        }
                        _ => {}
                    }
                }
                std::mem::take(&mut self.to_submit)
                    .into_iter()
                    .map(|spec| SubmitRequest {
                        owner: OwnerId(0),
                        spec,
                    })
                    .collect()
            }
            fn on_assigned(&mut self, job: JobId, _name: &str) {
                self.jobs.push(job);
            }
            fn cancellations(&mut self) -> Vec<JobId> {
                std::mem::take(&mut self.pending_cancel)
            }
            fn is_done(&self) -> bool {
                self.to_submit.is_empty() && self.completed + self.removed >= 2
            }
        }
        let mut d = CancelSecond {
            to_submit: vec![JobSpec::fixed("a.0", 300.0), JobSpec::fixed("a.1", 300.0)],
            jobs: Vec::new(),
            cancel_queued: false,
            pending_cancel: Vec::new(),
            completed: 0,
            removed: 0,
        };
        let report = Cluster::new(stable_config(Default::default()), 3).run(&mut d);
        assert!(!report.timed_out);
        assert_eq!(d.completed, 1);
        assert_eq!(d.removed, 1);
        let kinds: Vec<JobEventKind> = report.log.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&JobEventKind::Removed), "009 must be logged");
    }

    #[test]
    fn held_jobs_are_released_and_eventually_complete() {
        let faults = crate::fault::FaultConfig {
            seed: 9,
            hold_prob: 0.3,
            hold_release_s: 120.0,
            ..Default::default()
        };
        let specs: Vec<JobSpec> = (0..30)
            .map(|i| JobSpec::fixed(format!("t.{i}"), 60.0))
            .collect();
        let mut d = BagDriver::new(specs);
        let report = Cluster::new(stable_config(faults), 3).run(&mut d);
        assert!(!report.timed_out);
        assert_eq!(report.completed, 30, "holds only delay, never lose, jobs");
        assert!(report.holds > 0, "p=0.3 over 30 jobs must hold someone");
        let held = report
            .log
            .events()
            .iter()
            .filter(|e| e.kind == JobEventKind::Held)
            .count() as u64;
        let released = report
            .log
            .events()
            .iter()
            .filter(|e| e.kind == JobEventKind::Released)
            .count() as u64;
        assert_eq!(held, report.holds);
        assert_eq!(held, released, "every hold is followed by a release");
        for e in report.log.events() {
            if e.kind == JobEventKind::Held {
                assert_eq!(e.hold_reason, Some(HoldReason::PolicyHold));
            }
        }
    }

    #[test]
    fn transfer_faults_hold_with_transfer_reasons() {
        let faults = crate::fault::FaultConfig {
            seed: 21,
            transfer_fail_prob: 0.25,
            hold_release_s: 60.0,
            ..Default::default()
        };
        let specs: Vec<JobSpec> = (0..30)
            .map(|i| JobSpec::fixed(format!("t.{i}"), 60.0))
            .collect();
        let mut d = BagDriver::new(specs);
        let report = Cluster::new(stable_config(faults), 4).run(&mut d);
        assert_eq!(report.completed, 30);
        let reasons: Vec<HoldReason> = report
            .log
            .events()
            .iter()
            .filter_map(|e| e.hold_reason)
            .collect();
        assert!(!reasons.is_empty());
        assert!(reasons.iter().all(|r| matches!(
            r,
            HoldReason::TransferInputError | HoldReason::TransferOutputError
        )));
    }

    #[test]
    fn wall_time_limit_holds_then_removes() {
        let mut spec = JobSpec::fixed("slow.0", 500.0);
        spec.timeout_s = 60.0;
        let mut d = ChaosBag::new(vec![spec]);
        let report = Cluster::new(stable_config(Default::default()), 6).run(&mut d);
        assert_eq!(report.completed, 0);
        let kinds: Vec<JobEventKind> = report.log.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&JobEventKind::Held));
        assert!(kinds.contains(&JobEventKind::Removed));
        let held = report
            .log
            .events()
            .iter()
            .find(|e| e.kind == JobEventKind::Held)
            .unwrap();
        assert_eq!(held.hold_reason, Some(HoldReason::WallTimeExceeded));
        // The limit fires at 60 s of execution, not at the 500 s runtime.
        let exec_start = report
            .log
            .events()
            .iter()
            .find(|e| e.kind == JobEventKind::ExecuteStarted)
            .unwrap()
            .time;
        assert_eq!(held.time.since(exec_start), 60);
    }

    #[test]
    fn fault_runs_replay_identically() {
        let mk = || {
            let faults = crate::fault::FaultConfig {
                seed: 77,
                transient_exit_prob: 0.3,
                hold_prob: 0.1,
                hold_release_s: 90.0,
                ..Default::default()
            };
            let specs: Vec<JobSpec> = (0..30)
                .map(|i| JobSpec::fixed(format!("t.{i}"), 100.0))
                .collect();
            let mut d = ChaosBag::new(specs);
            let r = Cluster::new(stable_config(faults), 13).run(&mut d);
            (
                r.makespan,
                r.completed,
                r.exec_failures,
                r.holds,
                r.log.len(),
            )
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn obs_registry_reconciles_with_run_report() {
        use fdw_obs::Obs;
        let faults = crate::fault::FaultConfig {
            seed: 77,
            transient_exit_prob: 0.3,
            hold_prob: 0.1,
            hold_release_s: 90.0,
            ..Default::default()
        };
        let specs: Vec<JobSpec> = (0..30)
            .map(|i| JobSpec::fixed(format!("t.{i}"), 100.0))
            .collect();
        let mut d = ChaosBag::new(specs);
        let obs = Obs::enabled();
        let report = Cluster::new(stable_config(faults), 13)
            .with_obs(obs.clone())
            .run(&mut d);
        assert_eq!(obs.counter("pool.holds"), report.holds);
        assert_eq!(obs.counter("pool.exec_failures"), report.exec_failures);
        assert_eq!(obs.counter("pool.evictions"), report.evictions);
        assert_eq!(obs.counter("pool.completions"), report.completed as u64);
        assert_eq!(
            obs.counter("pool.releases"),
            report.holds,
            "every policy hold releases"
        );
        assert_eq!(
            obs.counter("pool.negotiation_cycles"),
            report.pool_series.len() as u64
        );
        // Per-reason hold counters partition the total.
        let by_reason: u64 = [
            "transfer_input",
            "transfer_output",
            "walltime",
            "policy",
            "checksum",
        ]
        .iter()
        .map(|k| obs.counter(&format!("pool.holds.{k}")))
        .sum();
        assert_eq!(by_reason, report.holds);
        // Every completed job contributes one stage-in and one exec span.
        let trace = obs.chrome_trace();
        assert!(trace.contains("\"name\":\"stage_in\""));
        assert!(trace.contains("\"name\":\"exec\""));
        assert!(trace.contains("\"name\":\"stage_out\""));
        assert!(fdw_obs::json::validate(&trace).is_ok());
        // Cache totals flow into the registry at run end (these specs
        // carry no cacheable inputs, so both sides must agree on zero).
        let hits = obs.counter("cache.hits");
        let misses = obs.counter("cache.misses");
        if hits + misses > 0 {
            let rate = hits as f64 / (hits + misses) as f64;
            assert!((rate - report.cache_hit_rate).abs() < 1e-9);
        } else {
            assert_eq!(report.cache_hit_rate, 0.0);
        }
    }

    #[test]
    fn obs_cache_counters_match_hit_rate() {
        use crate::job::InputFile;
        use fdw_obs::Obs;
        let mut specs = Vec::new();
        for i in 0..20 {
            let mut s = JobSpec::fixed(format!("w.{i}"), 60.0);
            s.inputs.push(InputFile {
                name: "gf.mseed".into(),
                size_mb: 500.0,
                cacheable: true,
            });
            specs.push(s);
        }
        let mut d = BagDriver::new(specs);
        let obs = Obs::enabled();
        let report = Cluster::new(quick_config(), 4)
            .with_obs(obs.clone())
            .run(&mut d);
        let hits = obs.counter("cache.hits");
        let misses = obs.counter("cache.misses");
        assert!(hits + misses > 0);
        let rate = hits as f64 / (hits + misses) as f64;
        assert!((rate - report.cache_hit_rate).abs() < 1e-9);
    }

    #[test]
    fn obs_instrumentation_does_not_perturb_the_run() {
        let mk = |obs: Obs| {
            let specs: Vec<JobSpec> = (0..25)
                .map(|i| JobSpec::fixed(format!("t.{i}"), 200.0))
                .collect();
            let mut d = BagDriver::new(specs);
            Cluster::new(quick_config(), 99)
                .with_obs(obs)
                .run(&mut d)
                .makespan
        };
        use fdw_obs::Obs;
        assert_eq!(mk(Obs::disabled()), mk(Obs::enabled()));
    }

    #[test]
    fn timeout_reported_when_workload_cannot_finish() {
        let cfg = ClusterConfig {
            pool: PoolConfig {
                target_slots: 8,
                glidein_slots: 8,
                avail_mean: 1.0,
                avail_sigma: 0.0,
                max_sim_time_s: 3600, // 1 simulated hour only
                ..Default::default()
            },
            ..ClusterConfig::with_cache()
        };
        let specs: Vec<JobSpec> = (0..500)
            .map(|i| JobSpec::fixed(format!("t.{i}"), 4000.0))
            .collect();
        let mut d = BagDriver::new(specs);
        let report = Cluster::new(cfg, 9).run(&mut d);
        assert!(report.timed_out);
        assert!(report.completed < 500);
    }

    fn federated_config(
        faults: crate::fault::FaultConfig,
        failover: bool,
        checkpoint: bool,
    ) -> ClusterConfig {
        ClusterConfig {
            federation: crate::federation::FederationConfig {
                enabled: true,
                failover_enabled: failover,
                checkpoint_enabled: checkpoint,
                checkpoint_interval_s: 30.0,
                burst_idle_threshold: 0,
                cloud_spinup_s: 60.0,
            },
            ..stable_config(faults)
        }
    }

    #[test]
    fn spot_preemption_with_checkpoint_completes_everything() {
        let faults = crate::fault::FaultConfig {
            seed: 7,
            pool: crate::fault::PoolFaultConfig {
                preempt_prob: 1.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let specs: Vec<JobSpec> = (0..40)
            .map(|i| JobSpec::fixed(format!("t.{i}"), 300.0))
            .collect();
        let mut d = BagDriver::new(specs);
        let report = Cluster::new(federated_config(faults, true, true), 3).run(&mut d);
        assert!(!report.timed_out);
        assert_eq!(report.completed, 40);
        assert!(
            report.federation.preemptions > 0,
            "cloud attempts reclaimed"
        );
        assert!(
            report.federation.migrations > 0,
            "displaced jobs re-match in another pool"
        );
        // Preemptions are not glidein evictions and surface as 026 events.
        let preempted = report
            .log
            .events()
            .iter()
            .filter(|e| e.kind == JobEventKind::Preempted)
            .count() as u64;
        assert_eq!(preempted, report.federation.preemptions);
        assert_eq!(report.evictions, 0, "spot kills are not glidein evictions");
    }

    #[test]
    fn pool_outage_displaces_and_workload_recovers() {
        let faults = crate::fault::FaultConfig {
            seed: 7,
            pool: crate::fault::PoolFaultConfig {
                outage_pool: 1,
                outage_start_s: 400.0,
                outage_duration_s: 2_000.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let specs: Vec<JobSpec> = (0..60)
            .map(|i| JobSpec::fixed(format!("t.{i}"), 300.0))
            .collect();
        let mut d = BagDriver::new(specs);
        let report = Cluster::new(federated_config(faults, true, true), 3).run(&mut d);
        assert!(!report.timed_out);
        assert_eq!(report.completed, 60);
        assert_eq!(report.federation.outages, 1);
        let displaced = report
            .log
            .events()
            .iter()
            .filter(|e| e.kind == JobEventKind::PoolOutage)
            .count();
        assert!(displaced > 0, "in-flight jobs on the down pool displaced");
    }

    #[test]
    fn partition_drains_under_failover_and_waits_without() {
        let faults = crate::fault::FaultConfig {
            seed: 7,
            pool: crate::fault::PoolFaultConfig {
                partition_pool: 0,
                // First matches land at the t=60 negotiation cycle and
                // their (slow, origin-bound) transfers are still in
                // flight when the partition opens at t=100.
                partition_start_s: 100.0,
                partition_duration_s: 3_000.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let run = |failover: bool| {
            let specs: Vec<JobSpec> = (0..40)
                .map(|i| {
                    let mut s = JobSpec::fixed(format!("t.{i}"), 300.0);
                    s.inputs.push(crate::job::InputFile {
                        name: format!("rupt.{i}.bin"),
                        size_mb: 2_000.0,
                        cacheable: false,
                    });
                    s
                })
                .collect();
            let mut d = BagDriver::new(specs);
            Cluster::new(federated_config(faults, failover, false), 3).run(&mut d)
        };
        let on = run(true);
        let off = run(false);
        assert!(!on.timed_out && !off.timed_out);
        assert_eq!(on.completed, 40);
        assert_eq!(off.completed, 40);
        assert!(
            on.federation.drained > 0,
            "failover drains stalled stage-ins"
        );
        assert_eq!(off.federation.drained, 0, "no-failover arm waits in place");
        assert!(
            on.makespan <= off.makespan,
            "draining around a partition must not be slower: {:?} vs {:?}",
            on.makespan,
            off.makespan
        );
    }

    #[test]
    fn federated_runs_are_deterministic_in_both_arms() {
        let faults = crate::fault::FaultConfig {
            seed: 13,
            pool: crate::fault::PoolFaultConfig {
                preempt_prob: 0.6,
                outage_pool: 1,
                outage_start_s: 500.0,
                outage_duration_s: 1_500.0,
                ..Default::default()
            },
            ..Default::default()
        };
        for failover in [false, true] {
            let mk = || {
                let specs: Vec<JobSpec> = (0..30)
                    .map(|i| JobSpec::fixed(format!("t.{i}"), 250.0))
                    .collect();
                let mut d = BagDriver::new(specs);
                let r = Cluster::new(federated_config(faults, failover, failover), 11).run(&mut d);
                (r.makespan, r.federation, r.log.events().len())
            };
            assert_eq!(mk(), mk(), "failover={failover}");
        }
    }

    #[test]
    fn federation_counters_reconcile_with_obs_registry() {
        use fdw_obs::Obs;
        let faults = crate::fault::FaultConfig {
            seed: 7,
            pool: crate::fault::PoolFaultConfig {
                preempt_prob: 0.8,
                outage_pool: 1,
                outage_start_s: 400.0,
                outage_duration_s: 1_000.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let specs: Vec<JobSpec> = (0..40)
            .map(|i| JobSpec::fixed(format!("t.{i}"), 300.0))
            .collect();
        let mut d = BagDriver::new(specs);
        let obs = Obs::enabled();
        let report = Cluster::new(federated_config(faults, true, true), 3)
            .with_obs(obs.clone())
            .run(&mut d);
        let f = report.federation;
        assert_eq!(obs.counter("pool.federation.outages"), f.outages);
        assert_eq!(obs.counter("pool.federation.preemptions"), f.preemptions);
        assert_eq!(obs.counter("pool.federation.migrations"), f.migrations);
        assert_eq!(obs.counter("pool.federation.checkpoints"), f.checkpoints);
        assert_eq!(obs.counter("pool.federation.resumes"), f.resumes);
        assert_eq!(
            obs.counter("pool.federation.breaker_opens"),
            f.breaker_opens
        );
        assert_eq!(obs.counter("pool.federation.drained"), f.drained);
        assert!(f.preemptions > 0);
    }
}
