//! The DAGMan scheduler: a [`WorkloadDriver`] that walks a [`Dag`] on the
//! cluster, submitting nodes whose parents have finished, subject to
//! `maxjobs`/`maxidle` throttles, with per-node retries, exponential
//! retry backoff (`RETRY ... DEFER`), hold/release accounting,
//! `ABORT-DAG-ON` exit-code handling, and optional straggler speculation
//! (a duplicate submission for nodes running far past their phase's
//! expected cost; first finisher wins, the loser is condor_rm'd).
//!
//! Each node has one record and each submitted job one record. A node's
//! state changes only in `Dagman::set_state`, which keeps the count of
//! nodes in every state; the idle, in-flight, done, failed and futile
//! tallies are read from those counts.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use fdw_obs::digest::{fnv1a, fnv1a_word, DIGEST_INIT};
use fdw_obs::metrics::Histogram;
use fdw_obs::Obs;
use htcsim::cluster::WorkloadDriver;
use htcsim::job::{JobEvent, JobEventKind, JobId, OwnerId, SubmitRequest};
use htcsim::time::SimTime;

use crate::dag::{Dag, NodeId};

/// Retry backoff never exceeds this many seconds, whatever the attempt.
const MAX_BACKOFF_S: u64 = 3600;

/// A started node becomes a straggler when its runtime exceeds this
/// multiple of its phase's expected cost.
pub const SPECULATION_MULTIPLIER: f64 = 2.0;

/// Quantile of a phase's completed execution times used as its expected
/// cost (0.5 = median).
pub const SPECULATION_QUANTILE: f64 = 0.75;

/// Completed samples a phase needs before speculation can trigger.
pub const SPECULATION_MIN_SAMPLES: usize = 3;

/// A permanently failed node, as reported by [`Dagman::failed_nodes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedNode {
    /// Node name.
    pub name: String,
    /// Exit code of the final attempt (`None` when the job was removed
    /// rather than exiting, e.g. a walltime removal).
    pub exit_code: Option<i32>,
    /// How many times the node was submitted.
    pub attempts: u32,
}

/// Deterministic jitter for retry backoff, keyed on node name and
/// attempt number so concurrent retries de-synchronise without
/// consulting a stateful RNG.
fn backoff_jitter(name: &str, attempt: u32) -> u64 {
    fnv1a_word(fnv1a(DIGEST_INIT, name.as_bytes()), u64::from(attempt))
}

/// Per-node scheduling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeState {
    /// Parents not yet done.
    #[default]
    Waiting,
    /// Eligible for submission: in the ready set, or waiting out a retry
    /// backoff.
    Ready,
    /// Submitted, queued idle.
    Queued,
    /// Executing (or staging) on the pool.
    Started,
    /// Finished successfully.
    Done,
    /// Removed/failed with retries exhausted.
    Failed,
    /// Stranded by a permanently failed ancestor; settles the DAG without
    /// running (DAGMan's "futile" node).
    Futile,
}

/// Number of [`NodeState`]s.
const STATES: usize = NodeState::Futile as usize + 1;

/// One node's lifecycle.
#[derive(Debug, Default)]
struct NodeRecord {
    state: NodeState,
    retries_left: u32,
    unfinished_parents: usize,
    /// Submissions so far, speculative duplicates included.
    attempts: u32,
    /// Exit code of the most recent terminal event.
    last_exit: Option<i32>,
    /// When the current attempt was submitted (span bookkeeping).
    submitted_at: SimTime,
    /// The current attempt's job.
    primary: Option<JobId>,
    /// The outstanding speculative duplicate.
    duplicate: Option<JobId>,
    /// Whether the current attempt already spawned a duplicate.
    speculated: bool,
}

/// One submitted job, from its id assignment to its terminal event.
#[derive(Debug, Clone, Copy)]
struct JobRecord {
    node: NodeId,
    /// When the job's current execution started, while it runs.
    exec_start: Option<SimTime>,
    /// Removed by this DAGMan itself: its terminal event is bookkeeping,
    /// not a node outcome.
    cancelled: bool,
}

/// A running DAGMan instance.
pub struct Dagman {
    dag: Dag,
    owner: OwnerId,
    nodes: Vec<NodeRecord>,
    /// The jobs this DAGMan submitted that have not ended yet: a record
    /// is dropped at its job's terminal event (completion, failure or
    /// removal), so the map holds at most the jobs in flight.
    jobs: HashMap<JobId, JobRecord>,
    /// Nodes in each [`NodeState`], indexed by the state's discriminant.
    counts: [usize; STATES],
    /// The ready set as (priority, readied sequence number, node): the
    /// last entry submits next, so the highest `PRIORITY` goes first and
    /// ties go to the most recently readied node.
    ready: BTreeSet<(i32, u64, NodeId)>,
    /// Ready-set insertions so far.
    readied: u64,
    /// Nodes a rescue file marked done before this run started.
    pub(crate) rescued: usize,
    /// Pending submissions awaiting id assignment, in order; the flag
    /// marks speculative duplicates.
    awaiting_assign: VecDeque<(NodeId, bool)>,
    /// Retries waiting out their backoff: (due time, node).
    deferred: Vec<(SimTime, NodeId)>,
    /// Simulation time of the latest poll.
    now: SimTime,
    /// Hold events observed across all nodes.
    holds: u64,
    /// Retries actually performed.
    retries_done: u64,
    /// `ABORT-DAG-ON` nodes that exited with their trigger code; the
    /// first stops the DAG.
    pub(crate) aborts: u64,
    /// Release events observed across all nodes.
    releases: u64,
    /// Retry backoff waits, seconds (0 for an immediate retry).
    pub(crate) backoff_wait_s: Histogram,
    /// Telemetry handle (disabled by default).
    obs: Obs,
    /// Straggler speculation switch (defense layer; off by default).
    speculate: bool,
    /// Completed execution seconds per workflow phase (node-name prefix),
    /// feeding the straggler threshold. Kept separate from telemetry so
    /// observability can never perturb scheduling.
    phase_durations: BTreeMap<String, Vec<f64>>,
    /// Losers awaiting condor_rm, drained by `cancellations`.
    pending_cancel: Vec<JobId>,
    speculations: u64,
    spec_wins: u64,
    spec_losses: u64,
    /// Execution seconds of each cancelled speculative loser.
    pub(crate) spec_wasted_s: Histogram,
}

impl Dagman {
    /// Create a DAGMan for `dag`, submitting as `owner`.
    pub fn new(dag: Dag, owner: OwnerId) -> Self {
        let nodes = dag
            .nodes()
            .iter()
            .map(|nd| NodeRecord {
                retries_left: nd.retries,
                unfinished_parents: nd.parents.len(),
                ..NodeRecord::default()
            })
            .collect();
        let mut counts = [0; STATES];
        counts[NodeState::Waiting as usize] = dag.len();
        let roots = dag.roots();
        let mut dm = Self {
            dag,
            owner,
            nodes,
            jobs: HashMap::new(),
            counts,
            ready: BTreeSet::new(),
            readied: 0,
            rescued: 0,
            awaiting_assign: VecDeque::new(),
            deferred: Vec::new(),
            now: SimTime(0),
            holds: 0,
            retries_done: 0,
            aborts: 0,
            releases: 0,
            backoff_wait_s: Histogram::default(),
            obs: Obs::disabled(),
            speculate: false,
            phase_durations: BTreeMap::new(),
            pending_cancel: Vec::new(),
            speculations: 0,
            spec_wins: 0,
            spec_losses: 0,
            spec_wasted_s: Histogram::default(),
        };
        for id in roots {
            dm.set_state(id, NodeState::Ready);
            dm.push_ready(id);
        }
        dm
    }

    /// Switch straggler speculation on or off.
    pub fn with_speculation(mut self, enabled: bool) -> Self {
        self.speculate = enabled;
        self
    }

    /// Attach a telemetry handle for node spans (category `dagman`).
    /// The `dagman.*` metrics are written once per run, from this
    /// DAGMan's tallies, by [`crate::monitor::write_metrics`].
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The owner id this DAGMan submits under.
    pub fn owner(&self) -> OwnerId {
        self.owner
    }

    /// Borrow the underlying DAG.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Number of nodes currently in `state`.
    fn count(&self, state: NodeState) -> usize {
        self.counts[state as usize]
    }

    /// Nodes submitted and not yet terminal.
    fn in_flight(&self) -> usize {
        self.count(NodeState::Queued) + self.count(NodeState::Started)
    }

    /// Nodes completed so far.
    pub fn completed(&self) -> usize {
        self.count(NodeState::Done)
    }

    /// Nodes failed permanently.
    pub fn failed(&self) -> usize {
        self.count(NodeState::Failed)
    }

    /// Current state of a node.
    pub fn node_state(&self, id: NodeId) -> NodeState {
        self.nodes[id.0].state
    }

    /// Permanently failed nodes with their final exit code and attempt
    /// count (for rescue DAG generation and post-mortem reporting).
    pub fn failed_nodes(&self) -> Vec<FailedNode> {
        self.nodes
            .iter()
            .zip(self.dag.nodes())
            .filter(|(rec, _)| rec.state == NodeState::Failed)
            .map(|(rec, nd)| FailedNode {
                name: nd.name.clone(),
                exit_code: rec.last_exit,
                attempts: rec.attempts,
            })
            .collect()
    }

    /// Hold events observed across all nodes.
    pub fn holds(&self) -> u64 {
        self.holds
    }

    /// Retries performed so far (resubmissions after failure/removal).
    pub fn retries(&self) -> u64 {
        self.retries_done
    }

    /// Release events observed across all nodes.
    pub fn releases(&self) -> u64 {
        self.releases
    }

    /// Nodes stranded by a permanently failed ancestor.
    pub fn futile(&self) -> usize {
        self.count(NodeState::Futile)
    }

    /// Total job submission attempts across every node.
    pub fn total_attempts(&self) -> u64 {
        self.nodes.iter().map(|rec| u64::from(rec.attempts)).sum()
    }

    /// True when an `ABORT-DAG-ON` trigger stopped the DAG.
    pub fn aborted(&self) -> bool {
        self.aborts > 0
    }

    /// Speculative duplicates launched.
    pub fn speculations(&self) -> u64 {
        self.speculations
    }

    /// Speculated nodes where the duplicate finished first.
    pub fn spec_wins(&self) -> u64 {
        self.spec_wins
    }

    /// Speculated nodes where the original attempt finished first.
    pub fn spec_losses(&self) -> u64 {
        self.spec_losses
    }

    /// Execution seconds burned by cancelled speculative losers.
    pub fn wasted_speculative_seconds(&self) -> f64 {
        self.spec_wasted_s.stats().sum
    }

    /// Names of completed nodes (for rescue DAG generation).
    pub fn done_nodes(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .zip(self.dag.nodes())
            .filter(|(rec, _)| rec.state == NodeState::Done)
            .map(|(_, nd)| nd.name.as_str())
            .collect()
    }

    /// Move `node` to state `to`. The one place a node's state changes,
    /// so the per-state counts always match the records.
    fn set_state(&mut self, node: NodeId, to: NodeState) {
        let from = std::mem::replace(&mut self.nodes[node.0].state, to);
        self.counts[from as usize] -= 1;
        self.counts[to as usize] += 1;
    }

    /// Add `node` to the ready set as its most recently readied entry.
    fn push_ready(&mut self, node: NodeId) {
        let priority = self.dag.node(node).priority;
        self.ready.insert((priority, self.readied, node));
        self.readied += 1;
    }

    /// Mark a node complete without running it (rescue-DAG resume).
    /// Panics if the node is not currently Waiting/Ready.
    pub fn force_done(&mut self, node: NodeId) {
        let st = self.nodes[node.0].state;
        assert!(
            matches!(st, NodeState::Waiting | NodeState::Ready),
            "force_done on node in state {st:?}"
        );
        if st == NodeState::Ready {
            self.ready.retain(|&(_, _, r)| r != node);
        }
        self.rescued += 1;
        self.finish(node);
    }

    /// Settle `node` as done and ready each child whose last unfinished
    /// parent it was (shared by completions and the rescue path).
    fn finish(&mut self, node: NodeId) {
        self.set_state(node, NodeState::Done);
        for k in 0..self.dag.node(node).children.len() {
            let child = self.dag.node(node).children[k];
            let rec = &mut self.nodes[child.0];
            rec.unfinished_parents -= 1;
            if rec.unfinished_parents == 0 && rec.state == NodeState::Waiting {
                self.set_state(child, NodeState::Ready);
                self.push_ready(child);
            }
        }
    }

    /// Trace lane for a node: owner-disambiguated so concurrent DAGMans
    /// stay on separate tracks in one export.
    fn node_tid(&self, node: NodeId) -> u64 {
        self.owner.0 as u64 * 1_000_000 + node.0 as u64
    }

    /// The `node:` span of a node's final attempt, from its submission
    /// to now.
    fn node_span(&self, node: NodeId) {
        self.obs.span(
            "dagman",
            format_args!("node:{}", self.dag.node(node).name),
            self.node_tid(node),
            self.nodes[node.0].submitted_at.as_secs(),
            self.now.as_secs(),
        );
    }

    /// Terminal-but-retryable path: consume a retry with exponential
    /// backoff, or fail the node for good when the budget is spent.
    fn mark_removed(&mut self, node: NodeId) {
        let nd = self.dag.node(node);
        let (base, retries) = (nd.retry_defer_s, nd.retries);
        if self.aborted() || self.nodes[node.0].retries_left == 0 {
            self.set_state(node, NodeState::Failed);
            self.node_span(node);
            self.strand_descendants(node);
            return;
        }
        self.nodes[node.0].retries_left -= 1;
        self.retries_done += 1;
        self.set_state(node, NodeState::Ready);
        if base == 0 {
            self.backoff_wait_s.observe(0.0);
            self.push_ready(node);
            return;
        }
        // Attempt k (1-based) waits base * 2^(k-1), capped, plus
        // deterministic jitter of up to a quarter of the delay.
        let k = retries - self.nodes[node.0].retries_left;
        let delay = base
            .checked_shl((k - 1).min(6))
            .unwrap_or(u64::MAX)
            .min(MAX_BACKOFF_S);
        let name = &self.dag.node(node).name;
        let wait = delay + backoff_jitter(name, k) % (delay / 4 + 1);
        self.backoff_wait_s.observe(wait as f64);
        self.obs.span(
            "dagman",
            format_args!("backoff:{name}"),
            self.node_tid(node),
            self.now.as_secs(),
            (self.now + wait).as_secs(),
        );
        self.deferred.push((self.now + wait, node));
    }

    /// A permanently failed node strands every waiting descendant: they
    /// become futile so the DAG can settle.
    fn strand_descendants(&mut self, node: NodeId) {
        for d in self.dag.descendants(node) {
            if self.nodes[d.0].state == NodeState::Waiting {
                self.set_state(d, NodeState::Futile);
            }
        }
    }

    /// Move deferred retries whose backoff has expired into the ready set.
    fn drain_deferred(&mut self) {
        let now = self.now;
        let mut i = 0;
        while i < self.deferred.len() {
            if self.deferred[i].0 <= now {
                let (_, node) = self.deferred.swap_remove(i);
                self.push_ready(node);
            } else {
                i += 1;
            }
        }
    }

    fn process(&mut self, events: &[JobEvent]) {
        for ev in events {
            if ev.owner != self.owner {
                continue;
            }
            // A terminal event ends the job, so its record goes here and
            // the handlers below get what they need of it.
            let terminal = matches!(
                ev.kind,
                JobEventKind::Completed | JobEventKind::Failed | JobEventKind::Removed
            );
            let record = if terminal {
                self.jobs.remove(&ev.job)
            } else {
                self.jobs.get(&ev.job).copied()
            };
            let Some(JobRecord {
                node,
                exec_start,
                cancelled,
            }) = record
            else {
                continue;
            };
            if cancelled {
                if terminal {
                    self.settle_cancelled(ev, node, exec_start);
                }
                continue;
            }
            let rec = &self.nodes[node.0];
            let is_primary = rec.primary == Some(ev.job);
            let state = rec.state;
            match ev.kind {
                JobEventKind::ExecuteStarted => {
                    if let Some(job) = self.jobs.get_mut(&ev.job) {
                        job.exec_start = Some(ev.time);
                    }
                    if is_primary && state == NodeState::Queued {
                        self.set_state(node, NodeState::Started);
                    }
                }
                JobEventKind::Evicted
                | JobEventKind::Preempted
                | JobEventKind::PoolOutage
                | JobEventKind::Held => {
                    // The job lost its slot; the cluster re-queues it (a
                    // held job once released), so the node is idle again
                    // for throttle purposes. Pool-level displacements
                    // consume no DAGMan retry.
                    if let Some(job) = self.jobs.get_mut(&ev.job) {
                        job.exec_start = None;
                    }
                    if ev.kind == JobEventKind::Held {
                        self.holds += 1;
                    }
                    if is_primary && state == NodeState::Started {
                        self.set_state(node, NodeState::Queued);
                    }
                }
                JobEventKind::Released => {
                    // Still queued from DAGMan's perspective; only the
                    // release tally moves.
                    self.releases += 1;
                }
                JobEventKind::Completed => self.complete(ev, node, exec_start),
                JobEventKind::Failed | JobEventKind::Removed => {
                    let rec = &mut self.nodes[node.0];
                    if rec.duplicate == Some(ev.job) {
                        // The duplicate died on its own; the original
                        // attempt is unaffected.
                        rec.duplicate = None;
                        continue;
                    }
                    if !is_primary {
                        continue;
                    }
                    // A removal carries no exit code.
                    rec.last_exit = ev.exit_code;
                    let trigger = self.dag.node(node).abort_dag_on;
                    if trigger.is_some() && trigger == ev.exit_code {
                        // ABORT-DAG-ON: the node fails for good and the
                        // whole DAG stops submitting.
                        if let Some(dup) = self.nodes[node.0].duplicate.take() {
                            self.cancel(dup);
                        }
                        self.aborts += 1;
                        self.set_state(node, NodeState::Failed);
                        self.strand_descendants(node);
                    } else if !self.promote_duplicate(node) {
                        self.mark_removed(node);
                    }
                }
                // Service-layer events (admission/shedding/artifact
                // store) are emitted by the campaign front-end, never by
                // the cluster a DAGMan drives; nothing to do here.
                JobEventKind::Submitted
                | JobEventKind::Matched
                | JobEventKind::PartitionStalled
                | JobEventKind::Migrated
                | JobEventKind::ServiceAdmitted
                | JobEventKind::ServiceRejected
                | JobEventKind::ServiceShed
                | JobEventKind::ServiceDegraded
                | JobEventKind::ArtifactHit
                | JobEventKind::ArtifactQuarantined => {}
            }
        }
    }

    /// First finisher wins a speculated node: settle the node, record the
    /// phase sample, and condor_rm the losing copy.
    fn complete(&mut self, ev: &JobEvent, node: NodeId, exec_start: Option<SimTime>) {
        if self.nodes[node.0].state == NodeState::Done {
            // The slower copy finished before its condor_rm landed; the
            // winner already settled the node.
            return;
        }
        if let Some(start) = exec_start {
            let phase = phase_of(&self.dag.node(node).name).to_string();
            self.phase_durations
                .entry(phase)
                .or_default()
                .push(ev.time.since(start) as f64);
        }
        let rec = &mut self.nodes[node.0];
        let dup = rec.duplicate.take();
        let primary = rec.primary.take();
        rec.last_exit = ev.exit_code.or(Some(0));
        if dup == Some(ev.job) {
            self.spec_wins += 1;
            if let Some(loser) = primary {
                self.cancel(loser);
            }
        } else if let Some(loser) = dup {
            self.spec_losses += 1;
            self.cancel(loser);
        }
        self.node_span(node);
        self.finish(node);
    }

    /// Queue a condor_rm for the losing copy of a speculated node.
    fn cancel(&mut self, job: JobId) {
        if let Some(j) = self.jobs.get_mut(&job) {
            j.cancelled = true;
        }
        self.pending_cancel.push(job);
    }

    /// Terminal event of a job this DAGMan removed itself: account the
    /// wasted execution and drop the tracking state. Not a node outcome.
    fn settle_cancelled(&mut self, ev: &JobEvent, node: NodeId, exec_start: Option<SimTime>) {
        if let Some(start) = exec_start {
            self.spec_wasted_s.observe(ev.time.since(start) as f64);
        }
        let rec = &mut self.nodes[node.0];
        if rec.duplicate == Some(ev.job) {
            rec.duplicate = None;
        }
        if rec.primary == Some(ev.job) {
            rec.primary = None;
        }
    }

    /// Primary attempt died with a speculative duplicate still in the
    /// queue: the duplicate becomes the primary and the node keeps its
    /// in-flight status without consuming a retry.
    fn promote_duplicate(&mut self, node: NodeId) -> bool {
        let rec = &mut self.nodes[node.0];
        let Some(dup) = rec.duplicate.take() else {
            return false;
        };
        rec.primary = Some(dup);
        let running = self.jobs.get(&dup).is_some_and(|j| j.exec_start.is_some());
        match (self.nodes[node.0].state, running) {
            (NodeState::Started, false) => self.set_state(node, NodeState::Queued),
            (NodeState::Queued, true) => self.set_state(node, NodeState::Started),
            _ => {}
        }
        true
    }

    /// Expected cost of a phase: the [`SPECULATION_QUANTILE`] over
    /// completed execution times, once enough samples exist.
    fn phase_expected(&self, phase: &str) -> Option<f64> {
        let samples = self.phase_durations.get(phase)?;
        if samples.len() < SPECULATION_MIN_SAMPLES {
            return None;
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let idx = ((sorted.len() - 1) as f64 * SPECULATION_QUANTILE).round() as usize;
        Some(sorted[idx.min(sorted.len() - 1)])
    }

    /// Straggler scan: launch one speculative duplicate for any started
    /// node whose attempt has run well past its phase's expected cost.
    fn speculation_submissions(&mut self) -> Vec<SubmitRequest> {
        if !self.speculate {
            return Vec::new();
        }
        let mut out = Vec::new();
        for i in 0..self.dag.len() {
            let rec = &self.nodes[i];
            if rec.state != NodeState::Started || rec.speculated || rec.duplicate.is_some() {
                continue;
            }
            let Some(start) = rec.primary.and_then(|j| self.jobs.get(&j)?.exec_start) else {
                continue;
            };
            let Some(expected) = self.phase_expected(phase_of(&self.dag.node(NodeId(i)).name))
            else {
                continue;
            };
            if (self.now.since(start) as f64) <= expected * SPECULATION_MULTIPLIER {
                continue;
            }
            let rec = &mut self.nodes[i];
            rec.speculated = true;
            rec.attempts += 1;
            self.speculations += 1;
            self.obs.instant(
                "dagman",
                "speculate",
                self.node_tid(NodeId(i)),
                self.now.as_secs(),
            );
            self.awaiting_assign.push_back((NodeId(i), true));
            out.push(SubmitRequest {
                owner: self.owner,
                spec: self.dag.node(NodeId(i)).spec.clone(),
            });
        }
        out
    }

    /// Submit from the ready set, last entry first, until it empties or
    /// a throttle binds.
    fn submissions(&mut self) -> Vec<SubmitRequest> {
        let t = self.dag.throttles;
        let mut out = Vec::new();
        while let Some(&(_, _, node)) = self.ready.last() {
            if (t.max_idle > 0 && self.count(NodeState::Queued) >= t.max_idle)
                || (t.max_jobs > 0 && self.in_flight() >= t.max_jobs)
            {
                break;
            }
            self.ready.pop_last();
            self.set_state(node, NodeState::Queued);
            let rec = &mut self.nodes[node.0];
            rec.attempts += 1;
            rec.submitted_at = self.now;
            // A fresh attempt gets a fresh speculation budget.
            rec.speculated = false;
            rec.primary = None;
            rec.duplicate = None;
            self.awaiting_assign.push_back((node, false));
            out.push(SubmitRequest {
                owner: self.owner,
                spec: self.dag.node(node).spec.clone(),
            });
        }
        out
    }
}

/// Workflow phase of a node: the name prefix before the first `.`
/// (`rupt.3` → `rupt`), matching the telemetry grouping.
fn phase_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

impl WorkloadDriver for Dagman {
    fn poll(&mut self, now: SimTime, events: &[JobEvent]) -> Vec<SubmitRequest> {
        self.now = now;
        self.process(events);
        self.drain_deferred();
        if self.aborted() {
            return Vec::new();
        }
        let mut subs = self.submissions();
        subs.extend(self.speculation_submissions());
        subs
    }

    fn on_assigned(&mut self, job: JobId, _name: &str) {
        let (node, is_spec) = self
            .awaiting_assign
            .pop_front()
            .expect("assignment without pending submission");
        self.jobs.insert(
            job,
            JobRecord {
                node,
                exec_start: None,
                cancelled: false,
            },
        );
        let rec = &mut self.nodes[node.0];
        if is_spec {
            rec.duplicate = Some(job);
        } else {
            rec.primary = Some(job);
        }
    }

    fn cancellations(&mut self) -> Vec<JobId> {
        std::mem::take(&mut self.pending_cancel)
    }

    fn is_done(&self) -> bool {
        (self.aborted() && self.in_flight() == 0)
            || self.completed() + self.failed() + self.futile() == self.dag.len()
    }
}

/// Several DAGMans submitting concurrently to the same schedd — the
/// paper's §4.2 experiment. Each DAGMan keeps its own owner id so the
/// pool's fair-share treats them as separate submitters.
pub struct MultiDagman {
    dagmans: Vec<Dagman>,
    /// Which dagman is waiting for the next id assignment, FIFO.
    assign_queue: std::collections::VecDeque<usize>,
}

impl MultiDagman {
    /// Create from a list of DAGs; owner ids are assigned 0..n.
    pub fn new(dags: Vec<Dag>) -> Self {
        let dagmans = dags
            .into_iter()
            .enumerate()
            .map(|(i, d)| Dagman::new(d, OwnerId(i as u32)))
            .collect();
        Self {
            dagmans,
            assign_queue: std::collections::VecDeque::new(),
        }
    }

    /// Attach one telemetry handle to every inner DAGMan (they share the
    /// sink; owner-disambiguated trace lanes keep them apart).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        for dm in &mut self.dagmans {
            dm.obs = obs.clone();
        }
        self
    }

    /// Switch straggler speculation on or off for every inner DAGMan.
    pub fn with_speculation(mut self, enabled: bool) -> Self {
        for dm in &mut self.dagmans {
            dm.speculate = enabled;
        }
        self
    }

    /// Borrow the inner DAGMans.
    pub fn dagmans(&self) -> &[Dagman] {
        &self.dagmans
    }

    /// Number of DAGMans.
    pub fn len(&self) -> usize {
        self.dagmans.len()
    }

    /// True when holding no DAGMans.
    pub fn is_empty(&self) -> bool {
        self.dagmans.is_empty()
    }
}

impl WorkloadDriver for MultiDagman {
    fn poll(&mut self, now: SimTime, events: &[JobEvent]) -> Vec<SubmitRequest> {
        let mut out = Vec::new();
        for (i, dm) in self.dagmans.iter_mut().enumerate() {
            let subs = dm.poll(now, events);
            for s in subs {
                self.assign_queue.push_back(i);
                out.push(s);
            }
        }
        out
    }

    fn on_assigned(&mut self, job: JobId, name: &str) {
        let i = self
            .assign_queue
            .pop_front()
            .expect("assignment without pending submission");
        self.dagmans[i].on_assigned(job, name);
    }

    fn cancellations(&mut self) -> Vec<JobId> {
        let mut out = Vec::new();
        for dm in &mut self.dagmans {
            out.extend(dm.cancellations());
        }
        out
    }

    fn is_done(&self) -> bool {
        self.dagmans.iter().all(|d| d.is_done())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htcsim::cluster::{Cluster, ClusterConfig};
    use htcsim::job::JobSpec;
    use htcsim::pool::PoolConfig;

    fn quick_cluster(seed: u64) -> Cluster {
        Cluster::new(
            ClusterConfig {
                pool: PoolConfig {
                    target_slots: 32,
                    glidein_slots: 8,
                    avail_mean: 0.95,
                    avail_sigma: 0.02,
                    glidein_lifetime_s: 1e9,
                    ..Default::default()
                },
                ..ClusterConfig::with_cache()
            },
            seed,
        )
    }

    fn chain_dag(n: usize) -> Dag {
        let mut d = Dag::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| d.add_node(JobSpec::fixed(format!("n{i}"), 60.0)).unwrap())
            .collect();
        for w in ids.windows(2) {
            d.add_edge(w[0], w[1]).unwrap();
        }
        d
    }

    fn fan_dag(width: usize) -> Dag {
        let mut d = Dag::new();
        let root = d.add_node(JobSpec::fixed("root", 30.0)).unwrap();
        let sink = d.add_node(JobSpec::fixed("sink", 30.0)).unwrap();
        for i in 0..width {
            let mid = d
                .add_node(JobSpec::fixed(format!("mid{i}"), 120.0))
                .unwrap();
            d.add_edge(root, mid).unwrap();
            d.add_edge(mid, sink).unwrap();
        }
        d
    }

    #[test]
    fn chain_executes_in_order() {
        let mut dm = Dagman::new(chain_dag(5), OwnerId(0));
        let report = quick_cluster(1).run(&mut dm);
        assert!(dm.is_done());
        assert_eq!(dm.completed(), 5);
        assert_eq!(dm.failed(), 0);
        // Completion order in the log must match chain order.
        let completions: Vec<String> = report
            .log
            .events()
            .iter()
            .filter(|e| e.kind == JobEventKind::Completed)
            .map(|e| report.job_names[&e.job].clone())
            .collect();
        assert_eq!(completions, vec!["n0", "n1", "n2", "n3", "n4"]);
        // A chain of five 60 s jobs takes at least 300 s.
        assert!(report.makespan.as_secs() >= 300);
    }

    #[test]
    fn fan_out_runs_in_parallel() {
        let mut dm = Dagman::new(fan_dag(24), OwnerId(0));
        let report = quick_cluster(2).run(&mut dm);
        assert_eq!(dm.completed(), 26);
        // 24 parallel 120 s jobs on 32 slots: far less than serial (2880 s
        // of work) plus root+sink.
        assert!(
            report.makespan.as_secs() < 1500,
            "makespan {} suggests no parallelism",
            report.makespan
        );
        // Sink must be last.
        let last = report
            .log
            .events()
            .iter()
            .rev()
            .find(|e| e.kind == JobEventKind::Completed)
            .unwrap();
        assert_eq!(report.job_names[&last.job], "sink");
    }

    #[test]
    fn maxjobs_throttle_limits_in_flight() {
        let mut dag = fan_dag(16);
        dag.throttles.max_jobs = 2;
        let mut dm = Dagman::new(dag, OwnerId(0));
        let report = quick_cluster(3).run(&mut dm);
        assert_eq!(dm.completed(), 18);
        // With at most 2 in flight, the running series never exceeds 2.
        let peak = report.log.running_series().into_iter().max().unwrap_or(0);
        assert!(peak <= 2, "peak running {peak} exceeds maxjobs");
    }

    #[test]
    fn maxidle_throttle_still_completes() {
        let mut dag = fan_dag(16);
        dag.throttles.max_idle = 1;
        let mut dm = Dagman::new(dag, OwnerId(0));
        let report = quick_cluster(4).run(&mut dm);
        assert_eq!(dm.completed(), 18);
        assert!(!report.timed_out);
    }

    #[test]
    fn node_states_progress() {
        let dag = chain_dag(2);
        let dm = Dagman::new(dag, OwnerId(0));
        assert_eq!(dm.node_state(NodeId(0)), NodeState::Ready);
        assert_eq!(dm.node_state(NodeId(1)), NodeState::Waiting);
    }

    #[test]
    fn priority_orders_submissions() {
        // A fan of independent nodes with distinct priorities on a
        // single-slot pool: completion order must follow priority.
        let mut dag = Dag::new();
        for (name, prio) in [("low", -5), ("mid", 0), ("high", 7), ("top", 9)] {
            let id = dag.add_node(JobSpec::fixed(name, 60.0)).unwrap();
            dag.set_priority(id, prio);
        }
        dag.throttles.max_jobs = 1; // serialise through the DAGMan itself
        let mut dm = Dagman::new(dag, OwnerId(0));
        let report = quick_cluster(12).run(&mut dm);
        let order: Vec<String> = report
            .log
            .events()
            .iter()
            .filter(|e| e.kind == JobEventKind::Completed)
            .map(|e| report.job_names[&e.job].clone())
            .collect();
        assert_eq!(order, vec!["top", "high", "mid", "low"]);
    }

    #[test]
    fn tied_priorities_submit_the_most_recently_readied_first() {
        // Roots are readied in id order; `late` is readied when `top`
        // completes, after every root. Among the tied nodes the most
        // recently readied submits first, whatever the other priorities.
        let mut dag = Dag::new();
        for (name, prio) in [("a", 1), ("b", 1), ("top", 5), ("late", 1)] {
            let id = dag.add_node(JobSpec::fixed(name, 60.0)).unwrap();
            dag.set_priority(id, prio);
        }
        dag.add_edge(NodeId(2), NodeId(3)).unwrap();
        dag.throttles.max_jobs = 1;
        let mut dm = Dagman::new(dag, OwnerId(0));
        let report = quick_cluster(12).run(&mut dm);
        let order: Vec<&str> = report
            .log
            .events()
            .iter()
            .filter(|e| e.kind == JobEventKind::Submitted)
            .map(|e| report.job_names[&e.job].as_str())
            .collect();
        assert_eq!(order, ["top", "late", "b", "a"]);
    }

    #[test]
    fn priority_file_roundtrip() {
        let mut dag = Dag::new();
        let a = dag.add_node(JobSpec::fixed("A", 1.0)).unwrap();
        dag.add_node(JobSpec::fixed("B", 1.0)).unwrap();
        dag.set_priority(a, 42);
        let text = dag.to_dag_file();
        assert!(text.contains("PRIORITY A 42"));
        let parsed = Dag::parse(&text, |n| JobSpec::fixed(n, 1.0)).unwrap();
        assert_eq!(parsed.node(parsed.id_of("A").unwrap()).priority, 42);
        assert_eq!(parsed.node(parsed.id_of("B").unwrap()).priority, 0);
        assert!(Dag::parse("PRIORITY X 1\n", |n| JobSpec::fixed(n, 1.0)).is_err());
        assert!(Dag::parse("JOB A a\nPRIORITY A x\n", |n| JobSpec::fixed(n, 1.0)).is_err());
    }

    #[test]
    fn multi_dagman_completes_all() {
        let dags: Vec<Dag> = (0..3).map(|_| fan_dag(8)).collect();
        let mut multi = MultiDagman::new(dags);
        assert_eq!(multi.len(), 3);
        assert!(!multi.is_empty());
        let report = quick_cluster(5).run(&mut multi);
        assert!(multi.is_done());
        for dm in multi.dagmans() {
            assert_eq!(dm.completed(), 10);
        }
        assert_eq!(report.completed, 30);
    }

    #[test]
    fn multi_dagman_owners_are_distinct() {
        let dags: Vec<Dag> = (0..2).map(|_| chain_dag(2)).collect();
        let mut multi = MultiDagman::new(dags);
        let report = quick_cluster(6).run(&mut multi);
        let mut owners: Vec<u32> = report.log.events().iter().map(|e| e.owner.0).collect();
        owners.sort_unstable();
        owners.dedup();
        assert_eq!(owners, vec![0, 1]);
    }

    #[test]
    fn removed_jobs_are_retried_and_exhaust_to_failed() {
        use htcsim::job::ExecModel;
        // A wall-time limit that the lognormal execution time exceeds on
        // some attempts only: those attempts are held and removed, nodes
        // with retries resubmit until one fits, and nodes without retries
        // fail for good — the full RETRY path.
        let dag = |retries| {
            let mut dag = Dag::new();
            for i in 0..12 {
                let mut spec = JobSpec::fixed(format!("long.{i}"), 300.0);
                spec.exec = ExecModel::LogNormalMedian {
                    median_s: 300.0,
                    sigma: 0.8,
                };
                spec.timeout_s = 450.0;
                let id = dag.add_node(spec).unwrap();
                dag.set_retries(id, retries);
            }
            dag
        };
        let mut dm = Dagman::new(dag(20), OwnerId(0));
        let report = faulty_cluster(5, Default::default()).run(&mut dm);
        let removed = report
            .log
            .events()
            .iter()
            .filter(|e| e.kind == JobEventKind::Removed)
            .count();
        assert!(removed > 0, "the wall-time limit must remove some attempts");
        assert_eq!(dm.retries(), removed as u64, "each removal is retried");
        assert_eq!(dm.completed(), 12, "generous retries recover everything");
        assert_eq!(dm.failed(), 0);

        // The same limit without retries: some nodes fail for good.
        let mut dm = Dagman::new(dag(0), OwnerId(0));
        let _ = faulty_cluster(5, Default::default()).run(&mut dm);
        assert!(dm.failed() > 0, "without retries, removals become failures");
        assert!(dm.completed() > 0, "the limit spares some attempts");
        assert!(dm.is_done());
        assert_eq!(dm.failed_nodes().len(), dm.failed());
    }

    #[test]
    fn done_and_failed_node_lists() {
        let mut dm = Dagman::new(chain_dag(3), OwnerId(0));
        let _ = quick_cluster(7).run(&mut dm);
        assert_eq!(dm.done_nodes().len(), 3);
        assert!(dm.failed_nodes().is_empty());
    }

    use htcsim::fault::{FaultConfig, EXIT_PERMANENT};

    fn faulty_cluster(seed: u64, faults: FaultConfig) -> Cluster {
        Cluster::new(
            ClusterConfig {
                pool: PoolConfig {
                    target_slots: 16,
                    glidein_slots: 4,
                    avail_mean: 1.0,
                    avail_sigma: 0.0,
                    glidein_lifetime_s: 1e9,
                    ..Default::default()
                },
                faults,
                ..ClusterConfig::with_cache()
            },
            seed,
        )
    }

    #[test]
    fn transient_failures_retry_with_backoff() {
        let mut dag = Dag::new();
        for i in 0..10 {
            let id = dag.add_node(JobSpec::fixed(format!("t{i}"), 60.0)).unwrap();
            dag.set_retries(id, 20);
            dag.set_retry_defer(id, 30);
        }
        let faults = FaultConfig {
            seed: 11,
            transient_exit_prob: 0.5,
            ..Default::default()
        };
        let mut dm = Dagman::new(dag, OwnerId(0));
        let report = faulty_cluster(8, faults).run(&mut dm);
        assert!(!report.timed_out);
        assert_eq!(dm.completed(), 10);
        assert!(dm.retries() > 0, "p=0.5 over 10 nodes must fail somewhere");
        assert!(dm.failed_nodes().is_empty());
        // Every resubmission respects the 30 s base backoff: for each job
        // name, a Submitted following a Failed comes at least 30 s later.
        let mut last_failed: HashMap<String, u64> = HashMap::new();
        for ev in report.log.events() {
            let name = report.job_names[&ev.job].clone();
            match ev.kind {
                JobEventKind::Failed => {
                    last_failed.insert(name, ev.time.as_secs());
                }
                JobEventKind::Submitted => {
                    if let Some(&t) = last_failed.get(&name) {
                        assert!(
                            ev.time.as_secs() >= t + 30,
                            "{name} resubmitted {} s after failure",
                            ev.time.as_secs() - t
                        );
                    }
                }
                _ => {}
            }
        }
        // The jitter is byte-wise FNV-1a over the name, then one word step
        // over the attempt; pinned so a fold-variant mix-up shows.
        assert_eq!(backoff_jitter("waveform.0", 1), 0x7c4c_b0e4_d3b0_46b7);
        assert_eq!(backoff_jitter("rupture.3", 2), 0xfd6e_f5b1_a856_a61d);
    }

    #[test]
    fn abort_dag_on_stops_the_dag() {
        let mut dag = Dag::new();
        let a = dag.add_node(JobSpec::fixed("A", 60.0)).unwrap();
        let b = dag.add_node(JobSpec::fixed("B", 60.0)).unwrap();
        dag.add_edge(a, b).unwrap();
        dag.set_retries(a, 5);
        dag.set_abort_dag_on(a, EXIT_PERMANENT);
        let faults = FaultConfig {
            seed: 3,
            permanent_job_fraction: 1.0,
            ..Default::default()
        };
        let mut dm = Dagman::new(dag, OwnerId(0));
        let _ = faulty_cluster(9, faults).run(&mut dm);
        assert!(dm.aborted());
        assert!(dm.is_done());
        assert_eq!(dm.node_state(NodeId(1)), NodeState::Futile);
        assert_eq!(dm.futile(), 1);
        let failed = dm.failed_nodes();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].name, "A");
        assert_eq!(failed[0].exit_code, Some(EXIT_PERMANENT));
        assert_eq!(
            failed[0].attempts, 1,
            "abort fires before retries are spent"
        );
    }

    #[test]
    fn exhausted_retries_report_exit_and_attempts() {
        let mut dag = Dag::new();
        let id = dag.add_node(JobSpec::fixed("perm", 60.0)).unwrap();
        dag.set_retries(id, 2);
        let faults = FaultConfig {
            seed: 5,
            permanent_job_fraction: 1.0,
            ..Default::default()
        };
        let mut dm = Dagman::new(dag, OwnerId(0));
        let _ = faulty_cluster(10, faults).run(&mut dm);
        let failed = dm.failed_nodes();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].attempts, 3, "initial try plus two retries");
        assert_eq!(failed[0].exit_code, Some(EXIT_PERMANENT));
        assert_eq!(dm.retries(), 2);
    }

    #[test]
    fn holds_are_counted_and_recovered() {
        let mut dag = Dag::new();
        for i in 0..8 {
            dag.add_node(JobSpec::fixed(format!("h{i}"), 60.0)).unwrap();
        }
        let faults = FaultConfig {
            seed: 2,
            hold_prob: 0.4,
            hold_release_s: 120.0,
            ..Default::default()
        };
        let mut dm = Dagman::new(dag, OwnerId(0));
        let report = faulty_cluster(11, faults).run(&mut dm);
        assert_eq!(dm.completed(), 8, "held jobs are released and finish");
        assert!(dm.holds() > 0);
        assert_eq!(dm.holds(), report.holds);
    }

    #[test]
    fn speculation_duplicates_stragglers_first_finisher_wins() {
        use htcsim::job::ExecModel;
        // Heavy-tailed runtimes: the lognormal tail plus machine speed
        // spread guarantees stragglers well past 2x the 0.75 quantile.
        let mut dag = Dag::new();
        for i in 0..40 {
            let mut spec = JobSpec::fixed(format!("w.{i}"), 120.0);
            spec.exec = ExecModel::LogNormalMedian {
                median_s: 120.0,
                sigma: 1.2,
            };
            dag.add_node(spec).unwrap();
        }
        let mut dm = Dagman::new(dag, OwnerId(0)).with_speculation(true);
        let report = quick_cluster(21).run(&mut dm);
        assert!(dm.is_done());
        assert_eq!(dm.completed(), 40);
        assert_eq!(dm.failed(), 0);
        assert!(
            dm.speculations() > 0,
            "heavy-tailed runtimes must trigger speculative duplicates"
        );
        // Every speculated node settles as exactly one win or one loss.
        assert_eq!(dm.spec_wins() + dm.spec_losses(), dm.speculations());
        assert_eq!(dm.retries(), 0, "speculation must not consume retries");
        // Losing copies are condor_rm'd: Removed events in the user log.
        let removed = report
            .log
            .events()
            .iter()
            .filter(|e| e.kind == JobEventKind::Removed)
            .count() as u64;
        assert_eq!(removed, dm.speculations(), "one condor_rm per race loser");
    }

    #[test]
    fn speculation_disabled_never_duplicates() {
        use htcsim::job::ExecModel;
        let mut dag = Dag::new();
        for i in 0..12 {
            let mut spec = JobSpec::fixed(format!("w.{i}"), 120.0);
            spec.exec = ExecModel::LogNormalMedian {
                median_s: 120.0,
                sigma: 1.2,
            };
            dag.add_node(spec).unwrap();
        }
        let mut dm = Dagman::new(dag, OwnerId(0));
        let report = quick_cluster(21).run(&mut dm);
        assert_eq!(dm.completed(), 12);
        assert_eq!(dm.speculations(), 0);
        assert_eq!(dm.spec_wins() + dm.spec_losses(), 0);
        assert!(report
            .log
            .events()
            .iter()
            .all(|e| e.kind != JobEventKind::Removed));
    }

    #[test]
    fn walltime_removal_consumes_retries() {
        let mut dag = Dag::new();
        let mut spec = JobSpec::fixed("slow", 500.0);
        spec.timeout_s = 60.0;
        let id = dag.add_node(spec).unwrap();
        dag.set_retries(id, 1);
        let mut dm = Dagman::new(dag, OwnerId(0));
        let _ = faulty_cluster(12, Default::default()).run(&mut dm);
        assert!(dm.is_done());
        let failed = dm.failed_nodes();
        assert_eq!(failed.len(), 1);
        assert_eq!(
            failed[0].exit_code, None,
            "walltime removal has no exit code"
        );
        assert_eq!(failed[0].attempts, 2);
        assert_eq!(dm.holds(), 2, "each timed-out attempt is held first");
    }
}
