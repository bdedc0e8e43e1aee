//! The DAGMan scheduler: a [`WorkloadDriver`] that walks a [`Dag`] on the
//! cluster, submitting nodes whose parents have finished, subject to
//! `maxjobs`/`maxidle` throttles, with per-node retries, exponential
//! retry backoff (`RETRY ... DEFER`), hold/release accounting,
//! `ABORT-DAG-ON` exit-code handling, and optional straggler speculation
//! (a duplicate submission for nodes running far past their phase's
//! expected cost; first finisher wins, the loser is condor_rm'd).

use std::collections::{BTreeMap, HashMap, HashSet};

use fdw_obs::digest::{fnv1a, fnv1a_word, DIGEST_INIT};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Parents not yet done.
    Waiting,
    /// Eligible for submission.
    Ready,
    /// Submitted, queued idle.
    Queued,
    /// Executing (or staging) on the pool.
    Started,
    /// Finished successfully.
    Done,
    /// Removed/failed with retries exhausted.
    Failed,
}

/// A running DAGMan instance.
pub struct Dagman {
    dag: Dag,
    owner: OwnerId,
    state: Vec<NodeState>,
    remaining_retries: Vec<u32>,
    unfinished_parents: Vec<usize>,
    ready: Vec<NodeId>,
    job_to_node: HashMap<JobId, NodeId>,
    /// Nodes submitted and not yet terminal.
    in_flight: usize,
    /// Nodes submitted and not yet started (idle in the queue).
    idle: usize,
    done: usize,
    failed: usize,
    /// Pending submissions awaiting id assignment, in order; the flag
    /// marks speculative duplicates.
    awaiting_assign: std::collections::VecDeque<(NodeId, bool)>,
    /// Whether any node carries a non-zero priority (enables the
    /// priority-aware ready-set scan).
    has_priorities: bool,
    /// Retries waiting out their backoff: (due time, node).
    deferred: Vec<(SimTime, NodeId)>,
    /// Submission count per node.
    attempts: Vec<u32>,
    /// Exit code of each node's most recent terminal event.
    last_exit: Vec<Option<i32>>,
    /// Simulation time of the latest poll.
    now: SimTime,
    /// Hold events observed across all nodes.
    holds: u64,
    /// Retries actually performed.
    retries_done: u64,
    /// Set when an `ABORT-DAG-ON` node exited with its trigger code.
    aborted: bool,
    /// Nodes that can never run because an ancestor failed permanently.
    futile: Vec<bool>,
    /// Count of futile nodes (they settle the DAG without running).
    futile_count: usize,
    /// Release events observed across all nodes.
    releases: u64,
    /// When each node's current attempt was submitted (span bookkeeping).
    submit_at: Vec<SimTime>,
    /// Telemetry handle (disabled by default).
    obs: Obs,
    /// Straggler speculation switch (defense layer; off by default).
    speculate: bool,
    /// Execution start time of each live attempt, by job id.
    exec_started: HashMap<JobId, SimTime>,
    /// The current primary attempt's job id per node.
    primary_job: Vec<Option<JobId>>,
    /// Outstanding speculative duplicate per node.
    spec_job: Vec<Option<JobId>>,
    /// Whether the node's current attempt already spawned a duplicate.
    speculated: Vec<bool>,
    /// Completed execution seconds per workflow phase (node-name prefix),
    /// feeding the straggler threshold. Kept separate from telemetry so
    /// observability can never perturb scheduling.
    phase_durations: BTreeMap<String, Vec<f64>>,
    /// Losers awaiting condor_rm, drained by `cancellations`.
    pending_cancel: Vec<JobId>,
    /// Jobs this DAGMan removed itself: their terminal events are
    /// bookkeeping, not node outcomes.
    cancelled: HashSet<JobId>,
    speculations: u64,
    spec_wins: u64,
    spec_losses: u64,
    wasted_spec_s: f64,
}

impl Dagman {
    /// Create a DAGMan for `dag`, submitting as `owner`.
    pub fn new(dag: Dag, owner: OwnerId) -> Self {
        let n = dag.len();
        let unfinished_parents: Vec<usize> =
            dag.nodes().iter().map(|nd| nd.parents.len()).collect();
        let mut state = vec![NodeState::Waiting; n];
        let mut ready = Vec::new();
        for id in dag.roots() {
            state[id.0] = NodeState::Ready;
            ready.push(id);
        }
        let remaining_retries = dag.nodes().iter().map(|nd| nd.retries).collect();
        let has_priorities = dag.nodes().iter().any(|nd| nd.priority != 0);
        Self {
            dag,
            owner,
            state,
            remaining_retries,
            unfinished_parents,
            ready,
            job_to_node: HashMap::new(),
            in_flight: 0,
            idle: 0,
            done: 0,
            failed: 0,
            awaiting_assign: std::collections::VecDeque::new(),
            has_priorities,
            deferred: Vec::new(),
            attempts: vec![0; n],
            last_exit: vec![None; n],
            now: SimTime(0),
            holds: 0,
            retries_done: 0,
            aborted: false,
            futile: vec![false; n],
            futile_count: 0,
            releases: 0,
            submit_at: vec![SimTime(0); n],
            obs: Obs::disabled(),
            speculate: false,
            exec_started: HashMap::new(),
            primary_job: vec![None; n],
            spec_job: vec![None; n],
            speculated: vec![false; n],
            phase_durations: BTreeMap::new(),
            pending_cancel: Vec::new(),
            cancelled: HashSet::new(),
            speculations: 0,
            spec_wins: 0,
            spec_losses: 0,
            wasted_spec_s: 0.0,
        }
    }

    /// Switch straggler speculation on or off.
    pub fn with_speculation(mut self, enabled: bool) -> Self {
        self.speculate = enabled;
        self
    }

    /// Attach a telemetry handle. Node spans land in category `dagman`,
    /// metrics under `dagman.*`.
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

    /// Nodes completed so far.
    pub fn completed(&self) -> usize {
        self.done
    }

    /// Nodes failed permanently.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Current state of a node.
    pub fn node_state(&self, id: NodeId) -> NodeState {
        self.state[id.0]
    }

    /// Permanently failed nodes with their final exit code and attempt
    /// count (for rescue DAG generation and post-mortem reporting).
    pub fn failed_nodes(&self) -> Vec<FailedNode> {
        (0..self.dag.len())
            .filter(|i| self.state[*i] == NodeState::Failed)
            .map(|i| FailedNode {
                name: self.dag.node(NodeId(i)).name.clone(),
                exit_code: self.last_exit[i],
                attempts: self.attempts[i],
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
        self.futile_count
    }

    /// Total job submission attempts across every node.
    pub fn total_attempts(&self) -> u64 {
        self.attempts.iter().map(|&a| a as u64).sum()
    }

    /// True when an `ABORT-DAG-ON` trigger stopped the DAG.
    pub fn aborted(&self) -> bool {
        self.aborted
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
        self.wasted_spec_s
    }

    /// Name of the node a cluster job id was submitted under, if this
    /// DAGMan submitted it (telemetry uses this to group user-log events
    /// by workflow phase).
    pub fn node_name(&self, job: JobId) -> Option<&str> {
        self.job_to_node
            .get(&job)
            .map(|n| self.dag.node(*n).name.as_str())
    }

    /// Names of completed nodes (for rescue DAG generation).
    pub fn done_nodes(&self) -> Vec<&str> {
        (0..self.dag.len())
            .filter(|i| self.state[*i] == NodeState::Done)
            .map(|i| self.dag.node(NodeId(i)).name.as_str())
            .collect()
    }

    /// Rescue-DAG resume path: complete a node that was never submitted.
    pub(crate) fn force_done_inner(&mut self, node: NodeId) {
        self.state[node.0] = NodeState::Done;
        self.done += 1;
        self.ready.retain(|&r| r != node);
        let children = self.dag.node(node).children.clone();
        for c in children {
            self.unfinished_parents[c.0] -= 1;
            if self.unfinished_parents[c.0] == 0 && self.state[c.0] == NodeState::Waiting {
                self.state[c.0] = NodeState::Ready;
                self.ready.push(c);
            }
        }
    }

    /// Trace lane for a node: owner-disambiguated so concurrent DAGMans
    /// stay on separate tracks in one export.
    fn node_tid(&self, node: NodeId) -> u64 {
        self.owner.0 as u64 * 1_000_000 + node.0 as u64
    }

    fn mark_done(&mut self, node: NodeId) {
        if self.state[node.0] == NodeState::Done {
            return;
        }
        self.state[node.0] = NodeState::Done;
        self.done += 1;
        self.in_flight -= 1;
        self.obs.inc("dagman.nodes_done", 1);
        self.obs.span(
            "dagman",
            &format!("node:{}", self.dag.node(node).name),
            self.node_tid(node),
            self.submit_at[node.0].as_secs(),
            self.now.as_secs(),
        );
        let children = self.dag.node(node).children.clone();
        for c in children {
            self.unfinished_parents[c.0] -= 1;
            if self.unfinished_parents[c.0] == 0 && self.state[c.0] == NodeState::Waiting {
                self.state[c.0] = NodeState::Ready;
                self.ready.push(c);
            }
        }
    }

    /// Terminal-but-retryable path: consume a retry with exponential
    /// backoff, or fail the node for good when the budget is spent.
    fn mark_removed(&mut self, node: NodeId) {
        self.in_flight -= 1;
        if !self.aborted && self.remaining_retries[node.0] > 0 {
            self.remaining_retries[node.0] -= 1;
            self.retries_done += 1;
            self.obs.inc("dagman.retries", 1);
            let nd = self.dag.node(node);
            let base = nd.retry_defer_s;
            if base == 0 {
                self.obs.observe("dagman.backoff_wait_s", 0.0);
                self.state[node.0] = NodeState::Ready;
                self.ready.push(node);
            } else {
                // Attempt k (1-based) waits base * 2^(k-1), capped, plus
                // deterministic jitter of up to a quarter of the delay.
                let k = nd.retries - self.remaining_retries[node.0];
                let delay = base
                    .checked_shl(k.saturating_sub(1).min(6))
                    .unwrap_or(u64::MAX)
                    .min(MAX_BACKOFF_S);
                let jitter = backoff_jitter(&nd.name, k) % (delay / 4 + 1);
                self.obs
                    .observe("dagman.backoff_wait_s", (delay + jitter) as f64);
                self.obs.span(
                    "dagman",
                    &format!("backoff:{}", nd.name),
                    self.node_tid(node),
                    self.now.as_secs(),
                    (self.now + delay + jitter).as_secs(),
                );
                self.state[node.0] = NodeState::Ready;
                self.deferred.push((self.now + delay + jitter, node));
            }
        } else {
            self.state[node.0] = NodeState::Failed;
            self.failed += 1;
            self.obs.inc("dagman.nodes_failed", 1);
            self.obs.span(
                "dagman",
                &format!("node:{}", self.dag.node(node).name),
                self.node_tid(node),
                self.submit_at[node.0].as_secs(),
                self.now.as_secs(),
            );
            self.mark_futile_descendants(node);
        }
    }

    /// A permanently failed node strands every waiting descendant: mark
    /// them futile so the DAG can settle (DAGMan's "futile node" count).
    fn mark_futile_descendants(&mut self, node: NodeId) {
        for d in self.dag.descendants(node) {
            if self.state[d.0] == NodeState::Waiting && !self.futile[d.0] {
                self.futile[d.0] = true;
                self.futile_count += 1;
                self.obs.inc("dagman.nodes_futile", 1);
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
                self.ready.push(node);
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
            let Some(&node) = self.job_to_node.get(&ev.job) else {
                continue;
            };
            if self.cancelled.contains(&ev.job) {
                self.settle_cancelled(ev, node);
                continue;
            }
            let is_primary = self.primary_job[node.0] == Some(ev.job);
            match ev.kind {
                JobEventKind::ExecuteStarted => {
                    self.exec_started.insert(ev.job, ev.time);
                    if is_primary && self.state[node.0] == NodeState::Queued {
                        self.state[node.0] = NodeState::Started;
                        self.idle = self.idle.saturating_sub(1);
                    }
                }
                JobEventKind::Evicted | JobEventKind::Preempted | JobEventKind::PoolOutage => {
                    // Cluster re-queues evicted, preempted and
                    // outage-displaced jobs automatically; the node is
                    // idle again for throttle purposes. Pool-level
                    // displacements consume no DAGMan retry.
                    self.exec_started.remove(&ev.job);
                    if is_primary && self.state[node.0] == NodeState::Started {
                        self.state[node.0] = NodeState::Queued;
                        self.idle += 1;
                    }
                }
                JobEventKind::Held => {
                    // The job lost its slot; it counts as idle until the
                    // cluster releases and re-matches it.
                    self.exec_started.remove(&ev.job);
                    self.holds += 1;
                    self.obs.inc("dagman.holds", 1);
                    if is_primary && self.state[node.0] == NodeState::Started {
                        self.state[node.0] = NodeState::Queued;
                        self.idle += 1;
                    }
                }
                JobEventKind::Released => {
                    // Still queued from DAGMan's perspective; only the
                    // release tally moves.
                    self.releases += 1;
                    self.obs.inc("dagman.releases", 1);
                }
                JobEventKind::Completed => self.complete(ev, node),
                JobEventKind::Failed => {
                    self.exec_started.remove(&ev.job);
                    if self.spec_job[node.0] == Some(ev.job) {
                        // The duplicate died on its own; the original
                        // attempt is unaffected.
                        self.spec_job[node.0] = None;
                        continue;
                    }
                    if !is_primary {
                        continue;
                    }
                    self.last_exit[node.0] = ev.exit_code;
                    let trigger = self.dag.node(node).abort_dag_on;
                    if trigger.is_some() && trigger == ev.exit_code {
                        // ABORT-DAG-ON: the node fails for good and the
                        // whole DAG stops submitting.
                        if self.state[node.0] == NodeState::Queued {
                            self.idle = self.idle.saturating_sub(1);
                        }
                        if let Some(dup) = self.spec_job[node.0].take() {
                            self.cancel(dup);
                        }
                        self.aborted = true;
                        self.in_flight -= 1;
                        self.state[node.0] = NodeState::Failed;
                        self.failed += 1;
                        self.obs.inc("dagman.aborts", 1);
                        self.obs.inc("dagman.nodes_failed", 1);
                        self.mark_futile_descendants(node);
                    } else if self.promote_duplicate(node) {
                        // The duplicate carries on; no retry consumed.
                    } else {
                        if self.state[node.0] == NodeState::Queued {
                            self.idle = self.idle.saturating_sub(1);
                        }
                        self.mark_removed(node);
                    }
                }
                JobEventKind::Removed => {
                    self.exec_started.remove(&ev.job);
                    if self.spec_job[node.0] == Some(ev.job) {
                        self.spec_job[node.0] = None;
                        continue;
                    }
                    if !is_primary {
                        continue;
                    }
                    self.last_exit[node.0] = None;
                    if self.promote_duplicate(node) {
                        continue;
                    }
                    if self.state[node.0] == NodeState::Queued {
                        self.idle = self.idle.saturating_sub(1);
                    }
                    self.mark_removed(node);
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
    fn complete(&mut self, ev: &JobEvent, node: NodeId) {
        if self.state[node.0] == NodeState::Done {
            // The slower copy finished before its condor_rm landed; the
            // winner already settled the node.
            return;
        }
        if let Some(start) = self.exec_started.remove(&ev.job) {
            let phase = phase_of(&self.dag.node(node).name).to_string();
            self.phase_durations
                .entry(phase)
                .or_default()
                .push(ev.time.since(start) as f64);
        }
        let dup = self.spec_job[node.0].take();
        let primary = self.primary_job[node.0].take();
        if dup == Some(ev.job) {
            self.spec_wins += 1;
            self.obs.inc("dagman.spec_wins", 1);
            if let Some(loser) = primary {
                self.cancel(loser);
            }
        } else if let Some(loser) = dup {
            self.spec_losses += 1;
            self.obs.inc("dagman.spec_losses", 1);
            self.cancel(loser);
        }
        if self.state[node.0] == NodeState::Queued {
            self.idle = self.idle.saturating_sub(1);
        }
        self.last_exit[node.0] = ev.exit_code.or(Some(0));
        self.mark_done(node);
    }

    /// Queue a condor_rm for the losing copy of a speculated node.
    fn cancel(&mut self, job: JobId) {
        self.cancelled.insert(job);
        self.pending_cancel.push(job);
    }

    /// Terminal event of a job this DAGMan removed itself: account the
    /// wasted execution and drop the tracking state. Not a node outcome.
    fn settle_cancelled(&mut self, ev: &JobEvent, node: NodeId) {
        match ev.kind {
            JobEventKind::Removed | JobEventKind::Failed | JobEventKind::Completed => {
                self.cancelled.remove(&ev.job);
                if let Some(start) = self.exec_started.remove(&ev.job) {
                    let wasted = ev.time.since(start) as f64;
                    self.wasted_spec_s += wasted;
                    self.obs.observe("dagman.spec_wasted_s", wasted);
                }
                if self.spec_job[node.0] == Some(ev.job) {
                    self.spec_job[node.0] = None;
                }
                if self.primary_job[node.0] == Some(ev.job) {
                    self.primary_job[node.0] = None;
                }
            }
            _ => {}
        }
    }

    /// Primary attempt died with a speculative duplicate still in the
    /// queue: the duplicate becomes the primary and the node keeps its
    /// in-flight status without consuming a retry.
    fn promote_duplicate(&mut self, node: NodeId) -> bool {
        let Some(dup) = self.spec_job[node.0].take() else {
            return false;
        };
        self.primary_job[node.0] = Some(dup);
        let running = self.exec_started.contains_key(&dup);
        match (self.state[node.0], running) {
            (NodeState::Started, false) => {
                self.state[node.0] = NodeState::Queued;
                self.idle += 1;
            }
            (NodeState::Queued, true) => {
                self.state[node.0] = NodeState::Started;
                self.idle = self.idle.saturating_sub(1);
            }
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
            if self.state[i] != NodeState::Started
                || self.speculated[i]
                || self.spec_job[i].is_some()
            {
                continue;
            }
            let Some(pj) = self.primary_job[i] else {
                continue;
            };
            let Some(&start) = self.exec_started.get(&pj) else {
                continue;
            };
            let Some(expected) = self.phase_expected(phase_of(&self.dag.node(NodeId(i)).name))
            else {
                continue;
            };
            if (self.now.since(start) as f64) <= expected * SPECULATION_MULTIPLIER {
                continue;
            }
            self.speculated[i] = true;
            self.speculations += 1;
            self.attempts[i] += 1;
            self.obs.inc("dagman.speculations", 1);
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

    /// Index in `ready` of the next node to submit: highest priority
    /// first (DAGMan `PRIORITY`), FIFO among equals. DAGs without
    /// priorities (the common FDW case) take an O(1) fast path.
    fn next_ready_index(&self) -> Option<usize> {
        if self.ready.is_empty() {
            return None;
        }
        if !self.has_priorities {
            return Some(self.ready.len() - 1);
        }
        let mut best: Option<(usize, i32)> = None;
        for (idx, node) in self.ready.iter().enumerate() {
            let p = self.dag.node(*node).priority;
            match best {
                Some((_, bp)) if bp >= p => {}
                _ => best = Some((idx, p)),
            }
        }
        best.map(|(idx, _)| idx)
    }

    fn submissions(&mut self) -> Vec<SubmitRequest> {
        let t = self.dag.throttles;
        let mut out = Vec::new();
        while let Some(idx) = self.next_ready_index() {
            let node = self.ready[idx];
            if t.max_idle > 0 && self.idle >= t.max_idle {
                break;
            }
            if t.max_jobs > 0 && self.in_flight >= t.max_jobs {
                break;
            }
            self.ready.remove(idx);
            self.state[node.0] = NodeState::Queued;
            self.attempts[node.0] += 1;
            self.submit_at[node.0] = self.now;
            self.obs.inc("dagman.submissions", 1);
            self.in_flight += 1;
            self.idle += 1;
            // A fresh attempt gets a fresh speculation budget.
            self.speculated[node.0] = false;
            self.primary_job[node.0] = None;
            self.spec_job[node.0] = None;
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
        if self.aborted {
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
        self.job_to_node.insert(job, node);
        if is_spec {
            self.spec_job[node.0] = Some(job);
        } else {
            self.primary_job[node.0] = Some(job);
        }
    }

    fn cancellations(&mut self) -> Vec<JobId> {
        std::mem::take(&mut self.pending_cancel)
    }

    fn is_done(&self) -> bool {
        (self.aborted && self.in_flight == 0)
            || self.done + self.failed + self.futile_count == self.dag.len()
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
        use htcsim::cluster::ClusterConfig;
        // Violent churn + a one-eviction removal policy: long jobs get
        // removed repeatedly; nodes with retries resubmit, nodes without
        // eventually fail — exercising the full RETRY path.
        let cfg = ClusterConfig {
            pool: PoolConfig {
                target_slots: 16,
                glidein_slots: 4,
                glidein_lifetime_s: 240.0, // 4-minute glideins
                avail_mean: 1.0,
                avail_sigma: 0.0,
                max_sim_time_s: 48 * 3600,
                ..Default::default()
            },
            max_evictions_per_job: 1,
            ..ClusterConfig::with_cache()
        };
        let mut dag = Dag::new();
        for i in 0..12 {
            let id = dag
                .add_node(JobSpec::fixed(format!("long.{i}"), 600.0))
                .unwrap();
            dag.set_retries(id, 400);
        }
        let mut dm = Dagman::new(dag, OwnerId(0));
        let report = Cluster::new(cfg.clone(), 5).run(&mut dm);
        let removed = report
            .log
            .events()
            .iter()
            .filter(|e| e.kind == JobEventKind::Removed)
            .count();
        assert!(removed > 0, "the churny pool must remove some jobs");
        assert_eq!(dm.completed(), 12, "generous retries recover everything");
        assert_eq!(dm.failed(), 0);

        // Same storm without retries: at least one node fails for good.
        let mut dag = Dag::new();
        for i in 0..12 {
            dag.add_node(JobSpec::fixed(format!("long.{i}"), 600.0))
                .unwrap();
        }
        let mut dm = Dagman::new(dag, OwnerId(0));
        let _ = Cluster::new(cfg, 5).run(&mut dm);
        assert!(dm.failed() > 0, "without retries, removals become failures");
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
        assert_eq!(dm.node_state(NodeId(1)), NodeState::Waiting);
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
