//! The discrete-event queue: sharded, lane-aware, and deterministic.
//!
//! Events live on **logical lanes** (one per federated pool plus a
//! control lane, see [`LaneId`]); lanes are stored across one or more
//! **physical shards** (per-lane binary heaps grouped by `lane % shards`)
//! and popped through a k-way merge on the explicit total order
//!
//! ```text
//!   (timestamp, lane_id, per-lane sequence number)
//! ```
//!
//! That key — [`EventKey`] — is the determinism contract of the whole
//! simulator: same pushes, same pops, *regardless of the shard count*,
//! because the key never mentions shards. Same-timestamp ties break by
//! lane, then by per-lane insertion order; nothing is left to heap
//! internals or hasher state. The golden ULOG fixtures are pinned by
//! this contract, not by accident of `BinaryHeap` sift order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::job::JobId;
use crate::pool::MachineId;
use crate::time::SimTime;

/// A logical event lane. Lane 0 is the control lane (matchmaker,
/// glidein churn, pool-level fault windows); federated runs place each
/// pool's job-lifecycle events on lane `pool + 1`, single-pool runs use
/// lane 1 for every job event. Lanes are a property of the *scenario*,
/// never of the shard count, so the merge order is shard-invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LaneId(pub u32);

impl LaneId {
    /// The control lane: negotiation cycles, machine churn and
    /// pool-granularity fault windows.
    pub const CONTROL: LaneId = LaneId(0);
}

/// The explicit total-order key of one scheduled event.
///
/// Keys are unique within a queue (the `seq` counter is per-lane and
/// never reused), so `cmp` is a *strict* total order: for any two
/// distinct scheduled events one strictly precedes the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey {
    /// Absolute simulation time of the event.
    pub time: SimTime,
    /// Logical lane the event belongs to.
    pub lane: LaneId,
    /// Per-lane insertion sequence number.
    pub seq: u64,
}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.lane, self.seq).cmp(&(other.time, other.lane, other.seq))
    }
}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One step of a job's attempt, scheduled for when it falls due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStep {
    /// Input staging finished; the job starts executing.
    StageInDone,
    /// The executable finished; output staging starts.
    ExecDone,
    /// Output staging finished; the job is complete.
    StageOutDone,
    /// The hold period expired; the job goes back to Idle.
    Release,
    /// The running attempt hit its wall-time limit; hold, then remove.
    Timeout,
    /// Spot reclamation kills the running cloud-pool attempt.
    Preempt,
}

/// Everything that can happen in the cluster simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A glidein group joins the pool.
    MachineArrive,
    /// Glidein `0` leaves the pool (evicting its jobs).
    MachineDepart(MachineId),
    /// The negotiator runs a matchmaking cycle.
    Negotiate,
    /// `step` of `job` falls due. `serial` is the job's serial when the
    /// step was scheduled. Every state change bumps the serial, so the
    /// cluster acts on the event only if the job still has it: an event
    /// of an attempt that has since ended or moved on is dropped.
    Job {
        /// The job.
        job: JobId,
        /// The job's serial when the step was scheduled.
        serial: u64,
        /// What falls due.
        step: JobStep,
    },
    /// A whole-pool outage window opens for the given pool index.
    PoolOutageStart(u32),
    /// The outage window for the given pool index closes.
    PoolOutageEnd(u32),
    /// A network partition cuts the given pool off from the submit node.
    PartitionStart(u32),
    /// The partition for the given pool index heals.
    PartitionEnd(u32),
}

#[derive(Debug)]
struct Entry {
    key: EventKey,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic sharded event queue.
///
/// One binary heap per shard; lanes map onto shards by `lane % shards`.
/// Pops perform a k-way merge across shard heads under the full
/// [`EventKey`] order, so the pop sequence is a pure function of the
/// push sequence — independent of how many shards store it.
#[derive(Debug)]
pub struct EventQueue {
    shards: Vec<BinaryHeap<Reverse<Entry>>>,
    /// Per-lane sequence counters, indexed by lane id (grown on demand).
    lane_seq: Vec<u64>,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::with_shards(1)
    }
}

impl EventQueue {
    /// Create an empty single-shard queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty queue spread over `shards` physical heaps
    /// (clamped to at least one).
    pub fn with_shards(shards: usize) -> Self {
        EventQueue {
            shards: (0..shards.max(1)).map(|_| BinaryHeap::new()).collect(),
            lane_seq: Vec::new(),
            len: 0,
        }
    }

    /// Number of physical shards backing the queue.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, lane: LaneId) -> usize {
        lane.0 as usize % self.shards.len()
    }

    /// Schedule `event` at absolute time `time` on the control lane.
    pub fn push(&mut self, time: SimTime, event: Event) -> EventKey {
        self.push_lane(time, LaneId::CONTROL, event)
    }

    /// Schedule `event` at absolute time `time` on `lane`, returning the
    /// total-order key it was assigned.
    pub fn push_lane(&mut self, time: SimTime, lane: LaneId, event: Event) -> EventKey {
        let idx = lane.0 as usize;
        if idx >= self.lane_seq.len() {
            self.lane_seq.resize(idx + 1, 0);
        }
        let seq = self.lane_seq[idx];
        self.lane_seq[idx] += 1;
        let key = EventKey { time, lane, seq };
        let shard = self.shard_of(lane);
        self.shards[shard].push(Reverse(Entry { key, event }));
        self.len += 1;
        key
    }

    /// Index of the shard holding the globally smallest key, if any.
    fn min_shard(&self) -> Option<usize> {
        let mut best: Option<(usize, EventKey)> = None;
        for (i, heap) in self.shards.iter().enumerate() {
            if let Some(Reverse(e)) = heap.peek() {
                if best.map(|(_, k)| e.key < k).unwrap_or(true) {
                    best = Some((i, e.key));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Pop the earliest event together with its key.
    pub fn pop_keyed(&mut self) -> Option<(EventKey, Event)> {
        let shard = self.min_shard()?;
        let Reverse(e) = self.shards[shard].pop().expect("peeked shard is non-empty");
        self.len -= 1;
        Some((e.key, e.event))
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_keyed().map(|(k, ev)| (k.time, ev))
    }

    /// Key of the earliest pending event.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.min_shard()
            .and_then(|s| self.shards[s].peek().map(|Reverse(e)| e.key))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|k| k.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stage-in completion of job `j`, scheduled at serial 0.
    fn stage_in(j: u64) -> Event {
        Event::Job {
            job: JobId(j),
            serial: 0,
            step: JobStep::StageInDone,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), Event::Negotiate);
        q.push(SimTime(10), Event::MachineArrive);
        q.push(SimTime(20), stage_in(1));
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        assert_eq!(q.pop().unwrap().0, SimTime(10));
        assert_eq!(q.pop().unwrap().0, SimTime(20));
        assert_eq!(q.pop().unwrap().0, SimTime(30));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_lane_then_insertion_order() {
        // The explicit contract: same-time events pop by (lane, seq),
        // not by heap sift order or global insertion order.
        let mut q = EventQueue::new();
        q.push_lane(SimTime(5), LaneId(2), stage_in(20));
        q.push_lane(SimTime(5), LaneId(1), stage_in(10));
        q.push_lane(SimTime(5), LaneId(1), stage_in(11));
        q.push_lane(SimTime(5), LaneId(0), Event::Negotiate);
        let order: Vec<Event> = std::iter::from_fn(|| q.pop().map(|p| p.1)).collect();
        assert_eq!(
            order,
            vec![Event::Negotiate, stage_in(10), stage_in(11), stage_in(20),]
        );
    }

    #[test]
    fn same_lane_ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), stage_in(1));
        q.push(SimTime(5), stage_in(2));
        q.push(SimTime(5), stage_in(3));
        let order: Vec<Event> = std::iter::from_fn(|| q.pop().map(|p| p.1)).collect();
        assert_eq!(order, vec![stage_in(1), stage_in(2), stage_in(3),]);
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), Event::Negotiate);
        assert_eq!(q.pop().unwrap().0, SimTime(10));
        q.push(SimTime(4), Event::Negotiate);
        q.push(SimTime(2), Event::MachineArrive);
        assert_eq!(q.pop().unwrap().1, Event::MachineArrive);
        assert_eq!(q.pop().unwrap().1, Event::Negotiate);
    }

    #[test]
    fn pop_order_is_invariant_to_shard_count() {
        // The same push sequence, spread over 1/2/4/16 shards, must pop
        // identically: the key never mentions shards.
        let pushes: Vec<(u64, u32, Event)> = (0..200)
            .map(|i| {
                let t = (i * 7) % 23;
                let lane = (i * 13) % 5;
                (t, lane as u32, stage_in(i))
            })
            .collect();
        let run = |shards: usize| -> Vec<(EventKey, Event)> {
            let mut q = EventQueue::with_shards(shards);
            for &(t, lane, ev) in &pushes {
                q.push_lane(SimTime(t), LaneId(lane), ev);
            }
            std::iter::from_fn(|| q.pop_keyed()).collect()
        };
        let baseline = run(1);
        for shards in [2, 4, 16] {
            assert_eq!(run(shards), baseline, "shards={shards}");
        }
        // And the merged stream really is sorted by the full key.
        assert!(baseline.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn lane_seq_counters_are_independent() {
        let mut q = EventQueue::with_shards(3);
        let a = q.push_lane(SimTime(1), LaneId(4), Event::Negotiate);
        let b = q.push_lane(SimTime(1), LaneId(9), Event::Negotiate);
        let c = q.push_lane(SimTime(1), LaneId(4), Event::Negotiate);
        assert_eq!(a.seq, 0);
        assert_eq!(b.seq, 0);
        assert_eq!(c.seq, 1);
        assert_eq!(q.num_shards(), 3);
    }
}
