//! Property-based tests of the htcsim crate's invariants.

use proptest::prelude::*;

use std::cmp::Ordering;

use htcsim::csvlite;
use htcsim::event::{Event, EventKey, EventQueue, LaneId};
use htcsim::job::{JobEvent, JobEventKind, JobId, JobSpec, OwnerId};
use htcsim::pool::{Pool, PoolConfig};
use htcsim::single::SingleMachine;
use htcsim::time::SimTime;
use htcsim::transfer::{SiteId, StashCache};
use htcsim::userlog::UserLog;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.push(SimTime(t), Event::Negotiate);
        }
        let mut prev = 0u64;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t.as_secs() >= prev);
            prev = t.as_secs();
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// `EventKey::cmp` is a strict total order: total, antisymmetric,
    /// transitive, and equal only on identical keys.
    #[test]
    fn event_key_cmp_is_a_strict_total_order(
        keys in proptest::collection::vec((0u64..50, 0u32..4, 0u64..10), 3..32),
    ) {
        let ks: Vec<EventKey> = keys
            .iter()
            .map(|&(t, l, s)| EventKey { time: SimTime(t), lane: LaneId(l), seq: s })
            .collect();
        for a in &ks {
            for b in &ks {
                let ab = a.cmp(b);
                prop_assert_eq!(ab.reverse(), b.cmp(a));
                if ab == Ordering::Equal {
                    prop_assert_eq!((a.time, a.lane, a.seq), (b.time, b.lane, b.seq));
                }
                for c in &ks {
                    if ab == Ordering::Less && b.cmp(c) == Ordering::Less {
                        prop_assert_eq!(a.cmp(c), Ordering::Less);
                    }
                }
            }
        }
    }

    /// Arbitrary interleavings of same-timestamp events across lanes
    /// always merge in `(timestamp, lane, seq)` order, the merge is
    /// invariant to the shard count, and replaying the recorded pop log
    /// through a fresh queue reproduces the identical pop sequence.
    #[test]
    fn event_merge_is_shard_invariant_and_replayable(
        pushes in proptest::collection::vec((0u64..100, 0u32..8), 1..300),
        shards in 1usize..20,
    ) {
        let mut mono = EventQueue::new();
        let mut sharded = EventQueue::with_shards(shards);
        for (i, &(t, lane)) in pushes.iter().enumerate() {
            let ev = Event::StageInDone(JobId(i as u64));
            mono.push_lane(SimTime(t), LaneId(lane), ev);
            sharded.push_lane(SimTime(t), LaneId(lane), ev);
        }
        let log: Vec<(EventKey, Event)> = std::iter::from_fn(|| mono.pop_keyed()).collect();
        prop_assert_eq!(log.len(), pushes.len());
        // Keys pop in strictly increasing (time, lane, seq) order.
        for w in log.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        // The k-way merge over `shards` heaps yields the same sequence.
        let sharded_log: Vec<(EventKey, Event)> =
            std::iter::from_fn(|| sharded.pop_keyed()).collect();
        prop_assert_eq!(&sharded_log, &log);
        // Replaying the recorded log (pushing pops back in order) gives
        // back the identical (time, lane, event) pop sequence.
        let mut replay = EventQueue::with_shards(shards);
        for &(k, ev) in &log {
            replay.push_lane(k.time, k.lane, ev);
        }
        let replayed: Vec<(SimTime, LaneId, Event)> =
            std::iter::from_fn(|| replay.pop_keyed().map(|(k, e)| (k.time, k.lane, e))).collect();
        let expect: Vec<(SimTime, LaneId, Event)> =
            log.iter().map(|&(k, e)| (k.time, k.lane, e)).collect();
        prop_assert_eq!(replayed, expect);
    }

    #[test]
    fn simtime_arithmetic_consistent(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let ta = SimTime(a);
        let tb = SimTime(b);
        prop_assert_eq!(ta.since(tb), a.saturating_sub(b));
        prop_assert_eq!((ta + b).as_secs(), a + b);
        prop_assert!((ta.as_mins_f64() * 60.0 - a as f64).abs() < 1e-6);
    }

    #[test]
    fn csv_roundtrip_simple_fields(
        rows in proptest::collection::vec(
            proptest::collection::vec("[a-zA-Z0-9_.-]{0,12}", 3..=3),
            0..20,
        )
    ) {
        let owned: Vec<Vec<String>> = rows.clone();
        let text = csvlite::encode(&["a", "b", "c"], &owned);
        let (header, parsed) = csvlite::parse(&text).unwrap();
        prop_assert_eq!(header, vec!["a", "b", "c"]);
        prop_assert_eq!(parsed, owned);
    }

    #[test]
    fn cache_hit_rate_bounded_and_warm_never_slower(
        sizes in proptest::collection::vec(1.0..2000.0f64, 1..10),
        site in 0u32..5,
    ) {
        let mut cache = StashCache::new();
        let mut spec = JobSpec::fixed("t", 1.0);
        for (i, s) in sizes.iter().enumerate() {
            spec.inputs.push(htcsim::job::InputFile {
                name: format!("f{i}"),
                size_mb: *s,
                cacheable: true,
            });
        }
        let cold = cache.stage_in_secs(SiteId(site), &spec);
        let warm = cache.stage_in_secs(SiteId(site), &spec);
        prop_assert!(warm <= cold + 1e-9);
        prop_assert!((0.0..=1.0).contains(&cache.hit_rate()));
    }

    #[test]
    fn pool_slot_accounting_never_negative(ops in proptest::collection::vec(any::<bool>(), 1..100)) {
        let mut pool = Pool::new(PoolConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let (id, _) = pool.add_machine(&mut rng);
        let slots = pool.total_slots();
        let mut claimed = 0usize;
        for claim in ops {
            if claim && claimed < slots {
                pool.claim_slot(id);
                claimed += 1;
            } else if !claim && claimed > 0 {
                pool.release_slot(id);
                claimed -= 1;
            }
            prop_assert_eq!(pool.busy_slots(), claimed);
            prop_assert!(pool.busy_slots() <= pool.total_slots());
        }
    }

    #[test]
    fn single_machine_makespan_bounds(
        durations in proptest::collection::vec(1.0..5000.0f64, 1..50),
        slots in 1usize..8,
    ) {
        let specs: Vec<JobSpec> = durations
            .iter()
            .enumerate()
            .map(|(i, d)| JobSpec::fixed(format!("j{i}"), *d))
            .collect();
        let r = SingleMachine { slots, speed: 1.0 }.run(&specs, 1);
        let total: f64 = durations.iter().sum();
        let longest = durations.iter().cloned().fold(0.0, f64::max);
        // Classic list-scheduling bounds.
        prop_assert!(r.makespan.as_secs() as f64 >= (total / slots as f64).floor());
        prop_assert!(r.makespan.as_secs() as f64 >= longest.floor());
        prop_assert!(r.makespan.as_secs() as f64 <= total + 1.0);
    }

    #[test]
    fn userlog_series_invariants(
        jobs in proptest::collection::vec((0u64..500, 1u64..500, 1u64..500), 1..30)
    ) {
        // Build a log of jobs with (submit, wait, exec) offsets.
        let mut log = UserLog::new();
        for (i, (submit, wait, exec)) in jobs.iter().enumerate() {
            let id = JobId(i as u64);
            let owner = OwnerId(0);
            log.record(JobEvent::new(
                SimTime(*submit), id, owner, JobEventKind::Submitted,
            ));
            log.record(JobEvent::new(
                SimTime(submit + wait), id, owner, JobEventKind::ExecuteStarted,
            ));
            log.record(JobEvent::new(
                SimTime(submit + wait + exec), id, owner, JobEventKind::Completed,
            ));
        }
        prop_assert_eq!(log.completed_count(), jobs.len());
        let thr = log.instant_throughput_series();
        let run = log.running_series();
        prop_assert_eq!(thr.len(), log.makespan().as_secs() as usize + 1);
        prop_assert_eq!(run.len() , thr.len());
        // Throughput is nonnegative; the last value accounts for all jobs.
        prop_assert!(thr.iter().all(|v| *v >= 0.0));
        let expected_last =
            jobs.len() as f64 / (log.makespan().as_secs().max(1) as f64 / 60.0);
        prop_assert!((thr.last().unwrap() - expected_last).abs() < 1e-6);
        // Running jobs never exceed the total number of jobs.
        prop_assert!(run.iter().all(|v| (*v as usize) <= jobs.len()));
        // Per-job wait/exec reconstruction matches inputs.
        for (jt, (submit, wait, exec)) in log.job_times().iter().zip(&jobs) {
            prop_assert_eq!(jt.submitted.as_secs(), *submit);
            prop_assert_eq!(jt.wait_secs(), Some(*wait));
            prop_assert_eq!(jt.exec_secs(), Some(*exec));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the pool parameters, a bag of fixed jobs always completes
    /// and the log is internally consistent.
    #[test]
    fn cluster_liveness_across_pool_shapes(
        slots in 8usize..64,
        glidein in 2usize..12,
        avail in 0.4..1.0f64,
        lifetime in 1800.0..20_000.0f64,
        seed in any::<u64>(),
        shards in 0usize..6,
    ) {
        use htcsim::cluster::{Cluster, ClusterConfig, WorkloadDriver};
        use htcsim::job::SubmitRequest;

        struct Bag(Vec<JobSpec>, usize, usize);
        impl WorkloadDriver for Bag {
            fn poll(&mut self, _n: SimTime, ev: &[JobEvent]) -> Vec<SubmitRequest> {
                self.1 += ev.iter().filter(|e| e.kind == JobEventKind::Completed).count();
                std::mem::take(&mut self.0)
                    .into_iter()
                    .map(|spec| SubmitRequest { owner: OwnerId(0), spec })
                    .collect()
            }
            fn is_done(&self) -> bool { self.0.is_empty() && self.1 >= self.2 }
        }

        let cfg = ClusterConfig {
            pool: PoolConfig {
                target_slots: slots,
                glidein_slots: glidein,
                glidein_lifetime_s: lifetime,
                avail_mean: avail,
                avail_sigma: 0.1,
                ..Default::default()
            },
            cache_enabled: true,
            max_evictions_per_job: 0,
            faults: Default::default(),
            defense: Default::default(),
            federation: Default::default(),
            shards,
        };
        let n = 25;
        let specs: Vec<JobSpec> =
            (0..n).map(|i| JobSpec::fixed(format!("j{i}"), 120.0)).collect();
        let mut bag = Bag(specs, 0, n);
        let report = Cluster::new(cfg, seed).run(&mut bag);
        prop_assert!(!report.timed_out);
        prop_assert_eq!(report.completed, n);
        // Every job's record is complete and ordered.
        for jt in report.log.job_times() {
            prop_assert!(jt.completed.is_some());
            prop_assert!(jt.first_execute.unwrap() >= jt.submitted);
            prop_assert!(jt.completed.unwrap() >= jt.first_execute.unwrap());
        }
    }
}
