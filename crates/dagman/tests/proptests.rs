//! Property-based tests of the dagman crate: random DAG construction,
//! format roundtrips, and scheduler liveness.

use proptest::prelude::*;

use dagman::dag::{Dag, NodeId, Throttles};
use dagman::driver::Dagman;
use dagman::monitor::per_dagman_stats;
use dagman::rescue::{parse_rescue, rescue_file, resume};
use htcsim::cluster::{Cluster, ClusterConfig};
use htcsim::job::{JobSpec, OwnerId};
use htcsim::pool::PoolConfig;
use std::collections::{BTreeSet, HashSet};

/// Build a random DAG from (n, forward edges) — edges always point from a
/// lower to a higher index, so the graph is acyclic by construction.
fn random_dag(n: usize, edges: &[(usize, usize)]) -> Dag {
    let mut dag = Dag::new();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| dag.add_node(JobSpec::fixed(format!("n{i}"), 30.0)).unwrap())
        .collect();
    for (a, b) in edges {
        let (a, b) = (a % n, b % n);
        if a < b {
            dag.add_edge(ids[a], ids[b]).unwrap();
        } else if b < a {
            dag.add_edge(ids[b], ids[a]).unwrap();
        }
    }
    dag
}

fn fast_cluster(seed: u64) -> Cluster {
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
            cache_enabled: true,
            faults: Default::default(),
            defense: Default::default(),
            federation: Default::default(),
            shards: 1,
        },
        seed,
    )
}

proptest! {
    #[test]
    fn topological_order_is_valid_for_random_dags(
        n in 1usize..30,
        edges in proptest::collection::vec((0usize..30, 0usize..30), 0..60),
    ) {
        let dag = random_dag(n, &edges);
        let order = dag.topological_order().unwrap();
        prop_assert_eq!(order.len(), n);
        let pos: std::collections::HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        for k in 0..n {
            for &c in &dag.node(NodeId(k)).children {
                prop_assert!(pos[&NodeId(k)] < pos[&c]);
            }
        }
    }

    #[test]
    fn dag_file_roundtrip_random(
        n in 1usize..20,
        edges in proptest::collection::vec((0usize..20, 0usize..20), 0..40),
        max_jobs in 0usize..500,
        max_idle in 0usize..500,
    ) {
        let mut dag = random_dag(n, &edges);
        dag.throttles = Throttles { max_jobs, max_idle };
        let text = dag.to_dag_file();
        let parsed = Dag::parse(&text, |name| JobSpec::fixed(name, 30.0)).unwrap();
        prop_assert_eq!(parsed.len(), dag.len());
        prop_assert_eq!(parsed.throttles.max_jobs, max_jobs);
        for k in 0..n {
            let a = dag.node(NodeId(k));
            let b = parsed.node(parsed.id_of(&a.name).unwrap());
            let mut ca: Vec<&str> =
                a.children.iter().map(|c| dag.node(*c).name.as_str()).collect();
            let mut cb: Vec<&str> =
                b.children.iter().map(|c| parsed.node(*c).name.as_str()).collect();
            ca.sort_unstable();
            cb.sort_unstable();
            prop_assert_eq!(ca, cb);
        }
    }

    #[test]
    fn rescue_file_roundtrip(names in proptest::collection::hash_set("[a-z][a-z0-9]{0,8}", 0..20)) {
        let mut dag = Dag::new();
        for name in &names {
            dag.add_node(JobSpec::fixed(name.clone(), 10.0)).unwrap();
        }
        let done: BTreeSet<String> = names.iter().take(names.len() / 2).cloned().collect();
        let dm = resume(dag, &done, OwnerId(0)).unwrap();
        let parsed = parse_rescue(&rescue_file(&dm)).unwrap();
        prop_assert_eq!(parsed, done);
    }

    /// Full rescue round-trip over randomized DAGs: run a random DAG to
    /// completion on a real cluster where a random subset of nodes fails
    /// permanently, write the rescue file, and resume into a fresh DAGMan.
    /// The resumed DAGMan must pre-complete exactly the done set, never
    /// resubmit a DONE node, and reject unknown node names.
    #[test]
    fn rescue_resume_roundtrip_random_dags(
        n in 1usize..14,
        edges in proptest::collection::vec((0usize..14, 0usize..14), 0..20),
        failing in proptest::collection::hash_set(0usize..14, 0..5),
        seed in any::<u64>(),
    ) {
        use htcsim::fault::EXIT_PERMANENT;

        let mut dag = random_dag(n, &edges);
        let failing: HashSet<usize> = failing.into_iter().map(|i| i % n).collect();
        // A node fails only if none of its ancestors fail first (a failed
        // parent leaves descendants unsubmitted, not failed). Compute the
        // expected reachable-done set: nodes with no failing ancestor and
        // not failing themselves.
        for &i in &failing {
            dag.set_retries(NodeId(i), 2);
        }
        let dag_copy = dag.clone();
        let mut dm = Dagman::new(dag, OwnerId(0));

        // Drive the DAGMan by hand: a deterministic "cluster" that starts
        // and finishes every submitted job instantly, failing the chosen
        // subset with EXIT_PERMANENT.
        use htcsim::cluster::WorkloadDriver;
        use htcsim::job::{JobEvent, JobEventKind, JobId};
        use htcsim::time::SimTime;
        let mut next_id = 0u64;
        let mut t = 0u64;
        let mut pending: Vec<JobEvent> = Vec::new();
        loop {
            let evs = std::mem::take(&mut pending);
            let subs = dm.poll(SimTime(t), &evs);
            if subs.is_empty() && pending.is_empty() && dm.is_done() {
                break;
            }
            if subs.is_empty() && evs.is_empty() {
                // Nothing happened this tick: advance time (drains any
                // retry backoff) and bail out if the DAG cannot progress.
                t += 3600;
                if t > 10_000_000 {
                    break;
                }
                continue;
            }
            for s in subs {
                let id = JobId(next_id);
                next_id += 1;
                dm.on_assigned(id, &s.spec.name);
                let idx = dag_copy.id_of(&s.spec.name).unwrap().0;
                let fails = failing.contains(&idx);
                pending.push(JobEvent::new(
                    SimTime(t + 1), id, OwnerId(0), JobEventKind::ExecuteStarted,
                ));
                if fails {
                    pending.push(
                        JobEvent::new(
                            SimTime(t + 2), id, OwnerId(0), JobEventKind::Failed,
                        )
                        .with_exit(EXIT_PERMANENT),
                    );
                } else {
                    pending.push(
                        JobEvent::new(
                            SimTime(t + 2), id, OwnerId(0), JobEventKind::Completed,
                        )
                        .with_exit(0),
                    );
                }
            }
            t += 2;
        }
        prop_assert!(dm.is_done(), "hand-driven DAG must settle");

        // The done set is exactly the nodes with no failing ancestor that
        // are not failing themselves.
        let mut expected_done: BTreeSet<String> = BTreeSet::new();
        for k in 0..n {
            if failing.contains(&k) {
                continue;
            }
            let mut blocked = false;
            for &f in &failing {
                if f < n && dag_copy.descendants(NodeId(f)).contains(&NodeId(k)) {
                    blocked = true;
                    break;
                }
            }
            if !blocked {
                expected_done.insert(dag_copy.node(NodeId(k)).name.clone());
            }
        }
        let done_now: BTreeSet<String> =
            dm.done_nodes().iter().map(|s| s.to_string()).collect();
        prop_assert_eq!(&done_now, &expected_done);

        // Failed nodes carry the injected exit code and full attempt count.
        for f in dm.failed_nodes() {
            prop_assert_eq!(f.exit_code, Some(EXIT_PERMANENT));
            prop_assert_eq!(f.attempts, 3, "2 retries = 3 attempts");
        }

        // rescue_file -> parse_rescue reproduces the done set exactly.
        let text = rescue_file(&dm);
        let parsed = parse_rescue(&text).unwrap();
        prop_assert_eq!(&parsed, &expected_done);

        // Resume pre-completes exactly the done set and never re-runs it.
        let resumed = resume(dag_copy.clone(), &parsed, OwnerId(0)).unwrap();
        prop_assert_eq!(resumed.completed(), expected_done.len());
        for name in &expected_done {
            let id = dag_copy.id_of(name).unwrap();
            prop_assert_eq!(resumed.node_state(id), dagman::driver::NodeState::Done);
        }
        // Unknown node names are rejected.
        let mut bad = parsed.clone();
        bad.insert("zzz-not-a-node".to_string());
        prop_assert!(resume(dag_copy.clone(), &bad, OwnerId(0)).is_err());
        let _ = seed; // DAG shape is the randomness; the run is deterministic.
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any random DAG runs to completion on the cluster, in an order that
    /// never violates dependencies, regardless of throttles.
    #[test]
    fn scheduler_liveness_and_dependency_safety(
        n in 1usize..20,
        edges in proptest::collection::vec((0usize..20, 0usize..20), 0..30),
        max_idle in prop_oneof![Just(0usize), 1usize..8],
        max_jobs in prop_oneof![Just(0usize), 1usize..8],
        seed in any::<u64>(),
    ) {
        let mut dag = random_dag(n, &edges);
        dag.throttles = Throttles { max_jobs, max_idle };
        let dag_copy = dag.clone();
        let mut dm = Dagman::new(dag, OwnerId(0));
        let report = fast_cluster(seed).run(&mut dm);
        prop_assert!(!report.timed_out);
        prop_assert_eq!(report.completed, n);
        prop_assert_eq!(dm.completed(), n);
        // Completion order respects every edge.
        let completions: Vec<String> = report
            .log
            .events()
            .iter()
            .filter(|e| e.kind == htcsim::job::JobEventKind::Completed)
            .map(|e| report.job_names[&e.job].clone())
            .collect();
        let pos: std::collections::HashMap<&str, usize> = completions
            .iter()
            .enumerate()
            .map(|(i, s)| (s.as_str(), i))
            .collect();
        for k in 0..n {
            let parent = &dag_copy.node(NodeId(k)).name;
            for &c in &dag_copy.node(NodeId(k)).children {
                let child = &dag_copy.node(c).name;
                prop_assert!(
                    pos[parent.as_str()] < pos[child.as_str()],
                    "{parent} completed after child {child}"
                );
            }
        }
        // Monitor stats agree with the report.
        let stats = per_dagman_stats(&report);
        prop_assert_eq!(stats[0].completed, n);
    }

    /// Speculative duplicates never double-count as goodput: for any fan
    /// of heavy-tailed nodes with speculation on, the monitor reports
    /// exactly one completion and one goodput interval per node, every
    /// speculated node settles as exactly one win or loss, and any
    /// duplicate completion in the log is charged to badput.
    #[test]
    fn speculation_never_double_counts_goodput(
        n in 4usize..24,
        seed in any::<u64>(),
    ) {
        use htcsim::job::{ExecModel, JobEventKind};

        let mut dag = Dag::new();
        for i in 0..n {
            let mut spec = JobSpec::fixed(format!("w.{i}"), 120.0);
            spec.exec = ExecModel::LogNormalMedian { median_s: 120.0, sigma: 1.2 };
            dag.add_node(spec).unwrap();
        }
        let mut dm = Dagman::new(dag, OwnerId(0)).with_speculation(true);
        let report = fast_cluster(seed).run(&mut dm);
        prop_assert!(!report.timed_out);
        prop_assert_eq!(dm.completed(), n);
        prop_assert_eq!(dm.spec_wins() + dm.spec_losses(), dm.speculations());
        let stats = per_dagman_stats(&report);
        prop_assert_eq!(stats[0].completed, n, "duplicates must not inflate completions");
        prop_assert_eq!(stats[0].exec_secs.len(), n, "one goodput interval per node");
        prop_assert_eq!(
            stats[0].goodput_secs,
            stats[0].exec_secs.iter().sum::<u64>(),
            "goodput is exactly the winners' execution seconds"
        );
        let completions = report
            .log
            .events()
            .iter()
            .filter(|e| e.kind == JobEventKind::Completed)
            .count();
        prop_assert!(completions >= n);
        if completions > n {
            prop_assert!(
                stats[0].badput_secs > 0,
                "a losing copy that ran to completion is badput"
            );
        }
    }
}
