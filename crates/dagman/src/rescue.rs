//! Rescue DAGs: when a DAGMan run ends with failed nodes, DAGMan writes a
//! rescue file marking completed nodes `DONE` so a re-submission skips
//! them. This module generates and applies that file.

use std::collections::BTreeSet;

#[cfg(test)]
use htcsim::cluster::WorkloadDriver;

use crate::dag::Dag;
use crate::driver::Dagman;

/// Serialise a rescue file: one `DONE <node>` line per completed node,
/// plus a `# FAILED <node> exit=<code|none> attempts=<n>` comment per
/// permanently failed node so the post-mortem survives in the artifact.
/// The last line is always a `# END <n> done` trailer; [`parse_rescue`]
/// refuses any file without it, so a truncated write can never silently
/// resume with completed work forgotten.
pub fn rescue_file(dagman: &Dagman) -> String {
    let mut out = String::from("# Rescue DAG\n");
    for f in dagman.failed_nodes() {
        let exit = match f.exit_code {
            Some(c) => c.to_string(),
            None => "none".to_string(),
        };
        out.push_str(&format!(
            "# FAILED {} exit={exit} attempts={}\n",
            f.name, f.attempts
        ));
    }
    let mut count = 0usize;
    for name in dagman.done_nodes() {
        out.push_str(&format!("DONE {name}\n"));
        count += 1;
    }
    out.push_str(&format!("# END {count} done\n"));
    out
}

/// Write a rescue file crash-atomically: the bytes land in `<path>.tmp`,
/// are flushed to disk, and renamed into place. A crash mid-write leaves
/// at worst a stale `.tmp` next to the previous intact generation —
/// never a torn file at the final path.
pub fn write_rescue_atomic(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Parse a rescue file into the set of done node names. Rejects files
/// without the `# END <n> done` trailer as the final newline-terminated
/// line, and files whose `DONE` count disagrees with the trailer — both
/// are the signature of a truncated or torn write.
pub fn parse_rescue(text: &str) -> Result<BTreeSet<String>, String> {
    if !text.ends_with('\n') {
        return Err("truncated rescue file: missing final newline".to_string());
    }
    let trailer = text
        .lines()
        .next_back()
        .ok_or_else(|| "truncated rescue file: empty".to_string())?;
    let expected: usize = trailer
        .strip_prefix("# END ")
        .and_then(|rest| rest.strip_suffix(" done"))
        .ok_or_else(|| "truncated rescue file: missing '# END <n> done' trailer".to_string())?
        .parse()
        .map_err(|_| format!("torn rescue file: bad trailer '{trailer}'"))?;
    let mut done = BTreeSet::new();
    let body_lines = text.lines().count() - 1;
    for (lineno, line) in text.lines().take(body_lines).enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split_whitespace();
        match toks.next().map(|t| t.to_ascii_uppercase()).as_deref() {
            Some("DONE") => {
                let name = toks
                    .next()
                    .ok_or_else(|| format!("line {}: DONE needs a node", lineno + 1))?;
                done.insert(name.to_string());
            }
            Some(other) => return Err(format!("line {}: unknown keyword '{other}'", lineno + 1)),
            None => {}
        }
    }
    if done.len() != expected {
        return Err(format!(
            "torn rescue file: trailer says {expected} done, found {}",
            done.len()
        ));
    }
    Ok(done)
}

/// Build a resumed DAGMan for `dag`, pre-marking the rescue file's done
/// nodes as complete. Errors if the rescue file names unknown nodes.
pub fn resume(
    dag: Dag,
    done: &BTreeSet<String>,
    owner: htcsim::job::OwnerId,
) -> Result<Dagman, String> {
    for name in done {
        if dag.id_of(name).is_none() {
            return Err(format!("rescue file names unknown node '{name}'"));
        }
    }
    let mut dm = Dagman::new(dag, owner);
    // Mark in topological order so readiness propagates correctly.
    let order = dm.dag().topological_order()?;
    for id in order {
        let name = dm.dag().node(id).name.clone();
        if done.contains(&name) {
            dm.force_done(id);
        }
    }
    Ok(dm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::NodeId;
    use crate::driver::NodeState;
    use htcsim::job::{JobSpec, OwnerId};

    fn chain() -> Dag {
        let mut d = Dag::new();
        let a = d.add_node(JobSpec::fixed("A", 10.0)).unwrap();
        let b = d.add_node(JobSpec::fixed("B", 10.0)).unwrap();
        let c = d.add_node(JobSpec::fixed("C", 10.0)).unwrap();
        d.add_edge(a, b).unwrap();
        d.add_edge(b, c).unwrap();
        d
    }

    #[test]
    fn rescue_roundtrip() {
        let text = "# Rescue DAG\nDONE A\nDONE B\n# END 2 done\n";
        let done = parse_rescue(text).unwrap();
        assert_eq!(done.len(), 2);
        assert!(done.contains("A") && done.contains("B"));
    }

    #[test]
    fn parse_rescue_errors() {
        assert!(parse_rescue("FROB A\n# END 0 done\n").is_err());
        assert!(parse_rescue("DONE\n# END 0 done\n").is_err());
        assert!(parse_rescue("# only comments\n# END 0 done\n")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn parse_rescue_rejects_truncated_and_torn_files() {
        // No trailer at all: the write died before the end.
        assert!(parse_rescue("# Rescue DAG\nDONE A\n").is_err());
        // Trailer line cut mid-write: no final newline.
        assert!(parse_rescue("DONE A\n# END 1 done").is_err());
        // Torn file: trailer count disagrees with the DONE lines.
        let err = parse_rescue("DONE A\n# END 2 done\n").unwrap_err();
        assert!(err.contains("torn"), "{err}");
        // Garbage where the count should be.
        assert!(parse_rescue("# END x done\n").is_err());
        assert!(parse_rescue("").is_err());
    }

    #[test]
    fn any_mid_line_truncation_is_rejected() {
        // Regression: every proper prefix of a valid rescue file must
        // fail to parse — a crash can cut the file at any byte.
        let done: BTreeSet<String> = ["A".to_string(), "B".to_string()].into();
        let dm = resume(chain(), &done, OwnerId(0)).unwrap();
        let text = rescue_file(&dm);
        assert!(parse_rescue(&text).is_ok());
        for cut in 0..text.len() {
            assert!(
                parse_rescue(&text[..cut]).is_err(),
                "prefix of {cut} bytes parsed: {:?}",
                &text[..cut]
            );
        }
    }

    #[test]
    fn atomic_write_lands_bytes_and_cleans_tmp() {
        let dir = std::env::temp_dir().join(format!("fdw-rescue-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("workflow.rescue001");
        let done: BTreeSet<String> = ["A".to_string()].into();
        let dm = resume(chain(), &done, OwnerId(0)).unwrap();
        let text = rescue_file(&dm);
        write_rescue_atomic(&path, &text).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        assert!(
            !dir.join("workflow.rescue001.tmp").exists(),
            "tmp file must be renamed away"
        );
        // Overwriting a previous generation is also atomic.
        let done2: BTreeSet<String> = ["A".to_string(), "B".to_string()].into();
        let dm2 = resume(chain(), &done2, OwnerId(0)).unwrap();
        let text2 = rescue_file(&dm2);
        write_rescue_atomic(&path, &text2).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_skips_done_nodes() {
        let done: BTreeSet<String> = ["A".to_string(), "B".to_string()].into();
        let dm = resume(chain(), &done, OwnerId(0)).unwrap();
        assert_eq!(dm.completed(), 2);
        assert_eq!(dm.node_state(NodeId(0)), NodeState::Done);
        assert_eq!(dm.node_state(NodeId(1)), NodeState::Done);
        // C became ready because both ancestors are done.
        assert_eq!(dm.node_state(NodeId(2)), NodeState::Ready);
        assert!(!dm.is_done());
    }

    #[test]
    fn resume_with_all_done_is_complete() {
        let done: BTreeSet<String> = ["A".to_string(), "B".to_string(), "C".to_string()].into();
        let dm = resume(chain(), &done, OwnerId(0)).unwrap();
        assert!(dm.is_done());
    }

    #[test]
    fn resume_rejects_unknown_nodes() {
        let done: BTreeSet<String> = ["ZZZ".to_string()].into();
        assert!(resume(chain(), &done, OwnerId(0)).is_err());
    }

    #[test]
    fn rescue_file_from_dagman() {
        let done: BTreeSet<String> = ["A".to_string()].into();
        let dm = resume(chain(), &done, OwnerId(0)).unwrap();
        let text = rescue_file(&dm);
        assert!(text.contains("DONE A"));
        assert!(!text.contains("DONE B"));
        let parsed = parse_rescue(&text).unwrap();
        assert_eq!(parsed.len(), 1);
    }

    #[test]
    fn rescue_file_records_failures() {
        use htcsim::cluster::{Cluster, ClusterConfig};
        use htcsim::fault::FaultConfig;
        use htcsim::pool::PoolConfig;
        let mut d = Dag::new();
        let a = d.add_node(JobSpec::fixed("A", 10.0)).unwrap();
        d.add_node(JobSpec::fixed("B", 10.0)).unwrap();
        d.set_retries(a, 1);
        let mut dm = Dagman::new(d, OwnerId(0));
        let cfg = ClusterConfig {
            pool: PoolConfig {
                target_slots: 4,
                glidein_slots: 2,
                avail_mean: 1.0,
                avail_sigma: 0.0,
                glidein_lifetime_s: 1e9,
                ..Default::default()
            },
            faults: FaultConfig {
                seed: 1,
                permanent_job_fraction: 1.0,
                ..Default::default()
            },
            ..ClusterConfig::with_cache()
        };
        let _ = Cluster::new(cfg, 1).run(&mut dm);
        assert!(dm.is_done());
        let text = rescue_file(&dm);
        assert!(text.contains("# FAILED A exit=2 attempts=2"), "{text}");
        assert!(text.contains("# FAILED B exit=2"), "{text}");
        // Annotations are comments: parse_rescue only sees DONE lines.
        assert!(parse_rescue(&text).unwrap().is_empty());
    }

    #[test]
    fn rescue_bytes_stable_across_roundtrip() {
        // Byte-identity for the BTreeSet rewrite: serialising, parsing,
        // resuming, and re-serialising must reproduce the exact bytes,
        // and the parsed set must iterate in sorted order regardless of
        // line order — the property a HashSet could not guarantee.
        let mut d = Dag::new();
        for name in ["delta", "alpha", "charlie", "bravo"] {
            d.add_node(JobSpec::fixed(name, 10.0)).unwrap();
        }
        let done = parse_rescue("DONE delta\nDONE alpha\nDONE bravo\n# END 3 done\n").unwrap();
        let in_order: Vec<&String> = done.iter().collect();
        assert_eq!(in_order, ["alpha", "bravo", "delta"]);
        let first = rescue_file(&resume(d.clone(), &done, OwnerId(0)).unwrap());
        // DONE lines follow node-id order, pinned here byte-for-byte.
        assert_eq!(
            first,
            "# Rescue DAG\nDONE delta\nDONE alpha\nDONE bravo\n# END 3 done\n"
        );
        let second = rescue_file(&resume(d, &parse_rescue(&first).unwrap(), OwnerId(0)).unwrap());
        assert_eq!(first, second, "rescue roundtrip is not byte-stable");
    }

    #[test]
    #[should_panic(expected = "force_done")]
    fn force_done_twice_panics() {
        let done: BTreeSet<String> = BTreeSet::new();
        let mut dm = resume(chain(), &done, OwnerId(0)).unwrap();
        dm.force_done(NodeId(0));
        dm.force_done(NodeId(0));
    }
}
