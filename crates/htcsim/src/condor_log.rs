//! The HTCondor job-event-log *text* format.
//!
//! The paper's monitoring works by parsing HTCondor log files with shell
//! scripts (§3); this module emits and parses the classic ULOG dialect so
//! a simulated run's log is byte-for-byte greppable the same way:
//!
//! ```text
//! 000 (042.000.000) 01/02 03:04:05 Job submitted from host: <sim>
//! ...
//! 001 (042.000.000) 01/02 03:14:05 Job executing on host: <ospool>
//! ...
//! 005 (042.000.000) 01/02 03:30:00 Job terminated (return value 0).
//! ...
//! ```
//!
//! Event codes used (the observable subset): `000` submitted, `001`
//! executing, `004` evicted, `005` terminated (with its return value —
//! a non-zero value distinguishes a failed attempt), `009` aborted
//! (removed), `012` held (with its hold reason), `013` released, and the
//! federated-layer codes: `022` pool-outage eviction, `023` transfer
//! stalled by a network partition, `026` spot-reclamation preemption,
//! `030` migration to another pool (with the destination pool index).
//! Matchmaking (`Matched`) has no ULOG representation and is omitted, as
//! in real HTCondor logs. Timestamps encode simulated time as
//! `01/DD HH:MM:SS` with day 1 = simulation start.

use crate::fault::HoldReason;
use crate::job::{JobEvent, JobEventKind, JobId, OwnerId};
use crate::service::{ArtifactKind, DegradeMode, RejectReason, ServiceDetail, ShedReason};
use crate::time::SimTime;
use crate::userlog::UserLog;

/// The single registry of ULOG numeric event codes. Every code the
/// writer emits and the parser accepts is named here exactly once;
/// spelling a bare 3-digit literal anywhere else in the ULOG-handling
/// crates is a lint violation (`fdwlint`'s `ulog-code-registry` rule).
pub mod codes {
    /// `000` — job submitted.
    pub const SUBMITTED: &str = "000";
    /// `001` — job executing.
    pub const EXECUTE: &str = "001";
    /// `004` — job evicted.
    pub const EVICTED: &str = "004";
    /// `005` — job terminated (return value decides success/failure).
    pub const TERMINATED: &str = "005";
    /// `009` — job aborted (removed) by the user.
    pub const ABORTED: &str = "009";
    /// `012` — job held.
    pub const HELD: &str = "012";
    /// `013` — job released.
    pub const RELEASED: &str = "013";
    /// `022` — federated layer: evicted by a pool outage.
    pub const POOL_OUTAGE: &str = "022";
    /// `023` — federated layer: transfer stalled by a network partition.
    pub const PARTITION_STALLED: &str = "023";
    /// `026` — federated layer: preempted by spot reclamation.
    pub const PREEMPTED: &str = "026";
    /// `030` — federated layer: migrated to another pool.
    pub const MIGRATED: &str = "030";
    /// `033` — service layer: campaign admitted.
    pub const SERVICE_ADMITTED: &str = "033";
    /// `034` — service layer: campaign rejected by admission control.
    pub const SERVICE_REJECTED: &str = "034";
    /// `035` — service layer: campaign shed under load.
    pub const SERVICE_SHED: &str = "035";
    /// `036` — service layer: campaign started in a degraded mode.
    pub const SERVICE_DEGRADED: &str = "036";
    /// `037` — service layer: artifact served from the shared store.
    pub const ARTIFACT_HIT: &str = "037";
    /// `038` — service layer: artifact quarantined on checksum mismatch.
    pub const ARTIFACT_QUARANTINED: &str = "038";

    /// Every registered code, in numeric order.
    pub const ALL: &[&str] = &[
        SUBMITTED,
        EXECUTE,
        EVICTED,
        TERMINATED,
        ABORTED,
        HELD,
        RELEASED,
        POOL_OUTAGE,
        PARTITION_STALLED,
        PREEMPTED,
        MIGRATED,
        SERVICE_ADMITTED,
        SERVICE_REJECTED,
        SERVICE_SHED,
        SERVICE_DEGRADED,
        ARTIFACT_HIT,
        ARTIFACT_QUARANTINED,
    ];
}

/// Render a simulated timestamp in the ULOG `MM/DD HH:MM:SS` style
/// (month fixed at 01; day 1 = simulation start).
fn format_time(t: SimTime) -> String {
    let s = t.as_secs();
    let day = 1 + s / 86_400;
    let h = (s % 86_400) / 3600;
    let m = (s % 3600) / 60;
    let sec = s % 60;
    format!("01/{day:02} {h:02}:{m:02}:{sec:02}")
}

/// Parse the `01/DD HH:MM:SS` timestamp back to simulated time.
fn parse_time(s: &str) -> Result<SimTime, String> {
    let bad = || format!("bad ULOG timestamp '{s}'");
    let (date, clock) = s.split_once(' ').ok_or_else(bad)?;
    let (_month, day) = date.split_once('/').ok_or_else(bad)?;
    let day: u64 = day.parse().map_err(|_| bad())?;
    let parts: Vec<&str> = clock.split(':').collect();
    if parts.len() != 3 || day == 0 {
        return Err(bad());
    }
    let h: u64 = parts[0].parse().map_err(|_| bad())?;
    let m: u64 = parts[1].parse().map_err(|_| bad())?;
    let sec: u64 = parts[2].parse().map_err(|_| bad())?;
    Ok(SimTime((day - 1) * 86_400 + h * 3600 + m * 60 + sec))
}

fn code_and_text(ev: &JobEvent) -> Option<(&'static str, String)> {
    match ev.kind {
        JobEventKind::Submitted => {
            Some((codes::SUBMITTED, "Job submitted from host: <sim>".into()))
        }
        JobEventKind::ExecuteStarted => {
            Some((codes::EXECUTE, "Job executing on host: <ospool>".into()))
        }
        JobEventKind::Evicted => Some((codes::EVICTED, "Job was evicted.".into())),
        JobEventKind::Completed => Some((
            codes::TERMINATED,
            format!(
                "Job terminated (return value {}).",
                ev.exit_code.unwrap_or(0)
            ),
        )),
        JobEventKind::Failed => Some((
            codes::TERMINATED,
            format!(
                "Job terminated (return value {}).",
                ev.exit_code.unwrap_or(1)
            ),
        )),
        JobEventKind::Removed => Some((codes::ABORTED, "Job was aborted by the user.".into())),
        JobEventKind::Held => Some((
            codes::HELD,
            format!(
                "Job was held. Reason: {}",
                ev.hold_reason
                    .map(HoldReason::text)
                    .unwrap_or("Unspecified")
            ),
        )),
        JobEventKind::Released => Some((codes::RELEASED, "Job was released.".into())),
        JobEventKind::PoolOutage => {
            Some((codes::POOL_OUTAGE, "Job was evicted: pool outage.".into()))
        }
        JobEventKind::PartitionStalled => Some((
            codes::PARTITION_STALLED,
            "Job transfer stalled: network partition.".into(),
        )),
        JobEventKind::Preempted => Some((
            codes::PREEMPTED,
            "Job was preempted by spot reclamation.".into(),
        )),
        JobEventKind::Migrated => Some((
            codes::MIGRATED,
            format!("Job migrated to pool {}.", ev.pool.unwrap_or(0)),
        )),
        JobEventKind::ServiceAdmitted => Some((
            codes::SERVICE_ADMITTED,
            "Campaign admitted by the service.".into(),
        )),
        JobEventKind::ServiceRejected => Some((
            codes::SERVICE_REJECTED,
            format!(
                "Campaign rejected by admission control. Reason: {}",
                match ev.service {
                    Some(ServiceDetail::Reject(r)) => r.text(),
                    _ => "Per-tenant quota exceeded",
                }
            ),
        )),
        JobEventKind::ServiceShed => Some((
            codes::SERVICE_SHED,
            format!(
                "Campaign shed under load. Reason: {}",
                match ev.service {
                    Some(ServiceDetail::Shed(r)) => r.text(),
                    _ => "Global backlog overflow",
                }
            ),
        )),
        JobEventKind::ServiceDegraded => Some((
            codes::SERVICE_DEGRADED,
            format!(
                "Campaign degraded. Mode: {}",
                match ev.service {
                    Some(ServiceDetail::Degrade(m)) => m.text(),
                    _ => DegradeMode::TruncatedKl.text(),
                }
            ),
        )),
        JobEventKind::ArtifactHit => Some((
            codes::ARTIFACT_HIT,
            format!(
                "Artifact served from shared store: {}.",
                match ev.service {
                    Some(ServiceDetail::Artifact(a)) => a.text(),
                    _ => ArtifactKind::Factor.text(),
                }
            ),
        )),
        JobEventKind::ArtifactQuarantined => Some((
            codes::ARTIFACT_QUARANTINED,
            format!(
                "Artifact quarantined (checksum mismatch): {}.",
                match ev.service {
                    Some(ServiceDetail::Artifact(a)) => a.text(),
                    _ => ArtifactKind::Factor.text(),
                }
            ),
        )),
        JobEventKind::Matched => None,
    }
}

/// Serialise a user log in the HTCondor ULOG text dialect. The owner id
/// becomes the ClassAd "cluster" field's subcluster (`(job.owner.000)`),
/// and every event is terminated by the canonical `...` separator line.
pub fn to_condor_log(log: &UserLog) -> String {
    let mut out = String::new();
    for ev in log.events() {
        let Some((code, text)) = code_and_text(ev) else {
            continue;
        };
        out.push_str(&format!(
            "{code} ({:03}.{:03}.000) {} {text}\n...\n",
            ev.job.0,
            ev.owner.0,
            format_time(ev.time)
        ));
    }
    out
}

/// Parse the ULOG dialect back into a [`UserLog`] (loggable events only).
pub fn parse_condor_log(text: &str) -> Result<UserLog, String> {
    let mut log = UserLog::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line == "..." {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}", lineno + 1);
        // "CODE (JJJ.OOO.000) MM/DD HH:MM:SS text..."
        let (code, rest) = line.split_once(' ').ok_or_else(|| err("missing code"))?;
        let rest = rest.trim_start();
        if !rest.starts_with('(') {
            return Err(err("missing job id"));
        }
        let close = rest.find(')').ok_or_else(|| err("unterminated job id"))?;
        let id_part = &rest[1..close];
        let mut id_fields = id_part.split('.');
        let job: u64 = id_fields
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| err("bad cluster id"))?;
        let owner: u32 = id_fields
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| err("bad proc id"))?;
        let after = rest[close + 1..].trim_start();
        // Timestamp is the next 14 characters: "MM/DD HH:MM:SS".
        if after.len() < 14 {
            return Err(err("truncated timestamp"));
        }
        let stamp = after.get(..14).ok_or_else(|| err("non-ASCII timestamp"))?;
        let time = parse_time(stamp).map_err(|e| err(&e))?;
        let (job, owner) = (JobId(job), OwnerId(owner));
        let body = after[14..].trim();
        let ev = match code {
            codes::SUBMITTED => JobEvent::new(time, job, owner, JobEventKind::Submitted),
            codes::EXECUTE => JobEvent::new(time, job, owner, JobEventKind::ExecuteStarted),
            codes::EVICTED => JobEvent::new(time, job, owner, JobEventKind::Evicted),
            codes::TERMINATED => {
                // The return value decides success vs failure.
                let rv: i32 = body
                    .find("return value ")
                    .and_then(|i| {
                        let tail = &body[i + "return value ".len()..];
                        let end = tail.find(')').unwrap_or(tail.len());
                        tail[..end].trim().parse().ok()
                    })
                    .ok_or_else(|| err("005 event missing return value"))?;
                let kind = if rv == 0 {
                    JobEventKind::Completed
                } else {
                    JobEventKind::Failed
                };
                JobEvent::new(time, job, owner, kind).with_exit(rv)
            }
            codes::ABORTED => JobEvent::new(time, job, owner, JobEventKind::Removed),
            codes::HELD => {
                let mut ev = JobEvent::new(time, job, owner, JobEventKind::Held);
                if let Some(i) = body.find("Reason: ") {
                    if let Some(r) = HoldReason::parse(body[i + "Reason: ".len()..].trim()) {
                        ev = ev.with_hold(r);
                    }
                }
                ev
            }
            codes::RELEASED => JobEvent::new(time, job, owner, JobEventKind::Released),
            codes::POOL_OUTAGE => JobEvent::new(time, job, owner, JobEventKind::PoolOutage),
            codes::PARTITION_STALLED => {
                JobEvent::new(time, job, owner, JobEventKind::PartitionStalled)
            }
            codes::PREEMPTED => JobEvent::new(time, job, owner, JobEventKind::Preempted),
            codes::MIGRATED => {
                let pool: u32 = body
                    .find("pool ")
                    .and_then(|i| {
                        let tail = &body[i + "pool ".len()..];
                        let end = tail.find('.').unwrap_or(tail.len());
                        tail[..end].trim().parse().ok()
                    })
                    .ok_or_else(|| err("030 event missing destination pool"))?;
                JobEvent::new(time, job, owner, JobEventKind::Migrated).with_pool(pool)
            }
            codes::SERVICE_ADMITTED => {
                JobEvent::new(time, job, owner, JobEventKind::ServiceAdmitted)
            }
            codes::SERVICE_REJECTED => {
                let reason = body
                    .find("Reason: ")
                    .and_then(|i| RejectReason::parse(&body[i + "Reason: ".len()..]))
                    .ok_or_else(|| err("034 event missing reject reason"))?;
                JobEvent::new(time, job, owner, JobEventKind::ServiceRejected)
                    .with_service(ServiceDetail::Reject(reason))
            }
            codes::SERVICE_SHED => {
                let reason = body
                    .find("Reason: ")
                    .and_then(|i| ShedReason::parse(&body[i + "Reason: ".len()..]))
                    .ok_or_else(|| err("035 event missing shed reason"))?;
                JobEvent::new(time, job, owner, JobEventKind::ServiceShed)
                    .with_service(ServiceDetail::Shed(reason))
            }
            codes::SERVICE_DEGRADED => {
                let mode = body
                    .find("Mode: ")
                    .and_then(|i| DegradeMode::parse(&body[i + "Mode: ".len()..]))
                    .ok_or_else(|| err("036 event missing degrade mode"))?;
                JobEvent::new(time, job, owner, JobEventKind::ServiceDegraded)
                    .with_service(ServiceDetail::Degrade(mode))
            }
            codes::ARTIFACT_HIT | codes::ARTIFACT_QUARANTINED => {
                let kind = body
                    .rfind(": ")
                    .and_then(|i| ArtifactKind::parse(body[i + 2..].trim_end_matches('.')))
                    .ok_or_else(|| err("artifact event missing artifact kind"))?;
                let ev_kind = if code == codes::ARTIFACT_HIT {
                    JobEventKind::ArtifactHit
                } else {
                    JobEventKind::ArtifactQuarantined
                };
                JobEvent::new(time, job, owner, ev_kind).with_service(ServiceDetail::Artifact(kind))
            }
            other => return Err(err(&format!("unknown event code '{other}'"))),
        };
        log.record(ev);
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> UserLog {
        let mut log = UserLog::new();
        let ev =
            |t: u64, j: u64, o: u32, kind| JobEvent::new(SimTime(t), JobId(j), OwnerId(o), kind);
        log.record(ev(0, 1, 0, JobEventKind::Submitted));
        log.record(ev(30, 1, 0, JobEventKind::Matched)); // not loggable
        log.record(ev(95, 1, 0, JobEventKind::ExecuteStarted));
        log.record(ev(200, 1, 0, JobEventKind::Evicted));
        log.record(ev(400, 1, 0, JobEventKind::ExecuteStarted));
        log.record(ev(90_061, 1, 0, JobEventKind::Completed).with_exit(0)); // day 2
        log.record(ev(10, 2, 3, JobEventKind::Submitted));
        log.record(ev(500, 2, 3, JobEventKind::Removed));
        log.record(ev(20, 3, 0, JobEventKind::Submitted));
        log.record(ev(50, 3, 0, JobEventKind::Held).with_hold(HoldReason::TransferInputError));
        log.record(ev(650, 3, 0, JobEventKind::Released));
        log.record(ev(700, 3, 0, JobEventKind::ExecuteStarted));
        log.record(ev(900, 3, 0, JobEventKind::Failed).with_exit(2));
        log
    }

    #[test]
    fn registry_codes_are_unique_and_sorted() {
        for w in codes::ALL.windows(2) {
            assert!(w[0] < w[1], "registry out of order or duplicated: {w:?}");
        }
        assert_eq!(codes::ALL.len(), 17);
    }

    #[test]
    fn format_looks_like_condor() {
        let text = to_condor_log(&sample_log());
        assert!(text.contains("000 (001.000.000) 01/01 00:00:00 Job submitted from host: <sim>"));
        assert!(text.contains("001 (001.000.000) 01/01 00:01:35 Job executing on host: <ospool>"));
        assert!(text.contains("005 (001.000.000) 01/02 01:01:01 Job terminated (return value 0)."));
        assert!(text.contains("009 (002.003.000)"));
        assert!(text.contains(
            "012 (003.000.000) 01/01 00:00:50 Job was held. Reason: Transfer input files failure"
        ));
        assert!(text.contains("013 (003.000.000) 01/01 00:10:50 Job was released."));
        assert!(text.contains("005 (003.000.000) 01/01 00:15:00 Job terminated (return value 2)."));
        // The canonical separator after every event.
        let events = text.matches("\n...\n").count();
        assert_eq!(events, 12, "12 loggable events, each with a separator");
        // Matched never appears.
        assert!(!text.contains("028"));
    }

    #[test]
    fn roundtrip_preserves_loggable_events() {
        let original = sample_log();
        let parsed = parse_condor_log(&to_condor_log(&original)).unwrap();
        let expect: Vec<&JobEvent> = original
            .events()
            .iter()
            .filter(|e| e.kind != JobEventKind::Matched)
            .collect();
        assert_eq!(parsed.len(), expect.len());
        for (a, b) in parsed.events().iter().zip(expect) {
            assert_eq!(a, b);
        }
        // The paper's statistics survive the text roundtrip.
        assert_eq!(parsed.completed_count(), original.completed_count());
        assert_eq!(parsed.makespan(), original.makespan());
        let jt = parsed.job_times();
        assert_eq!(jt[0].evictions, 1);
        assert_eq!(jt[0].wait_secs(), Some(400));
    }

    #[test]
    fn exit_codes_and_hold_reasons_roundtrip() {
        let parsed = parse_condor_log(&to_condor_log(&sample_log())).unwrap();
        let failed: Vec<&JobEvent> = parsed
            .events()
            .iter()
            .filter(|e| e.kind == JobEventKind::Failed)
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].exit_code, Some(2));
        let held: Vec<&JobEvent> = parsed
            .events()
            .iter()
            .filter(|e| e.kind == JobEventKind::Held)
            .collect();
        assert_eq!(held.len(), 1);
        assert_eq!(held[0].hold_reason, Some(HoldReason::TransferInputError));
    }

    #[test]
    fn federation_event_codes_roundtrip() {
        let mut log = UserLog::new();
        let ev = |t: u64, j: u64, kind| JobEvent::new(SimTime(t), JobId(j), OwnerId(0), kind);
        log.record(ev(0, 1, JobEventKind::Submitted));
        log.record(ev(50, 1, JobEventKind::PoolOutage));
        log.record(ev(60, 1, JobEventKind::PartitionStalled));
        log.record(ev(70, 1, JobEventKind::Preempted));
        log.record(ev(80, 1, JobEventKind::Migrated).with_pool(2));
        log.record(ev(200, 1, JobEventKind::Completed).with_exit(0));
        let text = to_condor_log(&log);
        assert!(text.contains("022 (001.000.000) 01/01 00:00:50 Job was evicted: pool outage."));
        assert!(text
            .contains("023 (001.000.000) 01/01 00:01:00 Job transfer stalled: network partition."));
        assert!(text
            .contains("026 (001.000.000) 01/01 00:01:10 Job was preempted by spot reclamation."));
        assert!(text.contains("030 (001.000.000) 01/01 00:01:20 Job migrated to pool 2."));
        let parsed = parse_condor_log(&text).unwrap();
        assert_eq!(parsed.len(), log.len());
        for (a, b) in parsed.events().iter().zip(log.events()) {
            assert_eq!(a, b);
        }
        assert!(
            parse_condor_log("030 (001.000.000) 01/01 00:00:00 Job migrated.\n").is_err(),
            "030 without a destination pool is rejected"
        );
    }

    #[test]
    fn service_event_codes_roundtrip() {
        let mut log = UserLog::new();
        let ev =
            |t: u64, j: u64, o: u32, kind| JobEvent::new(SimTime(t), JobId(j), OwnerId(o), kind);
        log.record(ev(0, 1, 0, JobEventKind::Submitted));
        log.record(ev(0, 1, 0, JobEventKind::ServiceAdmitted));
        log.record(
            ev(5, 2, 1, JobEventKind::ServiceRejected)
                .with_service(ServiceDetail::Reject(RejectReason::QueueFull)),
        );
        log.record(
            ev(9, 3, 2, JobEventKind::ServiceRejected)
                .with_service(ServiceDetail::Reject(RejectReason::CircuitOpen)),
        );
        log.record(
            ev(12, 4, 0, JobEventKind::ServiceShed)
                .with_service(ServiceDetail::Shed(ShedReason::DeadlineUnreachable)),
        );
        log.record(
            ev(20, 1, 0, JobEventKind::ServiceDegraded)
                .with_service(ServiceDetail::Degrade(DegradeMode::ReducedReplicas)),
        );
        log.record(
            ev(21, 1, 0, JobEventKind::ArtifactHit)
                .with_service(ServiceDetail::Artifact(ArtifactKind::GfLibrary)),
        );
        log.record(
            ev(22, 1, 0, JobEventKind::ArtifactQuarantined)
                .with_service(ServiceDetail::Artifact(ArtifactKind::DistanceMatrix)),
        );
        log.record(ev(90, 1, 0, JobEventKind::Completed).with_exit(0));
        let text = to_condor_log(&log);
        assert!(text.contains("033 (001.000.000) 01/01 00:00:00 Campaign admitted by the service."));
        assert!(text.contains(
            "034 (002.001.000) 01/01 00:00:05 Campaign rejected by admission control. \
             Reason: Tenant queue full"
        ));
        assert!(text.contains("Reason: Tenant circuit breaker open"));
        assert!(text.contains(
            "035 (004.000.000) 01/01 00:00:12 Campaign shed under load. \
             Reason: Deadline unreachable"
        ));
        assert!(text.contains(
            "036 (001.000.000) 01/01 00:00:20 Campaign degraded. Mode: Reduced replica count"
        ));
        assert!(text.contains(
            "037 (001.000.000) 01/01 00:00:21 Artifact served from shared store: gf-library."
        ));
        assert!(text.contains(
            "038 (001.000.000) 01/01 00:00:22 Artifact quarantined (checksum mismatch): \
             distance-matrix."
        ));
        let parsed = parse_condor_log(&text).unwrap();
        assert_eq!(parsed.len(), log.len());
        for (a, b) in parsed.events().iter().zip(log.events()) {
            assert_eq!(a, b);
        }
        // Events whose typed payload is missing or unknown are rejected.
        assert!(
            parse_condor_log("034 (001.000.000) 01/01 00:00:00 Campaign rejected.\n").is_err(),
            "034 without a typed reason is rejected"
        );
        assert!(
            parse_condor_log(
                "035 (001.000.000) 01/01 00:00:00 Campaign shed under load. Reason: tired\n"
            )
            .is_err(),
            "unknown shed reason is rejected"
        );
        assert!(
            parse_condor_log(
                "037 (001.000.000) 01/01 00:00:00 Artifact served from shared store: waveform.\n"
            )
            .is_err(),
            "unknown artifact kind is rejected"
        );
    }

    #[test]
    fn timestamps_roundtrip() {
        for t in [0u64, 59, 3600, 86_399, 86_400, 20 * 86_400 + 86_399] {
            let s = format_time(SimTime(t));
            assert_eq!(parse_time(&s).unwrap(), SimTime(t), "{s}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_condor_log("042 (001.000.000) 01/01 00:00:00 ?\n").is_err());
        assert!(parse_condor_log("000 001.000.000 01/01 00:00:00 x\n").is_err());
        assert!(parse_condor_log("000 (001.000.000 01/01 00:00:00 x\n").is_err());
        assert!(parse_condor_log("000 (abc.000.000) 01/01 00:00:00 x\n").is_err());
        assert!(parse_condor_log("000 (001.000.000) 01/01\n").is_err());
        assert!(
            parse_condor_log("005 (001.000.000) 01/01 00:00:00 Job terminated.\n").is_err(),
            "005 without a return value is rejected"
        );
        assert!(parse_time("13/00 00:00:00").is_err());
        assert!(parse_time("01/01 99:xx:00").is_err());
        // A multi-byte character across the timestamp's 14th byte is an
        // error, not a slice panic.
        assert!(parse_condor_log("001 (001.000.000) 01/01 00:04:\u{fffd}0 x\n").is_err());
        // Empty input parses to an empty log.
        assert!(parse_condor_log("").unwrap().is_empty());
    }

    #[test]
    fn grep_style_counting_works() {
        // The paper's shell scripts count completions by grepping for the
        // 005 event code — with exit codes in the log, success vs failure
        // is the return value.
        let text = to_condor_log(&sample_log());
        let terminations = text.lines().filter(|l| l.starts_with("005 ")).count();
        assert_eq!(terminations, 2);
        let successes = text
            .lines()
            .filter(|l| l.contains("return value 0"))
            .count();
        assert_eq!(successes, 1);
        let submissions = text.lines().filter(|l| l.starts_with("000 ")).count();
        assert_eq!(submissions, 3);
        let holds = text.lines().filter(|l| l.starts_with("012 ")).count();
        assert_eq!(holds, 1);
    }
}
