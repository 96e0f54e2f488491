//! Crash-only fault layer gates (PR 6): quarantine, deadlines, in-stage abort,
//! drain, and drop — the service must never wedge, never settle a ticket twice,
//! and never let a poisoned *input* be resubmitted forever.
//!
//! Determinism scheme: chaos markers ([`ServiceOptions::fault_marker`] and
//! [`ServiceOptions::stall_marker`]) make faults a property of the submitted
//! bytes, not of timing. A stalling job occupies its worker *until aborted*, so
//! "the worker is busy" is a provable state, not a race; a fault-marked job
//! panics at stage start, so strikes accumulate exactly once per run. Tests pin
//! `pending_deadline`/`running_deadline` explicitly (overriding the
//! `SOTERIA_DEADLINE_MS` CI knob) except the tolerance gate at the bottom,
//! which is the chaos leg's target and accepts both completion and timeout.

use soteria::{render_environment_report, Soteria};
use soteria_analysis::AnalysisConfig;
use soteria_exec::{with_abort, AbortHandle};
use soteria_service::{
    AdmissionPolicy, CacheDisposition, FaultKind, JobError, Service, ServiceError,
    ServiceOptions,
};
use std::time::{Duration, Instant};

/// A source whose only job is to carry a chaos marker; the marked stage faults
/// before the text is ever parsed.
const MARKED: &str = "definition(name: \"marked\") /* chaos-marker stall-marker */";

fn light_source() -> String {
    soteria_corpus::find_app("SmokeAlarm").expect("corpus app").1
}

fn heavy_source() -> String {
    soteria_corpus::find_app("ThermostatEnergyControl").expect("corpus app").1
}

fn service(options: ServiceOptions) -> Service {
    Service::new(
        Soteria::with_config(AnalysisConfig { threads: 1, ..AnalysisConfig::paper() }),
        options,
    )
}

/// Deterministic base: no deadlines regardless of the CI env knobs, unbounded
/// blocking admission, chaos markers off. Tests override what they exercise.
fn pinned() -> ServiceOptions {
    ServiceOptions {
        workers: 1,
        max_pending: 0,
        admission: AdmissionPolicy::Block,
        pending_deadline: None,
        running_deadline: None,
        // Exact fault-log counts below; a disk tier under `SOTERIA_STORE_DIR`
        // (+ injected store faults) would add its own records.
        store_dir: None,
        ..ServiceOptions::default()
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < Duration::from_secs(60), "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// Two panics against the same content fingerprint quarantine it: the third
/// submission is rejected at admission, while distinct content is unaffected.
/// The fault log records both strikes against the same key.
#[test]
fn two_panic_strikes_quarantine_the_content_fingerprint() {
    let service = service(ServiceOptions {
        fault_marker: Some("chaos-marker".into()),
        quarantine_threshold: 2,
        ..pinned()
    });

    // Strike 1 and strike 2: each submission is admitted, runs, and settles as
    // an Internal fault (panics are never cached, so the resubmission re-runs).
    for strike in 1..=2 {
        let job = service.submit_app("bad", MARKED).expect("admitted before quarantine");
        match job.wait() {
            Err(JobError::Internal(message)) => {
                assert!(message.contains("injected fault"), "strike {strike}: {message}");
            }
            other => panic!("strike {strike}: expected Internal, got ok={}", other.is_ok()),
        }
    }

    // Strike threshold met: rejected at admission, under any submitted name.
    for name in ["bad", "alias-of-bad"] {
        match service.submit_app(name, MARKED) {
            Err(ServiceError::Quarantined { name: n, strikes }) => {
                assert_eq!((n.as_str(), strikes), (name, 2));
            }
            other => panic!("{name}: expected Quarantined, got ok={:?}", other.is_ok()),
        }
    }

    // Quarantine is per-fingerprint: clean content still analyzes.
    let clean = service.submit_app("clean", &light_source()).expect("clean content admitted");
    clean.wait().expect("clean content analyzes");

    // The fault log holds both strikes: same key, monotonic seq, panic kind.
    let faults = service.faults();
    assert_eq!(faults.len(), 2, "expected exactly the two panic strikes");
    assert_eq!(faults[0].key, faults[1].key, "strikes recorded under different fingerprints");
    assert!(faults[0].seq < faults[1].seq, "fault seq not monotonic");
    for fault in &faults {
        assert!(matches!(fault.kind, FaultKind::Panic));
        assert_eq!(fault.stage, "ingest");
        assert!(fault.message.contains("injected fault"), "payload lost: {}", fault.message);
    }
    let stats = service.stats();
    assert_eq!(stats.faults, 2);
    assert_eq!(stats.quarantined, 2);
}

/// A job wedged *inside* a stage breaches its running deadline: the sweeper
/// settles it as TimedOut, the in-stage abort frees the worker, and the
/// timed-out content is NOT quarantined — slowness blames load, not input.
#[test]
fn running_deadline_times_out_a_wedged_stage_and_frees_the_worker() {
    let service = service(ServiceOptions {
        stall_marker: Some("stall-marker".into()),
        running_deadline: Some(Duration::from_millis(500)),
        ..pinned()
    });

    let wedged = service.submit_app("wedged", MARKED).expect("admitted");
    assert!(matches!(wedged.wait(), Err(JobError::TimedOut)), "wedged job did not time out");
    wait_until("timed-out job to leave the queue", || service.pending_jobs() == 0);

    let faults = service.faults();
    assert_eq!(faults.len(), 1);
    assert!(matches!(faults[0].kind, FaultKind::Timeout));
    assert_eq!(faults[0].stage, "running", "deadline fired in the wrong stage");
    assert_eq!(service.stats().timed_out, 1);

    // The worker was aborted, not leaked: fresh work completes on it. (The
    // light analysis finishes far inside the 500ms running deadline.)
    let after = service.submit_app("after", &light_source()).expect("admitted");
    after.wait().expect("worker not freed after the timeout");

    // Timeouts never quarantine: the same bytes are admitted again.
    let again = service.submit_app("wedged", MARKED).expect("timeouts must not quarantine");
    assert!(again.wait().is_err(), "the stalled content cannot have completed");
}

/// Jobs that never get to start — queued behind a wedged worker, or parked on a
/// wedged member — breach the *pending* deadline and settle without the worker
/// ever touching them.
#[test]
fn pending_deadline_times_out_jobs_stuck_behind_a_wedged_worker() {
    let service = service(ServiceOptions {
        stall_marker: Some("stall-marker".into()),
        pending_deadline: Some(Duration::from_millis(300)),
        ..pinned()
    });

    // The stall occupies the only worker until aborted; the jobs behind it
    // provably cannot start.
    let wedged = service.submit_app("wedged", MARKED).expect("admitted");
    wait_until("the stall to claim the worker", || service.pending_jobs() == 0);
    let queued = service.submit_app("queued", &light_source()).expect("admitted");
    let parked = service.submit_environment_by_names("G", &["wedged"]).expect("member known");

    assert!(matches!(queued.wait(), Err(JobError::TimedOut)), "queued job did not time out");
    assert!(matches!(parked.wait(), Err(JobError::TimedOut)), "parked env did not time out");
    let stages: Vec<&str> = service.faults().iter().map(|f| f.stage).collect();
    assert!(stages.contains(&"queued"), "no queued-stage fault: {stages:?}");
    assert!(stages.contains(&"parked"), "no parked-stage fault: {stages:?}");

    // The wedge itself never breached a deadline (its stage started); cancel
    // aborts the stall in-stage and the queue empties.
    assert!(wedged.cancel(), "running stall not cancellable");
    assert!(matches!(wedged.wait(), Err(JobError::Cancelled)));
    wait_until("queue to empty", || service.pending_jobs() == 0);
}

/// A parked environment that timed out leaves the in-flight index: the same
/// group over the same (still wedged) member resubmits as a fresh Miss, not a
/// coalesce onto the timed-out ticket.
#[test]
fn timed_out_environment_resubmits_as_a_fresh_miss() {
    let service = service(ServiceOptions {
        stall_marker: Some("stall-marker".into()),
        pending_deadline: Some(Duration::from_millis(300)),
        ..pinned()
    });
    let wedged = service.submit_app("wedged", MARKED).expect("admitted");
    wait_until("the stall to claim the worker", || service.pending_jobs() == 0);
    let parked = service.submit_environment_by_names("G", &["wedged"]).expect("member known");
    assert!(matches!(parked.wait(), Err(JobError::TimedOut)), "parked env did not time out");

    let again = service.submit_environment_by_names("G", &["wedged"]).expect("admitted");
    assert_eq!(again.key(), parked.key(), "same group over the same member");
    assert_eq!(again.disposition(), CacheDisposition::Miss, "timed-out environment reused");
    assert!(wedged.cancel(), "running stall not cancellable");
    assert!(again.wait().is_err(), "an environment over a cancelled member cannot succeed");
    wait_until("queue to empty", || service.pending_jobs() == 0);
}

/// Drain under load settles every ticket exactly once: the report covers every
/// submission, its counters partition the outcomes, and admission stays closed.
#[test]
fn drain_settles_every_ticket_exactly_once_under_load() {
    let service = service(ServiceOptions { workers: 2, ..pinned() });
    let base = light_source();
    let jobs: Vec<_> = (0..8)
        .map(|i| {
            // Distinct content under distinct names: every submission is a live
            // job, none coalesce.
            let source = base.replace("smoke.detected", &format!("smoke.detected{i}"));
            service.submit_app(&format!("app-{i}"), &source).expect("admitted")
        })
        .collect();
    // Two racy cancels in flight while the drain begins — whatever interleaving
    // results, the accounting below must hold.
    jobs[3].cancel();
    jobs[5].cancel();

    let report = service.drain(Some(Duration::from_secs(120)));
    assert_eq!(report.outcomes.len(), 8, "drain lost or duplicated tickets");
    assert_eq!(
        report.completed + report.failed + report.cancelled + report.timed_out,
        8,
        "drain counters do not partition the outcomes"
    );
    assert_eq!(report.timed_out, 0, "a generous drain deadline force-settled a job");
    assert!(report.completed >= 6, "at most the two cancelled jobs may be incomplete");
    for job in &jobs {
        assert!(job.is_ready(), "drain returned with an unsettled ticket");
    }

    // Admission is closed for good: late submissions are rejected, the queue is
    // empty, and a second drain has nothing left to settle.
    assert!(service.stats().draining);
    assert!(matches!(service.submit_app("late", &base), Err(ServiceError::Draining)));
    assert_eq!(service.pending_jobs(), 0);
    assert_eq!(service.drain(None).outcomes.len(), 0, "second drain re-settled tickets");
}

/// The drain deadline force-settles a job wedged inside a stage instead of
/// waiting out the stall: the drain returns promptly and the wedge is recorded
/// as a drain-stage timeout.
#[test]
fn drain_deadline_force_settles_a_wedged_job() {
    let service = service(ServiceOptions {
        stall_marker: Some("stall-marker".into()),
        ..pinned()
    });
    let wedged = service.submit_app("wedged", MARKED).expect("admitted");
    wait_until("the stall to claim the worker", || service.pending_jobs() == 0);

    let started = Instant::now();
    let report = service.drain(Some(Duration::from_millis(200)));
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "drain waited out the stall instead of force-settling at its deadline"
    );
    assert_eq!(report.timed_out, 1);
    assert!(matches!(wedged.wait(), Err(JobError::TimedOut)));
    let faults = service.faults();
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].stage, "drain");
    assert!(matches!(faults[0].kind, FaultKind::Timeout));
}

/// Drain unblocks a submitter parked on a full queue: admission closes first,
/// so the blocked submission fails with Draining instead of hanging forever.
#[test]
fn drain_unblocks_a_queue_blocked_submitter() {
    let service = service(ServiceOptions {
        max_pending: 1,
        stall_marker: Some("stall-marker".into()),
        ..pinned()
    });
    service.submit_app("wedged", MARKED).expect("admitted");
    wait_until("the stall to claim the worker", || service.pending_jobs() == 0);
    service.submit_app("queued", &light_source()).expect("fills the queue");

    std::thread::scope(|s| {
        let blocked = s.spawn(|| service.submit_app("blocked", &heavy_source()));
        // The queue is full and stays full while the worker is wedged, so the
        // spawned submission is blocked, not slow.
        std::thread::sleep(Duration::from_millis(50));
        assert!(!blocked.is_finished(), "submission returned while the queue was full");

        let report = service.drain(Some(Duration::from_millis(200)));
        match blocked.join().expect("submitter thread") {
            Err(ServiceError::Draining) => {}
            other => panic!("drain left the submitter blocked; got ok={:?}", other.is_ok()),
        }
        assert_eq!(report.outcomes.len(), 2, "wedged + queued jobs both settle, once each");
        assert!(report.timed_out >= 1, "the wedge must be force-settled by the drain deadline");
        assert_eq!(report.completed + report.failed + report.cancelled + report.timed_out, 2);
    });
}

/// Satellite regression: dropping the service with jobs parked, queued, and
/// wedged settles every outstanding ticket as Cancelled — waiters unblock,
/// nothing hangs in `Drop`.
#[test]
fn drop_settles_outstanding_tickets_as_cancelled() {
    let service = service(ServiceOptions {
        stall_marker: Some("stall-marker".into()),
        ..pinned()
    });
    let wedged = service.submit_app("wedged", MARKED).expect("admitted");
    wait_until("the stall to claim the worker", || service.pending_jobs() == 0);
    let queued = service.submit_app("queued", &light_source()).expect("admitted");
    let parked = service.submit_environment_by_names("G", &["wedged"]).expect("member known");

    let dropped_at = Instant::now();
    drop(service);
    assert!(
        dropped_at.elapsed() < Duration::from_secs(8),
        "Drop waited out the stall instead of aborting it"
    );
    assert!(matches!(wedged.wait(), Err(JobError::Cancelled)), "wedged ticket not settled");
    assert!(matches!(queued.wait(), Err(JobError::Cancelled)), "queued ticket not settled");
    assert!(matches!(parked.wait(), Err(JobError::Cancelled)), "parked ticket not settled");
}

/// Abort polling is free of consequence: with a never-aborted `AbortHandle`
/// installed, every poll site in the partitioned union lift and the checker's
/// fixpoint loops pays the check and none fires, so the corpus' heaviest
/// analysis, market G.3, renders byte-identically to a run with no handle.
#[test]
fn never_aborted_handle_leaves_the_g3_environment_byte_identical() {
    let soteria = Soteria::new();
    let g3 = soteria_corpus::market_groups().into_iter().find(|g| g.id == "G.3").expect("G.3");
    let members: Vec<soteria::AppAnalysis> = g3
        .members
        .iter()
        .map(|id| {
            let (name, source) = soteria_corpus::find_app(id).expect("market app");
            soteria.analyze_app(&name, &source).expect("member parses")
        })
        .collect();
    let unpolled = render_environment_report(&soteria.analyze_environment("G.3", &members));
    let handle = AbortHandle::new();
    let polled = with_abort(Some(handle.clone()), || {
        render_environment_report(&soteria.analyze_environment("G.3", &members))
    });
    assert!(!handle.is_aborted(), "nothing may abort this run");
    assert!(polled == unpolled, "G.3 diverges with an abort handle installed");
}

/// The CI chaos leg's target: with `SOTERIA_DEADLINE_MS` in the environment
/// (picked up through `ServiceOptions::default`), every job either completes or
/// settles TimedOut — never wedges — and a final drain partitions everything it
/// settled. Without the knob this is a plain completion test.
#[test]
fn tiny_env_deadlines_never_wedge_the_service() {
    let service = service(ServiceOptions { workers: 1, ..ServiceOptions::default() });
    let mut completed = 0usize;
    for (name, source) in [("light", light_source()), ("heavy", heavy_source())] {
        let job = service.submit_app(name, &source).expect("admitted");
        match job.wait() {
            Ok(_) => completed += 1,
            Err(JobError::TimedOut) => {}
            Err(e) => panic!("{name}: expected completion or timeout, got {e}"),
        }
    }
    wait_until("queue to settle", || service.pending_jobs() == 0);
    let stats = service.stats();
    assert_eq!(completed + stats.timed_out as usize, 2, "a job settled as neither");
    // Under the chaos leg the environment may also configure a persistent store
    // with injected I/O faults; those surface as `store`-stage records, never
    // as wrong answers. Everything else must be a timeout.
    let store_faults =
        service.faults().iter().filter(|f| f.stage == "store").count() as u64;
    assert_eq!(
        stats.faults - store_faults,
        stats.timed_out,
        "only timeout (and injected store) faults are possible here"
    );

    let report = service.drain(Some(Duration::from_secs(60)));
    assert_eq!(
        report.completed + report.failed + report.cancelled + report.timed_out,
        report.outcomes.len(),
        "drain counters do not partition the outcomes"
    );
}
