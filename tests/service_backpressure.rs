//! Backpressure and cancellation gates for the analysis service (PR 5).
//!
//! The scheme behind the deterministic assertions: a 1-worker service is fed a
//! *heavy* first app (ThermostatEnergyControl, by far the slowest corpus
//! analysis), then probed while the worker is provably busy — submissions land
//! microseconds after a poll that observed the heavy job's stage start, and the
//! heavy analysis takes orders of magnitude longer than the probes. Environment
//! jobs parked on the heavy member stay parked (and pending) for that whole
//! window, so queue-bound and cancellation outcomes are deterministic, not
//! timing-lucky.

use soteria::Soteria;
use soteria_analysis::AnalysisConfig;
use soteria_service::{
    AdmissionPolicy, CacheDisposition, JobError, Service, ServiceError, ServiceOptions,
};
use std::time::{Duration, Instant};

fn heavy_source() -> String {
    soteria_corpus::find_app("ThermostatEnergyControl").expect("corpus app").1
}

fn light_source() -> String {
    soteria_corpus::find_app("SmokeAlarm").expect("corpus app").1
}

fn service(options: ServiceOptions) -> Service {
    Service::new(
        Soteria::with_config(AnalysisConfig { threads: 1, ..AnalysisConfig::paper() }),
        options,
    )
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < Duration::from_secs(60), "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// With `max_pending` set, pending jobs never exceed the bound, and the Reject
/// policy fails the submission that would.
#[test]
fn reject_policy_enforces_the_bound_deterministically() {
    let service = service(ServiceOptions {
        workers: 1,
        max_pending: 2,
        admission: AdmissionPolicy::Reject,
        ..ServiceOptions::default()
    });
    let heavy = service.submit_app("heavy", &heavy_source()).expect("admitted");
    assert!(service.pending_jobs() <= 2);
    // Once the single worker claims the heavy ingest, the pending count is 0
    // and the worker is busy for the whole probe window below.
    wait_until("heavy ingest to start", || service.pending_jobs() == 0);

    // Two environments park on the in-flight member: pending 1, then 2.
    let g1 = service.submit_environment_by_names("G1", &["heavy"]).expect("slot 1");
    assert_eq!(service.pending_jobs(), 1);
    let g2 = service.submit_environment_by_names("G2", &["heavy"]).expect("slot 2");
    assert_eq!(service.pending_jobs(), 2);
    // The third submission meets the bound and is rejected — deterministically,
    // because the parked jobs cannot start before their member finishes, and
    // the member is still being analyzed by the only worker.
    match service.submit_environment_by_names("G3", &["heavy"]) {
        Err(ServiceError::QueueFull { pending, max_pending }) => {
            assert_eq!((pending, max_pending), (2, 2));
        }
        other => panic!("expected QueueFull, got ok={:?}", other.is_ok()),
    }
    assert_eq!(service.pending_jobs(), 2, "rejected submission leaked a slot");
    assert_eq!(service.stats().rejected, 1);

    // Everything admitted completes; the bound never blocked progress.
    heavy.wait().expect("heavy parses");
    g1.wait().expect("G1 runs");
    g2.wait().expect("G2 runs");
    assert_eq!(service.pending_jobs(), 0, "pending count leaked");
    // And with the queue drained the once-rejected submission is admitted.
    let g3 = service.submit_environment_by_names("G3", &["heavy"]).expect("admitted now");
    g3.wait().expect("G3 runs");
}

/// The Block policy holds the submitter instead of rejecting, and a freed slot
/// (here: a cancellation) releases it.
#[test]
fn block_policy_blocks_until_a_slot_frees() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let service = Arc::new(service(ServiceOptions {
        workers: 1,
        max_pending: 1,
        admission: AdmissionPolicy::Block,
        ..ServiceOptions::default()
    }));
    service.submit_app("heavy", &heavy_source()).expect("admitted");
    wait_until("heavy ingest to start", || service.pending_jobs() == 0);
    let g1 = service.submit_environment_by_names("G1", &["heavy"]).expect("fills the queue");
    assert_eq!(service.pending_jobs(), 1);

    // A second environment submission must block: the queue is full and stays
    // full while the heavy member runs.
    let submitted = Arc::new(AtomicBool::new(false));
    let (flag, svc) = (Arc::clone(&submitted), Arc::clone(&service));
    let submitter = soteria_sync::thread::spawn(move || {
        let job = svc.submit_environment_by_names("G2", &["heavy"]).expect("admitted");
        flag.store(true, Ordering::Relaxed);
        job
    });
    std::thread::sleep(Duration::from_millis(20));
    assert!(
        !submitted.load(Ordering::Relaxed),
        "blocking submission returned while the queue was full"
    );
    // Cancelling the parked job frees its slot and unblocks the submitter.
    assert!(g1.cancel(), "parked environment not cancellable");
    assert!(matches!(g1.wait(), Err(JobError::Cancelled)));
    let g2 = submitter.join().expect("submitter thread");
    assert!(service.pending_jobs() <= 1, "pending bound exceeded after unblock");
    g2.wait().expect("G2 runs after the heavy member finishes");
    assert_eq!(service.stats().cancelled, 1);
}

/// Cancelling a queued job removes its stage from the queue; nothing is cached,
/// so resubmission schedules a fresh analysis.
#[test]
fn cancelling_a_queued_job_settles_cancelled_and_caches_nothing() {
    let service = service(ServiceOptions { workers: 1, ..ServiceOptions::default() });
    let light = light_source();
    let heavy = service.submit_app("heavy", &heavy_source()).expect("admitted");
    wait_until("heavy ingest to start", || service.pending_jobs() == 0);
    let queued = service.submit_app("light", &light).expect("admitted");
    assert_eq!(queued.disposition(), CacheDisposition::Miss);

    assert!(queued.cancel(), "queued job not cancellable");
    assert!(!queued.cancel(), "second cancel settled the job twice");
    assert!(matches!(queued.wait(), Err(JobError::Cancelled)));

    // The cancelled job never poisoned shared state: the heavy job and the
    // service keep working, and the cancelled content was never cached (a
    // resubmission is a Miss that completes normally).
    heavy.wait().expect("heavy unaffected");
    assert!(!heavy.cancel(), "finished job reported as cancelled");
    let again = service.submit_app("light", &light).expect("admitted");
    assert_eq!(again.disposition(), CacheDisposition::Miss, "cancelled result was cached");
    again.wait().expect("resubmitted job completes");
    let stats = service.stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(service.pending_jobs(), 0);
}

/// A cancelled member fails its parent environment deterministically with
/// MemberFailed — never a hang, never a poisoned union.
#[test]
fn cancelled_member_fails_the_parent_environment() {
    let service = service(ServiceOptions { workers: 1, ..ServiceOptions::default() });
    service.submit_app("heavy", &heavy_source()).expect("admitted");
    wait_until("heavy ingest to start", || service.pending_jobs() == 0);
    let member = service.submit_app("light", &light_source()).expect("admitted");
    let env = service.submit_environment_by_names("G", &["light"]).expect("member known");

    assert!(member.cancel());
    match env.wait() {
        Err(JobError::MemberFailed { group, member }) => {
            assert_eq!((group.as_str(), member.as_str()), ("G", "light"));
        }
        other => panic!("expected MemberFailed, got ok={:?}", other.is_ok()),
    }
    // Collecting the log sees both terminal states; nothing wedges.
    let outcomes = service.collect();
    assert_eq!(outcomes.len(), 3);
}

/// The CancelOnDrop guard cancels on drop and disarms cleanly.
#[test]
fn cancel_on_drop_guard_cancels_unless_disarmed() {
    let service = service(ServiceOptions { workers: 1, ..ServiceOptions::default() });
    let light = light_source();
    service.submit_app("heavy", &heavy_source()).expect("admitted");
    wait_until("heavy ingest to start", || service.pending_jobs() == 0);

    let dropped = service.submit_app("dropped", &light).expect("admitted");
    let watcher = dropped.clone();
    drop(dropped.cancel_on_drop());
    assert!(matches!(watcher.wait(), Err(JobError::Cancelled)));

    let kept_guard = service.submit_app("kept", &light).expect("admitted").cancel_on_drop();
    assert_eq!(kept_guard.name(), "kept"); // guard derefs to the handle
    let kept = kept_guard.disarm();
    drop(kept.clone().cancel_on_drop().disarm()); // disarmed guards never cancel
    kept.wait().expect("disarmed job completes");
}

/// ROADMAP satellite: the per-name registry is bounded — bare-key entries are
/// evicted alongside their LRU cache entries, so the registry length never
/// exceeds live tickets + cache capacity.
#[test]
fn registry_never_outgrows_live_tickets_plus_cache_capacity() {
    let cache_capacity = 2usize;
    // Explicitly unbounded: this test floods 10 submissions without waiting,
    // which must work regardless of the CI env-knob configuration.
    let service = service(ServiceOptions {
        workers: 2,
        cache_capacity,
        max_pending: 0,
        admission: AdmissionPolicy::Block,
        // Memory-only on purpose: with a disk tier, eviction *demotes* and the
        // bare keys legitimately stay resolvable (tests/persistent_store.rs
        // covers that side); this gate is about the memory-only bound.
        store_dir: None,
        ..ServiceOptions::default()
    });
    let base = light_source();
    let mut jobs = Vec::new();
    for i in 0..10 {
        // Distinct content under distinct names: every submission is a Miss.
        let source = base.replace("smoke.detected", &format!("smoke.detected{i}"));
        let job = service.submit_app(&format!("app-{i}"), &source).expect("admitted");
        jobs.push(job);
        let live = jobs.iter().filter(|j| !j.is_ready()).count();
        assert!(
            service.stats().registry_entries <= live + cache_capacity,
            "registry grew past live tickets + cache capacity mid-sweep"
        );
    }
    for job in &jobs {
        job.wait().expect("parses");
    }
    // Quiesced: every ticket downgraded, every over-capacity bare key evicted.
    wait_until("registry to settle", || {
        service.stats().registry_entries <= cache_capacity
    });
    let stats = service.stats();
    assert!(stats.registry_entries >= 1, "registry emptied entirely");
    assert_eq!(stats.app_cache.entries, cache_capacity);
    assert!(stats.app_cache.evictions >= 8);
}

/// A cancelled environment leaves the in-flight index and caches nothing:
/// resubmitting the same group over the same members is a fresh Miss (not a
/// coalesce onto the dead ticket) that completes normally.
#[test]
fn cancelled_environment_resubmits_as_a_fresh_miss() {
    let service = service(ServiceOptions { workers: 1, ..ServiceOptions::default() });
    service.submit_app("heavy", &heavy_source()).expect("admitted");
    wait_until("heavy ingest to start", || service.pending_jobs() == 0);
    let g1 = service.submit_environment_by_names("G1", &["heavy"]).expect("parks");
    assert_eq!(g1.disposition(), CacheDisposition::Miss);
    assert!(g1.cancel(), "parked environment not cancellable");
    assert!(matches!(g1.wait(), Err(JobError::Cancelled)));

    let again = service.submit_environment_by_names("G1", &["heavy"]).expect("admitted");
    assert_eq!(again.key(), g1.key(), "same group over the same members");
    assert_eq!(again.disposition(), CacheDisposition::Miss, "cancelled environment reused");
    again.wait().expect("resubmitted environment completes");
    assert_eq!(service.stats().cancelled, 1);
}
