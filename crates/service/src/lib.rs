//! `soteria-service`: a long-lived analysis service over the Soteria pipeline.
//!
//! PR 3 made corpus sweeps parallel but strictly *batch*: every call spawned
//! scoped threads, parsing never overlapped verification, and nothing learned
//! from one sweep to the next. This crate adds the missing execution layer for a
//! production-shaped deployment, where thousands of independent app analyses
//! arrive over time and results are pure functions of `(source, configuration)`:
//!
//! * **Job queue** — [`Service::submit_app`] / [`Service::submit_environment`]
//!   return [`AppJob`] / [`EnvJob`] ticket handles immediately — both aliases
//!   of one generic [`Job`] handle, so apps and environments share a single
//!   admission/settle/cancel path ([`JobKind`]); results are awaited
//!   individually ([`Job::wait`]) or collected in submission order
//!   ([`Service::collect`]).
//! * **Persistent worker pool** — jobs run on `soteria-exec`'s long-lived
//!   [`WorkerPool`](soteria_exec::WorkerPool) (no per-call thread spawns). An
//!   app job is two pipeline stages — ingest (parse → IR → model) and verify —
//!   each a separate queue slot, so ingestion of app *N + 1* overlaps
//!   verification of app *N*. Environment jobs park until their member analyses
//!   exist; a worker is never blocked on a dependency.
//! * **Content-addressed result cache** — FNV-1a 128 keys over the app source
//!   plus the [`AnalysisConfig::fingerprint`] (thread counts excluded — they
//!   never change results) into a bounded LRU with hit/miss/eviction counters.
//!   Resubmitting analyzed content returns the frozen, byte-identical original.
//! * **Wire protocol** — the `soteria-serve` bin reads newline-delimited
//!   requests (inline source, a path, or a corpus id) and emits one JSON
//!   response line per job, in submission order ([`protocol`]).
//!
//! * **Backpressure & cancellation** — [`ServiceOptions::max_pending`] bounds
//!   queued-but-unstarted jobs, with a configurable policy at the bound
//!   ([`AdmissionPolicy::Block`] waits for a slot, [`AdmissionPolicy::Reject`]
//!   fails fast with [`ServiceError::QueueFull`]); in-flight jobs are
//!   cancellable ([`Job::cancel`] / [`CancelOnDrop`]),
//!   which removes not-yet-claimed pipeline stages from the queue, revokes
//!   parked environment jobs, and settles the ticket as
//!   [`JobError::Cancelled`] without caching anything.
//! * **Crash-only fault layer** — stage panics are caught at the job boundary,
//!   recorded in a bounded fault log ([`Service::faults`]), and counted as
//!   quarantine strikes: content that panicked the analyzer
//!   [`ServiceOptions::quarantine_threshold`] times is rejected at admission
//!   with [`ServiceError::Quarantined`]. Per-job deadlines
//!   ([`ServiceOptions::pending_deadline`] / [`ServiceOptions::running_deadline`],
//!   or [`DEADLINE_ENV`]) auto-cancel stuck jobs as [`JobError::TimedOut`],
//!   aborting a *running* stage at its next poll point instead of letting it
//!   finish; [`Service::drain`] closes admission and settles every outstanding
//!   ticket exactly once for graceful shutdown.
//! * **Crash-safe persistent result store** — with
//!   [`ServiceOptions::store_dir`] (or [`STORE_DIR_ENV`]) set, finished
//!   results are durably written through to a content-addressed on-disk tier
//!   ([`store`]): every write is temp-file + fsync + atomic rename, every
//!   entry carries a length + checksum footer, and a restarted service —
//!   killed cleanly or not — restores prior results byte-identically instead
//!   of recomputing them. Torn, truncated, or bit-flipped entries are
//!   detected, quarantined, and transparently recomputed; repeated I/O errors
//!   trip a breaker that degrades the service to memory-only and probes to
//!   re-enable. All store I/O runs behind the injectable [`fs::FileSystem`]
//!   trait, whose [`fs::FaultFs`] implementation injects failures, torn
//!   writes, corruption, and ENOSPC for the fault tests and CI chaos legs.
//!
//! Determinism is inherited, not re-proven: each job's analysis is the same pure
//! function the batch path runs, so pooled + streamed + cached results are
//! byte-identical to `Soteria::analyze_app` / `analyze_environment` at every
//! worker count and under any interleaving of cancellations
//! (`tests/parallel_determinism.rs` and `tests/service_cache.rs` gate this).
//!
//! [`AnalysisConfig::fingerprint`]: soteria_analysis::AnalysisConfig::fingerprint
//!
//! # Example
//!
//! ```
//! use soteria_service::{Service, CacheDisposition};
//!
//! let source = r#"
//!     definition(name: "Water-Leak-Detector")
//!     preferences { section("d") {
//!         input "water_sensor", "capability.waterSensor"
//!         input "valve_device", "capability.valve"
//!     } }
//!     def installed() { subscribe(water_sensor, "water.wet", h) }
//!     def h(evt) { valve_device.close() }
//! "#;
//!
//! let service = Service::with_defaults();
//! let cold = service.submit_app("wld", source).expect("admitted");
//! let analysis = cold.wait().expect("parses");
//! assert!(analysis.violations.is_empty());
//!
//! // Identical content: a cache hit returning the same frozen analysis.
//! let warm = service.submit_app("wld", source).expect("hits are always admitted");
//! assert_eq!(warm.disposition(), CacheDisposition::Hit);
//! assert!(std::sync::Arc::ptr_eq(&analysis, &warm.wait().unwrap()));
//! ```

pub mod cache;
pub mod fs;
pub mod protocol;
mod service;
pub mod store;
mod ticket;

pub use cache::{app_cache_key, env_cache_key, source_fingerprint, CacheKey, CacheStats};
pub use fs::{FaultAction, FaultFs, FileSystem, RealFs};
pub use service::{
    AdmissionPolicy, AppJob, AppKind, AppResult, CacheDisposition, CancelOnDrop, DrainReport,
    EnvJob, EnvKind, EnvResult, FaultKind, FaultRecord, Job, JobError, JobHandle, JobKind,
    JobOutcome, Service, ServiceError, ServiceOptions, ServiceStats, ADMISSION_ENV,
    DEADLINE_ENV, FAULT_LOG_ENV, MAX_PENDING_ENV, STORE_DIR_ENV, STORE_FAULTS_ENV,
};
pub use store::{
    frame_entry, parse_entry, EntryError, PersistentStore, StoreBucket, StoreStats,
    StoreTuning,
};
pub use ticket::Ticket;

#[cfg(test)]
mod tests {
    use super::*;
    use soteria::Soteria;
    use soteria_analysis::AnalysisConfig;

    const WATER_LEAK: &str = r#"
        definition(name: "Water-Leak-Detector", category: "Safety & Security")
        preferences {
            section("When there's water detected...") {
                input "water_sensor", "capability.waterSensor", title: "Where?"
                input "valve_device", "capability.valve", title: "Valve device"
            }
        }
        def installed() {
            subscribe(water_sensor, "water.wet", waterWetHandler)
        }
        def waterWetHandler(evt) {
            valve_device.close()
        }
    "#;

    const SMOKE_ON: &str = r#"
        definition(name: "Smoke-Light-On")
        preferences { section("d") {
            input "sw", "capability.switch"
            input "smoke", "capability.smokeDetector"
        } }
        def installed() { subscribe(smoke, "smoke.detected", h) }
        def h(evt) { sw.on() }
    "#;

    const SMOKE_OFF: &str = r#"
        definition(name: "Smoke-Light-Off")
        preferences { section("d") {
            input "sw", "capability.switch"
            input "smoke", "capability.smokeDetector"
        } }
        def installed() { subscribe(smoke, "smoke.detected", h) }
        def h(evt) { sw.off() }
    "#;

    fn service_with_workers(workers: usize) -> Service {
        Service::new(
            Soteria::with_config(AnalysisConfig { threads: 1, ..AnalysisConfig::paper() }),
            ServiceOptions { workers, ..ServiceOptions::default() },
        )
    }

    /// Runs one submission attempt repeatedly until it stops bouncing off the
    /// queue bound: CI also runs this suite under `SOTERIA_MAX_PENDING=2` +
    /// `SOTERIA_ADMISSION=reject`, where any scheduling submission may meet
    /// QueueFull. Backs off 1ms per retry instead of hot-looping the admission
    /// mutexes the busy workers hold.
    fn admitted<T>(
        mut attempt: impl FnMut() -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        loop {
            match attempt() {
                Err(ServiceError::QueueFull { .. }) => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                other => return other,
            }
        }
    }

    fn submit(service: &Service, name: &str, source: &str) -> AppJob {
        admitted(|| service.submit_app(name, source)).unwrap_or_else(|e| panic!("{e}"))
    }

    fn submit_env(service: &Service, group: &str, members: &[AppJob]) -> EnvJob {
        admitted(|| service.submit_environment(group, members))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Service::submit_environment_by_names`] through the same retry
    /// (member-resolution errors still surface).
    fn submit_env_names(
        service: &Service,
        group: &str,
        members: &[&str],
    ) -> Result<EnvJob, ServiceError> {
        admitted(|| service.submit_environment_by_names(group, members))
    }

    #[test]
    fn app_jobs_match_the_direct_api() {
        let service = service_with_workers(2);
        let direct = service.soteria().analyze_app("wld", WATER_LEAK).unwrap();
        let job = submit(&service, "wld", WATER_LEAK);
        let served = job.wait().expect("parses");
        assert_eq!(job.disposition(), CacheDisposition::Miss);
        assert_eq!(served.violations, direct.violations);
        // The one legitimately run-dependent report line is the measured
        // wall-clock; everything else must match the direct API byte for byte.
        let stable = |report: String| -> String {
            report.lines().filter(|l| !l.starts_with("extraction:")).collect()
        };
        assert_eq!(
            stable(soteria::render_report(&served)),
            stable(soteria::render_report(&direct))
        );
    }

    #[test]
    fn parse_errors_surface_through_tickets() {
        let service = service_with_workers(1);
        let job = submit(&service, "bad", "definition(");
        match job.wait() {
            Err(JobError::Parse(_)) => {}
            other => panic!("expected a parse error, got ok={:?}", other.is_ok()),
        }
        // And the failure is frozen too: resubmission hits the cache.
        let again = submit(&service, "bad", "definition(");
        assert_eq!(again.disposition(), CacheDisposition::Hit);
        assert!(again.wait().is_err());
    }

    #[test]
    fn environments_wait_for_members_and_match_the_direct_api() {
        let service = service_with_workers(2);
        let a = submit(&service, "a", SMOKE_ON);
        let b = submit(&service, "b", SMOKE_OFF);
        // Submitted before the members are done: the job parks on its deps.
        let env = submit_env(&service, "G", &[a.clone(), b.clone()]);
        let served = env.wait().expect("members parse");

        let soteria = service.soteria();
        let direct_a = soteria.analyze_app("a", SMOKE_ON).unwrap();
        let direct_b = soteria.analyze_app("b", SMOKE_OFF).unwrap();
        let direct = soteria.analyze_environment("G", &[direct_a, direct_b]);
        assert_eq!(served.violations, direct.violations);
        assert_eq!(
            soteria::render_environment_report(&served),
            soteria::render_environment_report(&direct)
        );
    }

    #[test]
    fn environment_by_names_rejects_unknown_members() {
        let service = service_with_workers(1);
        submit(&service, "known", WATER_LEAK);
        assert!(submit_env_names(&service, "G", &["known"]).is_ok());
        let err = submit_env_names(&service, "G", &["known", "ghost"]);
        assert!(err.is_err(), "unknown member accepted");
    }

    #[test]
    fn frozen_members_resolve_through_the_cache_not_the_registry() {
        let service = service_with_workers(1);
        let app = submit(&service, "a", WATER_LEAK);
        app.wait().expect("parses"); // completion downgrades the registry entry
        // The member ticket is rebuilt from the cache; the environment runs.
        let env = submit_env_names(&service, "G", &["a"]).unwrap();
        assert!(env.wait().is_ok());
        // If the frozen result is evicted, the name goes with it: the registry
        // drops bare-key entries alongside their cache entries, so the member
        // is simply unknown again (no dangling name promising a result). The
        // store is pinned off — with a disk tier the eviction would demote
        // instead (tests/persistent_store.rs covers that side).
        let tiny = Service::new(
            Soteria::with_config(AnalysisConfig { threads: 1, ..AnalysisConfig::paper() }),
            ServiceOptions {
                workers: 1,
                cache_capacity: 1,
                store_dir: None,
                ..ServiceOptions::default()
            },
        );
        submit(&tiny, "a", WATER_LEAK).wait().expect("parses");
        submit(&tiny, "b", SMOKE_ON).wait().expect("parses"); // evicts a (and its name)
        match submit_env_names(&tiny, "G", &["a"]) {
            Err(ServiceError::UnknownMember(member)) => assert_eq!(member, "a"),
            Err(other) => panic!("expected UnknownMember, got {other}"),
            Ok(_) => panic!("evicted member accepted"),
        }
    }

    #[test]
    fn resubmit_skips_a_group_with_an_unresolvable_member() {
        // Memory-only with one cache slot: an evicted frozen member takes its
        // name with it, so it is unresolvable everywhere.
        let tiny = Service::new(
            Soteria::with_config(AnalysisConfig { threads: 1, ..AnalysisConfig::paper() }),
            ServiceOptions {
                workers: 1,
                cache_capacity: 1,
                max_pending: 0,
                pending_deadline: None,
                running_deadline: None,
                store_dir: None,
                ..ServiceOptions::default()
            },
        );
        // Valve members, so G has properties to check and retains a base.
        let opens = WATER_LEAK.replace("valve_device.close()", "valve_device.open()");
        let a = submit(&tiny, "a", WATER_LEAK);
        let b = submit(&tiny, "b", &opens);
        submit_env(&tiny, "G", &[a, b]).wait().expect("members parse");
        submit(&tiny, "c", SMOKE_ON).wait().expect("parses"); // evicts b (and its name)

        // The update itself succeeds; the stale group is skipped, not failed.
        let edited = format!("{WATER_LEAK}\n");
        let (app, envs) = tiny.resubmit("a", &edited).expect("update never fails on G's behalf");
        assert!(envs.is_empty(), "group over an unresolvable member was resubmitted");
        app.wait().expect("edited app completes");
        // The fail-fast path still reports the same member as unknown.
        match tiny.submit_environment_by_names("G", &["a", "b"]) {
            Err(ServiceError::UnknownMember(member)) => assert_eq!(member, "b"),
            Err(other) => panic!("expected UnknownMember, got {other}"),
            Ok(_) => panic!("evicted member accepted"),
        }
    }

    #[test]
    fn resubmit_reverifies_resident_groups_incrementally() {
        // Same definition name and devices as BROKEN_LEAK (so only this
        // member's transitions change, not the attribute domains), with the
        // handler fixed: the edit closes the valve instead of opening it.
        const BROKEN_LEAK: &str = r#"
            definition(name: "Broken-Leak-Detector", category: "Safety & Security")
            preferences { section("d") {
                input "water_sensor", "capability.waterSensor"
                input "valve_device", "capability.valve"
            } }
            def installed() { subscribe(water_sensor, "water.wet", h) }
            def h(evt) { valve_device.open() }
        "#;
        const FIXED_LEAK: &str = r#"
            definition(name: "Broken-Leak-Detector", category: "Safety & Security")
            preferences { section("d") {
                input "water_sensor", "capability.waterSensor"
                input "valve_device", "capability.valve"
            } }
            def installed() { subscribe(water_sensor, "water.wet", h) }
            def h(evt) { valve_device.close() }
        "#;
        let service = service_with_workers(2);
        let a = submit(&service, "a", WATER_LEAK);
        let b = submit(&service, "b", BROKEN_LEAK);
        let cold_env = submit_env(&service, "G", &[a, b]);
        let cold = cold_env.wait().expect("members parse");

        let (app, envs) = admitted(|| service.resubmit("b", FIXED_LEAK))
            .unwrap_or_else(|e| panic!("{e}"));
        app.wait().expect("edited source parses");
        assert_eq!(envs.len(), 1, "one resident group contains b");
        assert_eq!(envs[0].name(), "G");
        let warm = envs[0].wait().expect("members parse");

        // Byte-identical to analyzing the edited group from scratch — and the
        // edit is actually visible (the cold run's verdicts differ).
        let soteria = service.soteria();
        let direct_a = soteria.analyze_app("a", WATER_LEAK).unwrap();
        let direct_b = soteria.analyze_app("b", FIXED_LEAK).unwrap();
        let direct = soteria.analyze_environment("G", &[direct_a, direct_b]);
        assert_eq!(warm.violations, direct.violations);
        assert_eq!(
            soteria::render_environment_report(&warm),
            soteria::render_environment_report(&direct)
        );
        assert_ne!(
            soteria::render_environment_report(&warm),
            soteria::render_environment_report(&cold),
            "edit changed nothing the report can see"
        );

        // Resubmitting an app no resident group contains touches no environments.
        let (_, none) = admitted(|| service.resubmit("lone", WATER_LEAK))
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(none.is_empty());
    }

    #[test]
    fn resubmit_reverifies_groups_without_checkable_app_specific_formulas() {
        // G's only finding is the general G.1 conflict (one app turns the
        // switch on, the other off); no P.1–P.30 formula applies to it.
        let service = service_with_workers(2);
        let a = submit(&service, "a", SMOKE_ON);
        let b = submit(&service, "b", SMOKE_OFF);
        let cold = submit_env(&service, "G", &[a, b]).wait().expect("members parse");
        let g1 = soteria::properties::PropertyId::General(1);
        let properties: Vec<_> = cold.violations.iter().map(|v| v.property).collect();
        assert_eq!(properties, [g1]);

        // Edit b to turn the switch on as well: the conflict is gone (the two
        // apps now repeat one action instead, a G.2 finding).
        let agreeing = SMOKE_OFF.replace("sw.off()", "sw.on()");
        let (app, envs) = admitted(|| service.resubmit("b", &agreeing))
            .unwrap_or_else(|e| panic!("{e}"));
        app.wait().expect("edited source parses");
        assert_eq!(envs.len(), 1, "the group containing b was not re-verified");
        assert_eq!(envs[0].name(), "G");
        let warm = envs[0].wait().expect("members parse");
        assert!(
            warm.violations.iter().all(|v| v.property != g1),
            "G.1 survived the edit: {:?}",
            warm.violations
        );

        let soteria = service.soteria();
        let direct_a = soteria.analyze_app("a", SMOKE_ON).unwrap();
        let direct_b = soteria.analyze_app("b", &agreeing).unwrap();
        let direct = soteria.analyze_environment("G", &[direct_a, direct_b]);
        assert_eq!(warm.violations, direct.violations);
        assert_eq!(
            soteria::render_environment_report(&warm),
            soteria::render_environment_report(&direct)
        );
    }

    #[test]
    fn forget_finished_drops_only_completed_jobs_from_the_log() {
        let service = service_with_workers(1);
        submit(&service, "w", WATER_LEAK).wait().expect("parses");
        submit(&service, "on", SMOKE_ON); // may still be in flight
        let dropped = service.forget_finished();
        assert!(dropped >= 1, "finished job kept in the log");
        // Whatever remains in the log is still collectable, in order.
        let drained = service.collect();
        assert!(drained.len() <= 1);
        assert_eq!(service.stats().submitted, 2);
    }

    #[test]
    fn environment_over_a_failed_member_reports_member_failed() {
        let service = service_with_workers(1);
        let bad = submit(&service, "bad", "definition(");
        let env = submit_env(&service, "G", &[bad]);
        match env.wait() {
            Err(JobError::MemberFailed { group, member }) => {
                assert_eq!((group.as_str(), member.as_str()), ("G", "bad"));
            }
            other => panic!("expected MemberFailed, got ok={:?}", other.is_ok()),
        }
    }

    #[test]
    fn drain_returns_outcomes_in_submission_order() {
        let service = service_with_workers(2);
        submit(&service, "w", WATER_LEAK);
        submit(&service, "on", SMOKE_ON);
        let on = submit(&service, "on", SMOKE_ON); // hit or coalesced
        submit_env_names(&service, "G", &["on"]).unwrap();
        let outcomes = service.collect();
        assert_eq!(outcomes.len(), 4);
        let names: Vec<&str> = outcomes
            .iter()
            .map(|o| match o {
                JobOutcome::App { name, .. } => name.as_str(),
                JobOutcome::Environment { name, .. } => name.as_str(),
            })
            .collect();
        assert_eq!(names, vec!["w", "on", "on", "G"]);
        assert_ne!(on.disposition(), CacheDisposition::Miss, "identical resubmission recomputed");
        // Collected log resets; stats survive.
        assert_eq!(service.collect().len(), 0);
        let stats = service.stats();
        assert_eq!(stats.submitted, 4);
        assert!(stats.app_cache.hits + stats.coalesced >= 1);
    }

    #[test]
    fn identical_in_flight_submissions_coalesce_to_one_computation() {
        let service = service_with_workers(1);
        let first = submit(&service, "w", WATER_LEAK);
        // Race-free check: submitted twice back-to-back, the second either hits
        // the cache (first already finished) or coalesces — never a second miss.
        let second = submit(&service, "w", WATER_LEAK);
        assert_ne!(second.disposition(), CacheDisposition::Miss);
        let a = first.wait().expect("first job fails");
        let b = second.wait().expect("second job fails");
        assert!(std::sync::Arc::ptr_eq(&a, &b), "coalesced job recomputed");
        // Environments coalesce the same way: identical group over identical
        // member content, submitted back-to-back, computes the union once.
        let env_first = submit_env_names(&service, "G", &["w"]).unwrap();
        let env_second = submit_env_names(&service, "G", &["w"]).unwrap();
        assert_ne!(env_second.disposition(), CacheDisposition::Miss);
        assert!(
            std::sync::Arc::ptr_eq(
                &env_first.wait().expect("first env fails"),
                &env_second.wait().expect("second env fails")
            ),
            "coalesced environment recomputed"
        );
    }

    #[test]
    fn failed_jobs_surface_as_errors_and_never_wedge_the_drain() {
        // No safe corpus input makes the analyzer panic, so the catch_unwind →
        // JobError::Internal funnel in schedule_app/schedule_environment is
        // covered structurally; this gate proves the failure surface itself:
        // errors flow through tickets, collect() completes, later jobs still run.
        assert_eq!(
            JobError::Internal("boom at model build".to_string()).to_string(),
            "analysis failed: boom at model build"
        );
        let service = service_with_workers(1);
        submit(&service, "bad", "definition(");
        submit(&service, "w", WATER_LEAK);
        let outcomes = service.collect();
        assert_eq!(outcomes.len(), 2);
        assert!(matches!(
            &outcomes[0],
            JobOutcome::App { result: Err(JobError::Parse(_)), .. }
        ));
        assert!(matches!(&outcomes[1], JobOutcome::App { result: Ok(_), .. }));
    }
}
