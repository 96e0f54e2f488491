//! Determinism gate for the parallel analysis subsystem: the full MalIoT and
//! market sweeps — batch app analysis, batch environment analysis, and the
//! rendered reports — must be identical whether the analyzer runs sequentially
//! or fans out across worker threads.
//!
//! Every parallel site (`Soteria::analyze_apps` and
//! `Soteria::analyze_environments`) must reproduce the sequential output byte
//! for byte — same `Violation` lists in the same
//! order, same union transitions, same report text (timing lines excluded,
//! since wall-clock is measured rather than computed). The MalIoT sweep is
//! compared at 2, 4 and 8 threads, the market sweep at 4.
//!
//! PR 4 extends the gate to the service layer: the job queue's pooled +
//! streamed (two-stage pipelined) results must be byte-identical to the PR 3
//! scoped path at 1/2/4/8 pool workers.

use soteria::render_environment_report;
use soteria_bench::{
    corpus_sweep, maliot_group_specs, market_group_specs, service_corpus_sweep,
    service_sweep_outcome, soteria_with_threads, stable_app_report, submit_app_admitted,
    sweep_outcome,
};
use soteria_corpus::{all_market_apps, maliot_suite, CorpusApp};
use soteria_exec::{pool_map, scoped_map};
use soteria_service::{JobError, Service, ServiceError, ServiceOptions};
use std::time::{Duration, Instant};

fn assert_sweeps_identical(
    name: &str,
    apps: &[CorpusApp],
    groups: &[(String, Vec<String>)],
    thread_counts: &[usize],
) {
    let (seq_apps, seq_envs) = corpus_sweep(&soteria_with_threads(1), apps, groups);
    for &threads in thread_counts {
        let (par_apps, par_envs) = corpus_sweep(&soteria_with_threads(threads), apps, groups);
        let name = format!("{name}@{threads}T");

        assert_eq!(seq_apps.len(), par_apps.len());
        for (s, p) in seq_apps.iter().zip(&par_apps) {
            assert_eq!(s.violations, p.violations, "{name}/{}: violation lists differ", s.ir.name);
            assert_eq!(
                stable_app_report(s),
                stable_app_report(p),
                "{name}/{}: report output differs",
                s.ir.name
            );
        }
        assert_eq!(seq_envs.len(), par_envs.len());
        for (s, p) in seq_envs.iter().zip(&par_envs) {
            assert_eq!(s.violations, p.violations, "{name}/{}: group violations differ", s.name);
            assert_eq!(
                s.union_model.transitions, p.union_model.transitions,
                "{name}/{}: union transitions differ",
                s.name
            );
            assert_eq!(
                render_environment_report(s),
                render_environment_report(p),
                "{name}/{}: environment report differs",
                s.name
            );
        }
    }
}

/// The service's pooled + streamed (two-stage pipelined) results must be
/// byte-identical to the PR 3 scoped path at every worker count.
#[test]
fn service_results_match_the_scoped_path_at_every_worker_count() {
    let apps = maliot_suite();
    let groups = maliot_group_specs();

    // The PR 3 reference: scoped-thread batch sweep (per-call spawns).
    let soteria = soteria_with_threads(1);
    let pairs: Vec<(&str, &str)> =
        apps.iter().map(|a| (a.id.as_str(), a.source.as_str())).collect();
    let scoped_apps: Vec<soteria::AppAnalysis> = scoped_map(&pairs, 1, |(name, source)| {
        soteria.analyze_app(name, source).unwrap_or_else(|e| panic!("{name}: {e}"))
    });
    let scoped_envs: Vec<soteria::EnvironmentAnalysis> = groups
        .iter()
        .map(|(name, members)| {
            let set: Vec<soteria::AppAnalysis> = members
                .iter()
                .map(|id| {
                    let idx = apps.iter().position(|a| &a.id == id).expect("member in corpus");
                    scoped_apps[idx].clone()
                })
                .collect();
            soteria.analyze_environment(name, &set)
        })
        .collect();
    let reference = sweep_outcome(&scoped_apps, &scoped_envs);

    for workers in [1usize, 2, 4, 8] {
        let service = Service::new(
            soteria_with_threads(1), // per-job thread resolution stays sequential
            ServiceOptions { workers, ..ServiceOptions::default() },
        );
        let served = service_sweep_outcome(&service_corpus_sweep(&service, &apps, &groups));
        assert_eq!(
            served.app_violations, reference.app_violations,
            "{workers} workers: app violations diverge from the scoped path"
        );
        assert_eq!(
            served.app_reports, reference.app_reports,
            "{workers} workers: app reports diverge from the scoped path"
        );
        assert_eq!(
            served.env_violations, reference.env_violations,
            "{workers} workers: environment violations diverge from the scoped path"
        );
        assert_eq!(
            served.env_reports, reference.env_reports,
            "{workers} workers: environment reports diverge from the scoped path"
        );
    }
}

/// ISSUE 5 gate: cancel half the MalIoT submissions at every worker count.
/// Jobs that survive (including those whose cancel arrived too late) must
/// produce reports byte-identical to the sequential path; cancelled jobs settle
/// as `Cancelled` without poisoning anything — the service immediately recomputes
/// the full, byte-identical suite on resubmission.
#[test]
fn cancellation_interleaving_preserves_surviving_reports() {
    let apps = maliot_suite();
    let soteria = soteria_with_threads(1);
    let reference: Vec<String> = apps
        .iter()
        .map(|a| {
            stable_app_report(
                &soteria.analyze_app(&a.id, &a.source).unwrap_or_else(|e| panic!("{}: {e}", a.id)),
            )
        })
        .collect();

    for workers in [1usize, 2, 4, 8] {
        let service = Service::new(
            soteria_with_threads(1),
            ServiceOptions { workers, ..ServiceOptions::default() },
        );
        // Submit everything, cancelling every other job right behind its
        // submission — the interleaving of cancellations against worker claims
        // is deliberately racy; the *outcomes* must not be.
        let jobs: Vec<_> = apps
            .iter()
            .enumerate()
            .map(|(i, app)| {
                let job = submit_app_admitted(&service, &app.id, &app.source);
                if i % 2 == 1 {
                    job.cancel();
                }
                (i, job)
            })
            .collect();
        for (i, job) in &jobs {
            match job.wait() {
                // Survivors — even-index jobs and odd ones whose cancel came
                // too late — are byte-identical to the sequential path.
                Ok(analysis) => assert_eq!(
                    stable_app_report(&analysis),
                    reference[*i],
                    "{workers} workers: surviving report for {} diverges",
                    apps[*i].id
                ),
                Err(JobError::Cancelled) => {
                    assert!(i % 2 == 1, "{workers} workers: uncancelled job settled Cancelled");
                }
                Err(e) => panic!("{workers} workers: {} failed: {e}", apps[*i].id),
            }
        }
        assert_eq!(service.pending_jobs(), 0, "{workers} workers: pending slots leaked");

        // Nothing cancelled was cached and nothing shared was poisoned: a full
        // resubmission completes and matches the reference byte for byte.
        let resubmitted: Vec<_> = apps
            .iter()
            .map(|app| submit_app_admitted(&service, &app.id, &app.source))
            .collect();
        for ((job, expected), app) in resubmitted.iter().zip(&reference).zip(&apps) {
            let analysis = job
                .wait()
                .unwrap_or_else(|e| panic!("{workers} workers: resubmitted {} failed: {e}", app.id));
            assert_eq!(
                &stable_app_report(&analysis),
                expected,
                "{workers} workers: resubmitted report for {} diverges",
                app.id
            );
        }
    }
}

/// ISSUE 6 gate: drain a service mid-burst, with cancellations racing the
/// worker claims, at every worker count. Every survivor the drain settles must
/// be byte-identical to the sequential path — force-settling and admission
/// closure must not perturb the analyses that do complete.
#[test]
fn drain_interleaving_preserves_surviving_reports() {
    let apps = maliot_suite();
    let soteria = soteria_with_threads(1);
    let reference: Vec<String> = apps
        .iter()
        .map(|a| {
            stable_app_report(
                &soteria.analyze_app(&a.id, &a.source).unwrap_or_else(|e| panic!("{}: {e}", a.id)),
            )
        })
        .collect();

    for workers in [1usize, 2, 4, 8] {
        let service = Service::new(
            soteria_with_threads(1),
            ServiceOptions {
                workers,
                // Pinned off so the CI deadline knob cannot turn survivors into
                // timeouts — this gate is about drain + cancel interleaving.
                pending_deadline: None,
                running_deadline: None,
                ..ServiceOptions::default()
            },
        );
        let jobs: Vec<_> = apps
            .iter()
            .enumerate()
            .map(|(i, app)| {
                let job = submit_app_admitted(&service, &app.id, &app.source);
                if i % 3 == 2 {
                    job.cancel();
                }
                (i, job)
            })
            .collect();
        // Drain races the busy pool: admission closes, every ticket settles
        // exactly once, and the report partitions the outcomes.
        let report = service.drain(Some(Duration::from_secs(300)));
        assert_eq!(report.outcomes.len(), jobs.len(), "{workers} workers: tickets lost in drain");
        assert_eq!(
            report.completed + report.failed + report.cancelled + report.timed_out,
            jobs.len(),
            "{workers} workers: drain counters do not partition the outcomes"
        );
        assert_eq!(report.timed_out, 0, "{workers} workers: generous drain deadline timed out");
        assert_eq!(report.failed, 0, "{workers} workers: a MalIoT analysis failed");

        for (i, job) in &jobs {
            match job.wait() {
                Ok(analysis) => assert_eq!(
                    stable_app_report(&analysis),
                    reference[*i],
                    "{workers} workers: surviving report for {} diverges after drain",
                    apps[*i].id
                ),
                Err(JobError::Cancelled) => {
                    assert!(i % 3 == 2, "{workers} workers: uncancelled job settled Cancelled");
                }
                Err(e) => panic!("{workers} workers: {} failed: {e}", apps[*i].id),
            }
        }
        assert!(
            matches!(service.submit_app("late", &apps[0].source), Err(ServiceError::Draining)),
            "{workers} workers: drained service admitted new work"
        );
        assert_eq!(service.pending_jobs(), 0, "{workers} workers: pending slots leaked");
    }
}

/// ISSUE 6 gate: abort a job *inside* its verify stage (the heavy corpus
/// analysis gives a wide window), then resubmit the same bytes on the same
/// service. The in-stage abort must leave no trace: the resubmission is a cache
/// miss that reproduces the never-aborted sequential report byte for byte.
#[test]
fn aborted_then_resubmitted_job_is_byte_identical() {
    let (name, source) =
        soteria_corpus::find_app("ThermostatEnergyControl").expect("corpus app");
    let soteria = soteria_with_threads(1);
    let reference = stable_app_report(
        &soteria.analyze_app(&name, &source).unwrap_or_else(|e| panic!("{name}: {e}")),
    );

    let service = Service::new(
        soteria_with_threads(1),
        ServiceOptions {
            workers: 1,
            pending_deadline: None,
            running_deadline: None,
            ..ServiceOptions::default()
        },
    );
    let job = submit_app_admitted(&service, &name, &source);
    // Wait for the single worker to claim the job, then cancel: the abort latch
    // interrupts the engine at its next poll point, mid-stage. (The heavy
    // analysis runs orders of magnitude longer than this polling loop, so the
    // cancel lands while the stage is executing.)
    let start = Instant::now();
    while service.pending_jobs() > 0 {
        assert!(start.elapsed() < Duration::from_secs(60), "worker never claimed the job");
        std::thread::yield_now();
    }
    assert!(job.cancel(), "running job not cancellable");
    assert!(matches!(job.wait(), Err(JobError::Cancelled)));

    // Nothing was cached and no engine state was poisoned: the same bytes
    // reanalyze from scratch and match the sequential reference exactly.
    let again = submit_app_admitted(&service, &name, &source);
    assert_eq!(
        again.disposition(),
        soteria_service::CacheDisposition::Miss,
        "aborted result leaked into the cache"
    );
    let analysis = again.wait().unwrap_or_else(|e| panic!("resubmitted {name} failed: {e}"));
    assert_eq!(
        stable_app_report(&analysis),
        reference,
        "aborted-then-resubmitted report diverges from the never-aborted run"
    );
}

#[test]
fn maliot_sweep_is_identical_sequentially_and_at_two_four_and_eight_threads() {
    assert_sweeps_identical("maliot", &maliot_suite(), &maliot_group_specs(), &[2, 4, 8]);
}

#[test]
fn market_sweep_is_identical_sequentially_and_at_four_threads() {
    assert_sweeps_identical("market", &all_market_apps(), &market_group_specs(), &[4]);
}

/// `pool_map` panics surface with their original payload even when raised from a
/// worker of the shared pool in the middle of a corpus-shaped fan-out.
#[test]
fn pool_map_propagates_worker_panics_with_payload() {
    let items: Vec<usize> = (0..64).collect();
    let caught = std::panic::catch_unwind(|| {
        pool_map(&items, 4, |&i| {
            if i == 33 {
                panic!("app {i} exploded");
            }
            i
        })
    })
    .expect_err("worker panic must propagate");
    let message = caught
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(message.contains("app 33 exploded"), "payload lost: {message:?}");
}
