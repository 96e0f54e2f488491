//! Observability gates (PR 9): tracing must be *free of consequence* — traced
//! and untraced runs byte-identical on the full corpus sweeps — and the spans
//! it collects must be well-formed even when jobs are cancelled, timed out, or
//! drained mid-flight.
//!
//! The span/metrics collector is process-global (`soteria_obs::set_enabled`,
//! one collector, one registry), so every test here serialises on a file-local
//! lock and restores the disabled state before releasing it. Other integration
//! test files run as separate processes and are unaffected.

use soteria_bench::{
    maliot_group_specs, market_group_specs, service_corpus_sweep, service_sweep_outcome,
    SweepOutcome,
};
use soteria_corpus::{all_market_apps, maliot_suite, CorpusApp};
use soteria_obs::SpanRecord;
use soteria_service::{FaultKind, JobError, Service, ServiceOptions};
use std::collections::HashMap;
use soteria_sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Every test toggles the process-global collector; serialise them.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
}

/// Restores the global collector to its disabled, empty state on drop, so a
/// failing assertion cannot leak tracing into the next test in the queue.
struct ObsScope;

impl ObsScope {
    fn disabled() -> ObsScope {
        soteria_obs::set_enabled(false);
        soteria_obs::reset();
        ObsScope
    }

    fn enabled() -> ObsScope {
        let scope = ObsScope::disabled();
        soteria_obs::set_enabled(true);
        scope
    }
}

impl Drop for ObsScope {
    fn drop(&mut self) {
        soteria_obs::set_enabled(false);
        soteria_obs::clear_fake_clock();
        soteria_obs::reset();
    }
}

fn service_with_workers(workers: usize) -> Service {
    Service::new(
        soteria::Soteria::new(),
        ServiceOptions {
            workers,
            // The identity comparison needs pure in-memory runs even when the
            // surrounding environment configures a persistent store.
            store_dir: None,
            ..ServiceOptions::default()
        },
    )
}

fn sweep(workers: usize, apps: &[CorpusApp], groups: &[(String, Vec<String>)]) -> SweepOutcome {
    let service = service_with_workers(workers);
    let outcome = service_sweep_outcome(&service_corpus_sweep(&service, apps, groups));
    // Wait out the worker epilogues before the caller flips the global
    // collector state: a worker mid-span-close must not observe the change.
    service.quiesce();
    outcome
}

/// The tentpole invariant: enabling the collector changes *when things are
/// measured*, never *what is computed*. Full MalIoT + market sweeps, 1 and 4
/// workers, must produce byte-identical reports traced and untraced.
#[test]
fn traced_sweeps_are_byte_identical_to_untraced() {
    let _lock = obs_lock();
    let maliot = maliot_suite();
    let market = all_market_apps();
    type Suite<'a> = (&'a str, &'a [CorpusApp], Vec<(String, Vec<String>)>);
    let suites: [Suite; 2] = [
        ("maliot", &maliot, maliot_group_specs()),
        ("market", &market, market_group_specs()),
    ];
    for (name, apps, groups) in &suites {
        for workers in [1, 4] {
            let untraced = {
                let _scope = ObsScope::disabled();
                sweep(workers, apps, groups)
            };
            let traced = {
                let _scope = ObsScope::enabled();
                sweep(workers, apps, groups)
            };
            assert!(
                untraced == traced,
                "{name} sweep at {workers} workers: tracing changed the output"
            );
        }
    }
}

/// Structural invariants over a drained span set. `spans` must be non-trivial
/// (a gate that silently checks nothing is worse than no gate).
fn assert_well_formed(context: &str, spans: &[SpanRecord]) {
    assert!(!spans.is_empty(), "{context}: no spans were collected");
    let mut by_id: HashMap<u64, &SpanRecord> = HashMap::with_capacity(spans.len());
    for span in spans {
        // Open spans never flush (dur_ns holds a sentinel until the guard
        // drops), so a drained span claiming to still be open is corruption.
        assert_ne!(span.dur_ns, u64::MAX, "{context}: unclosed span {span:?}");
        assert_ne!(span.id, 0, "{context}: span id 0 is reserved for 'no parent'");
        assert!(
            by_id.insert(span.id, span).is_none(),
            "{context}: duplicate span id {}",
            span.id
        );
    }
    for span in spans {
        if span.parent == 0 {
            continue;
        }
        let parent = by_id
            .get(&span.parent)
            .unwrap_or_else(|| panic!("{context}: span {span:?} has a missing parent"));
        assert_eq!(parent.thread, span.thread, "{context}: parent on another thread: {span:?}");
        assert_eq!(parent.trace, span.trace, "{context}: parent in another trace: {span:?}");
        assert!(
            parent.start_ns <= span.start_ns && span.end_ns() <= parent.end_ns(),
            "{context}: child [{}, {}] escapes parent [{}, {}]: {span:?}",
            span.start_ns,
            span.end_ns(),
            parent.start_ns,
            parent.end_ns()
        );
    }
    // Stage spans belong to exactly one job each: a trace accumulating two
    // ingest (or verify) stages means a worker leaked its installed trace
    // into the next job.
    let mut stages_per_trace: HashMap<(u64, &str), usize> = HashMap::new();
    for span in spans {
        if let stage @ ("stage.ingest" | "stage.verify" | "stage.environment") = span.label {
            assert_ne!(span.trace, 0, "{context}: stage span outside any trace: {span:?}");
            *stages_per_trace.entry((span.trace, stage)).or_insert(0) += 1;
        }
    }
    for ((trace, stage), count) in &stages_per_trace {
        assert_eq!(
            *count, 1,
            "{context}: trace {trace} ran {stage} {count} times — cross-job span leakage"
        );
    }
}

/// A traced sweep's span forest is well-formed: every span closed, every
/// child inside its parent's interval on the same thread and trace, and every
/// pipeline stage owned by exactly one job trace.
#[test]
fn sweep_span_trees_are_well_formed() {
    let _lock = obs_lock();
    let _scope = ObsScope::enabled();
    let service = service_with_workers(4);
    let outcomes =
        service_corpus_sweep(&service, &maliot_suite(), &maliot_group_specs());
    assert!(!outcomes.is_empty());
    service.quiesce();
    let spans = soteria_obs::drain_spans();
    assert_well_formed("maliot sweep", &spans);
    // The sweep exercised the whole pipeline, so its core stages must appear.
    for label in ["pool.run", "stage.ingest", "stage.verify", "soteria.ingest", "ingest.parse"] {
        assert!(
            spans.iter().any(|s| s.label == label),
            "sweep produced no '{label}' span"
        );
    }
}

/// Spans survive the crash paths: a job aborted by its running deadline, a
/// cancelled queued job, and a final drain must leave only *closed*,
/// well-formed spans behind (stage aborts unwind through open span guards),
/// and the timeout's fault record must carry the owning job's trace id.
#[test]
fn cancellation_timeout_and_drain_leave_closed_well_formed_spans() {
    let _lock = obs_lock();
    let _scope = ObsScope::enabled();
    let service = Service::new(
        soteria::Soteria::new(),
        ServiceOptions {
            workers: 1,
            stall_marker: Some("stall-marker".into()),
            running_deadline: Some(Duration::from_millis(300)),
            store_dir: None,
            ..ServiceOptions::default()
        },
    );

    // The stalled job wedges the single worker until the sweeper aborts it.
    let wedged = service
        .submit_app("wedged", "definition(name: \"wedged\") /* stall-marker */")
        .expect("admitted");
    // Queued behind the wedged worker; cancelled before a worker touches it.
    let light = soteria_corpus::find_app("SmokeAlarm").expect("corpus app").1;
    let victim = service.submit_app("victim", &light).expect("admitted");
    assert!(victim.cancel(), "queued job not cancellable");
    assert!(matches!(victim.wait(), Err(JobError::Cancelled)));
    assert!(matches!(wedged.wait(), Err(JobError::TimedOut)), "stall did not time out");

    // A healthy job after the carnage, then shutdown.
    let after = service.submit_app("after", &light).expect("admitted");
    after.wait().expect("worker not freed after the abort");
    service.drain(None);
    service.quiesce();

    let faults = service.faults();
    let timeout = faults
        .iter()
        .find(|f| matches!(f.kind, FaultKind::Timeout))
        .expect("timeout fault recorded");
    assert_ne!(timeout.trace, 0, "fault record lost its owning trace id");

    let spans = soteria_obs::drain_spans();
    assert_well_formed("crash paths", &spans);
    assert!(
        spans.iter().any(|s| s.trace == timeout.trace),
        "the timed-out job's trace id matches none of its spans"
    );
    // The drain itself is a span, and the cancelled job contributed none of
    // the stage spans (its task was revoked before a worker claimed it).
    assert!(spans.iter().any(|s| s.label == "service.drain"), "drain span missing");
    let ingest_stages = spans.iter().filter(|s| s.label == "stage.ingest").count();
    assert_eq!(ingest_stages, 2, "expected ingest stages for wedged+after only");
}

/// An environment analysis takes one path, and traces show it. A cold `env`
/// job and every `update` record, in the group's trace (the one trace holding
/// a `union.build` span), one `union.build`, a `kripke.build` and exactly one
/// `check.batch`, whether or not the edit changed the member's model.
#[test]
fn env_then_update_traces_the_incremental_routing() {
    let _lock = obs_lock();
    let _scope = ObsScope::enabled();
    let service = service_with_workers(2);
    let members = ["SmokeAlarm", "WaterLeakDetector", "ThermostatEnergyControl"];
    for id in members {
        let source = soteria_corpus::find_app(id).expect("corpus app").1;
        service.submit_app(id, &source).expect("admitted").wait().expect("analyzes");
    }
    service.quiesce();
    soteria_obs::drain_spans();

    // The labels in the group's trace, checked for the one environment path.
    let group_trace = |context: &str| {
        service.quiesce();
        let spans = soteria_obs::drain_spans();
        assert_well_formed(context, &spans);
        let groups: Vec<u64> =
            spans.iter().filter(|s| s.label == "union.build").map(|s| s.trace).collect();
        assert_eq!(groups.len(), 1, "{context}: one union.build span");
        assert_ne!(groups[0], 0, "{context}: union.build outside any trace");
        let labels: Vec<&str> =
            spans.iter().filter(|s| s.trace == groups[0]).map(|s| s.label).collect();
        assert!(labels.contains(&"kripke.build"), "{context}: no kripke.build");
        let checks = labels.iter().filter(|&&l| l == "check.batch").count();
        assert_eq!(checks, 1, "{context}: one check.batch span");
    };
    service
        .submit_environment_by_names("RunningGroup", &members)
        .expect("admitted")
        .wait()
        .expect("group analyzes");
    group_trace("env");

    let update = |source: &str, context: &str| {
        let (app, envs) = service.resubmit("WaterLeakDetector", source).expect("resubmitted");
        app.wait().expect("edited member analyzes");
        assert_eq!(envs.len(), 1, "one resident group contains the member");
        envs[0].wait().expect("group re-verifies");
        group_trace(context);
    };
    let source = soteria_corpus::find_app("WaterLeakDetector").expect("corpus app").1;
    let edited = source.replace("valve_device.close()", "valve_device.open()");
    assert_ne!(edited, source, "the edit changes the member");
    update(&edited, "model-changing update");
    update(&format!("{edited}// edit nonce 1\n"), "nonce-only update");
}

/// With the fake clock, a histogram snapshot is an exact, reproducible value:
/// same durations recorded -> identical snapshot, with hand-computable
/// quantiles (bucket upper bounds, integer ranks).
#[test]
fn histogram_snapshots_are_deterministic_under_the_fake_clock() {
    let _lock = obs_lock();
    let _scope = ObsScope::enabled();
    soteria_obs::set_fake_clock(1_000);

    let record_round = || {
        // A span timed entirely by the fake clock: exactly 1000ns long.
        {
            let _span = soteria_obs::span("fake.stage");
            soteria_obs::advance_fake_clock(1_000);
        }
        for ns in [0, 10, 100, 1_000, 100_000] {
            soteria_obs::record_duration("fake.hist", ns);
        }
        soteria_obs::add("fake.counter", 7);
        soteria_obs::metrics_snapshot()
    };

    let first = record_round();
    let first_spans = soteria_obs::drain_spans();
    soteria_obs::reset();
    soteria_obs::set_fake_clock(1_000);
    let second = record_round();
    let second_spans = soteria_obs::drain_spans();

    assert_eq!(first, second, "same recorded values, different snapshots");
    // Span ids are process-global and monotonically assigned, so two rounds
    // differ there — but the measured interval must be bit-equal.
    assert_eq!(first_spans.len(), 1);
    assert_eq!(second_spans.len(), 1);
    assert_eq!(first_spans[0].dur_ns, 1_000);
    assert_eq!(second_spans[0].dur_ns, 1_000);
    assert_eq!(first_spans[0].start_ns, second_spans[0].start_ns);

    let hist = first
        .histograms
        .iter()
        .find(|h| h.name == "fake.hist")
        .expect("fake.hist snapshot");
    assert_eq!((hist.count, hist.sum_ns, hist.max_ns), (5, 101_110, 100_000));
    // Ranks: p50 -> 3rd smallest (100, bucket bound 127); p90/p99 -> 5th
    // (100_000, bucket bound 131071). Exact integers, no host-speed terms.
    assert_eq!(hist.p50_ns, 127);
    assert_eq!(hist.p90_ns, 131_071);
    assert_eq!(hist.p99_ns, 131_071);
    assert_eq!(hist.buckets, vec![(0, 1), (15, 1), (127, 1), (1_023, 1), (131_071, 1)]);
    assert_eq!(
        first.counters.iter().find(|(n, _)| n == "fake.counter"),
        Some(&("fake.counter".to_string(), 7))
    );

    // The span's own histogram: one 1000ns value, bucket bound 1023.
    let span_hist = first
        .histograms
        .iter()
        .find(|h| h.name == "fake.stage")
        .expect("span-fed histogram");
    assert_eq!((span_hist.count, span_hist.sum_ns, span_hist.max_ns), (1, 1_000, 1_000));
    assert_eq!(span_hist.p50_ns, 1_023);
}
