//! `soteria-serve`: the long-lived analysis service on stdin/stdout.
//!
//! Reads newline-delimited job requests (see [`soteria_service::protocol`] for
//! the grammar: inline source, a file path, or a built-in corpus id), submits
//! each to a [`Service`] as soon as the line arrives — so parsing/model-building
//! of the next job overlaps verification of the previous one — and emits one
//! JSON response line per request, in submission order (each line is flushed as
//! soon as every earlier job has finished).
//!
//! ```text
//! printf 'app demo corpus:SmokeAlarm\nstats\n' | soteria-serve
//! ```
//!
//! Flags:
//!
//! * `--workers N` — pool worker threads (default: the `SOTERIA_THREADS` /
//!   available-parallelism policy);
//! * `--cache N` — result-cache bound (default 1024 entries per kind);
//! * `--max-pending N` — bound on queued-but-unstarted jobs (default: the
//!   `SOTERIA_MAX_PENDING` environment variable, else unbounded);
//! * `--admission block|reject` — what a submission at the bound does: wait
//!   for a slot, or answer immediately with a `queue full` error line
//!   (default: `SOTERIA_ADMISSION`, else block);
//! * `--deadline-ms N` — per-job pending *and* running deadline: jobs stuck
//!   longer are auto-cancelled as timed out (default: `SOTERIA_DEADLINE_MS`,
//!   else none; `0` disables);
//! * `--quarantine N` — panic strikes before a source is rejected at admission
//!   (default 2; `0` disables);
//! * `--fault-marker S` / `--stall-marker S` — chaos injection for testing:
//!   app sources containing the marker panic at ingest / stall abortably;
//! * `--store-dir PATH` — persistent result store: frozen results are written
//!   through to `PATH` (crash-safe temp+rename with checksum framing) and a
//!   restarted service restores them from disk instead of recomputing
//!   (default: `SOTERIA_STORE_DIR`, else memory-only);
//! * `--trace-out PATH` — enable tracing (as if `SOTERIA_TRACE=1`) and, when
//!   the serve loop exits, write every retained span to `PATH` as Chrome
//!   `trace_event` JSON (load it at `chrome://tracing` or Perfetto) plus a
//!   human slow-jobs top-N summary on stderr;
//! * `--smoke` — run the self-check gate instead of serving: pipe the running
//!   examples through the full protocol, diff every served report against the
//!   direct `Soteria` API, verify a second pass is served byte-identically
//!   from the cache, and exercise `cancel`, a rejecting bounded queue, injected
//!   panics with quarantine, `faults`, and `drain`. Exits non-zero on any
//!   mismatch (the CI configuration).
//!
//! Closing stdin drains the service: admission closes and every outstanding
//! ticket is settled before the process exits.

use soteria_service::protocol::{self, AppSource, Request};
use soteria_service::{
    AdmissionPolicy, AppJob, AppKind, CacheDisposition, EnvJob, EnvKind, EnvResult, Job,
    JobKind, Service, ServiceOptions,
};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::mpsc;

enum PendingOut {
    App(AppJob),
    Env(EnvJob),
    Update { app: AppJob, envs: Vec<EnvJob> },
    Cancel { name: String, cancelled: bool },
    Stats,
    Metrics,
    Faults,
    Sync { settled: usize },
    Drain(soteria_service::DrainReport),
    Error(String),
}

/// The serve loop's name → live-job index for one job kind, backing `cancel
/// <name>` requests. App and environment namespaces are separate (matching the
/// service, where an app and a group may legally share a name), so `cancel
/// <name>` cancels every in-flight job under that name, of either kind.
/// Finished jobs are pruned on every request line, so the maps never outgrow
/// the in-flight set (same discipline as `Service::forget_finished`).
struct LiveJobs<K: JobKind>(HashMap<String, Job<K>>);

impl<K: JobKind> LiveJobs<K> {
    fn track(&mut self, job: &Job<K>) {
        self.0.insert(job.name().to_string(), job.clone());
    }

    fn cancel(&mut self, name: &str) -> bool {
        self.0.remove(name).is_some_and(|job| job.cancel())
    }

    fn prune_finished(&mut self) {
        self.0.retain(|_, job| !job.is_ready());
    }

    /// Blocks until every tracked in-flight job has settled (the `sync` verb),
    /// returning how many were waited on. Serializes pipelined request streams:
    /// the next line is not read until everything before the `sync` finished.
    fn sync(&self) -> usize {
        for job in self.0.values() {
            let _ = job.wait();
        }
        self.0.len()
    }
}

fn resolve_source(source: AppSource) -> Result<String, String> {
    match source {
        AppSource::Inline(text) => Ok(text),
        AppSource::Path(path) => std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read '{path}': {e}")),
        AppSource::Corpus(id) => soteria_corpus::find_app(&id)
            .map(|(_, source)| source)
            .ok_or_else(|| format!("unknown corpus app '{id}'")),
    }
}

/// The serve loop: the reader thread submits each request the moment its line
/// arrives (so ingestion of job *N + 1* overlaps verification of job *N*),
/// while a dedicated writer thread blocks on each job in submission order and
/// writes + flushes its response line the moment it — and everything before
/// it — has finished. An interactive client therefore gets each response
/// without having to send another line or close stdin first.
/// `drain_on_eof` treats stdin closing as a shutdown request: admission is
/// closed and every outstanding ticket settled before the writer is joined
/// (the `main` serve path). The smoke gates pass `false` — they run several
/// passes over one service, which a drain would close for good.
fn serve(
    input: impl BufRead,
    out: &mut (impl Write + Send),
    service: &Service,
    drain_on_eof: bool,
) -> std::io::Result<()> {
    let (tx, rx) = mpsc::channel::<(usize, PendingOut)>();
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> std::io::Result<()> {
            for (index, pending) in rx {
                let response = match pending {
                    PendingOut::App(job) => protocol::app_response(
                        index,
                        job.name(),
                        job.disposition(),
                        &job.wait(),
                    ),
                    PendingOut::Env(job) => protocol::env_response(
                        index,
                        job.name(),
                        job.disposition(),
                        &job.wait(),
                    ),
                    PendingOut::Update { app, envs } => {
                        let environments: Vec<(String, CacheDisposition, EnvResult)> = envs
                            .iter()
                            .map(|env| (env.name().to_string(), env.disposition(), env.wait()))
                            .collect();
                        protocol::update_response(
                            index,
                            app.name(),
                            app.disposition(),
                            &app.wait(),
                            &environments,
                        )
                    }
                    PendingOut::Cancel { name, cancelled } => {
                        protocol::cancel_response(index, &name, cancelled)
                    }
                    PendingOut::Stats => protocol::stats_response(index, &service.stats()),
                    PendingOut::Metrics => {
                        protocol::metrics_response(index, &soteria_obs::metrics_snapshot())
                    }
                    PendingOut::Faults => protocol::faults_response(index, &service.faults()),
                    PendingOut::Sync { settled } => protocol::sync_response(index, settled),
                    PendingOut::Drain(report) => protocol::drain_response(index, &report),
                    PendingOut::Error(error) => protocol::error_response(index, &error),
                };
                writeln!(out, "{}", response.render())?;
                out.flush()?;
            }
            Ok(())
        });
        let mut job_index = 0usize;
        // Live jobs by name, so `cancel <name>` can reach the handle. Note the
        // submissions below go through the service's admission control: with
        // `--admission reject` a full queue turns into an error response line.
        let mut live_apps = LiveJobs::<AppKind>(HashMap::new());
        let mut live_envs = LiveJobs::<EnvKind>(HashMap::new());
        for line in input.lines() {
            let pending = match protocol::parse_request(&line?) {
                Ok(None) => continue,
                Err(error) => PendingOut::Error(error),
                Ok(Some(Request::App { name, source })) => match resolve_source(source)
                    .and_then(|text| service.submit_app(&name, &text).map_err(|e| e.to_string()))
                {
                    Ok(job) => {
                        live_apps.track(&job);
                        PendingOut::App(job)
                    }
                    Err(error) => PendingOut::Error(error),
                },
                Ok(Some(Request::Environment { name, members })) => {
                    let refs: Vec<&str> = members.iter().map(String::as_str).collect();
                    match service.submit_environment_by_names(&name, &refs) {
                        Ok(job) => {
                            live_envs.track(&job);
                            PendingOut::Env(job)
                        }
                        Err(error) => PendingOut::Error(error.to_string()),
                    }
                }
                Ok(Some(Request::Update { name, source })) => match resolve_source(source)
                    .and_then(|text| service.resubmit(&name, &text).map_err(|e| e.to_string()))
                {
                    Ok((app, envs)) => {
                        live_apps.track(&app);
                        for env in &envs {
                            live_envs.track(env);
                        }
                        PendingOut::Update { app, envs }
                    }
                    Err(error) => PendingOut::Error(error),
                },
                Ok(Some(Request::Cancel { name })) => {
                    // Both kinds, so no short-circuit.
                    let cancelled = live_apps.cancel(&name) | live_envs.cancel(&name);
                    PendingOut::Cancel { name, cancelled }
                }
                Ok(Some(Request::Stats)) => PendingOut::Stats,
                Ok(Some(Request::Metrics)) => PendingOut::Metrics,
                Ok(Some(Request::Faults)) => PendingOut::Faults,
                Ok(Some(Request::Sync)) => {
                    PendingOut::Sync { settled: live_apps.sync() + live_envs.sync() }
                }
                // Synchronous in the reader: no further request is even parsed
                // until the drain settled everything (requests still in the
                // pipe then fail with a "draining" error line — by design).
                Ok(Some(Request::Drain { deadline_ms })) => PendingOut::Drain(
                    service.drain(deadline_ms.map(std::time::Duration::from_millis)),
                ),
            };
            live_apps.prune_finished();
            live_envs.prune_finished();
            // A send only fails after the writer bailed on an I/O error (client
            // gone); keep draining stdin so the submit side stays consistent.
            let _ = tx.send((job_index, pending));
            job_index += 1;
            // The writer tracks responses, so finished jobs can leave the
            // service's submission log — otherwise a long-lived serve would pin
            // every frozen result in the log, defeating the cache's LRU bound.
            service.forget_finished();
        }
        drop(tx); // EOF: the writer drains the remaining jobs, then exits
        if drain_on_eof {
            // Stdin closed = shutdown: settle every outstanding ticket (jobs
            // past their deadlines are already being timed out by the sweeper)
            // so the writer finishes every response line and exits.
            let _ = service.drain(None);
        }
        let result = writer.join().expect("writer thread panicked");
        service.forget_finished();
        result
    })
}

/// The CI gate: pipe the running examples (plus an environment and a stats
/// probe) through the protocol twice and check (1) every served report equals
/// the direct-API serialization modulo measured timings, (2) the second pass is
/// all cache hits with *byte-identical* full reports, (3) everything parses.
fn run_smoke(service: &Service) {
    use soteria::JsonValue;

    let apps = soteria_corpus::running_apps();
    let mut requests = String::new();
    for (id, _) in &apps {
        requests.push_str(&format!("app {id} corpus:{id}\n"));
    }
    requests.push_str("env RunningGroup SmokeAlarm,WaterLeakDetector,ThermostatEnergyControl\n");
    requests.push_str("stats\n");

    let pass = |label: &str| -> Vec<JsonValue> {
        let mut out = Vec::new();
        serve(requests.as_bytes(), &mut out, service, false).expect("serve pass");
        String::from_utf8(out)
            .expect("utf-8 responses")
            .lines()
            .map(|line| {
                JsonValue::parse(line)
                    .unwrap_or_else(|e| panic!("{label} response does not parse: {e}\n{line}"))
            })
            .collect()
    };
    let cold = pass("cold");
    let warm = pass("warm");
    assert_eq!(cold.len(), apps.len() + 2, "one response per request");
    assert_eq!(cold.len(), warm.len());

    let strip_timings = |report: &JsonValue| {
        report
            .clone()
            .without("extraction_ms")
            .without("verification_ms")
            .without("union_ms")
            .render()
    };

    // (1) Served app reports equal the direct API (measured timings excluded).
    let mut direct_analyses: Vec<soteria::AppAnalysis> = Vec::with_capacity(apps.len());
    for ((id, source), response) in apps.iter().zip(&cold) {
        assert_eq!(response.get("status").and_then(|v| v.as_str()), Some("ok"), "{id}");
        let direct = service.soteria().analyze_app(id, source).expect("running example parses");
        let direct_json = soteria::app_analysis_json(&direct);
        direct_analyses.push(direct);
        let served = response.get("report").unwrap_or_else(|| panic!("{id}: no report"));
        assert_eq!(
            strip_timings(served),
            strip_timings(&direct_json),
            "{id}: served JSON diverges from the direct API"
        );
    }
    // ... and the served environment equals the direct union analysis (over the
    // member analyses already computed above).
    let env_response = &cold[apps.len()];
    assert_eq!(env_response.get("kind").and_then(|v| v.as_str()), Some("env"));
    let direct_env =
        service.soteria().analyze_environment("RunningGroup", &direct_analyses[..3]);
    assert_eq!(
        strip_timings(env_response.get("report").expect("env report")),
        strip_timings(&soteria::environment_json(&direct_env)),
        "environment JSON diverges from the direct API"
    );

    // (2) The warm pass is served from the cache, byte-identical.
    for (cold_line, warm_line) in cold.iter().zip(&warm) {
        if warm_line.get("kind").and_then(|v| v.as_str()) == Some("stats") {
            continue;
        }
        assert_eq!(
            warm_line.get("cache").and_then(|v| v.as_str()),
            Some("hit"),
            "resubmission was not a cache hit: {}",
            warm_line.render()
        );
        assert_eq!(
            warm_line.get("report").map(JsonValue::render),
            cold_line.get("report").map(JsonValue::render),
            "cached report is not byte-identical"
        );
    }

    // (3) The `update` verb: resubmit one member with a semantically identical
    // source (an appended newline changes the content key, not the model) and
    // check the resident group is re-verified, with a report identical to the
    // cold full analysis, modulo measured timings.
    let wld = apps
        .iter()
        .find(|(id, _)| *id == "WaterLeakDetector")
        .map(|(_, source)| *source)
        .expect("running example present");
    let update_request = format!(
        "update WaterLeakDetector inline:{}\n",
        protocol::escape(&format!("{wld}\n"))
    );
    let mut update_out = Vec::new();
    serve(update_request.as_bytes(), &mut update_out, service, false).expect("serve pass");
    let update_line = String::from_utf8(update_out).expect("utf-8 responses");
    let update = JsonValue::parse(update_line.trim()).expect("update response parses");
    assert_eq!(update.get("kind").and_then(|v| v.as_str()), Some("update"));
    assert_eq!(update.get("status").and_then(|v| v.as_str()), Some("ok"));
    let groups =
        update.get("environments").and_then(|v| v.as_array()).expect("environments array");
    assert_eq!(groups.len(), 1, "one resident group contains the updated member");
    assert_eq!(groups[0].get("name").and_then(|v| v.as_str()), Some("RunningGroup"));
    assert_eq!(groups[0].get("status").and_then(|v| v.as_str()), Some("ok"));
    assert_eq!(
        strip_timings(groups[0].get("report").expect("updated env report")),
        strip_timings(env_response.get("report").expect("env report")),
        "re-verification diverges from the cold analysis"
    );
    // The edited member has a new content key, so the group's key is new too:
    // the update re-verified it rather than answering from the cache.
    assert_eq!(
        groups[0].get("cache").and_then(|v| v.as_str()),
        Some("miss"),
        "update did not re-verify the group"
    );

    let stats = service.stats();
    println!(
        "soteria-serve smoke: OK ({} apps + 1 env served twice + 1 update; \
         warm pass all hits; cache: {} hits / {} misses; {} pool tasks on {} workers)",
        apps.len(),
        stats.app_cache.hits + stats.env_cache.hits,
        stats.app_cache.misses + stats.env_cache.misses,
        stats.tasks_executed,
        stats.workers
    );
}

/// The backpressure + cancellation smoke leg: a 1-worker service with a 2-deep
/// rejecting queue, fed a heavy app first so the worker is pinned while the
/// remaining request lines arrive (microseconds apart). Deterministically:
/// the parked environment is cancellable (its member is still ingesting), and
/// with the worker pinned at least one later submission meets a full queue.
fn run_cancel_and_backpressure_smoke() {
    use soteria::JsonValue;

    let service = Service::new(
        soteria::Soteria::new(),
        ServiceOptions {
            workers: 1,
            max_pending: 2,
            admission: AdmissionPolicy::Reject,
            // Exact-count assertions below; keep the leg memory-only even when
            // the environment configures a store for the serving process.
            store_dir: None,
            ..ServiceOptions::default()
        },
    );
    // ThermostatEnergyControl dominates the cold running-example sweep — the
    // single worker chews on it for long enough that every line below is
    // submitted while it runs.
    let requests = "app heavy corpus:ThermostatEnergyControl\n\
                    env G heavy\n\
                    cancel G\n\
                    cancel ghost\n\
                    app a1 corpus:SmokeAlarm\n\
                    app a2 corpus:SmokeAlarm\n\
                    app a3 corpus:SmokeAlarm\n\
                    app a4 corpus:SmokeAlarm\n\
                    stats\n";
    let mut out = Vec::new();
    serve(requests.as_bytes(), &mut out, &service, false).expect("serve pass");
    let lines: Vec<JsonValue> = String::from_utf8(out)
        .expect("utf-8 responses")
        .lines()
        .map(|line| JsonValue::parse(line).expect("response parses"))
        .collect();
    assert_eq!(lines.len(), 9, "one response per request");

    let field = |v: &JsonValue, key: &str| -> String {
        v.get(key).and_then(|f| f.as_str()).unwrap_or_default().to_string()
    };
    // The parked environment was cancelled...
    assert_eq!(field(&lines[2], "kind"), "cancel");
    assert_eq!(lines[2].get("cancelled"), Some(&JsonValue::Bool(true)), "env not cancelled");
    // ... so its own response line reports status "cancelled"...
    assert_eq!(field(&lines[1], "kind"), "env");
    assert_eq!(field(&lines[1], "status"), "cancelled");
    // ... while cancelling an unknown name reports false without erroring.
    assert_eq!(lines[3].get("cancelled"), Some(&JsonValue::Bool(false)));
    // The heavy app itself completed normally.
    assert_eq!(field(&lines[0], "status"), "ok");
    // With the worker pinned and the queue 2 deep, the a1..a4 burst cannot all
    // be admitted: at least one line is a queue-full error, and at least one
    // was admitted and completed.
    let queue_full = lines
        .iter()
        .filter(|l| field(l, "status") == "error" && field(l, "error").starts_with("queue full"))
        .count();
    let completed = lines[4..8].iter().filter(|l| field(l, "status") == "ok").count();
    assert!(queue_full >= 1, "no submission met a full queue");
    assert!(completed >= 1, "no burst submission completed");
    let stats = service.stats();
    assert!(stats.rejected >= 1 && stats.cancelled >= 1);
    assert_eq!(stats.pending, 0, "pending jobs leaked after the drain");
    println!(
        "soteria-serve cancel/backpressure smoke: OK (1 env cancelled; {} of 4 burst \
         submissions rejected by the 2-deep queue; pending back to 0)",
        queue_full
    );
}

/// The crash-only smoke leg: a service with deterministic fault injection, fed
/// a panicking source repeatedly with `sync` serialization points so each
/// resubmission re-runs (and strikes) instead of coalescing. Checks the panic
/// surfaces as an `error` response (service alive), the second strike
/// quarantines the content, `faults` dumps both strikes, `drain` settles
/// everything exactly once, and post-drain submissions are rejected.
fn run_fault_and_drain_smoke() {
    use soteria::JsonValue;

    let service = Service::new(
        soteria::Soteria::new(),
        ServiceOptions {
            workers: 1,
            fault_marker: Some("chaos-panic".to_string()),
            // The `"faults":2` / `"quarantined":1` assertions are exact; a
            // store would add its own fault records under injection.
            store_dir: None,
            ..ServiceOptions::default()
        },
    );
    let requests = "app ok corpus:SmokeAlarm\n\
                    app bad inline:definition(name: \"chaos-panic\")\n\
                    sync\n\
                    app bad inline:definition(name: \"chaos-panic\")\n\
                    sync\n\
                    app bad inline:definition(name: \"chaos-panic\")\n\
                    faults\n\
                    stats\n\
                    drain 5000\n\
                    app late corpus:SmokeAlarm\n";
    let mut out = Vec::new();
    serve(requests.as_bytes(), &mut out, &service, false).expect("serve pass");
    let lines: Vec<JsonValue> = String::from_utf8(out)
        .expect("utf-8 responses")
        .lines()
        .map(|line| JsonValue::parse(line).expect("response parses"))
        .collect();
    assert_eq!(lines.len(), 10, "one response per request");
    let field = |v: &JsonValue, key: &str| -> String {
        v.get(key).and_then(|f| f.as_str()).unwrap_or_default().to_string()
    };

    // The healthy app is unaffected by its panicking neighbour.
    assert_eq!(field(&lines[0], "status"), "ok");
    // Strikes one and two surface as error responses (the service survived)...
    assert!(field(&lines[1], "error").contains("injected fault"), "{}", lines[1].render());
    assert!(field(&lines[3], "error").contains("injected fault"));
    // ... and the third submission is rejected at admission, quarantined.
    assert!(
        field(&lines[5], "error").contains("quarantined"),
        "third strike not quarantined: {}",
        lines[5].render()
    );
    // The fault log retains both panics, with matching fingerprints.
    let faults = lines[6].get("faults").and_then(|f| f.as_array()).expect("fault array");
    assert_eq!(faults.len(), 2, "expected exactly two fault records");
    assert_eq!(field(&faults[0], "key"), field(&faults[1], "key"), "strike keys differ");
    assert!(faults.iter().all(|f| field(f, "kind") == "panic"));
    // Counters agree.
    let stats = lines[7].get("stats").expect("stats object");
    assert_eq!(stats.get("faults"), Some(&JsonValue::Number(2.0)));
    assert_eq!(stats.get("quarantined"), Some(&JsonValue::Number(1.0)));
    // The drain settles with nothing left over, and later submissions bounce.
    let drain = lines[8].get("drain").expect("drain object");
    assert_eq!(drain.get("timed_out"), Some(&JsonValue::Number(0.0)), "drain timed out jobs");
    assert!(field(&lines[9], "error").contains("draining"), "{}", lines[9].render());
    assert_eq!(service.stats().pending, 0, "pending jobs leaked after the drain");
    println!(
        "soteria-serve fault/drain smoke: OK (2 injected panics -> quarantine on strike 3; \
         fault log + stats agree; drain settled; post-drain submission rejected)"
    );
}

fn main() {
    let mut options = ServiceOptions::default();
    let mut smoke = false;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                options.workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs a number");
            }
            "--cache" => {
                options.cache_capacity = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--cache needs a number");
            }
            "--max-pending" => {
                options.max_pending = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-pending needs a number");
            }
            "--admission" => {
                options.admission = match args.next().as_deref() {
                    Some("block") => AdmissionPolicy::Block,
                    Some("reject") => AdmissionPolicy::Reject,
                    other => panic!("--admission needs block|reject, got {other:?}"),
                };
            }
            "--deadline-ms" => {
                let deadline = args
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .expect("--deadline-ms needs a number");
                let deadline =
                    (deadline > 0).then(|| std::time::Duration::from_millis(deadline));
                options.pending_deadline = deadline;
                options.running_deadline = deadline;
            }
            "--quarantine" => {
                options.quarantine_threshold = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--quarantine needs a number (0 disables)");
            }
            "--fault-marker" => {
                options.fault_marker =
                    Some(args.next().expect("--fault-marker needs a marker string"));
            }
            "--stall-marker" => {
                options.stall_marker =
                    Some(args.next().expect("--stall-marker needs a marker string"));
            }
            "--store-dir" => {
                options.store_dir =
                    Some(args.next().expect("--store-dir needs a directory path").into());
            }
            "--trace-out" => {
                trace_out = Some(args.next().expect("--trace-out needs a file path").into());
            }
            "--smoke" => smoke = true,
            other => {
                eprintln!(
                    "unknown flag '{other}' (expected --workers N, --cache N, \
                     --max-pending N, --admission block|reject, --deadline-ms N, \
                     --quarantine N, --fault-marker S, --stall-marker S, \
                     --store-dir PATH, --trace-out PATH, --smoke)"
                );
                std::process::exit(2);
            }
        }
    }

    if trace_out.is_some() {
        soteria_obs::set_enabled(true);
    }
    let service = Service::new(soteria::Soteria::new(), options);
    if smoke {
        run_smoke(&service);
        run_cancel_and_backpressure_smoke();
        run_fault_and_drain_smoke();
        return;
    }
    let stdin = std::io::stdin();
    // `Stdout` locks internally per write and is `Send`, which the writer
    // thread needs; the serve loop flushes after every response line anyway.
    let mut out = std::io::stdout();
    serve(stdin.lock(), &mut out, &service, true).expect("serve loop");
    let _ = out.flush();
    let stats = service.stats();
    eprintln!(
        "soteria-serve: {} jobs ({} cache hits, {} coalesced) on {} workers",
        stats.submitted,
        stats.app_cache.hits + stats.env_cache.hits,
        stats.coalesced,
        stats.workers
    );
    if let Some(path) = trace_out {
        // Settling a job happens *inside* its pool task, before the worker's
        // own `pool.run` span closes and flushes the thread's span tree — so
        // the drain above does not mean every span is flushed yet. Quiesce is
        // the real barrier: it waits out the workers' task epilogues.
        service.quiesce();
        let spans = soteria_obs::drain_spans();
        match std::fs::write(&path, soteria_obs::chrome_trace_json(&spans)) {
            Ok(()) => eprintln!(
                "soteria-serve: wrote {} spans to {} (chrome://tracing format)",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("soteria-serve: cannot write {}: {e}", path.display()),
        }
        eprint!("{}", soteria_obs::slow_jobs_summary(&spans, 5));
    }
}
