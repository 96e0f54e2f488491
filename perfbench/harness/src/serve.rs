//! The `serve-edit` workload: one closed-loop client driving `soteria-serve`
//! over stdin/stdout.
//!
//! Each iteration, on a fresh store directory:
//! 1. cold load: every corpus app, then G.1-G.3 (each request a miss that
//!    writes the store);
//! 2. a seeded stream of `update` edits to G.3 members (delta union, delta
//!    Kripke and sat-set reuse);
//! 3. a reload of the originals, served from the in-memory cache, and a
//!    `stats` probe;
//! 4. a close (stdin EOF drains the service);
//! 5. a restart over the same store and the same reload (store reads and
//!    decodes, restore ingests, union rebuilds; no Kripke build or check).
//!
//! Before step 1, the same cold app requests go to a memory-only service, and
//! `app_cold_ms` is timed there. On the store-backed service each cold app
//! request also waits for two fsyncs (entry and directory), and on a shared
//! disk their cost swings between about 0.3 and 1.5 ms over tens of seconds:
//! several times the request's own work. The store-backed cold load still
//! counts in `sweep_ms`, and its store writes are on the ledger.
//!
//! Latency runs from writing a request line until its response line is read.
//! Every response report is compared with the direct API (timing fields
//! stripped) and its verdict with the golden file.

use crate::golden::{verdict, visit_all, Golden};
use crate::inputs::{combo_key, variant_key, Combo, EditStream, Inputs, EDITS_PER_ITERATION};
use crate::replay::{EnvPath, Replay};
use crate::report::{Outcome, TracedIteration};
use soteria::checker::SatSnapshot;
use soteria::{AppAnalysis, EnvironmentAnalysis, JsonValue, Soteria};
use soteria_service::protocol::escape;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A report with its measured timing fields removed.
fn strip(report: &JsonValue) -> String {
    report
        .clone()
        .without("extraction_ms")
        .without("verification_ms")
        .without("union_ms")
        .render()
}

/// The verdict string of a served report.
fn served_verdict(report: &JsonValue) -> Option<String> {
    let violations = report.get("violations")?.as_array()?;
    let parsed: Option<Vec<_>> = violations
        .iter()
        .map(soteria::violation_from_json)
        .collect();
    Some(verdict(&parsed?))
}

/// Direct-API reports (stripped) of everything the workload requests.
pub struct References {
    apps: BTreeMap<String, String>,
    envs: BTreeMap<String, String>,
}

impl References {
    /// Analyzes everything the workload requests ([`visit_all`]).
    pub fn compute(soteria: &Soteria, inputs: &Inputs) -> Self {
        let mut refs = References {
            apps: BTreeMap::new(),
            envs: BTreeMap::new(),
        };
        visit_all(soteria, inputs, |kind, key, _, report| {
            let map = if kind == "app" {
                &mut refs.apps
            } else {
                &mut refs.envs
            };
            map.insert(key.to_string(), strip(&report));
        });
        refs
    }
}

/// One running `soteria-serve` process.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Starts `soteria-serve`, memory-only when `store` is `None`.
    fn spawn(bin: &Path, workers: usize, store: Option<&Path>) -> Result<Server, String> {
        let mut command = Command::new(bin);
        command.arg("--workers").arg(workers.to_string());
        if let Some(store) = store {
            command.arg("--store-dir").arg(store);
        }
        let mut child = command
            .env_remove("SOTERIA_TRACE")
            .env_remove("SOTERIA_STORE_DIR")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Server {
            child,
            stdin,
            stdout,
        })
    }

    /// Sends one request line and reads its response: `(response, ms)`.
    fn request(&mut self, line: &str) -> Result<(JsonValue, f64), String> {
        let stdin = self.stdin.as_mut().ok_or("server stdin closed")?;
        let started = Instant::now();
        stdin
            .write_all(line.as_bytes())
            .and_then(|_| stdin.write_all(b"\n"))
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("write failed: {e}"))?;
        let mut response = String::new();
        let n = self
            .stdout
            .read_line(&mut response)
            .map_err(|e| format!("read failed: {e}"))?;
        let took = ms(started.elapsed());
        if n == 0 {
            return Err("server closed its output".into());
        }
        let value = JsonValue::parse(response.trim()).map_err(|e| format!("bad response: {e}"))?;
        Ok((value, took))
    }

    fn vm_hwm_mb(&self) -> f64 {
        crate::vm_hwm_mb(self.child.id()).unwrap_or(f64::NAN)
    }

    /// Closes stdin (a drain) and waits for the process to exit.
    fn close(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not exit after its input closed".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What a response must be for its operation to count as verified.
fn check_report(
    response: &JsonValue,
    kind: &str,
    key: &str,
    want: Option<&String>,
    golden: &Golden,
) -> Result<(), String> {
    let status = response.get("status").and_then(JsonValue::as_str);
    if status != Some("ok") {
        return Err(format!(
            "{kind} {key}: status {status:?}: {}",
            response.render()
        ));
    }
    let report = response
        .get("report")
        .ok_or_else(|| format!("{kind} {key}: no report"))?;
    if Some(&strip(report)) != want {
        return Err(format!(
            "{kind} {key}: served report differs from the direct API"
        ));
    }
    let got = served_verdict(report).ok_or_else(|| format!("{kind} {key}: unreadable verdicts"))?;
    match golden.get(kind, key) {
        Some(golden) if golden == got => Ok(()),
        golden => Err(format!("{kind} {key}: verdict '{got}', golden {golden:?}")),
    }
}

/// The workload's fixed request lines.
struct Requests {
    apps: Vec<(String, String)>,
    envs: Vec<(String, String)>,
}

impl Requests {
    fn new(inputs: &Inputs) -> Self {
        Requests {
            apps: inputs
                .apps
                .iter()
                .map(|(id, source)| (id.clone(), format!("app {id} inline:{}", escape(source))))
                .collect(),
            envs: inputs
                .groups
                .iter()
                .map(|g| {
                    (
                        g.name.clone(),
                        format!("env {} {}", g.name, g.members.join(",")),
                    )
                })
                .collect(),
        }
    }
}

/// Starts a service on an empty store, warms it with the running examples,
/// probes its stats, and closes it.
pub fn probe(bin: &Path, work: &Path, workers: usize) -> Result<(), String> {
    let store = work.join("probe");
    let _ = std::fs::remove_dir_all(&store);
    let mut server = Server::spawn(bin, workers, Some(&store))?;
    for (id, source) in soteria_corpus::running_apps() {
        let (response, _) = server.request(&format!("app {id} inline:{}", escape(source)))?;
        if response.get("status").and_then(JsonValue::as_str) != Some("ok") {
            return Err(format!("warm-up of {id} failed: {}", response.render()));
        }
    }
    let (stats, _) = server.request("stats")?;
    server.close()?;
    let _ = std::fs::remove_dir_all(&store);
    match stats.get("status").and_then(JsonValue::as_str) {
        Some("ok") => Ok(()),
        _ => Err(format!("stats probe failed: {}", stats.render())),
    }
}

/// The workload's fixed settings.
pub struct ServeEdit<'a> {
    /// The `soteria-serve` executable.
    pub bin: PathBuf,
    /// Scratch directory for store directories.
    pub work: PathBuf,
    /// `--workers` for the service.
    pub workers: usize,
    /// Corpus inputs.
    pub inputs: &'a Inputs,
    /// Golden verdicts.
    pub golden: &'a Golden,
}

impl ServeEdit<'_> {
    /// Runs the workload for `seconds` (at least one iteration).
    pub fn run(&self, refs: &References, seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
        let requests = Requests::new(self.inputs);
        let mut edits = EditStream::new(self.inputs, seed);
        let replayer = crate::batch::analyzer();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut iterations = 0;
        // Each iteration gets a store directory of its own; they are all
        // removed after the run, so no deletion (and no discard of freed
        // blocks) lands inside a measured iteration.
        while iterations == 0 || Instant::now() < deadline {
            let store = self.work.join(format!("store-{iterations}"));
            let _ = std::fs::remove_dir_all(&store);
            let mut log = Vec::new();
            let result = self.iteration(&requests, refs, &mut edits, &store, &mut log, out);
            out.clock.calibrate_if_due();
            iterations += 1;
            match result {
                Ok(e2e) if trace => {
                    let traced = replay(&replayer, self.inputs, refs, &requests, &log, e2e, out);
                    out.traced(traced);
                }
                Ok(_) => {}
                Err(error) => {
                    out.attempted += 1;
                    out.fail(error);
                    return;
                }
            }
        }
    }

    /// One iteration; returns the summed latency of steps 1-5 (ms), the part
    /// the traced run replays.
    fn iteration(
        &self,
        requests: &Requests,
        refs: &References,
        edits: &mut EditStream,
        store: &Path,
        log: &mut Vec<Edited>,
        out: &mut Outcome,
    ) -> Result<f64, String> {
        let (inputs, golden) = (self.inputs, self.golden);
        let mut e2e = 0.0;

        // Cold app latency, without the store's fsyncs.
        let mut server = Server::spawn(&self.bin, self.workers, None)?;
        for (id, line) in &requests.apps {
            let (response, took) = server.request(line)?;
            out.sample("app_cold_ms", took);
            out.check(check_report(
                &response,
                "app",
                id,
                refs.apps.get(id),
                golden,
            ));
        }
        server.close()?;

        // 1. Cold load.
        let mut server = Server::spawn(&self.bin, self.workers, Some(store))?;
        let started = Instant::now();
        for (id, line) in &requests.apps {
            let (response, _) = server.request(line)?;
            out.check(check_report(
                &response,
                "app",
                id,
                refs.apps.get(id),
                golden,
            ));
        }
        for (group, line) in &requests.envs {
            let (response, took) = server.request(line)?;
            if *group == inputs.edit_group {
                out.sample("g3_cold_ms", took);
            }
            out.check(check_report(
                &response,
                "env",
                group,
                refs.envs.get(group),
                golden,
            ));
        }
        let sweep = ms(started.elapsed());
        out.sample("sweep_ms", sweep);
        e2e += sweep;

        // 2. Seeded edits.
        edits.reset();
        for _ in 0..EDITS_PER_ITERATION {
            let edit = edits.next_edit(inputs);
            let line = format!("update {} inline:{}", edit.member, escape(&edit.source));
            let (response, took) = server.request(&line)?;
            out.sample("update_ms", took);
            e2e += took;
            let app_key = variant_key(edit.member, edit.mask);
            out.check(check_report(
                &response,
                "app",
                &app_key,
                refs.apps.get(&app_key),
                golden,
            ));
            let env_key = combo_key(&inputs.edit_group, &edit.combo);
            let groups = response
                .get("environments")
                .and_then(JsonValue::as_array)
                .unwrap_or(&[]);
            out.check(match groups {
                [group] => check_report(group, "env", &env_key, refs.envs.get(&env_key), golden),
                _ => Err(format!(
                    "update {}: expected one re-verified group",
                    edit.member
                )),
            });
            log.push(Edited {
                member: edit.member,
                mask: edit.mask,
                line,
                combo: edit.combo,
            });
        }

        // 3. Reload from the in-memory cache.
        edits.reset();
        let (mut hits, mut lookups) = (0.0, 0.0);
        for (kind, key, line) in reload_lines(requests) {
            let (response, took) = server.request(line)?;
            out.sample("hit_ms", took);
            e2e += took;
            let want = if kind == "app" {
                refs.apps.get(key)
            } else {
                refs.envs.get(key)
            };
            out.check(check_report(&response, kind, key, want, golden));
            lookups += 1.0;
            if response.get("cache").and_then(JsonValue::as_str) == Some("hit") {
                hits += 1.0;
            }
        }
        let (stats, _) = server.request("stats")?;
        let stats = stats.get("stats").ok_or("stats response without stats")?;
        let count = |path: &[&str]| -> f64 {
            path.iter()
                .try_fold(stats, |v, k| v.get(k))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
        };
        let served_hits = count(&["app_cache", "hits"]) + count(&["env_cache", "hits"]);
        let served_lookups = count(&["app_cache", "lookups"]) + count(&["env_cache", "lookups"]);
        out.ratio("service.cache_hit_ratio", served_hits, served_lookups);
        out.ratio(
            "service.env_incremental_ratio",
            count(&["env_incremental"]),
            EDITS_PER_ITERATION as f64,
        );
        out.check(if hits == lookups {
            Ok(())
        } else {
            Err(format!("reload: {hits} of {lookups} hits"))
        });
        let rss = server.vm_hwm_mb();

        // 4. Close.
        server.close()?;

        // 5. Restart over the same store, and reload.
        let started = Instant::now();
        let mut server = Server::spawn(&self.bin, self.workers, Some(store))?;
        for (kind, key, line) in reload_lines(requests) {
            let (response, _) = server.request(line)?;
            let want = if kind == "app" {
                refs.apps.get(key)
            } else {
                refs.envs.get(key)
            };
            out.check(check_report(&response, kind, key, want, golden));
        }
        let restart = ms(started.elapsed());
        out.sample("restart_ms", restart);
        e2e += restart;
        out.rss_mb.push(rss.max(server.vm_hwm_mb()));
        server.close()?;
        Ok(e2e)
    }
}

fn reload_lines(requests: &Requests) -> impl Iterator<Item = (&'static str, &String, &String)> {
    requests
        .apps
        .iter()
        .map(|(id, line)| ("app", id, line))
        .chain(requests.envs.iter().map(|(g, line)| ("env", g, line)))
}

/// One `update` of an iteration, kept for the replay.
struct Edited {
    member: &'static str,
    mask: u32,
    line: String,
    combo: Combo,
}

/// Replays an iteration's service work in process, layer by layer: what
/// the service's workers, store and protocol did for each request.
fn replay(
    soteria: &Soteria,
    inputs: &Inputs,
    refs: &References,
    requests: &Requests,
    log: &[Edited],
    end_to_end_ms: f64,
    out: &mut Outcome,
) -> TracedIteration {
    let mut r = Replay::new(soteria);
    let mut job = 0;
    let mut apps: BTreeMap<String, AppAnalysis> = BTreeMap::new();
    let mut app_records: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for ((id, line), (_, source)) in requests.apps.iter().zip(&inputs.apps) {
        r.parse_line(line);
        let Ok(a) = r.app(id, source) else {
            out.attempted += 1;
            out.fail(format!("replay of {id} failed"));
            return TracedIteration {
                ledger: r.ledger,
                end_to_end_ms,
                replay_ms: r.wall_ms,
            };
        };
        app_records.insert(id.clone(), r.encode_app(id, source, &a));
        let report = r.app_report(&a);
        out.check(same_report(&report, &refs.apps, id));
        r.render_response(job, "app", id, "miss", report, None);
        job += 1;
        apps.insert(id.clone(), a);
    }
    let mut envs: BTreeMap<String, EnvironmentAnalysis> = BTreeMap::new();
    let mut env_records: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut base: Option<(EnvironmentAnalysis, SatSnapshot)> = None;
    for (group, (name, line)) in inputs.groups.iter().zip(&requests.envs) {
        r.parse_line(line);
        let members: Vec<&AppAnalysis> = group.members.iter().map(|m| &apps[m]).collect();
        let replayed = r.env(name, &members, EnvPath::Snapshot);
        env_records.insert(name.clone(), r.encode_env(&replayed.analysis));
        let report = r.env_report(&replayed.analysis);
        out.check(same_report(&report, &refs.envs, name));
        r.render_response(job, "env", name, "miss", report, None);
        job += 1;
        if *name == inputs.edit_group {
            base = replayed.snapshot.map(|s| (replayed.analysis.clone(), s));
        }
        envs.insert(name.clone(), replayed.analysis);
    }
    let group = inputs.group(&inputs.edit_group);
    let mut current: BTreeMap<&str, AppAnalysis> = BTreeMap::new();
    for edit in log {
        let Some(soteria_service::protocol::Request::Update { source, .. }) =
            r.parse_line(&edit.line)
        else {
            continue;
        };
        let soteria_service::protocol::AppSource::Inline(source) = source else {
            continue;
        };
        let Ok(a) = r.app(edit.member, &source) else {
            continue;
        };
        r.encode_app(edit.member, &source, &a);
        let changed = group
            .members
            .iter()
            .position(|m| m == edit.member)
            .expect("edit group member");
        let members: Vec<&AppAnalysis> = group
            .members
            .iter()
            .map(|m| {
                if m == edit.member {
                    &a
                } else {
                    current.get(m.as_str()).unwrap_or(&apps[m])
                }
            })
            .collect();
        let path = match &base {
            Some((analysis, snapshot)) => EnvPath::Incremental {
                base: analysis,
                snapshot,
                changed,
            },
            None => EnvPath::Snapshot,
        };
        let replayed = r.env(&group.name, &members, path);
        r.encode_env(&replayed.analysis);
        let app_report = r.app_report(&a);
        let env_report = r.env_report(&replayed.analysis);
        out.check(same_report(
            &app_report,
            &refs.apps,
            &variant_key(edit.member, edit.mask),
        ));
        out.check(same_report(
            &env_report,
            &refs.envs,
            &combo_key(&group.name, &edit.combo),
        ));
        r.render_response(
            job,
            "update",
            edit.member,
            "miss",
            app_report,
            Some(vec![env_report]),
        );
        job += 1;
        base = replayed.snapshot.map(|s| (replayed.analysis, s));
        current.insert(edit.member, a);
    }
    // Reload: each response re-rendered from the frozen analysis.
    for (kind, key, line) in reload_lines(requests) {
        r.parse_line(line);
        let report = if kind == "app" {
            r.app_report(&apps[key])
        } else {
            r.env_report(&envs[key])
        };
        r.render_response(job, kind, key, "hit", report, None);
        job += 1;
    }
    // Restart: store decode, restore, and the same responses.
    let mut restored: BTreeMap<String, AppAnalysis> = BTreeMap::new();
    for (id, line) in &requests.apps {
        r.parse_line(line);
        if let Some(a) = r
            .decode_app(&app_records[id])
            .and_then(|s| r.restore_app(s).ok())
        {
            let report = r.app_report(&a);
            out.check(same_report(&report, &refs.apps, id));
            r.render_response(job, "app", id, "hit", report, None);
            restored.insert(id.clone(), a);
        }
        job += 1;
    }
    for (group, (name, line)) in inputs.groups.iter().zip(&requests.envs) {
        r.parse_line(line);
        let Some(stored) = r.decode_env(&env_records[name]) else {
            continue;
        };
        if group.members.iter().all(|m| restored.contains_key(m)) {
            let members: Vec<&AppAnalysis> = group.members.iter().map(|m| &restored[m]).collect();
            let env = r.restore_env(stored, &members);
            let report = r.env_report(&env);
            out.check(same_report(&report, &refs.envs, name));
            r.render_response(job, "env", name, "hit", report, None);
        }
        job += 1;
    }
    TracedIteration {
        ledger: r.ledger,
        end_to_end_ms,
        replay_ms: r.wall_ms,
    }
}

/// Checks a replayed report against the direct API's.
fn same_report(
    report: &JsonValue,
    refs: &BTreeMap<String, String>,
    key: &str,
) -> Result<(), String> {
    if refs.get(key) == Some(&strip(report)) {
        Ok(())
    } else {
        Err(format!(
            "replay of {key}: report differs from the direct API"
        ))
    }
}
