//! The `soteria-serve` wire protocol: newline-delimited requests in, one JSON
//! response line per request out, in submission order.
//!
//! # Requests
//!
//! One request per line; blank lines and `#` comments are ignored. Fields are
//! whitespace-separated:
//!
//! ```text
//! app <name> inline:<escaped source>    # source inline, \n \t \r \\ escaped
//! app <name> path:<file>               # source read from a file
//! app <name> corpus:<id>              # a built-in corpus app (e.g. SmokeAlarm, App5, TP3)
//! env <group> <member,member,...>     # union analysis over prior app jobs, by name
//! update <name> inline:|path:|corpus: # resubmit an edited app + re-verify its groups
//! cancel <name>                       # cancel an in-flight app or env job, by name
//! stats                               # service counter snapshot
//! metrics                             # observability snapshot (counters + latency histograms)
//! faults                              # dump the retained fault log
//! sync                                # block until every in-flight job settles
//! drain [<deadline_ms>]               # close admission, settle everything, report
//! ```
//!
//! # Responses
//!
//! One compact JSON object per line, `"job"` numbering requests from 0:
//!
//! ```text
//! {"job":0,"kind":"app","name":...,"status":"ok","cache":"hit|miss|coalesced","report":{...}}
//! {"job":1,"kind":"env","name":...,"status":"ok","cache":...,"report":{...}}
//! {"job":2,"kind":"error","status":"error","error":"..."}     # incl. "queue full: ..."
//! {"job":3,"kind":"app","name":...,"status":"cancelled","cache":...,"error":"cancelled"}
//! {"job":4,"kind":"cancel","name":...,"status":"ok","cancelled":true|false}
//! {"job":5,"kind":"stats","status":"ok","stats":{...}}
//! {"job":6,"kind":"app","name":...,"status":"timeout","cache":...,"error":"timed out"}
//! {"job":7,"kind":"faults","status":"ok","faults":[{"seq":...,"name":...,"key":...,
//!                                                   "stage":...,"kind":...,"message":...},...]}
//! {"job":8,"kind":"drain","status":"ok","drain":{"settled":...,"completed":...,
//!                              "failed":...,"cancelled":...,"timed_out":...,"elapsed_ms":...}}
//! {"job":9,"kind":"sync","status":"ok","settled":...}
//! {"job":11,"kind":"metrics","status":"ok","metrics":{"counters":{...},
//!           "histograms":[{"name":...,"count":...,"p50_ns":...,"p90_ns":...,"p99_ns":...},...]}}
//! {"job":10,"kind":"update","name":...,"status":...,"cache":...,"report":{...},
//!           "environments":[{"name":...,"status":...,"cache":...,"report":{...}},...]}
//! ```
//!
//! `report` objects are [`soteria::app_analysis_json`] /
//! [`soteria::environment_json`] — cached responses are byte-identical to the
//! original, including the measured timings frozen with the result. A job whose
//! computation was cancelled (its own `cancel` request or a coalesced holder's)
//! reports `"status":"cancelled"`; one auto-cancelled by a deadline (or the
//! drain) reports `"status":"timeout"`. A submission rejected by a full queue
//! under `--admission reject` is an `error` response whose message starts with
//! `queue full`; one rejected by the input quarantine has a message starting
//! with `'<name>' is quarantined`.
//!
//! When the service runs with a persistent store (`--store-dir`), the `stats`
//! object carries an extra `"store"` member with the disk-tier counters
//! (`disk_hits`, `disk_misses`, `writes`, `corrupt_quarantined`, `read_errors`,
//! `write_errors`, `degraded_events`, `recoveries`, `degraded`, `app_entries`,
//! `env_entries`). Memory-only runs omit it entirely.

use crate::service::{
    AppResult, CacheDisposition, DrainReport, EnvResult, FaultRecord, JobError, ServiceStats,
};
use soteria::{app_analysis_json, environment_json, JsonValue};

/// Where an `app` request's source comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppSource {
    /// Inline escaped source text (already unescaped here).
    Inline(String),
    /// A path to read.
    Path(String),
    /// A built-in corpus app id.
    Corpus(String),
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Analyze one app.
    App {
        /// Job name (also the handle for later `env` members).
        name: String,
        /// Source location.
        source: AppSource,
    },
    /// Analyze a multi-app environment over prior app jobs.
    Environment {
        /// Group name.
        name: String,
        /// Member app job names.
        members: Vec<String>,
    },
    /// Resubmit an edited app and re-verify every resident environment group
    /// that contains it ([`Service::resubmit`]): each group is analyzed again
    /// with the edited member in place, exactly as an `env` request over the
    /// new members would be.
    ///
    /// [`Service::resubmit`]: crate::Service::resubmit
    Update {
        /// The app name being updated (also the member name groups know it by).
        name: String,
        /// The edited source location.
        source: AppSource,
    },
    /// Cancel an in-flight job (app or environment) by its submitted name.
    Cancel {
        /// The name the job was submitted under.
        name: String,
    },
    /// Emit a service counter snapshot.
    Stats,
    /// Emit the observability registry — named counters and latency
    /// histograms — as one JSON response line. Empty (but well-formed) when
    /// tracing is off.
    Metrics,
    /// Dump the retained fault log as one JSON response line.
    Faults,
    /// Block request intake until every in-flight job has settled. The
    /// serialization point pipelined clients need: without it, resubmitting
    /// content whose job is still in flight coalesces instead of re-running —
    /// so, e.g., a panicking source could never deterministically accumulate
    /// quarantine strikes from one piped request stream.
    Sync,
    /// Close admission, settle every outstanding job, and report the tally.
    Drain {
        /// Force-settle whatever outlives this many milliseconds as timed out;
        /// `None` waits indefinitely.
        deadline_ms: Option<u64>,
    },
}

/// Escapes source text for the `inline:` request form.
pub fn escape(source: &str) -> String {
    let mut out = String::with_capacity(source.len());
    for c in source.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`].
pub fn unescape(text: &str) -> Result<String, String> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some(other) => return Err(format!("invalid escape '\\{other}'")),
            None => return Err("dangling '\\' at end of line".to_string()),
        }
    }
    Ok(out)
}

/// Splits the leading whitespace-delimited token off, returning it and the
/// remainder with any separator run consumed (so `app  demo` parses like
/// `app demo`).
fn next_field(text: &str) -> (&str, &str) {
    let text = text.trim_start();
    match text.find(char::is_whitespace) {
        Some(end) => (&text[..end], text[end..].trim_start()),
        None => (text, ""),
    }
}

/// Parses one request line. `Ok(None)` for blank lines and comments.
pub fn parse_request(line: &str) -> Result<Option<Request>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (verb, rest) = next_field(line);
    // `app` and `update` share the `<name> <scheme>:<location>` shape.
    let name_and_source = |verb: &str, rest: &str| -> Result<(String, AppSource), String> {
        let (name, rest) = next_field(rest);
        if name.is_empty() {
            return Err(format!("{verb}: missing name"));
        }
        let name = name.to_string();
        let location = rest;
        if location.is_empty() {
            return Err(format!("{verb}: missing source"));
        }
        let source = match location.split_once(':') {
            Some(("inline", text)) => AppSource::Inline(unescape(text)?),
            Some(("path", path)) => AppSource::Path(path.to_string()),
            Some(("corpus", id)) => AppSource::Corpus(id.to_string()),
            _ => {
                return Err(format!(
                    "{verb}: source must be inline:<escaped>, path:<file>, or corpus:<id> (got '{location}')"
                ))
            }
        };
        Ok((name, source))
    };
    match verb {
        "app" => {
            let (name, source) = name_and_source("app", rest)?;
            Ok(Some(Request::App { name, source }))
        }
        "update" => {
            let (name, source) = name_and_source("update", rest)?;
            Ok(Some(Request::Update { name, source }))
        }
        "env" => {
            let (name, rest) = next_field(rest);
            if name.is_empty() {
                return Err("env: missing group name".to_string());
            }
            let members: Vec<String> = rest
                .split(',')
                .map(|m| m.trim().to_string())
                .filter(|m| !m.is_empty())
                .collect();
            if members.is_empty() {
                return Err("env: missing member list".to_string());
            }
            Ok(Some(Request::Environment { name: name.to_string(), members }))
        }
        "cancel" => {
            let (name, rest) = next_field(rest);
            if name.is_empty() {
                return Err("cancel: missing job name".to_string());
            }
            if !rest.is_empty() {
                return Err(format!("cancel: unexpected trailing input '{rest}'"));
            }
            Ok(Some(Request::Cancel { name: name.to_string() }))
        }
        "stats" => Ok(Some(Request::Stats)),
        "metrics" => Ok(Some(Request::Metrics)),
        "faults" => Ok(Some(Request::Faults)),
        "sync" => Ok(Some(Request::Sync)),
        "drain" => {
            let (deadline, rest) = next_field(rest);
            if !rest.is_empty() {
                return Err(format!("drain: unexpected trailing input '{rest}'"));
            }
            let deadline_ms = if deadline.is_empty() {
                None
            } else {
                Some(
                    deadline
                        .parse::<u64>()
                        .map_err(|_| format!("drain: invalid deadline '{deadline}'"))?,
                )
            };
            Ok(Some(Request::Drain { deadline_ms }))
        }
        other => Err(format!("unknown request '{other}'")),
    }
}

fn response_header(job: usize, kind: &str, status: &str) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("job", JsonValue::uint(job)),
        ("kind", JsonValue::string(kind.to_string())),
        ("status", JsonValue::string(status.to_string())),
    ]
}

/// The response status of a job result: `ok`, `cancelled`, `timeout`, or
/// `error`.
fn result_status<T>(result: &Result<T, JobError>) -> &'static str {
    match result {
        Ok(_) => "ok",
        Err(JobError::Cancelled) => "cancelled",
        Err(JobError::TimedOut) => "timeout",
        Err(_) => "error",
    }
}

/// The response line for a finished app job.
pub fn app_response(
    job: usize,
    name: &str,
    disposition: CacheDisposition,
    result: &AppResult,
) -> JsonValue {
    let mut members = response_header(job, "app", result_status(result));
    members.push(("name", JsonValue::string(name)));
    members.push(("cache", JsonValue::string(disposition.as_str())));
    match result {
        Ok(analysis) => members.push(("report", app_analysis_json(analysis))),
        Err(error) => members.push(("error", JsonValue::string(error.to_string()))),
    }
    JsonValue::object(members)
}

/// The response line for a finished environment job.
pub fn env_response(
    job: usize,
    name: &str,
    disposition: CacheDisposition,
    result: &EnvResult,
) -> JsonValue {
    let mut members = response_header(job, "env", result_status(result));
    members.push(("name", JsonValue::string(name)));
    members.push(("cache", JsonValue::string(disposition.as_str())));
    match result {
        Ok(env) => members.push(("report", environment_json(env))),
        Err(error) => members.push(("error", JsonValue::string(error.to_string()))),
    }
    JsonValue::object(members)
}

/// The response line for an `update` request: the resubmitted app's result in
/// the `app_response` shape, plus one entry per re-verified environment group
/// (in group-name order) under `"environments"`. An update that touches no
/// resident group has an empty array.
pub fn update_response(
    job: usize,
    name: &str,
    disposition: CacheDisposition,
    result: &AppResult,
    environments: &[(String, CacheDisposition, EnvResult)],
) -> JsonValue {
    let mut members = response_header(job, "update", result_status(result));
    members.push(("name", JsonValue::string(name)));
    members.push(("cache", JsonValue::string(disposition.as_str())));
    match result {
        Ok(analysis) => members.push(("report", app_analysis_json(analysis))),
        Err(error) => members.push(("error", JsonValue::string(error.to_string()))),
    }
    let groups: Vec<JsonValue> = environments
        .iter()
        .map(|(group, disposition, result)| {
            let mut entry = vec![
                ("name", JsonValue::string(group.clone())),
                ("status", JsonValue::string(result_status(result))),
                ("cache", JsonValue::string(disposition.as_str())),
            ];
            match result {
                Ok(env) => entry.push(("report", environment_json(env))),
                Err(error) => entry.push(("error", JsonValue::string(error.to_string()))),
            }
            JsonValue::object(entry)
        })
        .collect();
    members.push(("environments", JsonValue::Array(groups)));
    JsonValue::object(members)
}

/// The response line for a `cancel` request. `cancelled` is whether the request
/// actually settled a job as cancelled (false: the name is unknown, or the job
/// already finished — its result response line is/was a normal one).
pub fn cancel_response(job: usize, name: &str, cancelled: bool) -> JsonValue {
    let mut members = response_header(job, "cancel", "ok");
    members.push(("name", JsonValue::string(name)));
    members.push(("cancelled", JsonValue::Bool(cancelled)));
    JsonValue::object(members)
}

/// The response line for a malformed or unservable request.
pub fn error_response(job: usize, error: &str) -> JsonValue {
    let mut members = response_header(job, "error", "error");
    members.push(("error", JsonValue::string(error)));
    JsonValue::object(members)
}

/// The response line for a `stats` request.
pub fn stats_response(job: usize, stats: &ServiceStats) -> JsonValue {
    let cache = |c: crate::cache::CacheStats| {
        // Derived rate in basis points (integer — no float formatting drift):
        // 10000 * hits / lookups, 0 when the cache was never consulted.
        let lookups = c.hits + c.misses;
        let hit_rate_bp = (c.hits * 10_000).checked_div(lookups).unwrap_or(0);
        JsonValue::object([
            ("hits", JsonValue::Number(c.hits as f64)),
            ("misses", JsonValue::Number(c.misses as f64)),
            ("evictions", JsonValue::Number(c.evictions as f64)),
            ("entries", JsonValue::uint(c.entries)),
            ("lookups", JsonValue::Number(lookups as f64)),
            ("hit_rate_bp", JsonValue::Number(hit_rate_bp as f64)),
        ])
    };
    // The persistent store block is present only when a store is configured,
    // so memory-only deployments keep byte-identical stats lines.
    let store = stats.store.map(|s| {
        JsonValue::object([
            ("disk_hits", JsonValue::Number(s.disk_hits as f64)),
            ("disk_misses", JsonValue::Number(s.disk_misses as f64)),
            ("writes", JsonValue::Number(s.writes as f64)),
            ("corrupt_quarantined", JsonValue::Number(s.corrupt_quarantined as f64)),
            ("read_errors", JsonValue::Number(s.read_errors as f64)),
            ("write_errors", JsonValue::Number(s.write_errors as f64)),
            ("degraded_events", JsonValue::Number(s.degraded_events as f64)),
            ("recoveries", JsonValue::Number(s.recoveries as f64)),
            ("degraded", JsonValue::Bool(s.degraded)),
            ("app_entries", JsonValue::uint(s.app_entries)),
            ("env_entries", JsonValue::uint(s.env_entries)),
        ])
    });
    let mut body = vec![
        ("workers", JsonValue::uint(stats.workers)),
        ("tasks_executed", JsonValue::Number(stats.tasks_executed as f64)),
        ("submitted", JsonValue::Number(stats.submitted as f64)),
        ("coalesced", JsonValue::Number(stats.coalesced as f64)),
        ("rejected", JsonValue::Number(stats.rejected as f64)),
        ("cancelled", JsonValue::Number(stats.cancelled as f64)),
        ("timed_out", JsonValue::Number(stats.timed_out as f64)),
        ("quarantined", JsonValue::Number(stats.quarantined as f64)),
        ("faults", JsonValue::Number(stats.faults as f64)),
        ("draining", JsonValue::Bool(stats.draining)),
        ("pending", JsonValue::uint(stats.pending)),
        ("pending_peak", JsonValue::uint(stats.pending_peak)),
        ("registry_entries", JsonValue::uint(stats.registry_entries)),
        ("app_cache", cache(stats.app_cache)),
        ("env_cache", cache(stats.env_cache)),
    ];
    if let Some(store) = store {
        body.push(("store", store));
    }
    let mut members = response_header(job, "stats", "ok");
    members.push(("stats", JsonValue::object(body)));
    JsonValue::object(members)
}

/// The response line for a `faults` request: the retained fault log, oldest
/// first. `key` is the offending input's 32-hex content fingerprint — the same
/// value quarantine matches resubmissions against.
pub fn faults_response(job: usize, faults: &[FaultRecord]) -> JsonValue {
    let records: Vec<JsonValue> = faults
        .iter()
        .map(|f| {
            JsonValue::object([
                ("seq", JsonValue::Number(f.seq as f64)),
                ("name", JsonValue::string(f.name.clone())),
                ("key", JsonValue::string(f.key.to_string())),
                ("stage", JsonValue::string(f.stage)),
                ("kind", JsonValue::string(f.kind.as_str())),
                ("message", JsonValue::string(f.message.clone())),
                // Epoch-relative (process start) milliseconds; correlates the
                // fault with the spans of its owning trace.
                ("at_ms", JsonValue::Number(f.at_ns as f64 / 1e6)),
                ("trace", JsonValue::Number(f.trace as f64)),
            ])
        })
        .collect();
    let mut members = response_header(job, "faults", "ok");
    members.push(("faults", JsonValue::Array(records)));
    JsonValue::object(members)
}

/// The response line for a `metrics` request: the observability registry's
/// deterministic snapshot — counters as one name-sorted object, histograms as
/// an array of `{name, count, sum_ns, p50_ns, p90_ns, p99_ns, max_ns}` (the
/// power-of-two buckets are summarized by their integer quantiles, never
/// rendered raw). With tracing off both collections are empty but the shape
/// is identical.
pub fn metrics_response(job: usize, snapshot: &soteria_obs::MetricsSnapshot) -> JsonValue {
    let counters = JsonValue::Object(
        snapshot
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), JsonValue::Number(*value as f64)))
            .collect(),
    );
    let histograms: Vec<JsonValue> = snapshot
        .histograms
        .iter()
        .map(|h| {
            JsonValue::object([
                ("name", JsonValue::string(h.name.clone())),
                ("count", JsonValue::Number(h.count as f64)),
                ("sum_ns", JsonValue::Number(h.sum_ns as f64)),
                ("p50_ns", JsonValue::Number(h.p50_ns as f64)),
                ("p90_ns", JsonValue::Number(h.p90_ns as f64)),
                ("p99_ns", JsonValue::Number(h.p99_ns as f64)),
                ("max_ns", JsonValue::Number(h.max_ns as f64)),
            ])
        })
        .collect();
    let mut members = response_header(job, "metrics", "ok");
    members.push((
        "metrics",
        JsonValue::object([
            ("counters", counters),
            ("histograms", JsonValue::Array(histograms)),
        ]),
    ));
    JsonValue::object(members)
}

/// The response line for a `sync` request: how many in-flight jobs were waited
/// on before intake resumed.
pub fn sync_response(job: usize, settled: usize) -> JsonValue {
    let mut members = response_header(job, "sync", "ok");
    members.push(("settled", JsonValue::uint(settled)));
    JsonValue::object(members)
}

/// The response line for a `drain` request. `settled` counts every job the
/// drain report covers; the remaining counters partition it.
pub fn drain_response(job: usize, report: &DrainReport) -> JsonValue {
    let mut members = response_header(job, "drain", "ok");
    members.push((
        "drain",
        JsonValue::object([
            ("settled", JsonValue::uint(report.outcomes.len())),
            ("completed", JsonValue::uint(report.completed)),
            ("failed", JsonValue::uint(report.failed)),
            ("cancelled", JsonValue::uint(report.cancelled)),
            ("timed_out", JsonValue::uint(report.timed_out)),
            ("elapsed_ms", JsonValue::Number(report.elapsed.as_secs_f64() * 1e3)),
        ]),
    ));
    JsonValue::object(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escape_round_trips_sources() {
        let source = "def installed() {\n\tsubscribe(x, \"a\\b\", h)\r\n}";
        assert_eq!(unescape(&escape(source)).unwrap(), source);
        assert!(!escape(source).contains('\n'), "escaped text must be single-line");
    }

    #[test]
    fn parses_every_request_form() {
        assert_eq!(parse_request("").unwrap(), None);
        assert_eq!(parse_request("# comment").unwrap(), None);
        assert_eq!(
            parse_request("app wld inline:def x() {\\n}").unwrap(),
            Some(Request::App {
                name: "wld".into(),
                source: AppSource::Inline("def x() {\n}".into())
            })
        );
        assert_eq!(
            parse_request("app a path:/tmp/a.groovy").unwrap(),
            Some(Request::App { name: "a".into(), source: AppSource::Path("/tmp/a.groovy".into()) })
        );
        assert_eq!(
            parse_request("app s corpus:SmokeAlarm").unwrap(),
            Some(Request::App { name: "s".into(), source: AppSource::Corpus("SmokeAlarm".into()) })
        );
        assert_eq!(
            parse_request("env G a, b ,c").unwrap(),
            Some(Request::Environment {
                name: "G".into(),
                members: vec!["a".into(), "b".into(), "c".into()]
            })
        );
        assert_eq!(
            parse_request("update wld corpus:SmokeAlarm").unwrap(),
            Some(Request::Update {
                name: "wld".into(),
                source: AppSource::Corpus("SmokeAlarm".into())
            })
        );
        assert_eq!(
            parse_request("update wld inline:def x() {\\n}").unwrap(),
            Some(Request::Update {
                name: "wld".into(),
                source: AppSource::Inline("def x() {\n}".into())
            })
        );
        assert_eq!(
            parse_request("cancel wld").unwrap(),
            Some(Request::Cancel { name: "wld".into() })
        );
        assert_eq!(parse_request("stats").unwrap(), Some(Request::Stats));
        assert_eq!(parse_request("metrics").unwrap(), Some(Request::Metrics));
        assert_eq!(parse_request("faults").unwrap(), Some(Request::Faults));
        assert_eq!(parse_request("sync").unwrap(), Some(Request::Sync));
        assert_eq!(
            parse_request("drain").unwrap(),
            Some(Request::Drain { deadline_ms: None })
        );
        assert_eq!(
            parse_request("drain 250").unwrap(),
            Some(Request::Drain { deadline_ms: Some(250) })
        );
        // Separator runs collapse: doubled spaces and tabs parse identically.
        assert_eq!(
            parse_request("app  demo \t corpus:SmokeAlarm").unwrap(),
            parse_request("app demo corpus:SmokeAlarm").unwrap()
        );
        assert_eq!(
            parse_request("env  G  a,b").unwrap(),
            parse_request("env G a,b").unwrap()
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "app",
            "app name",
            "app name source-without-scheme",
            "app name file:/x",
            "env G",
            "env",
            "update",
            "update name",
            "update name source-without-scheme",
            "cancel",
            "cancel two names",
            "frobnicate x",
            "app n inline:bad\\q",
            "drain soon",
            "drain 5 extra",
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn cancelled_results_report_status_cancelled() {
        let result: AppResult = Err(JobError::Cancelled);
        let line = app_response(7, "wld", CacheDisposition::Miss, &result);
        assert_eq!(line.get("status").and_then(|v| v.as_str()), Some("cancelled"));
        assert_eq!(line.get("error").and_then(|v| v.as_str()), Some("cancelled"));
        let ok = cancel_response(8, "wld", true);
        assert_eq!(ok.get("kind").and_then(|v| v.as_str()), Some("cancel"));
        assert_eq!(ok.get("cancelled"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn update_responses_carry_the_environment_array() {
        let result: AppResult = Err(JobError::Cancelled);
        let envs = vec![(
            "G".to_string(),
            CacheDisposition::Miss,
            Err(JobError::MemberFailed { group: "G".into(), member: "wld".into() }),
        )];
        let line = update_response(3, "wld", CacheDisposition::Miss, &result, &envs);
        assert_eq!(line.get("kind").and_then(|v| v.as_str()), Some("update"));
        assert_eq!(line.get("status").and_then(|v| v.as_str()), Some("cancelled"));
        let groups = match line.get("environments") {
            Some(JsonValue::Array(groups)) => groups,
            other => panic!("expected environments array, got {other:?}"),
        };
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].get("name").and_then(|v| v.as_str()), Some("G"));
        assert_eq!(groups[0].get("status").and_then(|v| v.as_str()), Some("error"));
    }

    /// A deterministic generator over source-shaped strings: every character
    /// class `escape` treats specially (backslashes, the three escaped control
    /// characters) plus plain ASCII, other controls, and multi-byte unicode.
    struct SourceStrings;

    impl Strategy for SourceStrings {
        type Value = String;
        fn sample(&self, rng: &mut proptest::TestRng) -> String {
            let len = (rng.next_u64() % 64) as usize;
            (0..len)
                .map(|_| match rng.next_u64() % 8 {
                    0 => '\\',
                    1 => '\n',
                    2 => '\r',
                    3 => '\t',
                    4 => char::from(b' ' + (rng.next_u64() % 94) as u8),
                    5 => '"',
                    6 => '✓',
                    _ => char::from_u32(0x1F600 + (rng.next_u64() % 80) as u32).unwrap_or('x'),
                })
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `unescape ∘ escape` is the identity on arbitrary source text, and
        /// the escaped form never contains a raw newline (the framing invariant
        /// of the one-request-per-line protocol).
        #[test]
        fn escape_unescape_round_trips_arbitrary_sources(source in SourceStrings) {
            let escaped = escape(&source);
            prop_assert!(!escaped.contains('\n') && !escaped.contains('\r'));
            prop_assert_eq!(unescape(&escaped).unwrap(), source);
        }

        /// Appending an invalid escape to any escaped text makes `unescape`
        /// reject the whole line (never panic, never truncate silently).
        #[test]
        fn unescape_rejects_invalid_escapes(source in SourceStrings) {
            let mut bad = escape(&source);
            bad.push_str("\\q");
            prop_assert!(unescape(&bad).is_err());
            let mut dangling = escape(&source);
            dangling.push('\\');
            prop_assert!(unescape(&dangling).is_err());
        }
    }
}
