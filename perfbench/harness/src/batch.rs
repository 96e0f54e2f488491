//! The batch workloads (`market-batch`, `maliot-batch`): corpus sweeps through
//! the direct API at one analyzer thread.
//!
//! One iteration is a sweep (`analyze_apps`, then `analyze_environments`),
//! then the same phases the resident service serves, done the way a batch
//! user does them: seeded edits re-verified from scratch (the batch API keeps
//! no state), re-rendering each finished report (the work of a hit), and a
//! restore of the whole corpus from its store records (the work of a restart).

use crate::golden::Golden;
use crate::inputs::{combo_key, variant_key, EditStream, Inputs, EDITS_PER_ITERATION};
use crate::replay::{EnvPath, Replay};
use crate::report::{Outcome, TracedIteration};
use crate::Fingerprint;
use soteria::analysis::AnalysisConfig;
use soteria::{
    app_analysis_json, app_from_store_json, app_store_json, env_from_store_json, env_store_json,
    environment_json, AppAnalysis, EnvironmentAnalysis, JsonValue, Soteria,
};
use soteria_service::{frame_entry, parse_entry};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The batch analyzer: the paper's configuration at one thread.
pub fn analyzer() -> Soteria {
    Soteria::with_config(AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::paper()
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs a batch workload for `seconds` (at least one iteration).
pub fn run(
    inputs: &Inputs,
    golden: &Golden,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) {
    let soteria = analyzer();
    let mut edits = EditStream::new(inputs, seed);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut iterations = 0;
    while iterations == 0 || Instant::now() < deadline {
        iteration(&soteria, inputs, golden, &mut edits, trace, out);
        out.rss_mb
            .push(crate::vm_hwm_mb(std::process::id()).unwrap_or(f64::NAN));
        out.clock.calibrate_if_due();
        iterations += 1;
    }
}

fn iteration(
    soteria: &Soteria,
    inputs: &Inputs,
    golden: &Golden,
    edits: &mut EditStream,
    trace: bool,
    out: &mut Outcome,
) {
    let mut e2e = 0.0;
    // Sweep: every app, then every group.
    let apps: Vec<(&str, &str)> = inputs
        .apps
        .iter()
        .map(|(i, s)| (i.as_str(), s.as_str()))
        .collect();
    let started = Instant::now();
    let results = soteria.analyze_apps(&apps);
    let mut sweep = ms(started.elapsed());
    let mut analyses: BTreeMap<String, AppAnalysis> = BTreeMap::new();
    for ((id, _), result) in apps.iter().zip(results) {
        match result {
            Ok(a) => {
                out.check(golden.check("app", id, &a.violations));
                out.sample("app_cold_ms", ms(a.extraction_time + a.verification_time));
                analyses.insert(id.to_string(), a);
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("app {id}: {e}"));
            }
        }
    }
    if analyses.len() != apps.len() {
        return;
    }
    let members: Vec<(&str, Vec<AppAnalysis>)> = inputs
        .groups
        .iter()
        .map(|g| {
            (
                g.name.as_str(),
                g.members.iter().map(|m| analyses[m].clone()).collect(),
            )
        })
        .collect();
    let groups: Vec<(&str, &[AppAnalysis])> =
        members.iter().map(|(n, m)| (*n, m.as_slice())).collect();
    let started = Instant::now();
    let envs = soteria.analyze_environments(&groups);
    sweep += ms(started.elapsed());
    out.sample("sweep_ms", sweep);
    e2e += sweep;
    for env in &envs {
        out.check(golden.check("env", &env.name, &env.violations));
        if env.name == inputs.edit_group {
            out.sample("g3_cold_ms", ms(env.union_time + env.verification_time));
        }
    }

    // Edits: the edited app and every group containing it, from scratch.
    edits.reset();
    let mut current: BTreeMap<String, AppAnalysis> = BTreeMap::new();
    let mut edited: Vec<(&'static str, String, Fingerprint, Fingerprint)> = Vec::new();
    for _ in 0..EDITS_PER_ITERATION {
        let edit = edits.next_edit(inputs);
        let started = Instant::now();
        let app = soteria.analyze_app(edit.member, &edit.source);
        let Ok(app) = app else {
            out.attempted += 1;
            out.fail(format!("edit of {} does not parse", edit.member));
            continue;
        };
        let mut envs = Vec::new();
        for group in inputs
            .groups
            .iter()
            .filter(|g| g.members.iter().any(|m| m == edit.member))
        {
            let refs: Vec<&AppAnalysis> = group
                .members
                .iter()
                .map(|m| {
                    if m == edit.member {
                        &app
                    } else {
                        current.get(m).unwrap_or(&analyses[m])
                    }
                })
                .collect();
            envs.push(soteria.analyze_environment_refs(&group.name, &refs));
        }
        let took = ms(started.elapsed());
        out.sample("update_ms", took);
        e2e += took;
        out.check(golden.check("app", &variant_key(edit.member, edit.mask), &app.violations));
        for env in &envs {
            let key = if env.name == inputs.edit_group {
                combo_key(&env.name, &edit.combo)
            } else {
                env.name.clone()
            };
            out.check(golden.check("env", &key, &env.violations));
        }
        if let Some(env) = envs.iter().find(|e| e.name == inputs.edit_group) {
            edited.push((
                edit.member,
                edit.source,
                Fingerprint::app(&app),
                Fingerprint::env(env),
            ));
        }
        current.insert(edit.member.to_string(), app);
    }

    // Hits: each finished report rendered again.
    for a in analyses.values() {
        let started = Instant::now();
        let text = app_analysis_json(a).render();
        let took = ms(started.elapsed());
        out.sample("hit_ms", took);
        e2e += took;
        out.check(if text.is_empty() {
            Err("empty report".into())
        } else {
            Ok(())
        });
    }
    for env in &envs {
        let started = Instant::now();
        let text = environment_json(env).render();
        let took = ms(started.elapsed());
        out.sample("hit_ms", took);
        e2e += took;
        out.check(if text.is_empty() {
            Err("empty report".into())
        } else {
            Ok(())
        });
    }

    // Restart: store records written, then decoded and restored.
    let started = Instant::now();
    let app_records: Vec<Vec<u8>> = inputs
        .apps
        .iter()
        .map(|(id, source)| {
            frame_entry(
                app_store_json(id, source, &analyses[id])
                    .render()
                    .as_bytes(),
            )
        })
        .collect();
    let env_records: Vec<Vec<u8>> = envs
        .iter()
        .map(|e| frame_entry(env_store_json(e).render().as_bytes()))
        .collect();
    e2e += ms(started.elapsed());
    let started = Instant::now();
    let restored = restore(soteria, inputs, &app_records, &env_records);
    let took = ms(started.elapsed());
    out.sample("restart_ms", took);
    e2e += took;
    match restored {
        Some((apps, restored_envs)) => {
            for (id, _) in &inputs.apps {
                out.check(same_verdicts(
                    "app",
                    id,
                    &apps[id].violations,
                    &analyses[id].violations,
                ));
            }
            for (r, e) in restored_envs.iter().zip(&envs) {
                out.check(same_verdicts("env", &e.name, &r.violations, &e.violations));
            }
        }
        None => {
            out.attempted += 1;
            out.fail("store records do not restore".into());
        }
    }

    if trace {
        // Only fingerprints outlive production, so the replay starts from
        // the same heap state production did.
        let apps: BTreeMap<String, Fingerprint> = analyses
            .iter()
            .map(|(id, a)| (id.clone(), Fingerprint::app(a)))
            .collect();
        let groups: Vec<Fingerprint> = envs.iter().map(Fingerprint::env).collect();
        drop((analyses, members, envs, current));
        let traced = replay(soteria, inputs, &apps, &groups, &edited, e2e, out);
        out.traced(traced);
    }
}

fn restore(
    soteria: &Soteria,
    inputs: &Inputs,
    app_records: &[Vec<u8>],
    env_records: &[Vec<u8>],
) -> Option<(BTreeMap<String, AppAnalysis>, Vec<EnvironmentAnalysis>)> {
    let decode = |bytes: &[u8]| -> Option<JsonValue> {
        JsonValue::parse(std::str::from_utf8(parse_entry(bytes).ok()?).ok()?).ok()
    };
    let mut apps = BTreeMap::new();
    for ((id, _), bytes) in inputs.apps.iter().zip(app_records) {
        let stored = app_from_store_json(&decode(bytes)?)?;
        apps.insert(id.clone(), soteria.restore_app_analysis(stored).ok()?);
    }
    let mut envs = Vec::new();
    for (group, bytes) in inputs.groups.iter().zip(env_records) {
        let stored = env_from_store_json(&decode(bytes)?)?;
        let members: Vec<&AppAnalysis> = group.members.iter().map(|m| &apps[m]).collect();
        envs.push(soteria.restore_environment(stored, &members));
    }
    Some((apps, envs))
}

fn same_verdicts(
    kind: &str,
    key: &str,
    got: &[soteria::properties::Violation],
    want: &[soteria::properties::Violation],
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{kind} {key}: restored verdicts differ from the analysis"
        ))
    }
}

/// Replays the iteration's operations layer by layer and checks the replay
/// reproduces the production results.
fn replay(
    soteria: &Soteria,
    inputs: &Inputs,
    analyses: &BTreeMap<String, Fingerprint>,
    envs: &[Fingerprint],
    edited: &[(&'static str, String, Fingerprint, Fingerprint)],
    end_to_end_ms: f64,
    out: &mut Outcome,
) -> TracedIteration {
    let mut r = Replay::new(soteria);
    let mut replayed: BTreeMap<String, AppAnalysis> = BTreeMap::new();
    for (id, source) in &inputs.apps {
        match r.app(id, source) {
            Ok(a) => {
                out.check(analyses[id].check(id, &Fingerprint::app(&a)));
                replayed.insert(id.clone(), a);
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("replay of {id}: {e}"));
                return TracedIteration {
                    ledger: r.ledger,
                    end_to_end_ms,
                    replay_ms: r.wall_ms,
                };
            }
        }
    }
    let mut replayed_envs = Vec::new();
    for (group, env) in inputs.groups.iter().zip(envs) {
        let refs: Vec<&AppAnalysis> = group.members.iter().map(|m| &replayed[m]).collect();
        let e = r.env(&group.name, &refs, EnvPath::Batch).analysis;
        out.check(env.check(&group.name, &Fingerprint::env(&e)));
        replayed_envs.push(e);
    }
    let mut current: BTreeMap<String, AppAnalysis> = BTreeMap::new();
    for (member, source, app, env) in edited {
        let Ok(a) = r.app(member, source) else {
            continue;
        };
        out.check(app.check(member, &Fingerprint::app(&a)));
        let group = inputs.group(&inputs.edit_group);
        let refs: Vec<&AppAnalysis> = group
            .members
            .iter()
            .map(|m| {
                if m == member {
                    &a
                } else {
                    current.get(m).unwrap_or(&replayed[m])
                }
            })
            .collect();
        let e = r.env(&group.name, &refs, EnvPath::Batch).analysis;
        out.check(env.check(&group.name, &Fingerprint::env(&e)));
        current.insert(member.to_string(), a);
    }
    for (i, a) in replayed.values().enumerate() {
        let report = r.app_report(a);
        r.render_response(i, "app", &a.ir.name, "hit", report, None);
    }
    for (i, e) in replayed_envs.iter().enumerate() {
        let report = r.env_report(e);
        r.render_response(i, "env", &e.name, "hit", report, None);
    }
    let app_records: Vec<Vec<u8>> = inputs
        .apps
        .iter()
        .map(|(id, source)| r.encode_app(id, source, &replayed[id]))
        .collect();
    let env_records: Vec<Vec<u8>> = replayed_envs.iter().map(|e| r.encode_env(e)).collect();
    let mut restored: BTreeMap<String, AppAnalysis> = BTreeMap::new();
    for ((id, _), bytes) in inputs.apps.iter().zip(&app_records) {
        if let Some(a) = r.decode_app(bytes).and_then(|s| r.restore_app(s).ok()) {
            restored.insert(id.clone(), a);
        }
    }
    for (group, bytes) in inputs.groups.iter().zip(&env_records) {
        let Some(stored) = r.decode_env(bytes) else {
            continue;
        };
        if group.members.iter().all(|m| restored.contains_key(m)) {
            let members: Vec<&AppAnalysis> = group.members.iter().map(|m| &restored[m]).collect();
            r.restore_env(stored, &members);
        }
    }
    TracedIteration {
        ledger: r.ledger,
        end_to_end_ms,
        replay_ms: r.wall_ms,
    }
}
