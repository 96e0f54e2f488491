//! Replay equivalence: the layer-by-layer replay the ledger times must
//! produce what the production calls produce (equal union transitions, a
//! Kripke structure struct-equal to `default_initial_kripke`, equal verdict
//! lists, and equal report, response and store bytes). Run with
//! `cargo test --release` from this package; debug builds take minutes on G.3.

use soteria::{
    app_analysis_json, default_initial_kripke, environment_json, AppAnalysis, EnvironmentAnalysis,
};
use soteria_perfbench::batch::analyzer;
use soteria_perfbench::inputs::{Combo, Corpus, EditStream, Inputs};
use soteria_perfbench::replay::{EnvPath, EnvReplay, Replay};
use soteria_service::protocol::{app_response, env_response};
use soteria_service::CacheDisposition;
use std::collections::BTreeMap;
use std::sync::Arc;

fn assert_same_app(replayed: &AppAnalysis, production: &AppAnalysis) {
    let name = &production.ir.name;
    assert_eq!(
        replayed.violations, production.violations,
        "{name}: verdicts"
    );
    assert_eq!(
        replayed.model.transitions, production.model.transitions,
        "{name}: transitions"
    );
    assert_eq!(
        replayed.model.initial, production.model.initial,
        "{name}: initial state"
    );
    assert_eq!(
        replayed.specs.len(),
        production.specs.len(),
        "{name}: specs"
    );
    assert_eq!(
        replayed.states_before_reduction,
        production.states_before_reduction
    );
}

fn assert_same_env(replayed: &EnvReplay, production: &EnvironmentAnalysis) {
    let name = &production.name;
    let env = &replayed.analysis;
    assert_eq!(
        env.union_model.transitions, production.union_model.transitions,
        "{name}: union"
    );
    assert_eq!(
        env.union_model.attributes, production.union_model.attributes,
        "{name}: attributes"
    );
    assert_eq!(env.violations, production.violations, "{name}: verdicts");
    assert_eq!(env.app_names, production.app_names, "{name}: members");
    if let Some(kripke) = &replayed.kripke {
        assert!(
            **kripke == default_initial_kripke(&production.union_model),
            "{name}: the replayed Kripke structure differs from default_initial_kripke"
        );
    }
}

fn analyses(inputs: &Inputs) -> BTreeMap<String, AppAnalysis> {
    let soteria = analyzer();
    inputs
        .apps
        .iter()
        .map(|(id, source)| {
            (
                id.clone(),
                soteria.analyze_app(id, source).expect("corpus parses"),
            )
        })
        .collect()
}

#[test]
fn app_replay_matches_analyze_app_on_both_corpora() {
    let soteria = analyzer();
    for corpus in [Corpus::Maliot, Corpus::Market] {
        let inputs = Inputs::new(corpus, 0);
        let production = analyses(&inputs);
        let mut replay = Replay::new(&soteria);
        for (id, source) in &inputs.apps {
            let replayed = replay.app(id, source).expect("corpus parses");
            assert_same_app(&replayed, &production[id]);
            // The service's report, response and store steps, byte for byte.
            let report = replay.app_report(&replayed);
            let strip = |r: soteria::JsonValue| {
                r.without("extraction_ms")
                    .without("verification_ms")
                    .render()
            };
            assert_eq!(
                strip(report.clone()),
                strip(app_analysis_json(&production[id])),
                "{id}: report"
            );
            let line = replay.render_response(3, "app", id, "miss", report, None);
            let want = app_response(
                3,
                id,
                CacheDisposition::Miss,
                &Ok(Arc::new(replayed.clone())),
            );
            assert_eq!(line, want.render(), "{id}: response line");
            let record = replay.encode_app(id, source, &replayed);
            let stored = replay.decode_app(&record).expect("record decodes");
            let restored = replay.restore_app(stored).expect("record restores");
            assert_eq!(
                restored.violations, replayed.violations,
                "{id}: restored verdicts"
            );
        }
        assert!(replay.ledger.ms.contains_key("lang.parse_ms"));
    }
}

#[test]
fn batch_and_snapshot_env_replays_match_production() {
    let soteria = analyzer();
    for corpus in [Corpus::Maliot, Corpus::Market] {
        let inputs = Inputs::new(corpus, 0);
        let production = analyses(&inputs);
        let mut replay = Replay::new(&soteria);
        for group in &inputs.groups {
            let members: Vec<&AppAnalysis> = group.members.iter().map(|m| &production[m]).collect();
            let batch = soteria.analyze_environment_refs(&group.name, &members);
            let replayed = replay.env(&group.name, &members, EnvPath::Batch);
            assert_same_env(&replayed, &batch);
            let (cold, snapshot) = soteria.analyze_environment_with_snapshot(&group.name, &members);
            let replayed = replay.env(&group.name, &members, EnvPath::Snapshot);
            assert_same_env(&replayed, &cold);
            assert_eq!(
                replayed.snapshot.is_some(),
                snapshot.is_some(),
                "{}: snapshot",
                group.name
            );
            let report = replay_env_report(&mut replay, &replayed.analysis);
            let line = replay.render_response(1, "env", &group.name, "miss", report, None);
            let want = env_response(
                1,
                &group.name,
                CacheDisposition::Miss,
                &Ok(Arc::new(replayed.analysis.clone())),
            );
            assert_eq!(line, want.render(), "{}: response line", group.name);
            let record = replay.encode_env(&replayed.analysis);
            let stored = replay.decode_env(&record).expect("record decodes");
            let restored = replay.restore_env(stored, &members);
            assert_eq!(
                restored.union_model.transitions,
                batch.union_model.transitions
            );
            assert_eq!(restored.violations, batch.violations);
        }
    }
}

fn replay_env_report(replay: &mut Replay<'_>, env: &EnvironmentAnalysis) -> soteria::JsonValue {
    let report = replay.env_report(env);
    assert_eq!(report.render(), environment_json(env).render());
    report
}

/// The incremental path over a seeded edit stream: model-changing edits
/// (delta union, delta Kripke) and nonce-only ones (structure and sat-set
/// reuse), each checked against `analyze_environment_incremental` and, for
/// the verdicts, against a scratch analysis.
#[test]
fn incremental_env_replay_matches_production_over_an_edit_stream() {
    let soteria = analyzer();
    for corpus in [Corpus::Maliot, Corpus::Market] {
        let inputs = Inputs::new(corpus, 0);
        let production = analyses(&inputs);
        let group = inputs.group(&inputs.edit_group).clone();
        let mut current: BTreeMap<String, AppAnalysis> = group
            .members
            .iter()
            .map(|m| (m.clone(), production[m].clone()))
            .collect();
        let members = |current: &BTreeMap<String, AppAnalysis>| -> Vec<AppAnalysis> {
            group.members.iter().map(|m| current[m].clone()).collect()
        };
        let start = members(&current);
        let refs: Vec<&AppAnalysis> = start.iter().collect();
        let (mut base, snapshot) = soteria.analyze_environment_with_snapshot(&group.name, &refs);
        let mut snapshot = snapshot.expect("the edit group has checkable properties");
        let mut replay = Replay::new(&soteria);
        let mut stream = EditStream::new(&inputs, 7);
        let mut last: Combo = stream.combo().clone();
        for _ in 0..6 {
            let edit = stream.next_edit(&inputs);
            let changed = group
                .members
                .iter()
                .position(|m| m == edit.member)
                .expect("member");
            let app = soteria
                .analyze_app(edit.member, &edit.source)
                .expect("edit parses");
            current.insert(edit.member.to_string(), app);
            let now = members(&current);
            let refs: Vec<&AppAnalysis> = now.iter().collect();
            let (env, next) = soteria.analyze_environment_incremental(
                &group.name,
                &refs,
                &base,
                &snapshot,
                changed,
            );
            let hits = |r: &Replay<'_>| r.ledger.counts.get("checker.kripke_delta_hits").copied();
            let before = hits(&replay);
            let replayed = replay.env(
                &group.name,
                &refs,
                EnvPath::Incremental {
                    base: &base,
                    snapshot: &snapshot,
                    changed,
                },
            );
            assert_same_env(&replayed, &env);
            let scratch = soteria.analyze_environment_refs(&group.name, &refs);
            assert_eq!(
                env.violations, scratch.violations,
                "incremental verdicts drift from scratch"
            );
            if edit.combo == last {
                assert!(
                    hits(&replay) > before,
                    "a nonce-only edit reuses the base structure"
                );
            }
            last = edit.combo.clone();
            base = env;
            snapshot = next.expect("incremental runs export a snapshot");
        }
        let counts = &replay.ledger.counts;
        assert_eq!(
            counts.get("model.union_delta_hits"),
            counts.get("model.union_delta_attempts")
        );
        assert!(
            replay.ledger.ms.contains_key("checker.check_reuse_ms"),
            "sat-set reuse never ran"
        );
    }
}
