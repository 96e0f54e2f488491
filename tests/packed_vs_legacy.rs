//! Differential tests: the packed (interned-schema) model-construction fast paths
//! must be semantically identical to the preserved seed implementations in
//! `soteria_model::legacy` — same state spaces, same transition sets, and the same
//! model-checking verdicts — on the running examples, the MalIoT ground-truth apps,
//! the market interaction groups and G.3's benchmark edit variants.

use soteria::default_initial_kripke;
use soteria_analysis::{abstract_domains, AnalysisConfig, SymbolicExecutor};
use soteria_bench::g3_variant_source;
use soteria_capability::CapabilityRegistry;
use soteria_checker::{Ctl, ModelChecker};
use soteria_corpus::{all_market_apps, maliot_suite, market_groups, running};
use soteria_ir::AppIr;
use soteria_model::legacy::{build_state_model_legacy, union_models_legacy};
use soteria_model::{
    build_state_model, union_models, BuildOptions, StateModel, UnionOptions,
};

/// Builds the packed and legacy models of one app from the identical analysis inputs.
fn both_models(name: &str, source: &str) -> (StateModel, StateModel) {
    let registry = CapabilityRegistry::standard();
    let ir = AppIr::from_source(name, source, &registry).expect("app parses");
    let exec = SymbolicExecutor::new(&ir, &registry, AnalysisConfig::paper());
    let specs = exec.transition_specs();
    let abstraction = abstract_domains(&ir, &registry, &specs);
    let options = BuildOptions::default();
    let packed = build_state_model(&ir.name, &abstraction, &specs, &options);
    let legacy = build_state_model_legacy(&ir.name, &abstraction, &specs, &options);
    (packed, legacy)
}

/// Asserts full structural agreement between a packed-path and a legacy-path model.
fn assert_models_agree(context: &str, packed: &StateModel, legacy: &StateModel) {
    assert_eq!(packed.name, legacy.name, "{context}: names differ");
    assert_eq!(packed.attributes, legacy.attributes, "{context}: attribute domains differ");
    assert_eq!(
        packed.state_count(),
        legacy.state_count(),
        "{context}: state counts differ"
    );
    assert_eq!(packed.states(), legacy.states(), "{context}: state enumerations differ");
    assert_eq!(packed.initial, legacy.initial, "{context}: initial states differ");
    assert_eq!(
        packed.transitions, legacy.transitions,
        "{context}: transition sets differ (packed {} vs legacy {})",
        packed.transition_count(),
        legacy.transition_count()
    );
}

/// Asserts the two models produce identical model-checking verdicts on a family of
/// formulas drawn from the Kripke structure's own atom universe.
fn assert_verdicts_agree(context: &str, packed: &StateModel, legacy: &StateModel) {
    let pk = default_initial_kripke(packed);
    let lk = default_initial_kripke(legacy);
    assert_eq!(pk.state_count(), lk.state_count(), "{context}: Kripke sizes differ");
    let mut formulas = vec![
        Ctl::atom("triggered").exists_finally(),
        Ctl::atom("triggered").not().always_globally(),
        Ctl::Af(Box::new(Ctl::atom("triggered"))),
    ];
    let mut atoms: Vec<String> = pk.atoms.clone();
    atoms.sort();
    for atom in atoms.into_iter().take(8) {
        formulas.push(Ctl::atom(atom.clone()).exists_finally());
        formulas.push(Ctl::atom(atom).always_globally());
    }
    for formula in formulas {
        let p = ModelChecker::new(&pk).check(&formula);
        let l = ModelChecker::new(&lk).check(&formula);
        assert_eq!(p, l, "{context}: verdicts differ on {formula}");
    }
}

#[test]
fn running_examples_packed_matches_legacy() {
    for (name, source) in [
        ("Water-Leak-Detector", running::WATER_LEAK_DETECTOR),
        ("Smoke-Alarm", running::SMOKE_ALARM),
        ("Thermostat-Energy-Control", running::THERMOSTAT_ENERGY_CONTROL),
        ("Buggy-Smoke-Alarm", running::BUGGY_SMOKE_ALARM),
    ] {
        let (packed, legacy) = both_models(name, source);
        assert_models_agree(name, &packed, &legacy);
        assert_verdicts_agree(name, &packed, &legacy);
    }
}

#[test]
fn maliot_apps_packed_matches_legacy() {
    for app in maliot_suite() {
        let (packed, legacy) = both_models(&app.id, &app.source);
        assert_models_agree(&app.id, &packed, &legacy);
        assert_verdicts_agree(&app.id, &packed, &legacy);
    }
}

#[test]
fn market_apps_packed_matches_legacy() {
    // The full 65-app sweep runs in the corpus tests; here a deterministic sample
    // keeps the differential suite fast while covering both corpus halves.
    for app in all_market_apps().into_iter().step_by(7) {
        let (packed, legacy) = both_models(&app.id, &app.source);
        assert_models_agree(&app.id, &packed, &legacy);
    }
}

#[test]
fn union_of_running_examples_packed_matches_legacy() {
    let apps = [
        ("Water-Leak-Detector", running::WATER_LEAK_DETECTOR),
        ("Smoke-Alarm", running::SMOKE_ALARM),
        ("Thermostat-Energy-Control", running::THERMOSTAT_ENERGY_CONTROL),
    ];
    let models: Vec<StateModel> =
        apps.iter().map(|(n, s)| both_models(n, s).0).collect();
    let refs: Vec<&StateModel> = models.iter().collect();
    let options = UnionOptions::default();
    let packed = union_models("running", &refs, &options);
    let legacy = union_models_legacy("running", &refs, &options);
    assert_models_agree("running-union", &packed, &legacy);
    assert_verdicts_agree("running-union", &packed, &legacy);
}

#[test]
fn union_without_pruning_packed_matches_legacy() {
    let apps = [
        ("Water-Leak-Detector", running::WATER_LEAK_DETECTOR),
        ("Smoke-Alarm", running::SMOKE_ALARM),
    ];
    let models: Vec<StateModel> =
        apps.iter().map(|(n, s)| both_models(n, s).0).collect();
    let refs: Vec<&StateModel> = models.iter().collect();
    let options = UnionOptions { prune_untouched_attributes: false, ..UnionOptions::default() };
    let packed = union_models("running-full", &refs, &options);
    let legacy = union_models_legacy("running-full", &refs, &options);
    assert_models_agree("running-union-unpruned", &packed, &legacy);
}

#[test]
fn market_group_unions_packed_matches_legacy() {
    let corpus = all_market_apps();
    for group in market_groups() {
        let models: Vec<StateModel> = group
            .members
            .iter()
            .map(|id| {
                let app = corpus.iter().find(|a| &a.id == id).expect("member exists");
                both_models(&app.id, &app.source).0
            })
            .collect();
        let refs: Vec<&StateModel> = models.iter().collect();
        let options = UnionOptions::default();
        let packed = union_models(group.id, &refs, &options);
        let legacy = union_models_legacy(group.id, &refs, &options);
        assert_models_agree(group.id, &packed, &legacy);
        assert_verdicts_agree(group.id, &packed, &legacy);
    }
}

#[test]
fn g3_edit_variant_unions_packed_matches_legacy() {
    // The single-member G.3 edits the `serve-edit` updates submit: TP21#1,
    // TP22#1, TP22#2 and TP22#3, each with the other members as shipped.
    let corpus = all_market_apps();
    let g3 = market_groups().into_iter().find(|g| g.id == "G.3").expect("G.3");
    let source_of = |id: &str| &corpus.iter().find(|a| a.id == id).expect("member").source;
    let originals: Vec<StateModel> =
        g3.members.iter().map(|id| both_models(id, source_of(id)).0).collect();
    for (member, mask) in [("TP21", 1), ("TP22", 1), ("TP22", 2), ("TP22", 3)] {
        let idx = g3.members.iter().position(|m| *m == member).expect("member in G.3");
        let edited = both_models(member, &g3_variant_source(member, source_of(member), mask)).0;
        let mut refs: Vec<&StateModel> = originals.iter().collect();
        refs[idx] = &edited;
        let options = UnionOptions::default();
        let packed = union_models("G.3", &refs, &options);
        let legacy = union_models_legacy("G.3", &refs, &options);
        assert_models_agree(&format!("G.3 with {member}#{mask}"), &packed, &legacy);
    }
}

#[test]
fn legacy_models_survive_packed_union_and_vice_versa() {
    // Mixing the two construction paths must not matter: a legacy-built model's
    // schema is identical, so the packed union over legacy inputs agrees too.
    let (packed_a, legacy_a) = both_models("Water-Leak-Detector", running::WATER_LEAK_DETECTOR);
    let (packed_b, legacy_b) = both_models("Smoke-Alarm", running::SMOKE_ALARM);
    let options = UnionOptions::default();
    let from_packed = union_models("mix", &[&packed_a, &packed_b], &options);
    let from_legacy = union_models("mix", &[&legacy_a, &legacy_b], &options);
    assert_models_agree("mixed-inputs", &from_packed, &from_legacy);
}
