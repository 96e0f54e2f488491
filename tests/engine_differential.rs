//! Differential fuzzing of the invariant search against the CTL engine: on
//! random Kripke structures and random invariants, `check_invariants` must
//! return exactly the `CheckResult`s (verdicts, violating-state counts and
//! counterexample traces) of `ModelChecker`, the one general CTL engine and the
//! search's oracle. The same agreement is pinned along app-level edit chains,
//! where each rebuilt union is also checked against the seed union oracle, and
//! on the corpus: the full P.1–P.30 sweep of the running examples and the
//! MalIoT suite, and every TP21/TP22 edit variant of market G.3. The search
//! runs on the reachable fragment production checks; the engine runs on the
//! full structure with the default initial state.

use proptest::prelude::*;
use proptest::TestRng;
use soteria::{default_initial_kripke, AppAnalysis, Soteria};
use soteria_bench::{analyze_all, g3_variant_source};
use soteria_checker::{check_invariants, Ctl, Kripke, ModelChecker};
use soteria_corpus::{all_market_apps, maliot_groups, maliot_suite, market_groups, running};
use soteria_model::legacy::union_models_legacy;
use soteria_model::{union_models, StateModel, UnionOptions};
use soteria_properties::{applicable_properties, formula, AppUnderTest, DeviceContext};

const ATOMS: [&str; 4] = ["p", "q", "r", "s"];

/// A random structure: `n` states, 0–3 successors each (deadlocks are allowed —
/// `Kripke::from_lists` totalises them), random labelling over four atoms, and
/// one random initial state.
fn random_kripke(n: usize, rng: &mut TestRng) -> Kripke {
    let successor_lists: Vec<Vec<usize>> = (0..n)
        .map(|_| {
            let degree = (rng.next_u64() % 4) as usize;
            (0..degree).map(|_| (rng.next_u64() as usize) % n).collect()
        })
        .collect();
    let initial = vec![(rng.next_u64() as usize) % n];
    let labels: Vec<Vec<usize>> = (0..n)
        .map(|_| (0..ATOMS.len()).filter(|_| rng.next_u64().is_multiple_of(2)).collect())
        .collect();
    let names: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
    let mut kripke = Kripke::from_lists(
        ATOMS.iter().map(|a| a.to_string()).collect(),
        names,
        &successor_lists,
        initial,
    );
    kripke.set_labels(&labels);
    kripke
}

/// Builds a random propositional formula of bounded depth covering every
/// connective an invariant body may use.
fn random_body(depth: usize, rng: &mut TestRng) -> Ctl {
    if depth == 0 {
        return match rng.next_u64() % 6 {
            0 => Ctl::True,
            1 => Ctl::False,
            _ => Ctl::atom(ATOMS[(rng.next_u64() as usize) % ATOMS.len()]),
        };
    }
    let sub = |rng: &mut TestRng| Box::new(random_body(depth - 1, rng));
    match rng.next_u64() % 5 {
        0 => Ctl::Not(sub(rng)),
        1 => Ctl::And(sub(rng), sub(rng)),
        2 => Ctl::Or(sub(rng), sub(rng)),
        3 => Ctl::Implies(sub(rng), sub(rng)),
        _ => random_body(0, rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The search and the CTL engine agree — verdicts, violating-state counts
    /// and counterexample traces — on arbitrary structures and invariants.
    #[test]
    // The state-count range straddles one bitset word (64 states), so both
    // single-word and multi-word sets are exercised.
    fn engines_agree_on_random_structures((n, seed) in (1usize..160, 0usize..1_000_000)) {
        let mut rng = TestRng::deterministic();
        // Re-seed deterministically per case so structures vary across cases.
        for _ in 0..(seed % 97) {
            rng.next_u64();
        }
        let kripke = random_kripke(n, &mut rng);
        let formulas: Vec<Ctl> =
            (0..8).map(|_| random_body(3, &mut rng).always_globally()).collect();
        let searched = check_invariants(&kripke, &formulas);
        let checker = ModelChecker::new(&kripke);
        for (f, got) in formulas.iter().zip(&searched) {
            prop_assert_eq!(got, &checker.check(f), "search vs engine on {} (n={})", f, n);
        }
    }
}

/// A tiny app over fixed devices whose handler behaviour is one of four
/// variants — so an "edit" changes one member's transitions while its
/// attribute domains stay put or, when the variant drops a device action,
/// shrinks them.
fn member_source(name: &str, variant: u64) -> String {
    let body = match variant % 4 {
        0 => "valve_device.close()",
        1 => "valve_device.open()",
        2 => "sw.on()",
        _ => "sw.off()",
    };
    format!(
        r#"
        definition(name: "{name}")
        preferences {{ section("d") {{
            input "water_sensor", "capability.waterSensor"
            input "valve_device", "capability.valve"
            input "sw", "capability.switch"
        }} }}
        def installed() {{ subscribe(water_sensor, "water.wet", h) }}
        def h(evt) {{ {body} }}
        "#
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// App-level edit-sequence fuzz: random chains of single-member edits over a
    /// three-app group. At every step the union must be byte-identical to the
    /// seed oracle `union_models_legacy`, and the group's property sweep must
    /// return identical `CheckResult`s from the search and the CTL engine.
    #[test]
    fn delta_unions_and_incremental_verdicts_survive_random_edit_chains(
        seed in 0usize..1_000_000
    ) {
        let mut rng = TestRng::deterministic();
        for _ in 0..(seed % 71) {
            rng.next_u64();
        }
        let soteria = Soteria::new();
        let mut variants: Vec<u64> =
            (0..3).map(|_| rng.next_u64()).collect();
        let names = ["Member-A", "Member-B", "Member-C"];
        let mut analyses: Vec<AppAnalysis> = names
            .iter()
            .zip(&variants)
            .map(|(name, v)| {
                soteria.analyze_app(name, &member_source(name, *v)).expect("parses")
            })
            .collect();
        for step in 0..3 {
            let idx = (rng.next_u64() as usize) % names.len();
            variants[idx] = rng.next_u64();
            analyses[idx] = soteria
                .analyze_app(names[idx], &member_source(names[idx], variants[idx]))
                .expect("parses");

            // The scratch union alone: byte-identical to the seed oracle.
            let models: Vec<&soteria_model::StateModel> =
                analyses.iter().map(|a| &a.model).collect();
            let options = UnionOptions::default();
            let scratch_union = union_models("G", &models, &options);
            let legacy_union = union_models_legacy("G", &models, &options);
            prop_assert_eq!(
                &scratch_union.transitions, &legacy_union.transitions,
                "union diverges from the seed oracle at step {} (member {})", step, idx
            );
            prop_assert_eq!(&scratch_union.attributes, &legacy_union.attributes);

            // The group's property sweep: the search against the CTL engine.
            let refs: Vec<&AppAnalysis> = analyses.iter().collect();
            let (model, formulas) = property_sweep("G", &refs);
            prop_assert!(!formulas.is_empty(), "the group has checkable properties");
            assert_search_matches_engine(&format!("step {step}"), &model, &formulas);
        }
    }
}

/// The model and formulas the analyzer's property sweep checks for a set of
/// members: the member's own model (one member) or their union, and every
/// applicable non-trivial P.1–P.30 formula over their combined devices.
fn property_sweep(name: &str, members: &[&AppAnalysis]) -> (StateModel, Vec<Ctl>) {
    let under_test: Vec<AppUnderTest<'_>> = members
        .iter()
        .map(|a| AppUnderTest {
            name: &a.ir.name,
            ir: &a.ir,
            specs: &a.specs,
            summaries: &a.summaries,
        })
        .collect();
    let ctx = DeviceContext::from_apps(&under_test);
    let formulas: Vec<Ctl> = applicable_properties(&ctx)
        .into_iter()
        .filter_map(|id| formula(id, &ctx))
        .filter(|f| *f != Ctl::True)
        .collect();
    let model = match members {
        [app] => app.model.clone(),
        _ => {
            let models: Vec<&StateModel> = members.iter().map(|a| &a.model).collect();
            union_models(name, &models, &UnionOptions::default())
        }
    };
    (model, formulas)
}

/// The production check, `check_invariants` on the reachable fragment, returns
/// the `CheckResult`s of `ModelChecker` on the default-initial full structure.
fn assert_search_matches_engine(context: &str, model: &StateModel, formulas: &[Ctl]) {
    let searched = check_invariants(&Kripke::reachable_from_state_model(model), formulas);
    let full = default_initial_kripke(model);
    let checker = ModelChecker::new(&full);
    for (f, got) in formulas.iter().zip(&searched) {
        assert_eq!(got, &checker.check(f), "{context}: search vs engine on {f}");
    }
}

/// The search and the CTL engine return identical `CheckResult`s (verdict,
/// violating-state count and counterexample) on the full applicable property
/// sweep of every running example, every MalIoT app and every MalIoT group.
#[test]
fn engines_agree_on_the_corpus_property_sweeps() {
    let soteria = Soteria::new();
    let mut sweeps: Vec<(String, StateModel, Vec<Ctl>)> = Vec::new();
    for (name, source) in [
        ("Water-Leak-Detector", running::WATER_LEAK_DETECTOR),
        ("Smoke-Alarm", running::SMOKE_ALARM),
        ("Thermostat-Energy-Control", running::THERMOSTAT_ENERGY_CONTROL),
        ("Buggy-Smoke-Alarm", running::BUGGY_SMOKE_ALARM),
    ] {
        let analysis = soteria.analyze_app(name, source).expect("running example parses");
        let (model, formulas) = property_sweep(name, &[&analysis]);
        sweeps.push((name.to_string(), model, formulas));
    }
    let maliot = maliot_suite();
    let analyses = analyze_all(&soteria, &maliot);
    for analysis in &analyses {
        let (model, formulas) = property_sweep(&analysis.ir.name, &[analysis]);
        sweeps.push((analysis.ir.name.clone(), model, formulas));
    }
    for (group, members, _) in maliot_groups() {
        let members: Vec<&AppAnalysis> = members
            .iter()
            .map(|id| &analyses[maliot.iter().position(|a| a.id == *id).expect("member")])
            .collect();
        let (model, formulas) = property_sweep(group, &members);
        sweeps.push((group.to_string(), model, formulas));
    }
    assert_eq!(sweeps.len(), 4 + 17 + 3);
    for (name, model, formulas) in &sweeps {
        assert_search_matches_engine(name, model, formulas);
    }
}

/// The property sweep of market G.3 with every TP21/TP22 edit variant the
/// benchmark's update stream reaches (the two TP21 variants times the four TP22
/// ones, the shipped sources included): the search and the CTL engine return
/// identical `CheckResult`s on every formula.
#[test]
fn g3_incremental_reverification_matches_scratch() {
    let soteria = Soteria::new();
    let market = all_market_apps();
    let g3 = market_groups().into_iter().find(|g| g.id == "G.3").expect("G.3");
    let source_of = |id: &str| &market.iter().find(|a| a.id == id).expect("member").source;
    let mut members: Vec<AppAnalysis> = g3
        .members
        .iter()
        .map(|id| soteria.analyze_app(id, source_of(id)).expect("member parses"))
        .collect();
    let index_of = |member: &str| g3.members.iter().position(|m| *m == member).expect("member");
    let variant = |member: &str, mask: u32| {
        let source = g3_variant_source(member, source_of(member), mask);
        soteria.analyze_app(member, &source).expect("edit parses")
    };
    for tp21 in 0..2 {
        members[index_of("TP21")] = variant("TP21", tp21);
        for tp22 in 0..4 {
            members[index_of("TP22")] = variant("TP22", tp22);
            let refs: Vec<&AppAnalysis> = members.iter().collect();
            let (model, formulas) = property_sweep("G.3", &refs);
            assert!(!formulas.is_empty(), "G.3 has checkable properties");
            assert_search_matches_engine(&format!("TP21#{tp21}, TP22#{tp22}"), &model, &formulas);
        }
    }
}
