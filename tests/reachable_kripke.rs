//! The reachable Kripke fragment against the full structure.
//!
//! Production checks build only the part of a model's Kripke structure that the
//! default initial state reaches (`Kripke::reachable_from_state_model`) and
//! search it with `check_invariants`. The fragment must be the full structure's
//! reachable part renumbered in ascending order, and every `CheckResult` the
//! search returns on it, counterexample traces included, must equal the CTL
//! engine's (`ModelChecker`) on the full structure with the same initial state,
//! as the independent reference builder (`kripke::reference`) builds it. This
//! is the one gate between the production check and its oracle. It runs on
//! every applicable property formula of every corpus app and group, every G.3
//! TP21/TP22 edit variant and the reflection-free re-check models, and on
//! random invariants over every atom of random hand-built models. Every
//! formula the analyzer checks is pinned to the invariant shape the search
//! accepts. The model layer's source index, linear reachability and DOT
//! rendering are checked against the quadratic definitions they replaced.
//!
//! Environments are not checked on a lifted union: the analyzer compiles the
//! members (`compile_union`) and explores their edges
//! (`Kripke::reachable_from_union`). The explorer gate holds that structure
//! to the same reference part of `union_models`, with equal check results, on
//! every group, G.3 variant and re-check member set above, an ad-hoc group
//! around MalIoT App5, and random members with pruned attributes and
//! repeated names.

use proptest::prelude::*;
use soteria::{IngestedApp, Soteria};
use soteria_analysis::{PathCondition, TransitionSpec};
use soteria_bench::{g3_variant_source, G3_EDIT_TOGGLES};
use soteria_capability::{AttributeValue, Event, EventKind};
use soteria_checker::kripke::reference;
use soteria_checker::{check_invariants, Ctl, Kripke, ModelChecker};
use soteria_corpus::{
    all_market_apps, maliot_groups, maliot_suite, market_groups, running_apps, CorpusApp,
};
use soteria_model::{
    build_state_model, compile_union, render_dot, union_models, BuildOptions, SourceIndex,
    StateId, StateModel, Transition, TransitionLabel, UnionOptions,
};
use soteria_properties::{applicable_properties, formula, AppUnderTest, DeviceContext};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The states of `full` its initial state reaches, in ascending order.
fn reachable_states(full: &Kripke) -> Vec<usize> {
    let mut seen = vec![false; full.state_count()];
    let mut queue: VecDeque<usize> = full.initial.iter().copied().collect();
    for &s in &full.initial {
        seen[s] = true;
    }
    while let Some(s) = queue.pop_front() {
        for &to in full.successors(s) {
            if !std::mem::replace(&mut seen[to as usize], true) {
                queue.push_back(to as usize);
            }
        }
    }
    (0..seen.len()).filter(|&s| seen[s]).collect()
}

/// Builds both structures, checks that the fragment is the full structure's
/// reachable part in ascending order and that the search on the fragment gives
/// every formula the CTL engine's `CheckResult` on the full structure. Returns
/// the fragment's state count.
fn assert_fragment_agrees(context: &str, model: &StateModel, formulas: &[Ctl]) -> usize {
    assert_reachable_part(context, &Kripke::reachable_from_state_model(model), model, formulas)
}

/// Checks that `fragment` is the reachable part of `model`'s full structure,
/// as the reference builder builds it, in ascending order, and that the search
/// on the fragment gives every formula the CTL engine's `CheckResult` on the
/// full structure. Returns the fragment's state count.
fn assert_reachable_part(
    context: &str,
    fragment: &Kripke,
    model: &StateModel,
    formulas: &[Ctl],
) -> usize {
    let mut full = reference::from_state_model(model);
    full.initial = vec![model.initial];
    let reached = reachable_states(&full);
    assert_eq!(fragment.state_count(), reached.len(), "{context}: fragment size");
    assert_eq!(fragment.initial, vec![0], "{context}: initial state");
    assert_eq!(reached[0], model.initial, "{context}: the initial state comes first");
    for (f, &s) in reached.iter().enumerate() {
        assert_eq!(fragment.model_state[f], full.model_state[s], "{context}: state {f}");
        assert_eq!(fragment.incoming_event[f], full.incoming_event[s], "{context}: state {f}");
        assert_eq!(fragment.state_name(f), full.state_name(s), "{context}: state {f}");
        let successors: Vec<usize> =
            fragment.successors(f).iter().map(|&t| reached[t as usize]).collect();
        let expected: Vec<usize> = full.successors(s).iter().map(|&t| t as usize).collect();
        assert_eq!(successors, expected, "{context}: successors of state {f}");
        let mut labels = fragment.atoms_of(f);
        let mut expected = full.atoms_of(s);
        labels.sort_unstable();
        expected.sort_unstable();
        assert_eq!(labels, expected, "{context}: labels of state {f}");
    }
    let searched = check_invariants(fragment, formulas);
    let on_full = ModelChecker::new(&full).check_all(formulas);
    for ((f, got), want) in formulas.iter().zip(&searched).zip(&on_full) {
        assert_eq!(got, want, "{context}: {f}");
    }
    fragment.state_count()
}

fn corpus() -> Vec<CorpusApp> {
    all_market_apps().into_iter().chain(maliot_suite()).collect()
}

fn ingest(soteria: &Soteria, id: &str, source: &str) -> IngestedApp {
    soteria.ingest_app(id, source).unwrap_or_else(|e| panic!("{id} failed to parse: {e}"))
}

fn source_of<'a>(apps: &'a [CorpusApp], id: &str) -> &'a str {
    &apps.iter().find(|a| a.id == id).unwrap_or_else(|| panic!("{id} not in the corpus")).source
}

/// The members' combined devices, as the property layer sees them.
fn device_context(members: &[&IngestedApp]) -> DeviceContext {
    let under_test: Vec<AppUnderTest<'_>> = members
        .iter()
        .map(|a| AppUnderTest {
            name: &a.ir.name,
            ir: &a.ir,
            specs: &a.specs,
            summaries: &a.summaries,
        })
        .collect();
    DeviceContext::from_apps(&under_test)
}

/// Every applicable, non-trivial P.1–P.30 formula over the members' devices:
/// the formulas the analyzer checks.
fn applicable_formulas(members: &[&IngestedApp]) -> Vec<Ctl> {
    let ctx = device_context(members);
    applicable_properties(&ctx)
        .into_iter()
        .filter_map(|id| formula(id, &ctx))
        .filter(|f| *f != Ctl::True)
        .collect()
}

/// The model the analyzer checks for a set of members: the member's own model
/// or the union of theirs.
fn checked_model(name: &str, members: &[&IngestedApp]) -> StateModel {
    let models: Vec<&StateModel> = members.iter().map(|a| &a.model).collect();
    model_of(name, &models)
}

/// One member's model, or the union of several.
fn model_of(name: &str, models: &[&StateModel]) -> StateModel {
    match models {
        [model] => (*model).clone(),
        _ => union_models(name, models, &UnionOptions::default()),
    }
}

/// The member models the analyzer re-checks failing formulas on: each
/// member's model rebuilt without its reflection-only specs, or `None` when
/// no member has one.
fn reflection_free_models(members: &[&IngestedApp]) -> Option<Vec<StateModel>> {
    if !members.iter().any(|a| a.specs.iter().any(|s| s.via_reflection)) {
        return None;
    }
    let models = members
        .iter()
        .map(|a| {
            let kept: Vec<TransitionSpec> =
                a.specs.iter().filter(|s| !s.via_reflection).cloned().collect();
            build_state_model(&a.ir.name, &a.abstraction, &kept, &BuildOptions::default())
        })
        .collect();
    Some(models)
}

/// The explorer gate. Compiling `models` and lifting the edges gives
/// `union_models`' list, in one exactly sized allocation when the names are
/// unique; exploring the edges, with the union lifted or not, gives the
/// reachable part of the union's reference structure, and the search the CTL
/// engine's results on it. The fragment of the lifted union is the same
/// structure, so this gate includes `assert_fragment_agrees` on the union.
/// Returns the fragment's state count and whether the lift dropped
/// transitions of same-named members: fewer than `Σ edges × free
/// sub-product`.
fn assert_explorer_agrees(
    context: &str,
    models: &[&StateModel],
    formulas: &[Ctl],
) -> (usize, bool) {
    let options = UnionOptions::default();
    let union = union_models(context, models, &options);
    let (mut compiled, edges) = compile_union(context, models, &options);
    assert!(compiled.transitions.is_empty(), "{context}: compiling lifts nothing");
    let explored = Kripke::reachable_from_union(&compiled, &edges);
    let size = assert_reachable_part(context, &explored, &union, formulas);
    // The lifted list read as one member ranks as the compiled members do.
    assert_eq!(
        explored,
        Kripke::reachable_from_state_model(&union),
        "{context}: explored structure"
    );
    let lifted = edges.lift();
    assert_eq!(lifted, union.transitions, "{context}: lifted transitions");
    let mut names: Vec<&str> = models.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    if names.len() == models.len() {
        assert_eq!(lifted.capacity(), lifted.len(), "{context}: lift allocation");
    }
    let plain: usize = edges
        .members()
        .iter()
        .map(|m| {
            let constrained: usize =
                m.constrained.iter().map(|&a| compiled.schema.domain(a).len()).product();
            m.edges.len() * (compiled.state_count() / constrained)
        })
        .sum();
    compiled.transitions = lifted;
    assert_eq!(compiled.attributes, union.attributes, "{context}: attributes");
    assert_eq!(
        Kripke::reachable_from_union(&compiled, &edges),
        explored,
        "{context}: explored from the lifted union"
    );
    (size, compiled.transitions.len() < plain)
}

/// Checks the members' model and, when it has one, their reflection-free
/// re-check model, against the full structure: one member's fragment, or for
/// groups the explorer gate, which includes the union's fragment. Returns the
/// checked model's fragment size and whether a re-check model existed.
fn assert_members_agree(name: &str, members: &[&IngestedApp]) -> (usize, bool) {
    let formulas = applicable_formulas(members);
    let agree = |context: &str, models: &[&StateModel]| match models {
        [model] => assert_fragment_agrees(context, model, &formulas),
        _ => assert_explorer_agrees(context, models, &formulas).0,
    };
    let models: Vec<&StateModel> = members.iter().map(|a| &a.model).collect();
    let size = agree(name, &models);
    let recheck = reflection_free_models(members);
    if let Some(recheck) = &recheck {
        let models: Vec<&StateModel> = recheck.iter().collect();
        agree(&format!("{name} without reflection"), &models);
    }
    (size, recheck.is_some())
}

#[test]
fn every_corpus_app_and_group_agrees_with_the_full_structure() {
    let soteria = Soteria::new();
    let apps = corpus();
    assert_eq!(apps.len(), 65 + 17);
    let ingested: BTreeMap<&str, IngestedApp> =
        apps.iter().map(|a| (a.id.as_str(), ingest(&soteria, &a.id, &a.source))).collect();
    let mut rechecks = 0;
    for (id, app) in &ingested {
        rechecks += usize::from(assert_members_agree(id, &[app]).1);
    }
    let groups: Vec<(&str, Vec<&str>)> = market_groups()
        .into_iter()
        .map(|g| (g.id, g.members))
        .chain(maliot_groups().into_iter().map(|(name, members, _)| (name, members)))
        .collect();
    assert_eq!(groups.len(), 6, "G.1-G.3 and MalIoT-G1-G3");
    let mut sizes = BTreeMap::new();
    for (name, members) in &groups {
        let members: Vec<&IngestedApp> = members.iter().map(|id| &ingested[id]).collect();
        let (size, recheck) = assert_members_agree(name, &members);
        rechecks += usize::from(recheck);
        sizes.insert(*name, size);
    }
    assert!(rechecks > 0, "some corpus model has a reflection-free re-check");
    // The sizes the reachability probe measured on the market groups.
    assert_eq!((sizes["G.1"], sizes["G.2"], sizes["G.3"]), (6, 75, 78));
}

/// True when `body` is built only from the constants, atoms and connectives
/// `check_invariants` accepts.
fn is_propositional(body: &Ctl) -> bool {
    match body {
        Ctl::True | Ctl::False | Ctl::Atom(_) => true,
        Ctl::Not(f) => is_propositional(f),
        Ctl::And(a, b) | Ctl::Or(a, b) | Ctl::Implies(a, b) => {
            is_propositional(a) && is_propositional(b)
        }
        _ => false,
    }
}

/// Every P.1–P.30 formula of every corpus app and group (the running
/// examples, the market and MalIoT apps, G.1–G.3 and the MalIoT groups) is
/// trivially true or an invariant, `AG` of a propositional body, so the
/// analyzer's search never meets a shape it would have to refuse.
#[test]
fn every_checked_formula_is_an_invariant() {
    let soteria = Soteria::new();
    let apps = corpus();
    let ingested: BTreeMap<&str, IngestedApp> = running_apps()
        .into_iter()
        .chain(apps.iter().map(|a| (a.id.as_str(), a.source.as_str())))
        .map(|(id, source)| (id, ingest(&soteria, id, source)))
        .collect();
    assert_eq!(ingested.len(), 4 + 65 + 17);
    let mut contexts: Vec<(String, DeviceContext)> =
        ingested.iter().map(|(id, a)| (id.to_string(), device_context(&[a]))).collect();
    let groups = market_groups()
        .into_iter()
        .map(|g| (g.id, g.members))
        .chain(maliot_groups().into_iter().map(|(name, members, _)| (name, members)));
    for (name, members) in groups {
        let members: Vec<&IngestedApp> = members.iter().map(|id| &ingested[id]).collect();
        contexts.push((name.to_string(), device_context(&members)));
    }
    assert_eq!(contexts.len(), 86 + 6);
    for (name, ctx) in &contexts {
        for id in applicable_properties(ctx) {
            let f = formula(id, ctx).expect("an applicable property has a formula");
            let invariant = match &f {
                Ctl::True => true,
                Ctl::Ag(body) => is_propositional(body),
                _ => false,
            };
            assert!(invariant, "{name}: P.{id} is not an invariant: {f}");
        }
    }
}

/// Every TP21/TP22 toggle combination the benchmark's update stream reaches,
/// the shipped sources included, each in the otherwise unchanged G.3.
#[test]
fn g3_edit_variants_agree_with_the_full_structure() {
    let soteria = Soteria::new();
    let apps = all_market_apps();
    let g3 = market_groups().into_iter().find(|g| g.id == "G.3").expect("G.3");
    let mut members: Vec<IngestedApp> =
        g3.members.iter().map(|id| ingest(&soteria, id, source_of(&apps, id))).collect();
    let [(first, first_toggles), (second, second_toggles)] = G3_EDIT_TOGGLES else {
        panic!("two editable G.3 members");
    };
    let index_of = |member: &str| g3.members.iter().position(|m| *m == member).expect("member");
    let variant = |member: &str, mask: u32| {
        ingest(&soteria, member, &g3_variant_source(member, source_of(&apps, member), mask))
    };
    for a in 0..1u32 << first_toggles.len() {
        members[index_of(first)] = variant(first, a);
        for b in 0..1u32 << second_toggles.len() {
            members[index_of(second)] = variant(second, b);
            let refs: Vec<&IngestedApp> = members.iter().collect();
            assert_members_agree(&format!("G.3 with {first}#{a}, {second}#{b}"), &refs);
        }
    }
}

/// A group the corpus does not define, around MalIoT App5, whose reflection
/// branch gives the group a re-check member set: App5 and App12 share the
/// smoke detector, App12 and App13 the hall light. With a repeated member,
/// the lift drops the transitions the two copies share, and the explorer
/// still agrees.
#[test]
fn an_ad_hoc_group_around_app5_explores_its_re_check_members() {
    let soteria = Soteria::new();
    let apps = maliot_suite();
    let ingested: Vec<IngestedApp> = ["App5", "App12", "App13"]
        .into_iter()
        .map(|id| ingest(&soteria, id, source_of(&apps, id)))
        .collect();
    let members: Vec<&IngestedApp> = ingested.iter().collect();
    let (_, recheck) = assert_members_agree("App5+App12+App13", &members);
    assert!(recheck, "App5's reflection branch gives the group a re-check");

    let repeated = [&ingested[1], &ingested[2], &ingested[1]];
    let models: Vec<&StateModel> = repeated.iter().map(|a| &a.model).collect();
    let formulas = applicable_formulas(&repeated);
    assert!(assert_explorer_agrees("App12+App13+App12", &models, &formulas).1);
}

/// The seed's reachability: a stack search that scans every transition for
/// each state it pops.
fn quadratic_reachable(model: &StateModel) -> Vec<StateId> {
    let mut visited = vec![false; model.state_count()];
    let mut stack = vec![model.initial];
    visited[model.initial] = true;
    while let Some(s) = stack.pop() {
        for t in model.transitions.iter().filter(|t| t.from == s) {
            if !visited[t.to] {
                visited[t.to] = true;
                stack.push(t.to);
            }
        }
    }
    (0..visited.len()).filter(|&s| visited[s]).collect()
}

/// `render_dot(model, true)` must be `render_dot(model, false)` without the
/// nodes outside `reachable` and the edges touching them.
fn assert_dot_keeps_only(context: &str, model: &StateModel, reachable: &[StateId]) {
    let mut keep = vec![false; model.state_count()];
    for &s in reachable {
        keep[s] = true;
    }
    let node = |part: &str| part.strip_prefix('s').and_then(|id| id.parse::<usize>().ok());
    let expected: String = render_dot(model, false)
        .lines()
        .filter(|line| {
            let mut parts = line.trim_start().split(' ');
            match (parts.next().and_then(node), parts.next(), parts.next().and_then(node)) {
                (Some(from), Some("->"), Some(to)) => keep[from] && keep[to],
                (Some(id), _, _) => keep[id],
                _ => true,
            }
        })
        .flat_map(|line| [line, "\n"])
        .collect();
    assert_eq!(render_dot(model, true), expected, "{context}: reachable-only DOT");
}

#[test]
fn model_reachability_matches_the_quadratic_definition_on_the_corpus() {
    let soteria = Soteria::new();
    let apps = corpus();
    let ingested: BTreeMap<&str, IngestedApp> =
        apps.iter().map(|a| (a.id.as_str(), ingest(&soteria, &a.id, &a.source))).collect();
    let mut models: Vec<(String, StateModel)> =
        ingested.iter().map(|(id, a)| (id.to_string(), a.model.clone())).collect();
    for group in market_groups() {
        let members: Vec<&IngestedApp> = group.members.iter().map(|id| &ingested[id]).collect();
        models.push((group.id.to_string(), checked_model(group.id, &members)));
    }
    for (name, members, _) in maliot_groups() {
        let members: Vec<&IngestedApp> = members.iter().map(|id| &ingested[id]).collect();
        models.push((name.to_string(), checked_model(name, &members)));
    }
    assert_eq!(models.len(), 82 + 6);
    for (name, model) in &models {
        let reachable = model.reachable_from_initial();
        assert_eq!(reachable, quadratic_reachable(model), "{name}: reachable states");
        assert_dot_keeps_only(name, model, &reachable);
    }
}

/// The event pool of the hand-built models: two kinds that render one label
/// (`timer`), device events and app touch.
fn event_pool() -> Vec<Event> {
    vec![
        Event::new("sensor", EventKind::device("waterSensor", "water", Some("wet"))),
        Event::new("sensor", EventKind::device("waterSensor", "water", Some("dry"))),
        Event::new("app", EventKind::AppTouch),
        Event::new("timer", EventKind::Timer { schedule: "sunset".into() }),
        Event::new("timer", EventKind::Timer { schedule: "every 5 minutes".into() }),
    ]
}

/// A splitmix64 stream, seeded per proptest case.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

/// A random model: 1-3 attributes of 1-3 values, a random initial state and up
/// to `per_state` transitions per state, drawn from a pool of 1-2 label
/// allocations per `(event, app)` pair, in random source order, with
/// occasional exact duplicates. States nothing leaves are deadlocks, and labels
/// used only on unreachable states give atoms the fragment never sees.
fn random_model(per_state: usize, rng: &mut Rng) -> StateModel {
    let mut attrs = BTreeMap::new();
    for i in 0..1 + rng.below(3) {
        let width = 1 + rng.below(3);
        attrs.insert(
            (format!("dev{i}"), "attr".to_string()),
            (0..width).map(|v| AttributeValue::symbol(format!("v{v}"))).collect(),
        );
    }
    let mut model = StateModel::with_attributes("Hand", attrs);
    let q = model.state_count();
    model.initial = rng.below(q);
    let mut pool: Vec<Arc<TransitionLabel>> = Vec::new();
    for event in event_pool() {
        for app in ["A", "B"] {
            for copy in 0..1 + rng.below(2) {
                pool.push(Arc::new(TransitionLabel {
                    event: event.clone(),
                    condition: PathCondition::top(),
                    app: app.into(),
                    handler: format!("h{copy}"),
                    via_reflection: false,
                }));
            }
        }
    }
    for _ in 0..rng.below(per_state * q + 1) {
        let transition = Transition {
            from: rng.below(q),
            to: rng.below(q),
            label: pool[rng.below(pool.len())].clone(),
        };
        if rng.below(4) == 0 {
            model.transitions.push(transition.clone());
        }
        model.transitions.push(transition);
    }
    model
}

/// A random invariant body over `atoms`, built from the constants and every
/// connective the search accepts.
fn random_body(depth: usize, atoms: &[String], rng: &mut Rng) -> Ctl {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(8) {
            0 => Ctl::True,
            1 => Ctl::False,
            _ => Ctl::atom(atoms[rng.below(atoms.len())].clone()),
        };
    }
    let sub = |rng: &mut Rng| Box::new(random_body(depth - 1, atoms, rng));
    match rng.below(4) {
        0 => Ctl::Not(sub(rng)),
        1 => Ctl::And(sub(rng), sub(rng)),
        2 => Ctl::Or(sub(rng), sub(rng)),
        _ => Ctl::Implies(sub(rng), sub(rng)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn random_models_agree_with_the_full_structure(
        (per_state, seed) in (0usize..4, 0u32..u32::MAX)
    ) {
        let mut rng = Rng(seed as u64);
        let model = random_model(per_state, &mut rng);
        let index = SourceIndex::new(&model);
        for state in 0..model.state_count() {
            let indexed: Vec<&Transition> =
                index.outgoing(state).iter().map(|&t| &model.transitions[t as usize]).collect();
            prop_assert_eq!(indexed, model.outgoing(state).collect::<Vec<_>>());
        }
        prop_assert_eq!(model.reachable_from_initial(), quadratic_reachable(&model));
        // Every atom of the full structure, those that label only unreachable
        // states included, and one that labels nothing.
        let mut atoms = reference::from_state_model(&model).atoms;
        atoms.push("event:never".to_string());
        let formulas: Vec<Ctl> =
            (0..8).map(|_| random_body(3, &atoms, &mut rng).always_globally()).collect();
        assert_fragment_agrees(&format!("seed {seed}, {per_state} per state"), &model, &formulas);
    }
}

/// Random member models for the explorer: 1-3 members named from a pool of
/// three, so names repeat, each over 1-3 attributes drawn from a shared pool
/// with its own ordering of a random subset of the values, so merged domains
/// widen and digits remap. Transitions draw random sources and destinations
/// and labels from the event pool, with occasional exact duplicates.
/// Attributes no transition changes and no event subscribes to are pruned
/// from the union; the water sensor is kept by its events alone.
fn random_members(per_state: usize, rng: &mut Rng) -> Vec<StateModel> {
    let pool: [(&str, &str, &[&str]); 4] = [
        ("dev0", "attr", &["v0", "v1", "v2"]),
        ("dev1", "attr", &["v0", "v1"]),
        ("dev2", "attr", &["v0", "v1", "v2"]),
        ("sensor", "water", &["dry", "wet"]),
    ];
    let events = event_pool();
    (0..1 + rng.below(3))
        .map(|_| {
            let name = ["A", "B", "C"][rng.below(3)];
            let mut attrs = BTreeMap::new();
            for _ in 0..1 + rng.below(3) {
                let (handle, attribute, values) = pool[rng.below(pool.len())];
                let mut values: Vec<&str> = values.to_vec();
                for i in (1..values.len()).rev() {
                    values.swap(i, rng.below(i + 1));
                }
                values.truncate(1 + rng.below(values.len()));
                attrs.insert(
                    (handle.to_string(), attribute.to_string()),
                    values.into_iter().map(AttributeValue::symbol).collect(),
                );
            }
            let mut model = StateModel::with_attributes(name, attrs);
            let q = model.state_count();
            let labels: Vec<Arc<TransitionLabel>> = (0..1 + rng.below(4))
                .map(|h| {
                    Arc::new(TransitionLabel {
                        event: events[rng.below(events.len())].clone(),
                        condition: PathCondition::top(),
                        app: name.into(),
                        handler: format!("h{h}"),
                        via_reflection: rng.below(4) == 0,
                    })
                })
                .collect();
            for _ in 0..rng.below(per_state * q + 1) {
                let transition = Transition {
                    from: rng.below(q),
                    to: rng.below(q),
                    label: labels[rng.below(labels.len())].clone(),
                };
                if rng.below(4) == 0 {
                    model.transitions.push(transition.clone());
                }
                model.transitions.push(transition);
            }
            model
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn random_members_explore_to_the_fragment_of_their_union(
        (per_state, seed) in (1usize..4, 0u32..u32::MAX)
    ) {
        let mut rng = Rng(seed as u64);
        let members = random_members(per_state, &mut rng);
        let models: Vec<&StateModel> = members.iter().collect();
        let union = union_models("G", &models, &UnionOptions::default());
        let mut atoms = Kripke::reachable_from_state_model(&union).atoms;
        atoms.push("event:never".to_string());
        let formulas: Vec<Ctl> =
            (0..8).map(|_| random_body(3, &atoms, &mut rng).always_globally()).collect();
        let context = format!("seed {seed}, {per_state} per state");
        assert_explorer_agrees(&context, &models, &formulas);
    }
}
