//! The multi-app union model (Algorithm 2, Sec. 4.4).
//!
//! Apps in a shared environment interact through common devices and abstract events
//! (location mode). The union of their state models captures the complete behaviour of
//! the environment: union states are drawn from the Cartesian product of the combined
//! attribute domains (duplicate devices deduplicated), and every app transition
//! `v --l--> u` is added between all union states containing `v` and the corresponding
//! updates to `u`, labelled with the contributing app.
//!
//! The construction has two steps. [`compile_union`] merges the attributes,
//! interns the union schema and compiles every member transition to an edge
//! `(base, offset, label)`: the member's digits of the source, the id
//! distance to the destination, and the member-labelled label. Each member
//! keeps its distinct edges and the ascending offsets of its free sub-product
//! (the union attributes it does not constrain). [`UnionEdges::lift`] then
//! emits every edge's block, `base + f → base + f + offset` for each free
//! offset `f`, into one allocation. [`union_models`] is the two steps in a
//! row. The checker explores the compiled edges directly
//! (`soteria_checker::Kripke::reachable_from_union`), so an environment check
//! reads no lifted transition; the lifted list is built only for the
//! `union_model` that environment results carry.

use crate::builder::LabelInterner;
use crate::model::{StateModel, Transition, TransitionLabel};
use crate::schema::{AttrId, StateSchema, ValueId};
use crate::state::AttrKey;
use soteria_capability::AttributeValue;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Options for the union construction.
#[derive(Debug, Clone)]
pub struct UnionOptions {
    /// Drop attributes no app's transitions touch; keeps large environments tractable.
    pub prune_untouched_attributes: bool,
    /// Hard state cap; exceeding it switches pruning on automatically.
    pub max_states: usize,
    /// Unused: the lift is sequential. Kept only because the benchmark
    /// harness's replay still sets it.
    #[doc(hidden)]
    pub threads: usize,
}

impl Default for UnionOptions {
    fn default() -> Self {
        UnionOptions { prune_untouched_attributes: true, max_states: 60_000, threads: 0 }
    }
}

/// Advances `digits` as a mixed-radix odometer over `radices` (last position
/// fastest); returns false once the odometer wraps back to all zeros. Empty
/// (or radix-0/1) positions never advance.
fn advance_digits(digits: &mut [u8], radices: &[u8]) -> bool {
    for i in (0..digits.len()).rev() {
        if digits[i] + 1 < radices[i].max(1) {
            digits[i] += 1;
            return true;
        }
        digits[i] = 0;
    }
    false
}

/// Builds the union state model of several apps (Algorithm 2).
///
/// The construction runs entirely on the packed schema, in two steps:
/// [`compile_union`] compiles each member's transitions to edges, and
/// [`UnionEdges::lift`] emits every edge's block of transitions. A lifted
/// transition fixes the digits of the contributing app's attributes (the
/// paper's "union states that contain v") and enumerates only the remaining
/// free attributes' sub-product; the destination is `from + offset` for a
/// per-edge constant offset. The seed scanned every union state per edge.
pub fn union_models(name: &str, models: &[&StateModel], options: &UnionOptions) -> StateModel {
    union_models_with_edges(name, models, options).0
}

/// [`union_models`]' result together with the compiled edges it was lifted
/// from, for callers that both report the union and explore its edges.
pub fn union_models_with_edges(
    name: &str,
    models: &[&StateModel],
    options: &UnionOptions,
) -> (StateModel, UnionEdges) {
    let _span = soteria_obs::span("union.build");
    let (mut union, edges) = compile_union(name, models, options);
    union.transitions = edges.lift();
    (union, edges)
}

/// The compile step of [`union_models`]: the union model without its
/// transitions (name, merged attributes, schema, default initial state) and
/// every member's compiled edges. Lifting the edges
/// (`union.transitions = edges.lift()`) gives [`union_models`]' result.
pub fn compile_union(
    name: &str,
    models: &[&StateModel],
    options: &UnionOptions,
) -> (StateModel, UnionEdges) {
    // Line 1: the combined attribute domains.
    let union = StateModel::with_attributes(name, merged_attributes(models, options));
    let mut interner = LabelInterner::default();
    // Lines 2–12, compiled: every app transition becomes an edge of its app.
    let members =
        models.iter().map(|m| compile_member(m, &union.schema, &mut interner)).collect();
    (union, UnionEdges { members, unique_names: unique_names(models) })
}

/// The compiled members of a union, in member order ([`compile_union`]).
#[derive(Debug, Clone)]
pub struct UnionEdges {
    members: Vec<MemberEdges>,
    /// True when no two members share a name. Only then is the lifted list
    /// the plain concatenation of every edge's block: lifts of same-named
    /// members drop each transition that has an identical earlier twin.
    unique_names: bool,
}

/// One member's share of a compiled union.
#[derive(Debug, Clone)]
pub struct MemberEdges {
    /// The union attributes the member constrains, ascending.
    pub constrained: Vec<AttrId>,
    /// Offsets from an edge's `base` of the states of the free sub-product
    /// (the union attributes the member does not constrain), ascending.
    free_offsets: Vec<usize>,
    /// The member's distinct edges, in the order its transitions first
    /// compile to them.
    pub edges: Vec<CompiledEdge>,
}

/// One compiled member transition: it lifts to the transitions
/// `base + f → base + f + offset` for every free offset `f`, in ascending
/// order, all sharing `label`.
#[derive(Debug, Clone)]
pub struct CompiledEdge {
    /// The member's constrained digits of the source, every free digit 0.
    pub base: usize,
    /// Destination id minus source id.
    pub offset: isize,
    /// The label of every transition the edge lifts to (app set to the member).
    pub label: Arc<TransitionLabel>,
    /// Dedup class of the label's `(event, condition, app, handler)`.
    class: usize,
}

impl UnionEdges {
    /// The members, in union order.
    pub fn members(&self) -> &[MemberEdges] {
        &self.members
    }

    /// The lift step of [`union_models`]: every edge's block, member-major,
    /// then edge, then free offset. With unique names the list holds
    /// exactly `Σ edges × free sub-product` transitions and is allocated at
    /// that size.
    pub fn lift(&self) -> Vec<Transition> {
        let capacity = self.members.iter().map(|m| m.edges.len() * m.free_offsets.len()).sum();
        let mut lifted: Vec<Transition> = Vec::with_capacity(capacity);
        // Dedup classes embed the contributing app's name, so lifts of
        // differently named members never collide: the per-transition set only
        // has work to do when the same name appears twice in the union.
        let mut seen: Option<HashSet<(usize, usize, usize)>> =
            (!self.unique_names).then(HashSet::new);
        // In-stage abort (`soteria_exec::current_abort`): polled once per
        // edge — each edge enumerates the whole free sub-product, so a
        // G.3-scale lift observes an abort within one edge's block rather than
        // finishing a 47k-state union nobody wants. `None` on non-service
        // paths: a dead branch.
        let abort = soteria_exec::current_abort();
        for member in &self.members {
            for edge in &member.edges {
                if let Some(abort) = &abort {
                    abort.bail_if_aborted();
                }
                for &free_offset in &member.free_offsets {
                    let from = edge.base + free_offset;
                    let to = (from as isize + edge.offset) as usize;
                    if seen.as_mut().is_none_or(|seen| seen.insert((from, to, edge.class))) {
                        lifted.push(Transition { from, to, label: edge.label.clone() });
                    }
                }
            }
        }
        lifted
    }
}

/// Line 1 of Algorithm 2: the union's combined attribute domains. Attributes of
/// duplicate devices (same handle + attribute across apps) are merged with a
/// side set for O(1) duplicate checks while keeping first-seen value order;
/// untouched attributes are pruned per [`UnionOptions`].
fn merged_attributes(
    models: &[&StateModel],
    options: &UnionOptions,
) -> BTreeMap<AttrKey, Vec<AttributeValue>> {
    let mut attributes: BTreeMap<AttrKey, Vec<AttributeValue>> = BTreeMap::new();
    let mut known: HashMap<AttrKey, HashSet<AttributeValue>> = HashMap::new();
    for model in models {
        for (key, domain) in &model.attributes {
            let entry = attributes.entry(key.clone()).or_default();
            let seen = known.entry(key.clone()).or_default();
            for v in domain {
                if seen.insert(v.clone()) {
                    entry.push(v.clone());
                }
            }
        }
    }
    let product = attributes.values().fold(1usize, |acc, d| acc.saturating_mul(d.len().max(1)));
    if options.prune_untouched_attributes || product > options.max_states {
        let touched = touched_union_keys(models);
        attributes.retain(|k, _| touched.contains(k));
    }
    attributes
}

/// True when no two models share a name.
fn unique_names(models: &[&StateModel]) -> bool {
    let mut names: Vec<&str> = models.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    names.windows(2).all(|w| w[0] != w[1])
}

/// Compiles one member model's transitions against the union schema.
///
/// Each transition compiles to an edge `(base, offset, class)`: `base` fixes
/// the member's constrained digits, the free sub-product adds
/// `Σ free_digit · stride`, and the destination is `offset` away. Keeping one
/// edge per distinct triple is exact within a member: edges with different
/// `base`s never share a `from`, edges with the same `base` and different
/// `offset`s never share a `(from, to)`, and equal edges lift to identical
/// blocks.
fn compile_member(
    model: &StateModel,
    uschema: &StateSchema,
    interner: &mut LabelInterner,
) -> MemberEdges {
    let aschema = &model.schema;
    // App attribute -> union attribute (None when pruned from the union), and app
    // value digit -> union value digit (union domains are supersets, so mapped
    // digits always exist).
    let attr_map: Vec<Option<AttrId>> = aschema.keys().iter().map(|k| uschema.attr_id(k)).collect();
    let digit_map: Vec<Vec<ValueId>> = (0..aschema.attr_count())
        .map(|a| {
            let a = a as AttrId;
            match attr_map[a as usize] {
                Some(u) => aschema
                    .domain(a)
                    .iter()
                    .map(|v| uschema.value_id(u, v).expect("union domain is a superset"))
                    .collect(),
                None => Vec::new(),
            }
        })
        .collect();
    // Offsets from `base` of every union state in the free sub-product (union
    // attributes this app does not constrain), in ascending id order: an
    // odometer over the free positions, walked once per member.
    let mut is_constrained = vec![false; uschema.attr_count()];
    for &u in attr_map.iter().flatten() {
        is_constrained[u as usize] = true;
    }
    let (constrained, free): (Vec<AttrId>, Vec<AttrId>) =
        (0..uschema.attr_count() as AttrId).partition(|&u| is_constrained[u as usize]);
    let radices: Vec<u8> = free.iter().map(|u| uschema.domain(*u).len() as u8).collect();
    let strides: Vec<usize> = free.iter().map(|u| uschema.stride(*u)).collect();
    let mut free_offsets: Vec<usize> = Vec::new();
    let mut free_digits = vec![0u8; free.len()];
    loop {
        free_offsets.push(free_digits.iter().zip(&strides).map(|(&d, s)| d as usize * s).sum());
        if !advance_digits(&mut free_digits, &radices) {
            break;
        }
    }

    let mut from_digits = vec![0u8; aschema.attr_count()];
    let mut to_digits = vec![0u8; aschema.attr_count()];
    // Most transitions of a model share a label allocation (the builder
    // shares one per spec): resolving the class once per allocation keeps the
    // interner off the per-transition path.
    let mut label_class: HashMap<*const TransitionLabel, usize> = HashMap::new();
    let mut compiled: HashSet<(usize, isize, usize)> = HashSet::new();
    let mut edges: Vec<CompiledEdge> = Vec::new();
    for t in &model.transitions {
        aschema.digits_of(t.from, &mut from_digits);
        aschema.digits_of(t.to, &mut to_digits);
        // V': fixing the app's attributes to v's digits yields exactly the union
        // states containing v. The transition's delta (digits where u differs
        // from v) becomes a constant destination offset.
        let mut base = 0usize;
        let mut offset = 0isize;
        for (a, u) in attr_map.iter().enumerate() {
            let Some(u) = *u else { continue };
            let vd = digit_map[a][from_digits[a] as usize] as usize;
            let stride = uschema.stride(u);
            base += vd * stride;
            if to_digits[a] != from_digits[a] {
                let ud = digit_map[a][to_digits[a] as usize] as usize;
                offset += (ud as isize - vd as isize) * stride as isize;
            }
        }
        let l = &t.label;
        let class = *label_class.entry(Arc::as_ptr(l)).or_insert_with(|| {
            interner.class_of(&l.event, &l.condition, &model.name, &l.handler)
        });
        // An equal edge (say, from a transition that differs only in an
        // attribute pruned from the union) already lifts this exact block.
        if compiled.insert((base, offset, class)) {
            let label = Arc::new(TransitionLabel {
                event: l.event.clone(),
                condition: l.condition.clone(),
                app: model.name.clone(),
                handler: l.handler.clone(),
                via_reflection: l.via_reflection,
            });
            edges.push(CompiledEdge { base, offset, label, class });
        }
    }
    MemberEdges { constrained, free_offsets, edges }
}
/// Always answers an in-range edit with a scratch [`union_models`] over
/// `members`, named after `base`. Kept only because the benchmark harness's
/// replay still calls it.
#[doc(hidden)]
pub fn union_models_delta(
    base: &StateModel,
    members: &[&StateModel],
    changed_member_idx: usize,
    options: &UnionOptions,
) -> Option<StateModel> {
    (changed_member_idx < members.len()).then(|| union_models(&base.name, members, options))
}

/// Attribute keys any app's transitions touch: attributes whose value changes across
/// an edge, plus the subscribed attribute of each event. Computed on packed digits
/// with set-based membership (the seed ran `Vec::contains` linear scans per key).
fn touched_union_keys(models: &[&StateModel]) -> HashSet<AttrKey> {
    let mut touched: HashSet<AttrKey> = HashSet::new();
    for model in models {
        let schema = &model.schema;
        for t in &model.transitions {
            if t.from != t.to {
                for attr in 0..schema.attr_count() as AttrId {
                    if schema.digit_of(t.from, attr) != schema.digit_of(t.to, attr) {
                        touched.insert(schema.keys()[attr as usize].clone());
                    }
                }
            }
            // The subscribed attribute itself is touched by the event.
            if let soteria_capability::EventKind::Device { attribute, .. } = &t.label.event.kind {
                touched.insert((t.label.event.handle.clone(), attribute.clone()));
            }
            if matches!(t.label.event.kind, soteria_capability::EventKind::Mode { .. }) {
                touched.insert(("location".to_string(), "mode".to_string()));
            }
        }
    }
    touched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::State;
    use soteria_analysis::PathCondition;
    use soteria_capability::{Event, EventKind};

    /// Builds a small hand-crafted model over the given binary attributes with the
    /// given `(event, changed attribute, new value)` transitions applied from every
    /// state (mirroring how the app-level builder works).
    fn mini_model(
        name: &str,
        attrs: &[(&str, &str, &[&str])],
        transitions: &[(Event, &str, &str, &str)],
    ) -> StateModel {
        let mut map = BTreeMap::new();
        for (h, a, values) in attrs {
            map.insert(
                (h.to_string(), a.to_string()),
                values.iter().map(|v| AttributeValue::symbol(*v)).collect(),
            );
        }
        let mut model = StateModel::with_attributes(name, map);
        let index = model.state_index();
        let mut new = Vec::new();
        for (id, state) in model.states().iter().enumerate() {
            for (event, handle, attr, value) in transitions {
                let target = state.with(handle, attr, AttributeValue::symbol(*value));
                if let Some(&to) = index.get(&target) {
                    new.push(Transition {
                        from: id,
                        to,
                        label: std::sync::Arc::new(TransitionLabel {
                            event: event.clone(),
                            condition: PathCondition::top(),
                            app: name.to_string(),
                            handler: "h".to_string(),
                            via_reflection: false,
                        }),
                    });
                }
            }
        }
        for t in new {
            model.add_transition(t);
        }
        model
    }

    fn smoke_event() -> Event {
        Event::new("smoke", EventKind::device("smokeDetector", "smoke", Some("detected")))
    }

    fn switch_on_event() -> Event {
        Event::new("sw", EventKind::device("switch", "switch", Some("on")))
    }

    #[test]
    fn union_deduplicates_shared_devices() {
        // Smoke-Alarm: smoke-detected turns the switch on.
        let smoke_alarm = mini_model(
            "Smoke-Alarm",
            &[("sw", "switch", &["off", "on"])],
            &[(smoke_event(), "sw", "switch", "on")],
        );
        // App1: switch-on changes the mode to home.
        let app1 = mini_model(
            "App1",
            &[("sw", "switch", &["off", "on"]), ("location", "mode", &["away", "home"])],
            &[(switch_on_event(), "location", "mode", "home")],
        );
        let union = union_models("G", &[&smoke_alarm, &app1], &UnionOptions::default());
        // Shared switch is deduplicated: switch × mode = 4 states.
        assert_eq!(union.state_count(), 4);
        // Both apps' transitions are present and labelled with their app.
        assert!(union.transitions.iter().any(|t| t.label.app == "Smoke-Alarm"));
        assert!(union.transitions.iter().any(|t| t.label.app == "App1"));
    }

    #[test]
    fn union_enables_cross_app_chains() {
        let smoke_alarm = mini_model(
            "Smoke-Alarm",
            &[("sw", "switch", &["off", "on"])],
            &[(smoke_event(), "sw", "switch", "on")],
        );
        let app1 = mini_model(
            "App1",
            &[("sw", "switch", &["off", "on"]), ("location", "mode", &["away", "home"])],
            &[(switch_on_event(), "location", "mode", "home")],
        );
        let union = union_models("G", &[&smoke_alarm, &app1], &UnionOptions::default());
        // Starting from switch-off/away, the smoke event reaches switch-on/away, from
        // which App1's switch-on transition reaches mode home: the chained misuse case
        // of Sec. 4.4.
        let start = union
            .state_id(&State::from_triples([
                ("sw", "switch", AttributeValue::symbol("off")),
                ("location", "mode", AttributeValue::symbol("away")),
            ]))
            .unwrap();
        let mut model = union.clone();
        model.initial = start;
        let reachable = model.reachable_from_initial();
        let home_on = model
            .state_id(&State::from_triples([
                ("sw", "switch", AttributeValue::symbol("on")),
                ("location", "mode", AttributeValue::symbol("home")),
            ]))
            .unwrap();
        assert!(reachable.contains(&home_on));
    }

    #[test]
    fn conflicting_apps_create_nondeterminism_in_union() {
        // Smoke-Alarm turns the switch on on smoke; App2 turns it off on smoke (S.1
        // violation in the paper's example).
        let a = mini_model(
            "Smoke-Alarm",
            &[("sw", "switch", &["off", "on"])],
            &[(smoke_event(), "sw", "switch", "on")],
        );
        let b = mini_model(
            "App2",
            &[("sw", "switch", &["off", "on"])],
            &[(smoke_event(), "sw", "switch", "off")],
        );
        let union = union_models("G", &[&a, &b], &UnionOptions::default());
        assert!(!union.nondeterminism().is_empty());
    }

    /// Asserts `union_models` lifts exactly the transitions of the seed oracle,
    /// in the same order, and returns the union.
    fn assert_matches_legacy(models: &[&StateModel], options: &UnionOptions) -> StateModel {
        let union = union_models("G", models, options);
        let legacy = crate::legacy::union_models_legacy("G", models, options);
        assert_eq!(union.attributes, legacy.attributes);
        assert_eq!(union.transitions, legacy.transitions);
        union
    }

    #[test]
    fn duplicate_models_still_dedup() {
        // The same app unioned twice: the second copy's lift must be fully
        // deduped by the per-transition `seen` set.
        let narrow = mini_model(
            "Narrow",
            &[("sw", "switch", &["off", "on"])],
            &[(smoke_event(), "sw", "switch", "on")],
        );
        let switches = ["w0", "w1", "w2", "w3"].map(|h| (h, "switch", &["off", "on"][..]));
        let wide = mini_model("Wide", &switches, &[]);
        let options = UnionOptions { prune_untouched_attributes: false, ..UnionOptions::default() };
        let union = assert_matches_legacy(&[&narrow, &narrow, &wide], &options);
        assert_eq!(union.state_count(), 1 << 5);
        assert_eq!(union.transition_count(), 1 << 5);
    }

    #[test]
    fn same_named_models_with_different_constrained_attributes_match_legacy() {
        // Both "Dup" members share dedup classes, but "Wide" also constrains the
        // mode, and "Modes" adds a night mode only "Narrow"'s lift covers. Wide's
        // smoke edge from (away, off) has the same `(base, offset, class)` as
        // Narrow's smoke edge from off, yet its block misses (night, off): edge
        // dedup across the two members would lose that transition.
        let narrow = mini_model(
            "Dup",
            &[("sw", "switch", &["off", "on"])],
            &[(smoke_event(), "sw", "switch", "on")],
        );
        let wide = mini_model(
            "Dup",
            &[("sw", "switch", &["off", "on"]), ("location", "mode", &["away", "home"])],
            &[
                (smoke_event(), "sw", "switch", "on"),
                (switch_on_event(), "location", "mode", "home"),
            ],
        );
        let modes = mini_model(
            "Modes",
            &[("location", "mode", &["away", "home", "night"])],
            &[(switch_on_event(), "location", "mode", "night")],
        );
        let options = UnionOptions { prune_untouched_attributes: false, ..UnionOptions::default() };
        for members in [[&wide, &narrow, &modes], [&narrow, &wide, &modes]] {
            let union = assert_matches_legacy(&members, &options);
            assert_eq!(union.state_count(), 6);
        }
    }

    #[test]
    fn transitions_differing_only_in_a_pruned_attribute_lift_once() {
        // "Idle" is never changed and no event subscribes to it, so pruning drops
        // it: App1's two switch-on transitions per mode (one per idle value)
        // compile to the same edge and lift as one block.
        let app1 = mini_model(
            "App1",
            &[
                ("sw", "switch", &["off", "on"]),
                ("location", "mode", &["away", "home"]),
                ("idle", "switch", &["off", "on"]),
            ],
            &[(switch_on_event(), "location", "mode", "home")],
        );
        let smoke_alarm = mini_model(
            "Smoke-Alarm",
            &[("sw", "switch", &["off", "on"]), ("lamp", "switch", &["off", "on"])],
            &[(smoke_event(), "sw", "switch", "on"), (smoke_event(), "lamp", "switch", "on")],
        );
        let union = assert_matches_legacy(&[&app1, &smoke_alarm], &UnionOptions::default());
        assert!(!union.attributes.contains_key(&("idle".to_string(), "switch".to_string())));
        assert_eq!(app1.transition_count(), 8);
        assert_eq!(union.state_count(), 8);
        assert_eq!(union.transitions.iter().filter(|t| t.label.app == "App1").count(), 8);
    }

    #[test]
    fn union_complexity_is_linear_in_edges() {
        // A sanity check on sizes rather than asymptotics: the union of two 4-state
        // models over disjoint devices has 16 states when nothing is pruned and all
        // transitions are lifted.
        let a = mini_model(
            "A",
            &[("sw1", "switch", &["off", "on"]), ("m1", "motion", &["inactive", "active"])],
            &[(
                Event::new("m1", EventKind::device("motionSensor", "motion", Some("active"))),
                "sw1",
                "switch",
                "on",
            )],
        );
        let b = mini_model(
            "B",
            &[("sw2", "switch", &["off", "on"]), ("m2", "motion", &["inactive", "active"])],
            &[(
                Event::new("m2", EventKind::device("motionSensor", "motion", Some("active"))),
                "sw2",
                "switch",
                "off",
            )],
        );
        let union = union_models(
            "AB",
            &[&a, &b],
            &UnionOptions { prune_untouched_attributes: false, ..UnionOptions::default() },
        );
        assert_eq!(union.state_count(), 16);
        assert!(union.transition_count() >= 16);
    }
}
