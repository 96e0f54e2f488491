//! The reference Kripke builder: the straightforward construction that the
//! crate's one builder replaced, kept as the independent full-structure oracle.
//! Tests assert [`Kripke::from_state_model`] struct-equal to it, and
//! [`Kripke::reachable_from_state_model`] equal to its part that the default
//! initial state reaches.
//!
//! It renders and hashes each transition's `(destination, event label, app)`
//! key as strings, stages labels as per-state atom lists, and emits the CSR by
//! sorting the whole edge list. It carries its own copy of that sort-based
//! emitter so it stays independent of the production CSR path. Nothing in
//! production calls it.

use super::{install_schema_atoms, intern_atom, Kripke};
use soteria_model::{StateId, StateModel};
use std::collections::HashMap;
use std::sync::Arc;

/// Builds the Kripke structure of a state model the reference way.
///
/// Kripke states are `(model state, incoming transition label)` pairs: one
/// "quiescent" state per model state (no incoming event) plus one state per
/// distinct `(destination, event, app)` combination among the transitions.
pub fn from_state_model(model: &StateModel) -> Kripke {
    let mut kripke = Kripke::default();
    let schema = &model.schema;
    let mut atom_lookup: HashMap<String, usize> = HashMap::new();
    let attr_atoms = install_schema_atoms(&mut kripke, &model.schema, &mut atom_lookup);

    // Per-state atom-index lists, turned into bitset rows by `set_labels` once
    // the state universe is complete.
    let mut per_state: Vec<Vec<usize>> = Vec::new();

    // Quiescent states: one per model state, all initial, labelled with the
    // attribute propositions of the state's digits.
    let mut digits = vec![0u8; schema.attr_count()];
    for s in 0..model.state_count() {
        let labels: Vec<usize> =
            digits.iter().enumerate().map(|(a, d)| attr_atoms[a][*d as usize]).collect();
        per_state.push(labels);
        kripke.model_state.push(s);
        kripke.incoming_event.push(None);
        kripke.initial.push(s);
        schema.advance(&mut digits);
    }

    // Event states: one per distinct (destination, event label, app).
    let mut event_state: HashMap<(StateId, String, String), usize> = HashMap::new();
    for t in &model.transitions {
        let event = t.label.event.kind.label();
        let app = t.label.app.clone();
        event_state.entry((t.to, event.clone(), app.clone())).or_insert_with(|| {
            let id = per_state.len();
            let mut labels: Vec<usize> = (0..schema.attr_count())
                .map(|a| {
                    attr_atoms[a][schema.digit_of(t.to, a as soteria_model::AttrId) as usize]
                })
                .collect();
            labels.push(intern_atom(
                &mut kripke.atoms,
                &mut atom_lookup,
                format!("event:{event}"),
            ));
            labels.push(intern_atom(
                &mut kripke.atoms,
                &mut atom_lookup,
                "triggered".to_string(),
            ));
            labels.push(intern_atom(
                &mut kripke.atoms,
                &mut atom_lookup,
                format!("by-app:{app}"),
            ));
            per_state.push(labels);
            kripke.model_state.push(t.to);
            kripke.incoming_event.push(Some(Arc::from(event.as_str())));
            id
        });
    }

    // Transitions: every Kripke state sharing the source model state gets an edge
    // to the (destination, label) Kripke state.
    let mut states_of_model: Vec<Vec<usize>> = vec![Vec::new(); model.state_count()];
    for (id, &ms) in kripke.model_state.iter().enumerate() {
        states_of_model[ms].push(id);
    }
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for t in &model.transitions {
        let key = (t.to, t.label.event.kind.label(), t.label.app.clone());
        let to_id = event_state[&key] as u32;
        for &from_id in &states_of_model[t.from] {
            edges.push((from_id as u32, to_id));
        }
    }
    set_transitions(&mut kripke, edges);
    kripke.set_labels(&per_state);
    kripke
}

/// Installs the transition relation from an edge list, building the CSR
/// arrays in one pass. The relation is made total by adding a
/// self-loop to every deadlocked state. `edges` is consumed (sorted, deduplicated)
/// to avoid an extra copy.
fn set_transitions(kripke: &mut Kripke, mut edges: Vec<(u32, u32)>) {
    let n = kripke.state_count();
    edges.sort_unstable();
    edges.dedup();
    // Totalise: states with no outgoing edge loop on themselves.
    let mut out_degree = vec![0u32; n];
    for &(from, _) in &edges {
        out_degree[from as usize] += 1;
    }
    for (s, degree) in out_degree.iter_mut().enumerate() {
        if *degree == 0 {
            *degree = 1;
            edges.push((s as u32, s as u32));
        }
    }
    edges.sort_unstable();
    // Edges are sorted by source, so the flat target array is a
    // direct projection.
    kripke.succ_offsets = Vec::with_capacity(n + 1);
    kripke.succ_offsets.push(0);
    let mut acc = 0u32;
    for &degree in &out_degree {
        acc += degree;
        kripke.succ_offsets.push(acc);
    }
    kripke.succ_targets = edges.iter().map(|&(_, to)| to).collect();
}
