//! GraphViz (DOT) rendering of state models.
//!
//! The original system visualises extracted state models with GraphViz (Fig. 9 shows
//! the `WaterLeakDetector.dot` output); this module produces equivalent DOT text.

use crate::model::StateModel;
use std::fmt::Write as _;

/// Renders a state model as a GraphViz `digraph`.
///
/// Unreachable states can be omitted with `reachable_only` to keep the diagrams
/// readable for large models.
pub fn render_dot(model: &StateModel, reachable_only: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", sanitize(&model.name));
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=box, fontsize=10];");
    let keep: Vec<bool> = if reachable_only {
        model.reachable_mask()
    } else {
        vec![true; model.state_count()]
    };
    for (id, state) in model.states().iter().enumerate() {
        if !keep[id] {
            continue;
        }
        let shape = if id == model.initial { ", style=bold" } else { "" };
        let _ = writeln!(out, "  s{} [label=\"{}\"{}];", id, sanitize(&state.label()), shape);
    }
    for t in &model.transitions {
        if !keep[t.from] || !keep[t.to] {
            continue;
        }
        let _ = writeln!(
            out,
            "  s{} -> s{} [label=\"{}\"];",
            t.from,
            t.to,
            sanitize(&t.label.to_string())
        );
    }
    let _ = writeln!(out, "}}");
    out
}

fn sanitize(s: &str) -> String {
    s.replace('"', "'")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Transition, TransitionLabel};
    use soteria_analysis::PathCondition;
    use soteria_capability::{AttributeValue, Event, EventKind};
    use std::collections::BTreeMap;

    fn model() -> StateModel {
        let mut attrs = BTreeMap::new();
        attrs.insert(
            ("valve".to_string(), "valve".to_string()),
            vec![AttributeValue::symbol("open"), AttributeValue::symbol("closed")],
        );
        let mut m = StateModel::with_attributes("WaterLeakDetector", attrs);
        m.add_transition(Transition {
            from: 0,
            to: 1,
            label: std::sync::Arc::new(TransitionLabel {
                event: Event::new("w", EventKind::device("waterSensor", "water", Some("wet"))),
                condition: PathCondition::top(),
                app: "WaterLeakDetector".into(),
                handler: "h".into(),
                via_reflection: false,
            }),
        });
        m
    }

    #[test]
    fn dot_contains_states_and_edges() {
        let dot = render_dot(&model(), false);
        assert!(dot.starts_with("digraph \"WaterLeakDetector\""));
        assert!(dot.contains("s0 [label=\"[valve=open]\", style=bold]"));
        assert!(dot.contains("s1 [label=\"[valve=closed]\"]"));
        assert!(dot.contains("s0 -> s1 [label=\"water.wet\"]"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn reachable_only_omits_isolated_states() {
        let dot = render_dot(&model(), true);
        // Both states are reachable here, so both appear.
        assert!(dot.contains("s0 "));
        assert!(dot.contains("s1 "));
        // Quotes in labels are sanitised.
        assert!(!dot.contains("\\\""));
    }
}
