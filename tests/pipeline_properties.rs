//! Property-based tests over the analysis pipeline: random benign apps built from the
//! corpus templates must always produce deterministic, well-formed models, and the
//! invariant search must agree with the CTL engine on every checked invariant.

use proptest::prelude::*;
use soteria::{default_initial_kripke, Soteria};
use soteria_checker::{check_invariants, Ctl, Kripke, ModelChecker};
use soteria_corpus::benign_templates;

fn arbitrary_app() -> impl Strategy<Value = (usize, u32)> {
    (0..benign_templates().len(), 0u32..50u32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Benign templates never produce violations, regardless of seed.
    #[test]
    fn benign_templates_are_always_clean((template_idx, seed) in arbitrary_app()) {
        let template = benign_templates()[template_idx];
        let source = template.instantiate("PropApp", seed);
        let analysis = Soteria::new().analyze_app("PropApp", &source).unwrap();
        prop_assert!(
            analysis.violations.is_empty(),
            "template {} seed {} produced {:?}", template.name, seed, analysis.violations
        );
    }

    /// Extracted models are structurally sound: transitions reference valid states,
    /// every state respects its attribute domains, and the model is deterministic.
    #[test]
    fn extracted_models_are_well_formed((template_idx, seed) in arbitrary_app()) {
        let template = benign_templates()[template_idx];
        let source = template.instantiate("PropApp", seed);
        let analysis = Soteria::new().analyze_app("PropApp", &source).unwrap();
        let model = &analysis.model;
        prop_assert!(model.state_count() >= 1);
        for t in &model.transitions {
            prop_assert!(t.from < model.state_count());
            prop_assert!(t.to < model.state_count());
        }
        for state in model.states() {
            for (key, value) in &state.values {
                let domain = &model.attributes[key];
                prop_assert!(domain.contains(value), "value {value} outside domain of {key:?}");
            }
        }
        prop_assert!(model.nondeterminism().is_empty());
        // Abstraction never increases the state count.
        prop_assert!(analysis.states_before_reduction >= model.state_count());
    }

    /// The invariant search on the reachable fragment and the CTL engine on
    /// the full structure agree on a family of invariants over the extracted
    /// models.
    #[test]
    fn engines_agree_on_extracted_models((template_idx, seed) in arbitrary_app()) {
        let template = benign_templates()[template_idx];
        let source = template.instantiate("PropApp", seed);
        let analysis = Soteria::new().analyze_app("PropApp", &source).unwrap();
        let kripke = default_initial_kripke(&analysis.model);
        let checker = ModelChecker::new(&kripke);
        let mut formulas = vec![
            Ctl::atom("triggered").not().always_globally(),
            Ctl::atom("triggered").always_globally(),
        ];
        for atom in kripke.atoms.iter().take(6) {
            formulas.push(Ctl::atom(atom.clone()).always_globally());
            formulas.push(Ctl::atom("triggered").implies(Ctl::atom(atom.clone())).always_globally());
        }
        let fragment = Kripke::reachable_from_state_model(&analysis.model);
        let searched = check_invariants(&fragment, &formulas);
        for (formula, got) in formulas.iter().zip(searched) {
            prop_assert_eq!(got, checker.check(formula), "search and engine disagree on {}", formula);
        }
    }

    /// Analysis is deterministic: running the pipeline twice yields the same model and
    /// the same violations.
    #[test]
    fn analysis_is_deterministic((template_idx, seed) in arbitrary_app()) {
        let template = benign_templates()[template_idx];
        let source = template.instantiate("PropApp", seed);
        let soteria = Soteria::new();
        let first = soteria.analyze_app("PropApp", &source).unwrap();
        let second = soteria.analyze_app("PropApp", &source).unwrap();
        prop_assert_eq!(first.model.state_count(), second.model.state_count());
        prop_assert_eq!(first.model.transition_count(), second.model.transition_count());
        prop_assert_eq!(first.violations, second.violations);
    }
}
