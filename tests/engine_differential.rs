//! Differential fuzzing of the model-checking engines: random Kripke structures and
//! random CTL formulas must produce identical satisfaction sets and verdicts from
//! the frontier-based Symbolic engine, the per-state Explicit engine, and the frozen
//! pre-CSR `LegacyModelChecker` baseline — including under incremental
//! re-verification: random *edit sequences* where each step reuses the previous
//! step's satisfaction-set snapshot, and app-level edit chains where each union is
//! rebuilt by delta against the previous one.

use proptest::prelude::*;
use proptest::TestRng;
use soteria::Soteria;
use soteria_checker::{Ctl, Engine, Kripke, LegacyModelChecker, ModelChecker};
use soteria_model::{union_models, union_models_delta, UnionOptions};

const ATOMS: [&str; 4] = ["p", "q", "r", "s"];

/// The raw ingredients of a random Kripke structure, kept outside the structure
/// so edit-sequence fuzzing can mutate them in place and rebuild.
struct KripkeSpec {
    successor_lists: Vec<Vec<usize>>,
    labels: Vec<Vec<usize>>,
    initial: Vec<usize>,
}

impl KripkeSpec {
    /// `n` states, 0–3 successors each (deadlocks are allowed —
    /// `Kripke::from_lists` totalises them), random labelling over four
    /// atoms, and a random non-empty initial set.
    fn random(n: usize, rng: &mut TestRng) -> Self {
        let successor_lists: Vec<Vec<usize>> = (0..n)
            .map(|_| {
                let degree = (rng.next_u64() % 4) as usize;
                (0..degree).map(|_| (rng.next_u64() as usize) % n).collect()
            })
            .collect();
        let initial: Vec<usize> = {
            let mut set: Vec<usize> =
                (0..n).filter(|_| rng.next_u64().is_multiple_of(3)).collect();
            if set.is_empty() {
                set.push((rng.next_u64() as usize) % n);
            }
            set
        };
        let labels: Vec<Vec<usize>> = (0..n)
            .map(|_| (0..ATOMS.len()).filter(|_| rng.next_u64().is_multiple_of(2)).collect())
            .collect();
        KripkeSpec { successor_lists, labels, initial }
    }

    fn build(&self) -> Kripke {
        let n = self.successor_lists.len();
        let names: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
        let mut kripke = Kripke::from_lists(
            ATOMS.iter().map(|a| a.to_string()).collect(),
            names,
            &self.successor_lists,
            self.initial.clone(),
        );
        kripke.set_labels(&self.labels);
        kripke
    }

    /// One random edit: relabel a few states, sometimes rewire a state's
    /// successors, sometimes nothing at all (the identical-structure tier).
    fn mutate(&mut self, rng: &mut TestRng) {
        let n = self.successor_lists.len();
        let relabels = (rng.next_u64() % 4) as usize;
        for _ in 0..relabels {
            let s = (rng.next_u64() as usize) % n;
            self.labels[s] =
                (0..ATOMS.len()).filter(|_| rng.next_u64().is_multiple_of(2)).collect();
        }
        if rng.next_u64().is_multiple_of(3) {
            let s = (rng.next_u64() as usize) % n;
            let degree = (rng.next_u64() % 4) as usize;
            self.successor_lists[s] =
                (0..degree).map(|_| (rng.next_u64() as usize) % n).collect();
        }
    }
}

fn random_kripke(n: usize, rng: &mut TestRng) -> Kripke {
    KripkeSpec::random(n, rng).build()
}

/// Builds a random CTL formula of bounded depth covering every operator.
fn random_formula(depth: usize, rng: &mut TestRng) -> Ctl {
    if depth == 0 {
        return match rng.next_u64() % 6 {
            0 => Ctl::True,
            1 => Ctl::False,
            _ => Ctl::atom(ATOMS[(rng.next_u64() as usize) % ATOMS.len()]),
        };
    }
    let sub = |rng: &mut TestRng| Box::new(random_formula(depth - 1, rng));
    match rng.next_u64() % 13 {
        0 => Ctl::Not(sub(rng)),
        1 => Ctl::And(sub(rng), sub(rng)),
        2 => Ctl::Or(sub(rng), sub(rng)),
        3 => Ctl::Implies(sub(rng), sub(rng)),
        4 => Ctl::Ex(sub(rng)),
        5 => Ctl::Ef(sub(rng)),
        6 => Ctl::Eg(sub(rng)),
        7 => Ctl::Eu(sub(rng), sub(rng)),
        8 => Ctl::Ax(sub(rng)),
        9 => Ctl::Af(sub(rng)),
        10 => Ctl::Ag(sub(rng)),
        11 => Ctl::Au(sub(rng), sub(rng)),
        _ => random_formula(0, rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three checkers agree — sat sets, verdicts, violating-state counts, and
    /// counterexample existence — on arbitrary structures and formulas.
    #[test]
    // The state-count range straddles the checker's single-word threshold (64), so
    // both the round-based and the frontier/memoized code paths are exercised.
    fn engines_agree_on_random_structures((n, seed) in (1usize..160, 0usize..1_000_000)) {
        let mut rng = TestRng::deterministic();
        // Re-seed deterministically per case so structures vary across cases.
        for _ in 0..(seed % 97) {
            rng.next_u64();
        }
        let kripke = random_kripke(n, &mut rng);
        let symbolic = ModelChecker::new(&kripke, Engine::Symbolic);
        let explicit = ModelChecker::new(&kripke, Engine::Explicit);
        let legacy = LegacyModelChecker::new(&kripke);
        for _ in 0..8 {
            let formula = random_formula(3, &mut rng);
            let sym_sat: Vec<usize> = symbolic.sat(&formula).iter().collect();
            let exp_sat: Vec<usize> = explicit.sat(&formula).iter().collect();
            let leg_sat: Vec<usize> = legacy.sat(&formula).iter().collect();
            prop_assert_eq!(&sym_sat, &exp_sat, "symbolic vs explicit sat on {} (n={})", formula, n);
            prop_assert_eq!(&sym_sat, &leg_sat, "symbolic vs legacy sat on {} (n={})", formula, n);
            let sym = symbolic.check(&formula);
            let exp = explicit.check(&formula);
            let leg = legacy.check(&formula);
            prop_assert_eq!(&sym, &exp, "symbolic vs explicit verdict on {}", formula);
            prop_assert_eq!(&sym, &leg, "symbolic vs legacy verdict on {}", formula);
        }
    }

    /// The memoizing batch API returns exactly what per-formula checking returns.
    #[test]
    fn batch_check_matches_fresh_checkers((n, seed) in (1usize..120, 0usize..1_000_000)) {
        let mut rng = TestRng::deterministic();
        for _ in 0..(seed % 89) {
            rng.next_u64();
        }
        let kripke = random_kripke(n, &mut rng);
        let formulas: Vec<Ctl> = (0..6).map(|_| random_formula(2, &mut rng)).collect();
        let batch = ModelChecker::new(&kripke, Engine::Symbolic).check_all(&formulas);
        for (f, b) in formulas.iter().zip(&batch) {
            let fresh = ModelChecker::new(&kripke, Engine::Symbolic).check(f);
            prop_assert_eq!(&fresh, b, "batched verdict differs on {}", f);
        }
    }

    /// Incremental re-verification fuzz: a chain of random structure edits, each
    /// step re-checked with sat-set reuse from the previous step's snapshot, must
    /// match fresh Symbolic, Explicit, and Legacy checkers at every step — with
    /// both honest and empty dirty-prefix hints (a hint is never a soundness
    /// input), and edits that sometimes change nothing (the identical tier).
    #[test]
    fn snapshot_reuse_agrees_with_fresh_engines_across_edit_sequences(
        (n, seed) in (2usize..96, 0usize..1_000_000)
    ) {
        let mut rng = TestRng::deterministic();
        for _ in 0..(seed % 83) {
            rng.next_u64();
        }
        let mut spec = KripkeSpec::random(n, &mut rng);
        let formulas: Vec<Ctl> = (0..6).map(|_| random_formula(3, &mut rng)).collect();
        let base = spec.build();
        let cold = ModelChecker::new(&base, Engine::Symbolic);
        let _ = cold.check_all(&formulas);
        let mut snapshot = cold.snapshot();
        for step in 0..4 {
            spec.mutate(&mut rng);
            let kripke = spec.build();
            let dirty: Vec<String> = if rng.next_u64().is_multiple_of(2) {
                ATOMS.iter().map(|a| a.to_string()).collect()
            } else {
                Vec::new()
            };
            let warm =
                ModelChecker::new(&kripke, Engine::Symbolic).reuse_from(&snapshot, &dirty);
            let reused = warm.check_all(&formulas);
            let fresh =
                ModelChecker::new(&kripke, Engine::Symbolic).check_all(&formulas);
            prop_assert_eq!(&reused, &fresh, "reused vs fresh symbolic at step {}", step);
            let explicit = ModelChecker::new(&kripke, Engine::Explicit);
            let legacy = LegacyModelChecker::new(&kripke);
            for (f, r) in formulas.iter().zip(&reused) {
                prop_assert_eq!(&explicit.check(f), r, "explicit verdict on {} at step {}", f, step);
                prop_assert_eq!(&legacy.check(f), r, "legacy verdict on {} at step {}", f, step);
            }
            snapshot = warm.snapshot();
        }
    }
}

/// A tiny app over fixed devices whose handler behaviour is one of four
/// variants — so an "edit" changes one member's transitions while its
/// attribute domains stay put (the case the delta union splices) or, when the
/// variant drops a device action, shrinks them (the case it must refuse).
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
    /// three-app group. At every step the delta union must be byte-identical to
    /// the from-scratch union (or decline), and the incremental environment
    /// verdicts — seeded from the previous step's snapshot — must be
    /// byte-identical to a from-scratch analysis under both engines.
    #[test]
    fn delta_unions_and_incremental_verdicts_survive_random_edit_chains(
        seed in 0usize..1_000_000
    ) {
        let mut rng = TestRng::deterministic();
        for _ in 0..(seed % 71) {
            rng.next_u64();
        }
        for engine in [Engine::Symbolic, Engine::Explicit] {
            let mut soteria = Soteria::new();
            soteria.engine = engine;
            let mut variants: Vec<u64> =
                (0..3).map(|_| rng.next_u64()).collect();
            let names = ["Member-A", "Member-B", "Member-C"];
            let mut analyses: Vec<soteria::AppAnalysis> = names
                .iter()
                .zip(&variants)
                .map(|(name, v)| {
                    soteria.analyze_app(name, &member_source(name, *v)).expect("parses")
                })
                .collect();
            let refs: Vec<&soteria::AppAnalysis> = analyses.iter().collect();
            let (mut base, snapshot) = soteria.analyze_environment_with_snapshot("G", &refs);
            let mut snapshot = snapshot.expect("checkable group exports a snapshot");
            for step in 0..3 {
                let idx = (rng.next_u64() as usize) % names.len();
                variants[idx] = rng.next_u64();
                analyses[idx] = soteria
                    .analyze_app(names[idx], &member_source(names[idx], variants[idx]))
                    .expect("parses");

                // The delta union alone: byte-identical to scratch, or declined.
                let models: Vec<&soteria_model::StateModel> =
                    analyses.iter().map(|a| &a.model).collect();
                let options = UnionOptions::default();
                let scratch_union = union_models("G", &models, &options);
                if let Some(delta) =
                    union_models_delta(&base.union_model, &models, idx, &options)
                {
                    prop_assert_eq!(
                        &delta.transitions, &scratch_union.transitions,
                        "delta union diverges at step {} (member {})", step, idx
                    );
                    prop_assert_eq!(&delta.attributes, &scratch_union.attributes);
                }

                // The full incremental re-analysis against a from-scratch one.
                let refs: Vec<&soteria::AppAnalysis> = analyses.iter().collect();
                let (incremental, next_snapshot) =
                    soteria.analyze_environment_incremental("G", &refs, &base, &snapshot, idx);
                let scratch = soteria.analyze_environment_refs("G", &refs);
                prop_assert_eq!(
                    &incremental.violations, &scratch.violations,
                    "incremental verdicts diverge at step {} ({:?})", step, engine
                );
                prop_assert_eq!(
                    &incremental.union_model.transitions,
                    &scratch.union_model.transitions
                );
                base = incremental;
                snapshot = next_snapshot.expect("snapshot persists across edits");
            }
        }
    }
}
