//! The end-to-end Soteria analyzer: source code → IR → state model → model checking.

use crate::report::{
    AppAnalysis, EnvironmentAnalysis, IngestedApp, StoredAppAnalysis,
    StoredEnvironmentAnalysis,
};
use soteria_analysis::{abstract_domains, AnalysisConfig, SymbolicExecutor, TransitionSpec};
use soteria_capability::CapabilityRegistry;
use soteria_checker::{check_invariants, Ctl, Engine, Kripke, ModelChecker, SatSnapshot};
use soteria_ir::AppIr;
use soteria_lang::ParseError;
use soteria_model::{
    build_state_model, compile_union, union_models, union_models_with_edges, BuildOptions,
    StateModel, UnionOptions,
};
use soteria_properties::{
    applicable_properties, check_general, formula, property_info, AppUnderTest, DeviceContext,
    PropertyId, Violation,
};
use std::sync::Arc;
use std::time::Instant;

/// The Soteria analyzer (Fig. 3): obtains the IR of an app, constructs its state
/// model, and performs model checking against the general and app-specific properties,
/// both for individual apps and for multi-app environments.
#[derive(Debug, Clone)]
pub struct Soteria {
    /// The device capability reference.
    pub registry: CapabilityRegistry,
    /// The static-analysis configuration.
    pub config: AnalysisConfig,
    /// Unused: there is one checking engine. Kept only because the benchmark
    /// harness's replay still reads it.
    #[doc(hidden)]
    pub engine: Engine,
}

impl Default for Soteria {
    fn default() -> Self {
        Soteria {
            registry: CapabilityRegistry::standard(),
            config: AnalysisConfig::paper(),
            engine: Engine::Symbolic,
        }
    }
}

impl Soteria {
    /// Creates an analyzer with the paper's configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an analyzer with a custom analysis configuration (used by the ablation
    /// benches).
    pub fn with_config(config: AnalysisConfig) -> Self {
        Soteria { config, ..Self::default() }
    }

    /// The resolved worker count for this analyzer's fan-out sites:
    /// [`AnalysisConfig::threads`] when non-zero, else `SOTERIA_THREADS`, else the
    /// machine's available parallelism.
    pub fn threads(&self) -> usize {
        soteria_exec::resolve_threads(self.config.threads)
    }

    /// Analyzes a batch of `(name, source)` apps — the corpus-sweep entry point used
    /// by the market/MalIoT drivers, examples, and benches.
    ///
    /// Apps are independent, so the per-app [`Soteria::analyze_app`] calls fan out
    /// across the shared long-lived worker pool ([`soteria_exec::global_pool`]; up
    /// to [`Soteria::threads`] workers serve the call — no per-call thread spawns);
    /// the analyzer itself is only read. Results come back in input order and are
    /// byte-identical to a sequential loop at every thread count.
    pub fn analyze_apps(
        &self,
        apps: &[(&str, &str)],
    ) -> Vec<Result<AppAnalysis, ParseError>> {
        soteria_exec::pool_map(apps, self.threads(), |(name, source)| {
            self.analyze_app(name, source)
        })
    }

    /// Analyzes a batch of named multi-app environments — the per-group sweep of the
    /// MalIoT and market drivers.
    ///
    /// Groups are independent: each [`Soteria::analyze_environment`] call runs on its
    /// own shared-pool worker (the member analyses are only read). Results come back
    /// in input order, byte-identical to a sequential loop at every thread count.
    pub fn analyze_environments(
        &self,
        groups: &[(&str, &[AppAnalysis])],
    ) -> Vec<EnvironmentAnalysis> {
        soteria_exec::pool_map(groups, self.threads(), |(name, apps)| {
            self.analyze_environment(name, apps)
        })
    }

    /// Analyzes a single app: IR extraction, state-model construction, and
    /// verification of every applicable property.
    ///
    /// Equivalent to [`Soteria::ingest_app`] followed by [`Soteria::verify_app`];
    /// the service pipelines the two stages so ingestion of the next app overlaps
    /// verification of the previous one.
    pub fn analyze_app(&self, name: &str, source: &str) -> Result<AppAnalysis, ParseError> {
        Ok(self.verify_app(self.ingest_app(name, source)?))
    }

    /// Stage 1 of [`Soteria::analyze_app`]: parses the source, extracts the IR,
    /// runs the symbolic executor, and builds the state model — everything up to
    /// (but not including) property verification.
    pub fn ingest_app(&self, name: &str, source: &str) -> Result<IngestedApp, ParseError> {
        let _span = soteria_obs::span("soteria.ingest");
        let started = Instant::now();
        let ir = {
            let _s = soteria_obs::span("ingest.parse");
            AppIr::from_source(name, source, &self.registry)?
        };
        let (specs, summaries) = {
            let _s = soteria_obs::span("ingest.symbolic");
            let executor = SymbolicExecutor::new(&ir, &self.registry, self.config.clone());
            (executor.transition_specs(), executor.handler_summaries())
        };
        let abstraction = {
            let _s = soteria_obs::span("ingest.abstraction");
            abstract_domains(&ir, &self.registry, &specs)
        };
        let states_before_reduction = abstraction.states_before();
        let model = {
            let _s = soteria_obs::span("ingest.model");
            build_state_model(&ir.name, &abstraction, &specs, &BuildOptions::default())
        };
        let extraction_time = started.elapsed();
        Ok(IngestedApp {
            ir,
            specs,
            summaries,
            abstraction,
            model,
            states_before_reduction,
            extraction_time,
        })
    }

    /// Stage 2 of [`Soteria::analyze_app`]: verifies every applicable property on
    /// an ingested app's state model. Pure function of the ingested app and this
    /// analyzer's configuration — results are identical whether the two stages run
    /// back-to-back or pipelined on different workers.
    pub fn verify_app(&self, ingested: IngestedApp) -> AppAnalysis {
        let _span = soteria_obs::span("soteria.verify");
        let IngestedApp {
            ir,
            specs,
            summaries,
            abstraction,
            model,
            states_before_reduction,
            extraction_time,
        } = ingested;
        let verification_started = Instant::now();
        let mut violations = Vec::new();
        let app_under_test =
            AppUnderTest { name: &ir.name, ir: &ir, specs: &specs, summaries: &summaries };
        violations.extend(check_general(&[app_under_test], &self.registry));
        violations.extend(self.determinism_violations(&model, std::slice::from_ref(&ir.name)));
        violations.extend(self.check_app_specific(
            &model,
            &specs,
            &abstraction,
            &DeviceContext::from_apps(&[app_under_test]),
            std::slice::from_ref(&ir.name),
        ));
        let verification_time = verification_started.elapsed();

        AppAnalysis {
            ir,
            specs,
            summaries,
            abstraction,
            model,
            violations,
            states_before_reduction,
            extraction_time,
            verification_time,
        }
    }

    /// Analyzes a multi-app environment: builds the union state model (Algorithm 2)
    /// and re-checks every applicable property on the combined behaviour.
    pub fn analyze_environment(
        &self,
        group_name: &str,
        apps: &[AppAnalysis],
    ) -> EnvironmentAnalysis {
        let refs: Vec<&AppAnalysis> = apps.iter().collect();
        self.analyze_environment_refs(group_name, &refs)
    }

    /// [`Soteria::analyze_environment`] over borrowed member analyses — the
    /// service path, where members are frozen behind `Arc`s and must not be
    /// deep-copied per environment job.
    pub fn analyze_environment_refs(
        &self,
        group_name: &str,
        apps: &[&AppAnalysis],
    ) -> EnvironmentAnalysis {
        let started = Instant::now();
        let models: Vec<&StateModel> = apps.iter().map(|a| &a.model).collect();
        let union_options = UnionOptions::default();
        // The union is compiled once: its lift is the report's union model, and
        // the check explores its compiled edges.
        let (union_model, edges) = union_models_with_edges(group_name, &models, &union_options);
        let union_time = started.elapsed();

        let verification_started = Instant::now();
        let under_test = apps_under_test(apps);
        let app_names: Vec<String> = apps.iter().map(|a| a.ir.name.clone()).collect();
        let mut violations = check_general(&under_test, &self.registry);

        // App-specific properties on the union Kripke structure.
        let ctx = DeviceContext::from_apps(&under_test);
        let all_specs: Vec<TransitionSpec> =
            apps.iter().flat_map(|a| a.specs.iter().cloned()).collect();
        // Start offset of each app's slice within `all_specs`, so kept indices can be
        // mapped back to their owning app in O(log n) instead of the former
        // O(specs²) pointer scan.
        let spec_offsets: Vec<usize> = apps
            .iter()
            .scan(0usize, |acc, a| {
                let start = *acc;
                *acc += a.specs.len();
                Some(start)
            })
            .collect();
        // The union model uses the abstractions already baked into the per-app models;
        // an aggregate abstraction is only needed for FP re-checking, so reuse the
        // first app's (values outside any domain collapse to `other`).
        let specific = self.check_specific(
            || Kripke::reachable_from_union(&union_model, &edges),
            &ctx,
            &app_names,
            &all_specs,
            |kept| {
                let filtered_models: Vec<StateModel> = apps
                    .iter()
                    .enumerate()
                    .map(|(i, a)| {
                        let start = spec_offsets[i];
                        let end = start + a.specs.len();
                        // `kept` is ascending, so this app's share is one subrange.
                        let lo = kept.partition_point(|&k| k < start);
                        let hi = kept.partition_point(|&k| k < end);
                        let kept_specs: Vec<TransitionSpec> =
                            kept[lo..hi].iter().map(|&k| a.specs[k - start].clone()).collect();
                        build_state_model(
                            &a.ir.name,
                            &a.abstraction,
                            &kept_specs,
                            &BuildOptions::default(),
                        )
                    })
                    .collect();
                let refs: Vec<&StateModel> = filtered_models.iter().collect();
                let (union, edges) = {
                    let _span = soteria_obs::span("union.build");
                    compile_union(group_name, &refs, &union_options)
                };
                Kripke::reachable_from_union(&union, &edges)
            },
        );
        violations.extend(specific);
        // Individual-app violations are reported by individual analysis; keep only the
        // findings that need the environment (multiple apps involved or not present in
        // any single app's report).
        let single_app: Vec<&Violation> = apps.iter().flat_map(|a| a.violations.iter()).collect();
        violations.retain(|v| {
            v.apps.len() > 1
                || !single_app
                    .iter()
                    .any(|s| s.property == v.property && s.description == v.description)
        });
        let verification_time = verification_started.elapsed();

        EnvironmentAnalysis {
            name: group_name.to_string(),
            app_names,
            union_model,
            violations,
            union_time,
            verification_time,
        }
    }

    /// [`Soteria::analyze_environment_refs`] plus a [`SatSnapshot`] handle to
    /// `default_initial_kripke` of the union, present exactly when the group
    /// has a checkable app-specific formula. Kept only because the benchmark
    /// harness's replay and its tests still call it.
    #[doc(hidden)]
    pub fn analyze_environment_with_snapshot(
        &self,
        group_name: &str,
        apps: &[&AppAnalysis],
    ) -> (EnvironmentAnalysis, Option<SatSnapshot>) {
        let env = self.analyze_environment_refs(group_name, apps);
        let ctx = DeviceContext::from_apps(&apps_under_test(apps));
        let snapshot = (!checkable_formulas(&ctx).is_empty()).then(|| {
            let kripke = Arc::new(default_initial_kripke(&env.union_model));
            ModelChecker::new(&kripke).snapshot_with(Arc::clone(&kripke))
        });
        (env, snapshot)
    }

    /// [`Soteria::analyze_environment_with_snapshot`]; the base, snapshot and
    /// changed-member arguments are ignored. Kept only because the benchmark
    /// harness's replay and its tests still call it.
    #[doc(hidden)]
    pub fn analyze_environment_incremental(
        &self,
        group_name: &str,
        apps: &[&AppAnalysis],
        _: &EnvironmentAnalysis,
        _: &SatSnapshot,
        _: usize,
    ) -> (EnvironmentAnalysis, Option<SatSnapshot>) {
        self.analyze_environment_with_snapshot(group_name, apps)
    }

    /// Rebuilds a full [`AppAnalysis`] from a persistent-store record: re-runs
    /// the deterministic ingestion stage ([`Soteria::ingest_app`]) on the stored
    /// source — reproducing the IR, specs, abstraction, and state model exactly —
    /// and attaches the stored verdicts and original timings, skipping
    /// verification entirely. The result serializes byte-identical to the
    /// analysis the record was taken from (including timing fields, which
    /// round-trip as exact nanoseconds).
    pub fn restore_app_analysis(
        &self,
        stored: StoredAppAnalysis,
    ) -> Result<AppAnalysis, ParseError> {
        let IngestedApp {
            ir,
            specs,
            summaries,
            abstraction,
            model,
            states_before_reduction,
            extraction_time: _,
        } = self.ingest_app(&stored.name, &stored.source)?;
        Ok(AppAnalysis {
            ir,
            specs,
            summaries,
            abstraction,
            model,
            violations: stored.violations,
            states_before_reduction,
            extraction_time: stored.extraction_time,
            verification_time: stored.verification_time,
        })
    }

    /// Rebuilds a full [`EnvironmentAnalysis`] from a persistent-store record
    /// and the (already restored or resident) member analyses: the union model
    /// is a deterministic function of the member models, so it is reconstructed
    /// rather than stored, and the stored verdicts and original timings are
    /// attached — verification is skipped. Byte-identical serialization to the
    /// original, like [`Soteria::restore_app_analysis`].
    pub fn restore_environment(
        &self,
        stored: StoredEnvironmentAnalysis,
        members: &[&AppAnalysis],
    ) -> EnvironmentAnalysis {
        let models: Vec<&StateModel> = members.iter().map(|a| &a.model).collect();
        let union_model = union_models(&stored.name, &models, &UnionOptions::default());
        EnvironmentAnalysis {
            name: stored.name,
            app_names: stored.app_names,
            union_model,
            violations: stored.violations,
            union_time: stored.union_time,
            verification_time: stored.verification_time,
        }
    }

    /// Nondeterministic state models are reported as a safety violation (Sec. 4.2).
    fn determinism_violations(&self, model: &StateModel, apps: &[String]) -> Vec<Violation> {
        let found = model.nondeterminism();
        if found.is_empty() {
            return Vec::new();
        }
        let label = model.state_labeler();
        found
            .into_iter()
            .map(|nd| {
                Violation::new(
                    PropertyId::Determinism,
                    format!(
                        "nondeterministic model: event {} from state {} may reach both {} and {}",
                        nd.event.kind,
                        label(nd.state),
                        label(nd.targets.0),
                        label(nd.targets.1)
                    ),
                    apps.to_vec(),
                )
            })
            .collect()
    }

    /// Checks the applicable app-specific properties on one app's model.
    fn check_app_specific(
        &self,
        model: &StateModel,
        specs: &[TransitionSpec],
        abstraction: &soteria_analysis::Abstraction,
        ctx: &DeviceContext,
        apps: &[String],
    ) -> Vec<Violation> {
        // The model's own transitions are a one-member union, so the explorer
        // that checks environments builds the per-app fragments too.
        self.check_specific(
            || Kripke::reachable_from_state_model(model),
            ctx,
            apps,
            specs,
            |kept| {
                let kept_owned: Vec<TransitionSpec> =
                    kept.iter().map(|&i| specs[i].clone()).collect();
                Kripke::reachable_from_state_model(&build_state_model(
                    &model.name,
                    abstraction,
                    &kept_owned,
                    &BuildOptions::default(),
                ))
            },
        )
    }

    /// Shared logic for checking P.1–P.30 on a model. `fragment` builds the
    /// Kripke fragment the model's default initial state reaches.
    /// `rebuild_without_reflection` receives the (ascending) indices into
    /// `specs` of the specs to keep and builds that fragment of the model
    /// rebuilt from them, so that violations that disappear without the
    /// reflection over-approximation can be marked as possible false positives
    /// (the MalIoT App5 case).
    ///
    /// Every checkable formula is an invariant, `AG` of a propositional body,
    /// so the applicable formulas are checked as one batch by one forward
    /// search ([`check_invariants`]), and so are the failing formulas on the
    /// reflection-free fragment. The fragment gives the full structure's
    /// verdicts and counterexamples.
    fn check_specific(
        &self,
        fragment: impl FnOnce() -> Kripke,
        ctx: &DeviceContext,
        apps: &[String],
        specs: &[TransitionSpec],
        rebuild_without_reflection: impl FnOnce(&[usize]) -> Kripke,
    ) -> Vec<Violation> {
        let (ids, formulas): (Vec<u8>, Vec<Ctl>) = checkable_formulas(ctx).into_iter().unzip();
        if formulas.is_empty() {
            return Vec::new();
        }
        let kripke = fragment();
        let results = {
            let _s = soteria_obs::span("check.batch");
            check_invariants(&kripke, &formulas)
        };

        let failing: Vec<usize> =
            (0..results.len()).filter(|&i| !results[i].holds).collect();
        if failing.is_empty() {
            return Vec::new();
        }
        // Re-check the failures on the reflection-free model (built once) to flag
        // possible false positives.
        let holds_without_reflection: Vec<bool> = if specs.iter().any(|s| s.via_reflection) {
            let kept: Vec<usize> =
                (0..specs.len()).filter(|&i| !specs[i].via_reflection).collect();
            let k = rebuild_without_reflection(&kept);
            let failing_formulas: Vec<Ctl> =
                failing.iter().map(|&i| formulas[i].clone()).collect();
            check_invariants(&k, &failing_formulas).iter().map(|r| r.holds).collect()
        } else {
            vec![false; failing.len()]
        };

        let mut violations = Vec::new();
        for (&i, &fp) in failing.iter().zip(&holds_without_reflection) {
            let id = ids[i];
            let info = property_info(PropertyId::AppSpecific(id));
            let mut violation = Violation::new(
                PropertyId::AppSpecific(id),
                info.map(|i| i.description.to_string()).unwrap_or_else(|| format!("property P.{id}")),
                apps.to_vec(),
            );
            if let Some(trace) = &results[i].counterexample {
                violation = violation.with_counterexample(trace.clone());
            }
            if fp {
                violation = violation.as_possible_false_positive();
            }
            violations.push(violation);
        }
        violations
    }
}

/// The members as the property layer sees them.
fn apps_under_test<'a>(apps: &[&'a AppAnalysis]) -> Vec<AppUnderTest<'a>> {
    apps.iter()
        .map(|a| AppUnderTest {
            name: a.ir.name.as_str(),
            ir: &a.ir,
            specs: &a.specs,
            summaries: &a.summaries,
        })
        .collect()
}

/// The applicable app-specific properties whose formula is not trivially
/// true, as `(id, formula)` pairs in property order.
fn checkable_formulas(ctx: &DeviceContext) -> Vec<(u8, Ctl)> {
    applicable_properties(ctx)
        .into_iter()
        .filter_map(|id| formula(id, ctx).map(|f| (id, f)))
        .filter(|(_, f)| *f != Ctl::True)
        .collect()
}

/// Builds the full Kripke structure of a model and restricts its initial states to
/// the model's default configuration, so that `AG` properties quantify over the
/// states the app can actually drive the environment into.
///
/// Production checks build only the fragment this structure's initial state
/// reaches ([`Kripke::reachable_from_state_model`]), from the same builder, and
/// search it with [`check_invariants`]. This full structure is kept for the
/// benchmark's replay, which checks it with the CTL engine
/// ([`ModelChecker`]), and for tests that compare model encodings on it; the
/// fragment's oracle is the independent `soteria_checker::kripke::reference`
/// builder.
pub fn default_initial_kripke(model: &StateModel) -> Kripke {
    let mut kripke = Kripke::from_state_model(model);
    // Quiescent Kripke states are created first, one per model state, in order — so
    // the Kripke id of the default state equals the model's initial state id.
    kripke.initial = vec![model.initial];
    kripke
}

#[cfg(test)]
mod tests {
    use super::*;

    const WATER_LEAK: &str = r#"
        definition(name: "Water-Leak-Detector", category: "Safety & Security")
        preferences {
            section("When there's water detected...") {
                input "water_sensor", "capability.waterSensor", title: "Where?"
                input "valve_device", "capability.valve", title: "Valve device"
            }
        }
        def installed() {
            subscribe(water_sensor, "water.wet", waterWetHandler)
        }
        def waterWetHandler(evt) {
            valve_device.close()
        }
    "#;

    const BROKEN_LEAK: &str = r#"
        definition(name: "Broken-Leak-Detector", category: "Safety & Security")
        preferences {
            section("d") {
                input "water_sensor", "capability.waterSensor"
                input "valve_device", "capability.valve"
            }
        }
        def installed() {
            subscribe(water_sensor, "water.wet", h)
        }
        def h(evt) {
            valve_device.open()
        }
    "#;

    #[test]
    fn correct_water_leak_detector_has_no_violations() {
        let soteria = Soteria::new();
        let analysis = soteria.analyze_app("wld", WATER_LEAK).unwrap();
        assert_eq!(analysis.ir.name, "Water-Leak-Detector");
        assert_eq!(analysis.model.state_count(), 4);
        assert!(analysis.violations.is_empty(), "violations: {:?}", analysis.violations);
    }

    #[test]
    fn broken_water_leak_detector_violates_p30() {
        let soteria = Soteria::new();
        let analysis = soteria.analyze_app("broken", BROKEN_LEAK).unwrap();
        let p30: Vec<&Violation> = analysis
            .violations
            .iter()
            .filter(|v| v.property == PropertyId::AppSpecific(30))
            .collect();
        assert_eq!(p30.len(), 1);
        let trace = p30[0].counterexample.as_ref().unwrap();
        assert!(trace.last().unwrap().contains("water.wet"), "trace: {trace:?}");
    }

    #[test]
    fn environment_of_conflicting_apps_reports_cross_app_violation() {
        let smoke_on = r#"
            definition(name: "Smoke-Light-On")
            preferences { section("d") {
                input "sw", "capability.switch"
                input "smoke", "capability.smokeDetector"
            } }
            def installed() { subscribe(smoke, "smoke.detected", h) }
            def h(evt) { sw.on() }
        "#;
        let smoke_off = r#"
            definition(name: "Smoke-Light-Off")
            preferences { section("d") {
                input "sw", "capability.switch"
                input "smoke", "capability.smokeDetector"
            } }
            def installed() { subscribe(smoke, "smoke.detected", h) }
            def h(evt) { sw.off() }
        "#;
        let soteria = Soteria::new();
        let a = soteria.analyze_app("a", smoke_on).unwrap();
        let b = soteria.analyze_app("b", smoke_off).unwrap();
        assert!(a.violations.is_empty());
        assert!(b.violations.is_empty());
        let env = soteria.analyze_environment("G", &[a, b]);
        assert!(env
            .violations
            .iter()
            .any(|v| v.property == PropertyId::General(1) && v.apps.len() == 2));
        assert!(env.union_model.state_count() >= 2);
    }

    #[test]
    fn batch_analysis_matches_individual_calls_at_any_thread_count() {
        let apps = [("wld", WATER_LEAK), ("broken", BROKEN_LEAK)];
        let sequential = Soteria::with_config(AnalysisConfig { threads: 1, ..AnalysisConfig::paper() });
        let expected: Vec<Vec<Violation>> = apps
            .iter()
            .map(|(n, s)| sequential.analyze_app(n, s).unwrap().violations)
            .collect();
        for threads in [1, 4] {
            let soteria =
                Soteria::with_config(AnalysisConfig { threads, ..AnalysisConfig::paper() });
            let batch = soteria.analyze_apps(&apps);
            assert_eq!(batch.len(), 2);
            for (analysis, want) in batch.iter().zip(&expected) {
                assert_eq!(&analysis.as_ref().unwrap().violations, want, "threads = {threads}");
            }
        }
    }

    #[test]
    fn batch_environments_match_individual_calls() {
        let soteria = Soteria::new();
        let a = soteria.analyze_app("wld", WATER_LEAK).unwrap();
        let b = soteria.analyze_app("broken", BROKEN_LEAK).unwrap();
        let g1 = [a.clone()];
        let g2 = [a.clone(), b.clone()];
        let groups: Vec<(&str, &[AppAnalysis])> = vec![("G1", &g1), ("G2", &g2)];
        let batch = soteria.analyze_environments(&groups);
        let individual =
            [soteria.analyze_environment("G1", &g1), soteria.analyze_environment("G2", &g2)];
        assert_eq!(batch.len(), 2);
        for (got, want) in batch.iter().zip(&individual) {
            assert_eq!(got.name, want.name);
            assert_eq!(got.violations, want.violations);
            assert_eq!(got.union_model.transitions, want.union_model.transitions);
        }
    }

    #[test]
    fn parse_errors_surface_per_app_in_the_batch() {
        let soteria = Soteria::new();
        let results = soteria.analyze_apps(&[("ok", WATER_LEAK), ("bad", "definition(")]);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
    }

    #[test]
    fn timing_fields_are_populated() {
        let soteria = Soteria::new();
        let analysis = soteria.analyze_app("wld", WATER_LEAK).unwrap();
        // Durations are non-negative by construction; just confirm they were measured.
        assert!(analysis.extraction_time.as_nanos() > 0);
        assert!(analysis.states_before_reduction >= analysis.model.state_count());
    }
}
