//! The end-to-end Soteria analyzer: source code → IR → state model → model checking.

use crate::report::{
    AppAnalysis, EnvironmentAnalysis, IngestedApp, StoredAppAnalysis,
    StoredEnvironmentAnalysis,
};
use soteria_analysis::{abstract_domains, AnalysisConfig, SymbolicExecutor, TransitionSpec};
use soteria_capability::CapabilityRegistry;
use soteria_checker::{
    check_all_parallel_with, Ctl, Engine, Kripke, ModelChecker, SatSnapshot,
};
use soteria_ir::AppIr;
use soteria_lang::ParseError;
use soteria_model::{
    build_state_model, union_models, union_models_delta, BuildOptions, StateModel, Transition,
    UnionOptions,
};
use soteria_properties::{
    applicable_properties, check_general, formula, property_info, AppUnderTest, DeviceContext,
    PropertyId, Violation,
};
use std::sync::Arc;
use std::time::Instant;

/// How an environment analysis builds its union model and runs its checks.
///
/// Every mode produces a byte-identical [`EnvironmentAnalysis`]; the modes only
/// differ in how much work they reuse and whether they export a
/// [`SatSnapshot`] for the *next* analysis of the same group.
enum EnvMode<'a> {
    /// From scratch, property-level parallel check, no snapshot (the batch /
    /// corpus-sweep path — zero overhead when nobody will re-verify).
    Batch,
    /// From scratch on a single memo-sharing checker, exporting its sat sets
    /// (the service's cold path: first analysis of a resident group).
    Snapshot,
    /// One member changed: delta-union against the cached base model, sat-set
    /// reuse from the cached snapshot, fresh snapshot exported.
    Incremental {
        base: &'a EnvironmentAnalysis,
        snapshot: &'a SatSnapshot,
        changed_member: usize,
    },
}

/// The checking half of [`EnvMode`], passed into `check_specific_on_model`.
enum CheckMode<'a> {
    Batch,
    Snapshot,
    Reuse { snapshot: &'a SatSnapshot, dirty_prefixes: &'a [String] },
}

/// The Soteria analyzer (Fig. 3): obtains the IR of an app, constructs its state
/// model, and performs model checking against the general and app-specific properties,
/// both for individual apps and for multi-app environments.
#[derive(Debug, Clone)]
pub struct Soteria {
    /// The device capability reference.
    pub registry: CapabilityRegistry,
    /// The static-analysis configuration.
    pub config: AnalysisConfig,
    /// The model-checking engine.
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
        self.analyze_environment_impl(group_name, apps, EnvMode::Batch).0
    }

    /// [`Soteria::analyze_environment_refs`] plus a [`SatSnapshot`] of the
    /// union check's memoized satisfaction sets — the cold half of incremental
    /// re-verification. The analysis itself is byte-identical to the plain
    /// call; the snapshot (when the group had checkable properties) is what a
    /// later [`Soteria::analyze_environment_incremental`] consumes.
    pub fn analyze_environment_with_snapshot(
        &self,
        group_name: &str,
        apps: &[&AppAnalysis],
    ) -> (EnvironmentAnalysis, Option<SatSnapshot>) {
        self.analyze_environment_impl(group_name, apps, EnvMode::Snapshot)
    }

    /// Re-analyzes an environment after exactly one member changed, reusing a
    /// cached base: the union model is rebuilt by
    /// [`union_models_delta`] (re-lifting only the changed member and splicing
    /// the rest from `base`), and the property check seeds its sat-set memo
    /// from `snapshot` for every subformula over unchanged members' attributes
    /// ([`ModelChecker::reuse_from`]). Falls back to full recomputation —
    /// silently, member by mechanism — whenever a guarantee fails (changed
    /// attribute domains, unprojectable states), so the result is always
    /// byte-identical to [`Soteria::analyze_environment_refs`] on the same
    /// members. Returns the fresh analysis and the next snapshot.
    pub fn analyze_environment_incremental(
        &self,
        group_name: &str,
        apps: &[&AppAnalysis],
        base: &EnvironmentAnalysis,
        snapshot: &SatSnapshot,
        changed_member: usize,
    ) -> (EnvironmentAnalysis, Option<SatSnapshot>) {
        self.analyze_environment_impl(
            group_name,
            apps,
            EnvMode::Incremental { base, snapshot, changed_member },
        )
    }

    /// Shared body of the three environment entry points; see [`EnvMode`].
    fn analyze_environment_impl(
        &self,
        group_name: &str,
        apps: &[&AppAnalysis],
        mode: EnvMode<'_>,
    ) -> (EnvironmentAnalysis, Option<SatSnapshot>) {
        // An out-of-range changed member cannot be incremental; degrade to the
        // cold snapshot path rather than indexing past the member list.
        let mode = match mode {
            EnvMode::Incremental { changed_member, .. } if changed_member >= apps.len() => {
                EnvMode::Snapshot
            }
            m => m,
        };
        let started = Instant::now();
        let models: Vec<&StateModel> = apps.iter().map(|a| &a.model).collect();
        // Thread the configured worker count into the union lift (Algorithm 2's free
        // sub-product enumeration parallelizes; the result is byte-identical).
        let union_options =
            UnionOptions { threads: self.config.threads, ..UnionOptions::default() };
        let union_model = match &mode {
            EnvMode::Incremental { base, changed_member, .. }
                if base.union_model.name == group_name =>
            {
                union_models_delta(&base.union_model, &models, *changed_member, &union_options)
                    .unwrap_or_else(|| union_models(group_name, &models, &union_options))
            }
            _ => union_models(group_name, &models, &union_options),
        };
        let union_time = started.elapsed();

        let verification_started = Instant::now();
        let under_test: Vec<AppUnderTest<'_>> = apps
            .iter()
            .map(|a| AppUnderTest {
                name: a.ir.name.as_str(),
                ir: &a.ir,
                specs: &a.specs,
                summaries: &a.summaries,
            })
            .collect();
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
        // The changed member's attribute partition: its own attributes' `attr:`
        // prefixes plus its `by-app:` atom. These atoms are force-marked dirty in
        // the reuse tier (anything over them recomputes); everything else is
        // pointwise-verified stable before reuse, so the partition is a work
        // hint, never a soundness input.
        let dirty_prefixes: Vec<String> = match &mode {
            EnvMode::Incremental { changed_member, .. } => {
                let changed = apps[*changed_member];
                let mut prefixes: Vec<String> = changed
                    .model
                    .attributes
                    .keys()
                    .map(|(handle, attribute)| format!("attr:{handle}.{attribute}="))
                    .collect();
                prefixes.push(format!("by-app:{}", changed.ir.name));
                prefixes
            }
            _ => Vec::new(),
        };
        // Incremental structure reuse: rebuild the union's Kripke structure from
        // the snapshot's (no-op resubmissions hand back the very same
        // allocation; single-member edits copy the unchanged members' states)
        // instead of from scratch. `projectable` reports whether the sat-set
        // projection onto the rebuilt structure can be total; when it cannot,
        // the doomed projection attempt is skipped outright (snapshot-only
        // mode), which changes no verdict — an untotal projection stays cold.
        let (prebuilt, projectable) = match &mode {
            EnvMode::Incremental { base, snapshot, changed_member } => incremental_kripke(
                &union_model,
                base,
                snapshot,
                apps[*changed_member].ir.name.as_str(),
            ),
            _ => (None, true),
        };
        let check_mode = match &mode {
            EnvMode::Batch => CheckMode::Batch,
            EnvMode::Snapshot => CheckMode::Snapshot,
            EnvMode::Incremental { snapshot, .. } if projectable => {
                CheckMode::Reuse { snapshot, dirty_prefixes: &dirty_prefixes }
            }
            EnvMode::Incremental { .. } => CheckMode::Snapshot,
        };
        // The union model uses the abstractions already baked into the per-app models;
        // an aggregate abstraction is only needed for FP re-checking, so reuse the
        // first app's (values outside any domain collapse to `other`).
        let (specific, out_snapshot) = self.check_specific_on_model(
            &union_model,
            prebuilt,
            &ctx,
            &app_names,
            &all_specs,
            check_mode,
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
                union_models(group_name, &refs, &union_options)
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

        (
            EnvironmentAnalysis {
                name: group_name.to_string(),
                app_names,
                union_model,
                violations,
                union_time,
                verification_time,
            },
            out_snapshot,
        )
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
        let union_options =
            UnionOptions { threads: self.config.threads, ..UnionOptions::default() };
        let union_model = union_models(&stored.name, &models, &union_options);
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
        model
            .nondeterminism()
            .into_iter()
            .map(|nd| {
                Violation::new(
                    PropertyId::Determinism,
                    format!(
                        "nondeterministic model: event {} from state {} may reach both {} and {}",
                        nd.event.kind,
                        model.state(nd.state).label(),
                        model.state(nd.targets.0).label(),
                        model.state(nd.targets.1).label()
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
        self.check_specific_on_model(model, None, ctx, apps, specs, CheckMode::Batch, |kept| {
            let kept_owned: Vec<TransitionSpec> =
                kept.iter().map(|&i| specs[i].clone()).collect();
            build_state_model(&model.name, abstraction, &kept_owned, &BuildOptions::default())
        })
        .0
    }

    /// Shared logic for checking P.1–P.30 on a model. `rebuild_without_reflection`
    /// receives the (ascending) indices into `specs` of the specs to keep and
    /// rebuilds the model from them, so that violations that disappear without the
    /// reflection over-approximation can be marked as possible false positives (the
    /// MalIoT App5 case).
    ///
    /// The applicable formulas are checked as one batch: in [`CheckMode::Batch`]
    /// via [`check_all_parallel_with`] (on larger-than-one-word state universes
    /// the ~30 properties share cached subformula satisfaction sets within a
    /// shard, and above the property threshold the shards fan out across
    /// per-thread checkers; small universes recompute — see the checker's
    /// `SMALL_UNIVERSE` note). The snapshot modes run the whole batch on one
    /// memo-sharing checker instead so its sat sets can be exported (and, in
    /// [`CheckMode::Reuse`], seeded from the previous check) — the existing
    /// parallel-identity gate makes the two schedules byte-identical. The
    /// reflection-free re-check batches the failing formulas the parallel way
    /// in every mode.
    #[allow(clippy::too_many_arguments)]
    fn check_specific_on_model(
        &self,
        model: &StateModel,
        prebuilt: Option<Arc<Kripke>>,
        ctx: &DeviceContext,
        apps: &[String],
        specs: &[TransitionSpec],
        mode: CheckMode<'_>,
        rebuild_without_reflection: impl Fn(&[usize]) -> StateModel,
    ) -> (Vec<Violation>, Option<SatSnapshot>) {
        let applicable = applicable_properties(ctx);
        if applicable.is_empty() {
            return (Vec::new(), None);
        }
        let mut ids: Vec<u8> = Vec::new();
        let mut formulas: Vec<Ctl> = Vec::new();
        for id in applicable {
            let Some(f) = formula(id, ctx) else { continue };
            if f == Ctl::True {
                continue;
            }
            ids.push(id);
            formulas.push(f);
        }
        if formulas.is_empty() {
            return (Vec::new(), None);
        }
        // `prebuilt` (the incremental paths) is struct-equal to this scratch
        // build by the delta builder's contract; it splices the unchanged
        // members' states instead of resolving every transition again (market
        // G.3: ~47k Kripke states from ~154k transitions).
        let kripke: Arc<Kripke> =
            prebuilt.unwrap_or_else(|| Arc::new(default_initial_kripke(model)));
        let (results, snapshot) = match mode {
            CheckMode::Batch => {
                let _s = soteria_obs::span("check.batch");
                (
                    check_all_parallel_with(
                        &kripke,
                        self.engine,
                        &formulas,
                        self.threads(),
                        self.config.property_shard_states,
                        self.config.fixpoint_shard_states,
                    ),
                    None,
                )
            }
            CheckMode::Snapshot => {
                let _s = soteria_obs::span("check.cold");
                let checker = ModelChecker::with_sharding(
                    &kripke,
                    self.engine,
                    self.config.threads,
                    self.config.fixpoint_shard_states,
                );
                let results = checker.check_all(&formulas);
                let exported = checker.snapshot_with(kripke.clone());
                (results, Some(exported))
            }
            CheckMode::Reuse { snapshot, dirty_prefixes } => {
                let _s = soteria_obs::span("check.reuse");
                let checker = ModelChecker::with_sharding(
                    &kripke,
                    self.engine,
                    self.config.threads,
                    self.config.fixpoint_shard_states,
                )
                .reuse_from(snapshot, dirty_prefixes);
                let results = checker.check_all(&formulas);
                let exported = checker.snapshot_with(kripke.clone());
                (results, Some(exported))
            }
        };

        let failing: Vec<usize> =
            (0..results.len()).filter(|&i| !results[i].holds).collect();
        if failing.is_empty() {
            return (Vec::new(), snapshot);
        }
        // Re-check the failures on the reflection-free model (built once) to flag
        // possible false positives.
        let holds_without_reflection: Vec<bool> = if specs.iter().any(|s| s.via_reflection) {
            let kept: Vec<usize> =
                (0..specs.len()).filter(|&i| !specs[i].via_reflection).collect();
            let m = rebuild_without_reflection(&kept);
            let k = default_initial_kripke(&m);
            let failing_formulas: Vec<Ctl> =
                failing.iter().map(|&i| formulas[i].clone()).collect();
            check_all_parallel_with(
                &k,
                self.engine,
                &failing_formulas,
                self.threads(),
                self.config.property_shard_states,
                self.config.fixpoint_shard_states,
            )
            .iter()
            .map(|r| r.holds)
            .collect()
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
        (violations, snapshot)
    }
}

/// Builds the Kripke structure of a model and restricts its initial states to the
/// model's default configuration, so that `AG` properties quantify over the states the
/// app can actually drive the environment into.
pub fn default_initial_kripke(model: &StateModel) -> Kripke {
    let mut kripke = Kripke::from_state_model(model);
    // Quiescent Kripke states are created first, one per model state, in order — so
    // the Kripke id of the default state equals the model's initial state id.
    kripke.initial = vec![model.initial];
    kripke
}

/// Rebuilds the union's Kripke structure from the snapshot's for the
/// incremental path, returning `(prebuilt structure, sat-set projection can be
/// total)`. Three outcomes, in order:
///
/// * the rebuilt union equals the base's (a no-op resubmission): the
///   snapshot's own allocation is handed back, so the checker's reuse tier
///   resolves on pointer equality;
/// * the union differs in one member's block: [`Kripke::from_state_model_delta`]
///   copies every unchanged member's states (byte-identical to a scratch
///   build); projection is only worth attempting if the changed member's event
///   states all existed before;
/// * the delta preconditions fail: `None`, and the caller builds from scratch
///   exactly as the cold path does.
fn incremental_kripke(
    union_model: &StateModel,
    base: &EnvironmentAnalysis,
    snapshot: &SatSnapshot,
    changed_app: &str,
) -> (Option<Arc<Kripke>>, bool) {
    let base_kripke = snapshot.kripke();
    if base_kripke.initial.as_slice() == [union_model.initial]
        && union_model.name == base.union_model.name
        && union_model.initial == base.union_model.initial
        && union_model.attributes == base.union_model.attributes
        && transitions_equal(&union_model.transitions, &base.union_model.transitions)
    {
        return (Some(base_kripke.clone()), true);
    }
    match Kripke::from_state_model_delta(base_kripke, union_model, changed_app) {
        Some((mut kripke, all_in_base)) => {
            kripke.initial = vec![union_model.initial];
            (Some(Arc::new(kripke)), all_in_base)
        }
        None => (None, true),
    }
}

/// Value equality of two transition lists, short-cutting on shared labels: the
/// delta union splices unchanged members' transitions by `Arc` handle, so for a
/// no-op resubmission all but one member's block compares by pointer.
fn transitions_equal(a: &[Transition], b: &[Transition]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.from == y.from
                && x.to == y.to
                && (Arc::ptr_eq(&x.label, &y.label) || x.label == y.label)
        })
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
    fn incremental_environment_is_byte_identical_to_batch() {
        // The same app name and devices as BROKEN_LEAK, with the handler fixed
        // (close instead of open) — a same-domain single-member edit.
        let fixed_leak = r#"
            definition(name: "Broken-Leak-Detector", category: "Safety & Security")
            preferences { section("d") {
                input "water_sensor", "capability.waterSensor"
                input "valve_device", "capability.valve"
            } }
            def installed() { subscribe(water_sensor, "water.wet", h) }
            def h(evt) { valve_device.close() }
        "#;
        let soteria = Soteria::new();
        let a = soteria.analyze_app("wld", WATER_LEAK).unwrap();
        let b = soteria.analyze_app("broken", BROKEN_LEAK).unwrap();
        let refs = [&a, &b];
        let (cold, snapshot) = soteria.analyze_environment_with_snapshot("G", &refs);
        let batch = soteria.analyze_environment_refs("G", &refs);
        assert_eq!(cold.violations, batch.violations);
        assert_eq!(cold.union_model.transitions, batch.union_model.transitions);
        let snapshot = snapshot.expect("a checkable group exports a snapshot");

        // Edit member 1, re-verify incrementally, and compare to a full rebuild.
        let edited = soteria.analyze_app("broken", fixed_leak).unwrap();
        let new_refs = [&a, &edited];
        let (incremental, next_snapshot) =
            soteria.analyze_environment_incremental("G", &new_refs, &cold, &snapshot, 1);
        let scratch = soteria.analyze_environment_refs("G", &new_refs);
        assert_eq!(incremental.violations, scratch.violations);
        assert_eq!(incremental.app_names, scratch.app_names);
        assert_eq!(
            incremental.union_model.transitions,
            scratch.union_model.transitions
        );
        assert!(next_snapshot.is_some());

        // A no-op "edit" (identical members) exercises the identical-structure
        // reuse tier and must also reproduce the batch result.
        let (warm, _) = soteria.analyze_environment_incremental("G", &refs, &cold, &snapshot, 1);
        assert_eq!(warm.violations, batch.violations);
        assert_eq!(warm.union_model.transitions, batch.union_model.transitions);
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
