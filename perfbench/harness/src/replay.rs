//! The per-layer ledger: each production entry point replayed layer by layer
//! through the crates' public functions, with every layer call timed from
//! here.
//!
//! The replay mirrors `Soteria::analyze_app`, the three environment paths of
//! `Soteria::analyze_environment*` (batch, snapshot, incremental), the
//! service's report, protocol and store steps, and the restore path. Its
//! outputs are compared against the production calls (`tests/replay.rs` and
//! every traced run), so the ledger cannot silently time a copy that drifted.
//! Timers never nest: each layer's time is the sum of its own calls.

use soteria::analysis::{abstract_domains, SymbolicExecutor, TransitionSpec};
use soteria::checker::{check_all_parallel_with, Ctl, Kripke, ModelChecker, SatSnapshot};
use soteria::ir::AppIr;
use soteria::lang::{Lexer, ParseError};
use soteria::model::{
    build_state_model, union_models, union_models_delta, BuildOptions, StateModel, Transition,
    UnionOptions,
};
use soteria::properties::{
    applicable_properties, check_general, formula, property_info, AppUnderTest, DeviceContext,
    PropertyId, Violation,
};
use soteria::{
    app_analysis_json, app_from_store_json, app_store_json, env_from_store_json, env_store_json,
    environment_json, AppAnalysis, EnvironmentAnalysis, JsonValue, Soteria, StoredAppAnalysis,
    StoredEnvironmentAnalysis,
};
use soteria_service::protocol::{parse_request, Request};
use soteria_service::{frame_entry, parse_entry};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer time (ms) and counts accumulated over some span of replayed work.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Milliseconds per layer metric name.
    pub ms: BTreeMap<&'static str, f64>,
    /// Counts per metric name.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Runs `f`, adding its wall time to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = std::hint::black_box(f());
        *self.ms.entry(layer).or_default() += started.elapsed().as_secs_f64() * 1e3;
        out
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: usize) {
        *self.counts.entry(name).or_default() += n as f64;
    }

    /// The sum of every layer's time.
    pub fn layer_sum_ms(&self) -> f64 {
        self.ms.values().sum()
    }
}

/// How an environment replay builds its union and runs its check (the
/// analyzer's batch, snapshot and incremental paths).
pub enum EnvPath<'a> {
    /// From scratch, property-parallel check (`analyze_environment`).
    Batch,
    /// From scratch on one memo-sharing checker that exports its sat sets
    /// (`analyze_environment_with_snapshot`, the service's cold path).
    Snapshot,
    /// One member changed (`analyze_environment_incremental`).
    Incremental {
        base: &'a EnvironmentAnalysis,
        snapshot: &'a SatSnapshot,
        changed: usize,
    },
}

enum CheckPath<'a> {
    Batch,
    Snapshot,
    Reuse {
        snapshot: &'a SatSnapshot,
        dirty: &'a [String],
    },
}

/// A replayed environment analysis plus what the replay built on the way.
pub struct EnvReplay {
    /// The analysis, equal to the production call's.
    pub analysis: EnvironmentAnalysis,
    /// The exported sat sets (snapshot and incremental paths).
    pub snapshot: Option<SatSnapshot>,
    /// The Kripke structure the check ran on (`None` if nothing was checked).
    pub kripke: Option<Arc<Kripke>>,
}

/// Replays production calls on one analyzer, recording into [`Replay::ledger`].
pub struct Replay<'a> {
    soteria: &'a Soteria,
    /// What the replayed calls cost, by layer.
    pub ledger: Ledger,
    /// Wall time of the replayed operations, timers included.
    pub wall_ms: f64,
}

impl<'a> Replay<'a> {
    /// A replay of `soteria`'s calls with an empty ledger.
    pub fn new(soteria: &'a Soteria) -> Self {
        Replay {
            soteria,
            ledger: Ledger::default(),
            wall_ms: 0.0,
        }
    }

    fn wall<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let started = Instant::now();
        let out = f(self);
        self.wall_ms += started.elapsed().as_secs_f64() * 1e3;
        out
    }

    /// `Soteria::analyze_app`, layer by layer.
    pub fn app(&mut self, name: &str, source: &str) -> Result<AppAnalysis, ParseError> {
        // Token counting is extra work, so it stays outside the wall clock.
        let tokens = Lexer::tokenize(source).map(|t| t.len()).unwrap_or(0);
        self.ledger.count("lang.tokens", tokens);
        self.wall(|r| r.app_inner(name, source))
    }

    fn app_inner(&mut self, name: &str, source: &str) -> Result<AppAnalysis, ParseError> {
        let s = self.soteria;
        let l = &mut self.ledger;
        let started = Instant::now();
        let program = l.time("lang.parse_ms", || soteria::lang::parse(source))?;
        let ir = l.time("ir.build_ms", || {
            AppIr::from_program(name, source, program, &s.registry)
        });
        let (specs, summaries) = l.time("analysis.symbolic_ms", || {
            let executor = SymbolicExecutor::new(&ir, &s.registry, s.config.clone());
            (executor.transition_specs(), executor.handler_summaries())
        });
        let abstraction = l.time("analysis.abstraction_ms", || {
            abstract_domains(&ir, &s.registry, &specs)
        });
        let states_before_reduction = abstraction.states_before();
        let model = l.time("model.build_ms", || {
            build_state_model(&ir.name, &abstraction, &specs, &BuildOptions::default())
        });
        l.count("analysis.specs", specs.len());
        l.count("model.states", model.state_count());
        let extraction_time = started.elapsed();

        let verification_started = Instant::now();
        let aut = AppUnderTest {
            name: &ir.name,
            ir: &ir,
            specs: &specs,
            summaries: &summaries,
        };
        let names = std::slice::from_ref(&ir.name);
        let mut violations = l.time("properties.general_ms", || {
            check_general(&[aut], &s.registry)
        });
        violations.extend(l.time("model.determinism_ms", || {
            determinism_violations(&model, names)
        }));
        let ctx = DeviceContext::from_apps(&[aut]);
        let (specific, _, _) = self.check_specific(
            &model,
            None,
            &ctx,
            names,
            &specs,
            CheckPath::Batch,
            |kept| {
                let kept: Vec<TransitionSpec> = kept.iter().map(|&i| specs[i].clone()).collect();
                build_state_model(&model.name, &abstraction, &kept, &BuildOptions::default())
            },
        );
        violations.extend(specific);
        let verification_time = verification_started.elapsed();
        Ok(AppAnalysis {
            ir,
            specs,
            summaries,
            abstraction,
            model,
            violations,
            states_before_reduction,
            extraction_time,
            verification_time,
        })
    }

    /// One of the `Soteria::analyze_environment*` paths, layer by layer.
    pub fn env(&mut self, group: &str, apps: &[&AppAnalysis], path: EnvPath<'_>) -> EnvReplay {
        self.wall(|r| r.env_inner(group, apps, path))
    }

    fn env_inner(&mut self, group: &str, apps: &[&AppAnalysis], path: EnvPath<'_>) -> EnvReplay {
        let s = self.soteria;
        let path = match path {
            EnvPath::Incremental { changed, .. } if changed >= apps.len() => EnvPath::Snapshot,
            p => p,
        };
        let started = Instant::now();
        let models: Vec<&StateModel> = apps.iter().map(|a| &a.model).collect();
        let options = UnionOptions {
            threads: s.config.threads,
            ..UnionOptions::default()
        };
        let l = &mut self.ledger;
        let delta = match &path {
            EnvPath::Incremental { base, changed, .. } if base.union_model.name == group => {
                l.count("model.union_delta_attempts", 1);
                l.time("model.union_delta_ms", || {
                    union_models_delta(&base.union_model, &models, *changed, &options)
                })
            }
            _ => None,
        };
        let union_model = match delta {
            Some(model) => {
                l.count("model.union_delta_hits", 1);
                model
            }
            None => l.time("model.union_ms", || union_models(group, &models, &options)),
        };
        l.count("model.union_transitions", union_model.transition_count());
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
        let mut violations = l.time("properties.general_ms", || {
            check_general(&under_test, &s.registry)
        });
        let ctx = DeviceContext::from_apps(&under_test);
        let all_specs: Vec<TransitionSpec> =
            apps.iter().flat_map(|a| a.specs.iter().cloned()).collect();
        let offsets: Vec<usize> = apps
            .iter()
            .scan(0usize, |acc, a| {
                let start = *acc;
                *acc += a.specs.len();
                Some(start)
            })
            .collect();
        let dirty: Vec<String> = match &path {
            EnvPath::Incremental { changed, .. } => {
                let changed = apps[*changed];
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
        let (prebuilt, projectable) = match &path {
            EnvPath::Incremental {
                base,
                snapshot,
                changed,
            } => self.incremental_kripke(&union_model, base, snapshot, &apps[*changed].ir.name),
            _ => (None, true),
        };
        let check = match &path {
            EnvPath::Batch => CheckPath::Batch,
            EnvPath::Snapshot => CheckPath::Snapshot,
            EnvPath::Incremental { snapshot, .. } if projectable => CheckPath::Reuse {
                snapshot,
                dirty: &dirty,
            },
            EnvPath::Incremental { .. } => CheckPath::Snapshot,
        };
        let (specific, snapshot, kripke) = self.check_specific(
            &union_model,
            prebuilt,
            &ctx,
            &app_names,
            &all_specs,
            check,
            |kept| {
                let filtered: Vec<StateModel> = apps
                    .iter()
                    .enumerate()
                    .map(|(i, a)| {
                        let start = offsets[i];
                        let lo = kept.partition_point(|&k| k < start);
                        let hi = kept.partition_point(|&k| k < start + a.specs.len());
                        let specs: Vec<TransitionSpec> = kept[lo..hi]
                            .iter()
                            .map(|&k| a.specs[k - start].clone())
                            .collect();
                        build_state_model(
                            &a.ir.name,
                            &a.abstraction,
                            &specs,
                            &BuildOptions::default(),
                        )
                    })
                    .collect();
                let refs: Vec<&StateModel> = filtered.iter().collect();
                union_models(group, &refs, &options)
            },
        );
        violations.extend(specific);
        let single: Vec<&Violation> = apps.iter().flat_map(|a| a.violations.iter()).collect();
        violations.retain(|v| {
            v.apps.len() > 1
                || !single
                    .iter()
                    .any(|s| s.property == v.property && s.description == v.description)
        });
        let verification_time = verification_started.elapsed();
        EnvReplay {
            analysis: EnvironmentAnalysis {
                name: group.to_string(),
                app_names,
                union_model,
                violations,
                union_time,
                verification_time,
            },
            snapshot,
            kripke,
        }
    }

    /// The analyzer's incremental structure reuse: the base structure itself
    /// for an unchanged union, else the delta Kripke builder.
    fn incremental_kripke(
        &mut self,
        union_model: &StateModel,
        base: &EnvironmentAnalysis,
        snapshot: &SatSnapshot,
        changed_app: &str,
    ) -> (Option<Arc<Kripke>>, bool) {
        let base_kripke = snapshot.kripke();
        let l = &mut self.ledger;
        l.count("checker.kripke_delta_attempts", 1);
        if base_kripke.initial.as_slice() == [union_model.initial]
            && union_model.name == base.union_model.name
            && union_model.initial == base.union_model.initial
            && union_model.attributes == base.union_model.attributes
            && transitions_equal(&union_model.transitions, &base.union_model.transitions)
        {
            l.count("checker.kripke_delta_hits", 1);
            return (Some(base_kripke.clone()), true);
        }
        let delta = l.time("checker.kripke_delta_ms", || {
            Kripke::from_state_model_delta(base_kripke, union_model, changed_app)
        });
        match delta {
            Some((mut kripke, all_in_base)) => {
                l.count("checker.kripke_delta_hits", 1);
                kripke.initial = vec![union_model.initial];
                (Some(Arc::new(kripke)), all_in_base)
            }
            None => (None, true),
        }
    }

    /// The analyzer's app-specific check with its reflection-free re-check.
    #[allow(clippy::too_many_arguments)]
    fn check_specific(
        &mut self,
        model: &StateModel,
        prebuilt: Option<Arc<Kripke>>,
        ctx: &DeviceContext,
        apps: &[String],
        specs: &[TransitionSpec],
        path: CheckPath<'_>,
        rebuild_without_reflection: impl Fn(&[usize]) -> StateModel,
    ) -> (Vec<Violation>, Option<SatSnapshot>, Option<Arc<Kripke>>) {
        let s = self.soteria;
        let l = &mut self.ledger;
        let mut ids: Vec<u8> = Vec::new();
        let mut formulas: Vec<Ctl> = Vec::new();
        for id in applicable_properties(ctx) {
            let Some(f) = formula(id, ctx) else { continue };
            if f != Ctl::True {
                ids.push(id);
                formulas.push(f);
            }
        }
        if formulas.is_empty() {
            return (Vec::new(), None, None);
        }
        let kripke = match prebuilt {
            Some(k) => k,
            None => Arc::new(l.time("checker.kripke_ms", || initial_kripke(model))),
        };
        l.count("checker.kripke_states", kripke.state_count());
        l.count("checker.kripke_edges", kripke.edge_count());
        l.count("checker.formulas", formulas.len());
        let (threads, shard, fixpoint) = (
            s.threads(),
            s.config.property_shard_states,
            s.config.fixpoint_shard_states,
        );
        let (results, snapshot) = match path {
            CheckPath::Batch => (
                l.time("checker.check_ms", || {
                    check_all_parallel_with(&kripke, s.engine, &formulas, threads, shard, fixpoint)
                }),
                None,
            ),
            CheckPath::Snapshot => l.time("checker.check_ms", || {
                let checker =
                    ModelChecker::with_sharding(&kripke, s.engine, s.config.threads, fixpoint);
                let results = checker.check_all(&formulas);
                (results, Some(checker.snapshot_with(kripke.clone())))
            }),
            CheckPath::Reuse { snapshot, dirty } => l.time("checker.check_reuse_ms", || {
                let checker =
                    ModelChecker::with_sharding(&kripke, s.engine, s.config.threads, fixpoint)
                        .reuse_from(snapshot, dirty);
                let results = checker.check_all(&formulas);
                (results, Some(checker.snapshot_with(kripke.clone())))
            }),
        };
        let failing: Vec<usize> = (0..results.len()).filter(|&i| !results[i].holds).collect();
        if failing.is_empty() {
            return (Vec::new(), snapshot, Some(kripke));
        }
        let holds_without_reflection: Vec<bool> = if specs.iter().any(|s| s.via_reflection) {
            l.count("soteria.fp_rechecks", 1);
            let kept: Vec<usize> = (0..specs.len())
                .filter(|&i| !specs[i].via_reflection)
                .collect();
            let failing_formulas: Vec<Ctl> = failing.iter().map(|&i| formulas[i].clone()).collect();
            l.time("soteria.fp_recheck_ms", || {
                let m = rebuild_without_reflection(&kept);
                let k = initial_kripke(&m);
                check_all_parallel_with(&k, s.engine, &failing_formulas, threads, shard, fixpoint)
                    .iter()
                    .map(|r| r.holds)
                    .collect()
            })
        } else {
            vec![false; failing.len()]
        };
        let mut violations = Vec::new();
        for (&i, &fp) in failing.iter().zip(&holds_without_reflection) {
            let id = ids[i];
            let info = property_info(PropertyId::AppSpecific(id));
            let mut violation = Violation::new(
                PropertyId::AppSpecific(id),
                info.map(|i| i.description.to_string())
                    .unwrap_or_else(|| format!("property P.{id}")),
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
        (violations, snapshot, Some(kripke))
    }

    /// The service's report serialization for an app (`app_analysis_json`).
    pub fn app_report(&mut self, analysis: &AppAnalysis) -> JsonValue {
        self.wall(|r| {
            r.ledger
                .time("soteria.report_json_ms", || app_analysis_json(analysis))
        })
    }

    /// The service's report serialization for a group (`environment_json`).
    pub fn env_report(&mut self, env: &EnvironmentAnalysis) -> JsonValue {
        self.wall(|r| {
            r.ledger
                .time("soteria.report_json_ms", || environment_json(env))
        })
    }

    /// One request line through the protocol parser.
    pub fn parse_line(&mut self, line: &str) -> Option<Request> {
        self.wall(|r| {
            r.ledger
                .time("service.protocol_parse_ms", || parse_request(line))
        })
        .ok()
        .flatten()
    }

    /// One response line rendered the way `protocol::app_response` /
    /// `env_response` / `update_response` lay it out around `report`.
    pub fn render_response(
        &mut self,
        job: usize,
        kind: &str,
        name: &str,
        cache: &str,
        report: JsonValue,
        environments: Option<Vec<JsonValue>>,
    ) -> String {
        self.wall(|r| {
            r.ledger.time("service.protocol_render_ms", || {
                let mut members = vec![
                    ("job", JsonValue::uint(job)),
                    ("kind", JsonValue::string(kind)),
                    ("status", JsonValue::string("ok")),
                    ("name", JsonValue::string(name)),
                    ("cache", JsonValue::string(cache)),
                    ("report", report),
                ];
                if let Some(envs) = environments {
                    members.push(("environments", JsonValue::Array(envs)));
                }
                JsonValue::object(members).render()
            })
        })
    }

    /// The store write of an app record: payload, rendering and framing.
    pub fn encode_app(&mut self, name: &str, source: &str, analysis: &AppAnalysis) -> Vec<u8> {
        self.wall(|r| {
            let framed = r.ledger.time("service.store_encode_ms", || {
                frame_entry(app_store_json(name, source, analysis).render().as_bytes())
            });
            r.ledger.count("service.store_bytes", framed.len());
            framed
        })
    }

    /// The store write of a group record.
    pub fn encode_env(&mut self, env: &EnvironmentAnalysis) -> Vec<u8> {
        self.wall(|r| {
            let framed = r.ledger.time("service.store_encode_ms", || {
                frame_entry(env_store_json(env).render().as_bytes())
            });
            r.ledger.count("service.store_bytes", framed.len());
            framed
        })
    }

    /// The store read of an app record: frame check, JSON parse, decode.
    pub fn decode_app(&mut self, bytes: &[u8]) -> Option<StoredAppAnalysis> {
        self.wall(|r| {
            r.ledger.time("service.store_decode_ms", || {
                app_from_store_json(&decode(bytes)?)
            })
        })
    }

    /// The store read of a group record.
    pub fn decode_env(&mut self, bytes: &[u8]) -> Option<StoredEnvironmentAnalysis> {
        self.wall(|r| {
            r.ledger.time("service.store_decode_ms", || {
                env_from_store_json(&decode(bytes)?)
            })
        })
    }

    /// `Soteria::restore_app_analysis` (a restore ingest).
    pub fn restore_app(&mut self, stored: StoredAppAnalysis) -> Result<AppAnalysis, ParseError> {
        let s = self.soteria;
        self.wall(|r| {
            r.ledger
                .time("soteria.restore_ms", || s.restore_app_analysis(stored))
        })
    }

    /// `Soteria::restore_environment` (a union rebuild, no check).
    pub fn restore_env(
        &mut self,
        stored: StoredEnvironmentAnalysis,
        members: &[&AppAnalysis],
    ) -> EnvironmentAnalysis {
        let s = self.soteria;
        self.wall(|r| {
            r.ledger.time("soteria.restore_ms", || {
                s.restore_environment(stored, members)
            })
        })
    }
}

fn decode(bytes: &[u8]) -> Option<JsonValue> {
    let payload = parse_entry(bytes).ok()?;
    JsonValue::parse(std::str::from_utf8(payload).ok()?).ok()
}

/// The Kripke structure of `model` with its initial states restricted to
/// the default configuration, built from `Kripke::from_state_model`.
pub fn initial_kripke(model: &StateModel) -> Kripke {
    let mut kripke = Kripke::from_state_model(model);
    kripke.initial = vec![model.initial];
    kripke
}

fn determinism_violations(model: &StateModel, apps: &[String]) -> Vec<Violation> {
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

fn transitions_equal(a: &[Transition], b: &[Transition]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.from == y.from
                && x.to == y.to
                && (Arc::ptr_eq(&x.label, &y.label) || x.label == y.label)
        })
}
