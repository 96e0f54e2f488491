//! Incremental re-verification identity gate + benchmark (PR 7).
//!
//! The workload is the market corpus' largest interaction group, G.3 (8 apps,
//! ~47k union states). This binary:
//!
//! 1. **Identity gates** (always, and all that runs with `--smoke` — the CI
//!    configuration):
//!    * the snapshot-exporting cold analysis is byte-identical to the batch
//!      path;
//!    * after a *semantic* single-member edit (TP21's handler flips
//!      `detector_outlet.off()` to `.on()`), the delta union equals the
//!      from-scratch union and the incremental re-analysis equals a scratch
//!      one;
//!    * a no-op resubmission (identical members) reproduces the batch result
//!      through the identical-structure reuse tier;
//!    * the word-sharded `E[a U b]`/`EG` fixpoints are byte-identical to the
//!      sequential ones on the G.3 union Kripke structure at 1/2/4/8 shard
//!      threads.
//! 2. **Measurement** (without `--smoke`): wall-clock of the full environment
//!    re-analysis vs the incremental one after (a) the semantic one-member
//!    edit and (b) a no-op edit, plus the delta union vs the full union alone.
//!    Results go to `BENCH_pr7.json` (`old_ns` = full re-analysis, `new_ns` =
//!    incremental). The speedups come from *work avoided* — unchanged members'
//!    transition blocks spliced instead of re-lifted, satisfaction sets
//!    projected instead of recomputed — so they hold on a single-core host.
//!    The headline edit-one-app speedup is asserted to be at least 2x: the
//!    full path's Kripke build is linear in the transitions, so what the
//!    incremental path still saves is mostly the union lift and the check.
//!
//! Usage: `cargo run --release -p soteria-bench --bin incremental_reverify
//! [--smoke] [out.json]`.

use soteria::{default_initial_kripke, AppAnalysis, Soteria};
use soteria_bench::{analyze_all, group_workload, measure_mean, soteria_with_threads};
use soteria_checker::{Engine, Kripke, ModelChecker};
use soteria_corpus::{all_market_apps, market_groups, CorpusApp};
use soteria_model::{union_models, union_models_delta, StateModel, UnionOptions};
use std::fmt::Write as _;
use std::time::Duration;

const EDITED_MEMBER: &str = "TP21";
const SHARD_THREADS: [usize; 4] = [1, 2, 4, 8];

/// G.3's member analyses, index-parallel to the group's member list.
fn g3_members(soteria: &Soteria, market: &[CorpusApp]) -> (Vec<String>, Vec<AppAnalysis>) {
    let group = market_groups()
        .into_iter()
        .find(|g| g.id == "G.3")
        .expect("market corpus defines G.3");
    let analyses = analyze_all(soteria, market);
    let members: Vec<String> = group.members.iter().map(|m| m.to_string()).collect();
    let member_analyses: Vec<AppAnalysis> = members
        .iter()
        .map(|id| {
            let idx = market.iter().position(|a| &a.id == id).expect("member in corpus");
            analyses[idx].clone()
        })
        .collect();
    (members, member_analyses)
}

/// TP21 with its handler's first action flipped: same devices (so the union
/// schema is unchanged and the delta path engages), different transitions.
fn edited_member_source(market: &[CorpusApp]) -> String {
    let original = &market
        .iter()
        .find(|a| a.id == EDITED_MEMBER)
        .expect("edited member in corpus")
        .source;
    let edited = original.replace("detector_outlet.off()", "detector_outlet.on()");
    assert_ne!(&edited, original, "the semantic edit must change the source");
    edited
}

fn assert_environments_equal(
    label: &str,
    got: &soteria::EnvironmentAnalysis,
    want: &soteria::EnvironmentAnalysis,
) {
    assert_eq!(got.violations, want.violations, "{label}: violations diverge");
    assert_eq!(got.app_names, want.app_names, "{label}: member order diverges");
    assert_eq!(
        got.union_model.transitions, want.union_model.transitions,
        "{label}: union transitions diverge"
    );
    assert_eq!(
        soteria::render_environment_report(got),
        soteria::render_environment_report(want),
        "{label}: rendered reports diverge"
    );
}

struct Row {
    name: &'static str,
    incremental: Duration,
    full: Duration,
    iterations: usize,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.full.as_secs_f64() / self.incremental.as_secs_f64().max(1e-12)
    }
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_pr7.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }

    let soteria = soteria_with_threads(1);
    let market = all_market_apps();
    let (member_ids, analyses) = g3_members(&soteria, &market);
    let edited_idx =
        member_ids.iter().position(|m| m == EDITED_MEMBER).expect("edited member in G.3");
    let edited_source = edited_member_source(&market);
    let edited_analysis =
        soteria.analyze_app(EDITED_MEMBER, &edited_source).expect("edited member parses");
    let mut edited_analyses = analyses.clone();
    edited_analyses[edited_idx] = edited_analysis;

    // --- Gate 1: the snapshot-exporting cold path equals the batch path. ---
    let refs: Vec<&AppAnalysis> = analyses.iter().collect();
    let batch = soteria.analyze_environment_refs("G.3", &refs);
    let (cold, snapshot) = soteria.analyze_environment_with_snapshot("G.3", &refs);
    assert_environments_equal("cold snapshot pass", &cold, &batch);
    let snapshot = snapshot.expect("G.3 has checkable properties");
    println!(
        "gate 1: OK (snapshot-exporting analysis byte-identical to batch; {} sat sets exported)",
        snapshot.len()
    );

    // --- Gate 2: semantic one-member edit — delta union + incremental check. ---
    let edited_refs: Vec<&AppAnalysis> = edited_analyses.iter().collect();
    let edited_models: Vec<&StateModel> = edited_analyses.iter().map(|a| &a.model).collect();
    let options = UnionOptions::default();
    let scratch_union = union_models("G.3", &edited_models, &options);
    let delta_union = union_models_delta(&cold.union_model, &edited_models, edited_idx, &options)
        .expect("same-domain edit takes the delta path");
    assert_eq!(
        delta_union.transitions, scratch_union.transitions,
        "delta union diverges from scratch"
    );
    // The delta Kripke rebuild must be byte-identical to the scratch build
    // (same atom order, state numbering, and CSR arrays — `PartialEq` compares
    // every field). This edit moves destinations, so its event states are not
    // all in the base and the sat-set projection is skipped as untotal.
    let (mut delta_kripke, all_in_base) =
        Kripke::from_state_model_delta(snapshot.kripke(), &delta_union, EDITED_MEMBER)
            .expect("same-shape edit takes the delta Kripke path");
    delta_kripke.initial = vec![delta_union.initial];
    assert!(
        delta_kripke == default_initial_kripke(&scratch_union),
        "delta Kripke structure diverges from scratch"
    );
    assert!(!all_in_base, "the semantic edit is expected to introduce new event states");
    let scratch = soteria.analyze_environment_refs("G.3", &edited_refs);
    let (incremental, next_snapshot) =
        soteria.analyze_environment_incremental("G.3", &edited_refs, &cold, &snapshot, edited_idx);
    assert_environments_equal("semantic edit", &incremental, &scratch);
    assert!(next_snapshot.is_some(), "incremental pass re-exports a snapshot");
    println!(
        "gate 2: OK (edit {EDITED_MEMBER}: delta union + incremental verdicts byte-identical \
         to scratch; {} union states)",
        scratch_union.state_count()
    );

    // --- Gate 3: a no-op resubmission reproduces the batch result. ---
    let (noop, _) = soteria.analyze_environment_incremental("G.3", &refs, &cold, &snapshot, edited_idx);
    assert_environments_equal("no-op edit", &noop, &batch);
    println!("gate 3: OK (identical-member resubmission byte-identical through the reuse tier)");

    // --- Gate 4: sharded fixpoints equal sequential on the G.3 union Kripke. ---
    let workload = group_workload("G.3", &analyses);
    let sequential = ModelChecker::new(&workload.kripke, Engine::Symbolic);
    for &threads in &SHARD_THREADS {
        // shard_states = 1 forces the sharded fixpoints regardless of size.
        let sharded = ModelChecker::with_sharding(&workload.kripke, Engine::Symbolic, threads, 1);
        for formula in &workload.formulas {
            assert_eq!(
                sequential.sat(formula).iter().collect::<Vec<_>>(),
                sharded.sat(formula).iter().collect::<Vec<_>>(),
                "sharded sat set diverges at {threads} threads on {formula}"
            );
            assert_eq!(
                sequential.check(formula),
                sharded.check(formula),
                "sharded verdict diverges at {threads} threads on {formula}"
            );
        }
    }
    println!(
        "gate 4: OK ({} formulas over {} states: sharded fixpoints byte-identical at \
         {SHARD_THREADS:?} threads)",
        workload.formulas.len(),
        workload.kripke.state_count(),
    );
    if smoke {
        return;
    }

    // --- Measurement: full re-analysis vs incremental, per edit scenario. ---
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut rows: Vec<Row> = Vec::new();

    eprintln!("measuring edit-one-app-in-G.3 (full re-analysis)...");
    let (full_edit, full_iters) =
        measure_mean(|| soteria.analyze_environment_refs("G.3", &edited_refs), 1_000);
    eprintln!("measuring edit-one-app-in-G.3 (incremental)...");
    let (inc_edit, inc_iters) = measure_mean(
        || soteria.analyze_environment_incremental("G.3", &edited_refs, &cold, &snapshot, edited_idx),
        1_000,
    );
    rows.push(Row {
        name: "g3/edit_one_app",
        incremental: inc_edit,
        full: full_edit,
        iterations: full_iters.min(inc_iters),
    });

    eprintln!("measuring no-op resubmission...");
    let (full_noop, full_iters) =
        measure_mean(|| soteria.analyze_environment_refs("G.3", &refs), 1_000);
    let (inc_noop, inc_iters) = measure_mean(
        || soteria.analyze_environment_incremental("G.3", &refs, &cold, &snapshot, edited_idx),
        1_000,
    );
    rows.push(Row {
        name: "g3/noop_resubmission",
        incremental: inc_noop,
        full: full_noop,
        iterations: full_iters.min(inc_iters),
    });

    eprintln!("measuring the union step alone...");
    let (full_union, full_iters) =
        measure_mean(|| union_models("G.3", &edited_models, &options), 1_000);
    let (delta_only, inc_iters) = measure_mean(
        || union_models_delta(&cold.union_model, &edited_models, edited_idx, &options),
        1_000,
    );
    rows.push(Row {
        name: "g3/delta_union_only",
        incremental: delta_only,
        full: full_union,
        iterations: full_iters.min(inc_iters),
    });

    // --- Report, in the BENCH_pr* format (old = full, new = incremental). ---
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    println!("{:<24} {:>14} {:>14} {:>9}", "scenario", "incremental", "full", "speedup");
    for (i, row) in rows.iter().enumerate() {
        println!(
            "{:<24} {:>14?} {:>14?} {:>8.2}x",
            row.name, row.incremental, row.full, row.speedup()
        );
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"new_ns\": {}, \"old_ns\": {}, \"speedup\": {:.2}, \"iterations\": {}}}{}",
            row.name,
            row.incremental.as_nanos(),
            row.full.as_nanos(),
            row.speedup(),
            row.iterations,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let headline = rows.iter().find(|r| r.name == "g3/edit_one_app").expect("headline row");
    let geomean =
        (rows.iter().map(|r| r.speedup().ln()).sum::<f64>() / rows.len() as f64).exp();
    let min = rows.iter().map(Row::speedup).fold(f64::INFINITY, f64::min);
    println!(
        "{:<24} {:>38.2}x (edit-one-app), {:.2}x (geomean), host cores: {host_cores}",
        "overall",
        headline.speedup(),
        geomean
    );
    let _ = write!(
        json,
        "  ],\n  \"speedup_geomean\": {geomean:.2},\n  \"speedup_min\": {min:.2},\n  \
         \"speedup_edit_one_app\": {:.2},\n  \"host_cores\": {host_cores},\n  \
         \"note\": \"old_ns = full G.3 re-analysis (union + batch check), new_ns = \
         incremental re-verification (delta union + sat-set reuse) after the named \
         edit. Speedups come from work avoided, not extra cores, so they hold on a \
         single-core host; every scenario is identity-gated against the from-scratch \
         result before timing.\"\n}}\n",
        headline.speedup()
    );
    assert!(
        headline.speedup() >= 2.0,
        "edit-one-app incremental re-verification is only {:.2}x faster than full",
        headline.speedup()
    );
    std::fs::write(&out_path, json).expect("write results");
    println!("wrote {out_path}");
}
