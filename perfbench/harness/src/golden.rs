//! Golden verdicts: the per-app and per-group verdicts recorded from the seed
//! commit, checked in as `golden.txt` and compared against every operation.
//!
//! A verdict is the ordered list of reported property ids, each suffixed with
//! `?` when the violation is flagged as a possible false positive (`-` when
//! nothing is reported). Lines read `<app|env> <key> <verdict...>`; keys are
//! corpus ids, group names, and the edit-variant keys of [`crate::inputs`].

use crate::inputs::{all_combos, combo_key, combo_members, variant_key, Corpus, Inputs};
use soteria::properties::Violation;
use soteria::{app_analysis_json, environment_json, AppAnalysis, JsonValue, Soteria};
use soteria_corpus::{all_market_apps, maliot_groups, maliot_suite, market_groups, CorpusApp};
use std::collections::{BTreeMap, BTreeSet};

/// The checked-in golden file.
pub const GOLDEN: &str = include_str!("../golden.txt");

/// The verdict string of a violation list.
pub fn verdict(violations: &[Violation]) -> String {
    if violations.is_empty() {
        return "-".to_string();
    }
    violations
        .iter()
        .map(|v| {
            format!(
                "{}{}",
                v.property,
                if v.possibly_false_positive { "?" } else { "" }
            )
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Golden verdicts by `(kind, key)`.
#[derive(Debug, Clone, Default)]
pub struct Golden {
    entries: BTreeMap<(String, String), String>,
}

impl Golden {
    /// Parses a golden file.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let (Some(kind), Some(key)) = (fields.next(), fields.next()) else {
                return Err(format!(
                    "golden line {}: expected '<kind> <key> <verdict>'",
                    n + 1
                ));
            };
            if kind != "app" && kind != "env" {
                return Err(format!("golden line {}: unknown kind '{kind}'", n + 1));
            }
            let verdict = fields.collect::<Vec<_>>().join(" ");
            if verdict.is_empty() {
                return Err(format!("golden line {}: missing verdict", n + 1));
            }
            if entries
                .insert((kind.to_string(), key.to_string()), verdict)
                .is_some()
            {
                return Err(format!("golden line {}: duplicate key {kind} {key}", n + 1));
            }
        }
        Ok(Golden { entries })
    }

    /// The checked-in golden file, parsed and cross-checked.
    pub fn load() -> Result<Self, String> {
        let golden = Golden::parse(GOLDEN)?;
        golden.cross_check()?;
        Ok(golden)
    }

    /// The golden verdict of `(kind, key)`.
    pub fn get(&self, kind: &str, key: &str) -> Option<&str> {
        self.entries
            .get(&(kind.to_string(), key.to_string()))
            .map(String::as_str)
    }

    /// Compares `violations` with the golden verdict of `(kind, key)`.
    pub fn check(&self, kind: &str, key: &str, violations: &[Violation]) -> Result<(), String> {
        let got = verdict(violations);
        match self.get(kind, key) {
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!("{kind} {key}: verdict '{got}', golden '{want}'")),
            None => Err(format!("{kind} {key}: no golden verdict")),
        }
    }

    fn properties(&self, kind: &str, key: &str) -> Result<BTreeSet<&str>, String> {
        let verdict = self
            .get(kind, key)
            .ok_or_else(|| format!("golden lacks {kind} {key}"))?;
        Ok(verdict.split(' ').filter(|p| *p != "-").collect())
    }

    /// Checks that the paper's verdicts are a subset of the golden ones: each
    /// app's `GroundTruth` (apps whose flaw needs a group, or lies outside
    /// the analysis, are judged through their group or not at all), and each
    /// group's expected properties over the group and its members' reports.
    pub fn cross_check(&self) -> Result<(), String> {
        let apps: Vec<CorpusApp> = all_market_apps()
            .into_iter()
            .chain(maliot_suite())
            .collect();
        for app in &apps {
            let truth = &app.ground_truth;
            if truth.multi_app_group.is_some() || truth.out_of_scope.is_some() {
                continue;
            }
            let found = self.properties("app", &app.id)?;
            for e in &truth.expectations {
                let want = if e.false_positive {
                    format!("{}?", e.property)
                } else {
                    e.property.clone()
                };
                if !found.contains(want.as_str()) {
                    return Err(format!(
                        "app {}: paper reports {want}, golden has {found:?}",
                        app.id
                    ));
                }
            }
        }
        let groups = market_groups()
            .into_iter()
            .map(|g| (g.id, g.members, g.expected))
            .chain(maliot_groups());
        for (group, members, expected) in groups {
            let mut found: BTreeSet<&str> = BTreeSet::new();
            for p in self.properties("env", group)? {
                found.insert(p.trim_end_matches('?'));
            }
            for member in &members {
                for p in self.properties("app", member)? {
                    found.insert(p.trim_end_matches('?'));
                }
            }
            for property in expected {
                if !found.contains(property) {
                    return Err(format!(
                        "env {group}: paper reports {property}, golden has {found:?}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Analyzes, through the direct API, everything the workloads verify: each
/// corpus app and group, each edit variant of an editable member, and each
/// variant combo of the edit group. Calls `visit(kind, key, violations,
/// report)` for each, in that order.
pub fn visit_all(
    soteria: &Soteria,
    inputs: &Inputs,
    mut visit: impl FnMut(&str, &str, &[Violation], JsonValue),
) {
    let mut analyses: BTreeMap<String, AppAnalysis> = BTreeMap::new();
    for (id, source) in &inputs.apps {
        let a = soteria.analyze_app(id, source).expect("corpus apps parse");
        visit("app", id, &a.violations, app_analysis_json(&a));
        analyses.insert(id.clone(), a);
    }
    for group in &inputs.groups {
        let members: Vec<&AppAnalysis> = group.members.iter().map(|m| &analyses[m]).collect();
        let env = soteria.analyze_environment_refs(&group.name, &members);
        visit("env", &group.name, &env.violations, environment_json(&env));
    }
    for editable in inputs.editable {
        for mask in 1..editable.variants() {
            let source = inputs.variant_source(editable.member, mask);
            let a = soteria
                .analyze_app(editable.member, &source)
                .expect("variants parse");
            visit(
                "app",
                &variant_key(editable.member, mask),
                &a.violations,
                app_analysis_json(&a),
            );
        }
    }
    for combo in all_combos(inputs).iter().skip(1) {
        let members: Vec<AppAnalysis> = combo_members(inputs, combo)
            .iter()
            .map(|(id, source)| soteria.analyze_app(id, source).expect("variants parse"))
            .collect();
        let env = soteria.analyze_environment(&inputs.edit_group, &members);
        let key = combo_key(&inputs.edit_group, combo);
        visit("env", &key, &env.violations, environment_json(&env));
    }
}

/// Records the golden file from the current code ([`visit_all`] over both
/// corpora).
pub fn record(soteria: &Soteria) -> String {
    let mut out = String::from(
        "# Golden verdicts: <app|env> <key> <property ids in report order; '?' = possible\n\
         # false positive; '-' = none>. Keys: corpus ids, group names, edit variants\n\
         # (<member>#<mask>) and variant combos (<group>[<member>#<mask>,...]).\n",
    );
    for corpus in [Corpus::Market, Corpus::Maliot] {
        let mut inputs = Inputs::new(corpus, 0);
        inputs.apps.sort_by_key(|(id, _)| natural(id));
        visit_all(soteria, &inputs, |kind, key, violations, _| {
            out.push_str(&format!("{kind} {key} {}\n", verdict(violations)));
        });
    }
    out
}

/// Sort key that orders `TP2` before `TP10`.
fn natural(id: &str) -> (String, u32) {
    let digits = id.trim_start_matches(|c: char| !c.is_ascii_digit());
    let prefix = &id[..id.len() - digits.len()];
    (prefix.to_string(), digits.parse().unwrap_or(0))
}
