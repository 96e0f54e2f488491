//! The repository benchmark for the Soteria reproduction.
//!
//! Three workloads, each with its seed as an argument:
//!
//! * `market-batch`: the 65 market apps through `Soteria::analyze_apps`, then
//!   G.1-G.3 through `analyze_environments` (the paper's Tables 3 and 4).
//!   G.3's union and Kripke construction dominate it.
//! * `maliot-batch`: the 17 MalIoT apps and MalIoT-G1-G3, swept repeatedly.
//!   Front-end, per-app and reflection re-check work dominate; its unions
//!   stay tiny, so it is the no-change control for union and Kripke work.
//! * `serve-edit`: one closed-loop client drives `soteria-serve` through a
//!   cold load, a seeded edit stream, a cached reload, and a restart over
//!   the persistent store.
//!
//! Every time is reported at a reference host speed ([`clock`]).
//! An untraced run (`--trace 0`) reports the end-to-end metrics. A traced run
//! (`--trace 1`) also replays each iteration layer by layer ([`replay`]) and
//! reports the per-layer ledger, with the unattributed time and the replay's
//! overhead against the production calls.

pub mod batch;
pub mod clock;
pub mod golden;
pub mod inputs;
pub mod replay;
pub mod report;
pub mod serve;

use soteria::model::StateModel;
use soteria::properties::Violation;
use soteria::{AppAnalysis, EnvironmentAnalysis};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What the replay must reproduce of an analysis: its verdicts and a hash
/// of its state model. Small enough to keep while the production results
/// are dropped, so the replay runs on the same heap state as production.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    violations: Vec<Violation>,
    model: u64,
}

impl Fingerprint {
    /// The fingerprint of an app analysis.
    pub fn app(a: &AppAnalysis) -> Self {
        let mut h = DefaultHasher::new();
        (&a.ir.name, a.specs.len(), a.states_before_reduction).hash(&mut h);
        hash_model(&a.model, &mut h);
        Fingerprint {
            violations: a.violations.clone(),
            model: h.finish(),
        }
    }

    /// The fingerprint of an environment analysis.
    pub fn env(e: &EnvironmentAnalysis) -> Self {
        let mut h = DefaultHasher::new();
        (&e.name, &e.app_names).hash(&mut h);
        hash_model(&e.union_model, &mut h);
        Fingerprint {
            violations: e.violations.clone(),
            model: h.finish(),
        }
    }

    /// `Ok` if `replayed` equals this production fingerprint.
    pub fn check(&self, what: &str, replayed: &Fingerprint) -> Result<(), String> {
        if self == replayed {
            Ok(())
        } else {
            Err(format!(
                "{what}: the replay differs from the production call"
            ))
        }
    }
}

fn hash_model(m: &StateModel, h: &mut DefaultHasher) {
    (m.initial, m.state_count(), &m.transitions).hash(h);
    for (key, values) in &m.attributes {
        (key, format!("{values:?}")).hash(h);
    }
}
