//! Seeded workload inputs: a corpus in seeded order, its groups, and a stream
//! of same-domain edits to members of its third group.
//!
//! Every edit flips literal fragments of one member's source (`off()` to
//! `on()` and the like), so the member keeps its attribute domains and the
//! service's delta paths stay applicable. Each edited source also carries a
//! unique comment nonce, so no `update` is ever answered from a cache.

use soteria_corpus::{all_market_apps, maliot_groups, maliot_suite, market_groups};
use std::collections::BTreeMap;

/// SplitMix64: a small, seedable generator (inputs only, never security).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole output is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_0F5E_7E41_A000)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Which evaluation corpus a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// The 65 market apps and groups G.1-G.3 (Tables 3 and 4).
    Market,
    /// The 17 MalIoT apps and MalIoT-G1-G3.
    Maliot,
}

/// A group of apps installed together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Group name, as the reports carry it.
    pub name: String,
    /// Member app ids, in member order.
    pub members: Vec<String>,
}

/// A group member with same-domain edit toggles: variant `mask` applies
/// toggle `i` when bit `i` of `mask` is set (mask 0 is the original source).
#[derive(Debug, Clone, Copy)]
pub struct Editable {
    /// Member app id.
    pub member: &'static str,
    /// `(original fragment, replacement)` pairs.
    pub toggles: &'static [(&'static str, &'static str)],
}

impl Editable {
    /// Number of distinct variants, the original included.
    pub fn variants(&self) -> u32 {
        1 << self.toggles.len()
    }
}

const MARKET_EDITS: &[Editable] = &[
    Editable {
        member: "TP21",
        toggles: &[("detector_outlet.off()", "detector_outlet.on()")],
    },
    Editable {
        member: "TP22",
        toggles: &[
            ("heater_switch.on()", "heater_switch.off()"),
            ("coffee_switch.on()", "coffee_switch.off()"),
        ],
    },
];

const MALIOT_EDITS: &[Editable] = &[
    Editable {
        member: "App16",
        toggles: &[("\"switch.off\"", "\"switch.on\"")],
    },
    Editable {
        member: "App17",
        toggles: &[
            ("tv_outlet.off()", "tv_outlet.on()"),
            ("camera_outlet.off()", "camera_outlet.on()"),
        ],
    },
];

/// One workload's inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// `(id, source)` of every corpus app, in seeded order.
    pub apps: Vec<(String, String)>,
    /// The corpus groups, G1 to G3.
    pub groups: Vec<Group>,
    /// The group whose members the edit stream changes (the corpus's third).
    pub edit_group: String,
    /// The editable members of `edit_group`.
    pub editable: &'static [Editable],
}

impl Inputs {
    /// The corpus in the order `seed` fixes.
    pub fn new(corpus: Corpus, seed: u64) -> Self {
        let (mut apps, groups, editable): (Vec<(String, String)>, Vec<Group>, _) = match corpus {
            Corpus::Market => (
                all_market_apps()
                    .into_iter()
                    .map(|a| (a.id, a.source))
                    .collect(),
                market_groups()
                    .into_iter()
                    .map(|g| Group {
                        name: g.id.to_string(),
                        members: g.members.iter().map(|m| m.to_string()).collect(),
                    })
                    .collect(),
                MARKET_EDITS,
            ),
            Corpus::Maliot => (
                maliot_suite()
                    .into_iter()
                    .map(|a| (a.id, a.source))
                    .collect(),
                maliot_groups()
                    .into_iter()
                    .map(|(name, members, _)| Group {
                        name: name.to_string(),
                        members: members.iter().map(|m| m.to_string()).collect(),
                    })
                    .collect(),
                MALIOT_EDITS,
            ),
        };
        Rng::new(seed).shuffle(&mut apps);
        let edit_group = groups.last().expect("every corpus has groups").name.clone();
        Inputs {
            apps,
            groups,
            edit_group,
            editable,
        }
    }

    /// The original source of app `id`.
    pub fn source(&self, id: &str) -> &str {
        self.apps
            .iter()
            .find(|(a, _)| a == id)
            .map(|(_, s)| s.as_str())
            .unwrap_or_else(|| panic!("{id} is not in the corpus"))
    }

    /// The source of variant `mask` of editable member `member`.
    pub fn variant_source(&self, member: &str, mask: u32) -> String {
        let editable = self.editable(member);
        let mut source = self.source(member).to_string();
        for (i, (from, to)) in editable.toggles.iter().enumerate() {
            if mask & (1 << i) != 0 {
                assert!(source.contains(from), "{member} lacks the fragment {from}");
                source = source.replace(from, to);
            }
        }
        source
    }

    fn editable(&self, member: &str) -> &'static Editable {
        self.editable
            .iter()
            .find(|e| e.member == member)
            .unwrap_or_else(|| panic!("{member} is not editable"))
    }

    /// The group named `name`.
    pub fn group(&self, name: &str) -> &Group {
        self.groups
            .iter()
            .find(|g| g.name == name)
            .expect("known group")
    }
}

/// The variant of every editable member: `member -> mask`.
pub type Combo = BTreeMap<&'static str, u32>;

/// One seeded `update`.
#[derive(Debug, Clone)]
pub struct Edit {
    /// The edited member's app id.
    pub member: &'static str,
    /// Its new variant.
    pub mask: u32,
    /// The edited source, nonce included.
    pub source: String,
    /// Every editable member's variant after this edit.
    pub combo: Combo,
}

/// `update`s per workload iteration: a multiple of three, so every
/// iteration has the same mix of model-changing and nonce-only edits.
pub const EDITS_PER_ITERATION: usize = 6;

/// The seeded edit stream. Two edits in three move one member to a variant
/// other than its current one, which changes the group's union model (delta
/// union and delta Kripke paths); every third only changes the nonce, which
/// leaves the model as it was (structure and sat-set reuse paths). The seed
/// picks the member and the variant.
#[derive(Debug, Clone)]
pub struct EditStream {
    rng: Rng,
    seed: u64,
    issued: u64,
    combo: Combo,
}

impl EditStream {
    /// A stream whose edits are fixed by `seed`, starting from the originals.
    pub fn new(inputs: &Inputs, seed: u64) -> Self {
        EditStream {
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(7)),
            seed,
            issued: 0,
            combo: inputs.editable.iter().map(|e| (e.member, 0)).collect(),
        }
    }

    /// The variant of every editable member right now.
    pub fn combo(&self) -> &Combo {
        &self.combo
    }

    /// Returns every member to its original source (the reload after a run
    /// of edits resubmits the originals).
    pub fn reset(&mut self) {
        self.combo.values_mut().for_each(|mask| *mask = 0);
    }

    /// The next edit.
    pub fn next_edit(&mut self, inputs: &Inputs) -> Edit {
        let editable = inputs.editable[self.rng.below(inputs.editable.len())];
        let current = self.combo[editable.member];
        let mask = if self.issued % 3 == 2 {
            current
        } else {
            (current + 1 + self.rng.below(editable.variants() as usize - 1) as u32)
                % editable.variants()
        };
        self.combo.insert(editable.member, mask);
        self.issued += 1;
        let source = format!(
            "{}// edit nonce {}-{}\n",
            inputs.variant_source(editable.member, mask),
            self.seed,
            self.issued
        );
        Edit {
            member: editable.member,
            mask,
            source,
            combo: self.combo.clone(),
        }
    }
}

/// The golden-file key of a combo of the edit group: `G.3[TP21#1,TP22#0]`.
pub fn combo_key(group: &str, combo: &Combo) -> String {
    if combo.values().all(|&mask| mask == 0) {
        return group.to_string();
    }
    let parts: Vec<String> = combo
        .iter()
        .map(|(m, mask)| format!("{m}#{mask}"))
        .collect();
    format!("{group}[{}]", parts.join(","))
}

/// The golden-file key of an app variant: `TP21#1`, or the bare id for mask 0.
pub fn variant_key(member: &str, mask: u32) -> String {
    if mask == 0 {
        member.to_string()
    } else {
        format!("{member}#{mask}")
    }
}

/// Every combo of the edit group's editable members, originals first.
pub fn all_combos(inputs: &Inputs) -> Vec<Combo> {
    let mut combos = vec![Combo::new()];
    for editable in inputs.editable {
        combos = combos
            .into_iter()
            .flat_map(|c| {
                (0..editable.variants()).map(move |mask| {
                    let mut c = c.clone();
                    c.insert(editable.member, mask);
                    c
                })
            })
            .collect();
    }
    combos
}

/// The member sources of the edit group under `combo`.
pub fn combo_members(inputs: &Inputs, combo: &Combo) -> Vec<(String, String)> {
    inputs
        .group(&inputs.edit_group)
        .members
        .iter()
        .map(|m| {
            let source = match combo.get(m.as_str()) {
                Some(&mask) => inputs.variant_source(m, mask),
                None => inputs.source(m).to_string(),
            };
            (m.clone(), source)
        })
        .collect()
}
