//! Regenerates Table 4 (multi-app analysis): the interacting app groups G.1–G.3 are
//! analysed as environments and the violations of their combined behaviour listed.
//! Next to each union's size it prints the size of the Kripke fragment the
//! default initial state reaches, which is what the properties are checked on,
//! explored from the members' compiled edges as the analyzer does.

use soteria::checker::Kripke;
use soteria::model::{compile_union, StateModel, UnionOptions};
use soteria::Soteria;
use soteria_corpus::{all_market_apps, market_groups};

fn main() {
    let soteria = Soteria::new();
    let corpus = all_market_apps();
    println!("Table 4 — property violations in multi-app environments");
    for group in market_groups() {
        let members: Vec<_> = group
            .members
            .iter()
            .map(|id| {
                let app = corpus.iter().find(|a| &a.id == id).expect("member in corpus");
                soteria.analyze_app(&app.id, &app.source).expect("member parses")
            })
            .collect();
        let env = soteria.analyze_environment(group.id, &members);
        let mut properties: Vec<String> =
            env.violated_properties().iter().map(|p| p.to_string()).collect();
        for member in &members {
            properties.extend(member.violated_properties().iter().map(|p| p.to_string()));
        }
        properties.sort();
        properties.dedup();
        let models: Vec<&StateModel> = members.iter().map(|m| &m.model).collect();
        let (union, edges) = compile_union(group.id, &models, &UnionOptions::default());
        let checked = Kripke::reachable_from_union(&union, &edges);
        println!(
            "{:<5} members: {:<45} union: {:>5} states {:>6} transitions  \
             checked: {:>3} Kripke states",
            group.id,
            group.members.join(", "),
            env.union_model.state_count(),
            env.union_model.transition_count(),
            checked.state_count()
        );
        println!("      violated: {:<30} (paper: {})", properties.join(", "), group.expected.join(", "));
        for violation in &env.violations {
            println!("        - {violation}");
        }
    }
}
