//! Cache-correctness gate for the analysis service (PR 4).
//!
//! The content-addressed result cache must behave exactly like the pure
//! function it memoizes: identical `(source, configuration)` returns the frozen
//! original byte for byte; *any* single-byte source edit or any result-relevant
//! configuration change misses and recomputes; and the LRU bound evicts
//! deterministically (a replayed operation sequence always evicts the same
//! keys).

use soteria::Soteria;
use soteria_analysis::AnalysisConfig;
use soteria_bench::{submit_app_admitted as submit, submit_environment_admitted as submit_env};
use soteria_service::{CacheDisposition, Service, ServiceOptions};
use std::sync::Arc;

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

fn service(config: AnalysisConfig, cache_capacity: usize) -> Service {
    Service::new(
        Soteria::with_config(config),
        ServiceOptions { workers: 2, cache_capacity, ..ServiceOptions::default() },
    )
}

fn paper_sequential() -> AnalysisConfig {
    AnalysisConfig { threads: 1, ..AnalysisConfig::paper() }
}

#[test]
fn resubmission_hits_and_returns_a_byte_identical_report() {
    let service = service(paper_sequential(), 64);
    let cold = submit(&service, "wld", WATER_LEAK);
    let cold_analysis = cold.wait().expect("parses");
    assert_eq!(cold.disposition(), CacheDisposition::Miss);

    let warm = submit(&service, "wld", WATER_LEAK);
    assert_eq!(warm.disposition(), CacheDisposition::Hit);
    let warm_analysis = warm.wait().expect("parses");

    // The hit returns the frozen original — the very same allocation — so every
    // derived byte stream is identical, including the measured timings.
    assert!(Arc::ptr_eq(&cold_analysis, &warm_analysis));
    assert_eq!(
        soteria::render_report(&cold_analysis),
        soteria::render_report(&warm_analysis)
    );
    assert_eq!(
        soteria::app_analysis_json(&cold_analysis).render(),
        soteria::app_analysis_json(&warm_analysis).render()
    );
    let stats = service.stats();
    assert_eq!(stats.app_cache.hits, 1);
    assert_eq!(stats.app_cache.misses, 1);
}

#[test]
fn any_single_byte_source_edit_misses() {
    let service = service(paper_sequential(), 256);
    let baseline = submit(&service, "wld", WATER_LEAK);
    baseline.wait().expect("parses");

    // A one-byte semantic edit, a one-byte whitespace edit, and a one-byte
    // append: all different content, all misses.
    let edits = [
        WATER_LEAK.replace("close", "cloze"),
        WATER_LEAK.replacen(' ', "  ", 1),
        format!("{WATER_LEAK} "),
    ];
    for (i, edited) in edits.iter().enumerate() {
        assert_ne!(edited.as_str(), WATER_LEAK, "edit {i} is not an edit");
        let job = submit(&service, "wld", edited);
        assert_eq!(job.disposition(), CacheDisposition::Miss, "edit {i} hit the cache");
        job.wait().ok(); // some edits may or may not parse; only keying matters
    }
    // A different submitted name is different content too.
    let renamed = submit(&service, "wld2", WATER_LEAK);
    assert_eq!(renamed.disposition(), CacheDisposition::Miss);
    // And the unedited original still hits.
    let back = submit(&service, "wld", WATER_LEAK);
    assert_eq!(back.disposition(), CacheDisposition::Hit);
}

#[test]
fn any_config_change_misses_but_thread_count_does_not() {
    let submit_once = |config: AnalysisConfig| -> CacheDisposition {
        let service = service(config, 64);
        let first = submit(&service, "wld", WATER_LEAK);
        first.wait().ok();
        first.disposition()
    };
    // Sanity: every fresh service misses once.
    assert_eq!(submit_once(paper_sequential()), CacheDisposition::Miss);

    // Cross-config keying: prime one service, then confirm the keys a changed
    // config computes are different (the cache is per-service, so we assert on
    // the key function the service uses).
    let base = paper_sequential();
    let base_key = soteria_service::app_cache_key("wld", WATER_LEAK, base.fingerprint());
    for changed in [
        AnalysisConfig { esp_merge: false, ..base.clone() },
        AnalysisConfig { path_sensitive: false, ..base.clone() },
        AnalysisConfig { prune_infeasible: false, ..base.clone() },
        AnalysisConfig { reflection_over_approx: false, ..base.clone() },
        AnalysisConfig { inline_depth: base.inline_depth + 1, ..base.clone() },
        AnalysisConfig { max_paths: base.max_paths / 2, ..base.clone() },
    ] {
        assert_ne!(
            soteria_service::app_cache_key("wld", WATER_LEAK, changed.fingerprint()),
            base_key,
            "config change did not change the cache key: {changed:?}"
        );
    }
    // Thread counts never change results, so they share keys by design.
    let threaded = AnalysisConfig { threads: 8, ..base.clone() };
    assert_eq!(
        soteria_service::app_cache_key("wld", WATER_LEAK, threaded.fingerprint()),
        base_key
    );
}

/// The key functions are the addresses of every persisted store entry, so their
/// bytes must not drift: these values were computed when keys still took an
/// engine name (always "Symbolic"), and a store written then must stay warm.
#[test]
fn cache_keys_keep_their_stored_values() {
    let fingerprint = AnalysisConfig::paper().fingerprint();
    assert_eq!(fingerprint, 0x2bdf_7a30_bae0_8dc1);
    let app = soteria_service::app_cache_key("wld", WATER_LEAK, fingerprint);
    assert_eq!(app.to_string(), "0672c4bb1fa27ab0caa998b7e8e266f5");
    let source = soteria_service::source_fingerprint(WATER_LEAK, fingerprint);
    assert_eq!(source.to_string(), "11ec5aa6c7ed5c0c5d83eacd49d7bf12");
    let env = soteria_service::env_cache_key("G", &[app], fingerprint);
    assert_eq!(env.to_string(), "721ae2703aa687182b4022ee4961b70a");
}

#[test]
fn lru_bound_evicts_deterministically() {
    // Three distinct apps through a 2-entry cache, twice. The same operation
    // sequence must produce the same hit/miss/eviction pattern both times.
    let variant = |n: usize| WATER_LEAK.replace("water.wet", &format!("water.wet{n}"));
    let run = || -> Vec<(String, CacheDisposition, u64)> {
        let service = service(paper_sequential(), 2);
        let mut log = Vec::new();
        let mut submit = |tag: &str, source: &str| {
            let job = submit(&service, tag, source);
            job.wait().ok();
            log.push((
                tag.to_string(),
                job.disposition(),
                service.stats().app_cache.evictions,
            ));
        };
        let (a, b, c) = (variant(1), variant(2), variant(3));
        submit("a", &a); // miss, cache {a}
        submit("b", &b); // miss, cache {a, b}
        submit("a", &a); // hit, refreshes a — b is now least recently used
        submit("c", &c); // miss, evicts b -> {a, c}
        submit("b", &b); // miss (b was evicted), evicts a -> {c, b}
        submit("a", &a); // miss (a was evicted), evicts c -> {b, a}
        log
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "replayed sequence produced a different eviction pattern");
    // And the concrete pattern is the LRU one:
    let dispositions: Vec<CacheDisposition> =
        first.iter().map(|(_, d, _)| *d).collect();
    use CacheDisposition::{Hit, Miss};
    assert_eq!(dispositions, vec![Miss, Miss, Hit, Miss, Miss, Miss]);
    let evictions: Vec<u64> = first.iter().map(|(_, _, e)| *e).collect();
    assert_eq!(evictions, vec![0, 0, 0, 1, 2, 3]);
}

#[test]
fn environment_results_are_cached_through_member_keys() {
    let service = service(paper_sequential(), 64);
    submit(&service, "a", WATER_LEAK);
    let cold_env = submit_env(&service, "G", &["a"]);
    let cold = cold_env.wait().expect("members parse");
    assert_eq!(cold_env.disposition(), CacheDisposition::Miss);

    // Same group over identical member content: a hit with the frozen result.
    submit(&service, "a", WATER_LEAK);
    let warm_env = submit_env(&service, "G", &["a"]);
    assert_eq!(warm_env.disposition(), CacheDisposition::Hit);
    assert!(Arc::ptr_eq(&cold, &warm_env.wait().expect("warm env fails")));

    // Changing a member's *content* changes the environment key, even with the
    // same member name and group name.
    let edited = WATER_LEAK.replace("close", "open");
    submit(&service, "a", &edited);
    let changed_env = submit_env(&service, "G", &["a"]);
    assert_eq!(changed_env.disposition(), CacheDisposition::Miss);
    changed_env.wait().expect("edited member parses");
}
