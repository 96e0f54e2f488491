//! Crash-safe persistent store gates (PR 8): warm restarts, torn-write
//! recovery, eviction demotion, and injected I/O faults.
//!
//! The contract under test: the disk tier is an *optimization with a proof
//! obligation* — a restored result must render byte-identical JSON to the
//! freshly computed original (measured timings included), and **no** damaged
//! or unwritable entry may ever surface as a wrong answer, a panic, or a dead
//! service. Damage is detected by the length+checksum footer, quarantined to
//! the sidecar, counted, and transparently recomputed.
//!
//! Every service here pins its own `store_dir`, `store_fs`, and deadlines, so
//! the CI chaos leg's `SOTERIA_STORE_DIR` / `SOTERIA_STORE_FAULTS` /
//! `SOTERIA_DEADLINE_MS` knobs cannot change what these gates mean.

use soteria::{JsonValue, Soteria};
use soteria_analysis::AnalysisConfig;
use soteria_bench::{
    maliot_group_specs, market_group_specs, service_corpus_sweep, stable_app_report,
    submit_app_admitted as submit, submit_environment_admitted as submit_env,
};
use soteria_corpus::{all_market_apps, maliot_suite, CorpusApp};
use soteria_service::{
    parse_entry, CacheDisposition, FaultAction, FaultFs, FileSystem, JobOutcome,
    PersistentStore, RealFs, Service, ServiceOptions, StoreBucket, StoreTuning,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

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

fn variant(n: usize) -> String {
    WATER_LEAK.replace("water.wet", &format!("water.wet{n}"))
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("soteria-persist-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 1-worker sequential-analysis service over `dir`, deadline knobs pinned
/// off so the CI chaos environment cannot time these jobs out.
fn service_over(dir: &Path) -> Service {
    service_with(ServiceOptions {
        store_dir: Some(dir.to_path_buf()),
        ..pinned()
    })
}

fn service_with(options: ServiceOptions) -> Service {
    Service::new(
        Soteria::with_config(AnalysisConfig { threads: 1, ..AnalysisConfig::paper() }),
        options,
    )
}

fn pinned() -> ServiceOptions {
    ServiceOptions {
        workers: 1,
        pending_deadline: None,
        running_deadline: None,
        // Byte-identity gates need a healthy filesystem; the fault-injection
        // tests below build their own `FaultFs` with a scripted plan instead
        // of inheriting the CI chaos leg's `SOTERIA_STORE_FAULTS` spec.
        store_fs: None,
        ..ServiceOptions::default()
    }
}

/// Zero-latency breaker tuning: fault tests degrade and recover in
/// microseconds instead of the production backoff schedule.
fn instant_tuning() -> StoreTuning {
    StoreTuning {
        breaker_threshold: 2,
        retries: 0,
        retry_backoff: Duration::ZERO,
        probe_backoff: Duration::ZERO,
        probe_cap: Duration::ZERO,
    }
}

/// The entry files in one store bucket, in name order.
fn entries(dir: &Path, bucket: &str) -> Vec<PathBuf> {
    let bucket_dir = dir.join(bucket);
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&bucket_dir)
        .unwrap_or_else(|e| panic!("{}: {e}", bucket_dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    entries.sort();
    entries
}

/// The single entry file in one store bucket (these tests submit one app / one
/// env per bucket precisely so the entry is unambiguous).
fn only_entry(dir: &Path, bucket: &str) -> PathBuf {
    let mut entries = entries(dir, bucket);
    assert_eq!(entries.len(), 1, "expected exactly one {bucket} entry");
    entries.remove(0)
}

fn strip_timings(report: &JsonValue) -> String {
    report
        .clone()
        .without("extraction_ms")
        .without("verification_ms")
        .without("union_ms")
        .render()
}

/// A store workload: apps submitted by corpus id, then groups over them.
struct Workload {
    tag: &'static str,
    apps: Vec<CorpusApp>,
    groups: Vec<(String, Vec<String>)>,
}

/// The water-leak pair (one app, one single-member environment), the MalIoT
/// suite with its groups, and market G.1–G.3 with only their members.
fn workloads() -> Vec<Workload> {
    let water_leak = CorpusApp {
        id: "wld".to_string(),
        source: WATER_LEAK.to_string(),
        ground_truth: Default::default(),
    };
    let market_groups = market_group_specs();
    let market_apps: Vec<CorpusApp> = all_market_apps()
        .into_iter()
        .filter(|a| market_groups.iter().any(|(_, members)| members.contains(&a.id)))
        .collect();
    vec![
        Workload {
            tag: "water-leak",
            apps: vec![water_leak],
            groups: vec![("G".to_string(), vec!["wld".to_string()])],
        },
        Workload { tag: "maliot", apps: maliot_suite(), groups: maliot_group_specs() },
        Workload { tag: "market-g1-g3", apps: market_apps, groups: market_groups },
    ]
}

/// `(job, report JSON)` of a drained sweep outcome; panics on a job error.
fn rendered(outcome: &JobOutcome) -> (String, String) {
    match outcome {
        JobOutcome::App { name, result, .. } => {
            let app = result.as_ref().unwrap_or_else(|e| panic!("app {name}: {e}"));
            (format!("app:{name}"), soteria::app_analysis_json(app).render())
        }
        JobOutcome::Environment { name, result, .. } => {
            let env = result.as_ref().unwrap_or_else(|e| panic!("env {name}: {e}"));
            (format!("env:{name}"), soteria::environment_json(env).render())
        }
    }
}

/// The tentpole bar: a restarted service restores results from disk and
/// serves reports *byte-identical* to the freshly computed originals —
/// including the measured timings frozen with the result — for every job of
/// every workload. One corrupted entry is then quarantined and recomputed
/// with unchanged verdicts.
#[test]
fn warm_restart_serves_byte_identical_reports_from_disk() {
    for workload in &workloads() {
        let tag = workload.tag;
        let dir = test_dir(&format!("warm-restart-{tag}"));
        let sweep = |service: &Service| {
            service_corpus_sweep(service, &workload.apps, &workload.groups)
        };
        let cold: Vec<(String, String)> = {
            let service = service_over(&dir);
            let reports: Vec<_> = sweep(&service).iter().map(rendered).collect();
            let stats = service.stats().store.expect("store configured");
            assert_eq!(stats.writes as usize, reports.len(), "{tag}: not all written: {stats:?}");
            assert_eq!(stats.corrupt_quarantined, 0);
            reports
        }; // service dropped: the restart below has only the disk to go on

        let service = service_over(&dir);
        let warm = sweep(&service);
        let restored: Vec<_> = warm.iter().map(rendered).collect();
        assert_eq!(restored, cold, "{tag}: restored reports are not byte-identical");
        let stats = service.stats().store.expect("store configured");
        assert_eq!(stats.disk_hits as usize, cold.len(), "{tag}: not all restored: {stats:?}");
        assert_eq!(stats.corrupt_quarantined, 0);

        // Disk restores are *misses* of the cold memory tier; what makes them
        // restores is the byte-identical result and the counter. The restored
        // results are now resident: a resubmission is a memory hit returning
        // the same frozen allocation.
        let JobOutcome::App { disposition, result: Ok(first_app), .. } = &warm[0] else {
            panic!("{tag}: the sweep does not start with an analysed app");
        };
        assert_eq!(*disposition, CacheDisposition::Miss, "{tag}: restore was not a miss");
        let app = &workload.apps[0];
        let resident = submit(&service, &app.id, &app.source);
        assert_eq!(resident.disposition(), CacheDisposition::Hit);
        assert!(Arc::ptr_eq(first_app, &resident.wait().expect("hit")), "{tag}: not resident");
        drop(service);

        let victim = entries(&dir, "apps").remove(0);
        let mut bytes = std::fs::read(&victim).expect("entry readable");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x11;
        std::fs::write(&victim, &bytes).expect("damage written");
        let service = service_over(&dir);
        let damaged = sweep(&service);
        for ((job, want), (_, got)) in cold.iter().zip(damaged.iter().map(rendered)) {
            let stable = |render: &str| strip_timings(&JsonValue::parse(render).expect("parses"));
            assert_eq!(stable(&got), stable(want), "{tag}: {job} changed after corruption");
        }
        let stats = service.stats().store.expect("store configured");
        assert_eq!(stats.corrupt_quarantined, 1, "{tag}: not quarantined: {stats:?}");
        assert!(
            dir.join("quarantine").read_dir().expect("sidecar").next().is_some(),
            "{tag}: nothing in the quarantine sidecar"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Satellite 3, detection side: truncating a *real* persisted entry at every
/// byte offset, flipping every byte, and appending garbage are all detected
/// by the footer framing — the store quarantines and reports a miss, never a
/// payload.
#[test]
fn every_truncation_and_bit_flip_of_a_real_entry_is_detected() {
    let dir = test_dir("torn-detect");
    {
        let service = service_over(&dir);
        submit(&service, "wld", WATER_LEAK).wait().expect("parses");
    }
    let path = only_entry(&dir, "apps");
    let entry = std::fs::read(&path).expect("entry readable");
    assert!(parse_entry(&entry).is_ok(), "the undamaged entry must validate");

    // Exhaustive at the framing layer: every prefix and every single-byte
    // flip of the real bytes is rejected.
    for cut in 0..entry.len() {
        assert!(parse_entry(&entry[..cut]).is_err(), "truncation at {cut} accepted");
    }
    for at in 0..entry.len() {
        let mut damaged = entry.clone();
        damaged[at] ^= 0x01;
        assert!(parse_entry(&damaged).is_err(), "bit flip at {at} accepted");
    }
    let mut extended = entry.clone();
    extended.extend_from_slice(b"{}");
    assert!(parse_entry(&extended).is_err(), "appended garbage accepted");

    // Through the store: a sweep of truncation offsets and flips (every 7th
    // byte — the framing layer above is exhaustive; this proves the store
    // turns each rejection into quarantine + miss without panicking).
    let key = {
        let stem = path.file_stem().and_then(|s| s.to_str()).expect("hex stem");
        soteria_service::CacheKey(u128::from_str_radix(stem, 16).expect("key hex"))
    };
    let mut damages: Vec<Vec<u8>> = (0..entry.len()).step_by(7).map(|cut| entry[..cut].to_vec()).collect();
    damages.extend((0..entry.len()).step_by(7).map(|at| {
        let mut flipped = entry.clone();
        flipped[at] ^= 0x80;
        flipped
    }));
    for (i, damaged) in damages.iter().enumerate() {
        std::fs::write(&path, damaged).expect("damage written");
        let store = PersistentStore::open(&dir, Arc::new(RealFs), StoreTuning::default());
        assert_eq!(store.load(StoreBucket::Apps, key), None, "damage {i} returned a payload");
        let stats = store.stats();
        assert_eq!(
            (stats.corrupt_quarantined, stats.disk_hits),
            (1, 0),
            "damage {i} not quarantined"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 3, recovery side: a service restarted over a mangled store never
/// returns a wrong answer — the damaged entry is quarantined to the sidecar
/// and the result recomputed, matching the original modulo measured timings.
#[test]
fn mangled_entries_are_quarantined_and_recomputed_never_served() {
    let dir = test_dir("torn-recover");
    let (cold_app, cold_env) = {
        let service = service_over(&dir);
        let app = submit(&service, "wld", WATER_LEAK).wait().expect("parses");
        let env = submit_env(&service, "G", &["wld"]).wait().expect("members parse");
        (
            strip_timings(&soteria::app_analysis_json(&app)),
            strip_timings(&soteria::environment_json(&env)),
        )
    };
    let app_path = only_entry(&dir, "apps");
    let env_path = only_entry(&dir, "envs");
    let pristine = std::fs::read(&app_path).expect("entry readable");

    // A representative damage sweep over the app entry: empty file, torn
    // mid-payload, torn inside the footer, a payload bit flip, a checksum bit
    // flip, and non-UTF-8 garbage. Each restart must recompute the same
    // verdicts (timings are remeasured) and quarantine exactly one entry.
    let damages: Vec<Vec<u8>> = vec![
        Vec::new(),
        pristine[..pristine.len() / 2].to_vec(),
        pristine[..pristine.len() - 10].to_vec(),
        {
            let mut d = pristine.clone();
            d[4] ^= 0x20;
            d
        },
        {
            let mut d = pristine.clone();
            let at = d.len() - 3;
            d[at] ^= 0x04;
            d
        },
        vec![0xff; 256],
    ];
    for (i, damage) in damages.iter().enumerate() {
        std::fs::write(&app_path, damage).expect("damage written");
        let service = service_over(&dir);
        let recomputed = submit(&service, "wld", WATER_LEAK)
            .wait()
            .unwrap_or_else(|e| panic!("damage {i}: recompute failed: {e}"));
        assert_eq!(
            strip_timings(&soteria::app_analysis_json(&recomputed)),
            cold_app,
            "damage {i}: recomputed verdicts diverge"
        );
        let stats = service.stats().store.expect("store configured");
        assert_eq!(stats.corrupt_quarantined, 1, "damage {i}: not quarantined");
        assert_eq!(stats.disk_hits, 0, "damage {i}: damaged entry served as a hit");
        let faults = service.faults();
        assert_eq!(faults.len(), 1, "damage {i}: fault log records: {faults:?}");
        assert_eq!(faults[0].stage, "store");
        assert!(matches!(faults[0].kind, soteria_service::FaultKind::Corrupt));
        assert!(
            dir.join("quarantine").read_dir().expect("sidecar").next().is_some(),
            "damage {i}: nothing moved to the quarantine sidecar"
        );
        // The recompute re-persisted a fresh entry; it must validate again.
        let rewritten = std::fs::read(&app_path).expect("rewritten entry");
        assert!(parse_entry(&rewritten).is_ok(), "damage {i}: rewrite not framed");
    }

    // Same story for a mangled *environment* entry: the app restores from
    // disk, the environment recomputes from the restored member.
    let mut env_bytes = std::fs::read(&env_path).expect("env entry readable");
    env_bytes[6] ^= 0x40;
    std::fs::write(&env_path, &env_bytes).expect("damage written");
    let service = service_over(&dir);
    submit(&service, "wld", WATER_LEAK).wait().expect("restores");
    let env = submit_env(&service, "G", &["wld"]).wait().expect("recomputes");
    assert_eq!(
        strip_timings(&soteria::environment_json(&env)),
        cold_env,
        "recomputed environment verdicts diverge"
    );
    let stats = service.stats().store.expect("store configured");
    assert_eq!(stats.corrupt_quarantined, 1, "env entry not quarantined");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 1: eviction *demotes* to disk instead of dropping — a registry
/// bare key whose result left the in-memory LRU stays resolvable as an
/// environment member through the disk tier, where the memory-only service
/// would fail with `EvictedMember`.
#[test]
fn evicted_members_stay_resolvable_through_the_disk_tier() {
    let dir = test_dir("demote");
    let service = service_with(ServiceOptions {
        cache_capacity: 1,
        store_dir: Some(dir.clone()),
        ..pinned()
    });
    let (a, b) = (variant(1), variant(2));
    let frozen_a = submit(&service, "a", &a).wait().expect("parses");
    submit(&service, "b", &b).wait().expect("parses"); // evicts a: demoted, not dropped
    assert_eq!(service.stats().app_cache.evictions, 1);

    // The memory tier no longer has `a`, but its bare registry key resolves
    // through the disk tier — and the promoted result is the byte-identical
    // frozen original, so the environment unions the exact same inputs.
    let env = submit_env(&service, "G", &["a", "b"]).wait().expect("members resolvable");
    assert_eq!(env.app_names.len(), 2, "union does not span both members");
    let stats = service.stats();
    let store = stats.store.expect("store configured");
    assert!(store.disk_hits >= 1, "member was not promoted from disk: {store:?}");

    // The promoted copy decodes to the same report as the original.
    let promoted = submit(&service, "a", &a);
    let promoted = promoted.wait().expect("resolvable");
    assert_eq!(
        soteria::app_analysis_json(&promoted).render(),
        soteria::app_analysis_json(&frozen_a).render(),
        "promoted member diverges from the frozen original"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `update` re-verifies a group whose last run was restored from the store,
/// not only one computed in this process: after a warm restart, resubmitting
/// the group restores it from disk, and a later `update` of a member still
/// re-verifies it, equal to the direct API on the edited members.
#[test]
fn update_after_a_warm_restart_reverifies_restored_groups() {
    let dir = test_dir("update-after-restart");
    let follower = |body: &str| {
        WATER_LEAK
            .replace("Water-Leak-Detector", "Leak-Follower")
            .replace("valve_device.close()", body)
    };
    let (opened, closed) = (follower("valve_device.open()"), follower("valve_device.close()"));
    let update = |service: &Service, source: &str| {
        let (app, envs) = service.resubmit("b", source).expect("admitted");
        app.wait().expect("edited member parses");
        let reverified = envs.iter().map(|env| {
            (env.name().to_string(), env.wait().expect("re-verifies"))
        });
        reverified.collect::<Vec<_>>()
    };
    let before = {
        let service = service_over(&dir);
        submit(&service, "a", WATER_LEAK);
        submit(&service, "b", &closed);
        submit_env(&service, "G", &["a", "b"]).wait().expect("members parse");
        let updated = update(&service, &opened);
        assert_eq!(updated.len(), 1, "update before the restart skipped G");
        updated[0].1.clone()
    }; // service dropped: the restart below has only the disk to go on

    let service = service_over(&dir);
    submit(&service, "a", WATER_LEAK);
    submit(&service, "b", &opened);
    let restored = submit_env(&service, "G", &["a", "b"]).wait().expect("members parse");
    assert_eq!(
        soteria::environment_json(&restored).render(),
        soteria::environment_json(&before).render(),
        "the resubmitted group was not restored from the store"
    );
    let edited = format!("{closed}// edited after the restart\n");
    let updated = update(&service, &edited);
    assert_eq!(updated.len(), 1, "update after the restart skipped the restored group");
    let (name, env) = &updated[0];
    assert_eq!(name, "G");
    let soteria = service.soteria();
    let direct_a = soteria.analyze_app("a", WATER_LEAK).expect("parses");
    let direct_b = soteria.analyze_app("b", &edited).expect("parses");
    let direct = soteria.analyze_environment("G", &[direct_a, direct_b]);
    assert_eq!(env.violations, direct.violations);
    assert_eq!(
        strip_timings(&soteria::environment_json(env)),
        strip_timings(&soteria::environment_json(&direct))
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected write faults (I/O error, ENOSPC) never surface as wrong answers
/// or a dead service: results still compute, the breaker degrades the store
/// to memory-only with an `io` fault record, and a later probe re-enables it.
#[test]
fn injected_io_faults_degrade_the_store_never_the_answers() {
    let dir = test_dir("io-faults");
    std::fs::create_dir_all(&dir).expect("test dir");
    let fault_fs = Arc::new(FaultFs::new(Arc::new(RealFs)));
    let service = service_with(ServiceOptions {
        store_dir: Some(dir.clone()),
        store_fs: Some(fault_fs.clone() as Arc<dyn FileSystem>),
        store_tuning: Some(instant_tuning()),
        ..pinned()
    });
    let reference = Soteria::with_config(AnalysisConfig { threads: 1, ..AnalysisConfig::paper() });

    // First write lands; the next two saves fail (ENOSPC, then a plain I/O
    // error), tripping the 2-threshold breaker. Each failed save also does a
    // best-effort temp cleanup that consults the plan — hence the Allows.
    submit(&service, "v1", &variant(1)).wait().expect("parses");
    fault_fs.push(FaultAction::FailEnospc);
    fault_fs.push(FaultAction::Allow);
    fault_fs.push(FaultAction::FailIo);
    fault_fs.push(FaultAction::Allow);
    for n in [2usize, 3] {
        let name = format!("v{n}");
        let source = variant(n);
        let analysis = submit(&service, &name, &source)
            .wait()
            .unwrap_or_else(|e| panic!("{name}: fault leaked into the result: {e}"));
        // The answer under injection is the answer, full stop.
        let direct = reference.analyze_app(&name, &source).expect("parses");
        assert_eq!(stable_app_report(&analysis), stable_app_report(&direct), "{name}");
    }
    let stats = service.stats();
    let store = stats.store.expect("store configured");
    assert_eq!(store.write_errors, 2, "both injected failures should count: {store:?}");
    assert_eq!(store.degraded_events, 1, "breaker did not trip: {store:?}");
    assert!(
        service
            .faults()
            .iter()
            .any(|f| f.stage == "store"
                && matches!(f.kind, soteria_service::FaultKind::Io)
                && f.message.contains("degraded to memory-only")),
        "degrade not surfaced in the fault log: {:?}",
        service.faults()
    );

    // Zero probe backoff: the next save probes, succeeds, and re-enables the
    // tier — the recovery is counted and new entries persist again.
    submit(&service, "v4", &variant(4)).wait().expect("parses");
    let store = service.stats().store.expect("store configured");
    assert_eq!(store.recoveries, 1, "probe did not re-enable the store: {store:?}");
    assert!(!store.degraded);
    assert!(store.writes >= 2, "recovered store stopped persisting: {store:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Periodic chaos (`every=3` on the shared filesystem) across a whole
/// workload: whatever the rotation injects — I/O errors, torn writes,
/// ENOSPC, corrupted bytes — every job completes with the right verdicts and
/// a restart over the battered directory still never serves damage.
#[test]
fn periodic_chaos_rotation_never_changes_any_verdict() {
    let dir = test_dir("chaos-rotation");
    std::fs::create_dir_all(&dir).expect("test dir");
    let reference = Soteria::with_config(AnalysisConfig { threads: 1, ..AnalysisConfig::paper() });
    let expected: Vec<String> = (1..=6)
        .map(|n| {
            let source = variant(n);
            stable_app_report(&reference.analyze_app(&format!("v{n}"), &source).expect("parses"))
        })
        .collect();

    let chaos = |tag: &str| {
        let fault_fs = Arc::new(FaultFs::from_spec("every=3").expect("spec parses"));
        let service = service_with(ServiceOptions {
            store_dir: Some(dir.clone()),
            store_fs: Some(fault_fs as Arc<dyn FileSystem>),
            store_tuning: Some(instant_tuning()),
            ..pinned()
        });
        for (n, want) in (1..=6).zip(&expected) {
            let name = format!("v{n}");
            let analysis = submit(&service, &name, &variant(n))
                .wait()
                .unwrap_or_else(|e| panic!("{tag}/{name}: chaos leaked into the result: {e}"));
            assert_eq!(&stable_app_report(&analysis), want, "{tag}/{name}: verdicts diverge");
        }
        service.stats().store.expect("store configured")
    };
    let cold = chaos("cold");
    // The second pass reopens the same battered directory: entries the chaos
    // corrupted on the way down are detected and recomputed, valid ones may
    // restore — and in all cases the verdicts above already matched.
    let warm = chaos("warm");
    assert_eq!(cold.disk_hits, 0, "first pass had nothing to restore");
    let touched = warm.disk_hits + warm.corrupt_quarantined + warm.disk_misses;
    assert!(touched >= 1, "restart never consulted the disk tier: {warm:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
