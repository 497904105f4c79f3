//! Fault injection for the result cache's disk tier, plus the
//! degraded-results-are-never-cached regression at the server level.
//!
//! The disk tier is an accelerator: any on-disk damage — truncation,
//! flipped payload or checksum bytes, wrong-version headers, files racing
//! between concurrent writers — must surface as a recompute-and-repair
//! *miss*, never as a wrong reply or a crash.

use iolb_core::result_cache::{Claim, Tier, DISK_HEADER_LEN};
use iolb_core::{AnalysisFingerprint, DiskTierConfig, ResultCache, ResultCacheConfig};
use iolb_server::json;
use iolb_server::{Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "iolb-cache-chaos-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn disk_cache(dir: &Path) -> Arc<ResultCache> {
    ResultCache::new(ResultCacheConfig {
        disk: Some(DiskTierConfig::new(dir)),
        ..ResultCacheConfig::default()
    })
    .expect("disk tier opens")
}

fn fp(n: u128) -> AnalysisFingerprint {
    AnalysisFingerprint::from_raw(n)
}

fn entry_path(dir: &Path, fp: AnalysisFingerprint) -> PathBuf {
    dir.join(format!("{fp}.iolbr"))
}

type Corruption = fn(&mut Vec<u8>);

/// Every way a stored entry can rot on disk. Each mutation is applied to a
/// freshly written valid entry; the reopened cache must treat the file as
/// a miss, delete it, count `disk_corrupt`, and accept a clean rewrite.
#[test]
fn corrupted_disk_entries_become_repairing_misses() {
    let corruptions: &[(&str, Corruption)] = &[
        ("truncated below the header", |data| {
            data.truncate(DISK_HEADER_LEN / 2)
        }),
        ("truncated mid-payload", |data| {
            let keep = DISK_HEADER_LEN + (data.len() - DISK_HEADER_LEN) / 2;
            data.truncate(keep)
        }),
        ("payload byte flipped", |data| {
            let at = DISK_HEADER_LEN + 3;
            data[at] ^= 0x40;
        }),
        ("checksum byte flipped", |data| {
            data[DISK_HEADER_LEN - 1] ^= 0x01
        }),
        ("wrong magic", |data| data[0] ^= 0xff),
        // Format 01 stored multi-line documents; a one-line reply must
        // never embed one.
        ("previous format magic IOLBRC01", |data| {
            data[..8].copy_from_slice(b"IOLBRC01")
        }),
        ("wrong format version", |data| {
            data[8] = data[8].wrapping_add(1)
        }),
        ("header fingerprint mismatch", |data| data[12] ^= 0x01),
        ("empty file", |data| data.clear()),
    ];
    for (round, (what, corrupt)) in corruptions.iter().enumerate() {
        let dir = scratch_dir(&format!("rot-{round}"));
        let document = Arc::new(format!("{{\"doc\": {round}}}"));
        let key = fp(0x0123_4567_89ab_cdef_0000 + round as u128);
        disk_cache(&dir).store(key, document.clone());
        let path = entry_path(&dir, key);
        let mut data = std::fs::read(&path).expect("entry was written");
        corrupt(&mut data);
        std::fs::write(&path, &data).unwrap();

        // A fresh cache over the damaged directory: the lookup must miss,
        // count the corruption, and remove the file (repair)…
        let reopened = disk_cache(&dir);
        assert!(
            reopened.lookup(key).is_none(),
            "{what}: served a damaged entry"
        );
        let stats = reopened.stats();
        assert_eq!(stats.disk_corrupt, 1, "{what}: corruption not counted");
        assert_eq!(stats.disk_hits, 0, "{what}");
        assert!(!path.exists(), "{what}: damaged file not repaired away");
        // …and a clean rewrite must serve again.
        reopened.store(key, document.clone());
        let again = disk_cache(&dir);
        let hit = again.lookup(key).expect("rewritten entry must serve");
        assert_eq!(hit.tier, Tier::Disk);
        assert_eq!(*hit.json, *document, "{what}: repair served wrong bytes");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A document whose fingerprint file was swapped with another entry's
/// (header fingerprint disagrees with the file name) must miss — the
/// header check is what makes the file name untrusted input.
#[test]
fn cross_renamed_entries_do_not_serve_each_others_documents() {
    let dir = scratch_dir("swap");
    let cache = disk_cache(&dir);
    let (a, b) = (fp(0xaaaa), fp(0xbbbb));
    cache.store(a, Arc::new("{\"doc\": \"a\"}".to_string()));
    cache.store(b, Arc::new("{\"doc\": \"b\"}".to_string()));
    drop(cache);
    // Swap the two files on disk.
    let (pa, pb) = (entry_path(&dir, a), entry_path(&dir, b));
    let tmp = dir.join("swap.tmp");
    std::fs::rename(&pa, &tmp).unwrap();
    std::fs::rename(&pb, &pa).unwrap();
    std::fs::rename(&tmp, &pb).unwrap();

    let reopened = disk_cache(&dir);
    assert!(reopened.lookup(a).is_none(), "a served b's document");
    assert!(reopened.lookup(b).is_none(), "b served a's document");
    assert_eq!(reopened.stats().disk_corrupt, 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Two caches over the same directory (two daemons sharing a cache dir, or
/// a racing writer mid-restart) publishing the same fingerprint
/// concurrently: atomic temp-file + rename writes mean every interleaving
/// leaves a fully valid entry — never a torn one.
#[test]
fn concurrent_writers_over_one_directory_never_tear_an_entry() {
    let dir = scratch_dir("race");
    let key = fp(0x0ace);
    // Both writers store the *same* document — that is what two daemons
    // computing the same fingerprint produce (byte-identical replay).
    let document = "{\"doc\": \"raced\"}".repeat(512);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let dir = &dir;
            let document = &document;
            scope.spawn(move || {
                let cache = disk_cache(dir);
                for _ in 0..50 {
                    cache.store(key, Arc::new(document.clone()));
                }
            });
        }
    });
    let reopened = disk_cache(&dir);
    let hit = reopened.lookup(key).expect("raced entry must be valid");
    assert_eq!(*hit.json, document);
    assert_eq!(reopened.stats().disk_corrupt, 0);
    // No temp files left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|d| d.ok())
        .filter(|d| d.path().extension().and_then(|e| e.to_str()) != Some("iolbr"))
        .collect();
    assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A leader that dies (panics, errors) mid-computation must hand its
/// waiters back to the claim loop rather than leave a poisoned or empty
/// entry behind.
#[test]
fn an_abandoned_leader_leaves_no_entry_behind() {
    let dir = scratch_dir("abandon");
    let cache = disk_cache(&dir);
    let key = fp(0xdead);
    match cache.claim(key) {
        Claim::Leader(guard) => drop(guard), // simulated crash: no publish
        _ => panic!("first claim must lead"),
    }
    assert!(cache.lookup(key).is_none());
    assert!(!entry_path(&dir, key).exists());
    // The next claimant becomes a fresh leader and can publish.
    match cache.claim(key) {
        Claim::Leader(guard) => guard.publish(Arc::new("{}".to_string())),
        _ => panic!("claim after abandonment must lead"),
    }
    assert!(cache.lookup(key).is_some());
    std::fs::remove_dir_all(&dir).ok();
}

fn stats_counter(server: &Server, group: &str, key: &str) -> i128 {
    let stats = server.handle_line(r#"{"op": "stats"}"#);
    let doc = json::parse(&stats).unwrap();
    let group = doc
        .get("server_stats")
        .and_then(|s| s.get(group))
        .unwrap_or_else(|| panic!("stats group {group} missing in {stats}"));
    match group.get(key) {
        Some(json::Json::Int(n)) => *n,
        other => panic!("stats field {key} missing or non-integer: {other:?}"),
    }
}

/// The degraded-result regression, end to end: a `timeout_ms`-budgeted
/// heat-3d request that comes back degraded (or times out outright) must
/// store **nothing** — so a later un-budgeted request recomputes in full
/// (`cached: false`), and only that clean result is served from the cache
/// afterwards (`cached: true`, byte-identical, no degradation marker).
#[test]
fn degraded_heat_3d_results_are_never_cached() {
    let server = Server::start(ServerConfig {
        workers: 2,
        default_timeout_ms: 600_000,
        ..ServerConfig::default()
    });
    // A 50 ms budget: far below any full heat-3d analysis (~150 ms in an
    // optimized build), so the reply is either a degraded ok or a
    // timeout/resource error — in both cases an interrupted computation.
    let budgeted = server.handle_line(r#"{"id": "b", "kernel": "heat-3d", "timeout_ms": 50}"#);
    let doc = json::parse(&budgeted).unwrap();
    let degraded_ok = doc.get("degraded").is_some();
    assert!(
        degraded_ok || doc.get("error").is_some(),
        "a 50 ms heat-3d budget must interrupt: {budgeted}"
    );
    if degraded_ok {
        assert!(
            budgeted.contains("\"cached\":false"),
            "degraded replies are never cache hits: {budgeted}"
        );
    }
    assert_eq!(
        stats_counter(&server, "result_cache", "stores"),
        0,
        "an interrupted result must not be stored"
    );

    // The un-budgeted request shares the fingerprint (budgets are excluded
    // from it) but must recompute in full.
    let clean = server.handle_line(r#"{"id": "c", "kernel": "heat-3d"}"#);
    assert!(clean.contains("\"status\":\"ok\""), "{clean}");
    assert!(clean.contains("\"cached\":false"), "{clean}");
    assert!(!clean.contains("\"degraded\""), "{clean}");
    assert_eq!(stats_counter(&server, "result_cache", "stores"), 1);

    // Only now does the cache serve — the clean document, byte-identical.
    let replay = server.handle_line(r#"{"id": "r", "kernel": "heat-3d"}"#);
    assert!(replay.contains("\"cached\":true"), "{replay}");
    assert!(!replay.contains("\"degraded\""), "{replay}");
    let report_of = |response: &str| {
        let at = response.find("\"report\":").expect("report field");
        let end = response.find(",\"server\":").expect("server field");
        response[at..end].to_string()
    };
    assert_eq!(report_of(&clean), report_of(&replay));
    server.shutdown();
}
