//! Content-addressed whole-analysis result cache (memory + disk tiers).
//!
//! The [`crate::pool::SessionPool`] keeps engine *state* warm, but a repeated
//! request still pays the full Fourier–Motzkin / counting pipeline. This
//! module caches the finished product instead: the serialized
//! [`AnalysisOutcome`](crate::AnalysisOutcome) JSON document, keyed by a
//! 128-bit **analysis fingerprint** over everything that determines it —
//! the canonicalized workload, the option knobs, the report
//! [`crate::report::SCHEMA_VERSION`] and the engine version
//! (see [`crate::Analyzer::fingerprint`]). A cached reply is byte-identical
//! to the computed one, because it *is* the computed one. The `iolb serve`
//! daemon is the one client: its request path claims, serves and publishes
//! entries.
//!
//! Three layers, consulted in order by [`ResultCache::claim`]:
//!
//! 1. a **sharded in-memory LRU** of `Arc<String>` documents;
//! 2. an optional **disk tier**: one versioned, checksummed file per entry
//!    (`<fingerprint-hex>.iolbr`), LRU-bounded by total bytes, written
//!    atomically (temp file + rename) so concurrent writers and crashed
//!    daemons can never leave a half-entry that parses. Anything that fails
//!    validation — truncation, bit flips, a foreign format version, a stale
//!    schema — is deleted and treated as a miss;
//! 3. **singleflight**: concurrent requests for the same fingerprint
//!    coalesce into one computation. The first claimant becomes the
//!    *leader* (and computes); the rest block until the leader publishes
//!    and are counted under `inflight_coalesced` — never as hits or
//!    misses, and they never touch the session pool.
//!
//! Degraded or interrupted results are **never** cached: the leader's
//! [`LeaderGuard`] only stores on an explicit [`LeaderGuard::publish`], and
//! dropping the guard (error, panic, degradation) wakes the waiters
//! empty-handed so each retries the claim — the first of them becomes the
//! new leader, the rest coalesce again.

use crate::report::SCHEMA_VERSION;
use iolb_poly::fxhash::{self, FingerprintMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Magic + on-disk format version of a disk-tier entry file. Bumping the
/// format invalidates every existing entry (foreign magic = miss). Format 02
/// stores the compact one-line document the daemon splices into its reply
/// unchanged; format-01 entries held the older multi-line rendering and are
/// repaired away on first read.
pub const DISK_MAGIC: [u8; 8] = *b"IOLBRC02";

/// Fixed header length of a disk-tier entry file: magic (8), report schema
/// version (4), fingerprint (16), payload length (8), checksum (16).
pub const DISK_HEADER_LEN: usize = 52;

/// The 128-bit content address of one analysis request: equal fingerprints
/// promise byte-identical reports. Computed by
/// [`crate::Analyzer::fingerprint`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AnalysisFingerprint(u128);

impl AnalysisFingerprint {
    /// Wraps a raw 128-bit fingerprint.
    pub const fn from_raw(raw: u128) -> Self {
        AnalysisFingerprint(raw)
    }

    /// The raw 128-bit value.
    pub const fn raw(self) -> u128 {
        self.0
    }

    /// The 32-character lowercase hex form (the wire and on-disk spelling).
    pub fn to_hex(self) -> String {
        fxhash::to_hex(self.0)
    }

    /// Parses the 32-character hex form back.
    pub fn from_hex(s: &str) -> Option<Self> {
        fxhash::from_hex(s).map(AnalysisFingerprint)
    }
}

impl std::fmt::Display for AnalysisFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Which tier served a hit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    /// The sharded in-memory LRU.
    Memory,
    /// The on-disk tier (the entry is promoted to memory on the way out).
    Disk,
}

/// A cache hit: the exact serialized document of the producing run.
#[derive(Clone)]
pub struct Hit {
    /// The cached `AnalysisOutcome::to_json` document.
    pub json: Arc<String>,
    /// Which tier served it.
    pub tier: Tier,
}

/// Sizing knobs for a [`ResultCache`].
#[derive(Clone, Debug)]
pub struct ResultCacheConfig {
    /// Total in-memory entries across all shards (0 disables the memory
    /// tier; hits then come from disk only).
    pub memory_entries: usize,
    /// Number of LRU shards (lock striping; clamped to at least 1).
    pub shards: usize,
    /// Optional disk tier.
    pub disk: Option<DiskTierConfig>,
}

impl Default for ResultCacheConfig {
    fn default() -> Self {
        ResultCacheConfig {
            memory_entries: 2048,
            shards: 8,
            disk: None,
        }
    }
}

/// Disk-tier location and bound.
#[derive(Clone, Debug)]
pub struct DiskTierConfig {
    /// Directory holding one `<fingerprint-hex>.iolbr` file per entry
    /// (created if missing; existing entries are adopted on open).
    pub dir: PathBuf,
    /// Total-bytes bound; least-recently-used entries are deleted to stay
    /// under it. Entries larger than the bound are not written.
    pub max_bytes: u64,
}

impl DiskTierConfig {
    /// A disk tier at `dir` with the default 256 MiB bound.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskTierConfig {
            dir: dir.into(),
            max_bytes: 256 << 20,
        }
    }
}

/// A point-in-time snapshot of the cache counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Memory-tier hits.
    pub hits: u64,
    /// Claims that found nothing and became the leader computation.
    pub misses: u64,
    /// Requests served by waiting on an in-flight leader (counted here
    /// *only* — not under hits or misses).
    pub inflight_coalesced: u64,
    /// Disk-tier hits (each also promotes the entry to memory).
    pub disk_hits: u64,
    /// Memory-tier LRU evictions.
    pub evictions: u64,
    /// Disk-tier LRU evictions (files deleted to stay under the byte bound).
    pub disk_evictions: u64,
    /// Disk entries that failed validation and were deleted (truncation,
    /// checksum mismatch, foreign version, stale schema).
    pub disk_corrupt: u64,
    /// Documents stored (memory and, when configured, disk).
    pub stores: u64,
    /// Leader computations that finished uncacheable (degraded, interrupted
    /// or failed) and published nothing.
    pub uncacheable: u64,
}

#[derive(Default)]
struct StatsCells {
    hits: AtomicU64,
    misses: AtomicU64,
    inflight_coalesced: AtomicU64,
    disk_hits: AtomicU64,
    evictions: AtomicU64,
    disk_evictions: AtomicU64,
    disk_corrupt: AtomicU64,
    stores: AtomicU64,
    uncacheable: AtomicU64,
}

struct MemEntry {
    json: Arc<String>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: FingerprintMap<MemEntry>,
    clock: u64,
}

struct FlightState {
    done: bool,
    result: Option<Arc<String>>,
}

/// One in-flight leader computation; waiters block on the condvar.
struct Flight {
    state: Mutex<FlightState>,
    cond: Condvar,
}

impl Flight {
    fn new() -> Arc<Flight> {
        Arc::new(Flight {
            state: Mutex::new(FlightState {
                done: false,
                result: None,
            }),
            cond: Condvar::new(),
        })
    }

    fn wait(&self) -> Option<Arc<String>> {
        let mut state = self.state.lock().unwrap();
        while !state.done {
            state = self.cond.wait(state).unwrap();
        }
        state.result.clone()
    }

    fn complete(&self, result: Option<Arc<String>>) {
        let mut state = self.state.lock().unwrap();
        state.done = true;
        state.result = result;
        drop(state);
        self.cond.notify_all();
    }
}

/// The outcome of [`ResultCache::claim`].
pub enum Claim {
    /// Served from a tier; reply immediately.
    Hit(Hit),
    /// Served by a concurrent leader's computation; reply immediately.
    Coalesced(Hit),
    /// This request is the leader: compute, then
    /// [`publish`](LeaderGuard::publish) or drop the guard.
    Leader(LeaderGuard),
}

/// The leader's obligation: exactly one of [`publish`](LeaderGuard::publish)
/// (full, non-degraded result) or abandonment (drop — also the panic path),
/// which wakes every coalesced waiter empty-handed so they retry.
pub struct LeaderGuard {
    cache: Arc<ResultCache>,
    flight: Arc<Flight>,
    fp: AnalysisFingerprint,
    done: bool,
}

impl LeaderGuard {
    /// The fingerprint this leader computes for.
    pub fn fingerprint(&self) -> AnalysisFingerprint {
        self.fp
    }

    /// Stores the document in every configured tier, then wakes the
    /// waiters with it. Only call with full (non-degraded, non-interrupted)
    /// results.
    pub fn publish(mut self, json: Arc<String>) {
        // Store *before* retiring the flight: a claimant that finds neither
        // a memory entry nor a flight re-checks memory under the inflight
        // lock, and this ordering makes that re-check authoritative.
        self.cache.store(self.fp, json.clone());
        self.finish(Some(json));
    }

    fn finish(&mut self, result: Option<Arc<String>>) {
        if self.done {
            return;
        }
        self.done = true;
        if result.is_none() {
            self.cache.stats.uncacheable.fetch_add(1, Ordering::Relaxed);
        }
        self.cache.inflight.lock().unwrap().remove(&self.fp.raw());
        self.flight.complete(result);
    }
}

impl Drop for LeaderGuard {
    fn drop(&mut self) {
        // Unwinding through the leader's computation lands here: waiters
        // must never hang on a dead leader.
        self.finish(None);
    }
}

/// The result cache. Cheap to share (`Arc`); every method takes `&self`.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    inflight: Mutex<FingerprintMap<Arc<Flight>>>,
    disk: Option<DiskTier>,
    stats: StatsCells,
}

impl ResultCache {
    /// Opens a cache. Only fails when a disk tier is configured and its
    /// directory cannot be created or scanned.
    pub fn new(config: ResultCacheConfig) -> std::io::Result<Arc<ResultCache>> {
        let shard_count = config.shards.max(1);
        let shard_capacity = config.memory_entries.div_ceil(shard_count);
        let disk = match config.disk {
            Some(disk_config) => Some(DiskTier::open(disk_config)?),
            None => None,
        };
        Ok(Arc::new(ResultCache {
            shards: (0..shard_count)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_capacity: if config.memory_entries == 0 {
                0
            } else {
                shard_capacity
            },
            inflight: Mutex::new(FingerprintMap::default()),
            disk,
            stats: StatsCells::default(),
        }))
    }

    /// Claims a fingerprint: a [`Claim::Hit`] from a tier, a
    /// [`Claim::Coalesced`] reply from a concurrent leader, or a
    /// [`Claim::Leader`] obligation to compute.
    pub fn claim(self: &Arc<Self>, fp: AnalysisFingerprint) -> Claim {
        loop {
            if let Some(hit) = self.lookup_memory(fp) {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                return Claim::Hit(hit);
            }
            if let Some(hit) = self.lookup_disk(fp) {
                return Claim::Hit(hit);
            }
            let existing = {
                let mut inflight = self.inflight.lock().unwrap();
                match inflight.get(&fp.raw()) {
                    Some(flight) => Some(flight.clone()),
                    None => {
                        // A leader stores to memory before retiring its
                        // flight, so re-checking memory here closes the
                        // publish/lookup race.
                        if let Some(hit) = self.lookup_memory(fp) {
                            self.stats.hits.fetch_add(1, Ordering::Relaxed);
                            return Claim::Hit(hit);
                        }
                        let flight = Flight::new();
                        inflight.insert(fp.raw(), flight.clone());
                        self.stats.misses.fetch_add(1, Ordering::Relaxed);
                        return Claim::Leader(LeaderGuard {
                            cache: self.clone(),
                            flight,
                            fp,
                            done: false,
                        });
                    }
                }
            };
            if let Some(flight) = existing {
                match flight.wait() {
                    Some(json) => {
                        self.stats
                            .inflight_coalesced
                            .fetch_add(1, Ordering::Relaxed);
                        return Claim::Coalesced(Hit {
                            json,
                            tier: Tier::Memory,
                        });
                    }
                    // The leader finished uncacheable: retry the claim —
                    // one waiter becomes the new leader, the rest coalesce
                    // on it again.
                    None => continue,
                }
            }
        }
    }

    /// A plain tier lookup (memory, then disk) without singleflight.
    pub fn lookup(&self, fp: AnalysisFingerprint) -> Option<Hit> {
        if let Some(hit) = self.lookup_memory(fp) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return Some(hit);
        }
        self.lookup_disk(fp)
    }

    /// Stores a full-result document in every configured tier. Callers must
    /// never store degraded or interrupted results — use
    /// [`LeaderGuard::publish`] (or this, on the recompute-after-abandoned
    /// path) only with clean outcomes.
    pub fn store(&self, fp: AnalysisFingerprint, json: Arc<String>) {
        self.stats.stores.fetch_add(1, Ordering::Relaxed);
        if let Some(disk) = &self.disk {
            let evicted = disk.save(fp, &json);
            self.stats
                .disk_evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
        self.store_memory(fp, json);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ResultCacheStats {
        ResultCacheStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            inflight_coalesced: self.stats.inflight_coalesced.load(Ordering::Relaxed),
            disk_hits: self.stats.disk_hits.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            disk_evictions: self.stats.disk_evictions.load(Ordering::Relaxed),
            disk_corrupt: self.stats.disk_corrupt.load(Ordering::Relaxed),
            stores: self.stats.stores.load(Ordering::Relaxed),
            uncacheable: self.stats.uncacheable.load(Ordering::Relaxed),
        }
    }

    /// Resident in-memory entries (for tests and stats).
    pub fn memory_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().entries.len())
            .sum()
    }

    fn shard_of(&self, fp: AnalysisFingerprint) -> &Mutex<Shard> {
        // The IdentityHasher map inside each shard keys on the low 64 bits;
        // stripe on high bits so shard choice and bucket choice stay
        // independent.
        &self.shards[((fp.raw() >> 96) as usize) % self.shards.len()]
    }

    fn lookup_memory(&self, fp: AnalysisFingerprint) -> Option<Hit> {
        let mut shard = self.shard_of(fp).lock().unwrap();
        shard.clock += 1;
        let clock = shard.clock;
        let entry = shard.entries.get_mut(&fp.raw())?;
        entry.last_used = clock;
        Some(Hit {
            json: entry.json.clone(),
            tier: Tier::Memory,
        })
    }

    fn lookup_disk(&self, fp: AnalysisFingerprint) -> Option<Hit> {
        let disk = self.disk.as_ref()?;
        let (json, corrupt) = disk.load(fp);
        self.stats
            .disk_corrupt
            .fetch_add(corrupt, Ordering::Relaxed);
        let json = json?;
        self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
        // Promote: the next repeat is a memory hit.
        self.store_memory(fp, json.clone());
        Some(Hit {
            json,
            tier: Tier::Disk,
        })
    }

    fn store_memory(&self, fp: AnalysisFingerprint, json: Arc<String>) {
        if self.shard_capacity == 0 {
            return;
        }
        let mut shard = self.shard_of(fp).lock().unwrap();
        shard.clock += 1;
        let clock = shard.clock;
        shard.entries.insert(
            fp.raw(),
            MemEntry {
                json,
                last_used: clock,
            },
        );
        while shard.entries.len() > self.shard_capacity {
            // Shards are small (capacity / shard count), so a linear LRU
            // scan beats maintaining an intrusive list.
            let victim = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty over-capacity shard");
            shard.entries.remove(&victim);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct DiskEntry {
    bytes: u64,
    last_used: u64,
}

struct DiskIndex {
    entries: FingerprintMap<DiskEntry>,
    total_bytes: u64,
    clock: u64,
}

/// The on-disk tier: one validated file per entry, bytes-bounded LRU.
struct DiskTier {
    dir: PathBuf,
    max_bytes: u64,
    index: Mutex<DiskIndex>,
    tmp_counter: AtomicU64,
}

impl DiskTier {
    fn open(config: DiskTierConfig) -> std::io::Result<DiskTier> {
        std::fs::create_dir_all(&config.dir)?;
        let mut index = DiskIndex {
            entries: FingerprintMap::default(),
            total_bytes: 0,
            clock: 0,
        };
        // Adopt surviving entries; validation is deferred to first read.
        for dirent in std::fs::read_dir(&config.dir)? {
            let dirent = dirent?;
            let path = dirent.path();
            if path.extension().and_then(|e| e.to_str()) != Some("iolbr") {
                continue;
            }
            let Some(fp) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(fxhash::from_hex)
            else {
                continue;
            };
            let Ok(meta) = dirent.metadata() else {
                continue;
            };
            index.clock += 1;
            index.total_bytes += meta.len();
            index.entries.insert(
                fp,
                DiskEntry {
                    bytes: meta.len(),
                    last_used: index.clock,
                },
            );
        }
        Ok(DiskTier {
            dir: config.dir,
            max_bytes: config.max_bytes,
            index: Mutex::new(index),
            tmp_counter: AtomicU64::new(0),
        })
    }

    fn entry_path(&self, fp: AnalysisFingerprint) -> PathBuf {
        self.dir.join(format!("{}.iolbr", fp.to_hex()))
    }

    /// Reads and validates one entry. Returns `(document, corrupt_count)`;
    /// a file that exists but fails validation is deleted (repair) and
    /// reported in the second slot.
    fn load(&self, fp: AnalysisFingerprint) -> (Option<Arc<String>>, u64) {
        let path = self.entry_path(fp);
        let Ok(data) = std::fs::read(&path) else {
            return (None, 0);
        };
        match parse_disk_entry(&data, fp) {
            Some(json) => {
                let mut index = self.index.lock().unwrap();
                index.clock += 1;
                let clock = index.clock;
                let bytes = data.len() as u64;
                match index.entries.get_mut(&fp.raw()) {
                    Some(entry) => entry.last_used = clock,
                    None => {
                        index.total_bytes += bytes;
                        index.entries.insert(
                            fp.raw(),
                            DiskEntry {
                                bytes,
                                last_used: clock,
                            },
                        );
                    }
                }
                (Some(Arc::new(json)), 0)
            }
            None => {
                let _ = std::fs::remove_file(&path);
                let mut index = self.index.lock().unwrap();
                if let Some(entry) = index.entries.remove(&fp.raw()) {
                    index.total_bytes = index.total_bytes.saturating_sub(entry.bytes);
                }
                (None, 1)
            }
        }
    }

    /// Writes one entry atomically (temp file + rename) and evicts LRU
    /// entries to honor the byte bound. Returns the eviction count.
    fn save(&self, fp: AnalysisFingerprint, json: &str) -> u64 {
        let payload = json.as_bytes();
        let total = (DISK_HEADER_LEN + payload.len()) as u64;
        if total > self.max_bytes {
            return 0;
        }
        let mut data = Vec::with_capacity(DISK_HEADER_LEN + payload.len());
        data.extend_from_slice(&DISK_MAGIC);
        data.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        data.extend_from_slice(&fp.raw().to_le_bytes());
        data.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        data.extend_from_slice(&fxhash::fingerprint(&payload).to_le_bytes());
        data.extend_from_slice(payload);
        let tmp = self.dir.join(format!(
            "{}.tmp.{}.{}",
            fp.to_hex(),
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, &data).is_err() {
            return 0;
        }
        let path = self.entry_path(fp);
        if std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return 0;
        }
        let mut index = self.index.lock().unwrap();
        index.clock += 1;
        let clock = index.clock;
        if let Some(old) = index.entries.remove(&fp.raw()) {
            index.total_bytes = index.total_bytes.saturating_sub(old.bytes);
        }
        index.total_bytes += total;
        index.entries.insert(
            fp.raw(),
            DiskEntry {
                bytes: total,
                last_used: clock,
            },
        );
        let mut evicted = 0;
        while index.total_bytes > self.max_bytes && index.entries.len() > 1 {
            let victim = index
                .entries
                .iter()
                .filter(|(k, _)| **k != fp.raw())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("over-bound index with more than one entry");
            let entry = index.entries.remove(&victim).expect("victim present");
            index.total_bytes = index.total_bytes.saturating_sub(entry.bytes);
            let _ =
                std::fs::remove_file(self.dir.join(format!("{}.iolbr", fxhash::to_hex(victim))));
            evicted += 1;
        }
        evicted
    }
}

/// Validates one on-disk entry end to end; any deviation is corruption.
fn parse_disk_entry(data: &[u8], fp: AnalysisFingerprint) -> Option<String> {
    if data.len() < DISK_HEADER_LEN || data[..8] != DISK_MAGIC {
        return None;
    }
    let schema = u32::from_le_bytes(data[8..12].try_into().unwrap());
    if schema != SCHEMA_VERSION {
        return None;
    }
    let stored_fp = u128::from_le_bytes(data[12..28].try_into().unwrap());
    if stored_fp != fp.raw() {
        return None;
    }
    let len = u64::from_le_bytes(data[28..36].try_into().unwrap());
    let checksum = u128::from_le_bytes(data[36..52].try_into().unwrap());
    let payload = &data[DISK_HEADER_LEN..];
    if payload.len() as u64 != len || fxhash::fingerprint(&payload) != checksum {
        return None;
    }
    String::from_utf8(payload.to_vec()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "iolb-result-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fp(n: u128) -> AnalysisFingerprint {
        AnalysisFingerprint::from_raw(n)
    }

    #[test]
    fn hex_round_trip() {
        let f = fp(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
        assert_eq!(f.to_hex().len(), 32);
        assert_eq!(AnalysisFingerprint::from_hex(&f.to_hex()), Some(f));
        assert_eq!(AnalysisFingerprint::from_hex("xyz"), None);
    }

    #[test]
    fn memory_store_hit_and_lru_eviction() {
        let cache = ResultCache::new(ResultCacheConfig {
            memory_entries: 2,
            shards: 1,
            disk: None,
        })
        .unwrap();
        cache.store(fp(1), Arc::new("one".to_string()));
        cache.store(fp(2), Arc::new("two".to_string()));
        assert_eq!(*cache.lookup(fp(1)).unwrap().json, "one");
        // Touching 1 makes 2 the LRU victim.
        cache.store(fp(3), Arc::new("three".to_string()));
        assert!(cache.lookup(fp(2)).is_none());
        assert_eq!(*cache.lookup(fp(1)).unwrap().json, "one");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn singleflight_coalesces_and_failed_leader_hands_over() {
        let cache = ResultCache::new(ResultCacheConfig::default()).unwrap();
        // First claim leads.
        let Claim::Leader(guard) = cache.claim(fp(7)) else {
            panic!("expected leader");
        };
        // Abandon (degraded path): a subsequent claim must lead again,
        // not see a cached entry.
        drop(guard);
        let Claim::Leader(guard) = cache.claim(fp(7)) else {
            panic!("expected a fresh leader after abandonment");
        };
        guard.publish(Arc::new("doc".to_string()));
        match cache.claim(fp(7)) {
            Claim::Hit(hit) => assert_eq!(*hit.json, "doc"),
            _ => panic!("expected hit"),
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.uncacheable, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn concurrent_claims_coalesce_on_one_leader() {
        let cache = ResultCache::new(ResultCacheConfig::default()).unwrap();
        let Claim::Leader(guard) = cache.claim(fp(9)) else {
            panic!("expected leader");
        };
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let cache = cache.clone();
                std::thread::spawn(move || match cache.claim(fp(9)) {
                    Claim::Coalesced(hit) => (*hit.json).clone(),
                    Claim::Hit(hit) => (*hit.json).clone(),
                    Claim::Leader(_) => panic!("second leader while one is in flight"),
                })
            })
            .collect();
        // Give the waiters time to park on the flight.
        std::thread::sleep(std::time::Duration::from_millis(50));
        guard.publish(Arc::new("coalesced".to_string()));
        for w in waiters {
            assert_eq!(w.join().unwrap(), "coalesced");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.inflight_coalesced, 4);
    }

    #[test]
    fn disk_round_trip_restart_and_bound() {
        let dir = tmp_dir("roundtrip");
        let disk = Some(DiskTierConfig {
            dir: dir.clone(),
            max_bytes: 4096,
        });
        {
            let cache = ResultCache::new(ResultCacheConfig {
                memory_entries: 8,
                shards: 2,
                disk: disk.clone(),
            })
            .unwrap();
            cache.store(fp(11), Arc::new("persisted".to_string()));
        }
        // Simulated restart: fresh cache over the same directory.
        let cache = ResultCache::new(ResultCacheConfig {
            memory_entries: 8,
            shards: 2,
            disk,
        })
        .unwrap();
        let hit = cache.lookup(fp(11)).unwrap();
        assert_eq!(*hit.json, "persisted");
        assert_eq!(hit.tier, Tier::Disk);
        // Promoted: second lookup is a memory hit.
        assert_eq!(cache.lookup(fp(11)).unwrap().tier, Tier::Memory);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_byte_bound_evicts_lru() {
        let dir = tmp_dir("bound");
        let cache = ResultCache::new(ResultCacheConfig {
            memory_entries: 0, // disk only, so lookups exercise the tier
            shards: 1,
            disk: Some(DiskTierConfig {
                dir: dir.clone(),
                max_bytes: (DISK_HEADER_LEN as u64 + 8) * 2,
            }),
        })
        .unwrap();
        cache.store(fp(1), Arc::new("11111111".to_string()));
        cache.store(fp(2), Arc::new("22222222".to_string()));
        cache.store(fp(3), Arc::new("33333333".to_string()));
        assert!(cache.lookup(fp(1)).is_none(), "oldest entry evicted");
        assert!(cache.lookup(fp(3)).is_some());
        assert!(cache.stats().disk_evictions >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_deleted_misses() {
        let dir = tmp_dir("corrupt");
        let config = ResultCacheConfig {
            memory_entries: 0,
            shards: 1,
            disk: Some(DiskTierConfig {
                dir: dir.clone(),
                max_bytes: 1 << 20,
            }),
        };
        let cache = ResultCache::new(config).unwrap();
        cache.store(fp(5), Arc::new("precious".to_string()));
        let path = dir.join(format!("{}.iolbr", fp(5).to_hex()));
        let mut data = std::fs::read(&path).unwrap();
        *data.last_mut().unwrap() ^= 0xff; // flip a payload byte
        std::fs::write(&path, &data).unwrap();
        assert!(cache.lookup(fp(5)).is_none());
        assert_eq!(cache.stats().disk_corrupt, 1);
        assert!(!path.exists(), "corrupt entry deleted (repair)");
        // Repair: storing again round-trips.
        cache.store(fp(5), Arc::new("precious".to_string()));
        assert_eq!(*cache.lookup(fp(5)).unwrap().json, "precious");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
