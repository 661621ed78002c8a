//! The content-addressed result cache: exact, bounded, optionally
//! persistent.
//!
//! Entries are found by
//! [`ExperimentSpec::canonical_hash`](crate::ExperimentSpec::canonical_hash)
//! and guarded by the spec's key bytes
//! ([`ExperimentSpec::cache_key`](crate::ExperimentSpec::cache_key), a
//! binary encoding of its canonical tree): every entry stores the key it
//! was computed for and a lookup compares it byte for byte, so a hash
//! collision never returns a wrong result. In memory, keys whose hashes
//! collide are kept side by side; on disk they share one file name, so
//! the later write replaces the earlier and a lookup of the earlier
//! reads a miss. No lookup renders the spec's text.
//!
//! The in-memory store is an LRU bounded by **entry count and total
//! bytes** — whichever cap is hit first evicts the least-recently-used
//! entries. The optional disk store (one document per entry under the
//! configured directory) is written through on insert with the same
//! atomic tmp+rename discipline as checkpoint sidecars
//! ([`crate::atomicio`]), so a daemon killed mid-write leaves either
//! the previous complete entry or none — a truncated or torn entry
//! fails to parse and reads as a miss, never as corrupt data. A disk
//! entry is a `faithful/1 cached { version = 4; key = "<hex>"; result =
//! "<document>"; }` document named `cache_<hash:016x>.spec`; an entry
//! of any other version (version 2 stored the canonical spec text,
//! version 3 was named by an older hash) is ignored, never misread.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use crate::value::{parse_document, render_document, Fields, Sink, Walk};

/// Schema version of on-disk cache entries. Version 3 stored the spec's
/// key bytes (hex) instead of its canonical text; version 4 keeps that
/// layout but is named by the full-avalanche `canonical_hash`, so a
/// version-3 file, named by the older hash, reads as a miss.
const DISK_VERSION: u64 = 4;

struct Entry {
    key: Box<[u8]>,
    result: String,
    stamp: u64,
}

impl Entry {
    fn bytes(&self) -> usize {
        self.key.len() + self.result.len()
    }
}

/// Running counters of one cache's lifetime, for the daemon's drain
/// summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that found nothing (or a disk entry of another key).
    pub misses: u64,
    /// Entries evicted to respect the entry/byte bounds.
    pub evictions: u64,
    /// Disk writes that failed (the cache degrades to memory-only for
    /// that entry; never fatal).
    pub disk_errors: u64,
}

/// A bounded LRU of rendered result documents keyed on spec key bytes
/// ([`ExperimentSpec::cache_key`](crate::ExperimentSpec::cache_key)),
/// found by their hash and compared exactly, with optional
/// write-through persistence.
pub struct ResultCache {
    /// Entries by key hash; keys whose hashes collide share a bucket.
    entries: HashMap<u64, Vec<Entry>>,
    /// Entries over all buckets.
    len: usize,
    clock: u64,
    total_bytes: usize,
    max_entries: usize,
    max_bytes: usize,
    dir: Option<PathBuf>,
    counters: CacheCounters,
}

impl ResultCache {
    /// A memory-only cache holding at most `max_entries` entries and
    /// `max_bytes` total bytes (keys + results). Either bound of 0
    /// disables caching entirely.
    #[must_use]
    pub fn new(max_entries: usize, max_bytes: usize) -> Self {
        ResultCache {
            entries: HashMap::new(),
            len: 0,
            clock: 0,
            total_bytes: 0,
            max_entries,
            max_bytes,
            dir: None,
            counters: CacheCounters::default(),
        }
    }

    /// Adds a write-through disk store under `dir` (created if
    /// missing). Disk entries are unbounded and survive restarts; the
    /// LRU bounds apply to memory only.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn with_disk(mut self, dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        self.dir = Some(dir);
        Ok(self)
    }

    /// Lifetime counters.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// The file a given hash persists to, when a disk store is
    /// configured.
    #[must_use]
    pub fn entry_path(&self, hash: u64) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| entry_path(d, hash))
    }

    /// Looks up the result for `key` (which must hash to `hash`):
    /// memory first, then disk (promoting a disk hit into memory). The
    /// stored key is compared byte for byte before anything is
    /// returned, so an entry of another key with the same hash is never
    /// returned.
    pub fn get(&mut self, hash: u64, key: impl AsRef<[u8]>) -> Option<String> {
        let key = key.as_ref();
        self.clock += 1;
        let found = self
            .entries
            .get_mut(&hash)
            .and_then(|bucket| bucket.iter_mut().find(|e| *e.key == *key));
        if let Some(e) = found {
            e.stamp = self.clock;
            self.counters.hits += 1;
            return Some(e.result.clone());
        }
        if let Some(dir) = &self.dir {
            if let Some(result) = read_entry(&entry_path(dir, hash), key) {
                self.counters.hits += 1;
                self.install(hash, key.into(), result.clone(), false);
                return Some(result);
            }
        }
        self.counters.misses += 1;
        None
    }

    /// Stores the rendered result for `key` (which must hash to
    /// `hash`), evicting least-recently-used entries past the bounds and
    /// writing through to disk when configured.
    pub fn insert(&mut self, hash: u64, key: impl AsRef<[u8]>, result: String) {
        if self.max_entries == 0 || self.max_bytes == 0 {
            return;
        }
        self.clock += 1;
        self.install(hash, key.as_ref().into(), result, true);
    }

    fn install(&mut self, hash: u64, key: Box<[u8]>, result: String, write_disk: bool) {
        if write_disk {
            if let Some(dir) = &self.dir {
                let text = render_document(&DiskEntry(&key, &result));
                if crate::atomicio::write_atomic(&entry_path(dir, hash), text.as_bytes()).is_err() {
                    self.counters.disk_errors += 1;
                }
            }
        }
        let bucket = self.entries.entry(hash).or_default();
        if let Some(i) = bucket.iter().position(|e| e.key == key) {
            self.total_bytes -= bucket.swap_remove(i).bytes();
            self.len -= 1;
        }
        let entry = Entry {
            key,
            result,
            stamp: self.clock,
        };
        self.total_bytes += entry.bytes();
        bucket.push(entry);
        self.len += 1;
        // Evict past either bound, least recently used first. Every
        // lookup and insert takes a fresh stamp, so the entry just
        // touched holds the newest and is never the one evicted (a
        // single oversized result may transiently exceed max_bytes
        // rather than thrash).
        while self.len > 1 && (self.len > self.max_entries || self.total_bytes > self.max_bytes) {
            let (_, lru, i) = self
                .entries
                .iter()
                .flat_map(|(&h, bucket)| {
                    bucket.iter().enumerate().map(move |(i, e)| (e.stamp, h, i))
                })
                .min()
                .expect("more than one entry is held");
            let bucket = self.entries.get_mut(&lru).expect("lru bucket just found");
            self.total_bytes -= bucket.swap_remove(i).bytes();
            if bucket.is_empty() {
                self.entries.remove(&lru);
            }
            self.len -= 1;
            self.counters.evictions += 1;
        }
    }

    /// Number of entries currently in memory.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are in memory.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total bytes (keys + results) currently held in memory.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.total_bytes
    }
}

fn entry_path(dir: &Path, hash: u64) -> PathBuf {
    dir.join(format!("cache_{hash:016x}.spec"))
}

/// Lowercase hex, two digits a byte: how a disk entry stores its key.
fn hex(bytes: &[u8]) -> String {
    use std::fmt::Write;
    bytes
        .iter()
        .fold(String::with_capacity(2 * bytes.len()), |mut s, b| {
            let _ = write!(s, "{b:02x}");
            s
        })
}

/// A disk entry of a key and its result document:
/// `cached { version; key = "<hex>"; result }`.
struct DiskEntry<'a>(&'a [u8], &'a str);

impl Walk for DiskEntry<'_> {
    fn walk(&self, s: &mut impl Sink) {
        s.node("cached", 3);
        s.entry("version", &DISK_VERSION);
        s.entry("key", &hex(self.0));
        s.field("result");
        s.str(self.1);
    }
}

/// Reads and validates one disk entry; any parse failure, version
/// mismatch or key mismatch is a miss (`None`), never an error — torn,
/// older or foreign files must not take the service down.
fn read_entry(path: &Path, key: &[u8]) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut f = Fields::of(parse_document(&text).ok()?, "cached").ok()?;
    f.expect_tag(&["cached"]).ok()?;
    let version: u64 = f.req("version").ok()?;
    let stored: String = f.req("key").ok()?;
    let result = f.req("result").ok()?;
    f.finish().ok()?;
    (version == DISK_VERSION && stored == hex(key)).then_some(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("faithful_cache_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn lru_is_bounded_by_entries_and_bytes() {
        let mut c = ResultCache::new(2, 1 << 20);
        c.insert(1, "spec-a", "result-a".to_owned());
        c.insert(2, "spec-b", "result-b".to_owned());
        c.insert(3, "spec-c", "result-c".to_owned());
        assert_eq!(c.len(), 2);
        // 1 was least recently used and fell out
        assert!(c.get(1, "spec-a").is_none());
        assert_eq!(c.get(3, "spec-c").as_deref(), Some("result-c"));
        // touching 2 makes 3 the LRU for the next eviction
        assert!(c.get(2, "spec-b").is_some());
        c.insert(4, "spec-d", "result-d".to_owned());
        assert!(c.get(3, "spec-c").is_none());
        assert!(c.get(2, "spec-b").is_some());

        // byte bound: each entry is ~16 bytes, cap at ~2 entries' worth
        let mut c = ResultCache::new(100, 36);
        c.insert(1, "spec-a", "result-a".to_owned());
        c.insert(2, "spec-b", "result-b".to_owned());
        c.insert(3, "spec-c", "result-c".to_owned());
        assert!(c.bytes() <= 36, "bytes = {}", c.bytes());
        assert!(c.len() < 3);
        assert!(c.counters().evictions >= 1);
    }

    #[test]
    fn hash_collisions_read_as_misses() {
        let mut c = ResultCache::new(10, 1 << 20);
        c.insert(42, "spec-a", "result-a".to_owned());
        assert!(c.get(42, "different-spec-same-hash").is_none());
        assert_eq!(c.get(42, "spec-a").as_deref(), Some("result-a"));
        // a second key of the same hash is kept beside the first, and
        // inserting a key again replaces only its own entry
        c.insert(42, "spec-b", "result-b".to_owned());
        c.insert(42, "spec-a", "result-a2".to_owned());
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(42, "spec-a").as_deref(), Some("result-a2"));
        assert_eq!(c.get(42, "spec-b").as_deref(), Some("result-b"));
        // eviction takes the least recently used of them, not the bucket
        let mut c = ResultCache::new(2, 1 << 20);
        c.insert(42, "spec-a", "result-a".to_owned());
        c.insert(42, "spec-b", "result-b".to_owned());
        assert!(c.get(42, "spec-a").is_some());
        c.insert(7, "spec-c", "result-c".to_owned());
        assert_eq!(c.len(), 2);
        assert!(c.get(42, "spec-b").is_none());
        assert!(c.get(42, "spec-a").is_some());
        assert!(c.get(7, "spec-c").is_some());
    }

    #[test]
    fn disk_store_survives_a_new_cache_and_tolerates_torn_files() {
        let d = dir("disk");
        let mut c = ResultCache::new(10, 1 << 20).with_disk(&d).unwrap();
        c.insert(7, "faithful/1 spec", "faithful/1 result".to_owned());
        let path = c.entry_path(7).unwrap();
        assert!(path.exists());

        // a fresh (post-restart) cache reads it back from disk
        let mut fresh = ResultCache::new(10, 1 << 20).with_disk(&d).unwrap();
        assert_eq!(
            fresh.get(7, "faithful/1 spec").as_deref(),
            Some("faithful/1 result")
        );
        // ... and promoted it into memory
        assert_eq!(fresh.len(), 1);

        // kill-mid-write: truncate the entry as an interrupted write
        // would never do (the atomic rename forbids it) and as a torn
        // disk could: the entry reads as a miss, not an error.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let mut torn = ResultCache::new(10, 1 << 20).with_disk(&d).unwrap();
        assert!(torn.get(7, "faithful/1 spec").is_none());

        // a leftover .tmp from a kill between write and rename is
        // ignored by reads and replaced by the next write
        std::fs::write(path.with_extension("spec.tmp"), "half a docum").unwrap();
        torn.insert(7, "faithful/1 spec", "faithful/1 result".to_owned());
        assert!(!path.with_extension("spec.tmp").exists());
        let mut again = ResultCache::new(10, 1 << 20).with_disk(&d).unwrap();
        assert_eq!(
            again.get(7, "faithful/1 spec").as_deref(),
            Some("faithful/1 result")
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn an_older_disk_entry_is_a_miss_and_a_fresh_one_replays() {
        use crate::value::Value;

        let d = dir("v2");
        let spec: crate::ExperimentSpec =
            "faithful/1 channel { channel = pure { delay = 1.0 }; input = zero }"
                .parse()
                .unwrap();
        let (hash, key) = (spec.canonical_hash(), spec.cache_key());
        let mut c = ResultCache::new(10, 1 << 20).with_disk(&d).unwrap();
        let path = c.entry_path(hash).unwrap();
        // a version-2 entry (canonical spec text, no key) and a version-3
        // one (this very key) at the path the new hash names
        let olds = [
            ("spec", Value::int(2), Value::str(spec.to_string())),
            ("key", Value::int(3), Value::str(hex(&key))),
        ];
        for (i, (name, version, stored)) in olds.into_iter().enumerate() {
            let old = Value::node(
                "cached",
                vec![
                    ("version".to_owned(), version),
                    (name.to_owned(), stored),
                    ("result".to_owned(), Value::str("faithful/1 stale")),
                ],
            );
            std::fs::write(&path, render_document(&old)).unwrap();
            assert!(c.get(hash, &key).is_none());
            assert_eq!(c.counters().misses, i as u64 + 1);
        }

        c.insert(hash, &key, "faithful/1 fresh".to_owned());
        let mut restarted = ResultCache::new(10, 1 << 20).with_disk(&d).unwrap();
        assert_eq!(
            restarted.get(hash, &key).as_deref(),
            Some("faithful/1 fresh")
        );
        // the entry names its key, and only that key reads it back
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains(&format!("version = {DISK_VERSION}")),
            "{text}"
        );
        assert!(text.contains(&hex(&key)), "{text}");
        let mut other = ResultCache::new(10, 1 << 20).with_disk(&d).unwrap();
        assert!(other.get(hash, b"another key").is_none());
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn zero_bounds_disable_caching() {
        let mut c = ResultCache::new(0, 1 << 20);
        c.insert(1, "s", "r".to_owned());
        assert!(c.get(1, "s").is_none());
        assert!(c.is_empty());
    }
}
