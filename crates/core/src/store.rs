//! Content-addressed, disk-persisted result store.
//!
//! The serving layer (`hiss-serve`) keeps one store directory per
//! deployment: every completed simulation publishes its
//! [`MetricsRegistry`] snapshot under a key
//! derived deterministically from the run's full identity
//! (`SystemConfig` fingerprint, mitigation/QoS knobs, workload names —
//! see [`StoreKey`]). Because a run is a pure function of that identity
//! and bit-for-bit deterministic, a stored snapshot is byte-identical
//! to what a fresh simulation would produce, so a popular scenario
//! costs one simulation, ever — across process restarts and across
//! multiple worker processes sharing the directory.
//!
//! # Layout and entry format
//!
//! Entries are sharded by the first two hex digits of the key so no
//! single directory grows unboundedly:
//!
//! ```text
//! <root>/ab/ab129bf04c59d21e.entry
//! ```
//!
//! Each entry is a one-line header followed by the payload:
//!
//! ```text
//! hiss-store v2 <payload-byte-length> <payload-fnv1a-hex>\n
//! <metrics registry JSON>\n
//! ```
//!
//! The header's length and checksum let a reader detect truncated or
//! corrupted entries without parsing the payload. The version changes
//! whenever the snapshot layout does (`v2` snapshots carry no per-GPU
//! copy of the `devN.*` keys), so an entry written under another layout
//! is never served. An invalid entry is *counted*
//! ([`DiskStore::invalid_count`]) and treated as a miss — the caller
//! recomputes and republishes — never a panic.
//!
//! # Atomic publication
//!
//! All writes go through [`DiskStore::atomic_write`]: the entry is
//! written to a `<entry>.<seq>.tmp.<pid>` sibling and `rename`d into
//! place, which is atomic on POSIX filesystems. `seq` is unique per
//! write within the store, so no two writers — threads of one server or
//! separate processes — ever share a temporary. Readers therefore never
//! observe a half-written entry, even if a writer dies mid-write or
//! several writers race on the same key (last rename wins; all wrote
//! identical bytes). The determinism lint's `HL305` check enforces that
//! no code in the store paths writes an entry any other way.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use hiss_obs::MetricsRegistry;

/// Magic + version prefix of every entry header line.
pub const ENTRY_MAGIC: &str = "hiss-store";
/// Current entry format version, bumped whenever the snapshot layout
/// changes.
pub const ENTRY_VERSION: &str = "v2";

/// 64-bit FNV-1a over a byte string — the store's content hash. Stable
/// across platforms and process runs (no per-process seeding, unlike
/// `std`'s hasher), which is what makes keys shareable on disk.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A content-addressed store key: the FNV-1a hash of the run identity's
/// fingerprint parts, rendered as 16 lowercase hex digits.
///
/// Parts are length-prefixed before hashing so `("ab", "c")` and
/// `("a", "bc")` cannot collide structurally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreKey(String);

impl StoreKey {
    /// Hashes an ordered list of identity parts into a key.
    pub fn from_parts(parts: &[&str]) -> StoreKey {
        let mut buf = Vec::new();
        for p in parts {
            buf.extend_from_slice(p.len().to_string().as_bytes());
            buf.push(b':');
            buf.extend_from_slice(p.as_bytes());
            buf.push(b'\n');
        }
        StoreKey(format!("{:016x}", fnv1a(&buf)))
    }

    /// The 16-hex-digit key string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The two-hex-digit shard prefix.
    pub fn shard(&self) -> &str {
        &self.0[..2]
    }
}

/// A sharded, content-addressed, disk-persisted snapshot store.
///
/// Thread-safe: lookups and publishes touch disjoint files (or publish
/// identical bytes for the same key), and the counters are atomics. Safe
/// to share across processes — publication is atomic write-then-rename.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    invalid: AtomicU64,
    writes: AtomicU64,
    /// Next temporary-file sequence number (see [`Self::atomic_write`]).
    tmp_seq: AtomicU64,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DiskStore {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The entry path for `key` (whether or not it exists).
    pub fn entry_path(&self, key: &StoreKey) -> PathBuf {
        self.root
            .join(key.shard())
            .join(format!("{}.entry", key.as_str()))
    }

    /// Looks up `key`. Returns the stored registry on a valid hit;
    /// `None` (counted as a miss, plus an invalid-entry count when the
    /// entry existed but failed validation) otherwise.
    pub fn load(&self, key: &StoreKey) -> Option<MetricsRegistry> {
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_entry(&bytes) {
            Ok(reg) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(reg)
            }
            Err(_) => {
                // Corrupt, truncated, or wrong-version entry: fall back
                // to recompute; the republish will overwrite it.
                self.invalid.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publishes `metrics` under `key` (atomic write-then-rename).
    pub fn save(&self, key: &StoreKey, metrics: &MetricsRegistry) -> std::io::Result<()> {
        self.save_entry(key, &encode_entry(metrics))
    }

    /// Publishes entry bytes already made by [`encode_entry`] under
    /// `key`, as [`Self::save`] does: the encoding can run on one thread
    /// and the fsync'd write on another.
    pub fn save_entry(&self, key: &StoreKey, entry: &[u8]) -> std::io::Result<()> {
        let path = self.entry_path(key);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        self.atomic_write(&path, entry)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The one sanctioned entry-publication primitive: writes `bytes`
    /// to a `<name>.<seq>.tmp.<pid>` sibling of `path`, unique per call,
    /// flushes, and `rename`s it into place. Readers never observe a
    /// partial entry (`HL305` flags store-path writes that bypass this).
    pub fn atomic_write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".{seq}.tmp.{}", std::process::id()));
        let tmp = path.with_file_name(name);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)
    }

    /// Removes this process's leftover `*.tmp.<pid>` files (a crash
    /// between write and rename leaves one behind; a graceful shutdown
    /// flush calls this). Other processes' temporaries are left alone —
    /// they may be mid-write.
    pub fn flush(&self) -> std::io::Result<()> {
        let suffix = format!(".tmp.{}", std::process::id());
        for shard in read_dir_sorted(&self.root)? {
            if !shard.is_dir() {
                continue;
            }
            for path in read_dir_sorted(&shard)? {
                if path.to_string_lossy().ends_with(&suffix) {
                    // Best-effort: the file may have been renamed away.
                    let _ = fs::remove_file(&path);
                }
            }
        }
        Ok(())
    }

    /// Number of entry files currently on disk (walks the shards).
    pub fn len(&self) -> usize {
        let mut n = 0;
        if let Ok(shards) = read_dir_sorted(&self.root) {
            for shard in shards.iter().filter(|p| p.is_dir()) {
                if let Ok(entries) = read_dir_sorted(shard) {
                    n += entries
                        .iter()
                        .filter(|p| p.extension().is_some_and(|e| e == "entry"))
                        .count();
                }
            }
        }
        n
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime valid-entry hits.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime misses (absent entries plus invalid ones).
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime invalid entries encountered (each also counts a miss).
    pub fn invalid_count(&self) -> u64 {
        self.invalid.load(Ordering::Relaxed)
    }

    /// Lifetime entries published by this process.
    pub fn write_count(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

fn read_dir_sorted(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    out.sort();
    Ok(out)
}

/// Serializes a registry into entry bytes (header line + JSON payload).
pub fn encode_entry(metrics: &MetricsRegistry) -> Vec<u8> {
    let mut payload = String::new();
    metrics.write_json(&mut payload);
    payload.push('\n');
    let mut entry = String::with_capacity(64 + payload.len());
    let _ = writeln!(
        entry,
        "{ENTRY_MAGIC} {ENTRY_VERSION} {} {:016x}",
        payload.len(),
        fnv1a(payload.as_bytes())
    );
    entry.push_str(&payload);
    entry.into_bytes()
}

/// Validates and decodes entry bytes. Errors name what failed so store
/// diagnostics stay actionable.
pub fn decode_entry(bytes: &[u8]) -> Result<MetricsRegistry, String> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("missing header line")?;
    let header =
        std::str::from_utf8(&bytes[..newline]).map_err(|_| "header is not UTF-8".to_string())?;
    let mut fields = header.split(' ');
    let (magic, version, len, sum) = (
        fields.next().ok_or("empty header")?,
        fields.next().ok_or("missing version")?,
        fields.next().ok_or("missing payload length")?,
        fields.next().ok_or("missing checksum")?,
    );
    if magic != ENTRY_MAGIC {
        return Err(format!("bad magic {magic:?}"));
    }
    if version != ENTRY_VERSION {
        return Err(format!("unsupported version {version:?}"));
    }
    let len: usize = len
        .parse()
        .map_err(|_| format!("bad payload length {len:?}"))?;
    let payload = &bytes[newline + 1..];
    if payload.len() != len {
        return Err(format!(
            "payload length {} disagrees with header {len} (truncated?)",
            payload.len()
        ));
    }
    let actual = format!("{:016x}", fnv1a(payload));
    if actual != sum {
        return Err(format!("checksum mismatch: header {sum}, payload {actual}"));
    }
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    MetricsRegistry::from_json(text.trim_end_matches('\n'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(name: &str) -> DiskStore {
        let dir =
            std::env::temp_dir().join(format!("hiss_store_test_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        DiskStore::open(dir).unwrap()
    }

    fn sample_registry() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter("kernel.ipis", 477);
        m.gauge("run.cc6_residency", 0.863);
        m.label("cell.cpu_app", "x264");
        m
    }

    #[test]
    fn keys_are_stable_and_structurally_safe() {
        let a = StoreKey::from_parts(&["ab", "c"]);
        let b = StoreKey::from_parts(&["a", "bc"]);
        assert_ne!(a, b);
        assert_eq!(a, StoreKey::from_parts(&["ab", "c"]));
        assert_eq!(a.as_str().len(), 16);
        assert_eq!(a.shard(), &a.as_str()[..2]);
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let store = tmp_store("round_trip");
        let reg = sample_registry();
        let key = StoreKey::from_parts(&["cfg", "x264", "ubench"]);
        assert!(store.load(&key).is_none());
        store.save(&key, &reg).unwrap();
        let back = store.load(&key).expect("entry hit");
        assert_eq!(back.to_json(), reg.to_json());
        assert_eq!(store.hit_count(), 1);
        assert_eq!(store.miss_count(), 1);
        assert_eq!(store.invalid_count(), 0);
        assert_eq!(store.len(), 1);
        // Entry is sharded under the 2-hex prefix.
        assert!(store
            .entry_path(&key)
            .starts_with(store.root().join(key.shard())));
    }

    #[test]
    fn corrupted_entries_count_invalid_and_fall_back() {
        let store = tmp_store("corrupt");
        let reg = sample_registry();
        let key = StoreKey::from_parts(&["k"]);
        store.save(&key, &reg).unwrap();

        let path = store.entry_path(&key);
        let good = fs::read(&path).unwrap();

        // Truncated payload.
        store.atomic_write(&path, &good[..good.len() - 3]).unwrap();
        assert!(store.load(&key).is_none());
        // Flipped payload byte (checksum mismatch).
        let mut flipped = good.clone();
        let last = flipped.len() - 2;
        flipped[last] ^= 0x01;
        store.atomic_write(&path, &flipped).unwrap();
        assert!(store.load(&key).is_none());
        // Wrong version.
        let wrong = String::from_utf8(good.clone()).unwrap().replacen(
            &format!("{ENTRY_MAGIC} {ENTRY_VERSION}"),
            &format!("{ENTRY_MAGIC} v9"),
            1,
        );
        store.atomic_write(&path, wrong.as_bytes()).unwrap();
        assert!(store.load(&key).is_none());

        assert_eq!(store.invalid_count(), 3);
        // Republishing heals the entry.
        store.save(&key, &reg).unwrap();
        assert_eq!(store.load(&key).unwrap().to_json(), reg.to_json());
    }

    #[test]
    fn decode_errors_name_the_failure() {
        assert!(decode_entry(b"").is_err());
        assert!(decode_entry(b"nonsense v1 0 0\n")
            .unwrap_err()
            .contains("magic"));
        let err = decode_entry(b"hiss-store v9 0 0\n").unwrap_err();
        assert!(err.contains("version"), "{err}");
        let entry = encode_entry(&sample_registry());
        let err = decode_entry(&entry[..entry.len() - 1]).unwrap_err();
        assert!(err.contains("length"), "{err}");
    }

    /// Threads of one server publishing the same cell: concurrent
    /// same-key saves and loads on the pool. Every save must land and no
    /// load may read a torn entry, which shared temporaries allowed.
    #[test]
    fn concurrent_same_key_saves_and_loads_never_tear() {
        let store = tmp_store("concurrent");
        let key = StoreKey::from_parts(&["shared"]);
        let reg = sample_registry();
        let saves = crate::RunCtx::new(8).run_jobs(4000, |i| {
            if i % 2 == 0 {
                Some(store.save(&key, &reg).map_err(|e| e.to_string()))
            } else {
                store.load(&key);
                None
            }
        });
        for saved in saves.into_iter().flatten() {
            assert_eq!(saved, Ok(()));
        }
        assert_eq!(store.invalid_count(), 0);
        assert_eq!(store.write_count(), 2000);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn flush_removes_only_own_tmp_files() {
        let store = tmp_store("flush");
        let key = StoreKey::from_parts(&["k"]);
        store.save(&key, &sample_registry()).unwrap();
        let shard_dir = store.entry_path(&key).parent().unwrap().to_path_buf();
        let mine = shard_dir.join(format!("a.entry.tmp.{}", std::process::id()));
        let theirs = shard_dir.join("b.entry.tmp.99999999");
        fs::write(&mine, b"partial").unwrap();
        fs::write(&theirs, b"partial").unwrap();
        store.flush().unwrap();
        assert!(!mine.exists(), "own tmp file survives flush");
        assert!(theirs.exists(), "foreign tmp file was removed");
        assert_eq!(store.len(), 1);
    }
}
