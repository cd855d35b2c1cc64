//! The content-addressed, on-disk result store.
//!
//! One result = one shard file. A shard is a pretty-printed JSON object:
//!
//! ```json
//! {
//!   "schema": "seer-store-v1",
//!   "kind": "cell",
//!   "fingerprint": "v0.1.0+k1",
//!   "key": { ... },
//!   "key_id": "ssca2/rtm/t4/s0/x3fb47ae147ae147b",
//!   "checksum": "0xabc...",
//!   "value": { ... }
//! }
//! ```
//!
//! * **Content addressing.** The filename is
//!   `{kind}-{fnv1a(kind / key_id / fingerprint):016x}.json`, so a lookup
//!   is one `read`, no index file to corrupt. The embedded `key_id` is
//!   compared on load, so a (vanishingly unlikely) filename hash
//!   collision reads as a miss, never as the wrong result.
//! * **Atomicity.** Writes go to a same-directory temp file first and are
//!   `rename(2)`d into place, so a crash mid-write can only ever leave a
//!   stray temp file — never a half-written shard under the real name.
//! * **Integrity.** `checksum` is FNV-1a 64 over the *compact* encoding
//!   of `value`. Any shard that fails to read, parse, match its key, or
//!   verify is **quarantined** (renamed to `*.quarantined`, kept for
//!   post-mortem) and reported as a miss; the executor recomputes and the
//!   next save writes a fresh shard. Corruption is a performance event,
//!   not a correctness event.
//! * **Fingerprinting.** [`kernel_fingerprint`] folds the workspace
//!   version and a manually-bumped kernel revision into every shard name
//!   and body. Results computed by an older kernel simply stop matching —
//!   a warm start can never smuggle stale physics into a new build.
//! * **Degradation.** An unwritable store directory warns once (the
//!   `trace_export` warn-once discipline) and silently disables
//!   persistence for the rest of the process: every sweep still runs and
//!   prints its report, it just stops being warm next time.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;

use crate::json::Json;
use crate::persist::{fnv1a, Persist, StoreKey};

/// Manually bumped whenever the simulation kernel's *output* changes
/// (i.e. whenever the replay fixtures would need a re-bless). Stored
/// shards from other revisions are ignored, never trusted.
const KERNEL_REV: u32 = 1;

/// Shard schema tag; bump on incompatible shard-format changes.
const SCHEMA: &str = "seer-store-v1";

/// The kernel-version fingerprint baked into every shard.
pub fn kernel_fingerprint() -> String {
    format!("v{}+k{KERNEL_REV}", env!("CARGO_PKG_VERSION"))
}

/// Counters describing what a store did over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Shards served (verified and decoded).
    pub loads: u64,
    /// Shards written.
    pub saves: u64,
    /// Shards found corrupt and quarantined.
    pub quarantined: u64,
}

/// A content-addressed result store rooted at one directory.
///
/// Cheap to clone conceptually but deliberately not `Clone`: executors
/// own their store, and counters describe that one store's life.
pub struct Store {
    root: PathBuf,
    fingerprint: String,
    disabled: AtomicBool,
    warned: Once,
    loads: AtomicU64,
    saves: AtomicU64,
    quarantined: AtomicU64,
}

impl Store {
    /// Opens (lazily — no I/O yet) a store rooted at `root`. The
    /// directory is created on first save; a missing directory is just a
    /// cold store.
    pub fn open(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            fingerprint: kernel_fingerprint(),
            disabled: AtomicBool::new(false),
            warned: Once::new(),
            loads: AtomicU64::new(0),
            saves: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The fingerprint this store reads/writes under.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Lifetime counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            loads: self.loads.load(Ordering::Relaxed),
            saves: self.saves.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// True once persistence has been turned off by an I/O failure.
    pub fn is_disabled(&self) -> bool {
        self.disabled.load(Ordering::Relaxed)
    }

    /// The shard path for `key` under the current fingerprint.
    pub fn shard_path<K: StoreKey>(&self, key: &K) -> PathBuf {
        let id = format!("{} / {} / {}", K::KIND, key.key_id(), self.fingerprint);
        self.root
            .join(format!("{}-{:016x}.json", K::KIND, fnv1a(id.as_bytes())))
    }

    /// Loads the stored value for `key`, or `None` on a cold miss *or any
    /// kind of damage* — unreadable, unparsable, wrong key, checksum
    /// mismatch, undecodable value. Damaged shards are quarantined so the
    /// evidence survives and the next save does not fight a corpse.
    pub fn load<K: StoreKey, V: Persist>(&self, key: &K) -> Option<V> {
        if self.is_disabled() {
            return None;
        }
        let path = self.shard_path(key);
        let raw = match std::fs::read(&path) {
            Ok(raw) => raw,
            // A missing shard is the ordinary cold miss. Any other read
            // error means the file exists but cannot be trusted.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                self.quarantine(&path, &format!("unreadable shard: {e}"));
                return None;
            }
        };
        let bytes = match String::from_utf8(raw) {
            Ok(text) => text,
            Err(_) => {
                self.quarantine(&path, "shard is not valid UTF-8");
                return None;
            }
        };
        match self.decode(key, &bytes) {
            Ok(value) => {
                self.loads.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            Err(why) => {
                self.quarantine(&path, &why);
                None
            }
        }
    }

    fn decode<K: StoreKey, V: Persist>(&self, key: &K, bytes: &str) -> Result<V, String> {
        let shard = Json::parse(bytes).map_err(|e| format!("unparsable shard: {e}"))?;
        let expect = |name: &str, want: &str| -> Result<(), String> {
            let got = shard.str_field(name)?;
            if got == want {
                Ok(())
            } else {
                Err(format!("shard {name} {got:?} != expected {want:?}"))
            }
        };
        expect("schema", SCHEMA)?;
        expect("kind", K::KIND)?;
        expect("fingerprint", &self.fingerprint)?;
        expect("key_id", &key.key_id())?;
        let value = shard.field("value")?;
        let recorded = shard.str_field("checksum")?;
        let actual = format!("{:#018x}", fnv1a(value.to_string_compact().as_bytes()));
        if recorded != actual {
            return Err(format!(
                "checksum mismatch: recorded {recorded}, actual {actual}"
            ));
        }
        V::from_store_json(value).map_err(|e| format!("undecodable value: {e}"))
    }

    /// Writes the shard for `(key, value)` atomically. All I/O errors
    /// warn once and disable the store; execution continues without
    /// persistence.
    pub fn save<K: StoreKey, V: Persist>(&self, key: &K, value: &V) {
        if self.is_disabled() {
            return;
        }
        let value_json = value.to_store_json();
        let checksum = format!("{:#018x}", fnv1a(value_json.to_string_compact().as_bytes()));
        let shard = Json::object([
            ("schema", Json::Str(SCHEMA.to_string())),
            ("kind", Json::Str(K::KIND.to_string())),
            ("fingerprint", Json::Str(self.fingerprint.clone())),
            ("key", key.key_json()),
            ("key_id", Json::Str(key.key_id())),
            ("checksum", Json::Str(checksum)),
            ("value", value_json),
        ]);
        let mut text = shard.to_string_pretty();
        text.push('\n');
        let path = self.shard_path(key);
        if let Err(e) = self.write_atomic(&path, &text) {
            self.disable(&format!("cannot write shard {}: {e}", path.display()));
            return;
        }
        self.saves.fetch_add(1, Ordering::Relaxed);
    }

    fn write_atomic(&self, path: &Path, text: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.root)?;
        // Same directory as the final name, so the rename cannot cross a
        // filesystem boundary; pid-suffixed so concurrent processes
        // warming the same store never clobber each other's temp files.
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, text)?;
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    fn quarantine(&self, path: &Path, why: &str) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        // Collision-safe: a shard can be damaged again after a recompute
        // healed it (flaky disk, repeated in-place corruption), and the
        // evidence from the earlier incident must survive. First incident
        // gets `.json.quarantined`, later ones numbered suffixes.
        let mut target = path.with_extension("json.quarantined");
        let mut n = 0u32;
        while target.exists() && n < 1000 {
            n += 1;
            target = path.with_extension(format!("json.quarantined.{n}"));
        }
        let moved = std::fs::rename(path, &target).is_ok();
        eprintln!(
            "warning: quarantined damaged shard {} ({why}); {}",
            path.display(),
            if moved {
                "recomputing"
            } else {
                "could not move it aside; recomputing anyway"
            }
        );
    }

    fn disable(&self, why: &str) {
        self.disabled.store(true, Ordering::Relaxed);
        self.warned.call_once(|| {
            eprintln!(
                "warning: result store at {} disabled for the rest of this run ({why}); \
                 results will not be persisted",
                self.root.display()
            );
        });
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("root", &self.root)
            .field("fingerprint", &self.fingerprint)
            .field("disabled", &self.is_disabled())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct TestKey(String);

    impl StoreKey for TestKey {
        const KIND: &'static str = "test";
        fn key_id(&self) -> String {
            self.0.clone()
        }
        fn key_json(&self) -> Json {
            Json::object([("name", Json::Str(self.0.clone()))])
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct TestValue(u64);

    impl Persist for TestValue {
        fn to_store_json(&self) -> Json {
            Json::object([("n", self.0.to_json())])
        }
        fn from_store_json(json: &Json) -> Result<Self, String> {
            json.get("n")
                .and_then(|v| v.as_u64())
                .map(TestValue)
                .ok_or_else(|| "missing n".to_string())
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("seer-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trip() {
        let root = temp_root("roundtrip");
        let store = Store::open(&root);
        let key = TestKey("alpha".into());
        assert_eq!(store.load::<_, TestValue>(&key), None, "cold store misses");
        store.save(&key, &TestValue(7));
        assert_eq!(store.load(&key), Some(TestValue(7)));
        assert_eq!(store.stats().saves, 1);
        assert_eq!(store.stats().loads, 1);
        assert_eq!(store.stats().quarantined, 0);

        // A second store over the same directory is warm.
        let warm = Store::open(&root);
        assert_eq!(warm.load(&key), Some(TestValue(7)));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn keys_do_not_collide() {
        let root = temp_root("keys");
        let store = Store::open(&root);
        store.save(&TestKey("a".into()), &TestValue(1));
        store.save(&TestKey("b".into()), &TestValue(2));
        assert_eq!(store.load(&TestKey("a".into())), Some(TestValue(1)));
        assert_eq!(store.load(&TestKey("b".into())), Some(TestValue(2)));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_shard_is_quarantined_and_misses() {
        let root = temp_root("corrupt");
        let store = Store::open(&root);
        let key = TestKey("victim".into());
        store.save(&key, &TestValue(9));
        let path = store.shard_path(&key);

        // Flip a byte inside the value payload: parses, but fails the
        // checksum.
        let mut bytes = std::fs::read_to_string(&path).unwrap();
        bytes = bytes.replace("\"n\": 9", "\"n\": 8");
        std::fs::write(&path, bytes).unwrap();

        assert_eq!(store.load::<_, TestValue>(&key), None);
        assert_eq!(store.stats().quarantined, 1);
        assert!(!path.exists(), "damaged shard moved aside");
        assert!(path.with_extension("json.quarantined").exists());

        // Recompute-and-save heals the slot.
        store.save(&key, &TestValue(9));
        assert_eq!(store.load(&key), Some(TestValue(9)));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn repeated_corruption_keeps_every_quarantined_copy() {
        let root = temp_root("requarantine");
        let store = Store::open(&root);
        let key = TestKey("victim".into());
        let path = store.shard_path(&key);

        // Corrupt → quarantine → heal, twice over. The second quarantine
        // must not clobber the first incident's evidence.
        for round in 0..2 {
            store.save(&key, &TestValue(9));
            let mut bytes = std::fs::read_to_string(&path).unwrap();
            bytes = bytes.replace("\"n\": 9", &format!("\"n\": {round}"));
            std::fs::write(&path, bytes).unwrap();
            assert_eq!(store.load::<_, TestValue>(&key), None, "round {round}");
        }
        assert_eq!(store.stats().quarantined, 2);
        let first = path.with_extension("json.quarantined");
        let second = path.with_extension("json.quarantined.1");
        assert!(first.exists(), "first incident preserved");
        assert!(second.exists(), "second incident gets a numbered suffix");
        // Distinct payloads prove neither overwrote the other.
        assert_ne!(
            std::fs::read_to_string(&first).unwrap(),
            std::fs::read_to_string(&second).unwrap()
        );
        // The slot itself is healthy again after a save.
        store.save(&key, &TestValue(9));
        assert_eq!(store.load(&key), Some(TestValue(9)));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_shard_is_quarantined() {
        let root = temp_root("truncated");
        let store = Store::open(&root);
        let key = TestKey("t".into());
        store.save(&key, &TestValue(3));
        let path = store.shard_path(&key);
        let bytes = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(store.load::<_, TestValue>(&key), None);
        assert_eq!(store.stats().quarantined, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fingerprint_mismatch_reads_as_cold() {
        let root = temp_root("fingerprint");
        let store = Store::open(&root);
        let key = TestKey("f".into());
        store.save(&key, &TestValue(4));
        let mut other = Store::open(&root);
        other.fingerprint = "v9.9.9+k999".to_string();
        // Different fingerprint → different shard name → plain miss, no
        // quarantine (the old shard is someone else's valid result).
        assert_eq!(other.load::<_, TestValue>(&key), None);
        assert_eq!(other.stats().quarantined, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unwritable_root_warns_once_and_disables() {
        // A root that cannot be a directory: a file sits in its place.
        let root = temp_root("unwritable");
        std::fs::create_dir_all(root.parent().unwrap()).unwrap();
        std::fs::write(&root, "not a directory").unwrap();
        let store = Store::open(&root);
        let key = TestKey("x".into());
        store.save(&key, &TestValue(1));
        assert!(store.is_disabled());
        assert_eq!(store.stats().saves, 0);
        // Still a store API-wise: loads just miss.
        assert_eq!(store.load::<_, TestValue>(&key), None);
        let _ = std::fs::remove_file(&root);
    }
}
