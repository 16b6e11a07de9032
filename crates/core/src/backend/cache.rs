//! The concurrent design cache shared between evaluators.

use super::EvalMetrics;
use crate::config::AxConfig;
use crate::json::{Json, JsonError};
use ax_agents::fxhash::FxHashMap;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};

/// Interned identifier of one `(benchmark, input_seed)` cache scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheScope(u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ScopedConfig {
    scope: CacheScope,
    config: AxConfig,
}

/// The memo map and the keys being computed right now. Both maps hash
/// with the fixed Fx hasher: keys are bounded design coordinates, never
/// client strings.
#[derive(Debug, Default)]
struct Table {
    map: FxHashMap<ScopedConfig, EvalMetrics>,
    in_flight: FxHashMap<ScopedConfig, Arc<Flight>>,
}

/// The interned scopes and a logical last-use stamp per scope id ever
/// issued (0 = never used), driving oldest-first pruning. A scope's id is
/// its stamp slot's index, so ids are never reused: a scope re-interned
/// after [`SharedCache::prune_oldest`] cannot collide with a survivor.
/// Slots are atomics so a stamp costs a read lock, not a write lock.
#[derive(Debug, Default)]
struct Scopes {
    ids: HashMap<(String, u64), CacheScope>,
    stamps: Vec<AtomicU64>,
}

impl Scopes {
    /// The id of `key`, interning it as never used if it is new.
    fn intern(&mut self, key: (String, u64)) -> CacheScope {
        let next = CacheScope(self.stamps.len() as u32);
        *self.ids.entry(key).or_insert_with(|| {
            self.stamps.push(AtomicU64::new(0));
            next
        })
    }
}

/// One key's computation in progress: waiters block until the leader
/// lands its outcome — the metrics, or `None` when the computation failed.
#[derive(Debug, Default)]
struct Flight {
    outcome: Mutex<Option<Option<EvalMetrics>>>,
    landed: Condvar,
}

impl Flight {
    fn wait(&self) -> Option<EvalMetrics> {
        let outcome = self.outcome.lock().expect("flight poisoned");
        let outcome = self
            .landed
            .wait_while(outcome, |o| o.is_none())
            .expect("flight poisoned");
        outcome.expect("landed flights carry an outcome")
    }

    /// Runs inside [`Leader`]'s `Drop`, so it must not panic: the slot is
    /// a plain overwrite, valid whatever a poisoning thread left behind.
    fn land(&self, outcome: Option<EvalMetrics>) {
        *self.outcome.lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        self.landed.notify_all();
    }
}

/// The leader of one in-flight key. Dropping it inserts the outcome (if
/// the computation succeeded), retires the flight and wakes its waiters —
/// on unwind too, so a panicking computation never strands them.
struct Leader<'a> {
    cache: &'a SharedCache,
    key: ScopedConfig,
    outcome: Option<EvalMetrics>,
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        if self.outcome.is_some() {
            self.cache.touch(self.key.scope);
        }
        let flight = {
            let mut table = self
                .cache
                .table
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(metrics) = self.outcome {
                table.map.insert(self.key, metrics);
            }
            table.in_flight.remove(&self.key)
        };
        if let Some(flight) = flight {
            flight.land(self.outcome);
        }
    }
}

/// A concurrent design cache shared between evaluators: one `RwLock` over
/// one map.
///
/// Entries are keyed by `(benchmark, input_seed)` scope plus configuration,
/// so explorations of different benchmarks (or different input seeds of the
/// same benchmark) never collide while concurrent runs of the *same*
/// benchmark share memoised designs. A lookup takes one read lock.
///
/// [`SharedCache::get_or_insert_with`] is single-flight: the first lookup
/// of a key is its only miss and computes the metrics, while concurrent
/// lookups of the same key wait for that result and count as hits — so
/// hit, miss and execution counts do not depend on thread scheduling.
///
/// Nothing is evicted while a campaign runs. Memory and files are bounded
/// by dropping whole least-recently-used scopes, on demand
/// ([`SharedCache::prune_oldest`]) or when saving ([`SharedCache::save`]).
#[derive(Debug, Default)]
pub struct SharedCache {
    table: RwLock<Table>,
    scopes: RwLock<Scopes>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SharedCache {
    /// Age after which a writer assumes a `.lock` file was left behind by
    /// a crashed process and steals it.
    pub const LOCK_STALE_SECS: u64 = 10;

    /// An empty cache, ready to share via `Arc`.
    pub fn new() -> Arc<Self> {
        Arc::default()
    }

    /// Interns a `(benchmark, input_seed)` pair, returning its scope id.
    /// The same pair always maps to the same scope until the scope is
    /// dropped by [`SharedCache::prune_oldest`] (re-interning after a
    /// prune yields a fresh, never-reused id). Interning counts as a use
    /// for pruning recency.
    pub fn scope(&self, benchmark: &str, input_seed: u64) -> CacheScope {
        let key = (benchmark.to_owned(), input_seed);
        let found = self.scope_table().ids.get(&key).copied();
        let scope = found.unwrap_or_else(|| {
            self.scopes
                .write()
                .expect("scope table poisoned")
                .intern(key)
        });
        self.touch(scope);
        scope
    }

    /// The live id of a scope, without counting a use.
    fn find_scope(&self, benchmark: &str, input_seed: u64) -> Option<CacheScope> {
        let key = (benchmark.to_owned(), input_seed);
        self.scope_table().ids.get(&key).copied()
    }

    fn scope_table(&self) -> std::sync::RwLockReadGuard<'_, Scopes> {
        self.scopes.read().expect("scope table poisoned")
    }

    fn table(&self) -> std::sync::RwLockReadGuard<'_, Table> {
        self.table.read().expect("cache table poisoned")
    }

    /// Stamps `scope` as just-used for [`SharedCache::prune_oldest`]'s
    /// oldest-first ordering. Runs inside [`Leader`]'s `Drop`, so it must
    /// not panic: a stamp store is valid whatever a poisoning thread left.
    fn touch(&self, scope: CacheScope) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let scopes = self.scopes.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = scopes.stamps.get(scope.0 as usize) {
            slot.store(stamp, Ordering::Relaxed);
        }
    }

    /// Looks up a configuration in a scope.
    pub fn get(&self, scope: CacheScope, config: &AxConfig) -> Option<EvalMetrics> {
        let key = ScopedConfig {
            scope,
            config: *config,
        };
        let found = self.table().map.get(&key).copied();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Looks up a configuration in a scope, computing and inserting it with
    /// `compute` on a miss. Single-flight: while one caller computes a key,
    /// concurrent callers of the same key wait for its result and count as
    /// hits; if `compute` fails, the error goes to its caller and one of
    /// the waiters retries with its own `compute`. A hit costs one read
    /// lock.
    ///
    /// # Errors
    ///
    /// Returns `compute`'s error when this caller ran it and it failed.
    pub fn get_or_insert_with<E>(
        &self,
        scope: CacheScope,
        config: AxConfig,
        compute: impl FnOnce() -> Result<EvalMetrics, E>,
    ) -> Result<EvalMetrics, E> {
        enum Lookup {
            Hit(EvalMetrics),
            Wait(Arc<Flight>),
            Lead,
        }
        let key = ScopedConfig { scope, config };
        loop {
            let cached = self.table().map.get(&key).copied();
            let lookup = match cached {
                Some(m) => Lookup::Hit(m),
                None => {
                    let mut table = self.table.write().expect("cache table poisoned");
                    match (table.map.get(&key), table.in_flight.get(&key)) {
                        (Some(&m), _) => Lookup::Hit(m),
                        (None, Some(flight)) => Lookup::Wait(Arc::clone(flight)),
                        (None, None) => {
                            table.in_flight.insert(key, Arc::default());
                            Lookup::Lead
                        }
                    }
                }
            };
            match lookup {
                Lookup::Hit(m) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(m);
                }
                // A failed flight wakes its waiters empty-handed: loop, and
                // the first to get back to the lock leads the retry.
                Lookup::Wait(flight) => {
                    if let Some(m) = flight.wait() {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(m);
                    }
                }
                Lookup::Lead => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let mut leader = Leader {
                        cache: self,
                        key,
                        outcome: None,
                    };
                    let result = compute();
                    leader.outcome = result.as_ref().ok().copied();
                    return result;
                }
            }
        }
    }

    /// Inserts a configuration's metrics into a scope. Racing inserts of
    /// the same key are benign: evaluation is deterministic, so both
    /// writers carry identical metrics.
    pub fn insert(&self, scope: CacheScope, config: AxConfig, metrics: EvalMetrics) {
        self.touch(scope);
        self.table
            .write()
            .expect("cache table poisoned")
            .map
            .insert(ScopedConfig { scope, config }, metrics);
    }

    /// All cached designs of one `(benchmark, input_seed)` scope. Returns an
    /// empty vector for unknown scopes; the iteration order is unspecified
    /// (callers needing determinism sort by configuration).
    pub fn snapshot(&self, benchmark: &str, input_seed: u64) -> Vec<(AxConfig, EvalMetrics)> {
        let Some(scope) = self.find_scope(benchmark, input_seed) else {
            return Vec::new();
        };
        self.table()
            .map
            .iter()
            .filter(|(k, _)| k.scope == scope)
            .map(|(k, m)| (k.config, *m))
            .collect()
    }

    /// Entries of one `(benchmark, input_seed)` scope — the per-benchmark
    /// counterpart of [`SharedCache::len`]. Returns 0 for unknown scopes.
    pub fn scope_len(&self, benchmark: &str, input_seed: u64) -> usize {
        let Some(scope) = self.find_scope(benchmark, input_seed) else {
            return 0;
        };
        self.table().map.keys().filter(|k| k.scope == scope).count()
    }

    /// Total entries across all scopes.
    pub fn len(&self) -> usize {
        self.table().map.len()
    }

    /// `true` if no design has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by [`SharedCache::prune_oldest`] (and so by a
    /// bounded [`SharedCache::save`]) since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of interned `(benchmark, input_seed)` scopes.
    pub fn scope_count(&self) -> usize {
        self.scope_table().ids.len()
    }

    /// Age/size-based scope pruning for long-lived caches: drops whole
    /// least-recently-used scopes — recency being the last intern or
    /// insert, a logical clock, never wall time — until at most
    /// `max_scopes` scopes remain **and** the total entry count is within
    /// `max_entries` (when given). Entries whose scope is no longer
    /// interned go too: a campaign still running when an earlier prune
    /// retired its scope keeps inserting under the retired id. Returns
    /// the number of entries dropped; dropped entries count as
    /// [`SharedCache::evictions`]. Pruning costs recomputation only,
    /// never correctness.
    ///
    /// A pruned scope's id is retired, not recycled: re-interning the same
    /// `(benchmark, input_seed)` later yields a fresh empty scope.
    pub fn prune_oldest(&self, max_scopes: usize, max_entries: Option<usize>) -> usize {
        // Lock order everywhere: scopes before table.
        let mut scopes = self.scopes.write().expect("scope table poisoned");
        let mut table = self.table.write().expect("cache table poisoned");
        let mut sizes = vec![0usize; scopes.stamps.len()];
        for key in table.map.keys() {
            if let Some(size) = sizes.get_mut(key.scope.0 as usize) {
                *size += 1;
            }
        }
        let stamp = |s: &CacheScope| scopes.stamps[s.0 as usize].load(Ordering::Relaxed);
        // Newest first; ties resolve to the higher (later) scope id. Keep
        // the longest newest run that fits both bounds.
        let mut newest_first: Vec<CacheScope> = scopes.ids.values().copied().collect();
        newest_first.sort_by_key(|s| std::cmp::Reverse((stamp(s), s.0)));
        let mut live = vec![false; scopes.stamps.len()];
        let mut entries = 0usize;
        for (kept, scope) in newest_first.into_iter().enumerate() {
            entries += sizes[scope.0 as usize];
            if kept >= max_scopes || max_entries.is_some_and(|m| entries > m) {
                break;
            }
            live[scope.0 as usize] = true;
        }
        let is_live = |s: CacheScope| live.get(s.0 as usize).copied().unwrap_or(false);
        scopes.ids.retain(|_, s| is_live(*s));
        let before = table.map.len();
        table.map.retain(|k, _| is_live(k.scope));
        let removed = before - table.map.len();
        self.evictions.fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Persists the cache to `path` so a later process can
    /// [`SharedCache::load`] it and skip re-evaluating designs this one
    /// already paid for. Under the file's lock, it merges what is on disk
    /// into this cache ([`SharedCache::merge_from`]), prunes the union to
    /// `max_scopes` and `max_entries` ([`SharedCache::prune_oldest`];
    /// merged-in scopes do not count as used, so the scopes this process
    /// used since it loaded survive) and writes the result. Returns the
    /// number of entries read from disk (0 when the file did not exist).
    ///
    /// Concurrent writers, in this process or others, never drop each
    /// other's designs and never tear the file: a `.lock` sibling file
    /// serialises them, and the write goes to a temp file in the same
    /// directory followed by an atomic rename. A lock left behind by a
    /// crashed process is stolen after [`SharedCache::LOCK_STALE_SECS`].
    /// Output is deterministic: scopes sort by `(benchmark, input_seed)`,
    /// entries by configuration.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors, including malformed on-disk caches
    /// ([`io::ErrorKind::InvalidData`]); waiting longer than ~30s for the
    /// lock fails with [`io::ErrorKind::TimedOut`].
    pub fn save(
        &self,
        path: impl AsRef<Path>,
        max_scopes: usize,
        max_entries: Option<usize>,
    ) -> io::Result<usize> {
        let path = path.as_ref();
        let _lock = SaveLock::acquire(path)?;
        let merged = match self.merge_from(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
            merged => merged?,
        };
        self.prune_oldest(max_scopes, max_entries);
        let mut keys: Vec<(String, u64)> = self.scope_table().ids.keys().cloned().collect();
        keys.sort_unstable();
        let scope_nodes = keys
            .into_iter()
            .map(|(benchmark, input_seed)| {
                let mut entries = self.snapshot(&benchmark, input_seed);
                entries.sort_by_key(|(c, _)| (c.adder.0, c.mul.0, c.vars));
                let entry_nodes = entries
                    .into_iter()
                    .map(|(c, m)| {
                        Json::obj(vec![
                            ("adder", Json::u64(c.adder.0 as u64)),
                            ("mul", Json::u64(c.mul.0 as u64)),
                            ("vars", Json::u64(c.vars)),
                            ("delta_acc", Json::f64(m.delta_acc)),
                            ("delta_power", Json::f64(m.delta_power)),
                            ("delta_time", Json::f64(m.delta_time)),
                            ("signed_error", Json::f64(m.signed_error)),
                            ("power", Json::f64(m.power)),
                            ("time_ns", Json::f64(m.time_ns)),
                        ])
                    })
                    .collect();
                Json::obj(vec![
                    ("benchmark", Json::str(benchmark)),
                    ("input_seed", Json::u64(input_seed)),
                    ("entries", Json::Arr(entry_nodes)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![("scopes", Json::Arr(scope_nodes))]);
        let tmp = sibling(path, &format!("tmp.{}", std::process::id()));
        if let Err(e) =
            std::fs::write(&tmp, doc.pretty()).and_then(|()| std::fs::rename(&tmp, path))
        {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(merged)
    }

    /// Loads a cache previously written by [`SharedCache::save`] into a
    /// fresh cache.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; malformed files surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<Arc<Self>> {
        let cache = Self::new();
        cache.merge_from(path)?;
        Ok(cache)
    }

    /// Merges a cache file written by [`SharedCache::save`] into this
    /// cache and returns the number of entries read. Merged scopes do not
    /// count as used for pruning recency; a malformed file merges nothing.
    ///
    /// The merge is a union keyed by `(benchmark, input_seed)` scope and
    /// configuration, file entries winning conflicts (last-writer-wins per
    /// design — harmless, because evaluation is deterministic and any two
    /// writers carry identical metrics for the same key).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; malformed files surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn merge_from(&self, path: impl AsRef<Path>) -> io::Result<usize> {
        let text = std::fs::read_to_string(path)?;
        let parsed =
            parse_cache_file(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut scopes = self.scopes.write().expect("scope table poisoned");
        let mut table = self.table.write().expect("cache table poisoned");
        let mut merged = 0;
        for (key, entries) in parsed {
            let scope = scopes.intern(key);
            merged += entries.len();
            table.map.extend(
                entries
                    .into_iter()
                    .map(|(config, metrics)| (ScopedConfig { scope, config }, metrics)),
            );
        }
        Ok(merged)
    }
}

/// Every scope of a cache file, with its entries.
type CacheFile = Vec<((String, u64), Vec<(AxConfig, EvalMetrics)>)>;

fn parse_cache_file(text: &str) -> Result<CacheFile, JsonError> {
    fn field<'a>(node: &'a Json, key: &str) -> Result<&'a Json, JsonError> {
        node.get(key)
            .ok_or_else(|| JsonError(format!("cache file needs `{key}`")))
    }
    let doc = Json::parse(text)?;
    field(&doc, "scopes")?
        .as_arr()?
        .iter()
        .map(|scope| {
            let key = (
                field(scope, "benchmark")?.as_str()?.to_owned(),
                field(scope, "input_seed")?.as_u64()?,
            );
            let entries = field(scope, "entries")?
                .as_arr()?
                .iter()
                .map(|entry| {
                    let f = |key: &str| field(entry, key)?.as_f64();
                    let config = AxConfig {
                        adder: ax_operators::AdderId(field(entry, "adder")?.as_usize()?),
                        mul: ax_operators::MulId(field(entry, "mul")?.as_usize()?),
                        vars: field(entry, "vars")?.as_u64()?,
                    };
                    let metrics = EvalMetrics {
                        delta_acc: f("delta_acc")?,
                        delta_power: f("delta_power")?,
                        delta_time: f("delta_time")?,
                        signed_error: f("signed_error")?,
                        power: f("power")?,
                        time_ns: f("time_ns")?,
                    };
                    Ok((config, metrics))
                })
                .collect::<Result<_, JsonError>>()?;
            Ok((key, entries))
        })
        .collect()
}

/// `<file>.<suffix>` next to `target`.
fn sibling(target: &Path, suffix: &str) -> std::path::PathBuf {
    let name = target
        .file_name()
        .map_or_else(|| "cache".into(), |n| n.to_string_lossy());
    target.with_file_name(format!("{name}.{suffix}"))
}

/// An exclusive advisory lock on a cache file, held for the duration of a
/// save: a `<file>.lock` sibling created with `create_new` (atomic on
/// every platform), removed on drop. Contending writers poll; stale locks
/// (older than [`SharedCache::LOCK_STALE_SECS`]) are stolen.
#[derive(Debug)]
struct SaveLock {
    path: std::path::PathBuf,
}

impl SaveLock {
    const POLL: std::time::Duration = std::time::Duration::from_millis(5);
    const TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

    fn acquire(target: &Path) -> io::Result<Self> {
        use std::io::Write;
        let path = sibling(target, "lock");
        let start = std::time::Instant::now();
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    // Owner pid, for a human untangling a stuck daemon.
                    let _ = write!(file, "{}", std::process::id());
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = std::fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|m| m.elapsed().ok())
                        .is_some_and(|age| {
                            age > std::time::Duration::from_secs(SharedCache::LOCK_STALE_SECS)
                        });
                    if stale {
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    if start.elapsed() > Self::TIMEOUT {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("timed out waiting for cache lock {}", path.display()),
                        ));
                    }
                    std::thread::sleep(Self::POLL);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for SaveLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ax_operators::{AdderId, MulId};

    fn metrics(tag: f64) -> EvalMetrics {
        EvalMetrics {
            delta_acc: tag,
            delta_power: tag,
            delta_time: tag,
            signed_error: tag,
            power: tag,
            time_ns: tag,
        }
    }

    fn config(i: u64) -> AxConfig {
        AxConfig {
            adder: AdderId((i % 7) as usize),
            mul: MulId((i % 5) as usize),
            vars: i,
        }
    }

    /// A per-process temp path with nothing at it: `save` merges whatever
    /// it finds, so a file a crashed earlier run left behind must not
    /// leak into the test.
    fn fresh_path(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("ax_dse_{name}_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Blocks until `n` callers hold `config`'s in-flight computation —
    /// each waiter clones the flight before it sleeps on it.
    fn await_waiters(cache: &SharedCache, scope: CacheScope, config: AxConfig, n: usize) {
        let key = ScopedConfig { scope, config };
        let waiters = || {
            cache
                .table()
                .in_flight
                .get(&key)
                .map_or(0, |f| Arc::strong_count(f) - 1)
        };
        while waiters() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn scope_len_counts_per_benchmark() {
        let cache = SharedCache::new();
        let a = cache.scope("bench-a", 1);
        let b = cache.scope("bench-b", 1);
        cache.insert(a, config(1), metrics(1.0));
        cache.insert(a, config(2), metrics(2.0));
        cache.insert(b, config(3), metrics(3.0));
        assert_eq!(cache.scope_len("bench-a", 1), 2);
        assert_eq!(cache.scope_len("bench-b", 1), 1);
        assert_eq!(cache.scope_len("bench-a", 2), 0);
        assert_eq!(cache.scope_len("unknown", 1), 0);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn save_load_round_trips_every_scope() {
        let cache = SharedCache::new();
        let a = cache.scope("bench-a", 1);
        let b = cache.scope("bench-b", 7);
        for i in 0..20u64 {
            cache.insert(a, config(i), metrics(i as f64 * 0.25));
        }
        cache.insert(b, config(99), metrics(-3.5));
        let path = fresh_path("cache_roundtrip");
        cache.save(&path, usize::MAX, None).unwrap();
        let loaded = SharedCache::load(&path).unwrap();
        assert_eq!(loaded.len(), cache.len());
        let scope = loaded.scope("bench-a", 1);
        for i in 0..20u64 {
            assert_eq!(
                loaded.get(scope, &config(i)),
                Some(metrics(i as f64 * 0.25)),
                "entry {i}"
            );
        }
        let scope_b = loaded.scope("bench-b", 7);
        assert_eq!(loaded.get(scope_b, &config(99)), Some(metrics(-3.5)));
        // Saving the loaded cache reproduces the identical file.
        let path2 = fresh_path("cache_roundtrip2");
        loaded.save(&path2, usize::MAX, None).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            std::fs::read_to_string(&path2).unwrap()
        );
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(path2);
    }

    #[test]
    fn merge_from_unions_concurrent_writers() {
        // Two processes load the same (empty) state, cache disjoint work
        // and save to the same file; whoever merges before saving keeps
        // both sides' designs instead of silently dropping the other's.
        let path = fresh_path("cache_merge");
        let writer_a = SharedCache::new();
        let a_scope = writer_a.scope("bench-a", 1);
        for i in 0..10u64 {
            writer_a.insert(a_scope, config(i), metrics(i as f64));
        }
        writer_a.save(&path, usize::MAX, None).unwrap();

        // Writer B worked concurrently on another benchmark plus one
        // overlapping design; it merges the file before saving.
        let writer_b = SharedCache::new();
        let b_scope = writer_b.scope("bench-b", 2);
        for i in 0..5u64 {
            writer_b.insert(b_scope, config(i), metrics(100.0 + i as f64));
        }
        let overlap = writer_b.scope("bench-a", 1);
        writer_b.insert(overlap, config(3), metrics(3.0));
        let merged = writer_b.merge_from(&path).unwrap();
        assert_eq!(merged, 10);
        writer_b.save(&path, usize::MAX, None).unwrap();

        let union = SharedCache::load(&path).unwrap();
        assert_eq!(union.len(), 15, "10 from A + 5 from B, overlap deduped");
        let sa = union.scope("bench-a", 1);
        let sb = union.scope("bench-b", 2);
        assert_eq!(union.get(sa, &config(7)), Some(metrics(7.0)), "A's work");
        assert_eq!(union.get(sb, &config(4)), Some(metrics(104.0)), "B's work");
        assert_eq!(union.get(sa, &config(3)), Some(metrics(3.0)), "overlap");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn merge_from_is_last_writer_wins_per_design() {
        let path = fresh_path("cache_lww");
        let disk = SharedCache::new();
        let scope = disk.scope("bench", 0);
        disk.insert(scope, config(1), metrics(42.0));
        disk.save(&path, usize::MAX, None).unwrap();
        let mem = SharedCache::new();
        let m_scope = mem.scope("bench", 0);
        mem.insert(m_scope, config(1), metrics(-1.0));
        mem.merge_from(&path).unwrap();
        // The file was written after this process loaded: its entry wins.
        assert_eq!(mem.get(m_scope, &config(1)), Some(metrics(42.0)));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_rejects_malformed_files() {
        let path = fresh_path("cache_bad");
        std::fs::write(&path, "{\"scopes\": [{\"benchmark\": 3}]}").unwrap();
        let err = SharedCache::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A file that goes bad after its first scope merges nothing.
        std::fs::write(
            &path,
            "{\"scopes\": [{\"benchmark\": \"a\", \"input_seed\": 0, \"entries\": []}, 7]}",
        )
        .unwrap();
        let cache = SharedCache::new();
        let err = cache.merge_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(cache.scope_count(), 0);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn prune_oldest_drops_least_recently_used_scopes() {
        let cache = SharedCache::new();
        let a = cache.scope("bench-a", 0);
        let b = cache.scope("bench-b", 0);
        let c = cache.scope("bench-c", 0);
        for i in 0..4u64 {
            cache.insert(a, config(i), metrics(1.0));
        }
        for i in 0..3u64 {
            cache.insert(b, config(i), metrics(2.0));
        }
        for i in 0..2u64 {
            cache.insert(c, config(i), metrics(3.0));
        }
        // Touch the oldest-inserted scope again: recency, not creation
        // order, decides survival.
        let _ = cache.scope("bench-a", 0);
        let removed = cache.prune_oldest(2, None);
        assert_eq!(removed, 3, "bench-b (LRU) is dropped whole");
        assert_eq!(cache.scope_count(), 2);
        assert_eq!(cache.scope_len("bench-a", 0), 4);
        assert_eq!(cache.scope_len("bench-b", 0), 0);
        assert_eq!(cache.scope_len("bench-c", 0), 2);
        assert_eq!(cache.evictions(), 3, "prunes count as evictions");
        // A pruned scope re-interns as a fresh id with no entries, and
        // never collides with a survivor's id.
        let b2 = cache.scope("bench-b", 0);
        assert_ne!(b2, a);
        assert_ne!(b2, c);
        assert_ne!(b2, b);
        assert!(cache.get(b2, &config(0)).is_none());
    }

    #[test]
    fn prune_oldest_also_respects_an_entry_bound() {
        let cache = SharedCache::new();
        for s in 0..5u64 {
            let scope = cache.scope(&format!("bench-{s}"), 0);
            for i in 0..10u64 {
                cache.insert(scope, config(i), metrics(s as f64));
            }
        }
        assert_eq!(cache.len(), 50);
        // The scope bound alone is satisfied; the entry bound forces two
        // more oldest scopes out.
        let removed = cache.prune_oldest(5, Some(30));
        assert_eq!(removed, 20);
        assert_eq!(cache.len(), 30);
        assert_eq!(cache.scope_count(), 3);
        assert_eq!(cache.scope_len("bench-0", 0), 0, "oldest dropped first");
        assert_eq!(cache.scope_len("bench-4", 0), 10, "newest kept");
        // Already within bounds: a second prune is a no-op.
        assert_eq!(cache.prune_oldest(5, Some(30)), 0);
    }

    #[test]
    fn prune_sweeps_entries_left_under_a_retired_scope() {
        // A campaign keeps inserting under the scope id it interned, even
        // after a prune (another job finishing) retired that id.
        let cache = SharedCache::new();
        let scope = cache.scope("bench", 0);
        assert_eq!(cache.prune_oldest(0, None), 0);
        cache.insert(scope, config(1), metrics(1.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.prune_oldest(0, None), 1, "the orphan is swept");
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn save_prunes_the_merged_union_least_recently_used_first() {
        let path = fresh_path("cache_bounded_save");
        let cache = SharedCache::new();
        let a = cache.scope("bench-a", 0);
        cache.insert(a, config(1), metrics(1.0));
        cache.save(&path, usize::MAX, None).unwrap();
        // Another process adds bench-c to the file meanwhile.
        let other = SharedCache::new();
        let c = other.scope("bench-c", 0);
        other.insert(c, config(3), metrics(3.0));
        assert_eq!(other.save(&path, usize::MAX, None).unwrap(), 1);
        // This process then works on bench-b only. The merge brings
        // bench-c back without making it recent, and bench-a is older
        // than bench-b: only the scope used since the last save survives.
        let b = cache.scope("bench-b", 0);
        cache.insert(b, config(2), metrics(2.0));
        assert_eq!(cache.save(&path, 1, None).unwrap(), 2);
        assert_eq!(cache.scope_count(), 1);
        assert_eq!(cache.scope_len("bench-b", 0), 1);
        assert_eq!(cache.evictions(), 2);
        let saved = SharedCache::load(&path).unwrap();
        assert_eq!(saved.scope_count(), 1);
        assert_eq!(
            saved.snapshot("bench-b", 0),
            vec![(config(2), metrics(2.0))]
        );
        // The entry bound drops whole scopes too.
        cache.save(&path, usize::MAX, Some(0)).unwrap();
        assert!(SharedCache::load(&path).unwrap().is_empty());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn save_waits_for_a_held_lock() {
        let dir = std::env::temp_dir().join(format!("ax_dse_cache_lock_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let lock_path = dir.join("cache.json.lock");
        std::fs::write(&lock_path, "held").unwrap();
        let cache = SharedCache::new();
        let scope = cache.scope("bench", 0);
        cache.insert(scope, config(1), metrics(1.0));
        let saver = {
            let cache = Arc::clone(&cache);
            let path = path.clone();
            std::thread::spawn(move || cache.save(&path, usize::MAX, None))
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!saver.is_finished(), "save must block on a fresh lock");
        std::fs::remove_file(&lock_path).unwrap();
        saver.join().unwrap().unwrap();
        assert_eq!(SharedCache::load(&path).unwrap().len(), 1);
        assert!(!lock_path.exists(), "the lock is released after saving");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_saves_never_corrupt_the_file() {
        use std::sync::atomic::AtomicBool;
        let dir =
            std::env::temp_dir().join(format!("ax_dse_cache_concurrent_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let saving = AtomicBool::new(true);
        std::thread::scope(|s| {
            // A reader loads the file in a loop while the writers save:
            // the atomic rename means it never sees a torn file.
            let reader = s.spawn(|| {
                while saving.load(Ordering::SeqCst) {
                    match SharedCache::load(&path) {
                        Err(e) if e.kind() != io::ErrorKind::NotFound => {
                            panic!("a concurrent load saw a torn file: {e}")
                        }
                        _ => {}
                    }
                }
            });
            let writers: Vec<_> = (0..8u64)
                .map(|w| {
                    let path = &path;
                    s.spawn(move || {
                        let cache = SharedCache::new();
                        let scope = cache.scope(&format!("bench-{w}"), w);
                        for i in 0..20u64 {
                            cache.insert(scope, config(i), metrics(w as f64));
                        }
                        cache.save(path, usize::MAX, None).unwrap();
                    })
                })
                .collect();
            for writer in writers {
                writer.join().unwrap();
            }
            saving.store(false, Ordering::SeqCst);
            reader.join().unwrap();
        });
        // Every writer merged under the lock before saving, so the final
        // file holds the full union and parses cleanly.
        let merged = SharedCache::load(&path).unwrap();
        assert_eq!(merged.len(), 8 * 20);
        for w in 0..8u64 {
            assert_eq!(merged.scope_len(&format!("bench-{w}"), w), 20);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_unions_with_the_on_disk_state() {
        let path = fresh_path("cache_save_union");
        let first = SharedCache::new();
        let fs_scope = first.scope("bench-a", 0);
        first.insert(fs_scope, config(1), metrics(1.0));
        assert_eq!(first.save(&path, usize::MAX, None).unwrap(), 0, "no file");
        let second = SharedCache::new();
        let sc = second.scope("bench-b", 0);
        second.insert(sc, config(2), metrics(2.0));
        assert_eq!(
            second.save(&path, usize::MAX, None).unwrap(),
            1,
            "merged A's entry"
        );
        let union = SharedCache::load(&path).unwrap();
        assert_eq!(union.len(), 2);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn get_or_insert_with_computes_each_key_once() {
        let cache = SharedCache::new();
        let scope = cache.scope("bench", 0);
        let m = cache.get_or_insert_with(scope, config(1), || Ok::<_, ()>(metrics(1.0)));
        assert_eq!(m, Ok(metrics(1.0)));
        let again = cache.get_or_insert_with(scope, config(1), || -> Result<_, ()> {
            panic!("a cached key must not recompute")
        });
        assert_eq!(again, Ok(metrics(1.0)));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        // A failed computation caches nothing: the next lookup retries.
        assert_eq!(
            cache.get_or_insert_with(scope, config(2), || Err("boom")),
            Err("boom")
        );
        assert!(cache.get(scope, &config(2)).is_none());
        assert_eq!(
            cache.get_or_insert_with(scope, config(2), || Ok::<_, ()>(metrics(2.0))),
            Ok(metrics(2.0))
        );
    }

    #[test]
    fn concurrent_lookups_of_one_key_compute_it_once() {
        use std::sync::atomic::AtomicUsize;
        let cache = SharedCache::new();
        let scope = cache.scope("bench", 0);
        let computed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    // The leader holds its flight open until the other
                    // seven callers all wait on it.
                    let m = cache.get_or_insert_with(scope, config(7), || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        await_waiters(&cache, scope, config(7), 7);
                        Ok::<_, ()>(metrics(7.0))
                    });
                    assert_eq!(m, Ok(metrics(7.0)));
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        assert_eq!((cache.misses(), cache.hits()), (1, 7));
    }

    #[test]
    fn a_waiter_retries_when_the_leader_fails() {
        let cache = SharedCache::new();
        let scope = cache.scope("bench", 0);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                cache.get_or_insert_with(scope, config(3), || {
                    started_tx.send(()).unwrap();
                    await_waiters(&cache, scope, config(3), 1);
                    Err("leader failed")
                })
            });
            started_rx.recv().unwrap();
            let waiter = cache.get_or_insert_with(scope, config(3), || Ok::<_, &str>(metrics(3.0)));
            assert_eq!(waiter, Ok(metrics(3.0)));
            assert_eq!(leader.join().unwrap(), Err("leader failed"));
        });
        assert_eq!(cache.misses(), 2, "the failed lead and the retry");
        assert_eq!(cache.get(scope, &config(3)), Some(metrics(3.0)));
    }

    #[test]
    fn a_panicking_leader_does_not_strand_its_waiters() {
        let cache = SharedCache::new();
        let scope = cache.scope("bench", 0);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                cache.get_or_insert_with(scope, config(4), || -> Result<EvalMetrics, ()> {
                    started_tx.send(()).unwrap();
                    await_waiters(&cache, scope, config(4), 1);
                    panic!("computation panicked")
                })
            });
            started_rx.recv().unwrap();
            let waiter = cache.get_or_insert_with(scope, config(4), || Ok::<_, ()>(metrics(4.0)));
            assert_eq!(waiter, Ok(metrics(4.0)));
            assert!(leader.join().is_err());
        });
    }

    #[test]
    fn snapshot_returns_scope_entries_only() {
        let cache = SharedCache::new();
        let a = cache.scope("bench", 1);
        let b = cache.scope("bench", 2);
        cache.insert(a, config(1), metrics(1.0));
        cache.insert(a, config(2), metrics(2.0));
        cache.insert(b, config(3), metrics(3.0));
        let mut snap = cache.snapshot("bench", 1);
        snap.sort_by_key(|(c, _)| c.vars);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, config(1));
        assert_eq!(snap[1].0, config(2));
        assert!(cache.snapshot("bench", 9).is_empty());
        assert!(cache.snapshot("other", 1).is_empty());
    }
}
