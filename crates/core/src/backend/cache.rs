//! The concurrent design cache shared between evaluators.

use super::EvalMetrics;
use crate::config::{AxConfig, SpaceDims};
use crate::json::{Json, JsonError};
use ax_operators::{AdderId, MulId};
use ax_vm::compile::CompiledSkeleton;
use ax_vm::VmError;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// The outcome of evaluating one execution class: its metrics, or the
/// error every design of the class fails with. Evaluation is
/// deterministic, so an error is cached like metrics.
pub(crate) type Outcome = Result<EvalMetrics, VmError>;

/// The cache-file layout [`SharedCache::save`] writes and
/// [`SharedCache::merge_from`] reads.
const FORMAT: u64 = 2;

/// Identifier of one cache scope, as [`SharedCache::scope`] resolves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheScope(u32);

impl CacheScope {
    /// What a `(benchmark, input_seed)` no context interned resolves to:
    /// every lookup in it misses.
    const NONE: Self = Self(u32::MAX);
}

/// What a scope's outcomes depend on: the benchmark, its input seed, and
/// the fingerprint of the program, the operator library and the base
/// memory image, which every evaluation context computes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct ScopeKey {
    benchmark: String,
    input_seed: u64,
    fingerprint: u64,
}

/// How the designs of one program's space fall into execution classes
/// ([`CompiledSkeleton::class_representative`]): a compact class id per
/// design ordinal, and each class's representative.
#[derive(Debug)]
pub(crate) struct ClassMap {
    dims: SpaceDims,
    /// `ids[ordinal]` is the class of the design with that ordinal
    /// ([`SpaceDims::ordinal`]).
    ids: Box<[u16]>,
    /// `reps[id]` is class `id`'s representative. Ids number the classes in
    /// the order of their first design's ordinal, so the precise design's
    /// class is 0.
    reps: Box<[AxConfig]>,
}

impl ClassMap {
    /// The class map of `skeleton`'s program over `dims`, from one
    /// [`CompiledSkeleton::classify`] per variable selection. `dims` must
    /// hold at most [`SpaceDims::MAX_DESIGNS`] designs, which keeps every
    /// id below `u16::MAX`.
    pub(crate) fn new(skeleton: &CompiledSkeleton, dims: SpaceDims) -> Self {
        let masks = 1usize << dims.n_vars;
        let selections: Vec<_> = (0..masks as u64).map(|b| skeleton.classify(b)).collect();
        let pairs = dims.n_add * dims.n_mul;
        // Each possible representative's id, indexed by its class mask and
        // then its operator pair; `u16::MAX` until the class first appears.
        let mut id_of = vec![u16::MAX; masks * pairs];
        let mut ids = Vec::with_capacity(masks * pairs);
        let mut reps = Vec::new();
        for adder in 0..dims.n_add {
            for mul in 0..dims.n_mul {
                for class in &selections {
                    let rep = AxConfig {
                        adder: AdderId(if class.adds { adder } else { 0 }),
                        mul: MulId(if class.muls { mul } else { 0 }),
                        vars: class.bits,
                    };
                    let id = &mut id_of
                        [class.bits as usize * pairs + rep.adder.0 * dims.n_mul + rep.mul.0];
                    if *id == u16::MAX {
                        *id = reps.len() as u16;
                        reps.push(rep);
                    }
                    ids.push(*id);
                }
            }
        }
        Self {
            dims,
            ids: ids.into(),
            reps: reps.into(),
        }
    }

    /// The class of `config`, or `None` outside the space.
    fn class_of(&self, config: &AxConfig) -> Option<usize> {
        config
            .is_valid(self.dims)
            .then(|| usize::from(self.ids[self.dims.ordinal(config)]))
    }
}

/// One scope laid out for lookups: an outcome slot per execution class,
/// each filled at most once.
#[derive(Debug)]
pub(crate) struct ScopeTable {
    key: ScopeKey,
    classes: Arc<ClassMap>,
    slots: Box<[OnceLock<Outcome>]>,
    /// Logical time of the last intern, lookup by name or fill, for
    /// oldest-first pruning.
    stamp: AtomicU64,
}

impl ScopeTable {
    fn new(key: ScopeKey, classes: Arc<ClassMap>) -> Self {
        Self {
            key,
            slots: classes.reps.iter().map(|_| OnceLock::new()).collect(),
            classes,
            stamp: AtomicU64::new(0),
        }
    }

    /// The class of the design with ordinal `ordinal`.
    #[inline]
    pub(crate) fn class(&self, ordinal: usize) -> usize {
        usize::from(self.classes.ids[ordinal])
    }

    /// The number of classes, one slot each.
    pub(crate) fn class_count(&self) -> usize {
        self.slots.len()
    }

    /// The class map this table is laid out by.
    pub(crate) fn class_map(&self) -> &Arc<ClassMap> {
        &self.classes
    }

    /// Every class holding metrics, as its representative and metrics.
    /// Classes holding an error are left out.
    fn entries(&self) -> impl Iterator<Item = (AxConfig, EvalMetrics)> + '_ {
        self.slots
            .iter()
            .zip(&*self.classes.reps)
            .filter_map(|(slot, rep)| match slot.get() {
                Some(Ok(metrics)) => Some((*rep, *metrics)),
                _ => None,
            })
    }

    /// Stores `metrics` as the outcome of `config`'s class, unless the
    /// class already holds one. A design outside the space is ignored.
    fn fill(&self, config: &AxConfig, metrics: EvalMetrics) {
        if let Some(class) = self.classes.class_of(config) {
            let _ = self.slots[class].set(Ok(metrics));
        }
    }
}

/// The entries of a scope read from a file, by design.
type Entries = BTreeMap<AxConfig, EvalMetrics>;

/// The scopes a cache knows.
#[derive(Debug, Default)]
struct Scopes {
    /// Every table ever interned, by id ([`CacheScope`]); `None` once
    /// pruned. Ids are never reused, so a scope interned again after a
    /// prune cannot collide with a survivor.
    tables: Vec<Option<Arc<ScopeTable>>>,
    /// The id of each live table, by key.
    live: HashMap<ScopeKey, u32>,
    /// The scope last interned under each `(benchmark, input_seed)`.
    latest: HashMap<(String, u64), u32>,
    /// Scopes read from a file that no context has claimed yet.
    waiting: BTreeMap<ScopeKey, Entries>,
}

impl Scopes {
    fn table(&self, scope: CacheScope) -> Option<&Arc<ScopeTable>> {
        self.tables.get(scope.0 as usize)?.as_ref()
    }

    fn live_tables(&self) -> impl Iterator<Item = &Arc<ScopeTable>> {
        self.tables.iter().flatten()
    }
}

/// A concurrent design cache shared between evaluators: one table of
/// outcome slots per scope, indexed by execution class.
///
/// A scope is `(benchmark, input_seed, fingerprint)`, the fingerprint
/// covering the program, the operator library's models and costs at the
/// program's widths, and the base memory image. So campaigns of different
/// benchmarks, input seeds or libraries never read each other's outcomes,
/// while concurrent runs of one benchmark share them. Each
/// [`super::EvalContext`] with a cache holds its scope's table and maps a
/// design's ordinal to its class: a hit is two array reads and an atomic
/// load, with no lock and no hash.
///
/// Lookups are single-flight: a class's first lookup is its only miss and
/// computes the outcome, while concurrent lookups of the class wait for
/// it and count as hits, so hit, miss and execution counts do not depend
/// on thread scheduling. An error outcome is cached like metrics.
///
/// Nothing is evicted while a campaign runs. Memory and files are bounded
/// by dropping whole least-recently-used scopes, on demand
/// ([`SharedCache::prune_oldest`]) or when saving ([`SharedCache::save`]).
#[derive(Debug, Default)]
pub struct SharedCache {
    scopes: RwLock<Scopes>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    skipped: AtomicU64,
}

impl SharedCache {
    /// Age after which a writer assumes a `.lock` file was left behind by
    /// a crashed process and steals it.
    pub const LOCK_STALE_SECS: u64 = 10;

    /// An empty cache, ready to share via `Arc`.
    pub fn new() -> Arc<Self> {
        Arc::default()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Scopes> {
        self.scopes.read().expect("scope table poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Scopes> {
        self.scopes.write().expect("scope table poisoned")
    }

    /// The table of the scope `(benchmark, input_seed, fingerprint)`: the
    /// live one, or a new one laid out by `classes()` and holding whatever
    /// a loaded file kept for that scope. Interning counts as a use for
    /// pruning recency, and makes this the scope [`SharedCache::scope`]
    /// resolves the pair to.
    pub(crate) fn intern(
        &self,
        benchmark: &str,
        input_seed: u64,
        fingerprint: u64,
        classes: impl FnOnce() -> Arc<ClassMap>,
    ) -> Arc<ScopeTable> {
        let key = ScopeKey {
            benchmark: benchmark.to_owned(),
            input_seed,
            fingerprint,
        };
        let mut scopes = self.write();
        let id = match scopes.live.get(&key) {
            Some(&id) => id,
            None => {
                let table = ScopeTable::new(key.clone(), classes());
                for (config, metrics) in scopes.waiting.remove(&key).unwrap_or_default() {
                    table.fill(&config, metrics);
                }
                let id = u32::try_from(scopes.tables.len())
                    .ok()
                    .filter(|&id| id != CacheScope::NONE.0)
                    .expect("fewer than 2^32 - 1 scopes interned");
                scopes.tables.push(Some(Arc::new(table)));
                scopes.live.insert(key, id);
                id
            }
        };
        scopes.latest.insert((benchmark.to_owned(), input_seed), id);
        let table = Arc::clone(scopes.tables[id as usize].as_ref().expect("live id"));
        drop(scopes);
        self.touch(&table);
        table
    }

    /// The outcome of `table`'s class `class`, and whether this call
    /// computed it: the slot's outcome, or `compute`'s on the class's
    /// first lookup, run with the class representative. Concurrent first
    /// lookups wait for that one computation and count as hits; if it
    /// panics, a waiter runs its own.
    #[inline]
    pub(crate) fn lookup<'t>(
        &self,
        table: &'t ScopeTable,
        class: usize,
        compute: impl FnOnce(&AxConfig) -> Outcome,
    ) -> (&'t Outcome, bool) {
        let slot = &table.slots[class];
        if let Some(outcome) = slot.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (outcome, false);
        }
        let mut computed = false;
        let outcome = slot.get_or_init(|| {
            computed = true;
            compute(&table.classes.reps[class])
        });
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.touch(table);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (outcome, computed)
    }

    /// Stamps `table` as just used, for [`SharedCache::prune_oldest`].
    fn touch(&self, table: &ScopeTable) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        table.stamp.store(stamp, Ordering::Relaxed);
    }

    /// The scope last interned under `(benchmark, input_seed)` by an
    /// evaluation context. A pair no context interned (or whose scope was
    /// pruned) resolves to a scope in which every lookup misses. Resolving
    /// counts as a use for pruning recency.
    pub fn scope(&self, benchmark: &str, input_seed: u64) -> CacheScope {
        let scopes = self.read();
        let Some(&id) = scopes.latest.get(&(benchmark.to_owned(), input_seed)) else {
            return CacheScope::NONE;
        };
        if let Some(table) = scopes.table(CacheScope(id)) {
            self.touch(table);
        }
        CacheScope(id)
    }

    /// Looks up a design in a scope, through the scope's class map.
    pub fn get(&self, scope: CacheScope, config: &AxConfig) -> Option<EvalMetrics> {
        let found = self.read().table(scope).and_then(|table| {
            let class = table.classes.class_of(config)?;
            table.slots[class].get()?.as_ref().ok().copied()
        });
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Every class of the scope [`SharedCache::scope`] resolves
    /// `(benchmark, input_seed)` to that holds metrics, as the class
    /// representative and its metrics. Empty for an unknown pair; the
    /// order is unspecified (callers needing determinism sort).
    pub fn snapshot(&self, benchmark: &str, input_seed: u64) -> Vec<(AxConfig, EvalMetrics)> {
        let scopes = self.read();
        scopes
            .latest
            .get(&(benchmark.to_owned(), input_seed))
            .and_then(|&id| scopes.table(CacheScope(id)))
            .map_or_else(Vec::new, |table| table.entries().collect())
    }

    /// Entries of every scope of `(benchmark, input_seed)`, whatever its
    /// fingerprint, laid out or still waiting for a context — the
    /// per-benchmark counterpart of [`SharedCache::len`]. Returns 0 for
    /// unknown pairs.
    pub fn scope_len(&self, benchmark: &str, input_seed: u64) -> usize {
        let ours = |key: &ScopeKey| key.benchmark == benchmark && key.input_seed == input_seed;
        let scopes = self.read();
        let live: usize = scopes
            .live_tables()
            .filter(|t| ours(&t.key))
            .map(|t| t.entries().count())
            .sum();
        let waiting: usize = scopes
            .waiting
            .iter()
            .filter(|(key, _)| ours(key))
            .map(|(_, entries)| entries.len())
            .sum();
        live + waiting
    }

    /// Total entries across all scopes: classes holding metrics, plus the
    /// entries of loaded scopes no context has claimed yet.
    pub fn len(&self) -> usize {
        let scopes = self.read();
        let live: usize = scopes.live_tables().map(|t| t.entries().count()).sum();
        live + scopes.waiting.values().map(BTreeMap::len).sum::<usize>()
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

    /// Scopes that files merged since construction carried without a
    /// fingerprint, and that were skipped: a file saved before scopes had
    /// fingerprints says nothing about the library or program behind its
    /// entries.
    pub fn skipped_scopes(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// Number of scopes, laid out or waiting for a context.
    pub fn scope_count(&self) -> usize {
        let scopes = self.read();
        scopes.live.len() + scopes.waiting.len()
    }

    /// Age/size-based scope pruning for long-lived caches: drops whole
    /// least-recently-used scopes — recency being the last intern, lookup
    /// by name or computed outcome, on a logical clock, never wall time —
    /// until at most `max_scopes` scopes remain **and** the total entry
    /// count is within `max_entries` (when given). Loaded scopes no
    /// context has claimed count as never used. Returns the number of
    /// entries dropped; dropped entries count as
    /// [`SharedCache::evictions`]. Pruning costs recomputation only, never
    /// correctness.
    ///
    /// A context still holding a pruned scope's table keeps using it, but
    /// the cache no longer counts or saves it; interning the same scope
    /// again yields a fresh empty table under a new id.
    pub fn prune_oldest(&self, max_scopes: usize, max_entries: Option<usize>) -> usize {
        let mut scopes = self.write();
        // (stamp, id, key, entries) per scope; waiting scopes were never
        // used and have no id.
        let mut newest_first: Vec<(u64, Option<u32>, ScopeKey, usize)> = scopes
            .live
            .iter()
            .map(|(key, &id)| {
                let table = scopes.tables[id as usize].as_ref().expect("live id");
                let stamp = table.stamp.load(Ordering::Relaxed);
                (stamp, Some(id), key.clone(), table.entries().count())
            })
            .chain(
                scopes
                    .waiting
                    .iter()
                    .map(|(key, entries)| (0, None, key.clone(), entries.len())),
            )
            .collect();
        // Newest first; ties resolve to the later id, then to the later
        // key. Keep the longest newest run that fits both bounds.
        newest_first.sort_by(|a, b| (b.0, b.1, &b.2).cmp(&(a.0, a.1, &a.2)));
        let mut entries = 0usize;
        let kept = newest_first
            .iter()
            .take_while(|scope| {
                entries += scope.3;
                max_entries.is_none_or(|m| entries <= m)
            })
            .count()
            .min(max_scopes);
        let mut removed = 0;
        let Scopes {
            tables,
            live,
            latest,
            waiting,
        } = &mut *scopes;
        for (_, id, key, size) in newest_first.drain(kept..) {
            removed += size;
            match id {
                Some(id) => {
                    tables[id as usize] = None;
                    live.remove(&key);
                }
                None => {
                    waiting.remove(&key);
                }
            }
        }
        latest.retain(|_, id| tables[*id as usize].is_some());
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
    /// The file (`"format": 2`) lists each scope's benchmark, input seed
    /// and fingerprint with its entries: every class holding metrics, as
    /// the class representative. Error outcomes are not saved.
    ///
    /// Concurrent writers, in this process or others, never drop each
    /// other's designs and never tear the file: a `.lock` sibling file
    /// serialises them, and the write goes to a temp file in the same
    /// directory followed by an atomic rename. A lock left behind by a
    /// crashed process is stolen after [`SharedCache::LOCK_STALE_SECS`].
    /// Output is deterministic: scopes sort by benchmark, input seed and
    /// fingerprint, entries by design.
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
        let mut file: Vec<(ScopeKey, Entries)> = {
            let scopes = self.read();
            scopes
                .live_tables()
                .map(|t| (t.key.clone(), t.entries().collect()))
                .chain(scopes.waiting.iter().map(|(k, e)| (k.clone(), e.clone())))
                .collect()
        };
        file.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let scope_nodes = file
            .into_iter()
            .map(|(key, entries)| {
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
                    ("benchmark", Json::str(key.benchmark)),
                    ("input_seed", Json::u64(key.input_seed)),
                    ("fingerprint", Json::u64(key.fingerprint)),
                    ("entries", Json::Arr(entry_nodes)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("format", Json::u64(FORMAT)),
            ("scopes", Json::Arr(scope_nodes)),
        ]);
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
    /// fresh cache. Its scopes wait, as entry lists, until a context with
    /// the same benchmark, input seed and fingerprint claims them.
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
    /// cache and returns the number of entries read. A scope without a
    /// fingerprint (a file saved before scopes had one) is skipped and
    /// counted ([`SharedCache::skipped_scopes`]). Merged scopes do not
    /// count as used for pruning recency; a malformed file merges nothing.
    ///
    /// The merge is a union by scope and design. A live scope keeps the
    /// outcomes it already holds (its slots are write-once; evaluation is
    /// deterministic, so two writers agree anyway), and the file's entries
    /// fill its empty slots. For a scope still waiting for a context, the
    /// file's entries win.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; malformed files and files of another
    /// format version surface as [`io::ErrorKind::InvalidData`].
    pub fn merge_from(&self, path: impl AsRef<Path>) -> io::Result<usize> {
        let text = std::fs::read_to_string(path)?;
        let file =
            parse_cache_file(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.skipped.fetch_add(file.skipped, Ordering::Relaxed);
        let mut scopes = self.write();
        let mut merged = 0;
        for (key, entries) in file.scopes {
            merged += entries.len();
            match scopes.live.get(&key) {
                Some(&id) => {
                    let table = scopes.tables[id as usize].as_ref().expect("live id");
                    for (config, metrics) in &entries {
                        table.fill(config, *metrics);
                    }
                }
                None => scopes.waiting.entry(key).or_default().extend(entries),
            }
        }
        Ok(merged)
    }
}

/// The scopes of a cache file that carry a fingerprint, and how many did
/// not.
#[derive(Debug, Default)]
struct CacheFile {
    scopes: Vec<(ScopeKey, Entries)>,
    skipped: u64,
}

fn parse_cache_file(text: &str) -> Result<CacheFile, JsonError> {
    fn field<'a>(node: &'a Json, key: &str) -> Result<&'a Json, JsonError> {
        node.get(key)
            .ok_or_else(|| JsonError(format!("cache file needs `{key}`")))
    }
    let doc = Json::parse(text)?;
    if let Some(format) = doc.get("format") {
        let format = format.as_u64()?;
        if format != FORMAT {
            return Err(JsonError(format!(
                "cache file format {format} is not the format {FORMAT} this build reads"
            )));
        }
    }
    let mut file = CacheFile::default();
    for scope in field(&doc, "scopes")?.as_arr()? {
        let benchmark = field(scope, "benchmark")?.as_str()?.to_owned();
        let input_seed = field(scope, "input_seed")?.as_u64()?;
        let entries = field(scope, "entries")?
            .as_arr()?
            .iter()
            .map(|entry| {
                let f = |key: &str| field(entry, key)?.as_f64();
                let config = AxConfig {
                    adder: AdderId(field(entry, "adder")?.as_usize()?),
                    mul: MulId(field(entry, "mul")?.as_usize()?),
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
        match scope.get("fingerprint") {
            Some(fingerprint) => file.scopes.push((
                ScopeKey {
                    benchmark,
                    input_seed,
                    fingerprint: fingerprint.as_u64()?,
                },
                entries,
            )),
            None => file.skipped += 1,
        }
    }
    Ok(file)
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
    use std::sync::Barrier;
    use std::time::Duration;

    impl ClassMap {
        /// A map in which every design of `dims` is its own class.
        fn identity(dims: SpaceDims) -> Arc<Self> {
            let reps: Box<[AxConfig]> = AxConfig::enumerate(dims).into();
            let ids = (0..reps.len()).map(|i| i as u16).collect();
            Arc::new(Self { dims, ids, reps })
        }
    }

    /// 7 adders × 5 multipliers × 2^7 selections: room for `config(0..128)`.
    const DIMS: SpaceDims = SpaceDims {
        n_add: 7,
        n_mul: 5,
        n_vars: 7,
    };

    const FP: u64 = 0xf1f1;

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

    /// The table of `(benchmark, seed)` under the fingerprint [`FP`].
    fn intern(cache: &SharedCache, benchmark: &str, seed: u64) -> Arc<ScopeTable> {
        cache.intern(benchmark, seed, FP, || ClassMap::identity(DIMS))
    }

    /// Caches `metrics(tag)` as `config(i)`'s outcome unless it has one.
    fn fill(cache: &SharedCache, table: &ScopeTable, i: u64, tag: f64) {
        let class = table.classes.class_of(&config(i)).unwrap();
        let _ = cache.lookup(table, class, |_| Ok(metrics(tag)));
    }

    /// `config(i)`'s metrics in `(benchmark, seed)`, claiming the scope
    /// under [`FP`] first.
    fn get(cache: &SharedCache, benchmark: &str, seed: u64, i: u64) -> Option<EvalMetrics> {
        intern(cache, benchmark, seed);
        cache.get(cache.scope(benchmark, seed), &config(i))
    }

    /// A per-process temp path with nothing at it: `save` merges whatever
    /// it finds, so a file a crashed earlier run left behind must not
    /// leak into the test.
    fn fresh_path(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("ax_dse_{name}_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn scope_len_counts_per_benchmark() {
        let cache = SharedCache::new();
        let a = intern(&cache, "bench-a", 1);
        let b = intern(&cache, "bench-b", 1);
        fill(&cache, &a, 1, 1.0);
        fill(&cache, &a, 2, 2.0);
        fill(&cache, &b, 3, 3.0);
        assert_eq!(cache.scope_len("bench-a", 1), 2);
        assert_eq!(cache.scope_len("bench-b", 1), 1);
        assert_eq!(cache.scope_len("bench-a", 2), 0);
        assert_eq!(cache.scope_len("unknown", 1), 0);
        assert_eq!(cache.len(), 3);
        // Another fingerprint of the same pair is another scope.
        let other = cache.intern("bench-a", 1, FP + 1, || ClassMap::identity(DIMS));
        assert!(!Arc::ptr_eq(&other, &a));
        fill(&cache, &other, 1, 9.0);
        assert_eq!(cache.scope_count(), 3);
        assert_eq!(cache.scope_len("bench-a", 1), 3);
        assert_eq!(
            cache.get(cache.scope("bench-a", 1), &config(1)),
            Some(metrics(9.0))
        );
    }

    #[test]
    fn save_load_round_trips_every_scope() {
        let cache = SharedCache::new();
        let a = intern(&cache, "bench-a", 1);
        let b = intern(&cache, "bench-b", 7);
        for i in 0..20u64 {
            fill(&cache, &a, i, i as f64 * 0.25);
        }
        fill(&cache, &b, 99, -3.5);
        let path = fresh_path("cache_roundtrip");
        cache.save(&path, usize::MAX, None).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"format\": 2"), "{text}");
        assert!(text.contains(&format!("\"fingerprint\": {FP}")), "{text}");
        // The loaded scopes wait for a context, but count already.
        let loaded = SharedCache::load(&path).unwrap();
        assert_eq!((loaded.len(), loaded.scope_count()), (cache.len(), 2));
        assert_eq!(loaded.skipped_scopes(), 0);
        for i in 0..20u64 {
            assert_eq!(
                get(&loaded, "bench-a", 1, i),
                Some(metrics(i as f64 * 0.25)),
                "entry {i}"
            );
        }
        assert_eq!(get(&loaded, "bench-b", 7, 99), Some(metrics(-3.5)));
        // Saving the loaded cache reproduces the identical file.
        let path2 = fresh_path("cache_roundtrip2");
        loaded.save(&path2, usize::MAX, None).unwrap();
        assert_eq!(text, std::fs::read_to_string(&path2).unwrap());
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(path2);
    }

    #[test]
    fn a_loaded_scope_waits_for_a_context_with_its_fingerprint() {
        let path = fresh_path("cache_waiting");
        let cache = SharedCache::new();
        fill(&cache, &intern(&cache, "bench", 3), 5, 5.0);
        cache.save(&path, usize::MAX, None).unwrap();
        let loaded = SharedCache::load(&path).unwrap();
        // Same benchmark and seed, another program or library: a scope of
        // its own, which starts empty.
        let other = loaded.intern("bench", 3, FP + 1, || ClassMap::identity(DIMS));
        assert_eq!(loaded.get(loaded.scope("bench", 3), &config(5)), None);
        let class = other.classes.class_of(&config(5)).unwrap();
        let (outcome, computed) = loaded.lookup(&other, class, |_| Ok(metrics(-1.0)));
        assert_eq!((outcome, computed), (&Ok(metrics(-1.0)), true));
        assert_eq!(loaded.scope_count(), 2, "one laid out, one waiting");
        // The fingerprint the file was saved under claims its entries.
        assert_eq!(get(&loaded, "bench", 3, 5), Some(metrics(5.0)));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn files_saved_without_fingerprints_load_with_every_scope_skipped() {
        let path = fresh_path("cache_format1");
        std::fs::write(
            &path,
            r#"{"scopes": [{"benchmark": "matmul-4", "input_seed": 42, "entries": []},
                {"benchmark": "bench", "input_seed": 0, "entries": [{"adder": 1, "mul": 1,
                "vars": 1, "delta_acc": 0, "delta_power": 1, "delta_time": 1,
                "signed_error": 0, "power": 1, "time_ns": 1}]}]}"#,
        )
        .unwrap();
        let loaded = SharedCache::load(&path).unwrap();
        assert_eq!(loaded.skipped_scopes(), 2);
        assert_eq!((loaded.len(), loaded.scope_count()), (0, 0));
        assert_eq!(get(&loaded, "bench", 0, 1), None);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn merge_from_unions_concurrent_writers() {
        // Two processes load the same (empty) state, cache disjoint work
        // and save to the same file; whoever merges before saving keeps
        // both sides' designs instead of silently dropping the other's.
        let path = fresh_path("cache_merge");
        let writer_a = SharedCache::new();
        let a_scope = intern(&writer_a, "bench-a", 1);
        for i in 0..10u64 {
            fill(&writer_a, &a_scope, i, i as f64);
        }
        writer_a.save(&path, usize::MAX, None).unwrap();

        // Writer B worked concurrently on another benchmark plus one
        // overlapping design; it merges the file before saving.
        let writer_b = SharedCache::new();
        let b_scope = intern(&writer_b, "bench-b", 2);
        for i in 0..5u64 {
            fill(&writer_b, &b_scope, i, 100.0 + i as f64);
        }
        fill(&writer_b, &intern(&writer_b, "bench-a", 1), 3, 3.0);
        let merged = writer_b.merge_from(&path).unwrap();
        assert_eq!(merged, 10);
        writer_b.save(&path, usize::MAX, None).unwrap();

        let union = SharedCache::load(&path).unwrap();
        assert_eq!(union.len(), 15, "10 from A + 5 from B, overlap deduped");
        assert_eq!(get(&union, "bench-a", 1, 7), Some(metrics(7.0)), "A's work");
        assert_eq!(
            get(&union, "bench-b", 2, 4),
            Some(metrics(104.0)),
            "B's work"
        );
        assert_eq!(get(&union, "bench-a", 1, 3), Some(metrics(3.0)), "overlap");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn merge_from_fills_only_empty_slots() {
        let path = fresh_path("cache_fill_empty");
        let disk = SharedCache::new();
        let on_disk = intern(&disk, "bench", 0);
        fill(&disk, &on_disk, 1, 42.0);
        fill(&disk, &on_disk, 2, 2.0);
        disk.save(&path, usize::MAX, None).unwrap();
        let mem = SharedCache::new();
        let in_mem = intern(&mem, "bench", 0);
        fill(&mem, &in_mem, 1, -1.0);
        assert_eq!(mem.merge_from(&path).unwrap(), 2);
        // Slots are written once: the outcome already held stays, and the
        // file fills the slot that was empty.
        let scope = mem.scope("bench", 0);
        assert_eq!(mem.get(scope, &config(1)), Some(metrics(-1.0)));
        assert_eq!(mem.get(scope, &config(2)), Some(metrics(2.0)));
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
            "{\"scopes\": [{\"benchmark\": \"a\", \"input_seed\": 0, \"fingerprint\": 1, \
             \"entries\": []}, 7]}",
        )
        .unwrap();
        let cache = SharedCache::new();
        let err = cache.merge_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(cache.scope_count(), 0);
        // So does a format this build does not read.
        std::fs::write(&path, "{\"format\": 3, \"scopes\": []}").unwrap();
        let err = cache.merge_from(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("format 3"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn prune_oldest_drops_least_recently_used_scopes() {
        let cache = SharedCache::new();
        let tables: Vec<_> = ["bench-a", "bench-b", "bench-c"]
            .iter()
            .zip([4u64, 3, 2])
            .map(|(name, n)| {
                let table = intern(&cache, name, 0);
                for i in 0..n {
                    fill(&cache, &table, i, 1.0);
                }
                (cache.scope(name, 0), table)
            })
            .collect();
        // Resolve the oldest-filled scope again: recency, not creation
        // order, decides survival.
        let a = cache.scope("bench-a", 0);
        let removed = cache.prune_oldest(2, None);
        assert_eq!(removed, 3, "bench-b (LRU) is dropped whole");
        assert_eq!(cache.scope_count(), 2);
        assert_eq!(cache.scope_len("bench-a", 0), 4);
        assert_eq!(cache.scope_len("bench-b", 0), 0);
        assert_eq!(cache.scope_len("bench-c", 0), 2);
        assert_eq!(cache.evictions(), 3, "prunes count as evictions");
        assert!(cache.get(tables[1].0, &config(0)).is_none());
        assert_eq!(cache.scope("bench-b", 0), CacheScope::NONE);
        // A pruned scope interns again as a fresh table under a new id,
        // which never collides with a survivor's.
        let b2 = intern(&cache, "bench-b", 0);
        assert!(!Arc::ptr_eq(&b2, &tables[1].1));
        let b2_id = cache.scope("bench-b", 0);
        for old in [a, tables[1].0, tables[2].0] {
            assert_ne!(b2_id, old);
        }
        assert!(cache.get(b2_id, &config(0)).is_none());
    }

    #[test]
    fn prune_oldest_also_respects_an_entry_bound() {
        let cache = SharedCache::new();
        for s in 0..5u64 {
            let table = intern(&cache, &format!("bench-{s}"), 0);
            for i in 0..10u64 {
                fill(&cache, &table, i, s as f64);
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
    fn a_pruned_table_keeps_serving_its_holder_outside_the_cache() {
        // A campaign keeps the table it interned, even after a prune
        // (another job finishing) retired it: its lookups still work, but
        // the cache no longer counts or saves what they add.
        let cache = SharedCache::new();
        let table = intern(&cache, "bench", 0);
        assert_eq!(cache.prune_oldest(0, None), 0);
        fill(&cache, &table, 1, 1.0);
        let class = table.classes.class_of(&config(1)).unwrap();
        let (outcome, computed) = cache.lookup(&table, class, |_| unreachable!());
        assert_eq!((outcome, computed), (&Ok(metrics(1.0)), false));
        assert_eq!((cache.len(), cache.scope_count()), (0, 0));
        assert_eq!(cache.prune_oldest(0, None), 0);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn save_prunes_the_merged_union_least_recently_used_first() {
        let path = fresh_path("cache_bounded_save");
        let cache = SharedCache::new();
        fill(&cache, &intern(&cache, "bench-a", 0), 1, 1.0);
        cache.save(&path, usize::MAX, None).unwrap();
        // Another process adds bench-c to the file meanwhile.
        let other = SharedCache::new();
        fill(&other, &intern(&other, "bench-c", 0), 3, 3.0);
        assert_eq!(other.save(&path, usize::MAX, None).unwrap(), 1);
        // This process then works on bench-b only. The merge brings
        // bench-c back without making it recent, and bench-a is older
        // than bench-b: only the scope used since the last save survives.
        fill(&cache, &intern(&cache, "bench-b", 0), 2, 2.0);
        assert_eq!(cache.save(&path, 1, None).unwrap(), 2);
        assert_eq!(cache.scope_count(), 1);
        assert_eq!(cache.scope_len("bench-b", 0), 1);
        assert_eq!(cache.evictions(), 2);
        let saved = SharedCache::load(&path).unwrap();
        assert_eq!(saved.scope_count(), 1);
        intern(&saved, "bench-b", 0);
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
        fill(&cache, &intern(&cache, "bench", 0), 1, 1.0);
        let saver = {
            let cache = Arc::clone(&cache);
            let path = path.clone();
            std::thread::spawn(move || cache.save(&path, usize::MAX, None))
        };
        std::thread::sleep(Duration::from_millis(50));
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
                        let table = intern(&cache, &format!("bench-{w}"), w);
                        for i in 0..20u64 {
                            fill(&cache, &table, i, w as f64);
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
        fill(&first, &intern(&first, "bench-a", 0), 1, 1.0);
        assert_eq!(first.save(&path, usize::MAX, None).unwrap(), 0, "no file");
        let second = SharedCache::new();
        fill(&second, &intern(&second, "bench-b", 0), 2, 2.0);
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
    fn lookup_computes_each_class_once_and_caches_errors() {
        let cache = SharedCache::new();
        let table = intern(&cache, "bench", 0);
        let class = table.classes.class_of(&config(1)).unwrap();
        let (m, computed) = cache.lookup(&table, class, |rep| {
            assert_eq!(*rep, config(1), "the computation gets the representative");
            Ok(metrics(1.0))
        });
        assert_eq!((m, computed), (&Ok(metrics(1.0)), true));
        let (again, computed) = cache.lookup(&table, class, |_| {
            panic!("a cached class must not recompute")
        });
        assert_eq!((again, computed), (&Ok(metrics(1.0)), false));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        // An error is an outcome too: deterministic, so cached rather than
        // retried, and left out of the entries.
        let failing = table.classes.class_of(&config(2)).unwrap();
        let (err, computed) = cache.lookup(&table, failing, |_| Err(VmError::NoOutputs));
        assert_eq!((err, computed), (&Err(VmError::NoOutputs), true));
        let (err, computed) = cache.lookup(&table, failing, |_| unreachable!());
        assert_eq!((err, computed), (&Err(VmError::NoOutputs), false));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (2, 2, 1));
        assert_eq!(cache.get(cache.scope("bench", 0), &config(2)), None);
    }

    /// Eight threads look up one class at once. The computation does not
    /// finish before all eight have entered their lookup, so no caller can
    /// find the slot filled before the race: one computes, and the others
    /// wait for its outcome (or, if descheduled past its end, read it).
    /// Either way the counts are 1 miss and 7 hits.
    fn race_one_class(outcome: Outcome) {
        use std::sync::atomic::AtomicUsize;
        let cache = SharedCache::new();
        let table = intern(&cache, "bench", 0);
        let (computed, entered) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let start = Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    entered.fetch_add(1, Ordering::SeqCst);
                    let (got, _) = cache.lookup(&table, 7, |_| {
                        computed.fetch_add(1, Ordering::Relaxed);
                        while entered.load(Ordering::SeqCst) < 8 {
                            std::thread::yield_now();
                        }
                        outcome.clone()
                    });
                    assert_eq!(got, &outcome);
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        assert_eq!((cache.misses(), cache.hits()), (1, 7));
    }

    #[test]
    fn concurrent_lookups_of_one_class_compute_it_once() {
        race_one_class(Ok(metrics(7.0)));
    }

    #[test]
    fn an_error_outcome_is_computed_once_and_reaches_every_caller() {
        race_one_class(Err(VmError::OperandOverflow {
            pc: 3,
            value: 1 << 40,
            width_bits: 8,
        }));
    }

    #[test]
    fn a_panicking_computation_strands_no_waiter() {
        let cache = SharedCache::new();
        let table = intern(&cache, "bench", 0);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (entering_tx, entering_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let (cache, table) = (&cache, &table);
            let leader = s.spawn(move || {
                cache.lookup(table, 4, |_| {
                    started_tx.send(()).unwrap();
                    entering_rx.recv().unwrap();
                    panic!("computation panicked")
                });
            });
            started_rx.recv().unwrap();
            // This lookup starts while the computation runs: it waits for
            // the panic (or, if descheduled past it, finds the slot empty),
            // then runs its own computation.
            entering_tx.send(()).unwrap();
            let (waiter, computed) = cache.lookup(table, 4, |_| Ok(metrics(4.0)));
            assert_eq!((waiter, computed), (&Ok(metrics(4.0)), true));
            assert!(leader.join().is_err());
        });
    }

    #[test]
    fn snapshot_follows_the_scope_last_interned() {
        let cache = SharedCache::new();
        let a = intern(&cache, "bench", 1);
        let b = intern(&cache, "bench", 2);
        fill(&cache, &a, 1, 1.0);
        fill(&cache, &a, 2, 2.0);
        fill(&cache, &b, 3, 3.0);
        let mut snap = cache.snapshot("bench", 1);
        snap.sort_by_key(|(c, _)| c.vars);
        assert_eq!(
            snap,
            vec![(config(1), metrics(1.0)), (config(2), metrics(2.0))]
        );
        assert!(cache.snapshot("bench", 9).is_empty());
        assert!(cache.snapshot("other", 1).is_empty());
        // A context with another fingerprint takes the name over.
        let other = cache.intern("bench", 1, FP + 1, || ClassMap::identity(DIMS));
        fill(&cache, &other, 5, 5.0);
        assert_eq!(cache.snapshot("bench", 1), vec![(config(5), metrics(5.0))]);
    }
}
