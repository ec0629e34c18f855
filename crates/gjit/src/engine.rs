//! [`JitEngine`]: compilation management, the one code cache, and
//! [`CompiledQuery`] — a compiled first segment and its one runner.
//!
//! The paper persists compiled query code under a query identifier so "no
//! further compilation is required for subsequent runs" (§6.2). Generated
//! code here is relocation-free ([`Code`]), so the engine does the same
//! with plain bytes: every lookup — pipeline or residual expression —
//! goes memory LRU → `{base}.jitcache` sidecar → failure memo → compile →
//! insert into both, and a restarted process attached to the same base
//! runs previously compiled plans without invoking Cranelift.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use gquery::plan::Row;
use gquery::{execute_prebuffered, ExecCtx, Op, Plan, Pushdown, QueryError, Slot};
use graphcore::GraphTxn;
use gstore::PVal;

use crate::codegen::{compile_expr, compile_pipeline, Code};
use crate::diskcache::DiskCache;
use crate::expr::{CompiledExpr, ExprSource};
use crate::pgo::{ExprTier, PgoTable, MAX_PROFILES};
use crate::runtime::{helper_table, RtCtx};

/// Errors from compilation or compiled execution.
#[derive(Debug)]
pub enum JitError {
    /// Cranelift backend failure.
    Backend(String),
    /// The plan contains an operator the code generator does not support.
    Unsupported(String),
}

impl std::fmt::Display for JitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitError::Backend(m) => write!(f, "JIT backend error: {m}"),
            JitError::Unsupported(m) => write!(f, "JIT unsupported: {m}"),
        }
    }
}

impl std::error::Error for JitError {}

impl From<JitError> for QueryError {
    fn from(e: JitError) -> QueryError {
        QueryError::Jit(e.to_string())
    }
}

type PipelineFn = unsafe extern "C" fn(*mut RtCtx<'static, 'static>, *const usize, u64, u64) -> i64;

/// A compiled pipeline segment: shared code plus what the driver needs to
/// run the rest of the plan. Cheap to clone; the code is unmapped when the
/// last holder (cache entry or clone) drops.
#[derive(Clone)]
pub struct CompiledQuery {
    code: Arc<Code>,
    /// Plan fingerprint this code was compiled for.
    pub fingerprint: u64,
    /// Number of leading plan operators covered by the compiled segment;
    /// the remainder (breakers onward) runs through the AOT engine.
    pub seg_len: usize,
    /// Wall-clock compilation time (reported in Fig. 7/9 harnesses); zero
    /// for code that came from the disk cache.
    pub compile_time: Duration,
}

impl CompiledQuery {
    /// `fingerprint` is `plan.fingerprint()`, which callers already hold.
    fn new(code: Arc<Code>, plan: &Plan, fingerprint: u64) -> CompiledQuery {
        CompiledQuery {
            compile_time: code.compile_time(),
            code,
            fingerprint,
            seg_len: plan.split_first_segment().0.len(),
        }
    }

    /// Reconstitute `plan`'s compiled segment from cached code bytes (no
    /// Cranelift work, just an executable mapping).
    pub fn from_bytes(code: &[u8], plan: &Plan) -> Result<CompiledQuery, JitError> {
        let code = Code::map(code.to_vec(), Duration::ZERO)?;
        Ok(CompiledQuery::new(Arc::new(code), plan, plan.fingerprint()))
    }

    /// The relocation-free machine code, as stored in the disk cache.
    pub fn code_bytes(&self) -> &[u8] {
        self.code.bytes()
    }

    /// Run the compiled segment over the chunk range `[c0, c1)` (ignored by
    /// non-scan access paths — pass `(0, 1)`). Rows accumulate in
    /// `ctx.out`; negative return means an error is in `ctx.error`.
    pub fn run(&self, ctx: &mut RtCtx<'_, '_>, c0: u64, c1: u64) -> i64 {
        let p = (ctx as *mut RtCtx<'_, '_>).cast::<RtCtx<'static, 'static>>();
        // SAFETY: `self.code` maps a function `compile_pipeline` generated
        // with the `PipelineFn` signature (the kind in every cache key keeps
        // expression code out) and stays mapped while `self` is borrowed.
        // The lifetime erasure is sound because the helpers use the context
        // only for the duration of this call. Generated code is immutable
        // and all helpers are plain fns, so any number of threads may run
        // it, each with its own RtCtx.
        unsafe {
            let entry: PipelineFn = std::mem::transmute(self.code.entry());
            entry(p, helper_table().as_ptr(), c0, c1)
        }
    }

    /// Run the compiled segment over the chunk range `[c0, c1)` only — the
    /// task-function body the morsel scheduler swaps in: each morsel gets
    /// a fresh `RtCtx` and returns its rows for morsel-ordered merging.
    pub(crate) fn run_range(
        &self,
        txn: &mut GraphTxn<'_>,
        params: &[PVal],
        c0: u64,
        c1: u64,
    ) -> Result<Vec<Row>, QueryError> {
        let mut ctx = RtCtx::new(txn, params);
        let status = self.run(&mut ctx, c0, c1);
        let RtCtx { out, error, .. } = ctx;
        if status < 0 {
            return Err(error.unwrap_or_else(|| QueryError::Jit("compiled pipeline failed".into())));
        }
        debug_assert!(error.is_none());
        Ok(out)
    }

    /// The one compiled-segment runner — what [`crate::run_plan_ctx`]
    /// calls for single-threaded compiled execution, and how harnesses run
    /// code they compiled (or reloaded) themselves, to time compilation
    /// and execution apart. The segment runs over the chunk runs surviving
    /// zone-map pruning, in chunk order (so the output is row-for-row that
    /// of an unpruned run), then the AOT engine runs the tail (breakers
    /// onward). Honours the context's deadline and cancellation flag at
    /// the boundaries and records the run in its profile as one compiled
    /// morsel.
    pub fn collect(
        &self,
        plan: &Plan,
        txn: &mut GraphTxn<'_>,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<Vec<Row>, QueryError> {
        ctx.check_interrupt()?;
        let start = Instant::now();
        let params = ctx.params;
        let (ranges, pruned) = pruned_ranges(plan, txn, params);
        let mut rows = Vec::new();
        for (c0, c1) in ranges {
            rows.extend(self.run_range(txn, params, c0, c1)?);
        }
        let tail = &plan.ops[self.seg_len..];
        if !tail.is_empty() {
            let mut out = Vec::new();
            let mut sink = |row: &[Slot]| -> Result<(), QueryError> {
                out.push(row.to_vec());
                Ok(())
            };
            execute_prebuffered(tail, txn, params, rows, &mut sink)?;
            rows = out;
        }
        ctx.profile.morsels += 1;
        ctx.profile.compiled_morsels += 1;
        ctx.profile.chunks_pruned += pruned;
        ctx.profile.segments.push(("jit", gobs::saturating_elapsed(start)));
        ctx.profile.rows += rows.len() as u64;
        ctx.check_interrupt()?;
        Ok(rows)
    }
}

impl std::fmt::Debug for CompiledQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledQuery")
            .field("fingerprint", &format_args!("{:#x}", self.fingerprint))
            .field("seg_len", &self.seg_len)
            .field("compile_time", &self.compile_time)
            .finish()
    }
}

/// Which of the two function shapes a cached code object has. Part of
/// every cache key, in memory and on disk: the shapes take different
/// arguments, so one must never be fetched as the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CodeKind {
    /// Pipeline segment, keyed by plan fingerprint.
    Pipeline = 0,
    /// Residual expression, keyed by [`crate::expr::expr_key`].
    Expr = 1,
}

/// Key of one code object in the engine's caches.
pub type CodeKey = (CodeKind, u64);

/// Default bound on the in-process code cache, counted in code objects
/// (compiled pipeline shapes plus compiled expressions). A long-lived
/// server process must not grow JIT code memory without limit, so the
/// cache evicts least-recently-used entries beyond this capacity (tunable
/// via [`JitEngine::set_code_cache_capacity`]).
pub const DEFAULT_CODE_CACHE_CAP: usize = 512;

/// JIT compilation counters.
#[derive(Debug, Default)]
pub struct JitStats {
    pub compiles: AtomicU64,
    pub cache_hits: AtomicU64,
    /// Code objects evicted from the bounded in-process code cache or the
    /// byte-bounded disk cache.
    pub evictions: AtomicU64,
}

/// The bounded in-process code cache: key → code, with a logical-clock
/// LRU stamp per entry. Eviction scans for the minimum stamp; the cache is
/// small (hundreds of entries) so the O(n) scan is noise next to a
/// compilation.
struct CodeCache {
    map: HashMap<CodeKey, (Arc<Code>, u64)>,
    clock: u64,
    capacity: usize,
}

impl CodeCache {
    /// Fetch an entry, refreshing its LRU stamp.
    fn touch(&mut self, key: CodeKey) -> Option<Arc<Code>> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(&key).map(|e| {
            e.1 = clock;
            e.0.clone()
        })
    }

    /// Insert an entry and evict down to capacity. Returns the number of
    /// evicted entries.
    fn insert(&mut self, key: CodeKey, code: Arc<Code>) -> usize {
        self.clock += 1;
        let clock = self.clock;
        self.map.insert(key, (code, clock));
        self.evict_to_capacity()
    }

    /// Evict least-recently-used entries until within capacity. At least
    /// one entry is always retained so a capacity of zero cannot thrash
    /// the entry being inserted.
    fn evict_to_capacity(&mut self) -> usize {
        let keep = self.capacity.max(1);
        let mut evicted = 0;
        while self.map.len() > keep {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(key, _)| *key);
            match victim {
                Some(key) => {
                    self.map.remove(&key);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }
}

/// The JIT engine: owns the code cache.
///
/// ```
/// use std::sync::Arc;
///
/// use gjit::{run_plan_ctx, JitEngine, Mode};
/// use gquery::{execute_collect, ExecCtx, Op, Plan};
/// use graphcore::{DbOptions, GraphDb, Value};
///
/// let db = GraphDb::create(DbOptions::dram(64 << 20)).unwrap();
/// let label = db.intern("Item").unwrap();
/// let mut tx = db.begin();
/// for i in 0..50 {
///     tx.create_node("Item", &[("n", Value::Int(i))]).unwrap();
/// }
/// tx.commit().unwrap();
///
/// let engine = Arc::new(JitEngine::new());
/// let plan = Plan::new(vec![Op::NodeScan { label: Some(label) }], 0);
/// let mut tx = db.begin();
/// let mut ctx = ExecCtx::new(&[]);
/// let jit = run_plan_ctx(&plan, &mut tx, &mut ctx, &Mode::Jit(&engine)).unwrap();
/// let interp = execute_collect(&plan, &mut tx, &[]).unwrap();
/// assert_eq!(jit, interp);
/// assert_eq!(jit.len(), 50);
/// assert_eq!(ctx.profile.compiled_morsels, 1);
/// ```
pub struct JitEngine {
    cache: Mutex<CodeCache>,
    /// Keys whose compilation failed (unsupported shapes): remembered so
    /// hot loops do not retry a doomed compile per run. A memo, not a
    /// record: at [`MAX_PROFILES`] keys it starts over, which costs each
    /// still-live shape one more failed attempt.
    failed: Mutex<HashSet<CodeKey>>,
    /// On-disk code cache (`{base}.jitcache`), attached when the database
    /// path is known.
    disk: Mutex<Option<DiskCache>>,
    /// Per-plan residual-row profiles driving the expression tier ladder.
    pgo: PgoTable,
    stats: JitStats,
    /// Artificial delay added to every cache-miss compilation, in
    /// nanoseconds (0 = none). Test/bench knob: emulates an expensive
    /// compile so the adaptive interpret-vs-compile race has a
    /// controllable outcome.
    compile_delay_ns: AtomicU64,
}

impl JitEngine {
    /// An engine with an in-process cache;
    /// [`JitEngine::attach_disk_cache`] adds the restart-surviving level.
    pub fn new() -> JitEngine {
        JitEngine {
            cache: Mutex::new(CodeCache {
                map: HashMap::new(),
                clock: 0,
                capacity: DEFAULT_CODE_CACHE_CAP,
            }),
            failed: Mutex::new(HashSet::new()),
            disk: Mutex::new(None),
            pgo: PgoTable::new(),
            stats: JitStats::default(),
            compile_delay_ns: AtomicU64::new(0),
        }
    }

    /// Add an artificial delay to every cache-miss compilation. Tests and
    /// benches use this to force the adaptive scheduler to interpret some
    /// morsels before the compiled task is published; `Duration::ZERO`
    /// disables it.
    pub fn set_compile_delay(&self, delay: Duration) {
        self.compile_delay_ns
            .store(delay.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// Counters.
    pub fn stats(&self) -> &JitStats {
        &self.stats
    }

    fn note_evictions(&self, evicted: u64) {
        if evicted > 0 {
            self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Bound the in-process code cache at `capacity` code objects
    /// (pipelines and expressions together), evicting least-recently-used
    /// entries immediately if the cache is already above the new bound. A
    /// capacity of zero keeps at most one entry (the most recent
    /// compilation).
    pub fn set_code_cache_capacity(&self, capacity: usize) {
        let mut cache = self.cache.lock();
        cache.capacity = capacity;
        let evicted = cache.evict_to_capacity();
        drop(cache);
        self.note_evictions(evicted as u64);
    }

    /// The configured code-cache bound.
    pub fn code_cache_capacity(&self) -> usize {
        self.cache.lock().capacity
    }

    /// Number of code objects (both kinds) currently resident.
    pub fn code_cache_len(&self) -> usize {
        self.cache.lock().map.len()
    }

    /// Number of compiled expressions resident in memory.
    pub fn expr_cache_len(&self) -> usize {
        let cache = self.cache.lock();
        cache.map.keys().filter(|k| k.0 == CodeKind::Expr).count()
    }

    /// Attach the on-disk code cache at `{base}.jitcache` (`base` is the
    /// PMem pool path, or the router base path of a sharded database).
    /// Call once after the database path is known; compiled pipelines and
    /// expressions then survive restarts of this process.
    pub fn attach_disk_cache(&self, base: &Path) {
        *self.disk.lock() = Some(DiskCache::open(base));
    }

    /// Probe memory, then disk, for `key`. A disk hit re-maps the cached
    /// bytes (no Cranelift) and promotes them into memory. Never compiles —
    /// this is how a warm reopen executes a previously compiled plan with
    /// `compiles == 0`.
    fn probe(&self, key: CodeKey) -> Option<Arc<Code>> {
        let hit_span = gobs::span_start();
        // Bound first: a guard in the scrutinee would still be held by the
        // miss arm's own `lock()`.
        let resident = self.cache.lock().touch(key);
        let code = match resident {
            Some(code) => code,
            None => {
                let bytes = {
                    let mut disk = self.disk.lock();
                    disk.as_mut().and_then(|d| d.get(key).map(<[u8]>::to_vec))
                }?;
                let code = Arc::new(Code::map(bytes, Duration::ZERO).ok()?);
                let evicted = self.cache.lock().insert(key, code.clone());
                self.note_evictions(evicted as u64);
                code
            }
        };
        self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        crate::obs::cache_hit(hit_span);
        Some(code)
    }

    /// One counted, delayed, span-observed run of the code generator.
    fn compile(
        &self,
        kind: CodeKind,
        emit: impl FnOnce() -> Result<Code, JitError>,
    ) -> Result<Code, JitError> {
        let delay_ns = self.compile_delay_ns.load(Ordering::Relaxed);
        if delay_ns > 0 {
            std::thread::sleep(Duration::from_nanos(delay_ns));
        }
        let span = gobs::span_start();
        let code = emit()?;
        self.stats.compiles.fetch_add(1, Ordering::Relaxed);
        match kind {
            CodeKind::Pipeline => crate::obs::compile(span),
            CodeKind::Expr => crate::obs::expr_compile(span),
        }
        Ok(code)
    }

    /// The one lookup path, for both kinds: memory → disk → failure memo →
    /// compile → insert into both. Cache hits never compile; unsupported
    /// shapes are remembered so they fail fast afterwards.
    fn get_or_compile_code(
        &self,
        key: CodeKey,
        emit: impl FnOnce() -> Result<Code, JitError>,
    ) -> Result<Arc<Code>, JitError> {
        if let Some(code) = self.probe(key) {
            return Ok(code);
        }
        if self.failed.lock().contains(&key) {
            return Err(JitError::Unsupported(
                "shape previously failed to compile".into(),
            ));
        }
        let code = match self.compile(key.0, emit) {
            Ok(code) => Arc::new(code),
            Err(e) => {
                let mut failed = self.failed.lock();
                if failed.len() >= MAX_PROFILES {
                    failed.clear();
                }
                failed.insert(key);
                return Err(e);
            }
        };
        let evicted = self.cache.lock().insert(key, code.clone());
        self.note_evictions(evicted as u64);
        if let Some(disk) = self.disk.lock().as_mut() {
            // Disk evictions count into the same stat as memory evictions
            // (the cache is one logical tier with two levels).
            if let Ok(evicted) = disk.insert(key, code.bytes()) {
                self.note_evictions(evicted);
            }
        }
        Ok(code)
    }

    /// Compile (or fetch from cache) the plan's first pipeline segment.
    pub fn get_or_compile(&self, plan: &Plan) -> Result<CompiledQuery, JitError> {
        let fp = plan.fingerprint();
        let code = self.get_or_compile_code((CodeKind::Pipeline, fp), || {
            compile_pipeline(plan.split_first_segment().0)
        })?;
        Ok(CompiledQuery::new(code, plan, fp))
    }

    /// The plan's compiled segment if memory or disk already holds it;
    /// never compiles.
    pub(crate) fn probe_pipeline(&self, plan: &Plan) -> Option<CompiledQuery> {
        let fp = plan.fingerprint();
        let code = self.probe((CodeKind::Pipeline, fp))?;
        Some(CompiledQuery::new(code, plan, fp))
    }

    /// Compile without touching the cache (used to measure compile times).
    pub fn compile_uncached(&self, plan: &Plan) -> Result<CompiledQuery, JitError> {
        let code = self.compile(CodeKind::Pipeline, || {
            compile_pipeline(plan.split_first_segment().0)
        })?;
        Ok(CompiledQuery::new(Arc::new(code), plan, plan.fingerprint()))
    }

    /// The per-plan PGO profile table.
    pub fn pgo(&self) -> &PgoTable {
        &self.pgo
    }

    /// The tier the plan fingerprint has earned (see [`PgoTable::tier`]).
    pub fn expr_tier(&self, plan_fp: u64) -> ExprTier {
        self.pgo.tier(plan_fp)
    }

    /// Probe the caches for the expression `key` without compiling.
    pub fn probe_expr(&self, key: u64) -> Option<CompiledExpr> {
        self.probe((CodeKind::Expr, key)).map(CompiledExpr)
    }

    /// Fetch-or-compile the residual expression for `key`.
    pub fn get_or_compile_expr(
        &self,
        key: u64,
        src: ExprSource,
        pred: &gquery::Pred,
        inline_params: Option<&[PVal]>,
    ) -> Result<CompiledExpr, JitError> {
        self.get_or_compile_code((CodeKind::Expr, key), || {
            compile_expr(src, pred, inline_params)
        })
        .map(CompiledExpr)
    }

    /// Map every disk-cached code object into memory (server warm-up
    /// verb). Returns how many entries were mapped; none count as compiles.
    pub fn warm_from_disk(&self) -> usize {
        let keys = match self.disk.lock().as_ref() {
            Some(d) => d.keys(),
            None => return 0,
        };
        keys.into_iter().filter(|&k| self.probe(k).is_some()).count()
    }

    /// Total code bytes in the on-disk cache (0 when detached).
    pub fn disk_cache_bytes(&self) -> u64 {
        self.disk.lock().as_ref().map_or(0, DiskCache::bytes)
    }

    /// Entry count of the on-disk cache (0 when detached).
    pub fn disk_cache_len(&self) -> usize {
        self.disk.lock().as_ref().map_or(0, DiskCache::len)
    }

    /// Drop all in-process compiled code and the failure memo (cold-cache
    /// measurements). The disk cache is untouched — use
    /// [`JitEngine::clear_disk_cache`].
    pub fn clear_code_cache(&self) {
        self.cache.lock().map.clear();
        self.failed.lock().clear();
    }

    /// Drop the on-disk code cache and its file.
    pub fn clear_disk_cache(&self) -> Result<(), JitError> {
        match self.disk.lock().as_mut() {
            Some(d) => d.clear(),
            None => Ok(()),
        }
    }
}

impl Default for JitEngine {
    fn default() -> Self {
        JitEngine::new()
    }
}

/// The process-wide engine used by embedded callers (the LDBC driver's
/// interpreted/parallel modes) that have no engine of their own. Lazily
/// created; the server builds and owns its engine explicitly instead.
pub fn default_engine() -> &'static Arc<JitEngine> {
    static ENGINE: OnceLock<Arc<JitEngine>> = OnceLock::new();
    ENGINE.get_or_init(|| Arc::new(JitEngine::new()))
}

/// Chunk ranges the compiled segment should cover for a full execution:
/// maximal contiguous runs of the chunks surviving zone-map predicate
/// pushdown, plus the number of chunks pruned. Compiled pipelines address
/// `[c0, c1)` spans, so the one-shot JIT driver consumes the same pruned
/// candidate stream as the morsel scheduler — all four execution modes
/// skip identical chunks and stay output-identical.
fn pruned_ranges(
    plan: &Plan,
    txn: &GraphTxn<'_>,
    params: &[PVal],
) -> (Vec<(u64, u64)>, u64) {
    let (seg, _) = plan.split_first_segment();
    match seg.first() {
        Some(Op::NodeScan { .. }) => {
            let pd = Pushdown::extract(seg, params);
            let (chunks, pruned) =
                pd.surviving_node_chunks(txn.db().accel(), txn.db().nodes().chunk_count());
            (chunk_runs(&chunks), pruned)
        }
        Some(Op::RelScan { .. }) => {
            let pd = Pushdown::extract(seg, params);
            let (chunks, pruned) =
                pd.surviving_rel_chunks(txn.db().accel(), txn.db().rels().chunk_count());
            (chunk_runs(&chunks), pruned)
        }
        _ => (vec![(0, 1)], 0),
    }
}

/// Pack an ordered chunk list into maximal `[c0, c1)` runs.
fn chunk_runs(chunks: &[usize]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for &c in chunks {
        match out.last_mut() {
            Some((_, end)) if *end == c as u64 => *end += 1,
            _ => out.push((c as u64, c as u64 + 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pgo::DEFAULT_TIER1_ROWS;

    #[test]
    fn ad_hoc_fingerprints_cannot_grow_the_tables_or_cool_a_hot_plan() {
        let engine = JitEngine::new();
        let pgo = engine.pgo();
        let hot = u64::MAX;
        pgo.record(hot, DEFAULT_TIER1_ROWS, Duration::from_micros(10));
        pgo.record_segment(hot, 1, 1_000_000, 10);
        for fp in 0..10_000u64 {
            assert_eq!(pgo.tier(fp), ExprTier::Interpret);
            pgo.record(fp, 100, Duration::from_micros(10));
            pgo.record_segment(fp, 0, 100, 10);
            // A breaker heads the plan: the compiled segment is empty, which
            // the code generator rejects — one failure-memo key per constant.
            let doomed = Plan::new(vec![Op::Limit(fp as usize)], 0);
            assert!(engine.get_or_compile(&doomed).is_err());
        }
        assert_eq!(pgo.snapshot().len(), MAX_PROFILES);
        assert_eq!(pgo.segment_snapshot().len(), MAX_PROFILES);
        let memo = engine.failed.lock().len();
        assert!((1..=MAX_PROFILES).contains(&memo), "failure memo holds {memo}");
        assert_eq!(pgo.tier(hot), ExprTier::Generic, "the hot plan keeps its tier");
        let sel = pgo.segment_selectivity(hot, 1).unwrap();
        assert!((sel - 1e-5).abs() < 1e-12, "and its observed selectivity: {sel}");
    }
}
