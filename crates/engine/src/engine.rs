//! The long-lived engine: live Phase I forest + lazily-closed epochs with
//! memoized Phase II artifacts, over all history or a sliding window.

use crate::answer::SharedRules;
use crate::config::EngineConfig;
use crate::snapshot::{self, RingHeader, Snapshot, RING_V2_TAG};
use crate::stats::EngineStats;
use birch::{refine_forest_output, AcfForest, AcfTree};
use dar_core::{ClusterSummary, CoreError, Partitioning};
use dar_rank::RankSpec;
use dar_stream::{AdvanceOutcome, WindowRing, WindowSpec, WindowedIngest};
use mining::persist::MIGRATE_HINT;
use mining::rules::Dar;
use mining::{Measure, Phase2Artifacts, RuleQuery};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One closed epoch: the cluster summaries extracted from the live forest,
/// the Phase I state they were extracted under, and the memoized Phase II
/// artifacts keyed by resolved density thresholds.
pub(crate) struct EpochState {
    pub(crate) clusters: Vec<ClusterSummary>,
    pub(crate) tree_thresholds: Vec<f64>,
    pub(crate) s0: u64,
    /// Memoized graph + cliques, keyed by the bit patterns of the resolved
    /// per-set density thresholds (metric, pruning, and the clique cap are
    /// fixed per engine, so density is the only Phase II input that shapes
    /// the graph).
    pub(crate) cache: HashMap<Vec<u64>, Arc<Phase2Artifacts>>,
    /// Memoized *ranked* answers, keyed by density bits plus every rule
    /// and rank knob (see [`rank_key`]). Interior mutability so the
    /// `&self` [`DarEngine::query_cached`] fast path can populate it; dies
    /// with the epoch on ingest like the artifact cache above. Exact-mode
    /// answers only — anytime answers depend on the wall clock.
    pub(crate) rank_cache: Mutex<RankCache>,
}

/// Ranked answers one epoch keeps at most: each distinct knob set a
/// client sends costs its ranked rules plus their wire memo (several MB
/// for a full answer), so the cache evicts the least recently used entry
/// rather than grow with every new knob set.
pub(crate) const RANK_CACHE_CAPACITY: usize = 64;

/// The per-epoch rank cache: least-recently-used over
/// [`RANK_CACHE_CAPACITY`] entries. Each entry carries the stamp of its
/// last use; a hit bumps it, and an insert at capacity evicts the
/// smallest.
#[derive(Default)]
pub(crate) struct RankCache {
    entries: HashMap<Vec<u64>, (u64, Arc<RankedAnswer>)>,
    clock: u64,
}

impl RankCache {
    fn get(&mut self, key: &[u64]) -> Option<Arc<RankedAnswer>> {
        self.clock += 1;
        let (stamp, answer) = self.entries.get_mut(key)?;
        *stamp = self.clock;
        Some(Arc::clone(answer))
    }

    fn insert(&mut self, key: Vec<u64>, answer: Arc<RankedAnswer>) {
        if self.entries.len() >= RANK_CACHE_CAPACITY && !self.entries.contains_key(&key) {
            let oldest = self.entries.iter().min_by_key(|(_, (stamp, _))| *stamp).map(|(k, _)| k);
            if let Some(oldest) = oldest.cloned() {
                self.entries.remove(&oldest);
            }
        }
        self.clock += 1;
        self.entries.insert(key, (self.clock, answer));
    }
}

impl EpochState {
    pub(crate) fn new(
        clusters: Vec<ClusterSummary>,
        tree_thresholds: Vec<f64>,
        s0: u64,
    ) -> EpochState {
        EpochState {
            clusters,
            tree_thresholds,
            s0,
            cache: HashMap::new(),
            rank_cache: Mutex::new(RankCache::default()),
        }
    }
}

/// One fully-ranked answer, as memoized per knob-set. The rules and
/// values are shared with every outcome the answer serves.
pub(crate) struct RankedAnswer {
    rules: SharedRules,
    truncated: bool,
    rules_in: usize,
    pruned: usize,
}

/// The result of one [`DarEngine::query`].
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The mined rules, ranked best-first under [`QueryOutcome::measure`]:
    /// shared with the epoch's rank cache, not copied out of it.
    pub rules: SharedRules,
    /// `rules[i]`'s value under the ranking measure.
    pub values: Vec<f64>,
    /// The measure the rules are ranked by.
    pub measure: Measure,
    /// Whether rule generation hit a budget (or, in anytime mode, the
    /// answer is incomplete).
    pub truncated: bool,
    /// Whether the graph and cliques came from the epoch cache.
    pub cached: bool,
    /// The (shared) Phase II artifacts the rules were mined from — rule
    /// indices in [`QueryOutcome::rules`] point into
    /// `artifacts.graph.clusters()`.
    pub artifacts: Arc<Phase2Artifacts>,
    /// The absolute frequency threshold in force.
    pub s0: u64,
    /// The epoch this answer reflects.
    pub epoch: u64,
    /// Rules the ranker scored (before filter/prune/top-k). An exact
    /// top-k answer scores only the rules the bound-and-skip search
    /// emitted, so this is at most the exhaustive rule count.
    pub rules_in: usize,
    /// Scored rules dropped by redundancy pruning.
    pub pruned: usize,
    /// `Some(fraction)` iff this was an anytime (budgeted) answer: the
    /// fraction of clique pairs examined, in `(0, 1]`. `None` means exact.
    pub coverage: Option<f64>,
}

impl QueryOutcome {
    /// `encode(rules, values)` of this outcome, memoized on the rank-cache
    /// entry it came from: the first call per cached answer runs `encode`,
    /// later ones (from any outcome that entry serves) clone its result.
    /// The memo is used only while the outcome still holds that answer's
    /// own rules and values, so a struct-updated outcome with other rules
    /// or values, or an anytime answer (never cached), encodes afresh. It
    /// lives as long as the cache entry, that is, until the epoch closes.
    /// `encode` must be a pure function of its arguments.
    pub fn encoded_rules<T, F>(&self, encode: F) -> T
    where
        T: Clone + Send + Sync + 'static,
        F: FnOnce(&[Dar], &[f64]) -> T,
    {
        self.rules.encoded(&self.values, encode)
    }
}

/// Cache key for one ranked answer: the resolved density bits plus every
/// knob that shapes rule generation and ranking.
fn rank_key(density_key: &[u64], query: &RuleQuery) -> Vec<u64> {
    let mut key = density_key.to_vec();
    key.push(query.degree_factor.to_bits());
    key.push(query.max_antecedent as u64);
    key.push(query.max_consequent as u64);
    key.push(query.max_rules as u64);
    key.push(query.max_pair_work);
    key.push(query.measure.discriminant());
    key.push(u64::from(query.min_measure.is_some()));
    key.push(query.min_measure.unwrap_or(0.0).to_bits());
    key.push(query.top_k as u64);
    key.push(u64::from(query.prune_redundant));
    key
}

/// Mines (exact or budgeted) and ranks one answer from cached artifacts.
/// An exact top-k query goes through the bound-and-skip search, which
/// emits only the rules that can reach the answer. `memoize` gives the
/// answer an encode memo (rank-cache entries only).
fn mine_ranked(
    artifacts: &Phase2Artifacts,
    pool: &dar_par::ThreadPool,
    tuples: u64,
    query: &RuleQuery,
    memoize: bool,
) -> (RankedAnswer, Option<f64>) {
    let spec = RankSpec::from_query(query, artifacts.graph.clusters(), tuples);
    let (ranked, truncated, coverage) = if query.budget_ms > 0 {
        let outcome =
            dar_rank::mine_budgeted(artifacts, query, Duration::from_millis(query.budget_ms));
        (dar_rank::rank(outcome.rules, &spec), outcome.truncated, Some(outcome.coverage))
    } else if query.top_k > 0 {
        let (ranked, truncated) = dar_rank::mine_top_k(artifacts, query, pool, tuples);
        (ranked, truncated, None)
    } else {
        let (rules, truncated) = artifacts.mine_pooled(query, pool);
        (dar_rank::rank(rules, &spec), truncated, None)
    };
    (
        RankedAnswer {
            rules: SharedRules::new(ranked.rules, ranked.values, memoize),
            truncated,
            rules_in: ranked.rules_in,
            pruned: ranked.pruned,
        },
        coverage,
    )
}

/// A long-lived incremental DAR mining engine. See the crate docs for the
/// lifecycle; see `DarEngine::restore` for resuming from a snapshot.
///
/// Its horizon is either all history or, with a window ring, only the
/// most recent windows. Phase I is a fold of ACF additions, and Phase II
/// reads only the folded summaries (Theorem 6.1), so a sliding window
/// only changes which tuples are in the fold. The forest is the only
/// Phase I state either way: with a ring, each leaf entry and outlier
/// also keeps one column per live window that put rows into it, and every
/// row lands in its entry's total and in the open window's column. When a
/// window retires, its columns are dropped and each entry's total becomes
/// the fold of the columns left, so the forest holds exactly the live
/// rows and queries cost what they cost on all history. Nothing is ever
/// subtracted, so retirement is exact on real-valued rows, at any worker
/// count. The epoch carries forward, so epochs stay monotonic across
/// slides and `s0` always reflects the live tuple count.
pub struct DarEngine {
    partitioning: Partitioning,
    config: EngineConfig,
    forest: AcfForest,
    /// Worker pool for batch-ingest fan-out and cold Phase II builds,
    /// resolved once from `config.threads` (0 = available parallelism).
    pool: dar_par::ThreadPool,
    epoch: u64,
    tuples: u64,
    epoch_state: Option<EpochState>,
    stats: EngineStats,
    /// The sliding-window ring; `None` mines all history.
    ring: Option<WindowRing>,
}

impl DarEngine {
    /// Creates an empty engine for `partitioning` that mines all history.
    ///
    /// # Errors
    /// Rejects `initial_thresholds` whose arity differs from the
    /// partitioning's set count.
    pub fn new(partitioning: Partitioning, config: EngineConfig) -> Result<Self, CoreError> {
        Self::with_window(partitioning, config, None)
    }

    /// Creates an empty engine: all-history mining when `window` is
    /// `None`, sliding-window mining under that geometry otherwise.
    ///
    /// # Errors
    /// As [`DarEngine::new`].
    pub fn with_window(
        partitioning: Partitioning,
        config: EngineConfig,
        window: Option<WindowSpec>,
    ) -> Result<Self, CoreError> {
        let forest = match &config.initial_thresholds {
            Some(t) => {
                if t.len() != partitioning.num_sets() {
                    return Err(CoreError::InvalidPartitioning(format!(
                        "initial_thresholds has {} entries but the partitioning has {} sets",
                        t.len(),
                        partitioning.num_sets()
                    )));
                }
                AcfForest::with_initial_thresholds(partitioning, &config.birch, t)
            }
            None => AcfForest::new(partitioning, &config.birch),
        };
        let engine = Self::with_forest(forest, 0, 0, config);
        Ok(match window {
            Some(spec) => engine.with_ring(WindowRing::new(spec)),
            None => engine,
        })
    }

    /// Builds an engine around an already-populated live forest. `tuples`
    /// is the number of tuples the forest summarizes (it drives `s0`); the
    /// epoch starts at `epoch_base` and *open*, so the first query closes
    /// `epoch_base + 1`.
    fn with_forest(forest: AcfForest, tuples: u64, epoch_base: u64, config: EngineConfig) -> Self {
        let partitioning = forest.partitioning().clone();
        let stats = EngineStats { tuples_ingested: tuples, ..EngineStats::default() };
        let pool = dar_par::ThreadPool::resolve(config.threads);
        DarEngine {
            partitioning,
            config,
            forest,
            pool,
            epoch: epoch_base,
            tuples,
            epoch_state: None,
            stats,
            ring: None,
        }
    }

    /// Puts the engine under `ring`: the forest turns windowed with the
    /// ring's open window open, so every later row also lands in that
    /// window's column of its entry. No tuple moves, so the epoch stays.
    fn with_ring(mut self, ring: WindowRing) -> Self {
        self.forest.open_window(ring.open_seq());
        self.ring = Some(ring);
        self
    }

    /// The row width [`DarEngine::ingest`] requires: one value per
    /// attribute of the partitioning's id space (the highest attribute id
    /// any set references, plus one).
    pub fn required_row_width(&self) -> usize {
        self.partitioning
            .sets()
            .iter()
            .flat_map(|s| s.attrs.iter())
            .copied()
            .max()
            .map_or(0, |m| m + 1)
    }

    /// Feeds a batch of full tuples (indexed by attribute, matching the
    /// partitioning's id space) into the live forest, then counts it into
    /// the ring's open window when there is one. Invalidates the current
    /// epoch and its Phase II cache: the next query or snapshot closes a
    /// fresh epoch reflecting every tuple in the horizon.
    ///
    /// The ring advances (and possibly retires) at the window boundary,
    /// and a retirement slides the forest to the live horizon. Empty
    /// batches are no-ops at the window layer (see [`WindowRing::ingest`]).
    /// Returns what the batch did to the ring; `None` without one.
    ///
    /// Large batches fan out across the per-attribute-set trees on the
    /// engine's worker pool (see [`EngineConfig::threads`]); every tree
    /// still sees every row in batch order, so ingesting in batches — at
    /// any thread count — leaves the engine in exactly the state one
    /// serial concatenated scan would have produced.
    ///
    /// # Errors
    /// The whole batch is validated before any row is inserted, so a
    /// rejected batch leaves the engine (and the current epoch) untouched.
    /// Rows whose width differs from [`DarEngine::required_row_width`] are
    /// rejected with [`CoreError::ArityMismatch`]; NaN or infinite values
    /// are rejected with [`CoreError::NonFiniteValue`]. Either way the
    /// reject is counted in [`EngineStats::rejected_batches`], and the ring
    /// is untouched too.
    pub fn ingest(&mut self, rows: &[Vec<f64>]) -> Result<Option<WindowedIngest>, CoreError> {
        self.insert(rows)?;
        Ok(self.ring_ingest(rows))
    }

    /// The forest half of [`DarEngine::ingest`]: validation, then Phase I.
    fn insert(&mut self, rows: &[Vec<f64>]) -> Result<(), CoreError> {
        let width = self.required_row_width();
        for (r, row) in rows.iter().enumerate() {
            if row.len() != width {
                self.stats.rejected_batches += 1;
                crate::metrics::metrics().rejected_batches.inc();
                return Err(CoreError::ArityMismatch { expected: width, got: row.len() });
            }
            if let Some(attr) = row.iter().position(|v| !v.is_finite()) {
                self.stats.rejected_batches += 1;
                crate::metrics::metrics().rejected_batches.inc();
                return Err(CoreError::NonFiniteValue { attr, row: r });
            }
        }
        let t = Instant::now();
        self.forest.insert_batch(rows, &self.pool);
        let m = crate::metrics::metrics();
        m.phase1_insert_ns.observe_duration(t.elapsed());
        m.ingest_batches.inc();
        m.tuples.add(rows.len() as u64);
        self.tuples += rows.len() as u64;
        self.stats.tuples_ingested += rows.len() as u64;
        self.stats.batches += 1;
        self.stats.ingest_time += t.elapsed();
        self.epoch_state = None;
        Ok(())
    }

    /// The ring half of an ingest whose rows the forest already took.
    fn ring_ingest(&mut self, rows: &[Vec<f64>]) -> Option<WindowedIngest> {
        let ring = self.ring.as_mut()?;
        let window_seq = ring.open_seq();
        let advance = ring.ingest(rows.len());
        let window_span = ring.window_span();
        if let Some(outcome) = advance {
            self.slide(outcome);
        }
        Some(WindowedIngest {
            window_seq,
            advanced: advance.is_some(),
            retired: advance.is_some_and(|a| a.retired_seq.is_some()),
            window_span,
        })
    }

    /// Seals the open window explicitly (the `advance` verb), sliding the
    /// forest if the ring retired a window.
    ///
    /// # Errors
    /// An all-history engine has no windows to advance.
    pub fn advance(&mut self) -> Result<AdvanceOutcome, CoreError> {
        let ring = self.ring.as_mut().ok_or_else(|| {
            CoreError::LayoutMismatch(
                "advance requires a windowed engine (--window-batches)".into(),
            )
        })?;
        let outcome = ring.advance();
        self.slide(outcome);
        Ok(outcome)
    }

    /// Moves the forest along with a ring advance: the new window's
    /// columns open, and a retired window's columns leave the forest.
    fn slide(&mut self, outcome: AdvanceOutcome) {
        self.forest.open_window(outcome.opened_seq);
        if let Some(seq) = outcome.retired_seq {
            let live = self.ring.as_ref().expect("only a ring advances").live_tuples();
            self.retire_through(seq, live);
        }
    }

    /// Retires every window up to `seq` from the windowed forest
    /// ([`AcfForest::retire_through`]). `live_tuples` is the count the
    /// forest summarizes afterwards.
    ///
    /// The engine is left exactly as [`DarEngine::with_forest`] would build
    /// it around the retired forest with `epoch_base = self.epoch()`: the
    /// epoch carries over and stays open, so the next query closes a fresh
    /// one over the slid horizon, and the counters restart from
    /// `tuples_ingested = live_tuples`.
    fn retire_through(&mut self, seq: u64, live_tuples: u64) {
        self.forest.retire_through(seq);
        self.tuples = live_tuples;
        self.epoch_state = None;
        self.stats = EngineStats { tuples_ingested: live_tuples, ..EngineStats::default() };
    }

    /// True when a window ring bounds the horizon.
    pub fn is_windowed(&self) -> bool {
        self.ring.is_some()
    }

    /// The live horizon `(oldest seq, open seq)`, if windowed.
    pub fn window_span(&self) -> Option<(u64, u64)> {
        self.ring.as_ref().map(WindowRing::window_span)
    }

    /// The window geometry, if windowed.
    pub fn window_spec(&self) -> Option<WindowSpec> {
        self.ring.as_ref().map(WindowRing::spec)
    }

    /// Replays one recovered write-ahead-log frame — the one replay path
    /// of both modes. `tag` is the window sequence the frame was logged
    /// under: the ring advances until that window is open (reconstructing
    /// explicit advances, which are logged as empty tagged frames), then
    /// non-empty rows are ingested exactly as live and counted in
    /// [`EngineStats::wal_batches_replayed`]. Untagged frames (all-history
    /// or pre-windowing logs) ingest directly; without a ring the tag is
    /// ignored. Forest insertion is purely sequential, so an engine fed
    /// its frames in log order answers exactly as the uncrashed one would.
    ///
    /// # Errors
    /// Propagates ingest validation errors; frames replayed before the
    /// failing one remain applied (they were committed and valid).
    pub fn replay_frame(&mut self, tag: Option<u64>, rows: &[Vec<f64>]) -> Result<(), CoreError> {
        if let Some(seq) = tag {
            while self.ring.as_ref().is_some_and(|ring| ring.open_seq() < seq) {
                self.advance()?;
            }
        }
        if !rows.is_empty() {
            self.insert(rows)?;
            self.stats.wal_batches_replayed += 1;
            crate::metrics::metrics().wal_batches_replayed.inc();
            self.ring_ingest(rows);
        }
        Ok(())
    }

    /// Closes the current epoch if ingest invalidated it (or none was ever
    /// closed): extracts cluster summaries from the live forest — without
    /// consuming it — and resets the Phase II cache.
    fn ensure_epoch(&mut self) {
        if self.epoch_state.is_some() {
            return;
        }
        let t = Instant::now();
        // Thresholds as of extraction: the same values `DarMiner::mine_rows`
        // reads from the forest stats before finishing.
        let tree_thresholds = self.forest.thresholds();
        let mut per_set = self.forest.extract_clusters();
        if self.config.refine_clusters {
            per_set = refine_forest_output(per_set, &tree_thresholds);
        }
        let clusters = ClusterSummary::number(per_set);
        let s0 = ((self.config.min_support_frac * self.tuples as f64).ceil() as u64).max(1);
        self.epoch_state = Some(EpochState::new(clusters, tree_thresholds, s0));
        self.epoch += 1;
        self.stats.epochs += 1;
        self.stats.epoch_time += t.elapsed();
        let m = crate::metrics::metrics();
        m.epochs.inc();
        m.epoch_close_ns.observe_duration(t.elapsed());
    }

    /// Answers one rule-mining query against the current epoch, closing it
    /// first if needed. The clustering graph and maximal cliques are taken
    /// from the epoch cache when this density setting has been queried
    /// before; only rule generation (cheap, Dfn 5.1 `assoc` checks) runs
    /// per query.
    ///
    /// # Errors
    /// Propagates arity errors from explicit density thresholds.
    pub fn query(&mut self, query: &RuleQuery) -> Result<QueryOutcome, CoreError> {
        self.ensure_epoch();
        let state = self.epoch_state.as_ref().expect("epoch just ensured");
        let (density, key) = self.density_key(state, query)?;
        let s0 = state.s0;

        let hit = state.cache.get(&key).cloned();
        let (artifacts, cached) = match hit {
            Some(artifacts) => {
                self.stats.cache_hits += 1;
                crate::metrics::metrics().cache_hits.inc();
                (artifacts, true)
            }
            None => {
                self.stats.cache_misses += 1;
                crate::metrics::metrics().cache_misses.inc();
                let t = Instant::now();
                let frequent: Vec<ClusterSummary> =
                    state.clusters.iter().filter(|c| c.is_frequent(s0)).cloned().collect();
                let artifacts = Arc::new(Phase2Artifacts::build_pooled(
                    frequent,
                    density,
                    self.config.metric,
                    self.config.prune_poor_density,
                    self.config.max_cliques,
                    &self.pool,
                ));
                self.stats.phase2_build_time += t.elapsed();
                self.epoch_state
                    .as_mut()
                    .expect("epoch just ensured")
                    .cache
                    .insert(key.clone(), Arc::clone(&artifacts));
                (artifacts, false)
            }
        };

        let t = Instant::now();
        let state = self.epoch_state.as_ref().expect("epoch just ensured");
        let outcome = self.answer(state, artifacts, &key, query, cached);
        self.stats.rule_time += t.elapsed();
        self.stats.queries += 1;
        Ok(outcome)
    }

    /// The read-only fast path for concurrent serving: answers a query
    /// through `&self` when — and only when — the current epoch is closed
    /// and this density setting's Phase II artifacts are already cached.
    ///
    /// Returns `Ok(None)` when the epoch is open (ingest since the last
    /// close) or the density setting has never been built, in which case
    /// the caller must fall back to the `&mut self` [`DarEngine::query`]
    /// path. Rule generation from cached artifacts is pure (Theorem 6.1:
    /// a function of the ACF summaries alone), so any number of threads
    /// holding shared references — e.g. through an `RwLock` read guard —
    /// can run this concurrently. Engine counters are *not* touched (they
    /// need `&mut`); callers that care keep their own hit counter, as
    /// `dar-serve`'s `SharedEngine` does.
    ///
    /// # Errors
    /// Propagates arity errors from explicit density thresholds.
    pub fn query_cached(&self, query: &RuleQuery) -> Result<Option<QueryOutcome>, CoreError> {
        let Some(state) = self.epoch_state.as_ref() else {
            return Ok(None);
        };
        let (_, key) = self.density_key(state, query)?;
        let Some(artifacts) = state.cache.get(&key) else {
            return Ok(None);
        };
        Ok(Some(self.answer(state, Arc::clone(artifacts), &key, query, true)))
    }

    /// The density thresholds `query` resolves to on the epoch `state`,
    /// and their bit patterns: the key of the epoch's artifact cache.
    fn density_key(
        &self,
        state: &EpochState,
        query: &RuleQuery,
    ) -> Result<(Vec<f64>, Vec<u64>), CoreError> {
        let num_sets = self.partitioning.num_sets();
        let density = query.density.resolve(&state.clusters, &state.tree_thresholds, num_sets)?;
        let key = density.iter().map(|d| d.to_bits()).collect();
        Ok((density, key))
    }

    /// The outcome both query paths return: `query` mined and ranked over
    /// `artifacts` (cached under the density `key` of epoch `state`)
    /// through the epoch's rank cache. Exact answers are memoized per
    /// knob set; anytime answers never are (they depend on the wall
    /// clock).
    fn answer(
        &self,
        state: &EpochState,
        artifacts: Arc<Phase2Artifacts>,
        key: &[u64],
        query: &RuleQuery,
        cached: bool,
    ) -> QueryOutcome {
        let mine = |memoize| mine_ranked(&artifacts, &self.pool, self.tuples, query, memoize);
        let (answer, coverage) = if query.budget_ms > 0 {
            let (answer, coverage) = mine(false);
            (Arc::new(answer), coverage)
        } else {
            let rkey = rank_key(key, query);
            let cache = || state.rank_cache.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            let hit = cache().get(&rkey);
            let answer = hit.unwrap_or_else(|| {
                let answer = Arc::new(mine(true).0);
                cache().insert(rkey, Arc::clone(&answer));
                answer
            });
            (answer, None)
        };
        QueryOutcome {
            rules: answer.rules.clone(),
            values: answer.rules.values().to_vec(),
            measure: query.measure,
            truncated: answer.truncated,
            cached,
            artifacts,
            s0: state.s0,
            epoch: self.epoch,
            rules_in: answer.rules_in,
            pruned: answer.pruned,
            coverage,
        }
    }

    /// Serializes the engine for durability. Without a ring this is
    /// [`DarEngine::pull_snapshot`]. With one it is the full ring in the
    /// layout [`snapshot`] documents: one engine body per live window,
    /// each holding that window's columns under the forest's thresholds.
    /// The ring snapshot leaves the epoch as it is.
    ///
    /// # Errors
    /// Propagates serialization failures.
    pub fn snapshot(&mut self) -> Result<Vec<u8>, CoreError> {
        let Some(ring) = &self.ring else {
            return self.pull_snapshot();
        };
        let t = Instant::now();
        let header =
            RingHeader { epoch: self.epoch, open_batches: ring.open_batches(), spec: ring.spec() };
        let thresholds = self.forest.thresholds();
        let mut windows = Vec::new();
        for (seq, tuples) in ring.live_windows() {
            let clusters = ClusterSummary::number(self.forest.window_columns(seq));
            let body = snapshot::write_snapshot_bytes(
                seq,
                tuples,
                &self.partitioning,
                &thresholds,
                &clusters,
                &self.pool,
            )?;
            windows.push((seq, body));
        }
        let bytes = snapshot::write_ring_bytes(&header, &windows);
        crate::metrics::record_encode(t, bytes.len());
        Ok(bytes)
    }

    /// Serializes the *mergeable* view: the current epoch of the horizon
    /// (all history, or the live windows only), closing it first if
    /// needed, as one engine body. This is what a cluster coordinator
    /// pulls; the result feeds [`DarEngine::merge_parsed_snapshots`].
    /// Cluster records are encoded on the engine's worker pool.
    ///
    /// # Errors
    /// Propagates serialization failures.
    pub fn pull_snapshot(&mut self) -> Result<Vec<u8>, CoreError> {
        self.ensure_epoch();
        let state = self.epoch_state.as_ref().expect("epoch just ensured");
        let t = Instant::now();
        let bytes = snapshot::write_snapshot_bytes(
            self.epoch,
            self.tuples,
            &self.partitioning,
            &state.tree_thresholds,
            &state.clusters,
            &self.pool,
        )?;
        crate::metrics::record_encode(t, bytes.len());
        Ok(bytes)
    }

    /// Resumes an engine from a [`DarEngine::snapshot`], routing on the
    /// header. Snapshots sealed by `dar-durable` (a trailing checksum
    /// footer) are verified and unsealed first; unsealed ones restore as
    /// they are. `windowed` is whether the caller is configured for a
    /// window ring; a snapshot of the other kind is refused before
    /// anything is parsed. The window geometry comes from the ring header;
    /// `config` supplies everything else.
    ///
    /// An all-history snapshot's cluster summaries are installed as the
    /// current epoch (so queries before any further ingest answer exactly
    /// as the snapshotting engine would have) *and* inserted into a fresh
    /// forest as entries, so later ingest continues clustering from the
    /// summarized state. A ring's window sections are inserted as their
    /// windows' columns, oldest first, so WAL replay on top continues the
    /// same ring; its epoch is left open. As in any BIRCH-style restart
    /// from summaries, post-restore epochs see history at summary
    /// granularity rather than tuple granularity.
    ///
    /// # Errors
    /// Rejects a snapshot whose kind (windowed or all-history) differs
    /// from `windowed`, pre-v2 text snapshots (naming `dar migrate`),
    /// checksum-footer mismatches, window sections out of seq order, and
    /// malformed snapshots of either kind.
    pub fn restore(bytes: &[u8], config: EngineConfig, windowed: bool) -> Result<Self, CoreError> {
        let body = dar_durable::unseal_bytes(bytes)
            .map_err(|detail| CoreError::LayoutMismatch(format!("snapshot footer: {detail}")))?
            .0;
        let ring_snapshot = body.starts_with(b"dar-stream v");
        if ring_snapshot && !body.starts_with(RING_V2_TAG.as_bytes()) {
            return Err(CoreError::LayoutMismatch(format!(
                "not a dar-stream v2 ring snapshot; {MIGRATE_HINT}"
            )));
        }
        if ring_snapshot != windowed {
            let kind = |w: bool| if w { "windowed" } else { "static" };
            return Err(CoreError::LayoutMismatch(format!(
                "snapshot is a {} engine but the engine is configured {} — \
                 match --window-batches to the snapshot",
                kind(ring_snapshot),
                kind(windowed),
            )));
        }
        let pool = dar_par::ThreadPool::resolve(config.threads);
        let t = Instant::now();
        if ring_snapshot {
            let (header, snaps) = snapshot::parse_ring_bytes(body, &pool)?;
            crate::metrics::record_decode(t, body.len());
            let forest = restore_forest(&snaps, &config, "window section", true)?;
            let windows = snaps.iter().map(|snap| (snap.epoch, snap.tuples)).collect();
            let spec =
                WindowSpec { batches: header.spec.batches.max(1), slots: header.spec.slots.max(1) };
            let ring = WindowRing::resume(spec, windows, header.open_batches);
            let engine = Self::with_forest(forest, ring.live_tuples(), header.epoch, config);
            return Ok(engine.with_ring(ring));
        }
        let snap = snapshot::parse_snapshot_bytes(body, &pool)?;
        crate::metrics::record_decode(t, body.len());
        let forest = restore_forest(std::slice::from_ref(&snap), &config, "snapshot", false)?;
        let s0 = ((config.min_support_frac * snap.tuples as f64).ceil() as u64).max(1);
        let mut engine = Self::with_forest(forest, snap.tuples, snap.epoch, config);
        engine.stats.epochs = 1;
        engine.epoch_state = Some(EpochState::new(snap.clusters, snap.thresholds, s0));
        Ok(engine)
    }

    /// Builds a coordinator engine from one parsed snapshot per shard — the
    /// distributed analogue of [`DarEngine::restore`], justified by ACF
    /// additivity (Theorem 6.1): a cluster feature summarizing a set of
    /// tuples is exactly the entry-wise sum over any partition of that set,
    /// so merging per-shard forests by inserting each shard's finished
    /// clusters into one fresh forest loses nothing the single-engine scan
    /// would have kept at the same summary granularity.
    ///
    /// `snaps` are parsed shard snapshots in shard order (shard order is
    /// part of the deterministic contract: insertion order shapes tree
    /// splits, so the coordinator must always merge in the same order).
    /// The coordinator caches them against their ingest watermarks, so a
    /// re-merge skips both the wire pull and the parse. The snapshots are
    /// only borrowed (owned or by reference), so each cluster summary is
    /// copied once, into the merged forest. `epoch_base` is the
    /// coordinator's merge-round number: the merged engine starts with
    /// `epoch() == epoch_base` and an *open* epoch, so the first query
    /// closes `epoch_base + 1` — mirroring a single engine whose matching
    /// ingest round has just finished.
    ///
    /// # Errors
    /// Rejects an empty `snaps` slice, and partitionings or threshold
    /// arities that differ across shards.
    pub fn merge_parsed_snapshots<S: Borrow<Snapshot>>(
        snaps: impl AsRef<[S]>,
        epoch_base: u64,
        config: EngineConfig,
    ) -> Result<Self, CoreError> {
        let snaps = snaps.as_ref();
        let forest = restore_forest(snaps, &config, "shard snapshot", false)?;
        let tuples = snaps.iter().map(|snap| snap.borrow().tuples).sum();
        Ok(Self::with_forest(forest, tuples, epoch_base, config))
    }

    /// Tree `set` of the live Phase I forest, read-only: its entries with
    /// their window columns, and its invariant check.
    pub fn tree(&self, set: usize) -> &AcfTree {
        self.forest.tree(set)
    }

    /// Cumulative engine statistics (forest rebuild count and retained
    /// `assoc` bytes sampled live).
    pub fn stats(&self) -> EngineStats {
        let assoc_bytes = self.epoch_state.as_ref().map_or(0, |state| {
            state.cache.values().map(|artifacts| artifacts.assoc_bytes() as u64).sum()
        });
        EngineStats {
            forest_rebuilds: self.forest.stats().total_rebuilds(),
            assoc_bytes,
            ..self.stats.clone()
        }
    }

    /// Tuples ingested over the engine's lifetime (including snapshot
    /// replays).
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// The current epoch number (0 until the first epoch closes).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The partitioning this engine mines under.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The cluster summaries of the current epoch, closing it if needed.
    pub fn clusters(&mut self) -> &[ClusterSummary] {
        self.ensure_epoch();
        &self.epoch_state.as_ref().expect("epoch just ensured").clusters
    }
}

/// The forest every restore stands up from parsed snapshots: the static
/// restore (one snapshot), a coordinator merge (one per shard) and a ring
/// restore (one per window). The snapshots must share a partitioning and
/// threshold arity; the trees start at the element-wise maximum of their
/// thresholds, since each is the radius its leaf entries are known to
/// satisfy and re-inserting under a smaller one could split what a
/// snapshot had already absorbed. Each cluster goes in as an entry or,
/// with `columns`, as window `snap.epoch`'s column. `what` names a
/// snapshot in errors.
fn restore_forest<S: Borrow<Snapshot>>(
    snaps: &[S],
    config: &EngineConfig,
    what: &str,
    columns: bool,
) -> Result<AcfForest, CoreError> {
    let Some(first) = snaps.first().map(Borrow::borrow) else {
        return Err(CoreError::LayoutMismatch(format!("no {what} to restore from")));
    };
    let mut thresholds = first.thresholds.clone();
    for (i, snap) in snaps.iter().map(Borrow::borrow).enumerate() {
        if snap.partitioning != first.partitioning {
            return Err(CoreError::InvalidPartitioning(format!(
                "{what} {i} was built under a different partitioning"
            )));
        }
        if snap.thresholds.len() != thresholds.len() {
            return Err(CoreError::LayoutMismatch(format!(
                "{what} {i} has {} thresholds, expected {}",
                snap.thresholds.len(),
                thresholds.len()
            )));
        }
        for (t, s) in thresholds.iter_mut().zip(&snap.thresholds) {
            *t = t.max(*s);
        }
    }
    let mut forest =
        AcfForest::with_initial_thresholds(first.partitioning.clone(), &config.birch, &thresholds);
    for snap in snaps.iter().map(Borrow::borrow) {
        for c in &snap.clusters {
            if columns {
                forest.insert_column(c.set, snap.epoch, c.acf.clone());
            } else {
                forest.insert_entry(c.set, c.acf.clone());
            }
        }
    }
    Ok(forest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_core::{Metric, Schema};
    use mining::DensitySpec;

    fn block_rows(n: usize, offset: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let jitter = ((i + offset) % 7) as f64 * 0.01;
                if (i + offset).is_multiple_of(2) {
                    vec![jitter, 100.0 + jitter]
                } else {
                    vec![50.0 + jitter, 200.0 + jitter]
                }
            })
            .collect()
    }

    fn engine() -> DarEngine {
        let schema = Schema::interval_attrs(2);
        let partitioning = Partitioning::per_attribute(&schema, Metric::Euclidean);
        let mut config = EngineConfig::default();
        config.birch.initial_threshold = 1.0;
        config.birch.memory_budget = usize::MAX;
        config.min_support_frac = 0.2;
        DarEngine::new(partitioning, config).unwrap()
    }

    #[test]
    fn ingest_accumulates_and_invalidates() {
        let mut e = engine();
        e.ingest(&block_rows(40, 0)).unwrap();
        assert_eq!(e.tuples(), 40);
        let q = RuleQuery::default();
        let first = e.query(&q).unwrap();
        assert_eq!(first.epoch, 1);
        assert!(!first.cached);
        // Same density → cached.
        assert!(e.query(&q).unwrap().cached);
        // Ingest closes the next epoch; the cache is gone.
        e.ingest(&block_rows(40, 1)).unwrap();
        let after = e.query(&q).unwrap();
        assert_eq!(after.epoch, 2);
        assert!(!after.cached);
        let stats = e.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.epochs, 2);
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 2);
    }

    #[test]
    fn distinct_density_settings_get_distinct_cache_entries() {
        let mut e = engine();
        e.ingest(&block_rows(60, 0)).unwrap();
        let a = e.query(&RuleQuery::default()).unwrap();
        assert!(!a.cached);
        let b = e
            .query(&RuleQuery {
                density: DensitySpec::Auto { factor: 3.0 },
                ..RuleQuery::default()
            })
            .unwrap();
        assert!(!b.cached, "different density factor → different graph");
        // Re-tuning only D0 at either density setting hits the cache.
        let c = e.query(&RuleQuery { degree_factor: 0.5, ..RuleQuery::default() }).unwrap();
        assert!(c.cached);
        assert!(c.rules.len() <= a.rules.len(), "tighter D0 cannot add rules");
    }

    #[test]
    fn explicit_density_arity_is_rejected() {
        let mut e = engine();
        e.ingest(&block_rows(10, 0)).unwrap();
        let bad = RuleQuery { density: DensitySpec::Explicit(vec![1.0]), ..RuleQuery::default() };
        assert!(e.query(&bad).is_err());
    }

    #[test]
    fn new_rejects_wrong_threshold_arity() {
        let schema = Schema::interval_attrs(2);
        let partitioning = Partitioning::per_attribute(&schema, Metric::Euclidean);
        let config =
            EngineConfig { initial_thresholds: Some(vec![1.0]), ..EngineConfig::default() };
        assert!(DarEngine::new(partitioning, config).is_err());
    }

    #[test]
    fn ranked_queries_thread_the_knobs_through() {
        let mut e = engine();
        e.ingest(&block_rows(60, 0)).unwrap();
        let exact = e.query(&RuleQuery::default()).unwrap();
        assert!(!exact.rules.is_empty());
        assert_eq!(exact.measure, Measure::Degree);
        assert_eq!(exact.values.len(), exact.rules.len());
        assert!(exact.coverage.is_none(), "exact answers carry no coverage");
        for (r, v) in exact.rules.iter().zip(&exact.values) {
            assert_eq!(r.degree, *v, "degree values are the degrees themselves");
        }
        // Re-asking with identical knobs reproduces the answer (rank
        // cache hit on the second ask).
        let again = e.query(&RuleQuery::default()).unwrap();
        assert_eq!(again.rules, exact.rules);
        assert_eq!(again.values, exact.values);
        // top_k keeps the best-ranked prefix; the bound-and-skip search
        // scores at most the exhaustive rule count.
        let top = e.query(&RuleQuery { top_k: 1, ..RuleQuery::default() }).unwrap();
        assert_eq!(top.rules.len(), 1);
        assert_eq!(top.rules[0], exact.rules[0]);
        assert!(top.rules_in <= exact.rules.len());
        // Re-ranking by lift permutes, never invents or loses, rules.
        let lift = e.query(&RuleQuery { measure: Measure::Lift, ..RuleQuery::default() }).unwrap();
        assert_eq!(lift.measure, Measure::Lift);
        let mut relifted = lift.rules.to_vec();
        mining::sort_rules(&mut relifted);
        assert_eq!(relifted, exact.rules);
    }

    #[test]
    fn rank_cache_is_bounded_least_recently_used() {
        let mut e = engine();
        e.ingest(&block_rows(60, 0)).unwrap();
        let knobs =
            |i: usize| RuleQuery { degree_factor: 1.5 + i as f64 / 64.0, ..RuleQuery::default() };
        let hot_query = RuleQuery::default();
        let hot = e.query(&hot_query).unwrap();
        let first = e.query(&knobs(0)).unwrap();
        assert!(!hot.rules.is_empty() && !first.rules.is_empty(), "pointers need rules");
        let cache_len = |e: &DarEngine| {
            e.epoch_state.as_ref().unwrap().rank_cache.lock().unwrap().entries.len()
        };
        for i in 1..200 {
            e.query(&knobs(i)).unwrap();
            assert!(cache_len(&e) <= RANK_CACHE_CAPACITY, "{} entries", cache_len(&e));
            if i % 10 == 0 {
                // A hit shares the cached rules; a re-rank would allocate.
                let again = e.query(&hot_query).unwrap();
                assert_eq!(again.rules.as_ptr(), hot.rules.as_ptr(), "hot set evicted at {i}");
            }
        }
        assert_eq!(cache_len(&e), RANK_CACHE_CAPACITY);
        // The first cold set was evicted long ago: it is ranked afresh, to
        // the same rules and values.
        let reranked = e.query(&knobs(0)).unwrap();
        assert_ne!(reranked.rules.as_ptr(), first.rules.as_ptr(), "evicted set still cached");
        assert_eq!(reranked.rules, first.rules);
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&reranked.values), bits(&first.values));
    }

    #[test]
    fn anytime_answers_carry_honest_coverage_and_converge() {
        let mut e = engine();
        e.ingest(&block_rows(60, 0)).unwrap();
        let exact = e.query(&RuleQuery::default()).unwrap();
        // A generous budget sees every clique pair: coverage 1.0, not
        // truncated, and the rules equal the exact answer.
        let full = e.query(&RuleQuery { budget_ms: 60_000, ..RuleQuery::default() }).unwrap();
        assert_eq!(full.coverage, Some(1.0));
        assert!(!full.truncated);
        assert_eq!(full.rules, exact.rules);
    }

    #[test]
    fn query_before_any_ingest_is_empty_not_a_crash() {
        let mut e = engine();
        let out = e.query(&RuleQuery::default()).unwrap();
        assert!(out.rules.is_empty());
        assert_eq!(out.s0, 1);
    }

    /// Rows with dyadic jitter (0.25 steps): fp sums are exact in any
    /// grouping, so shard merges match the single scan to the bit.
    fn dyadic_rows(n: usize, offset: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let jitter = ((i + offset) % 4) as f64 * 0.25;
                if (i + offset).is_multiple_of(2) {
                    vec![jitter, 100.0 + jitter]
                } else {
                    vec![50.0 + jitter, 200.0 + jitter]
                }
            })
            .collect()
    }

    /// `e`'s snapshot, parsed back: what a coordinator merges.
    fn parsed_snapshot(e: &mut DarEngine) -> snapshot::Snapshot {
        snapshot::parse_snapshot_bytes(&e.snapshot().unwrap(), &dar_par::ThreadPool::serial())
            .unwrap()
    }

    #[test]
    fn merge_parsed_snapshots_matches_single_engine() {
        // Control: one engine sees all rows in one round.
        let mut control = engine();
        let all: Vec<Vec<f64>> = dyadic_rows(30, 0).into_iter().chain(dyadic_rows(30, 1)).collect();
        control.ingest(&all).unwrap();
        let expected = control.query(&RuleQuery::default()).unwrap();

        // Two shards split the same rows, snapshot, merge.
        let mut a = engine();
        a.ingest(&dyadic_rows(30, 0)).unwrap();
        let mut b = engine();
        b.ingest(&dyadic_rows(30, 1)).unwrap();
        let snaps = vec![parsed_snapshot(&mut a), parsed_snapshot(&mut b)];
        let config = control.config().clone();
        let mut merged = DarEngine::merge_parsed_snapshots(&snaps, 0, config).unwrap();

        assert_eq!(merged.tuples(), 60);
        assert_eq!(merged.epoch(), 0, "epoch_base installs verbatim");
        let got = merged.query(&RuleQuery::default()).unwrap();
        assert_eq!(got.epoch, 1, "first query closes epoch_base + 1");
        assert_eq!(got.s0, expected.s0, "s0 reflects the summed tuple count");
        assert_eq!(got.rules, expected.rules, "well-separated dyadic blocks merge losslessly");
    }

    #[test]
    fn merge_parsed_snapshots_rejects_empty_and_mismatched_shards() {
        let none: [snapshot::Snapshot; 0] = [];
        assert!(DarEngine::merge_parsed_snapshots(none, 0, EngineConfig::default()).is_err());

        let mut two_attr = engine();
        two_attr.ingest(&dyadic_rows(10, 0)).unwrap();
        let schema = Schema::interval_attrs(3);
        let partitioning = Partitioning::per_attribute(&schema, Metric::Euclidean);
        let mut config = EngineConfig::default();
        config.birch.initial_threshold = 1.0;
        config.min_support_frac = 0.2;
        let mut three_attr = DarEngine::new(partitioning, config.clone()).unwrap();
        three_attr.ingest(&vec![vec![0.0, 1.0, 2.0]; 10]).unwrap();
        let snaps = vec![parsed_snapshot(&mut two_attr), parsed_snapshot(&mut three_attr)];
        match DarEngine::merge_parsed_snapshots(&snaps, 0, config) {
            Err(CoreError::InvalidPartitioning(_)) => {}
            Err(other) => panic!("expected InvalidPartitioning, got {other:?}"),
            Ok(_) => panic!("mismatched partitionings must not merge"),
        }
    }

    #[test]
    fn merge_parsed_snapshots_takes_elementwise_max_thresholds() {
        // Shard B's forest grew a larger threshold by absorbing a wide
        // spread; the merged forest must not shrink below it.
        let mut a = engine();
        a.ingest(&dyadic_rows(20, 0)).unwrap();
        let mut b = engine();
        let spread: Vec<Vec<f64>> =
            (0..200).map(|i| vec![(i % 40) as f64 * 5.0, 100.0 + (i % 17) as f64 * 7.0]).collect();
        b.ingest(&spread).unwrap();
        let snaps = vec![parsed_snapshot(&mut a), parsed_snapshot(&mut b)];
        let merged = DarEngine::merge_parsed_snapshots(&snaps, 3, a.config().clone()).unwrap();
        assert_eq!(merged.epoch(), 3);
        assert_eq!(merged.tuples(), 220);
        let merged_t = merged.forest.thresholds();
        let bt = b.forest.thresholds();
        for (m, t) in merged_t.iter().zip(&bt) {
            assert!(m >= t, "merged threshold {m} below shard threshold {t}");
        }
    }

    /// Every counter of [`EngineStats`] except the timings.
    fn counters(s: &EngineStats) -> [u64; 9] {
        [
            s.tuples_ingested,
            s.batches,
            s.rejected_batches,
            s.epochs,
            s.wal_batches_replayed,
            s.forest_rebuilds as u64,
            s.queries,
            s.cache_hits,
            s.cache_misses,
        ]
    }

    #[test]
    fn retire_through_leaves_the_state_with_forest_builds() {
        // Jittered by 0.01, so totals are real-valued sums: both engines
        // must hold the very same folds of the live column.
        let (retired_rows, live_rows) = (block_rows(30, 0), block_rows(50, 3));
        let q = RuleQuery::default();
        let windowed = |e: &mut DarEngine| {
            e.forest.open_window(0);
            e.ingest(&retired_rows).unwrap();
            e.forest.open_window(1);
            e.ingest(&live_rows).unwrap();
        };

        // In place: the engine ingested both windows and answered a query
        // (so its epoch and counters are not the defaults), then retires the
        // first window.
        let mut in_place = engine();
        windowed(&mut in_place);
        in_place.query(&q).unwrap();
        let epoch_base = in_place.epoch();
        in_place.retire_through(0, 50);

        // Rebuilt: the same retired forest, stood up by `with_forest`.
        let mut source = engine();
        windowed(&mut source);
        let mut forest = source.forest;
        forest.retire_through(0);
        let mut rebuilt = DarEngine::with_forest(forest, 50, epoch_base, source.config);

        // Only the live window's rows are left: the very clusters a
        // static engine fed just those rows extracts, up to their order.
        let mut live_only = engine();
        live_only.ingest(&live_rows).unwrap();
        let sorted = |e: &DarEngine| {
            let mut per_set = e.forest.extract_clusters();
            for clusters in &mut per_set {
                clusters.sort_by(|a, b| {
                    a.home_cf().linear_sum()[0].total_cmp(&b.home_cf().linear_sum()[0])
                });
            }
            per_set
        };
        assert_eq!(sorted(&in_place), sorted(&live_only));
        assert_eq!(in_place.forest.extract_clusters(), rebuilt.forest.extract_clusters());
        assert_eq!(in_place.forest.thresholds(), rebuilt.forest.thresholds());
        for round in ["first query", "repeat"] {
            assert_eq!(in_place.epoch(), rebuilt.epoch(), "{round}: epoch");
            assert_eq!(in_place.tuples(), rebuilt.tuples(), "{round}: tuples");
            assert_eq!(counters(&in_place.stats()), counters(&rebuilt.stats()), "{round}: stats");
            let (a, b) = (in_place.query(&q).unwrap(), rebuilt.query(&q).unwrap());
            assert!(!a.rules.is_empty(), "{round}: the live window still mines rules");
            assert_eq!(a.rules, b.rules, "{round}: rules");
            assert_eq!(a.values, b.values, "{round}: measure values");
            assert_eq!(
                (a.epoch, a.s0, a.cached, a.truncated, a.rules_in, a.pruned),
                (b.epoch, b.s0, b.cached, b.truncated, b.rules_in, b.pruned),
                "{round}: answer header"
            );
        }
        assert_eq!(in_place.epoch(), epoch_base + 1, "the first query closed a fresh epoch");
        assert_eq!(counters(&in_place.stats()), counters(&rebuilt.stats()), "final stats");
    }

    /// A ring header claiming a trillion windows, followed by one section
    /// line: too few bytes for the claim, so restore must refuse before
    /// sizing anything by it.
    #[test]
    fn v2_ring_header_with_an_impossible_window_count_is_refused() {
        let oversized = b"dar-stream v2 epoch=1 open_batches=0 policy=subtract window_batches=1 \
             slots=1 windows=1000000000000\nwindow seq=0 bytes=0\n";
        let err = DarEngine::restore(oversized, EngineConfig::default(), true).err();
        assert!(
            matches!(&err, Some(CoreError::LayoutMismatch(m)) if m.contains("1000000000000 windows")),
            "{err:?}"
        );
    }

    /// Any ring version but v2 — the v1 text rings `dar migrate` converts,
    /// or an unknown one — is refused naming the migration, whichever kind
    /// of engine the caller configured.
    #[test]
    fn non_v2_ring_snapshots_are_refused_naming_migrate() {
        let old = b"dar-stream v0 epoch=1 open_batches=0 policy=subtract window_batches=1 \
             slots=1 windows=1\nwindow seq=0 lines=0\n";
        for windowed in [true, false] {
            let err = DarEngine::restore(old, EngineConfig::default(), windowed).err();
            assert!(
                matches!(&err, Some(CoreError::LayoutMismatch(m)) if m.contains("dar migrate")),
                "{err:?}"
            );
        }
    }
}
