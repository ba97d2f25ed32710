//! DAR generation from cliques (Section 6.2, Definitions 5.1–5.3).
//!
//! For a pair of cliques `Q1`, `Q2`, each consequent cluster `C_Yj ∈ Q2`
//! gets an association set
//! `assoc(C_Yj) = { C_Xi ∈ Q1 : D(C_Yj[Yj], C_Xi[Yj]) ≤ D0_Yj }`; every
//! non-empty `C_X' ⊆ ∩_j assoc(C_Yj)` with attribute sets disjoint from the
//! consequent's yields the DAR `C_X' ⇒ C_Y'`. Clique membership supplies
//! the mutual-closeness conditions among antecedent clusters and among
//! consequent clusters (the 2nd and 3rd conditions of Dfn 5.3), since all
//! clique members are pairwise adjacent in the clustering graph.

use crate::assoc::AssocDistances;
use crate::graph::{ClusterDistance, ClusteringGraph};
use dar_par::ThreadPool;
use std::ops::ControlFlow;

/// Configuration of rule generation.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleConfig {
    /// The inter-cluster distance `D` (should match the graph's).
    pub metric: ClusterDistance,
    /// Per-set degree-of-association thresholds `D0` — the strength the
    /// consequent's projections must be matched with (Dfn 5.1), on the
    /// consequent set's own scale.
    pub degree_thresholds: Vec<f64>,
    /// Maximum clusters in an antecedent.
    pub max_antecedent: usize,
    /// Maximum clusters in a consequent.
    pub max_consequent: usize,
    /// Stop after this many distinct rules (0 = unbounded).
    pub max_rules: usize,
    /// Hard budget on clique-pair × consequent-subset combinations
    /// examined (0 = unbounded). "This process is repeated for all pairs
    /// of cliques" is quadratic in the clique count; on degenerate graphs
    /// with very many cliques this cap keeps Phase II bounded.
    pub max_pair_work: u64,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
            metric: ClusterDistance::D2,
            degree_thresholds: Vec::new(),
            max_antecedent: 3,
            max_consequent: 2,
            max_rules: 100_000,
            max_pair_work: 10_000_000,
        }
    }
}

/// A distance-based association rule over graph nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Dar {
    /// Antecedent cluster indices (into the graph's cluster slice), sorted.
    pub antecedent: Vec<usize>,
    /// Consequent cluster indices, sorted.
    pub consequent: Vec<usize>,
    /// Normalized degree of association: the worst (largest)
    /// `D(C_Yj[Yj], C_Xi[Yj]) / D0_Yj` over all antecedent–consequent
    /// pairs. Always ≤ 1 for emitted rules; lower is stronger.
    pub degree: f64,
    /// Smallest member-cluster support — a lower-bound proxy for how much
    /// data backs the rule (exact rule frequency needs the optional rescan,
    /// Section 6.2).
    pub min_cluster_support: u64,
}

/// Generates all DARs from the cliques of a clustering graph.
///
/// `cliques` is the output of
/// [`maximal_cliques`](crate::clique::maximal_cliques) over the same graph.
/// Returns rules sorted by (degree, antecedent, consequent); duplicates
/// arising from overlapping cliques are emitted once.
pub fn generate_dars(
    graph: &ClusteringGraph,
    cliques: &[Vec<usize>],
    config: &RuleConfig,
) -> Vec<Dar> {
    generate_dars_capped(graph, cliques, config).0
}

/// Like [`generate_dars`], additionally reporting whether the
/// `max_rules` / `max_pair_work` budgets truncated the enumeration.
pub fn generate_dars_capped(
    graph: &ClusteringGraph,
    cliques: &[Vec<usize>],
    config: &RuleConfig,
) -> (Vec<Dar>, bool) {
    generate_dars_capped_pooled(graph, cliques, config, &ThreadPool::serial())
}

/// [`generate_dars_capped`] parallelized over consequent cliques on the
/// `dar-par` pool. Output is byte-identical to the serial path at every
/// worker count (the serial entry point *is* this function with a serial
/// pool — there is no twin implementation to drift). The `assoc`
/// distances are evaluated afresh on `pool` ([`AssocDistances::build`]),
/// unless the query cannot yield a rule.
///
/// The serial enumeration walks `Q2` (the task), then `Q1`, then `Q2`'s
/// consequent subsets, then the antecedents of each `(Q1, consequent)`
/// triple, and keeps the first occurrence of every rule:
///
/// - The triple count per `Q2` (`|consequent subsets| × |cliques|`) is
///   data-independent, so the `max_pair_work` cutoff is reproduced exactly
///   from prefix offsets (saturating binomial counts, never an
///   enumeration): task `i` examines at most `max_pair_work − offsetᵢ`
///   triples.
/// - Each task emits only the first occurrences ([`RuleKernel`] says which
///   occurrences those are, without a seen-set), so no rule appears twice
///   across tasks and the merge is a concatenation in `Q2` order, cut at
///   `max_rules`.
/// - A task stops once it holds `max_rules` rules: the merge never takes
///   more than that from one task.
pub fn generate_dars_capped_pooled(
    graph: &ClusteringGraph,
    cliques: &[Vec<usize>],
    config: &RuleConfig,
    pool: &ThreadPool,
) -> (Vec<Dar>, bool) {
    let distances =
        needs_assoc(config, cliques).then(|| AssocDistances::build(graph, config.metric, pool));
    RuleKernel::new(graph, cliques, config, distances.as_ref()).generate(pool)
}

/// Whether a query can yield any rule, and so needs its `assoc` distances:
/// both arity caps are positive and there is a clique.
pub(crate) fn needs_assoc(config: &RuleConfig, cliques: &[Vec<usize>]) -> bool {
    config.max_antecedent > 0 && config.max_consequent > 0 && !cliques.is_empty()
}

/// The rule-generation kernel of one query: its `assoc` sets as bitset
/// rows, plus the walk over clique pairs that turns them into rules. The
/// exact generator ([`generate_dars_capped_pooled`]), and the top-k search
/// and the anytime sampler in `dar-rank`, all enumerate through it.
///
/// Row `y` has bit `x` set iff `set(x) ≠ set(y)` and
/// `D(C_y[set(y)], C_x[set(y)]) ≤ D0[set(y)]`. The distances come from an
/// [`AssocDistances`] matrix, evaluated once per artifact set (or once per
/// one-shot call), so building the rows is one comparison per pair. A
/// pair's ratio `D / D0` is computed when a rule's degree reads it. A
/// triple `(Q1, S)` then has candidates `Q1 ∩ ⋂_{y∈S} assoc(y)`, and every
/// non-empty subset of them up to `max_antecedent` members is an
/// antecedent.
///
/// The walk has two steps. The *scan* enumerates consequents lazily, depth
/// first, members ascending; a consequent prefix with no candidates ends
/// its subtree, which is charged to the work budget by count. Every
/// productive triple it reaches is a [`Triple`]. *Emission* ([`Emitter`])
/// enumerates one triple's antecedents, depth first, members ascending.
///
/// In the exact walk, a rule `(A, S)` of task `Q2 = Qⱼ` at `Q1 = Q_q` is a
/// first occurrence iff no clique `Qᵢ` with `i < j` contains `S` and no
/// clique `Q_p` with `p < q` contains `A`. The triple `(Q_p, S)` yields the
/// same rule (a candidate's membership depends on it and on `S` alone)
/// earlier in the same task. A task `i < j` enumerates `S` too, and when
/// task `j`'s copy is inside its budget `M − offsetⱼ`, task `i` is
/// entirely inside `M − offsetᵢ`, because
/// `offsetⱼ ≥ offsetᵢ + |subsets(Qᵢ)|·|cliques|`. So a skipped rule always
/// occurred earlier, and dropping it changes neither the merged order nor
/// where `max_rules` cuts it. The scan applies the first test and emission
/// the second. Both depend on the triple alone, so the scan's triples may
/// be emitted in any order and each rule still comes out exactly once.
pub struct RuleKernel<'a> {
    graph: &'a ClusteringGraph,
    config: &'a RuleConfig,
    /// Clique members, ascending.
    cliques: Vec<Vec<usize>>,
    /// Words per node bitset.
    words: usize,
    /// One `assoc` row per node; empty when no rule is possible.
    assoc: Vec<u64>,
    /// The `assoc` distances; `None` when no rule is possible.
    distances: Option<&'a AssocDistances>,
    /// `D0` of each node's attribute set; empty when no rule is possible.
    d0: Vec<f64>,
    /// One node bitset per clique.
    members: Vec<u64>,
    /// Per clique `Q`: `⋃_{y∈Q} assoc(y)`, the nodes any consequent drawn
    /// from `Q` can have as a candidate.
    reach: Vec<u64>,
    /// Words per clique bitset.
    cwords: usize,
    /// Node `x`'s row: the cliques containing `x`, for the
    /// first-occurrence tests.
    containing: Vec<u64>,
    /// Members of the largest clique.
    largest: usize,
    /// Consequent subsets per clique size.
    counts: SubsetCounts,
    /// Antecedent subsets per candidate count.
    ant_counts: SubsetCounts,
}

impl<'a> RuleKernel<'a> {
    /// Builds the `assoc` rows from `distances`, serially: one comparison
    /// against `D0` per pair.
    ///
    /// # Panics
    /// When the query can yield a rule (both arity caps are positive and
    /// there is a clique) and `distances` is `None`, covers other nodes
    /// than the graph's, or was evaluated under another metric than
    /// `config.metric`.
    pub fn new(
        graph: &'a ClusteringGraph,
        cliques: &[Vec<usize>],
        config: &'a RuleConfig,
        distances: Option<&'a AssocDistances>,
    ) -> Self {
        let clusters = graph.clusters();
        let (nodes, words) = (graph.len(), graph.len().div_ceil(64));
        let cliques: Vec<Vec<usize>> = cliques
            .iter()
            .map(|q| {
                let mut q = q.clone();
                q.sort_unstable();
                q
            })
            .collect();
        let distances = needs_assoc(config, &cliques).then(|| {
            let distances = distances.expect("a query that can yield rules needs its distances");
            assert_eq!(distances.len(), nodes, "assoc distances of another graph");
            assert_eq!(distances.metric(), config.metric, "assoc distances of another metric");
            distances
        });
        let (mut assoc, mut d0) = (Vec::new(), Vec::new());
        if let Some(distances) = distances {
            d0 = clusters.iter().map(|c| config.degree_thresholds[c.set]).collect();
            assoc = vec![0u64; nodes * words];
            for (y, bits) in assoc.chunks_mut(words.max(1)).enumerate() {
                for (x, &d) in distances.row(y).iter().enumerate() {
                    // Same-set entries are NaN and never pass.
                    if d <= d0[y] {
                        bits[x / 64] |= 1 << (x % 64);
                    }
                }
            }
        }
        let mut members = vec![0u64; cliques.len() * words];
        for (row, clique) in members.chunks_mut(words.max(1)).zip(&cliques) {
            for &x in clique {
                row[x / 64] |= 1 << (x % 64);
            }
        }
        let mut reach = vec![0u64; if assoc.is_empty() { 0 } else { cliques.len() * words }];
        for (row, clique) in reach.chunks_mut(words.max(1)).zip(&cliques) {
            for &y in clique {
                for (r, &a) in row.iter_mut().zip(&assoc[y * words..(y + 1) * words]) {
                    *r |= a;
                }
            }
        }
        let cwords = cliques.len().div_ceil(64);
        let mut containing = vec![0u64; nodes * cwords];
        for (q, clique) in cliques.iter().enumerate() {
            for &x in clique {
                containing[x * cwords + q / 64] |= 1 << (q % 64);
            }
        }
        let largest = cliques.iter().map(Vec::len).max().unwrap_or(0);
        RuleKernel {
            graph,
            config,
            cliques,
            words,
            assoc,
            distances,
            d0,
            members,
            reach,
            cwords,
            containing,
            largest,
            counts: SubsetCounts::new(largest, config.max_consequent),
            ant_counts: SubsetCounts::new(largest, config.max_antecedent),
        }
    }

    /// A walker over single clique pairs, with no work budget and no
    /// deduplication across pairs (the anytime sampler's unit).
    pub fn walker(&self) -> Walker<'_, 'a> {
        Walker { scan: Scanner::new(self, u64::MAX, None), emitter: Emitter::new(self, false) }
    }

    /// An emitter for the exact walk's triples: it keeps each rule only at
    /// its first occurrence.
    pub fn emitter(&self) -> Emitter<'_, 'a> {
        Emitter::new(self, true)
    }

    /// `D / D0` of consequent `y` and candidate `x` (infinite when
    /// `D0 = 0`), as the rules' degrees fold it. Meaningful only where `x`
    /// is in `assoc(y)`.
    pub fn ratio(&self, y: usize, x: usize) -> f64 {
        let (d, d0) = (self.distances.expect("x is in assoc(y)").get(y, x), self.d0[y]);
        if d0 > 0.0 {
            d / d0
        } else {
            f64::INFINITY
        }
    }

    /// The exact, budgeted enumeration: one task per consequent clique,
    /// each emitting its triples as it scans them, merged in order (see
    /// [`generate_dars_capped_pooled`]).
    pub fn generate(&self, pool: &ThreadPool) -> (Vec<Dar>, bool) {
        let config = self.config;
        let (budgets, mut truncated) = self.budgets();
        let tasks = pool.map_indexed("rule_gen", self.cliques.len(), 1, |q2| {
            let mut emitter = self.emitter();
            let mut out: Vec<Dar> = Vec::new();
            self.scan_task(q2, budgets[q2], &mut |triple| {
                emitter.emit(triple, &mut |dar| {
                    out.push(dar);
                    if config.max_rules != 0 && out.len() >= config.max_rules {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                })
            });
            out
        });

        let mut rules: Vec<Dar> = tasks.into_iter().flatten().collect();
        if config.max_rules != 0 && rules.len() >= config.max_rules {
            rules.truncate(config.max_rules);
            truncated = true;
        }
        sort_rules(&mut rules);
        (rules, truncated)
    }

    /// The exact walk's scan without emission: every productive triple,
    /// mapped by `record` on the pool, in scan order.
    ///
    /// Each triple can yield at most its antecedent-subset count of rules,
    /// so when those counts sum below `max_rules` the cap cannot bind and
    /// any emission order gives the exact answer. Otherwise the scan
    /// reports no triples (a task stops recording once its own count
    /// reaches the cap).
    pub fn scan<T: Send>(
        &self,
        pool: &ThreadPool,
        record: impl Fn(Triple<'_>) -> T + Sync,
    ) -> Scan<T> {
        let (budgets, truncated) = self.budgets();
        let (cap, max_ant) = (self.config.max_rules as u64, self.config.max_antecedent);
        let tasks = pool.map_indexed("rule_scan", self.cliques.len(), 1, |q2| {
            let (mut out, mut rules) = (Vec::new(), 0u64);
            self.scan_task(q2, budgets[q2], &mut |triple| {
                rules = rules.saturating_add(self.ant_counts.get(triple.candidates.len(), max_ant));
                out.push(record(triple));
                if cap != 0 && rules >= cap {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            (out, rules)
        });
        let rules = tasks.iter().fold(0u64, |sum, (_, rules)| sum.saturating_add(*rules));
        let triples = (cap == 0 || rules < cap)
            .then(|| tasks.into_iter().flat_map(|(triples, _)| triples).collect());
        Scan { triples, truncated }
    }

    /// Each task's share of `max_pair_work` (`u64::MAX` when unbounded)
    /// and whether the budget truncates the walk. The triple count per
    /// `Q2` (`|consequent subsets| × |cliques|`) is data-independent, so
    /// task `i` may examine `max_pair_work − offsetᵢ` triples.
    fn budgets(&self) -> (Vec<u64>, bool) {
        let (config, len) = (self.config, self.cliques.len());
        let mut budgets = Vec::with_capacity(len);
        let mut total_work: u64 = 0;
        for clique in &self.cliques {
            budgets.push(if config.max_pair_work == 0 {
                u64::MAX
            } else {
                config.max_pair_work.saturating_sub(total_work)
            });
            let subsets = self.counts.get(clique.len(), config.max_consequent);
            total_work = total_work.saturating_add(subsets.saturating_mul(len as u64));
        }
        (budgets, config.max_pair_work != 0 && total_work > config.max_pair_work)
    }

    /// Scans task `q2` of the exact walk (every `Q1`, in order) within
    /// `budget`, visiting its productive first-occurrence triples until
    /// `visit` asks to stop.
    ///
    /// Only the cliques meeting `reach(Q2)` can pair with `Q2`. Every other
    /// pair costs all of `Q2`'s consequent subsets and yields nothing, so
    /// the pairs between two partners are charged in one step: the budget
    /// left when the next partner is reached is the same.
    fn scan_task(
        &self,
        q2: usize,
        budget: u64,
        visit: &mut dyn FnMut(Triple<'_>) -> ControlFlow<()>,
    ) {
        if self.assoc.is_empty() {
            return;
        }
        let words = self.words;
        let mut partners = vec![0u64; self.cwords];
        for x in ones(&self.reach[q2 * words..(q2 + 1) * words]) {
            let row = &self.containing[x * self.cwords..(x + 1) * self.cwords];
            for (p, &c) in partners.iter_mut().zip(row) {
                *p |= c;
            }
        }
        let pair_cost = self.counts.get(self.cliques[q2].len(), self.config.max_consequent);
        let mut scan = Scanner::new(self, budget, Some(q2));
        let mut next = 0;
        for q1 in ones(&partners) {
            let skipped = pair_cost.saturating_mul((q1 - next) as u64);
            scan.budget = scan.budget.saturating_sub(skipped);
            if scan.pair(q1, q2, visit).is_break() {
                break;
            }
            next = q1 + 1;
        }
    }

    /// The candidates of the triple `(Q1 = clique q1, S)`, ascending, into
    /// `out`: what the scan visited it with.
    pub fn candidates_into(&self, q1: usize, consequent: &[usize], out: &mut Vec<usize>) {
        let words = self.words;
        let mut row = self.members[q1 * words..(q1 + 1) * words].to_vec();
        for &y in consequent {
            for (r, &a) in row.iter_mut().zip(self.assoc_row(y)) {
                *r &= a;
            }
        }
        out.clear();
        out.extend(ones(&row));
    }

    fn assoc_row(&self, y: usize) -> &[u64] {
        &self.assoc[y * self.words..(y + 1) * self.words]
    }
}

/// A productive triple of the walk: clique `Q1`, a consequent subset `S`
/// of `Q2`, and its candidates `Q1 ∩ ⋂_{y∈S} assoc(y)`, non-empty and
/// ascending.
#[derive(Debug, Clone, Copy)]
pub struct Triple<'t> {
    /// The antecedent clique's index.
    pub q1: usize,
    /// `S`, ascending.
    pub consequent: &'t [usize],
    /// The candidates, ascending.
    pub candidates: &'t [usize],
}

/// What [`RuleKernel::scan`] found.
#[derive(Debug)]
pub struct Scan<T> {
    /// The recorded triples in scan order, or `None` when `max_rules`
    /// could bind (the triples' antecedent-subset counts reach it).
    pub triples: Option<Vec<T>>,
    /// Whether `max_pair_work` truncated the walk.
    pub truncated: bool,
}

/// Enumerates the rules of single clique pairs through a [`RuleKernel`]:
/// a scan whose triples are emitted as they are found.
pub struct Walker<'k, 'a> {
    scan: Scanner<'k, 'a>,
    emitter: Emitter<'k, 'a>,
}

impl Walker<'_, '_> {
    /// Emits the rules of the pair (`Q1` = clique `q1`, `Q2` = clique
    /// `q2`) in enumeration order: consequent subsets of `Q2` depth first,
    /// each followed by its antecedents. Returns `Break` when `emit` asks
    /// to stop.
    pub fn pair(
        &mut self,
        q1: usize,
        q2: usize,
        emit: &mut dyn FnMut(Dar) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let emitter = &mut self.emitter;
        self.scan.pair(q1, q2, &mut |triple| emitter.emit(triple, emit))
    }
}

/// The consequent walk of clique pairs, reusing its scratch buffers from
/// pair to pair.
struct Scanner<'k, 'a> {
    kernel: &'k RuleKernel<'a>,
    /// Triples left to examine.
    budget: u64,
    /// The exact walk's consequent clique, for the first-occurrence test
    /// (`None`: every triple is visited).
    q2: Option<usize>,
    /// Candidate bitset per consequent depth; row 0 is `Q1`.
    rows: Vec<u64>,
    /// Per consequent depth: the cliques before `Q2` containing the prefix.
    cons_seen: Vec<u64>,
    cons: Vec<usize>,
    cand: Vec<usize>,
}

impl<'k, 'a> Scanner<'k, 'a> {
    fn new(kernel: &'k RuleKernel<'a>, budget: u64, q2: Option<usize>) -> Self {
        let depth = kernel.config.max_consequent.min(kernel.largest) + 1;
        let cwords = if q2.is_some() { kernel.cwords } else { 0 };
        let mut cons_seen = vec![0u64; depth * cwords];
        if let Some(q2) = q2 {
            prefix_mask(&mut cons_seen, q2);
        }
        Scanner {
            kernel,
            budget,
            q2,
            rows: vec![0; depth * kernel.words],
            cons_seen,
            cons: Vec::new(),
            cand: Vec::new(),
        }
    }

    /// Visits the productive triples of the pair (`Q1` = clique `q1`,
    /// `Q2` = clique `q2`): consequent subsets of `Q2` depth first.
    /// Returns `Break` when `visit` asks to stop or the work budget runs
    /// out.
    fn pair(
        &mut self,
        q1: usize,
        q2: usize,
        visit: &mut dyn FnMut(Triple<'_>) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let k = self.kernel;
        if k.assoc.is_empty() {
            return ControlFlow::Continue(());
        }
        let words = k.words;
        self.rows[..words].copy_from_slice(&k.members[q1 * words..(q1 + 1) * words]);
        self.cons.clear();
        self.consequents(q1, q2, 0, visit)
    }

    /// The consequent subsets of `Q2` extending `self.cons` with members
    /// from position `start` on.
    fn consequents(
        &mut self,
        q1: usize,
        q2: usize,
        start: usize,
        visit: &mut dyn FnMut(Triple<'_>) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let k = self.kernel;
        let (words, depth, max_len) = (k.words, self.cons.len(), k.config.max_consequent);
        let members = &k.cliques[q2];
        for i in start..members.len() {
            if self.budget == 0 {
                return ControlFlow::Break(());
            }
            let y = members[i];
            let (done, next) = self.rows.split_at_mut((depth + 1) * words);
            if !and_into(&mut next[..words], &done[depth * words..], k.assoc_row(y)) {
                // Neither this subset nor any extension of it has a
                // candidate: charge all their triples unvisited.
                let extensions = k.counts.get(members.len() - 1 - i, max_len - depth - 1);
                self.budget = self.budget.saturating_sub(extensions.saturating_add(1));
                continue;
            }
            self.budget -= 1;
            self.cons.push(y);
            let fresh = match self.q2 {
                None => true,
                Some(q2) => !seen_step(&mut self.cons_seen, k.cwords, depth, &k.containing, y, q2),
            };
            if fresh {
                self.triple(q1, visit)?;
            }
            if depth + 1 < max_len {
                self.consequents(q1, q2, i + 1, visit)?;
            }
            self.cons.pop();
        }
        ControlFlow::Continue(())
    }

    /// Visits the triple `(Q1, S)`, `S = self.cons`.
    fn triple(
        &mut self,
        q1: usize,
        visit: &mut dyn FnMut(Triple<'_>) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let (words, depth) = (self.kernel.words, self.cons.len());
        self.cand.clear();
        self.cand.extend(ones(&self.rows[depth * words..(depth + 1) * words]));
        visit(Triple { q1, consequent: &self.cons, candidates: &self.cand })
    }
}

/// Enumerates the antecedents of [`Triple`]s into rules, reusing its
/// scratch buffers from triple to triple.
pub struct Emitter<'k, 'a> {
    kernel: &'k RuleKernel<'a>,
    /// Whether to keep only first occurrences (the exact walk).
    exact: bool,
    /// Per antecedent depth: the cliques before `Q1` containing the prefix.
    ant_seen: Vec<u64>,
    /// The antecedent, as positions in the triple's candidates.
    ant: Vec<usize>,
}

impl<'k, 'a> Emitter<'k, 'a> {
    fn new(kernel: &'k RuleKernel<'a>, exact: bool) -> Self {
        let depth = kernel.config.max_antecedent.min(kernel.largest) + 1;
        let cwords = if exact { kernel.cwords } else { 0 };
        Emitter { kernel, exact, ant_seen: vec![0; depth * cwords], ant: Vec::new() }
    }

    /// Emits the rules of `triple` in enumeration order: antecedents depth
    /// first, members ascending. Returns `Break` when `emit` asks to stop.
    pub fn emit(
        &mut self,
        triple: Triple<'_>,
        emit: &mut dyn FnMut(Dar) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let clusters = self.kernel.graph.clusters();
        if self.exact {
            prefix_mask(&mut self.ant_seen, triple.q1);
        }
        let support = triple.consequent.iter().map(|&y| clusters[y].support()).min().unwrap_or(0);
        self.ant.clear();
        self.antecedents(triple, 0, support, emit)
    }

    /// The antecedents extending `self.ant` with candidates from position
    /// `start` on.
    fn antecedents(
        &mut self,
        triple: Triple<'_>,
        start: usize,
        cons_support: u64,
        emit: &mut dyn FnMut(Dar) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let k = self.kernel;
        let (depth, max_len) = (self.ant.len(), k.config.max_antecedent);
        for j in start..triple.candidates.len() {
            self.ant.push(j);
            let x = triple.candidates[j];
            let fresh = !self.exact
                || !seen_step(&mut self.ant_seen, k.cwords, depth, &k.containing, x, triple.q1);
            if fresh {
                emit(self.rule(triple, cons_support))?;
            }
            if depth + 1 < max_len {
                self.antecedents(triple, j + 1, cons_support, emit)?;
            }
            self.ant.pop();
        }
        ControlFlow::Continue(())
    }

    /// The rule `(self.ant, S)`. Its degree is the worst `D / D0` ratio,
    /// folded consequent members outer, antecedent members inner (the
    /// historical order, so the bits never change).
    fn rule(&self, triple: Triple<'_>, cons_support: u64) -> Dar {
        let (k, clusters) = (self.kernel, self.kernel.graph.clusters());
        let antecedent: Vec<usize> = self.ant.iter().map(|&j| triple.candidates[j]).collect();
        let mut worst = 0.0f64;
        for &y in triple.consequent {
            for &x in &antecedent {
                worst = worst.max(k.ratio(y, x));
            }
        }
        let min_cluster_support =
            antecedent.iter().map(|&x| clusters[x].support()).fold(cons_support, u64::min);
        Dar {
            antecedent,
            consequent: triple.consequent.to_vec(),
            degree: worst,
            min_cluster_support,
        }
    }
}

/// Extends a first-occurrence stack by node `x`: row `depth + 1` becomes
/// the cliques before `limit` that contain the prefix through depth
/// `depth`. Returns whether any remains (the rule occurred earlier).
fn seen_step(
    stack: &mut [u64],
    cwords: usize,
    depth: usize,
    containing: &[u64],
    x: usize,
    limit: usize,
) -> bool {
    let used = limit.div_ceil(64);
    let (done, next) = stack.split_at_mut((depth + 1) * cwords);
    and_into(
        &mut next[..used],
        &done[depth * cwords..depth * cwords + used],
        &containing[x * cwords..x * cwords + used],
    )
}

/// `dst = a & b` word by word; whether any bit survives.
fn and_into(dst: &mut [u64], a: &[u64], b: &[u64]) -> bool {
    let mut any = 0;
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x & y;
        any |= *d;
    }
    any != 0
}

/// The set bits of a bitset, ascending.
fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors((word != 0).then_some(word), |&rest| {
            let rest = rest & (rest - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
    })
}

/// Sets bits `0..limit` of the bitset at the front of `bits`.
fn prefix_mask(bits: &mut [u64], limit: usize) {
    for (w, word) in bits[..limit.div_ceil(64)].iter_mut().enumerate() {
        let top = limit - w * 64;
        *word = if top >= 64 { !0 } else { (1 << top) - 1 };
    }
}

/// `Σ_{j=1}^{k} C(r, j)` — the subsets of at most `k` members of an
/// `r`-member set — for `r` up to the largest clique, saturating at
/// `u64::MAX`.
struct SubsetCounts {
    width: usize,
    table: Vec<u64>,
}

impl SubsetCounts {
    fn new(largest: usize, max_len: usize) -> Self {
        let width = max_len.min(largest) + 1;
        let mut table = vec![0u64; (largest + 1) * width];
        // Row r of Pascal's triangle, built in place from row r − 1.
        let mut binomial = vec![0u64; width];
        binomial[0] = 1;
        for r in 0..=largest {
            if r > 0 {
                for j in (1..width).rev() {
                    binomial[j] = binomial[j].saturating_add(binomial[j - 1]);
                }
            }
            let mut sum = 0u64;
            for j in 1..width {
                sum = sum.saturating_add(binomial[j]);
                table[r * width + j] = sum;
            }
        }
        SubsetCounts { width, table }
    }

    fn get(&self, r: usize, k: usize) -> u64 {
        self.table[r * self.width + k.min(self.width - 1)]
    }
}

/// The canonical rule order: ascending degree, then rule identity. Every
/// artifact the engine serves is sorted this way before ranking, so the
/// output is independent of enumeration (and worker) order.
pub fn sort_rules(rules: &mut [Dar]) {
    rules.sort_by(|a, b| {
        a.degree
            .total_cmp(&b.degree)
            .then_with(|| a.antecedent.cmp(&b.antecedent))
            .then_with(|| a.consequent.cmp(&b.consequent))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clique::maximal_cliques;
    use crate::graph::GraphConfig;
    use dar_core::{Acf, AcfLayout, ClusterId, ClusterSummary};

    /// Three attribute sets; clusters built from the *same* underlying
    /// tuples so that co-located clusters have coincident images.
    /// Tuples: 10 rows at (age≈44, dep≈3, claims≈12k).
    fn co_located_clusters() -> Vec<ClusterSummary> {
        let layout = AcfLayout::new(vec![1, 1, 1]);
        let mut acfs: Vec<Acf> = (0..3).map(|set| Acf::empty(&layout, set)).collect();
        for k in 0..10 {
            let jitter = 0.05 * k as f64;
            let projections = vec![44.0 + jitter, 3.0 + jitter * 0.1, 12_000.0 + jitter * 10.0];
            for acf in &mut acfs {
                acf.add_row(&projections);
            }
        }
        acfs.into_iter()
            .enumerate()
            .map(|(i, acf)| ClusterSummary { id: ClusterId(i as u32), set: i, acf })
            .collect()
    }

    fn mine(clusters: Vec<ClusterSummary>, d0: f64, degree: f64) -> (ClusteringGraph, Vec<Dar>) {
        let num_sets = 3;
        let gcfg = GraphConfig {
            metric: ClusterDistance::D2,
            density_thresholds: vec![d0; num_sets],
            prune_poor_density: false,
        };
        let graph = ClusteringGraph::build(clusters, &gcfg);
        let (cliques, _) = maximal_cliques(graph.adjacency(), 0);
        let rcfg = RuleConfig {
            metric: ClusterDistance::D2,
            degree_thresholds: vec![degree; num_sets],
            max_antecedent: 2,
            max_consequent: 2,
            max_rules: 0,
            max_pair_work: 0,
        };
        let rules = generate_dars(&graph, &cliques, &rcfg);
        (graph, rules)
    }

    #[test]
    fn co_located_clusters_yield_rules_of_all_arities() {
        let (graph, rules) = mine(co_located_clusters(), 5.0, 5.0);
        assert_eq!(graph.edges, 3, "triangle over the three sets");
        assert!(!rules.is_empty());
        // 1:1 rules both directions.
        assert!(rules.iter().any(|r| r.antecedent == vec![0] && r.consequent == vec![2]));
        assert!(rules.iter().any(|r| r.antecedent == vec![2] && r.consequent == vec![0]));
        // N:1 rule {age, dep} ⇒ claims.
        assert!(rules.iter().any(|r| r.antecedent == vec![0, 1] && r.consequent == vec![2]));
        // 1:N rule age ⇒ {dep, claims}.
        assert!(rules.iter().any(|r| r.antecedent == vec![0] && r.consequent == vec![1, 2]));
        // All degrees are within threshold and normalized.
        for r in &rules {
            assert!(r.degree <= 1.0 + 1e-9, "{r:?}");
            assert_eq!(r.min_cluster_support, 10);
        }
        // No duplicates.
        let mut keys: Vec<_> =
            rules.iter().map(|r| (r.antecedent.clone(), r.consequent.clone())).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before);
    }

    #[test]
    fn degree_threshold_gates_rules() {
        // With a tiny degree threshold nothing associates.
        let (_, rules) = mine(co_located_clusters(), 5.0, 1e-6);
        assert!(rules.is_empty());
    }

    #[test]
    fn arity_caps_are_respected() {
        let layoutless = co_located_clusters();
        let gcfg = GraphConfig {
            metric: ClusterDistance::D2,
            density_thresholds: vec![5.0; 3],
            prune_poor_density: false,
        };
        let graph = ClusteringGraph::build(layoutless, &gcfg);
        let (cliques, _) = maximal_cliques(graph.adjacency(), 0);
        let rcfg = RuleConfig {
            metric: ClusterDistance::D2,
            degree_thresholds: vec![5.0; 3],
            max_antecedent: 1,
            max_consequent: 1,
            max_rules: 0,
            max_pair_work: 0,
        };
        let rules = generate_dars(&graph, &cliques, &rcfg);
        assert!(rules.iter().all(|r| r.antecedent.len() == 1 && r.consequent.len() == 1));
        // 3 clusters × 2 directed pairs each = 6 1:1 rules.
        assert_eq!(rules.len(), 6);
    }

    #[test]
    fn max_rules_truncates() {
        let (graph, _) = mine(co_located_clusters(), 5.0, 5.0);
        let (cliques, _) = maximal_cliques(graph.adjacency(), 0);
        let rcfg = RuleConfig {
            metric: ClusterDistance::D2,
            degree_thresholds: vec![5.0; 3],
            max_antecedent: 2,
            max_consequent: 2,
            max_rules: 3,
            max_pair_work: 0,
        };
        let (rules, truncated) = generate_dars_capped(&graph, &cliques, &rcfg);
        assert_eq!(rules.len(), 3);
        assert!(truncated);
    }

    /// Several co-located groups far apart from each other: each group
    /// forms its own triangle in the clustering graph, so the clique list
    /// has one entry per group and the pooled rule generator gets real
    /// multi-task fan-out.
    fn multi_group_clusters(groups: usize) -> Vec<ClusterSummary> {
        let layout = AcfLayout::new(vec![1, 1, 1]);
        let mut out = Vec::new();
        for g in 0..groups {
            let base = 1_000.0 * g as f64;
            let mut acfs: Vec<Acf> = (0..3).map(|set| Acf::empty(&layout, set)).collect();
            for k in 0..10 {
                let jitter = 0.05 * k as f64;
                let projections = vec![
                    base + 44.0 + jitter,
                    base + 3.0 + jitter * 0.1,
                    base + 120.0 + jitter * 10.0,
                ];
                for acf in &mut acfs {
                    acf.add_row(&projections);
                }
            }
            out.extend(acfs.into_iter().enumerate().map(|(i, acf)| ClusterSummary {
                id: ClusterId((g * 3 + i) as u32),
                set: i,
                acf,
            }));
        }
        out
    }

    #[test]
    fn pooled_rule_generation_is_byte_identical_at_every_worker_count() {
        let gcfg = GraphConfig {
            metric: ClusterDistance::D2,
            density_thresholds: vec![55.0; 3],
            prune_poor_density: false,
        };
        let graph = ClusteringGraph::build(multi_group_clusters(4), &gcfg);
        let (cliques, _) = maximal_cliques(graph.adjacency(), 0);
        assert!(cliques.len() >= 4, "want one clique per group, got {}", cliques.len());
        let base = RuleConfig {
            metric: ClusterDistance::D2,
            degree_thresholds: vec![55.0; 3],
            max_antecedent: 2,
            max_consequent: 2,
            max_rules: 0,
            max_pair_work: 0,
        };
        // Uncapped, rules-capped, work-capped, and both caps at once: the
        // pooled path must reproduce the serial truncation point exactly.
        let configs = [
            base.clone(),
            RuleConfig { max_rules: 5, ..base.clone() },
            RuleConfig { max_pair_work: 3, ..base.clone() },
            RuleConfig { max_rules: 4, max_pair_work: 7, ..base.clone() },
        ];
        for config in &configs {
            let serial = generate_dars_capped(&graph, &cliques, config);
            for workers in [1usize, 2, 4, 8] {
                let pool = ThreadPool::new(workers);
                let pooled = generate_dars_capped_pooled(&graph, &cliques, config, &pool);
                assert_eq!(serial, pooled, "workers={workers} config={config:?}");
            }
        }
    }

    #[test]
    fn walked_pairs_cover_the_uncapped_enumeration() {
        // Union of per-pair rules (with cross-pair dedup) equals the full
        // generator's output — the invariant the anytime sampler relies on
        // for full-budget convergence.
        let gcfg = GraphConfig {
            metric: ClusterDistance::D2,
            density_thresholds: vec![55.0; 3],
            prune_poor_density: false,
        };
        let graph = ClusteringGraph::build(multi_group_clusters(3), &gcfg);
        let (cliques, _) = maximal_cliques(graph.adjacency(), 0);
        let config = RuleConfig {
            metric: ClusterDistance::D2,
            degree_thresholds: vec![55.0; 3],
            max_antecedent: 2,
            max_consequent: 2,
            max_rules: 0,
            max_pair_work: 0,
        };
        let exact = generate_dars(&graph, &cliques, &config);
        let distances = AssocDistances::build(&graph, config.metric, &ThreadPool::serial());
        let kernel = RuleKernel::new(&graph, &cliques, &config, Some(&distances));
        let mut walk = kernel.walker();
        let mut sampled = Vec::new();
        for q2 in 0..cliques.len() {
            for q1 in 0..cliques.len() {
                let flow = walk.pair(q1, q2, &mut |dar| {
                    sampled.push(dar);
                    ControlFlow::Continue(())
                });
                assert!(flow.is_continue());
            }
        }
        sort_rules(&mut sampled);
        sampled.dedup_by(|a, b| a.antecedent == b.antecedent && a.consequent == b.consequent);
        assert_eq!(exact, sampled);
    }

    #[test]
    fn subset_counts_are_saturating_binomial_sums() {
        let counts = SubsetCounts::new(5, 3);
        assert_eq!(counts.get(5, 3), 5 + 10 + 10);
        assert_eq!(counts.get(3, 2), 3 + 3);
        assert_eq!(counts.get(2, 3), 3, "every non-empty subset of 2");
        assert_eq!(counts.get(0, 3), 0);
        assert_eq!(counts.get(4, 0), 0);
        assert_eq!(
            SubsetCounts::new(30, 12).get(30, 12),
            194_129_626,
            "subsets of at most 12 of 30"
        );
        assert_eq!(SubsetCounts::new(70, 70).get(70, 70), u64::MAX, "2^70 − 1 saturates");
    }

    #[test]
    fn output_sorted_by_degree() {
        let (_, rules) = mine(co_located_clusters(), 5.0, 5.0);
        for w in rules.windows(2) {
            assert!(w[0].degree <= w[1].degree);
        }
    }
}
