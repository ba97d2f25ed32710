//! The ACF-tree: a height-balanced tree of clustering summaries.
//!
//! Internal nodes are CF nodes (summaries on the home attribute set only);
//! leaf nodes hold full ACFs — exactly the structure of Section 6.1 of the
//! paper ("An ACF-tree is a CF-tree with the leaf nodes modified to be ACFs.
//! The internal nodes remain CF nodes.").

use crate::config::BirchConfig;
use dar_core::{Acf, AcfLayout, Cf, SetId};

/// Estimated fixed overhead per tree node (allocation header, enum tag,
/// entry-vector header).
const NODE_OVERHEAD_BYTES: usize = 64;

/// What the memory charge counts for an internal entry's fixed part: the
/// `size_of::<InternalEntry>()` of the two-`Vec` CF the budgets were
/// calibrated on. Like [`AcfLayout::acf_heap_bytes`], the charge is the
/// clustering's memory model — it decides when the tree rebuilds — so it
/// does not follow the struct's current size.
const INTERNAL_ENTRY_CHARGE: usize = 64;

#[derive(Debug, Clone)]
struct InternalEntry {
    /// Summary of the subtree on the home attribute set.
    cf: Cf,
    /// Arena index of the child node.
    child: usize,
}

#[derive(Debug, Clone)]
enum Node {
    Internal { entries: Vec<InternalEntry> },
    Leaf { entries: Vec<Acf> },
}

/// Diagnostic snapshot of one tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeStats {
    /// The attribute set this tree clusters.
    pub set: SetId,
    /// Current diameter threshold.
    pub threshold: f64,
    /// Number of threshold-raising rebuilds performed.
    pub rebuilds: usize,
    /// Tree height (a lone leaf has height 1).
    pub height: usize,
    /// Live node count.
    pub nodes: usize,
    /// Current number of leaf ACF entries (clusters).
    pub leaf_entries: usize,
    /// Entries currently paged out to the outlier store.
    pub outliers: usize,
    /// Estimated heap footprint in bytes.
    pub memory_bytes: usize,
}

/// An adaptive CF/ACF-tree clustering the projections of a data stream onto
/// one attribute set.
#[derive(Debug, Clone)]
pub struct AcfTree {
    layout: AcfLayout,
    set: SetId,
    config: BirchConfig,
    threshold: f64,
    threshold_sq: f64,
    nodes: Vec<Node>,
    root: usize,
    leaf_entry_count: usize,
    outliers: Vec<Acf>,
    rebuilds: usize,
    points_inserted: u64,
    /// Memory charge per leaf entry ([`AcfLayout::acf_heap_bytes`]).
    leaf_entry_charge: usize,
    /// Memory charge per internal entry (a home-set CF plus its child link).
    internal_entry_charge: usize,
}

/// Result bubbled up when a child node split: the arena index of the new
/// sibling the parent must now reference.
type SplitUp = Option<usize>;

impl AcfTree {
    /// Creates an empty tree clustering attribute set `set`.
    pub fn new(layout: AcfLayout, set: SetId, config: BirchConfig) -> Self {
        let threshold = config.initial_threshold.max(0.0);
        let home_dims = layout.dims_of(set);
        AcfTree {
            leaf_entry_charge: layout.acf_heap_bytes(),
            internal_entry_charge: 2 * 8 * home_dims + 2 * 24 + INTERNAL_ENTRY_CHARGE,
            layout,
            set,
            threshold,
            threshold_sq: threshold * threshold,
            nodes: vec![Node::Leaf { entries: Vec::new() }],
            root: 0,
            leaf_entry_count: 0,
            outliers: Vec::new(),
            rebuilds: 0,
            points_inserted: 0,
            config,
        }
    }

    /// The attribute set this tree clusters.
    pub fn set(&self) -> SetId {
        self.set
    }

    /// Current diameter threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of rebuilds performed so far.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Number of clusters (leaf ACF entries) currently in the tree,
    /// excluding paged-out outliers.
    pub fn num_clusters(&self) -> usize {
        self.leaf_entry_count
    }

    /// Number of points inserted so far.
    pub fn points_inserted(&self) -> u64 {
        self.points_inserted
    }

    /// Inserts one tuple given its flat row: its projections onto every
    /// attribute set of the layout, concatenated in set order (see
    /// [`AcfLayout`]).
    pub fn insert_point(&mut self, row: &[f64]) {
        debug_assert_eq!(row.len(), self.layout.total_dims());
        self.points_inserted += 1;
        crate::metrics::metrics().inserts.inc();
        if let Some(sibling) = self.insert_point_rec(self.root, row) {
            self.grow_root(sibling);
        }
        self.maybe_rebuild();
    }

    /// Inserts a pre-aggregated ACF entry (the rebuild / outlier
    /// re-insertion path; Section 4.3.1).
    pub fn insert_entry(&mut self, acf: Acf) {
        debug_assert_eq!(acf.home(), self.set);
        if acf.is_empty() {
            return;
        }
        let centroid = acf.home_cf().centroid().expect("non-empty entry");
        if let Some(sibling) = self.insert_entry_rec(self.root, acf, &centroid) {
            self.grow_root(sibling);
        }
    }

    /// Estimated heap footprint of the tree in bytes.
    pub fn memory_estimate(&self) -> usize {
        let live_nodes = self.nodes.len();
        // Every non-root node is referenced by exactly one internal entry.
        let internal_entries = live_nodes.saturating_sub(1);
        live_nodes * NODE_OVERHEAD_BYTES
            + self.leaf_entry_count * self.leaf_entry_charge
            + internal_entries * self.internal_entry_charge
    }

    /// Iterates over the current leaf entries (clusters).
    pub fn leaf_entries(&self) -> impl Iterator<Item = &Acf> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Leaf { entries } => Some(entries.iter()),
                Node::Internal { .. } => None,
            })
            .flatten()
    }

    /// Re-inserts paged-out outliers ("to ensure that they are indeed
    /// outliers") and returns the final cluster summaries.
    pub fn finish(mut self) -> Vec<Acf> {
        let outliers = std::mem::take(&mut self.outliers);
        crate::metrics::metrics().outliers_reinserted.add(outliers.len() as u64);
        for acf in outliers {
            self.insert_entry(acf);
        }
        let mut out = Vec::with_capacity(self.leaf_entry_count);
        for node in self.nodes {
            if let Node::Leaf { entries } = node {
                out.extend(entries);
            }
        }
        out
    }

    /// Removes previously-merged sub-clusters from the tree — the inverse
    /// of [`insert_entry`](Self::insert_entry) at the moment level.
    ///
    /// Every live entry (leaves and paged-out outliers alike) is drained,
    /// each subtrahend's moments are cancelled against the drained entries,
    /// and the survivors are re-inserted at the current threshold, mirroring
    /// [`rebuild`](Self::rebuild). Per subtrahend the cancellation is
    /// greedy by home-centroid distance: entries smaller than the remaining
    /// subtrahend are consumed whole (their own exact moments removed from
    /// the residue), and the final residue is unmerged from the closest
    /// entry big enough to hold it. However the residue is attributed, the
    /// *total* moments removed equal the subtrahend's exactly, so per set
    /// the surviving `N` is exact and the surviving ΣY/ΣY² match a tree
    /// that never saw the subtracted rows up to floating-point summation
    /// order; when the subtracted clusters are well separated from the
    /// survivors (the sliding-window case), the closest entry is the true
    /// host and the cancellation is exact per entry too. The pass is fully
    /// deterministic: entries drain in arena order, ties keep the lowest
    /// index, and re-insertion runs in drain order.
    ///
    /// # Contract
    /// `clusters` must summarize a sub-multiset of the tuples this tree has
    /// absorbed — the way `b`'s clusters are inside `merge(a, b)`. Like
    /// [`AcfForest::merge`]'s partitioning check, a violation is a
    /// programming error and panics.
    ///
    /// # Panics
    /// Panics if the subtrahends hold more tuples than the tree does
    /// (i.e. `clusters` cannot have been merged into this tree).
    ///
    /// [`AcfForest::merge`]: crate::AcfForest::merge
    pub fn subtract_entries(&mut self, clusters: &[Acf]) {
        if clusters.iter().all(Acf::is_empty) {
            return;
        }
        let mut carried: Vec<Acf> = Vec::with_capacity(self.leaf_entry_count);
        for node in std::mem::take(&mut self.nodes) {
            if let Node::Leaf { entries } = node {
                carried.extend(entries);
            }
        }
        carried.append(&mut self.outliers);
        for sub in clusters {
            let mut remaining = sub.clone();
            while !remaining.is_empty() {
                let centroid = remaining.home_cf().centroid().expect("non-empty residue");
                let mut best: Option<(usize, f64)> = None;
                for (i, e) in carried.iter().enumerate() {
                    let d = e
                        .home_cf()
                        .centroid_distance_sq_to_point(&centroid)
                        .expect("carried entries are non-empty");
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((i, d));
                    }
                }
                let Some((host, _)) = best else {
                    panic!(
                        "subtract_entries: the set-{} tree ran out of clusters with a \
                         {}-tuple residue left to subtract — the subtracted forest was \
                         never merged into this one",
                        self.set,
                        remaining.n()
                    );
                };
                if carried[host].n() >= remaining.n() {
                    carried[host].unmerge(&remaining).expect("same layout and home set, n checked");
                    if carried[host].is_empty() {
                        // The host cancelled to zero tuples but — unless its
                        // tuples were literally the subtracted ones — it still
                        // carries a moment residue (±δ per image). Dropping it
                        // would leak δ from the aggregate, so fold the residue
                        // into the nearest survivor; with no survivors the
                        // tree is empty and the residue is pure regrouping
                        // noise around zero.
                        let emptied = carried.remove(host);
                        let mut nearest: Option<(usize, f64)> = None;
                        for (i, e) in carried.iter().enumerate() {
                            let d = e
                                .home_cf()
                                .centroid_distance_sq_to_point(&centroid)
                                .expect("carried entries are non-empty");
                            if nearest.is_none_or(|(_, bd)| d < bd) {
                                nearest = Some((i, d));
                            }
                        }
                        if let Some((absorber, _)) = nearest {
                            carried[absorber].merge(&emptied).expect("same layout and home set");
                        }
                    }
                    break;
                }
                // The closest entry is smaller than the residue: consume it
                // whole — removing its exact moments keeps the aggregate
                // subtraction exact — and keep cancelling.
                let consumed = carried.remove(host);
                remaining.unmerge(&consumed).expect("same layout and home set, n checked");
            }
        }
        self.nodes.push(Node::Leaf { entries: Vec::new() });
        self.root = 0;
        self.leaf_entry_count = 0;
        for acf in carried {
            self.insert_entry(acf);
        }
    }

    /// Diagnostic snapshot.
    pub fn stats(&self) -> TreeStats {
        TreeStats {
            set: self.set,
            threshold: self.threshold,
            rebuilds: self.rebuilds,
            height: self.height(),
            nodes: self.nodes.len(),
            leaf_entries: self.leaf_entry_count,
            outliers: self.outliers.len(),
            memory_bytes: self.memory_estimate(),
        }
    }

    /// Validates the structural invariants of the tree, returning a
    /// description of the first violation found. Used by tests and
    /// available for debugging; `O(tree)`.
    ///
    /// Checked invariants:
    /// 1. every internal entry's CF equals the summary of its child;
    /// 2. every node except the root is referenced exactly once;
    /// 3. node fan-outs respect the configured capacities (the root may
    ///    temporarily hold as few as one entry after a trivial build);
    /// 4. the leaf-entry counter matches the actual leaf population;
    /// 5. all leaves sit at the same depth (height balance).
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut referenced = vec![0usize; self.nodes.len()];
        let mut leaf_entries = 0usize;
        let mut leaf_depths: Vec<usize> = Vec::new();
        let mut stack = vec![(self.root, 0usize)];
        while let Some((node_id, depth)) = stack.pop() {
            match &self.nodes[node_id] {
                Node::Leaf { entries } => {
                    if entries.len() > self.config.leaf_capacity {
                        return Err(format!("leaf {node_id} over capacity: {}", entries.len()));
                    }
                    leaf_entries += entries.len();
                    leaf_depths.push(depth);
                }
                Node::Internal { entries } => {
                    if entries.is_empty() {
                        return Err(format!("internal node {node_id} is empty"));
                    }
                    if entries.len() > self.config.branching {
                        return Err(format!(
                            "internal {node_id} over branching: {}",
                            entries.len()
                        ));
                    }
                    for e in entries {
                        referenced[e.child] += 1;
                        let summary = self.summarize_node(e.child);
                        if summary.n() != e.cf.n() {
                            return Err(format!(
                                "entry CF of node {} child {} stale: n {} vs {}",
                                node_id,
                                e.child,
                                e.cf.n(),
                                summary.n()
                            ));
                        }
                        let drift: f64 = summary
                            .view()
                            .linear_sum()
                            .iter()
                            .zip(e.cf.view().linear_sum())
                            .map(|(a, b)| (a - b).abs())
                            .sum();
                        let scale: f64 =
                            summary.view().linear_sum().iter().map(|v| v.abs()).sum::<f64>() + 1.0;
                        if drift > 1e-6 * scale {
                            return Err(format!(
                                "entry CF of node {node_id} child {} drifted by {drift}",
                                e.child
                            ));
                        }
                        stack.push((e.child, depth + 1));
                    }
                }
            }
        }
        for (id, &count) in referenced.iter().enumerate() {
            let expected = usize::from(id != self.root);
            if count != expected {
                return Err(format!("node {id} referenced {count} times"));
            }
        }
        if leaf_entries != self.leaf_entry_count {
            return Err(format!("leaf counter {} vs actual {leaf_entries}", self.leaf_entry_count));
        }
        if let (Some(min), Some(max)) = (leaf_depths.iter().min(), leaf_depths.iter().max()) {
            if min != max {
                return Err(format!("unbalanced leaves: depths {min}..{max}"));
            }
        }
        Ok(())
    }

    /// Tree height: 1 for a lone leaf.
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf { .. } => return h,
                Node::Internal { entries } => {
                    h += 1;
                    node = entries[0].child;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    // Both descents fold the incoming tuple or entry into the summary of
    // the internal entry they descend through *before* recursing: the
    // operands are the same either way, and a split below recomputes that
    // summary from scratch anyway.

    fn insert_point_rec(&mut self, node_id: usize, row: &[f64]) -> SplitUp {
        let point = &row[self.layout.span(self.set)];
        match &mut self.nodes[node_id] {
            Node::Internal { entries } => {
                let ci = Self::closest_internal(entries, point);
                entries[ci].cf.add_point(point);
                let child = entries[ci].child;
                let split = self.insert_point_rec(child, row);
                self.absorb_child_split(node_id, ci, split)
            }
            Node::Leaf { entries } => {
                if let Some(ei) = Self::closest_leaf(entries, point) {
                    let entry = &mut entries[ei];
                    if entry.home_cf().merged_diameter_sq_with_point(point) <= self.threshold_sq {
                        entry.add_row(row);
                        return None;
                    }
                }
                let acf = Acf::from_row(&self.layout, self.set, row);
                self.push_leaf_entry(node_id, acf)
            }
        }
    }

    fn insert_entry_rec(&mut self, node_id: usize, acf: Acf, centroid: &[f64]) -> SplitUp {
        match &mut self.nodes[node_id] {
            Node::Internal { entries } => {
                let ci = Self::closest_internal(entries, centroid);
                entries[ci].cf.merge(acf.home_cf());
                let child = entries[ci].child;
                let split = self.insert_entry_rec(child, acf, centroid);
                self.absorb_child_split(node_id, ci, split)
            }
            Node::Leaf { entries } => {
                if let Some(ei) = Self::closest_leaf(entries, centroid) {
                    let entry = &mut entries[ei];
                    if entry.merged_home_diameter_sq(&acf) <= self.threshold_sq {
                        entry.merge(&acf).expect("same layout and home set");
                        return None;
                    }
                }
                self.push_leaf_entry(node_id, acf)
            }
        }
    }

    /// Shared post-recursion bookkeeping for internal nodes: absorb a child
    /// split (recomputing both sides' summaries), split ourselves if over
    /// capacity.
    fn absorb_child_split(&mut self, node_id: usize, child_idx: usize, split: SplitUp) -> SplitUp {
        let new_child = split?;
        // The child redistributed its entries; recompute both sides from
        // scratch rather than patching.
        let old_child = match &self.nodes[node_id] {
            Node::Internal { entries } => entries[child_idx].child,
            Node::Leaf { .. } => unreachable!(),
        };
        let cf_old = self.summarize_node(old_child);
        let cf_new = self.summarize_node(new_child);
        let overflow = match &mut self.nodes[node_id] {
            Node::Internal { entries } => {
                entries[child_idx].cf = cf_old;
                entries.push(InternalEntry { cf: cf_new, child: new_child });
                entries.len() > self.config.branching
            }
            Node::Leaf { .. } => unreachable!(),
        };
        if overflow {
            Some(self.split_internal(node_id))
        } else {
            None
        }
    }

    fn push_leaf_entry(&mut self, node_id: usize, acf: Acf) -> SplitUp {
        self.leaf_entry_count += 1;
        let overflow = match &mut self.nodes[node_id] {
            Node::Leaf { entries } => {
                entries.push(acf);
                entries.len() > self.config.leaf_capacity
            }
            Node::Internal { .. } => unreachable!("push_leaf_entry on internal node"),
        };
        if overflow {
            Some(self.split_leaf(node_id))
        } else {
            None
        }
    }

    fn grow_root(&mut self, sibling: usize) {
        let cf_old = self.summarize_node(self.root);
        let cf_new = self.summarize_node(sibling);
        let new_root = self.nodes.len();
        self.nodes.push(Node::Internal {
            entries: vec![
                InternalEntry { cf: cf_old, child: self.root },
                InternalEntry { cf: cf_new, child: sibling },
            ],
        });
        self.root = new_root;
    }

    fn closest_internal(entries: &[InternalEntry], point: &[f64]) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, e) in entries.iter().enumerate() {
            // Entries on the descent path are never empty.
            let d =
                e.cf.view()
                    .centroid_distance_sq_to_point(point)
                    .expect("internal entries are non-empty");
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    fn closest_leaf(entries: &[Acf], point: &[f64]) -> Option<usize> {
        let mut best = None;
        let mut best_d = f64::INFINITY;
        for (i, e) in entries.iter().enumerate() {
            let d = e
                .home_cf()
                .centroid_distance_sq_to_point(point)
                .expect("leaf entries are non-empty");
            if d < best_d {
                best_d = d;
                best = Some(i);
            }
        }
        best
    }

    fn summarize_node(&self, node_id: usize) -> Cf {
        let mut cf = Cf::empty(self.layout.dims_of(self.set));
        match &self.nodes[node_id] {
            Node::Internal { entries } => {
                for e in entries {
                    cf.merge(e.cf.view());
                }
            }
            Node::Leaf { entries } => {
                for e in entries {
                    cf.merge(e.home_cf());
                }
            }
        }
        cf
    }

    // ------------------------------------------------------------------
    // Splitting
    // ------------------------------------------------------------------

    /// Splits an over-full leaf; returns the arena index of the new sibling.
    fn split_leaf(&mut self, node_id: usize) -> usize {
        let entries = match &mut self.nodes[node_id] {
            Node::Leaf { entries } => std::mem::take(entries),
            Node::Internal { .. } => unreachable!(),
        };
        let centroids: Vec<Vec<f64>> = entries
            .iter()
            .map(|e| e.home_cf().centroid().expect("leaf entries are non-empty"))
            .collect();
        let (keep, give) = partition_by_farthest_pair(entries, &centroids);
        self.nodes[node_id] = Node::Leaf { entries: keep };
        let new_id = self.nodes.len();
        self.nodes.push(Node::Leaf { entries: give });
        new_id
    }

    /// Splits an over-full internal node; returns the new sibling's index.
    fn split_internal(&mut self, node_id: usize) -> usize {
        let entries = match &mut self.nodes[node_id] {
            Node::Internal { entries } => std::mem::take(entries),
            Node::Leaf { .. } => unreachable!(),
        };
        let centroids: Vec<Vec<f64>> = entries
            .iter()
            .map(|e| e.cf.view().centroid().expect("internal entries are non-empty"))
            .collect();
        let (keep, give) = partition_by_farthest_pair(entries, &centroids);
        self.nodes[node_id] = Node::Internal { entries: keep };
        let new_id = self.nodes.len();
        self.nodes.push(Node::Internal { entries: give });
        new_id
    }

    // ------------------------------------------------------------------
    // Adaptive rebuild
    // ------------------------------------------------------------------

    fn maybe_rebuild(&mut self) {
        // Each round raises the threshold at least geometrically, so the
        // loop terminates; the round cap is a belt-and-braces guard.
        let mut rounds = 0;
        while self.memory_estimate() > self.config.memory_budget
            && self.leaf_entry_count > 1
            && rounds < 64
        {
            let t = self.next_threshold();
            self.rebuild(t);
            rounds += 1;
        }
    }

    /// Threshold heuristic: the median over leaves of the smallest merged
    /// diameter of any entry pair within the leaf — i.e. a threshold at
    /// which about half the leaves will merge their closest pair — floored
    /// by geometric growth of the current threshold.
    fn next_threshold(&self) -> f64 {
        let mut mins: Vec<f64> = Vec::new();
        for node in &self.nodes {
            if let Node::Leaf { entries } = node {
                if entries.len() < 2 {
                    continue;
                }
                let mut best = f64::INFINITY;
                for i in 0..entries.len() {
                    for j in (i + 1)..entries.len() {
                        let d = entries[i].merged_home_diameter_sq(&entries[j]).sqrt();
                        if d < best {
                            best = d;
                        }
                    }
                }
                mins.push(best);
            }
        }
        let hint = if mins.is_empty() {
            0.0
        } else {
            mins.sort_by(f64::total_cmp);
            mins[mins.len() / 2]
        };
        let grown = if self.threshold > 0.0 {
            self.threshold * self.config.threshold_growth
        } else {
            f64::MIN_POSITIVE
        };
        hint.max(grown)
    }

    /// Rebuilds the tree from its own leaf entries at a higher threshold,
    /// paging out candidate outliers. No data rescan (Section 4.3.1).
    fn rebuild(&mut self, new_threshold: f64) {
        debug_assert!(new_threshold >= self.threshold);
        let old_threshold = self.threshold;
        let mut carried: Vec<Acf> = Vec::with_capacity(self.leaf_entry_count);
        for node in std::mem::take(&mut self.nodes) {
            if let Node::Leaf { entries } = node {
                carried.extend(entries);
            }
        }
        self.nodes.push(Node::Leaf { entries: Vec::new() });
        self.root = 0;
        self.leaf_entry_count = 0;
        self.threshold = new_threshold;
        self.threshold_sq = new_threshold * new_threshold;
        let limit = self.config.outlier_entry_limit;
        let mut paged = 0u64;
        for acf in carried {
            if limit > 0 && acf.n() < limit {
                self.outliers.push(acf);
                paged += 1;
            } else {
                self.insert_entry(acf);
            }
        }
        self.rebuilds += 1;
        let m = crate::metrics::metrics();
        m.rebuilds.inc();
        if new_threshold > old_threshold {
            m.threshold_raises.inc();
        }
        m.outliers_paged.add(paged);
        dar_obs::event(
            "birch.rebuild",
            &[
                ("set", &self.set.to_string()),
                ("threshold", &format!("{new_threshold:.6}")),
                ("outliers_paged", &paged.to_string()),
            ],
        );
    }
}

/// Farthest-pair split: seeds are the two items whose centroids are farthest
/// apart; every item joins the nearer seed. Both halves are guaranteed
/// non-empty (the seeds themselves).
fn partition_by_farthest_pair<T>(items: Vec<T>, centroids: &[Vec<f64>]) -> (Vec<T>, Vec<T>) {
    debug_assert!(items.len() >= 2);
    let mut seed_a = 0;
    let mut seed_b = 1;
    let mut best = -1.0;
    for i in 0..centroids.len() {
        for j in (i + 1)..centroids.len() {
            let d: f64 = centroids[i]
                .iter()
                .zip(&centroids[j])
                .map(|(a, b)| {
                    let d = a - b;
                    d * d
                })
                .sum();
            if d > best {
                best = d;
                seed_a = i;
                seed_b = j;
            }
        }
    }
    let mut keep = Vec::with_capacity(items.len() / 2 + 1);
    let mut give = Vec::with_capacity(items.len() / 2 + 1);
    for (i, item) in items.into_iter().enumerate() {
        let da: f64 = centroids[i]
            .iter()
            .zip(&centroids[seed_a])
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum();
        let db: f64 = centroids[i]
            .iter()
            .zip(&centroids[seed_b])
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum();
        if i == seed_a || (i != seed_b && da <= db) {
            keep.push(item);
        } else {
            give.push(item);
        }
    }
    (keep, give)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout1() -> AcfLayout {
        AcfLayout::new(vec![1, 1])
    }

    fn proj(x: f64, y: f64) -> Vec<f64> {
        vec![x, y]
    }

    fn tree(threshold: f64) -> AcfTree {
        let config = BirchConfig {
            branching: 3,
            leaf_capacity: 3,
            initial_threshold: threshold,
            memory_budget: usize::MAX,
            ..BirchConfig::default()
        };
        AcfTree::new(layout1(), 0, config)
    }

    #[test]
    fn zero_threshold_keeps_distinct_values_apart() {
        let mut t = tree(0.0);
        for v in [1.0, 2.0, 3.0, 1.0, 2.0, 1.0] {
            t.insert_point(&proj(v, v * 10.0));
        }
        assert_eq!(t.num_clusters(), 3);
        assert_eq!(t.points_inserted(), 6);
        let mut counts: Vec<u64> = t.leaf_entries().map(Acf::n).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2, 3]);
    }

    #[test]
    fn points_within_threshold_merge() {
        let mut t = tree(1.0);
        // 0.0 and 0.5 merge (diameter 0.5 ≤ 1); 10.0 stays apart.
        t.insert_point(&proj(0.0, 0.0));
        t.insert_point(&proj(0.5, 1.0));
        t.insert_point(&proj(10.0, 2.0));
        assert_eq!(t.num_clusters(), 2);
        let big = t.leaf_entries().find(|a| a.n() == 2).unwrap();
        assert_eq!(big.centroid_on(0).unwrap(), vec![0.25]);
        // The image on set 1 accumulated both rows.
        assert_eq!(big.centroid_on(1).unwrap(), vec![0.5]);
    }

    #[test]
    fn splits_preserve_all_points_and_balance() {
        let mut t = tree(0.0);
        let n = 200;
        for i in 0..n {
            t.insert_point(&proj(i as f64, 0.0));
        }
        assert_eq!(t.num_clusters(), n);
        let total: u64 = t.leaf_entries().map(Acf::n).sum();
        assert_eq!(total, n as u64);
        assert!(t.height() >= 3, "200 distinct values must grow the tree");
        // Root summary must equal the whole data set.
        let root_cf = t.summarize_node(t.root);
        assert_eq!(root_cf.n(), n as u64);
        let sum: f64 = (0..n).map(|i| i as f64).sum();
        assert!((root_cf.view().linear_sum()[0] - sum).abs() < 1e-6);
    }

    #[test]
    fn finish_returns_all_entries() {
        let mut t = tree(0.0);
        for i in 0..50 {
            t.insert_point(&proj(i as f64, i as f64));
        }
        let clusters = t.finish();
        assert_eq!(clusters.len(), 50);
        let total: u64 = clusters.iter().map(Acf::n).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn memory_pressure_triggers_rebuild_and_shrinks_tree() {
        let config = BirchConfig {
            branching: 4,
            leaf_capacity: 4,
            initial_threshold: 0.0,
            memory_budget: 6_000, // tiny: forces rebuilds
            threshold_growth: 2.0,
            ..BirchConfig::default()
        };
        let mut t = AcfTree::new(layout1(), 0, config);
        for i in 0..500 {
            t.insert_point(&proj(i as f64, 0.0));
        }
        assert!(t.rebuilds() > 0, "budget must have forced rebuilds");
        assert!(t.threshold() > 0.0);
        assert!(t.memory_estimate() <= 6_000, "estimate {} exceeds budget", t.memory_estimate());
        // No points lost across rebuilds.
        let total: u64 = t.leaf_entries().map(Acf::n).sum();
        assert_eq!(total, 500);
        assert!(t.num_clusters() < 500);
    }

    #[test]
    fn outliers_paged_out_and_reinserted_on_finish() {
        let config = BirchConfig {
            branching: 4,
            leaf_capacity: 4,
            initial_threshold: 0.0,
            memory_budget: 4_000,
            outlier_entry_limit: 5,
            threshold_growth: 2.0,
        };
        let mut t = AcfTree::new(layout1(), 0, config);
        // A heavy cluster at 0 and many scattered singletons.
        for _ in 0..300 {
            t.insert_point(&proj(0.0, 0.0));
        }
        for i in 0..200 {
            t.insert_point(&proj(1_000.0 + 50.0 * i as f64, 0.0));
        }
        let paged = t.stats().outliers;
        assert!(paged > 0, "scattered singletons must be paged out");
        let clusters = t.finish();
        let total: u64 = clusters.iter().map(Acf::n).sum();
        assert_eq!(total, 500, "outlier re-insertion must not lose tuples");
        // The heavy value survives as one cluster with n >= 300.
        assert!(clusters.iter().any(|c| c.n() >= 300));
    }

    #[test]
    fn memory_charge_keeps_the_per_vec_model() {
        // The estimates the per-set `Vec<Cf>` ACF layout charged for these
        // same trees: the charge decides when a tree rebuilds, so a storage
        // change must leave it alone.
        for (dims, home, charge) in [
            (vec![1, 1], 0, 32_224),
            (vec![2, 1], 0, 36_480),
            (vec![3, 1, 4], 2, 57_504),
            (vec![1; 30], 7, 211_648),
        ] {
            let layout = AcfLayout::new(dims.clone());
            let config = BirchConfig {
                branching: 4,
                leaf_capacity: 4,
                initial_threshold: 0.0,
                memory_budget: usize::MAX,
                ..BirchConfig::default()
            };
            let mut t = AcfTree::new(layout.clone(), home, config);
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..100 {
                let row: Vec<f64> = (0..layout.total_dims())
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x % 10_000) as f64 / 7.0
                    })
                    .collect();
                t.insert_point(&row);
            }
            assert_eq!(t.memory_estimate(), charge, "{dims:?}");
        }
    }

    #[test]
    fn insert_entry_merges_compatible_summaries() {
        let mut t = tree(2.0);
        let layout = layout1();
        let a = Acf::from_row(&layout, 0, &proj(1.0, 5.0));
        let b = Acf::from_row(&layout, 0, &proj(1.5, 7.0));
        t.insert_entry(a);
        t.insert_entry(b);
        assert_eq!(t.num_clusters(), 1);
        let only = t.leaf_entries().next().unwrap();
        assert_eq!(only.n(), 2);
        // Empty entries are ignored.
        t.insert_entry(Acf::empty(&layout, 0));
        assert_eq!(t.num_clusters(), 1);
    }

    #[test]
    fn stats_snapshot_is_consistent() {
        let mut t = tree(0.0);
        for i in 0..20 {
            t.insert_point(&proj(i as f64, 0.0));
        }
        let s = t.stats();
        assert_eq!(s.set, 0);
        assert_eq!(s.leaf_entries, 20);
        assert_eq!(s.rebuilds, 0);
        assert!(s.nodes >= 1);
        assert!(s.memory_bytes > 0);
        assert_eq!(s.outliers, 0);
    }

    #[test]
    fn invariants_hold_through_growth_rebuilds_and_outliers() {
        let config = BirchConfig {
            branching: 4,
            leaf_capacity: 4,
            initial_threshold: 0.0,
            memory_budget: 5_000,
            outlier_entry_limit: 3,
            threshold_growth: 2.0,
        };
        let mut t = AcfTree::new(layout1(), 0, config);
        // A deterministic pseudo-random stream covering merges, splits,
        // rebuilds and outlier paging.
        let mut x = 0x2545F4914F6CDD1Du64;
        for i in 0..800 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = (x % 1000) as f64 + if i % 5 == 0 { 0.0 } else { 0.5 };
            t.insert_point(&proj(v, v));
            if i % 97 == 0 {
                t.check_invariants().unwrap_or_else(|e| panic!("at insert {i}: {e}"));
            }
        }
        t.check_invariants().unwrap();
        // Outliers live outside the tree; finish() folds them back.
        let all = t.finish();
        assert_eq!(all.iter().map(Acf::n).sum::<u64>(), 800);
    }

    #[test]
    fn invariant_checker_detects_a_stale_parent() {
        let mut t = tree(0.0);
        for i in 0..50 {
            t.insert_point(&proj(i as f64, 0.0));
        }
        t.check_invariants().unwrap();
        // Corrupt a parent CF.
        for node in &mut t.nodes {
            if let Node::Internal { entries } = node {
                entries[0].cf.add_point(&[999.0]);
                break;
            }
        }
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn farthest_pair_partition_nonempty_sides() {
        let items = vec![0, 1, 2, 3];
        let centroids = vec![vec![0.0], vec![0.1], vec![10.0], vec![10.1]];
        let (a, b) = partition_by_farthest_pair(items, &centroids);
        assert!(!a.is_empty() && !b.is_empty());
        assert_eq!(a.len() + b.len(), 4);
        // The two tight groups end up on opposite sides.
        assert!(a.contains(&0) == a.contains(&1));
        assert!(b.contains(&2) == b.contains(&3));
    }
}
