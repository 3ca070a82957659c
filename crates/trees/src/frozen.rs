//! The frozen-forest scoring layer: one flat, cache-friendly representation
//! shared by every scoring consumer (serve snapshots, the eval harnesses,
//! the CLI).
//!
//! Live trees are built for *growth*: arena nodes are enum-tagged, online
//! leaves drag candidate-test pools of up to `N = 5 000` streaming
//! statistics, and the online ensemble re-derives its mature-tree pool on
//! every call. None of that is needed to *score*. `freeze()` compiles any
//! tree model ([`crate::DecisionTree`], [`crate::RandomForest`], and the
//! online forest in `orfpred-core`) into a [`FrozenForest`]:
//!
//! * **struct-of-arrays** — parallel `feature: u16` / `threshold: f32` /
//!   `lo: u32` / `hi: u32` / `value: f32` arrays, no enum tags, no per-leaf
//!   pools;
//! * **breadth-first layout** — [`FrozenBuilder::add_tree`] lays each tree
//!   out level by level, left child queued before right, so a node's
//!   children always sit after it inside its own tree, and while a block of
//!   rows is at depth `d` every node it can touch sits in one contiguous
//!   stretch of the arrays;
//! * **self-looping leaves** — both child edges are explicit absolute
//!   indices, and a leaf's two edges point at the leaf itself;
//! * **contiguous per-forest storage** — all trees share one node pool,
//!   delimited by `tree_starts`, with each tree's deepest leaf recorded in
//!   `tree_depths`;
//! * **bit-identical scores** — routing is the live walkers' `x[f] <= thr`
//!   (NaN routes right), leaf values are copied verbatim, and tree
//!   contributions are summed in tree order before one division, so
//!   freezing never changes a prediction (enforced by
//!   `tests/frozen_equiv.rs` and `tests/batch_equiv.rs`).
//!
//! [`FrozenForest::score`] walks one row down each tree and stops at the
//! first node that loops to itself. The block kernel beside it advances
//! [`LANES`] rows together one level per step over the same arrays, with
//! unchecked indexing that rests on the builder's layout facts — which is
//! why the builder, the node arrays and the kernel share this module. The
//! public batch entry points and their thread fan-out are in
//! [`crate::level`].
//!
//! Per-feature importances are preserved at freeze time (normalized, as the
//! live `importances()` accessors report them) — the paper's
//! interpretability hook survives compilation.

use crate::level::LANES;

/// One resolved node of a source tree, handed to [`FrozenBuilder::add_tree`]
/// by a model's `freeze()` implementation.
pub enum SourceNode {
    /// An internal decision node: `x[feature] <= threshold` routes left.
    Split {
        /// Feature index tested.
        feature: u16,
        /// Decision threshold.
        threshold: f32,
        /// Source-arena index of the left child.
        left: u32,
        /// Source-arena index of the right child.
        right: u32,
    },
    /// A leaf with its final score contribution (positive-class fraction).
    Leaf {
        /// The value `score()` returns when a row reaches this leaf.
        value: f32,
    },
}

/// Incremental constructor for a [`FrozenForest`]: each source tree is laid
/// out breadth-first through a node resolver.
pub struct FrozenBuilder {
    /// The forest under construction (importances are filled in by
    /// [`Self::finish`]).
    forest: FrozenForest,
    /// Breadth-first work queue of `(source index, depth)` for the tree
    /// being added: entry `i` becomes the tree's node `i`.
    queue: Vec<(u32, u32)>,
}

impl FrozenBuilder {
    /// Start a forest over `n_features` inputs.
    pub fn new(n_features: usize) -> Self {
        assert!(
            n_features > 0 && n_features <= u16::MAX as usize,
            "feature count {n_features} does not fit the packed u16 layout"
        );
        Self {
            forest: FrozenForest {
                feature: Vec::new(),
                threshold: Vec::new(),
                lo: Vec::new(),
                hi: Vec::new(),
                value: Vec::new(),
                tree_starts: vec![0],
                tree_depths: Vec::new(),
                n_features,
                importances: Vec::new(),
            },
            queue: Vec::new(),
        }
    }

    /// Append one tree, walking it from `root` via `resolve` (which maps a
    /// source-arena index to its node). Nodes are emitted in the order they
    /// leave a breadth-first queue; a split reserves the next two queue
    /// slots for its left then right child, so `hi == lo + 1` and both lie
    /// after the split inside this tree. Trees are scored in insertion
    /// order, so callers must add them in the same order the live ensemble
    /// sums.
    pub fn add_tree(&mut self, root: u32, resolve: &mut dyn FnMut(u32) -> SourceNode) {
        let f = &mut self.forest;
        let base = f.feature.len();
        self.queue.clear();
        self.queue.push((root, 0));
        let mut deepest = 0;
        let mut head = 0;
        while let Some(&(src, depth)) = self.queue.get(head) {
            let slot = (base + head) as u32;
            match resolve(src) {
                SourceNode::Leaf { value } => {
                    f.push_node(0, 0.0, slot, slot, value);
                    deepest = deepest.max(depth);
                }
                SourceNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    assert!(
                        (feature as usize) < f.n_features,
                        "split feature {feature} out of range"
                    );
                    let lo = (base + self.queue.len()) as u32;
                    self.queue.push((left, depth + 1));
                    self.queue.push((right, depth + 1));
                    f.push_node(feature, threshold, lo, lo + 1, 0.0);
                }
            }
            head += 1;
        }
        f.tree_starts.push(f.feature.len() as u32);
        f.tree_depths.push(deepest);
    }

    /// Seal the forest. `importances` are raw per-feature accumulated gains
    /// (summed over however many trees the caller chose); they are
    /// normalized here exactly as the live `importances()` accessors do.
    pub fn finish(self, mut importances: Vec<f64>) -> FrozenForest {
        let mut forest = self.forest;
        assert_eq!(importances.len(), forest.n_features);
        assert!(
            !forest.tree_depths.is_empty(),
            "a frozen forest needs at least one tree"
        );
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            for v in &mut importances {
                *v /= total;
            }
        }
        forest.importances = importances;
        forest
    }
}

/// An immutable, flat, breadth-first forest — the single scoring
/// representation used by serve snapshots, the eval batch paths, and the
/// CLI.
///
/// Node `i` carries `feature[i]` / `threshold[i]` and two absolute child
/// indices: `lo[i]` is taken when `x[feature] <= threshold`, `hi[i]`
/// otherwise. A leaf points both edges at itself and keeps its
/// contribution in `value[i]`.
///
/// Build one with `freeze()` on [`crate::DecisionTree`],
/// [`crate::RandomForest`], or the online tree/forest in `orfpred-core`.
#[derive(Clone, Debug)]
pub struct FrozenForest {
    /// Split feature per node; leaves store 0 (a safe, never-routing read).
    feature: Vec<u16>,
    /// Split threshold per internal node; leaves store 0.0.
    threshold: Vec<f32>,
    /// Next node when `x[feature] <= threshold`; for leaves, the node itself.
    lo: Vec<u32>,
    /// Next node otherwise; for leaves, the node itself.
    hi: Vec<u32>,
    /// Leaf value at leaf nodes, 0.0 at internal nodes.
    value: Vec<f32>,
    /// Node-pool offsets: tree `t` occupies `tree_starts[t]..tree_starts[t+1]`
    /// in breadth-first order, root first.
    tree_starts: Vec<u32>,
    /// Deepest leaf per tree — the number of level steps after which every
    /// row is guaranteed to sit on (or spin at) a leaf.
    tree_depths: Vec<u32>,
    n_features: usize,
    /// Normalized per-feature importances captured at freeze time.
    importances: Vec<f64>,
}

impl FrozenForest {
    fn push_node(&mut self, feature: u16, threshold: f32, lo: u32, hi: u32, value: f32) {
        self.feature.push(feature);
        self.threshold.push(threshold);
        self.lo.push(lo);
        self.hi.push(hi);
        self.value.push(value);
    }

    /// Ensemble score of one (scaled) row: each tree is walked from its root
    /// to the first node that loops to itself, and the leaf values are
    /// summed in tree order before one division — bit-identical to the live
    /// ensembles. Every index is bounds-checked; the walk terminates because
    /// a split's children always sit after it.
    pub fn score(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.n_features, "feature dimension mismatch");
        let mut sum = 0.0f32;
        for &root in &self.tree_starts[..self.n_trees()] {
            let mut at = root as usize;
            let mut lo = self.lo[at] as usize;
            while lo != at {
                // A split's right child is `hi == lo + 1`: stepping by the
                // comparison keeps the walk free of a data-dependent branch.
                // NaN compares false and goes right, like the live walkers.
                let left = x[self.feature[at] as usize] <= self.threshold[at];
                at = lo + usize::from(!left);
                lo = self.lo[at] as usize;
            }
            sum += self.value[at];
        }
        sum / self.n_trees() as f32
    }

    /// Hard prediction at vote threshold `tau`.
    pub fn predict(&self, x: &[f32], tau: f32) -> bool {
        self.score(x) >= tau
    }

    /// The interleaved block kernel: advance [`LANES`] rows together one
    /// tree level per step, gathering each lane's feature via `fetch`.
    ///
    /// # Safety
    ///
    /// `fetch(lane, f)` must be in-bounds for every `lane < LANES` and
    /// every `f < self.n_features` (the two range wrappers check row and
    /// column dimensions before calling). Node indices stay in-bounds
    /// because [`FrozenBuilder::add_tree`] — the only code that writes the
    /// node arrays — sets `lo`/`hi` to absolute offsets inside the same
    /// tree's pool range and lets leaves self-loop, so a cursor never
    /// leaves the pool.
    #[inline(always)]
    // SAFETY: sound iff `fetch(lane, f)` is in-bounds for every lane < LANES
    // and f < n_features — the `# Safety` contract above, upheld by the two
    // length-checked wrappers (`score_rows_range`, `score_columns_range`).
    unsafe fn score_block<F: Fn(usize, usize) -> f32>(&self, fetch: F, out: &mut [f32]) {
        let mut acc = [0.0f32; LANES];
        for t in 0..self.n_trees() {
            // SAFETY: t < n_trees, so tree_starts[t] and tree_depths[t]
            // exist; the root offset is a valid pool index by construction.
            let root = *self.tree_starts.get_unchecked(t);
            let depth = *self.tree_depths.get_unchecked(t);
            let mut cur = [root; LANES];
            for _ in 0..depth {
                for (l, c) in cur.iter_mut().enumerate() {
                    let at = *c as usize;
                    // SAFETY: `at` starts at a tree root and only ever moves
                    // through `lo`/`hi`, which the builder fills with
                    // absolute in-pool indices (leaves point at themselves),
                    // so every node-array read below is in bounds. `feature`
                    // is < n_features for splits and 0 for leaves, so the
                    // caller-guaranteed `fetch` contract covers the gather.
                    let f = *self.feature.get_unchecked(at) as usize;
                    let thr = *self.threshold.get_unchecked(at);
                    let lo = *self.lo.get_unchecked(at);
                    let hi = *self.hi.get_unchecked(at);
                    let v = fetch(l, f);
                    *c = if v <= thr { lo } else { hi };
                }
            }
            for l in 0..LANES {
                // SAFETY: cursors are in-pool (argument above).
                acc[l] += *self.value.get_unchecked(cur[l] as usize);
            }
        }
        let n_trees = self.n_trees() as f32;
        for l in 0..LANES {
            out[l] = acc[l] / n_trees;
        }
    }

    /// Score a contiguous run of borrowed rows into `out` on the calling
    /// thread. Full lane blocks go through the interleaved kernel; the tail
    /// goes through the single-row walk.
    pub(crate) fn score_rows_range(&self, rows: &[&[f32]], out: &mut [f32]) {
        debug_assert_eq!(rows.len(), out.len());
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), self.n_features, "row {i}: feature dimension");
        }
        let n = rows.len();
        let full = n - n % LANES;
        for base in (0..full).step_by(LANES) {
            let block: &[&[f32]] = &rows[base..base + LANES];
            // SAFETY: every row's length was asserted equal to n_features
            // above, and `f < n_features` per the kernel's contract, so the
            // gather below is in bounds.
            unsafe {
                self.score_block(
                    |l, f| *block.get_unchecked(l).get_unchecked(f),
                    &mut out[base..base + LANES],
                );
            }
        }
        for i in full..n {
            out[i] = self.score(rows[i]);
        }
    }

    /// Score the column-major rows `[base, base + out.len())` into `out` on
    /// the calling thread (same split between kernel and tail as
    /// [`Self::score_rows_range`]).
    pub(crate) fn score_columns_range(&self, cols: &[&[f32]], base: usize, out: &mut [f32]) {
        let n = out.len();
        assert_eq!(cols.len(), self.n_features, "feature dimension mismatch");
        for c in cols {
            assert!(
                c.len() >= base + n,
                "feature column shorter than the rows scored"
            );
        }
        let full = n - n % LANES;
        for start in (0..full).step_by(LANES) {
            let row0 = base + start;
            // SAFETY: `f < n_features == cols.len()` per the kernel's
            // contract, and `row0 + l < base + n <= cols[f].len()` was
            // asserted above.
            unsafe {
                self.score_block(
                    |l, f| *cols.get_unchecked(f).get_unchecked(row0 + l),
                    &mut out[start..start + LANES],
                );
            }
        }
        let mut row = vec![0.0f32; self.n_features];
        for i in full..n {
            for (f, c) in cols.iter().enumerate() {
                row[f] = c[base + i];
            }
            out[i] = self.score(&row);
        }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.tree_starts.len() - 1
    }

    /// Total nodes across all trees.
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Total leaves across all trees (nodes whose child edges self-loop).
    pub fn n_leaves(&self) -> usize {
        self.lo
            .iter()
            .enumerate()
            .filter(|&(i, &lo)| lo as usize == i)
            .count()
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Node count of each tree, in scoring order.
    pub fn tree_node_counts(&self) -> Vec<usize> {
        self.tree_starts
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .collect()
    }

    /// Leaf-depth histogram over the whole forest: `hist[d]` = number of
    /// leaves at depth `d` (root = 0).
    pub fn depth_histogram(&self) -> Vec<u64> {
        let mut hist: Vec<u64> = Vec::new();
        let mut depth = vec![0u32; self.feature.len()];
        for w in self.tree_starts.windows(2) {
            let (s, e) = (w[0] as usize, w[1] as usize);
            depth[s] = 0;
            // Breadth-first layout ⇒ children sit strictly after their
            // parent, so one forward sweep settles every depth before it is
            // read.
            for i in s..e {
                if self.lo[i] as usize == i {
                    let d = depth[i] as usize;
                    if hist.len() <= d {
                        hist.resize(d + 1, 0);
                    }
                    hist[d] += 1;
                } else {
                    depth[self.lo[i] as usize] = depth[i] + 1;
                    depth[self.hi[i] as usize] = depth[i] + 1;
                }
            }
        }
        hist
    }

    /// Deepest leaf in the forest.
    pub fn max_depth(&self) -> usize {
        self.tree_depths.iter().copied().max().unwrap_or(0) as usize
    }

    /// Heap footprint of every array the forest owns, in bytes.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.feature.len() * size_of::<u16>()
            + (self.threshold.len() + self.value.len()) * size_of::<f32>()
            + (self.lo.len() + self.hi.len()) * size_of::<u32>()
            + (self.tree_starts.len() + self.tree_depths.len()) * size_of::<u32>()
            + self.importances.len() * size_of::<f64>()
    }

    /// Normalized per-feature importances captured at freeze time (sum to 1
    /// unless the source never split).
    pub fn importances(&self) -> &[f64] {
        &self.importances
    }

    /// The `k` most important features as `(feature, weight)` pairs,
    /// heaviest first; features with zero importance are omitted.
    pub fn top_importances(&self, k: usize) -> Vec<(usize, f64)> {
        let mut ranked: Vec<(usize, f64)> = self
            .importances
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, w)| w > 0.0)
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_util::Matrix;

    /// Hand-build: tree 0 = stump splitting on feature 1 at 0.5
    /// (left leaf 0.25, right leaf 0.75); tree 1 = single leaf 1.0.
    fn two_tree_forest() -> FrozenForest {
        let mut b = FrozenBuilder::new(3);
        b.add_tree(0, &mut |i| match i {
            0 => SourceNode::Split {
                feature: 1,
                threshold: 0.5,
                left: 1,
                right: 2,
            },
            1 => SourceNode::Leaf { value: 0.25 },
            _ => SourceNode::Leaf { value: 0.75 },
        });
        b.add_tree(0, &mut |_| SourceNode::Leaf { value: 1.0 });
        b.finish(vec![0.0, 2.0, 0.0])
    }

    #[test]
    fn hand_built_forest_scores_and_counts() {
        let f = two_tree_forest();
        assert_eq!(f.n_trees(), 2);
        assert_eq!(f.n_nodes(), 4);
        assert_eq!(f.n_leaves(), 3);
        assert_eq!(f.tree_node_counts(), vec![3, 1]);
        assert_eq!(f.score(&[0.0, 0.2, 0.0]), (0.25 + 1.0) / 2.0);
        assert_eq!(f.score(&[0.0, 0.9, 0.0]), (0.75 + 1.0) / 2.0);
        assert!(f.predict(&[0.0, 0.9, 0.0], 0.8));
        assert!(!f.predict(&[0.0, 0.2, 0.0], 0.8));
    }

    #[test]
    fn importances_are_normalized_at_finish() {
        let f = two_tree_forest();
        assert_eq!(f.importances(), &[0.0, 1.0, 0.0]);
        assert_eq!(f.top_importances(5), vec![(1, 1.0)]);
    }

    #[test]
    fn depth_histogram_and_memory_accounting() {
        let f = two_tree_forest();
        // Tree 0: two leaves at depth 1; tree 1: one leaf at depth 0.
        assert_eq!(f.depth_histogram(), vec![1, 2]);
        assert_eq!(f.max_depth(), 1);
        // 4 nodes · (2 + 4 + 4 + 4 + 4) bytes + 3 starts · 4 + 2 depths · 4
        // + 3 importances · 8.
        assert_eq!(f.memory_bytes(), 4 * 18 + 12 + 8 + 24);
    }

    #[test]
    fn batch_scoring_matches_single_row() {
        let f = two_tree_forest();
        let mut m = Matrix::new(3);
        for v in [0.0f32, 0.4, 0.6, 1.0] {
            m.push_row(&[0.0, v, 0.0]);
        }
        let batch = f.score_batch(&m);
        for (i, &s) in batch.iter().enumerate() {
            assert_eq!(s, f.score(m.row(i)), "row {i}");
        }
        let rows: Vec<&[f32]> = (0..m.n_rows()).map(|i| m.row(i)).collect();
        assert_eq!(f.score_rows(&rows), batch);
    }

    #[test]
    fn columnar_scoring_matches_row_scoring() {
        let f = two_tree_forest();
        let rows = [
            [0.0f32, 0.0, 0.7],
            [0.3, 0.4, 0.1],
            [0.9, 0.6, 0.2],
            [0.1, 1.0, 0.5],
        ];
        let cols: Vec<Vec<f32>> = (0..3)
            .map(|c| rows.iter().map(|r| r[c]).collect())
            .collect();
        let col_refs: Vec<&[f32]> = cols.iter().map(|c| c.as_slice()).collect();
        let by_col = f.score_columns(&col_refs);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(by_col[i].to_bits(), f.score(r).to_bits(), "row {i}");
        }
        let empty: Vec<&[f32]> = vec![&[], &[], &[]];
        assert!(f.score_columns(&empty).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn empty_forest_is_rejected() {
        let _ = FrozenBuilder::new(2).finish(vec![0.0, 0.0]);
    }

    /// Splits per spine; each spine is this many levels deep.
    const SPINE: u32 = 20;
    /// Features per spine: the left spine tests `0..3`, its mirror `3..6`.
    const SPINE_FEATURES: usize = 3;

    /// Value of the leaf a row reaches when it first turns off a spine at
    /// split `turn` (`turn == SPINE` means it never turns). Small dyadic
    /// fractions, so sums of them are exact in f32.
    fn spine_leaf(turn: u32, scale: f32) -> f32 {
        (turn + 1) as f32 / scale
    }

    /// Three lopsided trees over 6 features: a left spine [`SPINE`] levels
    /// deep with a leaf on every right edge, its mirror (a right spine with a
    /// leaf on every left edge), and a tree that is only a leaf.
    ///
    /// Spine split `k` sits at source index `2k` and tests feature
    /// `k % 3` (mirror: `3 + k % 3`); its off-spine leaf is `2k + 1`, and
    /// the leaf ending the spine is `2 * SPINE`. Left-spine thresholds fall
    /// (`SPINE - k`) and mirror thresholds rise (`k`), so one value per
    /// feature decides where a row turns.
    fn lopsided_forest() -> FrozenForest {
        let mut b = FrozenBuilder::new(2 * SPINE_FEATURES);
        b.add_tree(0, &mut |i| {
            let k = i / 2;
            if i == 2 * SPINE {
                SourceNode::Leaf {
                    value: spine_leaf(SPINE, 32.0),
                }
            } else if i % 2 == 1 {
                SourceNode::Leaf {
                    value: spine_leaf(k, 32.0),
                }
            } else {
                SourceNode::Split {
                    feature: (k as usize % SPINE_FEATURES) as u16,
                    threshold: (SPINE - k) as f32,
                    left: i + 2,
                    right: i + 1,
                }
            }
        });
        b.add_tree(0, &mut |i| {
            let k = i / 2;
            if i == 2 * SPINE {
                SourceNode::Leaf {
                    value: spine_leaf(SPINE, 64.0),
                }
            } else if i % 2 == 1 {
                SourceNode::Leaf {
                    value: spine_leaf(k, 64.0),
                }
            } else {
                SourceNode::Split {
                    feature: (SPINE_FEATURES + k as usize % SPINE_FEATURES) as u16,
                    threshold: k as f32,
                    left: i + 1,
                    right: i + 2,
                }
            }
        });
        b.add_tree(0, &mut |_| SourceNode::Leaf { value: 0.5 });
        b.finish(vec![1.0; 2 * SPINE_FEATURES])
    }

    /// A row that turns off the left spine at split `left_turn` and off the
    /// mirror at `right_turn` (`SPINE` = never turns, ending on the deepest
    /// leaf), with its hand-computed ensemble score.
    fn spine_row(left_turn: u32, right_turn: u32) -> (Vec<f32>, f32) {
        // Features default to "stay on the spine": far below every
        // left-spine threshold, far above every mirror threshold.
        let mut x = vec![-1e9f32; SPINE_FEATURES];
        x.extend([1e9f32; SPINE_FEATURES]);
        if left_turn < SPINE {
            // Above threshold `SPINE - left_turn`, at or below every earlier
            // threshold of the same feature.
            x[left_turn as usize % SPINE_FEATURES] = (SPINE - left_turn) as f32 + 0.5;
        }
        if right_turn < SPINE {
            x[SPINE_FEATURES + right_turn as usize % SPINE_FEATURES] = right_turn as f32 - 0.5;
        }
        let sum = spine_leaf(left_turn, 32.0) + spine_leaf(right_turn, 64.0) + 0.5;
        (x, sum / 3.0)
    }

    #[test]
    fn layout_facts_hold_on_lopsided_trees() {
        let f = lopsided_forest();
        assert_eq!(f.tree_node_counts(), vec![41, 41, 1]);
        assert_eq!(f.tree_depths, vec![SPINE, SPINE, 0]);
        for t in 0..f.n_trees() {
            let (start, end) = (f.tree_starts[t] as usize, f.tree_starts[t + 1] as usize);
            // Depths by a walk of the child edges from the root, independent
            // of the node order the builder chose.
            let mut depth = vec![None; end - start];
            depth[0] = Some(0u32);
            let mut frontier = vec![start];
            let mut deepest_leaf = 0;
            let (mut leaves, mut splits) = (0, 0);
            while let Some(i) = frontier.pop() {
                let d = depth[i - start].expect("reached from its parent");
                let (lo, hi) = (f.lo[i] as usize, f.hi[i] as usize);
                if lo == i {
                    assert_eq!(hi, i, "node {i}: a leaf loops on both edges");
                    assert_eq!(f.feature[i], 0, "node {i}: leaves read feature 0");
                    leaves += 1;
                    deepest_leaf = deepest_leaf.max(d);
                    continue;
                }
                splits += 1;
                assert!(
                    (f.feature[i] as usize) < f.n_features(),
                    "node {i}: split feature in range"
                );
                assert_eq!(f.value[i], 0.0, "node {i}: splits carry no value");
                assert_eq!(hi, lo + 1, "node {i}: children are adjacent");
                for child in [lo, hi] {
                    assert!(
                        i < child && child < end,
                        "node {i}: child {child} outside ({i}, {end}) of tree {t}"
                    );
                    assert!(depth[child - start].is_none(), "node {child}: one parent");
                    depth[child - start] = Some(d + 1);
                    frontier.push(child);
                }
            }
            assert!(depth.iter().all(Option::is_some), "tree {t}: all reachable");
            assert!(
                depth.windows(2).all(|w| w[0] <= w[1]),
                "tree {t}: nodes in level order"
            );
            assert_eq!(leaves, splits + 1, "tree {t}: binary tree");
            assert_eq!(f.tree_depths[t], deepest_leaf, "tree {t}: deepest leaf");
        }
    }

    #[test]
    fn rows_ending_at_every_depth_score_exactly_on_every_path() {
        let f = lopsided_forest();
        // Row r leaves the left spine at depth r + 1 and its mirror at depth
        // SPINE + 1 - r (both capped at SPINE): together, every depth of
        // both spines.
        let cases: Vec<(Vec<f32>, f32)> = (0..=SPINE).map(|r| spine_row(r, SPINE - r)).collect();
        let rows: Vec<&[f32]> = cases.iter().map(|(x, _)| x.as_slice()).collect();
        let cols: Vec<Vec<f32>> = (0..f.n_features())
            .map(|c| rows.iter().map(|r| r[c]).collect())
            .collect();
        let col_refs: Vec<&[f32]> = cols.iter().map(|c| c.as_slice()).collect();
        for (r, (x, want)) in cases.iter().enumerate() {
            // Single-row walk.
            assert_eq!(f.score(x).to_bits(), want.to_bits(), "row {r}: single");
            // Short tail: a one-row batch never fills a lane block.
            let tail = f.score_rows_threaded(&[x.as_slice()], 1);
            assert_eq!(tail[0].to_bits(), want.to_bits(), "row {r}: tail");
            // 8-lane block: the row beside its seven successors (cyclically),
            // through the row and the column gathers.
            let block: Vec<&[f32]> = (0..LANES).map(|l| rows[(r + l) % rows.len()]).collect();
            let by_rows = f.score_rows_threaded(&block, 1);
            assert_eq!(by_rows[0].to_bits(), want.to_bits(), "row {r}: block");
            let block_cols: Vec<Vec<f32>> = col_refs
                .iter()
                .map(|c| (0..LANES).map(|l| c[(r + l) % rows.len()]).collect())
                .collect();
            let block_col_refs: Vec<&[f32]> = block_cols.iter().map(|c| c.as_slice()).collect();
            let by_cols = f.score_columns_threaded(&block_col_refs, 1);
            assert_eq!(by_cols[0].to_bits(), want.to_bits(), "row {r}: columns");
        }
    }
}
