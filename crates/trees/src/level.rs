//! Batch scoring over the [`crate::FrozenForest`] arrays, built for
//! *throughput*: the public batch entry points, and their fan-out over
//! worker threads.
//!
//! [`crate::FrozenForest::score`] walks one row at a time, and each step of
//! that walk is a serial dependency chain (load node → load feature →
//! compare → compute next index), so a single row exposes almost no
//! instruction-level parallelism and every node fetch is paid once per row.
//! The batch paths keep the layout and change the traversal, through the
//! interleaved block kernel that sits beside the builder in
//! [`crate::frozen`] (the node arrays it reads unchecked are private to that
//! module):
//!
//! * **interleaved multi-row traversal** — [`LANES`] rows advance together
//!   one level per step. The per-row dependency chains are independent, so
//!   the out-of-order core overlaps them; the inner compare-and-advance
//!   loop is a fixed-trip-count, branch-free select over flat arrays that
//!   the autovectorizer can chew on;
//! * **level-order locality** — the builder lays each tree out breadth
//!   first, so while a block of rows is at depth `d` every node they can
//!   possibly touch sits in one contiguous stretch of the arrays and the
//!   fetches amortize across the block;
//! * **self-looping leaves** — a leaf's two child slots both point at the
//!   leaf itself, so rows that finish early simply spin in place until the
//!   block completes the tree's deepest level (`tree_depths`). No masks, no
//!   compaction, no divergence bookkeeping;
//! * **bit-identical scores** — routing is the same `x[f] <= thr` the live
//!   walkers use (NaN routes right), leaf values are copied verbatim, and
//!   each row's tree contributions are summed in tree order before one
//!   division; rows that do not fill a block go through the single-row
//!   walk. Every score is therefore bit-identical to
//!   [`crate::FrozenForest::score`] and to the live models
//!   (`tests/batch_equiv.rs` pins this as a shrinking property).
//!
//! Batches large enough to amortize thread startup fan out over
//! `std::thread::scope` with each worker writing a disjoint slice of the
//! output; per-row results do not depend on the split, so the output is
//! bit-identical for every thread count (including 1).

use crate::FrozenForest;

/// Rows advanced together per tree level. Eight keeps the cursor block and
/// accumulators comfortably in registers while exposing eight independent
/// load-compare-select chains per step.
pub const LANES: usize = 8;

/// Batches below this many rows stay on the calling thread: a thread spawn
/// costs far more than scoring a few thousand rows.
const MIN_ROWS_PER_THREAD: usize = 4096;

impl FrozenForest {
    /// Batch prediction over borrowed rows: lane blocks advancing level by
    /// level, with large batches fanned over the available cores. Every
    /// row scores bit-identically to [`FrozenForest::score`].
    pub fn score_rows(&self, rows: &[&[f32]]) -> Vec<f32> {
        self.score_rows_threaded(rows, auto_threads(rows.len()))
    }

    /// Batch-score borrowed rows with an explicit worker count. Rows are
    /// split into contiguous chunks, one per worker, each writing its own
    /// disjoint slice of the output — per-row scores are independent, so
    /// the result is bit-identical for every `n_threads` (the bench pins
    /// this to 1 for per-thread numbers and to the core count for totals).
    pub fn score_rows_threaded(&self, rows: &[&[f32]], n_threads: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; rows.len()];
        let workers = n_threads.max(1).min(rows.len().div_ceil(LANES).max(1));
        if workers == 1 {
            self.score_rows_range(rows, &mut out);
            return out;
        }
        // Chunks are multiples of LANES so only the final worker has a tail.
        let per = rows.len().div_ceil(workers).div_ceil(LANES) * LANES;
        std::thread::scope(|s| {
            for (chunk_rows, chunk_out) in rows.chunks(per).zip(out.chunks_mut(per)) {
                s.spawn(move || self.score_rows_range(chunk_rows, chunk_out));
            }
        });
        out
    }
}

/// Worker count for an auto-fanned batch: one per `MIN_ROWS_PER_THREAD`
/// rows, capped at the available cores. Thread count never changes scores
/// (disjoint output slices, row-independent work), only wall-clock.
fn auto_threads(n_rows: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    cores.min(n_rows / MIN_ROWS_PER_THREAD).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::{FrozenBuilder, SourceNode};

    /// Tree 0: split on f1 at 0.5 (left leaf 0.25 / right split on f0 at
    /// 0.3 → leaves 0.5, 0.75); tree 1: lone leaf 1.0. Depths differ so
    /// self-looping is exercised.
    fn forest() -> FrozenForest {
        let mut b = FrozenBuilder::new(3);
        b.add_tree(0, &mut |i| match i {
            0 => SourceNode::Split {
                feature: 1,
                threshold: 0.5,
                left: 1,
                right: 2,
            },
            1 => SourceNode::Leaf { value: 0.25 },
            2 => SourceNode::Split {
                feature: 0,
                threshold: 0.3,
                left: 3,
                right: 4,
            },
            3 => SourceNode::Leaf { value: 0.5 },
            _ => SourceNode::Leaf { value: 0.75 },
        });
        b.add_tree(0, &mut |_| SourceNode::Leaf { value: 1.0 });
        b.finish(vec![1.0, 2.0, 0.0])
    }

    #[test]
    fn layout_counts_match_the_hand_built_forest() {
        let f = forest();
        assert_eq!(f.n_trees(), 2);
        assert_eq!(f.n_nodes(), 6);
        assert_eq!(f.n_leaves(), 4);
        assert_eq!(f.n_features(), 3);
        assert_eq!(f.tree_node_counts(), vec![5, 1]);
        assert_eq!(f.max_depth(), 2);
        // Leaves: the lone leaf at depth 0, 0.25 at depth 1, 0.5 and 0.75
        // at depth 2.
        assert_eq!(f.depth_histogram(), vec![1, 1, 2]);
    }

    #[test]
    fn single_row_walk_matches_hand_computed_sums() {
        let f = forest();
        for (x, leaf) in [
            ([0.0f32, 0.2, 0.0], 0.25f32),
            ([0.0, 0.9, 0.0], 0.5),
            ([0.9, 0.9, 0.0], 0.75),
            ([f32::NAN, 0.9, 0.0], 0.75),
            ([0.2, f32::NAN, 0.0], 0.5),
            ([f32::INFINITY, f32::NEG_INFINITY, 1e30], 0.25),
        ] {
            let want = (leaf + 1.0) / 2.0;
            assert_eq!(f.score(&x).to_bits(), want.to_bits(), "{x:?}");
        }
    }

    #[test]
    fn nan_routes_right_like_the_live_walkers() {
        let f = forest();
        // NaN on the split feature must take the `hi` edge (v <= thr is
        // false) in the single-row walk and in the block kernel alike.
        let nan_row = [0.0f32, f32::NAN, 0.0];
        let hi_row = [0.0f32, 0.9, 0.0]; // routes right at the root too
        assert_eq!(f.score(&nan_row).to_bits(), f.score(&hi_row).to_bits());
        let block = f.score_rows_threaded(&[&nan_row[..]; LANES], 1);
        assert_eq!(block, vec![f.score(&hi_row); LANES]);
    }

    #[test]
    fn block_kernel_matches_single_row_at_every_batch_size() {
        let f = forest();
        // Deterministic pseudo-rows including NaN and out-of-range values.
        let make_row = |i: usize| -> Vec<f32> {
            let v = |k: usize| ((i * 31 + k * 17) % 13) as f32 / 6.0 - 0.4;
            match i % 7 {
                3 => vec![f32::NAN, v(1), v(2)],
                5 => vec![v(0), f32::INFINITY, -1e30],
                _ => vec![v(0), v(1), v(2)],
            }
        };
        for n in [0, 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 5] {
            let rows: Vec<Vec<f32>> = (0..n).map(make_row).collect();
            let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
            let got = f.score_rows(&refs);
            assert_eq!(got.len(), n);
            for (i, r) in refs.iter().enumerate() {
                assert_eq!(got[i].to_bits(), f.score(r).to_bits(), "n={n} row {i}");
            }
        }
    }

    #[test]
    fn thread_count_never_changes_scores() {
        let f = forest();
        let rows: Vec<Vec<f32>> = (0..5 * LANES + 3)
            .map(|i| vec![(i % 5) as f32 * 0.2, (i % 7) as f32 * 0.15, 0.0])
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let serial = f.score_rows_threaded(&refs, 1);
        for threads in [2, 3, 8] {
            assert_eq!(f.score_rows_threaded(&refs, threads), serial);
        }
    }

    #[test]
    fn memory_accounting_covers_all_arrays() {
        let f = forest();
        // 6 nodes · (2 + 4 + 4 + 4 + 4) bytes + 3 starts · 4 + 2 depths · 4
        // + 3 importances · 8.
        assert_eq!(f.memory_bytes(), 6 * 18 + 12 + 8 + 24);
    }
}
