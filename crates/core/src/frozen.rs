//! The frozen model every scoring consumer runs: a fixed min–max scaler
//! (Eq. 5) in front of a [`FrozenForest`].
//!
//! Serve snapshots, the CLI's model files and the eval harnesses all score
//! a raw feature row the same way: scale the selected columns, then walk
//! the compiled forest. [`OnlineModel::freeze`](crate::OnlineModel::freeze)
//! builds one from the live scaler and forest, and offline models pair
//! their fitted scaler with `freeze()` on the tree model. Scores are
//! bit-identical to the live model at the freeze point, one row at a time
//! or in a batch.

use orfpred_smart::scale::MinMaxScaler;
use orfpred_trees::FrozenForest;

/// A scaler plus the frozen forest that scores its output.
#[derive(Clone, Debug)]
pub struct FrozenModel {
    /// Scaler that maps a raw row onto the forest's inputs.
    pub scaler: MinMaxScaler,
    /// The compiled forest.
    pub forest: FrozenForest,
}

impl FrozenModel {
    /// Risk score of one raw, full-width feature row.
    pub fn score(&self, features: &[f32]) -> f32 {
        self.forest.score(&self.scaler.transform(features))
    }

    /// Batch-score raw rows: scale them all once, then run the forest's
    /// row kernel. Bit-identical to mapping [`Self::score`].
    pub fn score_rows(&self, rows: &[&[f32]]) -> Vec<f32> {
        let width = self.scaler.n_outputs();
        let mut scaled = vec![0.0f32; width * rows.len()];
        for (row, out) in rows.iter().zip(scaled.chunks_exact_mut(width)) {
            self.scaler.transform_into(row, out);
        }
        let refs: Vec<&[f32]> = scaled.chunks_exact(width).collect();
        self.forest.score_rows(&refs)
    }
}
