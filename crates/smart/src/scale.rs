//! Feature scaling (Eq. 5 of the paper) and column selection.
//!
//! [`MinMaxScaler`] bundles the two preprocessing steps every model needs:
//! pick the selected feature columns out of the 48-column snapshot and map
//! each to `[0, 1]` via `(x - min) / (max - min)`. Outputs are clamped so
//! unseen test values outside the training range stay in-bounds (a practical
//! necessity the paper's formula leaves implicit).
//!
//! [`OnlineMinMax`] is the streaming variant used by the online predictor:
//! bounds widen as data arrives, which keeps the transform well-defined from
//! the very first sample without peeking at future data.

use serde::{Deserialize, Serialize};

/// Offline min–max scaler over a fixed column subset.
///
/// ```
/// use orfpred_smart::scale::MinMaxScaler;
///
/// let rows: Vec<[f32; 3]> = vec![[0.0, 5.0, 9.9], [10.0, 7.0, 0.3]];
/// // Scale columns 0 and 1 only.
/// let scaler = MinMaxScaler::fit(rows.iter().map(|r| r.as_slice()), &[0, 1]);
/// assert_eq!(scaler.transform(&[5.0, 6.0, 123.0]), vec![0.5, 0.5]);
/// assert_eq!(scaler.transform(&[99.0, -4.0, 0.0]), vec![1.0, 0.0]); // clamped
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MinMaxScaler {
    cols: Vec<usize>,
    min: Vec<f32>,
    max: Vec<f32>,
    log1p: bool,
}

/// `ln(1 + max(x, 0))` — the variance-stabilising transform applied ahead
/// of min–max scaling when `log1p` is on. SMART raw counters are extremely
/// heavy-tailed (a dying disk reports thousands of reallocated sectors, a
/// healthy one units), and compressing them keeps the informative region
/// from collapsing into a sliver of `[0, 1]` — which matters for ORF's
/// uniform random thresholds and the SVM's RBF geometry. Monotone, so
/// exact-split learners (CART/RF) are unaffected.
#[inline]
fn log1p_pos(x: f32) -> f32 {
    x.max(0.0).ln_1p()
}

impl MinMaxScaler {
    /// Fit bounds for `cols` over the given rows.
    ///
    /// Panics if `rows` is empty or a column index is out of range.
    pub fn fit<'a, I>(rows: I, cols: &[usize]) -> Self
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        Self::fit_with(rows, cols, false)
    }

    /// Fit with the `log1p` pre-transform enabled.
    pub fn fit_log1p<'a, I>(rows: I, cols: &[usize]) -> Self
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        Self::fit_with(rows, cols, true)
    }

    fn fit_with<'a, I>(rows: I, cols: &[usize], log1p: bool) -> Self
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        let mut min = vec![f32::INFINITY; cols.len()];
        let mut max = vec![f32::NEG_INFINITY; cols.len()];
        let mut any = false;
        for row in rows {
            any = true;
            for (j, &c) in cols.iter().enumerate() {
                let v = if log1p { log1p_pos(row[c]) } else { row[c] };
                if v < min[j] {
                    min[j] = v;
                }
                if v > max[j] {
                    max[j] = v;
                }
            }
        }
        assert!(any, "MinMaxScaler::fit requires at least one row");
        Self {
            cols: cols.to_vec(),
            min,
            max,
            log1p,
        }
    }

    /// Selected input columns.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Number of output features.
    pub fn n_outputs(&self) -> usize {
        self.cols.len()
    }

    /// Transform a full snapshot row into the scaled selected vector.
    pub fn transform(&self, row: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols.len()];
        self.transform_into(row, &mut out);
        out
    }

    /// Transform into a caller-provided buffer (no allocation).
    pub fn transform_into(&self, row: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), self.cols.len());
        for (j, &c) in self.cols.iter().enumerate() {
            let v = if self.log1p {
                log1p_pos(row[c])
            } else {
                row[c]
            };
            let span = self.max[j] - self.min[j];
            out[j] = if span > 0.0 {
                ((v - self.min[j]) / span).clamp(0.0, 1.0)
            } else {
                // Constant feature in training data: map everything to 0.
                0.0
            };
        }
    }

    /// Columnar transform: `input[c]` holds all rows of raw feature `c`;
    /// the result holds one scaled column per *selected* feature, in
    /// selection order. Each element goes through the exact expression
    /// [`Self::transform`] applies, so scoring a transposed batch is
    /// bit-identical to scaling row by row — the invariant the telemetry
    /// store's segment-replay path relies on.
    pub fn transform_columns(&self, input: &[&[f32]]) -> Vec<Vec<f32>> {
        let n = input.first().map_or(0, |c| c.len());
        self.cols
            .iter()
            .enumerate()
            .map(|(j, &c)| {
                let col = input[c];
                assert_eq!(col.len(), n, "ragged input columns");
                let span = self.max[j] - self.min[j];
                col.iter()
                    .map(|&x| {
                        let v = if self.log1p { log1p_pos(x) } else { x };
                        if span > 0.0 {
                            ((v - self.min[j]) / span).clamp(0.0, 1.0)
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Streaming min–max scaler: bounds widen as samples arrive.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OnlineMinMax {
    cols: Vec<usize>,
    min: Vec<f32>,
    max: Vec<f32>,
    seen: u64,
    log1p: bool,
}

impl OnlineMinMax {
    /// New scaler over the given columns, with empty bounds.
    pub fn new(cols: &[usize]) -> Self {
        Self {
            min: vec![f32::INFINITY; cols.len()],
            max: vec![f32::NEG_INFINITY; cols.len()],
            cols: cols.to_vec(),
            seen: 0,
            log1p: false,
        }
    }

    /// New scaler with the `log1p` pre-transform enabled.
    pub fn new_log1p(cols: &[usize]) -> Self {
        Self {
            log1p: true,
            ..Self::new(cols)
        }
    }

    /// Widen bounds with one observed row.
    pub fn update(&mut self, row: &[f32]) {
        for (j, &c) in self.cols.iter().enumerate() {
            let v = if self.log1p {
                log1p_pos(row[c])
            } else {
                row[c]
            };
            if v < self.min[j] {
                self.min[j] = v;
            }
            if v > self.max[j] {
                self.max[j] = v;
            }
        }
        self.seen += 1;
    }

    /// Number of rows folded in so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Selected input columns, in output order.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Number of output features.
    pub fn n_outputs(&self) -> usize {
        self.cols.len()
    }

    /// Transform with the current bounds (clamped to `[0, 1]`).
    pub fn transform_into(&self, row: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), self.cols.len());
        for (j, &c) in self.cols.iter().enumerate() {
            let v = if self.log1p {
                log1p_pos(row[c])
            } else {
                row[c]
            };
            let span = self.max[j] - self.min[j];
            out[j] = if span > 0.0 && span.is_finite() {
                ((v - self.min[j]) / span).clamp(0.0, 1.0)
            } else {
                0.0
            };
        }
    }

    /// Allocating variant of [`OnlineMinMax::transform_into`].
    pub fn transform(&self, row: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols.len()];
        self.transform_into(row, &mut out);
        out
    }

    /// Columnar transform with the current bounds: `input[c]` holds all
    /// rows of raw feature `c`; the result holds one scaled column per
    /// selected feature, in selection order. Each element goes through the
    /// exact expression [`OnlineMinMax::transform_into`] applies (including
    /// the finite-span guard), so a transposed batch scales bit-identically
    /// to row-by-row — the store's columnar ORF scoring path relies on it.
    pub fn transform_columns(&self, input: &[&[f32]]) -> Vec<Vec<f32>> {
        let n = input.first().map_or(0, |c| c.len());
        self.cols
            .iter()
            .enumerate()
            .map(|(j, &c)| {
                let col = input[c];
                assert_eq!(col.len(), n, "ragged input columns");
                let span = self.max[j] - self.min[j];
                col.iter()
                    .map(|&x| {
                        let v = if self.log1p { log1p_pos(x) } else { x };
                        if span > 0.0 && span.is_finite() {
                            ((v - self.min[j]) / span).clamp(0.0, 1.0)
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offline_scaler_maps_to_unit_interval() {
        let rows: Vec<[f32; 3]> = vec![[0.0, 10.0, 5.0], [4.0, 20.0, 5.0], [2.0, 15.0, 5.0]];
        let s = MinMaxScaler::fit(rows.iter().map(|r| r.as_slice()), &[0, 1, 2]);
        assert_eq!(s.transform(&[0.0, 10.0, 5.0]), vec![0.0, 0.0, 0.0]);
        assert_eq!(s.transform(&[4.0, 20.0, 5.0]), vec![1.0, 1.0, 0.0]);
        let mid = s.transform(&[2.0, 15.0, 5.0]);
        assert!((mid[0] - 0.5).abs() < 1e-6);
        assert!((mid[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn offline_scaler_clamps_out_of_range_test_values() {
        let rows: Vec<[f32; 1]> = vec![[0.0], [10.0]];
        let s = MinMaxScaler::fit(rows.iter().map(|r| r.as_slice()), &[0]);
        assert_eq!(s.transform(&[-5.0]), vec![0.0]);
        assert_eq!(s.transform(&[99.0]), vec![1.0]);
    }

    #[test]
    fn offline_scaler_selects_columns() {
        let rows: Vec<[f32; 4]> = vec![[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0]];
        let s = MinMaxScaler::fit(rows.iter().map(|r| r.as_slice()), &[3, 1]);
        let out = s.transform(&[1.0, 3.0, 0.0, 6.0]);
        assert_eq!(out.len(), 2);
        assert!((out[0] - 0.5).abs() < 1e-6, "col 3: (6-4)/4");
        assert!((out[1] - 0.5).abs() < 1e-6, "col 1: (3-2)/2");
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn offline_scaler_rejects_empty() {
        MinMaxScaler::fit(std::iter::empty(), &[0]);
    }

    #[test]
    fn online_scaler_widens_bounds() {
        let mut s = OnlineMinMax::new(&[0]);
        // Before any data: constant transform.
        assert_eq!(s.transform(&[42.0]), vec![0.0]);
        s.update(&[10.0]);
        assert_eq!(s.transform(&[10.0]), vec![0.0], "single point has no span");
        s.update(&[20.0]);
        assert_eq!(s.transform(&[15.0]), vec![0.5]);
        s.update(&[0.0]);
        assert_eq!(s.transform(&[10.0]), vec![0.5]);
        assert_eq!(s.seen(), 3);
    }

    #[test]
    fn log1p_scaler_compresses_heavy_tails() {
        let rows: Vec<[f32; 1]> = vec![[0.0], [10.0], [10_000.0]];
        let plain = MinMaxScaler::fit(rows.iter().map(|r| r.as_slice()), &[0]);
        let logged = MinMaxScaler::fit_log1p(rows.iter().map(|r| r.as_slice()), &[0]);
        // Under plain scaling, 10 is squashed to ~0.001; under log1p it
        // lands mid-range.
        assert!(plain.transform(&[10.0])[0] < 0.01);
        let mid = logged.transform(&[10.0])[0];
        assert!((0.2..0.5).contains(&mid), "log-scaled mid {mid}");
        // Bounds still map to 0 and 1, negatives clamp safely.
        assert_eq!(logged.transform(&[0.0]), vec![0.0]);
        assert_eq!(logged.transform(&[10_000.0]), vec![1.0]);
        assert_eq!(logged.transform(&[-5.0]), vec![0.0]);
    }

    #[test]
    fn online_log1p_matches_offline_log1p() {
        let rows: Vec<[f32; 1]> = vec![[0.0], [3.0], [500.0]];
        let off = MinMaxScaler::fit_log1p(rows.iter().map(|r| r.as_slice()), &[0]);
        let mut on = OnlineMinMax::new_log1p(&[0]);
        rows.iter().for_each(|r| on.update(r));
        for r in &rows {
            assert_eq!(off.transform(r), on.transform(r));
        }
    }

    #[test]
    fn columnar_transform_matches_rowwise_bitwise() {
        let rows: Vec<[f32; 3]> = vec![
            [0.0, 5.0, 9.9],
            [10.0, 7.0, 0.3],
            [3.5, -2.0, 1e6],
            [7.25, 6.0, 0.0],
        ];
        for scaler in [
            MinMaxScaler::fit(rows.iter().map(|r| r.as_slice()), &[0, 2]),
            MinMaxScaler::fit_log1p(rows.iter().map(|r| r.as_slice()), &[2, 1]),
        ] {
            let cols: Vec<Vec<f32>> = (0..3)
                .map(|c| rows.iter().map(|r| r[c]).collect())
                .collect();
            let col_refs: Vec<&[f32]> = cols.iter().map(|c| c.as_slice()).collect();
            let scaled = scaler.transform_columns(&col_refs);
            assert_eq!(scaled.len(), scaler.n_outputs());
            for (i, r) in rows.iter().enumerate() {
                let want = scaler.transform(r);
                for (j, w) in want.iter().enumerate() {
                    assert_eq!(scaled[j][i].to_bits(), w.to_bits(), "row {i} out {j}");
                }
            }
        }
    }

    #[test]
    fn online_matches_offline_after_same_data() {
        let rows: Vec<[f32; 2]> = (0..50).map(|i| [i as f32, (i * i) as f32]).collect();
        let off = MinMaxScaler::fit(rows.iter().map(|r| r.as_slice()), &[0, 1]);
        let mut on = OnlineMinMax::new(&[0, 1]);
        rows.iter().for_each(|r| on.update(r));
        for r in &rows {
            assert_eq!(off.transform(r), on.transform(r));
        }
    }
}
