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
//! [`OnlineMinMax::freeze`] turns its current bounds into a [`MinMaxScaler`].
//!
//! Both scalers widen and scale through the same two private functions, so
//! a frozen streaming scaler maps every row to the bits the live one gives.

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

/// Widen the bounds `min`/`max` (one per selected column) with one row.
///
/// A NaN bound counts as unset. The JSON codec writes the ±∞ bounds of a
/// column that has seen no value as `null` and reads them back as NaN, and
/// `v < NaN` is false, so without this a scaler saved before its first
/// row could never widen again.
fn widen(cols: &[usize], log1p: bool, min: &mut [f32], max: &mut [f32], row: &[f32]) {
    for (j, &c) in cols.iter().enumerate() {
        let v = if log1p { log1p_pos(row[c]) } else { row[c] };
        if v < min[j] || min[j].is_nan() {
            min[j] = v;
        }
        if v > max[j] || max[j].is_nan() {
            max[j] = v;
        }
    }
}

/// Scale one row's selected columns into `out`, clamped to `[0, 1]`. A
/// column whose span is not a positive finite number (constant, unseen,
/// or holding an infinity) maps to 0.
fn scale(cols: &[usize], log1p: bool, min: &[f32], max: &[f32], row: &[f32], out: &mut [f32]) {
    assert_eq!(out.len(), cols.len());
    for (j, &c) in cols.iter().enumerate() {
        let v = if log1p { log1p_pos(row[c]) } else { row[c] };
        let span = max[j] - min[j];
        out[j] = if span > 0.0 && span.is_finite() {
            ((v - min[j]) / span).clamp(0.0, 1.0)
        } else {
            0.0
        };
    }
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
            widen(cols, log1p, &mut min, &mut max, row);
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
        scale(&self.cols, self.log1p, &self.min, &self.max, row, out);
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
        widen(&self.cols, self.log1p, &mut self.min, &mut self.max, row);
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

    /// `Err` unless there is one `min` and one `max` bound per column (a
    /// decoded scaler can carry any lengths; NaN bounds are valid).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.cols.len();
        if self.min.len() != n || self.max.len() != n {
            return Err(format!(
                "scaler has {n} columns but {} min and {} max bounds",
                self.min.len(),
                self.max.len()
            ));
        }
        Ok(())
    }

    /// Transform with the current bounds (clamped to `[0, 1]`).
    pub fn transform_into(&self, row: &[f32], out: &mut [f32]) {
        scale(&self.cols, self.log1p, &self.min, &self.max, row, out);
    }

    /// Allocating variant of [`OnlineMinMax::transform_into`].
    pub fn transform(&self, row: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols.len()];
        self.transform_into(row, &mut out);
        out
    }

    /// The current bounds as a fixed [`MinMaxScaler`]: same columns,
    /// bounds and pre-transform, so it scales every row to the bits
    /// [`Self::transform_into`] gives now.
    pub fn freeze(&self) -> MinMaxScaler {
        MinMaxScaler {
            cols: self.cols.clone(),
            min: self.min.clone(),
            max: self.max.clone(),
            log1p: self.log1p,
        }
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
    fn a_frozen_online_scaler_scales_to_the_live_bits() {
        let rows: Vec<[f32; 3]> = vec![
            [0.0, 5.0, f32::NAN],
            [10.0, f32::INFINITY, 3.0],
            [3.5, -2.0, f32::NEG_INFINITY],
            [7.25, 6.0, 1e6],
        ];
        let probes: Vec<[f32; 3]> = vec![
            [f32::NAN, f32::NAN, f32::NAN],
            [f32::INFINITY, f32::NEG_INFINITY, 0.5],
            [f32::NEG_INFINITY, f32::INFINITY, -1.0],
            [5.0, 4.0, 2.0],
            [-1e30, 1e30, 0.0],
        ];
        for log1p in [false, true] {
            let mut live = if log1p {
                OnlineMinMax::new_log1p(&[2, 0, 1])
            } else {
                OnlineMinMax::new(&[2, 0, 1])
            };
            // Before its first row, and after each one.
            for seen in 0..=rows.len() {
                if seen > 0 {
                    live.update(&rows[seen - 1]);
                }
                let frozen = live.freeze();
                assert_eq!(frozen.cols(), live.cols());
                for p in rows.iter().chain(&probes) {
                    let (want, got) = (live.transform(p), frozen.transform(p));
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "log1p {log1p}, {seen} rows, {p:?}");
                }
            }
        }
    }

    #[test]
    fn an_infinite_span_scales_to_zero_in_both_scalers() {
        let rows: Vec<[f32; 1]> = vec![[0.0], [f32::INFINITY]];
        let off = MinMaxScaler::fit(rows.iter().map(|r| r.as_slice()), &[0]);
        let mut on = OnlineMinMax::new(&[0]);
        rows.iter().for_each(|r| on.update(r));
        for x in [0.0, 1.0, f32::INFINITY] {
            assert_eq!(off.transform(&[x]), vec![0.0], "offline {x}");
            assert_eq!(on.transform(&[x]), vec![0.0], "online {x}");
        }
    }

    #[test]
    fn a_scaler_saved_before_its_first_row_still_widens() {
        let fresh = OnlineMinMax::new(&[0, 1]);
        let json = serde_json::to_string(&fresh).unwrap();
        let mut back: OnlineMinMax = serde_json::from_str(&json).unwrap();
        assert!(
            back.min.iter().chain(&back.max).all(|b| b.is_nan()),
            "{json}"
        );
        let mut live = fresh;
        for row in [[1.0f32, f32::NAN], [3.0, 2.0], [2.0, 6.0]] {
            live.update(&row);
            back.update(&row);
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                serde_json::to_string(&live).unwrap()
            );
        }
        assert_eq!(back.transform(&[2.0, 4.0]), vec![0.5, 0.5]);
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
