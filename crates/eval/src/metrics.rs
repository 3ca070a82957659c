//! Failure Detection Rate and False Alarm Rate (§4.3), plus operating-point
//! search.
//!
//! Both metrics are **per-disk**:
//!
//! * a failed disk is *detected* iff at least one sample collected in the
//!   last `window` days before its failure scores at or above the alarm
//!   threshold;
//! * a good disk is a *false alarm* iff any sample outside its latest
//!   `window` days does.
//!
//! Because both are monotone in the threshold, it suffices to keep each
//! disk's maximum score over the relevant samples; every threshold-dependent
//! quantity (FDR/FAR curves, FAR-pinned operating points) then comes free.

use crate::scorer::Scorer;
use orfpred_smart::record::Dataset;
use serde::{Deserialize, Serialize};

/// Per-disk maximum scores over the relevant sample sets.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ScoredDisks {
    /// Per failed disk: max score over its final-week samples.
    pub failed_window_max: Vec<f32>,
    /// Per good disk: max score over samples outside the latest week.
    pub good_outside_max: Vec<f32>,
}

/// A tuned operating point.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Alarm threshold.
    pub tau: f32,
    /// FDR at `tau`.
    pub fdr: f64,
    /// FAR at `tau`.
    pub far: f64,
}

impl ScoredDisks {
    /// FDR at threshold `tau` (alarm fires when `score >= tau`).
    pub fn fdr(&self, tau: f32) -> f64 {
        if self.failed_window_max.is_empty() {
            return 0.0;
        }
        let detected = self.failed_window_max.iter().filter(|&&s| s >= tau).count();
        detected as f64 / self.failed_window_max.len() as f64
    }

    /// FAR at threshold `tau`.
    pub fn far(&self, tau: f32) -> f64 {
        if self.good_outside_max.is_empty() {
            return 0.0;
        }
        let alarms = self.good_outside_max.iter().filter(|&&s| s >= tau).count();
        alarms as f64 / self.good_outside_max.len() as f64
    }

    /// Smallest threshold whose FAR does not exceed `target_far` — i.e. the
    /// highest-FDR operating point satisfying the FAR constraint (the
    /// paper's "FAR around 1.0 %" protocol).
    pub fn tune_for_far(&self, target_far: f64) -> OperatingPoint {
        // Candidate thresholds: every observed score (FAR only changes
        // there), plus one value above the maximum (FAR = 0 fallback).
        let mut candidates: Vec<f32> = self
            .good_outside_max
            .iter()
            .chain(self.failed_window_max.iter())
            .copied()
            .collect();
        let above_max = candidates.iter().fold(0.0f32, |a, &b| a.max(b)).max(1.0) * 1.0001 + 1e-6;
        candidates.push(above_max);
        candidates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        candidates.dedup();
        for &tau in &candidates {
            let far = self.far(tau);
            if far <= target_far {
                return OperatingPoint {
                    tau,
                    fdr: self.fdr(tau),
                    far,
                };
            }
        }
        // Unreachable: the above-max candidate always has FAR = 0.
        OperatingPoint {
            tau: above_max,
            fdr: self.fdr(above_max),
            far: 0.0,
        }
    }

    /// Number of failed / good disks covered.
    pub fn counts(&self) -> (usize, usize) {
        (self.failed_window_max.len(), self.good_outside_max.len())
    }

    /// The full per-disk ROC curve: one point per distinct threshold where
    /// FDR or FAR changes, ordered by increasing FAR (decreasing τ).
    pub fn roc(&self) -> Vec<RocPoint> {
        let mut taus: Vec<f32> = self
            .good_outside_max
            .iter()
            .chain(self.failed_window_max.iter())
            .copied()
            .collect();
        taus.sort_by(|a, b| b.partial_cmp(a).unwrap());
        taus.dedup();
        let mut points = Vec::with_capacity(taus.len() + 1);
        // τ above every score: the (0, 0) corner.
        let above = taus.first().copied().unwrap_or(1.0) + 1.0;
        points.push(RocPoint {
            tau: above,
            fdr: 0.0,
            far: 0.0,
        });
        for tau in taus {
            points.push(RocPoint {
                tau,
                fdr: self.fdr(tau),
                far: self.far(tau),
            });
        }
        points
    }

    /// Area under the (FAR, FDR) curve via the trapezoid rule. 0.5 is
    /// chance level for the *per-disk* operating characteristic; 1.0 is a
    /// perfect ranking. Returns `NaN` when either class is empty.
    pub fn auc(&self) -> f64 {
        if self.failed_window_max.is_empty() || self.good_outside_max.is_empty() {
            return f64::NAN;
        }
        let roc = self.roc();
        let mut area = 0.0;
        for w in roc.windows(2) {
            area += (w[1].far - w[0].far) * (w[1].fdr + w[0].fdr) / 2.0;
        }
        // Close the curve to (1, 1).
        if let Some(last) = roc.last() {
            area += (1.0 - last.far) * (last.fdr + 1.0) / 2.0;
        }
        area
    }
}

/// One point of the per-disk ROC curve.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RocPoint {
    /// Alarm threshold.
    pub tau: f32,
    /// FDR at `tau`.
    pub fdr: f64,
    /// FAR at `tau`.
    pub far: f64,
}

/// Score the listed disks with `scorer` and reduce to per-disk maxima.
///
/// `window` is the prediction horizon (7 days in the paper). Gathers every
/// eligible sample into one flat batch and scores it via
/// [`Scorer::score_raw_many`], so frozen scorers run their interleaved
/// breadth-first kernels; the per-disk maxima are then folded from
/// contiguous spans of the batch. Bit-identical to scoring row by row with
/// [`scored_disks_with`] (same eligibility filter, same `>` max fold).
pub fn score_test_disks<S: Scorer>(
    ds: &Dataset,
    disks: &[u32],
    scorer: &S,
    window: u16,
) -> ScoredDisks {
    let to = ds.duration_days.saturating_add(1);
    let by_disk = ds.records_by_disk();
    let mut rows: Vec<&[f32]> = Vec::new();
    // Per disk: (failed, number of eligible rows pushed).
    let mut spans: Vec<(bool, usize)> = Vec::with_capacity(disks.len());
    for &disk_id in disks {
        let info = &ds.disks[disk_id as usize];
        let mut n = 0usize;
        for &pos in &by_disk[disk_id as usize] {
            let rec = &ds.records[pos];
            if rec.day >= to {
                continue;
            }
            let in_window = rec.day + window > info.last_day;
            // Failed disks: only final-week samples matter (FDR).
            // Good disks: only outside-week samples matter (FAR).
            if info.failed == in_window {
                rows.push(&rec.features);
                n += 1;
            }
        }
        spans.push((info.failed, n));
    }
    let scores = scorer.score_raw_many(&rows);
    let mut out = ScoredDisks::default();
    let mut offset = 0usize;
    for (failed, n) in spans {
        let mut best = f32::NEG_INFINITY;
        for &s in &scores[offset..offset + n] {
            if s > best {
                best = s;
            }
        }
        offset += n;
        if !best.is_finite() {
            // Disk had no relevant samples (e.g. installed in the final
            // week); treat as silent.
            continue;
        }
        if failed {
            out.failed_window_max.push(best);
        } else {
            out.good_outside_max.push(best);
        }
    }
    out
}

/// Generalised per-disk maxima: scores come from a closure over the record
/// position (enabling precomputed causal ORF scores), and only samples with
/// `from <= day < to` are considered — the range restriction behind the
/// §4.5 training-period operating-point tuning.
pub fn scored_disks_with(
    ds: &Dataset,
    disks: &[u32],
    score_fn: &(dyn Fn(usize, &orfpred_smart::record::DiskDay) -> f32 + Sync),
    window: u16,
    from: u16,
    to: u16,
) -> ScoredDisks {
    scored_disks_censored(ds, disks, score_fn, window, from, to, None)
}

/// [`scored_disks_with`] under right-censoring: the world as known at
/// `censor` — disks failing later count as good, observation windows clamp,
/// and later samples are invisible. Equivalent to scoring
/// `prep::truncate_dataset(ds, censor)` but without cloning the records
/// (the §4.5 harness tunes operating points on censored views every month).
pub fn scored_disks_censored(
    ds: &Dataset,
    disks: &[u32],
    score_fn: &(dyn Fn(usize, &orfpred_smart::record::DiskDay) -> f32 + Sync),
    window: u16,
    from: u16,
    to: u16,
    censor: Option<u16>,
) -> ScoredDisks {
    let by_disk = ds.records_by_disk();
    let maxima: Vec<(bool, f32)> = disks
        .iter()
        .map(|&disk_id| {
            let mut info = ds.disks[disk_id as usize];
            if let Some(cut) = censor {
                if info.install_day > cut {
                    return (false, f32::NEG_INFINITY);
                }
                if info.last_day > cut {
                    info.last_day = cut;
                    info.failed = false;
                }
            }
            let to = censor.map_or(to, |cut| to.min(cut + 1));
            let mut best = f32::NEG_INFINITY;
            for &pos in &by_disk[disk_id as usize] {
                let rec = &ds.records[pos];
                if rec.day < from || rec.day >= to {
                    continue;
                }
                let in_window = rec.day + window > info.last_day;
                // Failed disks: only final-week samples matter (FDR).
                // Good disks: only outside-week samples matter (FAR).
                if info.failed == in_window {
                    let s = score_fn(pos, rec);
                    if s > best {
                        best = s;
                    }
                }
            }
            (info.failed, best)
        })
        .collect();
    let mut out = ScoredDisks::default();
    for (failed, best) in maxima {
        if !best.is_finite() {
            // Disk had no relevant samples (e.g. installed in the final
            // week); treat as silent.
            continue;
        }
        if failed {
            out.failed_window_max.push(best);
        } else {
            out.good_outside_max.push(best);
        }
    }
    out
}

/// FDR/FAR measured on the samples of a single calendar month (§4.5).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MonthlyOutcome {
    /// 1-based month index.
    pub month: usize,
    /// Fraction of disks failing this month that were detected.
    pub fdr: f64,
    /// Fraction of good disks active this month with a false alarm.
    pub far: f64,
    /// Number of disks failing this month.
    pub n_failed: usize,
    /// Number of good (this month) disks.
    pub n_good: usize,
}

/// Evaluate a model's *practical* performance on month `month` (1-based,
/// days `[(month-1)·month_days, month·month_days)`):
///
/// * disks failing inside the month count toward FDR (detected iff one of
///   their in-window samples this month alarms);
/// * disks active in the month that survive it — and survive `window` days
///   past its end — count toward FAR.
pub fn monthly_outcome<S: Scorer>(
    ds: &Dataset,
    disks: &[u32],
    scorer: &S,
    tau: f32,
    window: u16,
    month: usize,
    month_days: u16,
) -> MonthlyOutcome {
    monthly_outcome_with(
        ds,
        disks,
        &|_, rec| scorer.score_raw(&rec.features),
        tau,
        window,
        month,
        month_days,
    )
}

/// [`monthly_outcome`] over a record-position score closure (for
/// precomputed causal scores).
pub fn monthly_outcome_with(
    ds: &Dataset,
    disks: &[u32],
    score_fn: &(dyn Fn(usize, &orfpred_smart::record::DiskDay) -> f32 + Sync),
    tau: f32,
    window: u16,
    month: usize,
    month_days: u16,
) -> MonthlyOutcome {
    assert!(month >= 1, "months are 1-based");
    let start = (month as u16 - 1) * month_days;
    let end = month as u16 * month_days; // exclusive
    let by_disk = ds.records_by_disk();

    let verdicts: Vec<Option<(bool, bool)>> = disks
        .iter()
        .map(|&disk_id| {
            let info = &ds.disks[disk_id as usize];
            if info.install_day >= end {
                return None; // not yet installed
            }
            let fails_this_month = info.failed && info.last_day >= start && info.last_day < end;
            if !fails_this_month {
                // Good-this-month only if it survives the month plus the
                // window (otherwise its true label is positive/unknown).
                let survives = if info.failed {
                    info.last_day >= end + window
                } else {
                    info.last_day + 1 >= end.min(ds.duration_days)
                };
                if !survives || info.last_day < start {
                    return None;
                }
            }
            let mut alarmed = false;
            for &pos in &by_disk[disk_id as usize] {
                let rec = &ds.records[pos];
                if rec.day < start || rec.day >= end {
                    continue;
                }
                if fails_this_month {
                    // Only in-window samples legitimise a detection.
                    if rec.day + window <= info.last_day {
                        continue;
                    }
                } else if !info.failed && rec.day + window > info.last_day {
                    // Survivor's final observed week: status unknown.
                    continue;
                }
                if score_fn(pos, rec) >= tau {
                    alarmed = true;
                    break;
                }
            }
            Some((fails_this_month, alarmed))
        })
        .collect();

    let mut n_failed = 0;
    let mut detected = 0;
    let mut n_good = 0;
    let mut false_alarms = 0;
    for v in verdicts.into_iter().flatten() {
        match v {
            (true, hit) => {
                n_failed += 1;
                detected += usize::from(hit);
            }
            (false, hit) => {
                n_good += 1;
                false_alarms += usize::from(hit);
            }
        }
    }
    MonthlyOutcome {
        month,
        fdr: if n_failed > 0 {
            detected as f64 / n_failed as f64
        } else {
            f64::NAN
        },
        far: if n_good > 0 {
            false_alarms as f64 / n_good as f64
        } else {
            f64::NAN
        },
        n_failed,
        n_good,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_smart::attrs::N_FEATURES;
    use orfpred_smart::record::{DiskDay, DiskInfo};

    /// Scorer reading feature column 0 directly.
    struct Passthrough;
    impl Scorer for Passthrough {
        fn score_raw(&self, features: &[f32]) -> f32 {
            features[0]
        }
    }

    fn rec(disk_id: u32, day: u16, score: f32) -> DiskDay {
        let mut features = vec![0.0f32; N_FEATURES];
        features[0] = score;
        DiskDay {
            disk_id,
            day,
            features,
        }
    }

    /// Two failed + two good disks with hand-placed scores.
    fn fixture() -> Dataset {
        let mut records = Vec::new();
        // Disk 0: fails day 30; ramp in final week (detected at tau 0.5).
        for day in 0..=30u16 {
            records.push(rec(0, day, if day + 7 > 30 { 0.9 } else { 0.1 }));
        }
        // Disk 1: fails day 40; silent (missed at tau 0.5).
        for day in 0..=40u16 {
            records.push(rec(1, day, 0.1));
        }
        // Disk 2: good; clean.
        for day in 0..=60u16 {
            records.push(rec(2, day, 0.2));
        }
        // Disk 3: good but one spike outside the final week (false alarm).
        for day in 0..=60u16 {
            records.push(rec(3, day, if day == 10 { 0.95 } else { 0.2 }));
        }
        records.sort_by_key(|r| (r.day, r.disk_id));
        Dataset {
            model: "T".into(),
            duration_days: 60,
            records,
            disks: vec![
                DiskInfo {
                    disk_id: 0,
                    install_day: 0,
                    last_day: 30,
                    failed: true,
                },
                DiskInfo {
                    disk_id: 1,
                    install_day: 0,
                    last_day: 40,
                    failed: true,
                },
                DiskInfo {
                    disk_id: 2,
                    install_day: 0,
                    last_day: 60,
                    failed: false,
                },
                DiskInfo {
                    disk_id: 3,
                    install_day: 0,
                    last_day: 60,
                    failed: false,
                },
            ],
        }
    }

    #[test]
    fn fdr_and_far_match_hand_computation() {
        let ds = fixture();
        let scored = score_test_disks(&ds, &[0, 1, 2, 3], &Passthrough, 7);
        assert_eq!(scored.counts(), (2, 2));
        assert!(
            (scored.fdr(0.5) - 0.5).abs() < 1e-12,
            "disk 0 detected, 1 missed"
        );
        assert!((scored.far(0.5) - 0.5).abs() < 1e-12, "disk 3 false-alarms");
        // Threshold above the spike silences the false alarm but keeps the
        // detection.
        assert!((scored.fdr(0.96) - 0.0).abs() < 1e-12);
        assert!((scored.far(0.96) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn good_disk_final_week_spike_is_not_a_false_alarm() {
        // A spike inside the latest week of a good disk must not count
        // (§4.3: "outside the latest week").
        let mut ds = fixture();
        for r in &mut ds.records {
            if r.disk_id == 2 && r.day == 58 {
                r.features[0] = 0.99;
            }
        }
        let scored = score_test_disks(&ds, &[2], &Passthrough, 7);
        assert_eq!(scored.far(0.9), 0.0);
    }

    #[test]
    fn failed_disk_early_spike_does_not_count_as_detection() {
        let mut ds = fixture();
        // Disk 1 spikes at day 5 — way before its final week.
        for r in &mut ds.records {
            if r.disk_id == 1 && r.day == 5 {
                r.features[0] = 0.99;
            }
        }
        let scored = score_test_disks(&ds, &[1], &Passthrough, 7);
        assert_eq!(scored.fdr(0.5), 0.0, "early spike is not a detection");
    }

    #[test]
    fn tune_for_far_pins_the_operating_point() {
        let ds = fixture();
        let scored = score_test_disks(&ds, &[0, 1, 2, 3], &Passthrough, 7);
        // target 0.5: one of two good disks may alarm → tau can drop to
        // catch disk 0 (max window score 0.9).
        let op = scored.tune_for_far(0.5);
        assert!(op.far <= 0.5);
        assert!((op.fdr - 0.5).abs() < 1e-12);
        // target 0: threshold must climb above the 0.95 spike.
        let op0 = scored.tune_for_far(0.0);
        assert_eq!(op0.far, 0.0);
        assert!(op0.tau > 0.95);
    }

    #[test]
    fn roc_is_monotone_and_anchored() {
        let ds = fixture();
        let scored = score_test_disks(&ds, &[0, 1, 2, 3], &Passthrough, 7);
        let roc = scored.roc();
        assert_eq!(roc[0].fdr, 0.0);
        assert_eq!(roc[0].far, 0.0);
        for w in roc.windows(2) {
            assert!(
                w[1].far >= w[0].far,
                "FAR must not decrease along the curve"
            );
            assert!(
                w[1].fdr >= w[0].fdr,
                "FDR must not decrease along the curve"
            );
            assert!(w[1].tau < w[0].tau, "thresholds strictly decrease");
        }
    }

    #[test]
    fn auc_bounds_and_perfect_ranking() {
        // Perfect separation: every failed window max above every good max.
        let perfect = ScoredDisks {
            failed_window_max: vec![0.9, 0.8],
            good_outside_max: vec![0.1, 0.2, 0.3],
        };
        assert!((perfect.auc() - 1.0).abs() < 1e-12, "auc {}", perfect.auc());
        // Inverted ranking: AUC 0.
        let inverted = ScoredDisks {
            failed_window_max: vec![0.1],
            good_outside_max: vec![0.9],
        };
        assert!(inverted.auc() < 1e-12);
        // Degenerate inputs.
        assert!(ScoredDisks::default().auc().is_nan());
    }

    #[test]
    fn tune_for_far_with_no_disks_is_safe() {
        let empty = ScoredDisks::default();
        let op = empty.tune_for_far(0.01);
        assert_eq!(op.fdr, 0.0);
        assert_eq!(op.far, 0.0);
    }

    #[test]
    fn monthly_outcome_attributes_failures_to_their_month() {
        let ds = fixture();
        // Month 1 = days 0..30; month 2 = days 30..60.
        // Disk 0 fails day 30 → month 2. Disk 1 fails day 40 → month 2.
        let m1 = monthly_outcome(&ds, &[0, 1, 2, 3], &Passthrough, 0.5, 7, 1, 30);
        assert_eq!(m1.n_failed, 0);
        // Disk 0 fails within 7 days of month 1's end → neither failed-this-
        // month nor clean-good. Disk 1 fails on day 40, beyond the window,
        // so in month 1 it is a good disk; disk 3's day-10 spike false-alarms.
        assert_eq!(m1.n_good, 3);
        assert!((m1.far - 1.0 / 3.0).abs() < 1e-12);
        let m2 = monthly_outcome(&ds, &[0, 1, 2, 3], &Passthrough, 0.5, 7, 2, 30);
        assert_eq!(m2.n_failed, 2);
        assert!((m2.fdr - 0.5).abs() < 1e-12, "disk 0 detected in month 2");
        assert_eq!(m2.n_good, 2);
        assert!((m2.far - 0.0).abs() < 1e-12, "no spikes in month 2");
    }

    #[test]
    fn batched_scoring_matches_the_closure_path_bitwise() {
        // score_test_disks now flattens rows into one score_raw_many call;
        // it must reproduce the per-row closure path exactly, including
        // disk order and the silent-disk (no eligible samples) skip.
        let mut ds = fixture();
        // Give disk 3 an install inside the final week → zero eligible rows.
        ds.disks[3].install_day = 55;
        ds.records.retain(|r| r.disk_id != 3 || r.day >= 55);
        let disks = [0u32, 1, 2, 3];
        let batched = score_test_disks(&ds, &disks, &Passthrough, 7);
        let closure = scored_disks_with(
            &ds,
            &disks,
            &|_, rec| Passthrough.score_raw(&rec.features),
            7,
            0,
            ds.duration_days.saturating_add(1),
        );
        let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&batched.failed_window_max),
            bits(&closure.failed_window_max)
        );
        assert_eq!(
            bits(&batched.good_outside_max),
            bits(&closure.good_outside_max)
        );
    }

    #[test]
    fn monthly_outcome_skips_uninstalled_disks() {
        let mut ds = fixture();
        ds.disks[2].install_day = 50;
        // Records before install are invalid; strip them.
        ds.records.retain(|r| r.disk_id != 2 || r.day >= 50);
        let m1 = monthly_outcome(&ds, &[2], &Passthrough, 0.5, 7, 1, 30);
        assert_eq!(m1.n_good, 0);
        assert!(m1.far.is_nan());
    }
}
