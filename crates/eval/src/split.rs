//! Stratified disk-level train/test splits (§4.4: 70 % of good and failed
//! disks each go to training, 30 % to test).
//!
//! Splitting by *disk* rather than by sample is essential: samples of one
//! disk are heavily correlated, and the paper's FDR/FAR are per-disk
//! quantities.

use orfpred_smart::record::Dataset;
use orfpred_util::Xoshiro256pp;

/// A disk-level split.
#[derive(Clone, Debug)]
pub struct DiskSplit {
    /// Disk ids in the training set.
    pub train: Vec<u32>,
    /// Disk ids in the test set.
    pub test: Vec<u32>,
    /// Membership mask indexed by disk id (`true` = training).
    pub is_train: Vec<bool>,
}

impl DiskSplit {
    /// Stratified split: `train_fraction` of the good disks and of the
    /// failed disks each go to training.
    pub fn stratified(ds: &Dataset, train_fraction: f64, rng: &mut Xoshiro256pp) -> Self {
        assert!(
            (0.0..=1.0).contains(&train_fraction),
            "train_fraction must be in [0, 1]"
        );
        let mut train = Vec::new();
        let mut test = Vec::new();
        for failed in [false, true] {
            let mut ids: Vec<u32> = ds
                .disks
                .iter()
                .filter(|d| d.failed == failed)
                .map(|d| d.disk_id)
                .collect();
            rng.shuffle(&mut ids);
            let n_train = (ids.len() as f64 * train_fraction).round() as usize;
            train.extend_from_slice(&ids[..n_train]);
            test.extend_from_slice(&ids[n_train..]);
        }
        train.sort_unstable();
        test.sort_unstable();
        let mut is_train = vec![false; ds.disks.len()];
        for &d in &train {
            is_train[d as usize] = true;
        }
        Self {
            train,
            test,
            is_train,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_smart::gen::{FleetConfig, FleetSim, ScalePreset};

    fn dataset() -> Dataset {
        let mut cfg = FleetConfig::sta(ScalePreset::Tiny, 3);
        cfg.n_good = 100;
        cfg.n_failed = 20;
        cfg.duration_days = 150;
        FleetSim::collect(&cfg)
    }

    #[test]
    fn split_is_stratified_and_partitions() {
        let ds = dataset();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let split = DiskSplit::stratified(&ds, 0.7, &mut rng);
        assert_eq!(split.train.len() + split.test.len(), 120);
        let train_failed = split
            .train
            .iter()
            .filter(|&&d| ds.disks[d as usize].failed)
            .count();
        assert_eq!(train_failed, 14, "70% of 20 failed disks");
        let test_failed = split
            .test
            .iter()
            .filter(|&&d| ds.disks[d as usize].failed)
            .count();
        assert_eq!(test_failed, 6);
        // No overlap.
        for &d in &split.train {
            assert!(split.is_train[d as usize]);
        }
        for &d in &split.test {
            assert!(!split.is_train[d as usize]);
        }
    }

    #[test]
    fn different_seeds_give_different_splits() {
        let ds = dataset();
        let a = DiskSplit::stratified(&ds, 0.7, &mut Xoshiro256pp::seed_from_u64(1));
        let b = DiskSplit::stratified(&ds, 0.7, &mut Xoshiro256pp::seed_from_u64(2));
        assert_ne!(a.train, b.train);
        let c = DiskSplit::stratified(&ds, 0.7, &mut Xoshiro256pp::seed_from_u64(1));
        assert_eq!(a.train, c.train, "same seed reproduces");
    }

    #[test]
    fn extreme_fractions() {
        let ds = dataset();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let all = DiskSplit::stratified(&ds, 1.0, &mut rng);
        assert_eq!(all.test.len(), 0);
        let none = DiskSplit::stratified(&ds, 0.0, &mut rng);
        assert_eq!(none.train.len(), 0);
    }
}
