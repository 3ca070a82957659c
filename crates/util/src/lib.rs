//! Deterministic utilities shared by every `orfpred` crate.
//!
//! The reproduction depends on *bit-for-bit determinism under a fixed seed*.
//! To guarantee that, every independent unit of work (a tree, a disk, a
//! bootstrap replicate) owns its **own** RNG stream derived from a master
//! seed, rather than sharing a global generator, so no unit's randomness
//! depends on which units ran before it. This crate provides:
//!
//! * [`rng::Xoshiro256pp`] — a small, fast, well-tested PRNG with
//!   [`rng::Xoshiro256pp::split`] for spawning independent streams,
//! * [`dist`] — the handful of distributions the paper's algorithms need
//!   (Poisson for online bagging, normal/log-normal/geometric for the fleet
//!   simulator), implemented in-crate so results never change under a
//!   dependency bump,
//! * [`stats`] — streaming statistics (Welford mean/variance, EWMA) used by
//!   OOBE tracking and the experiment reports.

#![warn(missing_docs)]

pub mod dist;
pub mod matrix;
pub mod rng;
pub mod stats;

pub use matrix::Matrix;
pub use rng::Xoshiro256pp;
