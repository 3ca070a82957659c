//! C-SVC support vector machine trained with SMO — the paper's SVM baseline
//! (§4.4 uses LIBSVM with `svm_type = C-SVC`, `kernel_type = RBF`).
//!
//! From-scratch implementation of the dual problem
//! `min ½ αᵀQα − eᵀα  s.t.  0 ≤ αᵢ ≤ Cᵢ, yᵀα = 0` with:
//!
//! * maximal-violating-pair working-set selection (LIBSVM's first-order
//!   rule) and the analytic two-variable update,
//! * per-class penalties `C⁺`/`C⁻` (LIBSVM `-w1/-w-1`) for imbalance,
//! * an LRU kernel-row cache so the n×n kernel matrix is never materialised
//!   (kernel-row computation on a cache miss is the hot loop).

#![warn(missing_docs)]

pub mod kernel;
pub mod smo;

pub use kernel::Kernel;
pub use smo::{Svm, SvmConfig};
