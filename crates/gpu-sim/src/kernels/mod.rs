//! Generic kernels shared by the protection schemes: the blocked GEMM of
//! Algorithm 3 (with its fault-injection sites) and the element-wise
//! comparison used by TMR. Scheme-specific kernels (checksum encoding,
//! p-max search, bound determination) live in `aabft-core` and
//! `aabft-baselines`.

pub mod compare;
pub mod gemm;
