//! BLAS-style operand packing for the clean-path GEMM engine (DESIGN §12).
//!
//! The packed engine copies both operands into contiguous micro-panels
//! before the microkernel runs: `A` rows are packed into column-panels of
//! up to [`MR`] rows laid out k-major (the `MR` values a given `k`
//! contributes sit next to each other) and `B` columns into row-panels of
//! up to [`NR`] columns. The microkernel then streams both panels front to
//! back, so the hot k-loop touches two forward-moving cache lines instead
//! of `MR + 1` strided ones and performs no per-element bounds checks at
//! all — those happen once per row during packing via
//! [`DeviceBuffer::read_slice`].
//!
//! Packing happens **once per launch**, shared by every worker: a
//! [`PackBuf`] holds one *panel group* per block row of `A` (the panels of
//! that row's `bm` rows) and one per block column of `B`. Each group is
//! stamped with the *pack epoch* of the launch that packed it; the
//! [`GemmKernel`](crate::kernels::gemm::GemmKernel) draws a fresh epoch
//! at the start of every clean launch, and the first worker that needs a
//! group whose stamp is stale packs it while later workers wait on the
//! group's lock and then read it. A launch therefore packs each group
//! exactly once — O(n²) copy work per launch, not per worker — and a
//! relaunch after the operands were rewritten never reads old panels.
//!
//! Pack buffers are reused, never reallocated per launch: a launch checks
//! one [`PackBuf`] out of a [`PackPool`] when it begins and returns it when
//! its last block is done. Kernels draw from the process-wide
//! [`PackPool::shared`] unless given a pool of their own, so successive
//! launches — the protected multiplies of a loop, the requests of a batch,
//! the baselines — pack into the same storage.

use crate::mem::DeviceBuffer;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLockReadGuard;

/// Micro-panel height: rows of `A` per column-panel (microkernel rows).
pub const MR: usize = 8;
/// Micro-panel width: columns of `B` per row-panel (microkernel columns).
pub const NR: usize = 8;

/// Which clean-path GEMM body the device dispatches to.
///
/// Both engines are bit-identical to the instrumented path (every
/// accumulator consumes its products in ascending-`k` order); they differ
/// only in speed and in the `sim.packed_blocks` telemetry. `Scalar` is the
/// PR-4 register-blocked body kept as the A/B baseline for `bench_gemm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CleanEngine {
    /// Packed micro-panels + 8×8 microkernel (the default).
    Packed,
    /// Direct `DeviceBuffer` reads, 4×4 register blocking.
    Scalar,
}

impl std::str::FromStr for CleanEngine {
    type Err = String;

    /// Parses the `--engine` spelling used by the bench binaries.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "packed" => Ok(CleanEngine::Packed),
            "scalar" => Ok(CleanEngine::Scalar),
            other => Err(format!("unknown clean engine {other:?} (packed|scalar)")),
        }
    }
}

/// Source of pack epochs; 0 is reserved for "nothing packed".
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);
/// Total clean blocks executed by the packed engine (telemetry for
/// `bench_gemm --assert-dispatch packed` and the tier-1 smoke gate).
static PACKED_BLOCKS: AtomicU64 = AtomicU64::new(0);

/// Records one block executed by the packed engine.
pub(crate) fn note_packed_block() {
    PACKED_BLOCKS.fetch_add(1, Ordering::Relaxed);
}

/// Monotonic count of blocks executed by the packed engine since process
/// start.
pub fn packed_blocks() -> u64 {
    PACKED_BLOCKS.load(Ordering::Relaxed)
}

/// Draws a fresh, process-unique pack epoch (never 0). A GEMM kernel
/// takes one at the start of every clean launch; a panel group stamped
/// with it is valid for the rest of that launch only.
pub fn next_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// The packed panels of one block row of `A` or one block column of `B`,
/// at a fixed `width`·k stride per panel so edge panels (fewer than `MR`
/// rows or `NR` columns) address the same offsets as full ones.
#[derive(Debug, Default)]
pub(crate) struct Panels {
    /// Pack epoch of the launch that packed these panels (0 = none).
    epoch: u64,
    /// Full panel width ([`MR`] for `A`, [`NR`] for `B`).
    width: usize,
    data: Vec<f64>,
}

impl Panels {
    /// Panel `p` of the group (`w` rows/columns, depth `k`).
    pub(crate) fn panel(&self, p: usize, w: usize, k: usize) -> &[f64] {
        let base = p * self.width * k;
        &self.data[base..base + w * k]
    }

    /// Readies `len` words of storage for a new pack. A fresh allocation
    /// comes from the zeroed allocator (no explicit zeroing pass); grown
    /// storage is never shrunk.
    fn storage(&mut self, width: usize, len: usize) -> &mut [f64] {
        self.width = width;
        if self.data.len() < len {
            self.data = vec![0.0; len];
        }
        &mut self.data[..len]
    }
}

/// Packs rows `row0 .. row0 + bm` of the row-major `A` (depth `k`, pitch
/// `lda`) into column-panels of up to [`MR`] rows, element `(i, k)` of a
/// panel at `k·mr + i`.
fn pack_a_rows(a: &DeviceBuffer, row0: usize, bm: usize, k: usize, lda: usize, dst: &mut Panels) {
    let dst = dst.storage(MR, bm.div_ceil(MR) * MR * k);
    let mut row = vec![0.0; k];
    for (pi, panel) in dst.chunks_mut(MR * k).enumerate() {
        let mr = MR.min(bm - pi * MR);
        for i in 0..mr {
            a.read_slice((row0 + pi * MR + i) * lda, &mut row);
            for (kk, &v) in row.iter().enumerate() {
                panel[kk * mr + i] = v;
            }
        }
    }
}

/// Packs columns `col0 .. col0 + bn` of the row-major `B` (depth `k`,
/// pitch `ldb`) into row-panels of up to [`NR`] columns, element `(k, j)`
/// of a panel at `k·nr + j`.
fn pack_b_cols(b: &DeviceBuffer, col0: usize, bn: usize, k: usize, ldb: usize, dst: &mut Panels) {
    let ppb = bn.div_ceil(NR);
    let dst = dst.storage(NR, ppb * NR * k);
    let mut row = vec![0.0; bn];
    for kk in 0..k {
        b.read_slice(kk * ldb + col0, &mut row);
        for pj in 0..ppb {
            let nr = NR.min(bn - pj * NR);
            let base = pj * NR * k + kk * nr;
            dst[base..base + nr].copy_from_slice(&row[pj * NR..pj * NR + nr]);
        }
    }
}

/// Packing storage for one GEMM launch's operands, shared by every
/// worker of the launch: one panel group per block row of `A` and per
/// block column of `B`, each behind its own lock. Groups are packed on
/// first use within a launch (see the module docs) and read concurrently
/// afterwards.
#[derive(Debug, Default)]
pub struct PackBuf {
    a: Vec<RwLock<Panels>>,
    b: Vec<RwLock<Panels>>,
}

impl PackBuf {
    /// Grows the group tables (never shrinks) to `a_groups` block rows
    /// and `b_groups` block columns.
    pub(crate) fn ensure(&mut self, a_groups: usize, b_groups: usize) {
        if self.a.len() < a_groups {
            self.a.resize_with(a_groups, Default::default);
        }
        if self.b.len() < b_groups {
            self.b.resize_with(b_groups, Default::default);
        }
    }

    /// The panels of `A`'s block row `by` (rows `by·bm ..`, depth `k`,
    /// pitch `lda`) for launch `epoch`, packed first if no worker has yet
    /// this launch. `packs` counts the groups this call packs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn a_group(
        &self,
        epoch: u64,
        a: &DeviceBuffer,
        by: usize,
        bm: usize,
        k: usize,
        lda: usize,
        packs: &AtomicU64,
    ) -> RwLockReadGuard<'_, Panels> {
        fresh(&self.a[by], epoch, packs, |dst| pack_a_rows(a, by * bm, bm, k, lda, dst))
    }

    /// The panels of `B`'s block column `bx` (columns `bx·bn ..`, depth
    /// `k`, pitch `ldb`) for launch `epoch`, packed first if no worker has
    /// yet this launch. `packs` counts the groups this call packs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn b_group(
        &self,
        epoch: u64,
        b: &DeviceBuffer,
        bx: usize,
        bn: usize,
        k: usize,
        ldb: usize,
        packs: &AtomicU64,
    ) -> RwLockReadGuard<'_, Panels> {
        fresh(&self.b[bx], epoch, packs, |dst| pack_b_cols(b, bx * bn, bn, k, ldb, dst))
    }
}

/// Read access to `group` as packed for `epoch`: the first caller of a
/// launch packs it under the write lock, everyone else reads.
fn fresh<'g>(
    group: &'g RwLock<Panels>,
    epoch: u64,
    packs: &AtomicU64,
    pack: impl FnOnce(&mut Panels),
) -> RwLockReadGuard<'g, Panels> {
    debug_assert_ne!(epoch, 0, "epoch 0 means nothing packed");
    let panels = group.read();
    if panels.epoch == epoch {
        return panels;
    }
    drop(panels);
    {
        let mut panels = group.write();
        if panels.epoch != epoch {
            pack(&mut panels);
            panels.epoch = epoch;
            packs.fetch_add(1, Ordering::Relaxed);
        }
    }
    group.read()
}

/// A pool of [`PackBuf`]s. A packed GEMM launch checks one buffer out when
/// it begins and returns it when it ends, so the pool holds one buffer per
/// launch running at once, and the allocations live as long as the pool.
#[derive(Debug, Default)]
pub struct PackPool {
    bufs: Mutex<Vec<PackBuf>>,
    /// Panel groups packed into this pool's buffers.
    packs: AtomicU64,
}

impl PackPool {
    /// Creates an empty pool.
    pub const fn new() -> Self {
        PackPool { bufs: Mutex::new(Vec::new()), packs: AtomicU64::new(0) }
    }

    /// The pool kernels without their own [`PackPool`] draw from.
    pub fn shared() -> &'static PackPool {
        static SHARED: PackPool = PackPool::new();
        &SHARED
    }

    /// Checks a buffer out (allocating an empty one on a dry pool).
    pub fn take(&self) -> PackBuf {
        self.bufs.lock().pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool.
    pub fn put(&self, buf: PackBuf) {
        self.bufs.lock().push(buf);
    }

    /// Buffers currently parked in the pool.
    pub fn len(&self) -> usize {
        self.bufs.lock().len()
    }

    /// Whether the pool currently holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.bufs.lock().is_empty()
    }

    /// Panel groups packed into this pool's buffers so far (each launch
    /// adds one per block row of `A` and one per block column of `B`).
    pub fn panel_packs(&self) -> u64 {
        self.packs.load(Ordering::Relaxed)
    }

    /// The counter [`PackBuf::a_group`]/[`PackBuf::b_group`] advance.
    pub(crate) fn pack_counter(&self) -> &AtomicU64 {
        &self.packs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(len: usize) -> DeviceBuffer {
        let buf = DeviceBuffer::zeros(len);
        buf.write_slice(0, &(0..len).map(|x| x as f64).collect::<Vec<_>>());
        buf
    }

    #[test]
    fn packs_a_into_k_major_panels() {
        let a = iota(60);
        // 12 rows × 5 cols, one 12-row block: panels of 8 and 4 rows.
        let mut buf = PackBuf::default();
        buf.ensure(1, 0);
        let packs = AtomicU64::new(0);
        let group = buf.a_group(next_epoch(), &a, 0, 12, 5, 5, &packs);
        let p0 = group.panel(0, 8, 5);
        assert_eq!(p0[0], 0.0); // (i=0, k=0)
        assert_eq!(p0[1], 5.0); // (i=1, k=0) = a[1][0]
        assert_eq!(p0[8], 1.0); // (i=0, k=1) = a[0][1]
        let p1 = group.panel(1, 4, 5);
        assert_eq!(p1[0], 40.0); // (i=8, k=0) = a[8][0]
        assert_eq!(p1[4 + 1], 46.0); // (i=9, k=1) = a[9][1]
    }

    #[test]
    fn packs_b_into_row_panels() {
        let b = iota(36);
        // 3 rows (k) × 12 cols, one 12-column block: panels of 8 and 4
        // columns.
        let mut buf = PackBuf::default();
        buf.ensure(0, 1);
        let packs = AtomicU64::new(0);
        let group = buf.b_group(next_epoch(), &b, 0, 12, 3, 12, &packs);
        let p0 = group.panel(0, 8, 3);
        assert_eq!(&p0[..8], &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(p0[8], 12.0); // (k=1, j=0) = b[1][0]
        let p1 = group.panel(1, 4, 3);
        assert_eq!(&p1[..4], &[8.0, 9.0, 10.0, 11.0]);
        assert_eq!(p1[4], 20.0); // (k=1, j=8) = b[1][8]
    }

    #[test]
    fn packs_each_block_column_into_its_own_group() {
        let b = iota(48);
        // 3 rows (k) × 16 cols in two 8-column blocks: one panel each.
        let mut buf = PackBuf::default();
        buf.ensure(0, 2);
        let (epoch, packs) = (next_epoch(), AtomicU64::new(0));
        let p0 = buf.b_group(epoch, &b, 0, 8, 3, 16, &packs);
        assert_eq!(&p0.panel(0, 8, 3)[..8], &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        let p1 = buf.b_group(epoch, &b, 1, 8, 3, 16, &packs);
        assert_eq!(p1.panel(0, 8, 3)[0], 8.0); // (k=0, j=8): first column of block 1
        assert_eq!(p1.panel(0, 8, 3)[8], 24.0); // (k=1, j=8) = b[1][8]
        assert_eq!(packs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn groups_pack_once_per_epoch() {
        let a = iota(16); // 4×4
        let mut buf = PackBuf::default();
        buf.ensure(1, 0);
        let packs = AtomicU64::new(0);
        let epoch = next_epoch();
        assert_eq!(buf.a_group(epoch, &a, 0, 4, 4, 4, &packs).panel(0, 4, 4)[0], 0.0);
        // Within one launch the operands cannot change, so a second
        // request for the group in the same epoch reads the packed panels...
        a.set(0, 99.0);
        assert_eq!(buf.a_group(epoch, &a, 0, 4, 4, 4, &packs).panel(0, 4, 4)[0], 0.0);
        assert_eq!(packs.load(Ordering::Relaxed), 1, "an epoch packs a group once");
        // ...while the next launch's epoch re-packs the rewritten operand.
        assert_eq!(buf.a_group(next_epoch(), &a, 0, 4, 4, 4, &packs).panel(0, 4, 4)[0], 99.0);
        assert_eq!(packs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pool_reuses_buffers() {
        let pool = PackPool::new();
        let mut buf = pool.take();
        buf.ensure(3, 2);
        pool.put(buf);
        assert_eq!(pool.len(), 1);
        let again = pool.take();
        assert_eq!((again.a.len(), again.b.len()), (3, 2), "pooled buffer must be reused");
        assert!(pool.is_empty());
    }

    #[test]
    fn clean_engine_parses_bench_spellings() {
        // The process-global default is gone (DESIGN §14 follow-up): the
        // engine is pinned per device via DeviceConfig, and the bench
        // `--engine` flag parses through FromStr.
        assert_eq!("packed".parse::<CleanEngine>(), Ok(CleanEngine::Packed));
        assert_eq!("scalar".parse::<CleanEngine>(), Ok(CleanEngine::Scalar));
        assert!("fused".parse::<CleanEngine>().is_err());
    }
}
