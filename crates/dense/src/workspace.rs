//! [`Workspace`]: a pool of reusable element buffers for
//! allocation-free hot paths.
//!
//! The solver's replay loop needs many short-lived `Mat` temporaries
//! per step. Allocating them fresh each call makes the `O(M^2)` replay
//! allocator-bound at small/medium `M`, so hot paths instead check
//! buffers out of a `Workspace` ([`Workspace::take`]) and return them
//! ([`Workspace::put`]) when done. After one warm-up pass the pool
//! holds a buffer of every size the path needs and subsequent passes
//! allocate nothing — the invariant `tests/workspace.rs` asserts via
//! [`WorkspaceStats::checkouts`] deltas.
//!
//! Like [`Mat`], the pool is generic over the element type with `f64`
//! as the default; byte accounting follows `size_of::<E>()`, so an
//! `f32` workspace reports half the bytes of an `f64` one for the same
//! shapes. A pool only ever holds buffers of its own element type.
//!
//! A `Workspace` is deliberately *not* thread-safe: each rank (and each
//! worker thread that wants reuse) owns its own. `checkouts` counts
//! pool *misses* (a fresh heap allocation was required), `reuses`
//! counts hits; both also feed the global `bt-obs` registry as
//! `bt_dense.ws.checkouts` / `bt_dense.ws.reuses`, with the peak
//! outstanding+pooled footprint on the `bt_dense.ws.bytes_high_water`
//! gauge.

use crate::element::Element;
use crate::mat::Mat;
use crate::view::MatRef;

static OBS_WS_CHECKOUTS: bt_obs::Counter = bt_obs::Counter::new("bt_dense.ws.checkouts");
static OBS_WS_REUSES: bt_obs::Counter = bt_obs::Counter::new("bt_dense.ws.reuses");
static OBS_WS_HIGH_WATER: bt_obs::Gauge = bt_obs::Gauge::new("bt_dense.ws.bytes_high_water");
static OBS_WS_TRIMMED: bt_obs::Counter = bt_obs::Counter::new("bt_dense.ws.trimmed_bytes");

/// Cumulative usage counters for one [`Workspace`].
///
/// `checkouts` / `reuses` are monotone over the workspace's lifetime
/// (they survive [`Workspace::reset`]); `bytes_high_water` is the peak
/// of outstanding + pooled bytes seen so far.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Pool misses: a `take` had no adequate pooled buffer and hit the
    /// heap allocator. Zero delta across a pass means the pass was
    /// allocation-free.
    pub checkouts: u64,
    /// Pool hits: a `take` was satisfied by recycling a pooled buffer.
    pub reuses: u64,
    /// Peak bytes simultaneously owned (checked out + pooled).
    pub bytes_high_water: u64,
    /// Pooled bytes released back to the allocator by
    /// [`Workspace::trim_to`] and [`Workspace::reset`] — the shrink-policy
    /// counterpart of `bytes_high_water`.
    pub trimmed_bytes: u64,
}

/// A pool of reusable column-major element buffers.
///
/// `take` hands out a correctly shaped, zeroed [`Mat`]; `put` returns
/// its backing buffer to the pool for the next `take` of any shape that
/// fits. Buffers are matched on *capacity*, not shape, so one pool
/// serves temporaries of mixed sizes.
#[derive(Debug, Default)]
pub struct Workspace<E: Element = f64> {
    free: Vec<Vec<E>>,
    bytes_out: u64,
    bytes_pooled: u64,
    stats: WorkspaceStats,
}

impl<E: Element> Workspace<E> {
    /// Bytes per pooled element.
    const ELEM_BYTES: u64 = std::mem::size_of::<E>() as u64;

    /// An empty pool. The first pass through a hot path populates it.
    pub fn new() -> Self {
        Self {
            free: Vec::new(),
            bytes_out: 0,
            bytes_pooled: 0,
            stats: WorkspaceStats::default(),
        }
    }

    /// Checks out a zeroed `rows x cols` matrix, recycling a pooled
    /// buffer when one is large enough.
    pub fn take(&mut self, rows: usize, cols: usize) -> Mat<E> {
        self.take_fitting(rows, cols, false)
    }

    /// [`Workspace::take`] that recycles only a pooled buffer of exactly
    /// `rows * cols` elements, else allocates one of that size. For a
    /// scratch panel that leaves the pool in exchange for a caller's
    /// panel (`std::mem::swap`, then `put` of the caller's buffer): the
    /// buffer handed out carries no spare capacity that
    /// [`Workspace::trim_to`] could then no longer release, and the
    /// same-size buffer that comes back keeps the byte accounting level.
    pub fn take_exact(&mut self, rows: usize, cols: usize) -> Mat<E> {
        self.take_fitting(rows, cols, true)
    }

    fn take_fitting(&mut self, rows: usize, cols: usize, exact: bool) -> Mat<E> {
        let need = rows * cols;
        let mut buf = self.pick(need, exact);
        buf.clear();
        buf.resize(need, E::ZERO);
        self.note_out(buf.capacity() as u64 * Self::ELEM_BYTES);
        Mat::from_col_major(rows, cols, buf)
    }

    /// Checks out a copy of `src` (same recycling as [`Workspace::take`],
    /// but filled by copying columns instead of a zero pass).
    pub fn take_copy(&mut self, src: MatRef<'_, E>) -> Mat<E> {
        let (rows, cols) = src.shape();
        let mut buf = self.pick(rows * cols, false);
        buf.clear();
        for j in 0..cols {
            buf.extend_from_slice(src.col(j));
        }
        self.note_out(buf.capacity() as u64 * Self::ELEM_BYTES);
        Mat::from_col_major(rows, cols, buf)
    }

    /// Returns a matrix's backing buffer to the pool.
    ///
    /// Accepts any `Mat`, including ones this workspace never handed
    /// out — "foreign" buffers are simply adopted, which lets a caller
    /// seed the pool. Zero-capacity buffers are dropped.
    pub fn put(&mut self, m: Mat<E>) {
        let buf = m.into_vec();
        let cap_bytes = buf.capacity() as u64 * Self::ELEM_BYTES;
        self.bytes_out = self.bytes_out.saturating_sub(cap_bytes);
        if buf.capacity() > 0 {
            self.bytes_pooled += cap_bytes;
            self.free.push(buf);
        }
    }

    /// Drops every pooled buffer and zeroes the byte accounting.
    /// Cumulative `checkouts`/`reuses`/`bytes_high_water` stats are
    /// kept (released bytes are counted into `trimmed_bytes`) — the next
    /// `take` after a reset is a fresh checkout.
    pub fn reset(&mut self) {
        self.note_trimmed(self.bytes_pooled);
        self.free.clear();
        self.bytes_out = 0;
        self.bytes_pooled = 0;
    }

    /// Shrinks the pool to at most `max_pooled_bytes` of idle capacity,
    /// dropping the **largest** buffers first (one oversized solve is
    /// exactly one or two huge buffers; the steady-state small ones keep
    /// the hot path allocation-free). Returns the bytes released.
    ///
    /// Without a trim policy the capacity-matched pool retains every
    /// high-water buffer forever, so a single wide-batch solve pins its
    /// peak memory for the life of the session. Long-lived owners (the
    /// solve service, [`crate::Workspace`]-holding sessions) call this
    /// after unusually wide work; released bytes are surfaced as
    /// [`WorkspaceStats::trimmed_bytes`] and the
    /// `bt_dense.ws.trimmed_bytes` counter.
    pub fn trim_to(&mut self, max_pooled_bytes: u64) -> u64 {
        let mut released = 0u64;
        while self.bytes_pooled > max_pooled_bytes && !self.free.is_empty() {
            let largest = self
                .free
                .iter()
                .enumerate()
                .max_by_key(|(_, buf)| buf.capacity())
                .map(|(i, _)| i)
                .expect("pool non-empty");
            let buf = self.free.swap_remove(largest);
            let cap_bytes = buf.capacity() as u64 * Self::ELEM_BYTES;
            self.bytes_pooled -= cap_bytes;
            released += cap_bytes;
        }
        self.note_trimmed(released);
        released
    }

    /// Bytes of idle pooled capacity (excluding checked-out buffers).
    pub fn pooled_bytes(&self) -> u64 {
        self.bytes_pooled
    }

    /// Number of buffers currently sitting in the pool.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Cumulative usage counters.
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Smallest pooled buffer with capacity >= `need` (`== need` when
    /// `exact`), else a fresh allocation. Linear scan: pools hold a
    /// handful of buffers.
    fn pick(&mut self, need: usize, exact: bool) -> Vec<E> {
        let mut best: Option<usize> = None;
        for (i, buf) in self.free.iter().enumerate() {
            if buf.capacity() >= need
                && (!exact || buf.capacity() == need)
                && best.is_none_or(|b| buf.capacity() < self.free[b].capacity())
            {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                let buf = self.free.swap_remove(i);
                self.bytes_pooled -= buf.capacity() as u64 * Self::ELEM_BYTES;
                self.stats.reuses += 1;
                OBS_WS_REUSES.incr();
                buf
            }
            None => {
                self.stats.checkouts += 1;
                OBS_WS_CHECKOUTS.incr();
                Vec::with_capacity(need)
            }
        }
    }

    fn note_trimmed(&mut self, released: u64) {
        if released > 0 {
            self.stats.trimmed_bytes += released;
            OBS_WS_TRIMMED.add(released);
        }
    }

    fn note_out(&mut self, cap_bytes: u64) {
        self.bytes_out += cap_bytes;
        let total = self.bytes_out + self.bytes_pooled;
        if total > self.stats.bytes_high_water {
            self.stats.bytes_high_water = total;
            OBS_WS_HIGH_WATER.set(total as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_take_reuses() {
        let mut ws: Workspace = Workspace::new();
        let a = ws.take(4, 3);
        assert_eq!(a.shape(), (4, 3));
        assert_eq!(ws.stats().checkouts, 1);
        ws.put(a);
        let b = ws.take(3, 4); // same element count, different shape
        assert_eq!(b.shape(), (3, 4));
        assert_eq!(
            ws.stats(),
            WorkspaceStats {
                checkouts: 1,
                reuses: 1,
                bytes_high_water: 12 * 8,
                trimmed_bytes: 0,
            }
        );
        assert!(b.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn take_is_zeroed_after_reuse() {
        let mut ws: Workspace = Workspace::new();
        let mut a = ws.take(2, 2);
        a.fill(5.0);
        ws.put(a);
        let b = ws.take(2, 2);
        assert!(b.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn take_copy_matches_source() {
        let mut ws: Workspace = Workspace::new();
        let src = Mat::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
        let c = ws.take_copy(src.as_ref());
        assert_eq!(c, src);
        // Strided source copies the window only.
        ws.put(c);
        let big = Mat::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let c2 = ws.take_copy(big.submatrix(1, 1, 2, 2));
        assert_eq!(c2, big.block(1, 1, 2, 2));
        assert_eq!(ws.stats().reuses, 1);
    }

    #[test]
    fn smallest_adequate_buffer_wins() {
        let mut ws: Workspace = Workspace::new();
        let big = ws.take(10, 10);
        let small = ws.take(2, 2);
        ws.put(big);
        ws.put(small);
        // A 2x2 request should recycle the 4-element buffer, not the
        // 100-element one.
        let got = ws.take(2, 2);
        assert_eq!(got.as_slice().len(), 4);
        assert_eq!(ws.pooled(), 1); // big one still pooled
        ws.put(got);
        assert_eq!(ws.stats().checkouts, 2);
        assert_eq!(ws.stats().reuses, 1);
    }

    #[test]
    fn take_exact_skips_larger_buffers() {
        let mut ws: Workspace = Workspace::new();
        let big = ws.take(4, 8);
        ws.put(big);
        let a = ws.take_exact(4, 4);
        assert_eq!(a.as_slice().len(), 16);
        assert_eq!(ws.stats().checkouts, 2, "a larger buffer must not serve");
        assert_eq!(ws.pooled(), 1);
        ws.put(a);
        let b = ws.take_exact(4, 4);
        assert!(b.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!((ws.stats().checkouts, ws.stats().reuses), (2, 1));
    }

    #[test]
    fn reset_drops_pool_but_keeps_stats() {
        let mut ws: Workspace = Workspace::new();
        let a = ws.take(3, 3);
        ws.put(a);
        ws.reset();
        assert_eq!(ws.pooled(), 0);
        let _ = ws.take(3, 3);
        assert_eq!(ws.stats().checkouts, 2, "post-reset take must re-allocate");
    }

    #[test]
    fn adopts_foreign_buffers() {
        let mut ws: Workspace = Workspace::new();
        ws.put(Mat::zeros(5, 5));
        let a = ws.take(5, 5);
        assert_eq!(ws.stats().checkouts, 0);
        assert_eq!(ws.stats().reuses, 1);
        drop(a);
    }

    #[test]
    fn empty_mats_are_not_pooled() {
        let mut ws: Workspace = Workspace::new();
        ws.put(Mat::empty());
        assert_eq!(ws.pooled(), 0);
    }

    #[test]
    fn trim_drops_largest_buffers_first() {
        let mut ws: Workspace = Workspace::new();
        let huge = ws.take(100, 100); // 80_000 B
        let mid = ws.take(10, 10); // 800 B
        let small = ws.take(2, 2); // 32 B
        ws.put(huge);
        ws.put(mid);
        ws.put(small);
        let before = ws.pooled_bytes();
        assert!(before >= 80_832);
        // A 100 B budget must shed the huge buffer and then the mid one,
        // keeping the small steady-state buffer.
        let released = ws.trim_to(100);
        assert_eq!(released, before - ws.pooled_bytes());
        assert!(ws.pooled_bytes() <= 100, "pool {} B", ws.pooled_bytes());
        assert_eq!(ws.pooled(), 1);
        assert_eq!(ws.stats().trimmed_bytes, released);
        // The survivor is the small buffer: a small take still reuses.
        let again = ws.take(2, 2);
        assert_eq!(ws.stats().checkouts, 3);
        drop(again);
    }

    #[test]
    fn trim_under_budget_is_a_noop() {
        let mut ws: Workspace = Workspace::new();
        let a = ws.take(4, 4);
        ws.put(a);
        assert_eq!(ws.trim_to(u64::MAX), 0);
        assert_eq!(ws.stats().trimmed_bytes, 0);
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn trim_bounds_high_water_regrowth() {
        // The bytes-high-water pin: after an oversized pass and a trim,
        // a small pass cannot re-reach the oversized footprint — the peak
        // stays a one-off, not a permanent floor.
        let mut ws: Workspace = Workspace::new();
        let oversized = ws.take(64, 4096); // one huge replay batch
        ws.put(oversized);
        let peak = ws.stats().bytes_high_water;
        assert!(peak >= 64 * 4096 * 8);
        ws.trim_to(0);
        assert_eq!(ws.pooled_bytes(), 0);
        for _ in 0..10 {
            let a = ws.take(64, 4);
            let b = ws.take(64, 4);
            ws.put(a);
            ws.put(b);
        }
        // Outstanding + pooled bytes after the trim stay bounded by the
        // small working set; the recorded peak is unchanged.
        assert!(ws.pooled_bytes() <= 2 * 64 * 4 * 8);
        assert_eq!(ws.stats().bytes_high_water, peak);
    }

    #[test]
    fn reset_counts_trimmed_bytes() {
        let mut ws: Workspace = Workspace::new();
        let a = ws.take(8, 8);
        ws.put(a);
        let pooled = ws.pooled_bytes();
        assert!(pooled > 0);
        ws.reset();
        assert_eq!(ws.stats().trimmed_bytes, pooled);
    }

    #[test]
    fn warm_loop_is_allocation_free() {
        let mut ws: Workspace = Workspace::new();
        // Warm-up pass.
        let (a, b) = (ws.take(4, 4), ws.take(4, 1));
        ws.put(a);
        ws.put(b);
        let cold = ws.stats().checkouts;
        for _ in 0..100 {
            let (a, b) = (ws.take(4, 4), ws.take(4, 1));
            ws.put(a);
            ws.put(b);
        }
        assert_eq!(ws.stats().checkouts, cold);
        assert_eq!(ws.stats().reuses, 200);
    }

    #[test]
    fn f32_pool_charges_half_the_bytes() {
        let mut w64: Workspace<f64> = Workspace::new();
        let mut w32: Workspace<f32> = Workspace::new();
        let a = w64.take(6, 2);
        let b = w32.take(6, 2);
        w64.put(a);
        w32.put(b);
        assert_eq!(w64.pooled_bytes(), 12 * 8);
        assert_eq!(w32.pooled_bytes(), 12 * 4);
        assert_eq!(
            w32.stats().bytes_high_water * 2,
            w64.stats().bytes_high_water
        );
    }
}
