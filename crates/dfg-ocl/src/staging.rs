//! Pinned host staging for asynchronous uploads.
//!
//! A real device can only DMA asynchronously out of page-locked ("pinned")
//! host memory, so an overlapped streaming pipeline keeps a small ring of
//! pinned staging buffers: slab *n*'s bytes are **assembled directly into
//! ring slot `n % depth`** — never into an intermediate `Vec` (the dgen-rs
//! zero-copy discipline) — and the H2D enqueue reads straight from that
//! slot.
//!
//! In this simulated layer "pinned" is a modeling statement, not an mlock:
//! what the ring preserves is the *allocation discipline* — `depth` slots
//! allocated once up front, reused round-robin for the whole stream, zero
//! per-slab heap traffic.

/// A ring of reusable host staging buffers, indexed by slab number.
///
/// Reuse safety: the simulated [`Context::write`](crate::Context::write) copies (or accounts) its
/// source at enqueue time, so a slot may be refilled as soon as the
/// previous occupant's upload has been *issued*; no host-side fence is
/// needed. On real hardware the refill of slot `n % depth` must wait for
/// upload *n−depth*'s completion event — exactly the dependency token the
/// pipeline already threads for the device-side WAR hazard.
///
/// ```
/// use dfg_ocl::StagingRing;
///
/// let mut ring = StagingRing::new(2, 8);
/// ring.slot_mut(0)[..3].copy_from_slice(&[16.0, 16.0, 4.0]);
/// ring.slot_mut(1)[..3].copy_from_slice(&[16.0, 16.0, 5.0]);
/// // Slab 2 wraps onto slot 0; slab 0's upload was already issued.
/// assert_eq!(ring.slot(2)[0], 16.0);
/// assert_eq!(ring.depth(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct StagingRing {
    slots: Vec<Vec<f32>>,
    lanes: usize,
}

impl StagingRing {
    /// Allocate `depth` staging slots of `lanes` f32 lanes each. Panics if
    /// `depth` is zero.
    pub fn new(depth: usize, lanes: usize) -> Self {
        assert!(depth > 0, "staging ring needs at least one slot");
        StagingRing {
            slots: vec![vec![0.0; lanes]; depth],
            lanes,
        }
    }

    /// Number of slots in the ring (the pipeline's overlap depth).
    pub fn depth(&self) -> usize {
        self.slots.len()
    }

    /// Lanes per slot.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The staging slot for slab `slab` (wraps modulo the depth), writable:
    /// assembly generates bytes directly into this slice.
    pub fn slot_mut(&mut self, slab: usize) -> &mut [f32] {
        let depth = self.slots.len();
        &mut self.slots[slab % depth]
    }

    /// The staging slot for slab `slab` (wraps modulo the depth), as the
    /// source slice for an upload.
    pub fn slot(&self, slab: usize) -> &[f32] {
        &self.slots[slab % self.slots.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_reuses_storage() {
        let mut ring = StagingRing::new(3, 4);
        assert_eq!(ring.depth(), 3);
        assert_eq!(ring.lanes(), 4);
        for slab in 0..7 {
            ring.slot_mut(slab).fill(slab as f32);
        }
        // Slabs 4/5/6 were the last writers of slots 1/2/0.
        assert_eq!(ring.slot(4)[0], 4.0);
        assert_eq!(ring.slot(1)[0], 4.0);
        assert_eq!(ring.slot(6)[0], 6.0);
        assert_eq!(ring.slot(0)[0], 6.0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_depth_rejected() {
        let _ = StagingRing::new(0, 4);
    }
}
