//! Warp-level memory coalescing.
//!
//! A warp issues one memory instruction for its 32 lanes; the coalescer
//! merges the lanes' byte addresses into distinct 32-byte sectors, each of
//! which becomes one global-memory transaction. Sequential `f32` access packs
//! 32 lanes into 4 sectors; a stride ≥ 32 bytes degenerates to one
//! transaction per lane — the paper's un-coalesced access problem.

/// Collects the distinct sector ids touched by one warp's lane addresses.
///
/// Returns sector ids (byte address / `sector_bytes`), deduplicated, in
/// first-touch order.
///
/// # Panics
///
/// Panics if `sector_bytes == 0`.
///
/// # Example
///
/// ```
/// use mega_gpu_sim::coalesce::warp_sectors;
///
/// // 32 sequential f32 loads: 128 bytes = 4 sectors.
/// let addrs: Vec<u64> = (0..32).map(|l| l * 4).collect();
/// assert_eq!(warp_sectors(&addrs, 32).len(), 4);
///
/// // 32 loads strided by 128 bytes: fully scattered, 32 transactions.
/// let addrs: Vec<u64> = (0..32).map(|l| l * 128).collect();
/// assert_eq!(warp_sectors(&addrs, 32).len(), 32);
/// ```
pub fn warp_sectors(lane_addrs: &[u64], sector_bytes: u64) -> Vec<u64> {
    assert!(sector_bytes > 0, "sector size must be positive");
    let mut sectors = Vec::with_capacity(lane_addrs.len().min(32));
    for &a in lane_addrs {
        let s = a / sector_bytes;
        if !sectors.contains(&s) {
            sectors.push(s);
        }
    }
    sectors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_f32_packs_into_four_sectors() {
        let addrs: Vec<u64> = (0..32u64).map(|l| 1000 + l * 4).collect();
        // Unaligned base may straddle one extra sector.
        let n = warp_sectors(&addrs, 32).len();
        assert!(n == 4 || n == 5, "got {n}");
    }

    #[test]
    fn broadcast_is_one_transaction() {
        let addrs = vec![64u64; 32];
        assert_eq!(warp_sectors(&addrs, 32).len(), 1);
    }

    #[test]
    fn scattered_is_one_per_lane() {
        let addrs: Vec<u64> = (0..32u64).map(|l| l * 4096).collect();
        assert_eq!(warp_sectors(&addrs, 32).len(), 32);
    }
}
