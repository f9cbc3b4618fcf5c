//! Property-based tests for the GPU simulator.

use mega_gpu_sim::cache::{Access, SectoredCache};
use mega_gpu_sim::coalesce::warp_sectors;
use mega_gpu_sim::{DeviceConfig, KernelKind, Profiler};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A warp never issues more transactions than lanes, and never fewer
    /// than the distinct sectors demand.
    #[test]
    fn coalescer_bounds(addrs in proptest::collection::vec(0u64..1_000_000, 1..64)) {
        let sectors = warp_sectors(&addrs, 32);
        prop_assert!(sectors.len() <= addrs.len());
        let distinct: std::collections::HashSet<u64> = addrs.iter().map(|a| a / 32).collect();
        prop_assert_eq!(sectors.len(), distinct.len());
    }

    /// Cache counters are consistent: hits + misses == accesses, and a
    /// repeated access to the same address always hits immediately after.
    #[test]
    fn cache_counter_consistency(addrs in proptest::collection::vec(0u64..(1u64 << 22), 1..500)) {
        let mut c = SectoredCache::new(64 * 1024, 128, 32, 8);
        for &a in &addrs {
            let _ = c.access_sector(a);
            prop_assert_eq!(c.access_sector(a), Access::Hit);
        }
        prop_assert_eq!(c.hits() + c.misses(), c.accesses());
        prop_assert!(c.hit_rate() >= 0.5); // every address re-accessed once
    }

    /// A working set within capacity converges to all-hits on the second
    /// pass regardless of the address base.
    #[test]
    fn small_working_set_hits(base in 0u64..(1u64 << 30)) {
        let base = base & !31; // sector aligned
        let mut c = SectoredCache::new(128 * 1024, 128, 32, 8);
        for _ in 0..2 {
            for off in (0..32 * 1024u64).step_by(32) {
                c.access_sector(base + off);
            }
        }
        // Second pass: 1024 sectors, all hits.
        prop_assert!(c.hits() >= 1024);
    }

    /// Simulated time is monotone in workload size for the same kernel.
    #[test]
    fn gather_time_monotone(rows in 64usize..2048) {
        let mut small = Profiler::new(DeviceConfig::gtx_1080());
        let src = small.alloc(rows * 64 * 4);
        let idx: Vec<usize> = (0..rows).map(|i| (i * 31) % rows).collect();
        small.launch_gather(src, &idx, 64, rows);
        let t_small = small.total_cycles();

        let mut big = Profiler::new(DeviceConfig::gtx_1080());
        let src = big.alloc(2 * rows * 64 * 4);
        let idx: Vec<usize> = (0..2 * rows).map(|i| (i * 31) % (2 * rows)).collect();
        big.launch_gather(src, &idx, 64, 2 * rows);
        prop_assert!(big.total_cycles() >= t_small);
    }

    /// Report time shares always sum to 1 over a non-empty profile.
    #[test]
    fn report_shares_sum_to_one(n in 1usize..6) {
        let mut p = Profiler::new(DeviceConfig::gtx_1080());
        for i in 0..n {
            let buf = p.alloc(4096 * (i + 1));
            p.launch_memcpy(buf, 4096 * (i + 1));
        }
        let r = p.report();
        let total: f64 = r.kernels().iter().map(|k| k.time_share).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(r.kernel(KernelKind::Memcpy).is_some());
    }

    /// Every kernel's SM efficiency and stall fraction stay in [0, 1].
    #[test]
    fn metric_ranges(rows in 32usize..512, feat in 1usize..96) {
        let mut p = Profiler::new(DeviceConfig::gtx_1080());
        let buf = p.alloc(rows * feat * 4);
        let idx: Vec<usize> = (0..rows).map(|i| (i * 17) % rows).collect();
        p.launch_gather(buf, &idx, feat, rows);
        p.launch_scatter(buf, &idx, feat, rows);
        p.launch_sort(buf, rows);
        p.launch_band_gather(buf, rows, 2, feat);
        for k in p.report().kernels() {
            prop_assert!((0.0..=1.0).contains(&k.sm_efficiency), "{:?}", k.kind);
            prop_assert!((0.0..=1.0).contains(&k.stall_pct), "{:?}", k.kind);
            prop_assert!(k.l2_hits <= k.load_transactions);
        }
    }
}
