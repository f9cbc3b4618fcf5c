//! Sectored, set-associative, LRU cache model (the device L2).
//!
//! Tags are tracked per cache line; fills happen per 32-byte *sector*, the
//! granularity of GDDR transactions on Pascal-class hardware. An access to a
//! resident line whose sector is absent counts as a (cheaper) sector fill
//! into an existing line; an access to a non-resident line allocates it
//! (evicting LRU) and fills the touched sector.

/// Outcome of a single sector access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Sector present in the cache.
    Hit,
    /// Line resident, sector missing: DRAM fetches one sector.
    SectorMiss,
    /// Line not resident: allocate (possible eviction) and fetch the sector.
    LineMiss,
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    sectors: u32,
    last_use: u64,
    valid: bool,
}

/// A sectored set-associative LRU cache.
///
/// # Example
///
/// ```
/// use mega_gpu_sim::cache::{Access, SectoredCache};
///
/// let mut c = SectoredCache::new(1024, 128, 32, 4);
/// assert_eq!(c.access_sector(0), Access::LineMiss);
/// assert_eq!(c.access_sector(0), Access::Hit);
/// assert_eq!(c.access_sector(32), Access::SectorMiss); // same line, next sector
/// ```
#[derive(Debug, Clone)]
pub struct SectoredCache {
    line_bytes: u64,
    sector_bytes: u64,
    sectors_per_line: u32,
    sets: usize,
    assoc: usize,
    lines: Vec<Line>,
    clock: u64,
    hits: u64,
    sector_misses: u64,
    line_misses: u64,
}

impl SectoredCache {
    /// Creates a cache of `capacity_bytes` with the given line/sector split
    /// and associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (sizes not divisible, zero
    /// sets) .
    pub fn new(
        capacity_bytes: usize,
        line_bytes: usize,
        sector_bytes: usize,
        assoc: usize,
    ) -> Self {
        assert!(
            line_bytes.is_multiple_of(sector_bytes),
            "line must hold whole sectors"
        );
        assert!(
            capacity_bytes.is_multiple_of(line_bytes * assoc),
            "capacity must form whole sets"
        );
        let sets = capacity_bytes / (line_bytes * assoc);
        assert!(sets > 0, "cache needs at least one set");
        SectoredCache {
            line_bytes: line_bytes as u64,
            sector_bytes: sector_bytes as u64,
            sectors_per_line: (line_bytes / sector_bytes) as u32,
            sets,
            assoc,
            lines: vec![
                Line {
                    tag: 0,
                    sectors: 0,
                    last_use: 0,
                    valid: false
                };
                sets * assoc
            ],
            clock: 0,
            hits: 0,
            sector_misses: 0,
            line_misses: 0,
        }
    }

    /// Accesses the sector containing byte address `addr`.
    pub fn access_sector(&mut self, addr: u64) -> Access {
        self.clock += 1;
        let line_addr = addr / self.line_bytes;
        let sector_in_line = ((addr % self.line_bytes) / self.sector_bytes) as u32;
        let sector_bit = 1u32 << sector_in_line;
        debug_assert!(sector_in_line < self.sectors_per_line);
        let set = (line_addr % self.sets as u64) as usize;
        let base = set * self.assoc;
        let ways = &mut self.lines[base..base + self.assoc];

        // Lookup.
        for way in ways.iter_mut() {
            if way.valid && way.tag == line_addr {
                way.last_use = self.clock;
                return if way.sectors & sector_bit != 0 {
                    self.hits += 1;
                    Access::Hit
                } else {
                    way.sectors |= sector_bit;
                    self.sector_misses += 1;
                    Access::SectorMiss
                };
            }
        }
        // Miss: pick invalid way or LRU victim.
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.last_use } else { 0 })
            .expect("associativity >= 1");
        victim.valid = true;
        victim.tag = line_addr;
        victim.sectors = sector_bit;
        victim.last_use = self.clock;
        self.line_misses += 1;
        Access::LineMiss
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.hits + self.sector_misses + self.line_misses
    }

    /// Sector hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses that fetched a sector into a resident line.
    pub fn sector_misses(&self) -> u64 {
        self.sector_misses
    }

    /// Misses that allocated a new line.
    pub fn line_misses(&self) -> u64 {
        self.line_misses
    }

    /// All misses (DRAM sector fetches).
    pub fn misses(&self) -> u64 {
        self.sector_misses + self.line_misses
    }

    /// Hit rate in `[0, 1]`; 1.0 when no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SectoredCache {
        // 8 sets × 2 ways × 128B lines = 2 KiB.
        SectoredCache::new(2048, 128, 32, 2)
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small();
        assert_eq!(c.access_sector(100), Access::LineMiss);
        assert_eq!(c.access_sector(100), Access::Hit);
        assert_eq!(c.access_sector(96), Access::Hit); // same sector [96,128)
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn sector_fill_within_line() {
        let mut c = small();
        c.access_sector(0);
        assert_eq!(c.access_sector(64), Access::SectorMiss); // same 128B line
        assert_eq!(c.access_sector(64), Access::Hit);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        // Three lines mapping to set 0 (stride = sets * line = 8 * 128 = 1024).
        c.access_sector(0);
        c.access_sector(1024);
        c.access_sector(0); // refresh line 0
        c.access_sector(2048); // evicts line at 1024 (LRU)
        assert_eq!(c.access_sector(0), Access::Hit);
        assert_eq!(c.access_sector(1024), Access::LineMiss);
    }

    #[test]
    fn working_set_behavior() {
        let mut c = small();
        // Streaming over 8 KiB (4x capacity) twice: second pass still misses.
        for pass in 0..2 {
            for addr in (0..8192u64).step_by(32) {
                c.access_sector(addr);
            }
            if pass == 0 {
                assert_eq!(c.hits(), 0);
            }
        }
        assert_eq!(c.hits(), 0, "stream larger than capacity must not hit");
        let mut c = small();
        // Working set fitting in capacity: second pass all hits.
        for _ in 0..2 {
            for addr in (0..2048u64).step_by(32) {
                c.access_sector(addr);
            }
        }
        assert_eq!(c.hits(), 64);
    }

    #[test]
    fn hit_rate_bounds() {
        let mut c = small();
        assert_eq!(c.hit_rate(), 1.0);
        c.access_sector(0);
        assert_eq!(c.hit_rate(), 0.0);
        c.access_sector(0);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "whole sectors")]
    fn bad_geometry_panics() {
        SectoredCache::new(1024, 100, 32, 2);
    }
}
