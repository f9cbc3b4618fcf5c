//! Size-class freelist of `f32` buffers under one byte budget, with
//! per-octave memory telemetry.
//!
//! Training builds and drops one autograd tape per batch; every tape node
//! used to allocate (and free) a fresh `Vec<f32>`. The pool intercepts that
//! churn. Ownership rules (see DESIGN.md §6):
//!
//! * **Eighth-octave classes, one of headroom.** Up to 16 elements every
//!   length is its own class; above, each octave `[2^e, 2^(e+1))` holds the
//!   eight capacities `(8 + s)·2^(e−3)`. A request draws the smallest parked
//!   buffer from its own class (the smallest holding it) or the two above;
//!   a miss allocates one class above its own. A buffer thus serves requests
//!   one class either side of the one it was made for, so the same tensor in
//!   neighbouring batches keeps one buffer. A buffer the pool never issued
//!   parks in the largest class it covers.
//! * **One byte budget.** Parked bytes stay within twice the peak of
//!   outstanding bytes (acquired and not yet released): room for the peak
//!   again as threads move it between classes. Past that only an empty
//!   class parks, so a request that recurs alone always hits; other
//!   releases are dropped. Releasing a buffer the pool never issued is fine
//!   (that is how fresh allocations enter circulation); dropping an
//!   acquired buffer instead of releasing it is also fine.
//! * **Two acquire forms.** [`BufferPool::acquire`] returns a zeroed buffer,
//!   for kernels that accumulate. [`BufferPool::acquire_for_overwrite`]
//!   returns the parked contents (safe `resize`: only growth is zeroed), for
//!   kernels that write every element — pool reuse is never observable in
//!   the values either computes.
//! * **Debug poisoning.** In debug builds `release` fills a buffer with NaN
//!   to its capacity, so an op that reads a for-overwrite buffer before
//!   writing it corrupts the values the test suites pin. Release builds skip
//!   the fill.
//!
//! While `mega_obs` tracing is enabled the pool also exports, per
//! `k = ⌊log₂ capacity⌋` bucket, the gauges
//! `exec.pool.class<k>.{resident_bytes, resident_hwm_bytes}`, the global
//! `exec.pool.hits`/`misses` counters, and a Chrome-trace counter track of
//! total resident bytes; [`BufferPool::class_stats`] exposes the same
//! numbers programmatically.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bytes per element.
const F32: u64 = 4;

/// Freelists plus the byte accounting that bounds them.
#[derive(Debug, Default)]
struct State {
    /// Parked buffers by class capacity, in elements.
    parked: BTreeMap<usize, Vec<Vec<f32>>>,
    /// Bytes held by parked buffers (capacities, not lengths).
    resident_bytes: u64,
    /// Bytes checked out. Foreign releases can push this below true demand
    /// — it saturates at zero — which only ever lowers the budget.
    outstanding_bytes: u64,
    /// Peak of `outstanding_bytes`; `resident_bytes` stays within twice it.
    budget_bytes: u64,
    /// Telemetry per `⌊log₂ capacity⌋` bucket.
    buckets: BTreeMap<u32, PoolClassStats>,
}

impl State {
    /// Moves `bytes` of a `capacity`-element buffer in (`park`) or out of
    /// the parked set, keeping the bucket's gauges current; returns the
    /// bucket's stats and the total resident bytes after the move.
    fn move_parked(&mut self, capacity: usize, park: bool) -> (PoolClassStats, u64) {
        let bytes = F32 * capacity as u64;
        let class = capacity.max(1).ilog2();
        let b = self.buckets.entry(class).or_insert(PoolClassStats {
            class,
            ..PoolClassStats::default()
        });
        if park {
            self.resident_bytes += bytes;
            b.parked += 1;
            b.resident_bytes += bytes;
            b.resident_hwm_bytes = b.resident_hwm_bytes.max(b.resident_bytes);
        } else {
            self.resident_bytes -= bytes;
            b.parked -= 1;
            b.resident_bytes -= bytes;
        }
        (b.clone(), self.resident_bytes)
    }
}

/// A point-in-time copy of one telemetry bucket, from
/// [`BufferPool::class_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolClassStats {
    /// Bucket index: the bucket holds buffers of capacity
    /// `[2^class, 2^(class+1))` elements.
    pub class: u32,
    /// Buffers currently parked in the bucket.
    pub parked: usize,
    /// Bytes held by parked buffers.
    pub resident_bytes: u64,
    /// High-water mark of resident bytes.
    pub resident_hwm_bytes: u64,
}

/// A thread-safe size-class freelist of `Vec<f32>` buffers.
#[derive(Debug, Default)]
pub struct BufferPool {
    state: Mutex<State>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Suppresses the per-bucket gauge/trace exports (hit/miss counters are
    /// additive and stay on). Concurrent pools would race last-writer-wins
    /// on the shared gauge names; a quiet pool is observed via
    /// [`BufferPool::class_stats`] and aggregated by its owner instead.
    quiet: bool,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// An empty pool that never exports the per-bucket gauges or the
    /// resident-bytes trace track. For pools that run concurrently with
    /// others (e.g. one per distributed worker): the gauge names are
    /// global, so live exports from concurrent pools would interleave
    /// nondeterministically — the owner aggregates [`class_stats`] after
    /// joining instead. The additive `exec.pool.hits`/`misses` counters
    /// stay on; sums are interleaving-invariant.
    ///
    /// [`class_stats`]: BufferPool::class_stats
    pub fn quiet() -> Self {
        BufferPool {
            quiet: true,
            ..BufferPool::default()
        }
    }

    /// Class spacing in the octave of `len`: 1 up to 15, `2^(⌊log₂ len⌋−3)`
    /// above.
    fn class_unit(len: usize) -> usize {
        1 << len.max(1).ilog2().saturating_sub(3)
    }

    /// The smallest class capacity holding `len` elements.
    fn class_of_request(len: usize) -> usize {
        let unit = Self::class_unit(len);
        len.div_ceil(unit) * unit
    }

    /// The largest class capacity a buffer of `capacity` covers.
    fn class_of_capacity(capacity: usize) -> usize {
        let unit = Self::class_unit(capacity);
        capacity / unit * unit
    }

    /// Emits one bucket's gauges and the resident-bytes counter track.
    /// `total_resident` is read under the same lock that changed the
    /// bucket, so the track never interleaves stale sums.
    fn emit(&self, (b, total_resident): (PoolClassStats, u64)) {
        if self.quiet || !mega_obs::enabled() {
            return;
        }
        let class = b.class;
        let resident = format!("exec.pool.class{class}.resident_bytes");
        mega_obs::gauge_set(&resident, b.resident_bytes as f64);
        let hwm = format!("exec.pool.class{class}.resident_hwm_bytes");
        mega_obs::gauge_set(&hwm, b.resident_hwm_bytes as f64);
        mega_obs::trace_counter("exec.pool.resident_bytes", total_resident as f64);
    }

    /// Takes a buffer of exactly `len` elements, recycling the smallest
    /// parked one from the request's class or the two above when there is
    /// one, else allocating one class above; `zeroed` clears what it held.
    fn take(&self, len: usize, zeroed: bool) -> Vec<f32> {
        let class = Self::class_of_request(len);
        let fresh = Self::class_of_request(class + 1);
        let top = Self::class_of_request(fresh + 1);
        let (recycled, telemetry) = {
            let mut st = self.state.lock().expect("buffer pool poisoned");
            let recycled = st
                .parked
                .range_mut(class..=top)
                .find(|(_, parked)| !parked.is_empty())
                .and_then(|(_, parked)| parked.pop());
            let capacity = recycled.as_ref().map_or(fresh, Vec::capacity);
            st.outstanding_bytes += F32 * capacity as u64;
            st.budget_bytes = st.budget_bytes.max(st.outstanding_bytes);
            let telemetry = recycled.is_some().then(|| st.move_parked(capacity, false));
            (recycled, telemetry)
        };
        let (counter, tally) = match recycled {
            Some(_) => ("exec.pool.hits", &self.hits),
            None => ("exec.pool.misses", &self.misses),
        };
        tally.fetch_add(1, Ordering::Relaxed);
        if mega_obs::enabled() {
            mega_obs::counter_add(counter, 1);
        }
        if let Some(t) = telemetry {
            self.emit(t);
        }
        let mut buf = match recycled {
            Some(mut buf) if zeroed => {
                buf.clear();
                buf
            }
            Some(buf) => buf,
            // Zeroed by the allocator; `resize` below only truncates it.
            None => vec![0.0f32; fresh],
        };
        buf.resize(len, 0.0);
        buf
    }

    /// Takes a zeroed buffer of exactly `len` elements — for kernels that
    /// accumulate into their output.
    pub fn acquire(&self, len: usize) -> Vec<f32> {
        self.take(len, true)
    }

    /// Takes a buffer of exactly `len` elements holding whatever its last
    /// user left (zeros where it had to grow) — for kernels that write every
    /// element of their output before reading any.
    pub fn acquire_for_overwrite(&self, len: usize) -> Vec<f32> {
        self.take(len, false)
    }

    /// Returns a buffer to the pool for reuse. Zero-capacity buffers, and
    /// releases past the budget into a class that holds a buffer, are
    /// dropped.
    pub fn release(&self, mut buf: Vec<f32>) {
        let capacity = buf.capacity();
        if cfg!(debug_assertions) {
            buf.clear();
            buf.resize(capacity, f32::NAN);
        }
        let bytes = F32 * capacity as u64;
        let telemetry = {
            let mut st = self.state.lock().expect("buffer pool poisoned");
            st.outstanding_bytes = st.outstanding_bytes.saturating_sub(bytes);
            let over = st.resident_bytes + bytes > 2 * st.budget_bytes;
            let parked = st
                .parked
                .entry(Self::class_of_capacity(capacity))
                .or_default();
            if capacity == 0 || (over && !parked.is_empty()) {
                return;
            }
            parked.push(buf);
            st.move_parked(capacity, true)
        };
        self.emit(telemetry);
    }

    /// Number of acquires served from the freelist.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of acquires that had to allocate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Bytes currently parked in the pool, across all classes.
    pub fn resident_bytes(&self) -> u64 {
        let st = self.state.lock().expect("buffer pool poisoned");
        st.resident_bytes
    }

    /// Telemetry for every bucket the pool has parked in, ascending by
    /// bucket index.
    pub fn class_stats(&self) -> Vec<PoolClassStats> {
        let st = self.state.lock().expect("buffer pool poisoned");
        st.buckets.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_eighth_octaves_and_round_trip() {
        let up: Vec<usize> = [0, 1, 15, 16, 17, 31, 33, 100, 1000]
            .map(BufferPool::class_of_request)
            .to_vec();
        assert_eq!(up, [0, 1, 15, 16, 18, 32, 36, 104, 1024]);
        let down = [17, 33, 100, 1000].map(BufferPool::class_of_capacity);
        assert_eq!(down, [16, 32, 96, 960]);
        for len in 0..5000 {
            let class = BufferPool::class_of_request(len);
            assert!(class >= len && class - len <= len / 8, "{len} -> {class}");
            assert_eq!(BufferPool::class_of_capacity(class), class);
        }
    }

    #[test]
    fn a_miss_serves_one_class_either_side() {
        let pool = BufferPool::new();
        // A request in class 104 allocates one class up; requests of classes
        // 96..=112 (89..=112 elements) draw it, zeroed.
        let mut b = pool.acquire(100);
        assert_eq!(b.capacity(), 112);
        for len in [89, 112] {
            b.fill(7.0);
            pool.release(b);
            b = pool.acquire(len);
            assert!(b.len() == len && b.iter().all(|&v| v.to_bits() == 0));
        }
        // One class further either way misses.
        let _held = [88, 113].map(|len| pool.acquire(len));
        assert_eq!((pool.hits(), pool.misses()), (2, 3));
    }

    #[test]
    fn overwrite_form_keeps_contents_and_zeroes_growth() {
        let pool = BufferPool::new();
        let mut b = pool.acquire_for_overwrite(10);
        b.fill(3.0);
        b.truncate(4);
        pool.release(b);
        let again = pool.acquire_for_overwrite(10);
        assert_eq!(pool.hits(), 1);
        // Debug builds poison a parked buffer to its capacity; release
        // builds keep what it held and zero only the growth.
        let poisoned = again.iter().all(|v| v.is_nan());
        let stale = again == [3.0, 3.0, 3.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let debug = cfg!(debug_assertions);
        assert!(poisoned == debug && stale != debug, "{again:?}");
    }

    #[test]
    fn parked_bytes_stay_within_twice_the_peak_outstanding() {
        let pool = BufferPool::new();
        // Peak demand of three 64-element requests at once, 72-element
        // buffers: the budget parks them and three foreign 64-element ones.
        let held: Vec<_> = (0..3).map(|_| pool.acquire(64)).collect();
        held.into_iter().for_each(|b| pool.release(b));
        (0..4).for_each(|_| pool.release(vec![0.0; 64]));
        assert_eq!(pool.resident_bytes(), (3 * 72 + 3 * 64) * 4);
        // Past the budget only an empty class parks, and only one buffer.
        pool.release(vec![0.0; 32]);
        pool.release(vec![0.0; 32]);
        assert_eq!(pool.resident_bytes(), (3 * 72 + 3 * 64 + 32) * 4);
        // Within budget, a foreign buffer parks in the class it covers.
        let _hits = [pool.acquire(64), pool.acquire(64)];
        pool.release(Vec::with_capacity(61));
        let foreign = pool.acquire(60);
        assert_eq!((foreign.capacity(), pool.hits()), (61, 3));
    }

    #[test]
    fn bucket_telemetry_tracks_park_and_drain() {
        let pool = BufferPool::new();
        // Misses allocate one class up: 18 and 20 elements.
        let a = pool.acquire(16);
        let b = pool.acquire(18);
        assert_eq!(pool.resident_bytes(), 0);
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.resident_bytes(), (18 + 20) * 4);
        let _c = pool.acquire(16);
        assert_eq!(pool.resident_bytes(), 20 * 4, "a hit drains resident bytes");
        let stats = pool.class_stats();
        assert_eq!(stats.len(), 1, "18 and 20 share bucket 4");
        assert_eq!(stats[0].class, 4);
        assert_eq!(stats[0].parked, 1);
        assert_eq!(stats[0].resident_hwm_bytes, (18 + 20) * 4);
    }

    #[test]
    fn zero_length_requests_work() {
        let pool = BufferPool::new();
        let b = pool.acquire(0);
        assert!(b.is_empty());
        pool.release(b);
        assert!(pool.acquire_for_overwrite(0).is_empty());
    }
}
