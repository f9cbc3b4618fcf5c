//! Integration of the observability layer with the worker threads: span
//! parent attribution is thread-local, so spans opened inside the workers
//! `ordered_map` spawns are roots of their own thread's tree, while those of
//! the calling thread — which runs the last contiguous chunk, and the whole
//! inline (single-thread) path — nest under the caller's open span.
//!
//! The obs registry and enable flag are process-global; these tests
//! serialize on a static mutex so the parallel test runner cannot
//! interleave them (same pattern as the `mega-obs` unit tests).

use mega_core::parallel::ordered_map;
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

static GUARD: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn worker_thread_spans_are_thread_local_roots() {
    let _g = guard();
    mega_obs::reset();
    mega_obs::set_enabled(true);
    let items: Vec<usize> = (0..64).collect();
    let out = {
        let _outer = mega_obs::span("outer");
        ordered_map(&items, 4, |i, &v| {
            let _w = mega_obs::span("worker_op");
            i + v
        })
    };
    mega_obs::set_enabled(false);
    assert_eq!(out[10], 20);

    let snap = mega_obs::snapshot();
    let count_at = |path: &str| {
        snap.spans
            .iter()
            .find(|s| s.path == path)
            .map_or(0, |s| s.count)
    };
    // Four chunks of 16: the calling thread runs the last, so its 16 spans
    // nest under its open "outer" span; the three spawned workers have no
    // open span of their own, so their 48 are roots.
    assert_eq!(count_at("outer/worker_op"), 16, "the caller's chunk");
    assert_eq!(count_at("worker_op"), 48, "the spawned workers' chunks");
    assert_eq!(count_at("outer"), 1);
    // Workers get distinct thread ids in the raw span records: all 65 fit
    // in the flight recorder's ring.
    let tids: BTreeSet<u64> = mega_obs::flight_recorder().iter().map(|e| e.tid).collect();
    assert_eq!(tids.len(), 4, "one thread id per worker, got {tids:?}");
    mega_obs::reset();
}

#[test]
fn inline_path_nests_under_caller_span() {
    let _g = guard();
    mega_obs::reset();
    mega_obs::set_enabled(true);
    let items: Vec<usize> = (0..8).collect();
    {
        let _outer = mega_obs::span("outer");
        // threads == 1 → inline on the calling thread.
        let _ = ordered_map(&items, 1, |_, &v| {
            let _w = mega_obs::span("worker_op");
            v
        });
    }
    mega_obs::set_enabled(false);
    let snap = mega_obs::snapshot();
    let inline = snap.spans.iter().find(|s| s.path == "outer/worker_op");
    assert!(
        inline.is_some_and(|s| s.count == 8),
        "inline spans must nest under outer"
    );
    let counters: std::collections::BTreeMap<_, _> = snap.counters.iter().cloned().collect();
    assert_eq!(counters.get("core.parallel.inline_runs"), Some(&1));
    mega_obs::reset();
}
