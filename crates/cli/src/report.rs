//! `mega report` — deterministic markdown performance report from a
//! metrics snapshot.
//!
//! Reads a snapshot JSON written by `--metrics-out` (either mode of
//! [`mega_obs::Snapshot::to_json`]) and renders the observability story of
//! the run as markdown: a per-kernel roofline table from the
//! `exec.profiled.*` counters, buffer-pool residency and high-water marks,
//! traversal locality, training health, the simulated-GPU bridge, and the
//! span census. Diffing two runs is `benchmark/run.sh --compare`'s job.
//!
//! Determinism contract: rendering is a pure function of the input bytes.
//! Deterministic snapshots carry counts-only timings, so their reports
//! place kernels on the roofline (arithmetic intensity, bound, attainable
//! rate at the fixed [`Calibration::reference`] roofs) without wall-clock
//! columns — byte-identical across identical runs, which CI enforces. Full
//! snapshots add achieved GFLOP/s / GB/s and roof utilization from
//! measured nanoseconds.

use crate::args::Args;
use mega_exec::Calibration;
use mega_obs::{data, info};
use serde::Value;
use std::fmt::Write as _;

/// `mega report <snapshot.json>` — render the markdown report.
pub fn report(args: &Args) -> Result<(), String> {
    args.accept_only("report", "out", "")?;
    let snap_path = args.positional().first().ok_or(
        "report needs a metrics snapshot JSON (write one with `mega train --metrics-out`)",
    )?;
    let source =
        std::fs::read_to_string(snap_path).map_err(|e| format!("cannot read {snap_path}: {e}"))?;
    let md = render(snap_path, &source)?;
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &md).map_err(|e| format!("cannot write {path}: {e}"))?;
            info!("[report written to {path}]");
        }
        None => data!("{md}"),
    }
    Ok(())
}

// ---------------------------------------------------------------- parsing

/// One histogram summary as serialized by `Snapshot::to_json`.
#[derive(Clone, Copy, Default)]
struct Hist {
    count: u64,
    sum: u64,
    p50: u64,
    p90: u64,
    p99: u64,
}

/// The parts of a snapshot the report consumes. `timings`/`spans` carry
/// `None` totals when the snapshot was written deterministically.
struct Snap {
    deterministic: bool,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    values: Vec<(String, Hist)>,
    timings: Vec<(String, u64, Option<u64>)>,
    spans: Vec<(String, u64, Option<u64>)>,
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(u) => Some(*u),
        Value::I64(i) => u64::try_from(*i).ok(),
        Value::F64(f) if f.fract() == 0.0 && *f >= 0.0 => Some(*f as u64),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    get(v, key).and_then(as_u64)
}

fn entries<'a>(v: &'a Value, key: &str) -> Vec<(&'a str, &'a Value)> {
    match get(v, key) {
        Some(Value::Object(e)) => e.iter().map(|(k, v)| (k.as_str(), v)).collect(),
        _ => Vec::new(),
    }
}

fn parse_snapshot(source: &str) -> Result<Snap, String> {
    let v: Value = serde_json::from_str(source).map_err(|e| format!("bad snapshot: {e:?}"))?;
    if get(&v, "counters").is_none() {
        return Err("not a metrics snapshot (no `counters` object)".into());
    }
    let hist = |h: &Value| Hist {
        count: get_u64(h, "count").unwrap_or(0),
        sum: get_u64(h, "sum").unwrap_or(0),
        p50: get_u64(h, "p50").unwrap_or(0),
        p90: get_u64(h, "p90").unwrap_or(0),
        p99: get_u64(h, "p99").unwrap_or(0),
    };
    let mut snap = Snap {
        deterministic: matches!(get(&v, "deterministic"), Some(Value::Bool(true))),
        counters: entries(&v, "counters")
            .into_iter()
            .filter_map(|(k, c)| as_u64(c).map(|c| (k.to_string(), c)))
            .collect(),
        gauges: entries(&v, "gauges")
            .into_iter()
            .filter_map(|(k, g)| as_f64(g).map(|g| (k.to_string(), g)))
            .collect(),
        values: entries(&v, "values")
            .into_iter()
            .map(|(k, h)| (k.to_string(), hist(h)))
            .collect(),
        timings: entries(&v, "timings")
            .into_iter()
            .map(|(k, h)| {
                (
                    k.to_string(),
                    get_u64(h, "count").unwrap_or(0),
                    get_u64(h, "sum_ns"),
                )
            })
            .collect(),
        spans: entries(&v, "spans")
            .into_iter()
            .map(|(k, s)| {
                (
                    k.to_string(),
                    get_u64(s, "count").unwrap_or(0),
                    get_u64(s, "total_ns"),
                )
            })
            .collect(),
    };
    // The registry serializes sorted already; re-sort so the report never
    // depends on input ordering.
    snap.counters.sort();
    snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    snap.values.sort_by(|a, b| a.0.cmp(&b.0));
    snap.timings.sort_by(|a, b| a.0.cmp(&b.0));
    snap.spans.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(snap)
}

impl Snap {
    fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    fn timing_sum_ns(&self, name: &str) -> Option<u64> {
        self.timings.iter().find(|(k, _, _)| k == name)?.2
    }
}

// -------------------------------------------------------------- rendering

/// Renders the full markdown report. Pure: identical inputs produce
/// identical bytes.
fn render(snap_path: &str, source: &str) -> Result<String, String> {
    let snap = parse_snapshot(source)?;
    let cal = Calibration::reference();
    let mut o = String::with_capacity(4096);
    let _ = writeln!(o, "# MEGA performance report");
    let _ = writeln!(o);
    let _ = writeln!(o, "- snapshot: `{snap_path}`");
    let _ = writeln!(
        o,
        "- mode: {}",
        if snap.deterministic {
            "deterministic (counts-only timings; rates below are roofline placements, not measurements)"
        } else {
            "full (wall-clock timings; achieved rates are measured)"
        }
    );
    let _ = writeln!(
        o,
        "- roofs: reference ({:.1} GFLOP/s GEMM, {:.1} GB/s triad)",
        cal.gemm_gflops, cal.triad_gbps
    );
    render_roofline(&mut o, &snap, &cal);
    render_pool(&mut o, &snap);
    render_traversal(&mut o, &snap);
    render_health(&mut o, &snap);
    render_dist(&mut o, &snap);
    render_gpusim(&mut o, &snap);
    render_spans(&mut o, &snap);
    Ok(o)
}

/// Scaled engineering formatting: value / 10^k with three significant
/// decimals, deterministic for identical inputs.
fn eng(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Per-kernel roofline table from `exec.profiled.<kernel>.*`.
fn render_roofline(o: &mut String, snap: &Snap, cal: &Calibration) {
    let kernels: Vec<&str> = snap
        .counters
        .iter()
        .filter_map(|(k, _)| {
            k.strip_prefix("exec.profiled.")
                .and_then(|rest| rest.strip_suffix(".calls"))
        })
        .collect();
    if kernels.is_empty() {
        return;
    }
    let _ = writeln!(o, "\n## Kernel roofline (exec.profiled)");
    let _ = writeln!(o);
    let _ = writeln!(
        o,
        "| kernel | calls | GFLOP | GB | AI (flop/B) | bound | roof GF/s | achieved GF/s | achieved GB/s | roof util |"
    );
    let _ = writeln!(o, "|---|---|---|---|---|---|---|---|---|---|");
    let mut name = String::new();
    for kernel in kernels {
        let counter = |suffix: &str, name: &mut String| {
            name.clear();
            name.push_str("exec.profiled.");
            name.push_str(kernel);
            name.push_str(suffix);
            snap.counter(name).unwrap_or(0)
        };
        let calls = counter(".calls", &mut name);
        let flops = counter(".flops", &mut name) as f64;
        let bytes = counter(".bytes", &mut name) as f64;
        let ai = if bytes > 0.0 { flops / bytes } else { 0.0 };
        // The roofline: attainable flop rate is the lesser of the compute
        // peak and what the bandwidth can feed at this intensity.
        let roof_gflops = cal.gemm_gflops.min(ai * cal.triad_gbps);
        let bound = if ai * cal.triad_gbps < cal.gemm_gflops {
            "memory"
        } else {
            "compute"
        };
        name.clear();
        name.push_str("exec.profiled.");
        name.push_str(kernel);
        name.push_str(".ns");
        let measured = snap
            .timing_sum_ns(&name)
            .filter(|&ns| ns > 0)
            .map(|ns| (flops / ns as f64, bytes / ns as f64));
        let (ach_gf, ach_gb, util) = match measured {
            // flops/ns == GFLOP/s, bytes/ns == GB/s.
            Some((gf, gb)) => (
                eng(gf),
                eng(gb),
                if roof_gflops > 0.0 {
                    format!("{:.1}%", gf / roof_gflops * 100.0)
                } else {
                    "-".to_string()
                },
            ),
            None => ("-".to_string(), "-".to_string(), "-".to_string()),
        };
        let _ = writeln!(
            o,
            "| {kernel} | {calls} | {} | {} | {} | {bound} | {} | {ach_gf} | {ach_gb} | {util} |",
            eng(flops / 1e9),
            eng(bytes / 1e9),
            eng(ai),
            eng(roof_gflops),
        );
    }
}

/// Percentage of `part` in `total`, or `-` for an empty total.
fn pct(part: u64, total: u64) -> String {
    if total > 0 {
        format!("{:.1}%", part as f64 / total as f64 * 100.0)
    } else {
        "-".to_string()
    }
}

/// Buffer-pool residency per `⌊log₂ capacity⌋` bucket plus the hit/miss
/// totals.
fn render_pool(o: &mut String, snap: &Snap) {
    let mut classes: Vec<&str> = snap
        .gauges
        .iter()
        .filter_map(|(k, _)| {
            k.strip_prefix("exec.pool.class")
                .and_then(|rest| rest.strip_suffix(".resident_bytes"))
        })
        .collect();
    classes.sort_by_key(|c| c.parse::<u32>().unwrap_or(u32::MAX));
    let hits = snap.counter("exec.pool.hits");
    let misses = snap.counter("exec.pool.misses");
    if classes.is_empty() && hits.is_none() && misses.is_none() {
        return;
    }
    let _ = writeln!(o, "\n## Buffer pool");
    let _ = writeln!(o);
    if let (Some(h), Some(m)) = (hits.or(Some(0)), misses.or(Some(0))) {
        let total = h + m;
        let rate = if total > 0 {
            format!("{:.1}%", h as f64 / total as f64 * 100.0)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            o,
            "- acquires: {total} ({h} hits / {m} misses, hit rate {rate})"
        );
    }
    if !classes.is_empty() {
        let _ = writeln!(o);
        let _ = writeln!(
            o,
            "| class | buffer elems | resident bytes | high-water bytes |"
        );
        let _ = writeln!(o, "|---|---|---|---|");
        for class in classes {
            let gauge = |suffix: &str| {
                snap.gauges
                    .iter()
                    .find(|(k, _)| {
                        k.strip_prefix("exec.pool.class")
                            .and_then(|r| r.strip_suffix(suffix))
                            == Some(class)
                    })
                    .map_or(0.0, |(_, v)| *v)
            };
            let elems = class
                .parse::<u32>()
                .ok()
                .and_then(|c| 1u64.checked_shl(c))
                // `e + (e - 1)`: `2 * e` overflows for bucket 63.
                .map_or("-".to_string(), |e| format!("{e}..{}", e + (e - 1)));
            let _ = writeln!(
                o,
                "| {class} | {elems} | {:.0} | {:.0} |",
                gauge(".resident_bytes"),
                gauge(".resident_hwm_bytes"),
            );
        }
    }
}

/// Traversal locality: per-window revisits and node hotness histograms.
fn render_traversal(o: &mut String, snap: &Snap) {
    let rows: Vec<&(String, Hist)> = snap
        .values
        .iter()
        .filter(|(k, _)| k.starts_with("core.traversal."))
        .collect();
    let hot = snap.counter("core.traversal.hot_nodes");
    if rows.is_empty() && hot.is_none() {
        return;
    }
    let _ = writeln!(o, "\n## Traversal locality");
    let _ = writeln!(o);
    if let Some(h) = hot {
        let _ = writeln!(o, "- hot nodes (visited more than once): {h}");
        let _ = writeln!(o);
    }
    if !rows.is_empty() {
        let _ = writeln!(o, "| metric | samples | sum | p50 | p90 | p99 |");
        let _ = writeln!(o, "|---|---|---|---|---|---|");
        for (k, h) in rows {
            let _ = writeln!(
                o,
                "| {} | {} | {} | {} | {} | {} |",
                k.trim_start_matches("core.traversal."),
                h.count,
                h.sum,
                h.p50,
                h.p90,
                h.p99
            );
        }
    }
}

/// Training health: loss and gradient-norm histograms (recorded in
/// thousandths; rendered back as floats).
fn render_health(o: &mut String, snap: &Snap) {
    let rows: Vec<&(String, Hist)> = snap
        .values
        .iter()
        .filter(|(k, _)| k.starts_with("gnn.health."))
        .collect();
    if rows.is_empty() {
        return;
    }
    let _ = writeln!(o, "\n## Training health");
    let _ = writeln!(o);
    let _ = writeln!(o, "| signal | steps | mean | p50 | p90 | p99 |");
    let _ = writeln!(o, "|---|---|---|---|---|---|");
    for (k, h) in rows {
        let milli = |v: u64| eng(v as f64 / 1e3);
        let mean = if h.count > 0 {
            eng(h.sum as f64 / h.count as f64 / 1e3)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            o,
            "| {} | {} | {mean} | {} | {} | {} |",
            k.trim_start_matches("gnn.health.")
                .trim_end_matches("_milli"),
            h.count,
            milli(h.p50),
            milli(h.p90),
            milli(h.p99)
        );
    }
}

/// Distributed execution: shard-parallel trainer accounting
/// (`dist.train.*`) and band-engine halo traffic (`dist.*`). Deterministic
/// snapshots carry the shard/halo counters (bit-stable across runs and
/// worker counts); wall-clock shard/step/wait times appear only in full
/// snapshots.
fn render_dist(o: &mut String, snap: &Snap) {
    let has_dist = snap.counters.iter().any(|(k, _)| k.starts_with("dist."));
    if !has_dist {
        return;
    }
    let _ = writeln!(o, "\n## Distributed");
    let _ = writeln!(o);
    if let Some(runs) = snap.counter("dist.train.runs") {
        let workers = snap.counter("dist.train.workers").unwrap_or(0);
        let steps = snap.counter("dist.train.steps").unwrap_or(0);
        let shards = snap.counter("dist.train.shards").unwrap_or(0);
        let per_step = if steps > 0 {
            format!("{:.1}", shards as f64 / steps as f64)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            o,
            "- trainer: {runs} runs x {workers} workers; {steps} optimizer steps over \
             {shards} gradient shards ({per_step} shards/step, fixed-order all-reduce)"
        );
        if let Some(ns) = snap.timing_sum_ns("dist.train.shard_ns") {
            let _ = writeln!(o, "- shard compute: {:.3} ms total", ns as f64 / 1e6);
        }
    }
    if let Some(runs) = snap.counter("dist.runs") {
        let workers = snap.counter("dist.workers").unwrap_or(0);
        let steps = snap.counter("dist.steps").unwrap_or(0);
        let msgs = snap.counter("dist.halo.msgs").unwrap_or(0);
        let bytes = snap.counter("dist.halo.bytes").unwrap_or(0);
        let per_msg = if msgs > 0 {
            format!("{:.0}", bytes as f64 / msgs as f64)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            o,
            "- band engine: {runs} runs x {workers} workers, {steps} steps; halo traffic \
             {msgs} messages / {bytes} bytes ({per_msg} B/msg)"
        );
        let step_ns = snap.timing_sum_ns("dist.step_ns");
        let wait_ns = snap.timing_sum_ns("dist.halo.wait_ns");
        if let (Some(s), Some(w)) = (step_ns, wait_ns) {
            let _ = writeln!(
                o,
                "- per-worker wall clock: {:.3} ms stepping, {:.3} ms waiting on halos ({})",
                s as f64 / 1e6,
                w as f64 / 1e6,
                pct(w, s)
            );
        }
    }
}

/// Simulated-GPU bridge (`mega profile` exports `gpusim.<engine>.*`).
fn render_gpusim(o: &mut String, snap: &Snap) {
    let counters: Vec<&(String, u64)> = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("gpusim."))
        .collect();
    if counters.is_empty() {
        return;
    }
    let _ = writeln!(o, "\n## Simulated GPU counters");
    let _ = writeln!(o);
    let _ = writeln!(o, "| counter | value |");
    let _ = writeln!(o, "|---|---|");
    for (k, v) in counters {
        let _ = writeln!(o, "| {k} | {v} |");
    }
    let gauges: Vec<&(String, f64)> = snap
        .gauges
        .iter()
        .filter(|(k, _)| k.starts_with("gpusim."))
        .collect();
    if !gauges.is_empty() {
        let _ = writeln!(o);
        let _ = writeln!(o, "| gauge | value |");
        let _ = writeln!(o, "|---|---|");
        for (k, v) in gauges {
            let _ = writeln!(o, "| {k} | {} |", eng(*v));
        }
    }
}

/// Span census: counts always, wall-clock totals when the snapshot has
/// them.
fn render_spans(o: &mut String, snap: &Snap) {
    if snap.spans.is_empty() {
        return;
    }
    let _ = writeln!(o, "\n## Spans");
    let _ = writeln!(o);
    let _ = writeln!(o, "| span | count | total ms |");
    let _ = writeln!(o, "|---|---|---|");
    for (path, count, total_ns) in &snap.spans {
        let ms = total_ns.map_or("-".to_string(), |ns| format!("{:.3}", ns as f64 / 1e6));
        let _ = writeln!(o, "| {path} | {count} | {ms} |");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DET_SNAPSHOT: &str = r#"{
  "deterministic": true,
  "counters": {
    "core.traversal.hot_nodes": 3,
    "exec.pool.hits": 6,
    "exec.pool.misses": 2,
    "exec.profiled.matmul.bytes": 3145728,
    "exec.profiled.matmul.calls": 4,
    "exec.profiled.matmul.flops": 536870912
  },
  "gauges": {
    "exec.pool.class6.resident_bytes": 768.0,
    "exec.pool.class6.resident_hwm_bytes": 768.0
  },
  "values": {
    "core.traversal.band_window_revisits": {"count": 4, "sum": 9, "p50": 2, "p90": 4, "p99": 4},
    "gnn.health.loss_milli": {"count": 8, "sum": 9600, "p50": 1100, "p90": 2000, "p99": 2100}
  },
  "timings": {
    "exec.profiled.matmul.ns": {"count": 4}
  },
  "spans": {
    "train": {"count": 1},
    "train/epoch": {"count": 2}
  }
}
"#;

    #[test]
    fn deterministic_snapshot_renders_identically_twice() {
        let a = render("m.json", DET_SNAPSHOT).unwrap();
        let b = render("m.json", DET_SNAPSHOT).unwrap();
        assert_eq!(a, b);
        // Roofline row: AI = 536870912/3145728 ≈ 170.7 flop/B, compute
        // bound at the reference roofs, no measured columns.
        assert!(a.contains("| matmul | 4 |"), "{a}");
        assert!(a.contains("compute"), "{a}");
        assert!(a.contains("| - | - | - |"), "{a}");
        // Pool, traversal, health, spans all present.
        assert!(a.contains("hit rate 75.0%"), "{a}");
        assert!(a.contains("| 6 | 64..127 | 768 | 768 |"), "{a}");
        assert!(a.contains("band_window_revisits"), "{a}");
        assert!(a.contains("| loss | 8 | 1.200 |"), "{a}");
        assert!(a.contains("| train/epoch | 2 | - |"), "{a}");
    }

    #[test]
    fn pool_buckets_at_the_top_of_u64_render_without_overflow() {
        let snap = DET_SNAPSHOT.replace(
            "\"exec.pool.class6.resident_bytes\": 768.0,",
            "\"exec.pool.class6.resident_bytes\": 768.0,
    \"exec.pool.class63.resident_bytes\": 1.0,
    \"exec.pool.class64.resident_bytes\": 2.0,",
        );
        let md = render("m.json", &snap).unwrap();
        assert!(
            md.contains("| 63 | 9223372036854775808..18446744073709551615 | 1 | 0 |"),
            "{md}"
        );
        assert!(md.contains("| 64 | - | 2 | 0 |"), "{md}");
    }

    #[test]
    fn full_snapshot_reports_achieved_rates_and_utilization() {
        // 0.536 GFLOP over 100 ms → 5.369 GF/s; roof at reference is the
        // 8.0 compute peak (AI ≈ 170.7), so util ≈ 67.1%.
        let full = DET_SNAPSHOT
            .replace("\"deterministic\": true", "\"deterministic\": false")
            .replace(
                "\"exec.profiled.matmul.ns\": {\"count\": 4}",
                "\"exec.profiled.matmul.ns\": {\"count\": 4, \"sum_ns\": 100000000, \"p50_ns\": 1, \"p90_ns\": 1, \"p99_ns\": 1}",
            );
        let md = render("m.json", &full).unwrap();
        assert!(md.contains("| 5.369 |"), "{md}");
        assert!(md.contains("67.1%"), "{md}");
    }

    #[test]
    fn distributed_section_summarizes_shards_and_halos() {
        // No dist counters → no Distributed section.
        let md = render("m.json", DET_SNAPSHOT).unwrap();
        assert!(!md.contains("## Distributed"), "{md}");
        let dist = r#"{
  "deterministic": true,
  "counters": {
    "dist.halo.bytes": 3840,
    "dist.halo.msgs": 24,
    "dist.runs": 2,
    "dist.steps": 8,
    "dist.train.runs": 1,
    "dist.train.shards": 24,
    "dist.train.steps": 3,
    "dist.train.workers": 4,
    "dist.workers": 6
  },
  "timings": {
    "dist.train.shard_ns": {"count": 24}
  }
}"#;
        let md = render("m.json", dist).unwrap();
        assert!(md.contains("## Distributed"), "{md}");
        assert!(
            md.contains(
                "- trainer: 1 runs x 4 workers; 3 optimizer steps over 24 gradient shards \
                 (8.0 shards/step, fixed-order all-reduce)"
            ),
            "{md}"
        );
        assert!(
            md.contains(
                "- band engine: 2 runs x 6 workers, 8 steps; halo traffic 24 messages / \
                 3840 bytes (160 B/msg)"
            ),
            "{md}"
        );
        // Counts-only snapshot: no wall-clock lines.
        assert!(!md.contains("shard compute"), "{md}");
        assert!(!md.contains("per-worker wall clock"), "{md}");
        // A full snapshot adds the measured lines.
        let full = dist.replace(
            r#""dist.train.shard_ns": {"count": 24}"#,
            r#""dist.train.shard_ns": {"count": 24, "sum_ns": 2000000},
    "dist.step_ns": {"count": 8, "sum_ns": 4000000},
    "dist.halo.wait_ns": {"count": 24, "sum_ns": 1000000}"#,
        );
        let md = render("m.json", &full).unwrap();
        assert!(md.contains("- shard compute: 2.000 ms total"), "{md}");
        assert!(
            md.contains(
                "- per-worker wall clock: 4.000 ms stepping, 1.000 ms waiting on halos (25.0%)"
            ),
            "{md}"
        );
    }

    #[test]
    fn gpusim_bridge_renders_counters_and_gauges() {
        // No gpusim counters → no section.
        let md = render("m.json", DET_SNAPSHOT).unwrap();
        assert!(!md.contains("## Simulated GPU counters"), "{md}");
        let sim = r#"{
  "deterministic": true,
  "counters": {
    "exec.pool.hits": 1,
    "gpusim.mega.sgemm.invocations": 12,
    "gpusim.mega.total_cycles": 34567
  },
  "gauges": {
    "exec.pool.class6.resident_bytes": 768.0,
    "gpusim.mega.aggregate_sm_efficiency": 0.75,
    "gpusim.mega.sgemm.stall_pct": 123.4
  }
}"#;
        let md = render("m.json", sim).unwrap();
        assert!(md.contains("## Simulated GPU counters"), "{md}");
        assert!(
            md.contains("| gpusim.mega.sgemm.invocations | 12 |"),
            "{md}"
        );
        assert!(md.contains("| gpusim.mega.total_cycles | 34567 |"), "{md}");
        assert!(
            md.contains("| gpusim.mega.aggregate_sm_efficiency | 0.750 |"),
            "{md}"
        );
        assert!(
            md.contains("| gpusim.mega.sgemm.stall_pct | 123.4 |"),
            "{md}"
        );
        // Only `gpusim.*` names land in the section.
        let section = &md[md.find("## Simulated GPU counters").unwrap()..];
        assert!(!section.contains("exec.pool"), "{md}");
    }

    #[test]
    fn rejects_non_snapshot_input() {
        assert!(render("m.json", "[1, 2]").is_err());
        assert!(render("m.json", "{\"rows\": []}").is_err());
    }
}
