//! The suite: R interleaved rounds (w1 w2 … w5, w1 w2 …), every
//! (workload, round) a fresh child process of this binary so pool and plan
//! caches start clean and `VmHWM` is the workload's own, then one traced
//! round per workload. An end-to-end value is the median over rounds;
//! per-layer values come from the traced round only. Closed loop, one
//! load-generating thread: the next child starts when the previous exits.

use crate::host::{self, Fingerprint};
use crate::spec::{Better, Declared};
use crate::stats;
use crate::{Args, Detail, RESULTS_DIR};
use serde::{Deserialize, Serialize};
use std::process::{Command, Stdio};

pub(crate) const DEFAULT_SEED: u64 = 7;
/// Measuring time of one (workload, round): five rounds stay under 30 s
/// per workload.
pub(crate) const ROUND_SECONDS: f64 = 5.0;
const DEFAULT_ROUNDS: usize = 5;
/// `--check`: tiny inputs, one short round.
const CHECK_SECONDS: f64 = 1.0;

/// One end-to-end metric of one workload, over the untraced rounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct EndToEnd {
    pub(crate) name: String,
    pub(crate) unit: String,
    pub(crate) better: Better,
    pub(crate) bound: f64,
    pub(crate) median: f64,
    pub(crate) q1: f64,
    pub(crate) q3: f64,
    /// Rounds behind the median.
    pub(crate) n: usize,
    /// Timing samples pooled over the rounds (epochs, steps, set-ups)
    /// behind this metric, where it is a median of samples.
    pub(crate) samples: usize,
    pub(crate) values: Vec<f64>,
}

/// One per-layer metric of one workload, from the traced round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct PerLayer {
    pub(crate) name: String,
    pub(crate) unit: String,
    pub(crate) value: f64,
    /// Why the metric was not measured on this host (then `value` is 0).
    pub(crate) skipped: Option<String>,
}

/// Distribution of a workload's operation times (epochs or band steps)
/// pooled over the rounds, in milliseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct OpTimes {
    pub(crate) n: usize,
    pub(crate) min: f64,
    pub(crate) p50: f64,
    /// Highest percentile with at least ten samples beyond it, and its
    /// value; absent below 40 samples.
    pub(crate) tail: Option<(f64, f64)>,
}

fn op_times(pooled: &[f64]) -> Option<OpTimes> {
    (!pooled.is_empty()).then(|| OpTimes {
        n: pooled.len(),
        min: pooled.iter().copied().fold(f64::INFINITY, f64::min),
        p50: stats::median(pooled),
        tail: stats::tail(pooled),
    })
}

/// The sample list of a child's detail that stands behind an end-to-end
/// metric.
fn sample_key(metric: &str) -> &str {
    match metric {
        "work_per_s" => "op_ms",
        "preprocess_edges_per_s" => "preprocess_ms",
        other => other,
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct WorkloadResult {
    pub(crate) name: String,
    /// `ok` or `skipped`.
    pub(crate) status: String,
    pub(crate) reason: Option<String>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) failed_share: f64,
    pub(crate) failures: Vec<String>,
    pub(crate) loss_trajectory_hash: Option<String>,
    /// The operation times (epochs or band steps) pooled over the rounds.
    pub(crate) op_ms: Option<OpTimes>,
    pub(crate) end_to_end: Vec<EndToEnd>,
    pub(crate) per_layer: Vec<PerLayer>,
}

/// `benchmark/results/latest.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Results {
    pub(crate) schema: u32,
    pub(crate) host: Fingerprint,
    pub(crate) seed: u64,
    pub(crate) rounds: usize,
    pub(crate) round_seconds: f64,
    /// True for a `--check` run (tiny inputs; numbers are not comparable).
    pub(crate) check: bool,
    pub(crate) workloads: Vec<WorkloadResult>,
    /// `work_per_s`(`zinc-gt-mega`) ÷ `work_per_s`(`zinc-gt-baseline`):
    /// derived, never gated.
    pub(crate) mega_over_baseline: Option<f64>,
}

/// What a child process reported, or how it died.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    args: &Args,
) -> Result<Detail, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--detail"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.check {
        cmd.arg("--check");
    }
    if args.inject_fail {
        cmd.arg("--inject-fail");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with("{\"workload\""))
        .ok_or_else(|| format!("child exited with {} and no result", output.status))?;
    serde_json::from_str(detail).map_err(|e| format!("unreadable child result: {e}"))
}

fn round_values(rounds: &[Detail], metric: &str) -> Vec<f64> {
    rounds
        .iter()
        .filter_map(|d| d.metrics.iter().find(|(k, _)| k == metric).map(|(_, v)| *v))
        .collect()
}

fn pooled_samples(rounds: &[Detail], key: &str) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|d| d.samples.iter().filter(|(k, _)| k == key))
        .flat_map(|(_, v)| v.iter().copied())
        .collect()
}

/// Folds a workload's rounds and traced round into its result.
fn fold(
    name: &str,
    declared: &Declared,
    rounds: &[Detail],
    traced: Option<&Detail>,
    crashed: &[String],
) -> WorkloadResult {
    let mut failures: Vec<String> = crashed.to_vec();
    // A child that died fails all its operations; it reported none, so it
    // counts as one.
    let mut attempted = crashed.len() as u64;
    let mut failed = crashed.len() as u64;
    for d in rounds.iter().chain(traced) {
        attempted += d.attempted;
        failed += d.failed;
        failures.extend(d.failures.iter().cloned());
    }
    let mut hashes = rounds
        .iter()
        .chain(traced)
        .filter_map(|d| d.loss_trajectory_hash.as_ref());
    let loss_trajectory_hash = hashes.next().cloned();
    if hashes.any(|h| Some(h) != loss_trajectory_hash.as_ref()) {
        failed += 1;
        failures.push("loss trajectory differs between rounds (or traced vs untraced)".into());
    }
    let end_to_end = declared
        .end_to_end
        .iter()
        .filter_map(|m| {
            let values = round_values(rounds, &m.name);
            let s = stats::summarize(&values)?;
            Some(EndToEnd {
                name: m.name.clone(),
                unit: m.unit.clone(),
                better: m.better,
                bound: m.bound.unwrap_or(0.0),
                median: s.median,
                q1: s.q1,
                q3: s.q3,
                n: s.n,
                samples: pooled_samples(rounds, sample_key(&m.name)).len(),
                values,
            })
        })
        .collect();
    let per_layer = traced.map_or_else(Vec::new, |t| {
        declared
            .per_layer
            .iter()
            .filter_map(|m| {
                let value = t.metrics.iter().find(|(k, _)| *k == m.name)?.1;
                Some(PerLayer {
                    name: m.name.clone(),
                    unit: m.unit.clone(),
                    value,
                    skipped: t
                        .skipped
                        .iter()
                        .find(|(k, _)| *k == m.name)
                        .map(|(_, r)| r.clone()),
                })
            })
            .collect()
    });
    WorkloadResult {
        name: name.to_string(),
        status: "ok".into(),
        reason: None,
        attempted,
        failed,
        failed_share: failed as f64 / attempted.max(1) as f64,
        failures,
        loss_trajectory_hash,
        op_ms: op_times(&pooled_samples(rounds, "op_ms")),
        end_to_end,
        per_layer,
    }
}

fn skipped(name: &str, reason: String) -> WorkloadResult {
    WorkloadResult {
        name: name.to_string(),
        status: "skipped".into(),
        reason: Some(reason),
        attempted: 0,
        failed: 0,
        failed_share: 0.0,
        failures: Vec::new(),
        loss_trajectory_hash: None,
        op_ms: None,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    }
}

fn print(results: &Results) {
    let h = &results.host;
    mega_obs::data!(
        "host: {} core(s), {}, gemm roof {:.1} GFLOP/s, triad roof {:.1} GB/s, commit {}",
        h.nproc,
        h.cpu_model,
        h.gemm_gflops,
        h.triad_gbps,
        h.git_commit
    );
    mega_obs::data!(
        "seed {}, {} round(s) of {} s per workload{}",
        results.seed,
        results.rounds,
        results.round_seconds,
        if results.check {
            " (--check: tiny inputs)"
        } else {
            ""
        }
    );
    for w in &results.workloads {
        mega_obs::data!("\n== {} ==", w.name);
        if let Some(reason) = &w.reason {
            mega_obs::data!("  skipped: {reason}");
            continue;
        }
        mega_obs::data!(
            "  {:<28} {:>14} {:<8} {:>14} {:>14} {:>3} {:>8} {:>7} {:>7}",
            "end-to-end",
            "median",
            "unit",
            "q1",
            "q3",
            "n",
            "samples",
            "spread",
            "bound"
        );
        for m in &w.end_to_end {
            mega_obs::data!(
                "  {:<28} {:>14.4} {:<8} {:>14.4} {:>14.4} {:>3} {:>8} {:>6.1}% {:>6.1}%",
                m.name,
                m.median,
                m.unit,
                m.q1,
                m.q3,
                m.n,
                m.samples,
                stats::spread(m.median, m.q1, m.q3, m.n) * 100.0,
                m.bound * 100.0
            );
        }
        mega_obs::data!(
            "  {:<28} {:>14.6} {:<8} ({} failed of {} operations)",
            "failed_share",
            w.failed_share,
            "ratio",
            w.failed,
            w.attempted
        );
        if let Some(op) = &w.op_ms {
            let tail = op
                .tail
                .map_or_else(String::new, |(p, ms)| format!(", p{p} {ms:.4}"));
            mega_obs::data!(
                "  {:<28} {:>14.4} {:<8} (pooled operation times, n = {}: min {:.4}{tail})",
                "op_ms_p50",
                op.p50,
                "ms",
                op.n,
                op.min
            );
        }
        if let Some(hash) = &w.loss_trajectory_hash {
            mega_obs::data!("  loss_trajectory_hash {hash}");
        }
        mega_obs::data!(
            "  {:<40} {:>16} {:<8} (traced round, n = 1)",
            "per-layer",
            "value",
            "unit"
        );
        for m in &w.per_layer {
            match &m.skipped {
                Some(reason) => {
                    mega_obs::data!("  {:<40} {:>16} {:<8} {reason}", m.name, "skipped", m.unit)
                }
                None => mega_obs::data!("  {:<40} {:>16.4} {:<8}", m.name, m.value, m.unit),
            }
        }
        for failure in &w.failures {
            mega_obs::data!("  FAILED: {failure}");
        }
    }
    if let Some(r) = results.mega_over_baseline {
        mega_obs::data!(
            "\nmega_over_baseline {r:.4} (work_per_s of zinc-gt-mega over zinc-gt-baseline; derived, not gated)"
        );
    }
}

fn work_per_s(results: &[WorkloadResult], workload: &str) -> Option<f64> {
    let w = results.iter().find(|w| w.name == workload)?;
    Some(w.end_to_end.iter().find(|m| m.name == "work_per_s")?.median)
}

/// Runs the suite, prints every metric, writes the results file. `Ok(true)`
/// when every workload ran and every check passed.
pub(crate) fn run(declared: &Declared, args: &Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let rounds = if args.check {
        1
    } else {
        args.rounds.unwrap_or(DEFAULT_ROUNDS)
    };
    let seconds = match args.seconds {
        Some(s) => s,
        None if args.check => CHECK_SECONDS,
        None => ROUND_SECONDS,
    };
    let table = crate::workloads::table(args.check);
    let selected: Vec<_> = table
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == w.name))
        .collect();
    if selected.is_empty() {
        return Err(format!(
            "unknown workload `{}`",
            args.workload.as_deref().unwrap_or("")
        ));
    }
    let host = host::fingerprint(&mega_exec::SimdBackend::new());

    let mut details: Vec<Vec<Detail>> = vec![Vec::new(); selected.len()];
    let mut crashed: Vec<Vec<String>> = vec![Vec::new(); selected.len()];
    for round in 0..rounds {
        for (i, w) in selected.iter().enumerate() {
            if w.threads > host.nproc {
                continue; // reported as skipped below
            }
            mega_obs::info!("round {}/{rounds}: {}", round + 1, w.name);
            match child(w.name, seed, seconds, false, args) {
                Ok(d) => details[i].push(d),
                Err(e) => crashed[i].push(format!("round {}: {e}", round + 1)),
            }
        }
    }
    let mut workloads = Vec::new();
    for (i, w) in selected.iter().enumerate() {
        if w.threads > host.nproc {
            workloads.push(skipped(
                w.name,
                format!(
                    "needs {} cores, host has {}; not clamped to one thread and reported as a scaling number",
                    w.threads, host.nproc
                ),
            ));
            continue;
        }
        mega_obs::info!("traced round: {}", w.name);
        let traced = match child(w.name, seed, seconds, true, args) {
            Ok(d) => Some(d),
            Err(e) => {
                crashed[i].push(format!("traced round: {e}"));
                None
            }
        };
        workloads.push(fold(
            w.name,
            declared,
            &details[i],
            traced.as_ref(),
            &crashed[i],
        ));
    }
    let mega_over_baseline = work_per_s(&workloads, "zinc-gt-mega")
        .zip(work_per_s(&workloads, "zinc-gt-baseline"))
        .map(|(mega, base)| mega / base);
    let results = Results {
        schema: 1,
        host,
        seed,
        rounds,
        round_seconds: seconds,
        check: args.check,
        workloads,
        mega_over_baseline,
    };
    print(&results);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| format!("{RESULTS_DIR}/latest.json"));
    write_json(&path, &results)?;
    mega_obs::info!("\n[saved {path}]");
    Ok(results.workloads.iter().all(|w| w.failed == 0))
}

fn write_json<T: Serialize>(path: &str, value: &T) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))
}

/// One span of `trace-<workload>.json`.
#[derive(Debug, Serialize)]
struct TraceSpan {
    id: usize,
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    self_ns: u64,
}

/// `trace-<workload>.json`: the driver's spans with self time, and the
/// `mega_obs` snapshot of the traced leg.
#[derive(Debug, Serialize)]
struct Trace {
    workload: String,
    seed: u64,
    round: String,
    spans: Vec<TraceSpan>,
    obs: serde::Value,
}

/// Writes a traced run's span list and obs snapshot under [`RESULTS_DIR`].
pub(crate) fn write_trace(
    workload: &str,
    seed: u64,
    spans: &[crate::spans::Span],
    obs_json: Option<&str>,
) -> Result<(), String> {
    let self_ns = crate::spans::self_ns(spans);
    let trace = Trace {
        workload: workload.to_string(),
        seed,
        round: "traced".to_string(),
        spans: spans
            .iter()
            .zip(self_ns)
            .enumerate()
            .map(|(id, (s, self_ns))| TraceSpan {
                id,
                name: s.name.clone(),
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                parent: s.parent,
                self_ns,
            })
            .collect(),
        obs: obs_json
            .and_then(|text| serde_json::from_str(text).ok())
            .unwrap_or(serde::Value::Null),
    };
    write_json(&format!("{RESULTS_DIR}/trace-{workload}.json"), &trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Results {
        Results {
            schema: 1,
            host: Fingerprint {
                nproc: 2,
                cpu_model: "Test CPU @ 2.10GHz".into(),
                gemm_gflops: 31.25,
                triad_gbps: 9.5,
                git_commit: "unknown".into(),
            },
            seed: 7,
            rounds: 5,
            round_seconds: 5.0,
            check: false,
            workloads: vec![
                WorkloadResult {
                    name: "zinc-gt-mega".into(),
                    status: "ok".into(),
                    reason: None,
                    attempted: 420,
                    failed: 0,
                    failed_share: 0.0,
                    failures: vec![],
                    loss_trajectory_hash: Some("00ff00ff00ff00ff".into()),
                    op_ms: Some(OpTimes {
                        n: 41,
                        min: 409.5,
                        p50: 431.0625,
                        tail: Some((75.0, 451.25)),
                    }),
                    end_to_end: vec![EndToEnd {
                        name: "setup_s".into(),
                        unit: "s".into(),
                        better: Better::Lower,
                        bound: 0.25,
                        median: 431.0625,
                        q1: 425.5,
                        q3: 440.125,
                        n: 5,
                        samples: 41,
                        values: vec![431.0625, 425.5, 440.125, 428.0, 436.75],
                    }],
                    per_layer: vec![
                        PerLayer {
                            name: "exec.matmul.calls_per_step".into(),
                            unit: "count".into(),
                            value: 212.0,
                            skipped: None,
                        },
                        PerLayer {
                            name: "dist.train.speedup".into(),
                            unit: "ratio".into(),
                            value: 0.0,
                            skipped: Some("host has fewer than 2 cores".into()),
                        },
                    ],
                },
                skipped("zinc-gcn-wide-t2", "needs 2 cores".into()),
            ],
            mega_over_baseline: Some(0.9375),
        }
    }

    #[test]
    fn latest_json_round_trips() {
        let results = sample();
        let text = serde_json::to_string_pretty(&results).unwrap();
        let back: Results = serde_json::from_str(&text).unwrap();
        assert_eq!(back, results);
    }

    #[test]
    fn fold_takes_medians_over_rounds_and_counts_failures() {
        let declared = crate::spec::Declared {
            workloads: vec!["w".into()],
            end_to_end: vec![crate::spec::MetricDecl {
                name: "work_per_s".into(),
                unit: "1/s".into(),
                better: Better::Higher,
                bound: Some(0.1),
            }],
            per_layer: vec![],
        };
        let round = |value: f64, hash: &str, failed: u64| Detail {
            workload: "w".into(),
            attempted: 10,
            failed,
            failures: vec![],
            loss_trajectory_hash: Some(hash.into()),
            metrics: vec![("work_per_s".into(), value)],
            samples: vec![("op_ms".into(), vec![value; 3])],
            skipped: vec![],
        };
        let rounds = [
            round(3.0, "aa", 0),
            round(1.0, "aa", 0),
            round(2.0, "aa", 0),
        ];
        let w = fold("w", &declared, &rounds, None, &[]);
        assert_eq!((w.attempted, w.failed, w.failed_share), (30, 0, 0.0));
        assert_eq!(
            (
                w.end_to_end[0].median,
                w.end_to_end[0].n,
                w.end_to_end[0].samples
            ),
            (2.0, 3, 9)
        );
        assert_eq!(
            w.op_ms.as_ref().map(|op| (op.n, op.p50, op.tail)),
            Some((9, 2.0, None))
        );

        // A diverging trajectory and a crashed child both count as failures.
        let rounds = [round(3.0, "aa", 0), round(1.0, "bb", 2)];
        let w = fold(
            "w",
            &declared,
            &rounds,
            None,
            &["round 3: child exited".into()],
        );
        assert_eq!((w.attempted, w.failed), (21, 4));
        assert_eq!(w.failures.len(), 2);
    }
}
