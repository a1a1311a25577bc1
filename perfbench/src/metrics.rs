//! Summarizing trials into the run's metrics, the report and the JSON
//! result line.

use std::collections::BTreeMap;

use crate::procs::{CATS, CLASSES};
use crate::spec::Workload;
use crate::trial::{median_metric, Metric, TrialOut};

/// End-to-end metrics, in report order.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "vops_per_s",
    "vlat_mean_us",
    "vlat_p99_us",
    "vbackup_ms",
    "wall_ops_per_s",
    "wall_op_p50_ns",
    "wall_op_p99_ns",
    "peak_rss_mib",
    "ok_op_frac",
];

/// The end-to-end metrics on the virtual clock.
pub const VIRTUAL: &[&str] = &["vops_per_s", "vlat_mean_us", "vlat_p99_us", "vbackup_ms"];

/// Every per-layer metric name.
pub fn per_layer_names() -> Vec<String> {
    let mut v = Vec::new();
    for class in CLASSES {
        for q in ["p50_ns", "p99_ns", "n"] {
            v.push(format!("pacon.client.{class}.{q}"));
        }
    }
    for cat in CATS {
        v.push(format!("v.{cat}_us_per_op"));
    }
    let fixed = [
        "pacon.commit.step_ns_p50",
        "pacon.commit.busy_s",
        "pacon.commit.useful_step_frac",
        "qsim.engine_self_s",
        "qsim.engine_self_ns_per_event",
        "qsim.events_per_op",
        "v.wait_us_per_op",
        "v.commit_us_per_op",
        "v.kv_util_max",
        "v.mds_util",
        "v.commit_util_max",
        "v.commit_lag_ms",
        "v.lat_samples",
        "v.lat_p50_us",
        "memkv.hit_rate",
        "memkv.gets_per_op",
        "memkv.keys_per_batch",
        "memkv.used_mib",
        "memkv.keys_migrated",
        "memkv.ring_epoch",
        "mq.ops_per_msg",
        "pacon.coalesced_cancel_frac",
        "pacon.commit.resubmit_frac",
        "pacon.commit.idempotent_replays",
        "wal.appended_per_op",
        "wal.fsyncs_per_kop",
        "pacon.evicted",
        "pacon.miss_loads",
        "pacon.rpc_retries",
        "pacon.degraded_reads",
        "pacon.degraded_window_ms",
        "pacon.rewarm_keys",
        "workloads.gen_s",
        "pacon.launch_s",
        "input.seed",
        "input.working_set_ratio",
        "input.top1pct_mass",
        "trace.overhead_ratio",
        "host.raw_setup_s",
        "host.raw_ops_per_s",
        "host.raw_op_p50_ns",
        "host.raw_op_p99_ns",
        "host.kernel_us",
    ];
    v.extend(fixed.iter().map(|s| s.to_string()));
    v
}

pub struct Metrics {
    pub workload: Workload,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub trials: usize,
    pub errors: Vec<String>,
    pub notes: Vec<String>,
    pub end_to_end: BTreeMap<String, Metric>,
    pub per_layer: BTreeMap<String, Metric>,
}

/// Summarize a run's trials; virtual metrics must agree exactly across
/// every trial of the run.
pub fn summarize(w: Workload, seed: u64, trials: &[TrialOut], trace: bool) -> Metrics {
    let mut errors: Vec<String> = trials
        .iter()
        .flat_map(|t| t.errors.iter().cloned())
        .collect();
    let first = &trials[0];
    for t in &trials[1..] {
        if t.virt != first.virt {
            errors.push(format!(
                "virtual metrics differ between trials: {:?} vs {:?}",
                first.virt, t.virt
            ));
        }
    }
    let mut end_to_end = BTreeMap::new();
    for (k, v) in &first.virt {
        end_to_end.insert(k.to_string(), *v);
    }
    // Wall-clock metrics are medians over the untraced trials after the
    // first, which is a warm-up (cold caches and allocator).
    let untraced: Vec<&TrialOut> = trials.iter().filter(|t| !t.traced).collect();
    let warm = if untraced.len() > 1 {
        &untraced[1..]
    } else {
        &untraced[..]
    };
    for (k, (_, unit)) in &first.wall {
        let m = median_metric(warm.iter().map(|t| t.wall[k].0));
        end_to_end.insert(k.to_string(), (m, *unit));
    }
    let mut per_layer = BTreeMap::new();
    let traced: Vec<&TrialOut> = trials.iter().filter(|t| t.traced).collect();
    if trace && !traced.is_empty() {
        for (k, (_, unit)) in &traced[0].layer {
            let m = median_metric(traced.iter().map(|t| t.layer[k].0));
            per_layer.insert(k.clone(), (m, *unit));
        }
        for (k, (_, unit)) in &first.host {
            let m = median_metric(warm.iter().map(|t| t.host[k].0));
            per_layer.insert(k.to_string(), (m, *unit));
        }
        let speed = |ts: &mut dyn Iterator<Item = &TrialOut>| {
            median_metric(ts.map(|t| t.wall["wall_ops_per_s"].0))
        };
        let untraced_speed = speed(&mut trials.iter().filter(|t| !t.traced));
        let traced_speed = speed(&mut traced.iter().copied());
        per_layer.insert(
            "trace.overhead_ratio".into(),
            (untraced_speed / traced_speed, "ratio"),
        );
    }
    Metrics {
        workload: w,
        seed,
        correct: errors.is_empty(),
        attempted: trials.iter().map(|t| t.attempted).sum(),
        failed: trials.iter().map(|t| t.failed).sum(),
        trials: trials.len(),
        errors,
        notes: first.notes.clone(),
        end_to_end,
        per_layer,
    }
}

fn clock_of(name: &str) -> &'static str {
    if VIRTUAL.contains(&name) {
        "virtual"
    } else if name == "peak_rss_mib" || name == "ok_op_frac" {
        "-"
    } else {
        "wall (calibrated)"
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl Metrics {
    pub fn print_report(&self) {
        eprintln!(
            "\n== {} (seed {}, {} trials) ==",
            self.workload.name(),
            self.seed,
            self.trials
        );
        for n in &self.notes {
            eprintln!("  {n}");
        }
        eprintln!(
            "  {:<32} {:>16} {:<8} clock",
            "end-to-end metric", "value", "unit"
        );
        for name in END_TO_END {
            if let Some((v, unit)) = self.end_to_end.get(*name) {
                eprintln!("  {name:<32} {v:>16.4} {unit:<8} {}", clock_of(name));
            }
        }
        if !self.per_layer.is_empty() {
            eprintln!("  {:<32} {:>16} unit", "per-layer metric", "value");
            for (name, (v, unit)) in &self.per_layer {
                eprintln!("  {name:<32} {v:>16.4} {unit}");
            }
        }
        for e in &self.errors {
            eprintln!("  CHECK FAILED: {e}");
        }
    }

    pub fn to_json(&self, trace: bool) -> String {
        let set = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics: Vec<String> = set
            .iter()
            .map(|(k, (v, unit))| {
                format!(
                    "\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
