//! A result set: the host it was measured on, and per workload the
//! end-to-end samples, the per-layer values and the failure accounting.
//! Written by `hembench run`, read back by `hembench compare`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use hem_obs::json::Json;

use crate::jsonio::{count, get_str, get_u64, num, obj, string, to_string};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, spread};

/// Where and how a set was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Host cores (`available_parallelism`). Two threaded workloads run
    /// two workers: with fewer than 2 cores their numbers are overhead
    /// numbers, not speed-ups.
    pub nproc: u64,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
    pub seed: u64,
    /// Timed repetitions per workload.
    pub reps: u64,
    pub quick: bool,
    /// 1-minute load average when the set started.
    pub loadavg: f64,
    /// Cold (or up-to-date check) `cargo build` of `hemprof`; reported
    /// once, never compared.
    pub build_s: f64,
}

fn command_line(program: &str, args: &[&str], dir: Option<&Path>) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(dir) = dir {
        cmd.current_dir(dir);
    }
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Header {
    /// Describe this host and this checkout.
    pub fn collect(root: &Path, seed: u64, reps: u64, quick: bool, build_s: f64) -> Header {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|text| text.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        Header {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu_model,
            rustc: command_line("rustc", &["-V"], None).unwrap_or_else(|| "unknown".into()),
            commit: command_line("git", &["rev-parse", "HEAD"], Some(root))
                .unwrap_or_else(|| "unknown".into()),
            seed,
            reps,
            quick,
            loadavg,
            build_s,
        }
    }

    /// More runnable work than cores when the set started: its times
    /// cannot be trusted.
    pub fn unreliable(&self) -> bool {
        self.loadavg > self.nproc as f64
    }

    fn to_json(&self) -> Json {
        obj([
            ("nproc", count(self.nproc)),
            ("cpu_model", string(&*self.cpu_model)),
            ("rustc", string(&*self.rustc)),
            ("commit", string(&*self.commit)),
            ("seed", count(self.seed)),
            ("reps", count(self.reps)),
            ("quick", Json::Bool(self.quick)),
            ("loadavg", num(self.loadavg)),
            ("unreliable", Json::Bool(self.unreliable())),
            ("build_s", num(self.build_s)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Header, String> {
        let float = |key: &str| {
            doc.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("missing \"{key}\""))
        };
        Ok(Header {
            nproc: get_u64(doc, "nproc")?,
            cpu_model: get_str(doc, "cpu_model")?.to_string(),
            rustc: get_str(doc, "rustc")?.to_string(),
            commit: get_str(doc, "commit")?.to_string(),
            seed: get_u64(doc, "seed")?,
            reps: get_u64(doc, "reps")?,
            quick: doc
                .get("quick")
                .and_then(Json::as_bool)
                .ok_or("missing \"quick\"")?,
            loadavg: float("loadavg")?,
            build_s: float("build_s")?,
        })
    }
}

/// One workload's results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    /// A committed golden was applied (otherwise identity checks only).
    pub golden_checked: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Samples per end-to-end metric (repetitions; set-ups for `setup_s`).
    pub end_to_end: BTreeMap<String, Vec<f64>>,
    pub per_layer: BTreeMap<String, f64>,
}

impl WorkloadResult {
    /// The result of a workload that could not be run at all.
    pub fn broken(why: String) -> WorkloadResult {
        WorkloadResult {
            attempted: 1,
            failed: 1,
            failures: vec![why],
            ..WorkloadResult::default()
        }
    }

    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A whole set.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub header: Header,
    /// In reporting order.
    pub workloads: Vec<(String, WorkloadResult)>,
}

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(name, _)| *name == metric)
        .map_or("", |(_, unit)| unit)
}

impl ResultSet {
    pub fn to_json(&self) -> String {
        let workloads = self.workloads.iter().map(|(name, w)| {
            let end_to_end = w.end_to_end.iter().map(|(metric, samples)| {
                let (q1, med, q3) = quartiles(samples);
                let stats = obj([
                    ("unit", string(unit_of(metric))),
                    ("median", num(med)),
                    ("q1", num(q1)),
                    ("q3", num(q3)),
                    ("n", count(samples.len() as u64)),
                    (
                        "samples",
                        Json::Arr(samples.iter().map(|v| num(*v)).collect()),
                    ),
                ]);
                (metric.clone(), stats)
            });
            let per_layer = w.per_layer.iter().map(|(metric, value)| {
                let entry = obj([("unit", string(unit_of(metric))), ("value", num(*value))]);
                (metric.clone(), entry)
            });
            let doc = obj([
                ("golden_checked", Json::Bool(w.golden_checked)),
                ("attempted", count(w.attempted)),
                ("failed", count(w.failed)),
                ("fail_frac", num(w.fail_frac())),
                (
                    "failures",
                    Json::Arr(w.failures.iter().map(|f| string(&**f)).collect()),
                ),
                ("end_to_end", obj(end_to_end)),
                ("per_layer", obj(per_layer)),
            ]);
            (name.clone(), doc)
        });
        let doc = obj([
            ("header", self.header.to_json()),
            ("workloads", obj(workloads)),
        ]);
        to_string(&doc) + "\n"
    }

    pub fn from_json(text: &str) -> Result<ResultSet, String> {
        let doc = Json::parse(text.trim()).map_err(|e| format!("unparsable result set: {e}"))?;
        let header = Header::from_json(doc.get("header").ok_or("missing \"header\"")?)?;
        let Some(Json::Obj(members)) = doc.get("workloads") else {
            return Err("missing \"workloads\"".into());
        };
        let mut workloads = Vec::new();
        for (name, w) in members {
            let mut result = WorkloadResult {
                golden_checked: w
                    .get("golden_checked")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
                attempted: get_u64(w, "attempted")?,
                failed: get_u64(w, "failed")?,
                ..WorkloadResult::default()
            };
            if let Some(failures) = w.get("failures").and_then(Json::as_arr) {
                result.failures = failures
                    .iter()
                    .filter_map(|f| f.as_str().map(String::from))
                    .collect();
            }
            if let Some(Json::Obj(metrics)) = w.get("end_to_end") {
                for (metric, stats) in metrics {
                    let samples = stats
                        .get("samples")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| format!("{name}.{metric}: missing \"samples\""))?
                        .iter()
                        .filter_map(Json::as_num)
                        .collect();
                    result.end_to_end.insert(metric.clone(), samples);
                }
            }
            if let Some(Json::Obj(metrics)) = w.get("per_layer") {
                for (metric, entry) in metrics {
                    let value = entry
                        .get("value")
                        .and_then(Json::as_num)
                        .ok_or_else(|| format!("{name}.{metric}: missing \"value\""))?;
                    result.per_layer.insert(metric.clone(), value);
                }
            }
            workloads.push((name.clone(), result));
        }
        Ok(ResultSet { header, workloads })
    }

    pub fn load(path: &Path) -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        ResultSet::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Every metric by name, with its unit.
    pub fn print(&self) {
        let h = &self.header;
        println!(
            "hembench: {} cores ({}), {}, commit {}, seed {}, {} repetitions{}, load {:.2}, build {:.1} s",
            h.nproc,
            h.cpu_model,
            h.rustc,
            h.commit,
            h.seed,
            h.reps,
            if h.quick { ", quick sizes" } else { "" },
            h.loadavg,
            h.build_s,
        );
        if h.unreliable() {
            println!("hembench: UNRELIABLE SET: load average above the core count at start");
        }
        for (name, w) in &self.workloads {
            print_workload(name, w);
        }
    }
}

/// One workload's metrics, one per line.
pub fn print_workload(name: &str, w: &WorkloadResult) {
    println!(
        "{name}: attempted {} failed {} fail_frac {} ({})",
        w.attempted,
        w.failed,
        w.fail_frac(),
        if w.golden_checked {
            "golden checked"
        } else {
            "no golden for this seed: identity checks only"
        },
    );
    for failure in &w.failures {
        println!("  FAILED {failure}");
    }
    for metric in &END_TO_END {
        if let Some(samples) = w.end_to_end.get(metric.name).filter(|s| !s.is_empty()) {
            println!(
                "  {:<28} {:>14.6} {:<9} median of {}, spread {:.2} %",
                metric.name,
                median(samples),
                metric.unit,
                samples.len(),
                100.0 * spread(samples),
            );
        }
    }
    for metric in &PER_LAYER {
        if let Some(value) = w.per_layer.get(metric.name) {
            if metric.unit == "count" || metric.unit == "bytes" {
                println!(
                    "  {:<28} {:>14} {}",
                    metric.name, *value as u64, metric.unit
                );
            } else {
                println!("  {:<28} {:>14.6} {}", metric.name, value, metric.unit);
            }
        }
    }
}

/// A small set for this module's and `compare`'s tests.
#[cfg(test)]
pub(crate) fn sample_set() -> ResultSet {
    let mut w = WorkloadResult {
        golden_checked: true,
        attempted: 8,
        failed: 1,
        failures: vec!["exit code 1".into()],
        ..WorkloadResult::default()
    };
    w.end_to_end.insert(
        "wall_s".into(),
        vec![0.7012345, 0.6998, 0.7105, 0.7, 0.7051],
    );
    w.end_to_end.insert("setup_s".into(), vec![0.81, 0.8, 0.82]);
    w.per_layer.insert("core.run_s".into(), 0.612345678);
    w.per_layer
        .insert("core.instructions".into(), 3_906_250_123.0);
    ResultSet {
        header: Header {
            nproc: 2,
            cpu_model: "Test CPU @ 2.0GHz".into(),
            rustc: "rustc 1.0.0".into(),
            commit: "abc123".into(),
            seed: 20260806,
            reps: 5,
            quick: false,
            loadavg: 0.25,
            build_s: 14.5,
        },
        workloads: vec![("fib_p1".into(), w)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_set_round_trips() {
        let set = sample_set();
        let text = set.to_json();
        assert_eq!(ResultSet::from_json(&text).expect("round trip"), set);
        assert!(text.contains("\"fail_frac\":0.125"), "{text}");
        assert!(text.contains("\"unit\":\"s\""), "{text}");
        assert!(text.contains("\"core.instructions\":{\"unit\":\"count\",\"value\":3906250123}"));
    }

    #[test]
    fn load_above_core_count_flags_the_set() {
        let mut header = sample_set().header;
        assert!(!header.unreliable());
        header.loadavg = 2.5;
        assert!(header.unreliable());
    }

    #[test]
    fn nothing_attempted_counts_as_all_failed() {
        assert_eq!(WorkloadResult::default().fail_frac(), 1.0);
        assert_eq!(sample_set().workloads[0].1.fail_frac(), 0.125);
    }
}
