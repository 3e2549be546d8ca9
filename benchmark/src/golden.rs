//! Output verification: what a `hemprof --report json` line says about the
//! simulated run, and the committed goldens those facts are checked
//! against. Everything here is a virtual-time output — deterministic, and
//! required to stay identical while host time is worked on.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use hem_obs::json::Json;

use crate::jsonio::{count, get_str, get_u64, obj, string, to_string};
use crate::sha256;

/// The executor-dependent report sections. Everything outside them must be
/// identical across executors and thread counts on the same input.
const EXECUTOR_SECTIONS: [&str; 2] = ["sched", "speculative"];

/// The facts one report line pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Facts {
    pub makespan: u64,
    pub events_dispatched: u64,
    /// SHA-256 of the report with [`EXECUTOR_SECTIONS`] removed.
    pub report_sha256: String,
    /// Service and blame headline numbers, for readable golden diffs
    /// (the digest already covers them). Empty for kernel runs.
    pub summary: BTreeMap<String, u64>,
}

impl Facts {
    /// Read the facts out of a report line.
    pub fn parse(report: &str) -> Result<Facts, String> {
        let doc = Json::parse(report.trim()).map_err(|e| format!("unparsable report: {e}"))?;
        let Json::Obj(members) = &doc else {
            return Err("report is not a JSON object".into());
        };
        let makespan = get_u64(&doc, "makespan")?;
        let sched = doc.get("sched").ok_or("report lacks a \"sched\" section")?;
        let events_dispatched = get_u64(sched, "events_dispatched")?;

        let invariant = Json::Obj(
            members
                .iter()
                .filter(|(key, _)| !EXECUTOR_SECTIONS.contains(&key.as_str()))
                .cloned()
                .collect(),
        );
        let report_sha256 = sha256::hex(to_string(&invariant).as_bytes());

        let mut summary = BTreeMap::new();
        let mut note = |label: &str, path: &[&str]| {
            let leaf = path.iter().try_fold(&doc, |cur, key| cur.get(key));
            if let Some(n) = leaf.and_then(Json::as_num) {
                summary.insert(label.to_string(), n as u64);
            }
        };
        note("service.completed", &["service", "completed"]);
        note("service.pending", &["service", "pending"]);
        note("service.latency_p50", &["service", "latency", "p50"]);
        note("service.latency_p99", &["service", "latency", "p99"]);
        for cat in ["queue", "exec", "wire", "lock", "retx"] {
            note(&format!("blame.{cat}"), &["blame", "totals", cat]);
        }
        Ok(Facts {
            makespan,
            events_dispatched,
            report_sha256,
            summary,
        })
    }
}

/// The counts a staged in-process run adds to the report's facts: the
/// report does not print them, `MachineStats` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineCounts {
    pub instructions: u64,
    pub net_sent: u64,
    pub net_words: u64,
}

/// One committed golden.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    pub workload: String,
    pub seed: u64,
    pub facts: Facts,
    pub counts: MachineCounts,
}

impl Golden {
    pub fn path(dir: &Path, workload: &str) -> PathBuf {
        dir.join(format!("{workload}.json"))
    }

    pub fn to_json(&self) -> String {
        let doc = obj([
            ("workload", string(&*self.workload)),
            ("seed", count(self.seed)),
            ("makespan", count(self.facts.makespan)),
            ("events_dispatched", count(self.facts.events_dispatched)),
            ("instructions", count(self.counts.instructions)),
            ("net_sent", count(self.counts.net_sent)),
            ("net_words", count(self.counts.net_words)),
            (
                "summary",
                obj(self
                    .facts
                    .summary
                    .iter()
                    .map(|(k, v)| (k.clone(), count(*v)))),
            ),
            ("report_sha256", string(&*self.facts.report_sha256)),
        ]);
        to_string(&doc) + "\n"
    }

    pub fn from_json(text: &str) -> Result<Golden, String> {
        let doc = Json::parse(text.trim()).map_err(|e| format!("unparsable golden: {e}"))?;
        let summary = match doc.get("summary") {
            Some(Json::Obj(members)) => members
                .iter()
                .map(|(k, v)| Ok((k.clone(), v.as_num().ok_or("non-numeric summary")? as u64)))
                .collect::<Result<_, String>>()?,
            _ => return Err("missing \"summary\"".into()),
        };
        Ok(Golden {
            workload: get_str(&doc, "workload")?.to_string(),
            seed: get_u64(&doc, "seed")?,
            facts: Facts {
                makespan: get_u64(&doc, "makespan")?,
                events_dispatched: get_u64(&doc, "events_dispatched")?,
                report_sha256: get_str(&doc, "report_sha256")?.to_string(),
                summary,
            },
            counts: MachineCounts {
                instructions: get_u64(&doc, "instructions")?,
                net_sent: get_u64(&doc, "net_sent")?,
                net_words: get_u64(&doc, "net_words")?,
            },
        })
    }

    pub fn load(dir: &Path, workload: &str) -> Result<Golden, String> {
        let path = Golden::path(dir, workload);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Golden::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Every field in which `facts` departs from the golden, as
    /// `name: golden -> seen` lines; empty when they agree.
    pub fn diff_facts(&self, facts: &Facts) -> Vec<String> {
        let mut lines = Vec::new();
        let mut field = |name: &str, want: &dyn std::fmt::Display, seen: &dyn std::fmt::Display| {
            let (want, seen) = (want.to_string(), seen.to_string());
            if want != seen {
                lines.push(format!("{name}: {want} -> {seen}"));
            }
        };
        field("makespan", &self.facts.makespan, &facts.makespan);
        field(
            "events_dispatched",
            &self.facts.events_dispatched,
            &facts.events_dispatched,
        );
        let lookup = |summary: &BTreeMap<String, u64>, key: &str| {
            summary
                .get(key)
                .map_or("absent".to_string(), |v| v.to_string())
        };
        let keys: BTreeSet<&String> = self
            .facts
            .summary
            .keys()
            .chain(facts.summary.keys())
            .collect();
        for key in keys {
            field(
                key,
                &lookup(&self.facts.summary, key),
                &lookup(&facts.summary, key),
            );
        }
        field(
            "report_sha256",
            &self.facts.report_sha256,
            &facts.report_sha256,
        );
        lines
    }

    /// The machine counts in which a staged run departs from the golden.
    pub fn diff_counts(&self, counts: &MachineCounts) -> Vec<String> {
        [
            (
                "instructions",
                self.counts.instructions,
                counts.instructions,
            ),
            ("net_sent", self.counts.net_sent, counts.net_sent),
            ("net_words", self.counts.net_words, counts.net_words),
        ]
        .iter()
        .filter(|(_, want, seen)| want != seen)
        .map(|(name, want, seen)| format!("{name}: {want} -> {seen}"))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{"title":"serve p=4","nodes":4,"makespan":20209,"traffic":{"requests":{"msgs":69,"words":345}},"residency_mean":1282.800000,"service":{"completed":161,"pending":1,"latency":{"p50":567,"p95":2332,"p99":3921}},"sched":{"events_dispatched":471,"windows":0},"blame":{"totals":{"queue":108743,"exec":28173,"wire":14374,"lock":0,"retx":0}}}"#;

    #[test]
    fn facts_read_the_pinned_fields() {
        let facts = Facts::parse(REPORT).expect("facts");
        assert_eq!(facts.makespan, 20209);
        assert_eq!(facts.events_dispatched, 471);
        assert_eq!(facts.report_sha256.len(), 64);
        assert_eq!(facts.summary["service.latency_p99"], 3921);
        assert_eq!(facts.summary["blame.queue"], 108743);
    }

    #[test]
    fn digest_ignores_executor_sections_only() {
        let base = Facts::parse(REPORT).expect("facts");
        let other_executor = REPORT
            .replace("\"windows\":0", "\"windows\":23")
            .replace("}}}", "}},\"speculative\":{\"rollbacks\":4}}");
        let spec = Facts::parse(&other_executor).expect("facts");
        assert_eq!(spec.report_sha256, base.report_sha256);

        let other_traffic = REPORT.replace("\"msgs\":69", "\"msgs\":70");
        let moved = Facts::parse(&other_traffic).expect("facts");
        assert_ne!(moved.report_sha256, base.report_sha256);
    }

    #[test]
    fn unusable_reports_are_errors() {
        assert!(Facts::parse("").is_err());
        assert!(Facts::parse("not json").is_err());
        assert!(Facts::parse("[1,2]").is_err());
        assert!(Facts::parse(r#"{"makespan":1}"#)
            .unwrap_err()
            .contains("sched"));
    }

    #[test]
    fn golden_round_trips_and_diffs() {
        let golden = Golden {
            workload: "serve_p32".into(),
            seed: 20260806,
            facts: Facts::parse(REPORT).expect("facts"),
            counts: MachineCounts {
                instructions: 123_456_789_012,
                net_sent: 270,
                net_words: 884,
            },
        };
        let back = Golden::from_json(&golden.to_json()).expect("round trip");
        assert_eq!(back, golden);
        assert!(golden.diff_facts(&golden.facts).is_empty());
        assert!(golden.diff_counts(&golden.counts).is_empty());

        let wrong = Facts::parse(&REPORT.replace("20209", "20210")).expect("facts");
        let diff = golden.diff_facts(&wrong);
        assert!(
            diff.iter().any(|l| l == "makespan: 20209 -> 20210"),
            "{diff:?}"
        );
        assert!(
            diff.iter().any(|l| l.starts_with("report_sha256")),
            "{diff:?}"
        );
        let counts = MachineCounts {
            net_sent: 271,
            ..golden.counts
        };
        assert_eq!(golden.diff_counts(&counts), ["net_sent: 270 -> 271"]);
    }
}
