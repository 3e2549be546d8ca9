//! `hembench compare A.json B.json`: judge set B against base set A under
//! the bounds `BENCHMARK.json` fixes, one row per (end-to-end metric,
//! workload) pair, every ratio given with its base.

use hem_obs::json::Json;

use crate::jsonio::get_str;
use crate::metrics::PER_LAYER;
use crate::results::ResultSet;
use crate::stats::{judge, median, spread, Better, Verdict};

/// One end-to-end metric's comparison rule, as `BENCHMARK.json` states it.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    pub better: Better,
    pub bound: f64,
}

/// The `end_to_end` rules of a `BENCHMARK.json`.
pub fn rules(manifest: &str) -> Result<Vec<Rule>, String> {
    let doc =
        Json::parse(manifest.trim()).map_err(|e| format!("unparsable BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks \"end_to_end\"")?;
    list.iter()
        .map(|m| {
            let better = match get_str(m, "better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("unknown direction \"{other}\"")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_num)
                .ok_or("metric lacks \"bound\"")?;
            Ok(Rule {
                name: get_str(m, "name")?.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub verdict: Verdict,
    pub base: f64,
    pub new: f64,
    /// Worsening of the median as a share of `base` (negative: better).
    pub change: f64,
    pub bound: f64,
    pub spread_base: f64,
    pub spread_new: f64,
}

#[derive(Default)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Counts that differ between the sets, `workload metric: a -> b`.
    pub changed_counts: Vec<String>,
    /// Workloads whose `fail_frac` rose, or that a set lacks.
    pub failures: Vec<String>,
    pub notes: Vec<String>,
}

impl Comparison {
    fn tally(&self, verdict: Verdict) -> usize {
        self.rows.iter().filter(|r| r.verdict == verdict).count()
    }

    /// B regressed against A: a worse row, a changed count, or more
    /// failures. Unresolved rows do not fail the comparison; they are
    /// reported as unresolved, not as unchanged.
    pub fn regressed(&self) -> bool {
        self.tally(Verdict::Worse) > 0
            || !self.changed_counts.is_empty()
            || !self.failures.is_empty()
    }

    pub fn print(&self) {
        println!(
            "{:<18} {:<18} {:<13} {:>12} {:>12} {:>9} {:>7} {:>8} {:>8}",
            "workload",
            "metric",
            "verdict",
            "A median",
            "B median",
            "B vs A",
            "bound",
            "A spread",
            "B spread"
        );
        for r in &self.rows {
            println!(
                "{:<18} {:<18} {:<13} {:>12.6} {:>12.6} {:>+8.2}% {:>6.1}% {:>7.2}% {:>7.2}%",
                r.workload,
                r.metric,
                r.verdict.name(),
                r.base,
                r.new,
                100.0 * r.change,
                100.0 * r.bound,
                100.0 * r.spread_base,
                100.0 * r.spread_new,
            );
        }
        println!("(B vs A: worsening of B's median as a share of A's median; negative is better)");
        for line in &self.changed_counts {
            println!("CHANGED COUNT {line}");
        }
        for line in &self.failures {
            println!("FAILURE {line}");
        }
        for line in &self.notes {
            println!("note: {line}");
        }
        println!(
            "{} better, {} within bound, {} worse, {} unresolved; {} changed counts, {} failure regressions",
            self.tally(Verdict::Better),
            self.tally(Verdict::Within),
            self.tally(Verdict::Worse),
            self.tally(Verdict::Unresolved),
            self.changed_counts.len(),
            self.failures.len(),
        );
    }
}

/// Compare set `b` against base set `a`.
pub fn compare(a: &ResultSet, b: &ResultSet, rules: &[Rule]) -> Comparison {
    let mut cmp = Comparison::default();
    if a.header.unreliable() || b.header.unreliable() {
        cmp.notes
            .push("a set was measured with the load average above the core count".into());
    }
    let same_inputs = a.header.seed == b.header.seed && a.header.quick == b.header.quick;
    if !same_inputs {
        cmp.notes
            .push("the sets used different seeds or sizes: counts are not compared".into());
    }
    for (name, wa) in &a.workloads {
        let Some((_, wb)) = b.workloads.iter().find(|(n, _)| n == name) else {
            cmp.failures.push(format!("{name}: missing from set B"));
            continue;
        };
        if wb.fail_frac() > wa.fail_frac() {
            cmp.failures.push(format!(
                "{name}: fail_frac {} -> {}",
                wa.fail_frac(),
                wb.fail_frac()
            ));
        }
        for rule in rules {
            let (Some(sa), Some(sb)) =
                (wa.end_to_end.get(&rule.name), wb.end_to_end.get(&rule.name))
            else {
                continue;
            };
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let (verdict, change) = judge(rule.better, sa, sb, rule.bound);
            cmp.rows.push(Row {
                workload: name.clone(),
                metric: rule.name.clone(),
                verdict,
                base: median(sa),
                new: median(sb),
                change,
                bound: rule.bound,
                spread_base: spread(sa),
                spread_new: spread(sb),
            });
        }
        if same_inputs {
            for metric in PER_LAYER
                .iter()
                .filter(|m| m.unit == "count" && m.name != "trace.passes")
            {
                if let (Some(va), Some(vb)) =
                    (wa.per_layer.get(metric.name), wb.per_layer.get(metric.name))
                {
                    if va != vb {
                        cmp.changed_counts
                            .push(format!("{name} {}: {va} -> {vb}", metric.name));
                    }
                }
            }
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::sample_set;

    fn test_rules() -> Vec<Rule> {
        rules(
            r#"{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.08},
                {"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#,
        )
        .expect("rules")
    }

    #[test]
    fn rules_come_from_the_manifest() {
        let r = test_rules();
        assert_eq!(r.len(), 2);
        assert_eq!(
            (r[0].name.as_str(), r[0].better, r[0].bound),
            ("wall_s", Better::Lower, 0.08)
        );
        assert!(rules("{}").is_err());
        assert!(rules(r#"{"end_to_end":[{"name":"x","better":"sideways","bound":0.1}]}"#).is_err());
    }

    #[test]
    fn a_set_agrees_with_itself() {
        let set = sample_set();
        let cmp = compare(&set, &set, &test_rules());
        assert_eq!(cmp.rows.len(), 2);
        assert!(cmp
            .rows
            .iter()
            .all(|r| r.verdict == Verdict::Within && r.change == 0.0));
        assert!(!cmp.regressed());
    }

    #[test]
    fn slower_changed_count_and_more_failures_all_regress() {
        let a = sample_set();

        let mut slower = a.clone();
        for v in slower.workloads[0]
            .1
            .end_to_end
            .get_mut("wall_s")
            .expect("wall")
        {
            *v *= 1.2;
        }
        let cmp = compare(&a, &slower, &test_rules());
        let wall = cmp.rows.iter().find(|r| r.metric == "wall_s").expect("row");
        assert_eq!(wall.verdict, Verdict::Worse);
        assert!((wall.change - 0.2).abs() < 1e-9);
        assert!(cmp.regressed());
        // The other direction is an improvement, not a regression.
        assert!(!compare(&slower, &a, &test_rules()).regressed());

        let mut recount = a.clone();
        recount.workloads[0]
            .1
            .per_layer
            .insert("core.instructions".into(), 1.0);
        let cmp = compare(&a, &recount, &test_rules());
        assert_eq!(cmp.changed_counts.len(), 1);
        assert!(cmp.regressed());
        // Times are not counts: a different core.run_s is not a changed count.
        let mut retimed = a.clone();
        retimed.workloads[0]
            .1
            .per_layer
            .insert("core.run_s".into(), 9.0);
        assert!(!compare(&a, &retimed, &test_rules()).regressed());

        let mut flaky = a.clone();
        flaky.workloads[0].1.failed += 1;
        assert!(compare(&a, &flaky, &test_rules()).regressed());

        let mut missing = a.clone();
        missing.workloads.clear();
        assert!(compare(&a, &missing, &test_rules()).regressed());
    }

    #[test]
    fn counts_are_not_compared_across_seeds() {
        let a = sample_set();
        let mut other = a.clone();
        other.header.seed = 1;
        other.workloads[0]
            .1
            .per_layer
            .insert("core.instructions".into(), 1.0);
        let cmp = compare(&a, &other, &test_rules());
        assert!(cmp.changed_counts.is_empty() && !cmp.notes.is_empty());
    }
}
