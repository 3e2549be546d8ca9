//! `hembench` — the host-time benchmark of the hem simulator.
//!
//! ```text
//! hembench run --workload NAME --seed S --seconds N --trace 0|1
//!     one workload, the way the acceptance driver calls it: end-to-end
//!     metrics (--trace 0) or per-layer metrics (--trace 1); the last
//!     stdout line is one JSON object
//! hembench run [--seed S] [--reps N] [--quick] [--out FILE]
//!     a full set: every workload end to end, then every workload traced;
//!     prints every metric by name and writes the set as JSON
//! hembench compare A.json B.json
//!     judge set B against base set A under BENCHMARK.json's bounds
//! hembench golden [--update] [--quick]
//!     check (or regenerate) the committed goldens and print the diff
//! hembench manifest
//!     print BENCHMARK.json as the metric and workload tables define it
//! ```
//!
//! Exit codes: 0 — done and every check passed; 1 — a failed invocation,
//! a golden mismatch or a regression; 2 — usage error.

mod child;
mod compare;
mod e2e;
mod golden;
mod jsonio;
mod metrics;
mod results;
mod sha256;
mod spans;
mod staged;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use hem_obs::json::Json;

use e2e::{Env, Outcome, Stop};
use golden::Golden;
use jsonio::{count, num, obj, string, to_string};
use metrics::{END_TO_END, PER_LAYER};
use results::{print_workload, Header, ResultSet, WorkloadResult};
use spans::Tracer;
use stats::median;
use workloads::{Workload, DEFAULT_SEED};

/// Seconds one driver run measures; also `run_seconds` in BENCHMARK.json.
const RUN_SECONDS: u64 = 10;

/// Timed repetitions per workload in a full set: seven is the fewest whose
/// quartiles exclude both extremes, so one slow-mode invocation of the
/// sharded executor does not widen a spread past its bound.
const SET_REPS: usize = 7;

/// Traced passes per workload in a full set; per-layer times are their
/// median.
const SET_PASSES: usize = 3;

/// Set-ups per run: `setup_s` is their median.
const SETUPS: usize = 3;

fn usage() -> ExitCode {
    eprintln!("usage: hembench run --workload NAME --seed S --seconds N --trace 0|1");
    eprintln!("       hembench run [--seed S] [--reps N] [--quick] [--out FILE]");
    eprintln!("       hembench compare A.json B.json");
    eprintln!("       hembench golden [--update] [--quick]");
    eprintln!("       hembench manifest");
    ExitCode::from(2)
}

/// Strict flag parsing: an unknown flag, a missing or an unparsable value
/// is a usage error, never a silent default.
struct Flags {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], valued: &[&'static str], switches: &[&'static str]) -> Option<Flags> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = valued.iter().find(|n| *n == arg) {
                flags.values.push((name, it.next()?.clone()));
            } else if let Some(name) = switches.iter().find(|n| *n == arg) {
                flags.switches.push(name);
            } else if arg.starts_with('-') {
                eprintln!("hembench: unknown flag {arg}");
                return None;
            } else {
                flags.positional.push(arg.clone());
            }
        }
        Some(flags)
    }

    fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// `Ok(None)` when absent, `Err` when present but unparsable.
    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ()> {
        match self.values.iter().find(|(n, _)| *n == name) {
            None => Ok(None),
            Some((_, v)) => v.parse().map(Some).map_err(|_| {
                eprintln!("hembench: bad value for {name}: {v}");
            }),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    match command.as_str() {
        "run" => cmd_run(rest),
        "compare" => cmd_compare(rest),
        "golden" => cmd_golden(rest),
        "manifest" if rest.is_empty() => {
            print!("{}", manifest());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let valued = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--reps",
        "--out",
    ];
    let Some(flags) = Flags::parse(args, &valued, &["--quick"]) else {
        return usage();
    };
    let parsed = (|| {
        Ok::<_, ()>((
            flags.get::<String>("--workload")?,
            flags.get::<u64>("--seed")?.unwrap_or(DEFAULT_SEED),
            flags.get::<f64>("--seconds")?,
            flags.get::<u8>("--trace")?,
            flags.get::<usize>("--reps")?,
            flags.get::<PathBuf>("--out")?,
        ))
    })();
    let Ok((workload, seed, seconds, trace, reps, out)) = parsed else {
        return usage();
    };
    if !flags.positional.is_empty() || trace.is_some_and(|t| t > 1) || reps == Some(0) {
        return usage();
    }
    let quick = flags.has("--quick");
    match workload {
        Some(name) => {
            if quick || reps.is_some() || out.is_some() {
                return usage();
            }
            let seconds = seconds.unwrap_or(RUN_SECONDS as f64);
            run_one(&name, seed, seconds, trace.unwrap_or(0) == 1)
        }
        None => {
            if seconds.is_some() || trace.is_some() {
                return usage();
            }
            let reps = reps.unwrap_or(if quick { 1 } else { SET_REPS });
            run_set(seed, reps, quick, out)
        }
    }
}

/// The set-up every mode starts with: locate the checkout, build
/// `hemprof`, and say on what host.
fn prepare(quick: bool) -> Result<(Env, f64), ExitCode> {
    let env = Env::locate(quick);
    match env.build() {
        Ok(build_s) => Ok((env, build_s)),
        Err(e) => {
            eprintln!("hembench: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// The workload's instruction total: the golden's where one applies,
/// otherwise counted by an untraced in-process run. Call it only after
/// the last timed child (see `e2e`).
fn instructions(env: &Env, workload: &Workload, seed: u64) -> Result<u64, String> {
    Ok(match env.golden(workload, seed)? {
        Some(golden) => golden.counts.instructions,
        None => staged::machine_counts(workload).instructions,
    })
}

/// An outcome's end-to-end samples by metric name; a metric with no
/// sample is left out.
fn end_to_end_samples(out: &Outcome, instructions: u64) -> BTreeMap<String, Vec<f64>> {
    let speed = out
        .wall_s
        .iter()
        .map(|wall| instructions as f64 / 1e6 / wall)
        .collect();
    [
        ("setup_s", out.setup_s.clone()),
        ("wall_s", out.wall_s.clone()),
        ("cpu_s", out.cpu_s.clone()),
        ("peak_rss_mb", out.peak_rss_mb.clone()),
        ("sim_minstr_per_s", speed),
    ]
    .into_iter()
    .filter(|(_, samples)| !samples.is_empty())
    .map(|(name, samples)| (name.to_string(), samples))
    .collect()
}

/// Traced passes over one workload until `stop`, folded into one sample;
/// the spans go to `benchmark/out/spans_<workload>.json`.
fn traced(env: &Env, workload: &Workload, seed: u64, stop: Stop) -> WorkloadResult {
    try_traced(env, workload, seed, stop).unwrap_or_else(WorkloadResult::broken)
}

/// [`traced`]; `Err` when the run's own files cannot be read or written.
fn try_traced(
    env: &Env,
    workload: &Workload,
    seed: u64,
    stop: Stop,
) -> Result<WorkloadResult, String> {
    let golden = env.golden(workload, seed)?;
    let scratch = env.scratch(workload.name)?;
    let mut result = WorkloadResult {
        golden_checked: golden.is_some(),
        ..WorkloadResult::default()
    };

    let mut tracer = Tracer::new();
    let mut samples = Vec::new();
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        let pass = staged::pass(env, workload, scratch.path(), golden.as_ref(), &mut tracer);
        result.attempted += pass.attempted;
        result.failed += pass.failures.len() as u64;
        result.failures.extend(pass.failures);
        samples.push(pass.sample);
        if !stop.go_on(samples.len(), start, pass_start) {
            break;
        }
    }
    result.attempted += 1;
    match staged::fold(&samples) {
        Ok(sample) => {
            result.per_layer = sample
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect()
        }
        Err(e) => {
            result.failed += 1;
            result.failures.push(e);
        }
    }
    let spans = env.out_dir.join(format!("spans_{}.json", workload.name));
    std::fs::write(&spans, tracer.chrome_json(workload.name))
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    Ok(result)
}

/// Driver mode: one workload, one kind of metric, one JSON line last.
fn run_one(name: &str, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let Some(workload) = workloads::all(seed, false)
        .into_iter()
        .find(|w| w.name == name)
    else {
        eprintln!("hembench: unknown workload {name}");
        return ExitCode::from(2);
    };
    let (env, build_s) = match prepare(false) {
        Ok(ready) => ready,
        Err(code) => return code,
    };
    println!("hembench: {name} seed {seed}, build {build_s:.1} s (not compared)");

    let result = if trace {
        traced(&env, &workload, seed, Stop::Seconds(seconds))
    } else {
        let out = e2e::measure(&env, &workload, seed, SETUPS, Stop::Seconds(seconds));
        let mut result = WorkloadResult {
            golden_checked: out.golden_checked,
            attempted: out.attempted,
            failed: out.failed,
            failures: out.failures.clone(),
            ..WorkloadResult::default()
        };
        if !out.wall_s.is_empty() {
            match instructions(&env, &workload, seed) {
                Ok(n) => result.end_to_end = end_to_end_samples(&out, n),
                Err(e) => {
                    result.failed += 1;
                    result.failures.push(e);
                }
            }
        }
        result
    };
    print_workload(name, &result);

    let metrics: Vec<(&str, Json)> = if trace {
        PER_LAYER
            .iter()
            .filter_map(|m| Some((m, *result.per_layer.get(m.name)?)))
            .map(|(m, v)| (m.name, obj([("value", num(v)), ("unit", string(m.unit))])))
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter_map(|m| Some((m, result.end_to_end.get(m.name)?)))
            .map(|(m, s)| {
                (
                    m.name,
                    obj([("value", num(median(s))), ("unit", string(m.unit))]),
                )
            })
            .collect()
    };
    let expected = if trace {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    if metrics.len() != expected {
        // Nothing measurable: no result line, and a failing exit code.
        eprintln!("hembench: {name}: no result ({} failed)", result.failed);
        return ExitCode::FAILURE;
    }
    let line = obj([
        ("correct", Json::Bool(result.failed == 0)),
        ("attempted", count(result.attempted)),
        ("failed", count(result.failed)),
        ("metrics", obj(metrics)),
    ]);
    println!("{}", to_string(&line));
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Executors must agree on everything outside their own report sections:
/// a threaded workload's digest must be its serial workload's. `digests`
/// maps workload names to `Facts::report_sha256`; a missing one disagrees.
fn agrees_with_serial(workload: &Workload, digests: &BTreeMap<&str, &str>) -> bool {
    match workload.serial {
        None => true,
        Some(serial) => {
            digests.contains_key(serial) && digests.get(serial) == digests.get(workload.name)
        }
    }
}

/// A full set: every workload end to end (this process stays small while
/// children are timed), then every workload traced.
fn run_set(seed: u64, reps: usize, quick: bool, out: Option<PathBuf>) -> ExitCode {
    let (env, build_s) = match prepare(quick) {
        Ok(ready) => ready,
        Err(code) => return code,
    };
    let root = env.root.clone().expect("located checkout");
    let header = Header::collect(&root, seed, reps as u64, quick, build_s);
    let workloads = workloads::all(seed, quick);
    let (setups, passes) = if quick { (1, 1) } else { (SETUPS, SET_PASSES) };

    let outcomes: Vec<Outcome> = workloads
        .iter()
        .map(|w| {
            eprintln!("hembench: {} end to end", w.name);
            e2e::measure(&env, w, seed, setups, Stop::Reps(reps))
        })
        .collect();

    let digests: BTreeMap<&str, &str> = workloads
        .iter()
        .zip(&outcomes)
        .filter_map(|(w, o)| Some((w.name, o.facts.as_ref()?.report_sha256.as_str())))
        .collect();
    let mut set = ResultSet {
        header,
        workloads: Vec::new(),
    };
    for (w, out) in workloads.iter().zip(&outcomes) {
        eprintln!("hembench: {} traced", w.name);
        let mut result = traced(&env, w, seed, Stop::Reps(passes));
        result.attempted += out.attempted;
        result.failed += out.failed;
        result.failures.splice(0..0, out.failures.iter().cloned());
        // The traced run counted the instructions this seed executes.
        if let Some(instr) = result.per_layer.get("core.instructions") {
            result.end_to_end = end_to_end_samples(out, *instr as u64);
        }
        if let Some(serial) = w.serial {
            result.attempted += 1;
            if !agrees_with_serial(w, &digests) {
                result.failed += 1;
                result.failures.push(format!(
                    "report differs from {serial}'s outside sched/speculative"
                ));
            }
        }
        set.workloads.push((w.name.to_string(), result));
    }

    set.print();
    let path = out.unwrap_or_else(|| env.out_dir.join("results.json"));
    if let Err(e) = std::fs::write(&path, set.to_json()) {
        eprintln!("hembench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("hembench: wrote {}", path.display());
    if set.workloads.iter().all(|(_, w)| w.failed == 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let Some(flags) = Flags::parse(args, &[], &[]) else {
        return usage();
    };
    let [a, b] = flags.positional.as_slice() else {
        return usage();
    };
    let manifest_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let loaded = (|| {
        let manifest = std::fs::read_to_string(&manifest_path)
            .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
        Ok::<_, String>((
            compare::rules(&manifest)?,
            ResultSet::load(Path::new(a))?,
            ResultSet::load(Path::new(b))?,
        ))
    })();
    let (rules, set_a, set_b) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("hembench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "A: {a} (commit {}, {} cores)",
        set_a.header.commit, set_a.header.nproc
    );
    println!(
        "B: {b} (commit {}, {} cores)",
        set_b.header.commit, set_b.header.nproc
    );
    let cmp = compare::compare(&set_a, &set_b, &rules);
    cmp.print();
    if cmp.regressed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Check the committed goldens against what this checkout computes, or
/// rewrite them; either way print every field that differs.
fn cmd_golden(args: &[String]) -> ExitCode {
    let Some(flags) = Flags::parse(args, &[], &["--update", "--quick"]) else {
        return usage();
    };
    if !flags.positional.is_empty() {
        return usage();
    }
    let (update, quick) = (flags.has("--update"), flags.has("--quick"));
    let (env, _) = match prepare(quick) {
        Ok(ready) => ready,
        Err(code) => return code,
    };
    let scratch = match env.scratch("golden") {
        Ok(scratch) => scratch,
        Err(e) => {
            eprintln!("hembench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut differing = 0;
    let mut digests = BTreeMap::new();
    let workloads = workloads::all(DEFAULT_SEED, quick);
    for w in &workloads {
        let fresh = match e2e::invoke(&env, w, scratch.path(), None) {
            Ok(inv) => Golden {
                workload: w.name.to_string(),
                seed: DEFAULT_SEED,
                facts: inv.facts,
                counts: staged::machine_counts(w),
            },
            Err(e) => {
                eprintln!("hembench: {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        let diff = match Golden::load(&env.golden_dir, w.name) {
            Ok(old) => [old.diff_facts(&fresh.facts), old.diff_counts(&fresh.counts)].concat(),
            Err(e) => vec![e],
        };
        if diff.is_empty() {
            println!("{}: unchanged", w.name);
        } else {
            differing += 1;
            println!("{}:", w.name);
            for line in &diff {
                println!("  {line}");
            }
            if update {
                let path = Golden::path(&env.golden_dir, w.name);
                if let Err(e) = std::fs::write(&path, fresh.to_json()) {
                    eprintln!("hembench: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("  wrote {}", path.display());
            }
        }
        digests.insert(w.name, fresh.facts.report_sha256);
    }
    for w in &workloads {
        if w.serial
            .is_some_and(|serial| digests.get(serial) != digests.get(w.name))
        {
            eprintln!(
                "hembench: {} and its serial run disagree outside sched/speculative",
                w.name
            );
            return ExitCode::FAILURE;
        }
    }
    if differing > 0 && !update {
        eprintln!("hembench: {differing} goldens differ (rerun with --update to accept)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `BENCHMARK.json`, generated from the workload and metric tables.
fn manifest() -> String {
    let lines = |items: Vec<Json>| {
        let body: Vec<String> = items
            .iter()
            .map(|i| format!("    {}", to_string(i)))
            .collect();
        format!("[\n{}\n  ]", body.join(",\n"))
    };
    let command = ["cargo", "run", "--release", "--quiet", "--manifest-path"]
        .into_iter()
        .chain(["benchmark/Cargo.toml", "--", "run"])
        .map(string)
        .collect();
    let workloads = workloads::all(DEFAULT_SEED, false)
        .iter()
        .map(|w| obj([("name", string(w.name)), ("why", string(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            obj([
                ("name", string(m.name)),
                ("unit", string(m.unit)),
                ("better", string(m.better.name())),
                ("bound", num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            obj([
                ("name", string(m.name)),
                ("unit", string(m.unit)),
                ("better", string(m.better.name())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        to_string(&Json::Arr(command)),
        lines(workloads),
        lines(end_to_end),
        lines(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_are_strict() {
        let valued = ["--seed"];
        let switches = ["--quick"];
        let ok = Flags::parse(
            &strings(&["--seed", "7", "--quick", "x"]),
            &valued,
            &switches,
        )
        .expect("parses");
        assert_eq!(ok.get::<u64>("--seed"), Ok(Some(7)));
        assert!(ok.has("--quick") && ok.positional == ["x"]);
        assert_eq!(ok.get::<u64>("--reps"), Ok(None));

        assert!(Flags::parse(&strings(&["--bogus"]), &valued, &switches).is_none());
        assert!(Flags::parse(&strings(&["--seed"]), &valued, &switches).is_none());
        let bad =
            Flags::parse(&strings(&["--seed", "banana"]), &valued, &switches).expect("parses");
        assert_eq!(bad.get::<u64>("--seed"), Err(()));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, manifest(), "regenerate with `hembench manifest`");
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        let text = manifest();
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("valid JSON");
        let Json::Obj(members) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let name_ok = |n: &str| {
            (1..=64).contains(&n.len())
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = Vec::new();
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            names.push(w.get("name").and_then(Json::as_str).expect("name"));
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let end_to_end = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert!((1..=16).contains(&end_to_end.len()));
        for m in end_to_end {
            let bound = m.get("bound").and_then(Json::as_num).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let per_layer = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert!((1..=128).contains(&per_layer.len()));
        for m in end_to_end.iter().chain(per_layer) {
            names.push(m.get("name").and_then(Json::as_str).expect("name"));
            assert!(unit_ok(m.get("unit").and_then(Json::as_str).expect("unit")));
        }
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names are used once");
        let setup = end_to_end
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    }
}
