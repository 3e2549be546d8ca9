//! End-to-end measurement: `hemprof` as a child process with tracing off,
//! one invocation at a time in a closed loop, every output verified.
//!
//! This process must stay small while it measures: Linux seeds a child's
//! `ru_maxrss` with the spawner's own high-water mark, so any in-process
//! simulation before a timed child would leak into `peak_rss_mb`. All
//! in-process work (`staged`) therefore happens after the last child.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use crate::child::{self, Exit, Status};
use crate::golden::{Facts, Golden};
use crate::workloads::Workload;

/// Where things are, and how long a child may run.
#[derive(Debug, Clone)]
pub struct Env {
    /// The repository root (the parent of `benchmark/`); `None` when
    /// `hemprof` is a stand-in that is not built from there (self-tests).
    pub root: Option<PathBuf>,
    pub target_dir: PathBuf,
    pub hemprof: PathBuf,
    /// Files a run leaves behind go here (`benchmark/out/`).
    pub out_dir: PathBuf,
    pub golden_dir: PathBuf,
    pub timeout: Duration,
}

impl Env {
    /// The environment of the checkout this binary was built in.
    pub fn locate(quick: bool) -> Env {
        let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = bench
            .parent()
            .expect("benchmark/ has a parent")
            .to_path_buf();
        let target_dir = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => std::env::current_dir()
                .expect("current directory")
                .join(dir),
            None => root.join("target"),
        };
        let golden = bench.join("golden");
        Env {
            hemprof: target_dir.join("release").join("hemprof"),
            target_dir,
            root: Some(root),
            out_dir: bench.join("out"),
            golden_dir: if quick { golden.join("quick") } else { golden },
            timeout: Duration::from_secs(60),
        }
    }

    /// Build `hemprof` from the checkout (a no-op check when it is up to
    /// date) and return how long cargo took.
    pub fn build(&self) -> Result<f64, String> {
        let Some(root) = &self.root else {
            return Ok(0.0);
        };
        let start = Instant::now();
        let status = Command::new("cargo")
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "hem-bench", "--bin", "hemprof", "--manifest-path"])
            .arg(root.join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &self.target_dir)
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building hemprof failed ({status})"));
        }
        Ok(start.elapsed().as_secs_f64())
    }

    /// The committed golden that describes `workload` under `seed`, if one
    /// does.
    pub fn golden(&self, workload: &Workload, seed: u64) -> Result<Option<Golden>, String> {
        match workload.golden_applies(seed) {
            true => Golden::load(&self.golden_dir, workload.name).map(Some),
            false => Ok(None),
        }
    }

    /// A scratch directory under `out_dir`, created empty.
    pub fn scratch(&self, tag: &str) -> Result<Scratch, String> {
        let scratch = Scratch(
            self.out_dir
                .join(format!("tmp-{}-{tag}", std::process::id())),
        );
        scratch.reset()?;
        Ok(scratch)
    }
}

/// A scratch directory, removed with everything in it when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Empty the directory, as a fresh set-up finds it.
    fn reset(&self) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(&self.0);
        std::fs::create_dir_all(&self.0)
            .map_err(|e| format!("cannot create {}: {e}", self.0.display()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One verified invocation.
pub struct Invocation {
    pub exit: Exit,
    /// First stdout line: the JSON report.
    pub report: String,
    pub facts: Facts,
}

/// Run the workload's `hemprof` once in `scratch` and verify its output
/// against the golden (when one applies).
pub fn invoke(
    env: &Env,
    workload: &Workload,
    scratch: &Path,
    golden: Option<&Golden>,
) -> Result<Invocation, String> {
    let stdout = scratch.join("report.json");
    let args = workload.argv(&scratch.join("perfetto.json"));
    let exit = child::run(
        &env.hemprof,
        &args,
        &stdout,
        &scratch.join("stderr.txt"),
        env.timeout,
    )
    .map_err(|e| format!("cannot run {}: {e}", env.hemprof.display()))?;
    match exit.status {
        Status::Exited(0) => {}
        Status::Exited(code) => return Err(format!("exit code {code}")),
        Status::Signaled(sig) => return Err(format!("killed by signal {sig}")),
        Status::TimedOut => return Err(format!("timed out after {:?}", env.timeout)),
    }
    let text = std::fs::read_to_string(&stdout).map_err(|e| format!("unreadable stdout: {e}"))?;
    let report = text.lines().next().unwrap_or("").to_string();
    let facts = Facts::parse(&report)?;
    if let Some(golden) = golden {
        let diff = golden.diff_facts(&facts);
        if !diff.is_empty() {
            return Err(format!("golden mismatch: {}", diff.join("; ")));
        }
    }
    Ok(Invocation {
        exit,
        report,
        facts,
    })
}

/// When to stop repeating.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Keep starting repetitions while the next one is expected to end
    /// within this many seconds of the first one's start.
    Seconds(f64),
    Reps(usize),
}

impl Stop {
    /// Start another repetition? `done` have finished since `start`; the
    /// last one began at `last`.
    pub fn go_on(self, done: usize, start: Instant, last: Instant) -> bool {
        match self {
            Stop::Reps(n) => done < n,
            Stop::Seconds(s) => (start.elapsed() + last.elapsed()).as_secs_f64() < s,
        }
    }
}

/// The timed repetitions of one workload and the checks made on them.
#[derive(Default)]
pub struct Outcome {
    /// One value per set-up (build check, golden, scratch, warm-up).
    pub setup_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    /// Invocations made, warm-ups included, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The report every repetition printed (they must all be identical).
    pub report: Option<String>,
    pub facts: Option<Facts>,
    /// Whether a committed golden was applied, or only identity checks.
    pub golden_checked: bool,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

/// Measure one workload: `setups` set-ups, then timed repetitions.
pub fn measure(env: &Env, workload: &Workload, seed: u64, setups: usize, stop: Stop) -> Outcome {
    let mut out = Outcome::default();
    let mut golden = None;
    let scratch = match env.scratch(workload.name) {
        Ok(scratch) => scratch,
        Err(e) => {
            out.attempted = 1;
            out.fail(e);
            return out;
        }
    };

    for _ in 0..setups {
        let start = Instant::now();
        let prepared = env.build().and_then(|_| {
            golden = env.golden(workload, seed)?;
            scratch.reset()
        });
        out.attempted += 1;
        let warm = prepared.and_then(|()| invoke(env, workload, scratch.path(), golden.as_ref()));
        match warm {
            Ok(_) => out.setup_s.push(start.elapsed().as_secs_f64()),
            Err(e) => {
                // A workload that cannot be set up is not measured.
                out.fail(format!("set-up: {e}"));
                return out;
            }
        }
    }
    out.golden_checked = golden.is_some();

    let start = Instant::now();
    loop {
        out.attempted += 1;
        let rep_start = Instant::now();
        match invoke(env, workload, scratch.path(), golden.as_ref()) {
            Ok(inv) => match &out.report {
                Some(first) if *first != inv.report => {
                    out.fail("report differs from the first repetition's".into())
                }
                _ => {
                    out.wall_s.push(inv.exit.wall_s);
                    out.cpu_s.push(inv.exit.cpu_s);
                    out.peak_rss_mb.push(inv.exit.peak_rss_mb);
                    out.report.get_or_insert(inv.report);
                    out.facts.get_or_insert(inv.facts);
                }
            },
            Err(e) => out.fail(e),
        }
        if !stop.go_on(out.attempted as usize - setups, start, rep_start) {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use std::os::unix::fs::PermissionsExt;

    /// An environment whose "hemprof" is a shell script.
    fn stub_env(tag: &str, script: &str, timeout: Duration) -> Env {
        let dir = std::env::temp_dir().join(format!("hembench-e2e-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("golden")).expect("stub dir");
        let hemprof = dir.join("hemprof");
        std::fs::write(&hemprof, format!("#!/bin/sh\n{script}\n")).expect("stub script");
        std::fs::set_permissions(&hemprof, std::fs::Permissions::from_mode(0o755)).expect("chmod");
        Env {
            root: None,
            target_dir: dir.clone(),
            hemprof,
            out_dir: dir.join("out"),
            golden_dir: dir.join("golden"),
            timeout,
        }
    }

    const GOOD: &str = r#"{"title":"t","makespan":100,"sched":{"events_dispatched":7}}"#;

    fn golden_for(env: &Env, report: &str) {
        let golden = Golden {
            workload: "fib_p1".into(),
            seed: workloads::DEFAULT_SEED,
            facts: Facts::parse(report).expect("facts"),
            counts: crate::golden::MachineCounts {
                instructions: 1,
                net_sent: 0,
                net_words: 0,
            },
        };
        std::fs::write(Golden::path(&env.golden_dir, "fib_p1"), golden.to_json()).expect("golden");
    }

    fn fib() -> Workload {
        workloads::all(workloads::DEFAULT_SEED, true).remove(0)
    }

    fn run(env: &Env) -> Outcome {
        let out = measure(env, &fib(), workloads::DEFAULT_SEED, 1, Stop::Reps(2));
        let _ = std::fs::remove_dir_all(env.target_dir.clone());
        out
    }

    #[test]
    fn a_correct_stub_passes_every_check() {
        let env = stub_env("ok", &format!("echo '{GOOD}'"), Duration::from_secs(10));
        golden_for(&env, GOOD);
        let out = run(&env);
        assert_eq!((out.attempted, out.failed), (3, 0), "{:?}", out.failures);
        assert_eq!((out.setup_s.len(), out.wall_s.len()), (1, 2));
        assert!(out.golden_checked && out.report.as_deref() == Some(GOOD));
    }

    #[test]
    fn a_non_zero_exit_fails_every_attempt() {
        let env = stub_env("exit1", "exit 1", Duration::from_secs(10));
        golden_for(&env, GOOD);
        let out = run(&env);
        assert_eq!((out.attempted, out.failed), (1, 1));
        assert!(
            out.failures[0].contains("exit code 1"),
            "{:?}",
            out.failures
        );
        assert!(out.wall_s.is_empty());
    }

    #[test]
    fn a_wrong_makespan_is_a_golden_mismatch() {
        let wrong = GOOD.replace("100", "101");
        let env = stub_env("wrong", &format!("echo '{wrong}'"), Duration::from_secs(10));
        golden_for(&env, GOOD);
        let out = run(&env);
        assert_eq!((out.attempted, out.failed), (1, 1));
        assert!(
            out.failures[0].contains("makespan: 100 -> 101"),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn a_hang_is_killed_and_counted() {
        let env = stub_env("hang", "exec sleep 30", Duration::from_millis(300));
        golden_for(&env, GOOD);
        let out = run(&env);
        assert_eq!((out.attempted, out.failed), (1, 1));
        assert!(out.failures[0].contains("timed out"), "{:?}", out.failures);
    }

    #[test]
    fn an_unparsable_report_fails() {
        let env = stub_env("garbage", "echo not-json", Duration::from_secs(10));
        golden_for(&env, GOOD);
        let out = run(&env);
        assert_eq!(out.failed, 1);
        assert!(out.failures[0].contains("unparsable"), "{:?}", out.failures);
    }

    #[test]
    fn repetitions_must_be_byte_identical() {
        // Correct facts, but the title changes from one invocation to the
        // next: without a golden only the identity check can catch it.
        let script = r#"n=$(cat "$0.n" 2>/dev/null || echo 0); echo $((n+1)) > "$0.n"
echo "{\"title\":\"run $n\",\"makespan\":100,\"sched\":{\"events_dispatched\":7}}""#;
        let env = stub_env("drift", script, Duration::from_secs(10));
        let mut seeded = fib();
        seeded.seeded = true;
        let out = measure(&env, &seeded, 1, 1, Stop::Reps(3));
        let _ = std::fs::remove_dir_all(&env.target_dir);
        assert!(!out.golden_checked);
        assert_eq!((out.attempted, out.failed), (4, 2), "{:?}", out.failures);
        assert!(out.failures[0].contains("differs from the first"));
    }
}
