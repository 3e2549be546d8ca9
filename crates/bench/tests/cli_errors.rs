//! Bad invocations of `hemprof` and the table binaries, pinned in the
//! golden-directory style: each file of `tests/cli_errors/` is one command
//! line and what it must do —
//!
//! ```text
//! $ <binary> <args...>
//! exit <code>
//! <the one line it prints on stderr>
//! ```
//!
//! Every case must end with that exit code and exactly that stderr line,
//! print nothing on stdout, and leave its working directory empty (a
//! `--perfetto trace.json` is created relative to it). Usage errors exit 2
//! before anything runs; a run that traps exits 1.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

/// The binary a case names.
fn exe(name: &str) -> &'static str {
    match name {
        "hemprof" => env!("CARGO_BIN_EXE_hemprof"),
        "table1" => env!("CARGO_BIN_EXE_table1"),
        "table2" => env!("CARGO_BIN_EXE_table2"),
        "table3" => env!("CARGO_BIN_EXE_table3"),
        "table4" => env!("CARGO_BIN_EXE_table4"),
        "table5" => env!("CARGO_BIN_EXE_table5"),
        "table6" => env!("CARGO_BIN_EXE_table6"),
        "fig9" => env!("CARGO_BIN_EXE_fig9"),
        _ => panic!("no binary {name}"),
    }
}

/// Run `bin args` in a fresh directory of its own, killed after a minute
/// (a bad value used to hang `fig9`); the output, and whatever the run
/// left in that directory.
fn run_in_empty_dir(tag: &str, bin: &str, args: &[&str]) -> (Output, Vec<PathBuf>) {
    let dir = std::env::temp_dir().join(format!("cli_errors_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the case directory");
    let (out, err) = (dir.with_extension("stdout"), dir.with_extension("stderr"));
    let mut child = Command::new(exe(bin))
        .args(args)
        .current_dir(&dir)
        .stdout(File::create(&out).expect("stdout file"))
        .stderr(File::create(&err).expect("stderr file"))
        .spawn()
        .expect("spawn");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("wait").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill();
    let output = Output {
        status: child.wait().expect("reap"),
        stdout: std::fs::read(&out).expect("read stdout"),
        stderr: std::fs::read(&err).expect("read stderr"),
    };
    let left = std::fs::read_dir(&dir)
        .expect("list the case directory")
        .map(|e| e.expect("entry").path())
        .collect();
    for path in [&out, &err] {
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_dir_all(&dir);
    (output, left)
}

#[test]
fn bad_invocations_fail_with_their_one_line() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/cli_errors");
    let mut cases: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/cli_errors")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    cases.sort();
    assert!(cases.len() >= 20, "{} cases", cases.len());

    let mut failures = Vec::new();
    for case in &cases {
        let name = case.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(case).expect("read case");
        let mut lines = text.lines();
        let mut spec = |prefix: &str| {
            let line = lines.next().unwrap_or_default();
            let rest = line.strip_prefix(prefix);
            rest.unwrap_or_else(|| panic!("{name}: expected a '{prefix}' line, got {line:?}"))
        };
        let argv: Vec<&str> = spec("$ ").split_whitespace().collect();
        let code: i32 = spec("exit ").parse().expect("an exit code");
        let stderr = format!("{}\n", spec(""));

        let (out, left) = run_in_empty_dir(&name, argv[0], &argv[1..]);
        let actual = String::from_utf8_lossy(&out.stderr);
        if out.status.code() != Some(code) || actual != stderr {
            failures.push(format!(
                "{name}: exit {:?}, stderr {actual:?}\n  expected exit {code}, stderr {stderr:?}",
                out.status.code()
            ));
        }
        if !out.stdout.is_empty() {
            failures.push(format!("{name}: printed on stdout"));
        }
        if !left.is_empty() {
            failures.push(format!("{name}: left {left:?} behind"));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// Every subcommand accepts exactly the flags its usage text prints: the
/// usage comes from the same table as the check, and this holds them to
/// each other from the outside.
#[test]
fn hemprof_usage_lists_exactly_the_flags_each_subcommand_takes() {
    let (out, _) = run_in_empty_dir("usage", "hemprof", &[]);
    assert_eq!(out.status.code(), Some(2), "no subcommand is a usage error");
    let usage = String::from_utf8(out.stderr).expect("UTF-8");

    // One block per `usage: hemprof <subcommands>` line, with the flags
    // listed under it.
    let mut blocks: Vec<(Vec<String>, Vec<String>)> = Vec::new();
    for line in usage.lines() {
        if let Some(synopsis) = line.strip_prefix("usage: hemprof ") {
            let subs = synopsis.split_whitespace().next().expect("subcommands");
            let subs = subs.trim_matches(|c| c == '<' || c == '>').split('|');
            blocks.push((subs.map(String::from).collect(), Vec::new()));
        } else if let Some(flag) = line.strip_prefix("  --") {
            let flag = flag.split_whitespace().next().expect("a flag");
            blocks
                .last_mut()
                .expect("a block")
                .1
                .push(format!("--{flag}"));
        }
    }
    let mut all: Vec<&String> = blocks.iter().flat_map(|b| &b.1).collect();
    all.sort();
    all.dedup();
    let block = |sub: &str| blocks.iter().find(|b| b.0.iter().any(|s| s == sub));
    let sizes = ["sor", "serve", "diff"].map(|s| block(s).expect(s).1.len());
    assert_eq!((all.len(), sizes), (29, [15, 25, 0]), "{usage}");

    for (subs, printed) in &blocks {
        for sub in subs {
            for flag in &all {
                // A trailing `--p 0` keeps an accepted flag from running
                // anything: the command line still fails its check.
                let (out, left) = run_in_empty_dir("probe", "hemprof", &[sub, flag, "--p", "0"]);
                let err = String::from_utf8_lossy(&out.stderr);
                assert_eq!(out.status.code(), Some(2), "{sub} {flag}: {err}");
                assert!(out.stdout.is_empty() && left.is_empty(), "{sub} {flag} ran");
                let accepted = !err.contains(&format!("{flag} does not apply"));
                assert_eq!(
                    accepted,
                    printed.contains(flag),
                    "{sub} {flag}: usage and check disagree: {err}"
                );
            }
        }
    }
}
