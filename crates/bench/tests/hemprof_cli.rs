//! CLI contract tests for the `hemprof` binary — in particular the
//! documented exit codes of `hemprof diff`:
//!
//! * 0 — reports compared (even when the numbers differ);
//! * 1 — an input is unreadable or not a rollup JSON;
//! * 2 — usage error (missing operands, missing or unparsable flag
//!   values);
//! * 3 — the reports profile different kernels or machine sizes.
//!
//! CI keys on 3 vs 1: a mismatch means "this delta is meaningless",
//! while 1 means the tool or its inputs are broken.

use std::path::PathBuf;
use std::process::{Command, Output};

fn hemprof(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hemprof"))
        .args(args)
        .output()
        .expect("spawn hemprof")
}

/// Run a kernel with `--report json` and park the report in a temp file.
fn report_to_file(args: &[&str], name: &str) -> PathBuf {
    let out = hemprof(args);
    assert!(
        out.status.success(),
        "kernel run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = std::env::temp_dir().join(format!("hemprof_cli_{}_{name}", std::process::id()));
    std::fs::write(&path, &out.stdout).expect("write report");
    path
}

#[test]
fn diff_exit_codes_distinguish_mismatch_from_breakage() {
    let a = report_to_file(
        &["sor", "--p", "4", "--size", "8", "--report", "json"],
        "a.json",
    );
    let a2 = report_to_file(
        &["sor", "--p", "4", "--size", "8", "--report", "json"],
        "a2.json",
    );
    let b = report_to_file(
        &["sor", "--p", "16", "--size", "8", "--report", "json"],
        "b.json",
    );

    // Same configuration: a zero-delta diff, exit 0.
    let out = hemprof(&["diff", a.to_str().unwrap(), a2.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "identical configs diff cleanly");

    // Different machine size: documented mismatch code 3, with the
    // refusal explained on stderr.
    let out = hemprof(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "p=4 vs p=16 is a mismatch");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("refusing to diff mismatched runs"),
        "stderr explains the refusal"
    );

    // Unreadable input: I/O failure, exit 1 — not 3.
    let missing = std::env::temp_dir().join("hemprof_cli_definitely_missing.json");
    let out = hemprof(&["diff", a.to_str().unwrap(), missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "missing file is breakage");

    // Invalid JSON: also breakage, exit 1.
    let garbage = std::env::temp_dir().join(format!("hemprof_cli_{}_garbage", std::process::id()));
    std::fs::write(&garbage, "not json at all").expect("write garbage");
    let out = hemprof(&["diff", a.to_str().unwrap(), garbage.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "unparsable input is breakage");

    // Missing operand: usage error, exit 2.
    let out = hemprof(&["diff", a.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "missing operand is usage");

    for p in [a, a2, b, garbage] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn unknown_kernel_is_a_usage_error() {
    let out = hemprof(&["nosuchkernel"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn profile_shard_map_is_observationally_invisible() {
    // `--shard-map profile` re-cuts the shard boundaries by pilot busy
    // time — under either threaded executor — and the JSON report
    // (makespan, traffic, every rollup cell) must be byte-identical to
    // the default even map, up to the trailing `speculative`/`sched`
    // host-diagnostics sections (rollback patterns follow the partition).
    let invariant = |out: &Output| -> String {
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let cut = text.find(",\"speculative\":").unwrap_or(text.len());
        text[..cut].to_string()
    };
    for executor in [&[] as &[&str], &["--speculative"]] {
        let base = [
            &["sor", "--p", "4", "--size", "8", "--threads", "2"],
            executor,
            &["--report", "json"],
        ]
        .concat();
        let even = hemprof(&base);
        let prof = hemprof(&[&base[..], &["--shard-map", "profile"]].concat());
        assert!(even.status.success() && prof.status.success());
        assert_eq!(
            invariant(&even),
            invariant(&prof),
            "{executor:?}: profile-guided map changed an observable"
        );
        assert!(
            String::from_utf8_lossy(&prof.stderr).contains("profile-guided shard map"),
            "{executor:?}: pilot run announced on stderr"
        );
    }
}

/// A flag that is present with a missing or unparsable value is a usage
/// error (one line on stderr, exit 2) — never a silent fall-back to the
/// default — in `hemprof` and in the table binaries alike.
#[test]
fn bad_flag_values_are_usage_errors() {
    let table4 = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_table4"))
            .args(args)
            .output()
            .expect("spawn table4")
    };
    for out in [
        hemprof(&["sor", "--threads", "banana"]),
        hemprof(&["sor", "--threads"]),
        hemprof(&["serve", "--until", "soon"]),
        table4(&["--n", "banana"]),
        table4(&["--iters"]),
    ] {
        assert_eq!(out.status.code(), Some(2), "bad value exits 2");
        assert!(out.stdout.is_empty(), "nothing ran");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "one line on stderr: {err:?}");
    }
}

/// A `--flag` nothing looks up is a usage error too (the first one is
/// named on stderr, exit 2), before anything runs — not a silent no-op.
#[test]
fn unknown_flags_are_usage_errors() {
    let table4 = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_table4"))
            .args(args)
            .output()
            .expect("spawn table4")
    };
    for out in [
        hemprof(&["sor", "--p", "4", "--bogus-flag", "3"]),
        hemprof(&["serve", "--until", "20000", "--bogus-flag"]),
        hemprof(&["diff", "a.json", "b.json", "--bogus-flag"]),
        table4(&["--n", "16", "--bogus-flag"]),
    ] {
        assert_eq!(out.status.code(), Some(2), "unknown flag exits 2");
        assert!(out.stdout.is_empty(), "nothing ran");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "one line on stderr: {err:?}");
        assert!(err.contains("unknown flag '--bogus-flag'"), "{err:?}");
    }
    // A repeated known flag is not an unknown one (the first value wins).
    let out = hemprof(&["sor", "--p", "4", "--size", "8", "--p", "16"]);
    assert!(out.status.success(), "repeated flag still runs");
}

/// A service run that traps (here: a bursty overload drives a
/// non-blocking call chain past the sequential depth limit) ends with one
/// `hemprof: trap…` line and exit 1 — not a panic backtrace and 101.
#[test]
fn trapped_service_run_exits_1_with_one_line() {
    for sub in ["serve", "blame"] {
        let out = hemprof(&[
            sub,
            "--arrival",
            "bursty",
            "--rate",
            "40",
            "--until",
            "2000000",
        ]);
        assert_eq!(out.status.code(), Some(1), "{sub}: a trap exits 1");
        assert!(out.stdout.is_empty(), "{sub}: no report for a trapped run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{sub}: one line: {err:?}");
        assert!(
            err.starts_with("hemprof: trap") && err.contains("sequential depth limit"),
            "{sub}: {err:?}"
        );
    }
}
