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

use hem_obs::json::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn hemprof(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hemprof"))
        .args(args)
        .output()
        .expect("spawn hemprof")
}

/// A path in the temp directory that no other test (or test process)
/// uses; nothing is created.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hemprof_cli_{}_{name}", std::process::id()))
}

/// Run a kernel with `--report json` and park the report in a temp file.
fn report_to_file(args: &[&str], name: &str) -> PathBuf {
    let out = hemprof(args);
    assert!(
        out.status.success(),
        "kernel run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = temp_path(name);
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
fn diff_shows_a_null_latency_as_na() {
    // Nothing completes by cycle 300: the blame section's quantiles are
    // null, and the diff must not compare them as zeros.
    let empty = ["blame", "--p", "4", "--until", "300", "--warmup", "0"];
    let busy = ["blame", "--p", "4", "--until", "6000", "--warmup", "1000"];
    let a = report_to_file(&[&empty[..], &["--report", "json"]].concat(), "empty.json");
    let b = report_to_file(&[&busy[..], &["--report", "json"]].concat(), "busy.json");
    let out = hemprof(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "same kernel and size");
    let text = String::from_utf8_lossy(&out.stdout);
    for row in ["sojourn p50", "sojourn p99"] {
        let line = text.lines().find(|l| l.contains(row)).expect(row);
        let cells: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(cells[2], "n/a", "A has no {row}: {line}");
        assert!(cells[4].parse::<u64>().is_ok(), "B has one: {line}");
        assert_eq!(cells.len(), 5, "no delta against a missing value: {line}");
    }
    let completed = text.lines().find(|l| l.contains("completed")).unwrap();
    assert!(
        completed.contains("0 ->"),
        "counts still compare: {completed}"
    );
    for path in [a, b] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn unknown_kernel_is_a_usage_error() {
    let out = hemprof(&["nosuchkernel"]);
    assert_eq!(out.status.code(), Some(2));
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
///
/// Nor does it leave a Perfetto file behind: the destination is opened
/// before the run (a file hemprof created is removed again; one that was
/// already there is emptied — it must not pass for this run's trace).
#[test]
fn trapped_service_run_exits_1_with_one_line() {
    for (sub, preexisting) in [("serve", false), ("blame", true)] {
        let trace = temp_path(&format!("trapped_{sub}.json"));
        if preexisting {
            std::fs::write(&trace, "an older run's trace").expect("write old trace");
        }
        let out = hemprof(&[
            sub,
            "--arrival",
            "bursty",
            "--rate",
            "40",
            "--until",
            "2000000",
            "--perfetto",
            trace.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(1), "{sub}: a trap exits 1");
        assert!(out.stdout.is_empty(), "{sub}: no report for a trapped run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{sub}: one line: {err:?}");
        assert!(
            err.starts_with("hemprof: trap") && err.contains("sequential depth limit"),
            "{sub}: {err:?}"
        );
        if preexisting {
            let left = std::fs::read(&trace).expect("the file is the user's, not removed");
            assert!(left.is_empty(), "{sub}: the stale trace is gone");
            let _ = std::fs::remove_file(&trace);
        } else {
            assert!(!trace.exists(), "{sub}: a failed run leaves no file");
        }
    }
}

/// `--perfetto FILE` is touched only once the command line is known to
/// be valid, and a write that cannot succeed is one `cannot write` line
/// and exit 1: before the run when the path cannot be opened, at write
/// time when the device fills up (the streamed writer's error, which may
/// only surface at its final flush).
#[test]
fn perfetto_destination_failures() {
    let cannot_write = |out: &Output, path: &str| {
        assert_eq!(out.status.code(), Some(1), "{path}: exit 1");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{path}: one line: {err:?}");
        assert!(
            err.starts_with(&format!("hemprof: cannot write {path}: ")),
            "{path}: {err:?}"
        );
    };

    // A usage error: nothing created, and an existing file left alone.
    let trace = temp_path("usage.json");
    let args = ["sor", "--perfetto", trace.to_str().unwrap(), "--bogus"];
    let bad_value = ["sor", "--perfetto", args[2], "--mode", "bogus"];
    for args in [&args[..], &bad_value[..]] {
        assert_eq!(hemprof(args).status.code(), Some(2), "{args:?}");
        assert!(!trace.exists(), "{args:?}: a usage error creates no file");
    }
    std::fs::write(&trace, "an older run's trace").expect("write old trace");
    assert_eq!(hemprof(&args).status.code(), Some(2));
    assert_eq!(
        std::fs::read(&trace).expect("still there"),
        b"an older run's trace",
        "a usage error touches nothing"
    );
    let _ = std::fs::remove_file(&trace);

    let nowhere = "/nonexistent-dir/x.json";
    let out = hemprof(&["sor", "--p", "4", "--size", "8", "--perfetto", nowhere]);
    cannot_write(&out, nowhere);
    assert!(out.stdout.is_empty(), "refused before the run");

    let full = "/dev/full";
    if std::path::Path::new(full).exists() {
        let out = hemprof(&["sor", "--p", "4", "--size", "8", "--perfetto", full]);
        cannot_write(&out, full);
        assert!(!out.stdout.is_empty(), "refused at write time");
        assert!(
            std::path::Path::new(full).exists(),
            "not hemprof's to remove"
        );
    }
}

/// `--ring N` is what it was: the rollup report streams past the ring
/// and stays exact, while `--perfetto` and `--critical-path` describe the
/// ring's contents, under a loud banner.
#[test]
fn ring_mode_truncates_the_exports_not_the_report() {
    let (ringed, whole) = (temp_path("ring.json"), temp_path("whole.json"));
    let run = |trace: &PathBuf, ring: &[&str]| {
        let base = ["md", "--report", "json", "--critical-path", "--perfetto"];
        let out = hemprof(&[&base[..], &[trace.to_str().unwrap()], ring].concat());
        assert_eq!(out.status.code(), Some(0), "ring {ring:?}");
        let stdout = String::from_utf8(out.stdout).expect("UTF-8");
        let report = stdout.lines().next().expect("a report line").to_string();
        let path = stdout[report.len()..].to_string();
        let doc = Json::parse(&std::fs::read_to_string(trace).expect("trace written"))
            .expect("valid Perfetto JSON");
        let slices = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .map_or(0, |e| {
                e.iter()
                    .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
                    .count()
            });
        let _ = std::fs::remove_file(trace);
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        (report, path, slices, err)
    };
    let (report, path, slices, err) = run(&ringed, &["--ring", "64"]);
    let (whole_report, whole_path, whole_slices, whole_err) = run(&whole, &[]);

    assert!(err.contains("TRUNCATED"), "banner: {err:?}");
    assert!(!whole_err.contains("TRUNCATED"), "{whole_err:?}");
    let doc = Json::parse(&report).expect("report JSON");
    let dropped = doc.get("dropped_events").and_then(Json::as_num);
    assert!(dropped > Some(0.0), "evictions are counted: {dropped:?}");
    assert_eq!(doc.get("truncated").and_then(Json::as_bool), Some(true));
    assert_eq!(
        report.replace(
            &format!("\"dropped_events\":{},\"truncated\":true", dropped.unwrap()),
            "\"dropped_events\":0,\"truncated\":false"
        ),
        whole_report,
        "nothing else in the report knows about the ring"
    );
    assert!(
        0 < slices && slices < whole_slices,
        "the export is the ring's: {slices} of {whole_slices} slices"
    );
    assert_ne!(path, whole_path, "and so is the critical path");
}

/// `--events` prints every record of the run, one per line after the
/// report. The count to expect comes from a ring of ten: what it evicted,
/// plus the ten.
#[test]
fn events_dump_every_record() {
    let small = ["sor", "--p", "4", "--size", "8"];
    let ring = hemprof(&[&small[..], &["--ring", "10", "--report", "json"]].concat());
    let doc = Json::parse(String::from_utf8_lossy(&ring.stdout).trim()).expect("report JSON");
    let evicted = doc.get("dropped_events").and_then(Json::as_num);
    let records = evicted.expect("counted") as usize + 10;

    let out = hemprof(&[&small[..], &["--events"]].concat());
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // `<time, padded to 12> n<node> ...`
    let dumped = stdout.lines().filter(|l| {
        let stamp = l.get(..12).map(str::trim_end);
        stamp.is_some_and(|t| t.parse::<u64>().is_ok()) && l[12..].starts_with(" n")
    });
    assert_eq!(dumped.count(), records, "one line per record");
    assert!(records > 100, "a real run");
}

/// The wide-backend service configuration the benchmark sizing once
/// tripped over runs to its horizon and reports.
#[test]
fn blame_with_128_backends_reports() {
    let out = hemprof(&[
        "blame",
        "--series",
        "--p",
        "32",
        "--backends",
        "128",
        "--rate",
        "200",
        "--until",
        "5000000",
        "--warmup",
        "500000",
        "--report",
        "json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("report JSON");
    let completed = doc.get("blame").and_then(|b| b.get("completed"));
    assert!(completed.and_then(Json::as_num) > Some(0.0));
}
