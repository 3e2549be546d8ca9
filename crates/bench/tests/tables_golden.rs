//! The paper's reproduced tables, pinned: every table binary's stdout must
//! match its committed golden byte for byte. The outputs are pure functions
//! of the simulator's virtual-time results (no host timings), so any diff
//! is a behaviour change — to accept one, replace the golden with the
//! `.actual` file this test leaves behind and say why in the PR.

use std::path::Path;
use std::process::Command;

/// Run `exe args` and compare its stdout with `tests/golden/<name>.txt`.
fn check(name: &str, exe: &str, args: &[&str]) {
    let out = Command::new(exe).args(args).output().expect("table runs");
    assert!(out.status.success(), "{name}: exit {:?}", out.status);
    let actual = String::from_utf8(out.stdout).expect("utf-8 table");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.txt"));
    let expected = std::fs::read_to_string(&golden).expect("committed golden");
    if actual == expected {
        return;
    }
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual"));
    std::fs::write(&path, &actual).expect("write .actual");
    let (a, e): (Vec<_>, Vec<_>) = (actual.lines().collect(), expected.lines().collect());
    // Equal lines throughout means only the final newline differs.
    let line = (0..a.len().max(e.len()))
        .find(|&i| a.get(i) != e.get(i))
        .unwrap_or(a.len());
    panic!(
        "{name}: stdout differs from {} at line {}\n  golden: {:?}\n  actual: {:?}\nfull output: {}",
        golden.display(),
        line + 1,
        e.get(line),
        a.get(line),
        path.display()
    );
}

#[test]
fn tables_match_their_goldens() {
    check("table1", env!("CARGO_BIN_EXE_table1"), &[]);
    check("table2", env!("CARGO_BIN_EXE_table2"), &[]);
    check("table3", env!("CARGO_BIN_EXE_table3"), &[]);
    // The 64-node SOR sweep takes a minute unoptimized; CI runs this
    // suite in release.
    if !cfg!(debug_assertions) {
        check("table4", env!("CARGO_BIN_EXE_table4"), &[]);
    }
    check("table5", env!("CARGO_BIN_EXE_table5"), &[]);
    check("table6", env!("CARGO_BIN_EXE_table6"), &[]);
    check("fig9", env!("CARGO_BIN_EXE_fig9"), &["--n", "32"]);
}
