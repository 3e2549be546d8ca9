//! # hem-bench — harnesses regenerating the paper's evaluation
//!
//! One binary per table/figure of the SC'95 paper:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — invocation schemas selected per method |
//! | `table2` | Table 2 — call + fallback overheads per caller×callee schema |
//! | `table3` | Table 3 — sequential times: hybrid (1/2/3 interfaces), parallel-only, Seq-opt, C |
//! | `table4` | Table 4 — SOR on 64 nodes, block-size sweep, CM-5 + T3D |
//! | `table5` | Table 5 — MD-Force, random vs spatial layout, CM-5 + T3D |
//! | `table6` | Table 6 — EM3D pull/push/forward, low/high locality, CM-5 + T3D |
//! | `fig9`   | Fig. 9 — SOR heap contexts vs block perimeter |
//!
//! All binaries take `--full` to run at paper scale (slow) and print the
//! scaled defaults otherwise. The `benches/` directory adds three
//! criterion groups — `schemas`, `kernels` and the `ablations` harness;
//! host-time benchmarking of the runtime itself is `benchmark/`
//! (hembench), not here.

#![warn(missing_docs)]

pub mod micro;
pub mod profile;
pub mod report;
pub mod serve;

use hem_analysis::InterfaceSet;
use hem_core::{ExecMode, Runtime};
use hem_ir::Program;
use hem_machine::cost::CostModel;

/// Construct a runtime or abort with the validation errors.
pub fn rt(
    program: Program,
    nodes: u32,
    cost: CostModel,
    mode: ExecMode,
    ifaces: InterfaceSet,
) -> Runtime {
    hem_apps::make_runtime(program, nodes, cost, mode, ifaces)
}

/// Flag scanner for the harness binaries: `has("--full")`, `get("--n")`,
/// then [`Args::finish`] once everything has been looked up — a flag no
/// lookup asked for is a usage error, not a silent no-op.
pub struct Args {
    argv: Vec<String>,
    /// `consumed[i]` — has a lookup matched `argv[i]` (as a flag or as a
    /// flag's value)?
    consumed: std::cell::RefCell<Vec<bool>>,
}

impl Args {
    /// Capture the process arguments.
    pub fn capture() -> Self {
        let argv: Vec<String> = std::env::args().collect();
        Args {
            consumed: std::cell::RefCell::new(vec![false; argv.len()]),
            argv,
        }
    }

    /// Position of the first `flag`; every occurrence counts as consumed
    /// (a repeated flag is not an unknown one).
    fn find(&self, flag: &str) -> Option<usize> {
        let mut consumed = self.consumed.borrow_mut();
        let mut first = None;
        for (i, a) in self.argv.iter().enumerate() {
            if a == flag {
                consumed[i] = true;
                first = first.or(Some(i));
            }
        }
        first
    }

    /// Is a bare flag present?
    pub fn has(&self, flag: &str) -> bool {
        self.find(flag).is_some()
    }

    /// Value of `--key <v>`, parsed; `None` when the flag is absent. A
    /// flag that is present with a missing or unparsable value is a usage
    /// error: one line on stderr, exit 2 (never a silent default).
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        let i = self.find(key)?;
        let Some(v) = self.argv.get(i + 1) else {
            bad_value(&self.argv[0], &format!("{key} needs a value"));
        };
        self.consumed.borrow_mut()[i + 1] = true;
        match v.parse() {
            Ok(parsed) => Some(parsed),
            Err(_) => bad_value(&self.argv[0], &format!("{key}: invalid value '{v}'")),
        }
    }

    /// The first `--flag` on the command line that no [`Self::has`] or
    /// [`Self::get`] has asked for.
    fn unknown(&self) -> Option<&str> {
        let consumed = self.consumed.borrow();
        (1..self.argv.len())
            .find(|&i| !consumed[i] && self.argv[i].starts_with("--"))
            .map(|i| self.argv[i].as_str())
    }

    /// Call once every flag the binary understands has been looked up:
    /// an unknown `--flag` is a usage error (one line on stderr, exit 2).
    pub fn finish(&self) {
        if let Some(flag) = self.unknown() {
            bad_value(&self.argv[0], &format!("unknown flag '{flag}'"));
        }
    }
}

fn bad_value(argv0: &str, what: &str) -> ! {
    let bin = std::path::Path::new(argv0)
        .file_name()
        .map_or(argv0.into(), |n| n.to_string_lossy());
    eprintln!("{bin}: {what}");
    std::process::exit(2)
}

impl Default for Args {
    fn default() -> Self {
        Self::capture()
    }
}
