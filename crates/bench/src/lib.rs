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
//! `table3`–`table6` take `--full` to run at paper scale (slow) and print
//! the scaled defaults otherwise. `benches/ablations.rs` is a plain
//! `main` run by `cargo bench` that reports the design ablations in
//! simulated cycles; host-time benchmarking of the runtime itself is
//! `benchmark/` (hembench), not here.
//!
//! Every binary declares its flags once, in a [`flags!`] table that
//! [`Args::parse`] checks the command line against and [`usage`] prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;
pub mod profile;
pub mod report;
pub mod serve;

/// What a flag's value must be.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// No value: the flag is present or not.
    Bare,
    /// An integer in `min..=max`; `max` is at most the largest value of
    /// the type [`Args::get`] reads it as.
    Int(u64, u64),
    /// A number no smaller than the bound (and not NaN).
    Float(f64),
    /// One of a fixed set of words. Each entry is one choice, with its
    /// aliases separated by `|`; [`Args::pick`] maps it by position.
    Choice(&'static [&'static str]),
    /// A file path.
    Path,
}

/// One command-line flag, declared once: the command line is checked
/// against it, the usage text prints it, and the typed lookups take it.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// `--name`.
    pub name: &'static str,
    /// What its value must be.
    pub kind: Kind,
    /// The subcommands that take it, as a set of the bits the binary
    /// gives its subcommands ([`ALL`] in a binary without subcommands).
    pub on: u32,
    /// One line of usage text.
    pub help: &'static str,
}

/// [`Flag::on`] for every subcommand.
pub const ALL: u32 = u32::MAX;

/// A [`Flag`], for the one-line entries of a [`flags!`] table.
pub const fn flag(name: &'static str, kind: Kind, on: u32, help: &'static str) -> Flag {
    Flag {
        name,
        kind,
        on,
        help,
    }
}

/// `--full`, which the four kernel tables share.
pub const FULL: Flag = flag("--full", Kind::Bare, ALL, "paper-scale inputs (slow)");

/// `--iters`, which `table4`, `table6` and `hemprof` share.
pub const ITERS: Flag = flag("--iters", Kind::Int(0, u32::MAX as u64), ALL, "iterations");

/// A binary's flag table: `TABLE: NAME = flag(..); ...` makes each entry
/// a [`Flag`] constant for the typed lookups and `TABLE` the list of all
/// of them, in the order the usage text prints them.
#[macro_export]
macro_rules! flags {
    ($table:ident: $($id:ident = $flag:expr;)*) => {
        $(const $id: $crate::Flag = $flag;)*
        const $table: &[$crate::Flag] = &[$($id),*];
    };
}

impl Flag {
    /// Is `v` a value this flag takes? The error is the reason it is not.
    fn check(&self, v: &str) -> Result<(), String> {
        let invalid = || format!("invalid value '{v}'");
        match self.kind {
            Kind::Bare | Kind::Path => Ok(()),
            Kind::Int(min, max) => match v.parse::<u64>().map_err(|_| invalid())? {
                n if n < min => Err(format!("{n} is out of range (at least {min})")),
                n if n > max => Err(format!("{n} is out of range (at most {max})")),
                _ => Ok(()),
            },
            Kind::Float(min) => match v.parse::<f64>().map_err(|_| invalid())? {
                x if x >= min => Ok(()),
                _ => Err(format!("{v} is out of range (at least {min})")),
            },
            Kind::Choice(_) if self.choice(v).is_some() => Ok(()),
            Kind::Choice(words) => Err(format!("{} (expected {})", invalid(), words.join("|"))),
        }
    }

    /// The position of the entry `v` names, for a [`Kind::Choice`] flag.
    fn choice(&self, v: &str) -> Option<usize> {
        let Kind::Choice(words) = self.kind else {
            panic!("{} is not a choice", self.name)
        };
        words.iter().position(|w| w.split('|').any(|w| w == v))
    }

    /// The flag as usage spells it: its name and a placeholder for its value.
    fn synopsis(&self) -> String {
        match self.kind {
            Kind::Bare => self.name.to_string(),
            Kind::Int(..) => format!("{} N", self.name),
            Kind::Float(_) => format!("{} X", self.name),
            Kind::Choice(words) => format!("{} {}", self.name, words.join("|")),
            Kind::Path => format!("{} FILE", self.name),
        }
    }
}

/// The usage text of a subcommand: `usage: synopsis`, then one line for
/// each flag of `flags` it takes (`on`).
pub fn usage(flags: &[Flag], on: u32, synopsis: &str) -> String {
    let taken: Vec<_> = flags.iter().filter(|f| f.on & on != 0).collect();
    let width = taken.iter().map(|f| f.synopsis().len()).max().unwrap_or(0);
    let mut text = format!("usage: {synopsis}\n");
    for f in taken {
        text += &format!("  {:<width$}  {}\n", f.synopsis(), f.help);
    }
    text
}

/// A command line checked against a flag table: every flag known and
/// taken by the subcommand, every value present, well-formed and in
/// range, the operands counted. Lookups on it cannot fail.
pub struct Args {
    /// Each flag given, with the first value it was given (`""` for a
    /// bare flag; a repeated flag keeps its first value).
    given: Vec<(&'static str, String)>,
    /// The positional arguments, in order.
    pub operands: Vec<String>,
}

impl Args {
    /// Check `args` — the command line after the binary's name and
    /// subcommand — against `flags`, for the subcommand `sub` (its name
    /// and its [`Flag::on`] bit), which takes exactly `operands`
    /// positional arguments. The error is the one line to print.
    pub fn parse(
        flags: &[Flag],
        sub: (&str, u32),
        operands: usize,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut parsed = Args {
            given: Vec::new(),
            operands: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                parsed.operands.push(arg);
                continue;
            }
            let Some(flag) = flags.iter().find(|f| f.name == arg) else {
                return Err(format!("unknown flag '{arg}'"));
            };
            if flag.on & sub.1 == 0 {
                return Err(format!("{arg} does not apply to {}", sub.0));
            }
            let value = match flag.kind {
                Kind::Bare => String::new(),
                _ => args.next().ok_or_else(|| format!("{arg} needs a value"))?,
            };
            flag.check(&value).map_err(|e| format!("{arg}: {e}"))?;
            if parsed.value(flag).is_none() {
                parsed.given.push((flag.name, value));
            }
        }
        match parsed.operands.get(operands) {
            Some(extra) => Err(format!("unexpected argument '{extra}'")),
            None if parsed.operands.len() < operands => {
                Err(format!("{} takes {operands} operands", sub.0))
            }
            None => Ok(parsed),
        }
    }

    /// The process's command line, for a binary without subcommands or
    /// operands; one that does not check out is a [`usage_error`].
    pub fn capture(flags: &[Flag]) -> Args {
        Args::parse(flags, ("", ALL), 0, std::env::args().skip(1))
            .unwrap_or_else(|e| usage_error(&e))
    }

    fn value(&self, flag: &Flag) -> Option<&str> {
        let given = self.given.iter().find(|(name, _)| *name == flag.name);
        given.map(|(_, v)| v.as_str())
    }

    /// Was a bare flag given?
    pub fn has(&self, flag: &Flag) -> bool {
        self.value(flag).is_some()
    }

    /// The flag's value as a `T`; `None` when it was not given.
    pub fn get<T: std::str::FromStr>(&self, flag: &Flag) -> Option<T> {
        let v = self.value(flag)?;
        let parsed = v.parse().ok();
        Some(parsed.unwrap_or_else(|| panic!("{}: '{v}' passed its check", flag.name)))
    }

    /// Overwrite `slot` with the flag's value, when it was given.
    pub fn set<T: std::str::FromStr>(&self, flag: &Flag, slot: &mut T) {
        if let Some(v) = self.get(flag) {
            *slot = v;
        }
    }

    /// `values[i]` for the `i`-th choice of a [`Kind::Choice`] flag, the
    /// first when the flag was not given.
    pub fn pick<T, const N: usize>(&self, flag: &Flag, values: [T; N]) -> T {
        let i = self
            .value(flag)
            .map_or(0, |v| flag.choice(v).expect("checked"));
        values.into_iter().nth(i).expect("one value per choice")
    }
}

/// A usage error: one line on stderr, prefixed with the binary's name,
/// and exit 2.
pub fn usage_error(what: &str) -> ! {
    let argv0 = std::env::args().next().unwrap_or_default();
    let bin = std::path::Path::new(&argv0)
        .file_name()
        .map_or(argv0.clone(), |n| n.to_string_lossy().into_owned());
    eprintln!("{bin}: {what}");
    std::process::exit(2)
}
