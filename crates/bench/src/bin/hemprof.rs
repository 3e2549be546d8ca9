//! `hemprof` — profile an app kernel on the simulated machine.
//!
//! Runs one of the four paper kernels (closed system, to quiescence) or
//! the open-system service mix (`serve`, to a virtual-time horizon) with
//! its outputs attached as consumers of the trace-record stream, and
//! prints a Table-style rollup report; optionally exports a Perfetto
//! timeline and the virtual-time critical path. `hemprof blame` is
//! `serve` with the per-request blame tracker attached: the report gains
//! a section decomposing each request's sojourn into queue/exec/wire/
//! lock/retx segments that tile it exactly, a p99-tail view, and the
//! slowest requests. `hemprof diff A.json B.json` compares two
//! `--report json` rollups row by row.
//!
//! Every flag is declared once, in [`FLAGS`]: `hemprof` without arguments
//! prints the usage of each subcommand from it, and a command line is
//! checked against it before anything runs — an unknown or misplaced
//! flag, or a missing, unparsable or out-of-range value, is one line on
//! stderr and exit 2. So is a configuration the kernel cannot run
//! ([`ProfileConfig::check`], [`ServeConfig::check`]).
//!
//! Records are consumed, not stored. Every output is an observer of the
//! record stream: the report's rollup (and `blame`'s tracker, `--series`'
//! collector) always, the timeline builder when `--perfetto` or
//! `--critical-path` asks for a timeline, which is then written to FILE
//! event by event. A run keeps raw records only for the two outputs that
//! read them: `--events` (all of them, 48 bytes each — small runs only)
//! and `--ring N` (the last N). Under `--ring` the report still streams
//! past the ring and is exact, while `--events`, `--perfetto` and
//! `--critical-path` describe the ring's contents, under a TRUNCATED
//! banner when anything was evicted.
//!
//! `--perfetto FILE` is opened once the command line has been validated
//! and before the run; a run that fails — a trap is one `hemprof: trap…`
//! line and exit 1 — removes the file if it created it.
//!
//! `hemprof diff` exit codes: 0 — reports compared; 1 — an input is
//! unreadable or not a rollup JSON; 2 — usage error; 3 — the reports
//! profile different kernels or machine sizes (a configuration mismatch,
//! not a breakage — CI can tell "regression signal is meaningless" apart
//! from "the tool or its inputs are broken").
//!
//! Example: `hemprof serve --p 32 --rate 200 --deadline 4000 --report json`

use std::any::Any;
use std::fs::{File, OpenOptions};
use std::io::ErrorKind;

use hem_apps::em3d::Style;
use hem_bench::profile::{Kernel, ProfileConfig, TraceBuffer};
use hem_bench::serve::ServeConfig;
use hem_bench::Kind::{Bare, Choice, Float, Int, Path};
use hem_bench::{flag, usage, usage_error, Args, Flag};
use hem_core::{ExecMode, Observer, Runtime, Trap, MAX_NODES};
use hem_machine::arrival::ArrivalDist;
use hem_machine::cost::CostModel;
use hem_machine::fault::FaultPlan;
use hem_machine::Cycles;
use hem_obs::json::Json;
use hem_obs::{
    critpath, perfetto, Blame, Fanout, Report, Rollup, SegClass, Series, ServiceSummary,
    SpecSummary, Timeline, TimelineBuilder,
};

/// The subcommand groups, as [`Flag::on`] bits.
const KERNEL: u32 = 1;
const SERVICE: u32 = 2;
const DIFF: u32 = 4;
const RUNS: u32 = KERNEL | SERVICE;

const ARRIVALS: [&str; 3] = ["poisson", "bursty", "diurnal"];

hem_bench::flags! { FLAGS:
    P = flag("--p", Int(1, MAX_NODES as u64), RUNS, "machine size (default 16)");
    SIZE = flag("--size", Int(0, u32::MAX as u64), KERNEL, "problem size (kernel-specific default)");
    ITERS = Flag { on: KERNEL, help: "iterations (default 1)", ..hem_bench::ITERS };
    SEED = flag("--seed", Int(0, u64::MAX), RUNS, "generation / arrival seed (default 20260806)");
    LAYOUT = flag("--layout", Choice(&["spatial|high", "random|low"]), KERNEL, "MD layout / EM3D locality (default spatial)");
    STYLE = flag("--style", Choice(&["pull", "push", "forward"]), KERNEL, "EM3D communication style (default pull)");
    BACKENDS = flag("--backends", Int(1, u32::MAX as u64), SERVICE, "backend population (default 32)");
    UNTIL = flag("--until", Int(0, u64::MAX), SERVICE, "virtual-time horizon (default 100000)");
    WARMUP = flag("--warmup", Int(0, u64::MAX), SERVICE, "steady-state cutoff, below --until (default 10000)");
    RATE = flag("--rate", Float(1.0), SERVICE, "mean inter-arrival gap in cycles (default 500)");
    ARRIVAL = flag("--arrival", Choice(&ARRIVALS), SERVICE, "arrival process (default poisson)");
    CLIENTS = flag("--clients", Int(0, u32::MAX as u64), SERVICE, "independent arrival streams (default 4)");
    DEADLINE = flag("--deadline", Int(0, u64::MAX), SERVICE, "shed when infeasible at arrival (default 0 = off)");
    MAX_QUEUE = flag("--max-queue", Int(0, usize::MAX as u64), SERVICE, "shed when the target queue is this long (default 0 = off)");
    SERIES = flag("--series", Bare, SERVICE, "windowed virtual-time series (report + Perfetto counter tracks)");
    SERIES_WINDOW = flag("--series-window", Int(0, u64::MAX), SERVICE, "series window in cycles (default horizon/50; implies --series)");
    DROP = flag("--drop", Int(0, u16::MAX as u64), SERVICE, "fault plan: drop N permille of messages");
    DUP = flag("--dup", Int(0, u16::MAX as u64), SERVICE, "fault plan: duplicate N permille of deliveries");
    JITTER = flag("--jitter", Int(0, u64::MAX - 1), SERVICE, "fault plan: up to N cycles extra latency");
    FAULT_SEED = flag("--fault-seed", Int(0, u64::MAX), SERVICE, "fault-plan seed (default: the arrival seed)");
    MODE = flag("--mode", Choice(&["hybrid", "parallel|parallel-only"]), RUNS, "execution mode (default hybrid)");
    COST = flag("--cost", Choice(&["cm5", "t3d", "unit"]), RUNS, "cost model (default cm5)");
    THREADS = flag("--threads", Int(0, usize::MAX as u64), RUNS, "host worker threads (sharded executor; default 1)");
    SPECULATIVE = flag("--speculative", Bare, RUNS, "optimistic (Time-Warp) executor for --threads > 1");
    RING = flag("--ring", Int(0, usize::MAX as u64), RUNS, "keep the last N records, and export from them");
    REPORT = flag("--report", Choice(&["table", "json"]), RUNS, "report format (default table)");
    PERFETTO = flag("--perfetto", Path, RUNS, "write a Perfetto trace_event JSON timeline");
    CRITICAL_PATH = flag("--critical-path", Bare, RUNS, "print the longest virtual-time path");
    EVENTS = flag("--events", Bare, RUNS, "dump the raw event log (small runs only)");
}

fn print_usage() -> ! {
    for (on, synopsis) in [
        (KERNEL, "hemprof <sor|md|em3d|fib> [options]"),
        (SERVICE, "hemprof <serve|blame> [options]"),
        (DIFF, "hemprof diff A.json B.json"),
    ] {
        eprint!("{}", usage(FLAGS, on, synopsis));
    }
    eprintln!("blame: serve with per-request latency blame; diff: two --report json rollups");
    eprintln!("every output streams off the run; raw records are kept only for --events");
    eprintln!("(all) and --ring N (the last N, which the exports then describe)");
    std::process::exit(2);
}

/// What to print and export once the run is over.
struct Output {
    json: bool,
    events: bool,
    critical_path: bool,
    perfetto: Option<PerfettoDest>,
}

impl Output {
    fn parse(args: &Args) -> Output {
        Output {
            json: args.pick(&REPORT, [false, true]),
            events: args.has(&EVENTS),
            critical_path: args.has(&CRITICAL_PATH),
            perfetto: args
                .get(&PERFETTO)
                .map(|path| PerfettoDest { path, file: None }),
        }
    }

    fn needs_timeline(&self) -> bool {
        self.critical_path || self.perfetto.is_some()
    }

    /// Where the raw records go. Only two things read them: the bounded
    /// ring the user asked for, and the `--events` dump. Everything else
    /// hemprof prints is built by an observer as the records stream past.
    fn buffer(&self, ring: Option<usize>) -> TraceBuffer {
        match ring {
            Some(cap) => TraceBuffer::Ring(cap),
            None if self.events => TraceBuffer::Unbounded,
            None => TraceBuffer::Off,
        }
    }

    /// The stream consumers of one run behind the runtime's one observer
    /// slot: the rollup (always), the timeline builder when an export
    /// needs a timeline — unless `--ring` asked for the timeline of the
    /// ring's contents, which [`emit`] builds from the drained ring — and
    /// whatever the subcommand adds.
    fn observers(
        &self,
        buffer: TraceBuffer,
        nodes: u32,
        extra: impl IntoIterator<Item = Box<dyn Observer>>,
    ) -> Box<dyn Observer> {
        let mut fan = Fanout::new().with(Box::new(Rollup::new()));
        if self.needs_timeline() && !matches!(buffer, TraceBuffer::Ring(_)) {
            fan = fan.with(Box::new(TimelineBuilder::new(nodes as usize)));
        }
        for obs in extra {
            fan = fan.with(obs);
        }
        Box::new(fan)
    }
}

/// `--perfetto FILE`. Only a path until [`PerfettoDest::open`]; from then
/// on, dropping it with the file still inside removes a file it created,
/// so a run that fails (a trap, a panic, a write error) leaves nothing
/// behind that was not there before.
struct PerfettoDest {
    path: String,
    /// The open destination, and whether opening it created it.
    file: Option<(File, bool)>,
}

impl PerfettoDest {
    fn open(mut self) -> PerfettoDest {
        let mut open = OpenOptions::new();
        open.write(true);
        let file = match open.clone().create_new(true).open(&self.path) {
            Ok(file) => Ok((file, true)),
            // Something is there already (an old trace, a device): it is
            // emptied now rather than left to pass for this run's output.
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                open.truncate(true).open(&self.path).map(|f| (f, false))
            }
            Err(e) => Err(e),
        };
        match file {
            Ok(file) => self.file = Some(file),
            Err(e) => self.cannot_write(&e),
        }
        self
    }

    /// A failed open or write: one line, exit 1 — dropping `self` first,
    /// because `exit` would not.
    fn cannot_write(self, e: &std::io::Error) -> ! {
        eprintln!("hemprof: cannot write {}: {e}", self.path);
        drop(self);
        std::process::exit(1);
    }
}

impl Drop for PerfettoDest {
    fn drop(&mut self) {
        if let Some((_, true)) = self.file {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// One run: a kernel to quiescence, or the service mix to its horizon.
enum Job {
    Kernel(ProfileConfig),
    Serve {
        cfg: ServeConfig,
        /// Attach the blame tracker (`hemprof blame`).
        blame: bool,
        /// Attach the series collector, with this window (`--series`).
        series: Option<Cycles>,
    },
}

/// What the shared tail needs from a finished [`Job`].
struct Ran {
    rt: Runtime,
    title: String,
    service: Option<ServiceSummary>,
    /// Clamps the critical path of a horizon-bounded run.
    horizon: Option<Cycles>,
    spec: Option<SpecSummary>,
}

impl Job {
    /// The configuration the command line asks for: the flags both
    /// groups take read once, then each group's own.
    fn parse(kernel: Option<Kernel>, blame: bool, args: &Args, output: &Output) -> Job {
        let buffer = output.buffer(args.get(&RING));
        let mode = args.pick(&MODE, [ExecMode::Hybrid, ExecMode::ParallelOnly]);
        let cost = args.pick(
            &COST,
            [CostModel::cm5(), CostModel::t3d(), CostModel::unit()],
        );
        let threads = args.get(&THREADS).unwrap_or(1);
        let speculative = args.has(&SPECULATIVE);
        let Some(kernel) = kernel else {
            let mut cfg = ServeConfig {
                mode,
                cost,
                buffer,
                threads,
                speculative,
                ..ServeConfig::new()
            };
            args.set(&P, &mut cfg.p);
            args.set(&SEED, &mut cfg.seed);
            args.set(&BACKENDS, &mut cfg.backends);
            args.set(&UNTIL, &mut cfg.horizon);
            args.set(&WARMUP, &mut cfg.warmup);
            args.set(&CLIENTS, &mut cfg.clients);
            args.set(&DEADLINE, &mut cfg.deadline);
            args.set(&MAX_QUEUE, &mut cfg.max_queue);
            let rate = args.get(&RATE).unwrap_or(500.0);
            cfg.dist = ArrivalDist::named(args.pick(&ARRIVAL, ARRIVALS), rate)
                .expect("every --arrival choice names a distribution");
            let fault_seed: Option<u64> = args.get(&FAULT_SEED);
            let plan = FaultPlan {
                drop_permille: args.get(&DROP).unwrap_or(0),
                dup_permille: args.get(&DUP).unwrap_or(0),
                jitter_max: args.get(&JITTER).unwrap_or(0),
                ..FaultPlan::seeded(fault_seed.unwrap_or(cfg.seed))
            };
            cfg.fault = (plan.drop_permille > 0
                || plan.dup_permille > 0
                || plan.jitter_max > 0
                || fault_seed.is_some())
            .then_some(plan);
            let series = args.has(&SERIES) || args.has(&SERIES_WINDOW);
            let window = args
                .get(&SERIES_WINDOW)
                .unwrap_or((cfg.horizon / 50).max(1));
            return Job::Serve {
                cfg,
                blame,
                series: series.then_some(window),
            };
        };
        let mut cfg = ProfileConfig {
            mode,
            cost,
            buffer,
            threads,
            speculative,
            high_locality: args.pick(&LAYOUT, [true, false]),
            style: args.pick(&STYLE, [Style::Pull, Style::Push, Style::Forward]),
            ..ProfileConfig::new(kernel)
        };
        args.set(&P, &mut cfg.p);
        args.set(&SEED, &mut cfg.seed);
        args.set(&SIZE, &mut cfg.size);
        args.set(&ITERS, &mut cfg.iters);
        Job::Kernel(cfg)
    }

    fn check(&self) -> Result<(), String> {
        match self {
            Job::Kernel(cfg) => cfg.check(),
            Job::Serve { cfg, .. } => cfg.check(),
        }
    }

    fn run(&mut self, output: &Output) -> Result<Ran, Trap> {
        match self {
            Job::Kernel(cfg) => {
                let rt = cfg.run_with_observer(output.observers(cfg.buffer, cfg.p, []))?;
                Ok(Ran {
                    spec: spec_summary(&rt, cfg.speculative, cfg.threads),
                    title: cfg.title(),
                    service: None,
                    horizon: None,
                    rt,
                })
            }
            Job::Serve { cfg, blame, series } => {
                // Beside the rollup (and the timeline, for an export) tee
                // the blame tracker and the series collector.
                let mut extra: Vec<Box<dyn Observer>> = Vec::new();
                if *blame {
                    extra.push(Box::new(Blame::new()));
                }
                if let Some(w) = *series {
                    extra.push(Box::new(Series::new(w)));
                }
                let observers = output.observers(cfg.buffer, cfg.p, extra);
                let (rt, out) = cfg.run_with_observer(observers)?;
                Ok(Ran {
                    spec: spec_summary(&rt, cfg.speculative, cfg.threads),
                    title: cfg.title(),
                    service: Some(cfg.summary(&out)),
                    horizon: Some(cfg.horizon),
                    rt,
                })
            }
        }
    }
}

/// Host stack for the run. The sequential interpreter recurses on it up
/// to `Runtime::max_seq_depth` (1200) activations deep before it traps,
/// and an unoptimized build spends well over the main thread's 8 MiB on
/// that — it would overflow before the depth check fires. Sized like the
/// shard workers' stacks (32 KiB per activation, rounded up); the
/// reservation is virtual and costs nothing until a chain goes that deep.
const RUN_STACK_BYTES: usize = 64 << 20;

fn main() {
    let run = std::thread::Builder::new()
        .name("hemprof".into())
        .stack_size(RUN_STACK_BYTES)
        .spawn(run)
        .expect("spawn the run thread");
    if run.join().is_err() {
        // The panic message is already on stderr.
        std::process::exit(101);
    }
}

fn run() {
    let mut argv = std::env::args().skip(1);
    let sub = match argv.next() {
        Some(name) if !name.starts_with('-') => name,
        _ => print_usage(),
    };
    let kernel = Kernel::parse(&sub);
    let (on, operands) = match sub.as_str() {
        "diff" => (DIFF, 2),
        "serve" | "blame" => (SERVICE, 0),
        _ if kernel.is_some() => (KERNEL, 0),
        _ => usage_error(&format!(
            "unknown kernel '{sub}' (expected sor, md, em3d, fib, serve, blame, or diff)"
        )),
    };
    let args = Args::parse(FLAGS, (&sub, on), operands, argv).unwrap_or_else(|e| usage_error(&e));
    if on == DIFF {
        run_diff(&args.operands[0], &args.operands[1]);
    }

    let mut output = Output::parse(&args);
    let mut job = Job::parse(kernel, sub == "blame", &args, &output);
    if let Err(e) = job.check() {
        usage_error(&e);
    }
    // Opened before the (potentially long) run, so a typo'd path fails in
    // milliseconds, not minutes.
    output.perfetto = output.perfetto.take().map(PerfettoDest::open);
    let ran = match job.run(&output) {
        Ok(ran) => ran,
        Err(trap) => {
            eprintln!("hemprof: {trap}");
            // `exit` runs no destructors, and the Perfetto file's must.
            drop(output);
            std::process::exit(1);
        }
    };
    emit(output, ran);
}

/// How a `hemprof diff` row reads its JSON path and when it prints.
#[derive(Clone, Copy, PartialEq)]
enum Show {
    /// One row per member the path's last `*` reaches, labelled with its
    /// key; printed when either side is nonzero.
    Each,
    /// The sum over the path; printed when either side is nonzero.
    Sum,
    /// The largest value on the path; printed when either side is nonzero.
    Peak,
    /// The sum over the path, always printed.
    Always,
}

use Show::{Always, Each, Peak, Sum};

/// A `hemprof diff` row: its label, its JSON path, and how it shows.
type Row = (&'static str, &'static str, Show);

/// `hemprof diff`'s sections: the top-level key both reports must carry
/// for the section to print (`""`: the makespan line, which always prints,
/// unindented), its heading, the width its labels are padded to, and its
/// rows, whose paths are `.`-separated keys where `*` steps into every
/// member or item.
const SECTIONS: &[(&str, &str, usize, &[Row])] = &[
    ("", "", 14, &[("makespan", "makespan", Always)]),
    (
        "traffic",
        "traffic (messages):",
        12,
        &[
            ("", "traffic.*.msgs", Each),
            ("TOTAL", "traffic.*.msgs", Always),
        ],
    ),
    (
        "traffic",
        "traffic (wire words):",
        12,
        &[
            ("", "traffic.*.words", Each),
            ("TOTAL", "traffic.*.words", Always),
        ],
    ),
    (
        "sched",
        "scheduler (host diagnostics):",
        18,
        &[("", "sched.*", Each)],
    ),
    (
        "blame",
        "blame (cycles per category over all completions):",
        12,
        &[
            ("", "blame.totals.*", Each),
            ("completed", "blame.completed", Always),
            ("sojourn p50", "blame.sojourn.p50", Always),
            ("sojourn p99", "blame.sojourn.p99", Always),
        ],
    ),
    (
        "series",
        "",
        15,
        &[
            ("arrived", "series.buckets.*.arrived", Sum),
            ("done", "series.buckets.*.done", Sum),
            ("shed", "series.buckets.*.shed", Sum),
            ("peak in-flight", "series.buckets.*.in_flight", Peak),
            ("peak queue-wait", "series.buckets.*.queue_wait", Peak),
        ],
    ),
];

/// The numbers at `path` in `d`, each with the key its last `*` took. A
/// `null` (or non-numeric) leaf reads as `None` — the quantile of an empty
/// histogram; a path that meets a `null` before its last step finds
/// nothing there.
fn at<'a>(d: &'a Json, path: &str) -> Vec<(&'a str, Option<u64>)> {
    let mut found = vec![("", d)];
    for step in path.split('.') {
        found = found
            .into_iter()
            .flat_map(|(key, j)| match (step, j) {
                ("*", Json::Obj(members)) => members.iter().map(|(k, v)| (k.as_str(), v)).collect(),
                ("*", Json::Arr(items)) => items.iter().map(|v| (key, v)).collect(),
                _ => j.get(step).map_or(vec![], |v| vec![(key, v)]),
            })
            .collect();
    }
    let num = |j: &Json| j.as_num().map(|n| n as u64);
    found.into_iter().map(|(k, j)| (k, num(j))).collect()
}

/// `hemprof diff A.json B.json` — compare two rollup JSON reports
/// (produced with `--report json`), section by section of [`SECTIONS`]:
/// signed per-cause traffic deltas, total wire words, the makespan, and
/// the scheduler, blame and series sections when both reports carry them.
fn run_diff(a_path: &str, b_path: &str) -> ! {
    let a = load_rollup(a_path);
    let b = load_rollup(b_path);
    let title = |d: &Json| {
        d.get("title")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    // Refuse to diff apples against oranges: the first two title tokens
    // are the kernel name and the machine size for every producer
    // (`<kernel|serve> p=N ...`), and a delta across different kernels or
    // machine sizes is noise, not signal.
    let (ta, tb) = (title(&a), title(&b));
    let head =
        |t: &str| -> Vec<String> { t.split_whitespace().take(2).map(String::from).collect() };
    let (ha, hb) = (head(&ta), head(&tb));
    if ha != hb {
        eprintln!(
            "hemprof: refusing to diff mismatched runs:\n  A profiles: {}\n  B profiles: {}\n\
             (kernel and machine size must match; re-run one side with the other's \
             configuration)",
            if ha.is_empty() { "?" } else { ta.as_str() },
            if hb.is_empty() { "?" } else { tb.as_str() },
        );
        // Dedicated exit code: a mismatch is a configuration problem,
        // not an I/O failure (1) or a usage error (2) — CI gates key on
        // the distinction.
        std::process::exit(3);
    }
    if a.get("traffic").is_none() || b.get("traffic").is_none() {
        eprintln!(
            "hemprof: inputs lack a \"traffic\" object — expected the output of \
             `hemprof <kernel> --report json`"
        );
        std::process::exit(1);
    }

    println!("rollup diff: {ta} -> {tb}");
    println!("  A: {a_path}");
    println!("  B: {b_path}");
    for &(key, heading, width, rows) in SECTIONS {
        let has = |d: &Json| key.is_empty() || d.get(key).is_some();
        if !has(&a) && !has(&b) {
            continue;
        }
        println!();
        if !has(&a) || !has(&b) {
            println!("{key}: only one side has a {key} section — skipped");
            continue;
        }
        if key == "series" {
            let window = |d: &Json| {
                at(d, "series.window")
                    .first()
                    .and_then(|w| w.1)
                    .unwrap_or(0)
            };
            let (wa, wb) = (window(&a), window(&b));
            if wa != wb {
                println!(
                    "series: window mismatch ({wa} vs {wb} cycles) — totals still comparable:"
                );
            } else {
                println!("series (window {wa} cycles):");
            }
        } else if !heading.is_empty() {
            println!("{heading}");
        }
        let indent = if key.is_empty() { "" } else { "  " };
        for &(label, path, show) in rows {
            let (va, vb) = (at(&a, path), at(&b, path));
            let lines: Vec<(&str, Option<u64>, Option<u64>)> = match show {
                Each => va
                    .iter()
                    .map(|&(k, x)| (k, x, vb.iter().find(|v| v.0 == k).map_or(Some(0), |v| v.1)))
                    .collect(),
                Peak => {
                    let peak = |v: &[(&str, Option<u64>)]| {
                        v.iter().try_fold(0, |peak, v| Some(v.1?.max(peak)))
                    };
                    vec![(label, peak(&va), peak(&vb))]
                }
                Sum | Always => {
                    let sum = |v: &[(&str, Option<u64>)]| v.iter().map(|v| v.1).sum();
                    vec![(label, sum(&va), sum(&vb))]
                }
            };
            for (label, xa, xb) in lines {
                if show == Always || xa > Some(0) || xb > Some(0) {
                    let label = format!("{indent}{label}");
                    let width = width + indent.len();
                    let cell = |x: Option<u64>| x.map_or("n/a".into(), |x| x.to_string());
                    let (ca, cb) = (cell(xa), cell(xb));
                    let change = match (xa, xb) {
                        (Some(a), Some(b)) => format!("  {}", delta(a, b)),
                        // Nothing to compare a missing value with.
                        _ => String::new(),
                    };
                    println!("{label:<width$} {ca:>12} -> {cb:>12}{change}");
                }
            }
        }
    }
    std::process::exit(0);
}

/// Read and parse one rollup JSON file, aborting with a pointer at the
/// producing command on failure.
fn load_rollup(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("hemprof: cannot read {path}: {e}");
        std::process::exit(1);
    });
    Json::parse(text.trim()).unwrap_or_else(|e| {
        eprintln!(
            "hemprof: {path}: invalid JSON ({e}) — expected the output of \
             `hemprof <kernel> --report json`"
        );
        std::process::exit(1);
    })
}

/// Signed A->B change with a percentage (against A when non-zero).
fn delta(a: u64, b: u64) -> String {
    let d = b as i128 - a as i128;
    if a == 0 {
        format!("({d:+})")
    } else {
        format!("({:+}, {:+.1}%)", d, 100.0 * d as f64 / a as f64)
    }
}

/// Host-side speculation diagnostics for the report and the Perfetto
/// counter track. `None` when the run wasn't speculative (the simulated
/// stats are executor-invariant, so there is nothing to add).
fn spec_summary(rt: &Runtime, speculative: bool, threads: usize) -> Option<SpecSummary> {
    if !speculative || threads <= 1 {
        return None;
    }
    let s = rt.spec_stats();
    Some(SpecSummary {
        threads,
        windows: s.windows,
        serial_steps: s.serial_steps,
        rollbacks: s.rollbacks,
        anti_messages: s.anti_messages,
        ckpt_nodes: s.ckpt_nodes,
        max_window: s.max_window,
    })
}

/// Print the report, then the extras: the `--events` dump of whatever was
/// buffered, and `--perfetto` / `--critical-path` off the timeline — the
/// streamed one, or, under `--ring`, the one the ring's contents give.
fn emit(output: Output, ran: Ran) {
    let Ran {
        mut rt,
        title,
        service,
        horizon,
        spec,
    } = ran;
    // Detach the [`Output::observers`] tee and take its parts back.
    let any: Box<dyn Any> = rt.take_observer().expect("observers attached");
    let fan = any.downcast::<Fanout>().expect("a Fanout");
    let mut parts: Vec<Box<dyn Any>> = fan.into_parts().into_iter().map(|p| p as _).collect();
    fn part<T: 'static>(parts: &mut Vec<Box<dyn Any>>) -> Option<Box<T>> {
        let i = parts.iter().position(|p| p.is::<T>())?;
        parts.remove(i).downcast().ok()
    }
    // The rollup observed the stream online — the report is exact even
    // when a bounded ring evicted records.
    let rollup = part::<Rollup>(&mut parts).expect("a Rollup in the fanout");
    let timeline = part::<TimelineBuilder>(&mut parts).map(|b| b.finish());
    let blame = part::<Blame>(&mut parts).map(|b| b.summary(0.99, 10));
    let series = part::<Series>(&mut parts).map(|s| s.summary());
    let stats = rt.stats();
    let mut report = Report::new(&title, &rollup, &stats, rt.program(), rt.schemas())
        .with_sched(hem_obs::SchedSummary::from_stats(&stats.sched));
    if let Some(b) = blame {
        report = report.with_blame(b);
    }
    if let Some(s) = &series {
        report = report.with_series(s.clone());
    }
    if let Some(s) = service {
        report = report.with_service(s);
    }
    if let Some(s) = &spec {
        report = report.with_speculative(s.clone());
    }
    if stats.sched.dropped_events > 0 {
        eprintln!(
            "hemprof: WARNING: the trace ring evicted {} records; the rollup \
             report below streamed past the ring and is exact, but --events, \
             --perfetto and --critical-path read a TRUNCATED event stream \
             (raise --ring or drop it for an unbounded trace)",
            stats.sched.dropped_events
        );
    }

    if output.json {
        println!("{}", report.json());
    } else {
        print!("{}", report.text());
    }

    // Empty unless `Output::buffer` armed a buffer.
    let records = rt.take_trace();

    if output.events {
        for rec in &records {
            println!(
                "{:<12} {}",
                rec.at,
                hem_obs::describe(&rec.event, rt.program())
            );
        }
        println!();
    }

    if !output.needs_timeline() {
        return;
    }
    let tl = timeline.unwrap_or_else(|| Timeline::build(&records, stats.per_node.len()));
    drop(records);

    if let Some(mut dest) = output.perfetto {
        let (file, _) = dest.file.as_ref().expect("opened before the run");
        // Event by event: the JSON writer hands the file chunks of at
        // least 64 KiB, and its error is the write's error.
        match perfetto::write_json(file, &tl, rt.program(), spec.as_ref(), series.as_ref()) {
            Ok(bytes) => {
                dest.file = None;
                eprintln!(
                    "hemprof: wrote {} ({bytes} bytes; open at ui.perfetto.dev)",
                    dest.path
                );
            }
            Err(e) => dest.cannot_write(&e),
        }
    }

    if output.critical_path {
        let cp = match horizon {
            Some(h) => critpath::critical_path_until(&tl, h),
            None => critpath::critical_path(&tl),
        };
        println!(
            "\ncritical path ({} segments, {} cycles == {}):",
            cp.segments.len(),
            cp.total,
            if horizon.is_some() {
                "min(makespan, horizon)"
            } else {
                "makespan"
            }
        );
        for cls in [
            SegClass::Compute,
            SegClass::Dispatch,
            SegClass::Network,
            SegClass::Blocked,
            SegClass::Idle,
        ] {
            let t = cp.time_in(cls);
            if t > 0 {
                println!(
                    "  {:<9} {:>12} cycles ({:>5.1}%)",
                    cls.to_string(),
                    t,
                    100.0 * t as f64 / cp.total.max(1) as f64
                );
            }
        }
        let show = 12.min(cp.segments.len());
        println!("  longest segments:");
        let mut by_len: Vec<_> = cp.segments.iter().collect();
        by_len.sort_by_key(|s| std::cmp::Reverse(s.dur()));
        for s in by_len.iter().take(show) {
            let from = s.from_node.map_or(String::new(), |f| format!(" <- n{f}"));
            let (start, end, node, class, dur) = (s.start, s.end, s.node, s.class, s.dur());
            println!("    [{start:>10}..{end:>10}] n{node}{from} {class} ({dur} cycles)");
        }

        println!("\nper-node breakdown (cycles; every row sums to the makespan):");
        println!(
            "  {:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "node", "compute", "dispatch", "network", "blocked", "idle", "slack"
        );
        let bds = critpath::node_breakdowns(&tl);
        let shown = bds.len().min(16);
        for b in bds.iter().take(shown) {
            println!(
                "  {:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
                b.node, b.compute, b.dispatch, b.network, b.blocked, b.idle, b.slack
            );
        }
        if bds.len() > shown {
            println!("  ... ({} more nodes)", bds.len() - shown);
        }
    }
}
