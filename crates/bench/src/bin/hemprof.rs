//! `hemprof` — profile an app kernel on the simulated machine.
//!
//! Runs one of the four paper kernels (closed system, to quiescence) or
//! the open-system service mix (`serve`, to a virtual-time horizon) with
//! its outputs attached as consumers of the trace-record stream, and
//! prints a Table-style rollup report; optionally exports a Perfetto
//! timeline and the virtual-time critical path.
//!
//! ```text
//! hemprof <sor|md|em3d|fib> [options]
//!   --p N             machine size (default 16)
//!   --size N          problem size (kernel-specific default)
//!   --iters N         iterations (default 1)
//!   --seed S          generation seed (default 20260806)
//!   --layout L        spatial|random (MD) / high|low locality (EM3D)
//!   --style S         em3d style: pull|push|forward
//!
//! hemprof diff A.json B.json
//!   compare two `--report json` rollups: signed per-cause traffic
//!   deltas (requests/replies/acks/retransmits/multicasts/reduces/
//!   barriers), total wire words, makespan, scheduler-window occupancy,
//!   and — when both reports carry them — blame and series sections.
//!
//!   Exit codes: 0 — reports compared; 1 — an input is unreadable or
//!   not a rollup JSON; 2 — usage error; 3 — the reports profile
//!   different kernels or machine sizes (a configuration mismatch, not
//!   a breakage — CI can tell "regression signal is meaningless" apart
//!   from "the tool or its inputs are broken").
//!
//! hemprof serve [options]
//!   --p N             machine size (default 16)
//!   --backends N      backend population (default 32)
//!   --until H         virtual-time horizon (default 100000)
//!   --warmup W        steady-state cutoff (default 10000)
//!   --rate G          mean inter-arrival gap in cycles (default 500)
//!   --arrival A       poisson|bursty|diurnal (default poisson)
//!   --clients N       independent arrival streams (default 4)
//!   --deadline D      shed when infeasible at arrival (default 0 = off)
//!   --max-queue Q     shed when target queue >= Q (default 0 = off)
//!   --seed S          arrival seed (default 20260806)
//!   --series          windowed virtual-time series section (report +
//!                     Perfetto counter tracks)
//!   --series-window W series window in cycles (default horizon/50)
//!   --drop P          fault plan: drop P permille of messages
//!   --dup P           fault plan: duplicate P permille of deliveries
//!   --jitter J        fault plan: up to J cycles extra latency
//!   --fault-seed S    fault-plan seed (default: the arrival seed)
//!
//! hemprof blame [serve options]
//!   run the service mix with the per-request blame tracker attached:
//!   the report gains a blame section decomposing each request's sojourn
//!   into queue/exec/wire/lock/retx segments that tile it exactly, an
//!   aggregate p99-tail view, and the slowest requests. Takes every
//!   `serve` option (including --series and the fault-plan flags).
//!
//! common options
//!   --mode M          hybrid|parallel (default hybrid)
//!   --cost C          cm5|t3d|unit (default cm5)
//!   --threads N       host worker threads (sharded executor; default 1)
//!   --shard-map M     even|profile (default even): shard partition for
//!                     --threads > 1, with or without --speculative.
//!                     "profile" first runs a cheap
//!                     single-threaded pilot of the same kernel, feeds
//!                     its per-node busy time back as shard weights, and
//!                     cuts shard boundaries by cumulative busy time —
//!                     host-time load balance only, observables stay
//!                     bit-identical (kernel subcommands only)
//!   --speculative     optimistic (Time-Warp) executor for --threads > 1
//!   --ring N          keep the last N records, and export from them
//!   --report F        table|json (default table)
//!   --perfetto FILE   write a Perfetto trace_event JSON timeline
//!   --critical-path   print the longest virtual-time path
//!   --events          dump the raw event log (small runs only)
//! ```
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
//! and before the run; a run that fails removes the file if it created it.
//!
//! Example: `hemprof serve --p 32 --rate 200 --deadline 4000 --report json`

use std::any::Any;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, ErrorKind};

use hem_bench::profile::{Kernel, ProfileConfig, TraceBuffer};
use hem_bench::serve::ServeConfig;
use hem_bench::Args;
use hem_core::{ExecMode, Observer, Runtime};
use hem_machine::arrival::ArrivalDist;
use hem_machine::cost::CostModel;
use hem_machine::fault::FaultPlan;
use hem_machine::Cycles;
use hem_obs::json::Json;
use hem_obs::{
    critpath, perfetto, Blame, Fanout, Report, Rollup, SegClass, Series, Timeline, TimelineBuilder,
};

fn usage() -> ! {
    eprintln!("usage: hemprof <sor|md|em3d|fib> [--p N] [--size N] [--iters N] [--seed S]");
    eprintln!("               [--layout spatial|random] [--style pull|push|forward]");
    eprintln!("       hemprof diff A.json B.json    (two `--report json` rollups)");
    eprintln!("       hemprof serve [--p N] [--backends N] [--until H] [--warmup W] [--rate G]");
    eprintln!("               [--arrival poisson|bursty|diurnal] [--clients N] [--deadline D]");
    eprintln!("               [--max-queue Q] [--seed S] [--series] [--series-window W]");
    eprintln!("               [--drop P] [--dup P] [--jitter J] [--fault-seed S]");
    eprintln!("       hemprof blame [serve options]  (per-request blame decomposition)");
    eprintln!("       common: [--mode hybrid|parallel] [--cost cm5|t3d|unit] [--threads N]");
    eprintln!("               [--shard-map even|profile] [--speculative] [--ring N]");
    eprintln!("               [--report table|json] [--perfetto FILE] [--critical-path]");
    eprintln!("               [--events]");
    eprintln!("       every output streams off the run; raw records are kept only for --events");
    eprintln!("       (all) and --ring N (the last N, which the exports then describe)");
    std::process::exit(2);
}

fn parse_mode(args: &Args) -> ExecMode {
    match args.get::<String>("--mode").as_deref() {
        None | Some("hybrid") => ExecMode::Hybrid,
        Some("parallel") | Some("parallel-only") => ExecMode::ParallelOnly,
        Some(_) => usage(),
    }
}

fn parse_cost(args: &Args) -> CostModel {
    match args.get::<String>("--cost").as_deref() {
        None | Some("cm5") => CostModel::cm5(),
        Some("t3d") => CostModel::t3d(),
        // Every charge 1 cycle: the zero-lookahead regime, where the
        // conservative sharded executor serializes and only the
        // speculative one can form multi-event windows.
        Some("unit") => CostModel::unit(),
        Some(_) => usage(),
    }
}

/// What to print and export once the run is over — parsed before it, so
/// that every flag has been looked up when [`Args::finish`] runs.
struct Output {
    json: bool,
    events: bool,
    critical_path: bool,
    perfetto: Option<PerfettoDest>,
}

impl Output {
    fn parse(args: &Args) -> Output {
        Output {
            json: match args.get::<String>("--report").as_deref() {
                None | Some("table") => false,
                Some("json") => true,
                Some(_) => usage(),
            },
            events: args.has("--events"),
            critical_path: args.has("--critical-path"),
            perfetto: args
                .get("--perfetto")
                .map(|path| PerfettoDest { path, file: None }),
        }
    }

    /// Call once every flag has been looked up: an unknown flag is a
    /// usage error before anything is touched, and the Perfetto
    /// destination is opened before the (potentially long) run, so a
    /// typo'd path fails in milliseconds, not minutes.
    fn validate(&mut self, args: &Args) {
        args.finish();
        self.perfetto = self.perfetto.take().map(PerfettoDest::open);
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

/// What the observers of a finished run built.
struct Streamed {
    /// The report, with every section that comes off the stream.
    report: Report,
    timeline: Option<Timeline>,
    series: Option<hem_obs::SeriesSummary>,
}

impl Streamed {
    /// Detach the [`Output::observers`] tee and take its parts back.
    fn take(rt: &mut Runtime, title: &str) -> Streamed {
        let any: Box<dyn Any> = rt.take_observer().expect("observers attached");
        let fan = any.downcast::<Fanout>().expect("a Fanout");
        let (mut rollup, mut timeline, mut blame, mut series) = (None, None, None, None);
        for part in fan.into_parts() {
            let part: Box<dyn Any> = part;
            let part = match part.downcast::<Rollup>() {
                Ok(r) => {
                    rollup = Some(r);
                    continue;
                }
                Err(p) => p,
            };
            let part = match part.downcast::<TimelineBuilder>() {
                Ok(b) => {
                    timeline = Some(b.finish());
                    continue;
                }
                Err(p) => p,
            };
            let part = match part.downcast::<Blame>() {
                Ok(b) => {
                    blame = Some(b.summary(0.99, 10));
                    continue;
                }
                Err(p) => p,
            };
            if let Ok(s) = part.downcast::<Series>() {
                series = Some(s.summary());
            }
        }
        // The rollup observed the stream online — the report is exact
        // even when a bounded ring evicted records.
        let rollup = rollup.expect("a Rollup in the fanout");
        let stats = rt.stats();
        let mut report = Report::new(title, &rollup, &stats, rt.program(), rt.schemas())
            .with_sched(hem_obs::SchedSummary::from_stats(&stats.sched));
        if let Some(b) = blame {
            report = report.with_blame(b);
        }
        if let Some(s) = &series {
            report = report.with_series(s.clone());
        }
        Streamed {
            report,
            timeline,
            series,
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
    let args = Args::capture();
    let sub = match std::env::args().nth(1) {
        Some(name) if !name.starts_with('-') => name,
        _ => usage(),
    };

    if sub == "diff" {
        args.finish();
        run_diff();
    }
    let mut output = Output::parse(&args);

    if sub == "serve" || sub == "blame" {
        run_serve(&args, output, sub == "blame");
        return;
    }

    let kernel = match Kernel::parse(&sub) {
        Some(k) => k,
        None => {
            eprintln!(
                "hemprof: unknown kernel '{sub}' (expected sor, md, em3d, fib, serve, or blame)"
            );
            std::process::exit(2);
        }
    };

    let mut cfg = ProfileConfig::new(kernel);
    if let Some(p) = args.get("--p") {
        cfg.p = p;
    }
    if let Some(s) = args.get("--size") {
        cfg.size = s;
    }
    if let Some(i) = args.get("--iters") {
        cfg.iters = i;
    }
    if let Some(s) = args.get("--seed") {
        cfg.seed = s;
    }
    if let Some(l) = args.get::<String>("--layout") {
        cfg.high_locality = match l.as_str() {
            "spatial" | "high" => true,
            "random" | "low" => false,
            _ => usage(),
        };
    }
    if let Some(s) = args.get::<String>("--style") {
        cfg.style = match s.as_str() {
            "pull" => hem_apps::em3d::Style::Pull,
            "push" => hem_apps::em3d::Style::Push,
            "forward" => hem_apps::em3d::Style::Forward,
            _ => usage(),
        };
    }
    cfg.mode = parse_mode(&args);
    cfg.cost = parse_cost(&args);
    cfg.buffer = output.buffer(args.get("--ring"));
    if let Some(t) = args.get("--threads") {
        cfg.threads = t;
    }
    cfg.speculative = args.has("--speculative");
    let profile_shards = match args.get::<String>("--shard-map").as_deref() {
        None | Some("even") => false,
        Some("profile") => true,
        Some(_) => usage(),
    };
    output.validate(&args);
    if profile_shards && cfg.threads > 1 {
        cfg.shard_weights = Some(pilot_weights(&cfg));
    }

    let mut rt = cfg.run_with_observer(output.observers(cfg.buffer, cfg.p, []));
    let streamed = Streamed::take(&mut rt, &cfg.title());
    let spec = spec_summary(&rt, cfg.speculative, cfg.threads);
    emit(output, streamed, &mut rt, None, spec);
}

/// `hemprof diff A.json B.json` — compare two rollup JSON reports
/// (produced with `--report json`) and print signed per-cause traffic
/// deltas, total wire words, and the makespan change.
fn run_diff() -> ! {
    let a_path = std::env::args().nth(2).unwrap_or_else(|| usage());
    let b_path = std::env::args().nth(3).unwrap_or_else(|| usage());
    let a = load_rollup(&a_path);
    let b = load_rollup(&b_path);
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

    println!("rollup diff: {ta} -> {tb}");
    println!("  A: {a_path}");
    println!("  B: {b_path}");
    println!();

    let makespan = |d: &Json| d.get("makespan").and_then(Json::as_num).unwrap_or(0.0) as u64;
    let (ma, mb) = (makespan(&a), makespan(&b));
    println!(
        "{:<14} {:>12} -> {:>12}  {}",
        "makespan",
        ma,
        mb,
        delta(ma, mb)
    );
    println!();

    const CAUSES: [&str; 7] = [
        "requests",
        "replies",
        "acks",
        "retransmits",
        "multicasts",
        "reduces",
        "barriers",
    ];
    let cell = |d: &Json, cause: &str, key: &str| -> u64 {
        d.get("traffic")
            .and_then(|t| t.get(cause))
            .and_then(|c| c.get(key))
            .and_then(Json::as_num)
            .unwrap_or(0.0) as u64
    };
    if a.get("traffic").is_none() || b.get("traffic").is_none() {
        eprintln!(
            "hemprof: inputs lack a \"traffic\" object — expected the output of \
             `hemprof <kernel> --report json`"
        );
        std::process::exit(1);
    }

    println!("traffic (messages):");
    let (mut tma, mut tmb, mut twa, mut twb) = (0u64, 0u64, 0u64, 0u64);
    for cause in CAUSES {
        let (xa, xb) = (cell(&a, cause, "msgs"), cell(&b, cause, "msgs"));
        tma += xa;
        tmb += xb;
        twa += cell(&a, cause, "words");
        twb += cell(&b, cause, "words");
        if xa > 0 || xb > 0 {
            println!("  {cause:<12} {xa:>12} -> {xb:>12}  {}", delta(xa, xb));
        }
    }
    println!(
        "  {:<12} {tma:>12} -> {tmb:>12}  {}",
        "TOTAL",
        delta(tma, tmb)
    );
    println!();

    println!("traffic (wire words):");
    for cause in CAUSES {
        let (xa, xb) = (cell(&a, cause, "words"), cell(&b, cause, "words"));
        if xa > 0 || xb > 0 {
            println!("  {cause:<12} {xa:>12} -> {xb:>12}  {}", delta(xa, xb));
        }
    }
    println!(
        "  {:<12} {twa:>12} -> {twb:>12}  {}",
        "TOTAL",
        delta(twa, twb)
    );

    // Scheduler-window occupancy (host diagnostics; executor-dependent).
    let sched = |d: &Json, key: &str| -> u64 {
        d.get("sched")
            .and_then(|s| s.get(key))
            .and_then(Json::as_num)
            .unwrap_or(0.0) as u64
    };
    if a.get("sched").is_some() || b.get("sched").is_some() {
        println!();
        println!("scheduler (host diagnostics):");
        for key in [
            "events_dispatched",
            "windows",
            "serial_steps",
            "window_events",
            "max_window_events",
        ] {
            let (xa, xb) = (sched(&a, key), sched(&b, key));
            if xa > 0 || xb > 0 {
                println!("  {key:<18} {xa:>12} -> {xb:>12}  {}", delta(xa, xb));
            }
        }
    }

    // Blame decomposition, when both reports carry one (hemprof blame).
    let blame = |d: &Json, path: &[&str]| -> u64 {
        let mut cur = d.get("blame");
        for k in path {
            cur = cur.and_then(|c| c.get(k));
        }
        cur.and_then(Json::as_num).unwrap_or(0.0) as u64
    };
    match (a.get("blame").is_some(), b.get("blame").is_some()) {
        (true, true) => {
            println!();
            println!("blame (cycles per category over all completions):");
            for cat in ["queue", "exec", "wire", "lock", "retx"] {
                let (xa, xb) = (blame(&a, &["totals", cat]), blame(&b, &["totals", cat]));
                if xa > 0 || xb > 0 {
                    println!("  {cat:<12} {xa:>12} -> {xb:>12}  {}", delta(xa, xb));
                }
            }
            for (label, path) in [
                ("completed", &["completed"] as &[&str]),
                ("sojourn p50", &["sojourn", "p50"]),
                ("sojourn p99", &["sojourn", "p99"]),
            ] {
                let (xa, xb) = (blame(&a, path), blame(&b, path));
                println!("  {label:<12} {xa:>12} -> {xb:>12}  {}", delta(xa, xb));
            }
        }
        (true, false) | (false, true) => {
            println!();
            println!("blame: only one side has a blame section — skipped");
        }
        (false, false) => {}
    }

    // Series rollup, when both reports carry one (--series).
    let series_sum = |d: &Json, key: &str, peak: bool| -> u64 {
        let mut acc = 0u64;
        if let Some(buckets) = d
            .get("series")
            .and_then(|s| s.get("buckets"))
            .and_then(Json::as_arr)
        {
            for b in buckets {
                let v = b.get(key).and_then(Json::as_num).unwrap_or(0.0) as u64;
                acc = if peak { acc.max(v) } else { acc + v };
            }
        }
        acc
    };
    match (a.get("series").is_some(), b.get("series").is_some()) {
        (true, true) => {
            let win = |d: &Json| -> u64 {
                d.get("series")
                    .and_then(|s| s.get("window"))
                    .and_then(Json::as_num)
                    .unwrap_or(0.0) as u64
            };
            println!();
            if win(&a) != win(&b) {
                println!(
                    "series: window mismatch ({} vs {} cycles) — totals still comparable:",
                    win(&a),
                    win(&b)
                );
            } else {
                println!("series (window {} cycles):", win(&a));
            }
            for (label, key, peak) in [
                ("arrived", "arrived", false),
                ("done", "done", false),
                ("shed", "shed", false),
                ("peak in-flight", "in_flight", true),
                ("peak queue-wait", "queue_wait", true),
            ] {
                let (xa, xb) = (series_sum(&a, key, peak), series_sum(&b, key, peak));
                if xa > 0 || xb > 0 {
                    println!("  {label:<15} {xa:>12} -> {xb:>12}  {}", delta(xa, xb));
                }
            }
        }
        (true, false) | (false, true) => {
            println!();
            println!("series: only one side has a series section — skipped");
        }
        (false, false) => {}
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

fn run_serve(args: &Args, mut output: Output, blame: bool) {
    let mut cfg = ServeConfig::new();
    if let Some(p) = args.get("--p") {
        cfg.p = p;
    }
    if let Some(b) = args.get("--backends") {
        cfg.backends = b;
    }
    if let Some(h) = args.get("--until") {
        cfg.horizon = h;
    }
    if let Some(w) = args.get("--warmup") {
        cfg.warmup = w;
    }
    let rate: f64 = args.get("--rate").unwrap_or(500.0);
    if rate < 1.0 || rate.is_nan() {
        eprintln!("hemprof: --rate must be >= 1 (mean inter-arrival gap in cycles)");
        std::process::exit(2);
    }
    let arrival = args
        .get::<String>("--arrival")
        .unwrap_or_else(|| "poisson".into());
    cfg.dist = match ArrivalDist::named(&arrival, rate) {
        Some(d) => d,
        None => usage(),
    };
    if let Some(c) = args.get("--clients") {
        cfg.clients = c;
    }
    if let Some(d) = args.get("--deadline") {
        cfg.deadline = d;
    }
    if let Some(q) = args.get("--max-queue") {
        cfg.max_queue = q;
    }
    if let Some(s) = args.get("--seed") {
        cfg.seed = s;
    }
    cfg.mode = parse_mode(args);
    cfg.cost = parse_cost(args);
    cfg.buffer = output.buffer(args.get("--ring"));
    if let Some(t) = args.get("--threads") {
        cfg.threads = t;
    }
    cfg.speculative = args.has("--speculative");
    if cfg.warmup >= cfg.horizon {
        eprintln!("hemprof: --warmup must be below --until");
        std::process::exit(2);
    }

    let drop: u16 = args.get("--drop").unwrap_or(0);
    let dup: u16 = args.get("--dup").unwrap_or(0);
    let jitter: Cycles = args.get("--jitter").unwrap_or(0);
    let fault_seed: Option<u64> = args.get("--fault-seed");
    if drop > 0 || dup > 0 || jitter > 0 || fault_seed.is_some() {
        let mut plan = FaultPlan::seeded(fault_seed.unwrap_or(cfg.seed));
        plan.drop_permille = drop;
        plan.dup_permille = dup;
        plan.jitter_max = jitter;
        cfg.fault = Some(plan);
    }

    let series_window: Option<Cycles> =
        if args.has("--series") || args.get::<Cycles>("--series-window").is_some() {
            Some(
                args.get("--series-window")
                    .unwrap_or((cfg.horizon / 50).max(1)),
            )
        } else {
            None
        };
    output.validate(args);

    // One observer slot on the runtime, several consumers of the stream:
    // beside the rollup (and the timeline, for an export) tee the blame
    // tracker (`blame` subcommand) and the series collector (`--series`).
    let mut extra: Vec<Box<dyn Observer>> = Vec::new();
    if blame {
        extra.push(Box::new(Blame::new()));
    }
    if let Some(w) = series_window {
        extra.push(Box::new(Series::new(w)));
    }
    let observers = output.observers(cfg.buffer, cfg.p, extra);
    let (mut rt, out) = match cfg.run_with_observer(observers) {
        Ok(ran) => ran,
        Err(trap) => {
            eprintln!("hemprof: {trap}");
            // `exit` runs no destructors, and the Perfetto file's must.
            std::mem::drop(output);
            std::process::exit(1);
        }
    };

    let mut streamed = Streamed::take(&mut rt, &cfg.title());
    streamed.report = streamed.report.with_service(cfg.summary(&out));
    let spec = spec_summary(&rt, cfg.speculative, cfg.threads);
    emit(output, streamed, &mut rt, Some(cfg.horizon), spec);
}

/// `--shard-map profile`: run a cheap single-threaded pilot of the same
/// kernel and return its per-node busy time as shard weights. The pilot
/// keeps no records (the rollup is its only consumer) and no report is
/// printed for it.
fn pilot_weights(cfg: &ProfileConfig) -> Vec<u64> {
    let mut pilot = cfg.clone();
    pilot.threads = 1;
    pilot.speculative = false;
    pilot.buffer = TraceBuffer::Off;
    let mut rt = pilot.run_with_observer(Box::new(Rollup::new()));
    let any: Box<dyn Any> = rt.take_observer().expect("pilot rollup attached");
    let rollup = any.downcast::<Rollup>().expect("a Rollup");
    let w = rollup.node_busy_weights(cfg.p);
    eprintln!(
        "hemprof: profile-guided shard map from pilot run (busy-time total {} cycles over {} nodes)",
        w.iter().sum::<u64>(),
        w.len()
    );
    w
}

/// Host-side speculation diagnostics for the report and the Perfetto
/// counter track. `None` when the run wasn't speculative (the simulated
/// stats are executor-invariant, so there is nothing to add).
fn spec_summary(rt: &Runtime, speculative: bool, threads: usize) -> Option<hem_obs::SpecSummary> {
    if !speculative || threads <= 1 {
        return None;
    }
    let s = rt.spec_stats();
    Some(hem_obs::SpecSummary {
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
/// `horizon` clamps the critical path for horizon-bounded runs; `spec` is
/// a speculative run's report section and Perfetto counter track.
fn emit(
    output: Output,
    streamed: Streamed,
    rt: &mut Runtime,
    horizon: Option<Cycles>,
    spec: Option<hem_obs::SpecSummary>,
) {
    let Streamed {
        mut report,
        timeline,
        series,
    } = streamed;
    if let Some(s) = &spec {
        report = report.with_speculative(s.clone());
    }
    let stats = rt.stats();
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
        // Event by event through a buffer, flushed by the writer — its
        // error is the write's error.
        let out = BufWriter::with_capacity(1 << 16, file);
        match perfetto::write_json(out, &tl, rt.program(), spec.as_ref(), series.as_ref()) {
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
            match s.from_node {
                Some(f) => println!(
                    "    [{:>10}..{:>10}] n{} <- n{} {} ({} cycles)",
                    s.start,
                    s.end,
                    s.node,
                    f,
                    s.class,
                    s.dur()
                ),
                None => println!(
                    "    [{:>10}..{:>10}] n{} {} ({} cycles)",
                    s.start,
                    s.end,
                    s.node,
                    s.class,
                    s.dur()
                ),
            }
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
