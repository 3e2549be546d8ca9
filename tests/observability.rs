//! Integration tests for the observability layer (`hem-obs`): rollups
//! cross-checked against the machine's own counters, Perfetto export
//! validity, the critical-path == makespan invariant, observer
//! bit-identity, and the truncated-ring accounting — on real runs of all
//! four app kernels through the same `profile` runner `hemprof` uses.

use hem::core::MsgCause;
use hem::obs::{
    critpath, perfetto, Blame, Fanout, Report, Rollup, SchedSummary, Series, SpecSummary, Timeline,
    TimelineBuilder,
};
use hem_bench::profile::{Kernel, ProfileConfig, TraceBuffer};
use hem_bench::serve::ServeConfig;

/// Small-but-busy configurations, one per kernel.
fn small(kernel: Kernel) -> ProfileConfig {
    let mut cfg = ProfileConfig::new(kernel);
    match kernel {
        Kernel::Sor => {
            cfg.p = 16;
            cfg.size = 16;
        }
        Kernel::Md => {
            cfg.p = 8;
            cfg.size = 64;
        }
        Kernel::Em3d => {
            cfg.p = 8;
            cfg.size = 32;
        }
        Kernel::Fib => {
            cfg.p = 2;
            cfg.size = 12;
        }
    }
    cfg
}

#[test]
fn rollup_counts_match_machine_stats_on_all_kernels() {
    for kernel in Kernel::ALL {
        let mut rt = small(kernel).run();
        let records = rt.take_trace();
        let stats = rt.stats();
        let totals = stats.totals();
        let rollup = Rollup::from_records(&records);
        let name = kernel.name();

        // Every wire injection emitted exactly one MsgSent.
        assert_eq!(rollup.total_sent(), stats.net.sent, "{name}: sent");

        // Trace-derived per-cause counts equal the machine counters.
        // `msgs_sent` covers requests plus every collective leg; the trace
        // splits the legs out by cause.
        let links = rollup.per_link();
        let mut by_cause = [0u64; 7];
        for l in links.values() {
            for (b, m) in by_cause.iter_mut().zip(l.msgs) {
                *b += m;
            }
        }
        let coll_legs = by_cause[4] + by_cause[5] + by_cause[6];
        assert_eq!(
            by_cause[0],
            totals.msgs_sent - totals.coll_legs_sent,
            "{name}: requests"
        );
        assert_eq!(by_cause[1], totals.replies_sent, "{name}: replies");
        assert_eq!(by_cause[2], totals.acks_sent, "{name}: acks");
        assert_eq!(by_cause[3], totals.retransmits, "{name}: retransmits");
        assert_eq!(coll_legs, totals.coll_legs_sent, "{name}: collective legs");

        // Word accounting agrees with both the senders' counters and the
        // interconnect's wire-class buckets.
        let mut words = [0u64; 7];
        for l in links.values() {
            for (wd, w) in words.iter_mut().zip(l.words) {
                *wd += w;
            }
        }
        assert_eq!(words[0], totals.req_words_sent, "{name}: request words");
        assert_eq!(words[1], totals.reply_words_sent, "{name}: reply words");
        assert_eq!(
            words[4] + words[5] + words[6],
            totals.coll_words_sent,
            "{name}: collective words"
        );
        let (data, ack, retx, coll) = rollup.words_by_class();
        assert_eq!(data, stats.net.data_words, "{name}: data words");
        assert_eq!(ack, stats.net.ack_words, "{name}: ack words");
        assert_eq!(retx, stats.net.retx_words, "{name}: retx words");
        assert_eq!(coll, stats.net.coll_words, "{name}: collective words");

        // Per-node sends: link rows summed over destinations equal each
        // node's own counters.
        for (n, c) in stats.per_node.iter().enumerate() {
            let sent = rollup.sent_by_node(n as u32);
            assert_eq!(
                sent[0],
                c.msgs_sent - c.coll_legs_sent,
                "{name}: node {n} requests"
            );
            assert_eq!(sent[1], c.replies_sent, "{name}: node {n} replies");
            assert_eq!(
                sent[4] + sent[5] + sent[6],
                c.coll_legs_sent,
                "{name}: node {n} collective legs"
            );
        }

        // Invocation-path rollups equal the counter totals.
        let g = rollup.grand_total();
        assert_eq!(g.stack_nb, totals.stack_nb, "{name}: NB");
        assert_eq!(g.stack_mb, totals.stack_mb, "{name}: MB");
        assert_eq!(g.stack_cp, totals.stack_cp, "{name}: CP");
        assert_eq!(g.inlined, totals.inlined, "{name}: inlined");
        assert_eq!(
            g.par_invokes + g.fallbacks,
            totals.ctx_alloc,
            "{name}: every heap context came from ParInvoke or Fallback"
        );
        assert_eq!(
            rollup.residency.count(),
            totals.ctx_free,
            "{name}: one residency sample per freed context"
        );
        assert_eq!(rollup.total_conts(), totals.conts_created, "{name}: conts");
        assert_eq!(rollup.suspends, totals.suspends, "{name}: suspends");

        // Handled messages (requests + replies + collective legs) match
        // the receivers.
        let handled = rollup.handled_by_cause();
        assert_eq!(
            handled[0] + handled[1] + handled[4] + handled[5] + handled[6],
            totals.msgs_handled,
            "{name}: handled"
        );
        assert_eq!(
            handled[4] + handled[5] + handled[6],
            totals.coll_legs_handled,
            "{name}: collective legs handled"
        );

        assert_eq!(stats.sched.dropped_events, 0, "{name}: unbounded trace");
    }
}

#[test]
fn report_renders_for_all_kernels_and_json_validates() {
    for kernel in Kernel::ALL {
        let cfg = small(kernel);
        let mut rt = cfg.run();
        let records = rt.take_trace();
        let rollup = Rollup::from_records(&records);
        let report = Report::new(
            &cfg.title(),
            &rollup,
            &rt.stats(),
            rt.program(),
            rt.schemas(),
        );

        let text = report.text();
        assert!(text.contains("makespan"), "{}: text report", kernel.name());
        assert!(!report.rows.is_empty(), "{}: method rows", kernel.name());

        let doc = hem::obs::json::Json::parse(&report.json())
            .unwrap_or_else(|e| panic!("{}: report JSON invalid: {e}", kernel.name()));
        let methods = doc.get("methods").unwrap().as_arr().unwrap();
        assert!(!methods.is_empty(), "{}: JSON methods", kernel.name());
        assert_eq!(
            doc.get("makespan").unwrap().as_num(),
            Some(rt.makespan() as f64),
            "{}: JSON makespan",
            kernel.name()
        );
    }
}

#[test]
fn perfetto_export_validates_with_spans_on_every_node_and_flow_arrows() {
    let cfg = small(Kernel::Sor);
    let mut rt = cfg.run();
    let records = rt.take_trace();
    let stats = rt.stats();
    let tl = Timeline::build(&records, stats.per_node.len());
    let out = perfetto::to_json_full(&records, &tl, rt.program(), None, None);

    let doc = hem::obs::json::Json::parse(&out).expect("perfetto JSON parses");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());

    let ph_of = |e: &hem::obs::json::Json| e.get("ph").and_then(|v| v.as_str()).map(String::from);
    // ≥1 scheduler slice per node.
    for n in 0..stats.per_node.len() {
        assert!(
            events.iter().any(|e| ph_of(e).as_deref() == Some("X")
                && e.get("pid").and_then(|v| v.as_num()) == Some(n as f64)),
            "node {n} has a slice"
        );
    }
    // Flow arrows present and paired.
    let count = |p: &str| {
        events
            .iter()
            .filter(|e| ph_of(e).as_deref() == Some(p))
            .count()
    };
    assert!(count("s") > 0, "flow starts exist");
    assert_eq!(count("s"), count("f"), "every flow start has an end");
    // Context spans paired too.
    assert_eq!(count("b"), count("e"), "async spans are balanced");
    assert!(count("b") > 0, "context spans exist");
}

#[test]
fn critical_path_total_equals_makespan_on_all_kernels() {
    for kernel in Kernel::ALL {
        let mut rt = small(kernel).run();
        let records = rt.take_trace();
        let stats = rt.stats();
        let name = kernel.name();

        let tl = Timeline::build(&records, stats.per_node.len());
        assert_eq!(
            tl.makespan,
            rt.makespan(),
            "{name}: trace-derived makespan equals the machine's"
        );

        let cp = critpath::critical_path(&tl);
        assert_eq!(cp.total, rt.makespan(), "{name}: critical path == makespan");
        // Segments are contiguous from 0 to the makespan.
        assert_eq!(cp.segments.first().map(|s| s.start), Some(0), "{name}");
        assert_eq!(
            cp.segments.last().map(|s| s.end),
            Some(rt.makespan()),
            "{name}"
        );
        for w in cp.segments.windows(2) {
            assert_eq!(w[0].end, w[1].start, "{name}: contiguous segments");
        }

        // Per-node breakdowns each tile [0, makespan] as well.
        for b in critpath::node_breakdowns(&tl) {
            assert_eq!(b.total(), rt.makespan(), "{name}: node {} tiles", b.node);
            assert_eq!(
                b.slack,
                b.blocked + b.idle,
                "{name}: slack is the non-busy time"
            );
        }
    }
}

#[test]
fn observer_is_bit_identical_and_sees_the_buffered_stream() {
    let run = |observe: bool| {
        let cfg = small(Kernel::Sor);
        let ids = hem::apps::sor::build();
        let mut rt = hem::apps::make_runtime(
            ids.program.clone(),
            cfg.p,
            hem::CostModel::cm5(),
            hem::ExecMode::Hybrid,
            hem::InterfaceSet::Full,
        );
        rt.enable_trace();
        if observe {
            rt.attach_observer(Box::new(Rollup::new()));
        }
        let inst = hem::apps::sor::setup(
            &mut rt,
            &ids,
            hem::apps::sor::SorParams {
                n: cfg.size,
                block: 4,
                procs: hem::machine::topology::ProcGrid::square(cfg.p),
            },
        );
        hem::apps::sor::run(&mut rt, &inst, 1).unwrap();
        rt
    };

    let mut plain = run(false);
    let mut observed = run(true);
    assert_eq!(plain.makespan(), observed.makespan(), "observer is free");
    let trace_plain = plain.take_trace();
    let trace_observed = observed.take_trace();
    assert!(
        trace_plain == trace_observed,
        "observer never alters the trace"
    );

    // The online rollup saw exactly the records the buffer kept, so the
    // two aggregations agree.
    let any: Box<dyn std::any::Any> = observed.take_observer().expect("attached");
    let online = any.downcast::<Rollup>().expect("a Rollup");
    assert_eq!(online.records, trace_observed.len() as u64);
    let offline = Rollup::from_records(&trace_observed);
    assert_eq!(online.grand_total(), offline.grand_total());
    assert_eq!(online.total_sent(), offline.total_sent());
    assert_eq!(online.per_link(), offline.per_link());
}

#[test]
fn take_observer_flushes_buffering_observers() {
    // Observers may buffer internally to amortize per-record cost; the
    // detach path must call `on_flush` so the handed-back aggregates are
    // complete. This observer only publishes its count on flush.
    struct Buffering {
        pending: u64,
        published: u64,
    }
    impl hem::core::Observer for Buffering {
        fn on_record(&mut self, _rec: &hem::core::trace::TraceRecord) {
            self.pending += 1;
        }
        fn on_flush(&mut self) {
            self.published += self.pending;
            self.pending = 0;
        }
    }

    let mut rt = small(Kernel::Fib).run_with_observer(Box::new(Buffering {
        pending: 0,
        published: 0,
    }));
    let records = rt.take_trace().len() as u64;
    assert!(records > 0, "fib run generated records");
    let any: Box<dyn std::any::Any> = rt.take_observer().expect("attached");
    let obs = any.downcast::<Buffering>().expect("a Buffering");
    assert_eq!(obs.pending, 0, "detach flushed the buffer");
    assert_eq!(obs.published, records, "flush published every record");
}

#[test]
fn truncated_ring_is_counted_exactly_and_surfaced_in_stats() {
    // Reference run: unbounded trace.
    let mut rt = small(Kernel::Em3d).run();
    let full = rt.take_trace().len();
    assert!(full > 100, "em3d produces a real trace ({full} records)");
    assert_eq!(rt.stats().sched.dropped_events, 0);

    // Exactly at capacity: nothing dropped (the boundary).
    let mut cfg = small(Kernel::Em3d);
    cfg.buffer = TraceBuffer::Ring(full);
    let mut rt = cfg.run();
    assert_eq!(
        rt.stats().sched.dropped_events,
        0,
        "cap == len drops nothing"
    );
    assert_eq!(rt.take_trace().len(), full);

    // One under: exactly one eviction, surfaced through MachineStats even
    // after the buffer is drained.
    let mut cfg = small(Kernel::Em3d);
    cfg.buffer = TraceBuffer::Ring(full - 1);
    let mut rt = cfg.run();
    assert_eq!(rt.stats().sched.dropped_events, 1, "cap == len-1 drops one");
    let kept = rt.take_trace();
    assert_eq!(kept.len(), full - 1);
    assert_eq!(rt.trace_dropped(), 0, "drain-relative counter reset");
    assert_eq!(
        rt.stats().sched.dropped_events,
        1,
        "lifetime count survives the drain"
    );

    // A hard truncation still produces a usable (if partial) rollup, and
    // the report shouts about it.
    let mut cfg = small(Kernel::Em3d);
    cfg.buffer = TraceBuffer::Ring(128);
    let mut rt = cfg.run();
    let stats = rt.stats();
    assert_eq!(stats.sched.dropped_events as usize, full - 128);
    let records = rt.take_trace();
    let rollup = Rollup::from_records(&records);
    let report = Report::new("truncated", &rollup, &stats, rt.program(), rt.schemas());
    assert!(report.text().contains("TRUNCATED"));
}

/// A run as `hemprof` would configure it.
enum Plan {
    Kernel(ProfileConfig),
    /// `hemprof blame --series`, with the series window.
    Serve(ServeConfig, u64),
}

/// Everything `hemprof` prints or writes for one run.
struct Outputs {
    report: String,
    perfetto: Vec<u8>,
    path: critpath::CriticalPath,
    breakdowns: Vec<critpath::NodeBreakdown>,
}

/// Run `plan` and derive its outputs. `streamed`: no trace buffer, the
/// timeline built by an observer and written through the `io::Write`
/// writer — what `hemprof` does. Otherwise: everything buffered, then
/// `Timeline::build` and `to_json_full` over the drained records — the
/// reference (and what `--ring` and hembench's staged pipeline do).
fn outputs(plan: &Plan, streamed: bool) -> Outputs {
    let buffer = if streamed {
        TraceBuffer::Off
    } else {
        TraceBuffer::Unbounded
    };
    let nodes = match plan {
        Plan::Kernel(cfg) => cfg.p,
        Plan::Serve(cfg, _) => cfg.p,
    } as usize;
    let mut fan = Fanout::new().with(Box::new(Rollup::new()));
    if let Plan::Serve(_, window) = plan {
        fan = fan
            .with(Box::new(Blame::new()))
            .with(Box::new(Series::new(*window)));
    }
    if streamed {
        fan = fan.with(Box::new(TimelineBuilder::new(nodes)));
    }

    let (mut rt, title, service, horizon, spec_threads) = match plan {
        Plan::Kernel(cfg) => {
            let mut cfg = cfg.clone();
            cfg.buffer = buffer;
            let rt = cfg.run_with_observer(Box::new(fan));
            let threads = (cfg.speculative && cfg.threads > 1).then_some(cfg.threads);
            (rt, cfg.title(), None, None, threads)
        }
        Plan::Serve(cfg, _) => {
            let mut cfg = cfg.clone();
            cfg.buffer = buffer;
            let (rt, out) = cfg.run_with_observer(Box::new(fan)).expect("no trap");
            let summary = cfg.summary(&out);
            (rt, cfg.title(), Some(summary), Some(cfg.horizon), None)
        }
    };

    let records = rt.take_trace();
    assert_eq!(
        records.is_empty(),
        streamed,
        "{title}: records are kept exactly when a buffer is armed"
    );
    let any: Box<dyn std::any::Any> = rt.take_observer().expect("attached");
    let mut parts = any.downcast::<Fanout>().expect("the tee").into_parts();
    let mut take = |what: &str| -> Box<dyn std::any::Any> {
        assert!(!parts.is_empty(), "{title}: no {what} in the tee");
        parts.remove(0)
    };
    let rollup = take("rollup").downcast::<Rollup>().expect("a Rollup");
    let stats = rt.stats();
    let mut report = Report::new(&title, &rollup, &stats, rt.program(), rt.schemas())
        .with_sched(SchedSummary::from_stats(&stats.sched));
    let mut series = None;
    if let Some(service) = service {
        let blame = take("blame").downcast::<Blame>().expect("a Blame");
        let s = take("series").downcast::<Series>().expect("a Series");
        series = Some(s.summary());
        report = report
            .with_service(service)
            .with_blame(blame.summary(0.99, 10))
            .with_series(s.summary());
    }
    let spec = spec_threads.map(|threads| {
        let s = rt.spec_stats();
        SpecSummary {
            threads,
            windows: s.windows,
            serial_steps: s.serial_steps,
            rollbacks: s.rollbacks,
            anti_messages: s.anti_messages,
            ckpt_nodes: s.ckpt_nodes,
            max_window: s.max_window,
        }
    });
    if let Some(s) = &spec {
        report = report.with_speculative(s.clone());
    }

    let (tl, perfetto) = if streamed {
        let builder = take("timeline").downcast::<TimelineBuilder>();
        let tl = builder.expect("a TimelineBuilder").finish();
        let mut bytes = Vec::new();
        let n = perfetto::write_json(
            &mut bytes,
            &tl,
            rt.program(),
            spec.as_ref(),
            series.as_ref(),
        )
        .expect("a Vec takes every byte");
        assert_eq!(n, bytes.len() as u64, "{title}: the writer's byte count");
        (tl, bytes)
    } else {
        let tl = Timeline::build(&records, nodes);
        let json =
            perfetto::to_json_full(&records, &tl, rt.program(), spec.as_ref(), series.as_ref());
        (tl, json.into_bytes())
    };
    Outputs {
        report: report.json(),
        perfetto,
        path: match horizon {
            Some(h) => critpath::critical_path_until(&tl, h),
            None => critpath::critical_path(&tl),
        },
        breakdowns: critpath::node_breakdowns(&tl),
    }
}

#[test]
fn streamed_outputs_equal_the_buffered_ones() {
    let mut plans: Vec<Plan> = Kernel::ALL.map(|k| Plan::Kernel(small(k))).into();

    // Forwarded continuations: the one style whose callers adopt shells.
    let mut forward = small(Kernel::Em3d);
    forward.style = hem::apps::em3d::Style::Forward;
    plans.push(Plan::Kernel(forward));

    // The speculation counter track, fed by a Time-Warp run's merged
    // stream.
    let mut spec = small(Kernel::Sor);
    spec.threads = 2;
    spec.speculative = true;
    plans.push(Plan::Kernel(spec));

    // Request tracks, blame and series sections; then the same service
    // under a fault plan lossy enough for `Retransmit` instants.
    let mut serve = ServeConfig::new();
    serve.p = 8;
    serve.backends = 16;
    serve.horizon = 40_000;
    serve.warmup = 4_000;
    serve.dist = hem::machine::arrival::ArrivalDist::Poisson { mean_gap: 300.0 };
    let mut faulty = serve.clone();
    let mut plan = hem::machine::fault::FaultPlan::seeded(serve.seed);
    plan.drop_permille = 60;
    plan.jitter_max = 40;
    faulty.fault = Some(plan);
    plans.push(Plan::Serve(serve, 800));
    plans.push(Plan::Serve(faulty, 800));

    let mut instants = [false; 3];
    for plan in &plans {
        let streamed = outputs(plan, true);
        let buffered = outputs(plan, false);
        let name = match plan {
            Plan::Kernel(cfg) => cfg.title(),
            Plan::Serve(cfg, _) => cfg.title(),
        };
        assert_eq!(streamed.report, buffered.report, "{name}: report JSON");
        assert!(
            streamed.perfetto == buffered.perfetto,
            "{name}: Perfetto bytes differ ({} streamed, {} buffered)",
            streamed.perfetto.len(),
            buffered.perfetto.len()
        );
        assert_eq!(streamed.path, buffered.path, "{name}: critical path");
        assert!(streamed.path.total > 0, "{name}: a real path");
        assert_eq!(streamed.breakdowns, buffered.breakdowns, "{name}: nodes");

        let text = String::from_utf8(streamed.perfetto).expect("UTF-8");
        let has = |what: &str| text.contains(what);
        instants[0] |= has("\"name\":\"fallback ");
        instants[1] |= has("\"name\":\"shell adopted ");
        instants[2] |= has("\"name\":\"retransmit->");
        match plan {
            Plan::Kernel(cfg) if cfg.speculative => {
                assert!(has("\"cat\":\"spec\""), "{name}: speculation track");
            }
            Plan::Serve(..) => {
                assert!(has("\"cat\":\"series\""), "{name}: series tracks");
                assert!(has("\"cat\":\"req\""), "{name}: request track");
            }
            Plan::Kernel(_) => {}
        }
    }
    assert_eq!(
        instants, [true; 3],
        "every adaptation-instant kind (fallback, shell adopted, retransmit) was exported"
    );
}

#[test]
fn reliable_transport_traffic_is_attributed_to_ack_frames() {
    // With the reliable transport armed on a fault-free wire, the rollup
    // sees ack sends and the wire-class buckets separate protocol bytes
    // from payload bytes.
    let ids = hem::apps::sor::build();
    let mut rt = hem::apps::make_runtime(
        ids.program.clone(),
        16,
        hem::CostModel::cm5(),
        hem::ExecMode::Hybrid,
        hem::InterfaceSet::Full,
    );
    rt.enable_trace();
    rt.enable_reliable_transport();
    let inst = hem::apps::sor::setup(
        &mut rt,
        &ids,
        hem::apps::sor::SorParams {
            n: 16,
            block: 4,
            procs: hem::machine::topology::ProcGrid::square(16),
        },
    );
    hem::apps::sor::run(&mut rt, &inst, 1).unwrap();

    let records = rt.take_trace();
    let stats = rt.stats();
    let rollup = Rollup::from_records(&records);

    let mut by_cause = [0u64; 7];
    for l in rollup.per_link().values() {
        for (b, m) in by_cause.iter_mut().zip(l.msgs) {
            *b += m;
        }
    }
    let totals = stats.totals();
    assert!(by_cause[2] > 0, "acks flowed");
    assert_eq!(by_cause[2], totals.acks_sent);
    assert_eq!(rollup.total_sent(), stats.net.sent);
    let (data, ack, retx, coll) = rollup.words_by_class();
    assert_eq!(
        (data, ack, retx, coll),
        (
            stats.net.data_words,
            stats.net.ack_words,
            stats.net.retx_words,
            stats.net.coll_words
        )
    );
    assert!(stats.net.ack_words > 0);
    assert_eq!(retx, 0, "fault-free wire never retransmits");

    // Handled acks match too.
    assert_eq!(rollup.handled_by_cause()[2], totals.acks_handled);

    // MsgHandled records never carry the Retransmit cause.
    assert!(records.iter().all(|r| !matches!(
        r.event,
        hem::core::TraceEvent::MsgHandled {
            cause: MsgCause::Retransmit,
            ..
        }
    )));
}
