//! The benchmark binary. Usually started through `run.py`, which builds
//! it first:
//!
//! ```text
//! steadybench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Cross-checks the scenario once against the workload runner, then
//! measures for `S` seconds and prints one JSON result line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Diagnostics go to standard error.

use powersparse_congest::engine::Metrics;
use powersparse_congest::probe::{NoProbe, SpanProbe};
use powersparse_workloads::{run_scenario, AlgorithmSpec, EngineSpec, Scenario};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use steadybench::run::{execute, hwm_kib, validate, Algorithm, DetStages, Nothing, Output};
use steadybench::{median, spec};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("cannot parse {flag} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Counters every run of the scenario must reproduce.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Counters {
    rounds: u64,
    messages: u64,
}

impl Counters {
    fn of(m: &Metrics) -> Self {
        Self {
            rounds: m.rounds,
            messages: m.messages,
        }
    }
}

/// One result line in the making.
#[derive(Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `f` until at least `min` calls were made and `budget` has
/// elapsed since `start`.
fn repeat(start: Instant, budget: Duration, min: usize, mut f: impl FnMut()) {
    let mut calls = 0;
    while calls < min || start.elapsed() < budget {
        f();
        calls += 1;
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The end-to-end run (`--trace 0`).
fn end_to_end(sc: &Scenario, expect: Counters, seconds: f64, report: &mut Report) {
    let start = Instant::now();
    let (mut setup, mut setup_spent) = (Vec::new(), Duration::ZERO);
    let (mut whole, mut scenario) = (Vec::new(), Vec::new());
    let mut child_hwm = 0u64;
    repeat(start, Duration::from_secs_f64(seconds), 3, || {
        // Extra set-ups take a tenth of the run (at least seven samples),
        // interleaved with the iterations: the machine's speed drifts
        // over seconds, so setup_s samples the same stretch of time as
        // scenario_s.
        while setup.len() < 7 || setup_spent < start.elapsed() / 10 {
            let t = Instant::now();
            let g = sc.family.build(sc.seed);
            let build = t.elapsed();
            let ex = execute(&g, sc, NoProbe, false, &mut Nothing);
            setup.push(secs(build + ex.construct));
            setup_spent += t.elapsed();
        }
        report.attempted += 1;
        let it = catch_unwind(AssertUnwindSafe(|| {
            let t = Instant::now();
            let g = sc.family.build(sc.seed);
            let build = t.elapsed();
            let ex = execute(&g, sc, NoProbe, false, &mut Algorithm(sc));
            let t = Instant::now();
            let valid = validate(&g, sc, &ex.out);
            let check = t.elapsed();
            (
                build + ex.construct,
                ex.run,
                check,
                valid && Counters::of(&ex.metrics) == expect,
                ex.child_hwm_kib,
            )
        }));
        match it {
            Ok((set_up, run, check, true, hwm)) => {
                setup.push(secs(set_up));
                scenario.push(secs(run));
                whole.push(secs(set_up + run + check));
                child_hwm = child_hwm.max(hwm);
            }
            _ => report.failed += 1,
        }
    });
    let ok = report.attempted - report.failed;
    let ms: Vec<String> = scenario.iter().map(|s| format!("{:.0}", s * 1e3)).collect();
    eprintln!("steadybench: scenario_s samples (ms): {}", ms.join(" "));
    report.put("end_to_end_s", median(&whole), "s");
    report.put("scenario_s", median(&scenario), "s");
    report.put("setup_s", median(&setup), "s");
    let rss_kib = hwm_kib("self") + child_hwm;
    report.put("peak_rss_mib", rss_kib as f64 / 1024.0, "MiB");
    report.put("rounds", expect.rounds as f64, "count");
    report.put("messages", expect.messages as f64, "count");
    report.put("success_rate", ok as f64 / report.attempted as f64, "ratio");
}

/// Stage spans of one traced run, summed over rounds along the critical
/// path (the slowest shard of each round).
#[derive(Default)]
struct SpanSums {
    step: f64,
    transfer: f64,
    barrier: f64,
    covered: f64,
    executed: u64,
    charged: u64,
    quiet: u64,
    sparse: u64,
}

fn span_sums(probe: &SpanProbe, n: usize) -> SpanSums {
    let ns = |v: u64| v as f64 * 1e-9;
    let max = |v: &[u64]| v.iter().copied().max().unwrap_or(0);
    let mut s = SpanSums::default();
    for (obs, spans) in probe.rounds.iter().zip(&probe.spans) {
        // Charged rounds carry no traffic, so they count as quiet and
        // sparse too.
        s.quiet += u64::from(obs.messages == 0);
        s.sparse += u64::from(obs.dirty_nodes * 100 < n as u64);
        if spans.shards() == 0 {
            s.charged += 1;
            continue;
        }
        s.executed += 1;
        s.step += ns(max(&spans.step_ns));
        s.transfer += ns(max(&spans.transfer_ns));
        s.barrier += ns(max(&spans.barrier_ns));
        let whole = (0..spans.shards())
            .map(|w| spans.busy_ns(w) + spans.barrier_ns.get(w).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        s.covered += ns(whole);
    }
    s
}

/// The per-layer run (`--trace 1`). `shatter` holds the counters the
/// shattering MIS must reproduce on `det_ruling_k2`'s graph, which only
/// that workload's traced run times.
fn layers(
    sc: &Scenario,
    expect: Counters,
    shatter: Option<Counters>,
    seconds: f64,
    report: &mut Report,
) {
    let start = Instant::now();
    let budget = |share: f64| Duration::from_secs_f64(seconds * share);
    let check_ok = |report: &mut Report, ok: bool| {
        report.attempted += 1;
        report.failed += u64::from(!ok);
    };

    // Graph build and engine construction, repeated.
    let (mut build, mut construct) = (Vec::new(), Vec::new());
    repeat(start, budget(0.1), 5, || {
        let t = Instant::now();
        let g = sc.family.build(sc.seed);
        build.push(secs(t.elapsed()));
        construct.push(secs(
            execute(&g, sc, NoProbe, false, &mut Nothing).construct,
        ));
    });
    let g = sc.family.build(sc.seed);

    // The algorithm, untraced and traced in alternation so drift in the
    // machine's speed cancels out of the trace overhead. Untraced: the
    // overhead's baseline and the algorithm layer of single-call
    // workloads. Traced: stage spans, wire counters, validation.
    let det = sc.algorithm == AlgorithmSpec::DetRulingK2;
    let wired = matches!(sc.engine, EngineSpec::Process { .. });
    let (mut plain, mut traced, mut check) = (vec![], vec![], vec![]);
    let (mut residual, mut send, mut recv_wait, mut parent) = (vec![], vec![], vec![], vec![]);
    let (mut step, mut transfer, mut barrier) = (vec![], vec![], vec![]);
    let mut output = None;
    let mut last = None;
    repeat(start, budget(if det { 0.5 } else { 1.0 }), 2, || {
        let ex = execute(&g, sc, NoProbe, false, &mut Algorithm(sc));
        plain.push(secs(ex.run));
        check_ok(report, Counters::of(&ex.metrics) == expect);
        let output = output.get_or_insert(ex.out);

        let ex = execute(&g, sc, SpanProbe::new(), wired, &mut Algorithm(sc));
        let t = Instant::now();
        let valid = validate(&g, sc, &ex.out);
        check.push(secs(t.elapsed()));
        check_ok(
            report,
            valid && ex.out == *output && Counters::of(&ex.metrics) == expect,
        );
        let run = secs(ex.run);
        let sums = span_sums(&ex.probe, g.n());
        traced.push(run);
        residual.push((run - sums.covered) / run);
        step.push(sums.step);
        transfer.push(sums.transfer);
        barrier.push(sums.barrier);
        let wire = ex.wire.unwrap_or_default();
        let (s, r) = (wire.send_ns as f64 * 1e-9, wire.recv_ns as f64 * 1e-9);
        send.push(s);
        recv_wait.push(r);
        if wired {
            parent.push(run - s - r);
        }
        last = Some((sums, wire, ex.metrics));
    });
    let output = output.expect("at least one run");
    let (sums, wire, metrics) = last.expect("at least one traced run");

    // Theorem 1.1 split at its two public stages.
    let (mut sparsify, mut mis_on_sparse) = (vec![], vec![]);
    let mut stage_counts = None;
    if det {
        repeat(start, budget(0.75), 1, || {
            let ex = execute(&g, sc, NoProbe, false, &mut DetStages { k: sc.k });
            let (set, s1, s2) = ex.out;
            let same = output == Output::Ruling(set);
            check_ok(report, same && Counters::of(&ex.metrics) == expect);
            sparsify.push(secs(s1.wall));
            mis_on_sparse.push(secs(s2.wall));
            stage_counts = Some((s1, s2));
        });
    }
    let (s1, s2) = stage_counts.unwrap_or_default();

    // The shattering MIS on the same graph, pooled engine: one traced
    // run for its phases, then untraced runs for its time.
    let (mut shatter_s, mut phases) = (vec![], 0);
    if let Some(expect) = shatter {
        let sh = spec::shattering(sc);
        let ex = execute(&g, &sh, SpanProbe::new(), false, &mut Algorithm(&sh));
        let ok = validate(&g, &sh, &ex.out) && Counters::of(&ex.metrics) == expect;
        check_ok(report, ok);
        phases = ex.probe.phases.len();
        repeat(start, budget(1.0), 3, || {
            let ex = execute(&g, &sh, NoProbe, false, &mut Algorithm(&sh));
            let ok = validate(&g, &sh, &ex.out) && Counters::of(&ex.metrics) == expect;
            check_ok(report, ok);
            shatter_s.push(secs(ex.run));
        });
    }

    let plain_s = median(&plain);
    let messages = metrics.messages.max(1) as f64;
    report.put("graphs.build_s", median(&build), "s");
    report.put("graphs.check_s", median(&check), "s");
    report.put("engine.construct_s", median(&construct), "s");
    report.put("congest.step_s", median(&step), "s");
    report.put("congest.transfer_s", median(&transfer), "s");
    report.put("congest.barrier_s", median(&barrier), "s");
    report.put("congest.rounds_executed", sums.executed as f64, "count");
    report.put("congest.rounds_charged", sums.charged as f64, "count");
    report.put("congest.quiet_rounds", sums.quiet as f64, "count");
    report.put("congest.sparse_rounds", sums.sparse as f64, "count");
    report.put(
        "congest.per_round_us",
        plain_s * 1e6 / sums.executed.max(1) as f64,
        "us",
    );
    report.put(
        "msgcore.arena_cells_peak",
        metrics.arena_cells_peak as f64,
        "count",
    );
    report.put(
        "msgcore.arena_bytes_peak",
        metrics.arena_bytes_peak as f64,
        "bytes",
    );
    report.put(
        "msgcore.peak_queue_depth",
        metrics.peak_queue_depth as f64,
        "count",
    );
    report.put("sparsify.s", median(&sparsify), "s");
    report.put("sparsify.rounds", s1.rounds as f64, "count");
    report.put("sparsify.messages", s1.messages as f64, "count");
    report.put("ruling.mis_on_sparse_s", median(&mis_on_sparse), "s");
    report.put("ruling.mis_on_sparse_rounds", s2.rounds as f64, "count");
    report.put("ruling.mis_on_sparse_messages", s2.messages as f64, "count");
    let luby = sc.algorithm == AlgorithmSpec::LubyMis;
    report.put("mis.luby_s", if luby { plain_s } else { 0.0 }, "s");
    let shatter = shatter.unwrap_or(Counters {
        rounds: 0,
        messages: 0,
    });
    report.put("mis.shatter_s", median(&shatter_s), "s");
    report.put("mis.shatter_rounds", shatter.rounds as f64, "count");
    report.put("mis.shatter_messages", shatter.messages as f64, "count");
    report.put("mis.phases", phases as f64, "count");
    report.put("wire.frames_sent", wire.frames_sent as f64, "count");
    report.put("wire.frames_recv", wire.frames_recv as f64, "count");
    report.put("wire.bytes_sent", wire.bytes_sent as f64, "bytes");
    report.put("wire.bytes_recv", wire.bytes_recv as f64, "bytes");
    report.put(
        "wire.bytes_per_message",
        (wire.bytes_sent + wire.bytes_recv) as f64 / messages,
        "bytes/msg",
    );
    report.put("wire.send_s", median(&send), "s");
    report.put("wire.recv_wait_s", median(&recv_wait), "s");
    report.put("process.parent_s", median(&parent), "s");
    report.put("trace.overhead_s", median(&traced) - plain_s, "s");
    report.put("trace.residual_share", median(&residual), "ratio");
}

/// Runs `sc` once through the workload runner. Returns its counters and
/// whether its output validated and the counters match `pinned` (if
/// given); `None` if the runner failed.
fn cross_check(sc: &Scenario, pinned: Option<(u64, u64)>) -> Option<(Counters, bool)> {
    let reference = run_scenario(sc)
        .map_err(|e| eprintln!("steadybench: runner failed on {}: {e}", sc.name()))
        .ok()?;
    let got = Counters {
        rounds: reference.rounds,
        messages: reference.messages,
    };
    eprintln!(
        "steadybench: runner: {}: {} rounds, {} messages, {}",
        sc.name(),
        got.rounds,
        got.messages,
        reference.validation.detail
    );
    let mut ok = reference.validation.passed;
    if let Some((rounds, messages)) = pinned {
        if (got.rounds, got.messages) != (rounds, messages) {
            eprintln!("steadybench: pin mismatch: pinned {rounds} rounds, {messages} messages");
            ok = false;
        }
    }
    Some((got, ok))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("steadybench: {e}");
            eprintln!("usage: steadybench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let Some(w) = spec::workload(&args.workload) else {
        let names: Vec<String> = spec::workloads().into_iter().map(|w| w.name).collect();
        eprintln!(
            "steadybench: unknown workload `{}` (one of: {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let sc = w.scenario.clone().seed(args.seed);
    eprintln!("steadybench: {} = scenario {}", w.name, sc.name());
    let pin = w.pin(args.seed);

    // Cross-check: the runner must agree with the benchmark's pins, and
    // every measured iteration must agree with the runner.
    let Some((expect, mut correct)) = cross_check(&sc, pin.map(|p| (p.rounds, p.messages))) else {
        return ExitCode::FAILURE;
    };
    let mut shatter = None;
    if args.trace && sc.algorithm == AlgorithmSpec::DetRulingK2 {
        let sh = spec::shattering(&sc);
        let Some((counters, ok)) = cross_check(&sh, pin.and_then(|p| p.shatter)) else {
            return ExitCode::FAILURE;
        };
        shatter = Some(counters);
        correct &= ok;
    }

    let mut report = Report::default();
    if args.trace {
        layers(&sc, expect, shatter, args.seconds, &mut report);
    } else {
        end_to_end(&sc, expect, args.seconds, &mut report);
    }
    report.correct = correct && report.failed == 0;
    println!("{}", report.json());
    ExitCode::SUCCESS
}
