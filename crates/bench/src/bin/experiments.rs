//! Regenerates the paper's tables and figures and runs the workload
//! scenario suite. Usage:
//!
//! ```text
//! experiments [all|table1-det|table1-mis|table1-ruling|fig1|sparsify|shattering|nd|derand] [--scale S]
//! experiments engines [--out MANIFEST.json] [--net SPEC]...
//! experiments suite [--smoke] [--spec FILE.toml] [--out MANIFEST.json] [--force-engine ENGINE]
//!                   [--net SPEC] [--chaos] [--chaos-seed S] [--chaos-kills N]
//!                   [--chaos-corruptions N] [--repeats R] [--warmup W]
//! experiments suite --diff OLD.json NEW.json [--tolerance FRACTION] [--ignore-engine]
//! experiments trend [DIR] [--out REPORT.json]
//! experiments trace SCENARIO [--limit N] [--out FILE.json]
//! experiments profile SCENARIO [--repeats R] [--chrome-trace OUT.json]
//! experiments chaos SCENARIO [--seed S] [--kills N] [--corruptions N]
//! ```
//!
//! Output is markdown. The paper tables (`table1-det`, `table1-mis`,
//! `table1-ruling`, `sparsify`, `shattering`, `nd`) are
//! [`PaperTable`] scenario lists at `--scale S` (default 2), run and
//! validated by the suite runner and printed as one run table whose
//! last column carries each row's measured quantities; a table exits
//! nonzero if any row fails validation, and `trace`, `profile` and
//! `chaos` open any of its rows by name. `fig1` and `derand` measure
//! what the runner does not express (per-edge traffic on a crafted
//! graph; seed attempts and the beep-fanout ablation) on fixed
//! instances, so they accept `--scale` but ignore it. The `suite`
//! subcommand additionally writes a structured JSON manifest (default
//! `BENCH_suite.json`) for cross-run regression diffing, and exits
//! nonzero if any run fails its validity checks; `--repeats R` times
//! each scenario's run phase `R` times (plus `--warmup W` discarded
//! invocations) and records mean/min/max/95%-CI wall statistics in the
//! manifest. `engines --out` writes the engine-comparison table as a
//! manifest too (`BENCH_engine.json` is the committed instance), and
//! each `engines --net latency_us=N[,bandwidth_bytes_per_s=N]\
//! [,jitter_seed=N]` adds shaped-process latency-scaling rows; `suite
//! --net SPEC` shapes the wire of every process-engine scenario (pair
//! it with `--force-engine process` for the shaped conformance gate).
//! `trend` renders the cost trajectory across every `BENCH_*.json` in a
//! directory, and `trace` runs one named builtin scenario with a round
//! probe attached and prints the per-round activity table
//! (round, active edges, dirty nodes, messages, bits) — `--out` exports
//! the same rows as JSON. `profile` runs one scenario with the span
//! probe attached and prints the per-stage × per-shard wall breakdown
//! (step/transfer/barrier, imbalance, barrier-overhead share);
//! `--chrome-trace` exports a Perfetto-loadable trace-event file.
//! `suite --chaos` installs a seeded `FaultPlan` on every process-engine
//! scenario (kills + corruptions, upgrading fail-fast scenarios to the
//! default recovery policy) — recovery is operational, not semantic, so
//! a chaos-disturbed suite still diffs bit-for-bit against the
//! committed baseline with `--ignore-engine`: the recovery CI gate.
//! `chaos` runs one named builtin scenario under a seeded fault plan on
//! the supervised process engine, prints the recovery event log, and
//! exits nonzero if the recovered counters drift from a clean reference
//! run of the same scenario.

use powersparse::sparsify::{sparsify_power, SamplingStrategy};
use powersparse_bench::row;
use powersparse_congest::primitives::{
    exchange_with_neighbors, extend_trees, init_knowledge_and_trees, q_broadcast, q_message,
};
use powersparse_congest::sim::{SimConfig, Simulator};
use powersparse_graphs::{generators, power};
use powersparse_workloads::{
    builtin_suite, run_suite, suite_params, PaperTable, Scenario, SuiteManifest, SuiteProfile,
};
use std::collections::{BTreeMap, BTreeSet};

/// The `--scale` of the table commands when none is given.
const DEFAULT_SCALE: usize = 2;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let rest = args.get(1..).unwrap_or_default();
    if let Some(table) = PaperTable::ALL.into_iter().find(|t| t.command() == which) {
        let scale = scale_flag(which, rest);
        if !table_cmd(table, scale) {
            std::process::exit(1);
        }
        return;
    }
    match which {
        "fig1" => {
            scale_flag(which, rest);
            fig1();
        }
        "derand" => {
            scale_flag(which, rest);
            derand_exp();
        }
        "engines" => engines_cmd(rest),
        "suite" => suite_cmd(rest),
        "trend" => trend_cmd(rest),
        "trace" => trace_cmd(rest),
        "profile" => profile_cmd(rest),
        "chaos" => chaos_cmd(rest),
        "all" => {
            let scale = scale_flag(which, rest);
            let mut passed = true;
            for table in PaperTable::ALL {
                passed &= table_cmd(table, scale);
            }
            fig1();
            derand_exp();
            engines_exp(None, &[]);
            if !passed {
                std::process::exit(1);
            }
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    }
}

/// Strict argument parsing for the table commands: an optional
/// `--scale S` with `S` an integer ≥ 1 (default [`DEFAULT_SCALE`]); a
/// malformed value or any other argument exits 2 with the usage line.
fn scale_flag(cmd: &str, args: &[String]) -> usize {
    let usage = format!("usage: experiments {cmd} [--scale S]");
    let mut scale = DEFAULT_SCALE;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => scale = positive_flag(&mut it, arg, &usage),
            other => {
                eprintln!("unknown {cmd} argument '{other}' ({usage})");
                std::process::exit(2);
            }
        }
    }
    scale
}

/// E1–E3, E5–E7 — one paper table: its [`PaperTable`] scenario list at
/// `scale`, run and validated by the suite runner and printed as the
/// shared run table. Returns whether every row validated.
fn table_cmd(table: PaperTable, scale: usize) -> bool {
    let title = match table {
        PaperTable::Table1Det => {
            "E1: Table 1 — deterministic ruling sets of G^k: Cor 6.2 (c=2,3) and AGLP \
             (B=2, IDs) vs Thm 1.1"
        }
        PaperTable::Table1Mis => {
            "E2: Table 1 — randomized MIS of G^k: Luby (Sec 8.1) and BeepingMIS vs Thm 1.2"
        }
        PaperTable::Table1Ruling => "E3: Table 1 — randomized (k+1, kβ)-ruling sets (Cor 1.3)",
        PaperTable::Sparsify => "E5: Sparsification (Lemma 3.1) — bounds and scaling",
        PaperTable::Shattering => "E6: Theorem 1.4 — MIS of G via shattering vs Luby, Δ sweep",
        PaperTable::Nd => "E7: Network decomposition of G^k (Theorem A.1 interface)",
    };
    let manifest = run_suite(table.command(), &table.scenarios(scale)).unwrap_or_else(|e| {
        eprintln!("{} failed: {e}", table.command());
        std::process::exit(1);
    });
    println!("\n## {title} (scale {scale})\n");
    print_run_table(&manifest);
    if !manifest.all_passed() {
        eprintln!(
            "{}: validation failures — see the table above",
            table.command()
        );
    }
    manifest.all_passed()
}

/// Prints a manifest's runs as one markdown table: identity, size, costs,
/// run wall and the validation verdict with its detail, which carries
/// the measured quantities the paper tables report (domination, |S|,
/// max d_k(v, Q), undecided nodes after pre-shattering, colors and
/// clusters).
fn print_run_table(manifest: &SuiteManifest) {
    let header = [
        "scenario",
        "n",
        "m",
        "Δ",
        "rounds",
        "messages",
        "peak queue",
        "run wall",
        "valid",
        "detail",
    ];
    println!("{}", row(&header.map(String::from)));
    println!("{}", row(&["---"; 10].map(String::from)));
    for run in &manifest.runs {
        let wall = if run.wall_stats.samples > 1 {
            format!(
                "{:.1}±{:.1}ms",
                run.wall_stats.mean_us / 1000.0,
                run.wall_stats.ci95_us / 1000.0
            )
        } else {
            format!("{:.1}ms", run.wall.run_us as f64 / 1000.0)
        };
        println!(
            "{}",
            row(&[
                run.name.clone(),
                run.n.to_string(),
                run.m.to_string(),
                run.max_degree.to_string(),
                run.rounds.to_string(),
                run.messages.to_string(),
                run.peak_queue_depth.to_string(),
                wall,
                if run.validation.passed { "yes" } else { "NO" }.into(),
                // `|S|` would end the markdown cell early.
                run.validation.detail.replace('|', "\\|"),
            ])
        );
    }
}

/// E4 — Figure 1: tightness of Lemma 4.2 (load across the bottleneck).
fn fig1() {
    println!("\n## E4: Figure 1 — Lemma 4.2 tightness on the bottleneck edge {{v,w}}\n");
    println!(
        "{}",
        row(&[
            "Δ̂",
            "broadcast msgs across",
            "q-message bits across",
            "bits ratio vs prev"
        ]
        .map(String::from))
    );
    println!("{}", row(&["---"; 4].map(String::from)));
    let s = 3;
    let mut prev_bits = None;
    for hatd in [4usize, 8, 16, 32] {
        let (g, q, v, w) = generators::figure1(hatd, s);
        // This experiment measures per-edge traffic on the bottleneck
        // edge, so it opts in to per-edge accounting.
        let config = SimConfig::for_graph(&g).with_per_edge_accounting();
        let mut sim = Simulator::new(&g, config);
        let (mut sets, mut trees) = init_knowledge_and_trees(&mut sim, &q);
        for _ in 1..s {
            sets = extend_trees(&mut sim, &sets, &mut trees);
        }
        // Broadcast load.
        let msgs: BTreeMap<u32, (u64, usize)> = q
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| (i as u32, (i as u64, 8)))
            .collect();
        let before = sim.messages_across(v, w) + sim.messages_across(w, v);
        let _ = q_broadcast(&mut sim, &trees, &msgs);
        let bcast = sim.messages_across(v, w) + sim.messages_across(w, v) - before;
        // Q-message load (bits).
        let mut sim2 = Simulator::new(&g, config);
        let (mut s2, mut t2) = init_knowledge_and_trees(&mut sim2, &q);
        for _ in 1..(s - 1) {
            s2 = extend_trees(&mut sim2, &s2, &mut t2);
        }
        let _ = extend_trees(&mut sim2, &s2, &mut t2);
        let neighbor_sets = exchange_with_neighbors(&mut sim2, &s2);
        let mut qmsgs: BTreeMap<u32, Vec<(u32, u64)>> = BTreeMap::new();
        for x in g.nodes().filter(|x| q[x.index()]) {
            let targets: Vec<(u32, u64)> = power::q_neighborhood(&g, x, s, &q)
                .into_iter()
                .map(|y| (y.0, 1))
                .collect();
            qmsgs.insert(x.0, targets);
        }
        let before = sim2.bits_across(v, w) + sim2.bits_across(w, v);
        let _ = q_message(&mut sim2, &t2, &neighbor_sets, &qmsgs, 8);
        let qbits = sim2.bits_across(v, w) + sim2.bits_across(w, v) - before;
        let ratio = prev_bits
            .map(|p: u64| format!("{:.2}", qbits as f64 / p as f64))
            .unwrap_or_else(|| "-".into());
        prev_bits = Some(qbits);
        println!(
            "{}",
            row(&[
                hatd.to_string(),
                bcast.to_string(),
                qbits.to_string(),
                ratio
            ])
        );
    }
    println!("\nExpected shape: broadcast grows linearly in Δ̂ (exactly Δ̂ messages);");
    println!(
        "q-message bits grow quadratically (ratio ≈ 4 when Δ̂ doubles) — Figure 1's Δ̂ vs Δ̂²/4."
    );
}

/// E8 — Ablation: sampling strategies of the sparsifier.
fn derand_exp() {
    println!("\n## E8: Ablation — sparsifier sampling strategies (k = 1)\n");
    println!(
        "{}",
        row(&["graph", "strategy", "rounds", "seed attempts", "max d(v,Q)"].map(String::from))
    );
    println!("{}", row(&["---"; 5].map(String::from)));
    let params = suite_params();
    let g = generators::connected_gnp(192, 24.0 / 192.0, 9);
    for (label, strat) in [
        (
            "Algorithm 1 (randomized)",
            SamplingStrategy::Randomized { seed: 1 },
        ),
        ("Algorithm 2 (seed scan)", SamplingStrategy::SeedSearch),
    ] {
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let out = sparsify_power(&mut sim, 1, &[true; 192], &params, strat).expect("sparsify");
        println!(
            "{}",
            row(&[
                "gnp(192, d=24)".into(),
                label.into(),
                sim.metrics().rounds.to_string(),
                out.iterations
                    .iter()
                    .map(|i| i.seed_attempts)
                    .sum::<u64>()
                    .to_string(),
                power::max_q_degree(&g, 1, &out.q).to_string(),
            ])
        );
    }
    println!("\nThe deterministic scan pays one convergecast + broadcast per candidate");
    println!("seed (Claim 5.6's accounting); the randomized variant skips them.");
    // Beep fanout ablation (Lemma 8.2): correctness, not cost.
    println!("\nBeep-fanout ablation (Lemma 8.2): on path P3 with beepers {{0,2}}, k=2:");
    let g = generators::path(3);
    let beepers = vec![true, false, true];
    for fanout in [1usize, 2] {
        let mut sim = Simulator::new(&g, SimConfig::for_graph(&g));
        let heard =
            powersparse_congest::primitives::khop_beep_with_fanout(&mut sim, &beepers, 2, fanout);
        println!(
            "  fanout {fanout}: node 0 hears a distance-2 beeper: {}",
            heard[0]
        );
    }
    println!("  (fanout 1 loses the beep — the 2-tuple rule of Lemma 8.2 is necessary)");
}

/// Strict parse of a `--net` shaping spec:
/// `latency_us=N[,bandwidth_bytes_per_s=N][,jitter_seed=N]`.
/// `latency_us` is required so a typo cannot silently request an
/// unshaped wire; the other knobs default to 0 (infinite bandwidth, no
/// jitter).
fn parse_net_spec(text: &str) -> Result<powersparse_engine::NetworkSpec, String> {
    let mut spec = powersparse_engine::NetworkSpec::default();
    let mut saw_latency = false;
    for part in text.split(',') {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("expected `key=value`, got `{part}`"))?;
        let value: u64 = value
            .trim()
            .parse()
            .map_err(|_| format!("cannot parse `{}` as an integer", value.trim()))?;
        match key.trim() {
            "latency_us" => {
                spec.latency_us = value;
                saw_latency = true;
            }
            "bandwidth_bytes_per_s" => spec.bandwidth_bytes_per_s = value,
            "jitter_seed" => spec.jitter_seed = value,
            other => {
                return Err(format!(
                    "unknown net key `{other}` (expected latency_us, \
                     bandwidth_bytes_per_s, jitter_seed)"
                ))
            }
        }
    }
    if !saw_latency {
        return Err("a net spec needs `latency_us=N`".into());
    }
    Ok(spec)
}

/// The value following `flag`, or exit 2 with `FLAG requires a value
/// (USAGE)` — the one missing-value path every subcommand shares.
fn flag_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str, usage: &str) -> &'a str {
    it.next().map(String::as_str).unwrap_or_else(|| {
        eprintln!("{flag} requires a value ({usage})");
        std::process::exit(2);
    })
}

/// Parses `flag`'s value, or exits 2 naming the flag and the `expected`
/// form.
fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str, expected: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("cannot parse {flag} '{value}' ({expected})");
        std::process::exit(2);
    })
}

/// The `--net SPEC` value following the flag, strictly parsed (see
/// [`parse_net_spec`]); exits 2 on a missing or malformed spec.
fn net_flag(it: &mut std::slice::Iter<'_, String>, usage: &str) -> powersparse_engine::NetworkSpec {
    let value = flag_value(it, "--net", usage);
    parse_net_spec(value).unwrap_or_else(|e| {
        eprintln!("cannot parse --net '{value}': {e}");
        std::process::exit(2);
    })
}

/// The value following a count flag (`--repeats R`, `--scale S`): an
/// integer ≥ 1, else exit 2 with the usage line.
fn positive_flag(it: &mut std::slice::Iter<'_, String>, flag: &str, usage: &str) -> usize {
    let value = flag_value(it, flag, usage);
    match value.parse::<usize>() {
        Ok(v) if v >= 1 => v,
        _ => {
            eprintln!("cannot parse {flag} '{value}' (an integer >= 1; {usage})");
            std::process::exit(2);
        }
    }
}

/// Applies one chaos flag to `spec`, keyed by its last word
/// (`--seed S` / `--kills N` / `--corruptions N`, or the `--chaos-`
/// prefixed suite forms), exiting 2 on a malformed value.
fn chaos_flag(spec: &mut powersparse_workloads::ChaosSpec, flag: &str, value: &str) {
    match flag.rsplit('-').next() {
        Some("seed") => spec.seed = parse_flag(flag, value, "a u64 seed"),
        Some("kills") => spec.kills = parse_flag(flag, value, "an event count"),
        _ => spec.corruptions = parse_flag(flag, value, "an event count"),
    }
}

/// Strict `engines` argument parsing: `--out MANIFEST.json` plus a
/// repeatable `--net SPEC` adding one shaped-wire profile per flag to
/// the latency-scaling rows.
fn engines_cmd(args: &[String]) {
    let usage = "usage: experiments engines [--out MANIFEST.json] [--net SPEC]...";
    let mut out: Option<String> = None;
    let mut nets: Vec<powersparse_engine::NetworkSpec> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(flag_value(&mut it, arg, usage).to_string()),
            "--net" => nets.push(net_flag(&mut it, usage)),
            other => {
                eprintln!("unknown engines argument '{other}' ({usage})");
                std::process::exit(2);
            }
        }
    }
    engines_exp(out.as_deref(), &nets);
}

/// E9 — Engine comparison: seed-42 Luby MIS on `gnp(n, d=8)` for
/// n ∈ {10³, 10⁴, 10⁵}, on the sequential reference and on the pooled
/// and process backends at 2/4/8 shards. Each `--net` shaping profile
/// adds shaped process rows at 2 and 4 shards on n = 10³. Every row is
/// a [`Scenario`](powersparse_workloads::Scenario) run by the suite
/// runner (3 timed invocations + 1 warmup, mean ± 95% CI), so each
/// re-runs from its recorded identity; every row's counters are
/// asserted equal to the sequential row for its n — the engine
/// contract, and for shaped rows the promise that shaping moves wall
/// clock only. With `--out` the rows are written as a `SuiteManifest`
/// (suite `engines`); `BENCH_engine.json` is the committed instance.
fn engines_exp(out: Option<&str>, nets: &[powersparse_engine::NetworkSpec]) {
    use powersparse_workloads::{run_suite_with, GraphFamily, Repeat, RunOptions, RunRecord};

    let gnp = |n: usize| Scenario::new(GraphFamily::Gnp { n, avg_deg: 8.0 }).seed(42);
    let mut scenarios = Vec::new();
    for n in [1_000usize, 10_000, 100_000] {
        scenarios.push(gnp(n));
        for shards in [2usize, 4, 8] {
            scenarios.push(gnp(n).pooled(shards));
            scenarios.push(gnp(n).process(shards));
        }
    }
    for &net in nets {
        for shards in [2usize, 4] {
            scenarios.push(gnp(1_000).process(shards).network(net));
        }
    }
    let opts = RunOptions {
        repeat: Repeat {
            invocations: 3,
            iterations: 1,
            warmup: 1,
        },
        ..RunOptions::default()
    };
    let manifest = run_suite_with("engines", &scenarios, &opts)
        .unwrap_or_else(|e| panic!("engines run failed: {e}"));

    println!("\n## E9: Round-engine comparison — Luby MIS on G, wall clock\n");
    println!(
        "{}",
        row(&[
            "run",
            "m",
            "wall (mean±ci95)",
            "speedup",
            "rounds",
            "messages"
        ]
        .map(String::from))
    );
    println!("{}", row(&["---"; 6].map(String::from)));
    let counters = |r: &RunRecord| {
        (
            r.rounds,
            r.charged_rounds,
            r.messages,
            r.bits,
            r.peak_queue_depth,
            r.arena_cells_peak,
            r.arena_bytes_peak,
            r.output_size,
        )
    };
    for run in &manifest.runs {
        let seq = manifest
            .runs
            .iter()
            .find(|r| r.n == run.n && r.engine == "sequential")
            .expect("every size has a sequential row");
        assert!(
            run.validation.passed && counters(run) == counters(seq),
            "{} diverged from the sequential row: {}",
            run.name,
            run.validation.detail
        );
        println!(
            "{}",
            row(&[
                run.name.clone(),
                run.m.to_string(),
                format!(
                    "{:.1}±{:.1}ms",
                    run.wall_stats.mean_us / 1000.0,
                    run.wall_stats.ci95_us / 1000.0
                ),
                format!("{:.2}x", seq.wall_stats.mean_us / run.wall_stats.mean_us),
                run.rounds.to_string(),
                run.messages.to_string(),
            ])
        );
    }
    println!(
        "\nEvery row re-validated its MIS and matched the sequential row for its n on every \
         counter; speedup = sequential mean wall / this row's. Shaped rows \
         (`+net(...)`) move wall clock only."
    );
    if let Some(path) = out {
        std::fs::write(path, manifest.to_json_string())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\nmanifest written to {path}");
    }
}

/// E11 — `experiments trend [DIR] [--out REPORT.json]`: load every
/// `BENCH_*.json` manifest in `DIR` (default `.`), render the
/// per-scenario cost trajectory and optionally emit it as JSON. A
/// malformed or unreadable manifest exits nonzero — CI runs this over
/// the committed manifests, so a bad commit breaks the build.
fn trend_cmd(args: &[String]) {
    use powersparse_workloads::TrendReport;

    let usage = "usage: experiments trend [DIR] [--out REPORT.json]";
    let mut dir: Option<String> = None;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(flag_value(&mut it, arg, usage).to_string()),
            other if dir.is_none() && !other.starts_with('-') => dir = Some(other.to_string()),
            other => {
                eprintln!("unknown trend argument '{other}' ({usage})");
                std::process::exit(2);
            }
        }
    }
    let dir = dir.unwrap_or_else(|| ".".into());
    let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| {
        eprintln!("cannot read directory {dir}: {e}");
        std::process::exit(2);
    });
    let mut manifests: Vec<(String, SuiteManifest)> = Vec::new();
    for entry in entries {
        let entry = entry.unwrap_or_else(|e| {
            eprintln!("cannot list {dir}: {e}");
            std::process::exit(2);
        });
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(entry.path()).unwrap_or_else(|e| {
            eprintln!("cannot read manifest {name}: {e}");
            std::process::exit(2);
        });
        let manifest = SuiteManifest::parse(&text).unwrap_or_else(|e| {
            eprintln!("malformed manifest {name}: {e}");
            std::process::exit(2);
        });
        manifests.push((name, manifest));
    }
    if manifests.is_empty() {
        eprintln!("no BENCH_*.json manifests found in {dir}");
        std::process::exit(2);
    }
    let report = TrendReport::from_manifests(&manifests);
    println!("\n## E11: Manifest trend — `{dir}`\n");
    print!("{}", report.render_markdown());
    if let Some(path) = out {
        std::fs::write(&path, report.to_json().to_string_pretty())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\ntrend report written to {path}");
    }
}

/// Paper-table rows resolve by name at every `--scale` from 1 to this.
const LOOKUP_MAX_SCALE: usize = 8;

/// Looks a scenario up by canonical name: the builtin smoke suite first
/// (so the cheap instance of a name wins), then the full-suite scenarios
/// smoke does not carry, then every [`PaperTable`] row at scales 1 to
/// [`LOOKUP_MAX_SCALE`]. Unknown names list the catalogue (tables at
/// scale 1) and exit nonzero.
fn find_builtin_scenario(target: &str) -> Scenario {
    let suites = || {
        builtin_suite(SuiteProfile::Smoke)
            .into_iter()
            .chain(builtin_suite(SuiteProfile::Full))
    };
    let tables = |scale| {
        PaperTable::ALL
            .into_iter()
            .flat_map(move |t| t.scenarios(scale))
    };
    let found = suites()
        .chain((1..=LOOKUP_MAX_SCALE).flat_map(tables))
        .find(|s| s.name() == target);
    if let Some(sc) = found {
        return sc;
    }
    eprintln!(
        "unknown scenario '{target}'; builtin scenarios (paper-table rows also resolve at \
         --scale 2 to {LOOKUP_MAX_SCALE}):"
    );
    let mut seen = BTreeSet::new();
    for s in suites().chain(tables(1)) {
        if seen.insert(s.name()) {
            eprintln!("  {}", s.name());
        }
    }
    std::process::exit(2);
}

/// E12 — `experiments trace SCENARIO [--limit N]`: run one builtin
/// scenario with a round probe attached and print the per-round
/// activity table (round, active edges, dirty nodes, messages, bits).
/// The scenario is looked up by its canonical name (see
/// [`find_builtin_scenario`]); `--limit N` downsamples the table to at most `N`
/// evenly strided rows (default: every round). The probe invariants
/// (trace length = rounds on a full trace, per-round messages/bits
/// summing to the run totals) are re-checked and a violation exits
/// nonzero.
fn trace_cmd(args: &[String]) {
    use powersparse_workloads::{run_scenario_with, Json, Repeat, RunOptions, TraceRow};

    let usage = "usage: experiments trace SCENARIO [--limit N] [--out FILE.json]";
    let mut target: Option<String> = None;
    let mut limit = 0usize;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--limit" => {
                let value = flag_value(&mut it, arg, usage);
                limit = parse_flag(arg, value, "a row count; 0 = every round");
            }
            "--out" => out = Some(flag_value(&mut it, arg, usage).to_string()),
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_string());
            }
            other => {
                eprintln!("unknown trace argument '{other}' ({usage})");
                std::process::exit(2);
            }
        }
    }
    let Some(target) = target else {
        eprintln!("trace requires a scenario name ({usage})");
        std::process::exit(2);
    };
    let sc = &find_builtin_scenario(&target);
    let opts = RunOptions {
        repeat: Repeat::once(),
        trace: Some(limit),
        profile: false,
        chaos: None,
    };
    let rec = run_scenario_with(sc, &opts).unwrap_or_else(|e| panic!("trace run failed: {e}"));
    let trace = rec.trace.as_ref().expect("trace was requested");
    println!(
        "\n## E12: Round trace — `{}` ({} rounds, {} shown)\n",
        Scenario::name(sc),
        rec.rounds,
        trace.len()
    );
    println!(
        "{}",
        row(&["round", "active edges", "dirty nodes", "messages", "bits"].map(String::from))
    );
    println!("{}", row(&["---"; 5].map(String::from)));
    for r in trace {
        println!(
            "{}",
            row(&[
                r.round.to_string(),
                r.active_edges.to_string(),
                r.dirty_nodes.to_string(),
                r.messages.to_string(),
                r.bits.to_string(),
            ])
        );
    }
    println!(
        "\ntotals: {} rounds ({} charged), {} messages, {} bits; peak queue {}; \
         arena peak {} cells / {} bytes; validation: {}",
        rec.rounds,
        rec.charged_rounds,
        rec.messages,
        rec.bits,
        rec.peak_queue_depth,
        rec.arena_cells_peak,
        rec.arena_bytes_peak,
        rec.validation.detail
    );
    // Re-check the probe invariants the manifest trace section rests on.
    let mut bad = false;
    if limit == 0 {
        if trace.len() as u64 != rec.rounds {
            eprintln!(
                "PROBE VIOLATION: full trace has {} rows but the run counted {} rounds",
                trace.len(),
                rec.rounds
            );
            bad = true;
        }
        let (msgs, bits): (u64, u64) = trace
            .iter()
            .fold((0, 0), |(m, b), r| (m + r.messages, b + r.bits));
        if msgs != rec.messages || bits != rec.bits {
            eprintln!(
                "PROBE VIOLATION: trace sums ({msgs} msgs, {bits} bits) disagree with the \
                 counters ({} msgs, {} bits)",
                rec.messages, rec.bits
            );
            bad = true;
        }
    } else if trace.len() > limit {
        eprintln!(
            "PROBE VIOLATION: downsampled trace has {} rows > limit {limit}",
            trace.len()
        );
        bad = true;
    }
    if let Some(path) = &out {
        // Structured export of the same rows, gated by an exact
        // round trip through the manifest TraceRow schema.
        let doc = Json::Obj(vec![
            ("scenario".into(), Json::str(&Scenario::name(sc))),
            ("rounds".into(), Json::num(rec.rounds)),
            (
                "rows".into(),
                Json::Arr(trace.iter().map(TraceRow::to_json).collect()),
            ),
        ]);
        let text = doc.to_string_pretty();
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        let reread =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot re-read {path}: {e}"));
        let back = Json::parse(&reread).unwrap_or_else(|e| {
            eprintln!("TRACE EXPORT VIOLATION: {path} does not parse back: {e}");
            std::process::exit(1);
        });
        let rows: Result<Vec<TraceRow>, _> = back
            .get("rows")
            .and_then(Json::as_arr)
            .map(|rows| rows.iter().map(TraceRow::from_json).collect())
            .unwrap_or_else(|| {
                eprintln!("TRACE EXPORT VIOLATION: {path} lost its rows array");
                std::process::exit(1);
            });
        match rows {
            Ok(rows) if rows == *trace => println!("trace JSON written to {path}"),
            Ok(_) => {
                eprintln!("TRACE EXPORT VIOLATION: {path} rows drifted through the round trip");
                bad = true;
            }
            Err(e) => {
                eprintln!("TRACE EXPORT VIOLATION: {path} rows do not parse: {e}");
                bad = true;
            }
        }
    }
    if !rec.validation.passed || bad {
        eprintln!("trace failed — see above");
        std::process::exit(1);
    }
}

/// E13 — `profile`: stage-level time attribution for one builtin
/// scenario. Runs the scenario `--repeats` times with a span probe
/// attached and prints the per-stage × per-shard wall breakdown, the
/// step-imbalance metric (max/mean shard step time) and the barrier
/// overhead share; `--chrome-trace OUT.json` additionally exports the
/// first profiled run as a Chrome trace-event file (one Perfetto track
/// per shard plus active-edge/arena counter tracks), gated by parsing
/// the written file back. Span timings are machine-shaped: nothing here
/// is compared across runs or engines.
fn profile_cmd(args: &[String]) {
    use powersparse_bench::alloc_gauge;
    use powersparse_workloads::{breakdown, chrome_trace, profile_scenario, Json};

    let mut target: Option<String> = None;
    let mut repeats = 1usize;
    let mut trace_out: Option<String> = None;
    let usage = "usage: experiments profile SCENARIO [--repeats R] [--chrome-trace OUT.json]";
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--repeats" => repeats = positive_flag(&mut it, arg, usage),
            "--chrome-trace" => trace_out = Some(flag_value(&mut it, arg, usage).to_string()),
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_string());
            }
            other => {
                eprintln!("unknown profile argument '{other}' ({usage})");
                std::process::exit(2);
            }
        }
    }
    let Some(target) = target else {
        eprintln!("profile requires a scenario name ({usage})");
        std::process::exit(2);
    };
    let sc = find_builtin_scenario(&target);

    alloc_gauge::reset();
    let t = std::time::Instant::now();
    let probes =
        profile_scenario(&sc, repeats).unwrap_or_else(|e| panic!("profile run failed: {e}"));
    let wall_mean_us = t.elapsed().as_micros() as f64 / repeats as f64;
    let gauge = alloc_gauge::snapshot();
    let b = breakdown(&probes);

    println!(
        "\n## E13: Stage profile — `{}` ({} rounds, {} shard{}, {} repeat{})\n",
        Scenario::name(&sc),
        b.rounds,
        b.stats.shards,
        if b.stats.shards == 1 { "" } else { "s" },
        repeats,
        if repeats == 1 { "" } else { "s" },
    );
    println!(
        "{}",
        row(&["shard", "step", "transfer", "barrier wait", "total"].map(String::from))
    );
    println!("{}", row(&["---"; 5].map(String::from)));
    let us = |v: f64| format!("{v:.1}µs");
    for sp in &b.shards {
        println!(
            "{}",
            row(&[
                sp.shard.to_string(),
                us(sp.step_us),
                us(sp.transfer_us),
                us(sp.barrier_us),
                us(sp.total_us()),
            ])
        );
    }
    println!(
        "{}",
        row(&[
            "Σ".into(),
            us(b.stats.step_us),
            us(b.stats.transfer_us),
            us(b.stats.barrier_us),
            us(b.stats.step_us + b.stats.transfer_us + b.stats.barrier_us),
        ])
    );
    println!(
        "\nstep imbalance (max/mean over shards): {:.2}; barrier overhead: {:.1}% of \
         attributed time; spanned-run wall mean: {:.1}µs",
        b.stats.imbalance,
        100.0 * b.stats.barrier_share,
        wall_mean_us,
    );
    if alloc_gauge::enabled() {
        println!(
            "allocation gauges: {} allocations, {} bytes peak live across the profiled runs",
            gauge.count, gauge.bytes_peak
        );
    }

    if let Some(path) = &trace_out {
        let doc = chrome_trace(&probes[0], &Scenario::name(&sc));
        let text = doc.to_string_pretty();
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        let reread =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot re-read {path}: {e}"));
        match Json::parse(&reread) {
            Ok(back) if back == doc => {
                let events = back
                    .get("traceEvents")
                    .and_then(Json::as_arr)
                    .map_or(0, |a| a.len());
                println!("chrome trace written to {path} ({events} events) — load it in Perfetto");
            }
            Ok(_) => {
                eprintln!("CHROME TRACE VIOLATION: {path} drifted through the round trip");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("CHROME TRACE VIOLATION: {path} does not parse back: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// E14 — `chaos`: one builtin scenario under a seeded fault plan on the
/// supervised process engine. Runs a clean reference first, then the
/// same scenario with the plan installed (kills, corruptions), prints
/// the recovery event log the supervisor recorded (one row per respawn
/// attempt), and exits nonzero if any recovered counter drifts from the
/// clean reference — the single-scenario version of the suite-level
/// recovery gate. Non-process scenarios are remapped onto the process
/// engine (there is no wire to disturb otherwise).
fn chaos_cmd(args: &[String]) {
    use powersparse_workloads::{run_chaos_scenario, run_scenario, ChaosSpec, EngineSpec};

    let mut target: Option<String> = None;
    let mut chaos = ChaosSpec::default();
    let usage = "usage: experiments chaos SCENARIO [--seed S] [--kills N] [--corruptions N]";
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" | "--kills" | "--corruptions" => {
                chaos_flag(&mut chaos, arg, flag_value(&mut it, arg, usage));
            }
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_string());
            }
            other => {
                eprintln!("unknown chaos argument '{other}' ({usage})");
                std::process::exit(2);
            }
        }
    }
    let Some(target) = target else {
        eprintln!("chaos requires a scenario name ({usage})");
        std::process::exit(2);
    };
    let mut sc = find_builtin_scenario(&target);
    if !matches!(sc.engine, EngineSpec::Process { .. }) {
        let shards = sc.engine.shards().max(2);
        println!("note: remapping `{target}` onto the process engine ({shards} shards) — chaos needs a wire to disturb");
        sc.engine = EngineSpec::Process { shards };
    }
    let clean = run_scenario(&sc).unwrap_or_else(|e| panic!("clean reference failed: {e}"));
    let (disturbed, events, fired) =
        run_chaos_scenario(&sc, &chaos).unwrap_or_else(|e| panic!("chaos run failed: {e}"));
    println!(
        "\n## E14: Chaos — `{}` (seed {}, {} kills, {} corruptions planned; {fired} fired)\n",
        Scenario::name(&sc),
        chaos.seed,
        chaos.kills,
        chaos.corruptions
    );
    println!(
        "{}",
        row(&["round", "shard", "attempt", "backoff", "cause"].map(String::from))
    );
    println!("{}", row(&["---"; 5].map(String::from)));
    for ev in &events {
        println!(
            "{}",
            row(&[
                ev.round.to_string(),
                ev.shard.to_string(),
                ev.attempt.to_string(),
                format!("{}ns", ev.backoff_ns),
                ev.cause.clone(),
            ])
        );
    }
    let recovery = disturbed
        .recovery
        .expect("a chaos run always records a recovery section");
    println!(
        "\n{} recovery events; policy: max_retries={} backoff={}ms checkpoint_every={}; \
         validation: {}",
        events.len(),
        recovery.max_retries,
        recovery.backoff_ms,
        recovery.checkpoint_every,
        disturbed.validation.detail
    );
    let mut bad = false;
    if fired == 0 {
        eprintln!(
            "CHAOS VIOLATION: no planned fault fired — the run finished before any event round \
             (raise --kills/--corruptions or pick a longer scenario)"
        );
        bad = true;
    }
    // Recovery must be invisible in every semantic counter: the replayed
    // run has to land exactly where the clean reference did.
    let counters = [
        ("rounds", clean.rounds, disturbed.rounds),
        (
            "charged_rounds",
            clean.charged_rounds,
            disturbed.charged_rounds,
        ),
        ("messages", clean.messages, disturbed.messages),
        ("bits", clean.bits, disturbed.bits),
        (
            "peak_queue_depth",
            clean.peak_queue_depth,
            disturbed.peak_queue_depth,
        ),
        (
            "arena_cells_peak",
            clean.arena_cells_peak,
            disturbed.arena_cells_peak,
        ),
        (
            "arena_bytes_peak",
            clean.arena_bytes_peak,
            disturbed.arena_bytes_peak,
        ),
        ("output_size", clean.output_size, disturbed.output_size),
    ];
    for (field, want, got) in counters {
        if want != got {
            eprintln!(
                "CHAOS VIOLATION: {field} drifted under recovery — clean {want}, recovered {got}"
            );
            bad = true;
        }
    }
    if !disturbed.validation.passed {
        eprintln!(
            "CHAOS VIOLATION: recovered run failed validation: {}",
            disturbed.validation.detail
        );
        bad = true;
    }
    if bad {
        eprintln!("chaos probe failed — see above");
        std::process::exit(1);
    }
    println!(
        "recovered run matches the clean reference on every counter \
         ({} rounds, {} messages, {} bits)",
        disturbed.rounds, disturbed.messages, disturbed.bits
    );
}

/// E10 — The workload scenario suite: the declarative graph-family ×
/// algorithm × engine matrix of `powersparse-workloads`, validated run
/// by run, with a JSON manifest for `BENCH_*.json` trajectory tracking.
fn suite_cmd(args: &[String]) {
    use powersparse_workloads::{
        parse_suite, run_scenario_with, run_suite_with, ChaosSpec, EngineSpec, Repeat, RunOptions,
        SHARDED_REMOVED,
    };

    // Strict argument parsing: a mistyped flag must not silently fall
    // back to the full builtin suite (the spec-file parser rejects
    // unknown keys for the same reason).
    let usage = "usage: experiments suite [--smoke] [--spec FILE.toml] [--out MANIFEST.json] \
                 [--force-engine sequential|pooled|process] [--net SPEC] \
                 [--chaos] [--chaos-seed S] [--chaos-kills N] [--chaos-corruptions N] \
                 [--repeats R] [--warmup W] \
                 | suite --diff OLD.json NEW.json [--tolerance FRACTION] [--ignore-engine]";
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut spec: Option<String> = None;
    let mut diff: Option<(String, String)> = None;
    let mut tolerance = 0.0f64;
    let mut saw_tolerance = false;
    let mut force_engine: Option<String> = None;
    let mut net: Option<powersparse_engine::NetworkSpec> = None;
    let mut ignore_engine = false;
    let mut repeats = 1usize;
    let mut warmup = 0usize;
    let mut saw_repeat_flags = false;
    let mut chaos: Option<ChaosSpec> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--ignore-engine" => ignore_engine = true,
            "--chaos" => chaos = Some(chaos.unwrap_or_default()),
            "--chaos-seed" | "--chaos-kills" | "--chaos-corruptions" => {
                let value = flag_value(&mut it, arg, usage);
                let mut spec = chaos.unwrap_or_default();
                chaos_flag(&mut spec, arg, value);
                chaos = Some(spec);
            }
            "--repeats" => {
                repeats = positive_flag(&mut it, arg, usage);
                saw_repeat_flags = true;
            }
            "--warmup" => {
                warmup = parse_flag(arg, flag_value(&mut it, arg, usage), "a count");
                saw_repeat_flags = true;
            }
            "--out" => out = Some(flag_value(&mut it, arg, usage).to_string()),
            "--spec" => spec = Some(flag_value(&mut it, arg, usage).to_string()),
            "--force-engine" => {
                force_engine = Some(flag_value(&mut it, arg, usage).to_string());
            }
            "--net" => net = Some(net_flag(&mut it, usage)),
            "--diff" => {
                let old = flag_value(&mut it, arg, usage).to_string();
                diff = Some((old, flag_value(&mut it, arg, usage).to_string()));
            }
            "--tolerance" => {
                let value = flag_value(&mut it, arg, usage);
                tolerance = match value.parse::<f64>() {
                    Ok(t) if t >= 0.0 && t.is_finite() => t,
                    _ => {
                        eprintln!(
                            "cannot parse tolerance '{value}' (must be a non-negative fraction)"
                        );
                        std::process::exit(2);
                    }
                };
                saw_tolerance = true;
            }
            other => {
                eprintln!("unknown suite argument '{other}' ({usage})");
                std::process::exit(2);
            }
        }
    }
    if let Some((old_path, new_path)) = diff {
        if smoke
            || out.is_some()
            || spec.is_some()
            || force_engine.is_some()
            || net.is_some()
            || chaos.is_some()
            || saw_repeat_flags
        {
            eprintln!("--diff compares two existing manifests; it cannot be combined with --smoke/--spec/--out/--force-engine/--net/--chaos/--repeats/--warmup");
            std::process::exit(2);
        }
        return diff_cmd(&old_path, &new_path, tolerance, ignore_engine);
    }
    if saw_tolerance {
        eprintln!("--tolerance only applies to --diff");
        std::process::exit(2);
    }
    if ignore_engine {
        eprintln!("--ignore-engine only applies to --diff");
        std::process::exit(2);
    }
    let out = out.unwrap_or_else(|| "BENCH_suite.json".into());
    let (mut name, mut scenarios) = match spec {
        Some(path) => {
            let scenarios = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read spec {path}: {e}"))
                .and_then(|text| parse_suite(&text).map_err(|e| format!("{path}: {e}")))
                .unwrap_or_else(|e| {
                    eprintln!("{e} ({usage})");
                    std::process::exit(2);
                });
            (path, scenarios)
        }
        None if smoke => ("smoke".to_string(), builtin_suite(SuiteProfile::Smoke)),
        None => ("full".to_string(), builtin_suite(SuiteProfile::Full)),
    };
    // `--force-engine` reruns the whole matrix on one backend, keeping
    // each scenario's worker count. The engine contract promises the
    // counters cannot change; `suite --diff --ignore-engine` against the
    // mixed-engine baseline turns that promise into a CI gate.
    if let Some(engine) = force_engine {
        for sc in &mut scenarios {
            let shards = sc.engine.shards();
            sc.engine = match engine.as_str() {
                "sequential" => EngineSpec::Sequential,
                "pooled" => EngineSpec::Pooled { shards },
                "process" => EngineSpec::Process { shards },
                "sharded" => {
                    eprintln!("{SHARDED_REMOVED}");
                    std::process::exit(2);
                }
                other => {
                    eprintln!("unknown engine '{other}' (expected sequential|pooled|process)");
                    std::process::exit(2);
                }
            };
        }
        name = format!("{name}+force-{engine}");
    }
    // `--net` shapes the wire of every process-engine scenario (usually
    // combined with `--force-engine process`). The engine contract
    // promises shaping moves wall clock only, so a shaped suite still
    // diffs cleanly against the mixed-engine baseline with
    // `--ignore-engine` — the shaped-wire CI gate.
    if let Some(spec) = net {
        let mut shaped = 0usize;
        for sc in &mut scenarios {
            if matches!(sc.engine, EngineSpec::Process { .. }) {
                sc.net = Some(spec);
                shaped += 1;
            }
        }
        if shaped == 0 {
            eprintln!(
                "--net shapes process-engine scenarios, but this suite has none \
                 (combine with --force-engine process)"
            );
            std::process::exit(2);
        }
        name = format!(
            "{name}+net(lat={}us,bw={},jit={})",
            spec.latency_us, spec.bandwidth_bytes_per_s, spec.jitter_seed
        );
    }
    // `--chaos` disturbs the wire of every process-engine scenario with a
    // seeded fault plan and upgrades fail-fast scenarios to the default
    // recovery policy (usually combined with `--force-engine process`).
    // Recovery is operational, not semantic: the chaos-disturbed suite
    // must still diff bit-for-bit against the committed baseline with
    // `--ignore-engine` — the recovery CI gate.
    if let Some(spec) = chaos {
        if !scenarios
            .iter()
            .any(|sc| matches!(sc.engine, EngineSpec::Process { .. }))
        {
            eprintln!(
                "--chaos disturbs process-engine scenarios, but this suite has none \
                 (combine with --force-engine process)"
            );
            std::process::exit(2);
        }
        name = format!(
            "{name}+chaos(seed={},kills={},corruptions={})",
            spec.seed, spec.kills, spec.corruptions
        );
    }

    let opts = RunOptions {
        repeat: Repeat {
            invocations: repeats,
            iterations: 1,
            warmup,
        },
        trace: None,
        profile: false,
        chaos,
    };
    println!(
        "\n## E10: Workload suite `{name}` — {} scenarios{}\n",
        scenarios.len(),
        if repeats > 1 {
            format!(" ({repeats} repeats, {warmup} warmup)")
        } else {
            String::new()
        }
    );
    let manifest = if powersparse_bench::alloc_gauge::enabled() {
        // With the counting allocator installed (`--features
        // alloc-gauge`), run scenario by scenario so each manifest row
        // carries its own allocation-count and peak-live gauges.
        let runs = scenarios
            .iter()
            .map(|sc| {
                powersparse_bench::alloc_gauge::reset();
                let mut rec = run_scenario_with(sc, &opts)
                    .unwrap_or_else(|e| panic!("suite failed: {}: {e}", sc.name()));
                let gauge = powersparse_bench::alloc_gauge::snapshot();
                rec.alloc_count = gauge.count;
                rec.alloc_bytes_peak = gauge.bytes_peak;
                rec
            })
            .collect();
        SuiteManifest {
            suite: name.clone(),
            runs,
        }
    } else {
        run_suite_with(&name, &scenarios, &opts).unwrap_or_else(|e| panic!("suite failed: {e}"))
    };
    print_run_table(&manifest);
    std::fs::write(&out, manifest.to_json_string())
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!(
        "\n{}/{} runs valid; manifest written to {out}",
        manifest.passed(),
        manifest.runs.len()
    );
    if !manifest.all_passed() {
        eprintln!("validation failures — see the manifest");
        std::process::exit(1);
    }
}

/// E10b — `suite --diff`: field-by-field manifest regression comparison.
/// Exits nonzero when a baseline run is missing or reshaped, a counter
/// grew beyond the tolerance, or a validation flipped to failed. With
/// `--ignore-engine`, runs are matched modulo engine backend and shard
/// count — the cross-engine conformance gate.
fn diff_cmd(old_path: &str, new_path: &str, tolerance: f64, ignore_engine: bool) {
    use powersparse_workloads::{diff_manifests_with, DiffOptions};

    let load = |path: &str| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read manifest {path}: {e}");
            std::process::exit(2);
        });
        SuiteManifest::parse(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let old = load(old_path);
    let new = load(new_path);
    println!(
        "\n## E10b: Suite regression diff — `{old_path}` ({} runs) vs `{new_path}` ({} runs)\n",
        old.runs.len(),
        new.runs.len()
    );
    let report = diff_manifests_with(
        &old,
        &new,
        DiffOptions {
            tolerance,
            ignore_engine,
        },
    );
    print!("{report}");
    if !report.clean() {
        eprintln!("regression diff failed — see the report above");
        std::process::exit(1);
    }
}
