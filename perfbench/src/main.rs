//! The repository benchmark. See `perfbench/README.md` for the workloads,
//! the metrics and how to run it:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload asap-crawled --seed 42 --seconds 25 --trace 0
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics (tracing off); with
//! `--trace 1` it makes one untraced and one traced run and reports the
//! per-layer metrics. Either way it checks the outputs, prints every metric
//! by name with its unit, and ends with one JSON result line. Any failed
//! check makes the exit code nonzero.

mod cells;
mod host;
mod metrics;
mod timed;

use cells::{assemble, Algo, Backend, Cell, Outcome, SetupPhases, Size, Spec, WorkloadKind, World};
use host::{cpu_timed, memory_probe_ns, RunClock, REFERENCE_PROBE_NS};
use metrics::{class_name, median, Values};
use std::process::ExitCode;
use std::time::Instant;
use timed::{Timed, HOOKS};

/// Distinct input cells per `--trace 0` invocation. Cell 0 is built from
/// `--seed` itself, the others from seeds derived from it.
const CELLS: usize = 2;
/// Cheap set-ups repeat alone until they have used this much CPU time ...
const SETUP_BUDGET_S: f64 = 1.0;
/// ... or this many repeats.
const MAX_SETUPS: usize = 15;

const USAGE: &str = "usage: perfbench --workload <asap-crawled|walk-xl|asap-loopback|all> \
                     [--seed N] [--seconds N] [--trace 0|1] [--size full|tiny]";

struct Cli {
    workloads: Vec<WorkloadKind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 42,
        seconds: 25.0,
        trace: false,
        size: Size::Full,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                cli.workloads = match value.as_str() {
                    "all" => WorkloadKind::ALL.to_vec(),
                    name => vec![WorkloadKind::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?],
                }
            }
            "--seed" => cli.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--size" => {
                cli.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("--size takes full or tiny, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if cli.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(cli)
}

/// What one workload measured and checked.
#[derive(Default)]
struct Measured {
    values: Values,
    /// Simulation runs executed (measured, traced and reference runs).
    attempted: u64,
    /// Runs that failed a correctness check.
    failed: u64,
    failures: Vec<String>,
    /// Each input cell's seed and outcome, for the fingerprint lines.
    cells: Vec<(u64, Outcome)>,
}

impl Measured {
    /// Record one run: its own checks, and when `expected` is given, that
    /// it behaved exactly as that run did.
    fn checked(&mut self, what: &str, run: &Outcome, expected: Option<&Outcome>) {
        self.attempted += 1;
        let mut failures = run.check();
        if let Some(e) = expected.filter(|e| !e.same_behaviour(run)) {
            failures.push(format!(
                "fingerprint {:#018x} / {} messages, expected {:#018x} / {}",
                run.fingerprint, run.messages, e.fingerprint, e.messages
            ));
        }
        if !failures.is_empty() {
            self.failed += 1;
            self.failures
                .extend(failures.into_iter().map(|f| format!("{what}: {f}")));
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Build the world and a protocol for it, timing every phase.
fn setup<P: Cell>(spec: Spec, seed: u64) -> (World, P, SetupPhases) {
    let mut phases = SetupPhases::default();
    let world = World::build(spec, seed, &mut phases);
    let (protocol, protocol_s) = cpu_timed(|| P::build(&world));
    phases.protocol_s = protocol_s;
    (world, protocol, phases)
}

/// The loopback's equivalence check: the sim engine on the same inputs
/// must produce the same outcomes and message count. Run outside the
/// measured runs.
fn check_against_sim<P: Cell>(m: &mut Measured, world: &World, net: &Outcome) {
    if world.spec.backend != Backend::Loopback {
        return;
    }
    let sim = assemble(
        world,
        Backend::Sim,
        P::build(world),
        &mut SetupPhases::default(),
    )
    .run(&world.workload);
    m.checked(
        "sim engine on the loopback's inputs",
        &sim.outcome,
        Some(net),
    );
}

/// The seed of input cell `i` of an invocation seeded with `seed`.
fn cell_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `--trace 0`. Rounds over the [`CELLS`] input cells, each cell with a
/// fresh set-up and one timed run, until `seconds` would be overrun (at
/// least one round). The first cell of the first round runs once untimed
/// before its timed run: that warm-up gives the cell's outcome, which every
/// later run of the cell must repeat exactly, and no timed run is the first
/// in a fresh process. A memory probe runs right before and right after
/// each timed run, and the run's CPU time is scaled by
/// [`REFERENCE_PROBE_NS`] over the mean of the two; `run_s` is the median
/// of the scaled times. Timing every cell evenly halves the seed-to-seed
/// variance of `run_s`, as the means over the cells do for the simulated
/// metrics. Last, more set-ups alone while set-up is cheap.
fn end_to_end<P: Cell>(spec: Spec, seed: u64, seconds: f64) -> Measured {
    let mut m = Measured::default();
    let mut setups = Vec::new();
    let mut outcomes: Vec<Option<Outcome>> = vec![None; CELLS];
    let (mut run_s, mut raw_s, mut probes, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        let round = Instant::now();
        for i in (0..CELLS).rev() {
            let (world, protocol, mut phases) = setup::<P>(spec, cell_seed(seed, i));
            let mut asm = assemble(&world, spec.backend, protocol, &mut phases);
            setups.push(phases.total_s());
            if outcomes.iter().all(Option::is_none) {
                let warm = asm.run(&world.workload);
                m.checked("warm-up run", &warm.outcome, None);
                check_against_sim::<P>(&mut m, &world, &warm.outcome);
                outcomes[i] = Some(warm.outcome);
                asm = assemble(
                    &world,
                    spec.backend,
                    P::build(&world),
                    &mut SetupPhases::default(),
                );
            }
            let before = memory_probe_ns();
            let run = asm.run(&world.workload);
            let after = memory_probe_ns();
            m.checked("timed run", &run.outcome, outcomes[i].as_ref());
            run_s.push(run.run_s * REFERENCE_PROBE_NS / ((before + after) / 2.0));
            raw_s.push(run.run_s);
            probes.extend([before, after]);
            rss.push(run.peak_rss_mb);
            outcomes[i].get_or_insert(run.outcome);
        }
        // Stop before a next round, taking about as long as this one, would
        // overrun the budget.
        if started.elapsed().as_secs_f64() + round.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    while setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S {
        let (world, protocol, mut phases) = setup::<P>(spec, seed);
        drop(assemble(&world, spec.backend, protocol, &mut phases));
        setups.push(phases.total_s());
    }

    let outcomes: Vec<Outcome> = outcomes.into_iter().flatten().collect();
    let mean = |f: fn(&Outcome) -> f64| outcomes.iter().map(f).sum::<f64>() / CELLS as f64;
    for (name, v) in [
        ("setup_s", median(&setups)),
        ("run_s", median(&run_s)),
        ("peak_rss_mb", median(&rss)),
        ("success_rate", mean(|o| o.success_rate)),
        ("search_bytes_per_query", mean(|o| o.search_bytes_per_query)),
        ("load_bytes_per_node_s", mean(|o| o.load_bytes_per_node_s)),
        ("response_ms_mean", mean(|o| o.response_ms_mean)),
    ] {
        m.values.insert(name.to_string(), v);
    }
    eprintln!("perfbench: set-up CPU s {setups:?}");
    eprintln!("perfbench: timed run CPU s {raw_s:?}, peak RSS MB {rss:?}");
    eprintln!("perfbench: memory probe ns {probes:?}, scaled run s {run_s:?}");
    m.cells = (0..CELLS)
        .map(|i| cell_seed(seed, i))
        .zip(outcomes)
        .collect();
    m
}

/// `--trace 1`: one set-up, then on the same inputs an untimed warm-up run
/// (see [`end_to_end`]), an untraced run and a traced run; the per-layer
/// metrics come from the traced run's spans.
fn per_layer<P: Cell>(spec: Spec, seed: u64) -> Measured {
    let mut m = Measured::default();
    let (world, protocol, mut phases) = setup::<P>(spec, seed);
    let warm = assemble(&world, spec.backend, protocol, &mut phases).run(&world.workload);
    m.checked("warm-up run", &warm.outcome, None);
    let base = assemble(
        &world,
        spec.backend,
        P::build(&world),
        &mut SetupPhases::default(),
    )
    .run(&world.workload);
    m.checked("untraced run", &base.outcome, Some(&warm.outcome));
    drop(warm);
    let traced = assemble(
        &world,
        spec.backend,
        Timed::new(P::build(&world)),
        &mut SetupPhases::default(),
    )
    .run(&world.workload);
    m.checked("traced run", &traced.outcome, Some(&base.outcome));
    check_against_sim::<P>(&mut m, &world, &base.outcome);

    let (_, spans) = traced.protocol.into_parts();
    let v = &mut m.values;
    let mut set = |name: String, value: f64| {
        v.insert(name, value);
    };
    let backend = match spec.backend {
        Backend::Sim => "sim",
        Backend::Loopback => "net",
    };
    set("topology.generate_s".into(), phases.topology_s);
    set("workload.generate_s".into(), phases.workload_s);
    set("overlay.build_s".into(), phases.overlay_s);
    set("core.protocol_new_s".into(), phases.protocol_s);
    set(format!("{backend}.assemble_s"), phases.assemble_s);

    match P::LAYER {
        "core" => {
            for (kind, stat) in P::MSG_KINDS.iter().zip(&spans.messages) {
                set(format!("core.on_message.{kind}.calls"), stat.calls as f64);
                set(format!("core.on_message.{kind}.self_ms"), stat.self_ms());
                set(
                    format!("core.on_message.{kind}.p99_ns"),
                    stat.p99_ns() as f64,
                );
            }
            for (hook, stat) in HOOKS.iter().zip(&spans.hooks) {
                set(format!("core.{hook}.self_ms"), stat.self_ms());
            }
        }
        layer => {
            let on_message: f64 = spans.messages.iter().map(|s| s.self_ms()).sum();
            set(format!("{layer}.on_message.self_ms"), on_message);
            set(
                format!("{layer}.on_query.self_ms"),
                spans.hooks[1].self_ms(),
            );
        }
    }
    let transport = &spans.transport;
    set(format!("{backend}.send.self_ms"), transport.send.self_ms());
    set(
        format!("{backend}.set_timer.self_ms"),
        transport.set_timer.self_ms(),
    );
    let engine_ns = traced.run_wall_ns.saturating_sub(spans.handler_ns());
    set(
        format!("{backend}.dispatch.self_ms"),
        engine_ns as f64 / 1e6,
    );
    if let Some(profile) = traced.outcome.profile {
        for class in asap_metrics::MsgClass::ALL {
            let calls = transport.send_calls[class.index()];
            set(
                format!("sim.send.calls.{}", class_name(class)),
                calls as f64,
            );
        }
        set("sim.delivers".into(), profile.delivers as f64);
        set("sim.timers_fired".into(), profile.timers_fired as f64);
        set("sim.queue_hwm".into(), profile.queue_hwm as f64);
    }
    if let Some(stats) = base.protocol.asap_stats() {
        set("core.repair_fetches".into(), stats.repair_fetches as f64);
        set(
            "core.refresh_deliveries".into(),
            stats.refresh_deliveries as f64,
        );
        set(
            "core.local_hit_ratio".into(),
            ratio(stats.local_lookup_hits, base.outcome.registered as u64),
        );
        set(
            "core.confirm_useful_ratio".into(),
            ratio(stats.confirms_positive, stats.confirms_sent),
        );
    }
    for class in asap_metrics::MsgClass::ALL {
        let bytes = base.outcome.class_totals[class.index()];
        set(format!("bytes.{}", class_name(class)), bytes as f64);
    }
    set("trace.overhead_ratio".into(), traced.run_s / base.run_s);

    print_spans(&spans, P::LAYER, P::MSG_KINDS, backend, engine_ns);
    m.cells.push((seed, base.outcome));
    m
}

/// Write the aggregated span table out, one span per line.
fn print_spans(spans: &timed::Spans, layer: &str, kinds: &[&str], backend: &str, engine_ns: u64) {
    println!(
        "{:<34} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "span", "calls", "total_ms", "self_ms", "p50_ns", "p99_ns"
    );
    let rows = HOOKS
        .iter()
        .map(|h| format!("{layer}.{h}"))
        .zip(&spans.hooks)
        .chain(
            kinds
                .iter()
                .map(|k| format!("{layer}.on_message.{k}"))
                .zip(&spans.messages),
        )
        .chain([
            (format!("{backend}.send"), &spans.transport.send),
            (format!("{backend}.set_timer"), &spans.transport.set_timer),
        ]);
    for (name, s) in rows.filter(|(_, s)| s.calls > 0) {
        println!(
            "{:<34} {:>10} {:>12.3} {:>12.3} {:>10} {:>10}",
            name,
            s.calls,
            s.total_ns as f64 / 1e6,
            s.self_ms(),
            s.durations_ns.percentile(1, 2),
            s.p99_ns()
        );
    }
    println!(
        "{:<34} {:>10} {:>12.3} {:>12.3}",
        format!("{backend}.dispatch (engine self)"),
        "-",
        engine_ns as f64 / 1e6,
        engine_ns as f64 / 1e6
    );
}

fn measure(kind: WorkloadKind, cli: &Cli) -> Measured {
    let spec = kind.spec(cli.size);
    match (spec.algo, cli.trace) {
        (Algo::AsapRw, false) => end_to_end::<asap_core::Asap>(spec, cli.seed, cli.seconds),
        (Algo::AsapRw, true) => per_layer::<asap_core::Asap>(spec, cli.seed),
        (Algo::RandomWalk, false) => {
            end_to_end::<asap_search::RandomWalk>(spec, cli.seed, cli.seconds)
        }
        (Algo::RandomWalk, true) => per_layer::<asap_search::RandomWalk>(spec, cli.seed),
    }
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let clock = RunClock::start();
    let vocabulary: Vec<(String, &'static str)> = if cli.trace {
        metrics::per_layer()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let single = cli.workloads.len() == 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut failures = Vec::new();
    let mut result = Vec::new();
    for &kind in &cli.workloads {
        let name = kind.name();
        eprintln!(
            "perfbench: {name}, seed {}, trace {}",
            cli.seed,
            u8::from(cli.trace)
        );
        let m = measure(kind, &cli);
        attempted += m.attempted;
        failed += m.failed;
        failures.extend(m.failures.iter().map(|f| format!("{name}: {f}")));
        for (cell_seed, outcome) in &m.cells {
            println!(
                "fingerprint {name} seed {cell_seed} {:#018x} messages {}",
                outcome.fingerprint, outcome.messages
            );
        }
        match metrics::ordered(&vocabulary, &m.values, cli.trace) {
            Ok(rows) => {
                for (metric, unit, v) in rows {
                    println!("metric {name} {metric} {v} {unit}");
                    let key = if single {
                        metric
                    } else {
                        format!("{name}.{metric}")
                    };
                    result.push((key, unit, v));
                }
            }
            Err(e) => {
                failed += 1;
                failures.push(format!("{name}: {e}"));
            }
        }
    }
    println!("meta {}", clock.metadata_json(cli.seed));
    for f in &failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    println!(
        "{}",
        metrics::result_json(correct, attempted.max(1), failed, &result)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
