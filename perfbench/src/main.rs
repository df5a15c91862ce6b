//! The gcon benchmark: four workloads against the real `gcond` daemon, the
//! real fleet and the real training and update entry points.
//!
//! ```text
//! perfbench --workload point|bulk|update|train --seed N --seconds S --trace 0|1 --gcond PATH
//! ```
//!
//! A run sets everything up [`SETUP_REPEATS`] times (`setup_s` is the
//! median), measures the named workload for `S` seconds, then each other
//! workload for its shorter companion span, so every run reports every
//! end-to-end metric. With `--trace 1` each span is split into an untraced
//! half and a traced half that also times each layer's public calls; the
//! last line then carries the per-layer metrics, including each
//! workload's tracing overhead. See `README.md` next to this crate.

mod bulk;
mod env;
mod loadgen;
mod point;
mod report;
mod stats;
mod train;
mod update;

use report::{Pass, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, in the order companion passes run.
pub const WORKLOADS: [&str; 4] = ["point", "bulk", "update", "train"];

/// Per-layer metrics a traced run takes from its untraced half.
const UNTRACED_LAYERS: [&str; 8] = [
    "query_p99_us",
    "bulk_nodes_per_s",
    "bulk_p50_us",
    "bulk_p99_us",
    "visible_p99_ms",
    "read_p99_us",
    "loadgen.point_lag_p99_us",
    "loadgen.update_lag_p99_us",
];

/// How many times a run sets up; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// The span a workload runs for when it is not the named one.
fn companion_span(workload: &str) -> Duration {
    match workload {
        "point" => Duration::from_secs(3),
        "bulk" => Duration::from_secs(6),
        _ => Duration::from_secs(4),
    }
}

/// How one workload's end-to-end median breaks into layers, all taken
/// from the traced half (the layers were timed on the same operations or
/// beside them). A workload's tracing overhead is the traced over the
/// untraced sum of its totals.
struct Breakdown {
    workload: &'static str,
    total: &'static str,
    remainder: &'static str,
    /// `(layer metric, factor to the total's unit)`.
    layers: &'static [(&'static str, f64)],
}

const LAYER_MAP: &[Breakdown] = &[
    Breakdown {
        workload: "point",
        total: "query_p50_us",
        remainder: "point.remainder_us",
        layers: &[("wire.health_rtt_us", 1.0), ("batch.query_us", 1.0), ("wire.codec_ns", 1e-3)],
    },
    Breakdown {
        workload: "bulk",
        total: "bulk_p50_us",
        remainder: "bulk.remainder_us",
        layers: &[("fleet.shard_query_us", 1.0), ("fleet.coord_self_us", 1.0)],
    },
    Breakdown {
        workload: "update",
        total: "visible_p50_ms",
        remainder: "update.remainder_ms",
        layers: &[
            ("coalesce.wait_us", 1e-3),
            ("delta.apply_us", 1e-3),
            ("refresh.us", 1e-3),
            ("dynamic.publish_us", 1e-3),
        ],
    },
    Breakdown {
        workload: "train",
        total: "train_cora_ms",
        remainder: "cora.other_ms",
        layers: &[
            ("cora.encoder_ms", 1.0),
            ("cora.propagation_ms", 1.0),
            ("cora.calibration_us", 1e-3),
            ("cora.noise_us", 1e-3),
            ("cora.minimize_ms", 1.0),
        ],
    },
    Breakdown {
        workload: "train",
        total: "train_pubmed_ms",
        remainder: "pubmed.other_ms",
        layers: &[
            ("pubmed.encoder_ms", 1.0),
            ("pubmed.propagation_ms", 1.0),
            ("pubmed.calibration_us", 1e-3),
            ("pubmed.noise_us", 1e-3),
            ("pubmed.minimize_ms", 1.0),
        ],
    },
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    gcond: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        let key = pair[0]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {}", pair[0]))?;
        let value = pair.get(1).ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (expected one of {WORKLOADS:?})"));
    }
    let seed = get("seed")?.parse().map_err(|_| "--seed must be an integer")?;
    let seconds = get("seconds")?
        .parse()
        .ok()
        .filter(|&s| s >= 1)
        .ok_or("--seconds must be an integer ≥ 1")?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let gcond = PathBuf::from(get("gcond")?);
    if !gcond.is_file() {
        return Err(format!("gcond binary {} not found (build it first)", gcond.display()));
    }
    Ok(Args { workload, seed, seconds, trace, gcond })
}

/// The mutable per-workload state that outlives one pass.
struct Runner<'e> {
    env: &'e env::Env,
    reference: gcon_linalg::Mat,
    update: update::State,
    memory: train::Memory,
    seed: u64,
}

impl Runner<'_> {
    fn pass(&mut self, workload: &str, label: &str, span: Duration, traced: bool) -> Pass {
        let (env, seed) = (self.env, self.seed);
        match workload {
            "point" => point::run(env, &self.reference, seed, label, span, traced),
            "bulk" => bulk::run(env, &self.reference, seed, label, span, traced),
            "update" => update::run(env, &mut self.update, seed, label, span, traced),
            _ => train::run(&env.train_inputs, &mut self.memory, label, span, traced),
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let dir = env::WorkDir::create()?;
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        built = Some(env::Env::build(&args.gcond, args.seed, &dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let env = built.expect("SETUP_REPEATS ≥ 1");
    println!(
        "machine: cores={} kernel_tier={} pool_width={} store_dtype={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        gcon_runtime::kernel_tier().name(),
        gcon_runtime::configured_width(),
        env.store.store_dtype().name(),
    );
    println!(
        "setup: {} nodes served, setups {:?} s",
        env.store.num_nodes(),
        setup_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
    );
    let mut runner = Runner {
        env: &env,
        reference: env.reference(),
        update: update::State::new(&env, args.seed),
        memory: train::Memory::default(),
        seed: args.seed,
    };

    let order: Vec<&str> = std::iter::once(args.workload.as_str())
        .chain(WORKLOADS.iter().copied().filter(|&w| w != args.workload))
        .collect();
    let mut total = Pass::default();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &workload in &order {
        let span = if workload == args.workload {
            Duration::from_secs(args.seconds)
        } else {
            companion_span(workload)
        };
        let mut report = |pass: &Pass| {
            total.absorb_counts(pass);
            println!(
                "{workload}: attempted {} succeeded {} failed {}",
                pass.attempted,
                pass.attempted - pass.failed,
                pass.failed
            );
            for line in &pass.lines {
                println!("  {line}");
            }
        };
        if !args.trace {
            let label = if workload == args.workload { "main" } else { "companion" };
            let pass = runner.pass(workload, label, span, false);
            report(&pass);
            values.extend(pass.metrics);
            continue;
        }
        let plain = runner.pass(workload, "untraced", span / 2, false);
        let traced = runner.pass(workload, "traced", span / 2, true);
        report(&plain);
        report(&traced);
        let get = |p: &Pass, m: &str| p.metrics.get(m).copied().unwrap_or(f64::NAN);
        let breakdowns: Vec<&Breakdown> =
            LAYER_MAP.iter().filter(|b| b.workload == workload).collect();
        let basis = |p: &Pass| breakdowns.iter().map(|b| get(p, b.total)).sum::<f64>();
        let overhead = 100.0 * (basis(&traced) / basis(&plain) - 1.0);
        println!("  tracing overhead: {overhead:+.1}%");
        values.insert(report::catalog_name(&format!("trace.{workload}_overhead_pct")), overhead);
        for b in breakdowns {
            let sum = stats::LayerSum {
                total: get(&traced, b.total),
                layers: b.layers.iter().map(|&(m, factor)| (m, get(&traced, m) * factor)).collect(),
            };
            println!("  {} layers: {}", b.total, sum.describe(b.remainder));
            values.insert(b.remainder, sum.remainder());
        }
        // Layer numbers come from the traced half; the tails and the
        // generator's own accuracy from the untraced one.
        values.extend(traced.metrics);
        values.extend(plain.metrics.into_iter().filter(|(k, _)| UNTRACED_LAYERS.contains(k)));
    }
    values.insert("setup_s", stats::median(&setup_s));
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let (correct, line) = report::json_line(total.attempted, total.failed, catalog, &values);
    if !correct {
        eprintln!(
            "perfbench: the run is not correct (failed operations or checks, or a metric missing)"
        );
    }
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
