//! The serving benchmark.
//!
//! ```text
//! perfbench --workload <golden_mix|bulk_elements|fault_mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Drives `nsc-serve` in-process through its public front
//! (`front::handle_line` on a `Server` with `ServeConfig::default()`) with
//! a seeded workload, checks every reply against the reference
//! evaluator, and prints each metric by name with its unit.  The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`, and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.  Any reply that disagrees with the
//! evaluator makes the run exit non-zero.  See `NOTES.md` for what every
//! metric means and which workload should move it.

mod check;
mod e2e;
mod load;
mod rng;
mod stats;
mod trace;
mod workload;

use nsc_serve::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;
use workload::Workload;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <golden_mix|bulk_elements|fault_mix> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not `{t}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = BTreeMap::new();
    for x in metrics {
        let mut v = BTreeMap::new();
        v.insert("value".to_string(), Json::Num(x.value));
        v.insert("unit".to_string(), Json::Str(x.unit.to_string()));
        m.insert(x.name.clone(), Json::Obj(v));
    }
    let mut top = BTreeMap::new();
    top.insert("correct".to_string(), Json::Bool(correct));
    top.insert("attempted".to_string(), Json::Num(attempted as f64));
    top.insert("failed".to_string(), Json::Num(failed as f64));
    top.insert("metrics".to_string(), Json::Obj(m));
    Json::Obj(top).render()
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    eprintln!(
        "perfbench: {} seed {} — generating requests and evaluator replies",
        w.name(),
        args.seed
    );
    let p = e2e::Prepared::new(w, args.seed)?;
    let (metrics, tally) = if args.trace {
        let t = trace::run(&p, args.seconds)?;
        (t.metrics, t.tally)
    } else {
        let o = e2e::run(&p, args.seconds)?;
        for (name, v, n) in &o.tails {
            match v {
                Some(v) => println!("{name} = {v} ms (n = {n})"),
                None => println!("{name} = refused: {n} samples < {}", stats::MIN_P99_SAMPLES),
            }
        }
        for c in &o.checks {
            println!("{} = {} {} (validity check)", c.name, c.value, c.unit);
        }
        (o.metrics, o.tally)
    };
    println!("failed_frac = {} ratio", tally.failed_frac());
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
    }
    for msg in &tally.wrong {
        eprintln!("perfbench: WRONG REPLY: {msg}");
    }
    println!(
        "{}",
        result_line(
            tally.correct(),
            tally.attempted.max(1),
            tally.failed,
            &metrics
        )
    );
    Ok(tally.correct())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Compilation recurses with program depth: run on a big stack, as the
    // server's batcher threads do.
    let outcome = std::thread::Builder::new()
        .name("perfbench".into())
        .stack_size(256 * 1024 * 1024)
        .spawn(move || run(&args))
        .expect("spawn benchmark thread")
        .join();
    match outcome {
        Ok(Ok(true)) => ExitCode::SUCCESS,
        Ok(Ok(false)) => {
            eprintln!("perfbench: replies disagree with the reference evaluator");
            ExitCode::FAILURE
        }
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
        Err(_) => {
            eprintln!("perfbench: benchmark thread panicked");
            ExitCode::FAILURE
        }
    }
}
