//! The three seeded workloads: which functions they serve, the request
//! lines they send, and the replies the reference evaluator expects.
//!
//! Generation is a pure function of `(workload, seed)`; the server only
//! ever sees the rendered NDJSON lines.  Expected replies come from
//! `nsc_core::eval::apply_func` — the evaluator, never the compiler.

use crate::rng::Rng;
use nsc_compile::Backend;
use nsc_core::error::EvalError;
use nsc_core::parse::{parse_module, parse_value};
use nsc_core::types::Type;
use nsc_core::value::Value;
use nsc_core::Func;
use nsc_serve::json::Json;
use std::collections::BTreeMap;

/// The workloads, by the names `--workload` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The five golden `examples/*.nsc` mains, small inputs, `seq`.
    GoldenMix,
    /// square_plus_one and classify on 10⁴–5·10⁴ elements, `seq`/`par`.
    BulkElements,
    /// The faulting map chain with Ω requests and malformed lines.
    FaultMix,
}

/// Load shape and sample sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Closed-loop requests in flight.
    pub window: usize,
    /// Open-loop offered rate, requests per second: about half the
    /// closed-loop throughput measured when the benchmark was defined.
    pub ol_rate: f64,
    /// Distinct generated requests; the load phases cycle through them.
    pub pool: usize,
    /// Requests the traced run times layer by layer.
    pub trace_sample: usize,
    /// Fresh-server rounds per untraced run.
    pub rounds: usize,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::GoldenMix,
        Workload::BulkElements,
        Workload::FaultMix,
    ];

    /// The CLI / `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GoldenMix => "golden_mix",
            Workload::BulkElements => "bulk_elements",
            Workload::FaultMix => "fault_mix",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Load shape.
    pub fn spec(self) -> Spec {
        match self {
            Workload::GoldenMix => Spec {
                window: 64,
                ol_rate: 575.0,
                pool: 2560,
                trace_sample: 250,
                rounds: 5,
            },
            Workload::BulkElements => Spec {
                window: 4,
                ol_rate: 6.0,
                pool: 16,
                trace_sample: 8,
                rounds: 1,
            },
            Workload::FaultMix => Spec {
                window: 64,
                ol_rate: 12000.0,
                pool: 2048,
                trace_sample: 256,
                rounds: 10,
            },
        }
    }

    /// The functions the workload registers with the server.
    pub fn functions(self) -> Vec<ServedFn> {
        match self {
            Workload::GoldenMix => GOLDEN.iter().map(|(n, src)| example(n, src)).collect(),
            Workload::BulkElements => GOLDEN
                .iter()
                .filter(|(n, _)| BULK_FNS.contains(n))
                .map(|(n, src)| example(n, src))
                .collect(),
            Workload::FaultMix => vec![ServedFn {
                name: FAULTING,
                func: nsc_runtime::workloads::chained_maps_faulting(),
                dom: Type::seq(Type::Nat),
            }],
        }
    }
}

/// The golden examples, served under their file names.
const GOLDEN: [(&str, &str); 5] = [
    (
        "square_plus_one",
        include_str!("../../examples/square_plus_one.nsc"),
    ),
    ("classify", include_str!("../../examples/classify.nsc")),
    ("halve_all", include_str!("../../examples/halve_all.nsc")),
    ("regroup", include_str!("../../examples/regroup.nsc")),
    (
        "dot_product",
        include_str!("../../examples/dot_product.nsc"),
    ),
];

const BULK_FNS: [&str; 2] = ["square_plus_one", "classify"];

const FAULTING: &str = "chained_maps_faulting";

/// A function the server serves, with its domain.
#[derive(Debug, Clone)]
pub struct ServedFn {
    /// Registered name.
    pub name: &'static str,
    /// The (inlined, closed) function.
    pub func: Func,
    /// Its domain type.
    pub dom: Type,
}

fn example(name: &'static str, src: &str) -> ServedFn {
    let module = parse_module(src).unwrap_or_else(|e| panic!("examples/{name}.nsc: {e}"));
    module
        .check()
        .unwrap_or_else(|e| panic!("examples/{name}.nsc: {e}"));
    let main = module
        .defs
        .iter()
        .find(|d| d.name.as_ref() == "main")
        .unwrap_or_else(|| panic!("examples/{name}.nsc has no main"));
    ServedFn {
        name,
        func: module
            .inlined("main")
            .unwrap_or_else(|e| panic!("examples/{name}.nsc: {e}")),
        dom: main.dom.clone(),
    }
}

/// What kind of line a generated request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A well-formed request the function answers with a value.
    Clean,
    /// A well-formed request whose input makes the function `Ω`.
    Omega,
    /// A line the protocol rejects with this error kind.
    Malformed(&'static str),
}

/// One generated request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Target function.
    pub fn_name: &'static str,
    /// Target backend (always explicit on the line).
    pub backend: Backend,
    /// The NDJSON line the server receives.
    pub line: String,
    /// The `input` field's text (a value literal unless malformed).
    pub input: String,
    /// What the line is for.
    pub class: Class,
}

/// The reply a request must get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `{"output": …}` with exactly this pretty-printed value.
    Output(String),
    /// `{"error": …, "kind": …}` with this kind.
    Kind(&'static str),
}

fn render_line(fn_name: &str, backend: Backend, input: &str) -> String {
    let mut m = BTreeMap::new();
    m.insert("fn".to_string(), Json::Str(fn_name.to_string()));
    m.insert("input".to_string(), Json::Str(input.to_string()));
    m.insert("backend".to_string(), Json::Str(backend.name().to_string()));
    Json::Obj(m).render()
}

fn request(fn_name: &'static str, backend: Backend, input: String, class: Class) -> Request {
    Request {
        fn_name,
        backend,
        line: render_line(fn_name, backend, &input),
        input,
        class,
    }
}

/// The workload's request pool for `seed` (`spec().pool` lines).
pub fn generate(w: Workload, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, w as u64 + 1);
    let n = w.spec().pool;
    match w {
        Workload::GoldenMix => golden(&mut rng, n),
        Workload::BulkElements => bulk(&mut rng, n),
        Workload::FaultMix => faulting(&mut rng, n),
    }
}

/// `n` naturals below 2¹⁰; a quarter of them zero when `zeros` is set
/// (so classify takes both branches).
fn nats(rng: &mut Rng, n: u64, zeros: bool) -> Vec<u64> {
    (0..n)
        .map(|_| {
            if zeros && rng.below(4) == 0 {
                0
            } else {
                rng.below(1 << 10)
            }
        })
        .collect()
}

fn golden_input(rng: &mut Rng, name: &str) -> Value {
    let n = rng.range(1, 16);
    match name {
        "regroup" => {
            let xs = nats(rng, n, false);
            let mut groups = Vec::new();
            let mut i = 0;
            while i < xs.len() {
                // Empty groups are legal and exercise the descriptors.
                let k = (rng.below(5) as usize).min(xs.len() - i);
                groups.push(Value::nat_seq(xs[i..i + k].iter().copied()));
                i += k;
            }
            Value::seq(groups)
        }
        "dot_product" => Value::pair(
            Value::nat_seq(nats(rng, n, false)),
            Value::nat_seq(nats(rng, n, false)),
        ),
        _ => Value::nat_seq(nats(rng, n, name == "classify")),
    }
}

fn golden(rng: &mut Rng, n: usize) -> Vec<Request> {
    // Uniform over functions: every block of five holds each once, in a
    // seeded order.
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block: Vec<&'static str> = GOLDEN.iter().map(|(name, _)| *name).collect();
        rng.shuffle(&mut block);
        for name in block.into_iter().take(n - out.len()) {
            let v = golden_input(rng, name);
            out.push(request(name, Backend::Seq, v.to_string(), Class::Clean));
        }
    }
    out
}

/// Element-count strata of `bulk_elements`: 10⁴–5·10⁴ in four bands.
const BULK_STRATA: [(u64, u64); 4] = [
    (10_000, 19_999),
    (20_000, 29_999),
    (30_000, 39_999),
    (40_000, 50_000),
];

/// One `bulk_elements` block, in stream order: three square_plus_one
/// requests per classify request, every other request on `par`, and the
/// four classify requests back to back.
const BULK_BLOCK: [(&str, Backend); 16] = [
    ("square_plus_one", Backend::Seq),
    ("square_plus_one", Backend::Par),
    ("square_plus_one", Backend::Seq),
    ("square_plus_one", Backend::Par),
    ("square_plus_one", Backend::Seq),
    ("square_plus_one", Backend::Par),
    ("classify", Backend::Seq),
    ("classify", Backend::Par),
    ("classify", Backend::Seq),
    ("classify", Backend::Par),
    ("square_plus_one", Backend::Seq),
    ("square_plus_one", Backend::Par),
    ("square_plus_one", Backend::Seq),
    ("square_plus_one", Backend::Par),
    ("square_plus_one", Backend::Seq),
    ("square_plus_one", Backend::Par),
];

fn bulk(rng: &mut Rng, n: usize) -> Vec<Request> {
    // Repeated `BULK_BLOCK`s: half the requests on each backend, and each
    // function walks the size bands in turn, so every block asks for the
    // same work whatever the seed; the seed draws the sizes within each
    // band and the elements.  Three to one keeps the latency median
    // inside one function's distribution instead of on the edge between
    // two, while classify still owns most of the machine time.  The
    // classify burst fills the closed-loop window once per block, so the
    // peak of concurrent register files is the same in every run.
    let mut band = [0usize; 2];
    BULK_BLOCK
        .iter()
        .cycle()
        .take(n)
        .map(|&(f, backend)| {
            let which = usize::from(f == "classify");
            let (lo, hi) = BULK_STRATA[band[which] % BULK_STRATA.len()];
            band[which] += 1;
            let len = rng.range(lo, hi);
            let v = Value::nat_seq(nats(rng, len, f == "classify"));
            request(f, backend, v.to_string(), Class::Clean)
        })
        .collect()
}

/// One small clean warm-up request per `(function, backend)` shard the
/// workload uses, so set-up time measures bring-up, not a large request.
pub fn warmups(w: Workload, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 100 + w as u64);
    let shards: Vec<(&'static str, Backend)> = match w {
        Workload::GoldenMix => GOLDEN.iter().map(|(f, _)| (*f, Backend::Seq)).collect(),
        Workload::BulkElements => BULK_FNS
            .iter()
            .flat_map(|f| [(*f, Backend::Seq), (*f, Backend::Par)])
            .collect(),
        Workload::FaultMix => vec![(FAULTING, Backend::Seq)],
    };
    shards
        .into_iter()
        .map(|(f, backend)| {
            let v = if f == FAULTING {
                Value::nat_seq((0..FAULT_LEN).map(|_| rng.range(1, (1 << 10) - 1)))
            } else {
                golden_input(&mut rng, f)
            };
            request(f, backend, v.to_string(), Class::Clean)
        })
        .collect()
}

/// Length of every `fault_mix` input.
const FAULT_LEN: u64 = 16;

fn faulting(rng: &mut Rng, n: usize) -> Vec<Request> {
    // Per block of 64 lines: one Ω request in each half (1 in 32) and one
    // malformed line (1 in 64), at seeded positions.
    let mut out = Vec::with_capacity(n);
    let mut block_no = 0u64;
    while out.len() < n {
        let omega = [rng.below(32), 32 + rng.below(32)];
        let malformed = loop {
            let p = rng.below(64);
            if !omega.contains(&p) {
                break p;
            }
        };
        let bad_kind = MALFORMED_KINDS[((block_no + rng.below(3)) % 3) as usize];
        for pos in 0..64u64 {
            if out.len() == n {
                break;
            }
            let mut xs: Vec<u64> = (0..FAULT_LEN)
                .map(|_| rng.range(1, (1 << 10) - 1))
                .collect();
            if pos == malformed {
                out.push(malformed_line(rng, bad_kind, &xs));
                continue;
            }
            let class = if omega.contains(&pos) {
                xs[rng.below(FAULT_LEN) as usize] = 0;
                Class::Omega
            } else {
                Class::Clean
            };
            let v = Value::nat_seq(xs);
            out.push(request(FAULTING, Backend::Seq, v.to_string(), class));
        }
        block_no += 1;
    }
    out
}

/// The synchronous-rejection kinds `fault_mix` exercises.
const MALFORMED_KINDS: [&str; 3] = ["bad-request", "parse", "domain"];

fn malformed_line(rng: &mut Rng, kind: &'static str, xs: &[u64]) -> Request {
    let valid = Value::nat_seq(xs.iter().copied()).to_string();
    let input = match kind {
        // Not NSC: an unterminated sequence literal.
        "parse" => valid[..valid.len() - 1].to_string() + ", ",
        // NSC, but a pair where the domain wants a sequence.
        "domain" => format!("({}, {})", xs[0], xs[1]),
        // Not JSON: a valid line cut short.
        _ => valid,
    };
    let mut r = request(FAULTING, Backend::Seq, input, Class::Malformed(kind));
    if kind == "bad-request" {
        let cut = rng.range(1, r.line.len() as u64 - 1) as usize;
        r.line.truncate(cut);
    }
    r
}

/// The reply the reference evaluator predicts for `r`.
///
/// Source-level faults (`Ω`, division by zero, partial `get`/`zip`/
/// `split`) all answer as kind `omega` — the compiled program coarsens
/// them to `Ω`.  Any other evaluator error means the generator produced
/// an input outside the function's domain, which is a benchmark bug.
pub fn expect(fns: &[ServedFn], r: &Request) -> Result<Expect, String> {
    if let Class::Malformed(kind) = r.class {
        return Ok(Expect::Kind(kind));
    }
    let f = fns
        .iter()
        .find(|f| f.name == r.fn_name)
        .ok_or_else(|| format!("no served function `{}`", r.fn_name))?;
    let v = parse_value(&r.input).map_err(|e| format!("generated input does not parse: {e}"))?;
    match nsc_core::eval::apply_func(&f.func, v) {
        Ok((out, _)) => Ok(Expect::Output(out.to_string())),
        Err(
            EvalError::Omega
            | EvalError::DivisionByZero
            | EvalError::GetNonSingleton(_)
            | EvalError::ZipLengthMismatch(..)
            | EvalError::SplitSumMismatch { .. },
        ) => Ok(Expect::Kind("omega")),
        Err(e) => Err(format!("evaluator error on {} {}: {e}", r.fn_name, r.input)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        for w in Workload::ALL {
            let a: Vec<String> = generate(w, 7).into_iter().map(|r| r.line).collect();
            let b: Vec<String> = generate(w, 7).into_iter().map(|r| r.line).collect();
            assert_eq!(a, b, "{}", w.name());
            let c: Vec<String> = generate(w, 8).into_iter().map(|r| r.line).collect();
            assert_ne!(a, c, "{}: seeds 7 and 8 agree", w.name());
            assert_eq!(warmups(w, 7), warmups(w, 7));
        }
    }

    #[test]
    fn fault_mix_has_the_stated_omega_and_malformed_shares() {
        let pool = generate(Workload::FaultMix, 3);
        assert_eq!(pool.len() % 64, 0);
        let fns = Workload::FaultMix.functions();
        for block in pool.chunks(64) {
            let omega = block.iter().filter(|r| r.class == Class::Omega).count();
            let bad = block
                .iter()
                .filter(|r| matches!(r.class, Class::Malformed(_)))
                .count();
            assert_eq!((omega, bad), (2, 1), "per 64 lines: 2 Ω, 1 malformed");
            for half in block.chunks(32) {
                assert_eq!(half.iter().filter(|r| r.class == Class::Omega).count(), 1);
            }
        }
        for r in &pool {
            let want = expect(&fns, r).unwrap();
            match r.class {
                Class::Clean => assert!(matches!(want, Expect::Output(_)), "{}", r.line),
                Class::Omega => assert_eq!(want, Expect::Kind("omega"), "{}", r.line),
                Class::Malformed(kind) => {
                    let got = match nsc_serve::protocol::parse_request(&r.line) {
                        Err(e) => e.kind(),
                        Ok(_) if kind == "parse" => match parse_value(&r.input) {
                            Err(_) => "parse",
                            Ok(_) => "parses",
                        },
                        Ok(_) => match parse_value(&r.input) {
                            Ok(v) if !fns[0].dom.admits(&v) => "domain",
                            _ => "admitted",
                        },
                    };
                    assert_eq!(got, kind, "{}", r.line);
                }
            }
        }
    }

    #[test]
    fn golden_mix_is_uniform_over_the_five_examples() {
        let pool = generate(Workload::GoldenMix, 11);
        for block in pool.chunks(5) {
            let mut names: Vec<&str> = block.iter().map(|r| r.fn_name).collect();
            names.sort();
            let mut want: Vec<&str> = GOLDEN.iter().map(|(n, _)| *n).collect();
            want.sort();
            assert_eq!(names, want);
        }
        let fns = Workload::GoldenMix.functions();
        for r in pool.iter().take(50) {
            assert!(
                matches!(expect(&fns, r), Ok(Expect::Output(_))),
                "{}",
                r.line
            );
        }
    }

    #[test]
    fn bulk_elements_sizes_and_backends() {
        let pool = generate(Workload::BulkElements, 5);
        for block in pool.chunks(BULK_BLOCK.len()) {
            let seq = block.iter().filter(|r| r.backend == Backend::Seq).count();
            let cls = block.iter().filter(|r| r.fn_name == "classify").count();
            assert_eq!(
                (seq, cls),
                (8, 4),
                "per 16: half on seq, a quarter classify"
            );
        }
        for r in &pool {
            let n = parse_value(&r.input).unwrap().as_seq().unwrap().len();
            assert!((10_000..=50_000).contains(&n), "{n} elements");
        }
    }
}
