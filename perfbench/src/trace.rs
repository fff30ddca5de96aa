//! The traced run: every layer timed from outside, by calling its public
//! function on the workload's own generated requests.
//!
//! The server itself stays untouched (no spans inside the program):
//! a short serving phase supplies the shard snapshots, the observed batch
//! sizes and the front-versus-shard latency split, and every other layer
//! is re-run here stage by stage with `Instant` around each call.

use crate::check::Tally;
use crate::e2e::{setup, Prepared};
use crate::load::{run_phase, Schedule};
use crate::stats::{median, ms, quantile, us};
use crate::workload::{Class, ServedFn};
use crate::Metric;
use bvram::verify::verify_program_basic;
use bvram::{cost_program, run_lanes_rayon, Vector};
use nsc_algebra::fuse::fuse_func;
use nsc_algebra::nsa::from_nsc::func_to_nsa;
use nsc_algebra::sa::flatten::{compile as flatten, compile_type};
use nsc_compile::pipeline::{arg_register_lengths, decode_result, encode_arg, run_program_on};
use nsc_compile::{compile_sa, optimize_checked, Backend, OptLevel, VerifyLevel};
use nsc_core::ast;
use nsc_core::parse::parse_value;
use nsc_core::types::Type;
use nsc_core::value::Value;
use nsc_runtime::{BatchMode, BatchRunner, CompiledCache, KERNEL_OPT_BUDGET};
use nsc_serve::protocol::{self, Request};
use nsc_serve::{Reply, Server};
use std::collections::BTreeMap;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Share of `--seconds` the traced serving phase spends in closed and in
/// open loop; the layer loops after it run a fixed amount of work.
const CLOSED_SHARE: f64 = 0.3;
const OPEN_SHARE: f64 = 0.2;

/// Batch replays per shard for the plan and batch-discipline timings.
const REPLAYS: usize = 4;

/// Pack replays whose fused registers would exceed this many bytes are
/// skipped (a 2×3·10⁴-element classify kernel batch needs gigabytes).
const PACK_REPLAY_MAX_BYTES: u128 = 512 << 20;

/// The traced run's results.
pub struct Traced {
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Request accounting over the traced serving phase.
    pub tally: Tally,
}

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

const BACKENDS: [Backend; 2] = [Backend::Seq, Backend::Par];

/// Compile-path stage times (ms) and program sizes for one artifact.
#[derive(Default)]
struct CompileStages {
    fuse: f64,
    nsa: f64,
    flatten: f64,
    codegen: f64,
    opt: f64,
    verify: f64,
    cost: f64,
    codegen_instrs: f64,
    opt_instrs: f64,
}

impl CompileStages {
    fn add(&mut self, o: &CompileStages) {
        self.fuse += o.fuse;
        self.nsa += o.nsa;
        self.flatten += o.flatten;
        self.codegen += o.codegen;
        self.opt += o.opt;
        self.verify += o.verify;
        self.cost += o.cost;
        self.codegen_instrs += o.codegen_instrs;
        self.opt_instrs += o.opt_instrs;
    }
}

/// Runs the cache's pipeline for `f : dom` stage by stage, as
/// `CompiledCache::get_or_compile` does for the single program
/// (`kernel = false`) or the `map(f)` pack kernel (`kernel = true`).
fn compile_stages(f: &ServedFn, kernel: bool) -> Result<CompileStages, String> {
    let (func, dom) = if kernel {
        (ast::map(f.func.clone()), Type::seq(f.dom.clone()))
    } else {
        (f.func.clone(), f.dom.clone())
    };
    let err = |stage: &str, e: String| format!("{} {stage}: {e}", f.name);
    let mut s = CompileStages::default();
    let (fused, d) = time(|| fuse_func(&func));
    s.fuse = ms(d);
    let (nsa, d) = time(|| func_to_nsa(&fused.func));
    s.nsa = ms(d);
    let nsa = nsa.map_err(|e| err("nsa", e.to_string()))?;
    let (sa, d) = time(|| flatten(&nsa, &dom));
    s.flatten = ms(d);
    let (sa, _) = sa.map_err(|e| err("flatten", e.to_string()))?;
    let (prog, d) = time(|| compile_sa(&sa, &compile_type(&dom)));
    s.codegen = ms(d);
    let (prog, _) = prog.map_err(|e| err("codegen", e.to_string()))?;
    s.codegen_instrs = prog.instrs.len() as f64;
    // The cache ships oversized kernels unoptimized.
    let prog = if !kernel || prog.instrs.len() <= KERNEL_OPT_BUDGET {
        let (p, d) =
            time(|| optimize_checked(prog, OptLevel::O1, VerifyLevel::from_env(), "codegen"));
        s.opt = ms(d);
        p.map_err(|e| err("opt", e.to_string()))?
    } else {
        prog
    };
    s.opt_instrs = prog.instrs.len() as f64;
    let (report, d) = time(|| verify_program_basic(&prog));
    s.verify = ms(d);
    if !report.clean() {
        return Err(err("verify", report.to_string()));
    }
    let (_, d) = time(|| cost_program(&prog));
    s.cost = ms(d);
    Ok(s)
}

/// Per-request layer samples over the traced sample.
#[derive(Default)]
struct PathSamples {
    parse_request: Vec<f64>,
    parse_value: Vec<f64>,
    admits: Vec<f64>,
    encode: Vec<f64>,
    decode: Vec<f64>,
    render: Vec<f64>,
    /// Per backend: run µs, T', W'.
    run: [Vec<(f64, u64, u64)>; 2],
    w_bound_ratio: Vec<f64>,
    bounded: usize,
    unbounded: usize,
    /// Sum of a request's own traced stage times (µs), for coverage.
    per_request_sum: Vec<f64>,
}

fn runner_for<'a>(
    runners: &'a mut BTreeMap<(&'static str, &'static str), BatchRunner>,
    cache: &CompiledCache,
    f: &ServedFn,
    backend: Backend,
) -> Result<&'a BatchRunner, String> {
    use std::collections::btree_map::Entry;
    match runners.entry((f.name, backend.name())) {
        Entry::Occupied(e) => Ok(e.into_mut()),
        Entry::Vacant(e) => {
            let r = BatchRunner::from_cache(cache, &f.func, &f.dom, OptLevel::O1, backend)
                .map_err(|e| format!("{}: {e}", f.name))?;
            Ok(e.insert(r))
        }
    }
}

fn served<'a>(p: &'a Prepared, name: &str) -> &'a ServedFn {
    p.fns
        .iter()
        .find(|f| f.name == name)
        .expect("generated requests target served functions")
}

/// Times the request path and both machines on the first
/// `spec().trace_sample` pool requests.
fn request_path(
    p: &Prepared,
    cache: &CompiledCache,
    runners: &mut BTreeMap<(&'static str, &'static str), BatchRunner>,
) -> Result<PathSamples, String> {
    let mut s = PathSamples::default();
    for r in p.pool.iter().take(p.workload.spec().trace_sample) {
        let (req, d) = time(|| protocol::parse_request(&r.line));
        s.parse_request.push(us(d));
        let mut own = us(d);
        let Ok(Request::Call { input, .. }) = req else {
            continue;
        };
        let f = served(p, r.fn_name);
        let (v, d) = time(|| parse_value(&input));
        s.parse_value.push(us(d));
        own += us(d);
        let Ok(v) = v else { continue };
        let (ok, d) = time(|| f.dom.admits(&v));
        s.admits.push(us(d));
        own += us(d);
        if !ok {
            continue;
        }
        let runner = runner_for(runners, cache, f, r.backend)?;
        let (regs, d) = time(|| encode_arg(&v, runner.dom()));
        s.encode.push(us(d));
        own += us(d);
        let regs = regs.map_err(|e| format!("encode {}: {e}", r.fn_name))?;
        let single = &runner.cached().single;
        let mut served_out = None;
        let mut seq_work = None;
        for (b, backend) in BACKENDS.into_iter().enumerate() {
            let (out, d) = time(|| run_program_on(&single.program, regs.clone(), backend));
            if backend == r.backend {
                own += us(d);
            }
            if let Ok(out) = out {
                s.run[b].push((us(d), out.stats.time, out.stats.work));
                if backend == Backend::Seq {
                    seq_work = Some(out.stats.work);
                }
                if backend == r.backend {
                    served_out = Some(out);
                }
            }
        }
        if let Ok(lens) = arg_register_lengths(&v, runner.dom()) {
            match single.cost.work.eval(&lens) {
                Some(bound) => {
                    s.bounded += 1;
                    if let Some(w) = seq_work {
                        s.w_bound_ratio.push(bound as f64 / w.max(1) as f64);
                    }
                }
                None => s.unbounded += 1,
            }
        }
        // Ω requests stop at the machine: nothing to decode or render.
        if let Some(out) = served_out {
            let (val, d) = time(|| decode_result(&out.outputs, runner.cod()));
            s.decode.push(us(d));
            own += us(d);
            let val = val.map_err(|e| format!("decode {}: {e}", r.fn_name))?;
            let (_, d) = time(|| protocol::render_output(None, &val.to_string()));
            s.render.push(us(d));
            own += us(d);
        }
        s.per_request_sum.push(own);
    }
    Ok(s)
}

/// Batch-level samples from replaying observed batch sizes.
#[derive(Default)]
struct BatchSamples {
    plan: Vec<f64>,
    /// Per backend: lanes and pack machine time per batch (µs).
    lanes: [Vec<f64>; 2],
    pack: [Vec<f64>; 2],
    chosen_wall: f64,
    best_wall: f64,
}

/// Replays batches of each shard's observed mean size: the planner, both
/// disciplines end to end (for plan regret), and the bare machine runs
/// of each discipline on both backends.
fn batch_replays(
    p: &Prepared,
    server: &Server,
    runners: &mut BTreeMap<(&'static str, &'static str), BatchRunner>,
) -> Result<BatchSamples, String> {
    let mut s = BatchSamples::default();
    for snap in server.snapshots() {
        let Some(f) = p.fns.iter().find(|f| f.name == snap.function) else {
            continue;
        };
        let backend = if snap.backend == "par" {
            Backend::Par
        } else {
            Backend::Seq
        };
        let size = (snap.mean_batch.round() as usize).max(2);
        // The shard's valid requests, in pool order, cycled.
        let vals: Vec<Value> = p
            .pool
            .iter()
            .filter(|r| {
                r.fn_name == f.name
                    && r.backend == backend
                    && !matches!(r.class, Class::Malformed(_))
            })
            .filter_map(|r| parse_value(&r.input).ok())
            .filter(|v| f.dom.admits(v))
            .collect();
        if vals.is_empty() {
            continue;
        }
        let runner = runner_for(runners, server.cache(), f, backend)?;
        for k in 0..REPLAYS {
            let batch: Vec<Value> = (0..size)
                .map(|i| vals[(k * size + i) % vals.len()].clone())
                .collect();
            let (plan, d) = time(|| runner.plan(&batch));
            s.plan.push(us(d));
            let lanes_regs: Vec<Vec<Vector>> = batch
                .iter()
                .map(|v| encode_arg(v, runner.dom()))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("encode {}: {e}", f.name))?;
            let elems: u128 = lanes_regs
                .iter()
                .flatten()
                .map(|r| r.len() as u128)
                .sum::<u128>()
                .max(1);
            let kernel = &runner.cached().batch;
            let pack_fits = elems * kernel.program.n_regs as u128 * 8 <= PACK_REPLAY_MAX_BYTES;
            for (b, be) in BACKENDS.into_iter().enumerate() {
                let (_, d) = time(|| {
                    run_lanes_rayon(
                        &runner.cached().single.program,
                        lanes_regs.clone(),
                        be == Backend::Par,
                    )
                });
                s.lanes[b].push(us(d));
                if pack_fits {
                    let regs = encode_arg(&Value::seq(batch.clone()), &kernel.dom())
                        .map_err(|e| format!("encode batch {}: {e}", f.name))?;
                    let (_, d) = time(|| run_program_on(&kernel.program, regs, be));
                    s.pack[b].push(us(d));
                }
            }
            if pack_fits {
                let (_, pack) = time(|| runner.run_batch_mode(&batch, BatchMode::Pack));
                let (_, lanes) = time(|| runner.run_batch_mode(&batch, BatchMode::Lanes));
                let chosen = if plan.mode == BatchMode::Pack {
                    pack
                } else {
                    lanes
                };
                s.chosen_wall += chosen.as_secs_f64();
                s.best_wall += pack.min(lanes).as_secs_f64();
            }
        }
    }
    Ok(s)
}

/// A serving phase through a replica of `front::handle_line` that also
/// keeps each reply's server-side latency (`Reply::latency`, admission to
/// reply), so the front's own share of client latency can be split off.
/// It must answer every call line as `handle_line` does (unit test);
/// any other command is not part of a workload.
fn front_replica(
    server: &Arc<Server>,
    server_lat: &Arc<Mutex<Vec<(u64, Duration)>>>,
) -> impl FnMut(u64, &str, &Sender<(u64, String)>) {
    let server = Arc::clone(server);
    let server_lat = Arc::clone(server_lat);
    move |seq, line, tx| match protocol::parse_request(line) {
        Ok(Request::Call {
            fn_name,
            input,
            backend,
            id,
        }) => {
            let out = tx.clone();
            let lat = Arc::clone(&server_lat);
            let reply_id = id.clone();
            let submitted = server.submit(
                &fn_name,
                backend,
                input,
                Box::new(move |r: Reply| {
                    let line = match &r.result {
                        Ok(v) => protocol::render_output(reply_id.as_ref(), v),
                        Err(e) => protocol::render_error(reply_id.as_ref(), e),
                    };
                    let _ = out.send((seq, line));
                    // Logged after the reply is out, so the client's
                    // latency does not include it.
                    lat.lock()
                        .expect("latency log poisoned")
                        .push((seq, r.latency));
                }),
            );
            if let Err(e) = submitted {
                let _ = tx.send((seq, protocol::render_error(id.as_ref(), &e)));
            }
        }
        Ok(_) => {
            let _ = tx.send((
                seq,
                "{\"error\": \"unexpected command\", \"kind\": \"bench\"}".into(),
            ));
        }
        Err(e) => {
            let _ = tx.send((seq, protocol::render_error(None, &e)));
        }
    }
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run of one workload.
pub fn run(p: &Prepared, seconds: f64) -> Result<Traced, String> {
    let spec = p.workload.spec();
    let mut m: Vec<Metric> = Vec::new();

    // --- Serving phase: snapshots, batch sizes, front overhead, lag. ---
    let (server, _) = setup(p)?;
    let server_lat = Arc::new(Mutex::new(Vec::new()));
    let closed = run_phase(
        &p.lines,
        Schedule::Closed {
            window: spec.window,
        },
        Duration::from_secs_f64(seconds * CLOSED_SHARE),
        p.checker(),
        front_replica(&server, &server_lat),
    );
    let open = run_phase(
        &p.lines,
        Schedule::Open { rate: spec.ol_rate },
        Duration::from_secs_f64(seconds * OPEN_SHARE),
        p.checker(),
        |seq, line, tx| {
            nsc_serve::front::handle_line(&server, line, seq, tx);
        },
    );
    let snaps = server.snapshots();
    let mut tally = Tally::default();
    let closed_ok = p.judge(&closed, &mut tally);
    p.judge(&open, &mut tally);
    let client_ms = closed.latencies_ms(|i| closed_ok[i]);
    let server_ms: Vec<f64> = server_lat
        .lock()
        .expect("latency log poisoned")
        .iter()
        .filter(|(seq, _)| closed_ok[*seq as usize])
        .map(|(_, d)| ms(*d))
        .collect();
    let replies = closed.replies.len().max(1);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let service_us = closed.wall_s() * 1e6 * cores as f64 / replies as f64;

    // --- Compile path, once per served function and artifact. ---
    let mut get_or_compile = 0.0;
    let mut single = CompileStages::default();
    let mut kernel = CompileStages::default();
    for f in &p.fns {
        let cache = CompiledCache::new();
        let (r, d) = time(|| cache.get_or_compile(&f.func, &f.dom, OptLevel::O1, Backend::Seq));
        r.map_err(|e| format!("{}: {e}", f.name))?;
        get_or_compile += ms(d);
        single.add(&compile_stages(f, false)?);
        kernel.add(&compile_stages(f, true)?);
    }
    m.push(Metric::new("cache.get_or_compile_ms", get_or_compile, "ms"));
    m.push(Metric::new(
        "cache.compiles",
        server.cache().compiles() as f64,
        "count",
    ));
    for (suffix, s) in [("single", &single), ("kernel", &kernel)] {
        m.push(Metric::new(format!("fuse.ms.{suffix}"), s.fuse, "ms"));
        m.push(Metric::new(format!("nsa.ms.{suffix}"), s.nsa, "ms"));
        m.push(Metric::new(
            format!("sa.flatten_ms.{suffix}"),
            s.flatten,
            "ms",
        ));
        m.push(Metric::new(format!("codegen.ms.{suffix}"), s.codegen, "ms"));
        m.push(Metric::new(format!("opt.ms.{suffix}"), s.opt, "ms"));
        m.push(Metric::new(format!("verify.ms.{suffix}"), s.verify, "ms"));
        m.push(Metric::new(format!("cost.ms.{suffix}"), s.cost, "ms"));
        m.push(Metric::new(
            format!("codegen.instrs.{suffix}"),
            s.codegen_instrs,
            "count",
        ));
        m.push(Metric::new(
            format!("opt.instrs.{suffix}"),
            s.opt_instrs,
            "count",
        ));
    }

    // --- Request path and machines, on the workload's own lines. ---
    let mut runners = BTreeMap::new();
    let path = request_path(p, server.cache(), &mut runners)?;
    let batches = batch_replays(p, &server, &mut runners)?;
    server.drain();
    m.push(Metric::new(
        "protocol.parse_request_us",
        med(&path.parse_request),
        "us",
    ));
    m.push(Metric::new("parse.value_us", med(&path.parse_value), "us"));
    m.push(Metric::new("types.admits_us", med(&path.admits), "us"));
    m.push(Metric::new("batch.plan_us", med(&batches.plan), "us"));
    m.push(Metric::new("pipeline.encode_us", med(&path.encode), "us"));
    m.push(Metric::new("pipeline.decode_us", med(&path.decode), "us"));
    m.push(Metric::new("protocol.render_us", med(&path.render), "us"));
    for (b, backend) in BACKENDS.into_iter().enumerate() {
        let runs = &path.run[b];
        let n = backend.name();
        let run_us: Vec<f64> = runs.iter().map(|r| r.0).collect();
        let t: Vec<f64> = runs.iter().map(|r| r.1 as f64).collect();
        let w: Vec<f64> = runs.iter().map(|r| r.2 as f64).collect();
        let total_ns: f64 = run_us.iter().sum::<f64>() * 1e3;
        m.push(Metric::new(format!("exec.run_us.{n}"), med(&run_us), "us"));
        m.push(Metric::new(format!("exec.t_prime.{n}"), med(&t), "count"));
        m.push(Metric::new(format!("exec.w_prime.{n}"), med(&w), "count"));
        m.push(Metric::new(
            format!("exec.ns_per_instr.{n}"),
            ratio(total_ns, t.iter().sum()),
            "ns",
        ));
        m.push(Metric::new(
            format!("exec.ns_per_elem.{n}"),
            ratio(total_ns, w.iter().sum()),
            "ns",
        ));
        m.push(Metric::new(
            format!("lanes.batch_us.{n}"),
            med(&batches.lanes[b]),
            "us",
        ));
        m.push(Metric::new(
            format!("pack.batch_us.{n}"),
            med(&batches.pack[b]),
            "us",
        ));
    }

    // --- Batching and plan. ---
    let total = |f: fn(&nsc_serve::Snapshot) -> f64| snaps.iter().map(f).sum::<f64>();
    let batches_n = total(|s| s.batches as f64);
    let pack_n = total(|s| s.pack_batches as f64);
    m.push(Metric::new(
        "shard.mean_batch",
        ratio(total(|s| s.mean_batch * s.batches as f64), batches_n),
        "count",
    ));
    m.push(Metric::new(
        "shard.pack_share",
        ratio(pack_n, pack_n + total(|s| s.lanes_batches as f64)),
        "ratio",
    ));
    m.push(Metric::new(
        "shard.pack_slower",
        total(|s| s.pack_slower as f64),
        "count",
    ));
    m.push(Metric::new(
        "shard.replay_share",
        ratio(pack_n - total(|s| s.fused_batches as f64), pack_n),
        "ratio",
    ));
    m.push(Metric::new(
        "batch.plan_regret",
        ratio(batches.chosen_wall, batches.best_wall),
        "ratio",
    ));
    m.push(Metric::new(
        "cost.w_bound_ratio",
        med(&path.w_bound_ratio),
        "ratio",
    ));
    m.push(Metric::new(
        "cost.top_share",
        ratio(
            path.unbounded as f64,
            (path.bounded + path.unbounded) as f64,
        ),
        "ratio",
    ));

    // --- Front and harness. ---
    m.push(Metric::new(
        "front.overhead_ms",
        med(&client_ms) - med(&server_ms),
        "ms",
    ));
    m.push(Metric::new(
        "loadgen.lag_p99_ms",
        quantile(&open.lag_ms(), 0.99).unwrap_or(0.0),
        "ms",
    ));
    let plan_per_req = ratio(
        med(&batches.plan),
        total(|s| s.mean_batch * s.batches as f64) / batches_n.max(1.0),
    );
    let traced_us = crate::stats::mean(&path.per_request_sum) + plan_per_req;
    m.push(Metric::new(
        "trace.coverage",
        ratio(traced_us, service_us),
        "ratio",
    ));
    Ok(Traced { metrics: m, tally })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use std::sync::mpsc::channel;

    /// Sends `lines` through `submit` and returns the replies by sequence.
    fn replies(
        lines: &[String],
        mut submit: impl FnMut(u64, &str, &Sender<(u64, String)>),
    ) -> BTreeMap<u64, String> {
        let (tx, rx) = channel();
        for (seq, line) in lines.iter().enumerate() {
            submit(seq as u64, line, &tx);
        }
        drop(tx);
        (0..lines.len())
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(60))
                    .expect("a request was never answered")
            })
            .collect()
    }

    #[test]
    fn front_replica_answers_like_handle_line() {
        // fault_mix's first 192 lines hold Ω requests and one malformed
        // line of each kind.
        let p = Prepared::new(Workload::FaultMix, 7).unwrap();
        let lines = &p.lines[..192];
        let shipped = p.server();
        let want = replies(lines, |seq, line, tx| {
            nsc_serve::front::handle_line(&shipped, line, seq, tx);
        });
        let replica_server = p.server();
        let lat = Arc::new(Mutex::new(Vec::new()));
        let got = replies(lines, front_replica(&replica_server, &lat));
        assert_eq!(got, want);
        assert!(want.values().any(|l| l.contains("omega")));
        assert!(want.values().any(|l| l.contains("bad-request")));
        // Every reply that went through a shard logged its latency (the
        // log follows the reply; draining joins the shard threads).
        replica_server.drain();
        let submitted = want.values().filter(|l| !l.contains("bad-request")).count();
        assert_eq!(lat.lock().unwrap().len(), submitted);
    }
}
