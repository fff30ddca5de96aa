//! The untraced run: what a client of the server sees.

use crate::check::{judge, Tally, Verdict};
use crate::load::{run_phase, PhaseLog, Schedule};
use crate::stats::{median, p99, peak_rss_mib, quantile, Ticks};
use crate::workload::{Expect, Request, ServedFn, Workload};
use crate::Metric;
use nsc_serve::front::handle_line;
use nsc_serve::{ServeConfig, Server};
use std::cell::RefCell;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run: one per round, then extra ones until there are this
/// many.  `setup_s` is their median.
pub const MIN_SETUPS: usize = 5;

/// Share of `--seconds` given to the closed-loop phase (the open loop
/// gets the rest).
pub const CLOSED_SHARE: f64 = 0.6;

/// A workload's generated pool with its expected replies.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// Served functions (for registration and the traced run).
    pub fns: Vec<ServedFn>,
    /// The request pool.
    pub pool: Vec<Request>,
    /// The pool's lines, as sent.
    pub lines: Vec<String>,
    /// The evaluator's expected reply per pool entry.
    pub expect: Vec<Expect>,
    /// One warm-up request per shard, with its expected reply.
    pub warmups: Vec<(Request, Expect)>,
}

impl Prepared {
    /// Generates the pool for `seed` and computes every expected reply.
    pub fn new(workload: Workload, seed: u64) -> Result<Prepared, String> {
        let fns = workload.functions();
        let pool = crate::workload::generate(workload, seed);
        let expect = pool
            .iter()
            .map(|r| crate::workload::expect(&fns, r))
            .collect::<Result<Vec<_>, _>>()?;
        let lines = pool.iter().map(|r| r.line.clone()).collect();
        let warmups = crate::workload::warmups(workload, seed)
            .into_iter()
            .map(|r| {
                let e = crate::workload::expect(&fns, &r)?;
                Ok((r, e))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Prepared {
            workload,
            fns,
            pool,
            lines,
            expect,
            warmups,
        })
    }

    /// A fresh server with the shipped default configuration and every
    /// served function registered.
    pub fn server(&self) -> Arc<Server> {
        let mut s = Server::new(ServeConfig::default());
        for f in &self.fns {
            s.register(f.name, &f.func, &f.dom);
        }
        Arc::new(s)
    }

    /// A phase's reply check: judges a reply line to pool request `idx`.
    /// It runs on the collector thread while the server works, so a line
    /// equal to one already judged correct for the same request is
    /// accepted without parsing it again; the server answers each pool
    /// request with the same line every time.
    pub fn checker(&self) -> impl Fn(usize, String) -> Verdict + Send + '_ {
        let expect = &self.expect;
        let correct: RefCell<Vec<Option<String>>> = RefCell::new(vec![None; expect.len()]);
        move |idx, line| {
            if correct.borrow()[idx].as_ref() == Some(&line) {
                return Verdict::Ok;
            }
            let v = judge(&expect[idx], Some(&line));
            if v == Verdict::Ok {
                correct.borrow_mut()[idx] = Some(line);
            }
            v
        }
    }

    /// Records every request of `log` in `tally` (a missing reply fails);
    /// returns which ones succeeded.
    pub fn judge(&self, log: &PhaseLog<Verdict>, tally: &mut Tally) -> Vec<bool> {
        let mut replies = log.replies.iter().peekable();
        (0..log.due.len())
            .map(|seq| {
                let v = match replies.next_if(|(i, _, _)| *i == seq) {
                    Some((_, _, v)) => v.clone(),
                    None => Verdict::Failed,
                };
                tally.record(v)
            })
            .collect()
    }
}

/// Builds a server and brings up every shard the workload uses: one
/// warm-up request per shard, all submitted together.  Returns the
/// server and the seconds from construction (empty cache) to the last
/// correct warm-up reply.
pub fn setup(p: &Prepared) -> Result<(Arc<Server>, f64), String> {
    let t0 = Instant::now();
    let server = p.server();
    let (tx, rx) = channel::<(u64, String)>();
    for (seq, (r, _)) in p.warmups.iter().enumerate() {
        handle_line(&server, &r.line, seq as u64, &tx);
    }
    drop(tx);
    for _ in 0..p.warmups.len() {
        let (seq, line) = rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "a warm-up request was never answered".to_string())?;
        let (r, want) = &p.warmups[seq as usize];
        if judge(want, Some(&line)) != Verdict::Ok {
            return Err(format!(
                "warm-up reply for {} disagrees with the evaluator: {line}",
                r.fn_name
            ));
        }
    }
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// Closed-loop then open-loop load on a set-up server, through
/// `handle_line`.
pub struct Served {
    /// The closed-loop phase.
    pub closed: PhaseLog<Verdict>,
    /// The open-loop phase.
    pub open: PhaseLog<Verdict>,
}

/// Runs both load phases against `server` for `seconds` in total.
pub fn serve(p: &Prepared, server: &Arc<Server>, seconds: f64) -> Served {
    let spec = p.workload.spec();
    let submit = |seq: u64, line: &str, tx: &std::sync::mpsc::Sender<(u64, String)>| {
        handle_line(server, line, seq, tx);
    };
    let closed = run_phase(
        &p.lines,
        Schedule::Closed {
            window: spec.window,
        },
        Duration::from_secs_f64(seconds * CLOSED_SHARE),
        p.checker(),
        submit,
    );
    let open = run_phase(
        &p.lines,
        Schedule::Open { rate: spec.ol_rate },
        Duration::from_secs_f64(seconds * (1.0 - CLOSED_SHARE)),
        p.checker(),
        submit,
    );
    Served { closed, open }
}

/// The untraced run's results.
pub struct Outcome {
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Tail latencies and their sample counts, printed for reference
    /// (`None` below 1000 samples).
    pub tails: Vec<(&'static str, Option<f64>, usize)>,
    /// Validity checks, printed but not targets: the open-loop
    /// generator's lateness, and the shares of CPU time over the run
    /// that the hypervisor stole and that other processes used.
    pub checks: Vec<Metric>,
    /// Request accounting over both load phases.
    pub tally: Tally,
}

/// One round's client-side figures.
struct Round {
    rps: f64,
    p50_ms: f64,
    ol_p50_ms: f64,
}

/// The end-to-end run of one workload: `spec().rounds` rounds, each a
/// fresh server (set-up), a closed-loop phase and an open-loop phase,
/// sharing `seconds` of load equally; every metric is the median over
/// rounds.  Rounds exist because one server instance settles into its
/// own batching rhythm and memory layout: rounds within a run vary about
/// as much as whole runs do, so the median of several is what steadies
/// the figures.  `VmHWM` is read after the first round: every further
/// set-up leaves allocator fragmentation behind that would inflate the
/// peak by a random amount.
pub fn run(p: &Prepared, seconds: f64) -> Result<Outcome, String> {
    let rounds = p.workload.spec().rounds;
    let mut setups = Vec::new();
    let mut per_round = Vec::new();
    let mut rss = None;
    let mut tally = Tally::default();
    let (mut closed_lat, mut open_lat, mut lag) = (Vec::new(), Vec::new(), Vec::new());
    let ticks0 = Ticks::now();
    for _ in 0..rounds {
        let (server, secs) = setup(p)?;
        setups.push(secs);
        let served = serve(p, &server, seconds / rounds as f64);
        if rss.is_none() {
            rss = Some(peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?);
        }
        server.drain();
        let snaps = server.snapshots();
        let batches: u64 = snaps.iter().map(|s| s.batches).sum();
        let pack: u64 = snaps.iter().map(|s| s.pack_batches).sum();
        let fused: u64 = snaps.iter().map(|s| s.fused_batches).sum();
        let completed: u64 = snaps.iter().map(|s| s.completed).sum();
        let closed_ok = p.judge(&served.closed, &mut tally);
        let open_ok = p.judge(&served.open, &mut tally);
        let c = served.closed.latencies_ms(|i| closed_ok[i]);
        let o = served.open.latencies_ms(|i| open_ok[i]);
        let round_lag = served.open.lag_ms();
        let good = closed_ok.iter().filter(|&&ok| ok).count();
        let round = Round {
            rps: good as f64 / served.closed.wall_s(),
            p50_ms: median(&c).unwrap_or(0.0),
            ol_p50_ms: median(&o).unwrap_or(0.0),
        };
        eprintln!(
            "perfbench: round {}: setup {secs:.4} s, {:.1} req/s, p50 {:.3} ms, open-loop p50 {:.3} ms, open-loop lag p50 {:.3} ms, mean batch {:.1}, pack batches replayed {}/{}",
            per_round.len() + 1,
            round.rps,
            round.p50_ms,
            round.ol_p50_ms,
            median(&round_lag).unwrap_or(0.0),
            completed as f64 / batches.max(1) as f64,
            pack - fused,
            pack,
        );
        per_round.push(round);
        closed_lat.extend(c);
        open_lat.extend(o);
        lag.extend(round_lag);
    }
    while setups.len() < MIN_SETUPS {
        let (s, secs) = setup(p)?;
        s.drain();
        eprintln!("perfbench: extra set-up: {secs:.4} s");
        setups.push(secs);
    }
    let med =
        |f: fn(&Round) -> f64| median(&per_round.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    let metrics = vec![
        Metric::new("setup_s", median(&setups).unwrap_or(0.0), "s"),
        Metric::new("throughput_rps", med(|r| r.rps), "req/s"),
        Metric::new("latency_p50_ms", med(|r| r.p50_ms), "ms"),
        Metric::new("ol_latency_p50_ms", med(|r| r.ol_p50_ms), "ms"),
        Metric::new("peak_rss_mb", rss.unwrap_or(0.0), "MiB"),
    ];
    // Tails pool every round's samples: p99 needs its 1000.
    let tails = vec![
        ("latency_p99_ms", p99(&closed_lat), closed_lat.len()),
        ("ol_latency_p99_ms", p99(&open_lat), open_lat.len()),
    ];
    let (steal, others) = match (ticks0, Ticks::now()) {
        (Some(t0), Some(t1)) => t0.shares_until(&t1),
        _ => (0.0, 0.0),
    };
    let checks = vec![
        Metric::new(
            "loadgen.lag_p99_ms",
            quantile(&lag, 0.99).unwrap_or(0.0),
            "ms",
        ),
        Metric::new("host.steal_share", steal, "ratio"),
        Metric::new("host.others_busy_share", others, "ratio"),
    ];
    Ok(Outcome {
        metrics,
        tails,
        checks,
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_serve::json::Json;
    use std::collections::BTreeMap;

    fn output_line(value: &str) -> String {
        let mut m = BTreeMap::new();
        m.insert("output".to_string(), Json::Str(value.to_string()));
        Json::Obj(m).render()
    }

    #[test]
    fn checker_accepts_a_repeated_correct_line_and_nothing_else() {
        let p = Prepared::new(Workload::FaultMix, 3).unwrap();
        let idx: Vec<usize> = (0..p.expect.len())
            .filter(|&i| matches!(p.expect[i], Expect::Output(_)))
            .take(2)
            .collect();
        let Expect::Output(want) = &p.expect[idx[0]] else {
            unreachable!()
        };
        let good = output_line(want);
        let check = p.checker();
        assert_eq!(check(idx[0], good.clone()), Verdict::Ok);
        assert_eq!(check(idx[0], good.clone()), Verdict::Ok);
        let wrong = output_line(&format!("{want} "));
        assert!(matches!(check(idx[0], wrong), Verdict::Wrong(_)));
        // A line remembered for one request proves nothing for another.
        assert!(matches!(check(idx[1], good), Verdict::Wrong(_)));
    }
}
