//! Load generation: one submitting thread and one reply-collecting
//! thread, driving any `submit(seq, line, reply_tx)` front — in the
//! benchmark, `nsc_serve::front::handle_line` on a live server.
//!
//! * **Closed loop** — at most `window` requests in flight; the next one
//!   is sent when a reply frees a slot.  Latency runs from send to reply.
//! * **Open loop** — request `i` is due at `start + i / rate` whatever
//!   the server is doing.  Latency runs from the *due* time, so a stall
//!   is charged to every request it delayed, and the generator's own
//!   lateness (send − due) is recorded to check the run was valid.
//!
//! The collector checks each reply as it arrives and keeps only the
//! verdict, not the reply line.  The fixed-size records the harness
//! still keeps per request are a visible share of a small server's
//! `peak_rss_mb` (see `NOTES.md`).

use std::sync::mpsc::{channel, Sender};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long the collector waits for the next reply before it declares
/// the outstanding ones missing.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Everything one load phase observed, indexed by request sequence.
#[derive(Debug)]
pub struct PhaseLog<R> {
    /// When the phase began.
    pub start: Instant,
    /// When each request was due (the send time in a closed loop).
    pub due: Vec<Instant>,
    /// When each request was actually handed to the front.
    pub sent: Vec<Instant>,
    /// The first reply to each answered request: its sequence number,
    /// when it arrived, and what the phase's check made of it; in
    /// sequence order.
    pub replies: Vec<(usize, Instant, R)>,
}

impl<R> PhaseLog<R> {
    /// Seconds from the phase start to the last reply.
    pub fn wall_s(&self) -> f64 {
        let last = self
            .replies
            .iter()
            .map(|(_, t, _)| *t)
            .max()
            .unwrap_or(self.start);
        last.duration_since(self.start).as_secs_f64()
    }

    /// Per-request latency in ms, from the due time, for requests that
    /// got a reply and are selected by `keep`.
    pub fn latencies_ms(&self, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        self.replies
            .iter()
            .filter(|(i, _, _)| keep(*i))
            .map(|(i, t, _)| crate::stats::ms(t.duration_since(self.due[*i])))
            .collect()
    }

    /// Generator lateness (send − due) per request, in ms.
    pub fn lag_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .zip(&self.due)
            .map(|(s, d)| crate::stats::ms(s.saturating_duration_since(*d)))
            .collect()
    }
}

/// The arrival discipline of a phase.
#[derive(Debug, Clone, Copy)]
pub enum Schedule {
    /// At most this many requests in flight.
    Closed {
        /// In-flight window.
        window: usize,
    },
    /// Requests due at a fixed rate (per second).
    Open {
        /// Offered rate.
        rate: f64,
    },
}

/// Runs one phase for `dur`: sends `lines[i % len]` as request `i`
/// through `submit` and collects every reply, passing it to
/// `check(i % len, reply)` once its arrival is stamped and its window
/// slot freed.  Every phase starts at the first line, so an open-loop
/// phase (whose request count the rate fixes) sends the same mix of
/// requests in every run.  Replies for requests sent before the deadline
/// are awaited after it (up to [`REPLY_TIMEOUT`] of silence).
pub fn run_phase<F, C, R>(
    lines: &[String],
    schedule: Schedule,
    dur: Duration,
    check: C,
    mut submit: F,
) -> PhaseLog<R>
where
    F: FnMut(u64, &str, &Sender<(u64, String)>),
    C: Fn(usize, String) -> R + Send,
    R: Send,
{
    let inflight = (Mutex::new(0usize), Condvar::new());
    let (tx, rx) = channel::<(u64, String)>();
    let start = Instant::now();
    let deadline = start + dur;
    let mut log = PhaseLog {
        start,
        due: Vec::new(),
        sent: Vec::new(),
        replies: Vec::new(),
    };
    let arrivals = std::thread::scope(|s| {
        let inflight = &inflight;
        let pool = lines.len();
        let collector = s.spawn(move || {
            let mut got: Vec<(usize, Instant, R)> = Vec::new();
            // The loop ends when every sender is gone (each request was
            // answered or dropped by the server), or when the rest are
            // missing.
            while let Ok((seq, line)) = rx.recv_timeout(REPLY_TIMEOUT) {
                let t = Instant::now();
                let (n, cv) = inflight;
                *n.lock().expect("in-flight counter poisoned") -= 1;
                cv.notify_one();
                let seq = seq as usize;
                got.push((seq, t, check(seq % pool, line)));
            }
            got
        });
        for i in 0u64.. {
            if Instant::now() >= deadline {
                break;
            }
            let due = match schedule {
                Schedule::Closed { window } => {
                    let (n, cv) = inflight;
                    let mut guard = n.lock().expect("in-flight counter poisoned");
                    while *guard >= window && Instant::now() < deadline {
                        let left = deadline.saturating_duration_since(Instant::now());
                        guard = cv
                            .wait_timeout(guard, left)
                            .expect("in-flight counter poisoned")
                            .0;
                    }
                    if *guard >= window {
                        break;
                    }
                    Instant::now()
                }
                Schedule::Open { rate } => {
                    let due = start + Duration::from_secs_f64(i as f64 / rate);
                    if due >= deadline {
                        break;
                    }
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    due
                }
            };
            let idx = i as usize % lines.len();
            *inflight.0.lock().expect("in-flight counter poisoned") += 1;
            let sent = Instant::now();
            log.due.push(due);
            log.sent.push(sent);
            submit(i, &lines[idx], &tx);
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    // Keep the first reply to each request.  The sort is stable, so
    // that is the earliest arrival.
    log.replies = arrivals;
    log.replies.sort_by_key(|(seq, _, _)| *seq);
    log.replies.dedup_by_key(|(seq, _, _)| *seq);
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("line{i}")).collect()
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // A front that stalls 80 ms on the first request and answers the
        // rest at once: every request due during the stall is sent late.
        let pool = lines(4);
        let log = run_phase(
            &pool,
            Schedule::Open { rate: 200.0 },
            Duration::from_millis(200),
            |_, line| line,
            |seq, line, tx| {
                if seq == 0 {
                    std::thread::sleep(Duration::from_millis(80));
                }
                tx.send((seq, line.to_string())).unwrap();
            },
        );
        assert_eq!(log.replies.len(), log.due.len());
        // Request 5 was due 25 ms in but could not be sent before 80 ms.
        let due_lat = log.latencies_ms(|i| i == 5)[0];
        let sent_lat = {
            let (seq, t, _) = &log.replies[5];
            assert_eq!(*seq, 5);
            crate::stats::ms(t.duration_since(log.sent[5]))
        };
        assert!(due_lat >= 50.0, "from due: {due_lat} ms");
        assert!(sent_lat < 20.0, "from send: {sent_lat} ms");
        assert!(log.lag_ms()[5] >= 50.0);
    }

    #[test]
    fn closed_loop_never_exceeds_its_window() {
        let pool = lines(3);
        let peak = std::sync::Mutex::new((0usize, 0usize));
        let pending = std::sync::Mutex::new(Vec::new());
        let log = run_phase(
            &pool,
            Schedule::Closed { window: 3 },
            Duration::from_millis(100),
            |_, line| line,
            |seq, line, tx| {
                // Answer in groups of three, from the submitting thread,
                // so the window is what blocks the fourth send.
                let mut p = pending.lock().unwrap();
                p.push((seq, line.to_string()));
                let mut pk = peak.lock().unwrap();
                pk.0 = p.len();
                pk.1 = pk.1.max(p.len());
                if p.len() == 3 {
                    for r in p.drain(..) {
                        tx.send(r).unwrap();
                    }
                }
            },
        );
        assert_eq!(peak.lock().unwrap().1, 3);
        assert!(log.due.len() >= 3);
        let first: Vec<&str> = log.replies[..3]
            .iter()
            .map(|(_, _, l)| l.as_str())
            .collect();
        assert_eq!(first, ["line0", "line1", "line2"]);
    }
}
