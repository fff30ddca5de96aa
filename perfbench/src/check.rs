//! Judging replies against the reference evaluator's expectations.

use crate::workload::Expect;
use nsc_serve::json::{self, Json};

/// How one request fared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The reply is the expected output, or the expected error kind
    /// (an expected `Ω` or synchronous rejection is a success).
    Ok,
    /// No correct answer, but no wrong one either: backpressure
    /// (`overloaded`), shutdown, or no reply at all.
    Failed,
    /// The reply disagrees with the evaluator.
    Wrong(String),
}

/// Judges `reply` (the raw reply line, if any arrived) against `want`.
pub fn judge(want: &Expect, reply: Option<&str>) -> Verdict {
    let Some(line) = reply else {
        return Verdict::Failed;
    };
    let doc = match json::parse(line) {
        Ok(d @ Json::Obj(_)) => d,
        _ => return Verdict::Wrong(format!("reply is not a JSON object: {line}")),
    };
    let output = doc.get("output").and_then(Json::as_str);
    let kind = doc.get("kind").and_then(Json::as_str);
    match (want, output, kind) {
        (Expect::Output(w), Some(got), None) if got == w => Verdict::Ok,
        (Expect::Kind(w), None, Some(got)) if got == *w => Verdict::Ok,
        (_, None, Some("overloaded" | "shutdown")) => Verdict::Failed,
        _ => Verdict::Wrong(format!("expected {want:?}, got {line}")),
    }
}

/// Running totals over the requests of the measured phases.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests without a correct reply (including wrong ones).
    pub failed: u64,
    /// Replies that disagree with the evaluator (first few kept).
    pub wrong: Vec<String>,
    /// How many replies disagreed in total.
    pub wrong_count: u64,
}

impl Tally {
    /// Records one request's verdict; returns whether it succeeded.
    pub fn record(&mut self, v: Verdict) -> bool {
        self.attempted += 1;
        match v {
            Verdict::Ok => true,
            Verdict::Failed => {
                self.failed += 1;
                false
            }
            Verdict::Wrong(msg) => {
                self.failed += 1;
                self.wrong_count += 1;
                if self.wrong.len() < 5 {
                    self.wrong.push(msg);
                }
                false
            }
        }
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every reply agreed with the evaluator.
    pub fn correct(&self) -> bool {
        self.wrong_count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_omega_succeeds_and_overloaded_fails() {
        let mut t = Tally::default();
        let omega = r#"{"error": "evaluated the error constant Omega", "kind": "omega"}"#;
        let overloaded = r#"{"error": "admission queue full", "kind": "overloaded"}"#;
        assert!(t.record(judge(&Expect::Kind("omega"), Some(omega))));
        assert!(t.record(judge(
            &Expect::Output("[2, 5]".into()),
            Some(r#"{"output": "[2, 5]"}"#)
        )));
        assert!(t.record(judge(
            &Expect::Kind("bad-request"),
            Some(r#"{"error": "bad request: eof", "kind": "bad-request"}"#)
        )));
        assert!(!t.record(judge(&Expect::Output("[1]".into()), Some(overloaded))));
        assert!(!t.record(judge(&Expect::Kind("omega"), None)));
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert!((t.failed_frac() - 0.4).abs() < 1e-12);
        assert!(
            t.correct(),
            "overloaded and missing are failures, not wrong answers"
        );
    }

    #[test]
    fn disagreeing_replies_are_wrong() {
        let mut t = Tally::default();
        let want = Expect::Output("[2, 5]".into());
        t.record(judge(&want, Some(r#"{"output": "[2, 6]"}"#)));
        t.record(judge(&want, Some(r#"{"error": "x", "kind": "omega"}"#)));
        t.record(judge(&Expect::Kind("omega"), Some(r#"{"output": "[1]"}"#)));
        t.record(judge(
            &Expect::Kind("omega"),
            Some(r#"{"error": "x", "kind": "fault"}"#),
        ));
        assert_eq!(t.wrong_count, 4);
        assert!(!t.correct());
        assert_eq!(t.failed_frac(), 1.0);
    }
}
