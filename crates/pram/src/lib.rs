//! # pram — Proposition 3.2
//!
//! A CREW PRAM **with scan primitives** executing BVRAM programs under
//! Brent scheduling: an instruction of work `w` is striped over `p`
//! processors in `⌈w/p⌉` element cycles plus `O(1)` dispatch, and the
//! routing instructions use the scan primitive for their offsets (constant
//! scan cost in Blelloch's scan model).  Proposition 3.2's bound — any NSC
//! function of complexity `(T, W)` runs in `O(T + W/p)` PRAM cycles — then
//! follows by composing with the Theorem 7.1 compilation; the EXP-P32
//! harness sweeps `p` and reports `cycles / (T + W/p)`.

#![warn(missing_docs)]

use bvram::{Machine, MachineError, Program, Vector};

/// Accounting result of a Brent-scheduled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PramStats {
    /// Total cycles on the `p`-processor CREW machine.
    pub cycles: u64,
    /// Processor count.
    pub p: u64,
    /// The executed program's parallel time `T` (instructions).
    pub time: u64,
    /// The executed program's work `W`.
    pub work: u64,
}

impl PramStats {
    /// The paper's bound denominator `T + W/p`.
    pub fn brent_bound(&self) -> f64 {
        self.time as f64 + self.work as f64 / self.p as f64
    }

    /// The simulation constant `cycles / (T + W/p)` — Proposition 3.2
    /// says this stays `O(1)` across `p`.
    pub fn ratio(&self) -> f64 {
        self.cycles as f64 / self.brent_bound()
    }
}

/// Executes a BVRAM program on a `p`-processor CREW-with-scan PRAM.
///
/// Per executed instruction of work `w` (sum of operand/result register
/// lengths): `⌈w/p⌉` cycles of striped elementwise/copy work, plus one
/// dispatch cycle, plus one scan cycle for the routing/packing
/// instructions ([`bvram::Instr::is_routing`]) whose offsets come from
/// the scan primitive.  The per-instruction work is the machine's own,
/// reported by [`Machine::run_observed`], so the cycles always lie in
/// `[T + W/p, 3·(T + W/p)]`.
pub fn run_brent(prog: &Program, inputs: &[Vector], p: u64) -> Result<PramStats, MachineError> {
    assert!(p >= 1);
    let mut cycles = 0u64;
    let outcome = Machine::new(prog.n_regs).run_observed(prog, inputs, |ins, w| {
        cycles += 1 + w.div_ceil(p) + u64::from(ins.is_routing());
    })?;
    Ok(PramStats {
        cycles,
        p,
        time: outcome.stats.time,
        work: outcome.stats.work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvram::{Builder, Instr::*, Op};

    fn demo() -> Program {
        let mut b = Builder::new(2, 1);
        b.push(Arith {
            dst: 2,
            op: Op::Add,
            a: 0,
            b: 1,
        })
        .push(Enumerate { dst: 3, src: 2 })
        .push(Arith {
            dst: 0,
            op: Op::Mul,
            a: 2,
            b: 3,
        })
        .push(Halt);
        b.build().unwrap()
    }

    #[test]
    fn one_processor_cycles_near_work() {
        let p = demo();
        let n = 1000u64;
        let inputs = vec![(0..n).collect(), (0..n).collect()];
        let s = run_brent(&p, &inputs, 1).unwrap();
        assert!(s.cycles >= s.work, "p=1 pays all the work");
        assert!(
            s.ratio() < 3.0,
            "constant-factor Brent bound: {}",
            s.ratio()
        );
    }

    #[test]
    fn many_processors_cycles_near_time() {
        let p = demo();
        let n = 1000u64;
        let inputs = vec![(0..n).collect(), (0..n).collect()];
        let s = run_brent(&p, &inputs, 1 << 20).unwrap();
        assert!(s.cycles < 4 * s.time + 8, "huge p pays ~T: {s:?}");
    }

    #[test]
    fn ratio_bounded_across_p_sweep() {
        let p = demo();
        let n = 4096u64;
        let inputs = vec![(0..n).collect(), (0..n).collect()];
        for procs in [1u64, 2, 4, 16, 64, 256, 1024] {
            let s = run_brent(&p, &inputs, procs).unwrap();
            assert!(
                s.ratio() < 4.0,
                "cycles = O(T + W/p) violated at p={procs}: {}",
                s.ratio()
            );
        }
    }

    #[test]
    fn speedup_is_monotone() {
        let p = demo();
        let n = 1 << 14;
        let inputs = vec![(0..n).collect(), (0..n).collect()];
        let c1 = run_brent(&p, &inputs, 1).unwrap().cycles;
        let c16 = run_brent(&p, &inputs, 16).unwrap().cycles;
        let c256 = run_brent(&p, &inputs, 256).unwrap().cycles;
        assert!(c1 > c16 && c16 > c256);
        // near-linear speedup while W/p dominates
        let speedup = c1 as f64 / c16 as f64;
        assert!(speedup > 8.0, "speedup at p=16 was {speedup:.1}");
    }

    /// `T + W/p ≤ cycles ≤ 3·(T + W/p)`, in exact integer arithmetic.
    fn assert_brent_window(prog: &Program, inputs: &[Vector]) {
        for procs in [1u64, 16, 1 << 16] {
            let s = run_brent(prog, inputs, procs).unwrap();
            let scaled = |x: u64| x as u128 * procs as u128;
            let bound = scaled(s.time) + s.work as u128;
            assert!(scaled(s.cycles) >= bound, "cycles below T + W/p: {s:?}");
            assert!(
                scaled(s.cycles) <= 3 * bound,
                "cycles above 3(T + W/p): {s:?}"
            );
        }
    }

    #[test]
    fn select_loops_stay_in_the_brent_window() {
        // Drops one element per trip: `v0 <- select(enumerate(v0))`.
        let mut b = Builder::new(1, 1);
        b.label("loop")
            .if_empty_goto(0, "done")
            .push(Enumerate { dst: 1, src: 0 })
            .push(Select { dst: 0, src: 1 })
            .goto("loop")
            .label("done")
            .push(Halt);
        let drop_one = b.build().unwrap();
        let s = run_brent(&drop_one, &[vec![7; 5]], 1).unwrap();
        assert_eq!((s.time, s.work), (22, 70));
        assert_brent_window(&drop_one, &[vec![7; 5]]);

        // Halves per trip: keep the odd indices, `select(i mod 2)`.
        let mut b = Builder::new(1, 1);
        b.label("loop")
            .if_empty_goto(0, "done")
            .push(Enumerate { dst: 1, src: 0 })
            .push(Arith {
                dst: 2,
                op: Op::Eq,
                a: 1,
                b: 1,
            })
            .push(Arith {
                dst: 2,
                op: Op::Add,
                a: 2,
                b: 2,
            })
            .push(Arith {
                dst: 1,
                op: Op::Mod,
                a: 1,
                b: 2,
            })
            .push(Select { dst: 0, src: 1 })
            .goto("loop")
            .label("done")
            .push(Halt);
        let halving = b.build().unwrap();
        assert_brent_window(&halving, &[vec![1; 4096]]);
    }

    #[test]
    fn replicating_sbm_route_stays_in_the_brent_window() {
        // 50 one-element segments, each replicated 100 times.
        let mut b = Builder::new(4, 1);
        b.push(SbmRoute {
            dst: 0,
            bound: 0,
            counts: 1,
            data: 2,
            segs: 3,
        })
        .push(Halt);
        let prog = b.build().unwrap();
        let inputs = vec![vec![0; 5000], vec![100; 50], (0..50).collect(), vec![1; 50]];
        let s = run_brent(&prog, &inputs, 1).unwrap();
        assert_eq!(s.work, 5000 + 50 + 50 + 50 + 5000);
        assert_brent_window(&prog, &inputs);
    }
}
