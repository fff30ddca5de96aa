//! Deterministic generation of random BVRAM programs — straight-line, or
//! a straight-line body in a data-driven loop — for differential testing
//! (sequential vs parallel backend, optimized vs unoptimized).
//!
//! The decoder turns a slice of random words into a `Halt`-terminated
//! straight-line program over [`FUZZ_REGS`] registers, tracking simulated
//! register lengths so that:
//!
//! * elementwise arithmetic gets equal-length operands (falling back to
//!   `a op a`), keeping runs from dying instantly — genuinely partial
//!   ops (`div`/`mod` by a data-dependent zero) still fault, which is the
//!   point: both executions must agree on the fault;
//! * routing instructions are usually emitted *valid by construction*
//!   (`counts = (a == a)` is a vector of ones, so `Σ counts = |bound|`),
//!   with one deliberately unconstrained variant whose validity depends
//!   on the data;
//! * `append` growth is capped so programs cannot blow up memory.

use crate::instr::{Instr, Op, Reg};
use crate::program::{Builder, Program};

/// Register-file size of generated programs.  The top register is
/// reserved as scratch for route setup.
pub const FUZZ_REGS: usize = 6;

/// Generated programs read this many input registers (`V0 ..`).
pub const FUZZ_INPUTS: usize = 3;

/// Upper bound on any simulated register length (append growth cap).
const CAP: usize = 1 << 15;

const TOTAL_OPS: [Op; 8] = [
    Op::Monus,
    Op::Rshift,
    Op::Min,
    Op::Max,
    Op::Log2,
    Op::Eq,
    Op::Le,
    Op::Lt,
];
const PARTIAL_OPS: [Op; 5] = [Op::Add, Op::Mul, Op::Div, Op::Mod, Op::Lshift];

/// Decodes random `words` into a straight-line program with `r_out`
/// output registers (`r_out <= FUZZ_REGS`); `input_lens` are the lengths
/// of the three input vectors the caller will supply.
pub fn decode_program(words: &[u64], input_lens: [usize; FUZZ_INPUTS], r_out: usize) -> Program {
    assert!(r_out <= FUZZ_REGS);
    let scratch: Reg = (FUZZ_REGS - 1) as Reg;
    let mut b = Builder::new(FUZZ_INPUTS, r_out);
    // Simulated lengths: Some(exact) or None after data-dependent ops.
    let mut len: Vec<Option<usize>> = vec![Some(0); FUZZ_REGS];
    let mut ub: Vec<usize> = vec![0; FUZZ_REGS];
    for (i, l) in input_lens.iter().enumerate() {
        len[i] = Some(*l);
        ub[i] = *l;
    }
    for &w in words {
        let d = ((w >> 8) % scratch as u64) as Reg; // never clobber scratch
        let a = ((w >> 16) % FUZZ_REGS as u64) as Reg;
        let mut a2 = ((w >> 24) % FUZZ_REGS as u64) as Reg;
        let (ai, di) = (a as usize, d as usize);
        match w % 12 {
            0 => {
                b.push(Instr::Move { dst: d, src: a });
                len[di] = len[ai];
                ub[di] = ub[ai];
            }
            v @ (1 | 2) => {
                // Elementwise arithmetic wants equal lengths; when the
                // tracked lengths differ or are unknown, use `a op a`.
                match (len[ai], len[a2 as usize]) {
                    (Some(x), Some(y)) if x == y => {}
                    _ => a2 = a,
                }
                let op = if v == 1 {
                    TOTAL_OPS[((w >> 32) % TOTAL_OPS.len() as u64) as usize]
                } else {
                    PARTIAL_OPS[((w >> 32) % PARTIAL_OPS.len() as u64) as usize]
                };
                b.push(Instr::Arith {
                    dst: d,
                    op,
                    a,
                    b: a2,
                });
                len[di] = len[ai];
                ub[di] = ub[ai];
            }
            3 => {
                if ub[ai] + ub[a2 as usize] > CAP {
                    b.push(Instr::Move { dst: d, src: a });
                    len[di] = len[ai];
                    ub[di] = ub[ai];
                } else {
                    b.push(Instr::Append { dst: d, a, b: a2 });
                    len[di] = match (len[ai], len[a2 as usize]) {
                        (Some(x), Some(y)) => Some(x + y),
                        _ => None,
                    };
                    ub[di] = ub[ai] + ub[a2 as usize];
                }
            }
            4 => {
                b.push(Instr::Length { dst: d, src: a });
                len[di] = Some(1);
                ub[di] = 1;
            }
            5 => {
                b.push(Instr::Enumerate { dst: d, src: a });
                len[di] = len[ai];
                ub[di] = ub[ai];
            }
            6 => {
                b.push(Instr::Select { dst: d, src: a });
                len[di] = None; // data-dependent
                ub[di] = ub[ai];
            }
            7 => {
                b.push(Instr::Singleton {
                    dst: d,
                    n: (w >> 32) % 1000,
                });
                len[di] = Some(1);
                ub[di] = 1;
            }
            8 => {
                b.push(Instr::Empty { dst: d });
                len[di] = Some(0);
                ub[di] = 0;
            }
            9 => {
                // Valid-by-construction bm_route: ones counts over `a`.
                b.push(Instr::Arith {
                    dst: scratch,
                    op: Op::Eq,
                    a,
                    b: a,
                });
                b.push(Instr::BmRoute {
                    dst: d,
                    bound: a,
                    counts: scratch,
                    values: a,
                });
                len[scratch as usize] = len[ai];
                ub[scratch as usize] = ub[ai];
                len[di] = len[ai];
                ub[di] = ub[ai];
            }
            10 => {
                // Valid-by-construction sbm_route: unit counts and segs.
                b.push(Instr::Arith {
                    dst: scratch,
                    op: Op::Eq,
                    a,
                    b: a,
                });
                b.push(Instr::SbmRoute {
                    dst: d,
                    bound: a,
                    counts: scratch,
                    data: a,
                    segs: scratch,
                });
                len[scratch as usize] = len[ai];
                ub[scratch as usize] = ub[ai];
                len[di] = len[ai];
                ub[di] = ub[ai];
            }
            _ => {
                // Unconstrained route: validity depends on the data, so
                // this exercises the invariant-fault paths; both backends
                // must agree on whether (and how) it faults.
                b.push(Instr::BmRoute {
                    dst: d,
                    bound: a,
                    counts: a2,
                    values: a2,
                });
                len[di] = len[ai];
                ub[di] = ub[ai];
            }
        }
    }
    b.push(Instr::Halt);
    b.build()
        .expect("fuzz programs are straight-line and label-free")
}

/// Decodes `words` like [`decode_program`], then runs that body once per
/// element of input `V2`: a loop counts register `FUZZ_REGS` down with
/// `enumerate`/`select` and exits through `if_empty_goto`, so control flow
/// and register lengths change from trip to trip.
pub fn decode_looping_program(
    words: &[u64],
    input_lens: [usize; FUZZ_INPUTS],
    r_out: usize,
) -> Program {
    let body = decode_program(words, input_lens, r_out);
    let (count, tmp) = (FUZZ_REGS as Reg, FUZZ_REGS as Reg + 1);
    let mut b = Builder::new(FUZZ_INPUTS, r_out);
    b.push(Instr::Enumerate { dst: count, src: 2 })
        .label("loop")
        .if_empty_goto(count, "done");
    for ins in &body.instrs[..body.instrs.len() - 1] {
        b.push(ins.clone());
    }
    b.push(Instr::Enumerate {
        dst: tmp,
        src: count,
    })
    .push(Instr::Select {
        dst: count,
        src: tmp,
    })
    .goto("loop")
    .label("done")
    .push(Instr::Halt);
    b.build().expect("fuzz loops have one defined label pair")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoder_is_deterministic_and_terminated() {
        let words: Vec<u64> = (0..64u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let p1 = decode_program(&words, [7, 3, 0], FUZZ_REGS);
        let p2 = decode_program(&words, [7, 3, 0], FUZZ_REGS);
        assert_eq!(p1.instrs, p2.instrs);
        assert!(matches!(p1.instrs.last(), Some(Instr::Halt)));
        assert!(p1.n_regs >= FUZZ_REGS);
    }

    #[test]
    fn generated_programs_often_run_to_completion() {
        let mut ok = 0;
        for seed in 0..20u64 {
            let words: Vec<u64> = (0..30u64)
                .map(|i| {
                    (seed + 1)
                        .wrapping_mul(i.wrapping_add(3))
                        .wrapping_mul(0x2545_f491_4f6c_dd1d)
                })
                .collect();
            let p = decode_program(&words, [5, 2, 1], FUZZ_REGS);
            let inputs = vec![vec![1; 5], vec![0, 3], vec![9]];
            if crate::exec::run_program(&p, &inputs).is_ok() {
                ok += 1;
            }
        }
        assert!(ok >= 10, "only {ok}/20 generated programs ran cleanly");
    }

    #[test]
    fn looping_programs_often_complete_several_trips() {
        let mut ok = 0;
        for seed in 0..20u64 {
            let words: Vec<u64> = (0..30u64)
                .map(|i| {
                    (seed + 1)
                        .wrapping_mul(i.wrapping_add(3))
                        .wrapping_mul(0x2545_f491_4f6c_dd1d)
                })
                .collect();
            let body = decode_program(&words, [5, 2, 3], FUZZ_REGS);
            let looping = decode_looping_program(&words, [5, 2, 3], FUZZ_REGS);
            let inputs = vec![vec![1; 5], vec![0, 3], vec![9; 3]];
            if let Ok(out) = crate::exec::run_program(&looping, &inputs) {
                // Three trips of the body plus the loop's own steps.
                let trip = body.instrs.len() as u64 - 1 + 4;
                assert_eq!(out.stats.time, 1 + 3 * trip + 2);
                ok += 1;
            }
        }
        assert!(ok >= 10, "only {ok}/20 looping programs ran cleanly");
    }
}
