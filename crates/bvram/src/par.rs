//! The parallel half of [`crate::exec::ParMachine`].
//!
//! `ParMachine` runs the one BVRAM instruction loop in `exec`; the only
//! steps it executes differently are the `bm_route`/`sbm_route`
//! expansions, which this module splits over worker threads (rayon
//! `par_chunks_mut`) once the output reaches [`GRAIN`] elements.  Results
//! and faults are bit-for-bit those of the sequential
//! [`crate::exec::Machine`].

use crate::exec::{bm_route_into, sbm_route_into, validate_bm, validate_sbm, Vector};
use rayon::prelude::*;

/// Below this output length a route expands sequentially (avoids thread
/// overhead dominating small vectors).
pub const GRAIN: usize = 4096;

/// `bm_route` into `out` (cleared first), expanded in parallel once the
/// output reaches [`GRAIN`] elements: exclusive prefix offsets, then each
/// output chunk fills its slots independently.  Faults match
/// [`bm_route_into`].
pub(crate) fn bm_route_par(
    out: &mut Vector,
    bound_len: usize,
    counts: &[u64],
    values: &[u64],
) -> Result<(), &'static str> {
    if bound_len < GRAIN {
        return bm_route_into(out, bound_len, counts, values);
    }
    validate_bm(bound_len, counts, values)?;
    let mut offs = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u64;
    offs.push(0);
    for c in counts {
        acc += c;
        offs.push(acc);
    }
    out.clear();
    out.resize(bound_len, 0);
    out.par_chunks_mut(GRAIN)
        .enumerate()
        .for_each(|(chunk_idx, chunk)| {
            let base = (chunk_idx * GRAIN) as u64;
            // Locate the source for the first slot by binary search, then
            // walk forward.
            let mut src = offs.partition_point(|o| *o <= base).saturating_sub(1);
            for (i, slot) in chunk.iter_mut().enumerate() {
                let pos = base + i as u64;
                while offs[src + 1] <= pos {
                    src += 1;
                }
                *slot = values[src];
            }
        });
    Ok(())
}

/// `sbm_route` into `out` (cleared first), with the same prefix-offset,
/// chunk-fill expansion once the output reaches [`GRAIN`] elements.
/// Faults match [`sbm_route_into`].
pub(crate) fn sbm_route_par(
    out: &mut Vector,
    bound_len: usize,
    counts: &[u64],
    data: &[u64],
    segs: &[u64],
) -> Result<(), &'static str> {
    // Saturating: the operands are not validated yet, and either path
    // validates before writing, so a bogus size only picks the path.
    let out_len = counts
        .iter()
        .zip(segs)
        .fold(0u64, |acc, (c, s)| acc.saturating_add(c.saturating_mul(*s)));
    if out_len < GRAIN as u64 {
        return sbm_route_into(out, bound_len, counts, data, segs);
    }
    validate_sbm(bound_len, counts, data, segs)?;
    // Exclusive prefix offsets into the output and into the data.
    let mut out_offs = Vec::with_capacity(counts.len() + 1);
    let mut data_offs = Vec::with_capacity(counts.len() + 1);
    let (mut oacc, mut dacc) = (0u64, 0u64);
    out_offs.push(0);
    data_offs.push(0);
    for (c, s) in counts.iter().zip(segs) {
        oacc += c * s;
        dacc += s;
        out_offs.push(oacc);
        data_offs.push(dacc);
    }
    out.clear();
    out.resize(oacc as usize, 0);
    out.par_chunks_mut(GRAIN)
        .enumerate()
        .for_each(|(chunk_idx, chunk)| {
            let base = (chunk_idx * GRAIN) as u64;
            // Locate the source segment for the first slot by binary
            // search, then walk forward.
            let mut seg = out_offs.partition_point(|o| *o <= base).saturating_sub(1);
            for (i, slot) in chunk.iter_mut().enumerate() {
                let pos = base + i as u64;
                while out_offs[seg + 1] <= pos {
                    seg += 1;
                }
                let rel = pos - out_offs[seg];
                *slot = data[(data_offs[seg] + rel % segs[seg]) as usize];
            }
        });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{MachineError, ParMachine};
    use crate::instr::{Instr::*, Op};
    use crate::program::{Builder, Program};

    fn demo_program() -> Program {
        let mut b = Builder::new(2, 1);
        b.push(Arith {
            dst: 2,
            op: Op::Mul,
            a: 0,
            b: 1,
        })
        .push(Enumerate { dst: 3, src: 2 })
        .push(Arith {
            dst: 0,
            op: Op::Add,
            a: 2,
            b: 3,
        })
        .push(Halt);
        b.build().unwrap()
    }

    #[test]
    fn par_matches_sequential_small() {
        let p = demo_program();
        let inputs = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]];
        let seq = crate::exec::run_program(&p, &inputs).unwrap();
        let par = ParMachine::new(p.n_regs).run(&p, &inputs).unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.stats, par.stats);
    }

    #[test]
    fn par_matches_sequential_large() {
        let p = demo_program();
        let n = 3 * GRAIN + 17;
        let a: Vec<u64> = (0..n as u64).collect();
        let b: Vec<u64> = (0..n as u64).map(|x| x % 97).collect();
        let inputs = vec![a, b];
        let seq = crate::exec::run_program(&p, &inputs).unwrap();
        let par = ParMachine::new(p.n_regs).run(&p, &inputs).unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.stats, par.stats);
    }

    #[test]
    fn par_bm_route_matches_sequential() {
        let mut b = Builder::new(3, 1);
        b.push(BmRoute {
            dst: 0,
            bound: 0,
            counts: 1,
            values: 2,
        })
        .push(Halt);
        let p = b.build().unwrap();
        // large: n values each replicated twice
        let n = 2 * GRAIN as u64;
        let counts: Vec<u64> = (0..n).map(|_| 2).collect();
        let values: Vec<u64> = (0..n).collect();
        let bound: Vec<u64> = vec![0; 2 * n as usize];
        let inputs = vec![bound, counts, values];
        let seq = crate::exec::run_program(&p, &inputs).unwrap();
        let par = ParMachine::new(p.n_regs).run(&p, &inputs).unwrap();
        assert_eq!(seq.outputs, par.outputs);
    }

    #[test]
    fn par_bm_route_uneven_counts() {
        let mut bld = Builder::new(3, 1);
        bld.push(BmRoute {
            dst: 0,
            bound: 0,
            counts: 1,
            values: 2,
        })
        .push(Halt);
        let p = bld.build().unwrap();
        // Uneven counts incl. zeros, crossing the GRAIN boundary.
        let counts: Vec<u64> = (0..3000u64).map(|i| i % 5).collect();
        let total: u64 = counts.iter().sum();
        let values: Vec<u64> = (0..3000u64).map(|i| i * 7).collect();
        let inputs = vec![vec![0; total as usize], counts, values];
        let seq = crate::exec::run_program(&p, &inputs).unwrap();
        let par = ParMachine::new(p.n_regs).run(&p, &inputs).unwrap();
        assert_eq!(seq.outputs, par.outputs);
    }

    #[test]
    fn par_step_limit_boundary_is_inclusive_of_final_halt() {
        let mut b = Builder::new(0, 1);
        b.push(Singleton { dst: 0, n: 7 }).push(Halt);
        let p = b.build().unwrap();
        let out = ParMachine::new(p.n_regs)
            .with_step_limit(2)
            .run(&p, &[])
            .unwrap();
        assert_eq!(out.stats.time, 2);
        let err = ParMachine::new(p.n_regs)
            .with_step_limit(1)
            .run(&p, &[])
            .unwrap_err();
        assert_eq!(err, MachineError::StepLimit);
    }

    fn sbm_prog() -> Program {
        let mut b = Builder::new(4, 1);
        b.push(SbmRoute {
            dst: 0,
            bound: 0,
            counts: 1,
            data: 2,
            segs: 3,
        })
        .push(Halt);
        b.build().unwrap()
    }

    #[test]
    fn par_sbm_route_matches_sequential_large() {
        let p = sbm_prog();
        // 1000 segments of 3 elements, each replicated twice: out 6000 > GRAIN.
        let k = 1000u64;
        let counts = vec![2u64; k as usize];
        let segs = vec![3u64; k as usize];
        let data: Vec<u64> = (0..3 * k).collect();
        let bound = vec![0u64; 2 * k as usize];
        let inputs = vec![bound, counts, data, segs];
        let seq = crate::exec::run_program(&p, &inputs).unwrap();
        let par = ParMachine::new(p.n_regs).run(&p, &inputs).unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.stats, par.stats);
    }

    #[test]
    fn par_sbm_route_uneven_segments_and_zero_counts() {
        let p = sbm_prog();
        let k = 3000u64;
        let counts: Vec<u64> = (0..k).map(|i| i % 3).collect();
        let segs: Vec<u64> = (0..k).map(|i| (i * 7) % 5).collect();
        let total_c: u64 = counts.iter().sum();
        let total_s: u64 = segs.iter().sum();
        let data: Vec<u64> = (0..total_s).map(|i| i * 13).collect();
        let bound = vec![0u64; total_c as usize];
        let inputs = vec![bound, counts, data, segs];
        let seq = crate::exec::run_program(&p, &inputs).unwrap();
        let par = ParMachine::new(p.n_regs).run(&p, &inputs).unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.stats, par.stats);
    }

    #[test]
    fn par_sbm_route_invariant_faults_match_sequential() {
        let p = sbm_prog();
        // sum(segs) != |data|
        let inputs = vec![vec![0; 2], vec![2], vec![1, 2, 3], vec![2]];
        let seq = crate::exec::run_program(&p, &inputs).unwrap_err();
        let par = ParMachine::new(p.n_regs).run(&p, &inputs).unwrap_err();
        assert_eq!(seq, par);
        assert!(matches!(seq, MachineError::RouteInvariant { .. }));
    }

    #[test]
    fn arithmetic_error_surfaces_in_parallel_path() {
        let mut b = Builder::new(2, 1);
        b.push(Arith {
            dst: 0,
            op: Op::Div,
            a: 0,
            b: 1,
        })
        .push(Halt);
        let p = b.build().unwrap();
        let n = GRAIN + 5;
        let a = vec![1u64; n];
        let mut bb = vec![1u64; n];
        bb[n - 1] = 0; // one divide-by-zero deep in the vector
        let err = ParMachine::new(p.n_regs).run(&p, &[a, bb]).unwrap_err();
        assert!(matches!(err, MachineError::Arithmetic { .. }));
    }
}
