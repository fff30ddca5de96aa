//! `run_observed` reports exactly the machine's own accounting: on every
//! successful run of a fuzz program — straight-line or looping, on both
//! backends — the observer fires once per executed instruction
//! (`stats.time` times) and the work it is handed sums to `stats.work`.
//! Observing a run changes neither its outputs nor its faults.

use bvram::fuzz::{decode_looping_program, decode_program, FUZZ_REGS};
use bvram::par::GRAIN;
use bvram::{Engine, Program, Vector};
use proptest::prelude::*;

fn check_backend<const PAR: bool>(prog: &Program, inputs: &[Vector]) -> Result<(), TestCaseError> {
    let (mut fired, mut work) = (0u64, 0u64);
    let observed = Engine::<PAR>::new(prog.n_regs).run_observed(prog, inputs, |_, w| {
        fired += 1;
        work += w;
    });
    let plain = Engine::<PAR>::new(prog.n_regs).run(prog, inputs);
    match (observed, plain) {
        (Ok(o), Ok(p)) => {
            prop_assert_eq!(&o.outputs, &p.outputs, "outputs diverge\n{}", prog);
            prop_assert_eq!(o.stats, p.stats, "stats diverge\n{}", prog);
            prop_assert_eq!(fired, o.stats.time, "observer calls != T\n{}", prog);
            prop_assert_eq!(work, o.stats.work, "observed work != W\n{}", prog);
        }
        (Err(o), Err(p)) => prop_assert_eq!(o, p, "faults diverge\n{}", prog),
        (o, p) => prop_assert!(
            false,
            "observing changed the run: {:?} vs {:?}\n{}",
            o,
            p,
            prog
        ),
    }
    Ok(())
}

fn check(words: &[u64], inputs: Vec<Vector>) -> Result<(), TestCaseError> {
    // Opcode 11 is the fuzzer's unconstrained `bm_route`, which faults
    // on most data; turning it into opcode 10 (a valid `sbm_route`) lets
    // most runs complete, and only completed runs carry stats to check.
    let words: Vec<u64> = words
        .iter()
        .map(|w| if w % 12 == 11 { w - 1 } else { *w })
        .collect();
    let words = &words[..];
    let lens = [inputs[0].len(), inputs[1].len(), inputs[2].len()];
    for prog in [
        decode_program(words, lens, FUZZ_REGS),
        decode_looping_program(words, lens, FUZZ_REGS),
    ] {
        check_backend::<false>(&prog, &inputs)?;
        check_backend::<true>(&prog, &inputs)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small registers; the third input's length is the loop trip count.
    #[test]
    fn observer_matches_stats_small(
        words in proptest::collection::vec(0u64..u64::MAX, 1..40),
        a in proptest::collection::vec(0u64..9, 0..12),
        b in proptest::collection::vec(0u64..9, 0..12),
        trips in proptest::collection::vec(0u64..3, 0..5),
    ) {
        check(&words, vec![a, b, trips])?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The first input straddles GRAIN, so `ParMachine` takes its
    /// parallel route expansions on some steps.
    #[test]
    fn observer_matches_stats_around_grain(
        words in proptest::collection::vec(0u64..u64::MAX, 1..30),
        big in proptest::collection::vec(0u64..50, (GRAIN - 60)..(GRAIN + 120)),
        med in proptest::collection::vec(0u64..50, 0..600),
        trips in proptest::collection::vec(0u64..3, 0..3),
    ) {
        check(&words, vec![big, med, trips])?;
    }
}
