//! Property: consuming `int3` runs with `Decoder::skip_int3_run` is
//! invisible to a caller that ignores `int3`. Over random byte streams
//! with padding runs and random instruction limits, draining with skips
//! gives the same `decoded()`, the same `hit_limit()` and the same
//! non-`int3` instructions as plain iteration.

use apistudy_x86::{Decoded, Decoder};
use proptest::prelude::*;

const BASE: u64 = 0x40_1000;

/// When the decoder skips `int3` runs.
#[derive(Clone, Copy)]
enum Skip {
    Never,
    /// After each `int3` it yields, as the analyzer does.
    AfterInt3,
    /// Before every instruction: any boundary is a valid place to skip.
    Always,
}

fn drain(bytes: &[u8], limit: u64, skip: Skip) -> (Vec<Decoded>, u64, bool) {
    let mut d = Decoder::with_insn_limit(bytes, BASE, limit);
    let mut kept = Vec::new();
    loop {
        if matches!(skip, Skip::Always) {
            d.skip_int3_run();
        }
        let Some(insn) = d.next() else { break };
        if bytes[(insn.addr - BASE) as usize] == 0xcc {
            assert_eq!(insn.len, 1, "int3 decodes alone");
            if matches!(skip, Skip::AfterInt3) {
                d.skip_int3_run();
            }
        } else {
            kept.push(insn);
        }
    }
    (kept, d.decoded(), d.hit_limit())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn skipping_int3_runs_matches_plain_iteration(
        segments in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..16), 0usize..48),
            0..24,
        ),
        limit in 0u64..400,
    ) {
        let mut bytes = Vec::new();
        for (code, run) in &segments {
            bytes.extend_from_slice(code);
            bytes.extend(std::iter::repeat_n(0xcc, *run));
        }
        let plain = drain(&bytes, limit, Skip::Never);
        let unbounded = drain(&bytes, u64::MAX, Skip::Never);
        prop_assert_eq!(&drain(&bytes, limit, Skip::AfterInt3), &plain);
        prop_assert_eq!(&drain(&bytes, limit, Skip::Always), &plain);
        prop_assert_eq!(&drain(&bytes, u64::MAX, Skip::AfterInt3), &unbounded);
        prop_assert_eq!(&drain(&bytes, u64::MAX, Skip::Always), &unbounded);
    }
}
