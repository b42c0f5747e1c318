//! Property tests: `ShardedHashIndex` must return results identical to the
//! flat `HashTableIndex` under *arbitrary* interleavings of inserts, k-NN
//! and radius queries — the generated-workload extension of the fixed-seed
//! determinism tests.

use eq_hashindex::{BinaryCode, HammingIndex, HashTableIndex, ShardedHashIndex};
use proptest::prelude::*;

const BITS: u32 = 64;

/// Deterministic SplitMix64-style code expansion; low-entropy seeds create
/// bucket collisions so tie-breaking by id is exercised.
fn code_from_seed(seed: u64) -> BinaryCode {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let words: Vec<u64> = (0..BITS.div_ceil(64)).map(|_| next()).collect();
    BinaryCode::from_words(BITS, words)
}

/// One workload step: `kind` selects insert / k-NN / radius search, `seed`
/// drives the code (masked to a small space so queries hit real data), and
/// `param` is k or the radius.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, u8)>> {
    proptest::collection::vec((0u8..4, 0u64..48, 0u8..24), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flat and sharded indexes agree on every query of every generated
    /// interleaving, for every shard count.
    #[test]
    fn sharded_equals_flat_under_arbitrary_interleavings(
        ops in arb_ops(),
        shards in 1usize..7,
    ) {
        let sharded = ShardedHashIndex::new(BITS, shards);
        let mut flat = HashTableIndex::new(BITS);
        let mut next_id: u64 = 0;
        for (step, (kind, seed, param)) in ops.iter().enumerate() {
            match kind % 2 {
                // Bias half of all steps to inserts so queries see data.
                0 => {
                    let code = code_from_seed(*seed);
                    sharded.insert(next_id, code.clone());
                    flat.insert(next_id, code);
                    next_id += 1;
                }
                _ if kind % 4 == 1 => {
                    let query = code_from_seed(*seed);
                    let k = *param as usize;
                    let (got, want) = (sharded.knn(&query, k), flat.knn(&query, k));
                    prop_assert!(got == want, "knn(k={}) diverged at step {}", k, step);
                }
                _ => {
                    let query = code_from_seed(*seed);
                    let radius = u32::from(*param);
                    let got = sharded.radius_search(&query, radius);
                    let want = flat.radius_search(&query, radius);
                    prop_assert!(got == want, "radius={} diverged at step {}", radius, step);
                }
            }
        }
        prop_assert_eq!(sharded.len(), flat.len());
    }
}
