//! Property tests for the execution substrate's core guarantee: parallel
//! output always equals sequential output, element for element, under any
//! chunk size and worker count.

use nbhd_exec::{par_map_chunked, Parallelism, ScopedPool};
use proptest::prelude::*;

proptest! {
    #[test]
    fn chunked_output_order_matches_input_order(
        items in prop::collection::vec(any::<u64>(), 0..300),
        workers in 1usize..9,
        chunk in 1usize..64,
    ) {
        let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(31).rotate_left(7)).collect();
        let got = par_map_chunked(workers, chunk, &items, |_, &x| x.wrapping_mul(31).rotate_left(7));
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn pool_map_is_worker_count_invariant(
        items in prop::collection::vec(any::<i32>(), 0..200),
        workers in 1usize..9,
    ) {
        let f = |&x: &i32| i64::from(x) * 1_000 + i64::from(x.rotate_left(5));
        let serial = ScopedPool::new(Parallelism::serial()).map(&items, f);
        let parallel = ScopedPool::new(Parallelism::fixed(workers)).map(&items, f);
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn per_item_seeds_are_index_stable(
        seed in any::<u64>(),
        index in 0u64..10_000,
    ) {
        prop_assert_eq!(nbhd_exec::child_seed(seed, index), nbhd_exec::child_seed(seed, index));
        prop_assert_ne!(nbhd_exec::child_seed(seed, index), nbhd_exec::child_seed(seed, index + 1));
    }
}
