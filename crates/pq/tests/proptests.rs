//! Property-based tests for the sequential priority queues.
//!
//! Every implementation is model-checked against `std::collections::BinaryHeap`
//! (wrapped as a min-heap) over arbitrary operation sequences, and the
//! scheduler-facing extras (`split_half`, `append`) are checked for
//! multiset preservation and invariant maintenance. The `owning` module
//! replays the same tapes over an element that owns memory and counts its
//! live instances — with and without a comparator that panics mid-sift —
//! because `DaryHeap`'s sifts move elements through raw pointers, and
//! `RadixHeap` moves them between its buckets and its `DaryHeap`.

use priosched_pq::{BinaryHeap, PairingHeap, RadixHeap, RadixKey, SequentialPriorityQueue};
use proptest::prelude::*;
use std::cmp::Reverse;

#[derive(Clone, Debug)]
enum Op {
    Push(i32),
    Pop,
    SplitHalf,
    AppendBatch(Vec<i32>),
    ExtendBatch(Vec<i32>),
    Clear,
}

/// What the op tapes store: built from the tape's `i32`, ordered by it.
trait Elem: Ord + From<i32> {
    fn key(&self) -> i32;
}

impl Elem for i32 {
    fn key(&self) -> i32 {
        *self
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => any::<i32>().prop_map(Op::Push),
        3 => Just(Op::Pop),
        1 => Just(Op::SplitHalf),
        1 => proptest::collection::vec(any::<i32>(), 0..8).prop_map(Op::AppendBatch),
        2 => proptest::collection::vec(any::<i32>(), 0..40).prop_map(Op::ExtendBatch),
        // About one op in a hundred: a tape that keeps clearing its heap
        // never builds one deep enough to be worth sifting.
        1 => (0u32..8).prop_map(|x| if x == 0 { Op::Clear } else { Op::Pop }),
    ]
}

/// Reference model: a sorted multiset via std's max-heap of Reverse.
#[derive(Default)]
struct Model {
    heap: std::collections::BinaryHeap<Reverse<i32>>,
}

impl Model {
    fn push(&mut self, x: i32) {
        self.heap.push(Reverse(x));
    }
    fn pop(&mut self) -> Option<i32> {
        self.heap.pop().map(|r| r.0)
    }
    fn sorted(&self) -> Vec<i32> {
        let mut v: Vec<i32> = self.heap.iter().map(|r| r.0).collect();
        v.sort();
        v
    }
}

/// Applies one op to the queue and the model, checking what the op itself
/// promises (pop value, split sizes).
fn apply_op<E: Elem, Q: SequentialPriorityQueue<E>>(q: &mut Q, model: &mut Model, op: &Op) {
    match op {
        Op::Push(x) => {
            q.push(E::from(*x));
            model.push(*x);
        }
        Op::Pop => {
            assert_eq!(q.pop().map(|e| e.key()), model.pop());
        }
        Op::SplitHalf => {
            let mut stolen = q.split_half();
            // Steal-half is a structural operation with no model analog;
            // check the size contract and put everything back.
            let total = q.len() + stolen.len();
            assert_eq!(total, model.heap.len());
            assert!(stolen.len() >= q.len());
            assert!(stolen.len() - q.len() <= 1);
            q.append(&mut stolen);
            assert!(stolen.is_empty());
        }
        Op::AppendBatch(batch) => {
            let mut other = Q::new();
            for &x in batch {
                other.push(E::from(x));
                model.push(x);
            }
            q.append(&mut other);
        }
        Op::ExtendBatch(batch) => {
            q.extend_batch(batch.iter().map(|&x| E::from(x)));
            for &x in batch {
                model.push(x);
            }
        }
        Op::Clear => {
            q.clear();
            model.heap.clear();
        }
    }
}

/// Replays a tape against the model, checking length and minimum after
/// every op; returns the queue and the model as the tape left them.
fn apply_ops<E: Elem, Q: SequentialPriorityQueue<E>>(ops: &[Op]) -> (Q, Model) {
    let mut q = Q::new();
    let mut model = Model::default();
    for op in ops {
        apply_op(&mut q, &mut model, op);
        assert_eq!(q.len(), model.heap.len());
        assert_eq!(q.peek().map(|e| e.key()), model.sorted().first().copied());
    }
    (q, model)
}

fn run_ops<E: Elem, Q: SequentialPriorityQueue<E>>(ops: &[Op]) {
    let (mut q, mut model) = apply_ops::<E, Q>(ops);
    // Drain both and compare the full pop order.
    let mut q_out = Vec::new();
    while let Some(x) = q.pop() {
        q_out.push(x.key());
    }
    let mut m_out = Vec::new();
    while let Some(x) = model.pop() {
        m_out.push(x);
    }
    assert_eq!(q_out, m_out);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn binary_heap_matches_model(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        run_ops::<i32, BinaryHeap<i32>>(&ops);
    }

    #[test]
    fn pairing_heap_matches_model(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        run_ops::<i32, PairingHeap<i32>>(&ops);
    }

    #[test]
    fn radix_heap_matches_model(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        run_ops::<i32, RadixHeap<i32>>(&ops);
    }

    #[test]
    fn binary_heap_invariant_holds(items in proptest::collection::vec(any::<i32>(), 0..200)) {
        let mut h = BinaryHeap::new();
        for x in &items {
            h.push(*x);
            prop_assert!(h.is_valid_heap());
        }
        let mut prev = None;
        while let Some(x) = h.pop() {
            if let Some(p) = prev {
                prop_assert!(p <= x);
            }
            prev = Some(x);
            prop_assert!(h.is_valid_heap());
        }
    }

    #[test]
    fn split_half_preserves_multiset(items in proptest::collection::vec(any::<i32>(), 0..200)) {
        let mut h: BinaryHeap<i32> = items.iter().copied().collect();
        let mut stolen = h.split_half();
        let mut all = h.drain_unordered();
        all.extend(stolen.drain_unordered());
        all.sort();
        let mut expect = items.clone();
        expect.sort();
        prop_assert_eq!(all, expect);
    }

    #[test]
    fn pairing_split_half_preserves_multiset(items in proptest::collection::vec(any::<i32>(), 0..200)) {
        let mut h: PairingHeap<i32> = items.iter().copied().collect();
        let mut stolen = h.split_half();
        let mut all = h.drain_unordered();
        all.extend(stolen.drain_unordered());
        all.sort();
        let mut expect = items.clone();
        expect.sort();
        prop_assert_eq!(all, expect);
    }

    #[test]
    fn heaps_agree_with_each_other(items in proptest::collection::vec(any::<i32>(), 0..200)) {
        let mut a: BinaryHeap<i32> = items.iter().copied().collect();
        let mut b: PairingHeap<i32> = items.iter().copied().collect();
        loop {
            let (x, y) = (a.pop(), b.pop());
            prop_assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }
}

mod batch {
    use super::*;
    use priosched_pq::DaryHeap;

    fn batch_equals_scalar<Q: SequentialPriorityQueue<i32>>(
        init: &[i32],
        batch: &[i32],
    ) -> Result<(), TestCaseError> {
        let mut batched = Q::new();
        let mut scalar = Q::new();
        for &x in init {
            batched.push(x);
            scalar.push(x);
        }
        batched.extend_batch(batch.iter().copied());
        for &x in batch {
            scalar.push(x);
        }
        prop_assert_eq!(batched.len(), scalar.len());
        prop_assert_eq!(batched.peek().copied(), scalar.peek().copied());
        loop {
            let (a, b) = (batched.pop(), scalar.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// `extend_batch` followed by a full drain is indistinguishable
        /// from the same elements pushed one at a time, in every
        /// sequential queue implementation.
        #[test]
        fn extend_batch_equals_scalar_pushes(
            init in proptest::collection::vec(any::<i32>(), 0..120),
            batch in proptest::collection::vec(any::<i32>(), 0..120),
        ) {
            batch_equals_scalar::<BinaryHeap<i32>>(&init, &batch)?;
            batch_equals_scalar::<PairingHeap<i32>>(&init, &batch)?;
            batch_equals_scalar::<DaryHeap<i32, 4>>(&init, &batch)?;
            batch_equals_scalar::<DaryHeap<i32, 8>>(&init, &batch)?;
            batch_equals_scalar::<RadixHeap<i32>>(&init, &batch)?;
        }

        /// The structural invariant survives `extend_batch` at every batch
        /// size, including the heapify/sift-up crossover on both sides.
        #[test]
        fn extend_batch_preserves_invariants(
            init in proptest::collection::vec(any::<i32>(), 0..80),
            batch in proptest::collection::vec(any::<i32>(), 0..80),
        ) {
            let mut bin: BinaryHeap<i32> = init.iter().copied().collect();
            bin.extend_batch(batch.iter().copied());
            prop_assert!(bin.is_valid_heap());

            let mut dary: DaryHeap<i32, 4> = init.iter().copied().collect();
            dary.extend_batch(batch.iter().copied());
            prop_assert!(dary.is_valid_heap());

            let mut pairing: PairingHeap<i32> = init.iter().copied().collect();
            pairing.extend_batch(batch.iter().copied());
            prop_assert!(pairing.is_valid_heap());
            prop_assert_eq!(pairing.len(), init.len() + batch.len());
        }
    }
}

mod dary {
    use super::*;
    use priosched_pq::DaryHeap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn dary4_matches_model(ops in proptest::collection::vec(super::op_strategy(), 0..120)) {
            run_ops::<i32, DaryHeap<i32, 4>>(&ops);
        }

        #[test]
        fn dary8_matches_model(ops in proptest::collection::vec(super::op_strategy(), 0..120)) {
            run_ops::<i32, DaryHeap<i32, 8>>(&ops);
        }

        #[test]
        fn dary_invariant_holds(items in proptest::collection::vec(any::<i32>(), 0..200)) {
            let mut h: DaryHeap<i32, 4> = DaryHeap::new();
            for x in &items {
                h.push(*x);
                prop_assert!(h.is_valid_heap());
            }
            let mut prev = None;
            while let Some(x) = h.pop() {
                if let Some(p) = prev {
                    prop_assert!(p <= x);
                }
                prev = Some(x);
            }
        }

        /// Every prefix of the keys is a heap of its own, so each case
        /// covers lengths 0, 1 and 2..=D+1 (a root with a partial, then a
        /// full set of children) before the longer ones.
        #[test]
        fn peek_after_pop_is_the_top_a_pop_leaves(
            keys in proptest::collection::vec(0u8..8, 0..65),
        ) {
            for len in 0..=keys.len() {
                check_peek_after_pop::<2>(&keys[..len])?;
                check_peek_after_pop::<4>(&keys[..len])?;
                check_peek_after_pop::<8>(&keys[..len])?;
            }
        }
    }

    /// A key with the position it was pushed at, ordered by key alone:
    /// among equal keys the test sees *which* element is on top.
    #[derive(Clone, Debug)]
    struct Tagged {
        key: u8,
        id: usize,
    }

    impl PartialEq for Tagged {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl Eq for Tagged {}
    impl PartialOrd for Tagged {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Tagged {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    fn check_peek_after_pop<const D: usize>(keys: &[u8]) -> Result<(), TestCaseError> {
        let mut h: DaryHeap<Tagged, D> = DaryHeap::new();
        for (id, &key) in keys.iter().enumerate() {
            h.push(Tagged { key, id });
        }
        let mut popped = h.clone();
        popped.pop();
        let ahead = h.peek_after_pop().map(|t| (t.key, t.id));
        let after = popped.peek().map(|t| (t.key, t.id));
        prop_assert_eq!(ahead, after, "D = {}, keys {:?}", D, keys);
        Ok(())
    }
}

/// The op tapes over an element that owns heap memory, for `DaryHeap`'s
/// pointer-moving sifts and `RadixHeap`'s moves between its buckets and
/// its small end: a ledger of live instances catches a leak or a double
/// drop, and a fuse in the comparator makes the *n*-th comparison unwind
/// out of whatever sift or refill is running.
mod owning {
    use super::*;
    use priosched_pq::DaryHeap;
    use std::cell::{Cell, RefCell};
    use std::collections::BTreeSet;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    thread_local! {
        /// Ids of the `Tracked` values alive on this thread.
        static LIVE: RefCell<BTreeSet<u64>> = const { RefCell::new(BTreeSet::new()) };
        static NEXT_ID: Cell<u64> = const { Cell::new(0) };
        /// Drops of an id that was not live.
        static DOUBLE_DROPS: Cell<u64> = const { Cell::new(0) };
        /// Comparisons left before `Tracked::cmp` unwinds; `None` = never.
        static FUSE: Cell<Option<u64>> = const { Cell::new(None) };
    }

    struct Tracked {
        key: Box<i32>,
        id: u64,
    }

    impl From<i32> for Tracked {
        fn from(x: i32) -> Self {
            let id = NEXT_ID.with(|n| n.replace(n.get() + 1));
            LIVE.with(|l| l.borrow_mut().insert(id));
            Tracked {
                key: Box::new(x),
                id,
            }
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            if !LIVE.with(|l| l.borrow_mut().remove(&self.id)) {
                DOUBLE_DROPS.with(|d| d.set(d.get() + 1));
            }
        }
    }

    impl Elem for Tracked {
        fn key(&self) -> i32 {
            *self.key
        }
    }

    impl RadixKey for Tracked {
        fn radix_key(&self) -> u64 {
            self.key.radix_key()
        }
    }

    impl Ord for Tracked {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            if let Some(left) = FUSE.get() {
                if left == 0 {
                    FUSE.set(None);
                    // Unwinds like a panic, without the hook's stderr line.
                    resume_unwind(Box::new("fuse"));
                }
                FUSE.set(Some(left - 1));
            }
            self.key.cmp(&other.key)
        }
    }
    impl PartialOrd for Tracked {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl PartialEq for Tracked {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other).is_eq()
        }
    }
    impl Eq for Tracked {}

    fn live() -> BTreeSet<u64> {
        LIVE.with(|l| l.borrow().clone())
    }

    fn assert_ledger_settled() {
        assert_eq!(live(), BTreeSet::new(), "leaked elements");
        assert_eq!(DOUBLE_DROPS.get(), 0, "double-dropped elements");
    }

    /// The whole tape, then half the heap popped and the rest dropped
    /// with the heap: nothing may outlive it, nothing may drop twice.
    fn tape_leaves_nothing_behind<Q: SequentialPriorityQueue<Tracked>>(ops: &[Op]) {
        assert_ledger_settled();
        let (mut q, mut model) = apply_ops::<Tracked, Q>(ops);
        assert_eq!(live().len(), q.len());
        for _ in 0..q.len() / 2 {
            assert_eq!(q.pop().map(|e| e.key()), model.pop());
        }
        drop(q);
        assert_ledger_settled();
    }

    /// The tape with the `fuse`-th comparison unwinding: whatever op it
    /// interrupts, the heap afterwards holds exactly the elements that
    /// are still alive, each once (`Hole`'s `Drop` wrote the one in
    /// flight back), and dropping it settles the ledger.
    fn tape_survives_a_panicking_comparator<Q: SequentialPriorityQueue<Tracked>>(
        ops: &[Op],
        fuse: u64,
    ) {
        assert_ledger_settled();
        let mut q = Q::new();
        let mut model = Model::default();
        FUSE.set(Some(fuse));
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            for op in ops {
                apply_op(&mut q, &mut model, op);
            }
        }))
        .is_err();
        // A tape with fewer comparisons than the fuse runs to its end.
        assert_eq!(unwound, FUSE.take().is_none());
        let held = q.drain_unordered();
        let distinct: BTreeSet<u64> = held.iter().map(|e| e.id).collect();
        assert_eq!(
            distinct.len(),
            held.len(),
            "an element is in the heap twice"
        );
        assert_eq!(distinct, live());
        assert_eq!(DOUBLE_DROPS.get(), 0);
        drop(held);
        drop(q);
        assert_ledger_settled();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn owning_tapes_leak_and_double_drop_nothing(
            ops in proptest::collection::vec(op_strategy(), 0..120),
        ) {
            tape_leaves_nothing_behind::<DaryHeap<Tracked, 2>>(&ops);
            tape_leaves_nothing_behind::<DaryHeap<Tracked, 4>>(&ops);
            tape_leaves_nothing_behind::<DaryHeap<Tracked, 8>>(&ops);
            tape_leaves_nothing_behind::<RadixHeap<Tracked>>(&ops);
        }

        #[test]
        fn panicking_comparator_leaves_every_element_owned_once(
            ops in proptest::collection::vec(op_strategy(), 1..120),
            fuse in 0u64..600,
        ) {
            tape_survives_a_panicking_comparator::<DaryHeap<Tracked, 2>>(&ops, fuse);
            tape_survives_a_panicking_comparator::<DaryHeap<Tracked, 4>>(&ops, fuse);
            tape_survives_a_panicking_comparator::<DaryHeap<Tracked, 8>>(&ops, fuse);
            tape_survives_a_panicking_comparator::<RadixHeap<Tracked>>(&ops, fuse);
        }
    }
}

/// Over a strict total order the pop sequence is a function of the op
/// tape alone, not of the heap's arity or layout — what lets the pools
/// change arity without changing the order tasks are handed out in.
mod arity_independence {
    use super::*;
    use priosched_pq::DaryHeap;

    /// `(priority, unique sequence number)`: few priorities, so ties on
    /// the first component are everywhere, and no two keys are equal.
    type Key = (u8, u32);

    #[derive(Clone, Debug)]
    enum KeyOp {
        Push(u8),
        Pop,
        ExtendBatch(Vec<u8>),
    }

    fn key_op_strategy() -> impl Strategy<Value = KeyOp> {
        prop_oneof![
            4 => (0u8..6).prop_map(KeyOp::Push),
            3 => Just(KeyOp::Pop),
            2 => proptest::collection::vec(0u8..6, 0..40).prop_map(KeyOp::ExtendBatch),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn binary_quaternary_and_std_pop_identical_sequences(
            ops in proptest::collection::vec(key_op_strategy(), 0..200),
        ) {
            let mut two: DaryHeap<Key, 2> = DaryHeap::new();
            let mut four: DaryHeap<Key, 4> = DaryHeap::new();
            let mut std_heap = std::collections::BinaryHeap::new();
            let mut seq = 0u32;
            let mut fresh = |prio: u8| {
                seq += 1;
                (prio, seq)
            };
            for op in &ops {
                match op {
                    KeyOp::Push(prio) => {
                        let key = fresh(*prio);
                        two.push(key);
                        four.push(key);
                        std_heap.push(Reverse(key));
                    }
                    KeyOp::Pop => {
                        let expect = std_heap.pop().map(|r| r.0);
                        prop_assert_eq!(two.pop(), expect);
                        prop_assert_eq!(four.pop(), expect);
                    }
                    KeyOp::ExtendBatch(prios) => {
                        let keys: Vec<Key> = prios.iter().map(|&p| fresh(p)).collect();
                        two.extend_batch(keys.iter().copied());
                        four.extend_batch(keys.iter().copied());
                        std_heap.extend(keys.into_iter().map(Reverse));
                    }
                }
            }
            while let Some(Reverse(expect)) = std_heap.pop() {
                prop_assert_eq!(two.pop(), Some(expect));
                prop_assert_eq!(four.pop(), Some(expect));
            }
            prop_assert!(two.is_empty() && four.is_empty());
        }
    }
}

/// `RadixHeap` against `QuaternaryHeap`, pop for pop, on tapes shaped like
/// a centralized or hybrid place's queue under SSSP: keys mostly above the
/// last popped one, about one push in ten below it (a reference ingested
/// late), ties on the key broken by a unique tag, and keys at 0 and near
/// `u64::MAX`, where the bucket index takes its extreme values.
mod radix_differential {
    use super::*;
    use priosched_pq::QuaternaryHeap;

    /// `(key, unique tag)`, as a pool's `(prio, tag)` reference orders.
    type Key = (u64, u32);

    #[derive(Clone, Debug)]
    enum Step {
        /// The last popped key plus `low << shift`.
        Above(u8, u16),
        /// The last popped key minus this, saturating at 0.
        Below(u16),
        /// The key of the previous push again, with a new tag.
        Repeat,
        /// `0` or `u64::MAX - x`.
        Edge(bool, u8),
        Pop,
        /// Several `Above` keys through `extend_batch`.
        Batch(Vec<(u8, u16)>),
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            14 => (0u8..40, any::<u16>()).prop_map(|(s, x)| Step::Above(s, x)),
            2 => any::<u16>().prop_map(Step::Below),
            2 => Just(Step::Repeat),
            1 => (any::<bool>(), any::<u8>()).prop_map(|(z, x)| Step::Edge(z, x)),
            15 => Just(Step::Pop),
            2 => proptest::collection::vec((0u8..40, any::<u16>()), 0..24).prop_map(Step::Batch),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn radix_heap_pops_as_the_quaternary_heap_on_sssp_tapes(
            steps in proptest::collection::vec(step_strategy(), 0..400),
        ) {
            let mut radix: RadixHeap<Key> = RadixHeap::new();
            let mut dary: QuaternaryHeap<Key> = QuaternaryHeap::new();
            let (mut last_popped, mut last_pushed, mut tag) = (0u64, 0u64, 0u32);
            let mut fresh = |key: u64| {
                tag += 1;
                (key, tag)
            };
            let above = |popped: u64, (shift, low): (u8, u16)| {
                popped.saturating_add((low as u64) << shift)
            };
            for step in &steps {
                let key = match *step {
                    Step::Above(shift, low) => above(last_popped, (shift, low)),
                    Step::Below(x) => last_popped.saturating_sub(x as u64),
                    Step::Repeat => last_pushed,
                    Step::Edge(zero, x) => if zero { 0 } else { u64::MAX - x as u64 },
                    Step::Pop => {
                        let popped = radix.pop();
                        prop_assert_eq!(popped, dary.pop());
                        if let Some((key, _)) = popped {
                            last_popped = key;
                        }
                        prop_assert_eq!(radix.peek(), dary.peek());
                        continue;
                    }
                    Step::Batch(ref batch) => {
                        let keys: Vec<Key> =
                            batch.iter().map(|&b| fresh(above(last_popped, b))).collect();
                        radix.extend_batch(keys.iter().copied());
                        dary.extend_batch(keys);
                        prop_assert_eq!(radix.len(), dary.len());
                        prop_assert_eq!(radix.peek(), dary.peek());
                        continue;
                    }
                };
                last_pushed = key;
                let key = fresh(key);
                radix.push(key);
                dary.push(key);
                prop_assert_eq!(radix.len(), dary.len());
                prop_assert_eq!(radix.peek(), dary.peek());
            }
            while let Some(expect) = dary.pop() {
                prop_assert_eq!(radix.pop(), Some(expect));
            }
            prop_assert!(radix.is_empty());
        }
    }
}
