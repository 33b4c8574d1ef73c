//! Pointer-based pairing heap with two-pass melding.
//!
//! A second, structurally independent implementation of
//! [`SequentialPriorityQueue`]: the differential oracle the proptests run
//! [`crate::DaryHeap`] against. No pool uses it — `push` and `append` are
//! O(1), but a `pop` costs an order of magnitude more than the array
//! heap's.

use crate::SequentialPriorityQueue;

#[derive(Clone, Debug)]
struct Node<T> {
    item: T,
    children: Vec<Node<T>>,
}

impl<T: Ord> Node<T> {
    fn singleton(item: T) -> Self {
        Node {
            item,
            children: Vec::new(),
        }
    }

    /// Melds two heaps: the root with the larger item becomes a child of the
    /// root with the smaller item. O(1).
    fn meld(mut a: Node<T>, mut b: Node<T>) -> Node<T> {
        if b.item < a.item {
            b.children.push(a);
            b
        } else {
            a.children.push(b);
            a
        }
    }

    /// Two-pass pairing combine of an arbitrary list of heaps.
    fn combine(mut heaps: Vec<Node<T>>) -> Option<Node<T>> {
        if heaps.is_empty() {
            return None;
        }
        // First pass: meld adjacent pairs left to right.
        let mut paired = Vec::with_capacity(heaps.len() / 2 + 1);
        let mut iter = heaps.drain(..);
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => paired.push(Node::meld(a, b)),
                None => paired.push(a),
            }
        }
        drop(iter);
        // Second pass: meld right to left into a single heap.
        let mut acc = paired.pop().expect("non-empty by construction");
        while let Some(h) = paired.pop() {
            acc = Node::meld(h, acc);
        }
        Some(acc)
    }
}

/// Pairing min-heap.
#[derive(Clone, Debug)]
pub struct PairingHeap<T> {
    root: Option<Node<T>>,
    len: usize,
}

impl<T> Default for PairingHeap<T> {
    fn default() -> Self {
        PairingHeap { root: None, len: 0 }
    }
}

impl<T: Ord> PairingHeap<T> {
    /// Checks the heap-order invariant by full traversal; used by tests.
    pub fn is_valid_heap(&self) -> bool {
        fn check<T: Ord>(node: &Node<T>) -> bool {
            node.children
                .iter()
                .all(|c| node.item <= c.item && check(c))
        }
        self.root.as_ref().is_none_or(check)
    }

    /// Iterative drain of the tree into a vector (arbitrary order); avoids
    /// recursion so deep heaps cannot overflow the stack.
    fn drain_nodes(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack: Vec<Node<T>> = self.root.take().into_iter().collect();
        while let Some(mut node) = stack.pop() {
            out.push(node.item);
            stack.append(&mut node.children);
        }
        self.len = 0;
        out
    }
}

impl<T: Ord> SequentialPriorityQueue<T> for PairingHeap<T> {
    fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, item: T) {
        let single = Node::singleton(item);
        self.root = Some(match self.root.take() {
            Some(root) => Node::meld(root, single),
            None => single,
        });
        self.len += 1;
    }

    fn pop(&mut self) -> Option<T> {
        let root = self.root.take()?;
        self.len -= 1;
        self.root = Node::combine(root.children);
        Some(root.item)
    }

    fn peek(&self) -> Option<&T> {
        self.root.as_ref().map(|n| &n.item)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        // Drop iteratively to avoid recursive Drop blowing the stack on
        // degenerate (list-shaped) heaps.
        let _ = self.drain_nodes();
    }

    fn split_half(&mut self) -> Self {
        let items = self.drain_nodes();
        let n = items.len();
        let mut stolen = PairingHeap::new();
        let mut kept = PairingHeap::new();
        for (i, x) in items.into_iter().enumerate() {
            if i % 2 == 0 {
                stolen.push(x);
            } else {
                kept.push(x);
            }
        }
        debug_assert_eq!(stolen.len(), n.div_ceil(2));
        *self = kept;
        stolen
    }

    fn append(&mut self, other: &mut Self) {
        let other_root = other.root.take();
        let other_len = std::mem::take(&mut other.len);
        self.root = match (self.root.take(), other_root) {
            (Some(a), Some(b)) => Some(Node::meld(a, b)),
            (a, b) => a.or(b),
        };
        self.len += other_len;
    }

    fn drain_unordered(&mut self) -> Vec<T> {
        self.drain_nodes()
    }

    /// Bulk insertion via multi-pass melding: the batch becomes singleton
    /// heaps, one two-pass pairing combine folds them into a single heap
    /// (O(m) melds), and one final meld attaches the result to the root —
    /// versus `m` root melds for scalar pushes, which degrade the root's
    /// child list and later `pop`s.
    fn extend_batch<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let singles: Vec<Node<T>> = iter.into_iter().map(Node::singleton).collect();
        if singles.is_empty() {
            return;
        }
        self.len += singles.len();
        let combined = Node::combine(singles).expect("non-empty batch");
        self.root = Some(match self.root.take() {
            Some(root) => Node::meld(root, combined),
            None => combined,
        });
    }
}

impl<T: Ord> FromIterator<T> for PairingHeap<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut h = PairingHeap::new();
        for x in iter {
            h.push(x);
        }
        h
    }
}

impl<T> Drop for PairingHeap<T> {
    fn drop(&mut self) {
        // Iterative teardown; the derived recursive drop can overflow the
        // stack for adversarially list-shaped heaps.
        let mut stack: Vec<Node<T>> = self.root.take().into_iter().collect();
        while let Some(mut node) = stack.pop() {
            stack.append(&mut node.children);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn popped(mut h: PairingHeap<i64>) -> Vec<i64> {
        let mut out = Vec::new();
        while let Some(x) = h.pop() {
            out.push(x);
        }
        out
    }

    #[test]
    fn pops_in_sorted_order() {
        let h: PairingHeap<i64> = [9, 4, 7, 1, -3, 7, 0].into_iter().collect();
        assert_eq!(popped(h), vec![-3, 0, 1, 4, 7, 7, 9]);
    }

    #[test]
    fn len_tracks_push_pop() {
        let mut h = PairingHeap::new();
        for i in 0..100 {
            h.push(i);
            assert_eq!(h.len(), (i + 1) as usize);
        }
        for i in (0..100).rev() {
            h.pop();
            assert_eq!(h.len(), i as usize);
        }
    }

    #[test]
    fn split_half_sizes_and_multiset() {
        for n in 0..33usize {
            let mut h: PairingHeap<usize> = (0..n).collect();
            let stolen = h.split_half();
            assert_eq!(stolen.len(), n.div_ceil(2));
            assert_eq!(h.len(), n / 2);
            let mut all: Vec<usize> = h.drain_unordered();
            let mut s = stolen;
            all.extend(s.drain_unordered());
            all.sort();
            assert_eq!(all, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn append_moves_everything() {
        let mut a: PairingHeap<i64> = [3, 1].into_iter().collect();
        let mut b: PairingHeap<i64> = [2, 0].into_iter().collect();
        a.append(&mut b);
        assert_eq!(b.len(), 0);
        assert_eq!(popped(a), vec![0, 1, 2, 3]);
    }

    #[test]
    fn deep_list_shaped_heap_drops_without_overflow() {
        // Pushing a strictly decreasing sequence produces a long chain.
        let mut h = PairingHeap::new();
        for i in (0..200_000).rev() {
            h.push(i);
        }
        drop(h); // must not overflow the stack
    }

    #[test]
    fn heap_invariant_after_mixed_ops() {
        let mut h: PairingHeap<i64> = (0..50).rev().collect();
        for _ in 0..20 {
            h.pop();
        }
        for i in 100..130 {
            h.push(i);
        }
        assert!(h.is_valid_heap());
    }
}
