//! A binomial min-heap — the paper's per-core ready queue.

use std::fmt;

/// A node of the binomial heap: a binomial tree of order `order`, whose
/// children are binomial trees of orders `0..order` stored in increasing
/// order.
#[derive(Debug, Clone)]
struct Node<T> {
    item: T,
    order: u32,
    children: Vec<Node<T>>,
}

impl<T: Ord> Node<T> {
    fn singleton(item: T) -> Self {
        Node {
            item,
            order: 0,
            children: Vec::new(),
        }
    }

    /// Links two trees of equal order into one tree of order + 1, keeping the
    /// smaller item at the root (min-heap property).
    fn link(mut a: Node<T>, mut b: Node<T>) -> Node<T> {
        debug_assert_eq!(a.order, b.order);
        if a.item <= b.item {
            a.children.push(b);
            a.order += 1;
            a
        } else {
            b.children.push(a);
            b.order += 1;
            b
        }
    }
}

/// A mergeable min-heap implemented as a binomial heap.
///
/// The paper's ready queue stores released-but-unfinished jobs ordered by
/// fixed priority; a binomial heap gives `O(log n)` insertion and extraction
/// and, importantly for semi-partitioned scheduling, `O(log n)` melding when a
/// migrating subtask's state is handed to another core.
///
/// The element type doubles as the key: the heap pops the *smallest* element
/// first, so scheduler users store `(priority_level, sequence, payload)`
/// tuples where a smaller priority level means a higher priority.
///
/// # Example
///
/// ```
/// use spms_queues::BinomialHeap;
///
/// let mut h = BinomialHeap::new();
/// for x in [5, 1, 4, 2, 3] {
///     h.push(x);
/// }
/// assert_eq!(h.len(), 5);
/// assert_eq!(h.peek(), Some(&1));
/// let sorted: Vec<_> = h.into_sorted_vec();
/// assert_eq!(sorted, vec![1, 2, 3, 4, 5]);
/// ```
#[derive(Clone)]
pub struct BinomialHeap<T: Ord> {
    /// Roots sorted by strictly increasing tree order.
    roots: Vec<Node<T>>,
    len: usize,
}

impl<T: Ord> Default for BinomialHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord> BinomialHeap<T> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        BinomialHeap {
            roots: Vec::new(),
            len: 0,
        }
    }

    /// Number of elements stored in the heap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the heap contains no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.roots.clear();
        self.len = 0;
    }

    /// Inserts an element. `O(log n)` worst case, `O(1)` amortised.
    pub fn push(&mut self, item: T) {
        let singleton = vec![Node::singleton(item)];
        self.roots = Self::merge_root_lists(std::mem::take(&mut self.roots), singleton);
        self.len += 1;
    }

    /// A reference to the smallest element, if any. `O(log n)`.
    pub fn peek(&self) -> Option<&T> {
        self.roots.iter().map(|n| &n.item).min()
    }

    /// Removes and returns the smallest element. `O(log n)`.
    pub fn pop(&mut self) -> Option<T> {
        if self.roots.is_empty() {
            return None;
        }
        let min_idx = self
            .roots
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.item.cmp(&b.item))
            .map(|(i, _)| i)
            .expect("roots is non-empty");
        let node = self.roots.remove(min_idx);
        // The children of a binomial tree are themselves a valid root list
        // (orders 0..order in increasing order).
        self.roots = Self::merge_root_lists(std::mem::take(&mut self.roots), node.children);
        self.len -= 1;
        Some(node.item)
    }

    /// Merges another heap into this one. `O(log n)`.
    pub fn merge(&mut self, other: BinomialHeap<T>) {
        self.len += other.len;
        self.roots = Self::merge_root_lists(std::mem::take(&mut self.roots), other.roots);
    }

    /// Consumes the heap and returns its elements in ascending order.
    pub fn into_sorted_vec(mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(x) = self.pop() {
            out.push(x);
        }
        out
    }

    /// Iterates over the elements in unspecified order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            stack: self.roots.iter().collect(),
        }
    }

    /// Merges two root lists (each sorted by strictly increasing order) into
    /// one, linking trees of equal order like binary addition with carry.
    fn merge_root_lists(a: Vec<Node<T>>, b: Vec<Node<T>>) -> Vec<Node<T>> {
        // 1. Merge the two sorted lists by order.
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let mut ai = a.into_iter().peekable();
        let mut bi = b.into_iter().peekable();
        loop {
            match (ai.peek(), bi.peek()) {
                (Some(x), Some(y)) => {
                    if x.order <= y.order {
                        merged.push(ai.next().expect("peeked"));
                    } else {
                        merged.push(bi.next().expect("peeked"));
                    }
                }
                (Some(_), None) => merged.push(ai.next().expect("peeked")),
                (None, Some(_)) => merged.push(bi.next().expect("peeked")),
                (None, None) => break,
            }
        }
        // 2. Combine trees of equal order, propagating a carry exactly like
        //    binary addition. The merged list contains at most two trees of
        //    any order (one per input heap), so together with the carry at
        //    most three trees of one order meet; in that case one of them is
        //    emitted and the other two are linked into the carry.
        let mut out: Vec<Node<T>> = Vec::with_capacity(merged.len());
        let mut iter = merged.into_iter().peekable();
        let mut carry: Option<Node<T>> = None;
        loop {
            match (carry.take(), iter.peek()) {
                (None, None) => break,
                (Some(c), None) => {
                    out.push(c);
                }
                (None, Some(_)) => {
                    let first = iter.next().expect("peeked");
                    if iter
                        .peek()
                        .is_some_and(|second| second.order == first.order)
                    {
                        let second = iter.next().expect("peeked");
                        carry = Some(Node::link(first, second));
                    } else {
                        out.push(first);
                    }
                }
                (Some(c), Some(head)) => {
                    debug_assert!(c.order <= head.order, "carry can never lag the input");
                    if c.order < head.order {
                        out.push(c);
                    } else {
                        // Same order: if the input holds a second tree of this
                        // order, emit the carry and link the two input trees;
                        // otherwise link the carry with the single input tree.
                        let first = iter.next().expect("peeked");
                        if iter
                            .peek()
                            .is_some_and(|second| second.order == first.order)
                        {
                            let second = iter.next().expect("peeked");
                            out.push(c);
                            carry = Some(Node::link(first, second));
                        } else {
                            carry = Some(Node::link(c, first));
                        }
                    }
                }
            }
        }
        out
    }

    #[cfg(test)]
    fn assert_invariants(&self) {
        fn check_tree<T: Ord>(node: &Node<T>) -> usize {
            assert_eq!(node.children.len() as u32, node.order);
            let mut size = 1;
            for (i, child) in node.children.iter().enumerate() {
                assert_eq!(child.order as usize, i, "children sorted by order");
                assert!(child.item >= node.item, "min-heap property");
                size += check_tree(child);
            }
            assert_eq!(size, 1usize << node.order);
            size
        }
        let mut total = 0;
        for w in self.roots.windows(2) {
            assert!(w[0].order < w[1].order, "root orders strictly increasing");
        }
        for root in &self.roots {
            total += check_tree(root);
        }
        assert_eq!(total, self.len);
    }
}

impl<T: Ord> FromIterator<T> for BinomialHeap<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut heap = BinomialHeap::new();
        for item in iter {
            heap.push(item);
        }
        heap
    }
}

impl<T: Ord> Extend<T> for BinomialHeap<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T: Ord + fmt::Debug> fmt::Debug for BinomialHeap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BinomialHeap")
            .field("len", &self.len)
            .field(
                "orders",
                &self.roots.iter().map(|r| r.order).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Iterator over heap elements in unspecified order; created by
/// [`BinomialHeap::iter`].
pub struct Iter<'a, T> {
    stack: Vec<&'a Node<T>>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        let node = self.stack.pop()?;
        self.stack.extend(node.children.iter());
        Some(&node.item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn empty_heap_behaviour() {
        let mut h: BinomialHeap<i32> = BinomialHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.peek(), None);
        assert_eq!(h.pop(), None);
        h.assert_invariants();
    }

    #[test]
    fn push_pop_single() {
        let mut h = BinomialHeap::new();
        h.push(42);
        assert_eq!(h.len(), 1);
        assert_eq!(h.peek(), Some(&42));
        assert_eq!(h.pop(), Some(42));
        assert!(h.is_empty());
    }

    #[test]
    fn pops_in_ascending_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut values: Vec<u32> = (0..200).collect();
        values.shuffle(&mut rng);
        let h: BinomialHeap<u32> = values.iter().copied().collect();
        h.assert_invariants();
        let sorted = h.into_sorted_vec();
        let expected: Vec<u32> = (0..200).collect();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn duplicate_elements_are_all_returned() {
        let mut h = BinomialHeap::new();
        h.extend([3, 1, 3, 1, 2]);
        assert_eq!(h.into_sorted_vec(), vec![1, 1, 2, 3, 3]);
    }

    #[test]
    fn merge_combines_both_heaps() {
        let a: BinomialHeap<u32> = [1, 5, 9, 13].into_iter().collect();
        let mut b: BinomialHeap<u32> = [2, 6, 10].into_iter().collect();
        b.merge(a);
        b.assert_invariants();
        assert_eq!(b.len(), 7);
        assert_eq!(b.into_sorted_vec(), vec![1, 2, 5, 6, 9, 10, 13]);
    }

    #[test]
    fn merge_with_empty() {
        let mut a: BinomialHeap<u32> = [3, 1].into_iter().collect();
        a.merge(BinomialHeap::new());
        assert_eq!(a.len(), 2);
        let mut empty: BinomialHeap<u32> = BinomialHeap::new();
        empty.merge(a);
        assert_eq!(empty.into_sorted_vec(), vec![1, 3]);
    }

    #[test]
    fn clear_empties_the_heap() {
        let mut h: BinomialHeap<u32> = (0..17).collect();
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn iter_visits_every_element() {
        let h: BinomialHeap<u32> = (0..37).collect();
        let mut seen: Vec<u32> = h.iter().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn tuple_keys_model_priority_plus_sequence() {
        let mut h = BinomialHeap::new();
        h.push((1u32, 100u64));
        h.push((0, 200));
        h.push((1, 50));
        assert_eq!(h.pop(), Some((0, 200)));
        assert_eq!(h.pop(), Some((1, 50)));
        assert_eq!(h.pop(), Some((1, 100)));
    }

    #[test]
    fn invariants_hold_during_interleaved_operations() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut h = BinomialHeap::new();
        let mut model = std::collections::BinaryHeap::new();
        for i in 0..500u32 {
            if rng.gen_bool(0.6) || model.is_empty() {
                h.push(i);
                model.push(std::cmp::Reverse(i));
            } else {
                let expected = model.pop().map(|std::cmp::Reverse(v)| v);
                assert_eq!(h.pop(), expected);
            }
            if i % 64 == 0 {
                h.assert_invariants();
            }
        }
        h.assert_invariants();
    }

    #[test]
    fn debug_output_is_nonempty() {
        let h: BinomialHeap<u32> = (0..5).collect();
        let s = format!("{h:?}");
        assert!(s.contains("BinomialHeap"));
        assert!(s.contains("len"));
    }

    proptest! {
        #[test]
        fn prop_heap_sort_matches_std_sort(mut values in proptest::collection::vec(any::<i64>(), 0..300)) {
            let heap: BinomialHeap<i64> = values.iter().copied().collect();
            heap.assert_invariants();
            let heap_sorted = heap.into_sorted_vec();
            values.sort_unstable();
            prop_assert_eq!(heap_sorted, values);
        }

        #[test]
        fn prop_merge_equivalent_to_pushing_all(
            a in proptest::collection::vec(any::<i32>(), 0..120),
            b in proptest::collection::vec(any::<i32>(), 0..120),
        ) {
            let mut merged: BinomialHeap<i32> = a.iter().copied().collect();
            merged.merge(b.iter().copied().collect());
            merged.assert_invariants();
            let mut expected: Vec<i32> = a;
            expected.extend(b);
            expected.sort_unstable();
            prop_assert_eq!(merged.into_sorted_vec(), expected);
        }

        #[test]
        fn prop_interleaved_matches_model(ops in proptest::collection::vec(any::<Option<u16>>(), 0..400)) {
            let mut heap = BinomialHeap::new();
            let mut model = std::collections::BinaryHeap::new();
            for op in ops {
                match op {
                    Some(v) => {
                        heap.push(v);
                        model.push(std::cmp::Reverse(v));
                    }
                    None => {
                        let expected = model.pop().map(|std::cmp::Reverse(v)| v);
                        prop_assert_eq!(heap.pop(), expected);
                    }
                }
                prop_assert_eq!(heap.len(), model.len());
                prop_assert_eq!(heap.peek().copied(), model.peek().map(|std::cmp::Reverse(v)| *v));
            }
            heap.assert_invariants();
        }
    }
}
