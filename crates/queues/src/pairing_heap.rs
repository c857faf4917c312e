//! A pairing heap — ablation alternative to the binomial-heap ready queue.

use std::fmt;

#[derive(Debug, Clone)]
struct Node<T> {
    item: T,
    children: Vec<Node<T>>,
}

/// A mergeable min-heap implemented as a pairing heap.
///
/// Included as the alternative ready-queue structure: pairing heaps have
/// excellent practical performance and a simpler structure than binomial
/// heaps, which the `queue_ops` benchmark uses to put the paper's
/// binomial-heap numbers in context.
///
/// # Example
///
/// ```
/// use spms_queues::PairingHeap;
///
/// let mut h: PairingHeap<u32> = [4, 2, 9].into_iter().collect();
/// assert_eq!(h.pop(), Some(2));
/// assert_eq!(h.pop(), Some(4));
/// assert_eq!(h.pop(), Some(9));
/// assert_eq!(h.pop(), None);
/// ```
#[derive(Clone)]
pub struct PairingHeap<T: Ord> {
    root: Option<Node<T>>,
    len: usize,
}

impl<T: Ord> Default for PairingHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord> PairingHeap<T> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        PairingHeap { root: None, len: 0 }
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the heap contains no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.root = None;
        self.len = 0;
    }

    /// Inserts an element. `O(1)`.
    pub fn push(&mut self, item: T) {
        let node = Node {
            item,
            children: Vec::new(),
        };
        self.root = Some(match self.root.take() {
            None => node,
            Some(root) => Self::meld(root, node),
        });
        self.len += 1;
    }

    /// A reference to the smallest element, if any. `O(1)`.
    pub fn peek(&self) -> Option<&T> {
        self.root.as_ref().map(|n| &n.item)
    }

    /// Removes and returns the smallest element. `O(log n)` amortised.
    pub fn pop(&mut self) -> Option<T> {
        let root = self.root.take()?;
        self.len -= 1;
        self.root = Self::merge_pairs(root.children);
        Some(root.item)
    }

    /// Merges another heap into this one. `O(1)`.
    pub fn merge(&mut self, other: PairingHeap<T>) {
        self.len += other.len;
        self.root = match (self.root.take(), other.root) {
            (None, r) | (r, None) => r,
            (Some(a), Some(b)) => Some(Self::meld(a, b)),
        };
    }

    /// Consumes the heap and returns its elements in ascending order.
    pub fn into_sorted_vec(mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(x) = self.pop() {
            out.push(x);
        }
        out
    }

    fn meld(mut a: Node<T>, mut b: Node<T>) -> Node<T> {
        if a.item <= b.item {
            a.children.push(b);
            a
        } else {
            b.children.push(a);
            b
        }
    }

    /// Two-pass pairing: meld children left-to-right in pairs, then meld the
    /// resulting heaps right-to-left.
    fn merge_pairs(children: Vec<Node<T>>) -> Option<Node<T>> {
        let mut pairs: Vec<Node<T>> = Vec::with_capacity(children.len() / 2 + 1);
        let mut iter = children.into_iter();
        while let Some(first) = iter.next() {
            match iter.next() {
                Some(second) => pairs.push(Self::meld(first, second)),
                None => pairs.push(first),
            }
        }
        let mut result: Option<Node<T>> = None;
        for node in pairs.into_iter().rev() {
            result = Some(match result {
                None => node,
                Some(acc) => Self::meld(node, acc),
            });
        }
        result
    }
}

impl<T: Ord> FromIterator<T> for PairingHeap<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut heap = PairingHeap::new();
        for item in iter {
            heap.push(item);
        }
        heap
    }
}

impl<T: Ord> Extend<T> for PairingHeap<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T: Ord + fmt::Debug> fmt::Debug for PairingHeap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PairingHeap")
            .field("len", &self.len)
            .field("min", &self.peek())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_behaviour() {
        let mut h: PairingHeap<u8> = PairingHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.peek(), None);
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn pops_ascending() {
        let h: PairingHeap<i32> = [5, -1, 3, 3, 0].into_iter().collect();
        assert_eq!(h.into_sorted_vec(), vec![-1, 0, 3, 3, 5]);
    }

    #[test]
    fn peek_matches_min() {
        let mut h = PairingHeap::new();
        h.push(9);
        assert_eq!(h.peek(), Some(&9));
        h.push(4);
        assert_eq!(h.peek(), Some(&4));
        h.push(6);
        assert_eq!(h.peek(), Some(&4));
    }

    #[test]
    fn merge_combines() {
        let mut a: PairingHeap<u32> = [1, 7].into_iter().collect();
        let b: PairingHeap<u32> = [0, 9].into_iter().collect();
        a.merge(b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.into_sorted_vec(), vec![0, 1, 7, 9]);
    }

    #[test]
    fn clear_resets() {
        let mut h: PairingHeap<u32> = (0..10).collect();
        h.clear();
        assert!(h.is_empty());
        h.push(3);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn debug_shows_len() {
        let h: PairingHeap<u32> = (0..3).collect();
        assert!(format!("{h:?}").contains("len"));
    }

    proptest! {
        #[test]
        fn prop_sorts_like_std(mut values in proptest::collection::vec(any::<i32>(), 0..300)) {
            let heap: PairingHeap<i32> = values.iter().copied().collect();
            let sorted = heap.into_sorted_vec();
            values.sort_unstable();
            prop_assert_eq!(sorted, values);
        }

        #[test]
        fn prop_interleaved_matches_model(ops in proptest::collection::vec(any::<Option<u16>>(), 0..400)) {
            let mut heap = PairingHeap::new();
            let mut model = std::collections::BinaryHeap::new();
            for op in ops {
                match op {
                    Some(v) => {
                        heap.push(v);
                        model.push(std::cmp::Reverse(v));
                    }
                    None => {
                        prop_assert_eq!(heap.pop(), model.pop().map(|std::cmp::Reverse(v)| v));
                    }
                }
                prop_assert_eq!(heap.len(), model.len());
            }
        }
    }
}
