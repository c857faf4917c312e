//! Stack-first scratch space for placement questions that must not
//! allocate to fail.

use std::ops::{Deref, DerefMut};

/// A vector that keeps its first `N` items on the stack and moves to the
/// heap only past them. The placer's split plans and whole probes keep
/// their working state here: on the partitions the admission service
/// runs, a plan or probe that fails allocates nothing.
#[derive(Debug)]
pub(crate) struct InlineVec<T, const N: usize> {
    inline: [T; N],
    len: usize,
    /// Every item once `len` passes `N`, the inline ones included.
    heap: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    pub(crate) fn new() -> Self {
        InlineVec {
            inline: [T::default(); N],
            len: 0,
            heap: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.len < N {
            self.inline[self.len] = item;
        } else {
            if self.len == N {
                self.heap.extend_from_slice(&self.inline);
            }
            self.heap.push(item);
        }
        self.len += 1;
    }

    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.heap.clear();
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        if self.len <= N {
            &mut self.inline[..self.len]
        } else {
            &mut self.heap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_past_the_inline_capacity_move_to_the_heap_in_order() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        assert!(v.is_empty());
        for i in 0..5 {
            v.push(i);
            assert_eq!(*v, (0..=i).collect::<Vec<_>>()[..]);
        }
        v[4] = 9;
        assert_eq!(*v, [0, 1, 2, 3, 9]);
        v.clear();
        assert!(v.is_empty());
        v.push(7);
        assert_eq!(*v, [7]);
    }
}
