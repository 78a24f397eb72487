//! The traversal stack of the flat tree arenas (`msj-exact`'s TR\*-trees,
//! `msj-sam`'s R\*-tree probes): the first [`INLINE_STACK`] entries live
//! in the caller's frame, so a descent that stays inside the bound never
//! touches the heap.

/// Entries an [`InlineStack`] holds before spilling to the heap.
pub const INLINE_STACK: usize = 64;

/// A LIFO stack whose first [`INLINE_STACK`] entries live in the frame;
/// only deeper pushes touch the heap (`Vec::new` does not allocate).
pub struct InlineStack<T> {
    inline: [T; INLINE_STACK],
    len: usize,
    spill: Vec<T>,
}

impl<T: Copy> InlineStack<T> {
    pub fn new(fill: T) -> Self {
        InlineStack {
            inline: [fill; INLINE_STACK],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Pushes `value` when `keep`, without a branch on `keep` while the
    /// inline part has room: the slot past the top is written either
    /// way and the length decides whether it counts. The traversals'
    /// rectangle tests are coin flips to the branch predictor; this
    /// keeps them out of the control flow.
    #[inline]
    pub fn push_if(&mut self, value: T, keep: bool) {
        match self.inline.get_mut(self.len) {
            Some(slot) => {
                *slot = value;
                self.len += usize::from(keep);
            }
            None if keep => self.spill.push(value),
            None => {}
        }
    }

    /// The spill is non-empty only while the inline part is full, so
    /// draining it first keeps LIFO order.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.spill.pop().or_else(|| {
            self.len = self.len.checked_sub(1)?;
            Some(self.inline[self.len])
        })
    }

    /// Whether any push ever went to the heap — the spill `Vec` is the
    /// stack's only allocation site.
    pub fn spilled(&self) -> bool {
        self.spill.capacity() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_stack_spills_in_lifo_order() {
        let mut stack = InlineStack::new(0usize);
        for i in 0..3 * INLINE_STACK {
            assert_eq!(stack.spilled(), i > INLINE_STACK);
            stack.push_if(i, true);
            stack.push_if(usize::MAX, false);
        }
        for i in (0..3 * INLINE_STACK).rev() {
            assert_eq!(stack.pop(), Some(i));
        }
        assert_eq!(stack.pop(), None);
    }
}
