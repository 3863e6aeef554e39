//! A short list stored inside its owner.
//!
//! Round replies and per-query search traces carry lists that hold zero to
//! two entries in practice (a reply's surviving frontier, the masters it
//! covered, a query's meta hops). As `Vec`s each costs a heap block per
//! reply; a shared arena is not an option because `robust_round` re-homes
//! replies one slot at a time under faults, so every reply must stay a
//! self-contained value. [`InlineVec`] keeps up to `N` entries in place and
//! only spills to the heap beyond that.

/// Up to `N` `Copy` entries in place, a `Vec` beyond. Reads go through the
/// slice it derefs to.
#[derive(Clone, Debug)]
pub struct InlineVec<T, const N: usize>(Repr<T, N>);

/// An empty list is `Heap` of an unallocated `Vec`, so no filler `T` is ever
/// needed: `Inline` only exists once there is a first entry to pad with.
#[derive(Clone, Debug)]
enum Repr<T, const N: usize> {
    /// `buf[..len]` are the entries, `1 <= len <= N`; the rest repeats one.
    Inline {
        len: usize,
        buf: [T; N],
    },
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// An empty list (no allocation).
    pub fn new() -> Self {
        InlineVec(Repr::Heap(Vec::new()))
    }

    /// A list holding `items`: in place when they fit, otherwise one
    /// exact-size allocation.
    pub fn collect(mut items: impl ExactSizeIterator<Item = T>) -> Self {
        let len = items.len();
        if len > N {
            return InlineVec(Repr::Heap(items.collect()));
        }
        let Some(first) = items.next() else { return Self::new() };
        let mut buf = [first; N];
        for (slot, item) in buf[1..].iter_mut().zip(items) {
            *slot = item;
        }
        InlineVec(Repr::Inline { len, buf })
    }

    /// [`Self::collect`] of a copy of `items`.
    pub fn from_slice(items: &[T]) -> Self {
        Self::collect(items.iter().copied())
    }

    /// Appends one entry, spilling to the heap when the `N + 1`-th arrives.
    pub fn push(&mut self, item: T) {
        match &mut self.0 {
            Repr::Inline { len, buf } if *len < N => {
                buf[*len] = item;
                *len += 1;
            }
            Repr::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(2 * N);
                v.extend_from_slice(buf);
                v.push(item);
                self.0 = Repr::Heap(v);
            }
            Repr::Heap(v) if N > 0 && v.capacity() == 0 => {
                self.0 = Repr::Inline { len: 1, buf: [item; N] };
            }
            Repr::Heap(v) => v.push(item),
        }
    }

    /// Empties the list (a spilled list keeps its heap block).
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { .. } => *self = Self::new(),
            Repr::Heap(v) => v.clear(),
        }
    }
}

impl<T: Copy, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len],
            Repr::Heap(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_from_slice_agree_across_the_spill() {
        let mut pushed = InlineVec::<u64, 2>::new();
        for n in 0..6u64 {
            let want: Vec<u64> = (0..n).collect();
            assert_eq!(&*pushed, &want[..]);
            assert_eq!(&*InlineVec::<u64, 2>::from_slice(&want), &want[..]);
            assert_eq!(&*pushed.clone(), &want[..]);
            pushed.push(n);
        }
        for mut v in [pushed, InlineVec::from_slice(&[1])] {
            v.clear();
            assert!(v.is_empty());
            v.push(9);
            assert_eq!(&*v, &[9]);
        }
    }

    #[test]
    fn entries_that_fit_stay_in_place() {
        let v = InlineVec::<u32, 3>::from_slice(&[7, 8, 9]);
        assert!(matches!(v.0, Repr::Inline { len: 3, .. }));
        let mut v = InlineVec::<u32, 3>::new();
        v.push(1);
        assert!(matches!(v.0, Repr::Inline { len: 1, .. }));
        assert!(matches!(InlineVec::<u32, 3>::from_slice(&[1, 2, 3, 4]).0, Repr::Heap(_)));
    }
}
