//! A pool of recycled batch buffers addressed by small copyable handles.
//!
//! [`BatchPool`] lets an event carry a *handle* to an in-flight batch of
//! values instead of owning a `Vec`: the sender moves values into a pooled
//! slot ([`BatchPool::put`]), the event stores the returned
//! [`BatchHandle`] (a `Copy` u32), and the receiver drains the slot back
//! out ([`BatchPool::take_into`]). Slot vectors are recycled, so once the
//! pool has seen its peak of concurrently in-flight batches — and each
//! slot its peak batch size — the put/take cycle allocates nothing.
//!
//! The driving use case is the steal pipeline: `StolenArrive` events under
//! a non-zero steal-transfer delay used to own a freshly allocated
//! `Vec<QueueEntry>` per steal; with the pool they carry a 4-byte handle.
//! The other is a job's probe burst or central placement, whose servers
//! travel in one event: there the sender and the receiver are the same
//! buffer, so [`BatchPool::put_swap`] and [`BatchPool::take_swap`] trade
//! vectors with the slot instead of copying values.
//!
//! # Examples
//!
//! ```
//! use hawk_simcore::BatchPool;
//!
//! let mut pool: BatchPool<u32> = BatchPool::new();
//! let mut buf = vec![1, 2, 3];
//! let handle = pool.put(&mut buf);
//! assert!(buf.is_empty()); // moved into the pool
//! assert_eq!(pool.in_flight(), 1);
//!
//! pool.take_into(handle, &mut buf);
//! assert_eq!(buf, vec![1, 2, 3]);
//! assert_eq!(pool.in_flight(), 0);
//! ```

/// Identifies one in-flight batch in a [`BatchPool`]. Obtained from
/// [`BatchPool::put`]; redeemed exactly once by [`BatchPool::take_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchHandle(u32);

/// A recycling store of value batches. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct BatchPool<T> {
    slots: Vec<Vec<T>>,
    occupied: Vec<bool>,
    free: Vec<u32>,
}

impl<T> BatchPool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BatchPool {
            slots: Vec::new(),
            occupied: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Moves the contents of `src` into a recycled slot (leaving `src`
    /// empty with its capacity intact) and returns the slot's handle.
    pub fn put(&mut self, src: &mut Vec<T>) -> BatchHandle {
        let handle = self.claim();
        self.slots[handle.0 as usize].append(src);
        handle
    }

    /// Like [`BatchPool::put`], but swaps `src` with the slot's empty
    /// vector instead of moving the values: `src` leaves empty with the
    /// slot's capacity. For a sender that owns a buffer per kind of batch
    /// and takes its batches back into the same buffer
    /// ([`BatchPool::take_swap`]), so no value is copied either way.
    pub fn put_swap(&mut self, src: &mut Vec<T>) -> BatchHandle {
        let handle = self.claim();
        std::mem::swap(&mut self.slots[handle.0 as usize], src);
        handle
    }

    /// Drains the batch behind `handle` into `dst` (cleared first) and
    /// recycles the slot.
    ///
    /// # Panics
    ///
    /// Panics if `handle` was already taken (a double-delivery bug).
    pub fn take_into(&mut self, handle: BatchHandle, dst: &mut Vec<T>) {
        dst.clear();
        dst.append(self.release(handle));
    }

    /// Like [`BatchPool::take_into`], but swaps: `dst` leaves holding the
    /// batch, and its old vector, cleared, becomes the free slot's.
    ///
    /// # Panics
    ///
    /// Panics if `handle` was already taken (a double-delivery bug).
    pub fn take_swap(&mut self, handle: BatchHandle, dst: &mut Vec<T>) {
        dst.clear();
        std::mem::swap(dst, self.release(handle));
    }

    /// A free slot, marked occupied; a new one when none is free.
    fn claim(&mut self) -> BatchHandle {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Vec::new());
                self.occupied.push(false);
                idx
            }
        };
        debug_assert!(
            self.slots[idx as usize].is_empty(),
            "free slot holds stale values"
        );
        self.occupied[idx as usize] = true;
        BatchHandle(idx)
    }

    /// Frees the slot behind `handle`, returning its vector.
    fn release(&mut self, handle: BatchHandle) -> &mut Vec<T> {
        let idx = handle.0 as usize;
        assert!(self.occupied[idx], "batch {idx} taken twice");
        self.occupied[idx] = false;
        self.free.push(handle.0);
        &mut self.slots[idx]
    }

    /// Number of batches currently in flight.
    pub fn in_flight(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_take_roundtrip_preserves_order() {
        let mut pool: BatchPool<u8> = BatchPool::new();
        let mut a = vec![1, 2, 3];
        let mut b = vec![9];
        let ha = pool.put(&mut a);
        let hb = pool.put(&mut b);
        assert_eq!(pool.in_flight(), 2);
        let mut out = Vec::new();
        pool.take_into(ha, &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        pool.take_into(hb, &mut out);
        assert_eq!(out, vec![9]);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn slots_recycle_without_growth() {
        let mut pool: BatchPool<u32> = BatchPool::new();
        let mut buf = Vec::new();
        let mut out = Vec::new();
        // Peak of 2 in flight; afterwards the pool never grows past 2.
        buf.extend([1, 2]);
        let h1 = pool.put(&mut buf);
        buf.extend([3]);
        let h2 = pool.put(&mut buf);
        pool.take_into(h1, &mut out);
        pool.take_into(h2, &mut out);
        for round in 0..100 {
            buf.clear();
            buf.extend([round, round + 1]);
            let h = pool.put(&mut buf);
            pool.take_into(h, &mut out);
            assert_eq!(out, vec![round, round + 1]);
        }
        assert_eq!(pool.slots.len(), 2);
    }

    #[test]
    fn swapping_moves_buffers_not_values() {
        let mut pool: BatchPool<u32> = BatchPool::new();
        let mut buf = Vec::with_capacity(64);
        buf.extend([1, 2, 3]);
        let h = pool.put_swap(&mut buf);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 0, "src takes the slot's empty vector");
        buf.push(7);
        pool.take_swap(h, &mut buf);
        assert_eq!(buf, vec![1, 2, 3]);
        assert_eq!(buf.capacity(), 64, "the batch's own vector comes back");
        assert_eq!(pool.in_flight(), 0);
        // The vector `buf` held is now the free slot's, cleared.
        let h = pool.put_swap(&mut buf);
        assert!(buf.is_empty());
        assert!((1..64).contains(&buf.capacity()), "{}", buf.capacity());
        pool.take_swap(h, &mut buf);
        assert_eq!(buf, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn double_take_panics() {
        let mut pool: BatchPool<u8> = BatchPool::new();
        let mut buf = vec![1];
        let h = pool.put(&mut buf);
        pool.take_into(h, &mut buf);
        pool.take_into(h, &mut buf);
    }
}
