//! Bounded FIFO: the model's one bounded ring.
//!
//! It backs the NIC MAC's egress ring and both directions of every
//! host context-queue pair (Figure 2). A push at capacity is rejected
//! and hands the item back; what happens next (tail drop, a counted
//! notification drop, a debug check) is the owner's policy, and the
//! owner counts it under its own `Stats` name.

use std::collections::VecDeque;

#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        BoundedQueue {
            items: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
        }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Enqueue; at capacity the item is rejected and returned.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            return Err(item);
        }
        self.items.push_back(item);
        Ok(())
    }

    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Drain up to `n` items from the front into a caller-owned buffer
    /// (doorbell batching; callers recycle the buffer instead of
    /// allocating).
    pub fn pop_batch_into(&mut self, n: usize, out: &mut Vec<T>) {
        let take = n.min(self.items.len());
        out.extend(self.items.drain(..take));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedQueue::new(4);
        for i in 0..4 {
            assert!(q.push(i).is_ok());
        }
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn overflow_rejects_at_capacity() {
        let mut q = BoundedQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        q.push(3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drain_batch_takes_front_and_caps_at_len() {
        let mut q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        let mut batch = Vec::new();
        q.pop_batch_into(2, &mut batch);
        assert_eq!(batch, vec![0, 1]);
        batch.clear();
        q.pop_batch_into(99, &mut batch);
        assert_eq!(batch, vec![2, 3, 4]);
        assert!(q.is_empty());
    }
}
