//! Offline stand-in for the `crossbeam` crate (see `shims/README.md`).
//!
//! Two submodules are provided, mirroring the crossbeam facade:
//!
//! * [`epoch`] — pin/defer-based reclamation with the same safety
//!   contract as `crossbeam-epoch`: a function deferred through a
//!   [`epoch::Guard`] runs only once every guard that was pinned at
//!   defer time has been dropped. Like the real crate, each thread
//!   announces the epoch it pinned at in a slot of its own, so `pin` and
//!   unpin take no lock and allocate nothing (the consumers pin once per
//!   collection operation); only `defer` and an actual collection lock
//!   the registry. The module header gives the ordering argument.
//! * [`queue`] — a [`queue::SegQueue`] MPMC queue backed by a mutexed
//!   `VecDeque`.

#![forbid(unsafe_code)]

pub mod epoch;

/// Concurrent queues.
pub mod queue {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// An unbounded MPMC FIFO queue.
    ///
    /// The real `SegQueue` is lock-free; this stand-in is a mutexed
    /// `VecDeque` with the same observable semantics.
    #[derive(Debug, Default)]
    pub struct SegQueue<T> {
        inner: Mutex<VecDeque<T>>,
    }

    impl<T> SegQueue<T> {
        /// An empty queue.
        #[must_use]
        pub fn new() -> Self {
            Self {
                inner: Mutex::new(VecDeque::new()),
            }
        }

        fn guard(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            self.inner.lock().unwrap_or_else(|p| p.into_inner())
        }

        /// Append `value` at the tail.
        pub fn push(&self, value: T) {
            self.guard().push_back(value);
        }

        /// Remove and return the head element, if any.
        pub fn pop(&self) -> Option<T> {
            self.guard().pop_front()
        }

        /// Number of queued elements.
        #[must_use]
        pub fn len(&self) -> usize {
            self.guard().len()
        }

        /// True if no elements are queued.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.guard().is_empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::queue::SegQueue;

    #[test]
    fn segqueue_fifo() {
        let q = SegQueue::new();
        q.push(1);
        q.push(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }
}
