// lint:hot-path
//! Globally unique transaction-attempt tickets.
//!
//! A transaction *attempt* (each retry counts separately) draws a fresh
//! ticket the first time it needs one — to take a lock, to build a
//! conflict context, or for an armed tracer, which draws at attempt begin
//! ([`Attempt::ticket`](crate::driver::Attempt::ticket)). A read-only
//! attempt never draws one, so the counter's cache line is an update's
//! cost only. Tickets identify lock owners in [`VLock`](crate::VLock)
//! words and double as the "greedy" priority of SwissTM's contention
//! manager: a lower ticket means the attempt started writing earlier and
//! wins conflicts.

use core::num::NonZeroU64;
use core::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(1);

/// Draw a fresh, process-wide unique, non-zero ticket.
#[inline]
#[must_use]
pub fn next_ticket() -> NonZeroU64 {
    // Relaxed is enough: uniqueness comes from the RMW, and tickets are
    // always published through a lock CAS (AcqRel) before another thread
    // inspects them.
    let t = NEXT.fetch_add(1, Ordering::Relaxed);
    NonZeroU64::new(t).expect("ticket counter overflowed 64 bits")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tickets_are_unique_across_threads() {
        let mut handles = Vec::new();
        for _ in 0..4 {
            handles.push(std::thread::spawn(|| {
                (0..1000).map(|_| next_ticket().get()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn tickets_are_nonzero() {
        assert_ne!(next_ticket().get(), 0);
    }
}
