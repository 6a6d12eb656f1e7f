// lint:hot-path
//! Globally unique transaction-attempt tickets.
//!
//! A transaction *attempt* (each retry counts separately) draws a fresh
//! ticket the first time it needs one — to take a lock, to build a
//! conflict context, or for an armed tracer, which draws at attempt begin
//! ([`Attempt::ticket`](crate::driver::Attempt::ticket)). A read-only
//! attempt never draws one, nor does a short update, which locks under
//! [`SHORT_OWNER`]. Tickets identify lock owners in [`VLock`](crate::VLock)
//! words and double as the "greedy" priority of SwissTM's contention
//! manager: a lower ticket means the attempt started writing earlier and
//! wins conflicts.

use core::num::NonZeroU64;
use core::sync::atomic::{AtomicU64, Ordering};

/// The lock owner of a short update without a ticket: [`next_ticket`]
/// never issues it, and an owner is only compared with one's own ticket.
pub const SHORT_OWNER: u64 = u64::MAX >> 1;

static NEXT: AtomicU64 = AtomicU64::new(1);

/// Draw a fresh, process-wide unique, non-zero ticket below [`SHORT_OWNER`].
#[inline]
#[must_use]
pub fn next_ticket() -> NonZeroU64 {
    // Relaxed is enough: uniqueness comes from the RMW, and tickets are
    // always published through a lock CAS (AcqRel) before another thread
    // inspects them.
    issue(NEXT.fetch_add(1, Ordering::Relaxed))
}

/// The counter's value `t` as a ticket, refused from [`SHORT_OWNER`] on.
fn issue(t: u64) -> NonZeroU64 {
    NonZeroU64::new(t)
        .filter(|t| t.get() < SHORT_OWNER)
        .expect("ticket counter reached the short-operation owner")
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

    #[test]
    fn no_ticket_is_the_short_owner() {
        assert!(next_ticket().get() < SHORT_OWNER);
        // The counter's last value below the reserved owner is issued;
        // the owner itself, and whatever lies past it, is refused.
        assert_eq!(issue(SHORT_OWNER - 1).get(), SHORT_OWNER - 1);
        for t in [SHORT_OWNER, SHORT_OWNER + 1, u64::MAX, 0] {
            assert!(std::panic::catch_unwind(|| issue(t)).is_err(), "{t}");
        }
        // A lock word carries it as an owner, not as a version.
        assert_eq!(
            crate::VLock::decode(!0),
            crate::LockState::Locked { owner: SHORT_OWNER }
        );
    }
}
