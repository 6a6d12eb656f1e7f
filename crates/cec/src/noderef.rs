//! Node references: the word type linking arena nodes together.
//!
//! A [`NodeRef`] is what a node's [`Link`](stm_core::Link)s hold (a list
//! node's `next`, each level of a skip-list tower): either a
//! (non-zero) arena index, the null terminator, or the special **dead**
//! marker that a removal writes into the unlinked node's own `next`
//! pointer.
//!
//! The dead marker is the linchpin of linearizability for *elastic*
//! traversals: an elastic transaction forgets the prefix of its traversal,
//! so it can find itself standing on a node that has since been unlinked.
//! Because every removal atomically (i) redirects the predecessor and
//! (ii) writes a dead marker into the removed node's `next`, a stale
//! traverser that tries to continue reads the marker and cannot silently
//! follow a frozen pointer chain through deleted nodes. (This mirrors the
//! "null the next pointer and restart" convention of the original E-STM
//! integer-set benchmarks.)
//!
//! A dead marker additionally **preserves the successor** the node had
//! when it was unlinked ([`NodeRef::dead`] / [`NodeRef::successor`]): the
//! mark lives in the top payload bit, the successor in the bits below — the
//! lazy-list tombstone layout. Correct backends never need the successor (their
//! removals atomically unlink, so a dead node is unreachable and any
//! stale sighting is transient), but it is what lets traversals *repair*
//! a reachable dead node instead of retrying forever when a relaxed
//! backend (the E-STM compatibility mode's Fig. 1 composition bug) has
//! committed a redirect-less removal and permanently corrupted the
//! structure. See `listcore::find` for the repair protocol.
//!
//! # Layout
//!
//! A reference is a link payload ([`PAYLOAD_BITS`] = 27 bits): the dead
//! mark in bit 26 and the index in bits 0..26. So an arena a list links
//! through holds at most `INDEX_LIMIT` − 1 = 2^26 − 1 nodes (64 Mi, 1 GiB
//! of 16-byte list nodes), and [`NodeRef::node`] asserts it: an index past
//! the bound would alias the dead mark.

use stm_core::link::PAYLOAD_BITS;
use stm_core::Word;

/// The top payload bit marks the reference as the dead marker.
const DEAD_BIT: u64 = 1 << (PAYLOAD_BITS - 1);

/// Every node index is below this bound (the dead mark's bit).
pub(crate) const INDEX_LIMIT: u64 = DEAD_BIT;

/// A reference to an arena node: an index, null, or the dead marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef(u64);

impl NodeRef {
    /// The null reference (end of list).
    pub const NULL: NodeRef = NodeRef(0);

    /// The dead marker with a null successor. Equivalent to
    /// `NodeRef::dead(NodeRef::NULL)`; kept for call sites where the
    /// successor is genuinely the end of the list.
    pub const DEAD: NodeRef = NodeRef(DEAD_BIT);

    /// Reference to the node at `index`.
    ///
    /// # Panics
    /// If `index` is 0 or not below 2^26 (the arena outgrew what a link
    /// can name).
    #[must_use]
    pub fn node(index: u64) -> Self {
        assert!(
            index != 0 && index < INDEX_LIMIT,
            "node index {index} outside 1..2^26"
        );
        NodeRef(index)
    }

    /// The dead marker preserving `succ` as the unlinked node's successor:
    /// written into a removed node's `next` pointers so stale traversers
    /// cannot cross it, while still recording where the chain continued.
    /// `succ` must be null or a node reference (never itself dead).
    #[must_use]
    pub fn dead(succ: NodeRef) -> Self {
        debug_assert!(!succ.is_dead());
        NodeRef(DEAD_BIT | succ.0)
    }

    /// The successor preserved in a dead marker (only meaningful when
    /// [`is_dead`](Self::is_dead)): null or a node reference.
    #[must_use]
    pub fn successor(self) -> NodeRef {
        debug_assert!(self.is_dead());
        NodeRef(self.0 & !DEAD_BIT)
    }

    /// True for the null terminator.
    #[must_use]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// True for the dead marker.
    #[must_use]
    pub fn is_dead(self) -> bool {
        self.0 & DEAD_BIT != 0
    }

    /// True if this references an actual node.
    #[must_use]
    pub fn is_node(self) -> bool {
        !self.is_null() && !self.is_dead()
    }

    /// The arena index (only meaningful when [`is_node`](Self::is_node)).
    #[must_use]
    pub fn index(self) -> u64 {
        debug_assert!(self.is_node());
        self.0
    }
}

impl Word for NodeRef {
    #[inline(always)]
    fn into_word(self) -> u64 {
        self.0
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        NodeRef(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_dead_node_are_distinct() {
        assert!(NodeRef::NULL.is_null());
        assert!(!NodeRef::NULL.is_dead());
        assert!(!NodeRef::NULL.is_node());
        assert!(NodeRef::DEAD.is_dead());
        assert!(!NodeRef::DEAD.is_null());
        assert!(!NodeRef::DEAD.is_node());
        let n = NodeRef::node(42);
        assert!(n.is_node());
        assert_eq!(n.index(), 42);
    }

    #[test]
    fn word_roundtrip() {
        for r in [
            NodeRef::NULL,
            NodeRef::DEAD,
            NodeRef::node(7),
            NodeRef::dead(NodeRef::node(7)),
        ] {
            assert_eq!(NodeRef::from_word(r.into_word()), r);
        }
    }

    #[test]
    fn dead_markers_preserve_the_successor() {
        assert_eq!(NodeRef::dead(NodeRef::NULL), NodeRef::DEAD);
        assert_eq!(NodeRef::DEAD.successor(), NodeRef::NULL);
        let d = NodeRef::dead(NodeRef::node(42));
        assert!(d.is_dead());
        assert!(!d.is_node());
        assert!(!d.is_null());
        assert_eq!(d.successor(), NodeRef::node(42));
    }

    #[test]
    fn references_fit_a_link_payload() {
        let last = NodeRef::node(INDEX_LIMIT - 1);
        assert!(last.is_node());
        let dead = NodeRef::dead(last);
        assert!(dead.into_word() <= stm_core::link::PAYLOAD_MAX);
        assert_eq!(dead.successor(), last);
    }

    #[test]
    #[should_panic(expected = "outside 1..2^26")]
    fn an_index_past_the_bound_is_refused() {
        let _ = NodeRef::node(INDEX_LIMIT);
    }
}
