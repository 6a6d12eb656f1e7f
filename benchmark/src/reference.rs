//! Benchmark-owned references: the STM-free implementations the
//! workloads are normalised against, and the models the output checks
//! compare with.
//!
//! They live here, not in the repo's crates, so that no change to the
//! program can move a denominator of `speedup_vs_ref` or an oracle.

use crate::ops::{KvOp, SetOp};
use durable::Vfs;
use std::collections::HashMap;
use std::io;

/// A sequential set of `i64` keys; [`apply`](RefSet::apply) runs one
/// [`SetOp`] and returns its result as a word.
pub trait RefSet {
    /// Membership test.
    fn contains(&self, key: i64) -> bool;
    /// Insert; `false` if present.
    fn add(&mut self, key: i64) -> bool;
    /// Remove; `false` if absent.
    fn remove(&mut self, key: i64) -> bool;
    /// Element count.
    fn len(&self) -> usize;

    /// Whether the set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run `op`; composed operations report whether the set changed.
    fn apply(&mut self, op: SetOp) -> u64 {
        u64::from(match op {
            SetOp::Contains(v) => self.contains(v),
            SetOp::Add(v) => self.add(v),
            SetOp::Remove(v) => self.remove(v),
            SetOp::AddAll(v) => {
                let mut changed = false;
                for k in SetOp::pair(v) {
                    changed |= self.add(k);
                }
                changed
            }
            SetOp::RemoveAll(v) => {
                let mut changed = false;
                for k in SetOp::pair(v) {
                    changed |= self.remove(k);
                }
                changed
            }
        })
    }
}

/// The hash-structure reference of the cost ladder.
impl RefSet for std::collections::HashSet<i64> {
    fn contains(&self, key: i64) -> bool {
        std::collections::HashSet::contains(self, &key)
    }
    fn add(&mut self, key: i64) -> bool {
        self.insert(key)
    }
    fn remove(&mut self, key: i64) -> bool {
        std::collections::HashSet::remove(self, &key)
    }
    fn len(&self) -> usize {
        std::collections::HashSet::len(self)
    }
}

/// One of the repo's own sequential sets (`cec::seq`) behind the
/// reference interface: the ladder's second rung, and what the list
/// reference is tested against.
pub struct CecSeq<T>(pub T);

impl<T: cec::seq::SeqSet> RefSet for CecSeq<T> {
    fn contains(&self, key: i64) -> bool {
        self.0.contains(key)
    }
    fn add(&mut self, key: i64) -> bool {
        self.0.add(key)
    }
    fn remove(&mut self, key: i64) -> bool {
        self.0.remove(key)
    }
    fn len(&self) -> usize {
        self.0.size()
    }
}

const NIL: u32 = u32::MAX;

/// 32 bytes, like `cec`'s `ListNode` (two `TVar`s): the reference then
/// misses the caches where the workload does, so that interference from
/// the host's other tenants slows both alike.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
struct Node {
    key: i64,
    next: u32,
}

/// The timed `sets-list` reference: a sorted singly linked list over an
/// index arena with a free list — the same shape as `cec`'s
/// transactional list (linear traversal, node reuse), minus every
/// transactional word.
#[derive(Debug)]
pub struct RefList {
    nodes: Vec<Node>,
    head: u32,
    free: u32,
    len: usize,
}

impl Default for RefList {
    fn default() -> Self {
        Self::new()
    }
}

impl RefList {
    /// An empty list.
    #[must_use]
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            head: NIL,
            free: NIL,
            len: 0,
        }
    }

    /// `(pred, curr)` where `curr` is the first node with key `>= key`.
    fn locate(&self, key: i64) -> (u32, u32) {
        let (mut pred, mut curr) = (NIL, self.head);
        while curr != NIL && self.nodes[curr as usize].key < key {
            pred = curr;
            curr = self.nodes[curr as usize].next;
        }
        (pred, curr)
    }

    fn link(&mut self, pred: u32, to: u32) {
        if pred == NIL {
            self.head = to;
        } else {
            self.nodes[pred as usize].next = to;
        }
    }
}

impl RefSet for RefList {
    fn contains(&self, key: i64) -> bool {
        let (_, curr) = self.locate(key);
        curr != NIL && self.nodes[curr as usize].key == key
    }

    fn add(&mut self, key: i64) -> bool {
        let (pred, curr) = self.locate(key);
        if curr != NIL && self.nodes[curr as usize].key == key {
            return false;
        }
        let node = Node { key, next: curr };
        let idx = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("reference list outgrew u32 indices")
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        self.link(pred, idx);
        self.len += 1;
        true
    }

    fn remove(&mut self, key: i64) -> bool {
        let (pred, curr) = self.locate(key);
        if curr == NIL || self.nodes[curr as usize].key != key {
            return false;
        }
        let next = self.nodes[curr as usize].next;
        self.link(pred, next);
        self.nodes[curr as usize].next = self.free;
        self.free = curr;
        self.len -= 1;
        true
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// The `sets-list` oracle: one presence flag per key of the range. O(1)
/// per operation, so checking every return value costs the run nothing.
#[derive(Debug)]
pub struct SetModel {
    present: Vec<bool>,
    len: usize,
}

impl SetModel {
    /// An empty model over keys `0..=range`.
    #[must_use]
    pub fn new(range: i64) -> Self {
        Self {
            present: vec![false; range as usize + 1],
            len: 0,
        }
    }
}

impl RefSet for SetModel {
    fn contains(&self, key: i64) -> bool {
        self.present[key as usize]
    }

    fn add(&mut self, key: i64) -> bool {
        let was = std::mem::replace(&mut self.present[key as usize], true);
        self.len += usize::from(!was);
        !was
    }

    fn remove(&mut self, key: i64) -> bool {
        let was = std::mem::replace(&mut self.present[key as usize], false);
        self.len -= usize::from(was);
        was
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Encode an optional value into one word (values stay below 2^62, see
/// `ops::kv_ops`).
#[must_use]
pub fn enc(value: Option<u64>) -> u64 {
    value.map_or(0, |v| (v << 1) | 1)
}

/// The `kv-*` reference and oracle: the standard library's hash map.
#[derive(Debug, Default)]
pub struct RefKv {
    map: HashMap<u16, u64>,
}

impl RefKv {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of present keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no key is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The value of `key`, if present.
    #[must_use]
    pub fn get(&self, key: u16) -> Option<u64> {
        self.map.get(&key).copied()
    }

    /// Upsert, as the prefill does.
    pub fn set(&mut self, key: u16, value: u64) -> Option<u64> {
        self.map.insert(key, value)
    }

    /// Run `op` and return its result as a word: the previous/read value
    /// ([`enc`]) for GET/SET/DEL, success for CAS, keys changed for MULTI.
    pub fn apply(&mut self, op: KvOp) -> u64 {
        match op {
            KvOp::Get(k) => enc(self.get(k)),
            KvOp::Set(k, v) => enc(self.map.insert(k, v)),
            KvOp::Cas(k, v) => {
                // Single-threaded, the value read is still current.
                self.map.insert(k, v);
                1
            }
            KvOp::Del(k) => enc(self.map.remove(&k)),
            KvOp::Multi(keys) => {
                for k in keys {
                    let slot = self.map.entry(k).or_insert(0);
                    *slot = slot.wrapping_add(1);
                }
                keys.len() as u64
            }
        }
    }
}

/// File the `kv-durable` reference appends to, beside the store's WAL.
pub const RAW_LOG_FILE: &str = "reference.log";

/// The `kv-durable` reference: `n` raw `append` + `sync` of one 44-byte
/// record (the mean WAL record of that workload) on a second file. It
/// shares the disk, and so the disk's noise, with the store.
///
/// # Errors
/// Propagates the first IO error.
pub fn raw_log_slice(vfs: &dyn Vfs, n: usize) -> io::Result<()> {
    let record = [0xA5u8; 44];
    for _ in 0..n {
        vfs.append(RAW_LOG_FILE, &record)?;
        vfs.sync(RAW_LOG_FILE)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{self, SET_RANGE};
    use cec::seq::SeqLinkedListSet;

    #[test]
    fn list_reference_model_and_cec_seq_agree_on_a_seeded_stream() {
        let mut list = RefList::new();
        let mut model = SetModel::new(SET_RANGE);
        let mut cec = CecSeq(SeqLinkedListSet::new());
        for (i, op) in ops::set_ops(42, 10_000).into_iter().enumerate() {
            let want = cec.apply(op);
            assert_eq!(list.apply(op), want, "list reference, op {i}: {op:?}");
            assert_eq!(model.apply(op), want, "set model, op {i}: {op:?}");
        }
        assert_eq!(list.len(), cec.len());
        assert_eq!(model.len(), cec.len());
        assert!(!list.is_empty());
    }

    #[test]
    fn list_reference_reuses_freed_nodes() {
        let mut list = RefList::new();
        for k in 1..=8 {
            assert!(list.add(k));
        }
        for k in 1..=8 {
            assert!(list.remove(k));
        }
        for k in 1..=8 {
            assert!(list.add(k * 10));
        }
        assert_eq!(list.nodes.len(), 8, "no growth past the high-water mark");
        assert_eq!(list.len(), 8);
    }

    #[test]
    fn kv_reference_results_encode_presence() {
        let mut kv = RefKv::new();
        assert_eq!(kv.apply(KvOp::Get(3)), 0);
        assert_eq!(kv.apply(KvOp::Set(3, 5)), 0);
        assert_eq!(kv.apply(KvOp::Set(3, 6)), enc(Some(5)));
        assert_eq!(kv.apply(KvOp::Multi([3, 3, 4, 9])), 4);
        assert_eq!(kv.apply(KvOp::Get(3)), enc(Some(8)));
        assert_eq!(kv.apply(KvOp::Del(4)), enc(Some(1)));
        assert_eq!(kv.apply(KvOp::Cas(4, 7)), 1);
        assert_eq!(kv.len(), 3);
        assert_ne!(enc(Some(0)), enc(None));
    }
}
