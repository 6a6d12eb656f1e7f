//! Property-based tests for the stm-core data structures: the write set
//! against a model map, read-set validation against brute-force
//! re-checking, word roundtrips, and lock-word encode/decode laws.

use proptest::prelude::*;
use std::collections::HashMap;
use stm_core::bloom::Bloom;
use stm_core::readset::ReadSet;
use stm_core::vlock::{LockState, VLock};
use stm_core::writeset::WriteSet;
use stm_core::{Loc, TVar, Word};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// WriteSet::insert / lookup behave like a map keyed by location.
    #[test]
    fn writeset_matches_model_map(ops in prop::collection::vec((0usize..24, any::<u64>()), 0..120)) {
        let vars: Vec<TVar<u64>> = (0..24).map(|_| TVar::new(0)).collect();
        let mut ws = WriteSet::new();
        let mut model: HashMap<usize, u64> = HashMap::new();
        for (i, v) in ops {
            ws.insert(Loc::Var(vars[i].core()), v);
            model.insert(i, v);
        }
        prop_assert_eq!(ws.len(), model.len());
        for (i, var) in vars.iter().enumerate() {
            prop_assert_eq!(ws.lookup(Loc::Var(var.core())), model.get(&i).copied());
        }
    }

    /// After lock_all + write_back, every buffered value is visible and
    /// every lock is released at the commit version.
    #[test]
    fn writeset_commit_publishes_all(values in prop::collection::vec(any::<u64>(), 1..20)) {
        let vars: Vec<TVar<u64>> = values.iter().map(|_| TVar::new(0)).collect();
        let mut ws = WriteSet::new();
        for (var, &v) in vars.iter().zip(&values) {
            ws.insert(Loc::Var(var.core()), v);
        }
        ws.lock_all(7).unwrap();
        ws.write_back_and_release(42);
        for (var, &v) in vars.iter().zip(&values) {
            let (word, ver) = var.core().read_consistent().unwrap();
            prop_assert_eq!(word, v);
            prop_assert_eq!(ver, 42);
        }
    }

    /// ReadSet::validate is exactly "every entry's current version equals
    /// the recorded one" for unlocked locations.
    #[test]
    fn readset_validation_matches_bruteforce(
        reads in prop::collection::vec(0usize..16, 1..40),
        bumps in prop::collection::vec(0usize..16, 0..8),
    ) {
        let vars: Vec<TVar<u64>> = (0..16).map(|_| TVar::new(0)).collect();
        let mut rs = ReadSet::new();
        for &i in &reads {
            let (_, ver) = vars[i].core().read_consistent().unwrap();
            rs.push(Loc::Var(vars[i].core()), ver);
        }
        // Bump some versions (simulating foreign commits).
        for (n, &i) in bumps.iter().enumerate() {
            vars[i].store_atomic(9, (n + 1) as u64);
        }
        let expected = reads.iter().all(|i| !bumps.contains(i));
        prop_assert_eq!(rs.validate(None, |_| None), expected);
    }

    /// Bloom filters never produce false negatives.
    #[test]
    fn bloom_has_no_false_negatives(ids in prop::collection::vec(any::<usize>(), 0..200)) {
        let mut b = Bloom::new();
        for &id in &ids {
            b.insert(id);
        }
        for &id in &ids {
            prop_assert!(b.may_contain(id));
        }
    }

    /// Lock words decode to what was encoded.
    #[test]
    fn vlock_lock_cycle_preserves_versions(v1 in 0u64..u64::MAX / 4, owner in 1u64..u64::MAX / 4) {
        let l = VLock::new(0);
        prop_assert!(l.try_lock_at(0, owner));
        prop_assert_eq!(l.load(), LockState::Locked { owner });
        l.unlock_to(v1);
        prop_assert_eq!(l.load(), LockState::Unlocked { version: v1 });
    }

    /// Word roundtrips for every implemented type.
    #[test]
    fn word_roundtrips(x in any::<i64>(), y in any::<u32>(), z in any::<bool>()) {
        prop_assert_eq!(i64::from_word(x.into_word()), x);
        prop_assert_eq!(u32::from_word(y.into_word()), y);
        prop_assert_eq!(bool::from_word(z.into_word()), z);
        prop_assert_eq!(u64::from_word((x as u64).into_word()), x as u64);
    }
}
