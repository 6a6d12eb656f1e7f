//! # OE-STM — Outheritance-Elastic Software Transactional Memory
//!
//! The paper's primary contribution (Section V): an STM whose transactions
//! may run under the *elastic* relaxed model of Felber, Gramoli & Guerraoui
//! (DISC 2009) and which nevertheless *composes*, because committing child
//! transactions pass their protected sets to their parent — the
//! **outheritance** property the paper proves necessary and sufficient for
//! weak composability (Theorems 4.3 and 4.4).
//!
//! ## Elastic transactions in one paragraph
//!
//! A search-structure operation (`contains`, `add`, `remove` over a list,
//! skip list, hash bucket…) spends most of its time traversing nodes it
//! will never care about again. A classic transaction protects that entire
//! traversal until commit, so any concurrent update to an already-traversed
//! node aborts it. An *elastic* transaction instead protects only a sliding
//! window of its most recent reads while it has not yet written: conflicts
//! on reads that slid out of the window are ignored ("the transaction
//! cuts itself into pieces"). From its first write on it behaves
//! classically. The minimal protected set of an update transaction is
//! therefore `{r_k .. r_n}` — first written location to last access — and
//! of a read-only one just the last read.
//!
//! ## Outheritance
//!
//! Composing elastic operations naively breaks atomicity: in Fig. 1 of the
//! paper, `insertIfAbsent(x, y) = contains(y); if absent insert(x)` built
//! from elastic children lets a concurrent `insert(y)` slip between the
//! check and the insert, because `contains(y)`'s protected set is released
//! when it (the child) commits. OE-STM fixes this with `outherit()`
//! (Fig. 4): at child commit the child's read set, last-read window entries
//! and write set are added to the parent's sets and released only when the
//! *parent* commits. This crate implements both behaviours:
//!
//! * [`OeStm::new`] — outheritance **on**: composition is safe (the
//!   paper's OE-STM);
//! * [`OeStm::estm_compat`] — outheritance **off**: child protected sets
//!   are released at child commit, reproducing the composition bug for
//!   demonstration and testing (the paper's un-modified E-STM).
//!
//! ## Example
//!
//! ```
//! use oe_stm::OeStm;
//! use stm_core::{Stm, Transaction, TVar, TxKind};
//!
//! let stm = OeStm::new();
//! let a = TVar::new(0i64);
//! let b = TVar::new(10i64);
//! // Compose two child transactions; outheritance keeps both atomic.
//! stm.run(TxKind::Elastic, |tx| {
//!     tx.child(TxKind::Elastic, |tx| {
//!         let v = tx.read(&a)?;
//!         tx.write(&a, v + 1)
//!     })?;
//!     tx.child(TxKind::Elastic, |tx| {
//!         let v = tx.read(&b)?;
//!         tx.write(&b, v - 1)
//!     })
//! });
//! assert_eq!(a.load_atomic(), 1);
//! assert_eq!(b.load_atomic(), 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod txn;
pub mod window;

pub use txn::OeTxn;

use stm_core::driver;
use stm_core::dynstm::{BackendRegistry, BackendSpec};
use stm_core::{Abort, Instance, RunError, Stm, StmConfig, TxKind};

/// Register this crate's backends: `"oe"` (outheritance on — the paper's
/// OE-STM) and `"oe-estm-compat"` (outheritance off — the E-STM baseline
/// that demonstrably breaks composition, kept for ablations).
pub fn register_backends(registry: &mut BackendRegistry) {
    registry.register(BackendSpec::new(
        "oe",
        "OE-STM: elastic transactions composed via outheritance (the paper)",
        |config| Box::new(OeStm::with_config(config)),
    ));
    registry.register(BackendSpec::new(
        "oe-estm-compat",
        "E-STM compatibility mode: elastic, no outheritance (Fig. 1 bug)",
        |config| Box::new(OeStm::estm_compat_with_config(config)),
    ));
}

/// The OE-STM instance.
///
/// See the [crate docs](crate) for the model. Construct with [`OeStm::new`]
/// (outheritance on) or [`OeStm::estm_compat`] (outheritance off, the
/// non-composable baseline used to demonstrate the paper's Fig. 1 bug).
pub struct OeStm {
    inst: Instance,
    outheritance: bool,
}

impl core::fmt::Debug for OeStm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("OeStm")
            .field("outheritance", &self.outheritance)
            .field("config", &self.inst.config)
            .finish()
    }
}

impl Default for OeStm {
    fn default() -> Self {
        Self::new()
    }
}

impl OeStm {
    /// OE-STM proper: elastic transactions with outheritance (composable).
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(StmConfig::default())
    }

    /// OE-STM with an explicit configuration.
    #[must_use]
    pub fn with_config(config: StmConfig) -> Self {
        Self {
            inst: Instance::new(config),
            outheritance: true,
        }
    }

    /// E-STM compatibility mode: elastic transactions **without**
    /// outheritance. Children release their protected sets when they
    /// commit, so compositions of elastic children are *not* atomic — this
    /// mode exists to reproduce and test the failure the paper fixes.
    #[must_use]
    pub fn estm_compat() -> Self {
        let mut stm = Self::new();
        stm.outheritance = false;
        stm
    }

    /// E-STM compatibility mode with an explicit configuration.
    #[must_use]
    pub fn estm_compat_with_config(config: StmConfig) -> Self {
        let mut stm = Self::with_config(config);
        stm.outheritance = false;
        stm
    }

    /// Whether children outherit their protected sets (true for OE-STM,
    /// false for E-STM compatibility mode).
    #[must_use]
    pub fn outheritance(&self) -> bool {
        self.outheritance
    }
}

impl Stm for OeStm {
    type Txn<'env> = OeTxn<'env>;

    fn name(&self) -> &'static str {
        if self.outheritance {
            "OE-STM"
        } else {
            "E-STM"
        }
    }

    fn instance(&self) -> &Instance {
        &self.inst
    }

    fn try_run<'env, R>(
        &'env self,
        kind: TxKind,
        f: impl FnMut(&mut Self::Txn<'env>) -> Result<R, Abort>,
    ) -> Result<R, RunError> {
        driver::run(&mut OeTxn::begin(self, kind), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::{AbortReason, TVar, Transaction};

    #[test]
    fn read_your_own_write() {
        let stm = OeStm::new();
        let v = TVar::new(1u64);
        let out = stm.run(TxKind::Elastic, |tx| {
            tx.write(&v, 5)?;
            tx.read(&v)
        });
        assert_eq!(out, 5);
        assert_eq!(v.load_atomic(), 5);
    }

    #[test]
    fn elastic_prefix_conflicts_are_ignored() {
        // Traverse three locations elastically; overwrite the first after
        // it slid out of the window; the transaction must still commit.
        let stm = OeStm::new();
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let c = TVar::new(3u64);
        let d = TVar::new(0u64);
        stm.run(TxKind::Elastic, |tx| {
            let ra = tx.read(&a)?;
            let rb = tx.read(&b)?;
            // `a` slides out of the (size 2) window here.
            let rc = tx.read(&c)?;
            // Concurrent writer hits `a` — a *prefix* conflict.
            let nv = stm.clock().tick();
            a.store_atomic(99, nv);
            tx.write(&d, ra + rb + rc)
        });
        assert_eq!(d.load_atomic(), 6);
        assert_eq!(
            stm.stats().aborts(),
            0,
            "prefix conflict must not abort an elastic transaction"
        );
    }

    #[test]
    fn regular_transaction_aborts_on_same_conflict() {
        // The same interleaving as above but with a Regular transaction:
        // classic semantics must abort (read validation at commit).
        let stm = OeStm::new();
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let c = TVar::new(3u64);
        let d = TVar::new(0u64);
        let mut sabotage = true;
        stm.run(TxKind::Regular, |tx| {
            let ra = tx.read(&a)?;
            let rb = tx.read(&b)?;
            let rc = tx.read(&c)?;
            if sabotage {
                sabotage = false;
                let nv = stm.clock().tick();
                a.store_atomic(99, nv);
            }
            tx.write(&d, ra + rb + rc)
        });
        assert!(stm.stats().aborts() >= 1, "classic mode must conflict");
        // Retry reads the new value of a: 99 + 2 + 3.
        assert_eq!(d.load_atomic(), 104);
    }

    #[test]
    fn elastic_window_conflict_aborts() {
        // A conflict on a read still *inside* the window is NOT relaxed.
        let stm = OeStm::new();
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let d = TVar::new(0u64);
        let mut sabotage = true;
        stm.run(TxKind::Elastic, |tx| {
            let ra = tx.read(&a)?;
            let rb = tx.read(&b)?; // window = {a, b}
            if sabotage {
                sabotage = false;
                let nv = stm.clock().tick();
                b.store_atomic(99, nv); // b is still windowed
            }
            // Next read needs a snapshot advance, which validates the
            // window and must fail.
            let _ = tx.read(&d)?;
            tx.write(&d, ra + rb)
        });
        assert!(
            stm.stats().aborts_by_cause[AbortReason::ElasticCut.index()] >= 1,
            "windowed conflict must abort the elastic transaction"
        );
        assert_eq!(d.load_atomic(), 1 + 99);
    }

    #[test]
    fn hardening_protects_post_write_reads() {
        // After the first write, an elastic transaction is classic: a
        // conflict on any post-write read aborts it.
        let stm = OeStm::new();
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let c = TVar::new(3u64);
        let out = TVar::new(0u64);
        let mut sabotage = true;
        stm.run(TxKind::Elastic, |tx| {
            let ra = tx.read(&a)?;
            tx.write(&out, ra)?; // hardens here
            let rb = tx.read(&b)?;
            let _rc = tx.read(&c)?;
            if sabotage {
                sabotage = false;
                let nv = stm.clock().tick();
                b.store_atomic(99, nv); // b was read after hardening
            }
            tx.write(&out, ra + rb)
        });
        assert!(stm.stats().aborts() >= 1);
        assert_eq!(out.load_atomic(), 1 + 99);
    }

    #[test]
    fn outherited_child_reads_stay_protected() {
        // Fig. 1 scenario, abstract version: child 1 reads y; between the
        // children a concurrent writer changes y; child 2 writes x. With
        // outheritance the parent must abort and retry.
        let stm = OeStm::new();
        let y = TVar::new(0u64);
        let x = TVar::new(0u64);
        let mut sabotage = true;
        let observed = stm.run(TxKind::Elastic, |tx| {
            let ry = tx.child(TxKind::Elastic, |tx| tx.read(&y))?;
            if sabotage {
                sabotage = false;
                let nv = stm.clock().tick();
                y.store_atomic(1, nv);
            }
            tx.child(TxKind::Elastic, |tx| tx.write(&x, 10 + ry))?;
            Ok(ry)
        });
        // The retry observes y = 1; the stale first attempt aborted.
        assert_eq!(observed, 1);
        assert_eq!(x.load_atomic(), 11);
        assert!(stm.stats().aborts() >= 1, "stale composition must abort");
        assert!(stm.stats().outherits >= 1);
    }

    #[test]
    fn estm_compat_loses_child_protection() {
        // Same scenario, outheritance disabled: the parent commits without
        // noticing the overwrite of y — the Fig. 1 atomicity violation.
        let stm = OeStm::estm_compat();
        let y = TVar::new(0u64);
        let x = TVar::new(0u64);
        let mut sabotage = true;
        let observed = stm.run(TxKind::Elastic, |tx| {
            let ry = tx.child(TxKind::Elastic, |tx| tx.read(&y))?;
            if sabotage {
                sabotage = false;
                let nv = stm.clock().tick();
                y.store_atomic(1, nv);
            }
            tx.child(TxKind::Elastic, |tx| tx.write(&x, 10 + ry))?;
            Ok(ry)
        });
        assert_eq!(observed, 0, "E-STM commits against the stale read of y");
        assert_eq!(x.load_atomic(), 10);
        assert_eq!(stm.stats().aborts(), 0, "the violation goes unnoticed");
    }

    #[test]
    fn read_only_composition_revalidates_outherited_reads() {
        // Neither child writes, yet the overwrite of y between them must
        // still abort the parent: the first child's window passed to the
        // parent, which validates it at commit.
        let stm = OeStm::new();
        let (y, z) = (TVar::new(0u64), TVar::new(0u64));
        let mut sabotage = true;
        let observed = stm.run(TxKind::Elastic, |tx| {
            let ry = tx.child(TxKind::Elastic, |tx| tx.read(&y))?;
            if sabotage {
                sabotage = false;
                let nv = stm.clock().tick();
                y.store_atomic(1, nv);
            }
            tx.child(TxKind::Elastic, |tx| tx.read(&z))?;
            Ok(ry)
        });
        assert_eq!(observed, 1, "the retry observes the overwrite");
        let snap = stm.stats();
        assert_eq!((snap.commits, snap.aborts()), (1, 1));
        assert_eq!(
            snap.aborts_by_cause[AbortReason::ReadValidation.index()],
            1,
            "caught by the commit-time validation"
        );
    }

    #[test]
    fn estm_compat_read_only_composition_misses_the_overwrite() {
        // The same composition with outheritance disabled: the first
        // child's protection was released at its commit, so nothing is
        // left for the parent to validate.
        let stm = OeStm::estm_compat();
        let (y, z) = (TVar::new(0u64), TVar::new(0u64));
        let mut sabotage = true;
        let observed = stm.run(TxKind::Elastic, |tx| {
            let ry = tx.child(TxKind::Elastic, |tx| tx.read(&y))?;
            if sabotage {
                sabotage = false;
                let nv = stm.clock().tick();
                y.store_atomic(1, nv);
            }
            tx.child(TxKind::Elastic, |tx| tx.read(&z))?;
            Ok(ry)
        });
        assert_eq!(observed, 0, "E-STM commits against the stale read of y");
        assert_eq!(stm.stats().aborts(), 0);
    }

    #[test]
    fn child_results_compose_sequentially() {
        let stm = OeStm::new();
        let a = TVar::new(5u64);
        let b = TVar::new(7u64);
        let sum = stm.run(TxKind::Elastic, |tx| {
            let ra = tx.child(TxKind::Elastic, |tx| tx.read(&a))?;
            let rb = tx.child(TxKind::Elastic, |tx| tx.read(&b))?;
            Ok(ra + rb)
        });
        assert_eq!(sum, 12);
        assert_eq!(stm.stats().child_commits, 2);
    }

    #[test]
    fn nested_children_outherit_transitively() {
        let stm = OeStm::new();
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        stm.run(TxKind::Elastic, |tx| {
            tx.child(TxKind::Elastic, |tx| {
                tx.child(TxKind::Elastic, |tx| tx.write(&a, 1))?;
                tx.write(&b, 2)
            })
        });
        assert_eq!((a.load_atomic(), b.load_atomic()), (1, 2));
        // Two child commits (inner and outer), each outheriting.
        assert_eq!(stm.stats().child_commits, 2);
        assert_eq!(stm.stats().outherits, 2);
    }

    #[test]
    fn concurrent_counter_increments_are_not_lost() {
        use std::sync::Arc;
        let stm = Arc::new(OeStm::new());
        let counter = Arc::new(TVar::new(0u64));
        let threads = stm_core::parallel::worker_threads(4) as u64;
        let per_thread = 500u64;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let stm = Arc::clone(&stm);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..per_thread {
                    stm.run(TxKind::Elastic, |tx| {
                        let c = tx.read(&*counter)?;
                        tx.write(&*counter, c + 1)
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load_atomic(), threads * per_thread);
    }

    #[test]
    fn every_cm_policy_recovers_elastic_window_conflicts() {
        // A windowed conflict (not relaxable) must retry to success in
        // elastic mode, with the elastic-cut aborts filed as conflicts and
        // every one paced.
        let stm = OeStm::new();
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let d = TVar::new(0u64);
        let mut sabotage_left = 2;
        stm.run(TxKind::Elastic, |tx| {
            let ra = tx.read(&a)?;
            let rb = tx.read(&b)?; // window = {a, b}
            if sabotage_left > 0 {
                sabotage_left -= 1;
                let nv = stm.clock().tick();
                b.store_atomic(rb + 10, nv); // b is still windowed
            }
            let _ = tx.read(&d)?; // snapshot advance validates the window
            tx.write(&d, ra + rb)
        });
        let snap = stm.stats();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.aborts(), 2);
        assert!(
            snap.aborts_by_cause[AbortReason::ElasticCut.index()] >= 1,
            "the windowed conflict must cut"
        );
        assert_eq!(snap.explicit_retries(), 0);
        assert_eq!(snap.cm_waits(), 2, "every abort is paced");
    }

    #[test]
    fn names_reflect_mode() {
        assert_eq!(OeStm::new().name(), "OE-STM");
        assert_eq!(OeStm::estm_compat().name(), "E-STM");
    }
}
