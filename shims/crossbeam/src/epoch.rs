// lint:hot-path
//! Epoch-based deferred execution: per-thread announced epochs.
//!
//! Every thread owns one *slot* holding the epoch it is pinned at, or
//! `IDLE`. [`pin`] announces the current global epoch in the slot;
//! [`Guard::defer`] tags its closure with the global epoch and advances
//! it; a closure runs once its tag is below every announced epoch.
//! Pinning and unpinning touch the thread's own slot and read the global
//! epoch — no lock, no allocation; the registry lock is taken only to
//! defer, to collect, and when a thread first pins or exits. A guard
//! collects when it unpins only if the epoch moved while it was pinned:
//! then some closure was deferred under it and may have been waiting for
//! it. The last such guard to drop finds that closure ripe, so closures
//! run promptly without anyone polling an unchanged queue.
//!
//! # Why a pinned reader is never overtaken
//!
//! A reader R pins (`slot = e`, then a `SeqCst` fence) and only then loads
//! shared pointers. A writer W unlinks a node, then defers its reuse: a
//! `SeqCst` `fetch_add` on the epoch returns the tag `t`. A collector C
//! (any thread, ordered after W's push by the registry lock) issues a
//! `SeqCst` fence and then loads every slot.
//!
//! * If C reads R's announcement, it sees `e`. Either `e <= t` and the
//!   closure stays queued, or `e > t`: R read an epoch that W's
//!   `fetch_add` had already advanced, so R's fence synchronises with that
//!   release RMW and every load R makes afterwards sees the unlink — R
//!   cannot reach the node.
//! * If C reads a value older than R's announcement, C's fence precedes
//!   R's in the single order of `SeqCst` fences, and the unlink
//!   happens-before C's fence: again every load after R's fence sees the
//!   unlink.
//!
//! Unpinning is a `Release` store of `IDLE` that C's `Acquire` load
//! pairs with, so everything R did with the node happens-before the
//! closure that recycles it. The relaxed epoch reads can only err towards
//! waiting: a stale one at pin time makes the announcement older, and a
//! stale one at unpin time skips a collection, leaving the closure to the
//! next guard that sees a deferral (or to [`Guard::flush`]); neither frees
//! early.

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

type Deferred = Box<dyn FnOnce() + Send>;

/// Slot value of a thread that is not pinned; above every epoch, so an
/// idle thread never holds a closure back.
const IDLE: u64 = u64::MAX;

/// The global epoch: read by `pin`, advanced by every `defer`.
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// One thread's announced epoch, on a cache line of its own.
#[derive(Debug)]
#[repr(align(128))]
struct Slot(AtomicU64);

struct Registry {
    /// The slot of every live thread that has pinned at least once.
    slots: Vec<Arc<Slot>>,
    /// Queued closures in tag order (tags are drawn under the lock).
    pending: VecDeque<(u64, Deferred)>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    slots: Vec::new(),
    pending: VecDeque::new(),
});

fn registry() -> MutexGuard<'static, Registry> {
    // A panic under the lock can only interrupt a push or a pop, either of
    // which leaves both collections valid.
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// A thread's side of the protocol. Shared (`Rc`) between the
/// thread-local handle and the thread's live guards, so a guard that
/// outlives the thread-local — one dropped from another thread-local's
/// destructor — still unpins the slot it pinned.
#[derive(Debug)]
struct Local {
    slot: Arc<Slot>,
    /// Live guards of this thread; the slot is announced at 0 -> 1 and
    /// cleared at 1 -> 0, so nested guards keep the outer epoch.
    depth: Cell<usize>,
}

impl Local {
    fn register() -> Rc<Self> {
        let slot = Arc::new(Slot(AtomicU64::new(IDLE)));
        registry().slots.push(Arc::clone(&slot));
        Rc::new(Self {
            slot,
            depth: Cell::new(0),
        })
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        registry().slots.retain(|s| !Arc::ptr_eq(s, &self.slot));
    }
}

thread_local! {
    static LOCAL: Rc<Local> = Local::register();
}

/// Run every queued closure whose tag is below all announced epochs.
/// The closures run after the lock is released (one may pin or defer).
fn collect() {
    let ready: Vec<Deferred> = {
        let mut reg = registry();
        fence(Ordering::SeqCst);
        let min = reg
            .slots
            .iter()
            .map(|s| s.0.load(Ordering::Acquire))
            .min()
            .unwrap_or(IDLE);
        let ripe = reg.pending.partition_point(|(tag, _)| *tag < min);
        reg.pending.drain(..ripe).map(|(_, f)| f).collect()
    };
    for f in ready {
        f();
    }
}

/// A pinned-thread witness. While alive, deferred functions scheduled
/// after it was pinned (by any thread) will not run. Not `Send`: it
/// unpins the slot of the thread that pinned it.
///
/// ```compile_fail
/// fn assert_send<T: Send>(_: T) {}
/// assert_send(crossbeam::epoch::pin());
/// ```
#[derive(Debug)]
pub struct Guard {
    local: Rc<Local>,
}

/// Pin the current thread, returning a guard.
#[inline]
#[must_use]
pub fn pin() -> Guard {
    // During thread teardown the handle may already be gone; a one-off
    // registration keeps the contract.
    let local = LOCAL
        .try_with(Rc::clone)
        .unwrap_or_else(|_| Local::register());
    let depth = local.depth.get();
    if depth == 0 {
        local
            .slot
            .0
            .store(EPOCH.load(Ordering::Relaxed), Ordering::Relaxed);
        fence(Ordering::SeqCst);
    }
    local.depth.set(depth + 1);
    Guard { local }
}

impl Guard {
    /// Schedule `f` to run once every currently pinned guard
    /// (including this one) has been dropped.
    pub fn defer<F: FnOnce() + Send + 'static>(&self, f: F) {
        let mut reg = registry();
        let tag = EPOCH.fetch_add(1, Ordering::SeqCst);
        reg.pending.push_back((tag, Box::new(f))); // lint:allow — retirement path only, never pin/unpin
    }

    /// Give the collector an opportunity to run ripe deferred
    /// functions (those not blocked by this or other guards).
    pub fn flush(&self) {
        collect();
    }
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        let depth = self.local.depth.get() - 1;
        self.local.depth.set(depth);
        if depth == 0 {
            let slot = &self.local.slot.0;
            let pinned_at = slot.load(Ordering::Relaxed);
            slot.store(IDLE, Ordering::Release);
            if EPOCH.load(Ordering::Relaxed) != pinned_at {
                collect();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    /// The epoch and the registry are process-global, so tests asserting
    /// on exact collection timing must not overlap each other's pins.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// A flag and a closure that raises it.
    fn flag() -> (Arc<AtomicBool>, impl FnOnce() + Send + 'static) {
        let ran = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&ran);
        (ran, move || r.store(true, Ordering::SeqCst))
    }

    #[test]
    fn deferred_runs_only_after_unpin() {
        let _serial = serial();
        let (ran, f) = flag();
        let g = pin();
        g.defer(f);
        g.flush();
        assert!(!ran.load(Ordering::SeqCst), "ran while still pinned");
        drop(g);
        // Collection is triggered by the drop itself.
        assert!(ran.load(Ordering::SeqCst), "never ran after unpin");
    }

    #[test]
    fn nested_guards_keep_the_outer_epoch() {
        let _serial = serial();
        let (ran, f) = flag();
        let outer = pin();
        outer.defer(f);
        // A nested pin must not re-announce the (now newer) epoch.
        let inner = pin();
        inner.flush();
        assert!(!ran.load(Ordering::SeqCst), "inner pin moved the epoch");
        drop(inner);
        assert!(
            !ran.load(Ordering::SeqCst),
            "inner unpin cleared the outer announcement"
        );
        drop(outer);
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn deferred_blocked_by_other_guard() {
        let _serial = serial();
        let (ran, f) = flag();
        let blocker = pin();
        let g = pin();
        g.defer(f);
        drop(g);
        assert!(
            !ran.load(Ordering::SeqCst),
            "ran while a pre-defer guard was still pinned"
        );
        drop(blocker);
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn later_pins_do_not_block_older_deferrals() {
        let _serial = serial();
        let (ran, f) = flag();
        let g = pin();
        g.defer(f);
        drop(g);
        let late = pin();
        late.flush();
        assert!(
            ran.load(Ordering::SeqCst),
            "a pin taken after the deferral must not block it"
        );
        drop(late);
    }

    #[test]
    fn guard_on_another_thread_blocks_until_it_unpins() {
        let _serial = serial();
        let (ran, f) = flag();
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (deferred_tx, deferred_rx) = mpsc::channel::<()>();
        let a = std::thread::spawn(move || {
            let g = pin();
            pinned_tx.send(()).unwrap();
            deferred_rx.recv().unwrap();
            // Unpinning with closures queued collects on this thread.
            drop(g);
        });
        pinned_rx.recv().unwrap();
        let g = pin();
        g.defer(f);
        drop(g);
        assert!(
            !ran.load(Ordering::SeqCst),
            "ran while a guard pinned on another thread before the deferral was alive"
        );
        deferred_tx.send(()).unwrap();
        a.join().unwrap();
        assert!(ran.load(Ordering::SeqCst), "the last unpin must collect");
    }

    #[test]
    fn pin_on_another_thread_after_the_deferral_does_not_block() {
        let _serial = serial();
        let (ran, f) = flag();
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let g = pin();
        g.defer(f);
        let a = std::thread::spawn(move || {
            let late = pin();
            pinned_tx.send(()).unwrap();
            done_rx.recv().unwrap();
            drop(late);
        });
        pinned_rx.recv().unwrap();
        drop(g);
        assert!(
            ran.load(Ordering::SeqCst),
            "a guard pinned after the deferral held it back"
        );
        done_tx.send(()).unwrap();
        a.join().unwrap();
    }

    /// Address of the slot `guard` pins, to look for in the registry.
    /// (Counting slots instead would race with the teardown of earlier
    /// tests' threads, which `SERIAL` does not cover.)
    fn slot_of(guard: &Guard) -> usize {
        Arc::as_ptr(&guard.local.slot) as usize
    }

    fn registered(slot: usize) -> bool {
        registry()
            .slots
            .iter()
            .any(|s| Arc::as_ptr(s) as usize == slot)
    }

    #[test]
    fn exiting_thread_neither_loses_nor_leaks_its_deferrals() {
        let _serial = serial();
        let (ran, f) = flag();
        let blocker = pin();
        let slot = std::thread::spawn(move || {
            let g = pin();
            g.defer(f);
            assert!(registered(slot_of(&g)));
            slot_of(&g)
        })
        .join()
        .unwrap();
        assert!(
            !registered(slot),
            "an exited thread's slot must leave the registry"
        );
        assert!(!ran.load(Ordering::SeqCst), "ran under the blocker");
        drop(blocker);
        assert!(
            ran.load(Ordering::SeqCst),
            "a deferral outlives the thread that made it"
        );
    }

    type OnExit = Box<dyn FnOnce(&Guard) + Send>;

    /// From its destructor: drops the guard it was handed while the
    /// thread ran, then pins and hands that guard to `on_exit`.
    struct AtExit {
        held: RefCell<Option<Guard>>,
        on_exit: RefCell<Option<OnExit>>,
    }

    impl AtExit {
        const fn new() -> Self {
            Self {
                held: RefCell::new(None),
                on_exit: RefCell::new(None),
            }
        }
    }

    impl Drop for AtExit {
        fn drop(&mut self) {
            drop(self.held.borrow_mut().take());
            let g = pin();
            if let Some(f) = self.on_exit.borrow_mut().take() {
                f(&g);
            }
        }
    }

    #[test]
    fn guards_work_during_thread_local_teardown() {
        thread_local! {
            static BEFORE: AtExit = const { AtExit::new() };
            static AFTER: AtExit = const { AtExit::new() };
        }
        let _serial = serial();
        let (ran_before, f_before) = flag();
        let (ran_after, f_after) = flag();
        let slots = Arc::new(Mutex::new(Vec::new()));
        let on_exit = |f: Deferred| -> OnExit {
            let slots = Arc::clone(&slots);
            Box::new(move |g| {
                g.defer(f);
                let handle_gone = LOCAL.try_with(|_| ()).is_err();
                slots.lock().unwrap().push((slot_of(g), handle_gone));
            })
        };
        let (exit_before, exit_after) = (on_exit(Box::new(f_before)), on_exit(Box::new(f_after)));
        std::thread::spawn(move || {
            // Destructor order between thread-locals is unspecified, so
            // one is registered before this thread's epoch handle and one
            // after: whichever way the platform orders them, one
            // destructor runs with the handle already gone.
            BEFORE.with(|b| *b.on_exit.borrow_mut() = Some(exit_before));
            let g = pin();
            AFTER.with(|a| *a.on_exit.borrow_mut() = Some(exit_after));
            BEFORE.with(|b| *b.held.borrow_mut() = Some(pin()));
            AFTER.with(|a| *a.held.borrow_mut() = Some(pin()));
            drop(g);
        })
        .join()
        .unwrap();
        let slots = slots.lock().unwrap();
        assert_eq!(
            slots.iter().filter(|(_, handle_gone)| *handle_gone).count(),
            1,
            "one destructor pinned before the handle went, one after: {slots:?}"
        );
        assert!(
            !slots.iter().any(|&(slot, _)| registered(slot)),
            "teardown registrations must leave the registry too"
        );
        pin().flush();
        assert!(ran_before.load(Ordering::SeqCst) && ran_after.load(Ordering::SeqCst));
    }
}
