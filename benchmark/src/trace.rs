//! Span recording for the traced run, taken from outside the program:
//! a root span around every call into `cec`/`txkv`, child spans from the
//! two public seams the `durable` layer hangs on ([`TimedHook`] around
//! `CommitHook::on_commit`, [`TimedVfs`] around `Vfs::append`/`sync`).
//!
//! Spans go into a per-thread preallocated vector and move to a global
//! collector when the thread calls [`thread_end`]; nothing is written
//! until the run is over. End-to-end metrics are never taken from a run
//! that has this module switched on.

use durable::Vfs;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use stm_core::{CommitHook, WriteRecord};

/// One recorded interval. `parent == 0` marks a root span; `op`
/// identifies the request the span belongs to (shared by a root and its
/// descendants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (thread number in the high bits).
    pub id: u64,
    /// Id of the span that caused this one, 0 for roots.
    pub parent: u64,
    /// Request id: the root's id.
    pub op: u64,
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start, ns since [`epoch`].
    pub start_ns: u64,
    /// End, ns since [`epoch`].
    pub end_ns: u64,
    /// Slice the span was recorded in.
    pub slice: u32,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Local {
    spans: Vec<Span>,
    /// Innermost open span (0 = none) and the request it belongs to.
    current: u64,
    op: u64,
    slice: u32,
    next_id: u64,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

static THREADS: AtomicU64 = AtomicU64::new(0);
static COLLECTED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// The instant all span timestamps count from.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`].
#[must_use]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Nanoseconds from [`epoch`] to `t`.
#[must_use]
pub fn ns_at(t: Instant) -> u64 {
    t.duration_since(epoch()).as_nanos() as u64
}

/// Start recording on this thread, with room for `capacity` spans.
/// Until this is called (and after [`thread_end`]) every recording
/// function on the thread is a no-op.
pub fn thread_begin(capacity: usize) {
    epoch();
    let thread = THREADS.fetch_add(1, Ordering::Relaxed) + 1;
    LOCAL.with(|l| {
        *l.borrow_mut() = Some(Local {
            spans: Vec::with_capacity(capacity),
            current: 0,
            op: 0,
            slice: 0,
            next_id: thread << 40,
        });
    });
}

/// Stop recording on this thread and hand its spans to the collector.
pub fn thread_end() {
    if let Some(local) = LOCAL.with(|l| l.borrow_mut().take()) {
        COLLECTED
            .lock()
            .expect("span collector poisoned")
            .extend(local.spans);
    }
}

/// Tell the recorder which slice subsequent spans belong to.
pub fn set_slice(slice: u32) {
    LOCAL.with(|l| {
        if let Some(local) = l.borrow_mut().as_mut() {
            local.slice = slice;
        }
    });
}

/// The slice this thread's recorder was last told (0 when it is not
/// recording) — for handing on to client threads.
#[must_use]
pub fn slice() -> u32 {
    LOCAL.with(|l| l.borrow().as_ref().map_or(0, |local| local.slice))
}

/// Open a root span for one request, so that seam spans recorded while
/// it runs can name it as their parent. Returns its id (0 when this
/// thread is not recording).
#[must_use]
pub fn root_begin() -> u64 {
    LOCAL.with(|l| {
        l.borrow_mut().as_mut().map_or(0, |local| {
            local.next_id += 1;
            local.current = local.next_id;
            local.op = local.next_id;
            local.next_id
        })
    })
}

/// Close the root span `id` with the interval the caller measured.
pub fn root_end(id: u64, name: &'static str, start_ns: u64, end_ns: u64) {
    LOCAL.with(|l| {
        if let Some(local) = l.borrow_mut().as_mut() {
            local.current = 0;
            local.spans.push(Span {
                id,
                parent: 0,
                op: id,
                name,
                start_ns,
                end_ns,
                slice: local.slice,
            });
        }
    });
}

/// Run `f` inside a child span of whatever span is open on this thread.
pub fn child<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = LOCAL.with(|l| {
        l.borrow_mut().as_mut().map(|local| {
            local.next_id += 1;
            let parent = std::mem::replace(&mut local.current, local.next_id);
            (local.next_id, parent, now_ns())
        })
    });
    let out = f();
    if let Some((id, parent, start_ns)) = opened {
        let end_ns = now_ns();
        LOCAL.with(|l| {
            if let Some(local) = l.borrow_mut().as_mut() {
                local.current = parent;
                local.spans.push(Span {
                    id,
                    parent,
                    op: if parent == 0 { id } else { local.op },
                    name,
                    start_ns,
                    end_ns,
                    slice: local.slice,
                });
            }
        });
    }
    out
}

/// Take every span handed to the collector so far.
#[must_use]
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *COLLECTED.lock().expect("span collector poisoned"))
}

/// Self time per span: its duration minus the part its children cover
/// (children of one span run on one thread, so they do not overlap).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            own[p] = own[p].saturating_sub(s.ns());
        }
    }
    own
}

/// Durations (ns) of every span called `name`.
#[must_use]
pub fn durations(spans: &[Span], name: &str) -> Vec<u32> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| u32::try_from(s.ns()).unwrap_or(u32::MAX))
        .collect()
}

/// Write `spans`, with their [`self_times`], as one JSON object per
/// line.
///
/// # Errors
/// Propagates IO errors.
pub fn write_jsonl(path: &Path, spans: &[Span], own: &[u64]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(own) {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"thread\":{},\"slice\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            s.parent,
            s.op,
            s.name,
            s.id >> 40,
            s.slice,
            s.start_ns,
            s.end_ns,
            self_ns
        )?;
    }
    out.flush()
}

/// `CommitHook` seam: the time inside `on_commit` is the time the
/// committer's write locks are held for durability.
pub struct TimedHook(pub Arc<dyn CommitHook>);

impl CommitHook for TimedHook {
    fn on_commit(&self, record: &WriteRecord<'_>) {
        child("durable.hook", || self.0.on_commit(record));
    }
}

/// `Vfs` seam: spans around `append` and `sync`, everything else passed
/// through.
pub struct TimedVfs(pub Arc<dyn Vfs>);

impl Vfs for TimedVfs {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.0.read(name)
    }
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        child("durable.vfs_append", || self.0.append(name, data))
    }
    fn sync(&self, name: &str) -> io::Result<()> {
        child("durable.vfs_sync", || self.0.sync(name))
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.0.rename(from, to)
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.0.remove(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.0.exists(name)
    }
    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.0.truncate(name, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_under_the_open_root_and_self_time_excludes_them() {
        thread_begin(16);
        set_slice(3);
        let t0 = now_ns();
        let id = root_begin();
        child("durable.hook", || {
            child("durable.vfs_sync", || std::hint::black_box(1 + 1));
        });
        root_end(id, "txkv.set", t0, now_ns());
        thread_end();
        let spans: Vec<Span> = drain().into_iter().filter(|s| s.op == id).collect();
        assert_eq!(spans.len(), 3);
        let by = |n: &str| *spans.iter().find(|s| s.name == n).unwrap();
        let (root, hook, sync) = (by("txkv.set"), by("durable.hook"), by("durable.vfs_sync"));
        assert_eq!(
            (root.parent, hook.parent, sync.parent),
            (0, root.id, hook.id)
        );
        assert!(root.start_ns <= hook.start_ns && hook.end_ns <= root.end_ns);
        assert!(hook.start_ns <= sync.start_ns && sync.end_ns <= hook.end_ns);
        assert_eq!(root.slice, 3);
        let own = self_times(&spans);
        let at = |s: Span| own[spans.iter().position(|x| x.id == s.id).unwrap()];
        assert_eq!(at(root), root.ns() - hook.ns());
        assert_eq!(at(hook), hook.ns() - sync.ns());
    }

    #[test]
    fn recording_is_off_until_thread_begin() {
        assert_eq!(root_begin(), 0);
        assert_eq!(child("durable.hook", || 7), 7);
        root_end(0, "txkv.get", 0, 1);
        thread_end();
    }
}
