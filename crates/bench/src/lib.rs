//! # bench — the evaluation harness (Section VII)
//!
//! Regenerates every figure of the paper's evaluation:
//!
//! | Paper artifact | Here |
//! |---|---|
//! | Fig. 6 (LinkedListSet, 5%/15% composed) | `repro fig6` |
//! | Fig. 7 (SkipListSet, 5%/15% composed) | `repro fig7` |
//! | Fig. 8 (HashSet @ load factor 512) | `repro fig8` |
//! | headline speedups (abstract, §VII-B) | `repro summary` |
//! | outheritance bookkeeping cost (ablation) | `repro fig6 --stm oe,oe-estm-compat --composed 0,15` |
//!
//! Systems: the uninstrumented sequential baseline plus OE-STM, LSA, TL2
//! and SwissTM — all running the *same* `cec` collections. Workload:
//! Section VII-A verbatim (2^12 elements, 2^13 key range, 80% contains,
//! composed updates taking `{v, v/2}`).
//!
//! Run `cargo run --release -p bench --bin repro -- all` for the full
//! sweep; see `repro --help` for knobs.
//!
//! The three figures are the only scenarios: [`scenario`] sweeps them
//! over every backend in the runtime
//! [`BackendRegistry`](stm_core::dynstm::BackendRegistry), in-process or
//! one bounded subprocess per row ([`watchdog`]), and `--json` writes
//! the schema-checked `BENCH.json` (see [`json`]) that records every
//! measured row of a run. The txkv keyspace and the durable commit path
//! are measured by the repo benchmark (`benchmark/`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// `print!` for `repro`'s tables and listings: once stdout's reader has
/// gone (`repro list | head`), the process ends quietly with exit 0
/// instead of panicking on the broken pipe.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` counterpart of [`out!`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::out!("\n")
    };
    ($($arg:tt)*) => {
        $crate::out!("{}\n", format_args!($($arg)*))
    };
}

/// The body of [`out!`]: write `args` to stdout, and exit 0 if the
/// reader has closed the pipe.
///
/// # Panics
/// Panics on any other write failure, as `print!` does.
#[doc(hidden)]
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    match std::io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

pub mod cli;
pub mod harness;
pub mod json;
pub mod report;
pub mod scenario;
pub mod watchdog;
pub mod workload;

pub use harness::Measurement;
pub use report::Structure;
pub use scenario::{backend_registry, run_matrix, BenchRow, MatrixPlan};
pub use workload::{Mix, OpGen, WorkOp};
