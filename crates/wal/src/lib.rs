//! # setrules-wal
//!
//! A write-ahead log for the rule engine: typed [`WalRecord`]s encoded
//! with `setrules-json` inside a length+CRC32 [frame](crate::frame),
//! appended through a pluggable [`LogSink`] (a real file or a test
//! [`SharedMemSink`] that records every write and sync), buffered for
//! group commit by [`WalWriter`], and recovered by a torn-tail-tolerant
//! [scanner](crate::frame::scan) that stops cleanly at the last valid
//! record.
//!
//! The crate knows nothing about the engine: it moves bytes and records.
//! The engine (`setrules-core`) decides *what* to log and *when* to hit
//! the fsync boundary — including polling its fault injector before every
//! append and sync, which is how the kill-at-every-record recovery sweep
//! in `tests/wal_recovery.rs` drives a crash at each durability site.
//!
//! Durability contract (matching the paper's §4 all-or-nothing
//! transactions): a transaction's records — user statements *and* every
//! triggered rule action — reach the sink before its `Commit` record is
//! synced; replay applies a transaction's effects only when its `Commit`
//! is present, so an image recovered after a crash is always a committed
//! image, never a half-applied one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod record;
pub mod sink;
pub mod writer;

use std::fmt;
use std::path::PathBuf;

pub use frame::{crc32, scan};
pub use record::{value_from_json, value_to_json, WalRecord};
pub use sink::{FileSink, LogSink, SharedMemSink, SinkOp};
pub use writer::{OpenOutcome, WalWriter};

/// Where the log lives.
#[derive(Debug, Clone)]
pub enum SinkSpec {
    /// A file on disk ([`FileSink`]); created if absent.
    Path(PathBuf),
    /// A shared in-memory sink (tests, benches). The handle is cloned, so
    /// the "disk" contents survive dropping the engine and can be
    /// inspected, truncated, or corrupted by the test harness.
    Memory(SharedMemSink),
}

/// When the log syncs to its sink (the fsync boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Buffer a transaction's records and sync once, at its commit — one
    /// sync per transaction (the default).
    GroupCommit,
    /// Flush and sync after every record (the slow, maximally-paranoid
    /// baseline the B14 bench compares group commit against).
    EachRecord,
}

/// Durability configuration handed to the engine via
/// `EngineConfig::durability`.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Where the log lives.
    pub sink: SinkSpec,
    /// When the log syncs.
    pub sync: SyncPolicy,
    /// Write a checkpoint every this many commits; `0` disables periodic
    /// checkpoints (recovery then replays the whole log).
    pub checkpoint_every: u64,
}

impl WalConfig {
    /// Log to a file at `path` with group commit and no periodic
    /// checkpoints.
    pub fn path(path: impl Into<PathBuf>) -> WalConfig {
        WalConfig { sink: SinkSpec::Path(path.into()), sync: SyncPolicy::GroupCommit, checkpoint_every: 0 }
    }

    /// Log to the given shared in-memory sink with group commit and no
    /// periodic checkpoints.
    pub fn memory(sink: SharedMemSink) -> WalConfig {
        WalConfig { sink: SinkSpec::Memory(sink), sync: SyncPolicy::GroupCommit, checkpoint_every: 0 }
    }

    /// Builder: set the sync policy.
    pub fn with_sync(mut self, sync: SyncPolicy) -> WalConfig {
        self.sync = sync;
        self
    }

    /// Builder: set the checkpoint interval (commits between checkpoints;
    /// `0` disables).
    pub fn with_checkpoint_every(mut self, every: u64) -> WalConfig {
        self.checkpoint_every = every;
        self
    }
}

/// A write-ahead-log failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The sink failed (I/O error text).
    Io(String),
    /// A record failed to encode or decode.
    Record(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(m) => write!(f, "wal I/O error: {m}"),
            WalError::Record(m) => write!(f, "wal record error: {m}"),
        }
    }
}

impl std::error::Error for WalError {}
