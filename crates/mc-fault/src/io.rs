//! The narrow store I/O abstraction and its two implementations.
//!
//! [`StoreIo`] captures exactly the four operations the mc-exp store
//! performs on its file — read everything, append bytes, make appended
//! bytes durable, truncate — so the store can run unchanged against a
//! real [`std::fs::File`] ([`RealFile`]) or against an in-memory
//! [`SimDisk`] that injects faults from a seed-derived
//! [`FaultSchedule`](crate::schedule::FaultSchedule).
//!
//! The simulated disk distinguishes *durable* bytes (survived a
//! successful sync) from the *unsynced tail* (written but still in the
//! "page cache"). A scheduled crash keeps the durable bytes plus a
//! schedule-derived prefix of the tail — exactly the torn-tail shape the
//! store's resume path must repair. That asymmetry is the point: an
//! append the store has acknowledged (write + sync both returned `Ok`)
//! must survive any crash, while an unacknowledged record may or may not
//! — both outcomes are legal, and the sweeps assert only the
//! one-directional invariant.

use crate::schedule::{Fault, FaultSchedule};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::sync::{Arc, Mutex};

/// The file operations the experiment store needs, and nothing more.
///
/// Positioning contract (which is what lets the trait drop explicit
/// seeks): after [`StoreIo::read_to_end`] or [`StoreIo::truncate`] the
/// implicit cursor is at end-of-file, and [`StoreIo::write_all`] always
/// appends there.
pub trait StoreIo: std::fmt::Debug + Send {
    /// Reads the entire file from the beginning, leaving the cursor at
    /// end-of-file.
    ///
    /// # Errors
    ///
    /// Underlying (or injected) I/O failures.
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<()>;

    /// Appends `buf` at end-of-file. Not durable until
    /// [`StoreIo::sync_data`] succeeds.
    ///
    /// # Errors
    ///
    /// Underlying (or injected) I/O failures; a short write may leave a
    /// prefix of `buf` in the file.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Makes every previously written byte durable (`fsync`).
    ///
    /// # Errors
    ///
    /// Underlying (or injected) I/O failures.
    fn sync_data(&mut self) -> io::Result<()>;

    /// Truncates the file to `len` bytes and leaves the cursor at the new
    /// end-of-file.
    ///
    /// # Errors
    ///
    /// Underlying (or injected) I/O failures.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// [`StoreIo`] over a real [`File`] — the production implementation.
/// Allocation-free on the append hot path (`write_all` + `sync_data`
/// delegate directly).
#[derive(Debug)]
pub struct RealFile(File);

impl RealFile {
    /// Wraps an open file handle.
    #[must_use]
    pub fn new(file: File) -> Self {
        RealFile(file)
    }
}

impl StoreIo for RealFile {
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(0))?;
        self.0.read_to_end(buf)?;
        Ok(())
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        // `set_len` does not move the cursor; re-seek so later appends
        // land at the new end instead of leaving a hole.
        self.0.set_len(len)?;
        self.0.seek(SeekFrom::End(0))?;
        Ok(())
    }
}

/// Operation counters kept by a [`SimDisk`] — the sweeps use these to
/// prove a run actually exercised faults rather than passing vacuously.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// `read_to_end` calls observed.
    pub reads: u64,
    /// `write_all` calls observed.
    pub writes: u64,
    /// `sync_data` calls observed.
    pub syncs: u64,
    /// `truncate` calls observed.
    pub truncates: u64,
    /// Operations failed with an injected error (non-crash).
    pub injected_errors: u64,
    /// Scheduled crashes that fired.
    pub crashes: u64,
}

#[derive(Debug)]
struct DiskState {
    /// Bytes guaranteed to survive a crash (synced, or pre-existing).
    durable: Vec<u8>,
    /// Bytes written but not yet synced ("page cache"); a crash keeps
    /// only a schedule-derived prefix of these.
    tail: Vec<u8>,
    schedule: FaultSchedule,
    /// Index of the next I/O operation, fed to the schedule.
    op: u64,
    /// Whether the simulated process has crashed; all I/O fails until
    /// [`SimDisk::recover`].
    crashed: bool,
    stats: FaultStats,
}

impl DiskState {
    fn crash(&mut self, tail_kept_ppm: u32) {
        // The OS may have flushed part of the page cache before dying:
        // keep a schedule-derived prefix of the tail, drop the rest.
        let kept = prefix_len(self.tail.len(), tail_kept_ppm);
        self.durable.extend_from_slice(&self.tail[..kept]);
        self.tail.clear();
        self.crashed = true;
        self.stats.crashes += 1;
    }

    /// Applies the schedule to the next operation. `Ok(())` means the
    /// operation proceeds; `Err` carries the injected failure, with any
    /// partial-write side effect already applied by the caller.
    fn gate(&mut self) -> Result<(), Fault> {
        if self.crashed {
            return Err(Fault::Error {
                kind: "disk is crashed",
                kept_fraction_ppm: 0,
            });
        }
        let fault = self.schedule.decide(self.op);
        self.op += 1;
        match fault {
            Fault::None => Ok(()),
            Fault::Crash { tail_kept_ppm } => {
                self.crash(tail_kept_ppm);
                Err(fault)
            }
            Fault::Error { .. } => {
                self.stats.injected_errors += 1;
                Err(fault)
            }
        }
    }
}

fn prefix_len(len: usize, ppm: u32) -> usize {
    ((len as u128 * u128::from(ppm)) / 1_000_000) as usize
}

fn injected(kind: &str) -> io::Error {
    io::Error::other(format!("injected fault: {kind}"))
}

/// A deterministic in-memory disk with seed-scheduled fault injection.
///
/// Cloning is cheap and shares state (it is the same disk): tests keep
/// one handle for assertions while the store owns a [`SimFile`] opened
/// from another.
#[derive(Debug, Clone, Default)]
pub struct SimDisk {
    state: Arc<Mutex<DiskState>>,
}

impl Default for DiskState {
    fn default() -> Self {
        DiskState {
            durable: Vec::new(),
            tail: Vec::new(),
            schedule: FaultSchedule::none(),
            op: 0,
            crashed: false,
            stats: FaultStats::default(),
        }
    }
}

impl SimDisk {
    /// An empty, fault-free disk.
    #[must_use]
    pub fn new() -> Self {
        SimDisk::default()
    }

    /// Installs `schedule` and resets the operation counter — one call
    /// per simulated process lifetime ("session").
    pub fn set_schedule(&self, schedule: FaultSchedule) {
        let mut st = self.lock();
        st.schedule = schedule;
        st.op = 0;
    }

    /// Opens a [`StoreIo`] handle onto this disk, as the store would open
    /// its file.
    #[must_use]
    pub fn open(&self) -> SimFile {
        SimFile { disk: self.clone() }
    }

    /// Simulates a process restart after a crash (or a clean shutdown):
    /// clears the crashed flag; on a clean shutdown the unsynced tail is
    /// flushed (the OS eventually writes the page cache out), while after
    /// a crash the tail was already resolved at crash time.
    pub fn recover(&self) {
        let mut st = self.lock();
        if st.crashed {
            st.crashed = false;
        } else {
            let tail = std::mem::take(&mut st.tail);
            st.durable.extend_from_slice(&tail);
        }
    }

    /// The file content a reader would currently observe
    /// (durable bytes plus the unsynced tail).
    #[must_use]
    pub fn bytes(&self) -> Vec<u8> {
        let st = self.lock();
        let mut out = st.durable.clone();
        out.extend_from_slice(&st.tail);
        out
    }

    /// The bytes guaranteed to survive a crash right now.
    #[must_use]
    pub fn durable(&self) -> Vec<u8> {
        self.lock().durable.clone()
    }

    /// Whether the simulated process is currently crashed.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Operation counters so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.lock().stats
    }

    /// Mutation-style sanity hook: silently drops the last durable line
    /// (through its preceding newline), simulating loss of an
    /// acknowledged record. Returns `false` when there is no complete
    /// line to drop. A sweep over a disk sabotaged this way **must**
    /// report an invariant violation — that is how the test suite proves
    /// the checker can fail.
    pub fn sabotage_drop_last_line(&self) -> bool {
        let mut st = self.lock();
        let Some(&b'\n') = st.durable.last() else {
            return false;
        };
        let cut = st.durable[..st.durable.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        if cut == 0 {
            return false; // only the header line exists; keep it.
        }
        st.durable.truncate(cut);
        true
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DiskState> {
        self.state.lock().expect("sim disk poisoned")
    }
}

/// A [`StoreIo`] handle onto a [`SimDisk`].
#[derive(Debug)]
pub struct SimFile {
    disk: SimDisk,
}

impl SimFile {
    fn fail(fault: Fault) -> io::Error {
        match fault {
            Fault::Error { kind, .. } => injected(kind),
            Fault::Crash { .. } => injected("crash"),
            Fault::None => unreachable!("gate never returns Fault::None"),
        }
    }
}

impl StoreIo for SimFile {
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<()> {
        let mut st = self.disk.lock();
        st.stats.reads += 1;
        let gate = st.gate();
        if let Err(fault) = gate {
            return Err(Self::fail(fault));
        }
        buf.extend_from_slice(&st.durable);
        buf.extend_from_slice(&st.tail);
        Ok(())
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut st = self.disk.lock();
        st.stats.writes += 1;
        match st.gate() {
            Ok(()) => {
                st.tail.extend_from_slice(buf);
                Ok(())
            }
            Err(fault) => {
                if let Fault::Error {
                    kept_fraction_ppm, ..
                } = fault
                {
                    // Short write: a prefix lands before the error.
                    let kept = prefix_len(buf.len(), kept_fraction_ppm);
                    st.tail.extend_from_slice(&buf[..kept]);
                }
                Err(Self::fail(fault))
            }
        }
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let mut st = self.disk.lock();
        st.stats.syncs += 1;
        match st.gate() {
            Ok(()) => {
                let tail = std::mem::take(&mut st.tail);
                st.durable.extend_from_slice(&tail);
                Ok(())
            }
            // Failed sync: the bytes stay in the volatile tail.
            Err(fault) => Err(Self::fail(fault)),
        }
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let mut st = self.disk.lock();
        st.stats.truncates += 1;
        if let Err(fault) = st.gate() {
            return Err(Self::fail(fault));
        }
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        if len <= st.durable.len() {
            st.durable.truncate(len);
            st.tail.clear();
        } else {
            let keep = len - st.durable.len();
            st.tail.truncate(keep);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(io: &mut dyn StoreIo, s: &str) {
        io.write_all(s.as_bytes()).unwrap();
    }

    #[test]
    fn real_file_round_trips_and_truncates() {
        let path = std::env::temp_dir().join(format!(
            "mc-fault-io-test-{}-real-file-round-trip.bin",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .unwrap();
        let mut io = RealFile::new(file);
        write(&mut io, "alpha\nbeta\n");
        io.sync_data().unwrap();
        let mut buf = Vec::new();
        io.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"alpha\nbeta\n");
        io.truncate(6).unwrap();
        write(&mut io, "gamma\n");
        let mut buf = Vec::new();
        io.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"alpha\ngamma\n", "append lands at the new end");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sim_disk_separates_durable_from_tail() {
        let disk = SimDisk::new();
        let mut io = disk.open();
        write(&mut io, "a\n");
        assert_eq!(disk.durable(), b"", "unsynced bytes are not durable");
        assert_eq!(disk.bytes(), b"a\n", "but a reader sees them");
        io.sync_data().unwrap();
        assert_eq!(disk.durable(), b"a\n");
    }

    #[test]
    fn crash_loses_at_most_the_unsynced_tail() {
        // A schedule whose crash keeps no tail: synced data must survive.
        for seed in 0..100u64 {
            let disk = SimDisk::new();
            let mut io = disk.open();
            write(&mut io, "synced\n");
            io.sync_data().unwrap();
            disk.set_schedule(FaultSchedule::from_seed(seed, 4));
            let mut io = disk.open();
            // Drive writes until the schedule kills the session.
            let mut alive = true;
            for _ in 0..16 {
                if io
                    .write_all(b"unsynced\n")
                    .and_then(|()| io.sync_data())
                    .is_err()
                {
                    alive = false;
                    break;
                }
            }
            assert!(!alive, "seed {seed}: horizon 4 must fault within 8 ops");
            disk.recover();
            let durable = disk.durable();
            assert!(
                durable.starts_with(b"synced\n"),
                "seed {seed}: synced prefix lost: {durable:?}"
            );
        }
    }

    #[test]
    fn failed_sync_keeps_bytes_volatile_but_visible() {
        let disk = SimDisk::new();
        // Find a seed whose op 1 (the sync) errors without crashing.
        let mut hit = false;
        for seed in 0..5_000u64 {
            let sched = FaultSchedule::from_seed(seed, 1_000);
            if sched.decide(0) == Fault::None && matches!(sched.decide(1), Fault::Error { .. }) {
                disk.set_schedule(sched);
                hit = true;
                break;
            }
        }
        assert!(hit, "no seed with (ok write, failed sync) found");
        let mut io = disk.open();
        write(&mut io, "rec\n");
        assert!(io.sync_data().is_err());
        assert_eq!(disk.bytes(), b"rec\n", "a reader still sees the bytes");
        assert_eq!(disk.durable(), b"", "but they are not durable");
    }

    #[test]
    fn recover_after_clean_shutdown_flushes_the_tail() {
        let disk = SimDisk::new();
        let mut io = disk.open();
        write(&mut io, "x\n");
        drop(io);
        disk.recover();
        assert_eq!(disk.durable(), b"x\n");
    }

    #[test]
    fn crashed_disk_fails_everything_until_recover() {
        let disk = SimDisk::new();
        // Horizon 1 ⇒ crash at op 0.
        disk.set_schedule(FaultSchedule::from_seed(3, 1));
        let mut io = disk.open();
        assert!(io.write_all(b"y").is_err());
        assert!(disk.is_crashed());
        assert!(io.sync_data().is_err());
        let mut buf = Vec::new();
        assert!(io.read_to_end(&mut buf).is_err());
        disk.recover();
        disk.set_schedule(FaultSchedule::none());
        let mut io = disk.open();
        write(&mut io, "z\n");
        io.sync_data().unwrap();
        assert_eq!(disk.durable(), b"z\n");
    }

    #[test]
    fn truncate_spans_durable_and_tail() {
        let disk = SimDisk::new();
        let mut io = disk.open();
        write(&mut io, "durable\n");
        io.sync_data().unwrap();
        write(&mut io, "tail\n");
        // Truncate inside the tail.
        io.truncate(10).unwrap();
        assert_eq!(disk.bytes(), b"durable\nta");
        // Truncate inside the durable region drops the whole tail.
        write(&mut io, "more");
        io.truncate(3).unwrap();
        assert_eq!(disk.bytes(), b"dur");
    }

    #[test]
    fn sabotage_drops_exactly_the_last_complete_line() {
        let disk = SimDisk::new();
        let mut io = disk.open();
        write(&mut io, "header\nrec1\nrec2\n");
        io.sync_data().unwrap();
        assert!(disk.sabotage_drop_last_line());
        assert_eq!(disk.durable(), b"header\nrec1\n");
        assert!(disk.sabotage_drop_last_line());
        assert_eq!(disk.durable(), b"header\n");
        assert!(
            !disk.sabotage_drop_last_line(),
            "the header line alone is never dropped"
        );
    }

    #[test]
    fn stats_count_operations_and_injections() {
        let disk = SimDisk::new();
        let mut io = disk.open();
        write(&mut io, "a");
        io.sync_data().unwrap();
        let mut buf = Vec::new();
        io.read_to_end(&mut buf).unwrap();
        io.truncate(0).unwrap();
        let s = disk.stats();
        assert_eq!((s.writes, s.syncs, s.reads, s.truncates), (1, 1, 1, 1));
        assert_eq!(s.injected_errors + s.crashes, 0);
    }
}
