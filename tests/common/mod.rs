//! Helpers shared by the integration tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A scratch path under the system temp directory that no other caller
/// gets: the process id separates concurrent test binaries, and a
/// per-process counter separates tests running on parallel threads (and
/// repeated calls from one test).
pub fn tmp(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("chebymc-test-{}-{n}-{name}", std::process::id()))
}
