//! Bad fixture: iterating a raw directory listing.
//! The enumeration order of `read_dir` depends on the platform and
//! filesystem, so a cache scan or merge path built on it would emit different
//! bytes on different hosts.

use std::fs;
use std::path::{Path, PathBuf};

pub fn cache_entries(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) { //~ clippy::disallowed_methods
        for entry in entries.flatten() {
            out.push(entry.path());
        }
    }
    out
}

pub fn count_entries(dir: &Path) -> std::io::Result<usize> {
    let mut count = 0;
    for entry in dir.read_dir()? { //~ clippy::disallowed_methods
        let _ = entry?;
        count += 1;
    }
    Ok(count)
}
