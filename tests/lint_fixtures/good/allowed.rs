//! Good fixture: reasoned expectations suppress exactly the lint they name.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]

#[expect(clippy::unwrap_used, reason = "poisoning only follows an earlier panic")]
pub fn locked(v: &std::sync::Mutex<u64>) -> u64 {
    *v.lock().unwrap()
}

pub fn sorted_listing(dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    #[expect(clippy::disallowed_methods, reason = "entries are collected and sorted before use")]
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    Ok(entries)
}

#[expect(clippy::disallowed_methods, reason = "integer sum: exact in any order")]
pub fn total(counts: &[u64]) -> u64 {
    counts.iter().sum()
}

#[expect(clippy::disallowed_methods, reason = "opt-in wall-clock budget; never feeds emitted bytes")]
pub fn started() -> std::time::Instant {
    std::time::Instant::now()
}
