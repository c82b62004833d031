//! Bad fixture: host wall-clock and thread-identity reads.

use std::time::{Instant, SystemTime};

pub fn stamp() -> (Instant, SystemTime) {
    let a = Instant::now(); //~ clippy::disallowed_methods
    let b = SystemTime::now(); //~ clippy::disallowed_methods
    (a, b)
}

pub fn whoami() -> std::thread::Thread {
    std::thread::current() //~ clippy::disallowed_methods
}
