//! Good fixture: test code may unwrap, expect and panic; the engine-root
//! line only denies them outside `cfg(test)`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]

pub fn library_code() -> Option<u64> {
    Some(7)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_and_panic() {
        assert_eq!(super::library_code().unwrap(), 7);
        assert_eq!(super::library_code().expect("seven"), 7);
        if super::library_code().is_none() {
            panic!("no value");
        }
    }
}
