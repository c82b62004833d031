//! Bad fixture: panicking constructs in engine library code.
//! The engine-root line below is the one every engine crate's `lib.rs`
//! carries (a tier-1 test keeps them identical); test code is exempt.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]

pub fn take(v: Option<u64>) -> u64 {
    v.unwrap() //~ clippy::unwrap_used
}

pub fn need(v: Option<u64>) -> u64 {
    v.expect("value must be present") //~ clippy::expect_used
}

pub fn boom() {
    panic!("unconditional"); //~ clippy::panic
}

pub fn later() {
    todo!() //~ clippy::todo
}

pub fn never() {
    unreachable!() //~ clippy::unreachable
}

pub fn missing() {
    unimplemented!() //~ clippy::unimplemented
}
