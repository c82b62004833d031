//! Bad fixture: unsafe code, denied in every target (test code included).
//! A `static mut` declaration is not itself reported: every read or write of
//! it needs an `unsafe` block, and those are.

static mut COUNTER: u64 = 0;

pub fn bump() -> u64 {
    unsafe { //~ unsafe_code
        COUNTER += 1;
        COUNTER
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn even_tests_may_not_use_unsafe() {
        let x = [1u8, 2, 3];
        let _first = unsafe { *x.as_ptr() }; //~ unsafe_code
    }
}
