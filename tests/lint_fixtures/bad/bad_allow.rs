//! Bad fixture: malformed suppressions. A suppression is
//! `#[expect(lint, reason = "...")]`: `allow` is rejected, a missing reason is
//! rejected, an unknown lint is rejected, and an expectation whose lint no
//! longer fires is rejected.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]

#[allow(clippy::unwrap_used)] //~ clippy::allow_attributes clippy::allow_attributes_without_reason
pub fn bare_allow(v: Option<u64>) -> u64 {
    v.unwrap()
}

#[allow(clippy::unwrap_used, reason = "reasoned, but still an allow")] //~ clippy::allow_attributes
pub fn reasoned_allow(v: Option<u64>) -> u64 {
    v.unwrap()
}

#[expect(clippy::unwrap_used)] //~ clippy::allow_attributes_without_reason
pub fn missing_reason(v: Option<u64>) -> u64 {
    v.unwrap()
}

#[expect(clippy::no_such_lint, reason = "the lint named here does not exist")] //~ unknown_lints
pub fn unknown_lint(v: Option<u64>) -> u64 {
    v.unwrap() //~ clippy::unwrap_used
}

#[expect(clippy::unwrap_used, reason = "the unwrap this excused is gone")] //~ unfulfilled_lint_expectations
pub fn stale(v: Option<u64>) -> u64 {
    v.unwrap_or(0)
}
