//! Integration-test host crate; see `tests/`.
