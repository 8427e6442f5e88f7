//! Integration-test crate; tests live under tests/tests.
