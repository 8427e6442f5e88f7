//! Shared helpers for the DDP examples (currently none; each example
//! is self-contained).
