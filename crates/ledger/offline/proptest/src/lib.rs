//! Resolution-only placeholder for `proptest`.
//!
//! Cargo resolves every workspace member's dev-dependencies even when
//! building one package, so the offline config must name a `proptest`
//! that satisfies the version requirement. Nothing the benchmark builds
//! depends on it; the workspace's own tests and benches that do need the
//! real crate from the registry and do not compile against this
//! placeholder.
