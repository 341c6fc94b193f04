//! Resolution-only placeholder for `parking_lot`: `subsum-broker`
//! declares the dependency, so cargo has to resolve it, but nothing in
//! the workspace imports it.

#![forbid(unsafe_code)]
