//! # t2fsnn-bench
//!
//! Shared experiment harness for the reproduction binaries (`repro_*`,
//! one per paper table/figure) and the Criterion micro-benchmarks. The
//! `serve_load` load generator lives next to the server, in
//! `t2fsnn-serve`.
//!
//! The scenarios themselves — datasets, architectures, training recipes
//! and the on-disk cache of trained networks — live in
//! [`t2fsnn::scenario`]; they are re-exported here so every binary and
//! bench names them the same way.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;

pub use t2fsnn::scenario::{prepare, Prepared, Scenario};
