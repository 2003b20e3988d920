//! Stand-in for `serde_json` that only type-checks. The benchmark's
//! workloads are chosen so that no JSON (de)serialization runs (serial
//! learning with `provenance: None`, the service's `learn_tuned` path);
//! reaching this crate would time a stand-in instead of the program, so
//! every entry point panics.

use std::fmt;

/// The published crate's error type; never constructed here.
#[derive(Debug)]
pub struct Error(());

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json stand-in")
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: serde::Serialize + ?Sized>(_value: &T) -> Result<String> {
    panic!("benchmark workload reached serde_json::to_string, which is a stand-in here")
}

pub fn from_str<'a, T: serde::Deserialize<'a>>(_s: &'a str) -> Result<T> {
    panic!("benchmark workload reached serde_json::from_str, which is a stand-in here")
}
