//! Stand-in for `serde`: the two traits as markers, and a derive that
//! implements them. It lets the workspace's `#[derive(Serialize,
//! Deserialize)]` types and `T: Serialize` bounds compile offline;
//! nothing can be serialized through it (see the `serde_json` stand-in).

pub use serde_derive::{Deserialize, Serialize};

/// Marker for types the real crate could serialize.
pub trait Serialize {}

/// Marker for types the real crate could deserialize.
pub trait Deserialize<'de>: Sized {}
