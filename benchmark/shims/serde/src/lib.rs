//! Stand-in for `serde`, for offline builds of the benchmark.
//!
//! The layer crates only *derive* `Serialize`/`Deserialize` (nothing in the
//! paths the benchmark times serialises through serde), so the traits here
//! are markers every type satisfies and the derives expand to nothing.

/// Marker for serialisable types; every type is one.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker for deserialisable types; every sized type is one.
pub trait Deserialize<'de>: Sized {}
impl<T> Deserialize<'_> for T {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
