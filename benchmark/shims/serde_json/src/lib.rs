//! Stand-in for `serde_json`. `xk-trace` exposes `trace_to_json` /
//! `trace_from_json` over these two functions; with marker-only serde
//! traits there is nothing to drive a serialiser, so both answer `Err`.
//! The benchmark writes and reads its own JSON (`xk_trace`'s hand-rolled
//! Chrome export and `jsonck` parser), never through here.

use std::fmt;

/// The only error: the stand-in cannot serialise.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json stand-in: serialisation is not available in the offline benchmark build")
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    Err(Error)
}

pub fn from_str<'a, T: serde::Deserialize<'a>>(_s: &'a str) -> Result<T> {
    Err(Error)
}
