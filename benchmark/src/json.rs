//! The little JSON the benchmark writes by hand (reading goes through
//! `xk_trace::export::jsonck`, the repository's own dependency-free parser).

use std::fmt::Write as _;

/// `s` with the characters JSON strings cannot hold escaped.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A finite `f64` with every digit it was measured with (Rust's shortest
/// round-trip form, never exponent notation); non-finite values have no
/// JSON spelling and become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_their_digits_and_round_trip() {
        for v in [0.0, 1.5, 2.1455123456789e-7, 123456789.125, 1e21] {
            let s = number(v);
            assert!(!s.contains('e') && !s.contains('E'), "{s}");
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), v.to_bits(), "{s}");
        }
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn escape_handles_quotes_and_control_characters() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
