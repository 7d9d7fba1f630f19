//! The workspace-wide run error.
//!
//! One enum replaces the three ad-hoc failure paths that grew up around the
//! harness: library capability errors (`Unsupported` / `OutOfMemory`,
//! previously `xk_baselines::RunError`), the sweep's best-tile fallback
//! bookkeeping, and bench I/O errors (previously raw `std::io::Error`).
//! `#[non_exhaustive]` keeps room for future variants without breaking
//! downstream matches.

use std::sync::Arc;

/// Why a run (or the harness around it) failed.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Error {
    /// The library does not implement this routine on GPUs, or does not
    /// model the requested methodology.
    Unsupported,
    /// The request describes no run: a zero dimension or a zero tile.
    InvalidParams {
        /// The requested matrix dimension.
        n: usize,
        /// The requested tile size.
        tile: usize,
    },
    /// The library's allocator fails at this size (BLASX above N = 45000,
    /// §IV-D / Fig. 5 caption).
    OutOfMemory,
    /// A modelled interconnect link went down while a transfer was in
    /// flight on it; every waiter on that transfer (including optimistic
    /// D2D forwards sourced from it) surfaces this error.
    LinkDown {
        /// Source GPU of the failed directed link.
        src: usize,
        /// Destination GPU of the failed directed link.
        dst: usize,
    },
    /// A budgeted run stopped: its makespan exceeds the budget it was given
    /// ([`crate::SimSession::run_within`]). The best-tile search budgets
    /// the candidates that must beat an already finished run, so this marks
    /// a provable loser, not a failure of the library.
    OverBudget,
    /// A harness I/O operation failed (writing a CSV, a trace export...).
    Io {
        /// What was being done, usually the file path involved.
        context: String,
        /// The underlying error. `Arc`-wrapped so the error stays `Clone`
        /// (`io::Error` is not): the run cache memoises outcomes and hands
        /// the `Err` side out by value.
        source: Arc<std::io::Error>,
    },
}

impl Error {
    /// Wraps an I/O error with its context.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        Error::Io {
            context: context.into(),
            source: Arc::new(source),
        }
    }

    /// How much a failure tells the caller: a concrete resource failure
    /// beats the catch-all `Unsupported`, and an environmental I/O failure
    /// beats both (it means the harness, not the library, broke).
    fn rank(&self) -> u8 {
        match self {
            // A candidate slower than one already finished says nothing
            // about the platform either.
            Error::Unsupported | Error::OverBudget => 0,
            // A malformed request names its own defect, but says nothing
            // about the platform.
            Error::InvalidParams { .. } => 1,
            Error::OutOfMemory => 2,
            // A hardware fault explains more than a capacity limit but less
            // than a broken harness.
            Error::LinkDown { .. } => 3,
            Error::Io { .. } => 4,
        }
    }

    /// Of two failures, keeps the more informative one; on equal rank the
    /// newer (`other`) wins. This is the sweep's error-folding rule: after
    /// trying every tile candidate, report the failure that best explains
    /// why no tile worked.
    pub fn most_informative(self, other: Error) -> Error {
        if self.rank() > other.rank() {
            self
        } else {
            other
        }
    }
}

impl PartialEq for Error {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Error::Unsupported, Error::Unsupported) => true,
            (Error::OutOfMemory, Error::OutOfMemory) => true,
            (Error::OverBudget, Error::OverBudget) => true,
            (
                Error::InvalidParams { n: na, tile: ta },
                Error::InvalidParams { n: nb, tile: tb },
            ) => na == nb && ta == tb,
            (
                Error::LinkDown { src: sa, dst: da },
                Error::LinkDown { src: sb, dst: db },
            ) => sa == sb && da == db,
            // io::Error is not PartialEq; kind + context identify the
            // failure for test assertions and cache-consistency checks.
            (
                Error::Io { context: ca, source: sa },
                Error::Io { context: cb, source: sb },
            ) => ca == cb && sa.kind() == sb.kind(),
            _ => false,
        }
    }
}

impl Eq for Error {}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Unsupported => write!(f, "routine not implemented by this library"),
            Error::OutOfMemory => write!(f, "memory allocation error"),
            Error::OverBudget => write!(f, "makespan over budget"),
            Error::InvalidParams { n, tile } => {
                write!(
                    f,
                    "invalid run parameters: n = {n}, tile = {tile} (both must be positive)"
                )
            }
            Error::LinkDown { src, dst } => {
                write!(f, "link gpu{src} -> gpu{dst} failed during transfer")
            }
            Error::Io { context, source } => write!(f, "I/O error ({context}): {source}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::io("unspecified I/O operation", e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    #[test]
    fn most_informative_prefers_concrete_failures() {
        // OOM survives a later Unsupported (the old sweep rule).
        assert_eq!(
            Error::OutOfMemory.most_informative(Error::Unsupported),
            Error::OutOfMemory
        );
        assert_eq!(
            Error::Unsupported.most_informative(Error::OutOfMemory),
            Error::OutOfMemory
        );
        // Equal rank: the newer error wins (also the old rule).
        assert_eq!(
            Error::Unsupported.most_informative(Error::Unsupported),
            Error::Unsupported
        );
        let io_err = Error::io("x", io::Error::other("boom"));
        assert_eq!(
            Error::OutOfMemory.most_informative(io_err.clone()),
            io_err
        );
        // A malformed request beats the catch-all, not a resource failure.
        let bad = Error::InvalidParams { n: 4096, tile: 0 };
        assert_eq!(bad.clone().most_informative(Error::Unsupported), bad);
        assert_eq!(
            bad.clone().most_informative(Error::OutOfMemory),
            Error::OutOfMemory
        );
        assert_ne!(bad, Error::InvalidParams { n: 0, tile: 4096 });
        assert!(bad.to_string().contains("tile = 0"));
    }

    #[test]
    fn most_informative_folding_order() {
        // The sweep folds errors left-to-right over tile candidates; the
        // result must be the highest-ranked error, and among equal ranks
        // the one seen *last*. Exercise whole sequences, not just pairs.
        let first = Error::io("first.csv", io::Error::other("a"));
        let last = Error::io("last.csv", io::Error::other("b"));
        let seq = vec![
            Error::Unsupported,
            first.clone(),
            Error::OutOfMemory,
            Error::LinkDown { src: 0, dst: 4 },
            last.clone(),
            Error::Unsupported,
        ];
        let folded = seq
            .into_iter()
            .reduce(|acc, e| acc.most_informative(e))
            .unwrap();
        // Io outranks everything; `last` beats `first` on the rank tie.
        assert_eq!(folded, last);
        assert_ne!(folded, first);

        // Fold order without any Io: LinkDown beats OOM beats Unsupported.
        let seq = vec![
            Error::OutOfMemory,
            Error::LinkDown { src: 1, dst: 2 },
            Error::Unsupported,
            Error::OutOfMemory,
        ];
        let folded = seq
            .into_iter()
            .reduce(|acc, e| acc.most_informative(e))
            .unwrap();
        assert_eq!(folded, Error::LinkDown { src: 1, dst: 2 });

        // Equal-rank LinkDowns: the newer one wins, like every rank tie.
        let folded = Error::LinkDown { src: 0, dst: 1 }
            .most_informative(Error::LinkDown { src: 2, dst: 3 });
        assert_eq!(folded, Error::LinkDown { src: 2, dst: 3 });
    }

    #[test]
    fn link_down_display_and_equality() {
        let e = Error::LinkDown { src: 0, dst: 4 };
        assert_eq!(e.to_string(), "link gpu0 -> gpu4 failed during transfer");
        assert_eq!(e, Error::LinkDown { src: 0, dst: 4 });
        assert_ne!(e, Error::LinkDown { src: 4, dst: 0 });
        assert_ne!(e, Error::Unsupported);
        use std::error::Error as _;
        assert!(e.source().is_none());
    }

    #[test]
    fn io_equality_is_by_kind_and_context() {
        let a = Error::io("f.csv", io::Error::new(io::ErrorKind::NotFound, "a"));
        let b = Error::io("f.csv", io::Error::new(io::ErrorKind::NotFound, "b"));
        let c = Error::io("g.csv", io::Error::new(io::ErrorKind::NotFound, "a"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, Error::Unsupported);
    }

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        assert_eq!(
            Error::Unsupported.to_string(),
            "routine not implemented by this library"
        );
        assert_eq!(Error::OutOfMemory.to_string(), "memory allocation error");
        let e = Error::io("out.json", io::Error::other("disk full"));
        assert!(e.to_string().contains("out.json"));
        assert!(e.source().is_some());
        assert!(Error::Unsupported.source().is_none());
    }

    #[test]
    fn from_io_error() {
        let e: Error = io::Error::new(io::ErrorKind::PermissionDenied, "no").into();
        assert!(matches!(e, Error::Io { .. }));
    }
}
