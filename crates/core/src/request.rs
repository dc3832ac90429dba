//! Typed request-level outcomes for the resilient serving runtime.
//!
//! [`EvalError`] describes why an *engine*
//! cannot evaluate a query (not `S`-connex, schema mismatch); a serving
//! runtime has failure modes above that layer — overload shedding, panic
//! isolation, shutdown — and success modes below "the full answer set"
//! (budget-truncated partials). [`RequestError`] and [`Served`] are the
//! request-level vocabulary: every admitted request resolves to exactly
//! one `Result<Served, RequestError>`, which is what the chaos suite's
//! accounting invariants are stated over. They live in `ucq-core` so any
//! runtime over [`FrozenSession`](crate::FrozenSession) — `crates/serve`
//! today, an async layer later — shares one error vocabulary.

use ucq_enumerate::Truncation;
use ucq_storage::Tuple;
use ucq_yannakakis::EvalError;

/// Why a request produced no answers at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// Admission control shed the request: the bounded queue was full.
    /// `depth` is the queue depth observed at rejection.
    Overloaded {
        /// Queue depth at rejection time.
        depth: usize,
        /// The queue's capacity.
        capacity: usize,
    },
    /// The runtime was shutting down: rejected at admission, or drained
    /// from the queue by an abort before a worker picked it up.
    ShutDown,
    /// The request's worker panicked mid-enumeration; the panic was
    /// isolated (`catch_unwind`) and the worker kept serving.
    Internal {
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// The engine rejected the enumeration itself.
    Eval(EvalError),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Overloaded { depth, capacity } => write!(
                f,
                "request shed: queue at depth {depth} of capacity {capacity}"
            ),
            RequestError::ShutDown => f.write_str("request rejected: runtime shutting down"),
            RequestError::Internal { detail } => {
                write!(f, "request failed on an isolated worker panic: {detail}")
            }
            RequestError::Eval(e) => write!(f, "evaluation error: {e}"),
        }
    }
}

impl std::error::Error for RequestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RequestError::Eval(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EvalError> for RequestError {
    fn from(e: EvalError) -> RequestError {
        RequestError::Eval(e)
    }
}

/// A request's successful outcome: the full answer set, or the prefix a
/// budget allowed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Served {
    /// The enumeration ran to natural exhaustion.
    Complete {
        /// Every answer.
        answers: Vec<Tuple>,
    },
    /// A budget limit fired; `answers` is the prefix emitted before it.
    Partial {
        /// The answers emitted before truncation.
        answers: Vec<Tuple>,
        /// Which limit fired.
        truncated_by: Truncation,
    },
}

impl Served {
    /// The emitted answers, complete or not.
    pub fn answers(&self) -> &[Tuple] {
        match self {
            Served::Complete { answers } | Served::Partial { answers, .. } => answers,
        }
    }

    /// Consumes into the emitted answers.
    pub fn into_answers(self) -> Vec<Tuple> {
        match self {
            Served::Complete { answers } | Served::Partial { answers, .. } => answers,
        }
    }

    /// The truncation cause, if any.
    pub fn truncation(&self) -> Option<Truncation> {
        match self {
            Served::Complete { .. } => None,
            Served::Partial { truncated_by, .. } => Some(*truncated_by),
        }
    }

    /// Whether a budget cut the stream short.
    pub fn is_partial(&self) -> bool {
        matches!(self, Served::Partial { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_accessors() {
        let t = Tuple::from(&[1i64][..]);
        let complete = Served::Complete {
            answers: vec![t.clone()],
        };
        assert!(!complete.is_partial());
        assert_eq!(complete.truncation(), None);
        assert_eq!(complete.answers().len(), 1);

        let partial = Served::Partial {
            answers: vec![t.clone(), t],
            truncated_by: Truncation::Deadline,
        };
        assert!(partial.is_partial());
        assert_eq!(partial.truncation(), Some(Truncation::Deadline));
        assert_eq!(partial.into_answers().len(), 2);
    }

    #[test]
    fn request_error_display_and_source() {
        let shed = RequestError::Overloaded {
            depth: 8,
            capacity: 8,
        };
        assert!(shed.to_string().contains("capacity 8"));
        assert!(RequestError::ShutDown.to_string().contains("shutting down"));

        let eval: RequestError = EvalError::Schema("arity mismatch".into()).into();
        assert!(eval.to_string().contains("arity mismatch"));
        assert!(std::error::Error::source(&eval).is_some());
        assert!(std::error::Error::source(&RequestError::ShutDown).is_none());
    }
}
