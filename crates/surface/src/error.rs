//! Surface-language errors: lexing, parsing, and elaboration.

use std::error::Error;
use std::fmt;

use recmod_kernel::TypeError;

/// A half-open byte range into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Builds a span.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// 1-based line and column of the span start within `src`.
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for (i, ch) in src.char_indices() {
            if i >= self.start {
                break;
            }
            if ch == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }
}

/// The derivation provenance a diagnostic carries: the judgement
/// frames that were active when the underlying error was constructed,
/// plus (for constructor-equivalence failures) the equation path from
/// the failing equation outward.
///
/// Provenance is *metadata about* an error, not part of its identity:
/// two errors with the same span and kind are the same diagnostic even
/// if the checker took a different route to them. The `PartialEq` impl
/// below encodes this by always comparing equal.
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    /// Active judgement frames at failure, outermost first.
    pub frames: Vec<&'static str>,
    /// For `con_equiv` failures: structural steps from the failing
    /// equation outward (innermost first), e.g. `["domain", "unroll"]`.
    pub equation: Vec<&'static str>,
}

impl Provenance {
    /// Captures provenance for a freshly built error of kind `kind`.
    ///
    /// Kernel errors snapshot their frames at construction time (see
    /// `recmod_kernel::error::raise`); that snapshot is pending in the
    /// telemetry layer and is consumed here. Surface-native errors
    /// (parse, scoping, …) are built while their own frames are still
    /// live, so the current stack *is* the provenance.
    fn capture(kind: &ErrorKind) -> Provenance {
        use recmod_telemetry::diag;
        let pending = match kind {
            ErrorKind::Type(_) | ErrorKind::Limit(_) => diag::take_failure(),
            _ => None,
        };
        match pending {
            Some(f) => Provenance {
                frames: f.frames,
                equation: f.equation,
            },
            None => Provenance {
                frames: diag::current_frames(),
                equation: Vec::new(),
            },
        }
    }
}

impl PartialEq for Provenance {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Provenance {}

/// An error produced by the surface pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurfaceError {
    /// Where in the source the error was detected.
    pub span: Span,
    /// What went wrong.
    pub kind: ErrorKind,
    /// The judgement stack that produced the error (never part of the
    /// error's identity — see [`Provenance`]). Boxed to keep the error
    /// itself small: it travels through every `SurfaceResult`.
    pub provenance: Box<Provenance>,
}

/// The category of a surface error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// An unexpected character during lexing.
    Lex(String),
    /// A parse error with an explanation of what was expected.
    Parse(String),
    /// A name was not in scope.
    Unbound(String),
    /// A name was in scope but denotes the wrong kind of entity.
    WrongEntity {
        /// The name used.
        name: String,
        /// What the context required (e.g. `"a structure"`).
        expected: &'static str,
    },
    /// A structure lacks a component required by a signature.
    MissingComponent {
        /// The component name.
        name: String,
    },
    /// Duplicate binding within one structure or signature body.
    Duplicate(String),
    /// A kernel type error, with the elaborator's phase description.
    Type(TypeError),
    /// A resource limit (depth, node budget, deadline) was hit. A
    /// resource verdict, not a judgement about the program.
    Limit(recmod_telemetry::LimitExceeded),
    /// Anything else.
    Other(String),
}

impl ErrorKind {
    /// The stable error code for this failure class. Surface errors are
    /// `S0xx`; kernel and limit errors delegate to their own taxonomies
    /// (`K0xx`/`L0xx`/`I0xx`). Codes never change meaning once assigned.
    pub fn code(&self) -> &'static str {
        match self {
            ErrorKind::Lex(_) => "S001",
            ErrorKind::Parse(_) => "S002",
            ErrorKind::Unbound(_) => "S003",
            ErrorKind::WrongEntity { .. } => "S004",
            ErrorKind::MissingComponent { .. } => "S005",
            ErrorKind::Duplicate(_) => "S006",
            ErrorKind::Type(e) => e.code(),
            ErrorKind::Limit(e) => e.kind.code(),
            ErrorKind::Other(_) => "S099",
        }
    }
}

impl SurfaceError {
    /// Builds an error, capturing the active judgement frames (and any
    /// pending kernel failure snapshot) as its derivation provenance.
    pub fn new(span: Span, kind: ErrorKind) -> Self {
        let provenance = Box::new(Provenance::capture(&kind));
        SurfaceError {
            span,
            kind,
            provenance,
        }
    }

    /// The stable error code (see [`ErrorKind::code`]).
    pub fn code(&self) -> &'static str {
        self.kind.code()
    }

    /// Builds an internal-invariant error: a compiler bug surfaced as a
    /// structured diagnostic instead of a panic.
    pub fn internal(span: Span, msg: impl Into<String>) -> Self {
        SurfaceError::new(span, ErrorKind::Type(TypeError::Internal(msg.into())))
    }

    /// Is this a resource-bound verdict (depth, nodes, fuel, deadline)
    /// rather than a judgement about the program?
    pub fn is_limit(&self) -> bool {
        match &self.kind {
            ErrorKind::Limit(_) => true,
            ErrorKind::Type(e) => e.is_limit(),
            _ => false,
        }
    }

    /// Is this an internal-invariant failure (a compiler bug)?
    pub fn is_internal(&self) -> bool {
        matches!(&self.kind, ErrorKind::Type(e) if e.is_internal())
    }

    /// Renders the error with line/column information from `src`.
    pub fn render(&self, src: &str) -> String {
        let (line, col) = self.span.line_col(src);
        format!("{line}:{col}: {self}")
    }
}

impl fmt::Display for SurfaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ErrorKind::Lex(msg) => write!(f, "lexical error: {msg}"),
            ErrorKind::Parse(msg) => write!(f, "parse error: {msg}"),
            ErrorKind::Unbound(name) => write!(f, "unbound identifier `{name}`"),
            ErrorKind::WrongEntity { name, expected } => {
                write!(f, "`{name}` is not {expected}")
            }
            ErrorKind::MissingComponent { name } => {
                write!(
                    f,
                    "structure is missing component `{name}` required by its signature"
                )
            }
            ErrorKind::Duplicate(name) => write!(f, "duplicate binding `{name}`"),
            ErrorKind::Type(e) => write!(f, "type error: {e}"),
            ErrorKind::Limit(e) => write!(f, "{e}"),
            ErrorKind::Other(msg) => f.write_str(msg),
        }
    }
}

impl Error for SurfaceError {}

impl From<SurfaceError> for String {
    fn from(e: SurfaceError) -> String {
        e.to_string()
    }
}

/// Result type for the surface pipeline.
pub type SurfaceResult<T> = Result<T, SurfaceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_computed() {
        let src = "ab\ncd\nef";
        let sp = Span::new(6, 7); // 'e'
        assert_eq!(sp.line_col(src), (3, 1));
    }

    #[test]
    fn span_join() {
        assert_eq!(Span::new(3, 5).to(Span::new(1, 4)), Span::new(1, 5));
    }

    #[test]
    fn render_includes_position() {
        let e = SurfaceError::new(Span::new(0, 1), ErrorKind::Unbound("x".into()));
        assert_eq!(e.render("x"), "1:1: unbound identifier `x`");
    }
}
