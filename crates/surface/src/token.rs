//! Tokens of the external language.

use std::fmt;

use crate::error::Span;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    // Keywords
    /// `signature`
    Signature,
    /// `structure`
    Structure,
    /// `functor`
    Functor,
    /// `sig`
    Sig,
    /// `struct`
    Struct,
    /// `end`
    End,
    /// `val`
    Val,
    /// `fun`
    Fun,
    /// `type`
    Type,
    /// `datatype`
    Datatype,
    /// `of`
    Of,
    /// `rec`
    Rec,
    /// `and`
    And,
    /// `where`
    Where,
    /// `let`
    Let,
    /// `in`
    In,
    /// `if`
    If,
    /// `then`
    Then,
    /// `else`
    Else,
    /// `case`
    Case,
    /// `fn`
    Fn,
    /// `raise`
    Raise,
    /// `true`
    True,
    /// `false`
    False,
    // Punctuation and operators
    /// `=`
    Eq,
    /// `=>`
    DArrow,
    /// `->`
    Arrow,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `<`
    Lt,
    /// `:`
    Colon,
    /// `:>`
    Seal,
    /// `.`
    Dot,
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `|`
    Bar,
    /// `_`
    Wild,
    /// `;`
    Semi,
    // Literals and identifiers
    /// An integer literal.
    Int(i64),
    /// An identifier (either case; the parser distinguishes by role).
    Ident(crate::ast::Name),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Tok::Signature => "signature",
            Tok::Structure => "structure",
            Tok::Functor => "functor",
            Tok::Sig => "sig",
            Tok::Struct => "struct",
            Tok::End => "end",
            Tok::Val => "val",
            Tok::Fun => "fun",
            Tok::Type => "type",
            Tok::Datatype => "datatype",
            Tok::Of => "of",
            Tok::Rec => "rec",
            Tok::And => "and",
            Tok::Where => "where",
            Tok::Let => "let",
            Tok::In => "in",
            Tok::If => "if",
            Tok::Then => "then",
            Tok::Else => "else",
            Tok::Case => "case",
            Tok::Fn => "fn",
            Tok::Raise => "raise",
            Tok::True => "true",
            Tok::False => "false",
            Tok::Eq => "=",
            Tok::DArrow => "=>",
            Tok::Arrow => "->",
            Tok::Star => "*",
            Tok::Plus => "+",
            Tok::Minus => "-",
            Tok::Lt => "<",
            Tok::Colon => ":",
            Tok::Seal => ":>",
            Tok::Dot => ".",
            Tok::Comma => ",",
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::Bar => "|",
            Tok::Wild => "_",
            Tok::Semi => ";",
            Tok::Int(n) => return write!(f, "{n}"),
            Tok::Ident(s) => return f.write_str(s),
            Tok::Eof => "<eof>",
        };
        f.write_str(s)
    }
}

/// A token together with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// Its location.
    pub span: Span,
}
