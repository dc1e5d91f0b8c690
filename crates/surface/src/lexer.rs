//! The lexer.
//!
//! Comments are SML-style `(* … *)` and nest. Identifiers are
//! `[A-Za-z][A-Za-z0-9_']*`; keywords are reserved.

use crate::error::{ErrorKind, Span, SurfaceError, SurfaceResult};
use crate::token::{Spanned, Tok};
use recmod_telemetry::Limits;

/// Lexes the entire source into a token vector terminated by `Eof`.
///
/// # Errors
///
/// Reports unexpected characters and unterminated comments with their
/// source position. Stops at the first error; use [`lex_recover`] to
/// collect all of them.
pub fn lex(src: &str) -> SurfaceResult<Vec<Spanned>> {
    let (toks, mut errors) = lex_recover(src, &Limits::default());
    match errors.is_empty() {
        true => Ok(toks),
        false => Err(errors.remove(0)),
    }
}

/// Lexes with error recovery: bad characters are skipped and recorded,
/// and lexing continues, so one stray byte does not hide every later
/// diagnostic. The token vector is always `Eof`-terminated and always
/// usable by the parser.
///
/// The token count is bounded by `limits.max_nodes` and the scan by
/// `limits.deadline`; hitting either appends an [`ErrorKind::Limit`]
/// error and stops early.
pub fn lex_recover(src: &str, limits: &Limits) -> (Vec<Spanned>, Vec<SurfaceError>) {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut errors: Vec<SurfaceError> = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if out.len() as u64 >= limits.max_nodes {
            errors.push(SurfaceError::new(
                Span::new(i, src.len()),
                ErrorKind::Limit(limits.nodes_error("lex")),
            ));
            break;
        }
        // Amortize the clock read; spans of 4096 tokens lex in well
        // under a millisecond.
        if out.len() % 4096 == 4095 && limits.deadline_passed() {
            errors.push(SurfaceError::new(
                Span::new(i, src.len()),
                ErrorKind::Limit(limits.deadline_error("lex")),
            ));
            break;
        }
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '(' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested comment.
                let mut depth = 1;
                i += 2;
                while depth > 0 {
                    if i + 1 >= bytes.len() {
                        errors.push(SurfaceError::new(
                            Span::new(start, bytes.len()),
                            ErrorKind::Lex("unterminated comment".to_string()),
                        ));
                        i = bytes.len();
                        break;
                    }
                    if bytes[i] == b'(' && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes[i + 1] == b')' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '(' => {
                out.push(Spanned {
                    tok: Tok::LParen,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
            ')' => {
                out.push(Spanned {
                    tok: Tok::RParen,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
            ',' => {
                out.push(Spanned {
                    tok: Tok::Comma,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
            '.' => {
                out.push(Spanned {
                    tok: Tok::Dot,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
            '|' => {
                out.push(Spanned {
                    tok: Tok::Bar,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
            '_' => {
                out.push(Spanned {
                    tok: Tok::Wild,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
            ';' => {
                out.push(Spanned {
                    tok: Tok::Semi,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
            '*' => {
                out.push(Spanned {
                    tok: Tok::Star,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
            '+' => {
                out.push(Spanned {
                    tok: Tok::Plus,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
            '<' => {
                out.push(Spanned {
                    tok: Tok::Lt,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
            '-' if bytes.get(i + 1) == Some(&b'>') => {
                out.push(Spanned {
                    tok: Tok::Arrow,
                    span: Span::new(i, i + 2),
                });
                i += 2;
            }
            '-' => {
                out.push(Spanned {
                    tok: Tok::Minus,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
            '=' if bytes.get(i + 1) == Some(&b'>') => {
                out.push(Spanned {
                    tok: Tok::DArrow,
                    span: Span::new(i, i + 2),
                });
                i += 2;
            }
            '=' => {
                out.push(Spanned {
                    tok: Tok::Eq,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
            ':' if bytes.get(i + 1) == Some(&b'>') => {
                out.push(Spanned {
                    tok: Tok::Seal,
                    span: Span::new(i, i + 2),
                });
                i += 2;
            }
            ':' => {
                out.push(Spanned {
                    tok: Tok::Colon,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
            '0'..='9' => {
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                let text = &src[i..j];
                match text.parse::<i64>() {
                    Ok(n) => out.push(Spanned {
                        tok: Tok::Int(n),
                        span: Span::new(i, j),
                    }),
                    Err(_) => errors.push(SurfaceError::new(
                        Span::new(i, j),
                        ErrorKind::Lex(format!("integer literal `{text}` out of range")),
                    )),
                }
                i = j;
            }
            'a'..='z' | 'A'..='Z' => {
                let mut j = i;
                while j < bytes.len()
                    && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_' || bytes[j] == b'\'')
                {
                    j += 1;
                }
                let word = &src[i..j];
                let tok = match word {
                    "signature" => Tok::Signature,
                    "structure" => Tok::Structure,
                    "functor" => Tok::Functor,
                    "sig" => Tok::Sig,
                    "struct" => Tok::Struct,
                    "end" => Tok::End,
                    "val" => Tok::Val,
                    "fun" => Tok::Fun,
                    "type" => Tok::Type,
                    "datatype" => Tok::Datatype,
                    "of" => Tok::Of,
                    "rec" => Tok::Rec,
                    "and" => Tok::And,
                    "where" => Tok::Where,
                    "let" => Tok::Let,
                    "in" => Tok::In,
                    "if" => Tok::If,
                    "then" => Tok::Then,
                    "else" => Tok::Else,
                    "case" => Tok::Case,
                    "fn" => Tok::Fn,
                    "raise" => Tok::Raise,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    _ => Tok::Ident(word.into()),
                };
                out.push(Spanned {
                    tok,
                    span: Span::new(i, j),
                });
                i = j;
            }
            _ => {
                // Decode the full (possibly multi-byte) character so the
                // error shows `λ`, not its first byte; then skip it and
                // keep lexing, so later errors are still reported.
                let ch = match src[i..].chars().next() {
                    Some(ch) => ch,
                    None => break,
                };
                errors.push(SurfaceError::new(
                    Span::new(i, i + ch.len_utf8()),
                    ErrorKind::Lex(format!("unexpected character `{ch}`")),
                ));
                i += ch.len_utf8();
            }
        }
    }
    out.push(Spanned {
        tok: Tok::Eof,
        span: Span::new(src.len(), src.len()),
    });
    (out, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("structure rec List"),
            vec![
                Tok::Structure,
                Tok::Rec,
                Tok::Ident("List".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("-> => :> : = * < -"),
            vec![
                Tok::Arrow,
                Tok::DArrow,
                Tok::Seal,
                Tok::Colon,
                Tok::Eq,
                Tok::Star,
                Tok::Lt,
                Tok::Minus,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn nested_comments() {
        assert_eq!(
            toks("a (* x (* y *) z *) b"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(lex("(* oops").is_err());
    }

    #[test]
    fn integers() {
        assert_eq!(toks("42 0"), vec![Tok::Int(42), Tok::Int(0), Tok::Eof]);
    }

    #[test]
    fn primes_in_identifiers() {
        assert_eq!(toks("t'"), vec![Tok::Ident("t'".into()), Tok::Eof]);
    }

    #[test]
    fn unexpected_character() {
        assert!(lex("#").is_err());
    }

    #[test]
    fn non_ascii_reported_as_whole_character() {
        let err = lex("val λ = 1").unwrap_err();
        assert!(err.to_string().contains('λ'), "{err}");
        // The span covers the whole multi-byte character.
        assert_eq!(err.span.end - err.span.start, 'λ'.len_utf8());
    }
}
