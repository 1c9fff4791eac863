//! SQL lexer.
//!
//! Turns SQL text into a token stream. Keywords are case-insensitive;
//! identifiers may be double-quoted to preserve case or escape keywords;
//! string literals use single quotes with `''` escaping.

use crate::error::SqlError;
use crate::Result;
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword (stored uppercase).
    Keyword(String),
    /// Identifier (table, column, alias).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (quotes stripped, escapes resolved).
    Str(String),
    /// Single-char or two-char operator / punctuation.
    Symbol(&'static str),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "{k}"),
            Token::Ident(i) => write!(f, "{i}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::Float(v) => write!(f, "{v}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Symbol(s) => write!(f, "{s}"),
        }
    }
}

/// All recognized SQL keywords of the supported subset.
pub(crate) const KEYWORDS: &[&str] = &[
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "OFFSET",
    "AS", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "IS", "NULL", "TRUE", "FALSE", "JOIN",
    "INNER", "LEFT", "ON", "ASC", "DESC", "CASE", "WHEN", "THEN", "ELSE", "END", "COUNT", "SUM",
    "AVG", "MIN", "MAX", "STDDEV", "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
];

fn is_keyword(word: &str) -> bool {
    KEYWORDS.iter().any(|k| word.eq_ignore_ascii_case(k))
}

/// Tokenize SQL text.
pub fn tokenize(sql: &str) -> Result<Vec<Token>> {
    let bytes = sql.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '\'' => {
                let (s, next) = lex_string(sql, i)?;
                tokens.push(Token::Str(s));
                i = next;
            }
            '"' => {
                let (s, next) = lex_quoted_ident(sql, i)?;
                tokens.push(Token::Ident(s));
                i = next;
            }
            c if c.is_ascii_digit() => {
                let (tok, next) = lex_number(sql, i)?;
                tokens.push(tok);
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &sql[start..i];
                if is_keyword(word) {
                    tokens.push(Token::Keyword(word.to_ascii_uppercase()));
                } else {
                    tokens.push(Token::Ident(word.to_owned()));
                }
            }
            _ => {
                let two = sql.get(i..i + 2).unwrap_or("");
                let sym: Option<&'static str> = match two {
                    "<=" => Some("<="),
                    ">=" => Some(">="),
                    "<>" => Some("<>"),
                    "!=" => Some("!="),
                    _ => None,
                };
                if let Some(s) = sym {
                    tokens.push(Token::Symbol(s));
                    i += 2;
                    continue;
                }
                let sym: &'static str = match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '.' => ".",
                    '*' => "*",
                    '+' => "+",
                    '-' => "-",
                    '/' => "/",
                    '%' => "%",
                    '=' => "=",
                    '<' => "<",
                    '>' => ">",
                    ';' => ";",
                    other => {
                        return Err(SqlError::Lex {
                            position: i,
                            message: format!("unexpected character {other:?}"),
                        })
                    }
                };
                tokens.push(Token::Symbol(sym));
                i += 1;
            }
        }
    }
    Ok(tokens)
}

fn lex_string(sql: &str, start: usize) -> Result<(String, usize)> {
    let bytes = sql.as_bytes();
    let mut out = String::new();
    let mut i = start + 1;
    while i < bytes.len() {
        if bytes[i] == b'\'' {
            if bytes.get(i + 1) == Some(&b'\'') {
                out.push('\'');
                i += 2;
            } else {
                return Ok((out, i + 1));
            }
        } else {
            // Safe for ASCII; pull full chars for multi-byte.
            let Some(ch) = sql[i..].chars().next() else { break };
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    Err(SqlError::Lex { position: start, message: "unterminated string literal".into() })
}

fn lex_quoted_ident(sql: &str, start: usize) -> Result<(String, usize)> {
    let bytes = sql.as_bytes();
    let mut out = String::new();
    let mut i = start + 1;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            return Ok((out, i + 1));
        }
        let Some(ch) = sql[i..].chars().next() else { break };
        out.push(ch);
        i += ch.len_utf8();
    }
    Err(SqlError::Lex { position: start, message: "unterminated quoted identifier".into() })
}

fn lex_number(sql: &str, start: usize) -> Result<(Token, usize)> {
    let bytes = sql.as_bytes();
    let mut i = start;
    let mut is_float = false;
    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'.' && i + 1 < bytes.len() && (bytes[i + 1] as char).is_ascii_digit()
    {
        is_float = true;
        i += 1;
        while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
            is_float = true;
            i = j;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = &sql[start..i];
    let tok = if is_float {
        Token::Float(text.parse::<f64>().map_err(|e| SqlError::Lex {
            position: start,
            message: e.to_string(),
        })?)
    } else {
        Token::Int(text.parse::<i64>().map_err(|e| SqlError::Lex {
            position: start,
            message: e.to_string(),
        })?)
    };
    Ok((tok, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_case_insensitive() {
        let toks = tokenize("select From WHERE").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Keyword("SELECT".into()),
                Token::Keyword("FROM".into()),
                Token::Keyword("WHERE".into())
            ]
        );
    }

    #[test]
    fn identifiers_preserve_case() {
        let toks = tokenize("myTable _col2").unwrap();
        assert_eq!(toks, vec![Token::Ident("myTable".into()), Token::Ident("_col2".into())]);
    }

    #[test]
    fn numbers_int_float_exponent() {
        let toks = tokenize("42 3.25 1e3 2.5E-2").unwrap();
        assert_eq!(
            toks,
            vec![Token::Int(42), Token::Float(3.25), Token::Float(1000.0), Token::Float(0.025)]
        );
    }

    #[test]
    fn trailing_dot_is_projection_not_float() {
        // "t.x" must lex as ident dot ident, not a float
        let toks = tokenize("t.x 1.a").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("t".into()),
                Token::Symbol("."),
                Token::Ident("x".into()),
                Token::Int(1),
                Token::Symbol("."),
                Token::Ident("a".into())
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        let toks = tokenize("'it''s'").unwrap();
        assert_eq!(toks, vec![Token::Str("it's".into())]);
        assert!(tokenize("'open").is_err());
    }

    #[test]
    fn quoted_identifiers() {
        let toks = tokenize("\"Group\"").unwrap();
        assert_eq!(toks, vec![Token::Ident("Group".into())]);
        assert!(tokenize("\"open").is_err());
    }

    #[test]
    fn two_char_operators() {
        let toks = tokenize("<= >= <> !=").unwrap();
        assert_eq!(
            toks,
            vec![Token::Symbol("<="), Token::Symbol(">="), Token::Symbol("<>"), Token::Symbol("!=")]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize("SELECT -- comment here\n 1").unwrap();
        assert_eq!(toks, vec![Token::Keyword("SELECT".into()), Token::Int(1)]);
    }

    #[test]
    fn unexpected_character() {
        assert!(matches!(tokenize("SELECT @"), Err(SqlError::Lex { .. })));
    }

    #[test]
    fn full_query_token_stream() {
        let toks =
            tokenize("SELECT a, SUM(b) FROM t WHERE c >= 10 GROUP BY a ORDER BY 2 DESC LIMIT 5")
                .unwrap();
        assert_eq!(toks.len(), 22);
    }
}
