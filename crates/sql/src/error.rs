//! SQL front-end errors.

use std::fmt;

/// An error from the lexer or parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// The lexer rejected the input at byte `offset`.
    Lex {
        /// Byte offset in the source text.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// The parser rejected the input at byte `offset`.
    Parse {
        /// Byte offset in the source text.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// The input nests expressions deeper than the parser's fixed limit
    /// ([`crate::MAX_NESTING`]); rejected before any later stage recurses
    /// over it.
    TooDeep {
        /// The nesting limit that was exceeded.
        limit: usize,
    },
}

impl SqlError {
    /// Build a lexer error.
    pub fn lex(offset: usize, message: impl Into<String>) -> Self {
        SqlError::Lex { offset, message: message.into() }
    }

    /// Build a parser error.
    pub fn parse(offset: usize, message: impl Into<String>) -> Self {
        SqlError::Parse { offset, message: message.into() }
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex { offset, message } => write!(f, "lex error at byte {offset}: {message}"),
            SqlError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            SqlError::TooDeep { limit } => {
                write!(f, "parse error: expression nests deeper than {limit} levels")
            }
        }
    }
}

impl std::error::Error for SqlError {}
