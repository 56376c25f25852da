//! Recursive-descent parser for the dialect.
//!
//! Entry points: [`parse_statement`], [`parse_statements`],
//! [`parse_op_block`], [`parse_expr`].
//!
//! One dialect quirk inherited from the paper's grammar: a rule's action is
//! an *operation block* — a `;`-separated sequence of operations — so in a
//! multi-statement script a `create rule ... then op` greedily absorbs
//! subsequent `;`-separated DML operations into its action. Scripts should
//! place rule definitions last or issue them as separate `execute` calls.

mod expr;
pub(crate) mod rule;
mod stmt;

use crate::ast::{DmlOp, Expr, Statement};
use crate::error::SqlError;
use crate::lexer::lex;
use crate::token::{Keyword, Token, TokenKind};

/// Parse a single statement; trailing `;` allowed, trailing garbage is an
/// error. A `create rule` consumes the entire remaining input as its action
/// block (see module docs).
pub fn parse_statement(src: &str) -> Result<Statement, SqlError> {
    let mut p = Parser::new(src)?;
    let stmt = p.statement()?;
    p.eat(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a `;`-separated script of statements.
pub fn parse_statements(src: &str) -> Result<Vec<Statement>, SqlError> {
    let mut p = Parser::new(src)?;
    let mut out = Vec::new();
    loop {
        while p.eat(&TokenKind::Semicolon) {}
        if p.at_eof() {
            return Ok(out);
        }
        out.push(p.statement()?);
        if !p.at_eof() && !p.check(&TokenKind::Semicolon) {
            return Err(p.unexpected("';' between statements"));
        }
    }
}

/// Parse an operation block: `sql-op ; sql-op ; ... ; sql-op` (paper §2.1).
pub fn parse_op_block(src: &str) -> Result<Vec<DmlOp>, SqlError> {
    let mut p = Parser::new(src)?;
    let block = p.op_block()?;
    p.expect_eof()?;
    if block.is_empty() {
        return Err(SqlError::parse(0, "operation block must be non-empty"));
    }
    Ok(block)
}

/// Parse a standalone expression (used by the constraint compiler and tests).
pub fn parse_expr(src: &str) -> Result<Expr, SqlError> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// The deepest expression tree the parser accepts, in levels from the
/// root: every operator, `not`, unary minus, subquery and aggregate adds
/// one. The planner, compiler, evaluator, printer and `Drop` all recurse
/// over the tree, so this bound keeps them within a default 2 MiB thread
/// stack; nested subqueries are the costliest level and set the value.
/// Grouping parentheses add no level but do cost the parser stack, so at
/// most `2 * MAX_NESTING` may be open at once — as many as the printer's
/// fully parenthesized text of any admitted tree needs, so canonical rule
/// text (checkpoints, snapshots) always parses back. Deeper input is
/// rejected with [`SqlError::TooDeep`].
pub const MAX_NESTING: usize = 64;

/// The parser state: a token stream and a cursor, plus the bookkeeping
/// behind [`MAX_NESTING`].
pub(crate) struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Tree level of the node being parsed (an expression's root is 1).
    depth: usize,
    /// Deepest tree level reached within the operator subtree being
    /// parsed, counting the levels [`Parser::lift`] pushed it down.
    peak: usize,
    /// Grouping parentheses open around the cursor.
    parens: usize,
}

impl Parser {
    pub(crate) fn new(src: &str) -> Result<Self, SqlError> {
        Ok(Parser { tokens: lex(src)?, pos: 0, depth: 0, peak: 0, parens: 0 })
    }

    /// Parse a child one level below the current node.
    pub(crate) fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        if self.depth == MAX_NESTING {
            return Err(SqlError::TooDeep { limit: MAX_NESTING });
        }
        self.depth += 1;
        self.peak = self.peak.max(self.depth);
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// Parse the inside of a grouping parenthesis, at the same tree level.
    pub(crate) fn grouped<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        if self.parens == 2 * MAX_NESTING {
            return Err(SqlError::TooDeep { limit: MAX_NESTING });
        }
        self.parens += 1;
        let out = f(self);
        self.parens -= 1;
        out
    }

    /// A new operator node takes the place of the operator subtree parsed
    /// so far, pushing it one level down.
    pub(crate) fn lift(&mut self) -> Result<(), SqlError> {
        if self.peak == MAX_NESTING {
            return Err(SqlError::TooDeep { limit: MAX_NESTING });
        }
        self.peak += 1;
        Ok(())
    }

    pub(crate) fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    pub(crate) fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    pub(crate) fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    pub(crate) fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    pub(crate) fn advance(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn check(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    pub(crate) fn check_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if *k == kw)
    }

    /// Whether the current token is the soft keyword `word` (lexed as an
    /// identifier).
    pub(crate) fn check_word(&self, word: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s == word)
    }

    pub(crate) fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    pub(crate) fn eat_kw(&mut self, kw: Keyword) -> bool {
        if self.check_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    pub(crate) fn eat_word(&mut self, word: &str) -> bool {
        if self.check_word(word) {
            self.advance();
            true
        } else {
            false
        }
    }

    pub(crate) fn expect(&mut self, kind: &TokenKind) -> Result<(), SqlError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(SqlError::parse(self.offset(), format!("expected {kind}, found {}", self.peek())))
        }
    }

    pub(crate) fn expect_kw(&mut self, kw: Keyword) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::parse(
                self.offset(),
                format!("expected keyword '{}', found {}", kw.as_str(), self.peek()),
            ))
        }
    }

    pub(crate) fn expect_eof(&self) -> Result<(), SqlError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(SqlError::parse(
                self.offset(),
                format!("unexpected trailing input: {}", self.peek()),
            ))
        }
    }

    /// An identifier; type-name keywords are allowed as identifiers so that
    /// e.g. a column may be named `text`.
    pub(crate) fn ident(&mut self) -> Result<String, SqlError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            TokenKind::Keyword(k @ (Keyword::Int | Keyword::Text | Keyword::Float | Keyword::Bool)) => {
                self.advance();
                Ok(k.as_str().to_string())
            }
            other => Err(SqlError::parse(self.offset(), format!("expected identifier, found {other}"))),
        }
    }

    pub(crate) fn unexpected(&self, wanted: &str) -> SqlError {
        SqlError::parse(self.offset(), format!("expected {wanted}, found {}", self.peek()))
    }
}
