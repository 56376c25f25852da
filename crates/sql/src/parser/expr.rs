//! Expression parsing by precedence climbing, with conventional SQL
//! precedence: `or` < `and` < `not` < comparisons/`in`/`between`/`like`/`is`
//! < `+ -` < `* / %` < unary `-` < primary. Binary operators associate to
//! the left; comparisons do not chain.

use std::sync::Arc;

use setrules_storage::Value;

use crate::ast::{AggFunc, BinaryOp, Expr, UnaryOp};
use crate::error::SqlError;
use crate::token::{Keyword, TokenKind};

use super::Parser;

/// Binding levels, loosest first.
const OR: u8 = 0;
const AND: u8 = 1;
const NOT: u8 = 2;
const CMP: u8 = 3;
const ADD: u8 = 4;
const MUL: u8 = 5;
const ATOM: u8 = 6;

impl Parser {
    pub(crate) fn expr(&mut self) -> Result<Expr, SqlError> {
        self.nested(|p| p.binary(OR))
    }

    /// An expression whose operators all bind at least as tightly as `min`.
    /// Each operator becomes a node over everything parsed so far, so the
    /// subtree's height is tracked on its own (siblings never add up).
    fn binary(&mut self, min: u8) -> Result<Expr, SqlError> {
        let enclosing = std::mem::replace(&mut self.peak, self.depth);
        let (mut left, mut level) = self.prefix(min)?;
        while let Some(prec) = self.infix_level() {
            if prec < min || prec > level || (prec == CMP && level == CMP) {
                break;
            }
            self.lift()?;
            left = self.infix(left, prec)?;
            level = prec;
        }
        self.peak = self.peak.max(enclosing);
        Ok(left)
    }

    /// A `not` (where `min` admits one), or a unary operand; returns the
    /// level the result binds at.
    fn prefix(&mut self, min: u8) -> Result<(Expr, u8), SqlError> {
        if min <= NOT && self.check_kw(Keyword::Not) {
            self.advance();
            // `not exists (...)` gets the dedicated negated form.
            if self.check_kw(Keyword::Exists) {
                return Ok((self.exists(true)?, NOT));
            }
            let inner = self.nested(|p| p.binary(NOT))?;
            return Ok((Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) }, NOT));
        }
        Ok((self.unary()?, ATOM))
    }

    /// The binding level of the operator at the cursor, if it is one.
    fn infix_level(&self) -> Option<u8> {
        match self.peek() {
            TokenKind::Keyword(Keyword::Or) => Some(OR),
            TokenKind::Keyword(Keyword::And) => Some(AND),
            TokenKind::Eq
            | TokenKind::NotEq
            | TokenKind::Lt
            | TokenKind::LtEq
            | TokenKind::Gt
            | TokenKind::GtEq
            | TokenKind::Keyword(
                Keyword::Is | Keyword::Not | Keyword::In | Keyword::Between | Keyword::Like,
            ) => Some(CMP),
            TokenKind::Plus | TokenKind::Minus => Some(ADD),
            TokenKind::Star | TokenKind::Slash | TokenKind::Percent => Some(MUL),
            _ => None,
        }
    }

    /// Apply the operator at the cursor (binding at `level`) to `left`.
    fn infix(&mut self, left: Expr, level: u8) -> Result<Expr, SqlError> {
        let op = match self.advance() {
            TokenKind::Keyword(Keyword::Or) => BinaryOp::Or,
            TokenKind::Keyword(Keyword::And) => BinaryOp::And,
            TokenKind::Eq => BinaryOp::Eq,
            TokenKind::NotEq => BinaryOp::NotEq,
            TokenKind::Lt => BinaryOp::Lt,
            TokenKind::LtEq => BinaryOp::LtEq,
            TokenKind::Gt => BinaryOp::Gt,
            TokenKind::GtEq => BinaryOp::GtEq,
            TokenKind::Plus => BinaryOp::Add,
            TokenKind::Minus => BinaryOp::Sub,
            TokenKind::Star => BinaryOp::Mul,
            TokenKind::Slash => BinaryOp::Div,
            TokenKind::Percent => BinaryOp::Mod,
            TokenKind::Keyword(Keyword::Is) => {
                let negated = self.eat_kw(Keyword::Not);
                self.expect_kw(Keyword::Null)?;
                return Ok(Expr::IsNull { expr: Box::new(left), negated });
            }
            TokenKind::Keyword(Keyword::Not) => match *self.peek() {
                TokenKind::Keyword(kw @ (Keyword::In | Keyword::Between | Keyword::Like)) => {
                    self.advance();
                    return self.special(left, kw, true);
                }
                _ => return Err(self.unexpected("'in', 'between', or 'like' after 'not'")),
            },
            TokenKind::Keyword(kw) => return self.special(left, kw, false),
            other => unreachable!("infix_level admitted {other}"),
        };
        let right = self.nested(|p| p.binary(level + 1))?;
        Ok(Expr::binary(left, op, right))
    }

    /// The rest of `[not] in (...)`, `[not] between a and b`, or
    /// `[not] like p [escape e]`, after the keyword `kw`.
    fn special(&mut self, left: Expr, kw: Keyword, negated: bool) -> Result<Expr, SqlError> {
        let operand = |p: &mut Self| p.nested(|p| p.binary(ADD)).map(Box::new);
        match kw {
            Keyword::In => self.in_tail(left, negated),
            Keyword::Between => {
                let low = operand(self)?;
                self.expect_kw(Keyword::And)?;
                let high = operand(self)?;
                Ok(Expr::Between { expr: Box::new(left), low, high, negated })
            }
            _ => {
                // `like`: `infix_level` admits no other keyword here.
                let pattern = operand(self)?;
                let escape = if self.eat_kw(Keyword::Escape) { Some(operand(self)?) } else { None };
                Ok(Expr::Like { expr: Box::new(left), pattern, escape, negated })
            }
        }
    }

    fn in_tail(&mut self, left: Expr, negated: bool) -> Result<Expr, SqlError> {
        self.expect(&TokenKind::LParen)?;
        if self.check_kw(Keyword::Select) {
            let sub = self.select_stmt()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::InSubquery {
                expr: Box::new(left),
                subquery: Arc::new(sub),
                negated,
            });
        }
        let mut list = vec![self.expr()?];
        while self.eat(&TokenKind::Comma) {
            list.push(self.expr()?);
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Expr::InList { expr: Box::new(left), list, negated })
    }

    fn unary(&mut self) -> Result<Expr, SqlError> {
        if self.eat(&TokenKind::Minus) {
            let inner = self.nested(Self::unary)?;
            return Ok(Expr::Unary { op: UnaryOp::Neg, expr: Box::new(inner) });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, SqlError> {
        match self.peek().clone() {
            TokenKind::Int(i) => {
                self.advance();
                Ok(Expr::Literal(Value::Int(i)))
            }
            TokenKind::Float(x) => {
                self.advance();
                Ok(Expr::Literal(Value::Float(x)))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Literal(Value::Text(s)))
            }
            TokenKind::Keyword(Keyword::Null) => {
                self.advance();
                Ok(Expr::Literal(Value::Null))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.advance();
                Ok(Expr::Literal(Value::Bool(true)))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.advance();
                Ok(Expr::Literal(Value::Bool(false)))
            }
            TokenKind::Keyword(Keyword::Exists) => self.exists(false),
            TokenKind::Keyword(
                kw @ (Keyword::Count | Keyword::Sum | Keyword::Avg | Keyword::Min | Keyword::Max),
            ) => {
                self.advance();
                self.aggregate(kw)
            }
            TokenKind::LParen => {
                self.advance();
                if self.check_kw(Keyword::Select) {
                    let sub = self.select_stmt()?;
                    self.expect(&TokenKind::RParen)?;
                    return Ok(Expr::ScalarSubquery(Arc::new(sub)));
                }
                let inner = self.grouped(|p| p.binary(OR))?;
                self.expect(&TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Ident(_) => self.column_ref(),
            other => Err(SqlError::parse(self.offset(), format!("expected expression, found {other}"))),
        }
    }

    fn exists(&mut self, negated: bool) -> Result<Expr, SqlError> {
        self.expect_kw(Keyword::Exists)?;
        self.expect(&TokenKind::LParen)?;
        let sub = self.select_stmt()?;
        self.expect(&TokenKind::RParen)?;
        Ok(Expr::Exists { subquery: Arc::new(sub), negated })
    }

    fn aggregate(&mut self, kw: Keyword) -> Result<Expr, SqlError> {
        let func = match kw {
            Keyword::Count => AggFunc::Count,
            Keyword::Sum => AggFunc::Sum,
            Keyword::Avg => AggFunc::Avg,
            Keyword::Min => AggFunc::Min,
            Keyword::Max => AggFunc::Max,
            _ => unreachable!("caller checked"),
        };
        self.expect(&TokenKind::LParen)?;
        if func == AggFunc::Count && self.eat(&TokenKind::Star) {
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::Aggregate { func, arg: None, distinct: false });
        }
        let distinct = self.eat_kw(Keyword::Distinct);
        let arg = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        Ok(Expr::Aggregate { func, arg: Some(Box::new(arg)), distinct })
    }

    fn column_ref(&mut self) -> Result<Expr, SqlError> {
        let first = self.ident()?;
        if self.check(&TokenKind::Dot) && !matches!(self.peek_at(1), TokenKind::Star) {
            self.advance();
            let name = self.ident()?;
            return Ok(Expr::Column { qualifier: Some(first), name });
        }
        Ok(Expr::Column { qualifier: None, name: first })
    }
}
