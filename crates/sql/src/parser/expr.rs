//! Expression parsing with conventional SQL precedence:
//! `or` < `and` < `not` < comparisons/`in`/`between`/`like`/`is` <
//! `+ -` < `* / %` < unary `-` < primary.

use std::sync::Arc;

use setrules_storage::Value;

use crate::ast::{AggFunc, BinaryOp, Expr, UnaryOp};
use crate::error::SqlError;
use crate::token::{Keyword, TokenKind};

use super::Parser;

impl Parser {
    pub(crate) fn expr(&mut self) -> Result<Expr, SqlError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.and_expr()?;
        while self.eat_kw(Keyword::Or) {
            let right = self.and_expr()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.not_expr()?;
        while self.check_kw(Keyword::And) {
            self.advance();
            let right = self.not_expr()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, SqlError> {
        if self.check_kw(Keyword::Not) {
            // `not exists (...)` gets the dedicated negated form.
            if matches!(self.peek_at(1), TokenKind::Keyword(Keyword::Exists)) {
                self.advance();
                return self.exists(true);
            }
            self.advance();
            let inner = self.not_expr()?;
            return Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) });
        }
        self.predicate()
    }

    /// A comparison or special predicate over additive expressions.
    fn predicate(&mut self) -> Result<Expr, SqlError> {
        let left = self.additive()?;
        let op = match self.peek() {
            TokenKind::Eq => Some(BinaryOp::Eq),
            TokenKind::NotEq => Some(BinaryOp::NotEq),
            TokenKind::Lt => Some(BinaryOp::Lt),
            TokenKind::LtEq => Some(BinaryOp::LtEq),
            TokenKind::Gt => Some(BinaryOp::Gt),
            TokenKind::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.additive()?;
            return Ok(Expr::binary(left, op, right));
        }
        if self.eat_kw(Keyword::Is) {
            let negated = self.eat_kw(Keyword::Not);
            self.expect_kw(Keyword::Null)?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        let negated = self.eat_kw(Keyword::Not);
        if self.eat_kw(Keyword::In) {
            return self.in_tail(left, negated);
        }
        if self.eat_kw(Keyword::Between) {
            let low = self.additive()?;
            self.expect_kw(Keyword::And)?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw(Keyword::Like) {
            let pattern = self.additive()?;
            let escape = if self.eat_kw(Keyword::Escape) {
                Some(Box::new(self.additive()?))
            } else {
                None
            };
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                escape,
                negated,
            });
        }
        if negated {
            return Err(self.unexpected("'in', 'between', or 'like' after 'not'"));
        }
        Ok(left)
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

    fn additive(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.multiplicative()?;
            left = Expr::binary(left, op, right);
        }
    }

    fn multiplicative(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                TokenKind::Percent => BinaryOp::Mod,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.unary()?;
            left = Expr::binary(left, op, right);
        }
    }

    fn unary(&mut self) -> Result<Expr, SqlError> {
        if self.eat(&TokenKind::Minus) {
            let inner = self.unary()?;
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
                let inner = self.expr()?;
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
