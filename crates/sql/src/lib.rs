//! # setrules-sql
//!
//! The SQL front-end for the `setrules` system: a hand-written lexer,
//! recursive-descent parser, AST, and canonical printer for the dialect of
//! Widom & Finkelstein's SIGMOD 1990 paper — SQL DML (§2.1), production-rule
//! DDL (§3), rule priorities (§4.4), and the §5 extensions (`selected`
//! predicates, `process rules` triggering points).
//!
//! ```
//! use setrules_sql::{parse_statement, ast::Statement};
//!
//! let stmt = parse_statement(
//!     "create rule cascade when deleted from dept \
//!      then delete from emp where dept_no in (select dept_no from deleted dept)",
//! ).unwrap();
//! assert!(matches!(stmt, Statement::CreateRule(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod display;
mod error;
mod lexer;
mod parser;
pub mod token;

pub use error::SqlError;
pub use lexer::lex;
pub use parser::rule::parse_trans_pred;
pub use parser::{parse_expr, parse_op_block, parse_statement, parse_statements, MAX_NESTING};

#[cfg(test)]
mod tests {
    use super::ast::*;
    use super::*;
    use setrules_storage::{DataType, Value};

    #[test]
    fn create_table() {
        let s = parse_statement("create table emp (name text, emp_no int, salary float, dept_no int)")
            .unwrap();
        let Statement::CreateTable(ct) = s else { panic!() };
        assert_eq!(ct.name, "emp");
        assert_eq!(ct.columns.len(), 4);
        assert_eq!(ct.columns[2], ("salary".into(), DataType::Float));
    }

    #[test]
    fn paper_example_3_1_parses() {
        let s = parse_statement(
            "create rule r31 when deleted from dept \
             then delete from emp where dept_no in (select dept_no from deleted dept)",
        )
        .unwrap();
        let Statement::CreateRule(r) = s else { panic!() };
        assert_eq!(r.name, "r31");
        assert_eq!(r.when, vec![BasicTransPred::DeletedFrom("dept".into())]);
        assert!(r.condition.is_none());
        let RuleAction::Block(ops) = &r.action else { panic!() };
        assert_eq!(ops.len(), 1);
        let DmlOp::Delete(d) = &ops[0] else { panic!() };
        assert_eq!(d.table, "emp");
        let Some(Expr::InSubquery { subquery, negated: false, .. }) = &d.predicate else { panic!() };
        assert!(matches!(
            &subquery.from[0].source,
            TableSource::Transition { kind: TransitionKind::Deleted, table, column: None } if table == "dept"
        ));
    }

    #[test]
    fn paper_example_3_2_parses() {
        let s = parse_statement(
            "create rule r32 when updated emp.salary \
             if (select sum(salary) from new updated emp.salary) > \
                (select sum(salary) from old updated emp.salary) \
             then update emp set salary = 0.95 * salary where dept_no = 2; \
                  update emp set salary = 0.85 * salary where dept_no = 3",
        )
        .unwrap();
        let Statement::CreateRule(r) = s else { panic!() };
        assert_eq!(
            r.when,
            vec![BasicTransPred::Updated { table: "emp".into(), column: Some("salary".into()) }]
        );
        let Some(Expr::Binary { op: BinaryOp::Gt, left, .. }) = &r.condition else { panic!() };
        let Expr::ScalarSubquery(sub) = left.as_ref() else { panic!() };
        assert!(matches!(
            &sub.from[0].source,
            TableSource::Transition { kind: TransitionKind::NewUpdated, column: Some(c), .. } if c == "salary"
        ));
        let RuleAction::Block(ops) = &r.action else { panic!() };
        assert_eq!(ops.len(), 2, "the action is a two-operation block");
    }

    #[test]
    fn paper_example_3_3_parses() {
        let s = parse_statement(
            "create rule r33 when inserted into emp or deleted from emp \
               or updated emp.salary or updated emp.dept_no \
             if exists (select * from emp e1 where salary > \
                 2 * (select avg(salary) from emp e2 where e2.dept_no = e1.dept_no)) \
             then delete from emp where emp_no = \
                 (select mgr_no from dept where dept_no = 5)",
        )
        .unwrap();
        let Statement::CreateRule(r) = s else { panic!() };
        assert_eq!(r.when.len(), 4);
        let Some(Expr::Exists { negated: false, subquery }) = &r.condition else { panic!() };
        assert_eq!(subquery.from[0].alias.as_deref(), Some("e1"));
    }

    #[test]
    fn rollback_action() {
        let s = parse_statement("create rule guard when inserted into emp then rollback").unwrap();
        let Statement::CreateRule(r) = s else { panic!() };
        assert_eq!(r.action, RuleAction::Rollback);
    }

    #[test]
    fn priority_statement() {
        let s = parse_statement("create rule priority r2 before r1").unwrap();
        assert_eq!(s, Statement::CreatePriority { higher: "r2".into(), lower: "r1".into() });
    }

    #[test]
    fn rule_admin_statements() {
        assert_eq!(parse_statement("drop rule r").unwrap(), Statement::DropRule("r".into()));
        assert_eq!(parse_statement("activate rule r").unwrap(), Statement::ActivateRule("r".into()));
        assert_eq!(
            parse_statement("deactivate rule r").unwrap(),
            Statement::DeactivateRule("r".into())
        );
        assert_eq!(parse_statement("process rules").unwrap(), Statement::ProcessRules);
    }

    #[test]
    fn op_block_multiple_ops() {
        let ops = parse_op_block(
            "insert into emp values ('Jane', 1, 9.5, 2); update emp set salary = salary + 1; \
             delete from dept",
        )
        .unwrap();
        assert_eq!(ops.len(), 3);
    }

    #[test]
    fn multi_row_values() {
        let ops = parse_op_block("insert into dept values (1, 10), (2, 20)").unwrap();
        let DmlOp::Insert(ins) = &ops[0] else { panic!() };
        let InsertSource::Values(rows) = &ins.source else { panic!() };
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn insert_from_select() {
        let ops = parse_op_block("insert into backup (select * from emp where salary > 100)").unwrap();
        let DmlOp::Insert(ins) = &ops[0] else { panic!() };
        assert!(matches!(ins.source, InsertSource::Select(_)));
    }

    #[test]
    fn select_with_all_clauses() {
        let s = parse_statement(
            "select dept_no, avg(salary) as a from emp where salary > 0 \
             group by dept_no having count(*) > 1 order by dept_no desc limit 10",
        )
        .unwrap();
        let Statement::Dml(DmlOp::Select(sel)) = s else { panic!() };
        assert_eq!(sel.projection.len(), 2);
        assert_eq!(sel.group_by.len(), 1);
        assert!(sel.having.is_some());
        assert_eq!(sel.order_by.len(), 1);
        assert!(!sel.order_by[0].1, "desc");
        assert_eq!(sel.limit, Some(10));
    }

    #[test]
    fn transition_table_with_alias() {
        let s = parse_statement("select tvar.name from inserted emp tvar").unwrap();
        let Statement::Dml(DmlOp::Select(sel)) = s else { panic!() };
        assert_eq!(sel.from[0].alias.as_deref(), Some("tvar"));
        assert_eq!(sel.from[0].binding_name(), "tvar");
    }

    #[test]
    fn old_new_updated_without_column() {
        let s = parse_statement("select * from old updated emp, new updated emp").unwrap();
        let Statement::Dml(DmlOp::Select(sel)) = s else { panic!() };
        assert!(matches!(
            &sel.from[0].source,
            TableSource::Transition { kind: TransitionKind::OldUpdated, column: None, .. }
        ));
        assert!(matches!(
            &sel.from[1].source,
            TableSource::Transition { kind: TransitionKind::NewUpdated, column: None, .. }
        ));
    }

    #[test]
    fn selected_transition_table() {
        let s = parse_statement("select * from selected emp.salary").unwrap();
        let Statement::Dml(DmlOp::Select(sel)) = s else { panic!() };
        assert!(matches!(
            &sel.from[0].source,
            TableSource::Transition { kind: TransitionKind::Selected, column: Some(c), .. } if c == "salary"
        ));
    }

    #[test]
    fn plain_table_named_old_is_fine() {
        // `old` alone (not followed by `updated`) is an ordinary name.
        let s = parse_statement("select * from old").unwrap();
        let Statement::Dml(DmlOp::Select(sel)) = s else { panic!() };
        assert_eq!(sel.from[0].source, TableSource::Named("old".into()));
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("1 + 2 * 3 = 7 and not 1 > 2 or false").unwrap();
        // ((1 + (2*3)) = 7 and not (1 > 2)) or false
        let Expr::Binary { op: BinaryOp::Or, left, right } = e else { panic!() };
        assert_eq!(*right, Expr::lit(false));
        let Expr::Binary { op: BinaryOp::And, left: l2, .. } = *left else { panic!() };
        let Expr::Binary { op: BinaryOp::Eq, left: sum, .. } = *l2 else { panic!() };
        let Expr::Binary { op: BinaryOp::Add, right: prod, .. } = *sum else { panic!() };
        assert!(matches!(*prod, Expr::Binary { op: BinaryOp::Mul, .. }));
    }

    #[test]
    fn between_and_binds_to_between() {
        let e = parse_expr("x between 1 and 2 and y = 3").unwrap();
        let Expr::Binary { op: BinaryOp::And, left, .. } = e else { panic!() };
        assert!(matches!(*left, Expr::Between { negated: false, .. }));
    }

    #[test]
    fn not_in_and_not_between_and_not_like() {
        assert!(matches!(parse_expr("x not in (1, 2)").unwrap(), Expr::InList { negated: true, .. }));
        assert!(matches!(
            parse_expr("x not between 1 and 2").unwrap(),
            Expr::Between { negated: true, .. }
        ));
        assert!(matches!(parse_expr("x not like 'a%'").unwrap(), Expr::Like { negated: true, .. }));
        assert!(matches!(
            parse_expr("not exists (select * from t)").unwrap(),
            Expr::Exists { negated: true, .. }
        ));
    }

    #[test]
    fn is_null_forms() {
        assert!(matches!(parse_expr("x is null").unwrap(), Expr::IsNull { negated: false, .. }));
        assert!(matches!(parse_expr("x is not null").unwrap(), Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn count_star_and_distinct() {
        assert_eq!(
            parse_expr("count(*)").unwrap(),
            Expr::Aggregate { func: AggFunc::Count, arg: None, distinct: false }
        );
        assert!(matches!(
            parse_expr("count(distinct dept_no)").unwrap(),
            Expr::Aggregate { func: AggFunc::Count, arg: Some(_), distinct: true }
        ));
    }

    #[test]
    fn string_literal_with_quote() {
        assert_eq!(parse_expr("'it''s'").unwrap(), Expr::Literal(Value::Text("it's".into())));
    }

    #[test]
    fn scripts_split_on_semicolons() {
        let stmts = parse_statements(
            "create table t (a int); insert into t values (1); select * from t;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn script_rule_action_absorbs_following_dml() {
        // Documented greediness: the op-block of a rule action extends
        // across semicolons through subsequent DML.
        let stmts = parse_statements(
            "create rule r when inserted into t then delete from u; insert into v values (1)",
        )
        .unwrap();
        assert_eq!(stmts.len(), 1);
        let Statement::CreateRule(r) = &stmts[0] else { panic!() };
        let RuleAction::Block(ops) = &r.action else { panic!() };
        assert_eq!(ops.len(), 2);
    }

    #[test]
    fn script_rule_action_stops_before_ddl() {
        let stmts = parse_statements(
            "create rule r when inserted into t then delete from u; drop rule r",
        )
        .unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn errors_carry_position() {
        let err = parse_statement("select from").unwrap_err();
        let SqlError::Parse { offset, .. } = err else { panic!("not a parse error: {err}") };
        assert!(offset >= 7, "error at the 'from', got offset {offset}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_statement("select * from t garbage garbage").is_err());
        assert!(parse_expr("1 + 2 extra").is_err());
    }

    #[test]
    fn empty_op_block_rejected() {
        assert!(parse_op_block("").is_err());
    }

    #[test]
    fn parse_trans_pred_list() {
        let preds = parse_trans_pred("inserted into emp or updated emp.salary or updated dept").unwrap();
        assert_eq!(preds.len(), 3);
        assert_eq!(preds[2], BasicTransPred::Updated { table: "dept".into(), column: None });
    }

    #[test]
    fn create_index_using_clause() {
        use setrules_storage::IndexKind;
        let plain = parse_statement("create index on emp (dept_no)").unwrap();
        assert_eq!(
            plain,
            Statement::CreateIndex {
                table: "emp".into(),
                column: "dept_no".into(),
                kind: IndexKind::Hash
            }
        );
        let hash = parse_statement("create index on emp (dept_no) using hash").unwrap();
        assert_eq!(hash, plain);
        let ordered = parse_statement("create index on emp (salary) using ordered").unwrap();
        assert_eq!(
            ordered,
            Statement::CreateIndex {
                table: "emp".into(),
                column: "salary".into(),
                kind: IndexKind::Ordered
            }
        );
        assert!(parse_statement("create index on emp (salary) using btree").is_err());
        // Printing round-trips both kinds; hash stays bare for
        // byte-stability of pre-ordered scripts.
        assert_eq!(plain.to_string(), "create index on emp (dept_no)");
        assert_eq!(ordered.to_string(), "create index on emp (salary) using ordered");
        assert_eq!(parse_statement(&ordered.to_string()).unwrap(), ordered);
        // `using` stays an ordinary identifier elsewhere.
        let s = parse_statement("select using from ordered where hash = 1").unwrap();
        assert!(matches!(s, Statement::Dml(DmlOp::Select(_))));
    }

    #[test]
    fn display_round_trips_paper_rules() {
        let srcs = [
            "create rule r31 when deleted from dept then delete from emp where dept_no in (select dept_no from deleted dept)",
            "create rule r32 when updated emp.salary if (select sum(salary) from new updated emp.salary) > (select sum(salary) from old updated emp.salary) then update emp set salary = 0.95 * salary where dept_no = 2; update emp set salary = 0.85 * salary where dept_no = 3",
            "select distinct a, b as c from t x, u where a = 1 group by a, b having count(*) > 0 order by a desc limit 3",
            "insert into t values (1, 'x', NULL, true), (2, 'y', 3.5, false)",
            "create rule g when updated t then rollback",
        ];
        for src in srcs {
            let ast1 = parse_statement(src).unwrap();
            let printed = ast1.to_string();
            let ast2 = parse_statement(&printed)
                .unwrap_or_else(|e| panic!("reparse of '{printed}' failed: {e}"));
            assert_eq!(ast1, ast2, "round-trip mismatch for: {src}");
        }
    }
}
