//! Recursive-descent parser for the supported SQL subset.

use pvm_types::{CmpOp, DataType, PvmError, Result, Value};

use crate::ast::{ColumnRef, JoinCond, MethodSpec, SelectItem, Statement, ViewSelect, WhereTerm};
use crate::lexer::{lex, Token};

/// Parse one or more `;`-separated statements.
pub fn parse(input: &str) -> Result<Vec<Statement>> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    loop {
        while p.eat(&Token::Semicolon) {}
        if p.at_end() {
            break;
        }
        out.push(p.statement()?);
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

fn err(msg: impl Into<String>) -> PvmError {
    PvmError::InvalidOperation(format!("SQL parse error: {}", msg.into()))
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    /// Case-insensitive keyword check.
    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(err(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("CREATE") {
            if self.eat_kw("TABLE") {
                return self.create_table();
            }
            self.eat_kw("MATERIALIZED");
            if self.eat_kw("VIEW") {
                return self.create_view();
            }
            return Err(err("expected TABLE or [MATERIALIZED] VIEW after CREATE"));
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("DELETE") {
            return self.delete();
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        if self.eat_kw("SELECT") {
            return self.select();
        }
        if self.eat_kw("SHOW") {
            if self.eat_kw("TABLES") {
                return Ok(Statement::ShowTables);
            }
            if self.eat_kw("VIEWS") {
                return Ok(Statement::ShowViews);
            }
            if self.eat_kw("COST") {
                return Ok(Statement::ShowCost);
            }
            return Err(err("expected TABLES, VIEWS, or COST after SHOW"));
        }
        if self.eat_kw("CHECK") {
            self.expect_kw("VIEW")?;
            return Ok(Statement::CheckView {
                name: self.ident()?,
            });
        }
        if self.eat_kw("DROP") {
            if self.eat_kw("VIEW") {
                return Ok(Statement::DropView {
                    name: self.ident()?,
                });
            }
            if self.eat_kw("TABLE") {
                return Ok(Statement::DropTable {
                    name: self.ident()?,
                });
            }
            return Err(err("expected VIEW or TABLE after DROP"));
        }
        if self.eat_kw("BEGIN") {
            if self.eat_kw("SNAPSHOT") {
                return Ok(Statement::BeginSnapshot);
            }
            self.eat_kw("TRANSACTION");
            return Ok(Statement::Begin);
        }
        if self.eat_kw("COMMIT") {
            return Ok(Statement::Commit);
        }
        if self.eat_kw("ROLLBACK") || self.eat_kw("ABORT") {
            return Ok(Statement::Rollback);
        }
        if self.eat_kw("ALTER") {
            return self.alter_view();
        }
        if self.eat_kw("EXPLAIN") {
            let analyze = self.eat_kw("ANALYZE");
            self.expect_kw("MAINTENANCE")?;
            self.expect_kw("OF")?;
            let view = self.ident()?;
            self.expect_kw("ON")?;
            let relation = self.ident()?;
            return Ok(Statement::ExplainMaintenance {
                view,
                relation,
                analyze,
            });
        }
        Err(err(format!(
            "unrecognized statement start: {:?}",
            self.peek()
        )))
    }

    fn data_type(&mut self) -> Result<DataType> {
        let t = self.ident()?;
        match t.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" => Ok(DataType::Int),
            "FLOAT" | "DOUBLE" | "REAL" => Ok(DataType::Float),
            "STR" | "TEXT" | "VARCHAR" | "STRING" => Ok(DataType::Str),
            "BOOL" | "BOOLEAN" => Ok(DataType::Bool),
            other => Err(err(format!("unknown type {other}"))),
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ty = self.data_type()?;
            columns.push((col, ty));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        self.expect_kw("PARTITION")?;
        self.expect_kw("BY")?;
        self.expect_kw("HASH")?;
        self.expect(&Token::LParen)?;
        let partition_column = self.ident()?;
        self.expect(&Token::RParen)?;
        let clustered = self.eat_kw("CLUSTERED");
        Ok(Statement::CreateTable {
            name,
            columns,
            partition_column,
            clustered,
        })
    }

    fn method_spec(&mut self) -> Result<MethodSpec> {
        if self.eat_kw("NAIVE") {
            return Ok(MethodSpec::Naive);
        }
        if self.eat_kw("AUXILIARY") {
            self.eat_kw("RELATION"); // optional second word
            return Ok(MethodSpec::AuxiliaryRelation);
        }
        if self.eat_kw("GLOBAL") {
            self.eat_kw("INDEX");
            return Ok(MethodSpec::GlobalIndex);
        }
        if self.eat_kw("AUTO") {
            return Ok(MethodSpec::Auto);
        }
        Err(err(
            "expected NAIVE, AUXILIARY RELATION, GLOBAL INDEX, or AUTO",
        ))
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let first = self.ident()?;
        if self.eat(&Token::Dot) {
            let col = self.ident()?;
            Ok(ColumnRef::qualified(first, col))
        } else {
            Ok(ColumnRef::bare(first))
        }
    }

    fn create_view(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        let method = if self.eat_kw("USING") {
            self.method_spec()?
        } else {
            MethodSpec::Auto
        };
        self.expect_kw("AS")?;
        self.expect_kw("SELECT")?;
        let mut projection = Vec::new();
        loop {
            projection.push(self.select_item()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let mut from = Vec::new();
        loop {
            let table = self.ident()?;
            // Optional alias (defaults to the table name).
            let alias = if matches!(self.peek(), Some(Token::Ident(s))
                if !s.eq_ignore_ascii_case("WHERE")
                    && !s.eq_ignore_ascii_case("PARTITION")
                    && !s.eq_ignore_ascii_case("GROUP"))
            {
                self.ident()?
            } else {
                table.clone()
            };
            from.push((table, alias));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect_kw("WHERE")?;
        let mut joins = Vec::new();
        loop {
            let left = self.column_ref()?;
            self.expect(&Token::Eq)?;
            let right = self.column_ref()?;
            joins.push(JoinCond { left, right });
            if !self.eat_kw("AND") {
                break;
            }
        }
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.column_ref()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let partition_on = if self.eat_kw("PARTITION") {
            self.expect_kw("ON")?;
            Some(self.column_ref()?)
        } else {
            None
        };
        Ok(Statement::CreateView {
            name,
            method,
            select: ViewSelect {
                projection,
                from,
                joins,
                group_by,
            },
            partition_on,
        })
    }

    /// `ALTER VIEW name SET PARTIAL BUDGET n [KB|MB|GB]`.
    fn alter_view(&mut self) -> Result<Statement> {
        self.expect_kw("VIEW")?;
        let name = self.ident()?;
        self.expect_kw("SET")?;
        self.expect_kw("PARTIAL")?;
        self.expect_kw("BUDGET")?;
        let n = match self.next()? {
            Token::Int(v) if v > 0 => v as u64,
            other => {
                return Err(err(format!(
                    "expected a positive byte budget, found {other:?}"
                )))
            }
        };
        let unit: u64 = if self.eat_kw("KB") {
            1 << 10
        } else if self.eat_kw("MB") {
            1 << 20
        } else if self.eat_kw("GB") {
            1 << 30
        } else {
            1
        };
        let budget_bytes = n
            .checked_mul(unit)
            .ok_or_else(|| err(format!("partial budget of {n} × {unit} bytes overflows")))?;
        Ok(Statement::AlterViewPartial { name, budget_bytes })
    }

    /// One SELECT-list item: column ref, `COUNT(*)`, or `SUM(col)`.
    fn select_item(&mut self) -> Result<SelectItem> {
        if self.peek_kw("COUNT") {
            self.pos += 1;
            self.expect(&Token::LParen)?;
            self.expect(&Token::Star)?;
            self.expect(&Token::RParen)?;
            return Ok(SelectItem::Count);
        }
        if self.peek_kw("SUM") {
            self.pos += 1;
            self.expect(&Token::LParen)?;
            let c = self.column_ref()?;
            self.expect(&Token::RParen)?;
            return Ok(SelectItem::Sum(c));
        }
        Ok(SelectItem::Column(self.column_ref()?))
    }

    fn literal(&mut self) -> Result<Value> {
        match self.next()? {
            Token::Int(v) => Ok(Value::Int(v)),
            Token::Float(v) => Ok(Value::Float(v)),
            Token::Str(s) => Ok(Value::Str(s)),
            Token::Minus => match self.next()? {
                Token::Int(v) => Ok(Value::Int(-v)),
                Token::Float(v) => Ok(Value::Float(-v)),
                other => Err(err(format!("expected number after '-', found {other:?}"))),
            },
            Token::Ident(s) if s.eq_ignore_ascii_case("NULL") => Ok(Value::Null),
            Token::Ident(s) if s.eq_ignore_ascii_case("TRUE") => Ok(Value::Bool(true)),
            Token::Ident(s) if s.eq_ignore_ascii_case("FALSE") => Ok(Value::Bool(false)),
            other => Err(err(format!("expected literal, found {other:?}"))),
        }
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            rows.push(row);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn cmp_op(&mut self) -> Result<CmpOp> {
        match self.next()? {
            Token::Eq => Ok(CmpOp::Eq),
            Token::Ne => Ok(CmpOp::Ne),
            Token::Lt => Ok(CmpOp::Lt),
            Token::Le => Ok(CmpOp::Le),
            Token::Gt => Ok(CmpOp::Gt),
            Token::Ge => Ok(CmpOp::Ge),
            other => Err(err(format!(
                "expected comparison operator, found {other:?}"
            ))),
        }
    }

    fn where_terms(&mut self) -> Result<Vec<WhereTerm>> {
        if !self.eat_kw("WHERE") {
            return Ok(Vec::new());
        }
        let mut terms = Vec::new();
        loop {
            let column = self.column_ref()?;
            let op = self.cmp_op()?;
            let literal = self.literal()?;
            terms.push(WhereTerm {
                column,
                op,
                literal,
            });
            if !self.eat_kw("AND") {
                break;
            }
        }
        Ok(terms)
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let predicate = self.where_terms()?;
        Ok(Statement::Delete { table, predicate })
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&Token::Eq)?;
            assignments.push((col, self.literal()?));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let predicate = self.where_terms()?;
        Ok(Statement::Update {
            table,
            assignments,
            predicate,
        })
    }

    fn select(&mut self) -> Result<Statement> {
        self.expect(&Token::Star)?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let predicate = self.where_terms()?;
        Ok(Statement::Select { table, predicate })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table() {
        let s = parse(
            "CREATE TABLE customer (custkey INT, acctbal FLOAT, name STR) \
             PARTITION BY HASH(custkey) CLUSTERED;",
        )
        .unwrap();
        assert_eq!(
            s,
            vec![Statement::CreateTable {
                name: "customer".into(),
                columns: vec![
                    ("custkey".into(), DataType::Int),
                    ("acctbal".into(), DataType::Float),
                    ("name".into(), DataType::Str),
                ],
                partition_column: "custkey".into(),
                clustered: true,
            }]
        );
    }

    #[test]
    fn create_view_full() {
        let s = parse(
            "CREATE VIEW jv1 USING AUXILIARY RELATION AS \
             SELECT c.custkey, o.totalprice FROM customer c, orders o \
             WHERE c.custkey = o.custkey PARTITION ON c.custkey",
        )
        .unwrap();
        let Statement::CreateView {
            name,
            method,
            select,
            partition_on,
        } = &s[0]
        else {
            panic!("wrong statement")
        };
        assert_eq!(name, "jv1");
        assert_eq!(*method, MethodSpec::AuxiliaryRelation);
        assert_eq!(
            select.from,
            vec![
                ("customer".into(), "c".into()),
                ("orders".into(), "o".into())
            ]
        );
        assert_eq!(select.projection.len(), 2);
        assert!(select.group_by.is_empty());
        assert_eq!(select.joins.len(), 1);
        assert_eq!(partition_on, &Some(ColumnRef::qualified("c", "custkey")));
    }

    #[test]
    fn create_view_defaults() {
        let s =
            parse("CREATE MATERIALIZED VIEW v AS SELECT a.x FROM a, b WHERE a.x = b.y").unwrap();
        let Statement::CreateView {
            method,
            partition_on,
            select,
            ..
        } = &s[0]
        else {
            panic!()
        };
        assert_eq!(*method, MethodSpec::Auto);
        assert!(partition_on.is_none());
        // Aliases default to table names.
        assert_eq!(select.from[0], ("a".into(), "a".into()));
    }

    #[test]
    fn insert_multi_row() {
        let s = parse("INSERT INTO t VALUES (1, 'x', 2.5), (-2, NULL, TRUE)").unwrap();
        let Statement::Insert { table, rows } = &s[0] else {
            panic!()
        };
        assert_eq!(table, "t");
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            vec![Value::Int(1), Value::from("x"), Value::Float(2.5)]
        );
        assert_eq!(
            rows[1],
            vec![Value::Int(-2), Value::Null, Value::Bool(true)]
        );
    }

    #[test]
    fn delete_update_select() {
        let s = parse(
            "DELETE FROM t WHERE x = 1 AND y <> 'z'; \
             UPDATE t SET y = 'w' WHERE x >= 2; \
             SELECT * FROM t WHERE x < 5;",
        )
        .unwrap();
        assert_eq!(s.len(), 3);
        let Statement::Delete { predicate, .. } = &s[0] else {
            panic!()
        };
        assert_eq!(predicate.len(), 2);
        assert_eq!(predicate[1].op, CmpOp::Ne);
        let Statement::Update {
            assignments,
            predicate,
            ..
        } = &s[1]
        else {
            panic!()
        };
        assert_eq!(assignments, &[("y".to_string(), Value::from("w"))]);
        assert_eq!(predicate[0].op, CmpOp::Ge);
        let Statement::Select { predicate, .. } = &s[2] else {
            panic!()
        };
        assert_eq!(predicate[0].op, CmpOp::Lt);
    }

    #[test]
    fn show_and_check() {
        let s = parse("SHOW TABLES; SHOW VIEWS; SHOW COST; CHECK VIEW v").unwrap();
        assert_eq!(
            s,
            vec![
                Statement::ShowTables,
                Statement::ShowViews,
                Statement::ShowCost,
                Statement::CheckView { name: "v".into() }
            ]
        );
    }

    #[test]
    fn aggregate_view_parses() {
        let s = parse(
            "CREATE VIEW rev USING AUXILIARY RELATION AS \
             SELECT c.custkey, COUNT(*), SUM(o.totalprice) \
             FROM customer c, orders o WHERE c.custkey = o.custkey \
             GROUP BY c.custkey",
        )
        .unwrap();
        let Statement::CreateView { select, .. } = &s[0] else {
            panic!()
        };
        assert_eq!(
            select.projection,
            vec![
                SelectItem::Column(ColumnRef::qualified("c", "custkey")),
                SelectItem::Count,
                SelectItem::Sum(ColumnRef::qualified("o", "totalprice")),
            ]
        );
        assert_eq!(select.group_by, vec![ColumnRef::qualified("c", "custkey")]);
        assert!(parse("CREATE VIEW v AS SELECT COUNT(x) FROM a WHERE a.x = a.y").is_err());
    }

    #[test]
    fn drops() {
        let s = parse("DROP VIEW v; DROP TABLE t").unwrap();
        assert_eq!(
            s,
            vec![
                Statement::DropView { name: "v".into() },
                Statement::DropTable { name: "t".into() }
            ]
        );
        assert!(parse("DROP v").is_err());
    }

    #[test]
    fn transactions() {
        let s = parse("BEGIN TRANSACTION; COMMIT; BEGIN; ROLLBACK; ABORT").unwrap();
        assert_eq!(
            s,
            vec![
                Statement::Begin,
                Statement::Commit,
                Statement::Begin,
                Statement::Rollback,
                Statement::Rollback,
            ]
        );
    }

    #[test]
    fn begin_snapshot_parses() {
        let s = parse("BEGIN SNAPSHOT; COMMIT; begin snapshot").unwrap();
        assert_eq!(
            s,
            vec![
                Statement::BeginSnapshot,
                Statement::Commit,
                Statement::BeginSnapshot,
            ]
        );
    }

    #[test]
    fn explain_maintenance() {
        let s = parse("EXPLAIN MAINTENANCE OF jv2 ON customer").unwrap();
        assert_eq!(
            s,
            vec![Statement::ExplainMaintenance {
                view: "jv2".into(),
                relation: "customer".into(),
                analyze: false,
            }]
        );
        let s = parse("explain analyze maintenance of jv2 on customer").unwrap();
        assert_eq!(
            s,
            vec![Statement::ExplainMaintenance {
                view: "jv2".into(),
                relation: "customer".into(),
                analyze: true,
            }]
        );
        assert!(parse("EXPLAIN jv2").is_err());
        assert!(parse("EXPLAIN ANALYZE jv2").is_err());
    }

    #[test]
    fn alter_view_partial_budget() {
        let s = parse(
            "ALTER VIEW jv SET PARTIAL BUDGET 4096; \
             alter view jv set partial budget 2 MB",
        )
        .unwrap();
        assert_eq!(
            s,
            vec![
                Statement::AlterViewPartial {
                    name: "jv".into(),
                    budget_bytes: 4096,
                },
                Statement::AlterViewPartial {
                    name: "jv".into(),
                    budget_bytes: 2 << 20,
                },
            ]
        );
        assert!(parse("ALTER VIEW jv SET PARTIAL BUDGET 0").is_err());
        assert!(parse("ALTER VIEW jv SET PARTIAL BUDGET -5").is_err());
        assert!(parse("ALTER TABLE t SET PARTIAL BUDGET 1").is_err());
        assert!(parse("ALTER VIEW jv SET PARTIAL BUDGET 9223372036854775807 KB").is_err());
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(parse("select * from t").is_ok());
        assert!(parse("Insert Into t Values (1)").is_ok());
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

            /// The parser must never panic, only return errors.
            #[test]
            fn parser_never_panics(input in ".{0,200}") {
                let _ = parse(&input);
            }

            /// Statements assembled from SQL-ish fragments must also never
            /// panic (denser than fully random bytes).
            #[test]
            fn sqlish_fragments_never_panic(
                parts in proptest::collection::vec(
                    prop_oneof![
                        Just("SELECT".to_string()),
                        Just("CREATE VIEW".to_string()),
                        Just("INSERT INTO".to_string()),
                        Just("WHERE".to_string()),
                        Just("FROM".to_string()),
                        Just("*".to_string()),
                        Just("(".to_string()),
                        Just(")".to_string()),
                        Just(",".to_string()),
                        Just(";".to_string()),
                        Just("=".to_string()),
                        Just("t".to_string()),
                        Just("x.y".to_string()),
                        Just("42".to_string()),
                        Just("'s'".to_string()),
                    ],
                    0..25
                )
            ) {
                let _ = parse(&parts.join(" "));
            }

            /// Any successfully parsed input parses identically when
            /// re-parsed (parsing is deterministic / side-effect free).
            #[test]
            fn parsing_is_deterministic(input in ".{0,120}") {
                let a = parse(&input);
                let b = parse(&input);
                match (a, b) {
                    (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                    (Err(_), Err(_)) => {}
                    _ => prop_assert!(false, "nondeterministic parse"),
                }
            }
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse("CREATE").is_err());
        assert!(
            parse("CREATE TABLE t (x INT)").is_err(),
            "missing PARTITION BY"
        );
        assert!(parse("INSERT INTO t VALUES 1").is_err());
        assert!(parse("SELECT x FROM t").is_err(), "only SELECT * supported");
        assert!(
            parse("CREATE VIEW v USING TELEPATHY AS SELECT a.x FROM a WHERE a.x = a.y").is_err()
        );
        assert!(parse("garbage statement").is_err());
    }
}
