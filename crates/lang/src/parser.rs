//! Recursive-descent parser for subscription rules.
//!
//! Grammar (paper Fig. 1, with conventional precedence `!` > `∧` > `∨`):
//!
//! ```text
//! program ::= rule (";" | "\n")* ...      (rules separated by newlines/`;`
//!                                          at the top level of a program)
//! rule    ::= cond ":" action (";" action)*
//! cond    ::= or
//! or      ::= and ("∨" and)*
//! and     ::= not ("∧" not)*
//! not     ::= "!" not | "(" cond ")" | atom | "true"
//! atom    ::= operand relop constant
//! operand ::= ident "." ident | ident "(" [ident ["." ident]] ")" | ident
//! action  ::= "fwd" "(" int ("," int)* ")"
//!           | "drop" "(" ")"
//!           | ident "←" updatefn
//! ```

use crate::ast::{Action, AggFn, Atom, Cond, FieldRef, Operand, RelOp, Rule, UpdateFn, Value};
use crate::error::ParseError;
use crate::lexer::{Cursor, Tok};

/// Parses a single rule, e.g. `stock == GOOGL : fwd(1)`.
pub fn parse_rule(input: &str) -> Result<Rule, ParseError> {
    let mut p = Cursor::lex(input)?;
    let rule = p.rule()?;
    p.expect_eof()?;
    Ok(rule)
}

/// Parses a program: one rule per line (blank lines and comments
/// allowed). Rules may span lines as long as each ends before the next
/// condition starts; in practice write one rule per line.
pub fn parse_program(input: &str) -> Result<Vec<Rule>, ParseError> {
    let mut rules = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with("//") {
            continue;
        }
        let rule =
            parse_rule(trimmed).map_err(|e| ParseError::at(e.message, i as u32 + 1, e.col))?;
        rules.push(rule);
    }
    Ok(rules)
}

impl Cursor {
    fn rule(&mut self) -> Result<Rule, ParseError> {
        let condition = self.cond()?;
        self.expect(&Tok::Colon)?;
        let mut actions = vec![self.action()?];
        while matches!(self.peek(), Tok::Semi) {
            self.bump();
            actions.push(self.action()?);
        }
        Ok(Rule { condition, actions })
    }

    fn cond(&mut self) -> Result<Cond, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Cond, ParseError> {
        let mut lhs = self.and_expr()?;
        while matches!(self.peek(), Tok::Or) {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = lhs.or(rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Cond, ParseError> {
        let mut lhs = self.not_expr()?;
        while matches!(self.peek(), Tok::And) {
            self.bump();
            let rhs = self.not_expr()?;
            lhs = lhs.and(rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Cond, ParseError> {
        if matches!(self.peek(), Tok::Not) {
            self.bump();
            return Ok(self.not_expr()?.not());
        }
        if matches!(self.peek(), Tok::LParen) {
            // Parenthesized sub-condition.
            self.bump();
            let c = self.cond()?;
            self.expect(&Tok::RParen)?;
            return Ok(c);
        }
        if matches!(self.peek(), Tok::Ident(s) if s == "true") {
            self.bump();
            return Ok(Cond::True);
        }
        self.atom().map(Cond::Atom)
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let operand = self.operand()?;
        let op = match self.bump() {
            Tok::Lt => RelOp::Lt,
            Tok::Gt => RelOp::Gt,
            Tok::EqEq => RelOp::Eq,
            Tok::Le => RelOp::Le,
            Tok::Ge => RelOp::Ge,
            Tok::Ne => RelOp::Ne,
            t => {
                return Err(self.err(format!(
                    "expected relational operator, found {}",
                    t.describe()
                )))
            }
        };
        let value = match self.bump() {
            Tok::Int(n) => Value::Int(n),
            Tok::Ident(s) => Value::Symbol(s),
            Tok::Str(s) => Value::Symbol(s),
            t => return Err(self.err(format!("expected constant, found {}", t.describe()))),
        };
        Ok(Atom { operand, op, value })
    }

    fn operand(&mut self) -> Result<Operand, ParseError> {
        let first = self.ident()?;
        match self.peek() {
            Tok::Dot => {
                self.bump();
                let field = self.ident()?;
                Ok(Operand::Field(FieldRef::qualified(first, field)))
            }
            Tok::LParen => {
                // Aggregate macro: avg(price), count().
                let func = AggFn::from_name(&first)
                    .ok_or_else(|| self.err(format!("unknown aggregate function `{first}`")))?;
                self.bump();
                let field = if matches!(self.peek(), Tok::RParen) {
                    None
                } else {
                    Some(self.field_ref()?)
                };
                self.expect(&Tok::RParen)?;
                Ok(Operand::Agg { func, field })
            }
            _ => {
                // Ambiguous shorthand: a bare identifier is a header field
                // unless it names an aggregate-function-free state variable;
                // resolution against the spec happens in camus-core. We tag
                // lexically: known aggregate names without parens are errors.
                if AggFn::from_name(&first).is_some() {
                    Err(self.err(format!("aggregate `{first}` requires parentheses")))
                } else {
                    Ok(Operand::Field(FieldRef::short(first)))
                }
            }
        }
    }

    fn field_ref(&mut self) -> Result<FieldRef, ParseError> {
        let first = self.ident()?;
        if matches!(self.peek(), Tok::Dot) {
            self.bump();
            let field = self.ident()?;
            Ok(FieldRef::qualified(first, field))
        } else {
            Ok(FieldRef::short(first))
        }
    }

    fn action(&mut self) -> Result<Action, ParseError> {
        let name = self.ident()?;
        match (name.as_str(), self.peek().clone()) {
            ("fwd", Tok::LParen) => {
                self.bump();
                let mut ports = Vec::new();
                loop {
                    match self.bump() {
                        Tok::Int(n) => {
                            let port = u16::try_from(n)
                                .map_err(|_| self.err(format!("port {n} out of range")))?;
                            ports.push(port);
                        }
                        t => {
                            return Err(
                                self.err(format!("expected port number, found {}", t.describe()))
                            )
                        }
                    }
                    match self.bump() {
                        Tok::Comma => continue,
                        Tok::RParen => break,
                        t => {
                            return Err(
                                self.err(format!("expected `,` or `)`, found {}", t.describe()))
                            )
                        }
                    }
                }
                Ok(Action::Fwd(ports))
            }
            ("drop", Tok::LParen) => {
                self.bump();
                self.expect(&Tok::RParen)?;
                Ok(Action::Drop)
            }
            (_, Tok::Arrow) => {
                self.bump();
                let func = self.update_fn()?;
                Ok(Action::StateUpdate { var: name, func })
            }
            (_, t) => Err(self.err(format!(
                "expected action (fwd/drop/state update), found `{name}` then {}",
                t.describe()
            ))),
        }
    }

    fn update_fn(&mut self) -> Result<UpdateFn, ParseError> {
        let name = self.ident()?;
        match name.as_str() {
            "incr" => {
                self.expect(&Tok::LParen)?;
                self.expect(&Tok::RParen)?;
                Ok(UpdateFn::Increment)
            }
            "add" => {
                self.expect(&Tok::LParen)?;
                let f = self.field_ref()?;
                self.expect(&Tok::RParen)?;
                Ok(UpdateFn::AddField(f))
            }
            "set" => {
                self.expect(&Tok::LParen)?;
                match self.bump() {
                    Tok::Int(n) => {
                        self.expect(&Tok::RParen)?;
                        Ok(UpdateFn::SetConst(n))
                    }
                    Tok::Ident(first) => {
                        let f = if matches!(self.peek(), Tok::Dot) {
                            self.bump();
                            let field = self.ident()?;
                            FieldRef::qualified(first, field)
                        } else {
                            FieldRef::short(first)
                        };
                        self.expect(&Tok::RParen)?;
                        Ok(UpdateFn::SetField(f))
                    }
                    t => Err(self.err(format!(
                        "expected constant or field, found {}",
                        t.describe()
                    ))),
                }
            }
            other => Err(self.err(format!("unknown update function `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ip_rule_from_paper() {
        // The paper writes IP addresses as dotted constants; our concrete
        // syntax takes the numeric form of any constant.
        let r = parse_rule("ip.dst == 3232235521 : fwd(1)").unwrap();
        assert_eq!(r.actions, vec![Action::Fwd(vec![1])]);
        match &r.condition {
            Cond::Atom(a) => {
                assert_eq!(a.operand, Operand::Field(FieldRef::qualified("ip", "dst")));
                assert_eq!(a.op, RelOp::Eq);
                assert_eq!(a.value, Value::Int(3_232_235_521));
            }
            c => panic!("unexpected condition {c:?}"),
        }
    }

    #[test]
    fn parses_stock_rule() {
        let r = parse_rule("stock == GOOGL : fwd(1,2,3)").unwrap();
        assert_eq!(r.actions, vec![Action::Fwd(vec![1, 2, 3])]);
    }

    #[test]
    fn parses_stateful_rule() {
        let r = parse_rule("stock == GOOGL ∧ avg(price) > 50 : fwd(1)").unwrap();
        match &r.condition {
            Cond::And(_, rhs) => match rhs.as_ref() {
                Cond::Atom(a) => {
                    assert_eq!(
                        a.operand,
                        Operand::Agg {
                            func: AggFn::Avg,
                            field: Some(FieldRef::short("price"))
                        }
                    );
                }
                c => panic!("unexpected rhs {c:?}"),
            },
            c => panic!("unexpected condition {c:?}"),
        }
    }

    #[test]
    fn precedence_not_over_and_over_or() {
        let r = parse_rule("!a == 1 and b == 2 or c == 3 : drop()").unwrap();
        // ((!a==1) ∧ b==2) ∨ c==3
        match &r.condition {
            Cond::Or(lhs, _) => match lhs.as_ref() {
                Cond::And(l, _) => assert!(matches!(l.as_ref(), Cond::Not(_))),
                c => panic!("unexpected lhs {c:?}"),
            },
            c => panic!("unexpected condition {c:?}"),
        }
    }

    #[test]
    fn parens_override_precedence() {
        let r = parse_rule("a == 1 and (b == 2 or c == 3) : drop()").unwrap();
        match &r.condition {
            Cond::And(_, rhs) => assert!(matches!(rhs.as_ref(), Cond::Or(_, _))),
            c => panic!("unexpected condition {c:?}"),
        }
    }

    #[test]
    fn parses_multiple_actions() {
        let r = parse_rule("stock == GOOGL : fwd(1); my_counter <- incr()").unwrap();
        assert_eq!(r.actions.len(), 2);
        assert_eq!(
            r.actions[1],
            Action::StateUpdate {
                var: "my_counter".into(),
                func: UpdateFn::Increment
            }
        );
    }

    #[test]
    fn parses_state_variable_predicate() {
        // A declared counter used as a bare operand parses as a Field
        // shorthand; camus-core resolves it to a state variable by name.
        let r = parse_rule("my_counter > 10 : fwd(2)").unwrap();
        assert!(matches!(r.condition, Cond::Atom(_)));
    }

    #[test]
    fn parses_true_condition() {
        let r = parse_rule("true : fwd(7)").unwrap();
        assert_eq!(r.condition, Cond::True);
    }

    #[test]
    fn parses_program_with_comments_and_blanks() {
        let prog = "\n# market data fan-out\nstock == GOOGL : fwd(1)\n\nstock == MSFT : fwd(2)  \n";
        let rules = parse_program(prog).unwrap();
        assert_eq!(rules.len(), 2);
    }

    #[test]
    fn program_errors_carry_line_numbers() {
        let err = parse_program("stock == GOOGL : fwd(1)\nstock == : fwd(2)").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_trailing_tokens() {
        assert!(parse_rule("a == 1 : fwd(1) garbage").is_err());
    }

    #[test]
    fn rejects_unknown_aggregate() {
        assert!(parse_rule("median(price) > 3 : fwd(1)").is_err());
    }

    #[test]
    fn rejects_bare_aggregate_name() {
        assert!(parse_rule("avg > 3 : fwd(1)").is_err());
    }

    #[test]
    fn rejects_missing_action() {
        assert!(parse_rule("a == 1").is_err());
        assert!(parse_rule("a == 1 :").is_err());
    }

    #[test]
    fn rejects_port_out_of_range() {
        assert!(parse_rule("a == 1 : fwd(70000)").is_err());
    }

    #[test]
    fn parses_quoted_symbols() {
        let r = parse_rule("stock == \"BRK.A\" : fwd(1)").unwrap();
        match &r.condition {
            Cond::Atom(a) => assert_eq!(a.value, Value::Symbol("BRK.A".into())),
            c => panic!("unexpected condition {c:?}"),
        }
    }

    #[test]
    fn parses_update_functions() {
        let r = parse_rule("a == 1 : v <- add(price); w <- set(5); x <- set(hdr.f)").unwrap();
        assert_eq!(r.actions.len(), 3);
        assert_eq!(
            r.actions[2],
            Action::StateUpdate {
                var: "x".into(),
                func: UpdateFn::SetField(FieldRef::qualified("hdr", "f"))
            }
        );
    }
}
