//! Abstract syntax for the packet-subscription language (paper Fig. 1).
//!
//! ```text
//! r ::= c : a                          condition-action rule
//! c ::= c1 ∧ c2 | c1 ∨ c2 | !c1 | e    logical expression
//! e ::= p > n | p < n | p == n         relational expression
//! p ::= h.f | v                        header field or state variable
//! a ::= a1; a2 | fwd(n0..ni) | g       action
//! g ::= v ← f(v0..vj, h)               state-update function
//! ```

use std::fmt;

/// A reference to a packet header field, e.g. `add_order.stock` or the
/// shorthand `stock` (resolved against the message-format spec later).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldRef {
    /// Header instance name; `None` when the shorthand form is used.
    pub header: Option<String>,
    /// Field name within the header.
    pub field: String,
}

impl FieldRef {
    /// Builds a fully-qualified reference `header.field`.
    pub fn qualified(header: impl Into<String>, field: impl Into<String>) -> Self {
        FieldRef {
            header: Some(header.into()),
            field: field.into(),
        }
    }

    /// Builds a shorthand reference `field`.
    pub fn short(field: impl Into<String>) -> Self {
        FieldRef {
            header: None,
            field: field.into(),
        }
    }
}

impl fmt::Display for FieldRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.header {
            Some(h) => write!(f, "{}.{}", h, self.field),
            None => write!(f, "{}", self.field),
        }
    }
}

/// Aggregate macros usable on the left-hand side of a stateful predicate,
/// e.g. `avg(price) > 50`. The window semantics (tumbling, sized by the
/// matching `@query_counter` annotation) are supplied by the spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFn {
    /// Moving average of the argument field over the window.
    Avg,
    /// Sum of the argument field over the window.
    Sum,
    /// Number of matching packets in the window.
    Count,
    /// Minimum of the argument field over the window.
    Min,
    /// Maximum of the argument field over the window.
    Max,
}

impl AggFn {
    /// Parses an aggregate-function name.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "avg" => AggFn::Avg,
            "sum" => AggFn::Sum,
            "count" => AggFn::Count,
            "min" => AggFn::Min,
            "max" => AggFn::Max,
            _ => return None,
        })
    }

    /// Canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            AggFn::Avg => "avg",
            AggFn::Sum => "sum",
            AggFn::Count => "count",
            AggFn::Min => "min",
            AggFn::Max => "max",
        }
    }
}

impl fmt::Display for AggFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The left-hand side `p` of a relational expression: a header field, a
/// named state variable, or an aggregate macro over a field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A packet header field, `h.f`.
    Field(FieldRef),
    /// A declared state variable, `v` (e.g. a `@query_counter`).
    StateVar(String),
    /// An aggregate macro, e.g. `avg(price)`. `field` is `None` for
    /// zero-argument macros such as `count()`.
    Agg {
        func: AggFn,
        field: Option<FieldRef>,
    },
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Field(fr) => write!(f, "{fr}"),
            Operand::StateVar(v) => write!(f, "{v}"),
            Operand::Agg {
                func,
                field: Some(fr),
            } => write!(f, "{func}({fr})"),
            Operand::Agg { func, field: None } => write!(f, "{func}()"),
        }
    }
}

/// Relational operators. The paper's surface grammar has `<`, `>`, `==`;
/// the remaining three arise from negation during normalization and are
/// accepted in the concrete syntax as a convenience.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RelOp {
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `==`
    Eq,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `!=`
    Ne,
}

impl RelOp {
    /// The operator satisfied by exactly the complement set of values.
    pub fn negated(self) -> RelOp {
        match self {
            RelOp::Lt => RelOp::Ge,
            RelOp::Gt => RelOp::Le,
            RelOp::Eq => RelOp::Ne,
            RelOp::Le => RelOp::Gt,
            RelOp::Ge => RelOp::Lt,
            RelOp::Ne => RelOp::Eq,
        }
    }

    /// Evaluates `lhs op rhs` on concrete values.
    pub fn eval(self, lhs: u64, rhs: u64) -> bool {
        match self {
            RelOp::Lt => lhs < rhs,
            RelOp::Gt => lhs > rhs,
            RelOp::Eq => lhs == rhs,
            RelOp::Le => lhs <= rhs,
            RelOp::Ge => lhs >= rhs,
            RelOp::Ne => lhs != rhs,
        }
    }

    /// Concrete-syntax spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            RelOp::Lt => "<",
            RelOp::Gt => ">",
            RelOp::Eq => "==",
            RelOp::Le => "<=",
            RelOp::Ge => ">=",
            RelOp::Ne => "!=",
        }
    }
}

impl fmt::Display for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A constant on the right-hand side of a relational expression.
///
/// All packet fields are unsigned bit-vectors of at most 64 bits, so an
/// integer constant is a `u64`. String-typed fields (e.g. ITCH stock
/// tickers) compare against a [`Value::Symbol`], which is encoded to a
/// `u64` with [`crate::symbol::encode_symbol`] during compilation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// An unsigned integer literal.
    Int(u64),
    /// A symbolic constant (bare identifier like `GOOGL` or a quoted
    /// string), encoded as space-padded ASCII in a fixed-width field.
    Symbol(String),
}

impl Value {
    /// The `u64` this constant compares as, given the width in bits of
    /// the field it is compared against.
    pub fn as_u64(&self, field_bits: u32) -> u64 {
        match self {
            Value::Int(n) => *n,
            Value::Symbol(s) => crate::symbol::encode_symbol(s, field_bits),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Symbol(s) => write!(f, "{s}"),
        }
    }
}

/// An atomic predicate `p op n`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Left-hand side.
    pub operand: Operand,
    /// Relational operator.
    pub op: RelOp,
    /// Right-hand side constant.
    pub value: Value,
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.operand, self.op, self.value)
    }
}

/// A rule condition: a logical expression over atomic predicates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Conjunction `c1 ∧ c2`.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction `c1 ∨ c2`.
    Or(Box<Cond>, Box<Cond>),
    /// Negation `!c`.
    Not(Box<Cond>),
    /// An atomic predicate.
    Atom(Atom),
    /// The always-true condition (empty conjunction); matches every
    /// packet of the application's format. Written `true`.
    True,
}

impl Cond {
    /// Conjunction helper that avoids boxing noise at call sites.
    pub fn and(self, other: Cond) -> Cond {
        Cond::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Cond) -> Cond {
        Cond::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Cond {
        Cond::Not(Box::new(self))
    }

    /// Number of atomic predicates in the expression tree.
    pub fn atom_count(&self) -> usize {
        match self {
            Cond::And(a, b) | Cond::Or(a, b) => a.atom_count() + b.atom_count(),
            Cond::Not(c) => c.atom_count(),
            Cond::Atom(_) => 1,
            Cond::True => 0,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::And(a, b) => write!(f, "({a} and {b})"),
            Cond::Or(a, b) => write!(f, "({a} or {b})"),
            Cond::Not(c) => write!(f, "!({c})"),
            Cond::Atom(a) => write!(f, "{a}"),
            Cond::True => write!(f, "true"),
        }
    }
}

/// An update function `f` in a state-update action `v ← f(...)`.
///
/// The paper's prototype dynamic compiler "only supports actions without
/// arguments" (§3.1); we additionally support the single-field forms the
/// static code generator emits for the aggregate macros.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum UpdateFn {
    /// Increment the variable by one.
    Increment,
    /// Add the value of a packet field to the variable.
    AddField(FieldRef),
    /// Overwrite the variable with a constant.
    SetConst(u64),
    /// Overwrite the variable with the value of a packet field.
    SetField(FieldRef),
}

impl fmt::Display for UpdateFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateFn::Increment => write!(f, "incr()"),
            UpdateFn::AddField(fr) => write!(f, "add({fr})"),
            UpdateFn::SetConst(n) => write!(f, "set({n})"),
            UpdateFn::SetField(fr) => write!(f, "set({fr})"),
        }
    }
}

/// A rule action.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Action {
    /// Forward the packet out the given switch ports (unicast when one
    /// port, multicast otherwise).
    Fwd(Vec<u16>),
    /// Explicitly drop the packet. A packet matched by no rule is also
    /// dropped; an explicit `drop()` documents intent and wins nothing.
    Drop,
    /// State update `v ← f(...)`, executed when the rule matches.
    StateUpdate { var: String, func: UpdateFn },
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Fwd(ports) => {
                write!(f, "fwd(")?;
                for (i, p) in ports.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Action::Drop => write!(f, "drop()"),
            Action::StateUpdate { var, func } => write!(f, "{var} <- {func}"),
        }
    }
}

/// A full condition-action rule `c : a1; a2; ...`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    /// Matching condition.
    pub condition: Cond,
    /// Actions executed when the condition holds. The switch executes the
    /// actions of *all* matching rules, in no particular order (§2).
    pub actions: Vec<Action>,
}

impl Rule {
    /// Convenience constructor.
    pub fn new(condition: Cond, actions: Vec<Action>) -> Self {
        Rule { condition, actions }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} : ", self.condition)?;
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(field: &str, op: RelOp, v: u64) -> Cond {
        Cond::Atom(Atom {
            operand: Operand::Field(FieldRef::short(field)),
            op,
            value: Value::Int(v),
        })
    }

    #[test]
    fn relop_negation_is_involutive() {
        for op in [
            RelOp::Lt,
            RelOp::Gt,
            RelOp::Eq,
            RelOp::Le,
            RelOp::Ge,
            RelOp::Ne,
        ] {
            assert_eq!(op.negated().negated(), op);
        }
    }

    #[test]
    fn relop_negation_complements_eval() {
        for op in [
            RelOp::Lt,
            RelOp::Gt,
            RelOp::Eq,
            RelOp::Le,
            RelOp::Ge,
            RelOp::Ne,
        ] {
            for (l, r) in [(1u64, 2u64), (2, 2), (3, 2)] {
                assert_eq!(op.eval(l, r), !op.negated().eval(l, r), "{op} {l} {r}");
            }
        }
    }

    #[test]
    fn atom_count_walks_tree() {
        let c =
            atom("a", RelOp::Lt, 1).and(atom("b", RelOp::Gt, 2).or(atom("c", RelOp::Eq, 3)).not());
        assert_eq!(c.atom_count(), 3);
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let r = Rule::new(
            atom("shares", RelOp::Lt, 60).and(atom("price", RelOp::Gt, 100)),
            vec![Action::Fwd(vec![1, 2])],
        );
        let printed = r.to_string();
        let reparsed = crate::parser::parse_rule(&printed).unwrap();
        assert_eq!(reparsed, r);
    }

    #[test]
    fn value_symbol_encodes_by_width() {
        let v = Value::Symbol("A".to_string());
        // 'A' = 0x41, left-justified in one byte.
        assert_eq!(v.as_u64(8), 0x41);
    }
}
