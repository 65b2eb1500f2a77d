//! Message-format specification (paper Fig. 2).
//!
//! The specification extends a P4-14 `header_type` declaration with
//! annotations naming the fields that subscriptions may predicate on and
//! the state variables the application needs:
//!
//! ```text
//! header_type itch_add_order_t {
//!     fields {
//!         shares: 32;
//!         stock: 64;
//!         price: 32;
//!     }
//! }
//! header itch_add_order_t add_order;
//!
//! @query_field(add_order.shares)
//! @query_field(add_order.price)
//! @query_field_exact(add_order.stock)
//! @query_counter(my_counter, 100)
//! ```
//!
//! `@query_field` marks a field for range matching (compiled to TCAM
//! unless optimized away); `@query_field_exact` requests exact/SRAM
//! matching; `@query_counter(name, window_us)` declares a tumbling-window
//! state variable (§3.1).

use std::collections::HashMap;

use crate::ast::FieldRef;
use crate::error::ParseError;
use crate::lexer::{Cursor, Tok};

/// A field inside a `header_type` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Width in bits (1..=64 for queryable fields; wider fields may be
    /// declared but not queried).
    pub bits: u32,
    /// Bit offset of the field from the start of its header.
    pub bit_offset: u32,
}

/// A `header_type` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderType {
    /// Type name, e.g. `itch_add_order_t`.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<FieldDecl>,
}

impl HeaderType {
    /// Total size of the header in bits.
    pub fn total_bits(&self) -> u32 {
        self.fields.iter().map(|f| f.bits).sum()
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldDecl> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// A `header <type> <instance>;` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderInstance {
    /// Header type name.
    pub type_name: String,
    /// Instance name used in annotations and rules.
    pub name: String,
}

/// How a queryable field should be matched on the switch (§3.2,
/// "Resource Optimizations": the user can guide the compiler by
/// specifying a matching type for each field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchHint {
    /// Range matching (default): supports `<`, `>`, `==`; placed in TCAM
    /// unless the low-resolution mapping applies.
    Range,
    /// Exact matching (`_exact` suffix): supports only `==`/`!=`; placed
    /// in SRAM.
    Exact,
}

/// A field declared queryable via `@query_field`/`@query_field_exact`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryField {
    /// Header instance and field.
    pub field: FieldRef,
    /// Requested match kind.
    pub hint: MatchHint,
    /// Width in bits, resolved from the header type.
    pub bits: u32,
    /// Bit offset within the header instance.
    pub bit_offset: u32,
}

/// A `@query_counter(name, window_us)` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDecl {
    /// State-variable name.
    pub name: String,
    /// Tumbling-window size in microseconds.
    pub window_us: u64,
}

/// A parsed and resolved message-format specification.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Spec {
    /// Declared header types by name.
    pub header_types: Vec<HeaderType>,
    /// Declared header instances in declaration (= parse) order.
    pub instances: Vec<HeaderInstance>,
    /// Queryable fields in annotation order.
    pub query_fields: Vec<QueryField>,
    /// Declared state counters.
    pub counters: Vec<CounterDecl>,
}

impl Spec {
    /// Looks up a header type by name.
    pub fn header_type(&self, name: &str) -> Option<&HeaderType> {
        self.header_types.iter().find(|h| h.name == name)
    }

    /// Looks up a header instance by name.
    pub fn instance(&self, name: &str) -> Option<&HeaderInstance> {
        self.instances.iter().find(|i| i.name == name)
    }

    /// Resolves a (possibly shorthand) field reference from a rule to a
    /// queryable field. Shorthand `stock` resolves if exactly one
    /// instance has a queryable field of that name.
    pub fn resolve(&self, fr: &FieldRef) -> Option<&QueryField> {
        match &fr.header {
            Some(h) => self.query_fields.iter().find(|q| {
                q.field.header.as_deref() == Some(h.as_str()) && q.field.field == fr.field
            }),
            None => {
                let mut hits = self
                    .query_fields
                    .iter()
                    .filter(|q| q.field.field == fr.field);
                let first = hits.next()?;
                if hits.next().is_some() {
                    None // ambiguous shorthand
                } else {
                    Some(first)
                }
            }
        }
    }

    /// Looks up a counter declaration by name.
    pub fn counter(&self, name: &str) -> Option<&CounterDecl> {
        self.counters.iter().find(|c| c.name == name)
    }
}

/// Parses a message-format specification (Fig. 2 syntax).
pub fn parse_spec(input: &str) -> Result<Spec, ParseError> {
    Cursor::lex(input)?.spec()
}

impl Cursor {
    fn spec(&mut self) -> Result<Spec, ParseError> {
        let mut spec = Spec::default();
        loop {
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Ident(kw) if kw == "header_type" => {
                    self.bump();
                    let h = self.header_type()?;
                    if spec.header_type(&h.name).is_some() {
                        return Err(self.err(format!("duplicate header_type `{}`", h.name)));
                    }
                    spec.header_types.push(h);
                }
                Tok::Ident(kw) if kw == "header" => {
                    self.bump();
                    let type_name = self.ident()?;
                    let name = self.ident()?;
                    self.expect(&Tok::Semi)?;
                    if spec.header_type(&type_name).is_none() {
                        return Err(self.err(format!("unknown header type `{type_name}`")));
                    }
                    if spec.instance(&name).is_some() {
                        return Err(self.err(format!("duplicate header instance `{name}`")));
                    }
                    spec.instances.push(HeaderInstance { type_name, name });
                }
                Tok::At => {
                    self.bump();
                    self.annotation(&mut spec)?;
                }
                t => return Err(self.err(format!("expected declaration, found {}", t.describe()))),
            }
        }
        Ok(spec)
    }

    fn header_type(&mut self) -> Result<HeaderType, ParseError> {
        let name = self.ident()?;
        self.expect(&Tok::LBrace)?;
        let kw = self.ident()?;
        if kw != "fields" {
            return Err(self.err(format!("expected `fields`, found `{kw}`")));
        }
        self.expect(&Tok::LBrace)?;
        let mut fields: Vec<FieldDecl> = Vec::new();
        let mut seen: HashMap<String, ()> = HashMap::new();
        let mut offset = 0u32;
        while !matches!(self.peek(), Tok::RBrace) {
            let fname = self.ident()?;
            self.expect(&Tok::Colon)?;
            let bits = self.int()?;
            self.expect(&Tok::Semi)?;
            if bits == 0 || bits > 1 << 20 {
                return Err(self.err(format!("field `{fname}` has invalid width {bits}")));
            }
            if seen.insert(fname.clone(), ()).is_some() {
                return Err(self.err(format!("duplicate field `{fname}`")));
            }
            fields.push(FieldDecl {
                name: fname,
                bits: bits as u32,
                bit_offset: offset,
            });
            offset += bits as u32;
        }
        self.expect(&Tok::RBrace)?; // fields
        self.expect(&Tok::RBrace)?; // header_type
        Ok(HeaderType { name, fields })
    }

    fn annotation(&mut self, spec: &mut Spec) -> Result<(), ParseError> {
        let name = self.ident()?;
        match name.as_str() {
            "query_field" | "query_field_exact" => {
                let hint = if name.ends_with("_exact") {
                    MatchHint::Exact
                } else {
                    MatchHint::Range
                };
                self.expect(&Tok::LParen)?;
                let inst = self.ident()?;
                self.expect(&Tok::Dot)?;
                let field = self.ident()?;
                self.expect(&Tok::RParen)?;
                let instance = spec
                    .instance(&inst)
                    .ok_or_else(|| self.err(format!("unknown header instance `{inst}`")))?
                    .clone();
                let htype = spec
                    .header_type(&instance.type_name)
                    .expect("instance referenced an existing type");
                let decl = htype
                    .field(&field)
                    .ok_or_else(|| self.err(format!("header `{inst}` has no field `{field}`")))?;
                if decl.bits > 64 {
                    return Err(self.err(format!(
                        "field `{inst}.{field}` is {} bits; queryable fields are at most 64",
                        decl.bits
                    )));
                }
                let qf = QueryField {
                    field: FieldRef::qualified(inst, field),
                    hint,
                    bits: decl.bits,
                    bit_offset: decl.bit_offset,
                };
                if spec.query_fields.iter().any(|q| q.field == qf.field) {
                    return Err(self.err(format!("field `{}` annotated twice", qf.field)));
                }
                spec.query_fields.push(qf);
                Ok(())
            }
            "query_counter" => {
                self.expect(&Tok::LParen)?;
                let cname = self.ident()?;
                self.expect(&Tok::Comma)?;
                let window_us = self.int()?;
                self.expect(&Tok::RParen)?;
                if spec.counter(&cname).is_some() {
                    return Err(self.err(format!("duplicate counter `{cname}`")));
                }
                spec.counters.push(CounterDecl {
                    name: cname,
                    window_us,
                });
                Ok(())
            }
            other => Err(self.err(format!("unknown annotation `@{other}`"))),
        }
    }
}

/// The ITCH add-order specification used throughout the paper (Fig. 2),
/// as a ready-made constant for examples and tests.
pub const ITCH_SPEC: &str = r#"
header_type itch_add_order_t {
    fields {
        msg_type: 8;
        stock_locate: 16;
        tracking_number: 16;
        timestamp: 48;
        order_ref: 64;
        buy_sell: 8;
        shares: 32;
        stock: 64;
        price: 32;
    }
}
header itch_add_order_t add_order;

@query_field(add_order.shares)
@query_field(add_order.price)
@query_field_exact(add_order.stock)
@query_field_exact(add_order.buy_sell)
@query_counter(my_counter, 100)
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_spec() {
        let s = parse_spec(ITCH_SPEC).unwrap();
        assert_eq!(s.header_types.len(), 1);
        assert_eq!(s.instances.len(), 1);
        assert_eq!(s.query_fields.len(), 4);
        assert_eq!(
            s.counters,
            vec![CounterDecl {
                name: "my_counter".into(),
                window_us: 100
            }]
        );
        let stock = s.resolve(&FieldRef::short("stock")).unwrap();
        assert_eq!(stock.hint, MatchHint::Exact);
        assert_eq!(stock.bits, 64);
        let shares = s.resolve(&FieldRef::short("shares")).unwrap();
        assert_eq!(shares.hint, MatchHint::Range);
    }

    #[test]
    fn computes_bit_offsets() {
        let s = parse_spec(ITCH_SPEC).unwrap();
        let h = s.header_type("itch_add_order_t").unwrap();
        assert_eq!(h.field("msg_type").unwrap().bit_offset, 0);
        assert_eq!(h.field("stock_locate").unwrap().bit_offset, 8);
        assert_eq!(
            h.field("shares").unwrap().bit_offset,
            8 + 16 + 16 + 48 + 64 + 8
        );
        assert_eq!(h.total_bits(), 288);
    }

    #[test]
    fn resolves_qualified_and_shorthand() {
        let s = parse_spec(ITCH_SPEC).unwrap();
        assert!(s
            .resolve(&FieldRef::qualified("add_order", "price"))
            .is_some());
        assert!(s.resolve(&FieldRef::short("price")).is_some());
        assert!(s.resolve(&FieldRef::short("nope")).is_none());
        assert!(s.resolve(&FieldRef::qualified("other", "price")).is_none());
    }

    #[test]
    fn ambiguous_shorthand_fails_resolution() {
        let src = r#"
            header_type a_t { fields { x: 8; } }
            header_type b_t { fields { x: 8; } }
            header a_t a;
            header b_t b;
            @query_field(a.x)
            @query_field(b.x)
        "#;
        let s = parse_spec(src).unwrap();
        assert!(s.resolve(&FieldRef::short("x")).is_none());
        assert!(s.resolve(&FieldRef::qualified("a", "x")).is_some());
    }

    #[test]
    fn rejects_unknown_instance_annotation() {
        let src = "header_type t { fields { x: 8; } }\n@query_field(missing.x)";
        assert!(parse_spec(src).is_err());
    }

    #[test]
    fn rejects_unknown_field_annotation() {
        let src = "header_type t { fields { x: 8; } }\nheader t h;\n@query_field(h.y)";
        assert!(parse_spec(src).is_err());
    }

    #[test]
    fn rejects_wide_query_field() {
        let src = "header_type t { fields { x: 128; } }\nheader t h;\n@query_field(h.x)";
        assert!(parse_spec(src).is_err());
    }

    #[test]
    fn rejects_duplicates() {
        assert!(parse_spec("header_type t { fields { x: 8; x: 8; } }").is_err());
        assert!(parse_spec(
            "header_type t { fields { x: 8; } }\nheader_type t { fields { y: 8; } }"
        )
        .is_err());
        let src = "header_type t { fields { x: 8; } }\nheader t h;\n@query_field(h.x)\n@query_field_exact(h.x)";
        assert!(parse_spec(src).is_err());
        assert!(parse_spec("@query_counter(c, 1)\n@query_counter(c, 2)").is_err());
    }

    #[test]
    fn rejects_unknown_annotation() {
        assert!(parse_spec("@frobnicate(x)").is_err());
    }

    #[test]
    fn rejects_zero_width_field() {
        assert!(parse_spec("header_type t { fields { x: 0; } }").is_err());
    }
}
