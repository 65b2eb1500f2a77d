//! Tokenizer for the subscription language and the annotated spec.
//!
//! The lexer accepts both the paper's mathematical notation (`∧`, `∨`,
//! `!`, `←`) and ASCII equivalents (`and`/`&&`, `or`/`||`, `not`/`!`,
//! `<-`), so rules can be written exactly as they appear in the paper.

use crate::error::ParseError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or bare symbol constant (`stock`, `GOOGL`, `avg`).
    Ident(String),
    /// Unsigned integer literal.
    Int(u64),
    /// Quoted string literal (`"GOOGL"`).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `∧`, `and`, `&&`
    And,
    /// `∨`, `or`, `||`
    Or,
    /// `!`, `not`
    Not,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `==`
    EqEq,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `!=`
    Ne,
    /// `←` or `<-`
    Arrow,
    /// `@` (spec annotations)
    At,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// End of input (synthesized once).
    Eof,
}

impl Tok {
    /// Short description used in error messages.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Int(n) => format!("integer `{n}`"),
            Tok::Str(s) => format!("string \"{s}\""),
            Tok::Eof => "end of input".to_string(),
            t => format!("`{}`", t.symbol()),
        }
    }

    fn symbol(&self) -> &'static str {
        match self {
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::Dot => ".",
            Tok::Comma => ",",
            Tok::Colon => ":",
            Tok::Semi => ";",
            Tok::And => "and",
            Tok::Or => "or",
            Tok::Not => "!",
            Tok::Lt => "<",
            Tok::Gt => ">",
            Tok::EqEq => "==",
            Tok::Le => "<=",
            Tok::Ge => ">=",
            Tok::Ne => "!=",
            Tok::Arrow => "<-",
            Tok::At => "@",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            _ => "?",
        }
    }
}

/// A token together with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Tokenizes `input`. `#` and `//` start line comments.
pub fn lex(input: &str) -> Result<Vec<SpannedTok>, ParseError> {
    let mut toks = Vec::new();
    let mut chars = input.chars().peekable();
    let (mut line, mut col) = (1u32, 1u32);

    macro_rules! push {
        ($t:expr, $l:expr, $c:expr) => {
            toks.push(SpannedTok {
                tok: $t,
                line: $l,
                col: $c,
            })
        };
    }

    while let Some(&c) = chars.peek() {
        let (tl, tc) = (line, col);
        let mut bump = |chars: &mut std::iter::Peekable<std::str::Chars>| {
            let ch = chars.next().unwrap();
            if ch == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            ch
        };
        match c {
            c if c.is_whitespace() => {
                bump(&mut chars);
            }
            '#' => {
                while let Some(&c2) = chars.peek() {
                    if c2 == '\n' {
                        break;
                    }
                    bump(&mut chars);
                }
            }
            '/' => {
                bump(&mut chars);
                if chars.peek() == Some(&'/') {
                    while let Some(&c2) = chars.peek() {
                        if c2 == '\n' {
                            break;
                        }
                        bump(&mut chars);
                    }
                } else {
                    return Err(ParseError::at("unexpected `/`", tl, tc));
                }
            }
            '(' => {
                bump(&mut chars);
                push!(Tok::LParen, tl, tc);
            }
            ')' => {
                bump(&mut chars);
                push!(Tok::RParen, tl, tc);
            }
            '.' => {
                bump(&mut chars);
                push!(Tok::Dot, tl, tc);
            }
            ',' => {
                bump(&mut chars);
                push!(Tok::Comma, tl, tc);
            }
            ':' => {
                bump(&mut chars);
                push!(Tok::Colon, tl, tc);
            }
            ';' => {
                bump(&mut chars);
                push!(Tok::Semi, tl, tc);
            }
            '@' => {
                bump(&mut chars);
                push!(Tok::At, tl, tc);
            }
            '{' => {
                bump(&mut chars);
                push!(Tok::LBrace, tl, tc);
            }
            '}' => {
                bump(&mut chars);
                push!(Tok::RBrace, tl, tc);
            }
            '∧' => {
                bump(&mut chars);
                push!(Tok::And, tl, tc);
            }
            '∨' => {
                bump(&mut chars);
                push!(Tok::Or, tl, tc);
            }
            '←' => {
                bump(&mut chars);
                push!(Tok::Arrow, tl, tc);
            }
            '&' => {
                bump(&mut chars);
                if chars.peek() == Some(&'&') {
                    bump(&mut chars);
                    push!(Tok::And, tl, tc);
                } else {
                    return Err(ParseError::at("expected `&&`", tl, tc));
                }
            }
            '|' => {
                bump(&mut chars);
                if chars.peek() == Some(&'|') {
                    bump(&mut chars);
                    push!(Tok::Or, tl, tc);
                } else {
                    return Err(ParseError::at("expected `||`", tl, tc));
                }
            }
            '!' => {
                bump(&mut chars);
                if chars.peek() == Some(&'=') {
                    bump(&mut chars);
                    push!(Tok::Ne, tl, tc);
                } else {
                    push!(Tok::Not, tl, tc);
                }
            }
            '<' => {
                bump(&mut chars);
                match chars.peek() {
                    Some('=') => {
                        bump(&mut chars);
                        push!(Tok::Le, tl, tc);
                    }
                    Some('-') => {
                        bump(&mut chars);
                        push!(Tok::Arrow, tl, tc);
                    }
                    _ => push!(Tok::Lt, tl, tc),
                }
            }
            '>' => {
                bump(&mut chars);
                if chars.peek() == Some(&'=') {
                    bump(&mut chars);
                    push!(Tok::Ge, tl, tc);
                } else {
                    push!(Tok::Gt, tl, tc);
                }
            }
            '=' => {
                bump(&mut chars);
                if chars.peek() == Some(&'=') {
                    bump(&mut chars);
                    push!(Tok::EqEq, tl, tc);
                } else {
                    return Err(ParseError::at("expected `==`", tl, tc));
                }
            }
            '"' => {
                bump(&mut chars);
                let mut s = String::new();
                loop {
                    match chars.peek() {
                        None => return Err(ParseError::at("unterminated string", tl, tc)),
                        Some('"') => {
                            bump(&mut chars);
                            break;
                        }
                        Some(_) => s.push(bump(&mut chars)),
                    }
                }
                push!(Tok::Str(s), tl, tc);
            }
            c if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                let mut overflow = false;
                while let Some(&c2) = chars.peek() {
                    if let Some(d) = c2.to_digit(10) {
                        bump(&mut chars);
                        let (m, o1) = n.overflowing_mul(10);
                        let (a, o2) = m.overflowing_add(u64::from(d));
                        overflow |= o1 || o2;
                        n = a;
                    } else if c2 == '_' {
                        bump(&mut chars); // digit separator
                    } else {
                        break;
                    }
                }
                if overflow {
                    return Err(ParseError::at("integer literal overflows u64", tl, tc));
                }
                // Dotted-quad IPv4 literal: 192.168.0.1 lexes as one
                // integer (big-endian, as the data plane matches it).
                if chars.peek() == Some(&'.') {
                    let mut octets = vec![n];
                    while chars.peek() == Some(&'.') && octets.len() < 4 {
                        bump(&mut chars); // '.'
                        let mut oct: u64 = 0;
                        let mut any = false;
                        while let Some(&c2) = chars.peek() {
                            if let Some(d) = c2.to_digit(10) {
                                bump(&mut chars);
                                oct = oct * 10 + u64::from(d);
                                any = true;
                                if oct > 255 {
                                    return Err(ParseError::at("IPv4 octet exceeds 255", tl, tc));
                                }
                            } else {
                                break;
                            }
                        }
                        if !any {
                            return Err(ParseError::at("malformed IPv4 literal", tl, tc));
                        }
                        octets.push(oct);
                    }
                    if octets.len() != 4 || octets[0] > 255 {
                        return Err(ParseError::at("malformed IPv4 literal", tl, tc));
                    }
                    let v = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3];
                    push!(Tok::Int(v), tl, tc);
                } else {
                    push!(Tok::Int(n), tl, tc);
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c2) = chars.peek() {
                    if c2.is_ascii_alphanumeric() || c2 == '_' {
                        s.push(bump(&mut chars));
                    } else {
                        break;
                    }
                }
                match s.as_str() {
                    "and" => push!(Tok::And, tl, tc),
                    "or" => push!(Tok::Or, tl, tc),
                    "not" => push!(Tok::Not, tl, tc),
                    _ => push!(Tok::Ident(s), tl, tc),
                }
            }
            other => {
                return Err(ParseError::at(
                    format!("unexpected character `{other}`"),
                    tl,
                    tc,
                ))
            }
        }
    }
    toks.push(SpannedTok {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok(toks)
}

/// A position in a lexed token stream, and the lookahead, expectation
/// and error helpers the rule parser and the spec parser are both
/// written against (each adds its grammar as an `impl Cursor` block).
/// The last token is always [`Tok::Eof`], which the cursor never moves
/// past.
pub(crate) struct Cursor {
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl Cursor {
    /// Lexes `input` into a cursor at its first token.
    pub(crate) fn lex(input: &str) -> Result<Cursor, ParseError> {
        Ok(Cursor {
            toks: lex(input)?,
            pos: 0,
        })
    }

    pub(crate) fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    pub(crate) fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    /// An error at the current token.
    pub(crate) fn err(&self, msg: impl Into<String>) -> ParseError {
        let t = &self.toks[self.pos];
        ParseError::at(msg, t.line, t.col)
    }

    pub(crate) fn expect(&mut self, want: &Tok) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                want.describe(),
                self.peek().describe()
            )))
        }
    }

    pub(crate) fn expect_eof(&self) -> Result<(), ParseError> {
        if matches!(self.peek(), Tok::Eof) {
            Ok(())
        } else {
            Err(self.err(format!("trailing input: {}", self.peek().describe())))
        }
    }

    pub(crate) fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            t => Err(self.err(format!("expected identifier, found {}", t.describe()))),
        }
    }

    pub(crate) fn int(&mut self) -> Result<u64, ParseError> {
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(n)
            }
            t => Err(self.err(format!("expected integer, found {}", t.describe()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Tok> {
        lex(s).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_paper_rule() {
        let t = toks("stock == GOOGL ∧ avg(price) > 50 : fwd(1)");
        assert_eq!(
            t,
            vec![
                Tok::Ident("stock".into()),
                Tok::EqEq,
                Tok::Ident("GOOGL".into()),
                Tok::And,
                Tok::Ident("avg".into()),
                Tok::LParen,
                Tok::Ident("price".into()),
                Tok::RParen,
                Tok::Gt,
                Tok::Int(50),
                Tok::Colon,
                Tok::Ident("fwd".into()),
                Tok::LParen,
                Tok::Int(1),
                Tok::RParen,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn ascii_and_unicode_connectives_agree() {
        assert_eq!(toks("a ∧ b ∨ !c"), toks("a and b or not c"));
        assert_eq!(toks("a && b || !c"), toks("a and b or not c"));
    }

    #[test]
    fn arrow_forms_agree() {
        assert_eq!(toks("v ← f"), toks("v <- f"));
    }

    #[test]
    fn tracks_positions_across_lines() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!((ts[0].line, ts[0].col), (1, 1));
        assert_eq!((ts[1].line, ts[1].col), (2, 3));
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(toks("a # hi\nb // there\nc"), toks("a b c"));
    }

    #[test]
    fn digit_separators_allowed() {
        assert_eq!(toks("1_000_000"), vec![Tok::Int(1_000_000), Tok::Eof]);
    }

    #[test]
    fn lexes_dotted_quad_ipv4() {
        assert_eq!(toks("192.168.0.1"), vec![Tok::Int(0xc0a8_0001), Tok::Eof]);
        assert_eq!(
            toks("ip.dst == 10.0.0.1"),
            vec![
                Tok::Ident("ip".into()),
                Tok::Dot,
                Tok::Ident("dst".into()),
                Tok::EqEq,
                Tok::Int(0x0a00_0001),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn rejects_bad_ipv4_literals() {
        assert!(lex("256.0.0.1").is_err());
        assert!(lex("10.0.0").is_err());
        assert!(lex("10.0.0.999").is_err());
        assert!(lex("10..0.0.1").is_err());
    }

    #[test]
    fn rejects_overflowing_literal() {
        assert!(lex("99999999999999999999999").is_err());
    }

    #[test]
    fn rejects_stray_equal() {
        let err = lex("a = b").unwrap_err();
        assert!(err.message.contains("=="), "{err}");
    }

    #[test]
    fn lexes_strings() {
        assert_eq!(
            toks("\"GOO GL\""),
            vec![Tok::Str("GOO GL".into()), Tok::Eof]
        );
        assert!(lex("\"unterminated").is_err());
    }
}
