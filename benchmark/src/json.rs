//! A JSON writer just big enough for result and trace files (the
//! build is offline; there is no serde to depend on).

use std::fmt::Write;

pub enum J {
    Bool(bool),
    U(u64),
    F(f64),
    S(String),
    A(Vec<J>),
    O(Vec<(String, J)>),
}

impl J {
    pub fn s(v: &str) -> J {
        J::S(v.to_string())
    }

    pub fn obj<const N: usize>(pairs: [(&str, J); N]) -> J {
        J::O(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::U(n) => {
                let _ = write!(out, "{n}");
            }
            // JSON has no NaN/inf; a metric that failed to measure
            // must not silently read as a number.
            J::F(x) if !x.is_finite() => out.push_str("null"),
            J::F(x) => {
                let _ = write!(out, "{x}");
            }
            J::S(s) => write_str(s, out),
            J::A(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            J::O(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
