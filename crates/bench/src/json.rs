//! Tiny JSON emitter for the benchmark/figure result files.
//!
//! The workspace cannot pull serde from a registry, and the only JSON
//! need is *writing* flat rows of numbers/strings under `results/`, so
//! this module hand-rolls exactly that: a [`ToJson`] trait with impls
//! for the primitive types the row structs use, plus the
//! [`impl_to_json!`](crate::impl_to_json) macro that derives a struct impl from its field
//! list. Output is pretty-printed (two-space indent) so result files
//! diff cleanly across runs.

/// Serialization into a JSON string being built up.
pub trait ToJson {
    /// Appends `self` to `out`. `indent` is the indentation level of
    /// the *current* line (containers indent their children one more).
    fn write_json(&self, out: &mut String, indent: usize);
}

/// Renders any [`ToJson`] value as a pretty-printed document.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out, 0);
    out.push('\n');
    out
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! int_to_json {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String, _indent: usize) {
                out.push_str(&self.to_string());
            }
        }
    )+};
}

int_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for bool {
    fn write_json(&self, out: &mut String, _indent: usize) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String, _indent: usize) {
        if self.is_finite() {
            // Rust's shortest-roundtrip formatting is valid JSON (no
            // exponent notation for f64 Display).
            out.push_str(&self.to_string());
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String, _indent: usize) {
        write_escaped(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String, indent: usize) {
        self.as_str().write_json(out, indent);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String, indent: usize) {
        match self {
            Some(v) => v.write_json(out, indent),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String, indent: usize) {
        if self.is_empty() {
            out.push_str("[]");
            return;
        }
        out.push_str("[\n");
        for (i, v) in self.iter().enumerate() {
            push_indent(out, indent + 1);
            v.write_json(out, indent + 1);
            if i + 1 < self.len() {
                out.push(',');
            }
            out.push('\n');
        }
        push_indent(out, indent);
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, indent: usize) {
        self.as_slice().write_json(out, indent);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String, indent: usize) {
        (**self).write_json(out, indent);
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String, indent: usize) {
        out.push('[');
        self.0.write_json(out, indent);
        out.push_str(", ");
        self.1.write_json(out, indent);
        out.push(']');
    }
}

/// Implements [`ToJson`] for a struct as an object of its named fields,
/// in declaration order:
///
/// ```ignore
/// impl_to_json!(Fig5aRow { subscriptions, table_entries, bdd_nodes });
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String, indent: usize) {
                out.push_str("{\n");
                let fields = [$(stringify!($field)),+];
                let mut i = 0usize;
                $(
                    for _ in 0..indent + 1 {
                        out.push_str("  ");
                    }
                    out.push('"');
                    out.push_str(fields[i]);
                    out.push_str("\": ");
                    $crate::json::ToJson::write_json(&self.$field, out, indent + 1);
                    i += 1;
                    if i < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                )+
                let _ = i;
                for _ in 0..indent {
                    out.push_str("  ");
                }
                out.push('}');
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Row {
        name: String,
        count: usize,
        ratio: f64,
        ok: bool,
        cdf: Vec<(f64, f64)>,
    }

    impl_to_json!(Row {
        name,
        count,
        ratio,
        ok,
        cdf
    });

    #[test]
    fn renders_structs_and_containers() {
        let r = Row {
            name: "a \"quoted\"\nlabel".into(),
            count: 3,
            ratio: 0.5,
            ok: true,
            cdf: vec![(1.0, 0.25), (2.5, 1.0)],
        };
        let s = to_string_pretty(&vec![r]);
        assert!(s.starts_with("[\n  {\n"), "{s}");
        assert!(s.contains("\"name\": \"a \\\"quoted\\\"\\nlabel\""), "{s}");
        assert!(s.contains("\"count\": 3"), "{s}");
        assert!(s.contains("\"ratio\": 0.5"), "{s}");
        assert!(s.contains("\"ok\": true"), "{s}");
        assert!(s.contains("[1, 0.25]"), "{s}");
        assert!(s.ends_with("]\n"), "{s}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut out = String::new();
        f64::NAN.write_json(&mut out, 0);
        assert_eq!(out, "null");
    }

    #[test]
    fn empty_and_option() {
        let empty: Vec<u32> = vec![];
        assert_eq!(to_string_pretty(&empty), "[]\n");
        assert_eq!(to_string_pretty(&Option::<u32>::None), "null\n");
        assert_eq!(to_string_pretty(&Some(7u32)), "7\n");
    }
}
