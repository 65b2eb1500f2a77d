//! P4 source generation — the static compiler's third output (Fig. 6):
//! the "P4 control block that specifies the control-flow and
//! match-action tables in the pipeline", together with the parser and
//! register declarations.
//!
//! Two backends: [`render_p4`] emits P4-14 (the dialect the paper's
//! prototype targeted via P4V), [`render_p4_16`] emits modern P4-16 /
//! v1model. Both are checked structurally in tests (this reproduction
//! does not ship a vendor P4 toolchain — see DESIGN.md §2).
//! [`render_control_plane`] writes the tables' entries, the compiler's
//! second output, as `table_add` lines under one key header per table.

use std::fmt::Write as _;

use camus_lang::spec::Spec;
use camus_pipeline::multicast::{GroupId, MulticastTable};
use camus_pipeline::parser::Transition;
use camus_pipeline::phv::PhvLayout;
use camus_pipeline::table::{ActionOp, MatchKind, MatchValue, RegOp, Table};

use crate::statics::StaticPipeline;

/// Renders the generated pipeline as P4-14 source text. `layout` is
/// the final PHV layout (it may extend the static layout with
/// compression pseudo-fields).
pub fn render_p4(
    spec: &Spec,
    statics: &StaticPipeline,
    tables: &[Table],
    layout: &camus_pipeline::PhvLayout,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "// Generated by camus-core. Do not edit.");
    let _ = writeln!(
        s,
        "// Static pipeline for {} header instance(s).\n",
        spec.instances.len()
    );

    // Header types.
    for ht in &spec.header_types {
        let _ = writeln!(s, "header_type {} {{", ht.name);
        let _ = writeln!(s, "    fields {{");
        for f in &ht.fields {
            let _ = writeln!(s, "        {}: {};", f.name, f.bits);
        }
        let _ = writeln!(s, "    }}");
        let _ = writeln!(s, "}}");
    }
    for inst in &spec.instances {
        let _ = writeln!(s, "header {} {};", inst.type_name, inst.name);
    }

    // Metadata for the BDD state machine.
    let _ = writeln!(s, "\nheader_type camus_meta_t {{");
    let _ = writeln!(s, "    fields {{");
    let _ = writeln!(s, "        state: 32;");
    for b in &statics.state_bindings {
        let _ = writeln!(s, "        {}: 64;", layout.name(b.dst).replace('.', "_"));
    }
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "}}");
    let _ = writeln!(s, "metadata camus_meta_t camus_meta;");

    // Registers (§3.1: statically preallocated block).
    if !statics.registers.is_empty() {
        let _ = writeln!(s);
        for i in 0..statics.registers.len() {
            let _ = writeln!(
                s,
                "register camus_reg_{i} {{ width: 64; instance_count: 1; }}"
            );
        }
    }

    // Parser.
    let _ = writeln!(s, "\n// Parser ({} states)", statics.parser.states.len());
    for st in &statics.parser.states {
        let _ = writeln!(s, "parser {} {{", sanitize(&st.name));
        for e in &st.extracts {
            let _ = writeln!(
                s,
                "    // extract {} @ +{}b ({}b)",
                layout.name(e.dst),
                e.bit_offset,
                e.bits
            );
        }
        match &st.next {
            Transition::Accept => {
                let _ = writeln!(s, "    return ingress;");
            }
            Transition::Always(n) => {
                let _ = writeln!(
                    s,
                    "    return {};",
                    sanitize(&statics.parser.states[n.0 as usize].name)
                );
            }
            Transition::Select {
                field,
                cases,
                default,
            } => {
                let _ = writeln!(s, "    return select({}) {{", layout.name(*field));
                for (v, n) in cases {
                    let _ = writeln!(
                        s,
                        "        {v:#x}: {};",
                        sanitize(&statics.parser.states[n.0 as usize].name)
                    );
                }
                match default {
                    Some(n) => {
                        let _ = writeln!(
                            s,
                            "        default: {};",
                            sanitize(&statics.parser.states[n.0 as usize].name)
                        );
                    }
                    None => {
                        let _ = writeln!(s, "        default: parse_error;");
                    }
                }
                let _ = writeln!(s, "    }}");
            }
            Transition::SelectRemaining { more } => {
                let _ = writeln!(
                    s,
                    "    return select(current(0,0)) {{ /* payload remaining? */"
                );
                let _ = writeln!(
                    s,
                    "        default: {};",
                    sanitize(&statics.parser.states[more.0 as usize].name)
                );
                let _ = writeln!(s, "    }} // or ingress at end of payload");
            }
        }
        let _ = writeln!(s, "}}");
    }

    // Actions.
    let _ = writeln!(
        s,
        "\naction set_next_state(next) {{ modify_field(camus_meta.state, next); }}"
    );
    let _ = writeln!(
        s,
        "action do_fwd(port) {{ modify_field(standard_metadata.egress_spec, port); }}"
    );
    let _ = writeln!(
        s,
        "action do_mcast(group) {{ modify_field(intrinsic_metadata.mcast_grp, group); }}"
    );
    let _ = writeln!(s, "action do_drop() {{ drop(); }}");
    for i in 0..statics.registers.len() {
        let _ = writeln!(
            s,
            "action reg_update_{i}(value) {{ register_write(camus_reg_{i}, 0, value); }}"
        );
    }

    // Tables.
    let _ = writeln!(s);
    for t in tables {
        let _ = writeln!(s, "table {} {{", t.name);
        let _ = writeln!(s, "    reads {{");
        for k in t.keys() {
            let kind = match k.kind {
                MatchKind::Exact => "exact",
                MatchKind::Range => "range",
            };
            let _ = writeln!(
                s,
                "        {}: {kind};",
                layout.name(k.field).replace('.', "_")
            );
        }
        let _ = writeln!(s, "    }}");
        let _ = writeln!(
            s,
            "    actions {{ set_next_state; do_fwd; do_mcast; do_drop; }}"
        );
        let _ = writeln!(s, "    size: {};", t.len().max(16));
        let _ = writeln!(s, "}}");
    }

    // Control flow.
    let _ = writeln!(s, "\ncontrol ingress {{");
    for t in tables {
        let _ = writeln!(s, "    apply({});", t.name);
    }
    let _ = writeln!(s, "}}");
    s
}

/// Renders the generated pipeline as P4-16 (v1model) source text.
pub fn render_p4_16(
    spec: &Spec,
    statics: &StaticPipeline,
    tables: &[Table],
    layout: &camus_pipeline::PhvLayout,
) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "// Generated by camus-core (P4-16 / v1model backend). Do not edit."
    );
    let _ = writeln!(s, "#include <core.p4>");
    let _ = writeln!(s, "#include <v1model.p4>\n");

    // Header types.
    for ht in &spec.header_types {
        let _ = writeln!(s, "header {} {{", ht.name);
        for f in &ht.fields {
            let _ = writeln!(s, "    bit<{}> {};", f.bits, f.name);
        }
        let _ = writeln!(s, "}}");
    }
    let _ = writeln!(s, "\nstruct headers_t {{");
    for inst in &spec.instances {
        let _ = writeln!(s, "    {} {};", inst.type_name, inst.name);
    }
    let _ = writeln!(s, "}}");

    // Metadata.
    let _ = writeln!(s, "\nstruct camus_meta_t {{");
    let _ = writeln!(s, "    bit<32> state;");
    for b in &statics.state_bindings {
        let _ = writeln!(s, "    bit<64> {};", field_ident(layout.name(b.dst)));
    }
    let _ = writeln!(s, "}}");

    // Registers.
    if !statics.registers.is_empty() {
        let _ = writeln!(s);
        for i in 0..statics.registers.len() {
            let _ = writeln!(s, "register<bit<64>>(1) camus_reg_{i};");
        }
    }

    // Parser (structural rendering of the parse graph).
    let _ = writeln!(
        s,
        "\nparser CamusParser(packet_in packet, out headers_t hdr,\n                   inout camus_meta_t meta, inout standard_metadata_t smeta) {{"
    );
    for (i, st) in statics.parser.states.iter().enumerate() {
        let name = if i == statics.parser.start.0 as usize {
            "start".to_string()
        } else {
            sanitize(&st.name)
        };
        let _ = writeln!(s, "    state {name} {{");
        for e in &st.extracts {
            let _ = writeln!(
                s,
                "        // extract {} @ +{}b ({}b)",
                layout.name(e.dst),
                e.bit_offset,
                e.bits
            );
        }
        match &st.next {
            Transition::Accept => {
                let _ = writeln!(s, "        transition accept;");
            }
            Transition::Always(n) => {
                let _ = writeln!(
                    s,
                    "        transition {};",
                    sanitize(&statics.parser.states[n.0 as usize].name)
                );
            }
            Transition::Select {
                field,
                cases,
                default,
            } => {
                let _ = writeln!(
                    s,
                    "        transition select({}) {{",
                    field_ident(layout.name(*field))
                );
                for (v, n) in cases {
                    let _ = writeln!(
                        s,
                        "            {v:#x}: {};",
                        sanitize(&statics.parser.states[n.0 as usize].name)
                    );
                }
                let _ = match default {
                    Some(n) => writeln!(
                        s,
                        "            default: {};",
                        sanitize(&statics.parser.states[n.0 as usize].name)
                    ),
                    None => writeln!(s, "            default: reject;"),
                };
                let _ = writeln!(s, "        }}");
            }
            Transition::SelectRemaining { more } => {
                let _ = writeln!(
                    s,
                    "        transition select(packet.lookahead<bit<1>>()) {{ // payload remaining?"
                );
                let _ = writeln!(
                    s,
                    "            default: {};",
                    sanitize(&statics.parser.states[more.0 as usize].name)
                );
                let _ = writeln!(s, "        }} // accept at end of payload");
            }
        }
        let _ = writeln!(s, "    }}");
    }
    let _ = writeln!(s, "}}");

    // Ingress control.
    let _ = writeln!(
        s,
        "\ncontrol CamusIngress(inout headers_t hdr, inout camus_meta_t meta,\n                     inout standard_metadata_t smeta) {{"
    );
    let _ = writeln!(
        s,
        "    action set_next_state(bit<32> next) {{ meta.state = next; }}"
    );
    let _ = writeln!(
        s,
        "    action do_fwd(bit<9> port) {{ smeta.egress_spec = port; }}"
    );
    let _ = writeln!(
        s,
        "    action do_mcast(bit<16> group) {{ smeta.mcast_grp = group; }}"
    );
    let _ = writeln!(s, "    action do_drop() {{ mark_to_drop(smeta); }}");
    for t in tables {
        let _ = writeln!(s, "\n    table {} {{", t.name);
        let _ = writeln!(s, "        key = {{");
        for k in t.keys() {
            let kind = match k.kind {
                MatchKind::Exact => "exact",
                MatchKind::Range => "range",
            };
            let _ = writeln!(
                s,
                "            {}: {kind};",
                field_ident(layout.name(k.field))
            );
        }
        let _ = writeln!(s, "        }}");
        let _ = writeln!(
            s,
            "        actions = {{ set_next_state; do_fwd; do_mcast; do_drop; NoAction; }}"
        );
        let _ = writeln!(s, "        default_action = NoAction();");
        let _ = writeln!(s, "        size = {};", t.len().max(16));
        let _ = writeln!(s, "    }}");
    }
    let _ = writeln!(s, "\n    apply {{");
    for t in tables {
        let _ = writeln!(s, "        {}.apply();", t.name);
    }
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "}}");

    let _ = writeln!(
        s,
        "\n// V1Switch(CamusParser(), verifyChecksum(), CamusIngress(), egress(),\n\
         //          computeChecksum(), deparser()) main;"
    );
    s
}

/// `add_order.stock` → `hdr.add_order.stock`; `meta.state` stays under
/// the metadata struct.
fn field_ident(name: &str) -> String {
    if let Some(rest) = name.strip_prefix("meta.") {
        format!("meta.{}", rest.replace('.', "_"))
    } else {
        format!("hdr.{name}")
    }
}

fn sanitize(name: &str) -> String {
    format!("parse_{}", name.replace(['.', '-'], "_"))
}

/// Renders the control-plane rules as human-readable `table_add`
/// lines (the second compiler output of Fig. 6), each register write
/// with its op, then one `mc_group` line per multicast group listing
/// its ports. Each table's rows follow one `table` line that names
/// every key `k<id>` of its rows: the PHV field from `layout` and the
/// match kind (`table t_x k0=meta.state:exact k8=h.price:range`).
pub fn render_control_plane(
    tables: &[Table],
    mcast: &MulticastTable,
    layout: &PhvLayout,
) -> String {
    let mut s = String::new();
    for t in tables {
        let _ = write!(s, "table {}", t.name);
        for k in t.keys() {
            let kind = match k.kind {
                MatchKind::Exact => "exact",
                MatchKind::Range => "range",
            };
            let _ = write!(s, " k{}={}:{kind}", k.field.0, layout.name(k.field));
        }
        let _ = writeln!(s);
        for e in t.entries() {
            let _ = write!(s, "table_add {} prio={}", t.name, e.priority);
            for (k, m) in t.keys().iter().zip(&e.matches) {
                let _ = match m {
                    MatchValue::Exact(v) => write!(s, " k{}={v}", k.field.0),
                    MatchValue::Range { lo, hi } => write!(s, " k{}={lo}..{hi}", k.field.0),
                    MatchValue::Any => write!(s, " k{}=*", k.field.0),
                };
            }
            let _ = write!(s, " =>");
            for op in &e.ops {
                let _ = match op {
                    ActionOp::SetField(f, v) => write!(s, " set f{}={v}", f.0),
                    ActionOp::Forward(p) => write!(s, " fwd({})", p.0),
                    ActionOp::Multicast(g) => write!(s, " mcast({})", g.0),
                    ActionOp::Drop => write!(s, " drop"),
                    ActionOp::Register { slot, op } => match op {
                        RegOp::Increment => write!(s, " reg[{slot}].incr"),
                        RegOp::Observe(f) => write!(s, " reg[{slot}].observe(f{})", f.0),
                        RegOp::SetConst(v) => write!(s, " reg[{slot}].set({v})"),
                        RegOp::SetField(f) => write!(s, " reg[{slot}].set(f{})", f.0),
                    },
                };
            }
            let _ = writeln!(s);
        }
    }
    for id in 0..mcast.len() as u32 {
        let ports = mcast.ports(GroupId(id)).unwrap_or_default();
        let ports: Vec<String> = ports.iter().map(|p| p.0.to_string()).collect();
        let _ = writeln!(s, "mc_group {id} ports={}", ports.join(","));
    }
    s
}

#[cfg(test)]
mod tests {
    use crate::compile::{Compiler, CompilerOptions};
    use camus_lang::{parse_program, parse_spec};

    fn p4_for(src: &str, options: CompilerOptions) -> String {
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let compiler = Compiler::new(spec, options).unwrap();
        compiler
            .compile(&parse_program(src).unwrap())
            .unwrap()
            .p4_source
    }

    #[test]
    fn p4_contains_headers_parser_tables_and_control() {
        let p4 = p4_for(
            "stock == GOOGL and price > 10 : fwd(1)",
            CompilerOptions::default(),
        );
        assert!(p4.contains("header_type itch_add_order_t"));
        assert!(p4.contains("header itch_add_order_t add_order;"));
        assert!(p4.contains("metadata camus_meta_t camus_meta;"));
        assert!(p4.contains("parser parse_ethernet"));
        assert!(p4.contains("parser parse_app_message"));
        assert!(p4.contains("table t_add_order_stock"));
        assert!(p4.contains("table t_actions"));
        assert!(p4.contains("control ingress"));
        assert!(p4.contains("apply(t_actions);"));
        // Query hints flow through: stock exact, price range.
        assert!(p4.contains("add_order_stock: exact;"));
        assert!(p4.contains("add_order_price: range;"));
    }

    #[test]
    fn p4_declares_registers_for_state() {
        let p4 = p4_for(
            "avg(price) > 50 and stock == GOOGL : fwd(1)",
            CompilerOptions::raw(),
        );
        assert!(p4.contains("register camus_reg_0"));
        assert!(p4.contains("reg_update_0"));
    }

    #[test]
    fn p4_16_backend_is_structurally_valid() {
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let compiler = Compiler::new(spec, CompilerOptions::default()).unwrap();
        let prog = compiler
            .compile(&parse_program("stock == GOOGL and price > 10 : fwd(1)").unwrap())
            .unwrap();
        let p4 = prog.p4_16_source;
        assert!(p4.contains("#include <v1model.p4>"));
        assert!(p4.contains("header itch_add_order_t {"));
        assert!(p4.contains("bit<64> stock;"));
        assert!(p4.contains("struct headers_t {"));
        assert!(p4.contains("parser CamusParser"));
        assert!(p4.contains("state start {"));
        // The mold encapsulation ends its per-message loop via the
        // payload-remaining select, not a plain accept.
        assert!(p4.contains("accept at end of payload"));
        assert!(p4.contains("control CamusIngress"));
        assert!(p4.contains("hdr.add_order.stock: exact;"));
        assert!(p4.contains("hdr.add_order.price: range;"));
        assert!(p4.contains("meta.state: exact;"));
        assert!(p4.contains("t_actions.apply();"));
        // Braces balance.
        assert_eq!(p4.matches('{').count(), p4.matches('}').count());
    }

    /// The control-plane file names each register write's op, every
    /// multicast group's ports, and each table's key fields.
    #[test]
    fn control_plane_writes_register_ops_and_group_ports() {
        let spec = parse_spec(camus_lang::spec::ITCH_SPEC).unwrap();
        let compiler = Compiler::new(spec, CompilerOptions::raw()).unwrap();
        let rules = "stock == GOOGL : my_counter <- incr()\n\
                     stock == MSFT : fwd(3,1)\n\
                     price > 100 : fwd(3)";
        let prog = compiler.compile(&parse_program(rules).unwrap()).unwrap();
        let cp = prog.control_plane();
        let lines: Vec<&str> = cp.lines().collect();
        // Each table's rows follow one header that names its keys.
        for header in [
            "table t_add_order_stock k0=meta.state:exact k8=add_order.stock:exact",
            "table t_add_order_price k0=meta.state:exact k9=add_order.price:range",
            "table t_actions k0=meta.state:exact",
        ] {
            let at = lines.iter().position(|l| *l == header);
            let name = header.split(' ').nth(1).unwrap();
            let first_row = at.map(|i| lines[i + 1]).unwrap_or_default();
            assert!(first_row.starts_with(&format!("table_add {name} ")), "{cp}");
        }
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("table_add t_actions") && l.ends_with(".incr")),
            "{cp}"
        );
        assert!(!cp.contains("] "), "a register write without its op: {cp}");
        assert!(lines.contains(&"mc_group 0 ports=1,3"), "{cp}");
    }

    #[test]
    fn p4_orders_tables_like_the_bdd() {
        let p4 = p4_for(
            "shares < 60 and stock == AAPL : fwd(1)\nstock == AAPL : fwd(2)",
            CompilerOptions::raw(),
        );
        // ExactFirst heuristic: the stock table precedes the shares table.
        let stock_pos = p4.find("apply(t_add_order_stock)").unwrap();
        let shares_pos = p4.find("apply(t_add_order_shares)").unwrap();
        let leaf_pos = p4.find("apply(t_actions)").unwrap();
        assert!(stock_pos < shares_pos);
        assert!(shares_pos < leaf_pos);
    }
}
