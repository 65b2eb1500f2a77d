//! Operand resolution and rule normalization.
//!
//! Bridges the surface language (`camus-lang`) and the BDD layer
//! (`camus-bdd`): every rule condition is normalized to disjunctive
//! form, every atom is resolved against the message-format spec to a
//! *field slot* — a packet query field, an aggregate pseudo-field
//! (`avg(price)`), or a declared counter — and canonicalized onto the
//! `{<, >, ==}` predicate alphabet.
//!
//! Stateful semantics (§2): "The macro avg stores the current average,
//! which is updated when the rest of the rule matches." For every
//! conjunction that reads an aggregate, resolution synthesizes an
//! auxiliary rule whose condition is the conjunction *minus* the
//! predicates on that aggregate and whose action is the register
//! observation — the dynamic compiler then links it to the
//! statically-allocated update code, exactly the static/dynamic split
//! of §3.1.

use std::collections::HashMap;

use camus_bdd::order::{field_usage, order_fields, OrderHeuristic};
use camus_bdd::pred::{canonicalize, Canon, FieldId, FieldInfo, Pred};
use camus_lang::ast::{Action, AggFn, Atom, Operand, Rule, UpdateFn, Value};
use camus_lang::dnf::to_dnf;
use camus_lang::spec::{MatchHint, QueryField, Spec};
use camus_pipeline::register::AggKind;

use crate::error::CompileError;

/// What a BDD field slot stands for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotKind {
    /// A packet query field from the spec.
    Packet(QueryField),
    /// An aggregate pseudo-field, e.g. `avg(add_order.price)`.
    Agg {
        /// The aggregate read when matching.
        agg: AggKind,
        /// The observed packet field (`None` for `count()`).
        src: Option<QueryField>,
        /// Tumbling window, µs.
        window_us: u64,
    },
    /// A declared `@query_counter` variable.
    Counter {
        /// Counter name.
        name: String,
        /// Tumbling window, µs.
        window_us: u64,
    },
}

impl SlotKind {
    /// Whether the slot is stateful (register-backed).
    pub fn is_state(&self) -> bool {
        !matches!(self, SlotKind::Packet(_))
    }
}

/// The compiler's field table: one slot per distinct operand, in BDD
/// variable order.
#[derive(Debug, Clone, Default)]
pub struct FieldTable {
    /// BDD field metadata, index = `FieldId`.
    pub infos: Vec<FieldInfo>,
    /// What each slot is.
    pub kinds: Vec<SlotKind>,
}

impl FieldTable {
    /// Number of slots.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Slots that are stateful.
    pub fn state_slots(&self) -> impl Iterator<Item = (FieldId, &SlotKind)> {
        self.kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| k.is_state())
            .map(|(i, k)| (FieldId(i as u32), k))
    }
}

/// Compiler-internal action alphabet (what BDD terminals carry).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleAction {
    /// Forward out the given ports.
    Fwd(Vec<u16>),
    /// Explicit drop.
    Drop,
    /// Fold the aggregate's source field (or 1) into its register.
    ObserveAgg {
        /// The aggregate pseudo-field slot.
        agg_field: FieldId,
    },
    /// Explicit counter update from a rule action.
    CounterUpdate {
        /// The counter slot.
        counter_field: FieldId,
        /// The update function.
        func: CounterFunc,
    },
}

/// Counter update functions (mirrors [`UpdateFn`] with fields resolved).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CounterFunc {
    /// `v <- incr()`.
    Increment,
    /// `v <- add(field)`.
    AddField(FieldId),
    /// `v <- set(const)`.
    SetConst(u64),
    /// `v <- set(field)`.
    SetField(FieldId),
}

/// One normalized, resolved conjunction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedConj {
    /// Canonical literals (predicate, polarity).
    pub literals: Vec<(Pred, bool)>,
    /// Actions fired when the conjunction matches.
    pub actions: Vec<RuleAction>,
    /// Index of the source rule (aux observe rules share their parent's
    /// index).
    pub source_rule: usize,
}

/// The full resolution result.
#[derive(Debug, Clone, Default)]
pub struct Resolved {
    /// Field table in BDD order.
    pub fields: FieldTable,
    /// Normalized rules (including synthesized aggregate-observe
    /// rules).
    pub rules: Vec<ResolvedConj>,
}

/// Window for aggregate macros that have no matching `@query_counter`
/// declaration, µs.
const DEFAULT_WINDOW_US: u64 = 100;

/// Resolves rules against a *frozen* field table (incremental mode):
/// no reordering, no new aggregate slots. Rules that would need a new
/// slot fail with [`CompileError::NeedsFullRecompile`].
pub fn resolve_incremental(
    spec: &Spec,
    fields: &FieldTable,
    rules: &[Rule],
) -> Result<Vec<ResolvedConj>, CompileError> {
    let mut builder = Builder::from_table(spec, fields);
    for rule in rules {
        builder.scan_rule(rule)?;
    }
    let mut out = Vec::new();
    for (ri, rule) in rules.iter().enumerate() {
        builder.lower_rule(ri, rule, &mut out)?;
    }
    Ok(out)
}

/// Resolves and normalizes a rule set against a spec, ordering fields
/// by `heuristic`.
pub fn resolve(
    spec: &Spec,
    rules: &[Rule],
    heuristic: OrderHeuristic,
) -> Result<Resolved, CompileError> {
    let mut builder = Builder::new(spec);
    // Pass 1: allocate slots in a deterministic (spec, first-use) order.
    for rule in rules {
        builder.scan_rule(rule)?;
    }
    // Pass 2: normalize and canonicalize.
    let mut out: Vec<ResolvedConj> = Vec::new();
    for (ri, rule) in rules.iter().enumerate() {
        builder.lower_rule(ri, rule, &mut out)?;
    }
    let mut resolved = Resolved {
        fields: builder.finish(),
        rules: out,
    };
    reorder(&mut resolved, heuristic);
    Ok(resolved)
}

/// Applies an ordering heuristic: permutes `FieldId`s so the heuristic's
/// choice becomes the BDD (and pipeline stage) order.
fn reorder(resolved: &mut Resolved, heuristic: OrderHeuristic) {
    let n = resolved.fields.len();
    if n <= 1 {
        return;
    }
    let exact: Vec<bool> = resolved.fields.infos.iter().map(|i| i.exact).collect();
    let conjs: Vec<&[(Pred, bool)]> = resolved
        .rules
        .iter()
        .map(|r| r.literals.as_slice())
        .collect();
    let usage = field_usage(conjs, n, &exact);
    let perm = order_fields(&usage, heuristic); // perm[new] = old
    let mut old_to_new = vec![0u32; n];
    for (new, &old) in perm.iter().enumerate() {
        old_to_new[old] = new as u32;
    }
    let remap = |f: &mut FieldId| f.0 = old_to_new[f.0 as usize];

    let mut infos = Vec::with_capacity(n);
    let mut kinds = Vec::with_capacity(n);
    for &old in &perm {
        infos.push(resolved.fields.infos[old].clone());
        kinds.push(resolved.fields.kinds[old].clone());
    }
    resolved.fields.infos = infos;
    resolved.fields.kinds = kinds;
    for r in &mut resolved.rules {
        for (p, _) in &mut r.literals {
            remap(&mut p.field);
        }
        for a in &mut r.actions {
            match a {
                RuleAction::ObserveAgg { agg_field } => remap(agg_field),
                RuleAction::CounterUpdate {
                    counter_field,
                    func,
                } => {
                    remap(counter_field);
                    match func {
                        CounterFunc::AddField(f) | CounterFunc::SetField(f) => remap(f),
                        _ => {}
                    }
                }
                _ => {}
            }
        }
    }
}

struct Builder<'a> {
    spec: &'a Spec,
    infos: Vec<FieldInfo>,
    kinds: Vec<SlotKind>,
    /// Slot lookup by canonical operand key.
    index: HashMap<String, FieldId>,
    /// Frozen (incremental) mode: creating new slots is an error.
    frozen: bool,
}

impl<'a> Builder<'a> {
    fn new(spec: &'a Spec) -> Self {
        let mut b = Builder {
            spec,
            infos: Vec::new(),
            kinds: Vec::new(),
            index: HashMap::new(),
            frozen: false,
        };
        // Packet query fields first, in annotation order: stable slot ids
        // regardless of rule text.
        for qf in &spec.query_fields {
            let key = format!("pkt:{}", qf.field);
            let info = match qf.hint {
                MatchHint::Exact => FieldInfo::exact(qf.field.to_string(), qf.bits),
                MatchHint::Range => FieldInfo::range(qf.field.to_string(), qf.bits),
            };
            b.push_slot(key, info, SlotKind::Packet(qf.clone()));
        }
        // Declared counters next.
        for c in &spec.counters {
            let key = format!("ctr:{}", c.name);
            b.push_slot(
                key,
                FieldInfo::range(format!("ctr_{}", c.name), 64),
                SlotKind::Counter {
                    name: c.name.clone(),
                    window_us: c.window_us,
                },
            );
        }
        b
    }

    /// Rebuilds a builder over an existing (post-reorder) field table,
    /// in frozen mode.
    fn from_table(spec: &'a Spec, fields: &FieldTable) -> Self {
        let mut index = HashMap::new();
        for (i, kind) in fields.kinds.iter().enumerate() {
            index.insert(slot_key(kind), FieldId(i as u32));
        }
        Builder {
            spec,
            infos: fields.infos.clone(),
            kinds: fields.kinds.clone(),
            index,
            frozen: true,
        }
    }

    fn push_slot(&mut self, key: String, info: FieldInfo, kind: SlotKind) -> FieldId {
        let id = FieldId(self.infos.len() as u32);
        self.infos.push(info);
        self.kinds.push(kind);
        self.index.insert(key, id);
        id
    }

    fn finish(self) -> FieldTable {
        FieldTable {
            infos: self.infos,
            kinds: self.kinds,
        }
    }

    fn packet_slot(&self, fr: &camus_lang::ast::FieldRef) -> Option<(FieldId, &QueryField)> {
        let qf = self.spec.resolve(fr)?;
        let id = *self.index.get(&format!("pkt:{}", qf.field))?;
        match &self.kinds[id.0 as usize] {
            SlotKind::Packet(q) => Some((id, q)),
            _ => None,
        }
    }

    fn counter_slot(&self, name: &str) -> Option<FieldId> {
        self.index.get(&format!("ctr:{name}")).copied()
    }

    fn agg_slot(
        &mut self,
        func: AggFn,
        fr: Option<&camus_lang::ast::FieldRef>,
    ) -> Result<FieldId, CompileError> {
        let src = match fr {
            Some(fr) => Some(
                self.packet_slot(fr)
                    .map(|(_, q)| q.clone())
                    .ok_or_else(|| CompileError::UnresolvedField(fr.clone()))?,
            ),
            None => {
                if func != AggFn::Count {
                    return Err(CompileError::AggNeedsField(func.name()));
                }
                None
            }
        };
        let key = match &src {
            Some(q) => format!("agg:{}:{}", func.name(), q.field),
            None => format!("agg:{}", func.name()),
        };
        if let Some(&id) = self.index.get(&key) {
            return Ok(id);
        }
        if self.frozen {
            return Err(CompileError::NeedsFullRecompile(format!(
                "aggregate `{key}` was not part of the installed program's field table"
            )));
        }
        let agg = match func {
            AggFn::Avg => AggKind::Avg,
            AggFn::Sum => AggKind::Sum,
            AggFn::Count => AggKind::Count,
            AggFn::Min => AggKind::Min,
            AggFn::Max => AggKind::Max,
        };
        let name = key.replace([':', '.'], "_");
        Ok(self.push_slot(
            key,
            FieldInfo::range(name, 64),
            SlotKind::Agg {
                agg,
                src,
                window_us: DEFAULT_WINDOW_US,
            },
        ))
    }

    /// Pass 1: walk operands to allocate aggregate slots deterministically
    /// (first use order), and surface resolution errors early.
    fn scan_rule(&mut self, rule: &Rule) -> Result<(), CompileError> {
        let mut stack = vec![&rule.condition];
        while let Some(c) = stack.pop() {
            use camus_lang::ast::Cond;
            match c {
                Cond::And(a, b) | Cond::Or(a, b) => {
                    stack.push(b);
                    stack.push(a);
                }
                Cond::Not(a) => stack.push(a),
                Cond::Atom(atom) => {
                    self.resolve_operand(&atom.operand)?;
                }
                Cond::True => {}
            }
        }
        for a in &rule.actions {
            if let Action::StateUpdate { var, .. } = a {
                if self.counter_slot(var).is_none() {
                    return Err(CompileError::UnknownStateVar(var.clone()));
                }
            }
        }
        Ok(())
    }

    fn resolve_operand(&mut self, op: &Operand) -> Result<FieldId, CompileError> {
        match op {
            Operand::Field(fr) => {
                if let Some((id, _)) = self.packet_slot(fr) {
                    return Ok(id);
                }
                // Bare identifiers may name a counter.
                if fr.header.is_none() {
                    if let Some(id) = self.counter_slot(&fr.field) {
                        return Ok(id);
                    }
                }
                Err(CompileError::UnresolvedField(fr.clone()))
            }
            Operand::StateVar(name) => self
                .counter_slot(name)
                .ok_or_else(|| CompileError::UnknownStateVar(name.clone())),
            Operand::Agg { func, field } => self.agg_slot(*func, field.as_ref()),
        }
    }

    fn lower_atom(&mut self, atom: &Atom) -> Result<LoweredAtom, CompileError> {
        let field = self.resolve_operand(&atom.operand)?;
        let info = &self.infos[field.0 as usize];
        let bits = info.bits;
        let value = match &atom.value {
            Value::Int(n) => {
                if bits < 64 && *n > info.max_value() {
                    return Err(CompileError::ValueOutOfRange {
                        field: operand_field_ref(&atom.operand),
                        value: *n,
                        bits,
                    });
                }
                *n
            }
            Value::Symbol(_) => atom.value.as_u64(bits),
        };
        // Range ops on exact fields are rejected up front with a source-
        // level error (the BDD would reject them too, less readably).
        if info.exact
            && atom.op != camus_lang::ast::RelOp::Eq
            && atom.op != camus_lang::ast::RelOp::Ne
        {
            return Err(CompileError::RangeOnExactField(operand_field_ref(
                &atom.operand,
            )));
        }
        Ok(LoweredAtom {
            canon: canonicalize(field, atom.op, value, bits),
            field,
        })
    }

    fn lower_rule(
        &mut self,
        rule_index: usize,
        rule: &Rule,
        out: &mut Vec<ResolvedConj>,
    ) -> Result<(), CompileError> {
        let dnf = to_dnf(&rule.condition)?;
        let actions = self.lower_actions(&rule.actions)?;
        for conj in dnf {
            let mut literals: Vec<(Pred, bool)> = Vec::new();
            let mut unsat = false;
            for lit in &conj {
                debug_assert!(lit.positive);
                match self.lower_atom(&lit.atom)? {
                    LoweredAtom {
                        canon: Canon::Always(true),
                        ..
                    } => {}
                    LoweredAtom {
                        canon: Canon::Always(false),
                        ..
                    } => {
                        unsat = true;
                        break;
                    }
                    LoweredAtom {
                        canon: Canon::Lit(p, pol),
                        ..
                    } => literals.push((p, pol)),
                }
            }
            if unsat {
                continue;
            }
            // Aux observe rules: one per aggregate slot read in this
            // conjunction, guarded by the non-aggregate literals.
            let mut agg_slots: Vec<FieldId> = literals
                .iter()
                .map(|(p, _)| p.field)
                .filter(|f| matches!(self.kinds[f.0 as usize], SlotKind::Agg { .. }))
                .collect();
            agg_slots.sort_unstable();
            agg_slots.dedup();
            for agg in agg_slots {
                let guard: Vec<(Pred, bool)> = literals
                    .iter()
                    .filter(|(p, _)| p.field != agg)
                    .copied()
                    .collect();
                out.push(ResolvedConj {
                    literals: guard,
                    actions: vec![RuleAction::ObserveAgg { agg_field: agg }],
                    source_rule: rule_index,
                });
            }
            out.push(ResolvedConj {
                literals,
                actions: actions.clone(),
                source_rule: rule_index,
            });
        }
        Ok(())
    }

    fn lower_actions(&mut self, actions: &[Action]) -> Result<Vec<RuleAction>, CompileError> {
        let mut out = Vec::with_capacity(actions.len());
        for a in actions {
            match a {
                Action::Fwd(ports) => {
                    let mut p = ports.clone();
                    p.sort_unstable();
                    p.dedup();
                    out.push(RuleAction::Fwd(p));
                }
                Action::Drop => out.push(RuleAction::Drop),
                Action::StateUpdate { var, func } => {
                    let counter_field = self
                        .counter_slot(var)
                        .ok_or_else(|| CompileError::UnknownStateVar(var.clone()))?;
                    let func = match func {
                        UpdateFn::Increment => CounterFunc::Increment,
                        UpdateFn::AddField(fr) => CounterFunc::AddField(
                            self.packet_slot(fr)
                                .map(|(id, _)| id)
                                .ok_or_else(|| CompileError::UnresolvedField(fr.clone()))?,
                        ),
                        UpdateFn::SetConst(n) => CounterFunc::SetConst(*n),
                        UpdateFn::SetField(fr) => CounterFunc::SetField(
                            self.packet_slot(fr)
                                .map(|(id, _)| id)
                                .ok_or_else(|| CompileError::UnresolvedField(fr.clone()))?,
                        ),
                    };
                    out.push(RuleAction::CounterUpdate {
                        counter_field,
                        func,
                    });
                }
            }
        }
        Ok(out)
    }
}

/// Canonical operand key for a slot (inverse of the builder's key
/// construction, used to rebuild the index in frozen mode).
fn slot_key(kind: &SlotKind) -> String {
    match kind {
        SlotKind::Packet(qf) => format!("pkt:{}", qf.field),
        SlotKind::Agg { agg, src, .. } => {
            let name = match agg {
                AggKind::Avg => "avg",
                AggKind::Sum => "sum",
                AggKind::Count => "count",
                AggKind::Min => "min",
                AggKind::Max => "max",
                AggKind::Last => "last",
            };
            match src {
                Some(q) => format!("agg:{}:{}", name, q.field),
                None => format!("agg:{name}"),
            }
        }
        SlotKind::Counter { name, .. } => format!("ctr:{name}"),
    }
}

struct LoweredAtom {
    canon: Canon,
    #[allow(dead_code)]
    field: FieldId,
}

fn operand_field_ref(op: &Operand) -> camus_lang::ast::FieldRef {
    match op {
        Operand::Field(fr) => fr.clone(),
        Operand::StateVar(v) => camus_lang::ast::FieldRef::short(v.clone()),
        Operand::Agg { func, field } => camus_lang::ast::FieldRef::short(match field {
            Some(fr) => format!("{}({})", func.name(), fr),
            None => format!("{}()", func.name()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_lang::{parse_program, parse_rule, parse_spec};

    fn itch() -> Spec {
        parse_spec(camus_lang::spec::ITCH_SPEC).unwrap()
    }

    fn resolve_src(src: &str) -> Result<Resolved, CompileError> {
        let rules = parse_program(src).unwrap();
        resolve(&itch(), &rules, OrderHeuristic::ExactFirst)
    }

    #[test]
    fn resolves_simple_rule() {
        let r = resolve_src("stock == GOOGL : fwd(1)").unwrap();
        assert_eq!(r.rules.len(), 1);
        assert_eq!(r.rules[0].literals.len(), 1);
        let (p, pol) = r.rules[0].literals[0];
        assert!(pol);
        assert_eq!(p.value, camus_lang::symbol::encode_symbol("GOOGL", 64));
        assert_eq!(r.rules[0].actions, vec![RuleAction::Fwd(vec![1])]);
    }

    #[test]
    fn field_table_includes_spec_slots() {
        let r = resolve_src("stock == GOOGL : fwd(1)").unwrap();
        // 4 query fields + 1 declared counter.
        assert_eq!(r.fields.len(), 5);
        let names: Vec<&str> = r.fields.infos.iter().map(|i| i.name.as_str()).collect();
        assert!(names.contains(&"add_order.stock"));
        assert!(names.contains(&"ctr_my_counter"));
    }

    #[test]
    fn disjunction_splits_into_rules() {
        let r = resolve_src("stock == GOOGL or stock == MSFT : fwd(2)").unwrap();
        assert_eq!(r.rules.len(), 2);
        assert_eq!(r.rules[0].source_rule, 0);
        assert_eq!(r.rules[1].source_rule, 0);
    }

    #[test]
    fn aggregate_creates_pseudo_field_and_observe_rule() {
        let r = resolve_src("stock == GOOGL and avg(price) > 50 : fwd(1)").unwrap();
        // Aux observe rule + the main rule.
        assert_eq!(r.rules.len(), 2);
        let obs = &r.rules[0];
        assert_eq!(obs.literals.len(), 1, "guard is the stock literal only");
        assert!(matches!(obs.actions[0], RuleAction::ObserveAgg { .. }));
        let main = &r.rules[1];
        assert_eq!(main.literals.len(), 2);
        // The agg pseudo-field exists and is stateful.
        let agg_slots: Vec<_> = r.fields.state_slots().collect();
        assert!(agg_slots.iter().any(|(_, k)| matches!(
            k,
            SlotKind::Agg {
                agg: AggKind::Avg,
                ..
            }
        )));
    }

    #[test]
    fn counter_predicates_and_updates_resolve() {
        let r =
            resolve_src("my_counter > 10 : fwd(2)\nstock == AAPL : my_counter <- incr()").unwrap();
        assert_eq!(r.rules.len(), 2);
        assert!(matches!(
            r.rules[1].actions[0],
            RuleAction::CounterUpdate {
                func: CounterFunc::Increment,
                ..
            }
        ));
    }

    #[test]
    fn unknown_field_errors() {
        assert!(matches!(
            resolve_src("volume > 10 : fwd(1)"),
            Err(CompileError::UnresolvedField(_))
        ));
    }

    #[test]
    fn unknown_counter_update_errors() {
        assert!(matches!(
            resolve_src("stock == A : nope <- incr()"),
            Err(CompileError::UnknownStateVar(_))
        ));
    }

    #[test]
    fn range_on_exact_field_errors() {
        assert!(matches!(
            resolve_src("stock > GOOGL : fwd(1)"),
            Err(CompileError::RangeOnExactField(_))
        ));
    }

    #[test]
    fn value_out_of_range_errors() {
        assert!(matches!(
            resolve_src("buy_sell == 300 : fwd(1)"),
            Err(CompileError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn nullary_agg_other_than_count_errors() {
        let rules = vec![parse_rule("avg() > 3 : fwd(1)").unwrap()];
        assert!(matches!(
            resolve(&itch(), &rules, OrderHeuristic::ExactFirst),
            Err(CompileError::AggNeedsField("avg"))
        ));
    }

    #[test]
    fn tautological_literal_is_dropped() {
        let r = resolve_src("price >= 0 and stock == GOOGL : fwd(1)").unwrap();
        assert_eq!(r.rules[0].literals.len(), 1);
    }

    #[test]
    fn contradictory_conjunct_is_removed() {
        let r = resolve_src("price < 0 : fwd(1)").unwrap();
        assert!(r.rules.is_empty());
    }

    #[test]
    fn negation_becomes_negative_literal() {
        let r = resolve_src("!(stock == GOOGL) : fwd(1)").unwrap();
        assert_eq!(r.rules[0].literals.len(), 1);
        assert!(!r.rules[0].literals[0].1);
    }

    #[test]
    fn heuristic_reorders_fields() {
        let src = "stock == GOOGL : fwd(1)\nstock == MSFT : fwd(2)\nshares > 10 : fwd(3)";
        let rules = parse_program(src).unwrap();
        let r = resolve(&itch(), &rules, OrderHeuristic::FrequencyDescending).unwrap();
        // `stock` (2 refs) must come before `shares` (1 ref).
        let stock_pos = r
            .fields
            .infos
            .iter()
            .position(|i| i.name == "add_order.stock")
            .unwrap();
        let shares_pos = r
            .fields
            .infos
            .iter()
            .position(|i| i.name == "add_order.shares")
            .unwrap();
        assert!(stock_pos < shares_pos);
        // Literals were remapped consistently.
        for rule in &r.rules {
            for (p, _) in &rule.literals {
                assert!((p.field.0 as usize) < r.fields.len());
                let info = &r.fields.infos[p.field.0 as usize];
                if info.name == "add_order.stock" {
                    assert!(info.exact);
                }
            }
        }
    }

    #[test]
    fn spec_order_heuristic_preserves_annotation_order() {
        let rules = parse_program("stock == GOOGL : fwd(1)").unwrap();
        let r = resolve(&itch(), &rules, OrderHeuristic::SpecOrder).unwrap();
        let names: Vec<&str> = r.fields.infos.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "add_order.shares",
                "add_order.price",
                "add_order.stock",
                "add_order.buy_sell",
                "ctr_my_counter"
            ]
        );
    }
}
