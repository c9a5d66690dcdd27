//! Congruence closure over scalar/tuple expressions (Nelson–Oppen [43]).
//!
//! TDP checks predicate-set equivalence by "first computing the equivalence
//! classes of variables and function applications and then checking for
//! equivalence of the expressions using the equivalence classes" (Sec 5.2).
//! This module implements that engine: a union-find over hash-consed
//! expression nodes with upward congruence propagation
//! (`x ≈ y ⇒ f(…x…) ≈ f(…y…)`, including attribute projections
//! `x ≈ y ⇒ x.a ≈ y.a`), plus the tuple-theory decompositions
//! record-injectivity and concat-injectivity.
//!
//! Aggregates `agg(E)` are uninterpreted: a node's signature is the aggregate
//! name plus an alpha-normalized body *skeleton* in which free variables are
//! replaced by numbered placeholders; the actual free variables become
//! congruence children, so `sum(… y₁ …) ≈ sum(… y₂ …)` follows from
//! `y₁ ≈ y₂`.
//!
//! **Layout.** A closure is built several times per goal for a dozen or so
//! nodes, so building one is kept cheap:
//!
//! * Operator payloads are interned per closure to integer ids: attribute,
//!   function and record-field names share one name table, constants,
//!   aggregate (name, skeleton) pairs and record field lists have a table
//!   each. [`Op`] is therefore `Copy`, and equal ids mean equal payloads.
//! * Nodes live in a `Vec` indexed by node id. Each node carries its
//!   union-find link, its class's size, and the ends of its class's member
//!   and parent lists; child ids sit in one shared pool. A class's members
//!   are a linked list threaded through the nodes and its parents one
//!   through a shared link pool, so a merge splices the absorbed class's
//!   lists onto the survivor's in O(1) and keeps their order (survivor's
//!   first).
//! * The signature table keys `(op, child roots)`; for arity ≤ 2 the key is
//!   inline, so probing it allocates nothing. It hashes with a small
//!   multiplicative hasher ([`MulHasher`]).
//! * Each node keeps the source expression that created it (witnesses are
//!   reported as expressions); free-variable sets are computed from it on
//!   demand by the witness queries.
//!
//! **Theory propagation.** The tuple-theory pass (record/concat
//! injectivity, record/projection alignment) only acts on classes holding a
//! record or concat node. It is skipped until the first such node is
//! interned and runs after every intern and merge from then on, so closures
//! without tuple nodes — most of them — never pay for it.

use crate::expr::{Expr, Pred, Value, VarId};
use crate::schema::SchemaId;
use crate::uexpr::UExpr;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use udp_obs::{Counter, Recorder};

/// End of a linked list / absent child.
const NONE: u32 = u32::MAX;

/// Word-at-a-time multiplicative hasher (the Fx scheme: rotate, xor,
/// multiply by an odd constant). The tables it serves are small, keyed by
/// integer ids and short names, and never exposed to untrusted keys.
#[derive(Debug, Default, Clone, Copy)]
struct MulHasher(u64);

impl MulHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.add(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 59));
    }
    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }
    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// Node operator: the un-curried head symbol of an expression, with its
/// payload interned (see the module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    Var(VarId),
    /// Index into the constant table.
    Const(u32),
    /// Name id.
    Attr(u32),
    /// Name id.
    App(u32),
    /// Index into the aggregate table: name + alpha-normalized body skeleton
    /// (free variables replaced by placeholders in first-occurrence order).
    Agg(u32),
    /// Index into the field-list table (field name ids in order).
    Record(u32),
    Concat(SchemaId),
}

/// A node's canonical child ids in a signature key: inline for arity ≤ 2
/// (padded with [`NONE`]), boxed beyond.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Kids {
    Few([u32; 2]),
    Many(Box<[u32]>),
}

impl Kids {
    fn as_slice(&self) -> &[u32] {
        match self {
            Kids::Few(k) => {
                let n = k.iter().take_while(|&&c| c != NONE).count();
                &k[..n]
            }
            Kids::Many(k) => k,
        }
    }
}

/// One node and its union-find, member-list and parent-list slots.
#[derive(Debug)]
struct Node {
    op: Op,
    /// Start of the node's children in [`Congruence::kids`].
    first: u32,
    arity: u32,
    /// Union-find parent link.
    uf: u32,
    /// Member count of the class (valid at roots).
    size: u32,
    /// Next member of the same class; a class's list starts at its root.
    next_member: u32,
    /// Last member of the class (valid at roots).
    last_member: u32,
    /// Head and tail (valid at roots) of the class's parent list: the
    /// nodes that have a member of the class as a child, threaded through
    /// [`Congruence::parent_links`] as `(node, next)`.
    parent_head: u32,
    parent_tail: u32,
    /// The source expression that created the node, for witnesses.
    expr: Expr,
}

/// Interned operator payloads of one closure.
#[derive(Debug, Default)]
struct Symbols {
    names: FastMap<String, u32>,
    consts: FastMap<Value, u32>,
    const_values: Vec<Value>,
    aggs: FastMap<(u32, UExpr), u32>,
    records: FastMap<Vec<u32>, u32>,
    record_fields: Vec<Vec<u32>>,
}

impl Symbols {
    fn name(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.names.get(s) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.insert(s.to_string(), id);
        id
    }

    fn constant(&mut self, c: &Value) -> u32 {
        if let Some(&id) = self.consts.get(c) {
            return id;
        }
        let id = self.const_values.len() as u32;
        self.const_values.push(c.clone());
        self.consts.insert(c.clone(), id);
        id
    }

    fn agg(&mut self, name: u32, skeleton: UExpr) -> u32 {
        let next = self.aggs.len() as u32;
        *self.aggs.entry((name, skeleton)).or_insert(next)
    }

    fn record(&mut self, fields: Vec<u32>) -> u32 {
        if let Some(&id) = self.records.get(&fields) {
            return id;
        }
        let id = self.record_fields.len() as u32;
        self.record_fields.push(fields.clone());
        self.records.insert(fields, id);
        id
    }
}

/// Congruence closure engine. Build one per SPNF term, assert its equality
/// predicates, then query.
#[derive(Debug, Default)]
pub struct Congruence {
    syms: Symbols,
    /// Nodes indexed by node id.
    nodes: Vec<Node>,
    /// Child node ids of every node, `nodes[i].first..+arity`.
    kids: Vec<u32>,
    /// The links of every class's parent list, `(node, next)`.
    parent_links: Vec<(u32, u32)>,
    /// Hash-consing / congruence signatures: (op, canonical child roots).
    sig: FastMap<(Op, Kids), u32>,
    /// Constant nodes in creation order.
    const_nodes: Vec<u32>,
    /// Has a record or concat node been interned? Until then the
    /// tuple-theory pass has nothing to act on and is skipped.
    tuple_nodes: bool,
    /// Pending merges discovered during congruence propagation.
    worklist: Vec<(u32, u32)>,
    /// Counter sink: [`Counter::TermNodes`], [`Counter::CongruenceUnions`],
    /// [`Counter::CongruenceFinds`]. Disabled by default.
    recorder: Recorder,
}

/// Alpha-normalize a U-expression: rename bound variables to a canonical
/// numbering (first-binder-encountered order), leaving free variables alone.
/// Two alpha-equivalent expressions normalize to identical trees.
pub fn alpha_normalize(e: &UExpr) -> UExpr {
    fn go(e: &UExpr, next: &mut u32, env: &BTreeMap<VarId, VarId>) -> UExpr {
        match e {
            UExpr::Zero => UExpr::Zero,
            UExpr::One => UExpr::One,
            UExpr::Add(a, b) => UExpr::add(go(a, next, env), go(b, next, env)),
            UExpr::Mul(a, b) => UExpr::mul(go(a, next, env), go(b, next, env)),
            UExpr::Pred(p) => UExpr::Pred(p.subst_map(&|v| env.get(&v).map(|nv| Expr::Var(*nv)))),
            UExpr::Rel(r, arg) => {
                UExpr::Rel(*r, arg.subst_map(&|v| env.get(&v).map(|nv| Expr::Var(*nv))))
            }
            UExpr::Squash(x) => UExpr::squash(go(x, next, env)),
            UExpr::Not(x) => UExpr::not(go(x, next, env)),
            UExpr::Sum(v, s, body) => {
                let nv = VarId(ALPHA_BASE + *next);
                *next += 1;
                let mut env2 = env.clone();
                env2.insert(*v, nv);
                UExpr::Sum(nv, *s, Box::new(go(body, next, &env2)))
            }
        }
    }
    go(e, &mut 0, &BTreeMap::new())
}

/// Base id for canonical bound variables in alpha-normal forms; far above any
/// variable a realistic problem generates.
pub const ALPHA_BASE: u32 = 1 << 30;

/// Base id for free-variable placeholders in aggregate skeletons.
const PLACEHOLDER_BASE: u32 = (1 << 30) + (1 << 29);

/// Abstract an aggregate body: replace each free variable by a numbered
/// placeholder (order of first occurrence in the sorted free-variable set)
/// and alpha-normalize binders. Returns the skeleton and the abstracted
/// variables in placeholder order.
fn abstract_agg_body(body: &UExpr) -> (UExpr, Vec<VarId>) {
    let free: Vec<VarId> = body.free_vars().into_iter().collect();
    let mapping: BTreeMap<VarId, VarId> = free
        .iter()
        .enumerate()
        .map(|(i, v)| (*v, VarId(PLACEHOLDER_BASE + i as u32)))
        .collect();
    let abstracted = body.subst_map(&|v| mapping.get(&v).map(|nv| Expr::Var(*nv)));
    (alpha_normalize(&abstracted), free)
}

impl Congruence {
    /// An empty closure.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty closure tallying its traffic on `recorder`.
    pub fn with_recorder(recorder: Recorder) -> Self {
        Self {
            recorder,
            ..Self::default()
        }
    }

    fn root(&self, mut i: u32) -> u32 {
        self.recorder.count(Counter::CongruenceFinds, 1);
        while self.nodes[i as usize].uf != i {
            i = self.nodes[i as usize].uf;
        }
        i
    }

    fn children(&self, n: u32) -> &[u32] {
        let node = &self.nodes[n as usize];
        &self.kids[node.first as usize..(node.first + node.arity) as usize]
    }

    /// The signature key of `op` over `children`: their current roots.
    fn signature(&self, op: Op, children: &[u32]) -> (Op, Kids) {
        let kids = match children {
            [] => Kids::Few([NONE; 2]),
            [a] => Kids::Few([self.root(*a), NONE]),
            [a, b] => Kids::Few([self.root(*a), self.root(*b)]),
            _ => Kids::Many(children.iter().map(|&c| self.root(c)).collect()),
        };
        (op, kids)
    }

    /// Members of the class rooted at `root`, in merge order.
    fn members(&self, root: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(Some(root), move |&m| {
            Some(self.nodes[m as usize].next_member).filter(|&n| n != NONE)
        })
    }

    /// Parents of the class rooted at `root`, in insertion order.
    fn parents(&self, root: u32) -> impl Iterator<Item = u32> + '_ {
        let mut link = self.nodes[root as usize].parent_head;
        std::iter::from_fn(move || {
            if link == NONE {
                return None;
            }
            let (p, next) = self.parent_links[link as usize];
            link = next;
            Some(p)
        })
    }

    fn push_parent(&mut self, class: u32, p: u32) {
        let link = self.parent_links.len() as u32;
        self.parent_links.push((p, NONE));
        match self.nodes[class as usize].parent_tail {
            NONE => self.nodes[class as usize].parent_head = link,
            tail => self.parent_links[tail as usize].1 = link,
        }
        self.nodes[class as usize].parent_tail = link;
    }

    /// Intern an expression, returning its node id.
    pub fn intern(&mut self, e: &Expr) -> usize {
        self.intern_id(e) as usize
    }

    fn intern_id(&mut self, e: &Expr) -> u32 {
        match e {
            Expr::Var(v) => self.intern_node(Op::Var(*v), &[], e),
            Expr::Const(c) => {
                let op = Op::Const(self.syms.constant(c));
                self.intern_node(op, &[], e)
            }
            Expr::Attr(base, a) => {
                let op = Op::Attr(self.syms.name(a));
                let b = self.intern_id(base);
                self.intern_node(op, &[b], e)
            }
            Expr::App(f, args) => {
                let op = Op::App(self.syms.name(f));
                self.intern_with_children(op, args.iter(), e)
            }
            Expr::Agg(name, body) => {
                let (skel, free) = abstract_agg_body(body);
                let name = self.syms.name(name);
                let op = Op::Agg(self.syms.agg(name, skel));
                let children: Vec<u32> = free
                    .iter()
                    .map(|v| self.intern_id(&Expr::Var(*v)))
                    .collect();
                self.intern_node(op, &children, e)
            }
            Expr::Record(fields) => {
                let names = fields.iter().map(|(n, _)| self.syms.name(n)).collect();
                let op = Op::Record(self.syms.record(names));
                self.intern_with_children(op, fields.iter().map(|(_, v)| v), e)
            }
            Expr::Concat(l, s, r) => {
                let (l, r) = (self.intern_id(l), self.intern_id(r));
                self.intern_node(Op::Concat(*s), &[l, r], e)
            }
        }
    }

    /// Intern `children` left to right, then the node `op` over them; no
    /// allocation for arity ≤ 2.
    fn intern_with_children<'e>(
        &mut self,
        op: Op,
        mut children: impl ExactSizeIterator<Item = &'e Expr>,
        e: &Expr,
    ) -> u32 {
        let mut few = [NONE; 2];
        if children.len() <= few.len() {
            let n = children.len();
            for slot in &mut few[..n] {
                *slot = self.intern_id(children.next().expect("counted child"));
            }
            self.intern_node(op, &few[..n], e)
        } else {
            let ids: Vec<u32> = children.map(|c| self.intern_id(c)).collect();
            self.intern_node(op, &ids, e)
        }
    }

    fn intern_node(&mut self, op: Op, children: &[u32], expr: &Expr) -> u32 {
        let key = self.signature(op, children);
        if let Some(&existing) = self.sig.get(&key) {
            return existing;
        }
        let id = self.nodes.len() as u32;
        self.recorder.count(Counter::TermNodes, 1);
        self.nodes.push(Node {
            op,
            first: self.kids.len() as u32,
            arity: children.len() as u32,
            uf: id,
            size: 1,
            next_member: NONE,
            last_member: id,
            parent_head: NONE,
            parent_tail: NONE,
            expr: expr.clone(),
        });
        self.kids.extend_from_slice(children);
        for &c in key.1.as_slice() {
            self.push_parent(c, id);
        }
        self.sig.insert(key, id);
        match op {
            Op::Const(_) => self.const_nodes.push(id),
            Op::Record(_) | Op::Concat(_) => self.tuple_nodes = true,
            _ => {}
        }
        // Theory propagation: the new node may be an Attr over a class that
        // already holds a record (projection alignment fires on the child's
        // class), or may itself join a class with records later.
        if self.tuple_nodes {
            self.propagate_theories(id);
            for &c in children {
                let rc = self.root(c);
                self.propagate_theories(rc);
            }
        }
        self.process_worklist();
        id
    }

    /// Assert `a = b`.
    pub fn assert_eq(&mut self, a: &Expr, b: &Expr) {
        let na = self.intern_id(a);
        let nb = self.intern_id(b);
        self.merge(na, nb);
        self.process_worklist();
    }

    /// Assert every equality predicate in `preds` (other atoms ignored).
    pub fn assert_preds<'a>(&mut self, preds: impl IntoIterator<Item = &'a Pred>) {
        for p in preds {
            if let Pred::Eq(a, b) = p {
                self.assert_eq(a, b);
            }
        }
    }

    /// The constant nodes as `(class root, constant id)`, in creation order.
    fn class_constant_ids(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.const_nodes
            .iter()
            .map(|&n| match self.nodes[n as usize].op {
                Op::Const(c) => (self.root(n), c),
                _ => unreachable!("const_nodes holds constant nodes"),
            })
    }

    /// Has the closure merged two *distinct* constants into one class? A
    /// set of equalities entailing `c₁ = c₂` for different constants is
    /// unsatisfiable, so a term carrying them denotes `0` at every
    /// valuation.
    pub fn inconsistent(&self) -> bool {
        let mut const_of_class: FastMap<u32, u32> = FastMap::default();
        for (r, c) in self.class_constant_ids() {
            if *const_of_class.entry(r).or_insert(c) != c {
                return true;
            }
        }
        false
    }

    /// One-pass map from class root to the constant the class carries (if
    /// any). Built once and probed per predicate — the batch counterpart of
    /// [`Congruence::constant_of`] for hot paths.
    pub fn class_constants(&self) -> HashMap<usize, Value> {
        self.class_constant_ids()
            .map(|(r, c)| (r as usize, self.syms.const_values[c as usize].clone()))
            .collect()
    }

    /// The constant (if any) in the class of `e`.
    pub fn constant_of(&mut self, e: &Expr) -> Option<Value> {
        let r = self.class_of(e);
        self.class_constants().remove(&r)
    }

    /// Is `a ≠ b` *entailed* by the closure — both classes carry constants
    /// and the constants differ? (The dual of [`Congruence::inconsistent`]:
    /// such a disequality predicate is vacuously true and can be dropped.)
    pub fn entails_ne(&mut self, a: &Expr, b: &Expr) -> bool {
        match (self.constant_of(a), self.constant_of(b)) {
            (Some(ca), Some(cb)) => ca != cb,
            _ => false,
        }
    }

    /// Are `a` and `b` in the same class?
    pub fn same(&mut self, a: &Expr, b: &Expr) -> bool {
        let na = self.intern_id(a);
        let nb = self.intern_id(b);
        self.root(na) == self.root(nb)
    }

    /// Class id (root) of an expression.
    pub fn class_of(&mut self, e: &Expr) -> usize {
        let n = self.intern_id(e);
        self.root(n) as usize
    }

    fn merge(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.root(a), self.root(b));
        if ra == rb {
            return;
        }
        self.recorder.count(Counter::CongruenceUnions, 1);
        // Union by member count.
        let (big, small) = if self.nodes[ra as usize].size >= self.nodes[rb as usize].size {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let (bi, si) = (big as usize, small as usize);
        self.nodes[si].uf = big;
        self.nodes[bi].size += self.nodes[si].size;
        let last = self.nodes[bi].last_member as usize;
        self.nodes[last].next_member = small;
        self.nodes[bi].last_member = self.nodes[si].last_member;

        // Re-canonicalize parent signatures of the absorbed class; congruent
        // parents get scheduled for merging.
        let mut link = self.nodes[si].parent_head;
        while link != NONE {
            let (p, next) = self.parent_links[link as usize];
            let key = self.signature(self.nodes[p as usize].op, self.children(p));
            if let Some(&other) = self.sig.get(&key) {
                if self.root(other) != self.root(p) {
                    self.worklist.push((other, p));
                }
            } else {
                self.sig.insert(key, p);
            }
            link = next;
        }
        // The absorbed class's parents join the survivor's, in order.
        if self.nodes[si].parent_head != NONE {
            match self.nodes[bi].parent_tail {
                NONE => self.nodes[bi].parent_head = self.nodes[si].parent_head,
                tail => self.parent_links[tail as usize].1 = self.nodes[si].parent_head,
            }
            self.nodes[bi].parent_tail = self.nodes[si].parent_tail;
        }
        if self.tuple_nodes {
            self.propagate_theories(big);
        }
    }

    fn process_worklist(&mut self) {
        while let Some((a, b)) = self.worklist.pop() {
            self.merge(a, b);
        }
    }

    /// Tuple-theory rules on the class containing `node`:
    /// record-injectivity, concat-injectivity, and record/projection
    /// alignment (`c ≈ ⟨…, a = e, …⟩ ⇒ c.a ≈ e`).
    fn propagate_theories(&mut self, node: u32) {
        let root = self.root(node);
        let mut pending = Vec::new();
        // Record / Concat injectivity among members.
        let mut first_record: Option<u32> = None;
        let mut first_concat: Option<u32> = None;
        for m in self.members(root) {
            let op = self.nodes[m as usize].op;
            let first = match op {
                Op::Record(_) => &mut first_record,
                Op::Concat(_) => &mut first_concat,
                _ => continue,
            };
            match *first {
                Some(m0) if self.nodes[m0 as usize].op == op => {
                    pending.extend(
                        self.children(m0)
                            .iter()
                            .copied()
                            .zip(self.children(m).iter().copied()),
                    );
                }
                Some(_) => {}
                None => *first = Some(m),
            }
        }
        // Projection alignment: for a record member and any Attr parent of
        // this class, merge the projection with the record field.
        if let Some(rec) = first_record {
            let Op::Record(list) = self.nodes[rec as usize].op else {
                unreachable!("first_record is a record node")
            };
            let names = &self.syms.record_fields[list as usize];
            let fields = self.children(rec);
            for p in self.parents(root) {
                if let Op::Attr(a) = self.nodes[p as usize].op {
                    // Only when the projected base is in this class.
                    let base = self.children(p)[0];
                    if self.root(base) == root {
                        if let Some(idx) = names.iter().position(|&n| n == a) {
                            pending.push((p, fields[idx]));
                        }
                    }
                }
            }
        }
        self.worklist.extend(pending);
    }

    /// Member expressions of `e`'s class, in merge order.
    fn class_exprs(&mut self, e: &Expr) -> impl Iterator<Item = &Expr> + '_ {
        let root = self.intern_id(e);
        let root = self.root(root);
        self.members(root).map(|m| &self.nodes[m as usize].expr)
    }

    /// Find a member of `e`'s class whose expression does not mention `v`
    /// (the witness required by Eq. (15) elimination). Prefers the smallest
    /// such expression for compact output.
    pub fn rep_without_var(&mut self, e: &Expr, v: VarId) -> Option<Expr> {
        self.class_exprs(e)
            .filter(|m| !m.contains_var(v))
            .min_by_key(|m| m.size())
            .cloned()
    }

    /// All member expressions of `e`'s class that do not mention `v`
    /// (callers apply their own canonical-witness preference).
    pub fn members_without_var(&mut self, e: &Expr, v: VarId) -> Vec<Expr> {
        self.class_exprs(e)
            .filter(|m| !m.contains_var(v))
            .cloned()
            .collect()
    }

    /// Find a member of `e`'s class whose free variables all satisfy `ok`
    /// (used by the squash-invariance analysis: "is this expression
    /// determined by already-determined variables?").
    pub fn rep_where(&mut self, e: &Expr, ok: &dyn Fn(VarId) -> bool) -> Option<Expr> {
        self.class_exprs(e)
            .filter(|m| m.free_vars().into_iter().all(ok))
            .min_by_key(|m| m.size())
            .cloned()
    }

    /// Does the closure entail `a = b` given the asserted equalities?
    pub fn entails_eq(&mut self, a: &Expr, b: &Expr) -> bool {
        self.same(a, b)
    }

    /// Number of interned nodes (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Has nothing been interned yet?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, VarId};
    use crate::schema::{RelId, SchemaId};

    fn v(i: u32) -> VarId {
        VarId(i)
    }
    fn va(i: u32, a: &str) -> Expr {
        Expr::var_attr(v(i), a)
    }

    #[test]
    fn reflexive_and_symmetric() {
        let mut cc = Congruence::new();
        assert!(cc.same(&va(0, "a"), &va(0, "a")));
        cc.assert_eq(&va(0, "a"), &va(1, "b"));
        assert!(cc.same(&va(1, "b"), &va(0, "a")));
    }

    #[test]
    fn transitivity() {
        let mut cc = Congruence::new();
        cc.assert_eq(&va(0, "a"), &va(1, "a"));
        cc.assert_eq(&va(1, "a"), &va(2, "a"));
        assert!(cc.same(&va(0, "a"), &va(2, "a")));
        assert!(!cc.same(&va(0, "a"), &va(3, "a")));
    }

    #[test]
    fn function_congruence() {
        let mut cc = Congruence::new();
        cc.assert_eq(&va(0, "a"), &va(1, "a"));
        let fa = Expr::app("f", vec![va(0, "a")]);
        let fb = Expr::app("f", vec![va(1, "a")]);
        assert!(cc.same(&fa, &fb));
        let ga = Expr::app("g", vec![va(0, "a")]);
        assert!(!cc.same(&fa, &ga));
    }

    #[test]
    fn congruence_propagates_after_later_merge() {
        let mut cc = Congruence::new();
        let fa = Expr::app("f", vec![va(0, "a")]);
        let fb = Expr::app("f", vec![va(1, "a")]);
        cc.intern(&fa);
        cc.intern(&fb);
        assert!(!cc.same(&fa, &fb));
        cc.assert_eq(&va(0, "a"), &va(1, "a"));
        assert!(cc.same(&fa, &fb));
    }

    /// The paper's Sec 5.2 example: {a=b, c=d, b=e, f(a)=g(d)} is equivalent
    /// to {a=b, a=e, c=d, f(e)=g(c)}.
    #[test]
    fn paper_congruence_example() {
        let a = || va(0, "a");
        let b = || va(1, "b");
        let c = || va(2, "c");
        let d = || va(3, "d");
        let e = || va(4, "e");
        let mut cc = Congruence::new();
        cc.assert_eq(&a(), &b());
        cc.assert_eq(&c(), &d());
        cc.assert_eq(&b(), &e());
        cc.assert_eq(&Expr::app("f", vec![a()]), &Expr::app("g", vec![d()]));
        // From the closure: f(e) ≈ f(a) ≈ g(d) ≈ g(c).
        assert!(cc.same(&Expr::app("f", vec![e()]), &Expr::app("g", vec![c()])));
    }

    #[test]
    fn attribute_projection_congruence() {
        let mut cc = Congruence::new();
        cc.assert_eq(&Expr::Var(v(0)), &Expr::Var(v(1)));
        assert!(cc.same(&va(0, "k"), &va(1, "k")));
    }

    #[test]
    fn record_projection_alignment() {
        let mut cc = Congruence::new();
        let rec = Expr::record(vec![("a".into(), va(2, "x")), ("b".into(), Expr::int(5))]);
        cc.assert_eq(&Expr::Var(v(0)), &rec);
        assert!(cc.same(&va(0, "a"), &va(2, "x")));
        assert!(cc.same(&va(0, "b"), &Expr::int(5)));
    }

    #[test]
    fn record_injectivity() {
        let mut cc = Congruence::new();
        let r1 = Expr::record(vec![("a".into(), va(0, "x")), ("b".into(), va(0, "y"))]);
        let r2 = Expr::record(vec![("a".into(), va(1, "x")), ("b".into(), va(1, "y"))]);
        cc.assert_eq(&r1, &r2);
        assert!(cc.same(&va(0, "x"), &va(1, "x")));
        assert!(cc.same(&va(0, "y"), &va(1, "y")));
    }

    #[test]
    fn concat_injectivity() {
        let mut cc = Congruence::new();
        let c1 = Expr::Concat(
            Box::new(Expr::Var(v(0))),
            SchemaId(0),
            Box::new(Expr::Var(v(1))),
        );
        let c2 = Expr::Concat(
            Box::new(Expr::Var(v(2))),
            SchemaId(0),
            Box::new(Expr::Var(v(3))),
        );
        cc.assert_eq(&c1, &c2);
        assert!(cc.same(&Expr::Var(v(0)), &Expr::Var(v(2))));
        assert!(cc.same(&Expr::Var(v(1)), &Expr::Var(v(3))));
    }

    #[test]
    fn rep_without_var_finds_witness() {
        let mut cc = Congruence::new();
        // t0 = t1.k — eliminating t0 should find witness t1.k.
        cc.assert_eq(&Expr::Var(v(0)), &va(1, "k"));
        let w = cc.rep_without_var(&Expr::Var(v(0)), v(0)).unwrap();
        assert_eq!(w, va(1, "k"));
        // no witness avoiding t1
        assert!(
            cc.rep_without_var(&Expr::Var(v(0)), v(1)).is_none() || {
                let w2 = cc.rep_without_var(&Expr::Var(v(0)), v(1)).unwrap();
                !w2.contains_var(v(1))
            }
        );
    }

    #[test]
    fn aggregate_skeleton_congruence() {
        // agg bodies identical up to alpha-renaming and a congruent free var
        let mk = |outer: u32, inner: u32| {
            let body = UExpr::sum(
                v(inner),
                SchemaId(0),
                UExpr::mul(
                    UExpr::rel(RelId(0), Expr::Var(v(inner))),
                    UExpr::eq(va(inner, "k"), va(outer, "k")),
                ),
            );
            Expr::Agg("sum".into(), Box::new(body))
        };
        let mut cc = Congruence::new();
        // different inner binder ids, same outer var → equal immediately
        assert!(cc.same(&mk(9, 1), &mk(9, 2)));
        // different outer vars → only equal once outer vars merged
        assert!(!cc.same(&mk(7, 1), &mk(8, 2)));
        cc.assert_eq(&Expr::Var(v(7)), &Expr::Var(v(8)));
        assert!(cc.same(&mk(7, 1), &mk(8, 2)));
    }

    #[test]
    fn alpha_normalize_identifies_renamings() {
        let e1 = UExpr::sum(v(3), SchemaId(0), UExpr::rel(RelId(0), Expr::Var(v(3))));
        let e2 = UExpr::sum(v(9), SchemaId(0), UExpr::rel(RelId(0), Expr::Var(v(9))));
        assert_eq!(alpha_normalize(&e1), alpha_normalize(&e2));
        let e3 = UExpr::sum(v(9), SchemaId(1), UExpr::rel(RelId(0), Expr::Var(v(9))));
        assert_ne!(alpha_normalize(&e1), alpha_normalize(&e3));
    }
}
