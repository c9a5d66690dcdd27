//! Brute-force oracles for the decision-procedure building blocks.
//!
//! Each component is checked against an exhaustive reference implementation
//! on small random inputs:
//!
//! * congruence closure vs. a fixpoint closure over a subterm-closed finite
//!   universe, once over variables, projections and unary applications and
//!   once with records, concats, binary applications and constants under
//!   the tuple theories, interleaving queries with assertions;
//! * homomorphism search vs. enumeration of all variable mappings
//!   (completeness) and Boolean-model containment (soundness);
//! * isomorphism search vs. ℕ-model equality (soundness);
//! * term minimization vs. squash-semantics preservation and idempotence.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use udp_core::budget::Budget;
use udp_core::congruence::Congruence;
use udp_core::ctx::Ctx;
use udp_core::expr::{Expr, Pred, VarId};
use udp_core::hom::{match_terms, MatchMode};
use udp_core::interp::{DomainSpec, Interp};
use udp_core::minimize::minimize_term;
use udp_core::proof::random_model;
use udp_core::schema::{Catalog, RelId, Schema, SchemaId, Ty};
use udp_core::semiring::{Bools, USemiring};
use udp_core::spnf::{Atom, Term};
use udp_core::uexpr::UExpr;

fn catalog() -> (Catalog, SchemaId, RelId, RelId) {
    let mut cat = Catalog::new();
    let sid = cat
        .add_schema(Schema::new(
            "s",
            vec![("k".into(), Ty::Int), ("a".into(), Ty::Int)],
            false,
        ))
        .unwrap();
    let r = cat.add_relation("R", sid).unwrap();
    let s = cat.add_relation("S", sid).unwrap();
    (cat, sid, r, s)
}

// ---------------------------------------------------------------- congruence

/// The ground-term universe for the congruence oracle: variables, their
/// attribute projections, constants, and unary applications — subterm-closed
/// by construction.
fn universe() -> Vec<Expr> {
    let mut terms = Vec::new();
    for v in 0..3u32 {
        terms.push(Expr::Var(VarId(v)));
        for a in ["k", "a"] {
            terms.push(Expr::var_attr(VarId(v), a));
            terms.push(Expr::App("f".into(), vec![Expr::var_attr(VarId(v), a)]));
        }
    }
    for c in 0..2i64 {
        terms.push(Expr::int(c));
        terms.push(Expr::App("f".into(), vec![Expr::int(c)]));
    }
    terms
}

/// Reference closure: reflexive-symmetric-transitive closure of the asserted
/// pairs, plus one-step congruence over the universe (`x ≈ y ⇒ f(x) ≈ f(y)`
/// and `x ≈ y ⇒ x.a ≈ y.a`), iterated to fixpoint.
fn bruteforce_closure(uni: &[Expr], asserted: &[(usize, usize)]) -> Vec<Vec<bool>> {
    let n = uni.len();
    let mut eq = vec![vec![false; n]; n];
    for (i, row) in eq.iter_mut().enumerate() {
        row[i] = true;
    }
    for &(i, j) in asserted {
        eq[i][j] = true;
        eq[j][i] = true;
    }
    let idx = |e: &Expr| uni.iter().position(|u| u == e);
    loop {
        let mut changed = false;
        // transitivity
        for i in 0..n {
            for j in 0..n {
                if !eq[i][j] {
                    continue;
                }
                for k in 0..n {
                    if eq[j][k] && !eq[i][k] {
                        eq[i][k] = true;
                        eq[k][i] = true;
                        changed = true;
                    }
                }
            }
        }
        // congruence over f(·) and ·.attr
        for i in 0..n {
            for j in 0..n {
                if !eq[i][j] {
                    continue;
                }
                let lifted = |wrap: &dyn Fn(Expr) -> Expr| {
                    let (a, b) = (wrap(uni[i].clone()), wrap(uni[j].clone()));
                    match (idx(&a), idx(&b)) {
                        (Some(x), Some(y)) => Some((x, y)),
                        _ => None,
                    }
                };
                let candidates = [
                    lifted(&|e| Expr::App("f".into(), vec![e])),
                    lifted(&|e| Expr::Attr(Box::new(e), "k".into())),
                    lifted(&|e| Expr::Attr(Box::new(e), "a".into())),
                ];
                for c in candidates.into_iter().flatten() {
                    if !eq[c.0][c.1] {
                        eq[c.0][c.1] = true;
                        eq[c.1][c.0] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return eq;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The Nelson–Oppen engine agrees with the brute-force closure on every
    /// pair of universe terms.
    #[test]
    fn congruence_matches_bruteforce(pairs in proptest::collection::vec((0usize..22, 0usize..22), 0..6)) {
        let uni = universe();
        let pairs: Vec<(usize, usize)> =
            pairs.into_iter().map(|(i, j)| (i % uni.len(), j % uni.len())).collect();
        let oracle = bruteforce_closure(&uni, &pairs);
        let mut cc = Congruence::new();
        for &(i, j) in &pairs {
            cc.assert_eq(&uni[i], &uni[j]);
        }
        for i in 0..uni.len() {
            for j in 0..uni.len() {
                let got = cc.same(&uni[i], &uni[j]);
                // The engine may know MORE than the finite-universe oracle
                // (e.g. via terms outside the universe), but ground
                // congruence closure needs only subterms, so on this
                // subterm-closed universe they must agree exactly.
                prop_assert_eq!(
                    got, oracle[i][j],
                    "congruence disagrees on {} ≈ {} (asserted {:?})",
                    &uni[i], &uni[j], &pairs
                );
            }
        }
    }
}

// ------------------------------------------------------ congruence, tuples

/// The ground-term universe for the tuple-theory oracle: variables and
/// their projections, two constants, unary and binary applications, records
/// over one field list and concats — subterm-closed by construction.
fn tuple_universe() -> Vec<Expr> {
    let x = |i: u32| Expr::Var(VarId(i));
    let xa = |i: u32, a: &str| Expr::var_attr(VarId(i), a);
    let rec = |k: Expr, a: Expr| Expr::record(vec![("k".into(), k), ("a".into(), a)]);
    let cat = |l: u32, r: u32| Expr::Concat(Box::new(x(l)), SchemaId(0), Box::new(x(r)));
    let mut terms = Vec::new();
    for v in 0..3 {
        terms.extend([x(v), xa(v, "k"), xa(v, "a")]);
    }
    terms.extend([Expr::int(0), Expr::int(1)]);
    for v in 0..3 {
        terms.push(Expr::app("f", vec![xa(v, "k")]));
    }
    terms.push(Expr::app("f", vec![Expr::int(0)]));
    for (i, j) in [(0, 1), (1, 0), (2, 2), (0, 0)] {
        terms.push(Expr::app("g", vec![xa(i, "k"), xa(j, "k")]));
    }
    terms.extend([
        rec(xa(0, "k"), xa(1, "a")),
        rec(xa(2, "k"), Expr::int(1)),
        rec(Expr::int(0), xa(2, "a")),
        rec(xa(1, "k"), xa(0, "a")),
    ]);
    terms.extend([cat(0, 1), cat(2, 0), cat(1, 1)]);
    terms
}

/// An operator head for the reference closure (name, arity and payload) and
/// the universe indices of the children.
fn head_and_children(uni: &[Expr], e: &Expr) -> (String, Vec<usize>) {
    let idx = |c: &Expr| uni.iter().position(|u| u == c).expect("subterm-closed");
    match e {
        Expr::Var(v) => (format!("var {}", v.0), vec![]),
        Expr::Const(c) => (format!("const {c}"), vec![]),
        Expr::Attr(base, a) => (format!("attr {a}"), vec![idx(base)]),
        Expr::App(f, args) => (
            format!("app {f}/{}", args.len()),
            args.iter().map(idx).collect(),
        ),
        Expr::Record(fields) => {
            let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
            (
                format!("record {names:?}"),
                fields.iter().map(|(_, e)| idx(e)).collect(),
            )
        }
        Expr::Concat(l, s, r) => (format!("concat {}", s.0), vec![idx(l), idx(r)]),
        Expr::Agg(..) => unreachable!("no aggregates in the tuple universe"),
    }
}

/// Reference closure of `asserted` over `uni`: an equivalence closed under
/// congruence of every operator, record and concat injectivity, and
/// record/projection alignment (`c ≈ ⟨…, a = e, …⟩ ⇒ c.a ≈ e`), iterated
/// to fixpoint. Returns each term's class representative.
fn reference_classes(uni: &[Expr], asserted: &[(usize, usize)]) -> Vec<usize> {
    fn find(cls: &[usize], mut i: usize) -> usize {
        while cls[i] != i {
            i = cls[i];
        }
        i
    }
    fn union(cls: &mut [usize], i: usize, j: usize) -> bool {
        let (ri, rj) = (find(cls, i), find(cls, j));
        cls[ri] = rj;
        ri != rj
    }
    let shapes: Vec<(String, Vec<usize>)> = uni.iter().map(|e| head_and_children(uni, e)).collect();
    let mut cls: Vec<usize> = (0..uni.len()).collect();
    for &(i, j) in asserted {
        union(&mut cls, i, j);
    }
    loop {
        let mut changed = false;
        for i in 0..uni.len() {
            for j in 0..uni.len() {
                let ((hi, ki), (hj, kj)) = (&shapes[i], &shapes[j]);
                if hi != hj || ki.is_empty() {
                    continue;
                }
                let same = |cls: &[usize], a: usize, b: usize| find(cls, a) == find(cls, b);
                if ki.iter().zip(kj).all(|(&a, &b)| same(&cls, a, b)) {
                    changed |= union(&mut cls, i, j); // congruence
                }
                let tuple = matches!(uni[i], Expr::Record(_) | Expr::Concat(..));
                if tuple && same(&cls, i, j) {
                    for (&a, &b) in ki.iter().zip(kj) {
                        changed |= union(&mut cls, a, b); // injectivity
                    }
                }
            }
            // Alignment: `uni[i] = c.a` against every record in c's class.
            if let Expr::Attr(_, a) = &uni[i] {
                let c = shapes[i].1[0];
                for (r, e) in uni.iter().enumerate() {
                    let Expr::Record(fields) = e else { continue };
                    if find(&cls, r) != find(&cls, c) {
                        continue;
                    }
                    if let Some(f) = fields.iter().position(|(n, _)| n == a) {
                        changed |= union(&mut cls, i, shapes[r].1[f]);
                    }
                }
            }
        }
        if !changed {
            return (0..uni.len()).map(|i| find(&cls, i)).collect();
        }
    }
}

/// Replay `ops` — `(true, i, j)` asserts `uni[i] = uni[j]`, `(false, i, j)`
/// queries it — on a fresh closure, checking every query, and finally every
/// pair, `inconsistent` and the witness queries, against
/// [`reference_classes`]. With `pre_intern` every universe term gets its
/// own node before the first assertion, so merges re-key parents that
/// already exist and class members are exactly the reference classes;
/// without it, terms are interned lazily and may hash-cons onto a
/// congruent node.
fn check_tuple_closure(ops: &[(bool, usize, usize)], pre_intern: bool) {
    let uni = tuple_universe();
    let mut cc = Congruence::new();
    if pre_intern {
        for e in &uni {
            cc.intern(e);
        }
    }
    let mut asserted = Vec::new();
    let inconsistent = |cls: &[usize]| {
        let consts: Vec<usize> = (0..uni.len())
            .filter(|&i| matches!(uni[i], Expr::Const(_)))
            .collect();
        consts
            .iter()
            .any(|&i| consts.iter().any(|&j| i != j && cls[i] == cls[j]))
    };
    for &(assert, i, j) in ops {
        if assert {
            cc.assert_eq(&uni[i], &uni[j]);
            asserted.push((i, j));
        } else {
            let cls = reference_classes(&uni, &asserted);
            assert_eq!(
                cc.same(&uni[i], &uni[j]),
                cls[i] == cls[j],
                "{} ≈ {} after {ops:?} (pre-interned: {pre_intern})",
                uni[i],
                uni[j]
            );
        }
    }
    let cls = reference_classes(&uni, &asserted);
    assert_eq!(cc.inconsistent(), inconsistent(&cls), "{ops:?}");
    for i in 0..uni.len() {
        for j in 0..uni.len() {
            assert_eq!(
                cc.same(&uni[i], &uni[j]),
                cls[i] == cls[j],
                "{} ≈ {} after {ops:?} (pre-interned: {pre_intern})",
                uni[i],
                uni[j]
            );
        }
    }
    assert_eq!(cc.inconsistent(), inconsistent(&cls), "{ops:?}");
    // Witness queries: every answer is a class member avoiding the
    // variable; with one node per term the answers are exact.
    for (i, e) in uni.iter().enumerate() {
        let class: Vec<&Expr> = (0..uni.len())
            .filter(|&j| cls[j] == cls[i])
            .map(|j| &uni[j])
            .collect();
        for v in (0..3).map(VarId) {
            let mut got = cc.members_without_var(e, v);
            for m in &got {
                assert!(
                    class.contains(&m) && !m.contains_var(v),
                    "{m} for {e} without {v:?}"
                );
            }
            let rep = cc.rep_where(e, &|w| w != v);
            assert_eq!(
                rep.as_ref().map(Expr::size),
                got.iter().map(Expr::size).min(),
                "rep_where({e}, ≠ {v:?}) after {ops:?}"
            );
            assert!(rep.iter().all(|r| got.contains(r)));
            if pre_intern {
                let mut want: Vec<Expr> = class
                    .iter()
                    .filter(|m| !m.contains_var(v))
                    .map(|m| (*m).clone())
                    .collect();
                got.sort();
                want.sort();
                assert_eq!(got, want, "members of {e} without {v:?} after {ops:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The engine agrees with the reference closure on records, concats,
    /// binary applications and constants, with queries interleaved with
    /// assertions, whether nodes are interned up front or on demand.
    #[test]
    fn tuple_congruence_matches_reference(
        ops in proptest::collection::vec((0u8..3, 0usize..64, 0usize..64), 1..10),
        pre_intern in any::<bool>(),
    ) {
        let n = tuple_universe().len();
        let ops: Vec<(bool, usize, usize)> =
            ops.into_iter().map(|(k, i, j)| (k == 0, i % n, j % n)).collect();
        check_tuple_closure(&ops, pre_intern);
    }
}

/// Fixed scenarios the random sequences reach only by chance.
#[test]
fn tuple_congruence_fixed_scenarios() {
    let uni = tuple_universe();
    let at = |e: Expr| uni.iter().position(|u| *u == e).unwrap();
    let x = |i: u32| at(Expr::Var(VarId(i)));
    let xa = |i: u32, a: &str| at(Expr::var_attr(VarId(i), a));
    let rec = |k: Expr, a: Expr| at(Expr::record(vec![("k".into(), k), ("a".into(), a)]));
    let r2 = rec(Expr::var_attr(VarId(2), "k"), Expr::int(1));
    let r1 = rec(Expr::var_attr(VarId(0), "k"), Expr::var_attr(VarId(1), "a"));
    let r4 = rec(Expr::var_attr(VarId(1), "k"), Expr::var_attr(VarId(0), "a"));
    let cat = |l: u32, r: u32| {
        at(Expr::Concat(
            Box::new(Expr::Var(VarId(l))),
            SchemaId(0),
            Box::new(Expr::Var(VarId(r))),
        ))
    };
    let (zero, one) = (at(Expr::int(0)), at(Expr::int(1)));
    let scenarios: Vec<Vec<(bool, usize, usize)>> = vec![
        // The first record arrives after merges among tuple-free nodes:
        // projections interned earlier must align with it.
        vec![
            (true, x(0), x(1)),
            (false, xa(1, "a"), one),
            (true, xa(0, "k"), xa(2, "a")),
            (true, x(1), r2),
            (false, xa(0, "k"), xa(2, "k")),
            (false, xa(0, "a"), one),
        ],
        // Record injectivity.
        vec![(true, r1, r4), (false, xa(0, "k"), xa(1, "k"))],
        // Concat injectivity, then congruence of binary applications.
        vec![
            (true, cat(0, 1), cat(2, 0)),
            (false, x(0), x(1)),
            (false, x(2), x(1)),
        ],
        // Distinct constants merged through a record field.
        vec![(true, x(2), r2), (true, xa(2, "a"), zero)],
    ];
    for ops in &scenarios {
        for pre_intern in [false, true] {
            check_tuple_closure(ops, pre_intern);
        }
    }
}

// -------------------------------------------------------------------- terms

/// A small random conjunctive-query term: bound variables `v1..=vn`, atoms
/// with variable arguments, equality predicates over attributes. `VarId(0)`
/// is the free output variable.
fn random_cq_term(bytes: &[u8], sid: SchemaId, rels: [RelId; 2]) -> Term {
    let mut pos = 0usize;
    let mut take = || {
        let b = bytes.get(pos).copied().unwrap_or(0);
        pos += 1;
        b
    };
    let nvars = 1 + (take() % 3) as u32;
    let vars: Vec<VarId> = (1..=nvars).map(VarId).collect();
    let mut t = Term::one();
    t.vars = vars.iter().map(|v| (*v, sid)).collect();
    let pick = |b: u8| -> VarId {
        let all: Vec<VarId> = std::iter::once(VarId(0))
            .chain(vars.iter().copied())
            .collect();
        all[b as usize % all.len()]
    };
    let natoms = 1 + (take() % 3);
    for _ in 0..natoms {
        let rel = rels[(take() % 2) as usize];
        t.atoms.push(Atom::new(rel, Expr::Var(pick(take()))));
    }
    let npreds = take() % 3;
    for _ in 0..npreds {
        let v1 = pick(take());
        let a1 = if take() % 2 == 0 { "k" } else { "a" };
        if take() % 2 == 0 {
            let v2 = pick(take());
            let a2 = if take() % 2 == 0 { "k" } else { "a" };
            t.preds
                .push(Pred::eq(Expr::var_attr(v1, a1), Expr::var_attr(v2, a2)));
        } else {
            t.preds.push(Pred::eq(
                Expr::var_attr(v1, a1),
                Expr::int((take() % 2) as i64),
            ));
        }
    }
    t
}

/// Brute-force homomorphism existence: try every mapping of the pattern's
/// bound variables to the target's bound variables (or the shared output
/// variable) and check syntactic atom membership + predicate membership.
fn bruteforce_hom_exists(pattern: &Term, target: &Term) -> bool {
    let pvars: Vec<VarId> = pattern.vars.iter().map(|(v, _)| *v).collect();
    let tvars: Vec<VarId> = std::iter::once(VarId(0))
        .chain(target.vars.iter().map(|(v, _)| *v))
        .collect();
    let target_preds: BTreeSet<Pred> = target.preds.iter().map(|p| p.clone().oriented()).collect();
    let target_atoms: BTreeSet<(RelId, Expr)> = target
        .atoms
        .iter()
        .map(|a| (a.rel, a.arg.clone()))
        .collect();
    let mut assignment = vec![0usize; pvars.len()];
    loop {
        let lookup: BTreeMap<VarId, VarId> = pvars
            .iter()
            .zip(&assignment)
            .map(|(v, i)| (*v, tvars[*i]))
            .collect();
        let map = |w: VarId| lookup.get(&w).map(|nv| Expr::Var(*nv));
        let atoms_ok = pattern.atoms.iter().all(|a| {
            let arg = a.arg.subst_map(&map);
            target_atoms.contains(&(a.rel, arg))
        });
        let preds_ok = pattern.preds.iter().all(|p| {
            let q = p.subst_map(&map).oriented();
            q.is_trivially_true() || target_preds.contains(&q)
        });
        if atoms_ok && preds_ok {
            return true;
        }
        // next assignment
        let mut i = 0;
        loop {
            if i == assignment.len() {
                return false;
            }
            assignment[i] += 1;
            if assignment[i] < tvars.len() {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

/// Evaluate a term's body (with binders) under a model, for each candidate
/// output tuple.
fn eval_term<S: USemiring + std::hash::Hash>(
    interp: &Interp<S>,
    sid: SchemaId,
    t: &Term,
) -> Vec<S> {
    let domain = interp.domains.get(&sid).cloned().unwrap_or_default();
    domain
        .iter()
        .map(|out| {
            let env = BTreeMap::from([(VarId(0), out.clone())]);
            interp.eval_uexpr(&t.to_uexpr(), &env)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Completeness of the guided search: whenever the brute-force
    /// enumeration finds a variable-to-variable homomorphism, `match_terms`
    /// must find one too (its search space is a superset).
    #[test]
    fn hom_search_finds_every_bruteforce_witness(
        b1 in proptest::collection::vec(any::<u8>(), 8..24),
        b2 in proptest::collection::vec(any::<u8>(), 8..24),
    ) {
        let (cat, sid, r, s) = catalog();
        let cs = udp_core::constraints::ConstraintSet::new();
        let pattern = random_cq_term(&b1, sid, [r, s]);
        let target = random_cq_term(&b2, sid, [r, s]);
        if bruteforce_hom_exists(&pattern, &target) {
            let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::steps(2_000_000));
            ctx.gen.reserve(VarId(64));
            ctx.declare_free(VarId(0), sid);
            let found = match_terms(&mut ctx, &pattern, &target, MatchMode::Hom, &[])
                .unwrap_or(None);
            prop_assert!(
                found.is_some(),
                "brute force finds a hom but match_terms does not:\n  pattern {}\n  target {}",
                pattern, target
            );
        }
    }

    /// Soundness of homomorphisms: a hom pattern → target witnesses the
    /// set-semantics containment target ⊆ pattern. In the Boolean model,
    /// wherever the target is non-zero the pattern must be too.
    #[test]
    fn hom_witnesses_boolean_containment(
        b1 in proptest::collection::vec(any::<u8>(), 8..24),
        b2 in proptest::collection::vec(any::<u8>(), 8..24),
        fill in 0u8..255,
    ) {
        let (cat, sid, r, s) = catalog();
        let cs = udp_core::constraints::ConstraintSet::new();
        let pattern = random_cq_term(&b1, sid, [r, s]);
        let target = random_cq_term(&b2, sid, [r, s]);
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::steps(2_000_000));
        ctx.gen.reserve(VarId(64));
        ctx.declare_free(VarId(0), sid);
        let Ok(Some(_)) = match_terms(&mut ctx, &pattern, &target, MatchMode::Hom, &[]) else {
            return Ok(());
        };
        let spec = DomainSpec { ints: vec![0, 1], strs: vec![] };
        let mut interp: Interp<Bools> = Interp::new(&cat, &spec);
        let domain = interp.domains.get(&sid).cloned().unwrap_or_default();
        let rows = |offset: u8| {
            domain
                .iter()
                .enumerate()
                .filter(|(i, _)| (fill.wrapping_add(offset) >> (i % 8)) & 1 == 1)
                .map(|(_, t)| (t.clone(), Bools(true)))
                .collect::<Vec<_>>()
        };
        interp.set_relation(r, rows(0));
        interp.set_relation(s, rows(3));
        let pv = eval_term(&interp, sid, &pattern);
        let tv = eval_term(&interp, sid, &target);
        for (p, t) in pv.iter().zip(&tv) {
            prop_assert!(
                !(t.0 && !p.0),
                "hom exists but containment fails:\n  pattern {}\n  target {}",
                pattern, target
            );
        }
    }

    /// Soundness of isomorphisms: if `match_terms` reports an isomorphism,
    /// the two terms denote the same ℕ-valued function.
    #[test]
    fn iso_witnesses_nat_equality(
        b1 in proptest::collection::vec(any::<u8>(), 8..24),
        b2 in proptest::collection::vec(any::<u8>(), 8..24),
        seed in 0u64..500,
    ) {
        let (cat, sid, r, s) = catalog();
        let cs = udp_core::constraints::ConstraintSet::new();
        let t1 = random_cq_term(&b1, sid, [r, s]);
        let t2 = random_cq_term(&b2, sid, [r, s]);
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::steps(2_000_000));
        ctx.gen.reserve(VarId(64));
        let Ok(Some(_)) = match_terms(&mut ctx, &t1, &t2, MatchMode::Iso, &[]) else {
            return Ok(());
        };
        let interp = random_model(&cat, &cs, &DomainSpec { ints: vec![0, 1], strs: vec![] }, seed);
        let v1 = eval_term(&interp, sid, &t1);
        let v2 = eval_term(&interp, sid, &t2);
        prop_assert_eq!(v1, v2, "iso reported for ℕ-inequal terms:\n  {}\n  {}", t1, t2);
    }

    /// Minimization (SDP's `minimize`) is idempotent and preserves the
    /// squash semantics `‖t‖` on random models.
    #[test]
    fn minimize_is_idempotent_and_squash_preserving(
        bytes in proptest::collection::vec(any::<u8>(), 8..24),
        seed in 0u64..500,
    ) {
        let (cat, sid, r, s) = catalog();
        let cs = udp_core::constraints::ConstraintSet::new();
        let t = random_cq_term(&bytes, sid, [r, s]);
        let mut ctx = Ctx::new(&cat, &cs).with_budget(Budget::steps(2_000_000));
        ctx.gen.reserve(VarId(64));
        let Ok(m1) = minimize_term(&mut ctx, t.clone(), &[]) else { return Ok(()) };
        let Ok(m2) = minimize_term(&mut ctx, m1.clone(), &[]) else { return Ok(()) };
        prop_assert_eq!(&m1, &m2, "minimize not idempotent on {}", t);
        let interp = random_model(&cat, &cs, &DomainSpec { ints: vec![0, 1], strs: vec![] }, seed);
        let squash = |term: &Term| {
            let domain = interp.domains.get(&sid).cloned().unwrap_or_default();
            domain
                .iter()
                .map(|out| {
                    let env = BTreeMap::from([(VarId(0), out.clone())]);
                    interp.eval_uexpr(&UExpr::squash(term.to_uexpr()), &env)
                })
                .collect::<Vec<udp_core::semiring::Nat>>()
        };
        prop_assert_eq!(
            squash(&t), squash(&m1),
            "minimize changed ‖t‖ for {}", t
        );
    }
}
