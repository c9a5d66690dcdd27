//! Scaling characterization of the isomorphism search — the mechanism behind
//! the paper's one timed-out Calcite pair (Sec 6.2: "two very long queries",
//! no result after 30 minutes).
//!
//! Over a *generic* schema the variable-bijection search of TDP has no
//! schema structure to prune with. Forward checking (each pattern predicate
//! is tested as soon as its variables are bound) still prunes wherever the
//! predicates tell variables apart:
//!
//! * `cycle-match/N` — an N-cycle self join against a rotated alias clone:
//!   provable, and the atom-guided search finds the rotation quickly.
//! * `cycle-mismatch/N` — an N-cycle against two N/2-cycles: *not*
//!   equivalent. Each cycle equality links one variable to the next, so a
//!   wrong pairing fails its first check and runtime stays flat in N (the
//!   c39 rule of the corpus has this property too).
//! * `budgeted-timeout-12` — the shape that still explodes: the same
//!   same-column cycle on both sides, where every variable lands in one
//!   class, plus one `<>` on the target side only. Every pairing passes
//!   the forward checks and fails only the leaf's backward check, so the
//!   search walks all of them until the step cap trips.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use udp_core::budget::Budget;
use udp_core::constraints::ConstraintSet;
use udp_core::ctx::Ctx;
use udp_core::equiv::udp_equiv;
use udp_core::expr::{Expr, Pred, VarGen, VarId};
use udp_core::schema::{Catalog, RelId, Schema, SchemaId, Ty};
use udp_core::spnf::normalize_with;
use udp_core::uexpr::UExpr;

fn setup() -> (Catalog, ConstraintSet, SchemaId, RelId) {
    let mut catalog = Catalog::new();
    let s = catalog
        .add_schema(Schema::new(
            "s",
            vec![("k".into(), Ty::Int), ("a".into(), Ty::Int)],
            false,
        ))
        .unwrap();
    let r = catalog.add_relation("R", s).unwrap();
    (catalog, ConstraintSet::new(), s, r)
}

/// One cycle of length `n` starting at variable id `base`:
/// Σ ∏ᵢ R(xᵢ) × [xᵢ.a = x_{i+1 mod n}.k], anchored to the output on x₀.
fn cycle(n: u32, base: u32, sid: SchemaId, r: RelId) -> UExpr {
    let var = |i: u32| VarId(base + (i % n));
    let mut factors = vec![UExpr::eq(
        Expr::var_attr(VarId(0), "a"),
        Expr::var_attr(var(0), "a"),
    )];
    let mut vars = Vec::new();
    for i in 0..n {
        vars.push((var(i), sid));
        factors.push(UExpr::rel(r, Expr::Var(var(i))));
        factors.push(UExpr::eq(
            Expr::var_attr(var(i), "a"),
            Expr::var_attr(var(i + 1), "k"),
        ));
    }
    UExpr::sum_over(vars, UExpr::product(factors))
}

/// Two disjoint cycles of length `n/2` each (same atom count and schema
/// multiset as one `n`-cycle — every cheap pruning test passes).
fn two_half_cycles(n: u32, base: u32, sid: SchemaId, r: RelId) -> UExpr {
    let half = n / 2;
    UExpr::mul(
        cycle(half, base, sid, r),
        cycle(n - half, base + half, sid, r),
    )
}

fn bench_cycle_match(c: &mut Criterion) {
    let (catalog, cs, sid, r) = setup();
    for n in [4u32, 6, 8, 10] {
        let e1 = cycle(n, 1, sid, r);
        let e2 = cycle(n, 101, sid, r); // alias-renamed rotation
        c.bench_function(&format!("scaling/cycle-match-{n}"), |b| {
            b.iter(|| {
                let mut ctx =
                    Ctx::new(&catalog, &cs).with_budget(Budget::new(Some(200_000_000), None));
                let mut gen = VarGen::above(1000);
                let n1 = normalize_with(&e1, &mut gen);
                let n2 = normalize_with(&e2, &mut gen);
                ctx.gen = gen;
                assert!(udp_equiv(&mut ctx, &n1, &n2, &[]).unwrap());
            })
        });
    }
}

fn bench_cycle_mismatch(c: &mut Criterion) {
    let (catalog, cs, sid, r) = setup();
    for n in [4u32, 6, 8] {
        let e1 = cycle(n, 1, sid, r);
        let e2 = two_half_cycles(n, 101, sid, r);
        c.bench_function(&format!("scaling/cycle-mismatch-{n}"), |b| {
            b.iter(|| {
                let mut ctx =
                    Ctx::new(&catalog, &cs).with_budget(Budget::new(Some(200_000_000), None));
                let mut gen = VarGen::above(1000);
                let n1 = normalize_with(&e1, &mut gen);
                let n2 = normalize_with(&e2, &mut gen);
                ctx.gen = gen;
                // Cₙ ≠ C_{n/2} × C_{n/2}.
                assert!(!udp_equiv(&mut ctx, &n1, &n2, &[]).unwrap());
            })
        });
    }
}

/// A same-column `n`-cycle Σ ∏ᵢ R(xᵢ) × [xᵢ.k = x_{i+1 mod n}.k], anchored to
/// the output on x₀, optionally with one extra `[x₀.a <> x₁.a]`.
fn k_cycle(n: u32, base: u32, extra_ne: bool, sid: SchemaId, r: RelId) -> UExpr {
    let var = |i: u32| VarId(base + (i % n));
    let mut factors = vec![UExpr::eq(
        Expr::var_attr(VarId(0), "a"),
        Expr::var_attr(var(0), "a"),
    )];
    for i in 0..n {
        factors.push(UExpr::rel(r, Expr::Var(var(i))));
        factors.push(UExpr::eq(
            Expr::var_attr(var(i), "k"),
            Expr::var_attr(var(i + 1), "k"),
        ));
    }
    if extra_ne {
        factors.push(UExpr::Pred(Pred::ne(
            Expr::var_attr(var(0), "a"),
            Expr::var_attr(var(1), "a"),
        )));
    }
    UExpr::sum_over((0..n).map(|i| (var(i), sid)), UExpr::product(factors))
}

/// The budget mechanism that turns the factorial exhaustion into the paper's
/// clean 30-minute timeout: measure time-to-exhaustion at a fixed step cap.
fn bench_budgeted_timeout(c: &mut Criterion) {
    let (catalog, cs, sid, r) = setup();
    let e1 = k_cycle(12, 1, true, sid, r);
    let e2 = k_cycle(12, 101, false, sid, r);
    c.bench_function("scaling/budgeted-timeout-12", |b| {
        b.iter(|| {
            let mut ctx = Ctx::new(&catalog, &cs).with_budget(Budget::steps(300_000));
            let mut gen = VarGen::above(1000);
            let n1 = normalize_with(&e1, &mut gen);
            let n2 = normalize_with(&e2, &mut gen);
            ctx.gen = gen;
            // Exhausts the budget rather than returning a verdict.
            assert!(black_box(udp_equiv(&mut ctx, &n1, &n2, &[])).is_err());
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cycle_match, bench_cycle_mismatch, bench_budgeted_timeout
}
criterion_main!(benches);
