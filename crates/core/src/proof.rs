//! Independent revalidation of proof traces.
//!
//! The paper's implementation runs inside Lean, so every successful proof is
//! certified by a small trusted kernel. Our substitute (DESIGN.md §4): each
//! rewrite phase records a [`Step`], and this module *re-checks* each step
//! against the U-semiring semantics by interpreting both sides over
//! randomized finite models (ℕ interpretations restricted to
//! constraint-satisfying ones for the constraint rules). A violated step
//! pinpoints the exact unsound rewrite; agreement over many models is strong
//! (though not deductive) evidence of soundness — and the property-test
//! suite runs the same check over randomly generated expressions.

use crate::constraints::{Constraint, ConstraintSet};
use crate::expr::VarId;
use crate::interp::{DomainSpec, Interp, Val};
use crate::schema::Catalog;
use crate::semiring::Nat;
use crate::spnf::Term;
use crate::trace::{Rule, Step, StepData, Trace};
use crate::uexpr::UExpr;
use std::collections::BTreeMap;

/// Result of replaying a trace.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Steps replayed.
    pub steps_checked: usize,
    /// Random models evaluated per step.
    pub models_per_step: usize,
    /// Human-readable descriptions of violated steps (empty = all passed).
    pub failures: Vec<String>,
}

impl CheckReport {
    /// Did every step revalidate?
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Deterministic splitmix-style PRNG (keeps `rand` out of the library).
#[derive(Debug, Clone)]
pub(crate) struct Prng(pub(crate) u64);

impl Prng {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Build a random ℕ interpretation satisfying `cs` (keys: per-tuple
/// multiplicity ≤ 1 and unique key values; foreign keys: children reference
/// live parents).
pub fn random_model(
    catalog: &Catalog,
    cs: &ConstraintSet,
    spec: &DomainSpec,
    seed: u64,
) -> Interp<Nat> {
    let mut rng = Prng(seed);
    let mut interp: Interp<Nat> = Interp::new(catalog, spec);
    interp.salt = seed;
    // Assign multiplicities per relation.
    for (rel, relation) in catalog.relations() {
        let domain = interp
            .domains
            .get(&relation.schema)
            .cloned()
            .unwrap_or_default();
        let keyed = cs.has_key(rel);
        let mut rows: Vec<(Val, Nat)> = Vec::new();
        for t in domain {
            let m = match rng.next() % 4 {
                0 => 0,
                1 => 1,
                2 => u64::from(!keyed) * 2,
                _ => 0,
            };
            if m > 0 {
                rows.push((t, Nat(m)));
            }
        }
        // Enforce key uniqueness by dropping later duplicates.
        for c in cs.iter() {
            if let Constraint::Key { rel: r, attrs } = c {
                if *r != rel {
                    continue;
                }
                let mut seen: Vec<Vec<Option<Val>>> = Vec::new();
                rows.retain(|(t, _)| {
                    let key: Vec<Option<Val>> = attrs.iter().map(|a| t.field(a).cloned()).collect();
                    if seen.contains(&key) {
                        false
                    } else {
                        seen.push(key);
                        true
                    }
                });
            }
        }
        interp.set_relation(rel, rows);
    }
    // Enforce foreign keys by deleting dangling children (a few passes for
    // chains).
    for _ in 0..3 {
        let mut deletions: Vec<(crate::schema::RelId, Val)> = Vec::new();
        for (rel, _) in catalog.relations() {
            for (child_attrs, parent, parent_attrs) in cs.fks_from(rel) {
                let parents = interp.relations.get(&parent).cloned().unwrap_or_default();
                if let Some(children) = interp.relations.get(&rel) {
                    for (t, m) in children {
                        if *m == Nat(0) {
                            continue;
                        }
                        let has_parent = parents.iter().any(|(p, pm)| {
                            *pm != Nat(0)
                                && child_attrs
                                    .iter()
                                    .zip(parent_attrs.iter())
                                    .all(|(ca, pa)| t.field(ca) == p.field(pa))
                        });
                        if !has_parent {
                            deletions.push((rel, t.clone()));
                        }
                    }
                }
            }
        }
        if deletions.is_empty() {
            break;
        }
        for (rel, t) in deletions {
            if let Some(rows) = interp.relations.get_mut(&rel) {
                rows.remove(&t);
            }
        }
    }
    let _ = rng.below(1);
    interp
}

/// Random environment for the free variables of an expression: each free
/// variable receives a tuple drawn from a schema domain (the same assignment
/// is used on both sides of an identity).
fn random_env(free: &[VarId], interp: &Interp<Nat>, rng: &mut Prng) -> BTreeMap<VarId, Val> {
    let mut domains: Vec<&Vec<Val>> = interp.domains.values().collect();
    domains.sort_by_key(|d| d.len());
    let mut env = BTreeMap::new();
    for v in free {
        if let Some(d) = domains.last() {
            if !d.is_empty() {
                let pick = rng.below(d.len());
                env.insert(*v, d[pick].clone());
                continue;
            }
        }
        env.insert(*v, Val::Int(0));
    }
    env
}

fn term_sum(terms: &[Term]) -> UExpr {
    UExpr::sum_of(terms.iter().map(Term::to_uexpr))
}

/// Replay one step over `trials` random constraint-satisfying models.
fn check_step(
    catalog: &Catalog,
    cs: &ConstraintSet,
    step: &Step,
    trials: usize,
    spec: &DomainSpec,
) -> Result<(), String> {
    // A term rewrite recorded under an ambient predicate context is the
    // conditional identity `[b̄] × before = [b̄] × after`: multiply both
    // sides by the context before comparing.
    let under = |ambient: &[crate::expr::Pred], e: UExpr| {
        let mut factors: Vec<UExpr> = ambient.iter().cloned().map(UExpr::Pred).collect();
        factors.push(e);
        UExpr::product(factors)
    };
    let (lhs, rhs): (UExpr, UExpr) = match (&step.rule, &step.data) {
        (Rule::Normalize, StepData::Normalize { before, after }) => {
            (before.clone(), after.to_uexpr())
        }
        // Theorem 4.3 marker: the term equals its own squash.
        (
            Rule::SquashIntro,
            StepData::TermRewrite {
                before, ambient, ..
            },
        ) => (
            under(ambient, before.to_uexpr()),
            under(ambient, UExpr::squash(before.to_uexpr())),
        ),
        (
            _,
            StepData::TermRewrite {
                before,
                after,
                ambient,
            },
        ) => (
            under(ambient, before.to_uexpr()),
            under(ambient, term_sum(after)),
        ),
        // Search witnesses carry no checkable identity.
        (_, StepData::Witness(_)) => return Ok(()),
        (rule, data) => {
            return Err(format!("malformed step: {rule:?} with {data:?}"));
        }
    };
    let mut free: Vec<VarId> = lhs.free_vars().union(&rhs.free_vars()).copied().collect();
    free.dedup();
    for seed in 0..trials as u64 {
        let interp = random_model(catalog, cs, spec, seed.wrapping_mul(0x9E3779B9) + 1);
        let mut rng = Prng(seed + 17);
        let env = random_env(&free, &interp, &mut rng);
        let l = interp.eval_uexpr(&lhs, &env);
        let r = interp.eval_uexpr(&rhs, &env);
        if l != r {
            return Err(format!(
                "step `{}` violated on model {seed}: {l:?} ≠ {r:?}\n  lhs: {lhs}\n  rhs: {rhs}",
                step.rule
            ));
        }
    }
    Ok(())
}

/// Replay every step of a trace over randomized constraint-satisfying
/// models. Uses small domains; complexity is exponential in schema width, so
/// keep test schemas to ≤ 3 attributes.
pub fn check_trace(
    catalog: &Catalog,
    cs: &ConstraintSet,
    trace: &Trace,
    trials: usize,
) -> CheckReport {
    let spec = DomainSpec {
        ints: vec![0, 1],
        strs: vec!["s0".into()],
    };
    let mut report = CheckReport {
        models_per_step: trials,
        ..Default::default()
    };
    for step in trace.steps() {
        report.steps_checked += 1;
        if let Err(msg) = check_step(catalog, cs, step, trials, &spec) {
            report.failures.push(msg);
        }
    }
    report
}

/// Check a whole claimed equivalence semantically (both queries evaluated on
/// random constraint-satisfying models). Used by tests to cross-validate
/// `Proved` verdicts end-to-end.
pub fn check_equivalence(
    catalog: &Catalog,
    cs: &ConstraintSet,
    out: VarId,
    schema: crate::schema::SchemaId,
    body1: &UExpr,
    body2: &UExpr,
    trials: usize,
    spec: &DomainSpec,
) -> Result<(), String> {
    for seed in 0..trials as u64 {
        let interp = random_model(catalog, cs, spec, seed + 1);
        let out_domain = interp.domains.get(&schema).cloned().unwrap_or_default();
        for t in out_domain {
            let env = BTreeMap::from([(out, t.clone())]);
            let v1 = interp.eval_uexpr(body1, &env);
            let v2 = interp.eval_uexpr(body2, &env);
            if v1 != v2 {
                return Err(format!(
                    "queries disagree on model {seed} at tuple {t:?}: {v1:?} ≠ {v2:?}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::{decide_with, DecideConfig};
    use crate::expr::{Expr, Pred};
    use crate::prelude::*;
    use crate::trace::StepData;

    fn setup() -> (Catalog, ConstraintSet) {
        let mut cat = Catalog::new();
        let s = cat
            .add_schema(Schema::new(
                "s",
                vec![("k".into(), Ty::Int), ("a".into(), Ty::Int)],
                false,
            ))
            .unwrap();
        cat.add_relation("R", s).unwrap();
        (cat, ConstraintSet::new())
    }

    #[test]
    fn random_models_satisfy_keys() {
        let (cat, mut cs) = setup();
        let r = cat.relation_id("R").unwrap();
        cs.add_key(r, vec!["k".into()]);
        let spec = DomainSpec {
            ints: vec![0, 1],
            strs: vec![],
        };
        for seed in 0..30 {
            let m = random_model(&cat, &cs, &spec, seed);
            assert!(m.satisfies_key(r, &["k".to_string()]), "seed {seed}");
        }
    }

    #[test]
    fn fig1_trace_replays_cleanly() {
        let (cat, mut cs) = setup();
        let r = cat.relation_id("R").unwrap();
        let sid = cat.schema_id("s").unwrap();
        cs.add_key(r, vec!["k".into()]);
        let t = VarId(0);
        let q1 = QueryU::new(
            t,
            sid,
            UExpr::mul(
                UExpr::rel(r, Expr::Var(t)),
                UExpr::Pred(Pred::lift("gte12", vec![Expr::var_attr(t, "a")])),
            ),
        );
        let (x, y) = (VarId(1), VarId(2));
        let q2 = QueryU::new(
            t,
            sid,
            UExpr::sum_over(
                vec![(x, sid), (y, sid)],
                UExpr::product(vec![
                    UExpr::eq(Expr::Var(x), Expr::Var(t)),
                    UExpr::eq(Expr::var_attr(y, "k"), Expr::var_attr(x, "k")),
                    UExpr::Pred(Pred::lift("gte12", vec![Expr::var_attr(y, "a")])),
                    UExpr::rel(r, Expr::Var(x)),
                    UExpr::rel(r, Expr::Var(y)),
                ]),
            ),
        );
        let verdict = decide_with(
            &cat,
            &cs,
            &q1,
            &q2,
            DecideConfig {
                record_trace: true,
                ..Default::default()
            },
        );
        assert!(verdict.decision.is_proved());
        assert!(
            verdict.trace.len() >= 3,
            "trace: {}",
            verdict.trace.render()
        );
        let report = check_trace(&cat, &cs, &verdict.trace, 10);
        assert!(report.ok(), "failures: {:?}", report.failures);
        assert!(report.steps_checked >= 3);
    }

    /// A deliberately bogus step must be caught.
    #[test]
    fn bogus_step_is_rejected() {
        let (cat, cs) = setup();
        let r = cat.relation_id("R").unwrap();
        let sid = cat.schema_id("s").unwrap();
        let mut trace = Trace::enabled();
        // Claim R(t) normalizes to R(t) + R(t): wrong.
        let before = UExpr::rel(r, Expr::Var(VarId(0)));
        let bogus = crate::spnf::normalize(&UExpr::add(before.clone(), before.clone()));
        trace.record(Rule::Normalize, || StepData::Normalize {
            before: UExpr::rel(r, Expr::Var(VarId(0))),
            after: bogus.clone(),
        });
        let _ = sid;
        let report = check_trace(&cat, &cs, &trace, 10);
        assert!(!report.ok(), "the bogus step must be detected");
    }

    #[test]
    fn check_equivalence_accepts_true_and_rejects_false() {
        let (cat, cs) = setup();
        let r = cat.relation_id("R").unwrap();
        let sid = cat.schema_id("s").unwrap();
        let spec = DomainSpec {
            ints: vec![0, 1],
            strs: vec![],
        };
        let t = VarId(0);
        let b1 = UExpr::rel(r, Expr::Var(t));
        let b2 = UExpr::rel(r, Expr::Var(t));
        check_equivalence(&cat, &cs, t, sid, &b1, &b2, 5, &spec).unwrap();
        let b3 = UExpr::add(b1.clone(), b1.clone());
        assert!(check_equivalence(&cat, &cs, t, sid, &b1, &b3, 10, &spec).is_err());
    }
}
