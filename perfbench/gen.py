"""Seeded inputs for the benchmark: serve goal streams and the rule corpus.

Every goal carries its known verdict class (`proved`, `not-proved`,
`timeout`, `unsupported`), so `run.py` can check each answer the binaries
give. The same seed always yields the same inputs.
"""

import random
import re
from pathlib import Path

SCHEMA = """schema rs(k:int, a:int, b:int);
schema ss(k2:int, c:int);
schema ts(id:int, e:int);
table r(rs);
table r2(rs);
table s(ss);
table t(ts);
key r(k);
"""

# Answered first by every udp-serve process: the time until its response is
# the set-up time.
WARMUP = ("proved", "SELECT w.a AS a FROM r w == SELECT w.a AS a FROM r w")

# A join chain over the four tables; width w uses the first w items and the
# first w-1 join predicates.
CHAIN = [("r", "x0"), ("s", "x1"), ("t", "x2"), ("r2", "x3")]
JOIN = ["{x0}.k = {x1}.k2", "{x1}.c = {x2}.id", "{x2}.e = {x3}.b"]
# Extra tables joined to the outer query of the EXISTS template.
OUTER = [("t", "x2"), ("r2", "x3"), ("r", "x5")]
OUTER_JOIN = ["{x0}.b = {x2}.id", "{x2}.e = {x3}.a", "{x3}.k = {x5}.b"]

ALIASES = ["x", "y", "z", "u", "w", "p", "q", "m", "n", "g", "h", "f",
           "o1", "o2", "o3", "o4", "o5", "o6", "o7", "o8"]
SIMPLE = re.compile(r"^\{\w+\}\.\w+ = (\{\w+\}\.\w+|-?\d+)$")


class Block:
    """One SELECT block. Texts hold `{alias}` placeholders, filled in at
    rendering time so variants can rename aliases."""

    def __init__(self, select, from_, where=(), group=(), distinct=False):
        self.select, self.from_ = list(select), list(from_)
        self.where, self.group, self.distinct = list(where), list(group), distinct

    def keys(self):
        found = set()
        for text in self.select + self.where + self.group + [s for s, _ in self.from_]:
            found.update(re.findall(r"\{(\w+)\}", text))
        return found | {a for _, a in self.from_}


def pushdown(c, w, holds=True):
    """Predicate pushdown into a derived table under a join chain."""
    inner = c if holds else c + 1
    lhs = Block(["{x0}.a AS a"], CHAIN[:w], JOIN[:w - 1] + [f"{{x0}}.a = {c}"])
    rhs = Block(["{x0}.a AS a"],
                [(f"(SELECT * FROM r {{v}} WHERE {{v}}.a = {inner})", "x0")] + CHAIN[1:w],
                JOIN[:w - 1])
    return [lhs], [rhs], "proved" if holds else "not-proved"


def exists_join(c, w):
    """EXISTS subquery to join, under DISTINCT."""
    outer = [("r", "x0")] + OUTER[:w - 1]
    conds = OUTER_JOIN[:w - 1]
    lhs = Block(["{x0}.a AS a"], outer,
                conds + ["EXISTS (SELECT * FROM s {y} WHERE {y}.k2 = {x0}.k)", f"{{x0}}.a = {c}"],
                distinct=True)
    rhs = Block(["{x0}.a AS a"], outer + [("s", "y")],
                conds + ["{y}.k2 = {x0}.k", f"{{x0}}.a = {c}"], distinct=True)
    return [lhs], [rhs], "proved"


def group_rename(c, w):
    """GROUP BY query against its alias-renamed self."""
    def side():
        return Block(["{x0}.k AS k", "SUM({x0}.a) AS t"], CHAIN[:w],
                     JOIN[:w - 1] + [f"{{x0}}.b = {c}"], group=["{x0}.k"])
    return [side()], [side()], "proved"


def union_commute(c, w):
    """UNION ALL commutation."""
    first = Block(["{x0}.a AS v"], CHAIN[:w], JOIN[:w - 1] + [f"{{x0}}.a = {c}"])
    second = Block(["{z}.a AS v"], [("r2", "z")], [f"{{z}}.b = {c + 7}"])
    return [first, second], [second, first], "proved"


def key_self_join(c, w):
    """Self-join on the key of r is redundant."""
    lhs = Block(["{x0}.a AS a"], [CHAIN[0], ("r", "y")] + CHAIN[1:w],
                ["{x0}.k = {y}.k"] + JOIN[:w - 1] + [f"{{x0}}.b = {c}"])
    rhs = Block(["{x0}.a AS a"], CHAIN[:w], JOIN[:w - 1] + [f"{{x0}}.b = {c}"])
    return [lhs], [rhs], "proved"


def pushdown_changed(c, w):
    """Non-theorem: the pushed-down predicate has another constant."""
    return pushdown(c, w, holds=False)


def distinct_dropped(c, w):
    """Non-theorem: DISTINCT on one side only."""
    lhs = Block(["{x0}.a AS a"], CHAIN[:w], JOIN[:w - 1] + [f"{{x0}}.b = {c}"], distinct=True)
    rhs = Block(["{x0}.a AS a"], CHAIN[:w], JOIN[:w - 1] + [f"{{x0}}.b = {c}"])
    return [lhs], [rhs], "not-proved"


TEMPLATES = [pushdown, exists_join, group_rename, union_commute, key_self_join,
             pushdown_changed, distinct_dropped]


def render(query, rng, reorder=False, shuffle=False, flip=False, dup=False):
    """Render a query with fresh random alias names. The flags apply the
    variant rewrites: FROM reordering, conjunct shuffling, flipped
    equalities and duplicated conjuncts."""
    keys = sorted(set().union(*(b.keys() for b in query)))
    names = dict(zip(keys, rng.sample(ALIASES, len(keys))))
    parts = []
    for b in query:
        from_ = list(b.from_)
        where = list(b.where)
        if reorder:
            rng.shuffle(from_)
        if flip:
            where = [" = ".join(reversed(p.split(" = "))) if SIMPLE.match(p) and rng.random() < 0.5
                     else p for p in where]
        if dup:
            where += [p for p in where if SIMPLE.match(p) for _ in range(rng.randrange(4))]
        if shuffle:
            rng.shuffle(where)
        sql = "SELECT " + ("DISTINCT " if b.distinct else "")
        sql += ", ".join(s.format(**names) for s in b.select)
        sql += " FROM " + ", ".join(f"{src.format(**names)} {names[a]}" for src, a in from_)
        if where:
            sql += " WHERE " + " AND ".join(p.format(**names) for p in where)
        if b.group:
            sql += " GROUP BY " + ", ".join(g.format(**names) for g in b.group)
        parts.append(sql)
    return " UNION ALL ".join(parts)


def distinct_goals(rng, n, used):
    """`n` goals whose cache keys never repeat: every goal takes a constant
    not used before (`used` is shared across calls within one run)."""
    goals = []
    for _ in range(n):
        c = rng.randrange(1_000_000_000)
        while c in used:
            c = rng.randrange(1_000_000_000)
        used.add(c)
        lhs, rhs, cls = rng.choice(TEMPLATES)(c, rng.randint(1, 4))
        goals.append((cls, f"{render(lhs, rng)} == {render(rhs, rng)}"))
    return goals


def variant_pool(rng):
    """Base goals of the variants workload: every template at every join
    width twice, so the seed changes constants and names but not the mix."""
    shapes = [(t, w) for t in TEMPLATES for w in range(1, 5)] * 2
    return [t(c, w) for (t, w), c in zip(shapes, rng.sample(range(1000), len(shapes)))]


def variant_requests(rng, pool, n):
    """Requests drawn from `pool`. Each is a key-equal variant of its base
    (aliases, FROM order, conjunct order, equality orientation); half also
    duplicate conjuncts, which makes them equal to the base only after
    canonize. Returns (class, goal line, pool index)."""
    out = []
    for _ in range(n):
        i = rng.randrange(len(pool))
        lhs, rhs, cls = pool[i]
        dup = rng.random() < 0.5
        opts = dict(reorder=rng.random() < 0.5, shuffle=rng.random() < 0.5, flip=rng.random() < 0.5)
        left = render(lhs, rng, dup=dup and rng.random() < 0.5, **opts)
        right = render(rhs, rng, dup=dup, **opts)
        out.append((cls, f"{left} == {right}", i))
    return out


PATHOLOGICAL_WIDTH = 7


def pathological_goal(rng, w=PATHOLOGICAL_WIDTH):
    """The c39 timeout rule in miniature: a `w`-way cyclic self-join of r2
    equated on one column against the same cycle on another column. Not
    equivalent, and with nothing to prune by, the matching search has to
    exhaust every pairing; at the default width it reaches `NotProved` in
    a fraction of a second. The seed draws the aliases, the column pair and
    the FROM and conjunct orders."""
    cols = rng.sample(["k", "b"], 2)

    def side(col):
        al = rng.sample(ALIASES, w)
        conds = [f"{al[i]}.{col} = {al[(i + 1) % w]}.{col}" for i in range(w)]
        rng.shuffle(conds)
        from_ = [f"r2 {a}" for a in al]
        rng.shuffle(from_)
        return f"SELECT {al[0]}.a AS v FROM {', '.join(from_)} WHERE {' AND '.join(conds)}"

    return "not-proved", f"{side(cols[0])} == {side(cols[1])}"


def stream_text(chunks, labelled):
    """The udp-serve input (or, labelled, the harness input) for a list of
    chunks: one goal per line, a blank line after each chunk."""
    lines = []
    for chunk in chunks:
        lines += [f"{cls}\t{g}" if labelled else g for cls, g in chunk]
        lines.append("")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- corpus

def load_rules(root):
    """Every rule file under crates/corpus/rules, with its header fields and
    its program split into DDL and a one-line goal."""
    rules = []
    for path in sorted(Path(root, "crates/corpus/rules").glob("*/*.sql")):
        text = path.read_text()
        head = dict(re.findall(r"^-- (\w[\w-]*): (.*)$", text, re.M))
        lines = text.splitlines()
        at = next(i for i, l in enumerate(lines) if l.strip().lower().startswith("verify"))
        goal = " ".join(l.strip() for l in lines[at:] if not l.strip().startswith("--"))
        goal = re.sub(r"^verify\s+", "", goal, flags=re.I).rstrip().rstrip(";")
        rules.append({
            "path": str(path.relative_to(root)),
            "family": path.parent.name,
            "name": head["name"],
            "expect": head["expect"],
            "dialect": head.get("dialect", "paper"),
            "ddl": "\n".join(lines[:at]) + "\n",
            "goal": goal,
        })
    return rules


def dialect_flags(dialect):
    return {"extended": ["--extended"], "full": ["--full"]}.get(dialect, [])


def first_table(ddl):
    m = re.search(r"^\s*table\s+(\w+)\s*\(", ddl, re.M | re.I)
    return m.group(1) if m else None


def seeded(seed, workload):
    return random.Random(f"{workload}:{seed}")
