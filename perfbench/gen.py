"""Seeded input generator for the benchmark.

Schemes are produced as `.hors` text by this file alone, so the inputs of a
seed never depend on the program under test or on the test suite.  The random
grammar follows the one the test suite uses for its corpus (non-terminals of
order <= 2 whose parameter types are `o` or `o -> o`, terminals a, b, c, d),
copied here on purpose: an edit to the tests must not shift the baseline.
"""

from __future__ import annotations

import random

O = "o"


def arrow(*types):
    """Right-associated arrow type, as nested ("->", argument, result)."""
    out = types[-1]
    for t in reversed(types[:-1]):
        out = ("->", t, out)
    return out


OO = arrow(O, O)
NT_TYPES = (O, OO, arrow(O, O, O), arrow(OO, O), arrow(OO, O, O))
TERMINALS = {"a": OO, "b": arrow(O, O, O), "c": O, "d": O}


def type_text(t) -> str:
    if t == O:
        return "o"
    _, arg, res = t
    left = type_text(arg)
    if arg != O:
        left = f"({left})"
    return f"{left} -> {type_text(res)}"


def arg_types(t) -> list:
    out = []
    while t != O:
        out.append(t[1])
        t = t[2]
    return out


def term_text(t) -> str:
    head, args = t
    parts = [head]
    for a in args:
        s = term_text(a)
        parts.append(f"({s})" if a[1] else s)
    return " ".join(parts)


def term_nodes(t) -> int:
    return 1 + sum(term_nodes(a) for a in t[1])


class Scheme:
    """A scheme as plain data: name -> type tables and name -> (params, body)."""

    def __init__(self, terminals, nonterminals, variables, rules, start="S"):
        self.terminals = terminals
        self.nonterminals = nonterminals
        self.variables = variables
        self.rules = rules
        self.start = start

    def text(self) -> str:
        lines = [f"terminal {n} : {type_text(t)}" for n, t in self.terminals.items()]
        lines += [f"nonterminal {n} : {type_text(t)}" for n, t in self.nonterminals.items()]
        lines += [f"var {n} : {type_text(t)}" for n, t in self.variables.items()]
        lines.append(f"start {self.start}")
        for name, (params, body) in self.rules.items():
            lines.append(f"rule {' '.join((name,) + params)} = {term_text(body)}")
        return "\n".join(lines) + "\n"


def _candidates(symbols, target):
    out = []
    for name, ty in symbols:
        remaining, j = ty, 0
        while True:
            if remaining == target:
                out.append((name, ty, j))
            if remaining == O:
                break
            remaining, j = remaining[2], j + 1
    return out


def _gen_term(rng, symbols, target, depth):
    cands = _candidates(symbols, target)
    if depth <= 0:
        leaves = [cd for cd in cands if cd[2] == 0]
        name, ty, j = rng.choice(leaves) if leaves else min(cands, key=lambda cd: cd[2])
    else:
        name, ty, j = rng.choice(cands)
    args = []
    for _ in range(j):
        args.append(_gen_term(rng, symbols, ty[1], depth - 1))
        ty = ty[2]
    return (name, tuple(args))


def _params(types, variables):
    params, counts = [], {}
    for ty in types:
        base = {O: "x", OO: "f"}.get(ty, "g")
        counts[ty] = counts.get(ty, 0) + 1
        name = f"{base}{counts[ty]}"
        while variables.get(name, ty) != ty:
            name += "_"
        variables[name] = ty
        params.append(name)
    return tuple(params)


def random_scheme(rng: random.Random, nt_types=None) -> Scheme:
    """A valid scheme of order <= 2 with at most 5 non-terminals.

    `nt_types` fixes the types of the non-terminals besides the start S;
    by default one to four are drawn from NT_TYPES.
    """
    if nt_types is None:
        nt_types = [rng.choice(NT_TYPES) for _ in range(rng.randint(1, 4))]
    nonterminals = {"S": O}
    for i, ty in enumerate(nt_types):
        nonterminals[f"N{i + 1}"] = ty
    variables: dict = {}
    rules = {}
    for name, ty in nonterminals.items():
        params = _params(arg_types(ty), variables)
        scope = list(TERMINALS.items()) + list(nonterminals.items())
        scope += [(p, variables[p]) for p in params]
        body = _gen_term(rng, scope, O, rng.randint(2, 3))
        rules[name] = (params, body)
    return Scheme(dict(TERMINALS), nonterminals, variables, rules)


# ---------------------------------------------------------------------------
# Behaviour classes, decided by a small outermost rewriter of our own so that
# the mix of each seed's corpus never depends on the program under test.

SETTLES, PRODUCTIVE, STUCK = "settles", "productive", "stuck"


def _instantiate(body, env):
    head, args = body
    new = tuple(_instantiate(a, env) for a in args)
    if head in env:
        h, pre = env[head]
        return (h, pre + new)
    return (head, new)


def _rewrite_round(s: Scheme, t, depth, budget):
    """Rewrite every outermost redex at most `depth` levels down.

    Returns the new term and whether a redex was found; `budget` is a
    one-element node allowance shared across the round.
    """
    head, args = t
    if head in s.rules:
        params, body = s.rules[head]
        out = _instantiate(body, dict(zip(params, args)))
        budget[0] -= term_nodes(out)
        return out, True
    if depth <= 1 or budget[0] <= 0:
        return t, False
    found, new = False, []
    for a in args:
        na, f = _rewrite_round(s, a, depth - 1, budget)
        new.append(na)
        found = found or f
    return (head, tuple(new)), found


def classify(s: Scheme, rounds: int = 30, depth: int = 3, max_nodes: int = 4000) -> str:
    """STUCK: some node of the depth-`depth` prefix is still a non-terminal
    after `rounds` outermost rounds (its OI value is bottom there, reached by
    infinite work).  Otherwise SETTLES when the whole term normalises within
    the rounds, else PRODUCTIVE (a settled prefix over an infinite tree)."""
    t = (s.start, ())
    for _ in range(rounds):
        budget = [max_nodes]
        t, found = _rewrite_round(s, t, depth, budget)
        if not found:
            break
        if budget[0] <= 0:
            return STUCK
    else:
        return STUCK
    for _ in range(rounds):
        budget = [max_nodes]
        t, found = _rewrite_round(s, t, 10**9, budget)
        if not found:
            return SETTLES
        if budget[0] <= 0:
            break
    return PRODUCTIVE


# Labeled-size strata.  The scheme `label_scheme` emits grows with the
# non-terminal types: a (o -> o) -> o -> o non-terminal gets 2,048 labeled
# copies, a (o -> o) -> o one 512, every other type at most 16.
SMALL, MID, BIG, HUGE = "small", "mid", "big", "huge"
_OOOO, _OOO = arrow(OO, O, O), arrow(OO, O)


def stratum(s: Scheme) -> str:
    """HUGE with two or more (o -> o) -> o -> o non-terminals, BIG with one,
    MID with a (o -> o) -> o one, else SMALL."""
    types = list(s.nonterminals.values())
    wide = types.count(_OOOO)
    if wide:
        return HUGE if wide > 1 else BIG
    return MID if _OOO in types else SMALL


# ---------------------------------------------------------------------------
# Hand-written schemes, frozen here so that edits to the repository's copies
# cannot move the baseline.

HAND = {
    "order3": """\
terminal a : o -> o -> o -> o
terminal b : o -> o -> o
terminal c : o
nonterminal F : ((o -> o) -> o -> o) -> (o -> o) -> o -> o
nonterminal H : (o -> o) -> o -> o
nonterminal I : o -> o
nonterminal J : o -> o
nonterminal K : o -> o
nonterminal S : o
var x : o
var phi : o -> o
var psi : (o -> o) -> o -> o
start S
rule F psi phi x = psi phi x
rule I x = x
rule H phi x = a (J x) (K x) (phi x)
rule J x = b (J x) (J x)
rule K x = K (K x)
rule S = F H I c
""",
    "separating": """\
terminal a : o
terminal c : o
nonterminal S : o
nonterminal F : o -> o -> o
nonterminal H : o -> o
var x : o
var y : o
start S
rule S = F (H a) c
rule F x y = y
rule H x = H (H x)
""",
    "dropper": """\
terminal a : o -> o
terminal c : o
nonterminal S : o
nonterminal F : o -> o
nonterminal H : o
var x : o
start S
rule S = F H
rule F x = c
rule H = a H
""",
}

# Two (o -> o) -> o -> o non-terminals: 4,609 labeled rules and a 560 KiB
# corrected image, the size the roadmap reports for the largest corpus
# schemes.  Frozen rather than drawn, since such schemes vary the most in
# size from draw to draw.
HAND["large"] = """\
terminal a : o -> o
terminal b : o -> o -> o
terminal c : o
terminal d : o
nonterminal S : o
nonterminal N1 : (o -> o) -> o -> o
nonterminal N2 : (o -> o) -> o -> o
nonterminal N3 : (o -> o) -> o
var f1 : o -> o
var x1 : o
start S
rule S = N3 (N1 a)
rule N1 f1 x1 = c
rule N2 f1 x1 = N1 (N1 a) S
rule N3 f1 = d
"""

HAND_TERMINALS = {
    "order3": {"a", "b", "c"},
    "separating": {"a", "c"},
    "dropper": {"a", "c"},
    "large": {"a", "b", "c", "d"},
}


class Input:
    """One generated input file and what the checks need to know about it."""

    def __init__(self, name, text, terminals, nonterminals, known_io=None):
        self.name = name
        self.text = text
        self.terminals = frozenset(terminals)
        self.nonterminals = tuple(nonterminals)
        self.known_io = known_io  # exact IO value-tree prefix at depth 3


def hand_input(name: str, known_io=None) -> Input:
    text = HAND[name]
    nts = [ln.split()[1] for ln in text.splitlines() if ln.startswith("nonterminal ")]
    return Input(name, text, HAND_TERMINALS[name], nts, known_io)


def scheme_input(name: str, s: Scheme, known_io=None) -> Input:
    return Input(name, s.text(), s.terminals, s.nonterminals, known_io)


def _terminal_term(rng, depth):
    """A closed term over the terminals, at most `depth` levels deep."""
    scope = list(TERMINALS.items())
    return _gen_term(rng, scope, O, depth)


def _tree_of(t, depth):
    if depth <= 0:
        return (None, ())
    return (t[0], tuple(_tree_of(a, depth - 1) for a in t[1]))


# `H x = H (H (a x))` grows the innermost chain by two nodes a step.
CHAIN_BODY = ("H", (("H", (("a", (("x", ()),)),)),))


def chain_scheme(rng: random.Random) -> tuple[Scheme, tuple]:
    """`S = b (F (H t1) t2) t3` with `H x = H (H (a x))`.

    IO never lets F fire, since its first argument always holds a redex, so
    the IO value tree is `b ⊥ t3`.
    """
    t1, t2, t3 = (_terminal_term(rng, 2) for _ in range(3))
    nonterminals = {"S": O, "F": arrow(O, O, O), "H": OO}
    variables = {"x": O, "y": O}
    rules = {
        "S": ((), ("b", (("F", (("H", (t1,)), t2)), t3))),
        "F": (("x", "y"), rng.choice((("y", ()), ("b", (("y", ()), ("y", ())))))),
        "H": (("x",), CHAIN_BODY),
    }
    known = ("b", ((None, ()), _tree_of(t3, 2)))
    return Scheme(dict(TERMINALS), nonterminals, variables, rules), known


def nth_draw(seed: int, k: int) -> Scheme:
    """Draw `k` of a seed's stream of random schemes; each has its own
    generator, so any draw can be made again without the ones before it."""
    return random_scheme(random.Random(f"{seed}/{k}"))


def pick(seed: int, quota: dict, kind, limit: int = 100_000) -> dict:
    """For each kind, the indices of its first `quota[kind]` draws, where
    `kind(scheme)` names a draw's kind.  How many draws this reads varies
    with the seed; making the picked draws again does not."""
    out = {k: [] for k in quota}
    wanted = sum(quota.values())
    for k in range(limit):
        if wanted == 0:
            return out
        c = kind(nth_draw(seed, k))
        if c in out and len(out[c]) < quota[c]:
            out[c].append(k)
            wanted -= 1
    raise RuntimeError(f"quota {quota} not met in {limit} draws")


def corrupt(text: str, kind: int) -> str:
    """An invalid copy whose defect is its last rule, so every other rule is
    read before the verdict: a second rule for the start symbol, or a rule
    for an undeclared non-terminal."""
    if kind % 2 == 0:
        start = next(ln.split()[1] for ln in text.splitlines() if ln.startswith("start "))
        return text + f"rule {start} = {start}\n"
    return text + "rule Zz_undeclared = c\n"


def merged_scheme(rng: random.Random, count: int) -> Scheme:
    """`count` random schemes side by side, their non-terminals renamed apart;
    a large valid input whose start is the first scheme's S."""
    nonterminals, variables, rules = {}, {}, {}
    for i in range(count):
        s = random_scheme(rng)
        rename = {n: f"K{i}{n}" for n in s.nonterminals}

        def ren(t):
            return (rename.get(t[0], t[0]), tuple(ren(a) for a in t[1]))

        for n, ty in s.nonterminals.items():
            nonterminals[rename[n]] = ty
        variables.update(s.variables)
        for n, (params, body) in s.rules.items():
            rules[rename[n]] = (params, ren(body))
    return Scheme(dict(TERMINALS), nonterminals, variables, rules, start="K0S")
