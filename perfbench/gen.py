#!/usr/bin/env python3
"""Seeded generator of recmod surface programs with known answers.

Every program is filled in from a template taken from the paper's
examples (Crary, Harper and Puri, "What is a Recursive Module?", PLDI
1999) and carries its expected verdict beside it:

* well-typed by construction: the section 3.1 opaque ``List``, the
  section 4 transparent ``List`` under a recursively-dependent signature
  (rds), the rds ``Expr``/``Decl`` pair, the functorized ``BuildList``
  tied by ``structure rec``, ``structure rec`` groups of k mutually
  recursive datatypes, groups of mutually recursive modules, and chains
  of plain structures;
* ill-typed by a single mutation whose error code the paper predicts:
  dropping the rds turns E3/E5 into E2/E5-failing (``K011``), an
  expansive use of the recursive variable is rejected by the value
  restriction as in E9 (``K015``); two more mutations give a plain
  type clash of ``int`` and ``bool`` (``K011``) and a structure missing
  a signature component (``S005``).

Names, literals and sizes vary with the seed; sizes are capped so no
program costs more than about 1% of a ``check_gen`` pass (k-datatype
groups grow superlinearly in k, so k stays at most 6). The same seed
gives byte-identical output.

Run ``python3 perfbench/gen.py --seed 7 --out DIR`` to write the
``check_gen`` corpus plus ``expected.tsv`` (file, verdict) into DIR.
"""

import argparse
import os
import sys

# Programs in a check_gen corpus. About 1 ms each, so a pass is ~3 s and
# no single program is more than ~1% of it.
CHECK_PROGRAMS = 2800

MASK = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 generator the repo's own tests and benches use."""

    def __init__(self, seed):
        self.state = seed & MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n):
        return self.next_u64() % n

    def range(self, lo, hi):
        """Uniform integer in ``lo..=hi``."""
        return lo + self.below(hi - lo + 1)

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def shuffle(self, seq):
        for i in range(len(seq) - 1, 0, -1):
            j = self.below(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


MODULES = ["List", "Seq", "Stack", "Chain", "Queue", "Bag", "Row", "Spine"]
CTORS = [("NIL", "CONS"), ("Nil", "Cons"), ("EMPTY", "PUSH"), ("E", "C"), ("Z", "S")]
EXPRS = [("Expr", "Decl"), ("Exp", "Dec"), ("Term", "Bind"), ("Code", "Defn")]
TREES = ["A", "B", "C", "D", "Node", "Leaf", "Fork", "Tip"]


def rev_line(rng):
    """The first line of every program: ``serve_edit`` edits this one
    literal to make a new content hash without changing the verdict."""
    return "val rev = %d\n" % rng.range(0, 9999)


def helpers(rng, count):
    """``count`` extra (sig lines, body lines) pairs that add elaboration
    work; every helper is a function, so none is expansive."""
    sig, body = [], []
    for j in range(count):
        lit = rng.range(1, 999)
        if rng.below(2) == 0:
            sig.append("  val f%d : int -> int" % j)
            body.append("  fun f%d (x : int) : int = x * %d + %d" % (j, rng.range(2, 9), lit))
        else:
            sig.append("  val g%d : t -> bool" % j)
            body.append("  fun g%d (l : t) : bool = null l" % j)
    return sig, body


def list_driver(mod, n):
    """The ``corpus::LIST_DRIVER_TEMPLATE`` driver: builds a list of
    length ``n`` with ``cons`` and sums it with ``uncons``."""
    return (
        "fun build (n : int) : %(m)s.t =\n"
        "  if n = 0 then %(m)s.nil else %(m)s.cons (n, build (n - 1))\n"
        "fun total (l : %(m)s.t) : int =\n"
        "  if %(m)s.null l then 0\n"
        "  else (case %(m)s.uncons l of (h, rest) => h + total rest)\n"
        ";\n"
        "total (build %(n)d)\n"
    ) % {"m": mod, "n": n}


def opaque_list(rng, mutate=False, n=None, extra=None):
    """Section 3.1 (E1): the opaque list. Mutation: an expansive use of
    the recursive variable in the body (E9's value restriction, K015)."""
    m = rng.choice(MODULES) + str(rng.range(0, 99))
    nil, cons = rng.choice(CTORS)
    sig_name = m.upper() + "_SIG"
    hs, hb = helpers(rng, rng.range(0, 4) if extra is None else extra)
    bad = "  val probe = %s.nil\n" % m if mutate else ""
    src = (
        "signature %(S)s = sig\n  type t\n  val nil : t\n  val null : t -> bool\n"
        "  val cons : int * t -> t\n  val uncons : t -> int * t\n%(hs)send\n\n"
        "structure rec %(M)s :> %(S)s = struct\n"
        "  datatype t = %(N)s | %(C)s of int * %(M)s.t\n"
        "  val nil = %(N)s\n"
        "  fun null (l : t) : bool = case l of %(N)s => true | %(C)s p => false\n"
        "  fun toSelf (l : t) : %(M)s.t =\n"
        "    case l of\n      %(N)s => %(M)s.nil\n"
        "    | %(C)s p => (case p of (m, rest) => %(M)s.cons (m, rest))\n"
        "  fun fromSelf (x : %(M)s.t) : t =\n"
        "    if %(M)s.null x then %(N)s\n"
        "    else (case %(M)s.uncons x of (m, y) => %(C)s (m, y))\n"
        "  fun cons (p : int * t) : t =\n    case p of (n, l) => %(C)s (n, toSelf l)\n"
        "  fun uncons (l : t) : int * t =\n    case l of\n"
        "      %(N)s => (raise Fail : int * t)\n"
        "    | %(C)s p => (case p of (m, rest) => (m, fromSelf rest))\n"
        "%(hb)s%(bad)send\n"
    ) % {
        "S": sig_name, "M": m, "N": nil, "C": cons,
        "hs": "".join(l + "\n" for l in hs), "hb": "".join(l + "\n" for l in hb), "bad": bad,
    }
    if n is not None:
        src += list_driver(m, n)
    return src, ("K015" if mutate else "ok")


def transparent_list(rng, mutate=False, n=None, extra=None):
    """Section 4 (E4): the transparent list under an rds whose datatype
    spec makes ``M.t`` the implementation type. Mutation: the datatype
    spec is weakened to an opaque ``type t`` under ``:>`` (the rds is
    dropped), so ``CONS p`` no longer matches ``int * M.t`` (K011, as in
    E2/E5)."""
    m = rng.choice(MODULES) + str(rng.range(0, 99))
    nil, cons = rng.choice(CTORS)
    hs, hb = helpers(rng, rng.range(0, 4) if extra is None else extra)
    tspec = "type t" if mutate else "datatype t = %s | %s of int * %s.t" % (nil, cons, m)
    src = (
        "structure rec %(M)s %(A)s sig\n  %(T)s\n  val nil : t\n  val null : t -> bool\n"
        "  val cons : int * t -> t\n  val uncons : t -> int * t\n"
        "  val len : t -> int\n%(hs)send = struct\n"
        "  datatype t = %(N)s | %(C)s of int * %(M)s.t\n"
        "  val nil = %(N)s\n"
        "  fun null (l : t) : bool = case l of %(N)s => true | %(C)s p => false\n"
        "  fun cons (p : int * t) : t = %(C)s p\n"
        "  fun uncons (l : t) : int * t =\n"
        "    case l of %(N)s => (raise Fail : int * t) | %(C)s p => p\n"
        "  fun len (l : t) : int =\n"
        "    case l of %(N)s => 0 | %(C)s p => (case p of (h, r) => 1 + len r)\n"
        "%(hb)send\n"
    ) % {
        "M": m, "N": nil, "C": cons, "T": tspec, "A": ":>" if mutate else ":",
        "hs": "".join(l + "\n" for l in hs), "hb": "".join(l + "\n" for l in hb),
    }
    if n is not None:
        src += list_driver(m, n)
    return src, ("K011" if mutate else "ok")


def expr_decl(rng, mutate=False):
    """Section 4 (E3): mutually recursive ``Expr``/``Decl`` under rds
    ``where type`` clauses. Mutation: the clauses are dropped, which is
    the paper's ill-typed E2 (K011)."""
    e, d = rng.choice(EXPRS)
    e += str(rng.range(0, 99))
    d += str(rng.range(0, 99))
    v, l, vl = rng.choice([("VAR", "LET", "VAL"), ("Var", "Let", "Val"), ("X", "L", "V")])
    w1 = "" if mutate else " where type dec = %s.dec" % d
    w2 = "" if mutate else " where type exp = %s.exp" % e
    a2 = ":>" if mutate else ":"
    lit = rng.range(1, 50)
    src = (
        "signature %(EU)s = sig\n  type exp\n  type dec\n  val make_var : int -> exp\n"
        "  val make_let : dec * exp -> exp\n  val make_let_val : int * exp * exp -> exp\n"
        "  val size : exp -> int\nend\n\n"
        "signature %(DU)s = sig\n  type dec\n  type exp\n  val make_val : int * exp -> dec\n"
        "  val dec_size : dec -> int\nend\n\n"
        "structure rec %(E)s :> %(EU)s%(w1)s = struct\n"
        "  datatype exp = %(V)s of int | %(L)s of %(D)s.dec * exp\n"
        "  type dec = %(D)s.dec\n"
        "  fun make_var (x : int) : exp = %(V)s x\n"
        "  fun make_let (p : dec * exp) : exp = %(L)s p\n"
        "  fun make_let_val (q : int * exp * exp) : exp =\n"
        "    case q of (id, e1, e2) =>\n      make_let (%(D)s.make_val (id, e1), e2)\n"
        "  fun size (e : exp) : int =\n    case e of\n      %(V)s x => %(lit)d\n"
        "    | %(L)s p => (case p of (d, body) => %(D)s.dec_size d + size body)\n"
        "end\n"
        "and %(D)s %(a2)s %(DU)s%(w2)s = struct\n"
        "  datatype dec = %(VL)s of int * %(E)s.exp\n"
        "  type exp = %(E)s.exp\n"
        "  fun make_val (p : int * exp) : dec = %(VL)s p\n"
        "  fun dec_size (d : dec) : int =\n"
        "    case d of %(VL)s p => (case p of (id, e) => 1 + %(E)s.size e)\n"
        "end\n"
    ) % {
        "E": e, "D": d, "EU": e.upper() + "_S", "DU": d.upper() + "_S",
        "V": v, "L": l, "VL": vl, "w1": w1, "w2": w2, "a2": a2, "lit": lit,
    }
    return src, ("K011" if mutate else "ok")


def build_list(rng, mutate=False):
    """Section 4 (E5): ``BuildList`` whose parameter carries an rds, tied
    by a recursive binding. Mutation: the parameter gets the plain
    ``LIST`` signature, which "does not propagate the critical recursive
    type equation" (K011)."""
    f = "Build" + rng.choice(MODULES) + str(rng.range(0, 99))
    m = rng.choice(MODULES) + str(rng.range(0, 99))
    nil, cons = rng.choice(CTORS)
    body = (
        "  datatype t = %(N)s | %(C)s of int * %(M)s.t\n"
        "  val nil = %(N)s\n"
        "  fun null (l : t) : bool = case l of %(N)s => true | %(C)s p => false\n"
        "  fun cons (p : int * t) : t = %(C)s p\n"
        "  fun uncons (l : t) : int * t =\n"
        "    case l of %(N)s => (raise Fail : int * t) | %(C)s p => p\n"
    ) % {"M": m, "N": nil, "C": cons}
    ops = (
        "  val nil : t\n  val null : t -> bool\n"
        "  val cons : int * t -> t\n  val uncons : t -> int * t\n"
    )
    if mutate:
        src = (
            "signature LIST = sig\n  type t\n%(ops)send\n\n"
            "functor %(F)s (structure %(M)s : LIST) = struct\n%(body)send\n"
        ) % {"F": f, "M": m, "ops": ops, "body": body}
        return src, "K011"
    spec = "sig\n  datatype t = %s | %s of int * %s.t\n%send" % (nil, cons, m, ops)
    src = (
        "functor %(F)s (structure rec %(M)s : %(spec)s) = struct\n%(body)send\n\n"
        "structure rec %(M)s : %(spec)s = %(F)s (structure %(M)s = %(M)s)\n"
    ) % {"F": f, "M": m, "spec": spec, "body": body}
    return src, "ok"


def rec_datatypes(rng, mutate=False):
    """A ``structure rec`` whose rds declares k mutually recursive
    datatypes, each referring to the next through the recursive
    variable. Mutation: a value defined by projecting the recursive
    variable itself, which the value restriction rejects (K015)."""
    k = rng.range(2, 6)
    m = "Rec" + str(rng.range(0, 999))
    lines = []
    for i in range(k):
        lines.append(
            "  datatype t%d = Z%d | S%d of int * %s.t%d\n" % (i, i, i, m, (i + 1) % k)
        )
    start = "%s.start" % m if mutate else "Z0"
    src = "structure rec %s : sig\n%s  val start : t0\n  val depth : t0 -> int\nend = struct\n%s" % (
        m, "".join(lines), "".join(lines))
    src += "  val start = %s\n" % start
    src += "  fun depth (x : t0) : int = case x of Z0 => %d | S0 p => 1\nend\n" % rng.range(0, 9)
    return src, ("K015" if mutate else "ok")


def mutual_modules(rng, mutate=False):
    """A ``structure rec ... and ...`` group of 2-4 modules whose
    datatypes wrap each other in a cycle. Mutation: one body omits the
    ``size`` its signature requires (S005)."""
    k = rng.range(2, 4)
    names = [rng.choice(TREES) + str(i) + "_" + str(rng.range(0, 99)) for i in range(k)]
    drop = rng.below(k) if mutate else -1
    parts = []
    for i, n in enumerate(names):
        nxt = names[(i + 1) % k]
        size = "" if i == drop else (
            "  fun size (x : t) : int = case x of BASE => %d | WRAP b => 1 + %s.size b\n"
            % (rng.range(1, 9), nxt)
        )
        parts.append(
            "%s : sig\n  datatype t = BASE | WRAP of %s.t\n  val size : t -> int\nend = struct\n"
            "  datatype t = BASE | WRAP of %s.t\n%send\n" % (n, nxt, nxt, size)
        )
    return "structure rec " + "and ".join(parts), ("S005" if mutate else "ok")


def module_chain(rng, mutate=False):
    """A chain of plain structures, each sealed with a transparent
    signature and using the previous one. Mutation: one link applies
    ``bump`` to a boolean, a clash of the base constructors ``int`` and
    ``bool`` (K011)."""
    n = rng.range(3, 14)
    bad = rng.range(1, n - 1) if mutate else -1
    src = ["structure S0 = struct type t = int val x = %d fun bump (a : t) : t = a + %d end\n"
           % (rng.range(0, 99), rng.range(1, 9))]
    for i in range(1, n):
        p = i - 1
        arg = "true" if i == bad else "S%d.x" % p
        src.append(
            "structure S%d : sig type t = int val x : t val bump : t -> t end = struct\n"
            "  type t = S%d.t val x = S%d.bump %s fun bump (a : t) : t = S%d.bump (a + %d)\nend\n"
            % (i, p, p, arg, p, rng.range(1, 9))
        )
    return "".join(src), ("K011" if mutate else "ok")


# (name, template) pairs; every template takes (rng, mutate).
TEMPLATES = [
    ("opaque_list", opaque_list),
    ("transparent_list", transparent_list),
    ("expr_decl", expr_decl),
    ("build_list", build_list),
    ("rec_datatypes", rec_datatypes),
    ("mutual_modules", mutual_modules),
    ("module_chain", module_chain),
]


def program(rng, index):
    """The ``index``-th program of a stratified stream: templates come
    round-robin and every fourth round is a mutation, so each pass holds
    the same template mix whatever the seed; names, literals and sizes
    vary. Returns ``(stem, source, expected)``."""
    name, template = TEMPLATES[index % len(TEMPLATES)]
    mutate = (index // len(TEMPLATES)) % 4 == 3
    src, expected = template(rng, mutate=mutate)
    return "%s_%s" % (name, "bad" if mutate else "ok"), rev_line(rng) + src, expected


def corpus(seed, count):
    """``count`` programs as ``(file name, source, expected)`` triples,
    in a seeded order."""
    rng = SplitMix64(seed)
    progs = [program(rng, i) for i in range(count)]
    rng.shuffle(progs)
    return [("p%05d_%s.rm" % (i, stem), src, exp) for i, (stem, src, exp) in enumerate(progs)]


def units(seed, count, size):
    """``count`` programs of ``size`` templates each, the way a source
    file holds several modules: templates come round-robin and every
    fourth program carries exactly one mutation, whose code is then the
    program's first error (top-level names may repeat; later bindings
    shadow earlier ones). Returns ``(file name, source, expected)``."""
    rng = SplitMix64(seed ^ 0x0417)
    progs = []
    for u in range(count):
        bad = rng.below(size) if u % 4 == 3 else -1
        parts, expected = [], "ok"
        for j in range(size):
            _, template = TEMPLATES[(u * size + j) % len(TEMPLATES)]
            src, exp = template(rng, mutate=j == bad)
            parts.append(src)
            if j == bad:
                expected = exp
        progs.append(("u%03d.rm" % u, rev_line(rng) + "\n".join(parts), expected))
    return progs


def list_programs(seed, ladder):
    """The ``run_lists`` programs, shaped like ``corpus::list_program``:
    for every (opaque n, transparent n) pair on ``ladder``, one section
    3.1 opaque and one section 4 transparent list program, skipping a
    ``None`` length. Names and up to 1% of each n are seeded (opaque
    cost is quadratic in n, so a wider jitter would make one seed's
    ladder measurably heavier than another's). Returns
    ``(file name, source, n)`` triples in a seeded order; the expected
    value is n(n+1)/2."""
    rng = SplitMix64(seed ^ 0x5EED)
    progs = []
    for opaque_n, transparent_n in ladder:
        for opaque, base in ((True, opaque_n), (False, transparent_n)):
            if base is None:
                continue
            n = base + rng.range(0, max(1, base // 100))
            make = opaque_list if opaque else transparent_list
            src, _ = make(rng, n=n, extra=0)
            progs.append(("%s_%d.rm" % ("opaque" if opaque else "transparent", n),
                          rev_line(rng) + src, n))
    rng.shuffle(progs)
    return [("l%03d_%s" % (i, name), src, n) for i, (name, src, n) in enumerate(progs)]


def write(out, progs):
    os.makedirs(out, exist_ok=True)
    for name, src, _ in progs:
        with open(os.path.join(out, name), "w") as f:
            f.write(src)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    progs = corpus(args.seed, CHECK_PROGRAMS)
    write(args.out, progs)
    with open(os.path.join(args.out, "expected.tsv"), "w") as f:
        for name, _, expected in progs:
            f.write("%s\t%s\n" % (name, expected))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
