"""Combinatorial types of nodal sets at a singular point.

An *interior type* records how the 2p rays of a p-bouquet of loops at an
interior singular point pair up: a fixed-point-free involution tau on
{0..2p-1} with odd differences and no crossings.  The complement of the
bouquet on the sphere has p+1 domains; the *domain labeling* delta assigns to
each of the 2p circular intervals between consecutive rays the label of the
domain it lies in.  labeling_from_type / type_from_labeling convert back and
forth (each map determines the other).

A *boundary type* is the analogue at a boundary singular point of index
2k-3: rays 1..2k-3 on a half-circle, one of them (the odd position `a`) is an
arc going off to the boundary, the remaining rays pair up within the two
blocks K+ = {1..a-1} and K- = {a+1..2k-3}.  With the arrow as ray 0 it is a
non-crossing perfect matching of the rays 0..2k-3 (the arrow's loop (0, a)
forces a odd, K+ inside it and K- after it), checked and labeled as one.
From it we build the interval words m_theta, m^(0), m^(pi) whose
first-repeat positions drive the rotating-function argument.

Both enumerations read one table: the tau tuples of all non-crossing
matchings of a block of rays, built bottom-up from a Catalan table in
lexicographic order (a boundary type is such a matching with the arrow as
ray 0).  The table is kept for the life of the process: a row is built the
first time it is asked for, never rebuilt, and none past ENUM_CAP is (all
rows up to p = 10 hold about 5.8 MB).  The shift census compares those
tuples and builds a type only for a hit.

Every InteriorType, BoundaryType, DomainLabeling and Word is validated
once, in its constructor (InvalidType, or InconsistentLabeling for a
labeling), so any such object that exists is valid and the functions here
take it as it is.  Both type kinds run one matching check and one labeling
sweep; the check, the sweep and its inverse scan the rays once with a stack
of open loops.  A type's count and tau's entries are ints by the one
integer rule (errors._integer, tau through its bulk form _integers).

Indexing: an interior type's rays and intervals are 0..2p-1; a boundary
type's rays are 1..2k-3 (matching the half-circle picture), with the arrow
as ray 0.  The two-row text format writes both kinds that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (CapExceeded, InconsistentLabeling, InvalidType, NoRepeat,
                     _decimal, _integer, _integers, _show)

ENUM_CAP = 10

ARROW_TOKENS = ("v", "↓", "down", "|")  # accepted spellings of the boundary arrow


def _raise_if(problems, error=InvalidType):
    """Raise `error` listing the problems a validator found, if any."""
    if problems:
        raise error("; ".join(problems))


# ---------------------------------------------------------------------------
# interior types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InteriorType:
    """Fixed-point-free non-crossing involution on {0..2p-1} with odd
    differences; validated once, when constructed (p and tau's entries ints
    by the one integer rule, tau a tuple)."""
    p: int
    tau: tuple  # tau[j] = image of ray j, length 2p

    def __post_init__(self):
        _store_count(self, "p", 1, 0)
        _raise_if(_matching_problems(self.tau))


def _store_count(t, name, least, less):
    """Store t's count `name` as an int >= least and tau's entries as ints
    >= 0, by the one integer rule; InvalidType unless t.tau is a tuple of
    2 * count - less rays."""
    n = _integer(getattr(t, name), least, name, InvalidType)
    object.__setattr__(t, name, n)
    tau = t.tau
    if type(tau) is not tuple or len(tau) != 2 * n - less:
        raise InvalidType("tau must be a tuple of %d rays for %s=%d, got %s"
                          % (2 * n - less, name, n, _show(tau)))
    entries = _integers(tau, 0, "tau entry", InvalidType)
    if entries is not tau:
        object.__setattr__(t, "tau", tuple(entries))


def _matching_problems(tau):
    """Faults of tau as a fixed-point-free non-crossing involution of the
    rays 0..len(tau)-1 (empty = valid).

    One pass with a stack of the open rays, those whose partner comes later:
    a ray whose partner comes earlier closes the loop on top of the stack,
    or else crosses that loop.  A valid matching has odd differences, since
    each loop encloses whole loops.  The two branches a valid tau takes, a
    ray opening a loop and a ray closing the loop on top, are tested first;
    any other ray is a fault, named by the tests after them.
    """
    n = len(tau)
    problems = []
    stack = []
    for j, t in enumerate(tau):
        if j < t < n and tau[t] == j:
            stack.append(j)
        elif 0 <= t < j and tau[t] == j and stack[-1] == t:
            stack.pop()
        elif not 0 <= t < n:
            problems.append("ray %d pairs with %s, outside rays 0..%d"
                            % (j, t, n - 1))
        elif t == j:
            problems.append("fixed point at ray %d" % j)
        elif tau[t] != j:
            problems.append("not an involution at ray %d" % j)
        else:
            s = stack[-1]
            problems.append("crossing pairs (%d,%d) and (%d,%d)"
                            % (t, j, s, tau[s]))
            stack.remove(t)
    return problems


def _check_size(name, value, least):
    """value as an int by the one integer rule: InvalidType below `least`
    or for a non-integer, CapExceeded above ENUM_CAP."""
    value = _integer(value, least, name, InvalidType)
    if value > ENUM_CAP:
        raise CapExceeded("%s=%d exceeds cap %d" % (name, value, ENUM_CAP))
    return value


_MATCHINGS = [((),)]    # row q: the tau tuples of 2q rays, see _matching_taus


def _matching_taus(p: int):
    """The tuple of tau tuples of all non-crossing perfect matchings of the
    rays 0..2p-1, in lexicographic order, for 0 <= p <= ENUM_CAP.

    Read from a Catalan table whose row q holds the matchings of 2q rays:
    ray 0 pairs with an odd ray 2i+1, which encloses a block of i loops and
    leaves a block of q-1-i loops after it, both taken from earlier rows and
    shifted into place.  Taking 2i+1 upward, then the inner block, then the
    outer block, each in row order, gives lexicographic order.  The table
    is kept for the life of the process: rows past the last one built are
    added on demand and never rebuilt, and the callers' size checks stop it
    at ENUM_CAP, where it holds about 5.8 MB (tracemalloc).
    """
    table = _MATCHINGS
    for q in range(len(table), p + 1):
        row = []
        for i in range(q):
            heads = [(2 * i + 1,) + tuple(x + 1 for x in m) + (0,)
                     for m in table[i]]
            tails = [tuple(x + 2 * i + 2 for x in m) for m in table[q - 1 - i]]
            row.extend([h + t for h in heads for t in tails])
        table.append(tuple(row))
    return table[p]


def enumerate_interior(p: int):
    """All valid InteriorTypes for p loops, lexicographically sorted by tau."""
    p = _check_size("p", p, 1)
    return [InteriorType(p, tau) for tau in _matching_taus(p)]


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# domain labelings (interior case)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainLabeling:
    """delta: interval index 0..2p-1 -> domain label 1..p+1; validated once,
    when constructed (InconsistentLabeling)."""
    delta: tuple

    def __post_init__(self):
        delta, n = self.delta, len(self.delta)
        if n == 0 or n % 2:
            raise InconsistentLabeling("delta length must be positive and even")
        problems = ([] if sorted(set(delta)) == list(range(1, n // 2 + 2))
                    else ["label set must be exactly 1..p+1"])
        problems += ["equal labels on adjacent intervals %d,%d" % (j, (j + 1) % n)
                     for j in range(n) if delta[j] == delta[(j + 1) % n]]
        _raise_if(problems, InconsistentLabeling)

    @property
    def p(self) -> int:
        return len(self.delta) // 2


def _innermost(tau):
    """After each ray of a valid tau, in order, the opening ray of the
    innermost loop still open (None outside every loop), as a list.  Ray j
    opens a loop, or closes the loop (t, j) that opened at t = tau[j]; as no
    loops cross, that leaves open the loops that were open before ray t."""
    keys = []
    for j, t in enumerate(tau):
        keys.append(j if j < t else keys[t - 1] if t else None)
    return keys


def _first_encounter(keys):
    """Number the keys 1, 2, ... in order of first appearance."""
    labels = {}
    out = []
    for key in keys:
        label = labels.get(key)
        if label is None:
            label = labels[key] = len(labels) + 1
        out.append(label)
    return tuple(out)


def labeling_from_type(t: InteriorType) -> DomainLabeling:
    """Sweep the intervals counter-clockwise; each interval gets the label of
    its domain = the innermost loop enclosing it (or the outer domain); new
    labels are assigned in first-encounter order starting at 1.  Interval j
    follows ray j, so loop (a,b) encloses intervals a..b-1."""
    return DomainLabeling(_first_encounter(_innermost(t.tau)))


def type_from_labeling(d: DomainLabeling) -> InteriorType:
    """Invert labeling_from_type with one sweep over the rays.

    A stack holds (label, opening ray) for the domains entered so far,
    starting with the outer domain, the label of the last interval (which no
    loop can enclose).  Ray j leads into interval j: when delta[j] is the
    label one below the top, ray j closes the innermost loop, else it opens
    a new loop.  The sweep must end back in the outer domain.
    """
    delta = d.delta
    n = len(delta)
    tau = [0] * n
    stack = [(delta[-1], None)]
    for j, label in enumerate(delta):
        if len(stack) > 1 and label == stack[-2][0]:
            i = stack.pop()[1]
            tau[i], tau[j] = j, i
        else:
            stack.append((label, j))
    if len(stack) != 1:
        raise InconsistentLabeling("%d loops are left open at the last ray"
                                   % (len(stack) - 1))
    try:
        t = InteriorType(n // 2, tuple(tau))
    except InvalidType as exc:
        raise InconsistentLabeling("reconstructed involution is invalid: %s"
                                   % exc)
    if labeling_from_type(t).delta != delta:
        raise InconsistentLabeling("labeling is not realizable by any valid involution")
    return t


# ---------------------------------------------------------------------------
# rotation / shift invariance
# ---------------------------------------------------------------------------

def _rotated_tau(tau: tuple, shift: int) -> tuple:
    """tau conjugated by the cyclic shift j -> j+shift (mod len(tau))."""
    n = len(tau)
    s = shift % n
    out = [0] * n
    for j in range(n):
        out[(j + s) % n] = (tau[j] + s) % n
    return tuple(out)


def rotate_type(t: InteriorType, shift: int) -> InteriorType:
    """Conjugate tau by the cyclic shift j -> j+shift (mod 2p)."""
    return InteriorType(t.p, _rotated_tau(t.tau, shift))


def shift_invariant_types(p: int):
    """Types fixed by the elementary rotation.  The rotating-function argument
    on the sphere predicts the empty list for p >= 2.  The census compares
    tau tuples and builds a type only for a hit.  A fixed tau has
    tau[1] = tau[0] + 1 (mod 2p), so that entry is compared first."""
    p = _check_size("p", p, 1)
    n = 2 * p
    return [InteriorType(p, tau) for tau in _matching_taus(p)
            if tau[1] == (tau[0] + 1) % n and _rotated_tau(tau, 1) == tau]


# ---------------------------------------------------------------------------
# boundary types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryType:
    """Involution on {arrow} + {1..2k-3}; position 0 stands for the arrow.

    tau[0] = a pairs the arrow with the boundary-bound arc at the ray a;
    the remaining rays pair up inside the blocks {1..a-1} and {a+1..2k-3}.
    Validated once, when constructed, as a non-crossing perfect matching of
    the rays 0..2k-3, which forces a odd and both blocks matched within.
    """
    k: int
    tau: tuple  # length 2k-2, index 0 = arrow

    def __post_init__(self):
        _store_count(self, "k", 3, 2)
        _raise_if(_matching_problems(self.tau))

    @property
    def a(self) -> int:
        return self.tau[0]

    @property
    def a_plus(self) -> int:
        """(a-1)/2: number of loops on the + side."""
        return (self.a - 1) // 2


def enumerate_boundary(k: int):
    """All valid BoundaryTypes for index 2k-3, lexicographically sorted by
    tau.  With the arrow as ray 0, a boundary type is a non-crossing
    matching of 2k-2 rays: the arrow pairs with the odd ray a, and K+ and
    K- are the blocks inside and after that loop.  So the count is
    Catalan(k-1), the sum over odd a of Catalan((a-1)/2) *
    Catalan((2k-3-a)/2)."""
    k = _check_size("k", k, 3)
    return [BoundaryType(k, tau) for tau in _matching_taus(k - 1)]


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Word:
    """Interval labels with no two equal neighbours; validated once, when
    constructed."""
    letters: tuple

    def __post_init__(self):
        _raise_if(["word %s: equal adjacent letters at %d" % (self, i)
                   for i in range(len(self.letters) - 1)
                   if self.letters[i] == self.letters[i + 1]])

    def __str__(self):
        return "".join(str(c) for c in self.letters)

    def __len__(self):
        return len(self.letters)


def boundary_words(t: BoundaryType):
    """(m_theta, m_zero, m_pi) for a boundary type.

    m_theta labels the 2k-2 intervals along the half-circle: intervals 1..a on
    the + side of the arc (labels 1..a_plus+1), intervals a+1..2k-2 on the -
    side (labels a_plus+2..k).  Interval j follows ray j-1 (the arrow is ray
    0), so m_theta is the matching's domain labeling, labeling_from_type's
    sweep: the arrow's loop is the + side's outer domain.  m_zero prepends
    the first - label (the arc has closed into a loop on the - side); m_pi
    appends the label 1.
    """
    m_theta = Word(_first_encounter(_innermost(t.tau)))
    m_zero = Word((t.a_plus + 2,) + m_theta.letters)
    m_pi = Word(m_theta.letters + (1,))
    return m_theta, m_zero, m_pi


def first_repeat(w: Word) -> int:
    """min{j >= 2 : letter_j = letter_1}, 1-based."""
    if not w.letters:
        raise NoRepeat("empty word")
    for j in range(1, len(w.letters)):
        if w.letters[j] == w.letters[0]:
            return j + 1
    raise NoRepeat("first letter of %s never recurs" % w)


@dataclass(frozen=True)
class RotatingLimitReport:
    boundary_type: BoundaryType
    m_theta: Word
    m_zero: Word
    m_pi: Word
    pos_zero: int          # structural position 4+|p+| = a+2 (also the literal scan)
    pos_pi: int            # structural position 2+|p+| = a
    scan_zero: int         # literal first_repeat of m_zero
    scan_pi: int           # literal first_repeat of m_pi
    passed: bool


def rotating_limit_check(t: BoundaryType) -> RotatingLimitReport:
    """Mechanize the endpoint contradiction of the rotating-function argument.

    The two limit words m^(0) and m^(pi) describe the same nodal pattern read
    with an extra interval merged at either end; their structural first-repeat
    positions are a+2 and a, always two apart, and their literal first-repeat
    scans always differ (scan(m_zero) = a+2 exactly, while scan(m_pi) <= a for
    a >= 3 and = 2k-1 for a = 1).  Distinct positions = distinct patterns.
    """
    m_theta, m_zero, m_pi = boundary_words(t)
    a = t.a
    pos_zero, pos_pi = a + 2, a
    scan_zero = first_repeat(m_zero)
    scan_pi = first_repeat(m_pi)
    passed = scan_zero != scan_pi and scan_zero == pos_zero
    return RotatingLimitReport(t, m_theta, m_zero, m_pi,
                               pos_zero, pos_pi, scan_zero, scan_pi, passed)


def canonical_word(w: Word) -> Word:
    """Renumber letters in first-occurrence order (label-bijection canonical form)."""
    return Word(_first_encounter(w.letters))


def compare_patterns(w_left: Word, w_right: Word):
    """('equal', None) or ('distinct', witness string)."""
    if len(w_left) != len(w_right):
        return "distinct", "lengths %d vs %d" % (len(w_left), len(w_right))
    try:
        fl, fr = first_repeat(w_left), first_repeat(w_right)
        if fl != fr:
            return "distinct", "first_repeat %d vs %d" % (fl, fr)
    except NoRepeat:
        pass
    cl, cr = canonical_word(w_left), canonical_word(w_right)
    if cl != cr:
        return "distinct", "no label bijection: canonical %s vs %s" % (cl, cr)
    return "equal", None


# ---------------------------------------------------------------------------
# 2-row matrix text format
# ---------------------------------------------------------------------------

def format_tau_text(t) -> str:
    """Two-row matrix: first row ray indices, second row images; a boundary
    type's arrow, ray 0, is written 'v'."""
    if not isinstance(t, (InteriorType, BoundaryType)):
        raise InvalidType("not a type: %r" % (t,))
    zero = "v" if isinstance(t, BoundaryType) else "0"
    top = [str(j) if j else zero for j in range(len(t.tau))]
    bot = [str(x) if x else zero for x in t.tau]
    width = max(len(s) for s in top + bot)
    fmt = "%%%ds" % width
    return " ".join(fmt % s for s in top) + "\n" + " ".join(fmt % s for s in bot) + "\n"


def parse_tau_text(text: str):
    """Parse the 2-row matrix format: rays are 0-based and an arrow token
    stands for ray 0.  Returns a BoundaryType when an arrow token appears,
    else an InteriorType.  InvalidType names a token that is neither an
    integer, spelled as str(n) spells it (not "+1", "01", "1_0" or "-0"),
    nor an arrow.
    """
    rows = [line.split() for line in text.strip().splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    if len(rows) != 2 or len(rows[0]) != len(rows[1]):
        raise InvalidType("expected two rows of equal length")

    def ray(tok):
        n = 0 if tok.lower() in ARROW_TOKENS else _decimal(tok)
        if n is None:
            raise InvalidType("ray token %.40r is neither an integer nor an "
                              "arrow" % tok)
        return n

    idx, img = ([ray(tok) for tok in row] for row in rows)
    n = len(idx)
    if sorted(idx) != list(range(n)):
        raise InvalidType("first row must list rays 0..%d" % (n - 1))
    tau = [0] * n
    for i, j in zip(idx, img):
        tau[i] = j
    if any(tok.lower() in ARROW_TOKENS for tok in rows[0] + rows[1]):
        return BoundaryType((n + 2) // 2, tuple(tau))
    return InteriorType(n // 2, tuple(tau))
