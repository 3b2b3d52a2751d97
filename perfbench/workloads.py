"""The benchmark workloads, run inside a worker process.

Each workload is a closed loop: one client in one process, no threads, the
next call issued when the previous one returns.  A workload has

  setup(seed, stream, scratch) -> state; everything before the first
                       timed call; `stream` numbers the measuring processes
                       of a run, so that each can draw its own inputs
  one_pass(state)      -> Pass; the fixed work, timed call by call
  gate(state)          -> list of error strings; outside the timed region

A worker process sets up once and then times exactly one pass, so that
nothing a pass leaves behind (a memo on an instance or at module level, a
warm allocator) reaches another timed pass.  A run uses at least `procs`
such processes; `setup_samples` is the least number of set-ups timed per
run.

Library calls go through module attributes at call time, so that wrappers
installed by `tracing.Tracer` see them.
"""

import json
import os
import random
import sys
import time
from itertools import product

clock = time.perf_counter

CHECK_COUNT = 13


class Pass(object):
    """Timing and outcome of one pass over a workload's fixed work."""

    def __init__(self):
        self.wall_s = 0.0
        self.latencies_s = []
        self.attempted = 0
        self.failed = 0
        self.errors = []


def _fail(p, msg):
    p.failed += 1
    if len(p.errors) < 5:
        p.errors.append(msg)


# -- verify-all ---------------------------------------------------------------

class VerifyAll(object):
    """`qlattice verify --suite all`, one fresh process per pass."""

    name = "verify-all"
    procs = 2
    setup_samples = 11
    # report fields pinned by the paper's headline counts
    PINNED = [
        ("completion-zprime2", ("elements",), 9),
        ("completion-zprime2", ("hidden",), 4),
        ("bell", ("real_states_scanned",), 113),
        ("contextuality", ("zprime2", "states"), 9),
        ("simplex-tensor", ("bool_pair_size",), 15),
    ]

    def setup(self, seed, stream, scratch):
        import qlattice.cli  # noqa: F401  (the import is the set-up)
        return {"report": os.path.join(scratch, "verify-%d.json"
                                       % os.getpid())}

    def one_pass(self, state):
        import qlattice.cli
        p = Pass()
        argv = sys.argv
        sys.argv = ["qlattice", "verify", "--suite", "all",
                    "--out", state["report"]]
        code = 0
        t0 = clock()
        try:
            qlattice.cli.main()
        except SystemExit as exc:
            code = exc.code
        finally:
            p.wall_s = clock() - t0
            sys.argv = argv
        p.latencies_s.append(p.wall_s)
        p.attempted = CHECK_COUNT
        state["exit"] = code
        state["pass"] = p
        return p

    def gate(self, state):
        p = state["pass"]
        errors = []
        try:
            with open(state["report"]) as fh:
                report = json.load(fh)
            os.remove(state["report"])
        except (OSError, ValueError) as exc:
            p.failed = p.attempted
            return ["no verify report: %s" % exc]
        checks = report.get("checks", {})
        bad = set()
        if len(checks) != CHECK_COUNT:
            errors.append("report has %d checks" % len(checks))
        for slug, check in sorted(checks.items()):
            if check.get("pass") is not True:
                bad.add(slug)
                errors.append("check %s failed" % slug)
        for slug, path, want in self.PINNED:
            got = checks.get(slug, {})
            for key in path:
                got = got.get(key) if isinstance(got, dict) else None
            if got != want:
                bad.add(slug)
                errors.append("%s %s = %r, expected %r"
                              % (slug, ".".join(path), got, want))
        if state["exit"] != 0:
            errors.append("exit code %r" % state["exit"])
        p.failed = max(len(bad), CHECK_COUNT - len(checks))
        if state["exit"] != 0 and not p.failed:
            p.failed = CHECK_COUNT
        return errors


# -- query-mix ---------------------------------------------------------------

class _Order(object):
    """Brute-force order oracles over a StateSpace's leq matrix, with up-
    and down-sets as int bitmasks."""

    def __init__(self, space):
        leq = space.leq
        n = space.n
        self.n = n
        self.up = [sum(1 << j for j in range(n) if leq[i, j])
                   for i in range(n)]
        self.down = [sum(1 << i for i in range(n) if leq[i, j])
                     for j in range(n)]

    @staticmethod
    def _ids(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def _and(self, masks, ids):
        out = (1 << self.n) - 1
        for i in ids:
            out &= masks[i]
        return out

    def lub(self, ids):
        """Least upper bound, or None when there is no common upper bound
        or no least one."""
        ubs = self._and(self.up, ids)
        for c in self._ids(ubs):
            if ubs & ~self.up[c] == 0:
                return c
        return None

    def glb(self, ids):
        lbs = self._and(self.down, ids)
        for c in self._ids(lbs):
            if lbs & ~self.down[c] == 0:
                return c
        return None

    def closure(self, members):
        """Iterated pre-closure: the maximal z that are the least upper
        bound of their own trace below the set, to a fixed point."""
        current = tuple(sorted(set(members)))
        for _ in range(self.n + 1):
            below = 0
            for u in current:
                below |= self.down[u]
            fixed = [z for z in range(self.n)
                     if self.lub(self._ids(below & self.down[z])) == z]
            fixed_mask = sum(1 << z for z in fixed)
            nxt = tuple(z for z in fixed
                        if fixed_mask & self.up[z] == 1 << z)
            if nxt == current:
                return current
            current = nxt
        return None


# A state of the fourfold boolean simplex power is a mask over the pure
# tuples of {Y, N}^4 in product order; its four pair marginals (phi13,
# phi14, phi23, phi24) are 4-bit masks over {Y, N}^2, bit 2a + b for (a, b).
_TUPLES = list(product((0, 1), repeat=4))
_MARGINALS = [(0, 2), (0, 3), (1, 2), (1, 3)]


def _scan_table():
    """For every marginal quadruple of a state, the smallest state mask
    producing it, keyed by the four 4-bit marginals packed low to high."""
    import numpy as np
    masks = np.arange(1, 1 << len(_TUPLES), dtype=np.int64)
    key = np.zeros(len(masks), dtype=np.int64)
    for slot, (i, j) in enumerate(_MARGINALS):
        proj = np.zeros(len(masks), dtype=np.int64)
        for t, tup in enumerate(_TUPLES):
            proj |= ((masks >> t) & 1) << (2 * tup[i] + tup[j])
        key |= proj << (4 * slot)
    best = {}
    for k, m in zip(key.tolist(), masks.tolist()):
        if k not in best:
            best[k] = m
    return best


def _apportion(total, weights):
    """`total` sizes 1, 2, ... in the shares of `weights`."""
    out, done, acc = [], 0, 0
    for size, w in enumerate(weights, 1):
        acc += w
        upto = round(total * acc / sum(weights))
        out += [size] * (upto - done)
        done = upto
    return out


class QueryMix(object):
    """A seeded stream of library reads on a prebuilt Z2⊗Z2 tensor, its
    completion and the boolean tensor square."""

    name = "query-mix"
    procs = 3
    setup_samples = 3
    # (kind, calls in one pass, calls among them that re-use an input of
    # an earlier call, weights of input sizes 1, 2, ...).  These are the
    # read calls that one run of `qlattice verify --suite all` makes outside
    # any other of these calls and outside any completion or tensor build,
    # counted on commit c390eba.  Sizes stop at the largest size listed.
    MIX = [("closure", 3025, 1651, (712, 348, 363, 421, 271, 184)),
           ("sharpening", 6119, 4845, (1, 5968, 60, 90)),
           ("join", 81, 0, None),
           ("index_of", 1349, 504, (122, 472, 609, 64)),
           ("meet", 4, 0, None),
           ("lambda_search", 114, 0, None)]
    GATE_SAMPLES = 150

    def setup(self, seed, stream, scratch):
        from qlattice import realspaces, tensor, ontic
        z2 = realspaces.spin_space(2)
        ts = tensor.build_tensor(z2, z2)
        comp = ontic.build_completion(ts.real_space)
        brs = realspaces.bool_real_space()
        bb = tensor.build_tensor(brs, brs)
        state = {"seed": "%d/%d" % (seed, stream), "ts": ts, "comp": comp,
                 "bb": bb}
        state["calls"] = self.stream(state)
        rng = random.Random("%s/gate" % state["seed"])
        state["sample"] = sorted(rng.sample(range(len(state["calls"])),
                                            self.GATE_SAMPLES))
        return state

    def _bb_masks(self, bb):
        """bb element -> 4-bit pure-pair mask, and back."""
        to_mask = {}
        for idx in range(len(bb)):
            m = 0
            for k in bb.cover_set(idx):
                a, b = bb.pure_pairs[k]
                m |= 1 << (2 * a + b)
            to_mask[idx] = m
        return to_mask, {m: idx for idx, m in to_mask.items()}

    def stream(self, state):
        """The calls of one pass as (op, args), from the seed."""
        ts, comp, bb = state["ts"], state["comp"], state["bb"]
        rng = random.Random("%s/stream" % state["seed"])
        reals = [i for i in range(len(ts)) if i != ts.space.bottom]
        _, from_mask = self._bb_masks(bb)

        def marginals():
            # the marginals of a random global state: in the suite, 113 of
            # the 114 searches have a solution
            state_mask = rng.randrange(1, 1 << len(_TUPLES))
            out = []
            for i, j in _MARGINALS:
                m = 0
                for t, tup in enumerate(_TUPLES):
                    if state_mask >> t & 1:
                        m |= 1 << (2 * tup[i] + tup[j])
                out.append(from_mask[m])
            return out

        fresh = {
            "closure": lambda k: (ts.space, rng.sample(reals, k)),
            "sharpening": lambda k: (rng.sample(reals, k),),
            "join": lambda k: tuple(rng.sample(range(len(comp)), 2)),
            "index_of": lambda k: (rng.sample(ts.pure_pairs, k),),
            "meet": lambda k: tuple(rng.sample(range(len(ts)), 2)),
            "lambda_search": lambda k: marginals(),
        }
        inputs = {}
        for op, count, repeats, weights in self.MIX:
            distinct = count - repeats
            # input sizes in the exact shares of the weights, and each
            # distinct input used equally often, so that the pass's make-up
            # does not depend on the seed
            sizes = _apportion(distinct, weights or (1,))
            rng.shuffle(sizes)
            made = [fresh[op](k) for k in sizes]
            seq = [made[i % distinct] for i in range(count)]
            rng.shuffle(seq)
            inputs[op] = iter(seq)
        order = [op for op, count, _, _ in self.MIX for _ in range(count)]
        rng.shuffle(order)
        return [(op, next(inputs[op])) for op in order]

    def _functions(self, ts, comp, bb):
        from qlattice import ontic, quantum
        return {
            "closure": lambda space, members: ontic.closure(space, members),
            "sharpening": comp.sharpening,
            "join": comp.join,
            "index_of": ts.index_of,
            "meet": ts.meet,
            "lambda_search": lambda a, b, c, d: quantum.lambda_search(
                a, b, c, d, bb=bb),
        }

    def one_pass(self, state):
        fns = self._functions(state["ts"], state["comp"], state["bb"])
        p = Pass()
        lat = p.latencies_s
        results = []
        t_pass = clock()
        for op, args in state["calls"]:
            fn = fns[op]
            t0 = clock()
            try:
                results.append(fn(*args))
            except Exception as exc:
                lat.append(clock() - t0)
                results.append(exc)
                _fail(p, "%s%r raised %r" % (op, args, exc))
                continue
            lat.append(clock() - t0)
        p.wall_s = clock() - t_pass
        p.attempted = len(state["calls"])
        state["pass"] = p
        state["results"] = [results[i] for i in state["sample"]]
        return p

    def gate(self, state):
        """Re-check the sampled answers with oracles computed from leq."""
        ts, comp, bb = state["ts"], state["comp"], state["bb"]
        t_order = _Order(ts.space)
        c_order = _Order(comp.space)
        real_in_comp = {r: comp.space.index(ts.space.names[r])
                        for r in range(len(ts)) if r != ts.space.bottom}
        to_mask, _ = self._bb_masks(bb)
        table = _scan_table()
        errors = []
        for n, i in enumerate(state["sample"]):
            op, args = state["calls"][i]
            if op == "closure":
                want = t_order.closure(args[1])
            elif op == "sharpening":
                want = c_order.lub([real_in_comp[r] for r in args[0]])
            elif op == "join":
                want = c_order.lub(args)
            elif op == "index_of":
                want = t_order.glb([ts.pure_tensor(a, b) for a, b in args[0]])
            elif op == "meet":
                want = t_order.glb(args)
            else:
                key = sum(to_mask[m] << (4 * slot)
                          for slot, m in enumerate(args))
                want = table.get(key)
            got = state["results"][n]
            if got != want and not isinstance(got, Exception):
                msg = "%s%r = %r, oracle %r" % (op, args, got, want)
                _fail(state["pass"], msg)
                errors.append(msg)
        return errors[:5]


WORKLOADS = {wl.name: wl for wl in (VerifyAll(), QueryMix())}
