"""Per-layer spans and counters, recorded from outside the program.

The tracer replaces public functions and methods of the ``ellink`` modules
with wrappers that time each call and count it.  A function is replaced
under every module-level name that binds it (``efun`` imports
``theta.theta`` as ``_theta_product``, ``identities`` as ``theta``), so
calls through any binding are seen.  ``restore`` puts the originals back.

A span's self time is its duration minus the time of the spans it
encloses; self time is summed per layer (the module the function lives
in).  Inclusive time is summed per metric key, counting only the outermost
of nested calls with the same key.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

LAYERS = ["theta", "typecalc", "linkpattern", "efun", "identities", "schubert", "cli"]

# (module, attribute path, metric key).  Every target must exist: ``install``
# raises if one is missing, so that a renamed function cannot make its
# counters read 0 while the traced run still passes.
TRACED = [
    ("theta", "theta", "theta"),
    ("theta", "delta", "theta.delta"),
    ("theta", "theta_normalized", "theta.other"),
    ("typecalc", "LinearForm.substitute", "typecalc.substitute"),
    ("typecalc", "LinearForm.x_permute", "typecalc.other"),
    ("typecalc", "QForm.__add__", "typecalc.qform"),
    ("typecalc", "QForm.__sub__", "typecalc.qform"),
    ("typecalc", "QForm.x_permute", "typecalc.qform"),
    ("typecalc", "QForm.mu_permute", "typecalc.qform"),
    ("typecalc", "QForm.substitute", "typecalc.qform"),
    ("typecalc", "QForm.__neg__", "typecalc.other"),
    ("typecalc", "qf_of_theta", "typecalc.other"),
    ("typecalc", "qf_of_delta", "typecalc.other"),
    ("typecalc", "divided_difference", "typecalc.other"),
    ("typecalc", "decompose_type", "typecalc.other"),
    ("typecalc", "admissible_mu", "typecalc.admissible_mu"),
    ("linkpattern", "OrbitLattice.__init__", "linkpattern.lattice"),
    ("linkpattern", "minimal_presentation", "linkpattern.presentation"),
    ("linkpattern", "all_minimal_presentations", "linkpattern.presentation"),
    ("linkpattern", "parse_pattern", "linkpattern.other"),
    ("linkpattern", "format_pattern", "linkpattern.other"),
    ("linkpattern", "nu_list", "linkpattern.other"),
    ("linkpattern", "act_nodes", "linkpattern.other"),
    ("efun", "ell_class_from_presentation", "efun.build"),
    ("efun", "mu_permuted", "efun.twist"),
    ("efun", "push_permutations", "efun.rewrite"),
    ("efun", "substitute_symbols", "efun.rewrite"),
    ("efun", "expand_deltas", "efun.rewrite"),
    ("efun", "distribute_products", "efun.rewrite"),
    ("efun", "cancel_theta_pairs", "efun.rewrite"),
    ("efun", "efun_reciprocal", "efun.rewrite"),
    ("efun", "evaluate", "efun.eval"),
    ("efun", "evaluate_many", "efun.eval"),
    ("efun", "sample_agreement", "efun.other"),
    ("schubert", "reduced_class", "schubert.reduced_class"),
    ("schubert", "restrict_fixed_point", "schubert.restrict"),
    ("schubert", "restrict_weight", "schubert.restrict"),
    ("schubert", "weight_function", "schubert.weight_function"),
    ("schubert", "eu_ell_M", "schubert.other"),
    ("schubert", "eu_ell_Fl", "schubert.other"),
    ("schubert", "b_class", "schubert.other"),
    ("cli", "main", "cli.request"),
    ("cli", "_sample_values", "cli.sample"),
    ("cli", "_emit", "cli.emit"),
    ("cli", "cmd_compute", "cli.other"),
    ("cli", "cmd_verify", "cli.other"),
    ("cli", "cmd_restrict", "cli.other"),
    ("cli", "cmd_weights", "cli.other"),
]


class MissingTarget(RuntimeError):
    """A function the tracer must wrap is not in the program."""


def _children(node):
    kids = getattr(node, "children", None)
    if kids is not None:
        return kids
    child = getattr(node, "child", None)
    return () if child is None else (child,)


def count_nodes(root) -> tuple[int, int]:
    """(unique nodes, nodes of the unfolded tree) of an expression DAG."""
    tree: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in tree:
            continue
        kids = _children(node)
        if expanded or not kids:
            tree[id(node)] = 1 + sum(tree[id(k)] for k in kids)
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in tree)
    return len(tree), tree[id(root)]


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer: str, key: str, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[key] += 1
            frame = [0.0]
            tracer._stack.append(frame)
            tracer._depth[key] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[key] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer._depth[key] -= 1
                if not tracer._depth[key]:
                    tracer.seconds[key] += dt
                tracer.self_seconds[layer] += dt - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += dt
            if on_result is not None:
                on_result(result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def _rebind(self, original, wrapper):
        """Replace ``original`` under every ellink module-level name."""
        for name, mod in list(sys.modules.items()):
            if name != "ellink" and not name.startswith("ellink."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        """Wrap every target.  Raises MissingTarget, patching nothing, if
        one of them is not in the program."""
        import ellink.cli  # noqa: F401  (loads every layer)

        hooks = {
            "OrbitLattice.__init__": self._on_lattice,
            "ell_class_from_presentation": self._on_build,
            "distribute_products": self._on_distribute,
        }
        targets = []
        for mod_name, path, key in TRACED:
            mod = sys.modules[f"ellink.{mod_name}"]
            owner_name, _, attr = path.rpartition(".")
            try:
                owner = getattr(mod, owner_name) if owner_name else mod
                targets.append((owner_name, owner, attr, getattr(owner, attr), mod_name, key, path))
            except AttributeError:
                raise MissingTarget(f"ellink.{mod_name}.{path}") from None
        try:
            suites = sys.modules["ellink.identities"].SUITES
        except AttributeError:
            raise MissingTarget("ellink.identities.SUITES") from None
        for owner_name, owner, attr, fn, mod_name, key, path in targets:
            wrapper = self._wrap(fn, mod_name, key, hooks.get(path))
            if owner_name:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                self._rebind(fn, wrapper)
        for name, fn in list(suites.items()):
            self._patches.append((suites, name, fn))
            suites[name] = self._wrap(fn, "identities", f"identities.{name}")

    def restore(self):
        for owner, attr, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._patches.clear()

    # -- structural counters ----------------------------------------------

    def _on_lattice(self, result, args):
        lattice = args[0]
        self.counts[f"linkpattern.lattice.size.{lattice.m}_{lattice.r}"] = len(lattice.dist)

    def _on_build(self, result, args):
        unique, tree = count_nodes(result.node)
        self.counts["efun.nodes_unique"] += unique
        self.counts["efun.nodes_tree"] += tree

    def _on_distribute(self, result, args):
        node = result.node
        self.counts["schubert.terms"] += len(node.children) if type(node).__name__ == "Sum" else 1
