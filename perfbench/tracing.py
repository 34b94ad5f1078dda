"""Traced runs: timing wrappers installed from outside the program.

`Tracer.install` replaces each public function named in TARGETS by a wrapper
in every orthoform module that holds it (a `from .matrix import row_axpy`
binding is patched in `form` as well as in `matrix`), and each traced method
on its class.  A wrapper records one span: name, start, end, the index of
the span that was open when it was called, and optional counts read at the
boundary.  Spans stay in memory; `layer_metrics` turns one pass's spans into
the per-module metrics.  Ring operations are not wrapped: they run millions
of times, so their counts come from `Decomposition.counters`.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("", ".rings", ".matrix", ".form", ".gs", ".blocks", ".postprocess", ".verify", ".cli")
COUNTERS = ("additions", "multiplications", "inversions", "equality_tests", "sigma_applications")


def _decomposition_counts(args, out, _):
    info = {k: getattr(out.counters, k, 0) for k in COUNTERS}
    info["log_ops"] = len(out.log)
    info["isotropic_steps"] = getattr(out, "isotropic_steps", 0)
    info["recursion_depth"] = getattr(out, "recursion_depth", 0)
    return info


def _log_len(args):
    return len(args[0].log)


def _log_growth(args, out, before):
    return {"log_ops": len(out.log) - before}


def _nkm(args, out, _):
    left, right = args[0], args[1]
    return {"nkm": left.nrows * left.ncols * right.ncols}


# (span name, module, attribute, class or None, before, after).  A class
# target patches the method on the class; a "cli." name patches the binding
# in orthoform.cli only; anything else patches every module holding it.
TARGETS = (
    ("matrix.row_axpy", ".matrix", "row_axpy", None, None, None),
    ("matrix.matmul_classical", ".matrix", "matmul_classical", None, None, _nkm),
    ("matrix.matmul_strassen", ".matrix", "matmul_strassen", None, None, None),
    ("matrix.left_row_reduce", ".matrix", "left_row_reduce", None, None, None),
    ("matrix.right_column_reduce", ".matrix", "right_column_reduce", None, None, None),
    ("matrix.invert", ".matrix", "invert", None, None, None),
    ("form.clear_row_column", ".form", "clear_row_column", "HermitianForm", None, None),
    ("form.transvect", ".form", "transvect", "HermitianForm", None, None),
    ("form.scale_row_column", ".form", "scale_row_column", "HermitianForm", None, None),
    ("form.swap_row_columns", ".form", "swap_row_columns", "HermitianForm", None, None),
    ("form.block_congruence", ".form", "block_congruence", "HermitianForm", None, None),
    ("form.materialize", ".form", "materialize", "TransformLog", None, None),
    ("form.slp_lines", ".form", "slp_lines", "TransformLog", None, None),
    ("form.check_declared_consistency", ".form", "check_declared_consistency", None, None, None),
    ("form.detect_s_sigma", ".form", "detect_s_sigma", None, None, None),
    ("gs.decompose_gs", ".gs", "decompose_gs", None, None, _decomposition_counts),
    ("gs.standardize_at", ".gs", "standardize_at", None, None, None),
    ("blocks.decompose_blocks", ".blocks", "decompose_blocks", None, None, _decomposition_counts),
    ("blocks.detect_radical", ".blocks", "detect_radical", None, None, None),
    ("postprocess.maximize_j_blocks", ".postprocess", "maximize_j_blocks", None, _log_len, _log_growth),
    ("postprocess.sort_blocks_canonical", ".postprocess", "sort_blocks_canonical", None, _log_len, _log_growth),
    ("verify.check_decomposition", ".verify", "check_decomposition", None, None, None),
    ("cli.main", ".cli", "main", None, None, None),
    ("cli.parse_form_file", ".cli", "parse_form_file", None, None, None),
    ("cli.HermitianForm", ".cli", "HermitianForm", None, None, None),
    ("cli.emit_json", ".cli", "_emit_json", None, None, None),
)

# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    [(f"rings.{algo}.{k}", "count") for algo in ("gs", "blocks") for k in COUNTERS]
    + [
        ("matrix.row_axpy.calls", "count"), ("matrix.row_axpy.s", "s"),
        ("matrix.matmul_classical.calls", "count"), ("matrix.matmul_classical.s", "s"),
        ("matrix.matmul_classical.nkm", "count"),
        ("matrix.matmul_strassen.calls", "count"), ("matrix.matmul_strassen.s", "s"),
        ("matrix.left_row_reduce.calls", "count"), ("matrix.left_row_reduce.s", "s"),
        ("matrix.right_column_reduce.calls", "count"), ("matrix.right_column_reduce.s", "s"),
        ("matrix.invert.calls", "count"), ("matrix.invert.s", "s"),
        ("form.clear_row_column.calls", "count"), ("form.clear_row_column.s", "s"),
        ("form.transvect.calls", "count"), ("form.transvect.s", "s"),
        ("form.scale_row_column.calls", "count"), ("form.swap_row_columns.calls", "count"),
        ("form.block_congruence.calls", "count"), ("form.block_congruence.s", "s"),
        ("form.materialize.s", "s"), ("form.slp_lines.s", "s"),
        ("form.log_ops.gs", "count"), ("form.log_ops.blocks", "count"),
        ("gs.standardize_at.calls", "count"), ("gs.standardize_at.s", "s"),
        ("gs.isotropic_steps", "count"),
        ("blocks.detect_radical.s", "s"),
        ("blocks.recursion.s", "s"), ("blocks.recursion_depth", "count"),
        ("blocks.isotropic_steps", "count"),
        ("postprocess.maximize_j_blocks.s", "s"), ("postprocess.sort_blocks_canonical.s", "s"),
        ("postprocess.log_ops", "count"),
        ("verify.materialize.s", "s"), ("verify.invertible.s", "s"),
        ("verify.congruence.s", "s"), ("verify.rank.s", "s"),
        ("cli.import.s", "s"), ("cli.parse.s", "s"), ("cli.validate.s", "s"),
        ("cli.decompose.s", "s"), ("cli.post.s", "s"), ("cli.verify.s", "s"),
        ("cli.emit.s", "s"),
        ("trace.overhead_s", "s"), ("trace.spans", "count"),
    ]
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, info]
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn, before, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            state = before(args) if before else None
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after:
                rec[4] = after(args, out, state)
            return out

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = [importlib.import_module("orthoform" + m) for m in MODULES]
        by_name = {m: mod for m, mod in zip(MODULES, mods)}
        for name, home, attr, cls, before, after in TARGETS:
            if cls is not None:
                owner = getattr(by_name[home], cls)
                if attr in vars(owner):
                    self._patch(owner, attr, self._wrap(name, vars(owner)[attr], before, after))
                continue
            original = getattr(by_name[home], attr, None)
            if original is None:
                continue  # absent in this version of the program: its metrics read 0
            wrapper = self._wrap(name, original, before, after)
            holders = [by_name[".cli"]] if name.startswith("cli.") else mods
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"], "spans": self.spans}, fh)


def layer_metrics(spans: list) -> dict:
    """Per-module metrics of one pass.  `.s` is self time (duration minus the
    time covered by child spans); `.calls` counts spans; counts read at a
    decomposition's boundary are summed over the library's own calls (spans
    with no parent), not the CLI's."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    under = defaultdict(float)  # (parent name, child name) -> summed duration
    counts = defaultdict(int)
    depth = 0
    for i, (name, _, _, parent, info) in enumerate(spans):
        calls[name] += 1
        self_s[name] += dur[i] - child[i]
        total_s[name] += dur[i]
        if parent >= 0:
            under[spans[parent][0], name] += dur[i]
        if info is None:
            continue
        if "nkm" in info:
            counts["nkm"] += info["nkm"]
        elif name.startswith("postprocess."):
            counts["post_log_ops"] += info["log_ops"]
        elif parent < 0:
            algo = "gs" if name == "gs.decompose_gs" else "blocks"
            for key in COUNTERS + ("log_ops", "isotropic_steps"):
                counts[f"{algo}.{key}"] += info[key]
            if algo == "blocks":
                depth = max(depth, info["recursion_depth"])

    def below(parent: str, *names: str) -> float:
        return sum(under[parent, n] for n in names)

    check = "verify.check_decomposition"
    clause = {
        "materialize": below(check, "form.materialize"),
        "invertible": below(check, "matrix.invert"),
        "rank": below(check, "matrix.left_row_reduce"),
    }
    clause["congruence"] = total_s[check] - sum(clause.values())
    main = "cli.main"
    values = {f"rings.{k}": counts[k] for k in (f"{a}.{c}" for a in ("gs", "blocks") for c in COUNTERS)}
    for fn in ("row_axpy", "matmul_classical", "matmul_strassen", "left_row_reduce",
               "right_column_reduce", "invert"):
        values[f"matrix.{fn}.calls"] = calls[f"matrix.{fn}"]
        values[f"matrix.{fn}.s"] = self_s[f"matrix.{fn}"]
    values["matrix.matmul_classical.nkm"] = counts["nkm"]
    for fn in ("clear_row_column", "transvect", "scale_row_column", "swap_row_columns",
               "block_congruence"):
        values[f"form.{fn}.calls"] = calls[f"form.{fn}"]
        values[f"form.{fn}.s"] = self_s[f"form.{fn}"]
    values["form.materialize.s"] = self_s["form.materialize"]
    values["form.slp_lines.s"] = self_s["form.slp_lines"]
    values["form.log_ops.gs"] = counts["gs.log_ops"]
    values["form.log_ops.blocks"] = counts["blocks.log_ops"]
    values["gs.standardize_at.calls"] = calls["gs.standardize_at"]
    values["gs.standardize_at.s"] = self_s["gs.standardize_at"]
    values["gs.isotropic_steps"] = counts["gs.isotropic_steps"]
    values["blocks.detect_radical.s"] = self_s["blocks.detect_radical"]
    values["blocks.recursion.s"] = self_s["blocks.decompose_blocks"]
    values["blocks.recursion_depth"] = depth
    values["blocks.isotropic_steps"] = counts["blocks.isotropic_steps"]
    values["postprocess.maximize_j_blocks.s"] = self_s["postprocess.maximize_j_blocks"]
    values["postprocess.sort_blocks_canonical.s"] = self_s["postprocess.sort_blocks_canonical"]
    values["postprocess.log_ops"] = counts["post_log_ops"]
    for k, v in clause.items():
        values[f"verify.{k}.s"] = v
    values["cli.parse.s"] = below(main, "cli.parse_form_file")
    values["cli.validate.s"] = below(
        main, "cli.HermitianForm", "form.check_declared_consistency", "form.detect_s_sigma"
    )
    values["cli.decompose.s"] = below(main, "gs.decompose_gs", "blocks.decompose_blocks")
    values["cli.post.s"] = below(
        main, "postprocess.maximize_j_blocks", "postprocess.sort_blocks_canonical"
    )
    values["cli.verify.s"] = below(main, check)
    values["cli.emit.s"] = below(main, "form.slp_lines", "form.materialize", "cli.emit_json")
    values["trace.spans"] = len(spans)
    return values
