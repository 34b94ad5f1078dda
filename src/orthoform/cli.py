"""Command line front end.

Two subcommands: ``decompose`` reads a form from a small text format, runs
one of the two decomposition algorithms plus optional post-passes, and
prints the result as text or JSON; ``gen`` writes a random form in the same
format, so the two compose through a pipe or a temp file.

Input format, line oriented, ``#`` starts a comment anywhere::

    ring gfp 7          # also: gfp2 3 | rational | quaternion
    sigma identity      # optional; frobenius on gfp2, conj on quaternions
    s +1                # +1 | -1 | auto (default auto: read off the matrix)
    dim 3
    1 2 0
    2 5 0
    0 0 3

Exit codes: 0 on success (and verification pass when requested), 1 when
``--verify`` fails, 2 on any input problem (one that is not UTF-8 text or is
too large to fit in memory included) and when the output cannot be written
(a closed pipe, a full disk).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, TextIO

from .blocks import check_strassen_cutoff, decompose_blocks
from .form import HermitianForm, detect_s_sigma, random_form
from .gs import Decomposition, ScalarBlock, decompose_gs
from .matrix import Matrix
from .postprocess import maximize_j_blocks, sort_blocks_canonical
from .rings import Ring, ring_from_spec
from .verify import check_decomposition, invariants_of


class InputFormatError(ValueError):
    """A malformed input file; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_sign(token: str, line_no: int = 0) -> object:
    if token in ("+1", "1"):
        return 1
    if token == "-1":
        return -1
    if token == "auto":
        return "auto"
    raise InputFormatError(line_no, f"sign must be +1, -1 or auto, got {token!r}")


def parse_form_file(text: str) -> tuple[Ring, object, Matrix]:
    """Parse the text format into (ring, sign spec, matrix).

    The sign spec is +1, -1, or the string "auto"; resolving "auto" against
    the matrix is the caller's job.  Raises InputFormatError with a line
    number on any malformed line.  The parse is the validation: every row
    has dim entries and ring.parse returns canonical scalars, so the matrix
    is built without a second pass over its entries.
    """
    ring: Optional[Ring] = None
    ring_args: tuple = ()
    sigma: Optional[str] = None
    sign: object = "auto"
    dim: Optional[int] = None
    rows: list[list] = []
    rows_done = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if dim is None:
            head = tokens[0]
            if head == "ring":
                if len(tokens) == 2:
                    ring_args = (tokens[1], None)
                elif len(tokens) == 3:
                    try:
                        ring_args = (tokens[1], int(tokens[2]))
                    except ValueError:
                        raise InputFormatError(line_no, f"ring modulus {tokens[2]!r} is not an integer")
                else:
                    raise InputFormatError(line_no, "ring takes a kind and an optional modulus")
            elif head == "sigma":
                if len(tokens) != 2:
                    raise InputFormatError(line_no, "sigma takes exactly one name")
                sigma = tokens[1]
            elif head == "s":
                if len(tokens) != 2:
                    raise InputFormatError(line_no, "s takes exactly one of +1, -1, auto")
                sign = _parse_sign(tokens[1], line_no)
            elif head == "dim":
                if len(tokens) != 2:
                    raise InputFormatError(line_no, "dim takes exactly one integer")
                try:
                    dim = int(tokens[1])
                except ValueError:
                    raise InputFormatError(line_no, f"dim {tokens[1]!r} is not an integer")
                if dim < 0:
                    raise InputFormatError(line_no, "dim must be nonnegative")
                if not ring_args:
                    raise InputFormatError(line_no, "ring must be declared before dim")
                try:
                    ring = ring_from_spec(ring_args[0], ring_args[1], sigma)
                except ValueError as exc:
                    raise InputFormatError(line_no, str(exc))
            else:
                raise InputFormatError(line_no, f"unknown directive {head!r} (expected ring/sigma/s/dim)")
            continue
        if rows_done:
            raise InputFormatError(line_no, "content after the last matrix row")
        assert ring is not None
        if len(tokens) != dim:
            raise InputFormatError(line_no, f"expected {dim} entries, got {len(tokens)}")
        row = []
        for col, token in enumerate(tokens):
            try:
                row.append(ring.parse(token))
            except ValueError as exc:
                raise InputFormatError(line_no, f"column {col}: {exc}")
        rows.append(row)
        if len(rows) == dim:
            rows_done = True
    if dim is None:
        raise InputFormatError(0, "missing dim declaration")
    if len(rows) != dim:
        raise InputFormatError(0, f"expected {dim} matrix rows, found {len(rows)}")
    assert ring is not None
    return ring, sign, Matrix(ring, rows, validate=False)


def format_form_file(ring: Ring, s: int, matrix: Matrix) -> str:
    """Render (ring, sign, matrix) in the format parse_form_file reads."""
    lines = [f"ring {ring.kind}" + (f" {ring.p}" if hasattr(ring, "p") else "")]
    lines.append(f"sigma {ring.involution}")
    lines.append(f"s {'+1' if s == 1 else '-1'}")
    lines.append(f"dim {matrix.nrows}")
    for row in matrix.rows:
        lines.append(" ".join(ring.format(v) for v in row))
    return "\n".join(lines) + "\n"


def _resolve_sign(matrix: Matrix, sign: object, notes: list[str]) -> int:
    if sign != "auto":
        return int(sign)  # type: ignore[arg-type]
    s = detect_s_sigma(matrix)
    if s is None:
        notes.append("zero matrix: sign is undetermined, using s = +1")
        return 1
    notes.append(f"detected s = {'+1' if s == 1 else '-1'}")
    return s


def _block_entries(ring: Ring, s: int, block) -> list[list[str]]:
    if isinstance(block, ScalarBlock):
        return [[ring.format(block.value)]]
    one, zero = ring.format(ring.one), ring.format(ring.zero)
    return [[zero, one], [ring.format(ring.apply_sign(s, ring.one)), zero]]


def _emit_json(
    args: argparse.Namespace,
    dec: Decomposition,
    transform: Optional[object],
    verification,
    out: TextIO,
) -> None:
    ring = dec.ring
    inv = invariants_of(dec)
    payload = {
        "schema_version": 1,
        "ring": {
            "kind": ring.kind,
            "param": getattr(ring, "p", None),
            "sigma": ring.involution,
        },
        "s": dec.s,
        "dim": dec.dim,
        "algo": args.algo,
        "radical_dim": dec.radical_dim,
        "blocks": [
            {"size": b.size, "entries": _block_entries(ring, dec.s, b)} for b in dec.blocks
        ],
        "transform": transform,
        "counters": dec.counters.as_dict() if args.count_ops else None,
        "verification": verification.as_dict() if verification is not None else None,
        "invariants": {
            "rank": inv.rank,
            "radical_dim": inv.radical_dim,
            "j_blocks": inv.j_blocks,
            "square_classes": list(inv.square_classes) if inv.square_classes else None,
        },
    }
    json.dump(payload, out, indent=2)
    out.write("\n")


def _emit_text(
    args: argparse.Namespace,
    dec: Decomposition,
    transform: Optional[object],
    verification,
    notes: list[str],
    out: TextIO,
) -> None:
    ring = dec.ring
    for note in notes:
        out.write(f"note: {note}\n")
    param = f" {ring.p}" if hasattr(ring, "p") else ""
    out.write(f"ring {ring.kind}{param}, sigma {ring.involution}, s {'+1' if dec.s == 1 else '-1'}\n")
    out.write(f"dim {dec.dim}, radical {dec.radical_dim}, algorithm {args.algo}\n")
    out.write(f"blocks ({len(dec.blocks)}):\n")
    for b in dec.blocks:
        entries = _block_entries(ring, dec.s, b)
        out.write("  " + "; ".join(" ".join(row) for row in entries) + "\n")
    if transform is not None:
        out.write("transform:\n")
        if args.emit_transform == "matrix":
            for row in transform:
                out.write("  " + " ".join(row) + "\n")
        else:
            for line in transform:
                out.write("  " + line + "\n")
    if args.count_ops:
        pairs = dec.counters.as_dict()
        out.write("counters: " + " ".join(f"{k}={v}" for k, v in pairs.items()) + "\n")
    if verification is not None:
        out.write(f"verification: {'PASS' if verification.passed else 'FAIL'}\n")
        for detail in verification.details:
            out.write(f"  {detail}\n")


def _cmd_decompose(args: argparse.Namespace) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    notes: list[str] = []
    try:
        check_strassen_cutoff(args.strassen_cutoff)
        ring, sign, matrix = parse_form_file(text)
        s = _resolve_sign(matrix, sign, notes)
        form = HermitianForm(ring, matrix.copy(), s)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.algo == "gs":
            dec = decompose_gs(form)
        else:
            dec = decompose_blocks(form, strassen_cutoff=args.strassen_cutoff)
        if args.post == "maxj":
            dec = maximize_j_blocks(dec)
        elif args.post == "sort":
            dec = sort_blocks_canonical(dec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    transform: Optional[object] = None
    if args.emit_transform == "matrix":
        materialized = dec.log.materialize(ring)
        transform = [[ring.format(v) for v in row] for row in materialized.rows]
    elif args.emit_transform == "slp":
        transform = dec.log.slp_lines(ring)
    verification = check_decomposition(matrix, s, dec) if args.verify else None
    out = sys.stdout
    if args.json:
        _emit_json(args, dec, transform, verification, out)
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
    else:
        _emit_text(args, dec, transform, verification, notes, out)
    if verification is not None and not verification.passed:
        return 1
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    import random

    kind, _, param = args.ring.partition(":")
    try:
        ring = ring_from_spec(kind, int(param) if param else None, args.sigma)
        s = _parse_sign(args.s)
        if s == "auto":
            raise ValueError("gen needs a concrete sign, +1 or -1")
        rng = random.Random(args.seed)
        form = random_form(ring, s, args.dim, rng, rank=args.rank)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = format_form_file(ring, s, form.m)
    if args.out == "-":
        sys.stdout.write(rendered)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthoform",
        description="Orthogonal decomposition of symmetric, alternating and hermitian forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="decompose a form read from a file")
    dec.add_argument("--input", required=True, help="path of the form file")
    dec.add_argument("--algo", choices=["gs", "blocks"], default="gs")
    dec.add_argument(
        "--strassen-cutoff",
        type=int,
        default=0,
        metavar="N",
        help="block algorithm only; 0 means classical products throughout",
    )
    dec.add_argument("--post", choices=["none", "maxj", "sort"], default="none")
    dec.add_argument("--emit-transform", choices=["none", "matrix", "slp"], default="none")
    dec.add_argument("--count-ops", action="store_true", help="include operation counters")
    dec.add_argument("--verify", action="store_true", help="re-check the result independently")
    dec.add_argument("--json", action="store_true", help="machine readable output")
    dec.set_defaults(func=_cmd_decompose)

    gen = sub.add_parser("gen", help="generate a random form file")
    gen.add_argument("--ring", required=True, help="kind[:param], e.g. gfp:7, gfp2:3, rational, quaternion")
    gen.add_argument("--sigma", default=None, help="involution name; defaults to the ring's natural one")
    gen.add_argument("--s", default="+1", help="+1 or -1")
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--rank", type=int, default=None, help="target rank; defaults to a dense sample")
    gen.add_argument("--out", default="-", help="output path, - for stdout")
    gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except MemoryError:
        print("error: out of memory: the input is too large", file=sys.stderr)
        return 2
    except OSError as exc:
        # The subcommands report a failed read of --input or write of --out
        # themselves, so this is stdout failing: a closed pipe or a full disk.
        # What it still buffers would fail again in the interpreter's flush
        # at exit, so its descriptor is pointed at the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
