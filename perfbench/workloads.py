"""The benchmark's workloads: which forms each one decomposes, and how they
are generated from the seed.

The make-up of a workload (rings, signs, dimensions, ranks, which forms go
through the CLI) is fixed; the seed only chooses the matrix entries, so runs
with different seeds do the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Spec:
    kind: str
    param: Optional[int]
    sigma: Optional[str]
    s: int
    dim: int
    rank: Optional[int] = None  # None: a dense random form

    @property
    def post(self) -> str:
        """The CLI post-pass: canonical sorting where it is defined, else J merging."""
        odd_prime = self.kind == "gfp" and self.param != 2
        return "sort" if odd_prime and self.sigma in (None, "identity") else "maxj"

    def label(self) -> str:
        ring = self.kind + (str(self.param) if self.param else "")
        tail = f"r{self.rank}" if self.rank is not None else "dense"
        return f"{ring}{'+' if self.s == 1 else '-'}d{self.dim}{tail}"


@dataclass(frozen=True)
class Workload:
    forms: tuple  # Specs run through the library calls
    cli: tuple  # (index into forms, algo) run through the CLI


GF1009 = ("gfp", 1009, None)
GF9 = ("gfp2", 3, "frobenius")


def _small_sweep() -> Workload:
    # The rings and dimension ranges of the acceptance sweep, plus GF(2);
    # every dimension once dense and once at about half rank.
    configs = [
        (("gfp", 101, None), 1, range(1, 17)),
        (("gfp", 101, None), -1, range(1, 17)),
        (GF9, 1, range(1, 17)),
        (("gfp", 2, None), 1, range(1, 17)),
        (("rational", None, None), 1, range(1, 13)),
        (("rational", None, None), -1, range(1, 13)),
        (("quaternion", None, None), 1, range(1, 9)),
    ]
    forms = []
    cli = []
    for k, ((kind, param, sigma), s, dims) in enumerate(configs):
        alternating = s == -1 and kind in ("gfp", "rational")
        for d in dims:
            half = d // 2
            if alternating:
                half -= half % 2
            forms.append(Spec(kind, param, sigma, s, d))
            forms.append(Spec(kind, param, sigma, s, d, rank=half))
        # the CLI sees one form per ring: alternately the largest dense form
        # with gs and the largest rank-deficient one with blocks
        cli.append((len(forms) - 2, "gs") if k % 2 == 0 else (len(forms) - 1, "blocks"))
    return Workload(tuple(forms), tuple(cli))


WORKLOADS = {
    # Cubic elimination over a word-size prime field; the alternating form
    # takes the isotropic-pair path.  The Hermitian GF(9) form is the
    # large-d GF(p^2) share of the acceptance sweep (d 31..64).  It reaches
    # the CLI with gs only: over GF(9) the blocks recursion splits where a
    # sub-block is singular, so its SLP text runs from 35 to 62 kB across
    # seeds, and slp_bytes would measure the seed.
    "gfp-dense": Workload(
        forms=(Spec(*GF1009, 1, 96), Spec(*GF1009, -1, 96), Spec(*GF9, 1, 64)),
        cli=((0, "gs"), (1, "blocks"), (2, "gs"), (0, "blocks")),
    ),
    # Generic ring calls and coefficient growth; no numpy path fires.
    "exact-rings": Workload(
        forms=(
            Spec("rational", None, None, 1, 24),
            Spec("quaternion", None, "conjugation", 1, 12),
        ),
        cli=((0, "gs"), (1, "blocks")),
    ),
    # Hundreds of tiny forms: per-call overhead and interpreter start.
    "small-sweep": _small_sweep(),
}


def form_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


@dataclass
class Input:
    spec: Spec
    matrix: object  # orthoform Matrix, never mutated
    path: Optional[Path]  # the form file, for forms the CLI reads


def build(name: str, seed: int, out_dir: Path, of) -> list:
    """Generate the workload's forms with `orthoform.random_form` and write the
    ones the CLI reads; `of` is the imported orthoform package."""
    from orthoform.cli import format_form_file

    workload = WORKLOADS[name]
    on_cli = {idx for idx, _ in workload.cli}
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = []
    for idx, spec in enumerate(workload.forms):
        ring = of.ring_from_spec(spec.kind, spec.param, spec.sigma)
        rng = random.Random(form_seed(seed, idx))
        form = of.random_form(ring, spec.s, spec.dim, rng, rank=spec.rank)
        path = None
        if idx in on_cli:
            path = out_dir / f"{idx:03d}-{spec.label()}.form"
            path.write_text(format_form_file(ring, spec.s, form.m), encoding="utf-8")
        inputs.append(Input(spec, form.m, path))
    return inputs
