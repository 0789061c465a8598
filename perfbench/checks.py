"""Independent checks of every answer the benchmark receives.

Nothing here trusts the program's own tests or stored outputs.  A winner
is rebuilt through the public API (``instantiate`` plus ``pad_arrays``)
from the variant, values, prefetch and pads the answer reports, then:

* run through the IR interpreter (``repro.codegen.interp``) on seeded
  random inputs, it must match this file's numpy reference of the
  kernel to rounding (the search may reassociate sums);
* its simulated cycles must equal the reported cycles, and the
  reference simulator (``execute(..., reference=True)``) must agree on
  every count (its cycles are compared too, and the largest relative
  difference is reported beside the simulator's documented tolerance);
* the binding must satisfy every hard constraint of its variant;
* it must be no slower than the untransformed kernel;
* the C that ``repro.codegen.emit_c`` emits for it, compiled with gcc and
  run, must print the checksum the numpy reference predicts.
"""

from __future__ import annotations

import os
import subprocess
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: relative tolerance of fast-path vs reference-simulator cycles that the
#: program's parity tests allow (float reassociation of issue time,
#: ``repro.sim.fastpath``); reported, not gated: the answer's cycles are
#: the fast path's, and the reference must agree on every count
CYCLES_RTOL = 2e-3
#: reassociated floating-point sums agree with the reference to rounding
VALUE_RTOL = 1e-9
GCC = "/usr/bin/gcc"
COUNT_FIELDS = ("loads", "stores", "prefetches", "dropped_prefetches", "flops",
                "loop_iterations", "cache_hits", "cache_misses", "tlb_hits",
                "tlb_misses")


class CheckFailed(AssertionError):
    """An answer failed one of the benchmark's checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- numpy references of the five kernels (0-based, column-major) ----------
def _mm(a, c):
    out = dict(a)
    out["C"] = a["C"] + a["A"] @ a["B"]
    return out


def _matvec(a, c):
    out = dict(a)
    out["y"] = a["y"] + a["A"] @ a["x"]
    return out


def _jacobi(a, c):
    b = a["B"]
    out = dict(a)
    new = a["A"].copy()
    new[1:-1, 1:-1, 1:-1] = c["c"] * (
        b[:-2, 1:-1, 1:-1] + b[2:, 1:-1, 1:-1]
        + b[1:-1, :-2, 1:-1] + b[1:-1, 2:, 1:-1]
        + b[1:-1, 1:-1, :-2] + b[1:-1, 1:-1, 2:]
    )
    out["A"] = new
    return out


def _stencil2d(a, c):
    b = a["B"]
    out = dict(a)
    new = a["A"].copy()
    new[1:-1, 1:-1] = c["c"] * (
        b[:-2, 1:-1] + b[2:, 1:-1] + b[1:-1, :-2] + b[1:-1, 2:] + b[1:-1, 1:-1]
    )
    out["A"] = new
    return out


def _conv2d(a, c):
    img, w = a["img"], a["w"]
    f = w.shape[0]
    extent = a["out"].shape[0]
    acc = a["out"].copy()
    for p in range(f):
        for q in range(f):
            acc += img[p:p + extent, q:q + extent] * w[p, q]
    out = dict(a)
    out["out"] = acc
    return out


REFERENCES = {"mm": _mm, "matvec": _matvec, "jacobi": _jacobi,
              "stencil2d": _stencil2d, "conv2d": _conv2d}


# -- answers ---------------------------------------------------------------
@dataclass
class Winner:
    """What an answer reports about the tuned version."""

    variant: str
    values: Dict[str, int]
    prefetch: List[Tuple[str, str, int]]
    pads: Dict[str, int] = field(default_factory=dict)
    #: exact cycles, when the answer reports them (served answers)
    cycles: Optional[float] = None
    #: MFLOPS as printed by ``repro tune`` (one decimal)
    mflops_text: Optional[str] = None

    def identity(self) -> Tuple:
        return (self.variant, tuple(sorted(self.values.items())),
                tuple(sorted(map(tuple, self.prefetch))),
                tuple(sorted(self.pads.items())), self.cycles,
                self.mflops_text)


def problem_for(kernel, size: int) -> Dict[str, int]:
    """The CLI's and the protocol's size expansion (extra dims are 3)."""
    problem = {"N": size}
    for param in kernel.params:
        problem.setdefault(param, 3)
    return problem


class Checker:
    """Runs the checks; caches untransformed cycles and gcc results."""

    def __init__(self, workdir: str, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self._base: Dict[Tuple[str, str, int], float] = {}
        self._gcc_done: Dict[Tuple, None] = {}
        self.gcc_skipped: Optional[str] = (
            None if os.access(GCC, os.X_OK) else f"{GCC} not found"
        )
        self.checked = 0
        #: largest relative fast-vs-reference cycle difference, and where
        self.cycle_divergence: Tuple[float, str] = (0.0, "")

    def base_cycles(self, kernel_name: str, machine_name: str, size: int) -> float:
        """Simulated cycles of the untransformed kernel."""
        from repro.kernels import get_kernel
        from repro.machines import get_machine
        from repro.sim import execute

        key = (kernel_name, machine_name, size)
        if key not in self._base:
            kernel = get_kernel(kernel_name)
            self._base[key] = execute(
                kernel, problem_for(kernel, size), get_machine(machine_name)
            ).cycles
        return self._base[key]

    def rebuild(self, kernel_name: str, machine_name: str, winner: Winner):
        from repro.core import PrefetchSite, derive_variants, instantiate
        from repro.kernels import get_kernel
        from repro.machines import get_machine
        from repro.transforms.padding import pad_arrays

        kernel = get_kernel(kernel_name)
        machine = get_machine(machine_name)
        variants = {v.name: v for v in derive_variants(kernel, machine)}
        require(winner.variant in variants,
                f"{kernel_name}: unknown variant {winner.variant}")
        variant = variants[winner.variant]
        prefetch = {PrefetchSite(a, l): int(d) for a, l, d in winner.prefetch}
        built = instantiate(kernel, variant, winner.values, machine, prefetch)
        if winner.pads:
            built = pad_arrays(built, winner.pads)
        return kernel, machine, variant, built

    def check(self, kernel_name: str, machine_name: str, size: int,
              winner: Winner) -> float:
        """Run every check on one answer; returns its speedup over the
        untransformed kernel."""
        from repro.sim import execute

        label = f"{kernel_name}@{machine_name} N={size}"
        kernel, machine, variant, built = self.rebuild(
            kernel_name, machine_name, winner
        )
        problem = problem_for(kernel, size)

        missing = set(variant.param_names) - set(winner.values)
        require(not missing, f"{label}: unbound parameters {sorted(missing)}")
        env = {**winner.values, **problem}
        for constraint in variant.constraints:
            if constraint.hard:
                require(constraint.satisfied(env),
                        f"{label}: violates {constraint.label}")

        fast = execute(built, problem, machine)
        if winner.cycles is not None:
            require(fast.cycles == winner.cycles,
                    f"{label}: rebuilt cycles {fast.cycles} != reported "
                    f"{winner.cycles}")
        if winner.mflops_text is not None:
            require(f"{fast.mflops:.1f}" == winner.mflops_text,
                    f"{label}: rebuilt {fast.mflops:.1f} MFLOPS != reported "
                    f"{winner.mflops_text}")
        ref = execute(built, problem, machine, reference=True)
        for name in COUNT_FIELDS:
            require(getattr(fast, name) == getattr(ref, name),
                    f"{label}: reference simulator disagrees on {name}")
        divergence = abs(fast.cycles - ref.cycles) / ref.cycles
        self.cycle_divergence = max(self.cycle_divergence, (divergence, label))

        base = self.base_cycles(kernel_name, machine_name, size)
        require(fast.cycles <= base,
                f"{label}: winner {fast.cycles} cycles is slower than the "
                f"untransformed kernel ({base})")

        self._check_values(label, kernel, built, problem)
        self._check_gcc(label, kernel, built, problem, winner)
        self.checked += 1
        return base / fast.cycles

    # -- numerics ------------------------------------------------------------
    def _check_values(self, label, kernel, built, problem) -> None:
        from repro.codegen.interp import run_kernel

        rng = np.random.default_rng(self.seed)
        logical = {
            decl.name: np.asfortranarray(rng.standard_normal(
                tuple(int(d.evaluate(problem)) for d in decl.shape)
            ))
            for decl in kernel.arrays
        }
        consts = {name: float(rng.uniform(0.1, 1.0)) for name in kernel.consts}
        inputs = {}
        for decl in built.arrays:
            if decl.temp:
                continue
            shape = tuple(int(d.evaluate(problem)) for d in decl.shape)
            padded = np.asfortranarray(rng.standard_normal(shape))
            padded[tuple(slice(0, n) for n in logical[decl.name].shape)] = (
                logical[decl.name]
            )
            inputs[decl.name] = padded
        result = run_kernel(built, problem, inputs, consts)
        expected = REFERENCES[kernel.name](logical, consts)
        for name, want in expected.items():
            got = result[name][tuple(slice(0, n) for n in want.shape)]
            scale = float(np.max(np.abs(want))) or 1.0
            require(np.allclose(got, want, rtol=VALUE_RTOL,
                                 atol=VALUE_RTOL * scale),
                     f"{label}: interpreted winner differs from the numpy "
                     f"reference in {name}")

    def _check_gcc(self, label, kernel, built, problem, winner: Winner) -> None:
        """Compile the emitted C with gcc, run it, compare its checksum."""
        from repro.codegen import emit_c

        if self.gcc_skipped is not None:
            return
        key = (kernel.name, tuple(sorted(problem.items())), winner.identity()[:4])
        if key in self._gcc_done:
            return
        stem = os.path.join(self.workdir, f"winner{len(self._gcc_done)}")
        with open(stem + ".c", "w") as handle:
            handle.write(emit_c(built, with_main=True, main_params=problem))
        subprocess.run([GCC, "-O1", "-std=gnu99", "-o", stem, stem + ".c",
                        "-lm"], check=True, capture_output=True, timeout=60)
        run = subprocess.run([stem], check=True, capture_output=True,
                             text=True, timeout=60)
        printed = float(run.stdout.split("checksum")[1].split()[0])
        expected = self._expected_checksum(kernel, built, problem)
        require(abs(printed - expected) <= 1e-5 + VALUE_RTOL * abs(expected),
                f"{label}: gcc-compiled winner prints checksum {printed}, "
                f"numpy reference gives {expected:.6f}")
        self._gcc_done[key] = None

    @staticmethod
    def _expected_checksum(kernel, built, problem) -> float:
        """What the emitted ``main`` prints: arrays filled with
        ``((i * 2654435761) % 1000) / 1000`` by flat index, constants 0.5,
        checksum summed over every element (pads included)."""
        padded = {}
        for decl in built.arrays:
            if decl.temp:
                continue
            shape = tuple(int(d.evaluate(problem)) for d in decl.shape)
            flat = np.arange(int(np.prod(shape)), dtype=np.uint64)
            values = ((flat * np.uint64(2654435761)) % np.uint64(1000)) / 1000.0
            padded[decl.name] = values.reshape(shape, order="F")
        logical_shapes = {
            decl.name: tuple(int(d.evaluate(problem)) for d in decl.shape)
            for decl in kernel.arrays
        }
        views = {
            name: padded[name][tuple(slice(0, n) for n in shape)]
            for name, shape in logical_shapes.items()
        }
        out = REFERENCES[kernel.name](views, {c: 0.5 for c in kernel.consts})
        for name, shape in logical_shapes.items():
            padded[name][tuple(slice(0, n) for n in shape)] = out[name]
        return float(sum(array.sum() for array in padded.values()))
