"""The four benchmark workloads: seeded inputs, job lists and per-job checks.

Every input is drawn from ``numpy.random.default_rng(seed)``, so a seed fixes
the whole workload. ``permest`` only ever receives the generated arrays,
specs and files.

A job is one call to a public entry point of ``permest`` (or one CLI
command). Jobs look the entry point up on its module when they run, never
when they are built, so that the traced run can rebind it. Each job has a
check that runs after the timed passes and says whether the result is
correct; a check may also return a diagnostic ratio (error over guarantee).
"""

from __future__ import annotations

import io
import itertools
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

import permest
import permest.cli
import permest.complex_bias
from child import ChildResult, env_with_pythonpath, run_child

# acceptance-suite rule for two computations of the same permanent
REL = 1e-9
FLOOR = 1e-12
# float64 unit roundoff; Ryser results are held to it times ryser_scale(a)
UNIT_ROUNDOFF = 2.0**-53
# in-process value against the value the CLI printed with 17 digits
PRINT_REL = 1e-12
# largest n at which a reference permanent is computed for a random estimate
RANDOM_REF_MAX_N = 20


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object], "tuple[bool, float | None]"]


@dataclass
class Workload:
    jobs: list[Job]
    warmup: Job
    # pass time at the defining commit; fixes how many passes a run makes
    nominal_pass_s: float
    # the cli workload times subprocesses but traces ``cli.main`` in-process
    traced_jobs: list[Job] = field(default_factory=list)
    in_process: bool = True

    def __post_init__(self):
        if not self.traced_jobs:
            self.traced_jobs = self.jobs


def close(x, y, rel=REL, floor=FLOOR) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y)) + floor


def checked(ok) -> "tuple[bool, None]":
    return bool(ok), None


def extended_permanent(a) -> complex:
    """Glynn's formula evaluated in numpy's extended precision (80-bit on
    x86-64), independently of permest's kernels: the reference for every
    exact result. Ryser's alternating sum is too ill-conditioned in float64
    to serve as a 1e-9 reference at n >= 16 (see ``ryser_scale``)."""
    a = np.asarray(a, dtype=np.clongdouble)
    n = a.shape[0]
    low = min(n - 1, 14)
    high = n - 1 - low
    t = np.arange(1 << low)
    low_signs = (1 - 2 * ((t[:, None] >> np.arange(low)) & 1)).astype(np.longdouble)
    table = low_signs @ a[:, 1 : 1 + low].T
    parity = np.prod(low_signs, axis=1)
    total = np.clongdouble(0)
    for step in range(1 << high):
        high_signs = (1 - 2 * ((step >> np.arange(high)) & 1)).astype(np.longdouble)
        base = a[:, 0] + a[:, 1 + low :] @ high_signs
        total += np.prod(high_signs) * (parity @ np.prod(table + base, axis=1))
    return complex(total / (1 << (n - 1)))


def ryser_scale(a) -> float:
    """Sum over column subsets S of |prod_i sum_{j in S} a_ij|: the size of
    the terms in Ryser's alternating sum. Any float64 evaluation of that sum
    carries a rounding error of order UNIT_ROUNDOFF times this scale, which
    for nonnegative matrices is 6e7 to 1.4e11 times the permanent at n = 16..22
    (permest's Ryser stays within 0.12 of the bound there)."""
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    low = min(n, 16)
    high = n - low
    t = np.arange(1 << low)
    table = ((t[:, None] >> np.arange(low)) & 1).astype(np.float64) @ a[:, :low].T
    total = 0.0
    for step in range(1 << high):
        base = a[:, low:] @ ((step >> np.arange(high)) & 1).astype(np.float64)
        total += float(np.sum(np.abs(np.prod(table + base, axis=1))))
    return total


def reference(a):
    """The permanent of ``a``, computed when a check first asks for it."""
    return cache(lambda: extended_permanent(a))


def ryser_tolerance(a):
    """Ryser's rounding bound for ``a``, computed when a check first asks."""
    return cache(lambda: UNIT_ROUNDOFF * ryser_scale(a))


def agrees(ref, tolerance=lambda: 0.0):
    """Agreement to relative REL, or within ``tolerance()`` where larger."""
    return lambda result: checked(close(result, ref()) or abs(result - ref()) <= tolerance())


def within_guarantee(ref):
    """Check an ``Estimate`` against the permanent, or against its bound when
    ``ref`` is None. Returns error / guarantee as a diagnostic."""

    def check(est):
        value = complex(est.value)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            return False, None
        if ref is None:
            return checked(abs(value) <= est.bound_term)
        truth = ref()
        if est.mode == "exhaustive":
            return checked(close(value, truth))
        guarantee = est.guarantee().additive_error_bound
        err = abs(value - truth)
        return err <= guarantee, (err / guarantee if guarantee > 0 else None)

    return check


def real_matrix(rng, rows, cols=None):
    return rng.random((rows, rows if cols is None else cols))


def complex_matrix(rng, rows, cols=None):
    shape = (rows, rows if cols is None else cols)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def haar_unitary(rng, k):
    q, r = np.linalg.qr(complex_matrix(rng, k))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# ---------------------------------------------------------------- exact

EXACT_SIZES = {
    "full": {
        "ns": (16, 20, 22),
        "specs": (("ones", 18, (1,) * 18), ("twos", 20, (2,) * 10), ("threes", 18, (3,) * 6)),
        "warmup_n": 20,
    },
    "tiny": {
        "ns": (6, 8),
        "specs": (("ones", 6, (1,) * 6), ("twos", 6, (2,) * 3), ("threes", 6, (3,) * 2)),
        "warmup_n": 8,
    },
}


def exact_workload(rng, sizes) -> Workload:
    jobs = []
    warmup = None
    for n in sizes["ns"]:
        for kind, a in (("real", real_matrix(rng, n)), ("complex", complex_matrix(rng, n))):
            ref = reference(a)
            ryser_check = agrees(ref, ryser_tolerance(a))
            jobs.append(Job(f"ryser.n{n}.{kind}", lambda a=a: permest.permanent_ryser(a), ryser_check))
            glynn = Job(f"glynn.n{n}.{kind}", lambda a=a: permest.permanent_glynn_exact(a), agrees(ref))
            jobs.append(glynn)
            if n == sizes["warmup_n"] and kind == "real":
                warmup = glynn
    for label, n, mults in sizes["specs"]:
        base = real_matrix(rng, n, len(mults)) if label != "twos" else complex_matrix(rng, n, len(mults))
        spec = permest.MultiplicitySpec(base, mults)
        jobs.append(
            Job(
                f"gengly.{label}.n{n}",
                lambda s=spec: permest.permanent_gengly_exact(s),
                agrees(reference(permest.expand(spec))),
            )
        )
    return Workload(jobs, warmup, nominal_pass_s=5.0)


# ------------------------------------------------------------- estimate

ESTIMATE_SIZES = {
    "full": {"ns": (16, 24, 30), "eps": 0.01, "multi": (16, (2,) * 8), "modes": 12, "pattern": (2, 2, 1, 1, 1, 1)},
    "tiny": {"ns": (6, 8), "eps": 0.1, "multi": (6, (2,) * 3), "modes": 4, "pattern": (2, 1)},
}


def estimate_workload(rng, sizes) -> Workload:
    eps = sizes["eps"]
    jobs = []
    for n in sizes["ns"]:
        for kind, a in (("real", real_matrix(rng, n)), ("complex", complex_matrix(rng, n))):
            ref = reference(a) if n <= RANDOM_REF_MAX_N else None
            s = int(rng.integers(1 << 31))
            jobs.append(
                Job(
                    f"random.n{n}.{kind}",
                    lambda a=a, s=s: permest.estimate_random(a, eps, rng_seed=s),
                    within_guarantee(ref),
                )
            )
    n, mults = sizes["multi"]
    spec = permest.MultiplicitySpec(complex_matrix(rng, n, len(mults)), mults)
    s_multi = int(rng.integers(1 << 31))
    jobs.append(
        Job(
            f"random_multi.n{n}",
            lambda: permest.estimate_random_multi(spec, eps, rng_seed=s_multi),
            within_guarantee(reference(permest.expand(spec)) if n <= RANDOM_REF_MAX_N else None),
        )
    )
    k = sizes["modes"]
    u = haar_unitary(rng, k)
    pattern = sizes["pattern"] + (0,) * (k - len(sizes["pattern"]))
    standard_input = (1,) * sum(pattern) + (0,) * (k - sum(pattern))
    denom = math.sqrt(math.prod(math.factorial(c) for c in pattern))
    exact_amp = cache(lambda: extended_permanent(permest.transition_matrix(u, pattern, standard_input)) / denom)
    s_amp = int(rng.integers(1 << 31))

    def amp_within(res):
        return checked(abs(res.amplitude - exact_amp()) <= res.amp_error_bound)

    def amp_exact_agrees(res):
        return checked(close(res.amplitude, exact_amp()))

    jobs.append(
        Job(f"amplitude_estimate.k{k}", lambda: permest.amplitude_estimate(u, pattern, eps, rng_seed=s_amp), amp_within)
    )
    jobs.append(
        Job(f"amplitude_exact.k{k}", lambda: permest.amplitude_exact(u, pattern, standard_input), amp_exact_agrees)
    )
    return Workload(jobs, jobs[0], nominal_pass_s=2.0)


# ---------------------------------------------------------- derandomize

DERANDOMIZE_SIZES = {
    "full": {
        # eleven jobs whose times are far apart around the median and the
        # tail rank, so that those percentiles stay on one job each
        "estimates": ((12, 0.1), (16, 0.05), (18, 0.05), (20, 0.05), (20, 0.02)),
        "audits": ((12, 0.1), (16, 0.1)),
        "exhaustive_multi": (20, (2,) * 10),
        "forced": (((4,), 4, 0.5), ((3, 3), 2, 0.5)),
        "strong": (4, 4, 4),
        "warmup": 1,
    },
    "tiny": {
        "estimates": ((6, 0.2), (8, 0.1)),
        "audits": ((6, 0.2),),
        "exhaustive_multi": (6, (2,) * 3),
        "forced": (((4,), 2, 0.9), ((3, 3), 1, 0.9)),
        "strong": (3, 3),
        "warmup": 0,
    },
}


def derandomize_workload(rng, sizes) -> Workload:
    jobs = []
    for n, eps in sizes["estimates"]:
        a = real_matrix(rng, n)
        jobs.append(
            Job(
                f"derandomized.n{n}.eps{eps}",
                lambda a=a, n=n, eps=eps: permest.estimate_derandomized(a, permest.build_binary_space(n, eps)),
                within_guarantee(reference(a)),
            )
        )
    for n, eps in sizes["audits"]:

        def audit(n=n, eps=eps):
            space = permest.build_binary_space(n, eps)
            return space, permest.measure_bias(space)

        jobs.append(
            Job(
                f"audit.n{n}.eps{eps}",
                audit,
                lambda r: checked(r[1] <= r[0].construction_bound + FLOOR and r[0].construction_bound <= r[0].declared_epsilon),
            )
        )
    n, mults = sizes["exhaustive_multi"]
    spec = permest.MultiplicitySpec(real_matrix(rng, n, len(mults)), mults)
    grid = tuple(s + 1 for s in mults)
    jobs.append(
        Job(
            f"exhaustive_multi.n{n}",
            lambda: permest.estimate_derandomized_multi(spec, permest.exhaustive_complex_space(grid)),
            within_guarantee(reference(permest.expand(spec))),
        )
    )
    for moduli, ell, eps in sizes["forced"]:

        def forced(moduli=moduli, ell=ell, eps=eps):
            space = permest.build_complex_space(moduli, eps, force_construction=True, ell=ell)
            return space, permest.measure_complex_bias(space)

        label = "x".join(str(m - 1) for m in moduli)
        jobs.append(
            Job(f"forced.s{label}.ell{ell}", forced, lambda r: checked(r[1] <= r[0].declared_epsilon))
        )
    strong_moduli = sizes["strong"]
    characters = [e for e in itertools.product(*(range(m) for m in strong_moduli)) if any(e)]
    jobs.append(
        Job(
            "strong_fraction." + "x".join(map(str, strong_moduli)),
            lambda: [permest.strong_fraction(strong_moduli, e) for e in characters],
            lambda fr: checked(min(fr) >= permest.complex_bias.STRONG_FLOOR),
        )
    )
    return Workload(jobs, jobs[sizes["warmup"]], nominal_pass_s=5.0)


# ------------------------------------------------------------------ cli

CLI_SIZES = {
    "full": {"big": 16, "small": 12, "base": (12, 6), "unitary": 8, "out": "2,1,1,0,1,0,1,0", "binary_n": 16},
    "tiny": {"big": 6, "small": 5, "base": (6, 3), "unitary": 4, "out": "2,1,0,0", "binary_n": 6},
}


def parse_stdout(out: bytes) -> dict:
    """The CLI's JSON object, or the key=value lines of its text form."""
    text = out.decode()
    if text.startswith("{"):
        return json.loads(text)
    return dict(line.split("=", 1) for line in text.splitlines()[1:] if "=" in line)


def num(fields, key) -> float:
    return float(fields[key])


def cval(fields, prefix="value") -> complex:
    return complex(num(fields, prefix + "_re"), num(fields, prefix + "_im"))


def cli_in_process(argv) -> ChildResult:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = permest.cli.main(list(argv))
    return ChildResult(code, out.getvalue().encode(), 0.0, 0)


def cli_workload(rng, sizes, workdir: Path) -> Workload:
    files = {}

    def write(name, a):
        path = workdir / f"{name}.txt"
        path.write_text(permest.serialize_matrix(a))
        files[name] = str(path)
        return a

    big, small = sizes["big"], sizes["small"]
    write("big_real", real_matrix(rng, big))
    write("big_complex", complex_matrix(rng, big))
    write("small_real", real_matrix(rng, small))
    write("small_complex", complex_matrix(rng, small))
    base_rows, base_cols = sizes["base"]
    write("base", real_matrix(rng, base_rows, base_cols))
    write("unitary", haar_unitary(rng, sizes["unitary"]))
    mults = ",".join(["2"] * base_cols)
    out_pattern = sizes["out"]
    saturated = str(workdir / "saturated.txt")
    bin_n = sizes["binary_n"]
    seed = str(int(rng.integers(1 << 31)))
    desc_small = permest.build_binary_space(small, 0.1).descriptor()
    desc_big = permest.build_binary_space(bin_n, 0.1).descriptor()
    desc_complex = permest.exhaustive_complex_space((3, 3, 3)).descriptor()
    # 2^20 seeds times 2^20 characters: past the 2^32 audit cap, refused at once
    desc_over_cap = permest.build_binary_space(20, 0.02).descriptor()

    @cache
    def matrix(name):
        return permest.parse_matrix(Path(files[name]).read_bytes())

    def spec():
        return permest.MultiplicitySpec(matrix("base"), (2,) * base_cols)

    @cache
    def perm(name):
        return extended_permanent(matrix(name))

    @cache
    def spec_perm():
        return extended_permanent(permest.expand(spec()))

    def value_is(ref, rel=PRINT_REL):
        return lambda f: close(cval(f), ref(), rel)

    def exact_is(method, name):
        in_process = cache(lambda: method(matrix(name)))
        ryser = method is permest.permanent_ryser
        tolerance = cache(lambda: ryser_tolerance(matrix(name))() if ryser else 0.0)

        def check(f):
            value = cval(f)
            truth = close(value, perm(name)) or abs(value - perm(name)) <= tolerance()
            return close(value, in_process(), PRINT_REL) and truth

        return check

    def estimate_is(compute, truth):
        compute = cache(compute)

        def check(f):
            est = compute()
            return close(cval(f), est.value, PRINT_REL) and abs(cval(f) - truth()) <= num(f, "guarantee")

        return check

    def float_is(compute, key):
        return lambda f: close(num(f, key), compute(), PRINT_REL)

    @cache
    def amplitude_exact():
        k = matrix("unitary").shape[0]
        pattern = tuple(int(c) for c in out_pattern.split(","))
        n = sum(pattern)
        return permest.amplitude_exact(matrix("unitary"), pattern, (1,) * n + (0,) * (k - n))

    @cache
    def amplitude_estimate(mode):
        pattern = tuple(int(c) for c in out_pattern.split(","))
        return permest.amplitude_estimate(matrix("unitary"), pattern, 0.05, mode, 0.01, 0)

    @cache
    def bias(n):
        return permest.measure_bias(permest.build_binary_space(n, 0.1))

    forced_descriptor = cache(
        lambda: permest.build_complex_space((4,), 0.5, force_construction=True, ell=4).descriptor()
    )
    sat_text = permest.serialize_matrix(permest.saturating_unitary((3, 2)))
    J = "--format", "json"
    eps = "--epsilon"
    # (args, expected exit code, check on the parsed stdout)
    commands = [
        (("exact", "--matrix", files["big_real"], "--method", "ryser"), 0, exact_is(permest.permanent_ryser, "big_real")),
        (("exact", "--matrix", files["big_real"], "--method", "glynn"), 0, exact_is(permest.permanent_glynn_exact, "big_real")),
        (("exact", "--matrix", files["big_complex"], "--method", "ryser", *J), 0, exact_is(permest.permanent_ryser, "big_complex")),
        (("exact", "--matrix", files["big_complex"], "--method", "glynn", *J), 0, exact_is(permest.permanent_glynn_exact, "big_complex")),
        (("exact", "--matrix", files["base"], "--mult", mults, "--method", "glynn", *J), 0, value_is(spec_perm, REL)),
        (
            ("estimate", "--matrix", files["big_real"], eps, "0.05", "--seed", seed),
            0,
            estimate_is(lambda: permest.estimate_random(matrix("big_real"), 0.05, 0.01, int(seed)), lambda: perm("big_real")),
        ),
        (
            ("estimate", "--matrix", files["big_complex"], eps, "0.05", "--seed", seed, *J),
            0,
            estimate_is(lambda: permest.estimate_random(matrix("big_complex"), 0.05, 0.01, int(seed)), lambda: perm("big_complex")),
        ),
        (
            ("estimate", "--matrix", files["base"], "--mult", mults, eps, "0.05", "--seed", seed, *J),
            0,
            estimate_is(lambda: permest.estimate_random_multi(spec(), 0.05, 0.01, int(seed)), spec_perm),
        ),
        (
            ("estimate", "--matrix", files["small_real"], "--mode", "derandomized", eps, "0.1", *J),
            0,
            estimate_is(
                lambda: permest.estimate_derandomized(matrix("small_real"), permest.build_binary_space(small, 0.1)),
                lambda: perm("small_real"),
            ),
        ),
        (
            ("estimate", "--matrix", files["big_real"], "--mode", "derandomized", eps, "0.1"),
            0,
            estimate_is(
                lambda: permest.estimate_derandomized(matrix("big_real"), permest.build_binary_space(big, 0.1)),
                lambda: perm("big_real"),
            ),
        ),
        (
            ("estimate", "--matrix", files["base"], "--mult", mults, "--mode", "derandomized", eps, "0.1", *J),
            0,
            lambda f: close(cval(f), spec_perm()),
        ),
        (("estimate", "--matrix", files["small_complex"], "--mode", "exhaustive", eps, "0.1", *J), 0, value_is(lambda: perm("small_complex"), REL)),
        (("estimate", "--matrix", files["base"], "--mult", mults, "--mode", "exhaustive", eps, "0.1"), 0, value_is(spec_perm, REL)),
        (
            ("bound", "--matrix", files["big_complex"]),
            0,
            lambda f: close(num(f, "bound"), permest.permanent_upper_bound(
                permest.MultiplicitySpec(matrix("big_complex"), (1,) * big)), PRINT_REL)
            and abs(perm("big_complex")) <= num(f, "bound"),
        ),
        (
            ("bound", "--matrix", files["base"], "--mult", mults, *J),
            0,
            lambda f: close(num(f, "bound"), permest.permanent_upper_bound(spec()), PRINT_REL)
            and abs(spec_perm()) <= num(f, "bound"),
        ),
        (
            ("space", "build", "--kind", "binary", "--n", str(bin_n), eps, "0.1", *J),
            0,
            lambda f: f["descriptor"] == desc_big,
        ),
        (
            ("space", "build", "--kind", "complex", "--mults", "2,2,2", eps, "0.1"),
            0,
            lambda f: f["descriptor"] == desc_complex,
        ),
        (
            ("space", "build", "--kind", "complex", "--mults", "3", eps, "0.5", "--force-construction", "--ell", "4", *J),
            0,
            lambda f: f["descriptor"] == forced_descriptor(),
        ),
        (
            ("space", "audit", "--descriptor", desc_small),
            0,
            lambda f: f["verdict"] == "PASS"
            and close(num(f, "measured_bias"), bias(small), PRINT_REL),
        ),
        (
            ("space", "audit", "--descriptor", desc_big, *J),
            0,
            lambda f: f["verdict"] == "PASS"
            and close(num(f, "measured_bias"), bias(bin_n), PRINT_REL),
        ),
        (("space", "audit", "--descriptor", desc_complex), 0, lambda f: f["verdict"] == "PASS"),
        (("space", "audit", "--descriptor", desc_over_cap), 3, None),
        (("estimate", "--matrix", files["small_complex"], "--mode", "derandomized", eps, "0.1"), 4, None),
        (
            ("optics", "prob", "--unitary", files["unitary"], "--out-pattern", out_pattern),
            0,
            float_is(lambda: amplitude_exact().probability, "probability"),
        ),
        (
            ("optics", "amp", "--unitary", files["unitary"], "--out-pattern", out_pattern, *J),
            0,
            lambda f: close(cval(f, "amplitude"), amplitude_exact().amplitude, PRINT_REL),
        ),
        (
            ("optics", "prob", "--unitary", files["unitary"], "--out-pattern", out_pattern, "--estimate", eps, "0.05", *J),
            0,
            lambda f: close(num(f, "probability"), amplitude_estimate("random").probability, PRINT_REL)
            and abs(cval(f, "amplitude") - amplitude_exact().amplitude) <= num(f, "amp_error_bound"),
        ),
        (
            ("optics", "amp", "--unitary", files["unitary"], "--out-pattern", out_pattern, "--estimate", eps, "0.05",
             "--mode", "exhaustive", *J),
            0,
            lambda f: close(cval(f, "amplitude"), amplitude_exact().amplitude),
        ),
        (("optics", "bound", "--pattern", "3,2,1"), 0, float_is(lambda: permest.bunching_bound((3, 2, 1)), "bound")),
        (
            ("optics", "saturate", "--pattern", "3,2", *J),
            0,
            lambda f: f["matrix"] == sat_text and close(f["probability"], permest.bunching_bound((3, 2)), PRINT_REL),
        ),
        (
            ("optics", "saturate", "--pattern", "2,1", "--out", saturated),
            0,
            lambda f: Path(saturated).read_text()
            == permest.serialize_matrix(permest.saturating_unitary((2, 1))),
        ),
    ]

    src = Path(permest.__file__).resolve().parent.parent
    env = env_with_pythonpath(src)
    cwd = str(src.parent)

    def subprocess_call(args):
        return lambda: run_child([sys.executable, "-m", "permest.cli", *args], cwd, env, str(workdir))

    def make_check(args, code, expect):
        first = []

        def check(res):
            if res.returncode != code:
                return False, None
            if code != 0:
                return checked(res.stdout == b"")
            # deterministic stdout: every invocation prints the same bytes
            if not first:
                first.append(res.stdout)
            elif res.stdout != first[0]:
                return False, None
            return checked(expect(parse_stdout(res.stdout)))

        return check

    jobs, traced = [], []
    for args, code, expect in commands:
        name = "cli." + ".".join(a for a in args[:2] if not a.startswith("-"))
        jobs.append(Job(name, subprocess_call(args), make_check(args, code, expect)))
        traced.append(Job(name, lambda args=args: cli_in_process(args), make_check(args, code, expect)))
    warmup_args = ("optics", "bound", "--pattern", "2,2")
    warmup = Job("cli.warmup", subprocess_call(warmup_args), lambda r: checked(r.returncode == 0))
    return Workload(jobs, warmup, nominal_pass_s=8.0, traced_jobs=traced, in_process=False)


def reset_caches() -> None:
    """Empty the package's process-wide memo (``_strong_generator``), so that
    every pass does the work a fresh process, such as a CLI user's, does."""
    memo = getattr(permest.complex_bias, "_strong_generator", None)
    if hasattr(memo, "cache_clear"):
        memo.cache_clear()


def build(name: str, seed: int, tiny: bool, workdir: Path) -> Workload:
    """Generate the named workload's inputs from ``seed``."""
    rng = np.random.default_rng(seed)
    size = "tiny" if tiny else "full"
    if name == "exact":
        return exact_workload(rng, EXACT_SIZES[size])
    if name == "estimate":
        return estimate_workload(rng, ESTIMATE_SIZES[size])
    if name == "derandomize":
        return derandomize_workload(rng, DERANDOMIZE_SIZES[size])
    if name == "cli":
        return cli_workload(rng, CLI_SIZES[size], workdir)
    raise ValueError(f"unknown workload {name!r}")
