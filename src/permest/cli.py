"""Command-line front end.

Exit codes: 0 success, 2 parse/usage error, 3 size or capacity limit
(including a result that overflows double precision), 4 domain error.
Deterministic commands write byte-identical stdout across runs; wall-clock
timing goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import (
    CapacityError,
    ConvergenceError,
    DescriptorError,
    DomainError,
    MatrixParseError,
    SizeLimitError,
)

# each command imports the modules it runs when it runs, so that a process
# pays only for those; the exact methods name their kernel in ``exact``
_EXACT_METHODS = {
    "naive": "permanent_naive",
    "ryser": "permanent_ryser",
    "glynn": "permanent_glynn_exact",
}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _load_matrix(path: str):
    from .matrices import parse_matrix

    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return parse_matrix(data)
    except OSError as exc:
        raise MatrixParseError(f"cannot read {path}: {exc.strerror}", None) from None
    except UnicodeDecodeError as exc:
        # parse_matrix's line numbers: a character appended to the valid
        # prefix sits on the line where the bad byte starts
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise MatrixParseError(f"{path} is not UTF-8: {exc.reason}", line) from None


def _parse_counts(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list") from None


def _emit(payload: dict, primary: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(" ".join(primary))
        for key, val in payload.items():
            print(f"{key}={_fmt(val) if isinstance(val, float) else val}")


def _complex_payload(prefix: str, z: complex) -> dict:
    return {f"{prefix}_re": z.real, f"{prefix}_im": z.imag}


def _cmd_exact(args) -> int:
    from . import exact
    from .matrices import MultiplicitySpec

    a = _load_matrix(args.matrix)
    target = MultiplicitySpec(a, _parse_counts(args.mult, "--mult")) if args.mult else a
    start = time.perf_counter()
    value = getattr(exact, _EXACT_METHODS[args.method])(target)
    elapsed = time.perf_counter() - start
    print(f"wall_time_s={elapsed:.6f}", file=sys.stderr)
    payload = _complex_payload("value", value)
    payload["method"] = args.method
    payload["n"] = a.shape[0]
    if args.mult:
        payload["mult"] = args.mult
    _emit(payload, [_fmt(value.real), _fmt(value.imag)], args.format)
    return 0


def _space_from_descriptor(text: str):
    kind = text.split()[0] if text.split() else ""
    if kind == "binary":
        from .binary_bias import space_from_descriptor

        return space_from_descriptor(text)
    if kind == "complex":
        from .complex_bias import complex_space_from_descriptor

        return complex_space_from_descriptor(text)
    raise DescriptorError(f"unknown space descriptor kind {kind!r}")


def _build_space_for(args, n: int, spec):
    if args.space:
        space = _space_from_descriptor(args.space)
        if args.epsilon is not None and args.epsilon != space.declared_epsilon:
            raise DescriptorError(
                f"--epsilon {args.epsilon} differs from the descriptor's "
                f"eps={space.declared_epsilon}"
            )
        return space
    if spec is None:
        from .binary_bias import build_binary_space

        return build_binary_space(n, args.epsilon)
    from .complex_bias import build_complex_space

    return build_complex_space(spec.moduli, args.epsilon)


def _cmd_estimate(args) -> int:
    from .estimators import (
        _exhaustive_estimate,
        estimate_derandomized,
        estimate_derandomized_multi,
        estimate_random,
        estimate_random_multi,
    )
    from .matrices import MultiplicitySpec

    if args.epsilon is None and (
        args.mode == "random" or (args.mode == "derandomized" and not args.space)
    ):
        raise ValueError(
            "estimate needs --epsilon in random mode and in derandomized mode "
            "without --space"
        )
    a = _load_matrix(args.matrix)
    spec = MultiplicitySpec(a, _parse_counts(args.mult, "--mult")) if args.mult else None
    payload: dict = {}
    if args.mode == "random":
        if spec is None:
            est = estimate_random(a, args.epsilon, args.delta, args.seed)
        else:
            est = estimate_random_multi(spec, args.epsilon, args.delta, args.seed)
        payload_extra = {"delta": args.delta, "seed": args.seed}
    elif args.mode == "exhaustive":
        est = _exhaustive_estimate(a if spec is None else spec)
        payload_extra = {}
    else:
        space = _build_space_for(args, a.shape[0], spec)
        if spec is None:
            est = estimate_derandomized(a, space)
        else:
            est = estimate_derandomized_multi(spec, space)
        payload_extra = {"space": space.descriptor()}
    payload.update(_complex_payload("value", est.value))
    payload["bound_term"] = est.bound_term
    payload["epsilon"] = est.epsilon
    payload["guarantee"] = est.guarantee().additive_error_bound
    payload["samples"] = est.samples_used
    payload["mode"] = est.mode
    payload.update(payload_extra)
    _emit(payload, [_fmt(est.value.real), _fmt(est.value.imag)], args.format)
    return 0


def _cmd_bound(args) -> int:
    from .estimators import permanent_upper_bound
    from .matrices import MultiplicitySpec, as_spec, spectral_norm

    a = _load_matrix(args.matrix)
    spec = MultiplicitySpec(a, _parse_counts(args.mult, "--mult")) if args.mult else as_spec(a)
    bound = permanent_upper_bound(spec)
    payload = {
        "bound": bound,
        "norm": spectral_norm(spec.base).value,
        "n": spec.n,
        "k": spec.k,
    }
    _emit(payload, [_fmt(bound)], args.format)
    return 0


def _cmd_space_build(args) -> int:
    if args.kind == "binary":
        if args.n is None:
            raise ValueError("binary spaces need --n")
        from .binary_bias import build_binary_space

        space = build_binary_space(args.n, args.epsilon)
    else:
        if not args.mults:
            raise ValueError("complex spaces need --mults")
        from .complex_bias import build_complex_space

        mults = _parse_counts(args.mults, "--mults")
        space = build_complex_space(
            tuple(s + 1 for s in mults),
            args.epsilon,
            force_construction=args.force_construction,
            ell=args.ell,
        )
    payload = {
        "descriptor": space.descriptor(),
        "seed_bits": space.seed_bits,
        "eps": space.declared_epsilon,
    }
    if space.construction_bound is not None:
        payload["certified_bias"] = space.construction_bound
    _emit(payload, [space.descriptor()], args.format)
    return 0


def _cmd_space_audit(args) -> int:
    from .binary_bias import measure_bias

    space = _space_from_descriptor(args.descriptor)
    measured = measure_bias(space)
    # exhaustive spaces declare zero bias; allow the audit's rounding dust
    tol = 1e-12 if space.exhaustive else 0.0
    verdict = "PASS" if measured <= space.declared_epsilon + tol else "FAIL"
    payload = {
        "measured_bias": measured,
        "declared_eps": space.declared_epsilon,
        "verdict": verdict,
    }
    _emit(payload, [_fmt(measured), verdict], args.format)
    return 0


def _cmd_optics(args) -> int:
    from . import optics

    if args.optics_cmd == "bound":
        value = optics.bunching_bound(_parse_counts(args.pattern, "--pattern"))
        _emit({"bound": value}, [_fmt(value)], args.format)
        return 0
    if args.optics_cmd == "saturate":
        from .matrices import serialize_matrix

        pattern = _parse_counts(args.pattern, "--pattern")
        u = optics.saturating_unitary(pattern)
        outcome = optics.saturating_outcome(pattern)
        text = serialize_matrix(u)
        payload = {
            "outcome": ",".join(str(c) for c in outcome),
            "probability": optics.bunching_bound(pattern),
        }
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
            payload["written"] = args.out
            _emit(payload, [payload["outcome"]], args.format)
        elif args.format == "json":
            payload["matrix"] = text
            print(json.dumps(payload, sort_keys=True))
        else:
            sys.stdout.write(text)
        return 0
    # prob / amp
    u = _load_matrix(args.unitary)
    out_pattern = _parse_counts(args.out_pattern, "--out-pattern")
    if args.estimate:
        if args.in_pattern:
            raise ValueError(
                "estimation covers the standard initial state; drop --in-pattern"
            )
        if args.epsilon is None:
            raise ValueError("estimation needs --epsilon")
        result = optics.amplitude_estimate(
            u, out_pattern, args.epsilon, args.mode, args.delta, args.seed
        )
    else:
        if args.in_pattern:
            in_pattern = _parse_counts(args.in_pattern, "--in-pattern")
        else:
            n = sum(out_pattern)
            k = u.shape[0]
            if n > k:
                raise ValueError("standard input needs photons <= modes")
            in_pattern = (1,) * n + (0,) * (k - n)
        result = optics.amplitude_exact(u, out_pattern, in_pattern)
    payload = _complex_payload("amplitude", result.amplitude)
    payload["probability"] = result.probability
    if args.estimate:
        payload["amp_error_bound"] = result.amp_error_bound
        payload["prob_error_bound"] = result.prob_error_bound
    if args.optics_cmd == "prob":
        primary = [_fmt(result.probability)]
    else:
        primary = [_fmt(result.amplitude.real), _fmt(result.amplitude.imag)]
    _emit(payload, primary, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permest",
        description="Permanent estimation: exact kernels, Glynn-type "
        "estimators, small-bias derandomization, linear-optics amplitudes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("exact", help="exact permanent of a matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--method", choices=sorted(_EXACT_METHODS), default="glynn")
    p.add_argument("--mult", help="column multiplicities; the file then holds the base matrix")
    add_format(p)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("estimate", help="additive-error permanent estimate")
    p.add_argument("--matrix", required=True)
    p.add_argument("--mult")
    p.add_argument(
        "--epsilon",
        type=float,
        help="ignored in exhaustive mode; optional in derandomized mode with --space",
    )
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument(
        "--mode", choices=("random", "derandomized", "exhaustive"), default="random"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--space", help="sample-space descriptor for derandomized mode")
    add_format(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("bound", help="permanent magnitude upper bound")
    p.add_argument("--matrix", required=True)
    p.add_argument("--mult")
    add_format(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("space", help="build or audit sample spaces")
    space_sub = p.add_subparsers(dest="space_cmd", required=True)
    pb = space_sub.add_parser("build")
    pb.add_argument("--kind", choices=("binary", "complex"), required=True)
    pb.add_argument("--n", type=int)
    pb.add_argument("--mults")
    pb.add_argument("--epsilon", type=float, required=True)
    pb.add_argument("--force-construction", action="store_true")
    pb.add_argument("--ell", type=int)
    add_format(pb)
    pb.set_defaults(func=_cmd_space_build)
    pa = space_sub.add_parser("audit")
    pa.add_argument("--descriptor", required=True)
    add_format(pa)
    pa.set_defaults(func=_cmd_space_audit)

    p = sub.add_parser("optics", help="linear-optics amplitudes and bounds")
    optics_sub = p.add_subparsers(dest="optics_cmd", required=True)
    for name in ("prob", "amp"):
        po = optics_sub.add_parser(name)
        po.add_argument("--unitary", required=True)
        po.add_argument("--out-pattern", required=True)
        po.add_argument("--in-pattern")
        po.add_argument("--estimate", action="store_true")
        po.add_argument("--epsilon", type=float)
        po.add_argument(
            "--mode",
            choices=("random", "derandomized", "exhaustive"),
            default="random",
        )
        po.add_argument("--delta", type=float, default=0.01)
        po.add_argument("--seed", type=int, default=0)
        add_format(po)
        po.set_defaults(func=_cmd_optics)
    for name in ("bound", "saturate"):
        po = optics_sub.add_parser(name)
        po.add_argument("--pattern", required=True)
        if name == "saturate":
            po.add_argument("--out")
        add_format(po)
        po.set_defaults(func=_cmd_optics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MatrixParseError, DescriptorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SizeLimitError, CapacityError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: overflow: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
