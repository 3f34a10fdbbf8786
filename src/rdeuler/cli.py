"""Command line front end: run, convergence, verify.

Exit codes: 0 success, 1 check failure or solver error, 2 usage or
configuration error.
"""

import argparse
import sys

from . import driver
from .config import load_config
from .errors import ConfigError, RDError
from .verification import SUITES


def _build_parser():
    parser = argparse.ArgumentParser(prog="rdeuler")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance one configuration to t_end")
    p_run.add_argument("config")

    p_conv = sub.add_parser("convergence", help="error study over a mesh family")
    p_conv.add_argument("config")
    p_conv.add_argument("--meshes", required=True, help="comma separated mesh files")

    p_ver = sub.add_parser("verify", help="run a built-in check suite")
    p_ver.add_argument("suite", choices=sorted(SUITES))
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "run":
            cfg = load_config(args.config)
            result = driver.run(cfg)
            last = result.rows[-1]
            print(
                f"steps={result.n_steps} t={result.state.t:.6g} "
                f"mass={last['mass']:.12g} energy={last['energy']:.12g} "
                f"entropy={last['entropy']:.12g}"
            )
            return 0
        if args.command == "convergence":
            cfg = load_config(args.config)
            rows = driver.convergence(cfg, args.meshes.split(","))
            for r in rows:
                print(
                    f"h={r['mesh_h']:.5g} n={r['n_elems']} "
                    f"rho={r['err_rho_L1']:.4e} u={r['err_u_L1']:.4e} "
                    f"p={r['err_p_L1']:.4e} order_rho={r['order_rho']:.3g}"
                )
            return 0
        if args.command == "verify":
            ok, info = SUITES[args.suite]()
            print(f"{'PASS' if ok else 'FAIL'} {args.suite}: {info}")
            return 0 if ok else 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except RDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
