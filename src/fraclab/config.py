"""The command's configuration, read without numpy.

:data:`_DEFAULTS` is the schema and :func:`load_config` reads it, a file
and the environment into one parser; ``harness`` converts its sections.
:func:`blas_threads` reads the run's grid from them before numpy loads,
since the BLAS thread count must be set before then.
"""

from __future__ import annotations

import argparse
import configparser
import os

from .errors import ParameterError

# The config schema: every key, with a default whose type is the key's type.
# A float must be finite; "" marks a number that may be left blank (unset);
# a tuple is a list of sweep powers.
_DEFAULTS = {
    "params": {
        "alpha1": 0.5, "alpha2": 0.3, "gamma": 0.25,
        "sigma": 0.5, "delta": 0.7, "p": 2.0,
        "dim": 1, "mode": "strict",
    },
    "system": {
        "beta1": 0.5, "beta2": 0.3, "gamma2": 0.25,
        "sigma2": 0.5, "delta2": 0.7, "q": 2.0,
    },
    "space": {"points": 256, "half_length": ""},
    "time": {"horizon": 50.0, "steps": 50000},
    "bump": {"amplitude": 4.0, "width": 1.0, "center": 0.0},
    "run": {"threshold": 1e8, "snapshot_every": 0, "amplitude_policy": "fixed"},
    "sweep": {"p_values": (1.5, 2.0, 3.0)},
    "exponent": {"radius": 1.0},
    "verify": {"seed": 7, "tol": ""},
}


def load_config(path: str | None) -> configparser.ConfigParser:
    """Defaults, then the file, then FRACLAB_<SECTION>_<KEY> overrides.

    Values are read literally: ``%`` is not interpolation syntax."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict({
        sec: {key: ", ".join(map(str, v)) if isinstance(v, tuple) else str(v)
              for key, v in keys.items()}
        for sec, keys in _DEFAULTS.items()
    })
    if path is not None:
        probe = configparser.ConfigParser(interpolation=None)
        try:
            # utf-8-sig: a leading byte-order mark is not part of the INI
            with open(path, encoding="utf-8-sig") as fh:
                probe.read_file(fh)
        except FileNotFoundError:
            raise ParameterError(f"config file not found: {path}")
        except OSError as exc:
            raise ParameterError(f"cannot read config file {path}: {exc.strerror}")
        except UnicodeDecodeError as exc:
            raise ParameterError(f"config file {path} is not UTF-8: {exc}")
        except configparser.Error as exc:
            # the parser's message spans lines; the error is one line
            raise ParameterError(
                f"config file {path} is not valid INI: {' '.join(str(exc).split())}")
        # [DEFAULT] would feed every section and override none of them
        default = [probe.default_section] if probe.defaults() else []
        for sec in default + probe.sections():
            if sec not in _DEFAULTS:
                raise ParameterError(
                    f"unknown config section [{sec}]; known: {sorted(_DEFAULTS)}"
                )
            for key in probe[sec]:
                if key not in _DEFAULTS[sec]:
                    raise ParameterError(
                        f"unknown key {key!r} in [{sec}]; known: "
                        f"{sorted(_DEFAULTS[sec])}"
                    )
        cp.read_dict(probe)
    for name, value in os.environ.items():
        if not name.startswith("FRACLAB_"):
            continue
        section, _, key = name[len("FRACLAB_"):].lower().partition("_")
        if key not in _DEFAULTS.get(section, ()):
            where = f"in [{section}]" if section in _DEFAULTS else f"of {sorted(_DEFAULTS)}"
            raise ParameterError(f"environment override {name} names no config key {where}")
        cp[section][key] = value
    return cp


# Two BLAS threads from this many grid points on: at 512 x 512 the cosine
# layout's products are large enough to share, at 256 x 256 they are not.
LARGE_GRID = 512 * 512


def blas_threads(argv) -> int:
    """The BLAS thread count for the command line ``argv``: two for a
    ``simulate`` or sweep on a grid of at least :data:`LARGE_GRID` points
    (and as many CPUs), else one.

    A command line or config that does not parse gets one: the command
    then reports the error itself."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("mode", nargs="?")
    pre.add_argument("--config")
    try:
        args = pre.parse_known_args(argv)[0]
        cp = load_config(args.config)
        points, dim = int(cp["space"]["points"]), int(cp["params"]["dim"])
    except (argparse.ArgumentError, ValueError):
        return 1
    runs = args.mode in ("simulate", "sweep", "system-sweep") and dim in (1, 2)
    return 2 if runs and points**dim >= LARGE_GRID and (os.cpu_count() or 1) >= 2 else 1
