"""Batch command-line front end."""
from __future__ import annotations

import sys

import click

from .config import ConfigError, load_config
from .experiments import RUNNERS, resolve_outdir


@click.group()
def main():
    """Dislocation evolution and convergence experiments, batch mode."""


def _run(kind: str, config_path: str, out, seed, threads):
    try:
        cfg = load_config(config_path)
    except (ConfigError, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    if cfg.experiment != kind:
        click.echo(f"error: config declares experiment '{cfg.experiment}', "
                   f"but the '{kind}' subcommand was invoked", err=True)
        sys.exit(2)
    try:
        outdir = resolve_outdir(cfg, out)
    except OSError as exc:
        click.echo(f"error: cannot create output directory {exc.filename}: {exc.strerror}",
                   err=True)
        sys.exit(2)
    effective_seed = cfg.seed if seed is None else seed
    try:
        RUNNERS[kind](cfg, outdir, effective_seed, threads)
    except Exception as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(1)
    click.echo(f"{kind}: wrote results to {outdir}")


def _common_options(fn):
    fn = click.option("--threads", type=int, default=None,
                      help="Worker hint recorded in metadata; execution is "
                           "deterministic regardless.")(fn)
    fn = click.option("--seed", type=click.IntRange(min=0), default=None,
                      help="Override the config seed.")(fn)
    fn = click.option("--out", type=click.Path(file_okay=False), default=None,
                      help="Output directory (default: config, then "
                           "$SLIPDYN_OUT, then ./runs/<experiment>).")(fn)
    fn = click.argument("config", type=click.Path(exists=True, dir_okay=False))(fn)
    return fn


@main.command()
@_common_options
def simulate(config, out, seed, threads):
    """Run a quasi-static evolution and write the trace table."""
    _run("simulate", config, out, seed, threads)


@main.command()
@_common_options
def gamma(config, out, seed, threads):
    """Run the energy-convergence ladder for a limit measure."""
    _run("gamma", config, out, seed, threads)


@main.command()
@_common_options
def distance(config, out, seed, threads):
    """Compare two measures: confined distance, relaxations, dual bounds."""
    _run("distance", config, out, seed, threads)


@main.command("kernel-check")
@_common_options
def kernel_check(config, out, seed, threads):
    """Run the elastic-field identity suite at configured resolutions."""
    _run("kernel_check", config, out, seed, threads)


if __name__ == "__main__":
    main()
