"""Native reference for the ``paper`` workload: the same C built by ``gcc``.

Every Figure 1-4 program is plain C apart from the mini-C intrinsics and the
CHERI pointer qualifiers, so a short prelude lets the host compiler build it
unchanged.  The binary runs under AddressSanitizer and UndefinedBehavior-
Sanitizer: a sanitizer report is an independent verdict that the program is
well defined, which is what makes its exit code, standard output and
checkpoint sequence a reference the abstract machine did not produce.
``-fwrapv`` matches mini-C's wrapping signed arithmetic.  Leak detection is
off because the Olden and zlib kernels leave memory unfreed on purpose.
"""

from __future__ import annotations

import os
import shutil
import subprocess

from dataclasses import dataclass
from pathlib import Path

PRELUDE = r"""
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <stddef.h>
#define __capability
#define __input
#define __output
static void mini_checkpoint(long long value) { fprintf(stderr, "checkpoint %lld\n", value); }
static void mini_output_int(long long value) { printf("%lld\n", value); }
"""

GCC_FLAGS = ("-O0", "-fwrapv", "-w", "-fsanitize=address,undefined",
             "-fno-sanitize-recover=undefined")

#: sanitizer settings for the native run (leaks are intentional, see above).
SANITIZER_ENV = {"ASAN_OPTIONS": "detect_leaks=0", "UBSAN_OPTIONS": "print_stacktrace=1"}

CHECKPOINT_PREFIX = "checkpoint "


class NativeToolchainMissing(RuntimeError):
    """``gcc`` is not installed: the paper workload cannot be checked."""


@dataclass(frozen=True)
class NativeRun:
    """What the native binary did, or why there is no reference."""

    exit_code: int | None = None
    stdout: bytes = b""
    checkpoints: tuple[int, ...] = ()
    #: compiler failure, signal, sanitizer report or stray stderr output.
    error: str | None = None


def parse_stderr(text: str) -> tuple[tuple[int, ...], str | None]:
    """Checkpoint values, and the first line that is not a checkpoint (a
    sanitizer report or other diagnostic), from the binary's stderr."""
    checkpoints = []
    for line in text.splitlines():
        if line.startswith(CHECKPOINT_PREFIX):
            checkpoints.append(int(line[len(CHECKPOINT_PREFIX):]))
        elif line.strip():
            return tuple(checkpoints), line.strip()
    return tuple(checkpoints), None


def build_and_run(name: str, source: str, workdir: Path) -> NativeRun:
    """Compile ``PRELUDE + source`` with ``gcc`` in ``workdir`` and run it."""
    gcc = shutil.which("gcc")
    if gcc is None:
        raise NativeToolchainMissing(
            "gcc not found: the paper workload's native reference cannot be built")
    c_file = workdir / f"{name}.c"
    binary = workdir / name
    c_file.write_text(PRELUDE + source, encoding="utf-8")
    # gcc's intermediate files go to the work directory, not the system's.
    compiled = subprocess.run([gcc, *GCC_FLAGS, str(c_file), "-o", str(binary)],
                              capture_output=True, text=True, timeout=120, check=False,
                              env=dict(os.environ, TMPDIR=str(workdir)))
    if compiled.returncode != 0:
        return NativeRun(error=f"gcc failed: {compiled.stderr.strip()[:400]}")
    env = dict(os.environ, **SANITIZER_ENV)
    ran = subprocess.run([str(binary)], capture_output=True, env=env,
                         timeout=120, check=False)
    stderr = ran.stderr.decode("utf-8", "replace")
    checkpoints, stray = parse_stderr(stderr)
    if ran.returncode < 0:
        return NativeRun(error=f"killed by signal {-ran.returncode}")
    if stray is not None:
        return NativeRun(error=f"stderr: {stray[:400]}")
    return NativeRun(exit_code=ran.returncode, stdout=ran.stdout,
                     checkpoints=checkpoints)


def failure(exit_code: int | None, output: bytes, checkpoints, trap: str | None,
            native: NativeRun) -> str | None:
    """Why one abstract-machine run disagrees with the native reference."""
    if native.error is not None:
        return f"no native reference: {native.error}"
    if trap is not None:
        return f"trapped: {trap}"
    if exit_code is None or exit_code & 0xFF != native.exit_code:
        return f"exit code {exit_code}, native {native.exit_code}"
    if output != native.stdout:
        return f"stdout {output[:80]!r}, native {native.stdout[:80]!r}"
    if tuple(checkpoints) != native.checkpoints:
        return f"checkpoints {list(checkpoints)[:8]}, native {list(native.checkpoints)[:8]}"
    return None
