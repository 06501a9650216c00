"""Shared pieces of the benchmark: paths, statistics, ``/proc`` readers,
daemon processes and provenance.

Everything the benchmark writes goes under ``<checkout>/.perfbench/``
(daemon logs, ``--state-dir`` directories, span dumps), which the run
removes when it ends.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Percentile ladder for the ``_tail_`` metrics: each workload reports the
#: highest rung with at least ``MIN_BEYOND`` samples above it that also
#: sits clear of the workload's slow-request share (see ``tail_quantile``).
LADDER = (80.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.9)
MIN_BEYOND = 10


class BenchError(RuntimeError):
    """The run cannot produce a valid measurement (set-up or I/O failure)."""


class OperationsFailed(BenchError):
    """An operation of the timed region failed and the run cannot finish.

    Unlike a set-up failure this is a result: ``run.py`` prints the
    failed verdict with the operation counts and exits 1.
    """

    def __init__(self, message: str, attempted: int, failed: int) -> None:
        super().__init__(message)
        self.attempted = attempted
        self.failed = failed


def ensure_repro():
    """Import ``repro`` from the checkout's ``src/`` and nowhere else.

    A copy installed in site-packages would silently measure other code,
    so a ``repro`` that does not live under ``src/`` is an error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"repro imported from {repro.__file__}, not from {SRC}")
    return repro


def daemon_env() -> dict:
    """Environment for daemon processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    parts = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail_quantile(count: float, slow_share: float) -> float:
    """The ladder rung used as the ``_tail_`` percentile.

    ``count`` is the samples of one part of the run at a nominal rate, so
    that the rung is a constant of the workload and never flips with the
    VM's speed.  The rung is the highest with at least :data:`MIN_BEYOND`
    of ``count`` samples beyond it, skipping rungs whose tail share
    ``1 - q`` lies within a factor of two of ``slow_share`` (the share of
    requests that are slow by construction): near that boundary the
    percentile flips between the fast and the slow mode from run to run.
    """
    best = LADDER[0]
    for q in LADDER:
        share = (100.0 - q) / 100.0
        near_boundary = slow_share > 0 and slow_share / 2 < share < slow_share * 2
        if count * share >= MIN_BEYOND - 1e-9 and not near_boundary:
            best = q
    return best


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, all threads."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14, 15.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# daemons
# ----------------------------------------------------------------------
_LISTENING = re.compile(r"listening on (\S+):(\d+)")
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Runs in the child before exec: SIGTERM it when the benchmark dies,
    so a killed run cannot leave a daemon behind."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


class Daemon:
    """One ``repro serve`` / ``repro route`` process.

    ``argv`` is the ``repro`` command line (``["serve", ...]``).  With
    ``spans`` set, the process runs under the benchmark's launcher,
    which records spans and writes them to that file on exit.
    Construction returns once the daemon has printed its ``listening
    on`` line, so a client never connects early and never sleeps in a
    connect-retry backoff.
    """

    START_TIMEOUT = 60.0

    def __init__(self, argv: list[str], log: Path, spans: Path | None = None) -> None:
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, "-m", "perfbench.launcher", str(spans), *argv]
        self.argv = argv
        self.log = log
        self._log_fh = open(log, "wb")
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=self._log_fh,
            cwd=str(ROOT),
            env=daemon_env(),
            preexec_fn=_die_with_parent,
        )
        self.pid = self.proc.pid
        try:
            self.port = self._wait_listening()
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + self.START_TIMEOUT
        buf = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                buf += chunk
                match = _LISTENING.search(buf.decode(errors="replace"))
                if match:
                    return int(match.group(2))
            elif self.proc.poll() is not None:
                break
        self.proc.poll()
        raise BenchError(
            f"{' '.join(self.argv[:1])} did not start (exit={self.proc.returncode}); "
            f"stdout={buf.decode(errors='replace')!r} log={self.log}"
        )

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def stop(self, timeout: float = 30.0) -> int | None:
        """SIGTERM (the daemon drains and exits 0), SIGKILL on timeout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log_fh.close()
        return self.proc.returncode


# ----------------------------------------------------------------------
# run directory
# ----------------------------------------------------------------------
class RunDir:
    """Per-run scratch directory under ``.perfbench/``; removed on close."""

    def __init__(self) -> None:
        WORK.mkdir(exist_ok=True)
        self.path = WORK / f"run-{os.getpid()}-{time.monotonic_ns()}"
        self.path.mkdir()
        self._n = 0

    def fresh(self, name: str) -> Path:
        """A new, empty path inside the run directory."""
        self._n += 1
        return self.path / f"{name}-{self._n}"

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    def __enter__(self) -> "RunDir":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=str(ROOT), capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over ``src/**/*.py``: identifies the measured code even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, kernel_backend: str) -> dict:
    import numpy

    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if rev else None
    return {
        "workload": workload,
        "seed": seed,
        "git_rev": rev or "unknown (not a git checkout)",
        "git_dirty": (bool(status) if status is not None else "unknown"),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "kernel_backend": kernel_backend,
        "numba": "measured" if kernel_backend == "numba" else "unmeasured",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
