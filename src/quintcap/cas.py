"""Adapter protocol for delegating class-group checks to an external CAS.

Wire format, one request/response pair per spawned process, UTF-8,
line-delimited JSON:

    request  -> {"n": <int>}\n                                   (stdin)
    response <- {"h_k5": <int>, "type": [<int>, <int>],
                 "rank_ambiguous": <int>}\n                      (stdout)

Any deviation (nonzero exit, no output, a reply that is not UTF-8 JSON,
an integer past Python's digit limit, wrong keys or types) raises
CasProtocolError, quoting at most ECHO_LIMIT characters of the reply line or
of stderr with the full length; a stuck process raises CasTimeoutError with
n attached.
The adapter runs in a session of its own, and a timeout or an interrupt
kills its whole process group: the adapter and every process it started.
The repository ships a fixtures-backed fake (quintcap.cas_fake) honouring
this contract for tests; bridging a real CAS is a matter of wrapping it in
any executable that speaks these two lines.
"""

from __future__ import annotations

import json
import math
import os
import shlex
import signal
import subprocess
from typing import Sequence

from .fixtures import FixtureEntry, FixtureFormatError, _parse_entry

DEFAULT_TIMEOUT = 600.0

# Longest part of an adapter's reply line or stderr that an error quotes.
ECHO_LIMIT = 200


class CasProtocolError(RuntimeError):
    pass


class CasTimeoutError(RuntimeError):
    def __init__(self, n: int, timeout: float) -> None:
        super().__init__(f"CAS adapter timed out after {timeout}s for n = {n}")
        self.n = n


def cas_argv(command: "str | Sequence[str]") -> list[str]:
    """The argv of an adapter command, a string split as a shell would split
    it or a sequence; raises ValueError when it is empty."""
    argv = shlex.split(command) if isinstance(command, str) else list(command)
    if not argv:
        raise ValueError(f"the CAS command is empty: {command!r}")
    return argv


def _echo(text: str, show=str) -> str:
    """show(text), or show of its first ECHO_LIMIT characters and its length."""
    if len(text) <= ECHO_LIMIT:
        return show(text)
    return f"{show(text[:ECHO_LIMIT])}... ({len(text)} characters)"


def cas_adapter_check(
    n: int, command: "str | Sequence[str]", timeout: float = DEFAULT_TIMEOUT
) -> FixtureEntry:
    if not (timeout > 0 and math.isfinite(timeout)):
        raise ValueError(
            f"the CAS timeout must be a positive finite number of seconds, got {timeout}"
        )
    argv = cas_argv(command)
    try:
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
    except OSError as exc:
        raise CasProtocolError(f"could not spawn adapter {argv!r}: {exc}") from exc
    request = (json.dumps({"n": n}) + "\n").encode()
    try:
        stdout, stderr = proc.communicate(request, timeout=timeout)
    except BaseException as exc:
        # The adapter leads its own process group, so this also ends what it
        # started, which would otherwise hold the pipes open.  In its own
        # session it misses the terminal's Ctrl-C, so an interrupt ends it too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise CasTimeoutError(n, timeout) from None
        raise
    if proc.returncode != 0:
        message = _echo(stderr.decode("utf-8", errors="replace").strip())
        raise CasProtocolError(f"adapter exited with {proc.returncode} for n = {n}: {message}")
    first = stdout.strip().splitlines()[0] if stdout.strip() else b""
    if not first:
        raise CasProtocolError(f"adapter produced no response for n = {n}")
    line = _echo(first.decode("utf-8", errors="replace"), repr)
    try:
        # Strict UTF-8; an integer past Python's digit limit is a ValueError too.
        payload = json.loads(first.decode("utf-8"))
    except ValueError as exc:
        raise CasProtocolError(f"adapter response is not JSON: {line}") from exc
    if not isinstance(payload, dict):
        raise CasProtocolError(f"adapter response must be an object: {line}")
    try:
        return _parse_entry(dict(payload, n=n, label=None))
    except FixtureFormatError as exc:
        raise CasProtocolError(f"adapter response has a bad shape: {line}") from exc
