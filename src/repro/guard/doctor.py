"""``spire doctor``: probe a running ``spire serve`` process.

The doctor fetches the server's ``/health`` document, renders the
long-lived process state the one-line summary elides (registry, batch
fill, quotas, rollover, drain, fleet and guard counters) and lists the
fleet-level problems that should fail a health check.
"""

from __future__ import annotations

import json

from repro.errors import DataError

__all__ = [
    "probe_server",
    "render_server_health",
    "server_health_problems",
]


def probe_server(url: str, timeout: float = 5.0) -> dict:
    """Fetch ``/health`` from a running ``spire serve`` process.

    ``url`` is either the server root (``http://host:port``) or the
    health endpoint itself.  Returns the decoded JSON payload; raises
    :class:`~repro.errors.DataError` when the server is unreachable or
    does not answer with a SPIRE health document.
    """
    from urllib.error import URLError
    from urllib.request import urlopen

    target = url.rstrip("/")
    if not target.endswith("/health"):
        target += "/health"
    if not target.startswith(("http://", "https://")):
        target = "http://" + target
    try:
        with urlopen(target, timeout=timeout) as response:  # noqa: S310
            payload = json.loads(response.read().decode("utf-8"))
    except (URLError, OSError, TimeoutError, ValueError) as exc:
        raise DataError(f"cannot probe server at {target}: {exc}") from None
    if not isinstance(payload, dict) or "health" not in payload:
        raise DataError(f"{target}: response is not a SPIRE health document")
    return payload


def render_server_health(payload: dict) -> str:
    """Human-readable view of a :func:`probe_server` payload.

    Starts from the server's own render and appends the long-lived
    process detail the one-line summary elides: micro-batch fill
    histogram, hostility-breaker counters, and per-kernel guard state.
    """
    lines = [str(payload.get("render", "")).rstrip()]
    health = payload.get("health", {})
    serve = health.get("serve_state") or {}

    fill = serve.get("batch_fill", {})
    histogram = fill.get("histogram") or {}
    if any(histogram.values()):
        buckets = "  ".join(
            f"{label}:{count}" for label, count in histogram.items() if count
        )
        lines.append(f"  batch fill histogram: {buckets}")

    hostility = serve.get("hostility") or {}
    if hostility.get("spans_attempted"):
        lines.append(
            "  hostility breaker: "
            f"{hostility.get('spans_attempted', 0)} span(s) attempted, "
            f"{hostility.get('spans_rejected', 0)} rejected, "
            f"coverage {hostility.get('span_coverage', 0.0):.2f}"
        )

    quotas = serve.get("quotas") or {}
    if quotas.get("rejected"):
        per_model = quotas.get("per_model") or {}
        detail = "  ".join(
            f"{name}:{count}" for name, count in sorted(per_model.items())
        )
        lines.append(
            f"  admission: {quotas['rejected']} request(s) quota-rejected"
            + (f" ({detail})" if detail else "")
        )

    rollover = serve.get("rollover") or {}
    if rollover.get("installs") or rollover.get("rejected"):
        lines.append(
            f"  rollover: {rollover.get('installs', 0)} install(s), "
            f"{rollover.get('rejected', 0)} rejected, "
            f"{rollover.get('adopted', 0)} adoption(s)"
        )

    drain = serve.get("drain") or {}
    if drain.get("count"):
        lines.append(
            f"  drain: {drain['count']} drain(s), last "
            f"{drain.get('last_ms', 0.0):.1f} ms, "
            f"{drain.get('flushed', 0)} queued request(s) flushed"
        )

    fleet = serve.get("fleet") or {}
    if fleet:
        worker = serve.get("worker")
        prefix = f"  fleet (seen from worker {worker}): " if worker is not None else "  fleet: "
        lines.append(
            prefix
            + f"{fleet.get('workers', 0)} slot(s), "
            f"{fleet.get('restart_total', 0)} restart(s), "
            f"stale {fleet.get('stale_slots', [])}"
        )
        for slot in fleet.get("slots", []):
            state = (
                "stale"
                if slot.get("stale")
                else ("ready" if slot.get("ready") else "starting")
            )
            counters = slot.get("counters") or {}
            lines.append(
                f"    slot {slot.get('slot')}: {state}, pid {slot.get('pid')}, "
                f"{slot.get('restarts', 0)} restart(s), "
                f"{counters.get('requests', 0)} request(s)"
            )

    for name, kernel in sorted(health.get("kernels", {}).items()):
        state = "tripped" if kernel.get("tripped") else "fast"
        lines.append(
            f"  guard {name}: {kernel.get('calls', 0)} call(s), "
            f"{kernel.get('checks', 0)} oracle check(s), {state}"
        )
    return "\n".join(line for line in lines if line)


def server_health_problems(payload: dict) -> list[str]:
    """Fleet-level defects in a :func:`probe_server` payload.

    Returns one human-readable string per problem; an empty list means
    the serving fleet looks healthy.  ``spire doctor --serve-url`` exits
    nonzero when this list is non-empty, so a supervisor with stale
    (flapping) worker slots or a registry that has quarantined model
    artifacts fails CI even though the surviving workers still answer
    ``/health`` with ``ok: true``.
    """
    problems: list[str] = []
    health = payload.get("health", {})
    if not payload.get("ok", False):
        problems.append("server reports unhealthy guard state")
    serve = health.get("serve_state") or {}

    fleet = serve.get("fleet") or {}
    stale = fleet.get("stale_slots") or []
    if stale:
        problems.append(
            f"{len(stale)} worker slot(s) stale after repeated crashes: {stale}"
        )
    for slot in fleet.get("slots", []):
        if slot.get("alive") is False and not slot.get("stale"):
            problems.append(f"worker slot {slot.get('slot')} is down (restarting)")

    registry = serve.get("registry") or {}
    if registry.get("verify_failures"):
        problems.append(
            f"{registry['verify_failures']} model artifact(s) failed "
            "verification and were quarantined"
        )

    rollover = serve.get("rollover") or {}
    if rollover.get("rejected"):
        problems.append(
            f"{rollover['rejected']} rollover install(s) rejected "
            "(artifacts quarantined in the staging area)"
        )
    return problems
