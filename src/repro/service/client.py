"""HTTP client for the placement service (``repro submit``/``status``).

:class:`ServiceClient` is a thin JSON-over-HTTP wrapper — one
:mod:`http.client` connection per request, no persistent state — so a
client never outlives or wedges the daemon.  The daemon is found
through its address file (``<root>/service.json``), written atomically
after bind and removed on graceful shutdown.
"""

from __future__ import annotations

import http.client
import json
import os
import time

from repro.service.queue import TERMINAL_STATES


class ServiceError(RuntimeError):
    """A request the daemon rejected (carries the HTTP status)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def read_service_address(root: str) -> tuple:
    """The ``(host, port)`` of the daemon serving ``root``.

    Raises ``FileNotFoundError`` when no daemon has published an
    address file there (not running, or not yet bound).
    """
    path = os.path.join(root, "service.json")
    with open(path) as fh:
        data = json.load(fh)
    return (data["host"], int(data["port"]))


class ServiceClient:
    """Talk to a :class:`~repro.service.server.PlacementService`.

    Address resolution: an explicit ``address`` tuple wins, otherwise
    the daemon's address file under ``root``.  Every method raises
    :class:`ServiceError` for a non-2xx response.
    """

    def __init__(self, root: str | None = None, address: tuple | None = None,
                 timeout: float = 10.0):
        if address is None:
            if root is None:
                raise ValueError("need a service root or an explicit address")
            address = read_service_address(root)
        self.address = (address[0], int(address[1]))
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, body: dict | None = None):
        conn = http.client.HTTPConnection(
            self.address[0], self.address[1], timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body)
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = json.loads(response.read().decode() or "{}")
            if response.status >= 400:
                raise ServiceError(
                    response.status,
                    data.get("error", f"HTTP {response.status} for {path}"),
                )
            return response.status, data
        finally:
            conn.close()

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Daemon liveness + stats snapshot."""
        return self._request("GET", "/health")[1]

    def stats(self) -> dict:
        """Queue counts, cache hit rates, worker count."""
        return self._request("GET", "/stats")[1]

    def submit(self, request: dict, kind: str = "place", priority: int = 0,
               job_id: str | None = None) -> dict:
        """Submit one job; returns its queue entry (with ``job_id``)."""
        body = {"kind": kind, "request": request, "priority": priority}
        if job_id is not None:
            body["job_id"] = job_id
        return self._request("POST", "/jobs", body)[1]

    def jobs(self) -> list:
        """All queue entries, submission order."""
        return self._request("GET", "/jobs")[1]["jobs"]

    def status(self, job_id: str) -> dict:
        """The queue entry for one job."""
        return self._request("GET", f"/jobs/{job_id}")[1]

    def cancel(self, job_id: str) -> dict:
        """Request cancellation; returns the entry as of the request."""
        return self._request("POST", f"/jobs/{job_id}/cancel")[1]

    def events(self, job_id: str, offset: int = 0) -> dict:
        """A job's flow telemetry events from line ``offset`` on.

        Returns ``{"events": [...], "next_offset": n}``; poll with the
        returned offset to stream a running job.
        """
        return self._request(
            "GET", f"/jobs/{job_id}/events?offset={offset}"
        )[1]

    def service_events(self, offset: int = 0) -> dict:
        """The daemon's own stream (``job.queued``/``service.*``/...)."""
        return self._request("GET", f"/events?offset={offset}")[1]

    def result(self, job_id: str) -> dict:
        """The terminal entry for a finished job (409 while running)."""
        return self._request("GET", f"/jobs/{job_id}/result")[1]

    def shutdown(self) -> dict:
        """Ask the daemon to stop gracefully."""
        return self._request("POST", "/shutdown")[1]

    # ------------------------------------------------------------------
    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.1) -> dict:
        """Block until one job is terminal; returns its entry."""
        deadline = time.monotonic() + timeout
        while True:
            entry = self.status(job_id)
            if entry["state"] in TERMINAL_STATES:
                return entry
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id!r} still {entry['state']} "
                    f"after {timeout}s"
                )
            time.sleep(poll)

    def wait_all(self, job_ids, timeout: float = 300.0,
                 poll: float = 0.1) -> list:
        """Block until every listed job is terminal; entries in order."""
        deadline = time.monotonic() + timeout
        return [
            self.wait(
                job_id,
                timeout=max(0.0, deadline - time.monotonic()),
                poll=poll,
            )
            for job_id in job_ids
        ]
