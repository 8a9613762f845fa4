"""HTTP plumbing shared by the embedding and LM clients."""

from __future__ import annotations

import os
import time
from typing import Any

import requests

from .errors import BackendError, InvalidInputError, ProtocolError

DEFAULT_MAX_ATTEMPTS = 4
DEFAULT_BACKOFF_SECONDS = 0.25
DEFAULT_TIMEOUT_SECONDS = 10.0


def post_json(
    url: str,
    payload: dict[str, Any],
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    backoff: float = DEFAULT_BACKOFF_SECONDS,
    timeout: float = DEFAULT_TIMEOUT_SECONDS,
) -> dict[str, Any]:
    """POST a JSON payload and decode a JSON object from the response.

    Connection failures, 5xx statuses and 429 (too many requests) count as
    transient and are retried with exponential backoff (backoff, 2*backoff,
    ...) up to `max_attempts` total attempts; a 429's Retry-After header is
    not read. Any other non-200 status, and a request that cannot be
    sent as given (a malformed URL or header), fails on its first attempt. A
    200 with a body that is not a JSON object raises ProtocolError.
    """
    if max_attempts < 1:
        raise InvalidInputError(f"max_attempts must be >= 1, got {max_attempts}")
    for attempt in range(1, max_attempts + 1):
        try:
            resp = requests.post(url, json=payload, timeout=timeout)
        except requests.RequestException as exc:
            # requests' URL and header errors are also ValueErrors: retrying cannot mend them
            if attempt == max_attempts or isinstance(exc, ValueError):
                plural = "s" if attempt > 1 else ""
                raise BackendError(
                    f"POST {url} failed after {attempt} attempt{plural}: {exc}",
                    attempts=attempt,
                ) from exc
            time.sleep(backoff * 2 ** (attempt - 1))
            continue
        if resp.status_code == 200:
            try:
                data = resp.json()
            except ValueError as exc:
                raise ProtocolError(f"POST {url}: response body is not valid JSON") from exc
            if not isinstance(data, dict):
                raise ProtocolError(
                    f"POST {url}: expected a JSON object, got {type(data).__name__}"
                )
            return data
        if (resp.status_code >= 500 or resp.status_code == 429) and attempt < max_attempts:
            time.sleep(backoff * 2 ** (attempt - 1))
            continue
        raise BackendError(
            f"POST {url} returned status {resp.status_code} "
            f"(attempt {attempt}/{max_attempts})",
            attempts=attempt,
            status=resp.status_code,
        )


class Endpoint:
    """A JSON service at one URL, posted to with one retry policy.

    The URL comes from the constructor or else from the environment variable
    a subclass names in `url_env`; with neither, the error names `service`.
    """

    url_env: str
    service: str

    def __init__(
        self,
        url: str | None = None,
        *,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff: float = DEFAULT_BACKOFF_SECONDS,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
    ):
        url = url or os.environ.get(self.url_env)
        if not url:
            raise InvalidInputError(
                f"no {self.service} endpoint configured: pass url= or set {self.url_env}"
            )
        if max_attempts < 1:
            raise InvalidInputError(f"max_attempts must be >= 1, got {max_attempts}")
        self.url = url
        self._retry = {"max_attempts": max_attempts, "backoff": backoff, "timeout": timeout}

    def post(self, payload: dict[str, Any]) -> dict[str, Any]:
        return post_json(self.url, payload, **self._retry)
