"""JSON POST with retries, shared by the remote chat and embedding clients.

Both endpoints speak the same transport contract: a JSON request body, an
optional bearer key read from an environment variable, 5xx and 429 answers
retried with exponential backoff, any other non-200 status fatal, and a JSON
object as the answer. Each client passes in its own exception classes so its
callers catch the same types they always have. The transport settings and
their defaults (timeout, retries, backoff base, session, sleep) are declared
here only: a client names just the settings it adds and hands every other
keyword through to `JsonPostClient`, so an unknown one raises `TypeError`
here. The module imports nothing from the package, so either client module
can import it without a cycle.
"""

from __future__ import annotations

import math
import os
import time


class JsonPostClient:
    """POSTs JSON payloads to one endpoint and returns the decoded object.

    A transport failure or a 5xx/429 status is retried up to `retries`
    attempts in total, sleeping `retry_base_delay_s * 2**(attempt - 1)`
    before each retry, or longer when a 429 carries a numeric `Retry-After`
    (seconds, capped at `timeout_s`); exhausting them raises
    `transport_error`. A transport failure is an `OSError` (every
    `requests.RequestException` is one) or a `ValueError` (a header or URL
    that cannot be encoded); any other exception from the session is a fault
    of the caller's and propagates. Any other non-200 status, and a 200
    whose body is not a JSON object, raises `error` at once. The client sets
    no concurrency limit of its own: the caller decides how many POSTs are
    outstanding at once.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        api_key_env: str,
        transport_error: type,
        error: type,
        timeout_s: float = 30.0,
        retries: int = 3,
        retry_base_delay_s: float = 0.5,
        session=None,
        sleep=time.sleep,
    ) -> None:
        if retries < 1:
            raise ValueError(f"retries must be >= 1, got {retries}")
        if session is None:
            import requests

            session = requests.Session()
        self.endpoint = endpoint
        self.api_key_env = api_key_env
        self.timeout_s = timeout_s
        self.retries = retries
        self.retry_base_delay_s = retry_base_delay_s
        self._transport_error = transport_error
        self._error = error
        # The session's post is looked up on every attempt, so a caller may
        # replace it on the instance after this client is built.
        self._session = session
        self._sleep = sleep

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def post(self, payload: dict) -> dict:
        last_error: Exception | None = None
        retry_after = 0.0
        for attempt in range(self.retries):
            if attempt:
                backoff = self.retry_base_delay_s * (2 ** (attempt - 1))
                self._sleep(max(backoff, retry_after))
                retry_after = 0.0
            try:
                response = self._session.post(
                    self.endpoint,
                    json=payload,
                    headers=self._headers(),
                    timeout=self.timeout_s,
                )
            except (OSError, ValueError) as exc:
                last_error = self._transport_error(f"request failed: {exc}")
                continue
            status = response.status_code
            if status == 200:
                return self._decode(response)
            if status >= 500 or status == 429:
                last_error = self._transport_error(f"endpoint returned status {status}")
                if status == 429:
                    retry_after = min(_retry_after_s(response), self.timeout_s)
                continue
            raise self._error(f"endpoint returned status {status}: {response.text[:200]}")
        raise self._transport_error(
            f"giving up after {self.retries} attempts: {last_error}"
        )

    def _decode(self, response) -> dict:
        try:
            body = response.json()
        except ValueError as exc:
            raise self._error(f"endpoint returned a non-JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise self._error("endpoint response is not a JSON object")
        return body


def _retry_after_s(response) -> float:
    """A 429's Retry-After in seconds; 0 when absent, a date or not a finite number."""
    headers = getattr(response, "headers", None)
    try:
        seconds = float(headers.get("Retry-After"))
    except (AttributeError, TypeError, ValueError):
        return 0.0
    return seconds if math.isfinite(seconds) else 0.0
